"""The sparse matrix the solvers share, its product and residual norms.

Vectors are plain one-dimensional float64 numpy arrays. The sparse format is
scipy's CSR (``scipy.sparse.csr_array``), kept canonical: strictly increasing
column indices inside each row. No dense solve lives here: the direct
inner solve is ``inner_solvers.factor_direct``, and the tests keep their
own dense oracle. No spectral-radius estimator lives here either: run
``scipy.sparse.linalg.eigs`` on a ``LinearOperator`` around the map that
``multisplit.iteration_operator`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse

__all__ = [
    "CsrParts",
    "SparseMatrix",
    "ZeroRhsError",
    "spmv",
    "residual_norms",
]


class ZeroRhsError(ValueError):
    """Relative residual requested against a zero right-hand side."""


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {v.shape[0]}")
    return v


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """A ``scipy.sparse.csr_array`` held in canonical form.

    Canonical means the column indices inside each row are strictly
    increasing, so there is at most one stored entry per (row, col). The
    CSR arrays are exposed under the names the solvers and tools read.
    """

    csr: scipy.sparse.csr_array

    def __post_init__(self):
        if not isinstance(self.csr, scipy.sparse.csr_array):
            raise TypeError(f"expected a scipy.sparse.csr_array, got {type(self.csr)}")
        self.check()

    @property
    def num_rows(self) -> int:
        return self.csr.shape[0]

    @property
    def num_cols(self) -> int:
        return self.csr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def row_offsets(self) -> np.ndarray:
        return self.csr.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self.csr.indices

    @property
    def values(self) -> np.ndarray:
        return self.csr.data

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    @classmethod
    def from_dense(cls, dense) -> "SparseMatrix":
        a = np.asarray(dense, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(scipy.sparse.csr_array(a))

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def diagonal(self) -> np.ndarray:
        """Diagonal entries; positions without a stored entry read as zero."""
        return self.csr.diagonal()

    def without_diagonal(self) -> "SparseMatrix":
        """Copy with the diagonal entries dropped."""
        diag = scipy.sparse.diags_array(self.diagonal(), shape=self.shape)
        return SparseMatrix((self.csr - diag).tocsr())

    def check(self) -> None:
        """Validate the CSR invariants, raising ValueError on violation."""
        self.csr.check_format(full_check=True)
        if not self.csr.has_canonical_format:
            raise ValueError("columns not strictly increasing in some row")


class CsrParts(NamedTuple):
    """The arrays of a CSR matrix, neither wrapped nor checked: ``data``,
    ``indices`` and ``indptr`` as scipy names them, and the shape. Whoever
    makes them vouches for the CSR invariants; ``matrix()`` checks them."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def matrix(self) -> SparseMatrix:
        return SparseMatrix(
            scipy.sparse.csr_array((self.data, self.indices, self.indptr), shape=self.shape)
        )


def spmv(a: SparseMatrix, x) -> np.ndarray:
    """y = A x for a CSR matrix."""
    x = as_vector(x)
    if x.shape[0] != a.num_cols:
        raise ValueError(
            f"dimension mismatch: matrix has {a.num_cols} columns, vector has {x.shape[0]}"
        )
    return a.csr @ x


def residual_norms(a: SparseMatrix, x, b) -> tuple[float, float]:
    """Return (absolute, relative) Euclidean residual norms of b - Ax."""
    b = as_vector(b, a.num_rows)
    r = b - spmv(a, x)
    absolute = float(np.linalg.norm(r))
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        raise ZeroRhsError("relative residual undefined for a zero right-hand side")
    return absolute, absolute / bnorm
