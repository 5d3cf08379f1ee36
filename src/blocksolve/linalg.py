"""Sparse/dense kernels and the verification oracles used by the solvers.

Vectors are plain one-dimensional float64 numpy arrays. The sparse format is
scipy's CSR (``scipy.sparse.csr_array``), kept canonical: strictly increasing
column indices inside each row. The dense solve exists mainly to
cross-check the iterative machinery, so it is deliberately boring and
direct. No spectral-radius estimator lives here: run
``scipy.sparse.linalg.eigs`` on a ``LinearOperator`` around the map that
``multisplit.iteration_operator`` returns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse

__all__ = [
    "CsrParts",
    "SparseMatrix",
    "SingularMatrixError",
    "ZeroRhsError",
    "spmv",
    "residual_norms",
    "dense_solve",
]

DENSE_ORACLE_CAP = 8192


class SingularMatrixError(Exception):
    """Elimination hit a pivot that is zero to working precision."""

    def __init__(self, pivot_index: int):
        super().__init__(
            f"matrix is singular to working precision (pivot {pivot_index})"
        )
        self.pivot_index = pivot_index


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


def dense_solve(a, b, *, max_dim: int = DENSE_ORACLE_CAP) -> np.ndarray:
    """Solve a dense square system by Gaussian elimination with partial pivoting.

    Verification oracle: O(n^3), capped at ``max_dim`` unknowns so the test
    suite stays fast. Raises SingularMatrixError (with the offending pivot
    index) when a pivot is zero to working precision.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    b = as_vector(b, n)
    if n > max_dim:
        raise ValueError(f"system of size {n} exceeds the oracle cap {max_dim}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=True)
    pivots = np.abs(np.diag(lu))
    scale = max(float(np.abs(a).max()), np.finfo(np.float64).tiny)
    tol = n * np.finfo(np.float64).eps * scale
    bad = np.nonzero(pivots <= tol)[0]
    if bad.size:
        raise SingularMatrixError(int(bad[0]))
    return scipy.linalg.lu_solve((lu, piv), b)
