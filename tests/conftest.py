import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from blocksolve import multisplit, problems
from blocksolve.linalg import CsrParts, as_vector


class SingularMatrixError(Exception):
    """Elimination hit a pivot that is zero to working precision."""

    def __init__(self, pivot_index: int):
        super().__init__(
            f"matrix is singular to working precision (pivot {pivot_index})"
        )
        self.pivot_index = pivot_index


def dense_solve(a, b, *, max_dim: int = 8192) -> np.ndarray:
    """Solve a dense square system by Gaussian elimination with partial pivoting.

    The tests' oracle for the iterative machinery, deliberately boring and
    direct: O(n^3), capped at ``max_dim`` unknowns so the suite stays fast.
    Raises SingularMatrixError (with the offending pivot index) when a pivot
    is zero to working precision.
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


def count_symmetry_classes(shape, block_grid, overlap=1):
    """How many block matrices of the decomposition differ from each other
    under every symmetry of the grid axes (an axis permutation times a
    reflection).

    Brute force, sharing nothing with the library's search: each block's
    dense matrix is taken in the 48 orders of its points sorted by the
    permuted axes with some of them reversed (``np.ix_``) and compared with
    one matrix per class found so far.
    """
    grid = problems.Grid3D(*shape)
    workspaces = multisplit.build_workspaces(
        problems.build_laplace_3d(grid), problems.decompose(grid, block_grid, overlap)
    )
    classes = []  # one block's matrix and nonzeros per row, per class
    for ws in workspaces:
        dense = ws.a_ii.to_dense()
        counts = np.count_nonzero(dense, axis=1)
        z, y, x = np.unravel_index(ws.ext, (grid.nz, grid.ny, grid.nx))
        orders = (
            np.lexsort(tuple(sign * axis for sign, axis in zip(signs, axes)))
            for axes in itertools.permutations((x, y, z))
            for signs in itertools.product((1, -1), repeat=3)
        )
        # equal matrices have equal nonzero counts row by row: a cheap test first
        if not any(
            np.array_equal(counts[order], seen_counts)
            and np.array_equal(dense[np.ix_(order, order)], seen)
            for order in orders
            for seen, seen_counts in classes
        ):
            classes.append((dense, counts))
    return len(classes)


@pytest.fixture
def distinct_block_matrices():
    """The brute-force count of direct factors a decomposition needs."""
    return count_symmetry_classes


def eigs_radius(apply_map, dim):
    """The spectral radius of a linear map on R^dim, from ARPACK: the larger
    |eigenvalue| of the two ``scipy.sparse.linalg.eigs`` finds from the
    all-ones start (two, so that a pair +r, -r still converges).

    A map that sends the start to zero, as one block's exact outer iteration
    does, has radius 0.0; ARPACK would stop there with error -9 ("starting
    vector is zero"). A run that does not converge raises.
    """
    v0 = np.ones(dim)
    if not apply_map(v0).any():
        return 0.0
    op = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=apply_map, dtype=np.float64)
    eigenvalues = scipy.sparse.linalg.eigs(op, k=2, v0=v0, return_eigenvectors=False)
    return float(np.abs(eigenvalues).max())


@pytest.fixture
def spectral_radius():
    """The ARPACK spectral radius of an ``(apply_map, dim)`` linear map."""
    return eigs_radius


def truncated_iterates(problem, config, count):
    """The first ``count`` outer iterates of a synchronous replay run.

    Replay is deterministic and stops right after iteration k when
    ``max_outer`` is k + 1, so that run's solution is iterate k; each run
    must make exactly k + 1 outer iterations."""
    xs = []
    for k in range(count):
        result = multisplit.outer_solve(problem, replace(config, max_outer=k + 1))
        assert result.outer_iterations == k + 1
        xs.append(result.solution)
    return xs


@pytest.fixture
def sync_iterates():
    """Iterates 0..count-1 of a synchronous replay run, by truncation."""
    return truncated_iterates


def per_block_regions(grid, owned, overlap):
    """Every block's extended region, built one block at a time.

    A plain reference for ``problems.decompose``: each owned box is padded
    by the overlap and clipped to the grid, and the points of the padded box
    within L1 distance ``overlap`` of the owned box are kept.
    """
    regions = []
    for box in owned:
        first, last = np.array(box.lo), np.array(box.hi) - 1
        pad_lo = np.maximum(first - overlap, 0)
        pad_hi = np.minimum(last + 1 + overlap, grid.shape)
        x, y, z = (np.arange(pad_lo[d], pad_hi[d], dtype=np.int64) for d in range(3))
        dx, dy, dz = (
            np.maximum(np.maximum(first[d] - c, c - last[d]), 0) for d, c in enumerate((x, y, z))
        )
        distance = dx + dy[:, None] + dz[:, None, None]
        indices = x + grid.nx * (y[:, None] + grid.ny * z[:, None, None])
        regions.append(indices[distance <= overlap])
    return regions


@pytest.fixture
def reference_regions():
    """The per-block reference builder of the extended regions."""
    return per_block_regions


def csr_parts(csr):
    """A scipy CSR matrix's arrays, as the workspaces hold them."""
    return CsrParts(csr.data, csr.indices, csr.indptr, csr.shape)


def per_block_workspaces(problem, decomp):
    """Every block's workspace and links, built one block and one neighbor
    at a time: two lists, in block order.

    A plain reference for ``multisplit.build_workspaces`` and
    ``multisplit.build_links``: each block's rows of A are taken with
    scipy's fancy indexing (``A[ext][:, ext]`` and the outside columns they
    touch), and each neighbor's payload map with one ``np.intersect1d`` of
    the neighbor's owned points and the tracked points.
    """
    b = problem.rhs
    b_global_norm = float(np.linalg.norm(b)) or 1.0
    exts = decomp.extended_indices
    owned_glob = [decomp.owned_indices(blk) for blk in range(decomp.num_blocks)]
    owned_loc = [np.searchsorted(ext, owned) for ext, owned in zip(exts, owned_glob)]
    send_idx = [{} for _ in exts]
    workspaces, links = [], []
    for blk, ext in enumerate(exts):
        rows = problem.matrix.csr[ext]
        outside = np.setdiff1d(rows.indices, ext)
        halo_cols = outside.astype(np.int64)
        shared_local = np.setdiff1d(np.arange(ext.shape[0]), owned_loc[blk])
        tracked = np.concatenate((halo_cols, ext[shared_local]))
        recv_slots = {}
        for src in sorted(decomp.neighbors[blk]):
            # the tracked points the neighbor owns, in global index order,
            # with their places among its owned points and the tracked ones
            _, shipped, slot = np.intersect1d(
                owned_glob[src], tracked, assume_unique=True, return_indices=True
            )
            send_idx[src][blk] = owned_loc[src][shipped]
            if slot.size:
                recv_slots[src] = slot
        workspaces.append(
            multisplit.BlockWorkspace(
                block_id=blk,
                ext=ext,
                a_ii_parts=csr_parts(rows[:, ext]),
                coupling_parts=csr_parts(rows[:, halo_cols]),
                halo_cols=halo_cols,
                b_ext=b[ext].copy(),
                residual_scale=float(np.linalg.norm(b[owned_glob[blk]])) or b_global_norm,
                owned_global=owned_glob[blk],
                owned_local=owned_loc[blk],
                shared_local=shared_local,
            )
        )
        links.append(multisplit.BlockLinks(send_idx=send_idx[blk], recv_slots=recv_slots))
    return workspaces, links


@pytest.fixture
def reference_workspaces():
    """The per-block reference builder of the block workspaces and links."""
    return per_block_workspaces
