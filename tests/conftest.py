import itertools
from dataclasses import replace

import numpy as np
import pytest

from blocksolve import multisplit, problems


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
