import itertools

import numpy as np
import pytest

from blocksolve import multisplit, problems


def count_reflection_classes(shape, block_grid, overlap=1):
    """How many block matrices of the decomposition differ from each other
    under every reflection of the grid axes.

    Brute force, sharing nothing with the library's search: each block's
    dense matrix is taken in the 8 orders of its points sorted with some
    axes reversed (``np.ix_``) and compared with one matrix per class found
    so far.
    """
    grid = problems.Grid3D(*shape)
    workspaces = multisplit.build_workspaces(
        problems.build_laplace_3d(grid), problems.decompose(grid, block_grid, overlap)
    )
    classes = []
    for ws in workspaces:
        dense = ws.a_ii.to_dense()
        z, y, x = np.unravel_index(ws.ext, (grid.nz, grid.ny, grid.nx))
        orders = (
            np.lexsort((sx * x, sy * y, sz * z))
            for sx, sy, sz in itertools.product((1, -1), repeat=3)
        )
        reordered = (dense[np.ix_(order, order)] for order in orders)
        if not any(np.array_equal(m, seen) for m in reordered for seen in classes):
            classes.append(dense)
    return len(classes)


@pytest.fixture
def distinct_block_matrices():
    """The brute-force count of direct factors a decomposition needs."""
    return count_reflection_classes
