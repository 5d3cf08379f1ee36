"""The benchmark's traced run patches blocksolve entry points by name.

``perfbench/spans.py`` replaces functions and imported aliases with timing
wrappers. A rename in the library would leave a span silently empty, so
these solves check that every layer the per-layer metrics read still
records spans.
"""

import importlib.util
from pathlib import Path

import pytest

from blocksolve import inner_solvers, multisplit, problems

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def traced_calls(kind, mode, shape=(4, 4, 4), block_grid=(2, 2, 2)):
    """Span counts and the result of one traced replay solve, by default on
    4^3 with 2x2x2 blocks."""
    tracer = load_tracer()()
    config = multisplit.OuterConfig(
        block_grid=block_grid,
        overlap=1,
        inner=inner_solvers.InnerSolverSpec(kind, 10),
        mode=mode,
        tol=1e-6,
    )
    with tracer.installed():
        grid = problems.Grid3D(*shape, problems.DirichletBoundary({"x_lo": 1.0}))
        result = multisplit.outer_solve(problems.build_laplace_3d(grid), config)
    assert result.converged
    return tracer.totals()[2], result


# direct solves factor through scipy.linalg in inner_solvers.factor_direct,
# seen at lu_factor, and solve by a product with the inverse, seen at
# inner_solve like every other kind, never at lu_solve; blocks whose
# matrices are equal up to a symmetry of the grid axes share one factor
# (distinct_block_matrices: conftest.py), and synchronous replay solves all
# blocks of a factor in one inner_solve
@pytest.mark.parametrize(
    "kind,inner_spans",
    [("gmres", {"inner_solve"}), ("direct", {"lu_factor", "inner_solve"})],
)
def test_traced_solve_records_every_layer(kind, inner_spans, distinct_block_matrices):
    calls, result = traced_calls(kind, "sync")
    expected = {
        "spmv", "block_system", "build_laplace_3d", "decompose", "build_workspaces"
    } | inner_spans
    missing = {name for name in expected if calls[name] == 0}
    assert not missing, f"no spans recorded for {sorted(missing)}"
    assert calls["lu_solve"] == 0
    if kind == "gmres":
        # one span per block solve, each seen once
        assert calls["inner_solve"] == 8 * result.outer_iterations
    else:
        # the eight corner blocks of 4^3 are mirror images of one another
        assert calls["lu_factor"] == distinct_block_matrices((4, 4, 4), (2, 2, 2)) == 1
        assert calls["inner_solve"] == calls["lu_factor"] * result.outer_iterations


def test_traced_direct_solve_factors_each_distinct_block_once(distinct_block_matrices):
    # along x, the two end blocks of the 12x4x4 slab are equal, and so are
    # the two middle ones
    calls, result = traced_calls("direct", "sync", (12, 4, 4), (4, 1, 1))
    assert calls["lu_factor"] == distinct_block_matrices((12, 4, 4), (4, 1, 1)) == 2
    assert calls["inner_solve"] == calls["lu_factor"] * result.outer_iterations
    assert calls["lu_solve"] == 0


def test_traced_async_direct_solve_makes_one_inner_solve_per_block_solve():
    # the per-block workers solve each block through its shared factor alone
    calls, result = traced_calls("direct", "async")
    assert calls["lu_factor"] == 1
    assert calls["inner_solve"] == sum(row.inner_iterations for row in result.trace.rows)
    assert calls["lu_solve"] == 0


def test_traced_async_solve_records_the_per_block_layers():
    # synchronous replay runs as one stacked iteration; the per-block rhs,
    # merge and local residual run only in the per-block workers
    calls, _ = traced_calls("gmres", "async")
    expected = {"merge_overlap", "local_residual", "assemble_rhs", "inner_solve", "spmv"}
    missing = {name for name in expected if calls[name] == 0}
    assert not missing, f"no spans recorded for {sorted(missing)}"
