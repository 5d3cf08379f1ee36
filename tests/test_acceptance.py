"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from blocksolve.cli import main as cli_main
from blocksolve.comm import DelayModel, Fabric
from blocksolve.inner_solvers import InnerSolverSpec, prepare
from blocksolve.multisplit import (
    OuterConfig,
    iteration_operator,
    outer_solve,
    true_relative_residual,
)
from blocksolve.problems import (
    DirichletBoundary,
    Grid3D,
    block_system,
    build_laplace_3d,
    decompose,
)

from conftest import dense_solve

MIXED_BOUNDARY = {"x_lo": 1.0, "y_hi": 0.5}

TOL = 1e-6
SOLUTION_INF_TOL = 1e-5


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{description}]: PASS")


def problem_of(n):
    return build_laplace_3d(Grid3D(n, n, n, DirichletBoundary(MIXED_BOUNDARY)))


_dense_cache = {}


def dense_solution(problem):
    key = problem.grid.shape
    if key not in _dense_cache:
        _dense_cache[key] = dense_solve(problem.matrix.to_dense(), problem.rhs)
    return _dense_cache[key]


def two_stage(problem, mode, delay=None, **overrides):
    config = OuterConfig(
        block_grid=overrides.pop("block_grid", (2, 1, 1)),
        inner=overrides.pop("inner", InnerSolverSpec("gmres", 10)),
        mode=mode,
        delay=delay or DelayModel(),
        tol=TOL,
        max_outer=20000,
        **overrides,
    )
    return outer_solve(problem, config)


def test_criterion_1_oracle_correctness():
    started = time.perf_counter()
    with criterion(1, "oracle correctness at desk scale"):
        for n in (4, 6, 8):
            problem = problem_of(n)
            x_true = dense_solution(problem)
            runs = {}
            for kind in ("jacobi", "cg", "gmres"):
                # baseline: one global solve of the full system
                spec = InnerSolverSpec(kind, 50000, TOL, restart=30)
                x, report = prepare(spec, problem.matrix)(
                    problem.rhs, np.zeros(problem.grid.num_unknowns)
                )
                assert report.stop_reason == "tolerance_met", (n, kind)
                runs[f"baseline-{kind}"] = x
            sync_result = two_stage(problem, "sync")
            assert sync_result.converged
            runs["sync"] = sync_result.solution
            async_result = two_stage(
                problem, "async", DelayModel("uniform", low=0, high=1, seed=7)
            )
            assert async_result.converged
            runs["async"] = async_result.solution
            for label, x in runs.items():
                assert true_relative_residual(problem, x) <= TOL, (n, label)
                assert np.abs(x - x_true).max() <= SOLUTION_INF_TOL, (n, label)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s (budget 60s)"


def test_criterion_2_degeneration_equivalences(sync_iterates):
    with criterion(2, "degeneration equivalences"):
        # (a) single block + inner GMRES == plain GMRES, iterate for iterate
        problem = problem_of(6)
        n = problem.grid.num_unknowns
        spec = InnerSolverSpec("gmres", 500, 1e-8, restart=30)
        x_plain, report_plain = prepare(spec, problem.matrix)(problem.rhs, np.zeros(n))
        result = outer_solve(
            problem,
            OuterConfig(block_grid=(1, 1, 1), inner=spec, tol=1e-6, max_outer=10),
        )
        assert result.outer_iterations == 1
        assert np.array_equal(result.solution, x_plain)
        assert result.trace.rows[0].inner_iterations == report_plain.iterations_used
        # the extracted single-block system is A itself, so the iterate
        # sequences (residual histories) coincide exactly
        [(a_block, coupling, halo_cols)] = block_system(
            problem, decompose(problem.grid, (1, 1, 1))
        )
        assert coupling.matrix().nnz == 0 and halo_cols.size == 0
        _, report_block = prepare(spec, a_block.matrix())(problem.rhs, np.zeros(n))
        assert report_block.residual_history == report_plain.residual_history

        # (b) one-unknown blocks + exact inner solve == point Jacobi
        problem_b = problem_of(3)
        dense_b = problem_b.matrix.to_dense()
        config_b = OuterConfig(
            block_grid=(3, 3, 3),
            inner=InnerSolverSpec("direct", 1),
            tol=1e-300,
            true_residual_interval=10**9,
        )
        d = np.diag(dense_b)
        x_ref = np.zeros(27)
        for x in sync_iterates(problem_b, config_b, 6):
            x_ref = (problem_b.rhs - (dense_b - np.diag(d)) @ x_ref) / d
            assert np.abs(x - x_ref).max() <= 1e-12

        # (c) (2,1,1) blocks + exact inner + sync == dense block Jacobi
        problem_c = problem_of(6)
        dense_c = problem_c.matrix.to_dense()
        decomp_c = decompose(problem_c.grid, (2, 1, 1))
        m = np.zeros_like(dense_c)
        for b in range(2):
            owned = decomp_c.owned_indices(b)
            m[np.ix_(owned, owned)] = dense_c[np.ix_(owned, owned)]
        config_c = OuterConfig(
            block_grid=(2, 1, 1),
            inner=InnerSolverSpec("direct", 1),
            tol=1e-300,
            true_residual_interval=10**9,
        )
        x_ref = np.zeros(problem_c.grid.num_unknowns)
        for x in sync_iterates(problem_c, config_c, 8):
            x_ref = x_ref + np.linalg.solve(m, problem_c.rhs - dense_c @ x_ref)
            assert np.abs(x - x_ref).max() <= 1e-12


def test_criterion_3_convergence_precondition(spectral_radius):
    with criterion(3, "spectral radius of every used decomposition below one"):
        cases = [
            (problem_of(4), (1, 1, 1), 0),
            (problem_of(3), (3, 3, 3), 0),
            (problem_of(4), (2, 1, 1), 0),
            (problem_of(6), (2, 1, 1), 0),
            (problem_of(8), (2, 1, 1), 0),
            (problem_of(16), (2, 1, 1), 0),
            (problem_of(16), (4, 1, 1), 0),
            (problem_of(16), (8, 1, 1), 0),
            (problem_of(16), (2, 1, 1), 1),
        ]
        radii = {}
        for problem, blocks, overlap in cases:
            decomp = decompose(problem.grid, blocks, overlap)
            apply_map, dim = iteration_operator(problem, decomp)
            radius = spectral_radius(apply_map, dim)
            assert radius < 1.0, (problem.grid.shape, blocks, overlap, radius)
            radii[(problem.grid.shape, blocks, overlap)] = radius
            if dim <= 512 and overlap == 0:
                # independent dense eigenvalue oracle: M^-1 N for M the
                # block diagonal of A on the owned boxes
                dense = problem.matrix.to_dense()
                m = np.zeros_like(dense)
                for b in range(decomp.num_blocks):
                    owned = decomp.owned_indices(b)
                    m[np.ix_(owned, owned)] = dense[np.ix_(owned, owned)]
                oracle = np.abs(np.linalg.eigvals(np.linalg.solve(m, m - dense))).max()
                assert abs(radius - oracle) <= 1e-6, (problem.grid.shape, blocks)
        # weak-scaling mirror: the radius grows with the grid
        assert radii[((8, 8, 8), (2, 1, 1), 0)] > radii[((4, 4, 4), (2, 1, 1), 0)]


def test_criterion_4_block_count_trend():
    with criterion(4, "outer iterations non-decreasing in block count"):
        problem = problem_of(16)
        outers = {}
        for gx in (2, 4, 8):
            result = two_stage(problem, "sync", block_grid=(gx, 1, 1))
            assert result.converged
            assert result.final_true_residual <= TOL
            outers[gx] = result.outer_iterations
        assert outers[2] <= outers[4] <= outers[8]
        assert outers[8] > outers[2]


def test_criterion_5_overlap_trend():
    with criterion(5, "one overlap layer does not slow convergence"):
        problem = problem_of(16)
        x_true = dense_solution(problem)
        outers = {}
        for overlap in (0, 1):
            result = two_stage(problem, "sync", overlap=overlap)
            assert result.converged
            assert result.final_true_residual <= TOL
            assert np.abs(result.solution - x_true).max() <= SOLUTION_INF_TOL
            outers[overlap] = result.outer_iterations
        assert outers[1] <= outers[0]


def test_criterion_6_sync_async_behavior():
    with criterion(6, "async converges with confirmed stop, never blocks"):
        problem = problem_of(8)
        x_true = dense_solution(problem)
        sync_result = two_stage(problem, "sync")
        async_result = two_stage(
            problem, "async", DelayModel("uniform", low=0, high=3, seed=11)
        )
        assert async_result.converged
        assert async_result.final_true_residual <= TOL
        assert np.abs(async_result.solution - x_true).max() <= SOLUTION_INF_TOL
        assert async_result.outer_iterations >= sync_result.outer_iterations

        # adversarially suspended neighbor: every async call returns
        fabric = Fabric(
            2, "async", buffer_slots=8, delay=DelayModel("fixed", fixed=1),
            topology=[[1], [0]],
        )
        started = time.perf_counter()
        for k in range(2000):
            fabric.begin_iteration(0, k)
            fresh = fabric.halo_exchange_async(0, {1: np.array([float(k)])}, k)
            assert fresh == {}
            estimate, _ = fabric.reduce_async(0, 1.0, k)
            assert math.isinf(estimate)
        in_flight, free, capacity = fabric.pool_state(0, 1)
        assert in_flight + free == capacity
        assert time.perf_counter() - started < 30.0


def test_criterion_7_protocol_invariants():
    with criterion(7, "R-buffer protocol invariants over 1000+ steps"):
        bound = 3
        fabric = Fabric(
            4,
            "async",
            buffer_slots=4,
            delay=DelayModel("uniform", low=0, high=bound, seed=23),
            topology=[[1, 2], [0, 3], [0, 3], [1, 2]],
            record_events=True,
        )
        pairs = [(w, n) for w in range(4) for n in fabric.topology[w]]
        steps = 0
        for k in range(1500):
            for wid in range(4):
                fabric.begin_iteration(wid, k)
                payloads = {
                    nbr: np.array([float(k)]) for nbr in fabric.topology[wid]
                }
                fabric.halo_exchange_async(wid, payloads, k)
                steps += 1
                for pair in pairs:
                    in_flight, free, capacity = fabric.pool_state(*pair)
                    assert in_flight + free == capacity == 4
        assert steps >= 1000
        applied = {}
        for event in fabric.events:
            if event[0] == "apply":
                _, source, target, seq, at = event
                history = applied.setdefault((source, target), [])
                if history:
                    assert seq > history[-1][0]  # strict freshness growth
                assert at - seq <= bound + 1  # staleness bound
                history.append((seq, at))
        assert applied and all(len(h) > 200 for h in applied.values())


def test_criterion_8_overlap_unknown_counts():
    with criterion(8, "overlap extra-unknown counts match the face formula"):
        grid = Grid3D(150, 150, 150)
        decomp = decompose(grid, (3, 3, 3), overlap=1)
        center = 13
        assert decomp.owned[center].widths == (50, 50, 50)
        assert len(decomp.neighbors[center]) >= 6
        assert decomp.extra_unknowns(center) == 15000

        def l1_distance(box, i, j, k):
            return sum(
                max(box.lo[a] - p, p - (box.hi[a] - 1), 0)
                for a, p in enumerate((i, j, k))
            )

        small = Grid3D(30, 30, 30)
        for overlap in (2, 3):
            dec = decompose(small, (3, 3, 3), overlap=overlap)
            box = dec.owned[13]
            brute = sum(
                1
                for k in range(30)
                for j in range(30)
                for i in range(30)
                if l1_distance(box, i, j, k) <= overlap
            )
            assert dec.owned[13].size + dec.extra_unknowns(13) == brute


def test_criterion_9_replay_determinism(tmp_path):
    with criterion(9, "replay reruns produce byte-identical traces"):
        for mode, delay in (("sync", "none"), ("async", "uniform:0:2")):
            outputs = []
            for attempt in (0, 1):
                out = tmp_path / f"{mode}_{attempt}.csv"
                code = cli_main(
                    [
                        "run", "--nx", "8", "--ny", "8", "--nz", "8", "--gx", "2",
                        "--mode", mode, "--delay", delay, "--seed", "5",
                        "--tol", "1e-6", "--out", str(out),
                    ]
                )
                assert code == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]
