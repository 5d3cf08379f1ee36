import math
import sys
import time

import numpy as np
import pytest

from blocksolve import multisplit
from blocksolve.comm import DelayModel
from blocksolve.errors import ConfigurationError, ProtocolError, SolverBreakdownError
from blocksolve.inner_solvers import InnerSolveReport, InnerSolverSpec
from blocksolve.linalg import SparseMatrix, dense_solve, power_iteration
from blocksolve.multisplit import (
    OuterConfig,
    ResidualTrace,
    TRACE_HEADER,
    assemble_block_rhs,
    build_workspaces,
    check_termination,
    combined_residual,
    iteration_operator,
    local_relative_residual,
    merge_overlap,
    outer_solve,
    true_relative_residual,
)
from blocksolve.problems import (
    Box,
    DirichletBoundary,
    Grid3D,
    LinearProblem,
    build_laplace_3d,
    decompose,
)


def make_problem(n, boundary=None):
    grid = Grid3D(n, n, n, boundary or DirichletBoundary({"x_lo": 1.0, "y_hi": 0.5}))
    return build_laplace_3d(grid)


def dense_solution(problem):
    return dense_solve(problem.matrix.to_dense(), problem.rhs)


def seed_state_with(workspaces, states, x_global):
    """Point every cache at the values of a given global vector."""
    for ws, state in zip(workspaces, states):
        state.x_local = x_global[ws.ext].copy()
        state.own_shared = state.x_local[ws.shared_local].copy()
        for nbr in ws.neighbors:
            sender = workspaces[nbr]
            state.payload_cache[nbr] = x_global[sender.ext][sender.send_idx[ws.block_id]]
            state.payload_seq[nbr] = 0
        merge_overlap(ws, state)


def drop_neighbor_pair(decomp):
    decomp.neighbors[0].remove(1)
    decomp.neighbors[1].remove(0)


def zero_cover_outside_block_0(decomp):
    outside = np.ones(decomp.cover_counts.shape[0], dtype=bool)
    outside[decomp.extended_indices[0]] = False
    decomp.cover_counts[outside] = 0


def shrink_owned_box_of_block_1(decomp):
    # the dropped x-plane stays in block 1's extended region, owned by no block
    box = decomp.owned[1]
    decomp.owned[1] = Box((box.lo[0] + 1, box.lo[1], box.lo[2]), box.hi)


def drop_owned_point_from_extended_region(decomp):
    decomp.extended_indices[0] = decomp.extended_indices[0][1:]


class TestBuildWorkspaceGuards:
    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (drop_neighbor_pair, "payload coverage"),
            (zero_cover_outside_block_0, "outside every extended region"),
            (shrink_owned_box_of_block_1, "not owned by exactly one neighbor"),
            (drop_owned_point_from_extended_region, "membership"),
        ],
    )
    def test_corrupt_decomposition_raises(self, corrupt, message):
        problem = make_problem(4)
        decomp = decompose(problem.grid, (2, 2, 1), 1)
        build_workspaces(problem, decomp)
        corrupt(decomp)
        with pytest.raises(ProtocolError, match=message):
            build_workspaces(problem, decomp)


class TestAssembleRhs:
    def test_single_block_is_global_rhs(self):
        problem = make_problem(3)
        decomp = decompose(problem.grid, (1, 1, 1))
        ws = build_workspaces(problem, decomp)[0]
        state = ws.initial_state()
        assert np.array_equal(assemble_block_rhs(ws, state.halo_values), problem.rhs)

    def test_zero_halos_give_restriction(self):
        problem = build_laplace_3d(Grid3D(4, 1, 1, DirichletBoundary({"x_lo": 1.0})))
        decomp = decompose(problem.grid, (2, 1, 1))
        for ws in build_workspaces(problem, decomp):
            state = ws.initial_state()
            rhs = assemble_block_rhs(ws, state.halo_values)
            assert np.array_equal(rhs, problem.rhs[ws.ext])

    @pytest.mark.parametrize("blocks,overlap", [((2, 1, 1), 0), ((2, 2, 1), 1)])
    def test_exact_halo_is_fixed_point(self, blocks, overlap):
        problem = make_problem(4)
        x_true = dense_solution(problem)
        decomp = decompose(problem.grid, blocks, overlap)
        workspaces = build_workspaces(problem, decomp)
        states = [ws.initial_state() for ws in workspaces]
        seed_state_with(workspaces, states, x_true)
        for ws, state in zip(workspaces, states):
            rhs = assemble_block_rhs(ws, state.halo_values)
            x_block = dense_solve(ws.a_ii.to_dense(), rhs)
            assert np.abs(x_block - x_true[ws.ext]).max() <= 1e-12


class TestMergeOverlap:
    def test_no_overlap_merge_is_identity(self):
        problem = make_problem(4)
        decomp = decompose(problem.grid, (2, 1, 1))
        ws = build_workspaces(problem, decomp)[0]
        state = ws.initial_state()
        state.x_local = np.arange(float(ws.n_local))
        state.own_shared = state.x_local[ws.shared_local].copy()
        before = state.x_local.copy()
        merge_overlap(ws, state)
        assert np.array_equal(state.x_local, before)

    def test_two_cover_average(self):
        problem = build_laplace_3d(Grid3D(4, 1, 1))
        decomp = decompose(problem.grid, (2, 1, 1), overlap=1)
        workspaces = build_workspaces(problem, decomp)
        ws = workspaces[0]
        state = ws.initial_state()
        # extended region {0,1,2}; point 2 is shared with (owned by) block 1
        state.x_local = np.array([0.0, 0.0, 4.0])
        state.own_shared = state.x_local[ws.shared_local].copy()
        payload = np.zeros(ws.payload_len[1])
        sender_points = workspaces[1].ext[workspaces[1].send_idx[0]]
        payload[sender_points == 2] = 10.0
        state.payload_cache[1] = payload
        merge_overlap(ws, state)
        shared_value = state.x_local[ws.shared_local][0]
        assert shared_value == pytest.approx((4.0 + 10.0) / 2)

    def test_identical_values_merge_to_identity(self):
        problem = make_problem(4)
        decomp = decompose(problem.grid, (2, 2, 1), overlap=1)
        workspaces = build_workspaces(problem, decomp)
        states = [ws.initial_state() for ws in workspaces]
        rng = np.random.default_rng(3)
        x_global = rng.standard_normal(problem.grid.num_unknowns)
        seed_state_with(workspaces, states, x_global)
        for ws, state in zip(workspaces, states):
            assert np.abs(state.x_local - x_global[ws.ext]).max() <= 1e-15
            assert np.abs(state.halo_values - x_global[ws.halo_cols]).max() <= 1e-15

    def test_merge_oracle_over_covering_blocks(self):
        # (2, 2, 2) with overlap 1: points next to two or three cuts are
        # covered by up to four blocks
        problem = make_problem(6)
        decomp = decompose(problem.grid, (2, 2, 2), overlap=1)
        assert decomp.cover_counts.max() > 2
        workspaces = build_workspaces(problem, decomp)
        rng = np.random.default_rng(11)
        # block c reports values[c][p] at every point p it covers
        values = rng.standard_normal((decomp.num_blocks, problem.grid.num_unknowns))
        owner = np.empty(problem.grid.num_unknowns, dtype=int)
        for blk in range(decomp.num_blocks):
            owner[decomp.owned_indices(blk)] = blk
        for ws in workspaces:
            state = ws.initial_state()
            state.x_local = values[ws.block_id][ws.ext].copy()
            state.own_shared = state.x_local[ws.shared_local].copy()
            for nbr in ws.neighbors:
                sender = workspaces[nbr]
                state.payload_cache[nbr] = values[nbr][sender.ext[sender.send_idx[ws.block_id]]]
            merge_overlap(ws, state)

            owned = decomp.owned_indices(ws.block_id)
            shared = np.setdiff1d(ws.ext, owned)
            for points, merged in (
                (ws.halo_cols, state.halo_values),
                (shared, state.x_local[np.searchsorted(ws.ext, shared)]),
            ):
                covering = [
                    [c for c, ext in enumerate(decomp.extended_indices) if p in ext]
                    for p in points
                ]
                expected = [np.mean(values[cs, p]) for cs, p in zip(covering, points)]
                assert merged == pytest.approx(expected, rel=1e-14, abs=1e-14)
            tracked = np.concatenate((ws.halo_cols, shared))
            assert np.array_equal(state.owner_values, values[owner[tracked], tracked])
            assert np.array_equal(state.x_local[ws.owned_local], values[ws.block_id][owned])


class TestResidualCombination:
    def test_paper_combiner(self):
        assert combined_residual([3.0, 4.0]) == 5.0
        assert combined_residual([7.0]) == 7.0
        assert combined_residual([]) == 0.0

    def test_combiner_inflation_on_symmetric_blocks(self):
        # identical half-systems: block residues r each, combiner sqrt(2) r,
        # while the true global relative residual is r
        problem = build_laplace_3d(Grid3D(2, 1, 1, DirichletBoundary({"x_lo": 1.0, "x_hi": 1.0})))
        decomp = decompose(problem.grid, (2, 1, 1))
        workspaces = build_workspaces(problem, decomp)
        states = [ws.initial_state() for ws in workspaces]
        x = np.array([0.1, 0.1])  # symmetric, not the solution
        seed_state_with(workspaces, states, x)
        locals_ = [
            local_relative_residual(ws, st) for ws, st in zip(workspaces, states)
        ]
        assert locals_[0] == pytest.approx(locals_[1])
        true = true_relative_residual(problem, x)
        assert combined_residual(locals_) == pytest.approx(math.sqrt(2.0) * true)

    def test_combiner_dominates_true_residual(self):
        problem = make_problem(4)
        decomp = decompose(problem.grid, (2, 2, 1), overlap=1)
        workspaces = build_workspaces(problem, decomp)
        states = [ws.initial_state() for ws in workspaces]
        rng = np.random.default_rng(11)
        x = rng.standard_normal(problem.grid.num_unknowns)
        seed_state_with(workspaces, states, x)
        locals_ = [
            local_relative_residual(ws, st) for ws, st in zip(workspaces, states)
        ]
        assert combined_residual(locals_) >= true_relative_residual(problem, x)


class TestCheckTermination:
    def test_sync_stops_below_tolerance(self):
        assert check_termination(5e-7, 1e-6, 10, 100, "sync") == "stop"

    def test_max_outer_stops_regardless(self):
        assert check_termination(1.0, 1e-6, 100, 100, "sync") == "stop"
        assert check_termination(1.0, 1e-6, 100, 100, "async") == "stop"

    def test_async_asks_for_confirmation(self):
        assert check_termination(5e-7, 1e-6, 10, 100, "async") == "confirm"

    def test_continue_otherwise(self):
        assert check_termination(1e-3, 1e-6, 10, 100, "sync") == "continue"
        assert check_termination(1e-3, 1e-6, 10, 100, "async") == "continue"


class TestOuterSolve:
    def test_single_block_gmres_one_outer(self):
        problem = make_problem(4)
        x_true = dense_solution(problem)
        config = OuterConfig(
            block_grid=(1, 1, 1),
            inner=InnerSolverSpec("gmres", 500, 1e-10, restart=64),
            tol=1e-8,
            max_outer=10,
        )
        result = outer_solve(problem, config)
        assert result.converged
        assert result.outer_iterations == 1
        assert np.abs(result.solution - x_true).max() <= 1e-8

    def test_sync_two_blocks_matches_oracle(self):
        problem = make_problem(8)
        x_true = dense_solution(problem)
        config = OuterConfig(
            block_grid=(2, 1, 1),
            inner=InnerSolverSpec("gmres", 10),
            tol=1e-6,
            max_outer=2000,
        )
        result = outer_solve(problem, config)
        assert result.converged
        assert result.final_true_residual <= 1e-6
        assert np.abs(result.solution - x_true).max() <= 1e-5

    def test_async_converges_with_more_outers(self):
        problem = make_problem(8)
        sync = outer_solve(
            problem,
            OuterConfig(
                block_grid=(2, 1, 1), inner=InnerSolverSpec("gmres", 10), tol=1e-6,
                max_outer=4000,
            ),
        )
        async_ = outer_solve(
            problem,
            OuterConfig(
                block_grid=(2, 1, 1),
                inner=InnerSolverSpec("gmres", 10),
                mode="async",
                delay=DelayModel("uniform", low=0, high=3, seed=12),
                tol=1e-6,
                max_outer=4000,
            ),
        )
        assert sync.converged and async_.converged
        assert async_.final_true_residual <= 1e-6
        assert async_.outer_iterations >= sync.outer_iterations

    @pytest.mark.parametrize(
        "delay",
        [
            DelayModel("fixed", fixed=2),
            DelayModel("uniform", low=0, high=5, seed=2),
            DelayModel("drop_free_jitter", low=0, high=4, seed=6),
        ],
    )
    def test_async_confirmed_stop_is_truthful(self, delay):
        # confirmed termination must imply true convergence whatever the delays
        problem = make_problem(6)
        config = OuterConfig(
            block_grid=(2, 2, 1),
            inner=InnerSolverSpec("gmres", 8),
            mode="async",
            delay=delay,
            tol=1e-6,
            max_outer=5000,
        )
        result = outer_solve(problem, config)
        assert result.converged
        assert result.final_true_residual <= 1e-6

    def test_exhaustion_reported_distinctly(self):
        problem = make_problem(8)
        config = OuterConfig(
            block_grid=(2, 1, 1), inner=InnerSolverSpec("gmres", 2), tol=1e-12,
            max_outer=3,
        )
        result = outer_solve(problem, config)
        assert not result.converged
        assert result.outer_iterations == 3

    def test_trace_rows_well_formed(self):
        problem = make_problem(6)
        config = OuterConfig(
            block_grid=(2, 1, 1), inner=InnerSolverSpec("gmres", 10), tol=1e-6,
            max_outer=500,
        )
        trace = outer_solve(problem, config).trace
        ks = [row.outer_iteration for row in trace.rows]
        assert ks == sorted(set(ks))
        assert all(row.estimated_residual >= 0 for row in trace.rows)
        assert all(row.inner_iterations >= 0 for row in trace.rows)
        assert trace.rows[-1].true_residual is not None

    def test_true_residual_termination_mode(self):
        problem = make_problem(6)
        config = OuterConfig(
            block_grid=(2, 1, 1),
            inner=InnerSolverSpec("gmres", 10),
            tol=1e-6,
            max_outer=500,
            residual_check_mode="true",
        )
        result = outer_solve(problem, config)
        assert result.converged
        assert result.final_true_residual <= 1e-6
        assert all(row.true_residual is not None for row in result.trace.rows)

    def test_breakdown_propagates_block_id(self):
        # indefinite second diagonal block makes CG break down in block 1
        grid = Grid3D(2, 1, 1)
        matrix = SparseMatrix.from_dense(np.array([[1.0, 1.0], [1.0, -1.0]]))
        problem = LinearProblem(matrix, np.array([1.0, 1.0]), grid)
        config = OuterConfig(
            block_grid=(2, 1, 1), inner=InnerSolverSpec("cg", 5, 1e-10), tol=1e-6,
            max_outer=10,
        )
        with pytest.raises(SolverBreakdownError) as err:
            outer_solve(problem, config)
        assert err.value.block_id == 1

    def test_threads_execution_smoke(self):
        problem = make_problem(6)
        for mode in ("sync", "async"):
            config = OuterConfig(
                block_grid=(2, 1, 1),
                inner=InnerSolverSpec("gmres", 10),
                mode=mode,
                tol=1e-6,
                max_outer=2000,
                execution="threads",
            )
            result = outer_solve(problem, config)
            assert result.converged
            assert result.final_true_residual <= 1e-6

    def test_threads_breakdown_surfaces_failing_block(self, monkeypatch):
        # block 1's two-row system breaks down at iteration 0 while block 0
        # waits for its payload; the secondary deadlock must not mask it
        original = multisplit.inner_solve

        def breaks_on_block_1(a, rhs, x0, spec):
            if a.num_rows == 2:
                return x0, InnerSolveReport(0, math.inf, "breakdown")
            return original(a, rhs, x0, spec)

        monkeypatch.setattr(multisplit, "inner_solve", breaks_on_block_1)
        problem = build_laplace_3d(Grid3D(5, 1, 1, DirichletBoundary({"x_lo": 1.0})))
        for execution in ("replay", "threads"):
            config = OuterConfig(
                block_grid=(2, 1, 1),
                inner=InnerSolverSpec("gmres", 2),
                execution=execution,
            )
            with pytest.raises(SolverBreakdownError, match="block 1") as err:
                outer_solve(problem, config)
            assert err.value.block_id == 1

    def test_singular_direct_block_surfaces_its_breakdown(self):
        # zeroing A's last row makes block 1's factor singular; its first
        # solve must report the breakdown instead of handing on NaNs
        problem = build_laplace_3d(Grid3D(4, 1, 1, DirichletBoundary({"x_lo": 1.0})))
        dense = problem.matrix.to_dense()
        dense[-1] = 0.0
        singular = LinearProblem(SparseMatrix.from_dense(dense), problem.rhs, problem.grid)
        for execution in ("replay", "threads"):
            config = OuterConfig(
                block_grid=(2, 1, 1),
                inner=InnerSolverSpec("direct", 1),
                execution=execution,
            )
            with pytest.raises(SolverBreakdownError, match="block 1") as err:
                outer_solve(singular, config)
            assert (err.value.block_id, err.value.outer_iteration) == (1, 0)
        apply_map, dim = iteration_operator(singular, decompose(singular.grid, (2, 1, 1)))
        with pytest.raises(SolverBreakdownError) as err:
            apply_map(np.ones(dim))
        assert err.value.block_id == 1

    def test_threads_slow_block_is_not_a_deadlock(self, monkeypatch):
        # block 0 waits at the sync rendezvous while block 1 is still in its
        # first inner solve; no fabric change for that long is not a deadlock
        original = multisplit.inner_solve
        slept = []

        def slow_block_1(a, rhs, x0, spec):
            if a.num_rows == 2 and not slept:
                slept.append(True)
                time.sleep(0.2)
            return original(a, rhs, x0, spec)

        monkeypatch.setattr(multisplit, "inner_solve", slow_block_1)
        problem = build_laplace_3d(Grid3D(5, 1, 1, DirichletBoundary({"x_lo": 1.0})))
        config = OuterConfig(
            block_grid=(2, 1, 1), inner=InnerSolverSpec("gmres", 2), execution="threads"
        )
        result = outer_solve(problem, config)
        assert slept and result.converged

    def test_threads_liveness_under_fast_switching(self):
        # eight workers on few cores, switching threads every 10 microseconds:
        # a worker notified of a change but not yet awake when its last peer
        # starts waiting must not make the fabric report a deadlock
        problem = make_problem(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for mode in ("sync", "async"):
                config = OuterConfig(
                    block_grid=(2, 2, 2),
                    inner=InnerSolverSpec("gmres", 3),
                    mode=mode,
                    execution="threads",
                )
                assert outer_solve(problem, config).converged
        finally:
            sys.setswitchinterval(interval)

    def test_direct_refuses_block_over_dense_cap(self, monkeypatch):
        # one 21x21x19 block has 8379 rows, over the 8192-row dense cap
        problem = build_laplace_3d(Grid3D(21, 21, 19))

        def no_densify(matrix):
            raise AssertionError("a block was densified before the size check")

        monkeypatch.setattr(SparseMatrix, "to_dense", no_densify)
        config = OuterConfig(inner=InnerSolverSpec("direct", 1))
        with pytest.raises(ConfigurationError, match="block 0 .* 8379 rows"):
            outer_solve(problem, config)
        with pytest.raises(ConfigurationError, match="block 0 .* 8379 rows"):
            iteration_operator(problem, decompose(problem.grid, (1, 1, 1)))

    def test_capture_requires_replay(self):
        with pytest.raises(ConfigurationError):
            OuterConfig(capture_iterates=True, execution="threads")


class TestFixedPoint:
    @pytest.mark.parametrize("blocks,overlap", [((2, 1, 1), 0), ((2, 2, 2), 1)])
    def test_exact_solution_unchanged_by_iteration(self, blocks, overlap):
        problem = make_problem(4)
        x_true = dense_solution(problem)
        decomp = decompose(problem.grid, blocks, overlap)
        workspaces = build_workspaces(problem, decomp)
        states = [ws.initial_state() for ws in workspaces]
        seed_state_with(workspaces, states, x_true)
        for ws, state in zip(workspaces, states):
            rhs = assemble_block_rhs(ws, state.halo_values)
            x_new = dense_solve(ws.a_ii.to_dense(), rhs)
            assert np.abs(x_new - state.x_local).max() <= 1e-12
            assert local_relative_residual(ws, state) <= 1e-12


class TestDegenerations:
    def test_block_jacobi_recurrence(self):
        # exact inner solves, no overlap, sync: iterates are plain block Jacobi
        problem = make_problem(6)
        dense = problem.matrix.to_dense()
        decomp = decompose(problem.grid, (2, 1, 1))
        config = OuterConfig(
            block_grid=(2, 1, 1),
            inner=InnerSolverSpec("direct", 1),
            tol=1e-300,
            max_outer=8,
            capture_iterates=True,
            true_residual_interval=10**9,
        )
        result = outer_solve(problem, config)
        m = np.zeros_like(dense)
        for b in range(decomp.num_blocks):
            owned = decomp.owned_indices(b)
            m[np.ix_(owned, owned)] = dense[np.ix_(owned, owned)]
        x_ref = np.zeros(problem.grid.num_unknowns)
        for k, snapshot in result.snapshots:
            x_ref = x_ref + np.linalg.solve(m, problem.rhs - dense @ x_ref)
            assert np.abs(snapshot - x_ref).max() <= 1e-12

    def test_point_jacobi_degeneration(self):
        # one-unknown blocks with exact inner solves reproduce point Jacobi
        problem = make_problem(3)
        dense = problem.matrix.to_dense()
        config = OuterConfig(
            block_grid=(3, 3, 3),
            inner=InnerSolverSpec("direct", 1),
            tol=1e-300,
            max_outer=6,
            capture_iterates=True,
            true_residual_interval=10**9,
        )
        result = outer_solve(problem, config)
        d = np.diag(dense)
        x_ref = np.zeros(27)
        for k, snapshot in result.snapshots:
            x_ref = (problem.rhs - (dense - np.diag(d)) @ x_ref) / d
            assert np.abs(snapshot - x_ref).max() <= 1e-12


class TestIterationOperator:
    def test_matches_block_jacobi_matrix_without_overlap(self):
        problem = make_problem(4)
        decomp = decompose(problem.grid, (2, 1, 1))
        apply_map, dim = iteration_operator(problem, decomp)
        assert dim == 64
        dense = problem.matrix.to_dense()
        m = np.zeros_like(dense)
        for b in range(decomp.num_blocks):
            owned = decomp.owned_indices(b)
            m[np.ix_(owned, owned)] = dense[np.ix_(owned, owned)]
        iteration_matrix = np.linalg.solve(m, m - dense)
        # the stacked layout permutes the unknowns block by block
        perm = np.concatenate([decomp.extended_indices[b] for b in range(2)])
        materialized = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1.0
            materialized[:, j] = apply_map(e)
        expected = iteration_matrix[np.ix_(perm, perm)]
        assert np.abs(materialized - expected).max() <= 1e-12

    @pytest.mark.parametrize("blocks,overlap", [((2, 1, 1), 0), ((2, 2, 1), 1)])
    def test_radius_below_one(self, blocks, overlap):
        problem = make_problem(4)
        decomp = decompose(problem.grid, blocks, overlap)
        apply_map, dim = iteration_operator(problem, decomp)
        estimate = power_iteration(apply_map, dim, tol=1e-10, seed=0)
        assert estimate.converged
        assert estimate.radius < 1.0

    def test_more_blocks_larger_radius(self):
        problem = make_problem(8)
        radii = []
        for gx in (2, 4):
            decomp = decompose(problem.grid, (gx, 1, 1))
            apply_map, dim = iteration_operator(problem, decomp)
            radii.append(power_iteration(apply_map, dim, tol=1e-10, seed=0).radius)
        assert radii[0] < radii[1] < 1.0


class TestBlockCountTrend:
    def test_outer_iterations_non_decreasing_in_blocks(self):
        problem = make_problem(8)
        outers = []
        for gx in (2, 4):
            config = OuterConfig(
                block_grid=(gx, 1, 1),
                inner=InnerSolverSpec("gmres", 10),
                tol=1e-6,
                max_outer=4000,
            )
            result = outer_solve(problem, config)
            assert result.converged
            outers.append(result.outer_iterations)
        assert outers[0] <= outers[1]


class TestTraceCsv:
    def test_write_read_round_trip(self, tmp_path):
        problem = make_problem(4)
        config = OuterConfig(
            block_grid=(2, 1, 1), inner=InnerSolverSpec("gmres", 10), tol=1e-6,
            max_outer=500,
        )
        trace = outer_solve(problem, config).trace
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        text = path.read_text()
        assert text.splitlines()[0] == TRACE_HEADER
        back = ResidualTrace.read_csv(path)
        assert back == trace

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,residual\n0,1\n")
        with pytest.raises(ValueError, match="bad.csv"):
            ResidualTrace.read_csv(path)
