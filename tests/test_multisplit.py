import hashlib
import itertools
import math
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from blocksolve import multisplit
from blocksolve.comm import DelayModel, Fabric
from blocksolve.errors import ConfigurationError, ProtocolError, SolverBreakdownError
from blocksolve.inner_solvers import InnerSolveReport, InnerSolverSpec
from blocksolve.linalg import CsrParts, SparseMatrix, ZeroRhsError
from blocksolve.multisplit import (
    OuterConfig,
    ResidualTrace,
    TRACE_HEADER,
    assemble_block_rhs,
    build_links,
    build_workspaces,
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
    batches,
    build_laplace_3d,
    decompose,
)

from conftest import dense_solve


def make_problem(n, boundary=None):
    grid = Grid3D(n, n, n, boundary or DirichletBoundary({"x_lo": 1.0, "y_hi": 0.5}))
    return build_laplace_3d(grid)


def dense_solution(problem):
    return dense_solve(problem.matrix.to_dense(), problem.rhs)


def workers_set_up(problem, decomp):
    """The block workspaces and the per-block workers' links."""
    workspaces = build_workspaces(problem, decomp)
    return workspaces, build_links(workspaces, decomp)


def initial_states(workspaces, links):
    return [link.initial_state(ws) for ws, link in zip(workspaces, links)]


def store_payload(links, state, source, payload):
    """Store block ``source``'s payload to the block of ``links`` in the
    tracked slots it fills, applied at iteration 0."""
    state.values[links.recv_slots[source]] = payload
    state.applied[list(links.recv_slots).index(source)] = 0


def sent_points(workspaces, links, src, dst):
    """The global points block ``src`` ships to block ``dst``, in order."""
    return workspaces[src].ext[links[src].send_idx[dst]]


def seed_state_with(workspaces, links, states, x_global):
    """Point every block's local and received values at a given global
    vector."""
    for ws, link, state in zip(workspaces, links, states):
        state.x_local = x_global[ws.ext].copy()
        for src in link.recv_slots:
            store_payload(link, state, src, x_global[sent_points(workspaces, links, src, ws.block_id)])
        merge_overlap(ws, state)


def merged_state(workspaces, links, blk, values):
    """Block ``blk``'s merged state once every block c it hears from
    reported ``values[c][p]`` at each point p: its own values over its
    region, and each source's at the points the source ships to it."""
    ws, link = workspaces[blk], links[blk]
    state = link.initial_state(ws)
    state.x_local = values[blk][ws.ext].copy()
    for src in link.recv_slots:
        store_payload(link, state, src, values[src][sent_points(workspaces, links, src, blk)])
    merge_overlap(ws, state)
    return state


def drop_neighbor_pair(decomp):
    decomp.neighbors[0].remove(1)
    decomp.neighbors[1].remove(0)


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
            (shrink_owned_box_of_block_1, "not owned by exactly one neighbor"),
            (drop_owned_point_from_extended_region, "membership"),
        ],
    )
    def test_corrupt_decomposition_raises(self, corrupt, message):
        # set-up checks what the block systems need; only the links builder
        # reads the neighbor lists, so a dropped pair surfaces there
        problem = make_problem(4)
        decomp = decompose(problem.grid, (2, 2, 1), 1)
        workers_set_up(problem, decomp)
        corrupt(decomp)
        if corrupt is drop_neighbor_pair:
            workspaces = build_workspaces(problem, decomp)
            with pytest.raises(ProtocolError, match=message):
                build_links(workspaces, decomp)
        else:
            with pytest.raises(ProtocolError, match=message):
                build_workspaces(problem, decomp)

    def test_lowest_failing_block_is_named(self):
        # the last block's region loses its last point, which it owns and no
        # other region covers; every other block still checks out
        problem = make_problem(6)
        decomp = decompose(problem.grid, (2, 2, 2), 1)
        decomp.extended_indices[7] = decomp.extended_indices[7][:-1]
        with pytest.raises(ProtocolError, match="^block 7: index set membership"):
            build_workspaces(problem, decomp)
        # a missing neighbor pair fails both blocks; the lower one is named
        decomp = decompose(problem.grid, (2, 2, 2), 1)
        drop_neighbor_pair(decomp)
        workspaces = build_workspaces(problem, decomp)
        with pytest.raises(ProtocolError, match="^block 0: payload coverage"):
            build_links(workspaces, decomp)

    def test_set_up_reads_no_neighbor_list(self, reference_workspaces):
        problem = make_problem(6)
        decomp = decompose(problem.grid, (2, 2, 2), 1)
        workspaces = build_workspaces(problem, replace(decomp, neighbors=None))
        for got, want in zip(workspaces, reference_workspaces(problem, decomp)[0]):
            assert_same_record(got, want)


def swap_first_two_points(decomp, *blocks):
    """A copy of the decomposition whose regions of ``blocks`` list their
    first two points in swapped order."""
    exts = [ext.copy() for ext in decomp.extended_indices]
    for blk in blocks:
        exts[blk][[0, 1]] = exts[blk][[1, 0]]
    return replace(decomp, extended_indices=exts)


class TestBlockSystemCheck:
    """One check per set-up batch stands in for checking every block matrix:
    each row's columns in range and strictly increasing."""

    def test_unsorted_region_names_its_block(self):
        problem = make_problem(24)
        decomp = decompose(problem.grid, (4, 4, 4), 1)
        with pytest.raises(ValueError, match="^block 5: columns"):
            build_workspaces(problem, swap_first_two_points(decomp, 5))
        # the lowest failing block is named, in its batch or a later one
        for corrupt in [(5, 9), (9, 5), (5, 40)]:
            with pytest.raises(ValueError, match="^block 5: columns"):
                build_workspaces(problem, swap_first_two_points(decomp, *corrupt))
        assert len(batch_sizes(problem, decomp)) > 1

    def test_set_up_builds_no_block_matrix(self, monkeypatch):
        problem = make_problem(24)
        decomp = decompose(problem.grid, (4, 4, 4), 1)
        built = count_matrices(monkeypatch)
        workspaces = build_workspaces(problem, decomp)
        assert built == []
        # each block matrix is built and checked once, on first use
        assert workspaces[5].a_ii is workspaces[5].a_ii
        assert built == [workspaces[5].a_ii_parts.shape]


def count_matrices(monkeypatch):
    """The shapes of every ``SparseMatrix`` built from now on."""
    original = SparseMatrix.__post_init__
    built = []

    def counting(matrix):
        built.append(matrix.shape)
        original(matrix)

    monkeypatch.setattr(SparseMatrix, "__post_init__", counting)
    return built


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def assert_same_record(got, want):
    """Every field of a workspace or links record equal, dtypes included; a
    workspace's matrices array by array, as CSR parts and once built."""
    assert type(got) is type(want)
    names = [field.name for field in fields(want)]
    if isinstance(want, multisplit.BlockWorkspace):
        names += ["a_ii", "coupling"]
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, SparseMatrix):
            a, b = a.csr, b.csr
        if isinstance(b, (CsrParts, scipy.sparse.csr_array)):
            assert a.shape == b.shape, name
            for part in ("indptr", "indices", "data"):
                assert_same_array(getattr(a, part), getattr(b, part))
        elif isinstance(b, np.ndarray):
            assert_same_array(a, b)
        elif isinstance(b, dict):
            assert list(a) == list(b)
            for key in b:
                assert_same_array(a[key], b[key])
        else:
            assert type(a) is type(b) and a == b, name
            if isinstance(b, list):
                assert [type(x) for x in a] == [type(x) for x in b]


def batch_sizes(problem, decomp):
    row_entries = np.diff(problem.matrix.csr.indptr)
    return [len(run) for run in batches([row_entries[e].sum() for e in decomp.extended_indices])]


class TestBuildWorkspacesMatchReference:
    @pytest.mark.parametrize(
        "shape,blocks,overlap",
        [
            ((24, 24, 24), (4, 4, 4), 1),
            ((32, 32, 32), (2, 2, 2), 1),
            ((9, 7, 11), (3, 2, 2), 2),
            ((10, 9, 8), (3, 3, 2), 0),
            ((16, 16, 16), (4, 4, 4), 3),
            ((5, 6, 7), (1, 1, 1), 1),
            ((6, 1, 1), (3, 1, 1), 1),
            ((36, 36, 36), (1, 1, 2), 1),
        ],
    )
    def test_byte_identical_workspaces(self, shape, blocks, overlap, reference_workspaces):
        problem = build_laplace_3d(
            Grid3D(*shape, DirichletBoundary({"x_lo": 1.0, "y_hi": 0.5}))
        )
        decomp = decompose(problem.grid, blocks, overlap)
        workspaces, links = workers_set_up(problem, decomp)
        reference, reference_links = reference_workspaces(problem, decomp)
        assert len(workspaces) == len(links) == len(reference) == decomp.num_blocks
        for got, want in zip(workspaces + links, reference + reference_links):
            assert_same_record(got, want)

    def test_decompositions_span_several_batches(self):
        # 64 blocks of 2100 to 3000 entries share six batches
        problem = make_problem(24)
        sizes = batch_sizes(problem, decompose(problem.grid, (4, 4, 4), 1))
        assert len(sizes) > 1 and max(sizes) > 1 and sum(sizes) == 64
        # blocks of over 160000 entries form a batch each
        problem = make_problem(36)
        assert batch_sizes(problem, decompose(problem.grid, (1, 1, 2), 1)) == [1, 1]

    def test_transient_memory_is_bounded(self):
        # 512 blocks of 6^3 owned points on 48^3: set-up's arrays peak about
        # 2.2 MB above what the workspaces keep, and all 512 blocks in one
        # batch about 44 MB; the links builder, one block at a time, peaks
        # about 0.9 MB above what the links keep
        problem = build_laplace_3d(Grid3D(48, 48, 48))
        decomp = decompose(problem.grid, (8, 8, 8), 1)
        tracemalloc.start()
        try:
            workspaces = build_workspaces(problem, decomp)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            links = build_links(workspaces, decomp)
            links_held, links_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(workspaces) == len(links) == 512
        assert peak - held <= 8_000_000
        assert links_peak - links_held <= 8_000_000


class TestEveryLinkCarriesPoints:
    @pytest.mark.parametrize("overlap", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "shape,blocks",
        [
            ((31, 13, 11), (7, 3, 2)),
            ((20, 8, 29), (5, 1, 6)),
            ((24, 24, 24), (6, 6, 6)),
            ((32, 32, 32), (2, 2, 2)),
        ],
    )
    def test_neighbors_are_the_pairs_that_exchange_points(self, shape, blocks, overlap):
        problem = build_laplace_3d(Grid3D(*shape))
        decomp = decompose(problem.grid, blocks, overlap)
        _, links = workers_set_up(problem, decomp)
        for blk, link in enumerate(links):
            assert list(link.send_idx) == list(link.recv_slots) == decomp.neighbors[blk]
            assert all(payload.size for payload in link.send_idx.values()), blk


class TestLinksBuiltByTheWorkers:
    """Only the per-block workers read the payload maps, so only they build
    them: once per solve, before the fabric starts."""

    @pytest.mark.parametrize(
        "mode,execution,kind,solves_building_links",
        [
            ("sync", "replay", "direct", 0),
            ("sync", "replay", "gmres", 0),
            ("async", "replay", "gmres", 1),
            ("sync", "threads", "gmres", 1),
            ("async", "threads", "gmres", 1),
        ],
    )
    def test_only_the_per_block_workers_build_links(
        self, monkeypatch, mode, execution, kind, solves_building_links
    ):
        original = multisplit.build_links
        built = []

        def counting(workspaces, decomp):
            built.append(len(workspaces))
            return original(workspaces, decomp)

        monkeypatch.setattr(multisplit, "build_links", counting)
        config = OuterConfig(
            block_grid=(2, 2, 1),
            overlap=1,
            inner=InnerSolverSpec(kind, 5),
            mode=mode,
            execution=execution,
            max_outer=3,
        )
        outer_solve(make_problem(4), config)
        assert built == [4] * solves_building_links

    def test_dropped_neighbor_pair_fails_only_the_per_block_workers(
        self, monkeypatch, tmp_path
    ):
        problem = make_problem(6)
        config = OuterConfig(block_grid=(2, 2, 2), overlap=1, inner=InnerSolverSpec("gmres", 5))
        intact = outer_solve(problem, config)

        def dropping(grid, block_grid, overlap):
            decomp = decompose(grid, block_grid, overlap)
            drop_neighbor_pair(decomp)
            return decomp

        monkeypatch.setattr(multisplit, "decompose", dropping)
        dropped = outer_solve(problem, config)
        assert np.array_equal(dropped.solution, intact.solution)
        for name, result in (("intact", intact), ("dropped", dropped)):
            result.trace.write_csv(tmp_path / f"{name}.csv")
        assert (tmp_path / "dropped.csv").read_bytes() == (tmp_path / "intact.csv").read_bytes()

        fabrics = []
        monkeypatch.setattr(multisplit, "Fabric", lambda *args: fabrics.append(args))
        with pytest.raises(ProtocolError, match="^block 0: payload coverage"):
            outer_solve(problem, replace(config, mode="async"))
        assert fabrics == []


class TestAssembleRhs:
    def test_single_block_is_global_rhs(self):
        problem = make_problem(3)
        decomp = decompose(problem.grid, (1, 1, 1))
        (ws,), (links,) = workers_set_up(problem, decomp)
        state = links.initial_state(ws)
        assert np.array_equal(assemble_block_rhs(ws, state.halo_values), problem.rhs)

    def test_zero_halos_give_restriction(self):
        problem = build_laplace_3d(Grid3D(4, 1, 1, DirichletBoundary({"x_lo": 1.0})))
        decomp = decompose(problem.grid, (2, 1, 1))
        for ws, links in zip(*workers_set_up(problem, decomp)):
            state = links.initial_state(ws)
            rhs = assemble_block_rhs(ws, state.halo_values)
            assert np.array_equal(rhs, problem.rhs[ws.ext])

    @pytest.mark.parametrize("blocks,overlap", [((2, 1, 1), 0), ((2, 2, 1), 1)])
    def test_exact_halo_is_fixed_point(self, blocks, overlap):
        problem = make_problem(4)
        x_true = dense_solution(problem)
        decomp = decompose(problem.grid, blocks, overlap)
        workspaces, links = workers_set_up(problem, decomp)
        states = initial_states(workspaces, links)
        seed_state_with(workspaces, links, states, x_true)
        for ws, state in zip(workspaces, states):
            rhs = assemble_block_rhs(ws, state.halo_values)
            x_block = dense_solve(ws.a_ii.to_dense(), rhs)
            assert np.abs(x_block - x_true[ws.ext]).max() <= 1e-12


def region_cover(decomp):
    """How many extended regions hold each grid point."""
    return np.bincount(
        np.concatenate(decomp.extended_indices), minlength=decomp.grid.num_unknowns
    )


class TestMergeOverlap:
    def test_no_overlap_merge_is_identity(self):
        problem = make_problem(4)
        decomp = decompose(problem.grid, (2, 1, 1))
        workspaces, links = workers_set_up(problem, decomp)
        ws, link = workspaces[0], links[0]
        state = link.initial_state(ws)
        state.x_local = np.arange(float(ws.n_local))
        before = state.x_local.copy()
        merge_overlap(ws, state)
        assert np.array_equal(state.x_local, before)

    def test_two_cover_takes_the_owner(self):
        problem = build_laplace_3d(Grid3D(4, 1, 1))
        decomp = decompose(problem.grid, (2, 1, 1), overlap=1)
        workspaces, links = workers_set_up(problem, decomp)
        ws, link = workspaces[0], links[0]
        state = link.initial_state(ws)
        # extended region {0,1,2}; point 2 is shared with (owned by) block 1,
        # which ships it and the halo column 3
        state.x_local = np.array([0.0, 0.0, 4.0])
        sender_points = sent_points(workspaces, links, 1, 0)
        assert sender_points.tolist() == [2, 3]
        store_payload(link, state, 1, np.where(sender_points == 2, 10.0, 0.0))
        merge_overlap(ws, state)
        assert state.x_local.tolist() == [0.0, 0.0, 10.0]
        assert state.halo_values.tolist() == [0.0]

    def test_identical_values_merge_to_identity(self):
        problem = make_problem(4)
        decomp = decompose(problem.grid, (2, 2, 1), overlap=1)
        workspaces, links = workers_set_up(problem, decomp)
        states = initial_states(workspaces, links)
        rng = np.random.default_rng(3)
        x_global = rng.standard_normal(problem.grid.num_unknowns)
        seed_state_with(workspaces, links, states, x_global)
        for ws, state in zip(workspaces, states):
            assert np.abs(state.x_local - x_global[ws.ext]).max() <= 1e-15
            assert np.abs(state.halo_values - x_global[ws.halo_cols]).max() <= 1e-15

    def test_merge_oracle_over_covering_blocks(self):
        # (2, 2, 2) with overlap 1: points next to two or three cuts are
        # covered by up to four blocks, yet each takes its owner's value
        problem = make_problem(6)
        decomp = decompose(problem.grid, (2, 2, 2), overlap=1)
        assert region_cover(decomp).max() > 2
        workspaces, links = workers_set_up(problem, decomp)
        rng = np.random.default_rng(11)
        # block c reports values[c][p] at every point p it covers
        values = rng.standard_normal((decomp.num_blocks, problem.grid.num_unknowns))
        owner = np.empty(problem.grid.num_unknowns, dtype=int)
        for blk in range(decomp.num_blocks):
            owner[decomp.owned_indices(blk)] = blk
        for ws, link in zip(workspaces, links):
            state = merged_state(workspaces, links, ws.block_id, values)
            owned = decomp.owned_indices(ws.block_id)
            shared = np.setdiff1d(ws.ext, owned)
            assert np.array_equal(state.halo_values, values[owner[ws.halo_cols], ws.halo_cols])
            merged = state.x_local[np.searchsorted(ws.ext, shared)]
            assert np.array_equal(merged, values[owner[shared], shared])
            assert np.array_equal(state.x_local[ws.owned_local], values[ws.block_id][owned])
            # each source ships exactly the tracked points it owns
            tracked = np.concatenate((ws.halo_cols, shared))
            for src in decomp.neighbors[ws.block_id]:
                shipped = sent_points(workspaces, links, src, ws.block_id)
                assert np.array_equal(shipped, np.sort(tracked[owner[tracked] == src]))

    def test_triple_cover_takes_the_owner(self):
        # 9x1x1 in 3 slabs with overlap 2: point 4 is owned by block 1 and
        # covered by all three blocks, and block 2 tracks it
        problem = build_laplace_3d(Grid3D(9, 1, 1))
        decomp = decompose(problem.grid, (3, 1, 1), overlap=2)
        assert region_cover(decomp)[4] == 3
        workspaces, links = workers_set_up(problem, decomp)
        ws = workspaces[2]
        assert 4 in ws.ext[ws.shared_local]
        # block c reports values[c] at point 4; their mean in block order
        # would be 0.0, the owner's value is 1.0
        values = np.zeros((3, 9))
        values[:, 4] = [1e16, 1.0, -1e16]
        state = merged_state(workspaces, links, 2, values)
        assert state.x_local[np.searchsorted(ws.ext, 4)] == 1.0

        stacked = multisplit._StackedBlocks.build(workspaces, decomp, InnerSolverSpec("jacobi", 1))
        z = np.concatenate([values[c][w.ext] for c, w in enumerate(workspaces)])
        assert z[stacked.gather][4] == 1.0


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
        workspaces, links = workers_set_up(problem, decomp)
        states = initial_states(workspaces, links)
        x = np.array([0.1, 0.1])  # symmetric, not the solution
        seed_state_with(workspaces, links, states, x)
        locals_ = [
            local_relative_residual(ws, st) for ws, st in zip(workspaces, states)
        ]
        assert locals_[0] == pytest.approx(locals_[1])
        true = true_relative_residual(problem, x)
        assert combined_residual(locals_) == pytest.approx(math.sqrt(2.0) * true)

    def test_combiner_dominates_true_residual(self):
        problem = make_problem(4)
        decomp = decompose(problem.grid, (2, 2, 1), overlap=1)
        workspaces, links = workers_set_up(problem, decomp)
        states = initial_states(workspaces, links)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(problem.grid.num_unknowns)
        seed_state_with(workspaces, links, states, x)
        locals_ = [
            local_relative_residual(ws, st) for ws, st in zip(workspaces, states)
        ]
        assert combined_residual(locals_) >= true_relative_residual(problem, x)

    @pytest.mark.parametrize("overlap", [0, 1, 2])
    def test_local_residual_oracle(self, overlap):
        # block c reports values[c][p] at every point p it covers; the local
        # residual reads the owner's value at every point, so it is the
        # global residual of y[p] = values[owner(p)][p] over the owned rows.
        # Only at overlap 0 do halo couplings reach owned rows.
        problem = make_problem(8)
        decomp = decompose(problem.grid, (2, 2, 1), overlap=overlap)
        workspaces, links = workers_set_up(problem, decomp)
        rng = np.random.default_rng(7)
        values = rng.standard_normal((decomp.num_blocks, problem.grid.num_unknowns))
        y = np.empty(problem.grid.num_unknowns)
        for blk in range(decomp.num_blocks):
            owned = decomp.owned_indices(blk)
            y[owned] = values[blk][owned]
        r = problem.rhs - problem.matrix.csr @ y
        for ws, link in zip(workspaces, links):
            state = merged_state(workspaces, links, ws.block_id, values)
            expected = np.linalg.norm(r[ws.owned_global]) / ws.residual_scale
            assert local_relative_residual(ws, state) == pytest.approx(expected, rel=1e-13)


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

    def test_async_stopping_row_reports_the_confirmed_residual(self):
        # the stale estimates fall to ~3e-16 while the iterate's residual is
        # ~7e-7; the stop is taken on the confirmed value, and the last row
        # shows it. All of b lies in block 0's owned rows and block 1 owns
        # none of it, so both residues are scaled by ||b|| and the confirmed
        # value is the true relative residual
        problem = make_problem(4, DirichletBoundary({"x_lo": 1.0}))
        config = OuterConfig(
            block_grid=(2, 1, 1),
            inner=InnerSolverSpec("gmres", 10),
            mode="async",
            delay=DelayModel("uniform", low=0, high=2, seed=5),
            tol=1e-6,
        )
        result = outer_solve(problem, config)
        rows = result.trace.rows
        assert result.converged and len(rows) == 17
        assert rows[-2].estimated_residual < 1e-15
        assert rows[-1].estimated_residual == pytest.approx(
            result.final_true_residual, rel=1e-10
        )

    @pytest.mark.parametrize("kind", ["uniform", "drop_free_jitter"])
    @pytest.mark.parametrize("overlap", [1, 2])
    def test_async_owner_merge_converges(self, overlap, kind):
        # restricted additive Schwarz converges asynchronously on an
        # M-matrix, whatever the bounded delays
        problem = make_problem(6)
        for seed, execution in itertools.product(range(6), ("replay", "threads")):
            config = OuterConfig(
                block_grid=(2, 2, 1),
                overlap=overlap,
                inner=InnerSolverSpec("gmres", 5),
                mode="async",
                delay=DelayModel(kind, low=0, high=3, seed=seed),
                tol=1e-6,
                execution=execution,
            )
            result = outer_solve(problem, config)
            assert result.converged, (seed, execution)
            assert result.final_true_residual <= 1e-6, (seed, execution)

    def test_exhaustion_reported_distinctly(self):
        # every runner writes its own stop rule; each stops at the cap
        problem = make_problem(8)
        config = OuterConfig(
            block_grid=(2, 1, 1), inner=InnerSolverSpec("gmres", 2), tol=1e-12,
            max_outer=3,
        )
        for runner in itertools.product(("sync", "async"), ("replay", "threads")):
            mode, execution = runner
            result = outer_solve(problem, replace(config, mode=mode, execution=execution))
            assert not result.converged, runner
            assert result.outer_iterations == 3, runner

    def test_async_stops_at_cap_after_failed_confirmation(self):
        # with these delays block 0's confirmation at iteration 42 fails and
        # the run stops on a confirmation after 45 outer iterations; no block
        # may run past the cap, and a confirmation that succeeds at the cap
        # still converges
        problem = make_problem(8, DirichletBoundary({"x_lo": 1.0}))
        config = OuterConfig(
            block_grid=(2, 2, 1),
            overlap=1,
            inner=InnerSolverSpec("gmres", 5),
            mode="async",
            delay=DelayModel("uniform", low=0, high=3, seed=1),
            tol=1e-6,
            record_comm_events=True,
        )
        for cap in range(42, 48):
            result = outer_solve(problem, replace(config, max_outer=cap))
            last = max(event[3] for event in result.comm_events if event[0] == "send")
            assert result.outer_iterations == min(cap, 45) == last + 1, cap
            assert result.converged == (cap >= 45), cap

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

    @pytest.mark.parametrize(
        "mode,delay,outers",
        [
            ("sync", DelayModel(), (32, 31)),
            ("async", DelayModel("uniform", low=0, high=3, seed=5), (81, 78)),
        ],
        ids=["sync", "async"],
    )
    def test_true_residual_crosses_before_the_estimate(self, mode, delay, outers):
        # the combined estimate overstates the true residual here, so true
        # mode stops on the true residual while the estimate is still >= tol
        problem = make_problem(12, DirichletBoundary({"x_lo": 1.0}))
        config = OuterConfig(
            block_grid=(2, 2, 1),
            overlap=1,
            inner=InnerSolverSpec("gmres", 4),
            mode=mode,
            delay=delay,
            tol=1e-6,
        )
        paper = outer_solve(problem, config)
        true = outer_solve(problem, replace(config, residual_check_mode="true"))
        assert (paper.outer_iterations, true.outer_iterations) == outers
        assert paper.converged and true.converged
        last = true.trace.rows[-1]
        assert last.estimated_residual >= 1e-6 > last.true_residual

    @pytest.mark.parametrize(
        "mode,execution",
        [("sync", "replay"), ("async", "replay"), ("sync", "threads"), ("async", "threads")],
    )
    def test_zero_rhs_raises(self, monkeypatch, mode, execution):
        original = multisplit.inner_solve
        solves = []

        def counting(solver, rhs, x0):
            solves.append(rhs.shape[0])
            return original(solver, rhs, x0)

        monkeypatch.setattr(multisplit, "inner_solve", counting)
        problem = make_problem(4, DirichletBoundary.zero())
        config = OuterConfig(
            block_grid=(2, 1, 1), inner=InnerSolverSpec("gmres", 5), mode=mode,
            execution=execution,
        )
        with pytest.raises(ZeroRhsError, match="zero right-hand side"):
            outer_solve(problem, config)
        # sync replay raises before its first inner solve, the per-block
        # workers when they first measure a true residual
        assert bool(solves) == ((mode, execution) != ("sync", "replay"))

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
        # waits for its payload (sync) or runs on (async); the secondary
        # deadlock must not mask it, and an async block 0 must stop on the
        # stop flag, not at max_outer
        original = multisplit.inner_solve
        block_0_solves = []

        def breaks_on_block_1(solver, rhs, x0):
            if rhs.shape[0] == 2:
                return x0, InnerSolveReport(0, math.inf, "breakdown")
            block_0_solves.append(1)
            return original(solver, rhs, x0)

        monkeypatch.setattr(multisplit, "inner_solve", breaks_on_block_1)
        problem = build_laplace_3d(Grid3D(5, 1, 1, DirichletBoundary({"x_lo": 1.0})))
        for mode in ("sync", "async"):
            for execution in ("replay", "threads"):
                config = OuterConfig(
                    block_grid=(2, 1, 1),
                    inner=InnerSolverSpec("gmres", 2),
                    mode=mode,
                    execution=execution,
                )
                block_0_solves.clear()
                with pytest.raises(SolverBreakdownError, match="block 1") as err:
                    outer_solve(problem, config)
                assert err.value.block_id == 1, (mode, execution)
                assert len(block_0_solves) < config.max_outer, (mode, execution)

    def test_singular_direct_block_surfaces_its_breakdown(self):
        # zeroing A's last row makes block 1's factor singular; its first
        # solve must report the breakdown instead of handing on NaNs
        problem = build_laplace_3d(Grid3D(4, 1, 1, DirichletBoundary({"x_lo": 1.0})))
        dense = problem.matrix.to_dense()
        dense[-1] = 0.0
        singular = LinearProblem(SparseMatrix.from_dense(dense), problem.rhs, problem.grid)
        # each factoring of block 1 warns of its zero pivot
        singular_factor = pytest.warns(scipy.linalg.LinAlgWarning, match="exactly zero")
        for execution in ("replay", "threads"):
            config = OuterConfig(
                block_grid=(2, 1, 1),
                inner=InnerSolverSpec("direct", 1),
                execution=execution,
            )
            with pytest.raises(SolverBreakdownError, match="block 1") as err, singular_factor:
                outer_solve(singular, config)
            assert (err.value.block_id, err.value.outer_iteration) == (1, 0)
        with singular_factor:
            apply_map, dim = iteration_operator(singular, decompose(singular.grid, (2, 1, 1)))
        with pytest.raises(SolverBreakdownError) as err:
            apply_map(np.ones(dim))
        assert err.value.block_id == 1

    def test_non_finite_rhs_surfaces_its_block_breakdown(self):
        # gmres(2) runs one cycle capped at two steps; a NaN right-hand side
        # in block 0 must stop the solve at once, not run to max_outer
        problem = make_problem(4)
        rhs = problem.rhs.copy()
        rhs[5] = np.nan
        poisoned = LinearProblem(problem.matrix, rhs, problem.grid)
        config = OuterConfig(block_grid=(2, 2, 2), inner=InnerSolverSpec("gmres", 2))
        with pytest.raises(SolverBreakdownError, match="block 0") as err:
            outer_solve(poisoned, config)
        assert (err.value.block_id, err.value.outer_iteration) == (0, 0)

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("kind", ["jacobi", "cg", "gmres", "direct"])
    def test_non_finite_block_matrix_surfaces_its_breakdown(self, kind, mode):
        # a NaN diagonal at (7, 1, 2) of the slab lies in block 2 alone; the
        # direct kind must not hand it to LAPACK, which names no block
        problem = slab()
        dense = problem.matrix.to_dense()
        row = 7 + 12 * (1 + 4 * 2)
        dense[row, row] = np.nan
        poisoned = LinearProblem(SparseMatrix.from_dense(dense), problem.rhs, problem.grid)
        config = replace(SLAB_DIRECT, inner=InnerSolverSpec(kind, 5), mode=mode, max_outer=50)
        with pytest.raises(SolverBreakdownError, match="block 2") as err:
            outer_solve(poisoned, config)
        assert (err.value.block_id, err.value.outer_iteration) == (2, 0)

    @pytest.mark.parametrize(
        "mode,execution",
        [("sync", "replay"), ("async", "replay"), ("sync", "threads"), ("async", "threads")],
    )
    def test_inner_solver_prepared_once_per_block(self, monkeypatch, mode, execution):
        original = multisplit.prepare
        prepared = Counter()

        def counting(spec, a, block_id=0):
            prepared[block_id] += 1
            return original(spec, a, block_id)

        monkeypatch.setattr(multisplit, "prepare", counting)
        config = OuterConfig(
            block_grid=(2, 2, 1),
            inner=InnerSolverSpec("gmres", 5),
            mode=mode,
            max_outer=3,
            execution=execution,
        )
        assert outer_solve(make_problem(4), config).outer_iterations == 3
        assert prepared == Counter(range(4))

    def test_threads_slow_block_is_not_a_deadlock(self, monkeypatch):
        # block 0 waits at the sync rendezvous while block 1 is still in its
        # first inner solve; no fabric change for that long is not a deadlock
        original = multisplit.inner_solve
        slept = []

        def slow_block_1(solver, rhs, x0):
            if rhs.shape[0] == 2 and not slept:
                slept.append(True)
                time.sleep(0.2)
            return original(solver, rhs, x0)

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

    def test_true_residual_requires_replay(self):
        with pytest.raises(ConfigurationError, match="needs replay"):
            OuterConfig(residual_check_mode="true", execution="threads")


class TestFusedSyncReplay:
    """Synchronous replay runs as one stacked iteration; sync threads runs
    the per-block workers through the fabric. Both take every point a block
    does not own from its owner, so with iterative inner solves they compute
    the same iterates bit for bit. The direct kind agrees within rounding:
    replay solves the blocks of one factor in one product of the kept rows
    of its inverse with their right-hand sides as columns, which rounds
    differently from the per-block products with the whole inverse
    (3.3e-16 apart on the 12x12x6 case)."""

    # (grid, block grid, overlap) by id; on 12x12x6 in 3x3x1 blocks a point
    # is covered by up to four blocks, and with fixed-step Krylov inner
    # solves any rounding difference grows about tenfold per iteration
    CASES = {
        "0": (Grid3D(6, 6, 6, DirichletBoundary({"x_lo": 1.0, "y_hi": 0.5})), (2, 2, 1), 0),
        "1": (Grid3D(6, 6, 6, DirichletBoundary({"x_lo": 1.0, "y_hi": 0.5})), (2, 2, 1), 1),
        "12x12x6": (Grid3D(12, 12, 6, DirichletBoundary({"x_lo": 1.0})), (3, 3, 1), 1),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("kind", ["jacobi", "cg", "gmres", "direct"])
    def test_matches_sync_threads(self, kind, case):
        grid, blocks, overlap = self.CASES[case]
        problem = build_laplace_3d(grid)
        replay, threads = (
            outer_solve(
                problem,
                OuterConfig(
                    block_grid=blocks,
                    overlap=overlap,
                    inner=InnerSolverSpec(kind, 5),
                    tol=1e-6,
                    max_outer=2000,
                    execution=execution,
                ),
            )
            for execution in ("replay", "threads")
        )
        assert replay.converged and threads.converged
        assert replay.outer_iterations == threads.outer_iterations
        for a, b in zip(replay.trace.rows, threads.trace.rows):
            assert a.inner_iterations == b.inner_iterations
            assert a.max_halo_staleness == b.max_halo_staleness == 0
            assert a.estimated_residual == pytest.approx(b.estimated_residual, rel=1e-10)
        assert replay.final_true_residual == pytest.approx(
            threads.final_true_residual, rel=1e-10
        )
        if kind != "direct":
            assert np.array_equal(replay.solution, threads.solution)

    def test_never_touches_the_sync_fabric(self, monkeypatch):
        def no_fabric(*args, **kwargs):
            raise AssertionError("synchronous replay used the fabric")

        monkeypatch.setattr(multisplit.Fabric, "halo_exchange_sync", no_fabric)
        monkeypatch.setattr(multisplit.Fabric, "reduce_sync", no_fabric)
        config = OuterConfig(block_grid=(2, 2, 1), overlap=1, inner=InnerSolverSpec("gmres", 5))
        result = outer_solve(make_problem(6), config)
        assert result.converged and result.comm_events == []

    def test_empty_buffer_pool_rejected_without_a_fabric(self):
        with pytest.raises(ConfigurationError, match="R: buffer pool"):
            OuterConfig(buffer_slots=0)


class TestOuterConfigGuards:
    @pytest.mark.parametrize(
        "settings,message",
        [
            ({"mode": "both"}, "mode: unknown mode 'both'"),
            ({"tol": 0.0}, "tol: must be positive"),
            ({"max_outer": 0}, "max_outer: must be at least 1"),
            ({"residual_check_mode": "sometimes"}, "residual_mode: unknown mode 'sometimes'"),
            ({"execution": "processes"}, "exec: unknown execution 'processes'"),
            ({"true_residual_interval": 0}, "true_res_every: must be at least 1"),
        ],
    )
    def test_rejected_settings_name_their_key(self, settings, message):
        with pytest.raises(ConfigurationError) as raised:
            OuterConfig(**settings)
        assert str(raised.value) == message


class TestReplayStall:
    def test_workers_that_only_wait_raise(self):
        # workers that never complete an iteration and never change the fabric
        contexts = [SimpleNamespace(gen=itertools.repeat(None)) for _ in range(2)]
        config = OuterConfig(mode="async")
        with pytest.raises(ProtocolError) as raised:
            multisplit._run_replay(None, None, contexts, Fabric(2, "async"), config)
        assert str(raised.value) == "replay stalled with workers [0, 1] all waiting"


def count_factors(monkeypatch):
    """The row counts of every dense LU factor made from now on."""
    original = scipy.linalg.lu_factor
    factored = []

    def counting(a, *args, **kwargs):
        factored.append(a.shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counting)
    return factored


def slab():
    # 4 blocks along x with overlap 1: blocks 0 and 3 have 64 rows and equal
    # matrices, blocks 1 and 2 have 80 rows and equal matrices
    return build_laplace_3d(Grid3D(12, 4, 4, DirichletBoundary({"x_lo": 1.0})))


SLAB_DIRECT = OuterConfig(
    block_grid=(4, 1, 1),
    overlap=1,
    inner=InnerSolverSpec("direct", 1),
    tol=1e-6,
    # async threads stopped within 166 outer iterations in each of 1000
    # solves on 2 vCPUs, 300 of them beside a CPU-bound process
    max_outer=5000,
)


def factor_owners(monkeypatch):
    """The ids of the blocks that prepare a solver of their own from now on."""
    original = multisplit.prepare
    owners = []

    def recording(spec, a, block_id=0):
        owners.append(block_id)
        return original(spec, a, block_id)

    monkeypatch.setattr(multisplit, "prepare", recording)
    return owners


def count_solves(monkeypatch, module, name):
    """The column counts of every call of ``module.name`` from now on; the
    right-hand side is the call's second argument."""
    original = getattr(module, name)
    solved = []

    def counting(solver, b, *args, **kwargs):
        solved.append(1 if np.ndim(b) == 1 else np.shape(b)[1])
        return original(solver, b, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return solved


def direct_stacked(problem, blocks):
    """The stacked blocks of a direct synchronous solve, overlap 1."""
    decomp = decompose(problem.grid, blocks, 1)
    workspaces = build_workspaces(problem, decomp)
    spec = InnerSolverSpec("direct", 1)
    return workspaces, multisplit._StackedBlocks.build(workspaces, decomp, spec)


class TestSharedDirectFactors:
    """Direct blocks whose matrices are equal up to a symmetry of the grid
    axes (an axis permutation times a reflection) share one factor."""

    def test_equal_blocks_share_one_factor_in_every_mode(self, monkeypatch):
        factored = count_factors(monkeypatch)
        problem = slab()
        results = {}
        for mode in ("sync", "async"):
            for execution in ("replay", "threads"):
                factored.clear()
                config = replace(SLAB_DIRECT, mode=mode, execution=execution)
                results[mode, execution] = outer_solve(problem, config)
                assert results[mode, execution].converged, (mode, execution)
                assert factored == [64, 80], (mode, execution)
        replay, threads = results["sync", "replay"], results["sync", "threads"]
        assert replay.outer_iterations == threads.outer_iterations
        assert replay.final_true_residual == pytest.approx(
            threads.final_true_residual, rel=1e-10
        )

    def test_regular_decomposition_has_4_symmetry_classes(
        self, monkeypatch, distinct_block_matrices
    ):
        # 27 byte-distinct blocks of 64; a block's class is the number of
        # axes along which it is an interior block: 8, 24, 24 and 8 blocks
        factored = count_factors(monkeypatch)
        problem = make_problem(24)
        iteration_operator(problem, decompose(problem.grid, (4, 4, 4), 1))
        assert len(factored) == distinct_block_matrices((24, 24, 24), (4, 4, 4)) == 4

    @pytest.mark.parametrize(
        "shape,blocks",
        [
            # owned widths 7, 7, 6, 6 on every axis: no block mirrors
            # another, but permuted axes match 20 classes of 64 blocks
            ((26, 26, 26), (4, 4, 4)),
            # x widths 4, 4, 3, 3; along y and z the two blocks are mirrors
            ((14, 8, 8), (4, 2, 2)),
        ],
        ids=["26^3-uneven", "14x8x8-mixed"],
    )
    def test_non_uniform_split_matches_the_oracle(
        self, monkeypatch, distinct_block_matrices, shape, blocks
    ):
        factored = count_factors(monkeypatch)
        problem = build_laplace_3d(Grid3D(*shape))
        iteration_operator(problem, decompose(problem.grid, blocks, 1))
        assert len(factored) == distinct_block_matrices(shape, blocks)

    @pytest.mark.parametrize(
        "shape,blocks,owners,digest",
        [
            # the decompositions the brute-force class count checks
            ((24, 24, 24), (4, 4, 4), [0, 1, 5, 21], "e61347eecf796c27"),
            (
                (26, 26, 26),
                (4, 4, 4),
                [0, 1, 2, 3, 5, 6, 7, 10, 11, 15, 21, 22, 23, 26, 27, 31, 42, 43, 47, 63],
                "273c54acc4b63789",
            ),
            ((14, 8, 8), (4, 2, 2), [0, 1, 2, 3], "31f3b1134389712c"),
            # owned widths 5, 5, 5, 5, 4 on every axis
            ((24, 24, 24), (5, 5, 5), [0, 1, 4, 6, 9, 24, 31, 34, 49, 124], "4027eaa1a294cd86"),
            ((7, 7, 7), (2, 2, 2), [0, 1, 3, 7], "88763e55de67a75a"),
        ],
        ids=["24^3-4^3", "26^3-uneven", "14x8x8-mixed", "24^3-5^3", "7^3-2^3"],
    )
    def test_binding_matches_the_per_block_search(self, shape, blocks, owners, digest):
        # the values of a symmetry search over each block's own bounding
        # box: the factor owners, and a digest of every block's factor owner
        # and perm
        problem = build_laplace_3d(Grid3D(*shape))
        decomp = decompose(problem.grid, blocks, 1)
        solvers = multisplit._prepare_solvers(
            build_workspaces(problem, decomp), InnerSolverSpec("direct", 1), decomp
        )
        owner = {}
        bound = hashlib.sha256()
        for blk, solver in enumerate(solvers):
            bound.update(np.int64(owner.setdefault(solver.solve, blk)).tobytes())
            bound.update(solver.perm.astype(np.int64).tobytes())
        assert list(owner.values()) == owners
        assert bound.hexdigest()[:16] == digest

    def test_one_symmetry_search_per_region_kind(self, monkeypatch):
        problem = make_problem(24)
        decomp = decompose(problem.grid, (4, 4, 4), 1)
        original = multisplit._shared_solver
        searched = []

        def counting(ws, box, factors):
            searched.append(ws.block_id)
            return original(ws, box, factors)

        monkeypatch.setattr(multisplit, "_shared_solver", counting)
        iteration_operator(problem, decomp)
        assert len(decomp.kind_masks) == len(searched) == 27
        assert sorted(decomp.region_kinds[searched].tolist()) == list(range(27))

    def test_reflected_solves_match_their_own_factor(self):
        problem = make_problem(24)
        decomp = decompose(problem.grid, (4, 4, 4), 1)
        workspaces = build_workspaces(problem, decomp)
        solvers = multisplit._prepare_solvers(workspaces, InnerSolverSpec("direct", 1), decomp)
        rng = np.random.default_rng(3)
        for ws, solve in zip(workspaces, solvers):
            b = rng.standard_normal(ws.n_local)
            x, report = solve(b)
            own = scipy.linalg.lu_solve(scipy.linalg.lu_factor(ws.a_ii.to_dense()), b)
            assert report.stop_reason == "tolerance_met"
            assert np.linalg.norm(x - own) <= 1e-12 * np.linalg.norm(own), ws.block_id

    def test_a_changed_mirror_loses_only_its_own_sharing(self, monkeypatch):
        # (22, 22, 22) lies in block 63 alone, the mirror of block 0
        problem = make_problem(24)
        decomp = decompose(problem.grid, (4, 4, 4), 1)
        owners = factor_owners(monkeypatch)
        iteration_operator(problem, decomp)
        assert owners == [0, 1, 5, 21]
        row = problem.grid.index(22, 22, 22)
        assert [row in ext for ext in decomp.extended_indices] == [False] * 63 + [True]
        csr = problem.matrix.csr.copy()
        csr[row, row] = 7.0  # the same sparsity, one value changed
        owners.clear()
        iteration_operator(LinearProblem(SparseMatrix(csr), problem.rhs, problem.grid), decomp)
        assert owners == [0, 1, 5, 21, 63]

    @pytest.mark.parametrize(
        "block_3_fails_by", ["singular matrix", "NaN right-hand side", "non-finite matrix"]
    )
    def test_lowest_failing_block_raises(self, block_3_fails_by):
        # block 1 is singular; block 3 fails too, in another factor group.
        # A NaN right-hand side leaves block 3 in block 0's group, which the
        # sweep solves before block 1's
        problem = slab()
        dense = problem.matrix.to_dense()
        dense[4 + 12 * (1 + 4 * 2)] = 0.0  # (4, 1, 2), in block 1 alone
        rhs = problem.rhs.copy()
        point = 11 + 12 * (1 + 4 * 2)  # (11, 1, 2), in block 3 alone
        if block_3_fails_by == "singular matrix":
            dense[point] = 0.0
        elif block_3_fails_by == "non-finite matrix":
            dense[point, point] = np.inf
        else:
            rhs[point] = np.nan
        failing = LinearProblem(SparseMatrix.from_dense(dense), rhs, problem.grid)
        singular_factor = pytest.warns(scipy.linalg.LinAlgWarning, match="exactly zero")
        with pytest.raises(SolverBreakdownError, match="block 1") as err, singular_factor:
            outer_solve(failing, SLAB_DIRECT)
        assert (err.value.block_id, err.value.outer_iteration) == (1, 0)

    def test_a_changed_block_gets_its_own_factor(self, monkeypatch):
        problem = slab()
        row = 7 + 12 * (1 + 4 * 2)  # the point (7, 1, 2)
        workspaces = build_workspaces(problem, decompose(problem.grid, (4, 1, 1), 1))
        assert [ws.block_id for ws in workspaces if row in ws.ext] == [2]
        factored = count_factors(monkeypatch)
        assert outer_solve(problem, SLAB_DIRECT).converged
        assert factored == [64, 80]  # blocks 1 and 2 share
        dense = problem.matrix.to_dense()
        dense[row, row] += 1.0  # the same sparsity, one value changed
        changed = LinearProblem(SparseMatrix.from_dense(dense), problem.rhs, problem.grid)
        factored.clear()
        result = outer_solve(changed, SLAB_DIRECT)
        assert result.converged and result.final_true_residual < 1e-6
        assert factored == [64, 80, 80]
        dense[row] = 0.0
        singular = LinearProblem(SparseMatrix.from_dense(dense), problem.rhs, problem.grid)
        factored.clear()
        singular_factor = pytest.warns(scipy.linalg.LinAlgWarning, match="exactly zero")
        with pytest.raises(SolverBreakdownError, match="block 2") as err, singular_factor:
            outer_solve(singular, SLAB_DIRECT)
        assert (err.value.block_id, err.value.outer_iteration) == (2, 0)
        assert factored == [64, 80, 80]


class TestMatricesBuiltInTheSolve:
    """A synchronous replay solve builds the stacked coupling and the block
    matrices its solvers read: one per direct factor, every ``a_ii`` for the
    iterative kinds. Set-up builds none."""

    @pytest.mark.parametrize("kind", ["direct", "gmres"])
    def test_one_matrix_per_prepared_solver(self, monkeypatch, kind, distinct_block_matrices):
        problem = make_problem(24)
        config = OuterConfig(
            block_grid=(4, 4, 4), overlap=1, inner=InnerSolverSpec(kind, 5), max_outer=2
        )
        decomp = decompose(problem.grid, (4, 4, 4), 1)
        stacked_rows = sum(ext.size for ext in decomp.extended_indices)
        solvers = distinct_block_matrices((24, 24, 24), (4, 4, 4)) if kind == "direct" else 64
        built = count_matrices(monkeypatch)
        assert outer_solve(problem, config).outer_iterations == 2
        # besides the solvers' matrices, only the stacked coupling: every
        # block's extended rows by the grid's columns
        assert len(built) == solvers + 1
        assert built.count((stacked_rows, 24**3)) == 1


class TestBatchedDirectSweep:
    """Synchronous replay solves the blocks of one direct factor together:
    their right-hand sides are the columns of one product with the rows of
    the factor's inverse that its blocks own."""

    # on 12x12x6 with 3x3x1 blocks the edge blocks along x are the edge
    # blocks along y with x and y swapped: 3 factors serve the 9 blocks,
    # where reflections alone need 4
    GRID, BLOCKS = (12, 12, 6), (3, 3, 1)
    CONFIG = OuterConfig(
        block_grid=BLOCKS, overlap=1, inner=InnerSolverSpec("direct", 1), tol=1e-6
    )

    def problem(self):
        return build_laplace_3d(Grid3D(*self.GRID, DirichletBoundary({"x_lo": 1.0})))

    def test_transposed_blocks_share_a_factor(self, monkeypatch, distinct_block_matrices):
        factored = count_factors(monkeypatch)
        direct_stacked(self.problem(), self.BLOCKS)
        assert len(factored) == distinct_block_matrices(self.GRID, self.BLOCKS) == 3

    @pytest.mark.parametrize("case", ["12x12x6", "slab"])
    def test_every_column_matches_its_own_factor(self, case):
        # the corners, the edges and the center of 12x12x6; the end and the
        # middle blocks of the slab. The sweep defines only owned entries
        problem, blocks, sizes = {
            "12x12x6": (self.problem(), self.BLOCKS, [4, 4, 1]),
            "slab": (slab(), (4, 1, 1), [2, 2]),
        }[case]
        workspaces, stacked = direct_stacked(problem, blocks)
        assert [len(rows) for _, rows, _ in stacked.batches] == sizes
        rhs = np.random.default_rng(4).standard_normal(stacked.ext.shape[0])
        out, inner_iterations = stacked.solve(rhs, np.zeros_like(rhs), 0)
        assert inner_iterations == len(workspaces)
        for ws, part in zip(workspaces, stacked.parts):
            own = scipy.linalg.lu_solve(scipy.linalg.lu_factor(ws.a_ii.to_dense()), rhs[part])
            owned = ws.owned_local
            error = np.linalg.norm(out[part][owned] - own[owned])
            assert error <= 1e-12 * np.linalg.norm(own[owned]), ws.block_id

    @pytest.mark.parametrize("case", ["24^3-4^3", "slab"])
    def test_each_factor_keeps_the_rows_its_blocks_own(self, case):
        # every factor of 24^3 on 4x4x4 keeps its blocks' 6^3 owned box. On
        # the slab blocks 0 and 3 share a factor under the identity and own
        # its opposite ends, 48 of its 64 rows each; blocks 1 and 2 own the
        # same 48 of their 80
        problem, blocks, kept = {
            "24^3-4^3": (make_problem(24), (4, 4, 4), [216] * 4),
            "slab": (slab(), (4, 1, 1), [64, 48]),
        }[case]
        _, stacked = direct_stacked(problem, blocks)
        assert [keep.shape[1] for _, _, keep in stacked.batches] == kept
        for solve, rows, keep in stacked.batches:
            # beside the factor's n^2 inverse, its solve holds |keep| * n doubles
            assert solve.inverse_rows.shape == (keep.shape[1], rows.shape[1])
        # the sweep reads each point from its owner's block, a kept entry
        computed = np.concatenate([keep.ravel() for _, _, keep in stacked.batches])
        assert np.isin(stacked.gather, computed).all()

    def test_sync_threads_matches_replay(self):
        replay, threads = (
            outer_solve(self.problem(), replace(self.CONFIG, execution=execution))
            for execution in ("replay", "threads")
        )
        assert replay.converged and threads.converged
        assert replay.outer_iterations == threads.outer_iterations
        for a, b in zip(replay.trace.rows, threads.trace.rows):
            assert a.inner_iterations == b.inner_iterations == 9
            assert a.estimated_residual == pytest.approx(b.estimated_residual, rel=1e-10)
        assert replay.final_true_residual == pytest.approx(
            threads.final_true_residual, rel=1e-10
        )

    def test_one_inner_solve_per_factor_per_outer_iteration(self, monkeypatch):
        solved = count_solves(monkeypatch, multisplit, "inner_solve")
        triangular = count_solves(monkeypatch, scipy.linalg, "lu_solve")
        result = outer_solve(self.problem(), self.CONFIG)
        assert result.converged
        assert len(solved) == 3 * result.outer_iterations
        assert sum(solved) == 9 * result.outer_iterations
        assert triangular == []

    @pytest.mark.parametrize("failing,expected", [((63, 2), 2), ((21, 6), 6), ((40, 5), 5)])
    def test_lowest_failing_column_raises_across_groups(self, failing, expected):
        # on 24^3 with 4x4x4 blocks the groups of blocks 0 (the corners), 1
        # and 5 (24 blocks each) and 21 (the 8 interior blocks) are solved in
        # that order; a NaN right-hand side fails only its own column
        _, stacked = direct_stacked(make_problem(24), (4, 4, 4))
        assert [len(rows) for _, rows, _ in stacked.batches] == [8, 24, 24, 8]
        rhs = np.ones(stacked.ext.shape[0])
        for blk in failing:
            rhs[stacked.parts[blk].start + 17] = np.nan
        with pytest.raises(SolverBreakdownError) as err:
            stacked.solve(rhs, np.zeros_like(rhs), 3)
        assert (err.value.block_id, err.value.outer_iteration) == (expected, 3)


class TestFixedPoint:
    @pytest.mark.parametrize("blocks,overlap", [((2, 1, 1), 0), ((2, 2, 2), 1)])
    def test_exact_solution_unchanged_by_iteration(self, blocks, overlap):
        problem = make_problem(4)
        x_true = dense_solution(problem)
        decomp = decompose(problem.grid, blocks, overlap)
        workspaces, links = workers_set_up(problem, decomp)
        states = initial_states(workspaces, links)
        seed_state_with(workspaces, links, states, x_true)
        for ws, link, state in zip(workspaces, links, states):
            rhs = assemble_block_rhs(ws, state.halo_values)
            x_new = dense_solve(ws.a_ii.to_dense(), rhs)
            assert np.abs(x_new - state.x_local).max() <= 1e-12
            assert local_relative_residual(ws, state) <= 1e-12


class TestDegenerations:
    def test_block_jacobi_recurrence(self, sync_iterates):
        # exact inner solves, no overlap, sync: iterates are plain block Jacobi
        problem = make_problem(6)
        dense = problem.matrix.to_dense()
        decomp = decompose(problem.grid, (2, 1, 1))
        config = OuterConfig(
            block_grid=(2, 1, 1),
            inner=InnerSolverSpec("direct", 1),
            tol=1e-300,
            true_residual_interval=10**9,
        )
        m = np.zeros_like(dense)
        for b in range(decomp.num_blocks):
            owned = decomp.owned_indices(b)
            m[np.ix_(owned, owned)] = dense[np.ix_(owned, owned)]
        x_ref = np.zeros(problem.grid.num_unknowns)
        for x in sync_iterates(problem, config, 8):
            x_ref = x_ref + np.linalg.solve(m, problem.rhs - dense @ x_ref)
            assert np.abs(x - x_ref).max() <= 1e-12

    @pytest.mark.parametrize("blocks,overlap", [((2, 2, 1), 1), ((2, 2, 2), 1), ((2, 1, 1), 2)])
    def test_restricted_schwarz_recurrence(self, sync_iterates, blocks, overlap):
        # exact inner solves with overlap, sync: each step adds every block's
        # solve of the residual on its region, kept on its owned points,
        # x + sum_b R~_b^T A_b^-1 R_b (b - A x), in dense algebra
        problem = make_problem(6)
        dense = problem.matrix.to_dense()
        decomp = decompose(problem.grid, blocks, overlap)
        config = OuterConfig(
            block_grid=blocks,
            overlap=overlap,
            inner=InnerSolverSpec("direct", 1),
            tol=1e-300,
            true_residual_interval=10**9,
        )
        x_ref = np.zeros(problem.grid.num_unknowns)
        for x in sync_iterates(problem, config, 6):
            r = problem.rhs - dense @ x_ref
            step = np.zeros_like(x_ref)
            for b, ext in enumerate(decomp.extended_indices):
                correction = np.zeros_like(x_ref)
                correction[ext] = np.linalg.solve(dense[np.ix_(ext, ext)], r[ext])
                owned = decomp.owned_indices(b)
                step[owned] = correction[owned]
            x_ref = x_ref + step
            assert np.abs(x - x_ref).max() <= 1e-12

    def test_point_jacobi_degeneration(self, sync_iterates):
        # one-unknown blocks with exact inner solves reproduce point Jacobi
        problem = make_problem(3)
        dense = problem.matrix.to_dense()
        config = OuterConfig(
            block_grid=(3, 3, 3),
            inner=InnerSolverSpec("direct", 1),
            tol=1e-300,
            true_residual_interval=10**9,
        )
        d = np.diag(dense)
        x_ref = np.zeros(27)
        for x in sync_iterates(problem, config, 6):
            x_ref = (problem.rhs - (dense - np.diag(d)) @ x_ref) / d
            assert np.abs(x - x_ref).max() <= 1e-12


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
        materialized = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1.0
            materialized[:, j] = apply_map(e)
        assert np.abs(materialized - iteration_matrix).max() <= 1e-12

    @pytest.mark.parametrize(
        "blocks,overlap", [((2, 2, 1), 1), ((2, 2, 2), 1), ((2, 1, 1), 2), ((2, 1, 1), 0)]
    )
    def test_replay_step_is_the_operator_plus_the_first_iterate(
        self, sync_iterates, blocks, overlap
    ):
        # the operator acts on the global iterate, as replay does: with
        # direct blocks one replay step is x -> apply(x) + x_0, x_0 the
        # first iterate (taken from x = 0)
        problem = make_problem(6)
        decomp = decompose(problem.grid, blocks, overlap)
        apply_map, dim = iteration_operator(problem, decomp)
        assert dim == problem.grid.num_unknowns
        config = OuterConfig(
            block_grid=blocks,
            overlap=overlap,
            inner=InnerSolverSpec("direct", 1),
            tol=1e-300,
            true_residual_interval=10**9,
        )
        xs = sync_iterates(problem, config, 5)
        for x, x_next in zip(xs, xs[1:]):
            assert np.abs(x_next - (apply_map(x) + xs[0])).max() <= 1e-12

    @pytest.mark.parametrize("blocks,overlap", [((2, 1, 1), 0), ((2, 2, 1), 1)])
    def test_radius_below_one(self, blocks, overlap, spectral_radius):
        problem = make_problem(4)
        decomp = decompose(problem.grid, blocks, overlap)
        assert spectral_radius(*iteration_operator(problem, decomp)) < 1.0

    def test_sync_tail_contracts_by_the_radius(self, spectral_radius):
        # the operator and synchronous replay share the stacked solve and
        # the owner gather: the replay's residual estimate must shrink by
        # the operator's radius per iteration (0.5666 here; the mean merge
        # gives 0.6474)
        problem = make_problem(8)
        decomp = decompose(problem.grid, (2, 2, 2), 1)
        rho = spectral_radius(*iteration_operator(problem, decomp))
        config = OuterConfig(
            block_grid=(2, 2, 2), overlap=1, inner=InnerSolverSpec("direct", 1), tol=1e-12
        )
        rows = outer_solve(problem, config).trace.rows
        tail = (rows[-1].estimated_residual / rows[-11].estimated_residual) ** 0.1
        assert tail == pytest.approx(rho, abs=5e-4)

    def test_more_blocks_larger_radius(self, spectral_radius):
        problem = make_problem(8)
        radii = []
        for gx in (2, 4):
            decomp = decompose(problem.grid, (gx, 1, 1))
            radii.append(spectral_radius(*iteration_operator(problem, decomp)))
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

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(f"{TRACE_HEADER}\n0,0,0.5,,3,0\n\n1,1,0.25,0.3,4,1\n\n")
        assert ResidualTrace.read_csv(path).rows == [
            multisplit.TraceRow(0, 0.0, 0.5, None, 3, 0),
            multisplit.TraceRow(1, 1.0, 0.25, 0.3, 4, 1),
        ]

    def test_malformed_row_names_file_and_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(f"{TRACE_HEADER}\n0,0,0.5,,3,0\n1,1,0.25\n")
        with pytest.raises(ValueError, match="short.csv: malformed trace row '1,1,0.25'"):
            ResidualTrace.read_csv(path)
