"""Outer block-Jacobi driver of the two-stage method.

Each outer iteration a block: (1) assembles its local right-hand side from
the latest halo values, (2) runs the inner solver over its extended region
warm-started from the current local solution, (3) swaps halo payloads with
its neighbors (synchronously or via the non-blocking R-buffer protocol;
overlap values ride in the same payloads), (4) takes every point it does not
own, halo or overlap, from the point's owning block (restricted additive
Schwarz), (5) computes its local relative residual on its owned rows, and
(6) folds it into the global estimate: the square root of the sum of squared
block local relative residues.

Synchronous runs stop as soon as that combined estimate drops below the
target. Asynchronous estimates can be stale, so a worker whose estimate
crosses the target first requests a confirmation round: one synchronous
reduction of the current local residues; the run stops only if the
confirmed value is below the target.

Synchronous replay runs each outer iteration as one sweep over all blocks
on the global iterate: every point's owner value is current, so one global
iterate, gathered from the owners, feeds every block's halo and overlap and
warm-starts its inner solve, and the block-local residues are segment norms
of one global residual. ``iteration_operator`` is the same sweep.
Asynchronous replay runs one generator worker per block in deterministic
round-robin. In both, trace timestamps are iteration counts. Threaded
execution runs one generator worker per block on its own thread against
wall-clock time.

Set-up builds each block's system (``build_workspaces``). Only the per-block
workers exchange payloads, so they alone build the payload maps
(``build_links``), once per solve.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse

from .comm import DEFAULT_BUFFER_SLOTS, DelayModel, Fabric
from .errors import ConfigurationError, ProtocolError, SolverBreakdownError
from .inner_solvers import InnerSolverSpec, prepare
from .linalg import CsrParts, SparseMatrix, ZeroRhsError, residual_norms, spmv
from .problems import (
    BlockDecomposition,
    LinearProblem,
    batches,
    block_system,
    decompose,
)

__all__ = [
    "OuterConfig",
    "BlockState",
    "BlockWorkspace",
    "BlockLinks",
    "TraceRow",
    "ResidualTrace",
    "SolveResult",
    "TRACE_HEADER",
    "build_workspaces",
    "build_links",
    "assemble_block_rhs",
    "merge_overlap",
    "local_relative_residual",
    "combined_residual",
    "true_relative_residual",
    "iteration_operator",
    "outer_solve",
]

TRACE_HEADER = (
    "outer_iteration,time,estimated_residual,true_residual,"
    "inner_iterations,max_halo_staleness"
)

RESIDUAL_MODES = ("paper", "true")
EXECUTIONS = ("replay", "threads")


@dataclass
class OuterConfig:
    """Tunables of the outer two-stage solve."""

    block_grid: tuple[int, int, int] = (1, 1, 1)
    overlap: int = 0
    inner: InnerSolverSpec = field(default_factory=lambda: InnerSolverSpec("gmres", 10))
    mode: str = "sync"  # sync | async
    buffer_slots: int = DEFAULT_BUFFER_SLOTS
    tol: float = 1e-6
    max_outer: int = 5000
    residual_check_mode: str = "paper"  # paper | true
    delay: DelayModel = field(default_factory=DelayModel)
    true_residual_interval: int = 10
    execution: str = "replay"  # replay | threads
    record_comm_events: bool = False

    def __post_init__(self):
        if self.mode not in ("sync", "async"):
            raise ConfigurationError(f"mode: unknown mode {self.mode!r}")
        if self.tol <= 0:
            raise ConfigurationError("tol: must be positive")
        if self.max_outer < 1:
            raise ConfigurationError("max_outer: must be at least 1")
        if self.residual_check_mode not in RESIDUAL_MODES:
            raise ConfigurationError(
                f"residual_mode: unknown mode {self.residual_check_mode!r}"
            )
        if self.execution not in EXECUTIONS:
            raise ConfigurationError(f"exec: unknown execution {self.execution!r}")
        if self.execution != "replay" and self.residual_check_mode == "true":
            raise ConfigurationError("exec: true-residual termination needs replay execution")
        if self.true_residual_interval < 1:
            raise ConfigurationError("true_res_every: must be at least 1")
        # checked here because synchronous replay builds no fabric
        if self.buffer_slots < 1:
            raise ConfigurationError("R: buffer pool needs at least one slot")


@dataclass
class BlockState:
    """Mutable per-worker solve state.

    ``values`` holds the latest value received from each tracked point's
    owner, in the links' tracked order: halo columns, then shared points.
    """

    x_local: np.ndarray  # over the extended region
    halo_values: np.ndarray  # owner values at the halo columns: a view of values
    values: np.ndarray  # latest owner value per tracked point
    applied: np.ndarray  # outer iteration of each source's payload (-1 = initial guess)


@dataclass
class BlockWorkspace:
    """Immutable per-block geometry and operators: the block's system, which
    synchronous replay and the per-block workers both read.

    The block's ``a_ii`` and ``coupling`` are held as the CSR parts
    ``block_system`` extracted, views of its batch arrays; each
    ``SparseMatrix`` is built and checked the first time it is read; a
    per-block worker's local residual reads both. The payload maps only the
    per-block workers read are a ``BlockLinks``.
    """

    block_id: int
    ext: np.ndarray  # sorted global indices of the extended region
    a_ii_parts: CsrParts
    coupling_parts: CsrParts  # extended rows x halo columns
    halo_cols: np.ndarray  # sorted global indices of coupled external points
    b_ext: np.ndarray
    residual_scale: float  # the owned part of ||b||, else the global ||b||, else 1
    owned_global: np.ndarray
    owned_local: np.ndarray
    shared_local: np.ndarray  # non-owned positions of the extended region

    @property
    def n_local(self) -> int:
        return int(self.ext.shape[0])

    # the block's matrices, built and checked on first use: synchronous
    # replay reads the parts, and its direct solves only a factor's first block
    @cached_property
    def a_ii(self) -> SparseMatrix:
        return self.a_ii_parts.matrix()

    @cached_property
    def coupling(self) -> SparseMatrix:
        return self.coupling_parts.matrix()


@dataclass
class BlockLinks:
    """A per-block worker's payload index maps, built by ``build_links``.

    The block tracks the points it needs from other blocks in one ordering:
    its halo columns first, then its shared points (the non-owned part of
    the extended region), and takes each from the block that owns it. So a
    source's payload carries its values at the tracked points it owns, in
    global index order, and ``recv_slots`` maps each source, in ascending
    id, to the tracked slots its payload fills. ``send_idx`` is keyed by
    every neighbor, in ascending id, so its items are the block's outgoing
    payloads, one per neighbor. A neighbor is a block that tracks a point
    the block owns, so no payload is empty.
    """

    send_idx: dict[int, np.ndarray]  # local positions to ship per neighbor
    recv_slots: dict[int, np.ndarray]  # tracked slots of each source's payload

    def initial_state(self, ws: BlockWorkspace) -> BlockState:
        n_halo = ws.halo_cols.shape[0]
        values = np.zeros(n_halo + ws.shared_local.shape[0])
        return BlockState(
            x_local=np.zeros(ws.n_local),
            halo_values=values[:n_halo],
            values=values,
            applied=np.full(len(self.recv_slots), -1),
        )


_GUARDS = (
    "index set membership violated in payload construction",
    "some tracked point is not owned by exactly one neighbor",
    "payload coverage: a tracked point's owner is not a neighbor",
)


def build_workspaces(
    problem: LinearProblem, decomp: BlockDecomposition
) -> list[BlockWorkspace]:
    """Precompute every block's local system, over the same ``batches`` of
    consecutive blocks as ``block_system``. No neighbor list is read and no
    payload map built; ``build_links`` builds those. Whole-array checks
    compare each batch with the decomposition: each owned box lies in its
    region, and exactly one owned box holds each point a block tracks (its
    halo columns and shared points). The lowest failing block raises
    ProtocolError, naming its first failed check.
    """
    b = problem.rhs
    b_global_norm = float(np.linalg.norm(b)) or 1.0
    grid = decomp.grid
    exts = decomp.extended_indices
    systems = block_system(problem, decomp)

    ext_start = np.concatenate(([0], np.cumsum([ext.shape[0] for ext in exts])))
    owner_of = np.full((grid.nz, grid.ny, grid.nx), -1)
    owners = np.zeros_like(owner_of)
    for blk, box in enumerate(decomp.owned):
        inside = tuple(slice(lo, hi) for lo, hi in zip(box.lo[::-1], box.hi[::-1]))
        owner_of[inside] = blk
        owners[inside] += 1
    owner_of = owner_of.ravel()
    box_size = np.array([box.size for box in decomp.owned])
    # the points owned by no box or by several
    misowned = owners.ravel() != 1

    workspaces: list[BlockWorkspace] = []
    for run in batches([a.data.size + coupling.data.size for a, coupling, _ in systems]):
        count = len(run)
        blocks = np.arange(run.start, run.stop)
        rows = np.concatenate(exts[run.start : run.stop])
        row_start = ext_start[run.start : run.stop + 1] - ext_start[run.start]
        row_block = np.repeat(np.arange(count), np.diff(row_start))
        local_row = np.arange(rows.shape[0]) - row_start[row_block]
        owned = owner_of[rows] == blocks[row_block]
        owned_count = np.bincount(row_block[owned], minlength=count)
        own_start = np.concatenate(([0], np.cumsum(owned_count)))
        shared_start = row_start - own_start
        owned_global, owned_local = rows[owned], local_row[owned]
        shared_local = local_row[~owned]

        # tracked points, halo columns first, and their blocks
        halos = [systems[blk][2] for blk in run]
        halo_block = np.repeat(np.arange(count), [halo.shape[0] for halo in halos])
        tracked = np.concatenate(halos + [rows[~owned]])
        track_block = np.concatenate((halo_block, row_block[~owned]))

        def failing(per_point):
            return np.bincount(track_block[per_point], minlength=count) > 0

        failed = np.stack(
            [
                owned_count != box_size[run.start : run.stop],
                failing(misowned[tracked]),
            ],
            axis=1,
        )
        if failed.any():
            i, guard = np.argwhere(failed)[0]
            raise ProtocolError(f"block {run.start + i}: {_GUARDS[guard]}")

        b_ext, b_owned = b[rows], b[owned_global]
        at_row, at_own, at_shared = (v.tolist() for v in (row_start, own_start, shared_start))
        for i, blk in enumerate(run):
            a_ii, coupling, halo_cols = systems[blk]
            own = slice(at_own[i], at_own[i + 1])
            workspaces.append(
                BlockWorkspace(
                    block_id=blk,
                    ext=exts[blk],
                    a_ii_parts=a_ii,
                    coupling_parts=coupling,
                    halo_cols=halo_cols,
                    b_ext=b_ext[at_row[i] : at_row[i + 1]],
                    residual_scale=float(np.linalg.norm(b_owned[own])) or b_global_norm,
                    owned_global=owned_global[own],
                    owned_local=owned_local[own],
                    shared_local=shared_local[at_shared[i] : at_shared[i + 1]],
                )
            )
    return workspaces


def build_links(
    workspaces: list[BlockWorkspace], decomp: BlockDecomposition
) -> list[BlockLinks]:
    """Every block's payload index maps, for the per-block workers.

    Block t takes each point it tracks from the point's owner s, so the
    payload from s to t carries s's values at those points, in global index
    order. One sort per block groups t's tracked points by owner, and one
    map of each point's position in its owner's region gives what s ships.
    ``build_workspaces`` checked that each tracked point has one owner; the
    fabric carries payloads between neighbors only, so an owner that is not
    among t's neighbors fails t, and the lowest such t raises ProtocolError.
    """
    n = decomp.grid.num_unknowns
    owner_of = np.empty(n, dtype=np.intp)
    owner_pos = np.empty(n, dtype=np.intp)
    for ws in workspaces:
        owner_of[ws.owned_global] = ws.block_id
        owner_pos[ws.owned_global] = ws.owned_local
    nothing = np.empty(0, dtype=np.intp)
    send_idx = [dict.fromkeys(sorted(nbrs), nothing) for nbrs in decomp.neighbors]
    links = []
    for ws in workspaces:
        blk = ws.block_id
        tracked = np.concatenate((ws.halo_cols, ws.ext[ws.shared_local]))
        owners = owner_of[tracked]
        slots = np.argsort(owners * n + tracked)  # by owner, then global index
        by_owner = owners[slots]
        starts = np.flatnonzero(np.diff(by_owner, prepend=-1)).tolist()
        sources = by_owner[starts].tolist()
        if not set(sources) <= set(decomp.neighbors[blk]):
            raise ProtocolError(f"block {blk}: {_GUARDS[2]}")
        positions = owner_pos[tracked[slots]]
        recv_slots = {}
        for src, lo, hi in zip(sources, starts, starts[1:] + [slots.shape[0]]):
            send_idx[src][blk] = positions[lo:hi]
            recv_slots[src] = slots[lo:hi]
        links.append(BlockLinks(send_idx=send_idx[blk], recv_slots=recv_slots))
    return links


def assemble_block_rhs(ws: BlockWorkspace, halo_values: np.ndarray) -> np.ndarray:
    """Local right-hand side: b restricted to the block minus halo couplings."""
    rhs = ws.b_ext.copy()
    if ws.halo_cols.size:
        rhs -= spmv(ws.coupling, halo_values)
    return rhs


def merge_overlap(ws: BlockWorkspace, state: BlockState) -> None:
    """Take every point the block does not own from its owner: copy the
    latest owner values into the shared points of ``x_local``. The halo
    values are a view of the received values, so they need no copy. Owned
    points are never modified."""
    state.x_local[ws.shared_local] = state.values[ws.halo_cols.shape[0] :]


def local_relative_residual(ws: BlockWorkspace, state: BlockState) -> float:
    """Block-local relative residual over the block's owned rows.

    Numerator: the global residual restricted to owned rows, evaluated with
    the block's own values at owned points and, after ``merge_overlap``, the
    owning block's latest (possibly stale) value at every other point, so
    the combined estimate always dominates the true residual of the
    gathered iterate. Denominator: the owned part of ||b||, falling back to
    the global ||b|| when the owned part is zero. Every row of ``a_ii`` and
    ``coupling`` is applied and the owned ones kept; each row sums on its
    own, so no owned-row copy of either matrix is needed.
    """
    r = ws.b_ext - spmv(ws.a_ii, state.x_local)
    if ws.halo_cols.size:
        r -= spmv(ws.coupling, state.halo_values)
    return float(np.linalg.norm(r[ws.owned_local])) / ws.residual_scale


def combined_residual(local_residuals) -> float:
    """Combine block-local relative residues: sqrt of the sum of squares."""
    return math.sqrt(sum(float(r) ** 2 for r in local_residuals))


def true_relative_residual(problem: LinearProblem, x: np.ndarray) -> float:
    """||b - Ax|| / ||b|| assembled from the full operator (diagnostic)."""
    return residual_norms(problem.matrix, x, problem.rhs)[1]


@dataclass
class TraceRow:
    outer_iteration: int
    time: float
    estimated_residual: float
    true_residual: float | None
    inner_iterations: int
    max_halo_staleness: int


def _fmt(value: float) -> str:
    return format(value, ".17g")


@dataclass
class ResidualTrace:
    """Per-outer-iteration solve record with a fixed CSV schema."""

    rows: list[TraceRow] = field(default_factory=list)

    def write_csv(self, path) -> None:
        lines = [TRACE_HEADER]
        for row in self.rows:
            true = "" if row.true_residual is None else _fmt(row.true_residual)
            lines.append(
                f"{row.outer_iteration},{_fmt(row.time)},"
                f"{_fmt(row.estimated_residual)},{true},"
                f"{row.inner_iterations},{row.max_halo_staleness}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read_csv(cls, path) -> "ResidualTrace":
        with open(path) as fh:
            lines = [line.rstrip("\n") for line in fh]
        if not lines or lines[0] != TRACE_HEADER:
            raise ValueError(f"{path}: not a residual trace (unexpected header)")
        rows = []
        for line in lines[1:]:
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise ValueError(f"{path}: malformed trace row {line!r}")
            rows.append(
                TraceRow(
                    outer_iteration=int(parts[0]),
                    time=float(parts[1]),
                    estimated_residual=float(parts[2]),
                    true_residual=None if parts[3] == "" else float(parts[3]),
                    inner_iterations=int(parts[4]),
                    max_halo_staleness=int(parts[5]),
                )
            )
        return cls(rows)


@dataclass
class SolveResult:
    solution: np.ndarray
    trace: ResidualTrace
    converged: bool
    outer_iterations: int
    final_true_residual: float
    comm_events: list[tuple] = field(default_factory=list)


class _WorkerContext:
    def __init__(self, workspace: BlockWorkspace, links: BlockLinks, solver, fabric, config):
        self.workspace = workspace
        self.links = links
        self.solver = solver
        self.fabric = fabric
        self.config = config
        self.state = links.initial_state(workspace)
        self.records: list[TraceRow] = []
        self.converged = False
        self.t0 = 0.0
        self.gen = _block_worker(self)


# the 48 symmetries of the grid axes, each an order of a (z, y, x) box's axes
# and a reversal per axis, the identity first
SYMMETRIES = [
    (axes, tuple(slice(None, None, -1) if flip else slice(None) for flip in flips))
    for axes in itertools.permutations(range(3))
    for flips in itertools.product((False, True), repeat=3)
]


def _equal_reordered(a: CsrParts, b: CsrParts, perm: np.ndarray) -> bool:
    """Whether ``b``, its rows and columns taken in ``perm`` order, is ``a``
    exactly: shape, indptr, indices and data. The entries are compared as
    sorted row-major keys with their values, which for canonical CSR says
    the same."""
    if a.shape != b.shape or a.data.size != b.data.size:
        return False
    n = a.shape[0]
    moved_to = np.empty_like(perm)
    moved_to[perm] = np.arange(n)
    keys = moved_to[np.repeat(np.arange(n), np.diff(b.indptr))] * n
    keys += moved_to[b.indices]
    order = np.argsort(keys)
    a_keys = np.repeat(np.arange(n), np.diff(a.indptr)) * n + a.indices
    return np.array_equal(keys[order], a_keys) and np.array_equal(b.data[order], a.data)


@dataclass(eq=False)
class _SharedFactor:
    """A block's direct solve through a factor that may belong to another
    block: ``perm`` lists the block's points in the factor's order. A call
    gathers the right-hand side, solves once and scatters the result back;
    the synchronous sweep gathers every block of one factor at once."""

    solve: object  # the factor's solve, in its own order
    perm: np.ndarray

    def __call__(self, b, x0=None):
        y, report = self.solve(b[self.perm])
        x = np.empty_like(y)
        x[self.perm] = y
        return x, report


def _shared_solver(ws: BlockWorkspace, box: np.ndarray, factors: list[tuple]):
    """The block's solve through the first factor (occupied box, parts,
    solve) whose matrix is the block's ``a_ii`` under a symmetry of the grid
    axes applied to ``box``, its region kind's mask numbered in the region's
    order (-1 outside); the identity is tried first. The parts are
    compared, so no matrix is built."""
    for axes, flips in SYMMETRIES:
        moved = box.transpose(axes)[flips]
        for occupied, a, solve in factors:
            if np.array_equal(moved >= 0, occupied):
                perm = moved[occupied]
                if _equal_reordered(a, ws.a_ii_parts, perm):
                    return _SharedFactor(solve, perm)
    return None


def _prepare_solvers(
    workspaces: list[BlockWorkspace], spec: InnerSolverSpec, decomp: BlockDecomposition
):
    """Each block's inner solver, prepared once per solve.

    Direct solves hold nothing but their factor, so block b reuses the
    factor of an earlier block a when b's ``a_ii``, reordered by one of the
    48 symmetries of the grid axes (an axis permutation times a reflection)
    over b's extended region, equals a's exactly (shape, indptr, indices and
    data). The identity is tried first, so equal matrices share without
    reordering. The search moves the box of b's region kind, and only a
    region matching a's point for point is compared entry by entry, so only
    the first block of a factor builds its ``a_ii``, factors it and names
    any error. No two factors are equal under a symmetry, so a block whose parts
    equal those of its kind's first block takes that block's solver.

    Every other kind gets one solver per block: threads run blocks
    concurrently, and a GMRES solver keeps its basis between calls.
    """
    if spec.kind == "gmres" and spec.restart is None:
        # the inner stage runs one cycle of the configured length
        spec = replace(spec, restart=spec.max_iterations)
    if spec.kind != "direct":
        return [prepare(spec, ws.a_ii, ws.block_id) for ws in workspaces]
    factors: list[tuple] = []
    first: dict[int, tuple] = {}  # each region kind's first parts and solver
    solvers = []
    for ws in workspaces:
        region = int(decomp.region_kinds[ws.block_id])
        parts, solver = first.get(region, (None, None))
        if parts is None or not all(map(np.array_equal, parts, ws.a_ii_parts)):
            mask = decomp.kind_masks[region]
            box = np.full(mask.shape, -1)
            box[mask] = np.arange(ws.n_local)
            solver = _shared_solver(ws, box, factors)
            if solver is None:
                factors.append((mask, ws.a_ii_parts, prepare(spec, ws.a_ii, ws.block_id)))
                solver = _SharedFactor(factors[-1][2], np.arange(ws.n_local))
            first.setdefault(region, (ws.a_ii_parts, solver))
        solvers.append(solver)
    return solvers


def inner_solve(solver, rhs: np.ndarray, x0: np.ndarray):
    """Run a prepared inner solver; tracers and tests intercept this name.
    It is called once per block solve, except in synchronous replay with
    direct solves, which calls it once per factor per outer iteration for
    every block of the factor together."""
    return solver(rhs, x0)


def _solve_block(solver, kind: str, block_id: int, k: int, rhs, x0):
    """One block's inner solve; a breakdown raises its SolverBreakdownError."""
    x, report = inner_solve(solver, rhs, x0)
    if report.stop_reason == "breakdown":
        raise SolverBreakdownError(block_id, k, f"{kind} reported breakdown")
    return x, report


def _apply_incoming(ws: BlockWorkspace, links: BlockLinks, state: BlockState, incoming) -> float:
    """Store the received payloads in their sources' tracked slots, take
    every non-owned point from its owner and return the block's new local
    relative residual."""
    for i, (src, slots) in enumerate(links.recv_slots.items()):
        if src in incoming:
            state.values[slots] = incoming[src].payload
            state.applied[i] = incoming[src].outer_iteration
    merge_overlap(ws, state)
    return local_relative_residual(ws, state)


def _block_worker(ctx: _WorkerContext):
    """Generator running one block's outer loop; yields at every wait point
    and once per completed iteration."""
    ws = ctx.workspace
    links = ctx.links
    fabric = ctx.fabric
    cfg = ctx.config
    state = ctx.state
    replay = cfg.execution == "replay"
    k = 0
    while True:
        if fabric.stop_requested():
            # the replay driver asks for this when a true-residual sample
            # meets the target; the threads driver asks for it after a
            # worker error, which it then re-raises
            ctx.converged = True
            return
        fabric.begin_iteration(ws.block_id, k)

        rhs = assemble_block_rhs(ws, state.halo_values)
        x_new, report = _solve_block(
            ctx.solver, cfg.inner.kind, ws.block_id, k, rhs, state.x_local
        )
        state.x_local = x_new

        outgoing = {nbr: x_new[idx] for nbr, idx in links.send_idx.items()}
        if cfg.mode == "sync":
            incoming = yield from fabric.halo_exchange_sync(
                ws.block_id, outgoing, k
            )
        else:
            incoming = fabric.halo_exchange_async(ws.block_id, outgoing, k)
        r_local = _apply_incoming(ws, links, state, incoming)

        if cfg.mode == "sync":
            total = yield from fabric.reduce_sync(ws.block_id, r_local**2, k)
            estimate = math.sqrt(total)
        else:
            total, _ = fabric.reduce_async(ws.block_id, r_local**2, k)
            estimate = math.sqrt(total) if math.isfinite(total) else math.inf

        now = float(k) if replay else time.perf_counter() - ctx.t0
        # the lag of the stalest source; a block that takes no point from
        # another is never stale
        staleness = k - int(state.applied.min()) if state.applied.size else 0
        ctx.records.append(TraceRow(k, now, estimate, None, report.iterations_used, staleness))

        # an asynchronous estimate may be stale, so it stops only once confirmed
        if cfg.mode == "sync":
            ctx.converged = estimate < cfg.tol
        else:
            if estimate < cfg.tol:
                fabric.request_confirm()
            if fabric.confirm_pending():
                # flush every worker's current payloads synchronously so
                # the confirmed residues describe one consistent iterate
                flushed = yield from fabric.confirm_exchange(
                    ws.block_id, outgoing, k
                )
                r_local = _apply_incoming(ws, links, state, flushed)
                confirmed = yield from fabric.confirm_round(
                    ws.block_id, r_local**2
                )
                if math.sqrt(confirmed) < cfg.tol:
                    # the run stops on the confirmed value, so its row says so
                    ctx.records[-1].estimated_residual = math.sqrt(confirmed)
                    ctx.converged = True

        yield ("iter", k)
        if ctx.converged or k + 1 >= cfg.max_outer:
            return
        k += 1


def _gather_solution(
    problem: LinearProblem, workspaces: list[BlockWorkspace], contexts
) -> np.ndarray:
    x = np.zeros(problem.grid.num_unknowns)
    for ws, ctx in zip(workspaces, contexts):
        x[ws.owned_global] = ctx.state.x_local[ws.owned_local]
    return x


def _run_replay(problem, workspaces, contexts, fabric, config):
    """Deterministic round-robin scheduler with true-residual sampling,
    for asynchronous replay; returns the samples, ``{iteration: residual}``.

    Workers can be up to one iteration apart mid-pass, so iterates are
    gathered incrementally: each worker's owned values are copied the moment
    it reports an iteration complete (while they still belong to that
    iteration), and the sample is finalized once every worker contributed.
    """
    n = len(contexts)
    alive = set(range(n))
    samples: dict[int, float] = {}
    partial: dict[int, tuple[np.ndarray, set]] = {}

    def want_true(k: int) -> bool:
        return (
            config.residual_check_mode == "true"
            or k % config.true_residual_interval == 0
        )

    def on_iteration_complete(wid: int, k: int) -> None:
        if not want_true(k):
            return
        if k not in partial:
            partial[k] = (np.zeros(problem.grid.num_unknowns), set())
        gathered, seen = partial[k]
        ws = workspaces[wid]
        gathered[ws.owned_global] = contexts[wid].state.x_local[ws.owned_local]
        seen.add(wid)
        if len(seen) == n:
            del partial[k]
            samples[k] = true_relative_residual(problem, gathered)
            if config.residual_check_mode == "true" and samples[k] < config.tol:
                fabric.request_stop()

    while alive:
        progressed = False
        version = fabric.version
        for wid in sorted(alive):
            try:
                signal = next(contexts[wid].gen)
            except StopIteration:
                fabric.deregister(wid)
                alive.discard(wid)
                progressed = True
                continue
            if signal is not None:
                on_iteration_complete(wid, signal[1])
                progressed = True
        if not progressed and fabric.version == version:
            raise ProtocolError(
                f"replay stalled with workers {sorted(alive)} all waiting"
            )
    return samples


def _run_threads(contexts, fabric):
    """Run one thread per worker; raise the first error any worker raised.

    A worker's error is recorded before the worker deregisters, so a
    neighbor that then fails on the missing worker is recorded after it.
    """
    errors: list[BaseException] = []
    errors_lock = threading.Lock()
    t0 = time.perf_counter()
    for ctx in contexts:
        ctx.t0 = t0

    def drive(ctx: _WorkerContext):
        try:
            while True:
                version = fabric.version
                try:
                    signal = next(ctx.gen)
                except StopIteration:
                    return
                if signal is None:
                    fabric.wait_for_change(ctx.workspace.block_id, version)
                else:
                    # offer the interpreter lock to a peer after each
                    # iteration; else one worker can run thousands ahead
                    time.sleep(0)
        except BaseException as exc:  # propagated after join
            with errors_lock:
                errors.append(exc)
            fabric.request_stop()
        finally:
            fabric.deregister(ctx.workspace.block_id)

    threads = [
        threading.Thread(target=drive, args=(ctx,), name=f"block-{ctx.workspace.block_id}")
        for ctx in contexts
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


@dataclass
class _StackedBlocks:
    """Every block's extended region stacked in block order, and every
    block's prepared inner solver: one synchronous outer step, ``sweep``.

    Every block takes each point it does not own from the point's owner,
    so in a synchronous step all blocks read one global iterate x, and its
    next value is each point's owner entry of the stacked solutions,
    ``z[gather]``. ``coupling`` (every block's coupling rows, placed at
    their global columns) applies x to all blocks at once.
    """

    parts: list[slice]  # each block's range of the stacked vector
    ext: np.ndarray  # global index of each stacked entry
    gather: np.ndarray  # stacked position of each global point's owner entry
    owner: np.ndarray  # the block that owns each global point
    coupling: SparseMatrix  # stacked rows x global columns
    kind: str
    solvers: list  # each block's prepared solver
    # direct, per factor: its solve of the kept rows, one row per block of
    # the block's stacked positions in the factor's order, and of those at
    # the kept rows
    batches: list[tuple[object, np.ndarray, np.ndarray]]

    @classmethod
    def build(
        cls, workspaces: list[BlockWorkspace], decomp: BlockDecomposition, spec: InnerSolverSpec
    ) -> "_StackedBlocks":
        """Stack the workspaces and prepare their solvers.

        The stacked coupling is assembled from every block's coupling parts,
        its columns mapped through the block's halo columns, without
        building a matrix per block. The only per-block matrices built are
        those ``_prepare_solvers`` reads: one per factor for the direct
        kind, every block's ``a_ii`` for the others.

        A direct factor keeps the rows of its inverse at the union of the
        positions its blocks own, in the factor's order: only owned entries
        are read after a solve.
        """
        n = decomp.grid.num_unknowns
        offsets = np.cumsum([0] + [ws.n_local for ws in workspaces])
        parts = [ws.coupling_parts for ws in workspaces]
        row_entries = np.concatenate([np.diff(part.indptr) for part in parts])
        coupling = scipy.sparse.csr_array(
            (
                np.concatenate([part.data for part in parts]),
                np.concatenate(
                    [ws.halo_cols[part.indices] for ws, part in zip(workspaces, parts)]
                ),
                np.concatenate(([0], np.cumsum(row_entries))),
            ),
            shape=(int(offsets[-1]), n),
        )
        gather = np.empty(n, dtype=np.intp)
        for lo, ws in zip(offsets, workspaces):
            gather[ws.owned_global] = lo + ws.owned_local
        solvers = _prepare_solvers(workspaces, spec, decomp)
        members: dict[object, tuple[list, list]] = {}  # in the order of first blocks
        if spec.kind == "direct":
            for lo, ws, solver in zip(offsets, workspaces, solvers):
                rows, owned = members.setdefault(solver.solve, ([], []))
                rows.append(lo + solver.perm)
                owned.append(np.isin(solver.perm, ws.owned_local))
        batches = []
        for solve, (rows, owned) in members.items():
            rows, keep = np.array(rows), np.flatnonzero(np.any(owned, axis=0))
            batches.append((solve.kept_rows(keep), rows, rows[:, keep]))
        return cls(
            parts=[slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])],
            ext=np.concatenate([ws.ext for ws in workspaces]),
            gather=gather,
            owner=np.repeat(np.arange(len(workspaces)), np.diff(offsets))[gather],
            coupling=SparseMatrix(coupling),
            kind=spec.kind,
            solvers=solvers,
            batches=batches,
        )

    def solve(self, rhs: np.ndarray, x: np.ndarray, k: int):
        """Every block's inner solve of its stacked ``rhs``, each iterative
        block warm-started from the global iterate x on its region.

        Returns (stacked solution, inner iterations summed over blocks). The
        direct kind ignores x and makes one ``inner_solve`` per factor: one
        product of the kept rows of its inverse with the right-hand sides of
        its blocks, gathered as the columns of one array, and the solutions
        scattered back at the kept rows; other entries are left undefined.
        Each block counts one iteration. The other kinds solve block by
        block. Either way the lowest-numbered block that breaks down raises
        its SolverBreakdownError.
        """
        out = np.empty(rhs.shape[0])
        if self.kind != "direct":
            x_ext = x[self.ext]
            inner_iterations = 0
            for blk, (part, solver) in enumerate(zip(self.parts, self.solvers)):
                out[part], report = _solve_block(solver, self.kind, blk, k, rhs[part], x_ext[part])
                inner_iterations += report.iterations_used
            return out, inner_iterations
        failed = []  # a stacked position of each block that broke down
        for solve, rows, kept in self.batches:
            y, report = inner_solve(solve, rhs[rows].T, None)
            out[kept] = y.T
            if report.stop_reason == "breakdown":
                failed.extend(kept[~np.isfinite(y).all(axis=0), 0])
        if failed:
            first = min(failed)
            blk = next(blk for blk, part in enumerate(self.parts) if first < part.stop)
            raise SolverBreakdownError(blk, k, "direct reported breakdown")
        return out, len(self.parts)

    def sweep(self, x: np.ndarray, b_ext: np.ndarray, k: int):
        """One synchronous outer step on the global iterate x, for the
        stacked right-hand side ``b_ext``: every block solves
        ``b_ext - coupling x`` on its region, and each point takes its
        owner's solution. Returns (next iterate, inner iterations)."""
        z, inner_iterations = self.solve(b_ext - spmv(self.coupling, x), x, k)
        return z[self.gather], inner_iterations


def _run_sync_replay(problem, decomp, workspaces, config):
    """Synchronous replay: one ``_StackedBlocks.sweep`` per outer iteration,
    on the global iterate alone.

    Every owner value is current after a sweep, so block b's local residue
    is the norm of the global residual of the iterate over b's owned rows;
    the squared residues are summed in block order, as ``reduce_sync`` does.
    The same residual gives the true-residual samples.

    Returns (solution, rows, converged, events), as ``_run_workers`` does;
    the synchronous fabric ops record no events, so the event list is empty.
    """
    stacked = _StackedBlocks.build(workspaces, decomp, config.inner)
    b = problem.rhs
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        raise ZeroRhsError("relative residual undefined for a zero right-hand side")
    b_ext = b[stacked.ext]
    scale = np.array([ws.residual_scale for ws in workspaces])
    true_mode = config.residual_check_mode == "true"

    x = np.zeros(b.shape[0])
    rows: list[TraceRow] = []
    for k in itertools.count():
        x, inner_iterations = stacked.sweep(x, b_ext, k)
        r = b - spmv(problem.matrix, x)
        residues = np.sqrt(np.bincount(stacked.owner, r * r, len(workspaces))) / scale
        estimate = combined_residual(residues)
        sample = None
        if true_mode or k % config.true_residual_interval == 0:
            sample = float(np.linalg.norm(r)) / b_norm
        rows.append(TraceRow(k, float(k), estimate, sample, inner_iterations, 0))
        converged = estimate < config.tol
        if converged or k + 1 >= config.max_outer:
            break
        if true_mode and sample < config.tol:
            converged = True
            break
    return x, rows, converged, []


def _run_workers(problem, decomp, workspaces, config):
    """Asynchronous replay and threaded execution: one generator per block.

    Returns (solution, rows, converged, events) with one trace row per
    outer iteration, combined over the blocks that ran it, and the fabric's
    comm events (empty unless ``record_comm_events``). The payload maps are
    built here, before the fabric starts, since only these workers read them.
    """
    links = build_links(workspaces, decomp)
    fabric = Fabric(
        decomp.num_blocks, config.mode, config.buffer_slots, config.delay,
        decomp.neighbors, config.record_comm_events,
    )
    solvers = _prepare_solvers(workspaces, config.inner, decomp)
    contexts = [_WorkerContext(*args, fabric, config) for args in zip(workspaces, links, solvers)]
    if config.execution == "replay":
        samples = _run_replay(problem, workspaces, contexts, fabric, config)
    else:
        _run_threads(contexts, fabric)
        samples = {}

    rows = []
    for k in range(max(len(ctx.records) for ctx in contexts)):
        at_k = [ctx.records[k] for ctx in contexts if k < len(ctx.records)]
        first = contexts[0].records[k] if k < len(contexts[0].records) else at_k[0]
        rows.append(
            TraceRow(
                k,
                max(row.time for row in at_k),
                first.estimated_residual,
                samples.get(k),
                sum(row.inner_iterations for row in at_k),
                max(row.max_halo_staleness for row in at_k),
            )
        )
    return (
        _gather_solution(problem, workspaces, contexts),
        rows,
        all(ctx.converged for ctx in contexts),
        list(fabric.events),
    )


def outer_solve(problem: LinearProblem, config: OuterConfig) -> SolveResult:
    """Run the two-stage solve and gather the owned values into a solution.

    Raises SolverBreakdownError if an inner solver breaks down (with the
    block id and iteration); max_outer exhaustion is reported through
    ``converged=False``, not an exception.
    """
    decomp = decompose(problem.grid, config.block_grid, config.overlap)
    workspaces = build_workspaces(problem, decomp)
    if config.mode == "sync" and config.execution == "replay":
        run = _run_sync_replay
    else:
        run = _run_workers
    solution, rows, converged, events = run(problem, decomp, workspaces, config)

    final_true = true_relative_residual(problem, solution)
    if rows and rows[-1].true_residual is None:
        rows[-1].true_residual = final_true
    return SolveResult(
        solution=solution,
        trace=ResidualTrace(rows),
        converged=converged,
        outer_iterations=len(rows),
        final_true_residual=final_true,
        comm_events=events,
    )


def iteration_operator(problem: LinearProblem, decomp: BlockDecomposition):
    """The exact-inner-solve outer iteration as a linear map (apply, dim).

    Operates on the global iterate, dim = n: the synchronous sweep of
    synchronous replay with direct inner solves and b = 0, so one replay
    step is ``apply(x) + x_0``, x_0 the first iterate (from x = 0). With no
    overlap this is precisely M^-1 N for M the block diagonal of A; with
    overlap it is the restricted additive Schwarz operator whose spectral
    radius governs convergence. Block matrices equal up to a symmetry of
    the grid axes share one factor, and each application makes one product
    per factor with its inverse's kept rows; the lowest-numbered singular
    or non-finite block raises SolverBreakdownError.
    """
    workspaces = build_workspaces(problem, decomp)
    stacked = _StackedBlocks.build(workspaces, decomp, InnerSolverSpec("direct", 1))
    zeros = np.zeros(stacked.ext.shape[0])
    return (lambda x: stacked.sweep(x, zeros, 0)[0]), problem.grid.num_unknowns
