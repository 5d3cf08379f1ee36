"""Outer block-Jacobi driver of the two-stage method.

Each outer iteration a block: (1) assembles its local right-hand side from
the latest halo values, (2) runs the inner solver over its extended region
warm-started from the current local solution, (3) swaps halo payloads with
its neighbors (synchronously or via the non-blocking R-buffer protocol;
overlap contributions ride in the same payloads), (4) merges overlapping
values with equal weights over the covering blocks, (5) computes its local
relative residual on its owned rows, and (6) folds it into the global
estimate: the square root of the sum of squared block local relative
residues.

Synchronous runs stop as soon as that combined estimate drops below the
target. Asynchronous estimates can be stale, so a worker whose estimate
crosses the target first requests a confirmation round: one synchronous
reduction of the current local residues; the run stops only if the
confirmed value is below the target.

Synchronous replay runs each outer iteration as one stacked iteration over
all blocks: every block merges a point to the same mean over its covering
blocks, and every owner value is the current iterate, so one global mean
feeds every block's halo and overlap, and the block-local residues are
segment norms of one global residual. Asynchronous replay runs one generator
worker per block in deterministic round-robin. In both, trace timestamps are
iteration counts. Threaded execution runs one generator worker per block on
its own thread against wall-clock time.
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

from .comm import DEFAULT_BUFFER_SLOTS, DelayModel, Fabric, create_fabric
from .errors import ConfigurationError, ProtocolError, SolverBreakdownError
from .inner_solvers import InnerSolverSpec, prepare
from .linalg import SparseMatrix, ZeroRhsError, residual_norms, spmv
from .problems import BlockDecomposition, LinearProblem, block_system, decompose

__all__ = [
    "OuterConfig",
    "BlockState",
    "BlockWorkspace",
    "TraceRow",
    "ResidualTrace",
    "SolveResult",
    "TRACE_HEADER",
    "build_workspaces",
    "assemble_block_rhs",
    "merge_overlap",
    "local_relative_residual",
    "combined_residual",
    "true_relative_residual",
    "check_termination",
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
    capture_iterates: bool = False
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
        if self.execution != "replay" and (
            self.residual_check_mode == "true" or self.capture_iterates
        ):
            raise ConfigurationError(
                "exec: true-residual termination and iterate capture need replay execution"
            )
        if self.true_residual_interval < 1:
            raise ConfigurationError("true_res_every: must be at least 1")
        # checked here because synchronous replay builds no fabric
        if self.buffer_slots < 1:
            raise ConfigurationError("R: buffer pool needs at least one slot")


@dataclass
class BlockState:
    """Mutable per-worker solve state."""

    block_id: int
    x_local: np.ndarray  # over the extended region
    halo_values: np.ndarray  # merged values at the coupled external columns
    payload_cache: dict[int, np.ndarray]  # latest payload per neighbor
    payload_seq: dict[int, int]  # its outer iteration (-1 = initial guess)
    own_shared: np.ndarray  # this block's latest inner-solve values at shared points
    owner_values: np.ndarray  # owning block's latest value per tracked point
    k: int = 0
    local_residual: float = math.inf


@dataclass
class BlockWorkspace:
    """Immutable per-block geometry, operators and payload index maps.

    The block tracks the points it needs from other blocks in one ordering:
    its halo columns first, then its shared points (the non-owned part of
    the extended region). The merge reads one value sequence: the block's
    own values at its shared points, then each neighbor's payload in
    ``neighbors`` order. ``merge_slots`` gives the tracked slot of every
    value in that sequence and ``owner_pick`` the position, per tracked
    point, of the value sent by the point's owning block.
    """

    block_id: int
    ext: np.ndarray  # sorted global indices of the extended region
    a_ii: SparseMatrix
    coupling: SparseMatrix  # extended rows x halo columns
    halo_cols: np.ndarray  # sorted global indices of coupled external points
    b_ext: np.ndarray
    b_owned_norm: float
    b_global_norm: float
    owned_global: np.ndarray
    owned_local: np.ndarray
    shared_local: np.ndarray  # non-owned positions of the extended region
    cover: np.ndarray  # covering-block counts per tracked point
    neighbors: list[int]
    send_idx: dict[int, np.ndarray]  # local positions to ship per neighbor
    payload_len: dict[int, int]
    merge_slots: np.ndarray  # tracked slot of each merged value
    owner_pick: np.ndarray  # merged-value position of each tracked point's owner

    @property
    def n_local(self) -> int:
        return int(self.ext.shape[0])

    # owned rows only, for the local residual; built on first use, since
    # synchronous replay never evaluates a residual per block
    @cached_property
    def a_owned(self) -> SparseMatrix:
        return SparseMatrix(self.a_ii.csr[self.owned_local])

    @cached_property
    def coupling_owned(self) -> SparseMatrix:
        return SparseMatrix(self.coupling.csr[self.owned_local])

    def initial_state(self) -> BlockState:
        return BlockState(
            block_id=self.block_id,
            x_local=np.zeros(self.n_local),
            halo_values=np.zeros(self.halo_cols.shape[0]),
            payload_cache={
                nbr: np.zeros(self.payload_len[nbr]) for nbr in self.neighbors
            },
            payload_seq={nbr: -1 for nbr in self.neighbors},
            own_shared=np.zeros(self.shared_local.shape[0]),
            owner_values=np.zeros(self.cover.shape[0]),
        )


def _positions_in(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(sorted_arr, values)
    if values.size and not np.array_equal(sorted_arr[pos], values):
        raise ProtocolError("index set membership violated in payload construction")
    return pos


def build_workspaces(
    problem: LinearProblem, decomp: BlockDecomposition
) -> list[BlockWorkspace]:
    """Precompute every block's local system and payload index maps.

    A payload from block s to block t carries s's values at the points t
    tracks: t's coupled halo columns plus the shared (overlapping) part of
    t's extended region, in global index order. Coverage and ownership of
    every tracked point are validated here; a gap indicates a
    decomposition/neighbor-list bug and raises ProtocolError.
    """
    b = problem.rhs
    b_global_norm = float(np.linalg.norm(b))
    exts = decomp.extended_indices
    owned_glob = [decomp.owned_indices(blk) for blk in range(decomp.num_blocks)]
    owner_of = np.full(b.shape[0], -1)
    for blk, owned in enumerate(owned_glob):
        owner_of[owned] = blk
    # filled by the receiving block's pass, which may come after the sender's
    send_idx: list[dict[int, np.ndarray]] = [{} for _ in exts]

    workspaces: list[BlockWorkspace] = []
    for blk, ext in enumerate(exts):
        a_ii, coupling, halo_cols = block_system(problem, decomp, blk)
        owned_local = _positions_in(ext, owned_glob[blk])
        shared_mask = np.ones(ext.shape[0], dtype=bool)
        shared_mask[owned_local] = False
        shared_local = np.flatnonzero(shared_mask)
        n_halo = halo_cols.shape[0]
        tracked = np.concatenate((halo_cols, ext[shared_local]))
        cover = decomp.cover_counts[tracked].astype(float)
        if np.any(cover[:n_halo] < 1):
            raise ProtocolError(
                f"block {blk}: coupled column outside every extended region"
            )

        # tracked points in global order, and the tracked slot of each
        slot_of = np.argsort(tracked)
        points = tracked[slot_of]
        neighbors = list(decomp.neighbors[blk])
        slots = [np.arange(n_halo, tracked.shape[0])]
        payload_len: dict[int, int] = {}
        for nbr in neighbors:
            nbr_ext = exts[nbr]
            pos = np.minimum(np.searchsorted(nbr_ext, points), nbr_ext.shape[0] - 1)
            shipped = np.flatnonzero(nbr_ext[pos] == points)
            send_idx[nbr][blk] = pos[shipped]
            slots.append(slot_of[shipped])
            payload_len[nbr] = int(shipped.shape[0])
        merge_slots = np.concatenate(slots)
        coverage = np.bincount(merge_slots, minlength=cover.shape[0])
        if not np.array_equal(coverage, cover):
            raise ProtocolError(
                f"block {blk}: payload coverage does not match the covering-block counts"
            )
        sources = np.repeat(
            [blk, *neighbors], [shared_local.shape[0], *payload_len.values()]
        )
        from_owner = np.flatnonzero(owner_of[tracked[merge_slots]] == sources)
        owner_slots = merge_slots[from_owner]
        if not np.array_equal(np.sort(owner_slots), np.arange(tracked.shape[0])):
            raise ProtocolError(
                f"block {blk}: some tracked point is not owned by exactly one neighbor"
            )

        workspaces.append(
            BlockWorkspace(
                block_id=blk,
                ext=ext,
                a_ii=a_ii,
                coupling=coupling,
                halo_cols=halo_cols,
                b_ext=b[ext].copy(),
                b_owned_norm=float(np.linalg.norm(b[owned_glob[blk]])),
                b_global_norm=b_global_norm,
                owned_global=owned_glob[blk],
                owned_local=owned_local,
                shared_local=shared_local,
                cover=cover,
                neighbors=neighbors,
                send_idx=send_idx[blk],
                payload_len=payload_len,
                merge_slots=merge_slots,
                owner_pick=from_owner[np.argsort(owner_slots)],
            )
        )
    return workspaces


def assemble_block_rhs(ws: BlockWorkspace, halo_values: np.ndarray) -> np.ndarray:
    """Local right-hand side: b restricted to the block minus halo couplings."""
    rhs = ws.b_ext.copy()
    if ws.halo_cols.size:
        rhs -= spmv(ws.coupling, halo_values)
    return rhs


def merge_overlap(ws: BlockWorkspace, state: BlockState) -> None:
    """Merge cached neighbor contributions into halo and overlap values.

    Every non-owned point the block tracks gets the equal-weight average of
    the latest contribution from each covering block; the block's own fresh
    inner-solve values participate at overlap points. Owned points are never
    modified. The owner-canonical values (each point as reported by its
    owning block) are refreshed alongside for residual evaluation.
    ``bincount`` sums each slot's values in sequence order, so every point
    adds the block's own value first and then its neighbors' in order.
    """
    values = np.concatenate(
        [state.own_shared, *(state.payload_cache[nbr] for nbr in ws.neighbors)]
    )
    mean = np.bincount(ws.merge_slots, values, ws.cover.shape[0]) / ws.cover
    n_halo = ws.halo_cols.shape[0]
    state.halo_values = mean[:n_halo]
    state.x_local[ws.shared_local] = mean[n_halo:]
    state.owner_values = values[ws.owner_pick]


def local_relative_residual(ws: BlockWorkspace, state: BlockState) -> float:
    """Block-local relative residual over the block's owned rows.

    Numerator: the global residual restricted to owned rows, evaluated with
    the block's own values at owned points and the owning block's latest
    (possibly stale) contribution at every other point, so the combined
    estimate always dominates the true residual of the gathered iterate.
    Denominator: the owned part of ||b||, falling back to the global ||b||
    when the owned part is zero.
    """
    n_halo = ws.halo_cols.shape[0]
    if ws.shared_local.size:
        x_view = state.x_local.copy()
        x_view[ws.shared_local] = state.owner_values[n_halo:]
    else:
        x_view = state.x_local
    r = ws.b_ext[ws.owned_local] - spmv(ws.a_owned, x_view)
    if n_halo:
        r -= spmv(ws.coupling_owned, state.owner_values[:n_halo])
    return float(np.linalg.norm(r)) / _residual_scale(ws)


def _residual_scale(ws: BlockWorkspace) -> float:
    """The owned part of ||b||, else the global ||b||, else 1."""
    return ws.b_owned_norm or ws.b_global_norm or 1.0


def combined_residual(local_residuals) -> float:
    """Combine block-local relative residues: sqrt of the sum of squares."""
    return math.sqrt(sum(float(r) ** 2 for r in local_residuals))


def true_relative_residual(problem: LinearProblem, x: np.ndarray) -> float:
    """||b - Ax|| / ||b|| assembled from the full operator (diagnostic)."""
    return residual_norms(problem.matrix, x, problem.rhs)[1]


def check_termination(
    estimate: float, tol: float, completed: int, max_outer: int, mode: str
) -> str:
    """Decide {continue | confirm | stop} after ``completed`` iterations.

    Synchronous estimates are exact, so crossing the tolerance stops
    directly. Asynchronous estimates may be stale; crossing the tolerance
    only triggers a confirmation round.
    """
    if mode == "sync":
        if estimate < tol or completed >= max_outer:
            return "stop"
        return "continue"
    if estimate < tol:
        return "confirm"
    if completed >= max_outer:
        return "stop"
    return "continue"


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
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)
    comm_events: list[tuple] = field(default_factory=list)


@dataclass
class _IterationRecord:
    k: int
    time: float
    estimate: float
    inner_iterations: int
    max_staleness: int


class _WorkerContext:
    def __init__(self, workspace: BlockWorkspace, solver, fabric: Fabric, config: OuterConfig):
        self.workspace = workspace
        self.solver = solver
        self.fabric = fabric
        self.config = config
        self.state = workspace.initial_state()
        self.records: list[_IterationRecord] = []
        self.converged = False
        self.t0 = 0.0
        self.gen = _block_worker(self)


def _prepare_solvers(workspaces: list[BlockWorkspace], spec: InnerSolverSpec) -> list:
    """Each block's inner solver, prepared once per solve.

    Direct solves hold nothing but their factor, so blocks whose ``a_ii``
    is byte-equal (shape, indptr, indices and data) share one, factored at
    the first such block in block order; that block names any error. Every
    other kind gets one solver per block: threads run blocks concurrently,
    and a GMRES solver keeps its basis between calls.
    """
    if spec.kind == "gmres" and spec.restart is None:
        # the inner stage runs one cycle of the configured length
        spec = replace(spec, restart=spec.max_iterations)
    if spec.kind != "direct":
        return [prepare(spec, ws.a_ii, ws.block_id) for ws in workspaces]
    factors: dict[tuple, object] = {}  # one per distinct matrix
    solvers = []
    for ws in workspaces:
        a = ws.a_ii
        key = (a.shape, *(v.tobytes() for v in (a.row_offsets, a.col_indices, a.values)))
        if key not in factors:
            factors[key] = prepare(spec, a, ws.block_id)
        solvers.append(factors[key])
    return solvers


def inner_solve(solver, rhs: np.ndarray, x0: np.ndarray):
    """Run a block's prepared iterative solver. Tracers and tests intercept this
    name; direct solves bypass it and are seen at ``scipy.linalg.lu_solve``."""
    return solver(rhs, x0)


def _solve_block(solver, kind: str, block_id: int, k: int, rhs, x0):
    """One block's inner solve; a breakdown raises its SolverBreakdownError."""
    x, report = solver(rhs, x0) if kind == "direct" else inner_solve(solver, rhs, x0)
    if report.stop_reason == "breakdown":
        raise SolverBreakdownError(block_id, k, f"{kind} reported breakdown")
    return x, report


def _apply_incoming(ws: BlockWorkspace, state: BlockState, incoming) -> float:
    """Take the received halo payloads, merge the overlap and return the
    block's new local relative residual."""
    for nbr, message in incoming.items():
        state.payload_cache[nbr] = message.payload
        state.payload_seq[nbr] = message.outer_iteration
    merge_overlap(ws, state)
    state.local_residual = local_relative_residual(ws, state)
    return state.local_residual


def _block_worker(ctx: _WorkerContext):
    """Generator running one block's outer loop; yields at every wait point
    and once per completed iteration."""
    ws = ctx.workspace
    fabric = ctx.fabric
    cfg = ctx.config
    state = ctx.state
    replay = cfg.execution == "replay"
    k = 0
    while True:
        if fabric.stop_requested():
            # only the driver raises this, after verifying convergence
            ctx.converged = True
            return
        fabric.begin_iteration(ws.block_id, k)

        rhs = assemble_block_rhs(ws, state.halo_values)
        x_new, report = _solve_block(
            ctx.solver, cfg.inner.kind, ws.block_id, k, rhs, state.x_local
        )
        state.x_local = x_new
        state.own_shared = x_new[ws.shared_local].copy()

        outgoing = {nbr: x_new[ws.send_idx[nbr]] for nbr in ws.neighbors}
        if cfg.mode == "sync":
            incoming = yield from fabric.halo_exchange_sync(
                ws.block_id, outgoing, k
            )
        else:
            incoming = fabric.halo_exchange_async(ws.block_id, outgoing, k)
        r_local = _apply_incoming(ws, state, incoming)

        if cfg.mode == "sync":
            total = yield from fabric.reduce_sync(ws.block_id, r_local**2, k)
            estimate = math.sqrt(total)
        else:
            total, _ = fabric.reduce_async(ws.block_id, r_local**2, k)
            estimate = math.sqrt(total) if math.isfinite(total) else math.inf

        staleness = 0
        for nbr in ws.neighbors:
            staleness = max(staleness, k - state.payload_seq[nbr])
        now = float(k) if replay else time.perf_counter() - ctx.t0
        ctx.records.append(
            _IterationRecord(k, now, estimate, report.iterations_used, staleness)
        )

        done = False
        decision = check_termination(estimate, cfg.tol, k + 1, cfg.max_outer, cfg.mode)
        if cfg.mode == "sync":
            if decision == "stop":
                ctx.converged = estimate < cfg.tol
                done = True
        else:
            if decision == "confirm":
                fabric.request_confirm()
            if fabric.confirm_pending():
                # flush every worker's current payloads synchronously so
                # the confirmed residues describe one consistent iterate
                flushed = yield from fabric.confirm_exchange(
                    ws.block_id, outgoing, k
                )
                r_local = _apply_incoming(ws, state, flushed)
                confirmed = yield from fabric.confirm_round(
                    ws.block_id, r_local**2
                )
                if math.sqrt(confirmed) < cfg.tol:
                    ctx.converged = True
                    done = True
            if not done and decision == "stop":
                ctx.converged = False
                done = True

        state.k = k + 1
        yield ("iter", k)
        if done:
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
    for asynchronous replay.

    Workers can be up to one iteration apart mid-pass, so iterates are
    gathered incrementally: each worker's owned values are copied the moment
    it reports an iteration complete (while they still belong to that
    iteration), and the sample is finalized once every worker contributed.
    """
    n = len(contexts)
    alive = set(range(n))
    samples: dict[int, float] = {}
    snapshots: dict[int, np.ndarray] = {}
    partial: dict[int, tuple[np.ndarray, set]] = {}

    def want_true(k: int) -> bool:
        return (
            config.residual_check_mode == "true"
            or k % config.true_residual_interval == 0
        )

    def on_iteration_complete(wid: int, k: int) -> None:
        if not (want_true(k) or config.capture_iterates):
            return
        if k not in partial:
            partial[k] = (np.zeros(problem.grid.num_unknowns), set())
        gathered, seen = partial[k]
        ws = workspaces[wid]
        gathered[ws.owned_global] = contexts[wid].state.x_local[ws.owned_local]
        seen.add(wid)
        if len(seen) == n:
            del partial[k]
            if want_true(k):
                samples[k] = true_relative_residual(problem, gathered)
                if config.residual_check_mode == "true" and samples[k] < config.tol:
                    fabric.request_stop()
            if config.capture_iterates:
                snapshots[k] = gathered

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
    return samples, [(k, snapshots[k]) for k in sorted(snapshots)]


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
    """Every block's extended vector stacked in block order.

    A synchronous merge gives each point the equal-weight mean over all the
    blocks covering it, whichever block tracks it, so ``merge`` computes one
    mean per global point and ``coupling`` (every block's coupling rows,
    placed at their global columns) applies it to all blocks at once.
    """

    parts: list[slice]  # each block's range of the stacked vector
    ext: np.ndarray  # global index of each stacked entry
    cover: np.ndarray  # covering-block count per global point
    coupling: SparseMatrix  # stacked rows x global columns
    b_ext: np.ndarray
    shared: np.ndarray  # stacked positions of the non-owned entries

    @classmethod
    def build(
        cls, workspaces: list[BlockWorkspace], decomp: BlockDecomposition
    ) -> "_StackedBlocks":
        n = decomp.cover_counts.shape[0]
        offsets = np.cumsum([0] + [ws.n_local for ws in workspaces])
        coupling = scipy.sparse.vstack(
            [
                scipy.sparse.csr_array(
                    (
                        ws.coupling.values,
                        ws.halo_cols[ws.coupling.col_indices],
                        ws.coupling.row_offsets,
                    ),
                    shape=(ws.n_local, n),
                )
                for ws in workspaces
            ],
            format="csr",
        )
        return cls(
            parts=[slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])],
            ext=np.concatenate([ws.ext for ws in workspaces]),
            cover=decomp.cover_counts,
            coupling=SparseMatrix(coupling),
            b_ext=np.concatenate([ws.b_ext for ws in workspaces]),
            shared=np.concatenate(
                [lo + ws.shared_local for lo, ws in zip(offsets, workspaces)]
            ),
        )

    def merge(self, z: np.ndarray) -> np.ndarray:
        """Equal-weight mean per global point; blocks add in block order."""
        return np.bincount(self.ext, z, self.cover.shape[0]) / self.cover

    def solve(self, solvers, rhs: np.ndarray, z: np.ndarray, k: int, kind: str):
        """Every block's inner solve, in block order, warm-started from z.

        Returns (stacked solution, inner iterations summed over blocks); the
        first block to break down raises its SolverBreakdownError.
        """
        out = np.empty(rhs.shape[0])
        inner_iterations = 0
        for blk, (part, solver) in enumerate(zip(self.parts, solvers)):
            out[part], report = _solve_block(solver, kind, blk, k, rhs[part], z[part])
            inner_iterations += report.iterations_used
        return out, inner_iterations


def _run_sync_replay(problem, decomp, workspaces, config):
    """Synchronous replay as one stacked iteration per outer iteration.

    Each iteration assembles every block's right-hand side from the global
    mean, runs the inner solves, merges, and overwrites the shared points.
    Every owner value is then current, so block b's local residue is the
    norm of the global residual of the gathered iterate over b's owned rows;
    the squared residues are summed in block order, as ``reduce_sync`` does.
    The same residual gives the true-residual samples.

    Returns what ``_run_workers`` returns; the synchronous fabric ops record
    no events, so the event list is empty.
    """
    stacked = _StackedBlocks.build(workspaces, decomp)
    solvers = _prepare_solvers(workspaces, config.inner)
    b = problem.rhs
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        raise ZeroRhsError("relative residual undefined for a zero right-hand side")
    owner = np.empty(b.shape[0], dtype=np.intp)
    gather = np.empty(b.shape[0], dtype=np.intp)
    for blk, (ws, part) in enumerate(zip(workspaces, stacked.parts)):
        owner[ws.owned_global] = blk
        gather[ws.owned_global] = part.start + ws.owned_local
    scale = np.array([_residual_scale(ws) for ws in workspaces])
    shared_points = stacked.ext[stacked.shared]
    true_mode = config.residual_check_mode == "true"

    z = np.zeros(stacked.ext.shape[0])
    mean = np.zeros(b.shape[0])
    records: list[_IterationRecord] = []
    samples: dict[int, float] = {}
    snapshots: list[tuple[int, np.ndarray]] = []
    for k in itertools.count():
        rhs = stacked.b_ext - spmv(stacked.coupling, mean)
        z, inner_iterations = stacked.solve(solvers, rhs, z, k, config.inner.kind)
        mean = stacked.merge(z)
        z[stacked.shared] = mean[shared_points]
        x = z[gather]
        r = b - spmv(problem.matrix, x)
        residues = np.sqrt(np.bincount(owner, r * r, len(workspaces))) / scale
        estimate = math.sqrt(sum((residues**2).tolist()))
        records.append(_IterationRecord(k, float(k), estimate, inner_iterations, 0))
        if true_mode or k % config.true_residual_interval == 0:
            samples[k] = float(np.linalg.norm(r)) / b_norm
        if config.capture_iterates:
            snapshots.append((k, x))
        if check_termination(estimate, config.tol, k + 1, config.max_outer, "sync") == "stop":
            converged = estimate < config.tol
            break
        if true_mode and samples[k] < config.tol:
            converged = True
            break
    return x, records, converged, samples, snapshots, []


def _run_workers(problem, decomp, workspaces, config):
    """Asynchronous replay and threaded execution: one generator per block.

    Returns (solution, records, converged, samples, snapshots, events) with
    one record per outer iteration, combined over the blocks that ran it.
    """
    fabric = create_fabric(
        num_workers=decomp.num_blocks,
        mode=config.mode,
        buffer_slots=config.buffer_slots,
        delay=config.delay,
        topology=decomp.neighbors,
        record_events=config.record_comm_events,
    )
    solvers = _prepare_solvers(workspaces, config.inner)
    contexts = [_WorkerContext(ws, s, fabric, config) for ws, s in zip(workspaces, solvers)]
    if config.execution == "replay":
        samples, snapshots = _run_replay(problem, workspaces, contexts, fabric, config)
    else:
        _run_threads(contexts, fabric)
        samples, snapshots = {}, []

    records = []
    for k in range(max(len(ctx.records) for ctx in contexts)):
        at_k = [ctx.records[k] for ctx in contexts if k < len(ctx.records)]
        first = contexts[0].records[k] if k < len(contexts[0].records) else at_k[0]
        records.append(
            _IterationRecord(
                k,
                max(rec.time for rec in at_k),
                first.estimate,
                sum(rec.inner_iterations for rec in at_k),
                max(rec.max_staleness for rec in at_k),
            )
        )
    return (
        _gather_solution(problem, workspaces, contexts),
        records,
        all(ctx.converged for ctx in contexts),
        samples,
        snapshots,
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
    solution, records, converged, samples, snapshots, events = run(
        problem, decomp, workspaces, config
    )

    final_true = true_relative_residual(problem, solution)
    outer_iterations = len(records)
    if outer_iterations and (outer_iterations - 1) not in samples:
        samples[outer_iterations - 1] = final_true
    rows = [
        TraceRow(
            outer_iteration=rec.k,
            time=rec.time,
            estimated_residual=rec.estimate,
            true_residual=samples.get(rec.k),
            inner_iterations=rec.inner_iterations,
            max_halo_staleness=rec.max_staleness,
        )
        for rec in records
    ]
    return SolveResult(
        solution=solution,
        trace=ResidualTrace(rows),
        converged=converged,
        outer_iterations=outer_iterations,
        final_true_residual=final_true,
        snapshots=snapshots,
        comm_events=events,
    )


def iteration_operator(problem: LinearProblem, decomp: BlockDecomposition):
    """The exact-inner-solve outer iteration as a linear map (apply, dim).

    Operates on the stacked per-block extended vectors: the synchronous
    stacked iteration with b = 0 and direct inner solves. With no overlap
    this is precisely M^-1 N for M the block diagonal of A; with overlap it
    is the implemented multisplitting operator whose spectral radius governs
    convergence. Each distinct block matrix is factored once; a singular
    block raises SolverBreakdownError.
    """
    workspaces = build_workspaces(problem, decomp)
    stacked = _StackedBlocks.build(workspaces, decomp)
    solvers = _prepare_solvers(workspaces, InnerSolverSpec("direct", 1))

    def apply(z: np.ndarray) -> np.ndarray:
        rhs = -spmv(stacked.coupling, stacked.merge(z))
        return stacked.solve(solvers, rhs, z, 0, "direct")[0]

    return apply, int(stacked.ext.shape[0])
