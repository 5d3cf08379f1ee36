"""Outer block-Jacobi driver of the two-stage method.

One worker per block. Each outer iteration a worker: (1) assembles its local
right-hand side from the latest halo values, (2) runs the inner solver over
its extended region warm-started from the current local solution, (3) swaps
halo payloads with its neighbors (synchronously or via the non-blocking
R-buffer protocol; overlap contributions ride in the same payloads), (4)
merges overlapping values with equal weights over the covering blocks, (5)
computes its local relative residual on its owned rows, and (6) folds it
into the global estimate: the square root of the sum of squared block local
relative residues.

Synchronous runs stop as soon as that combined estimate drops below the
target. Asynchronous estimates can be stale, so a worker whose estimate
crosses the target first requests a confirmation round: one synchronous
reduction of the current local residues; the run stops only if the
confirmed value is below the target.

In replay execution the workers advance in deterministic round-robin and
trace timestamps are iteration counts; in threaded execution the workers
free-run against wall-clock time.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .comm import DEFAULT_BUFFER_SLOTS, DelayModel, Fabric, create_fabric
from .errors import ConfigurationError, ProtocolError, SolverBreakdownError
from .inner_solvers import InnerSolverSpec, factor_direct, solve as inner_solve
from .linalg import SparseMatrix, residual_norms, spmv
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


def _merge(
    ws: BlockWorkspace, own_shared: np.ndarray, payloads: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(merged values, equal-weight mean per tracked point).

    ``bincount`` sums each slot's values in sequence order, so every point
    adds the block's own value first and then its neighbors' in order.
    """
    values = np.concatenate([own_shared, *payloads])
    return values, np.bincount(ws.merge_slots, values, ws.cover.shape[0]) / ws.cover


def merge_overlap(ws: BlockWorkspace, state: BlockState) -> None:
    """Merge cached neighbor contributions into halo and overlap values.

    Every non-owned point the block tracks gets the equal-weight average of
    the latest contribution from each covering block; the block's own fresh
    inner-solve values participate at overlap points. Owned points are never
    modified. The owner-canonical values (each point as reported by its
    owning block) are refreshed alongside for residual evaluation.
    """
    values, mean = _merge(
        ws, state.own_shared, [state.payload_cache[nbr] for nbr in ws.neighbors]
    )
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
    r = ws.b_ext - spmv(ws.a_ii, x_view)
    if n_halo:
        r -= spmv(ws.coupling, state.owner_values[:n_halo])
    num = float(np.linalg.norm(r[ws.owned_local]))
    den = ws.b_owned_norm
    if den == 0.0:
        den = ws.b_global_norm
    if den == 0.0:
        den = 1.0
    return num / den


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
    def __init__(self, workspace: BlockWorkspace, fabric: Fabric, config: OuterConfig):
        self.workspace = workspace
        self.fabric = fabric
        self.config = config
        self.state = workspace.initial_state()
        self.records: list[_IterationRecord] = []
        self.converged = False
        self.t0 = 0.0
        self.gen = _block_worker(self)


def _make_inner_solver(ws: BlockWorkspace, spec: InnerSolverSpec):
    """Bind the inner spec to the block system; direct solves factor once."""
    if spec.kind == "direct":
        solve_factored = factor_direct(ws.a_ii, ws.block_id)
        return lambda rhs, x0: solve_factored(rhs)
    if spec.kind == "gmres" and spec.restart is None:
        # inner stage runs one cycle of the configured length
        spec = InnerSolverSpec(
            spec.kind, spec.max_iterations, spec.tolerance, spec.max_iterations
        )

    def iterative(rhs: np.ndarray, x0: np.ndarray):
        return inner_solve(ws.a_ii, rhs, x0, spec)

    return iterative


def _block_worker(ctx: _WorkerContext):
    """Generator running one block's outer loop; yields at every wait point
    and once per completed iteration."""
    ws = ctx.workspace
    fabric = ctx.fabric
    cfg = ctx.config
    state = ctx.state
    solver = _make_inner_solver(ws, cfg.inner)
    replay = cfg.execution == "replay"
    k = 0
    while True:
        if fabric.stop_requested():
            # only the driver raises this, after verifying convergence
            ctx.converged = True
            return
        fabric.begin_iteration(ws.block_id, k)

        rhs = assemble_block_rhs(ws, state.halo_values)
        x_new, report = solver(rhs, state.x_local)
        if report.stop_reason == "breakdown":
            raise SolverBreakdownError(
                ws.block_id, k, f"{cfg.inner.kind} reported breakdown"
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
        for nbr, message in incoming.items():
            state.payload_cache[nbr] = message.payload
            state.payload_seq[nbr] = message.outer_iteration

        merge_overlap(ws, state)
        r_local = local_relative_residual(ws, state)
        state.local_residual = r_local

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
                # flush iteration-k payloads synchronously so the
                # confirmed residues describe one consistent iterate
                flushed = yield from fabric.confirm_exchange(
                    ws.block_id, outgoing, k
                )
                for nbr, message in flushed.items():
                    state.payload_cache[nbr] = message.payload
                    state.payload_seq[nbr] = max(
                        state.payload_seq[nbr], message.outer_iteration
                    )
                merge_overlap(ws, state)
                r_local = local_relative_residual(ws, state)
                state.local_residual = r_local
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
    """Deterministic round-robin scheduler with true-residual sampling.

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


def outer_solve(problem: LinearProblem, config: OuterConfig) -> SolveResult:
    """Run the two-stage solve and gather the owned values into a solution.

    Raises SolverBreakdownError if an inner solver breaks down (with the
    block id and iteration); max_outer exhaustion is reported through
    ``converged=False``, not an exception.
    """
    decomp = decompose(problem.grid, config.block_grid, config.overlap)
    workspaces = build_workspaces(problem, decomp)
    fabric = create_fabric(
        num_workers=decomp.num_blocks,
        mode=config.mode,
        buffer_slots=config.buffer_slots,
        delay=config.delay,
        topology=decomp.neighbors,
        record_events=config.record_comm_events,
    )
    contexts = [_WorkerContext(ws, fabric, config) for ws in workspaces]

    if config.execution == "replay":
        samples, snapshots = _run_replay(problem, workspaces, contexts, fabric, config)
    else:
        _run_threads(contexts, fabric)
        samples, snapshots = {}, []

    solution = _gather_solution(problem, workspaces, contexts)
    final_true = true_relative_residual(problem, solution)
    outer_iterations = max(len(ctx.records) for ctx in contexts)
    if outer_iterations and (outer_iterations - 1) not in samples:
        samples[outer_iterations - 1] = final_true

    rows = []
    for k in range(outer_iterations):
        at_k = [ctx.records[k] for ctx in contexts if k < len(ctx.records)]
        rows.append(
            TraceRow(
                outer_iteration=k,
                time=max(rec.time for rec in at_k),
                estimated_residual=contexts[0].records[k].estimate
                if k < len(contexts[0].records)
                else at_k[0].estimate,
                true_residual=samples.get(k),
                inner_iterations=sum(rec.inner_iterations for rec in at_k),
                max_halo_staleness=max(rec.max_staleness for rec in at_k),
            )
        )

    return SolveResult(
        solution=solution,
        trace=ResidualTrace(rows),
        converged=all(ctx.converged for ctx in contexts),
        outer_iterations=outer_iterations,
        final_true_residual=final_true,
        snapshots=snapshots,
        comm_events=list(fabric.events),
    )


def iteration_operator(problem: LinearProblem, decomp: BlockDecomposition):
    """The exact-inner-solve outer iteration as a linear map (apply, dim).

    Operates on the stacked per-block extended vectors. With no overlap this
    is precisely M^-1 N for M the block diagonal of A; with overlap it is
    the implemented multisplitting operator whose spectral radius governs
    convergence. Block inverses are applied through the direct inner solve,
    factored once per block; a singular block raises SolverBreakdownError.
    """
    workspaces = build_workspaces(problem, decomp)
    solves = [factor_direct(ws.a_ii, ws.block_id) for ws in workspaces]
    offsets = np.concatenate(([0], np.cumsum([ws.n_local for ws in workspaces])))
    dim = int(offsets[-1])

    def apply(z: np.ndarray) -> np.ndarray:
        parts = [z[offsets[i] : offsets[i + 1]] for i in range(len(workspaces))]
        out = np.empty_like(z)
        for i, ws in enumerate(workspaces):
            if ws.halo_cols.size:
                _, mean = _merge(
                    ws,
                    parts[i][ws.shared_local],
                    [parts[nbr][workspaces[nbr].send_idx[i]] for nbr in ws.neighbors],
                )
                rhs = -spmv(ws.coupling, mean[: ws.halo_cols.shape[0]])
            else:
                rhs = np.zeros(ws.n_local)
            x, report = solves[i](rhs)
            if report.stop_reason == "breakdown":
                raise SolverBreakdownError(i, 0, "direct reported breakdown")
            out[offsets[i] : offsets[i + 1]] = x
        return out

    return apply, dim
