"""Simulated message fabric between block workers.

One worker per block, all inside one process. The fabric is the only shared
object; every operation takes the calling worker's id explicitly. Two kinds
of operation exist:

* asynchronous ops (``halo_exchange_async``, ``reduce_async``) are plain
  calls that never wait, whatever the peers are doing;
* synchronous ops (``halo_exchange_sync``, ``reduce_sync``,
  ``confirm_round``) are generators that yield ``None`` while their
  rendezvous is incomplete. In replay mode a round-robin scheduler resumes
  the workers; in free-running mode each worker thread blocks on the fabric
  condition variable between resumes.

Network latency is injected by a seeded ``DelayModel`` whose unit is outer
iterations: a message sent at iteration k with delay d becomes deliverable
once the *receiver* has begun iteration k + d. Messages are delayed, never
lost.

The asynchronous halo swap follows an R-slot buffer pool per neighbor pair:
completed sends are reclaimed at each swap, a new send is issued only when a
slot is free (an exhausted pool skips the send rather than blocking), and of
the receives completed since the last swap only the freshest payload is
applied; stale ones are discarded.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ProtocolError

__all__ = [
    "DelayModel",
    "HaloMessage",
    "HaloBufferPool",
    "ReductionTree",
    "Fabric",
    "create_fabric",
]

DEFAULT_BUFFER_SLOTS = 100  # R used throughout the experiments

DELAY_KINDS = ("none", "fixed", "uniform", "drop_free_jitter")


@dataclass(frozen=True)
class DelayModel:
    """In-flight delay distribution, in units of receiver outer iterations.

    ``drop_free_jitter`` draws like ``uniform`` but delivery times are
    clamped to be non-decreasing per channel, so messages never overtake
    each other.
    """

    kind: str = "none"
    fixed: int = 0
    low: int = 0
    high: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DELAY_KINDS:
            raise ConfigurationError(f"delay: unknown kind {self.kind!r}")
        if self.kind == "fixed" and self.fixed < 0:
            raise ConfigurationError("delay: fixed delay must be non-negative")
        if self.kind in ("uniform", "drop_free_jitter") and not (
            0 <= self.low <= self.high
        ):
            raise ConfigurationError("delay: bounds must satisfy 0 <= low <= high")
        if self.seed < 0:
            raise ConfigurationError(f"seed: must be non-negative, got {self.seed}")

    def draw(self, rng: np.random.Generator) -> int:
        if self.kind == "none":
            return 0
        if self.kind == "fixed":
            return self.fixed
        return int(rng.integers(self.low, self.high + 1))


@dataclass
class HaloMessage:
    """One halo payload in flight between two blocks."""

    source_block: int
    target_block: int
    outer_iteration: int
    payload: np.ndarray


class HaloBufferPool:
    """Send-slot pool and mailbox for one directed neighbor pair.

    At most R sends are in flight; a send stays in flight until the receiver
    has reached its delivery iteration and the sender next reclaims. The
    mailbox holds delivered-but-unconsumed messages in send order.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.in_flight: list[int] = []  # delivery iterations of outstanding sends
        self.mailbox: deque[tuple[int, HaloMessage]] = deque()
        self.last_applied_seq = -1
        self.last_delivery = -1  # FIFO clamp for drop_free_jitter

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.in_flight)

    def reclaim(self, receiver_iteration: int) -> None:
        self.in_flight = [t for t in self.in_flight if t > receiver_iteration]

    def post(self, deliver_at: int, message: HaloMessage) -> None:
        if self.free_slots <= 0:
            raise ProtocolError("send posted with no free buffer slot")
        self.in_flight.append(deliver_at)
        self.mailbox.append((deliver_at, message))

    def pop_deliverable(self, receiver_iteration: int, limit: int) -> list[HaloMessage]:
        taken: list[HaloMessage] = []
        kept: deque[tuple[int, HaloMessage]] = deque()
        while self.mailbox:
            deliver_at, msg = self.mailbox.popleft()
            if deliver_at <= receiver_iteration and len(taken) < limit:
                taken.append(msg)
            else:
                kept.append((deliver_at, msg))
        self.mailbox = kept
        return taken


class ReductionTree:
    """Static reduction tree over worker ids, arity 2 by default."""

    def __init__(self, num_workers: int, arity: int = 2):
        if arity < 1:
            raise ConfigurationError("tree arity must be at least 1")
        self.num_workers = num_workers
        self.arity = arity

    def parent(self, node: int) -> int | None:
        return None if node == 0 else (node - 1) // self.arity

    def children(self, node: int) -> list[int]:
        first = self.arity * node + 1
        return [c for c in range(first, first + self.arity) if c < self.num_workers]

    def depth(self) -> int:
        depth = 0
        for node in range(self.num_workers):
            d = 0
            while node != 0:
                node = (node - 1) // self.arity
                d += 1
            depth = max(depth, d)
        return depth


class _SyncRound:
    """Rendezvous state for one synchronous reduction round."""

    def __init__(self, k: int, participants: set[int]):
        self.k = k
        self.participants = participants
        self.values: dict[int, float] = {}
        self.total: float | None = None


class _ConfirmRound:
    """Rendezvous over all live workers used to confirm async termination.

    Two phases: first every worker posts its current halo payloads (a
    synchronous flush, so residues are computed from a consistent snapshot),
    then every worker contributes its recomputed local residue to the sum.
    """

    def __init__(self):
        self.board: dict[int, dict[int, np.ndarray]] = {}
        self.values: dict[int, float] = {}
        self.total: float | None = None


class _Estimate:
    __slots__ = ("total", "contributions", "stamp")

    def __init__(self, total: float, contributions: dict[int, int], stamp: int):
        self.total = total
        self.contributions = contributions
        self.stamp = stamp


class Fabric:
    """Shared communication state for a set of block workers."""

    def __init__(
        self,
        num_workers: int,
        mode: str,
        buffer_slots: int,
        delay: DelayModel,
        topology: list[list[int]],
        record_events: bool = False,
    ):
        if num_workers < 1:
            raise ConfigurationError("num_workers: must be at least 1")
        if mode not in ("sync", "async"):
            raise ConfigurationError(f"mode: unknown communication mode {mode!r}")
        if buffer_slots < 1:
            raise ConfigurationError("R: buffer pool needs at least one slot")
        if len(topology) != num_workers:
            raise ConfigurationError("topology: one neighbor list per worker required")
        for w, nbrs in enumerate(topology):
            for n in nbrs:
                if not 0 <= n < num_workers:
                    raise ConfigurationError(f"topology: neighbor {n} out of range")
                if n == w:
                    raise ConfigurationError(f"topology: worker {w} lists itself")
                if w not in topology[n]:
                    raise ConfigurationError(
                        f"topology: neighbor lists are asymmetric for pair ({w}, {n})"
                    )

        self.num_workers = num_workers
        self.mode = mode
        self.buffer_slots = buffer_slots
        self.delay = delay
        self.topology = [sorted(set(nbrs)) for nbrs in topology]
        self.tree = ReductionTree(num_workers)
        self.record_events = record_events
        self.events: list[tuple] = []

        self._rng = np.random.default_rng(delay.seed)
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._version = 0
        self._iteration = [-1] * num_workers
        self._live = set(range(num_workers))
        self._waiting: dict[int, int] = {}  # worker -> version it waits to move past

        self._pools: dict[tuple[int, int], HaloBufferPool] = {}
        self._sync_board: dict[tuple[int, int], dict[int, np.ndarray]] = {}
        for w, nbrs in enumerate(self.topology):
            for n in nbrs:
                self._pools[(w, n)] = HaloBufferPool(buffer_slots)
                self._sync_board[(w, n)] = {}

        self._sync_calls = [0] * num_workers
        self._sync_rounds: dict[int, _SyncRound] = {}

        # asynchronous tree reduction state
        self._up: dict[tuple[int, int], deque] = {}
        self._down: dict[tuple[int, int], deque] = {}
        for node in range(num_workers):
            for child in self.tree.children(node):
                self._up[(child, node)] = deque()
                self._down[(node, child)] = deque()
        self._child_cache: list[dict[int, _Estimate]] = [
            {} for _ in range(num_workers)
        ]
        self._latest_estimate: list[_Estimate | None] = [None] * num_workers
        self._forwarded_stamp = [-1] * num_workers

        self._confirm: _ConfirmRound | None = None
        self._stop_requested = False

    # -- bookkeeping -------------------------------------------------------

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    def _bump(self) -> None:
        self._version += 1
        self._changed.notify_all()

    def _event(self, *item) -> None:
        if self.record_events:
            self.events.append(item)

    def wait_for_change(self, block_id: int, seen_version: int) -> None:
        """Block until the fabric state moves past ``seen_version``.

        Only a live worker moves the fabric, so once every live worker waits
        on the current version none ever will: that is a deadlock, and the
        worker whose wait completes that set raises ProtocolError. A worker
        that is still computing, or was notified but has not yet woken, is
        not waiting on the current version.
        """
        with self._changed:
            self._waiting[block_id] = seen_version
            try:
                while self._version == seen_version:
                    if all(self._waiting.get(w) == seen_version for w in self._live):
                        raise ProtocolError(
                            f"fabric made no progress: every live worker "
                            f"{sorted(self._live)} is waiting (deadlock)"
                        )
                    self._changed.wait()
            finally:
                del self._waiting[block_id]

    def begin_iteration(self, block_id: int, k: int) -> None:
        with self._lock:
            if k < self._iteration[block_id]:
                raise ProtocolError(
                    f"block {block_id} restarted iteration {k} after "
                    f"{self._iteration[block_id]}"
                )
            self._iteration[block_id] = k
            self._bump()

    def deregister(self, block_id: int) -> None:
        with self._lock:
            self._live.discard(block_id)
            self._bump()

    def request_stop(self) -> None:
        with self._lock:
            self._stop_requested = True
            self._bump()

    def stop_requested(self) -> bool:
        with self._lock:
            return self._stop_requested

    def pool_state(self, source: int, target: int) -> tuple[int, int, int]:
        """(in_flight, free, capacity) for one directed halo channel."""
        with self._lock:
            pool = self._pools[(source, target)]
            return (len(pool.in_flight), pool.free_slots, pool.capacity)

    # -- halo exchange -----------------------------------------------------

    def _check_outgoing(self, block_id: int, outgoing: dict[int, np.ndarray]):
        expected = set(self.topology[block_id])
        if set(outgoing) != expected:
            raise ProtocolError(
                f"block {block_id} must provide one payload per neighbor "
                f"{sorted(expected)}, got {sorted(outgoing)}"
            )

    def halo_exchange_sync(self, block_id: int, outgoing: dict[int, np.ndarray], k: int):
        """Generator: exchange same-iteration payloads with every neighbor.

        Returns ``{neighbor: HaloMessage}`` carrying the caller's iteration
        number once all neighbors have posted; raises ProtocolError if a
        neighbor terminated without posting.
        """
        if self.mode != "sync":
            raise ProtocolError("halo_exchange_sync requires sync mode")
        self._check_outgoing(block_id, outgoing)
        with self._lock:
            for nbr, payload in outgoing.items():
                self._sync_board[(block_id, nbr)][k] = np.array(payload, copy=True)
            self._bump()
        neighbors = self.topology[block_id]
        while True:
            with self._lock:
                missing = [
                    nbr for nbr in neighbors if k not in self._sync_board[(nbr, block_id)]
                ]
                if not missing:
                    result = {}
                    for nbr in neighbors:
                        payload = self._sync_board[(nbr, block_id)].pop(k)
                        result[nbr] = HaloMessage(nbr, block_id, k, payload)
                    self._bump()
                    return result
                dead = [nbr for nbr in missing if nbr not in self._live]
                if dead:
                    raise ProtocolError(
                        f"sync halo exchange deadlock: block {dead[0]} terminated "
                        f"without sending to block {block_id} at iteration {k}"
                    )
            yield

    def halo_exchange_async(
        self, block_id: int, outgoing: dict[int, np.ndarray], k: int
    ) -> dict[int, HaloMessage]:
        """Non-blocking R-buffer halo swap; returns only fresh payloads.

        Per neighbor: reclaim completed sends, post this iteration's send if
        a slot is free (skip otherwise), then apply the freshest completed
        receive, discarding stale ones. Absent neighbors in the result mean
        the caller keeps its previous halo values.
        """
        if self.mode != "async":
            raise ProtocolError("halo_exchange_async requires async mode")
        self._check_outgoing(block_id, outgoing)
        fresh: dict[int, HaloMessage] = {}
        with self._lock:
            for nbr in self.topology[block_id]:
                out_pool = self._pools[(block_id, nbr)]
                out_pool.reclaim(self._iteration[nbr])
                if out_pool.free_slots > 0:
                    deliver_at = k + self.delay.draw(self._rng)
                    if self.delay.kind == "drop_free_jitter":
                        deliver_at = max(deliver_at, out_pool.last_delivery)
                    out_pool.last_delivery = deliver_at
                    out_pool.post(
                        deliver_at,
                        HaloMessage(block_id, nbr, k, np.array(outgoing[nbr], copy=True)),
                    )
                    self._event("send", block_id, nbr, k, deliver_at)
                else:
                    self._event("send_skipped", block_id, nbr, k)
                self._event(
                    "pool", block_id, nbr, len(out_pool.in_flight), out_pool.free_slots
                )

                in_pool = self._pools[(nbr, block_id)]
                taken = in_pool.pop_deliverable(
                    self._iteration[block_id], self.buffer_slots
                )
                if taken:
                    best = max(taken, key=lambda msg: msg.outer_iteration)
                    if best.outer_iteration > in_pool.last_applied_seq:
                        in_pool.last_applied_seq = best.outer_iteration
                        fresh[nbr] = best
                        self._event(
                            "apply", nbr, block_id, best.outer_iteration, k
                        )
                    else:
                        self._event(
                            "discard_stale", nbr, block_id, best.outer_iteration, k
                        )
            self._bump()
        return fresh

    # -- residual reductions -------------------------------------------------

    def reduce_sync(self, block_id: int, value: float, k: int):
        """Generator: exact collective sum over all workers for iteration k."""
        with self._lock:
            index = self._sync_calls[block_id]
            self._sync_calls[block_id] += 1
            round_ = self._sync_rounds.get(index)
            if round_ is None:
                round_ = _SyncRound(k, set(self._live))
                self._sync_rounds[index] = round_
            if round_.k != k:
                raise ProtocolError(
                    f"mismatched collective: block {block_id} reduced iteration {k} "
                    f"while round {index} belongs to iteration {round_.k}"
                )
            round_.values[block_id] = float(value)
            self._bump()
        while True:
            with self._lock:
                missing = round_.participants - set(round_.values)
                if not missing:
                    if round_.total is None:
                        round_.total = float(
                            sum(round_.values[w] for w in sorted(round_.values))
                        )
                    return round_.total
                dead = [w for w in missing if w not in self._live]
                if dead:
                    raise ProtocolError(
                        f"sync reduction deadlock: block {dead[0]} terminated without "
                        f"contributing to round {index}"
                    )
            yield

    def reduce_async(
        self, block_id: int, value: float, k: int
    ) -> tuple[float, dict[int, int]]:
        """Non-blocking tree reduction; returns the latest known estimate.

        The estimate is the true sum of one contribution per worker, each
        from that worker's current or an earlier iteration. Until the first
        estimate has flushed through the tree the returned value is +inf.
        The second element maps each contributor to its iteration lag.
        """
        tree = self.tree
        with self._lock:
            now = self._iteration[block_id]
            for child in tree.children(block_id):
                queue = self._up[(child, block_id)]
                best: _Estimate | None = None
                kept = deque()
                while queue:
                    deliver_at, est = queue.popleft()
                    if deliver_at <= now:
                        if best is None or est.stamp > best.stamp:
                            best = est
                    else:
                        kept.append((deliver_at, est))
                self._up[(child, block_id)] = kept
                if best is not None:
                    cached = self._child_cache[block_id].get(child)
                    if cached is None or best.stamp > cached.stamp:
                        self._child_cache[block_id][child] = best

            parent = tree.parent(block_id)
            if parent is not None:
                queue = self._down[(parent, block_id)]
                kept = deque()
                while queue:
                    deliver_at, est = queue.popleft()
                    if deliver_at <= now:
                        latest = self._latest_estimate[block_id]
                        if latest is None or est.stamp > latest.stamp:
                            self._latest_estimate[block_id] = est
                    else:
                        kept.append((deliver_at, est))
                self._down[(parent, block_id)] = kept

            partial = float(value)
            contributions = {block_id: k}
            for est in self._child_cache[block_id].values():
                partial += est.total
                contributions.update(est.contributions)

            if parent is None:
                if len(contributions) == self.num_workers:
                    self._latest_estimate[block_id] = _Estimate(
                        partial, dict(contributions), k
                    )
            else:
                deliver_at = k + self.delay.draw(self._rng)
                self._up[(block_id, parent)].append(
                    (deliver_at, _Estimate(partial, dict(contributions), k))
                )

            latest = self._latest_estimate[block_id]
            if latest is not None and latest.stamp > self._forwarded_stamp[block_id]:
                for child in tree.children(block_id):
                    deliver_at = k + self.delay.draw(self._rng)
                    self._down[(block_id, child)].append((deliver_at, latest))
                self._forwarded_stamp[block_id] = latest.stamp
            self._bump()

            if latest is None:
                return np.inf, {}
            lags = {w: k - it for w, it in latest.contributions.items()}
            return latest.total, lags

    # -- asynchronous termination confirmation -------------------------------

    def request_confirm(self) -> None:
        """Open a confirmation round unless one is already pending."""
        with self._lock:
            if self._confirm is None:
                self._confirm = _ConfirmRound()
            self._bump()

    def confirm_pending(self) -> bool:
        with self._lock:
            return self._confirm is not None

    def confirm_exchange(
        self, block_id: int, outgoing: dict[int, np.ndarray], k: int
    ):
        """Generator: synchronous halo flush opening a confirmation round.

        All live workers post their current payloads and each receives its
        neighbors' iteration-k values, so the residues reduced afterwards
        describe one consistent global iterate. Bypasses the buffer pools
        but advances their applied-sequence floor so later pool receives
        cannot regress freshness.
        """
        self._check_outgoing(block_id, outgoing)
        with self._lock:
            round_ = self._confirm
            if round_ is None:
                raise ProtocolError(
                    f"block {block_id} joined a confirmation that was never requested"
                )
            round_.board[block_id] = {
                nbr: np.array(payload, copy=True) for nbr, payload in outgoing.items()
            }
            self._bump()
        while True:
            with self._lock:
                if self._live <= set(round_.board):
                    fresh = {}
                    for nbr in self.topology[block_id]:
                        posted = round_.board.get(nbr)
                        if posted is not None and block_id in posted:
                            fresh[nbr] = HaloMessage(nbr, block_id, k, posted[block_id])
                            pool = self._pools[(nbr, block_id)]
                            pool.last_applied_seq = max(pool.last_applied_seq, k)
                    return fresh
            yield

    def confirm_round(self, block_id: int, value: float):
        """Generator: synchronous sum over all live workers' current values."""
        with self._lock:
            round_ = self._confirm
            if round_ is None:
                raise ProtocolError(
                    f"block {block_id} joined a confirmation that was never requested"
                )
            round_.values[block_id] = float(value)
            self._bump()
        while True:
            with self._lock:
                if round_.total is not None:
                    return round_.total
                if self._live <= set(round_.values):
                    round_.total = float(
                        sum(round_.values[w] for w in sorted(round_.values))
                    )
                    self._confirm = None
                    self._bump()
                    return round_.total
            yield


def create_fabric(
    num_workers: int,
    mode: str,
    buffer_slots: int = DEFAULT_BUFFER_SLOTS,
    delay: DelayModel | None = None,
    topology: list[list[int]] | None = None,
    record_events: bool = False,
) -> Fabric:
    """Build a fabric; deterministic for a fixed seed and scheduling order."""
    if topology is None:
        topology = [[] for _ in range(num_workers)]
    return Fabric(
        num_workers=num_workers,
        mode=mode,
        buffer_slots=buffer_slots,
        delay=delay or DelayModel(),
        topology=topology,
        record_events=record_events,
    )
