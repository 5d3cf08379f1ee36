"""Simulated message fabric between block workers.

One worker per block, all inside one process. The fabric is the only shared
object; every operation takes the calling worker's id explicitly. Two kinds
of operation exist:

* asynchronous ops (``halo_exchange_async``, ``reduce_async``) are plain
  calls that never wait, whatever the peers are doing;
* synchronous ops (``halo_exchange_sync``, ``reduce_sync``,
  ``confirm_exchange``, ``confirm_round``) are generators over one shared
  rendezvous, ``Fabric._rendezvous``, that yield ``None`` while it is
  incomplete. In replay mode a round-robin scheduler resumes the workers;
  in free-running mode each worker thread blocks on the fabric condition
  variable between resumes.

Network latency is injected by a seeded ``DelayModel`` whose unit is outer
iterations: a message sent at iteration k with delay d becomes deliverable
once the *receiver* has begun iteration k + d. Messages are delayed, never
lost.

Every asynchronous message travels on a directed channel: a halo link from
block to neighbor, or an up or down link of the reduction tree. All channels
share one send rule (``Fabric._send``: draw the delay, clamp jitter, queue)
and one receive rule (``Fabric._freshest``: deliver what is due, keep the
newest). The halo swap adds R send slots per channel: completed sends are
reclaimed at each swap, a new send is issued only when a slot is free (an
exhausted channel skips the send rather than blocking), and of the receives
completed since the last swap only the freshest payload is applied; stale
ones are discarded.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ProtocolError

__all__ = [
    "DelayModel",
    "HaloMessage",
    "ReductionTree",
    "Fabric",
]

DEFAULT_BUFFER_SLOTS = 100  # R used throughout the experiments

DELAY_KINDS = ("none", "fixed", "uniform", "drop_free_jitter")

# Rendezvous keys of a confirmation. Both rounds meet over the live set, so a
# departed worker never blocks them. An open flush round is the pending
# request; each worker leaving the flush opens the sum round it joins next.
_CONFIRM_FLUSH, _CONFIRM_SUM = "confirm flush", "confirm sum"


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
    """One halo payload and the sender's outer iteration that produced it."""

    outer_iteration: int
    payload: np.ndarray


class ReductionTree:
    """Static binary reduction tree over worker ids, rooted at worker 0."""

    def __init__(self, num_workers: int):
        self.num_workers = num_workers

    def parent(self, node: int) -> int | None:
        return None if node == 0 else (node - 1) // 2

    def children(self, node: int) -> list[int]:
        return [c for c in (2 * node + 1, 2 * node + 2) if c < self.num_workers]


class _Estimate(NamedTuple):
    total: float
    contributions: dict[int, int]  # contributor -> its iteration
    stamp: int  # iteration of the worker that formed the sum


@dataclass
class _Channel:
    """One directed link, keyed ``("halo", src, dst)``, ``("up", child,
    parent)`` or ``("down", parent, child)``.

    ``queue`` holds the undelivered ``(deliver_at, item)`` messages in send
    order and ``last_delivery`` the newest delivery time, the jitter clamp.
    Only halo channels use ``in_flight``, the delivery times of sends the
    sender has not yet reclaimed, and ``applied``, the newest iteration the
    receiver has applied.
    """

    queue: deque = field(default_factory=deque)
    last_delivery: int = -1
    in_flight: list[int] = field(default_factory=list)
    applied: int = -1


class Fabric:
    """Shared communication state for a set of block workers.

    ``delay=None`` injects no delay and ``topology=None`` gives every worker
    no neighbors. Deterministic for a fixed seed and scheduling order.
    """

    def __init__(
        self,
        num_workers: int,
        mode: str,
        buffer_slots: int = DEFAULT_BUFFER_SLOTS,
        delay: DelayModel | None = None,
        topology: list[list[int]] | None = None,
        record_events: bool = False,
    ):
        delay = delay or DelayModel()
        if topology is None:
            topology = [[] for _ in range(num_workers)]
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

        self._channels = {
            ("halo", w, n): _Channel() for w, nbrs in enumerate(self.topology) for n in nbrs
        }
        for node in range(num_workers):
            for child in self.tree.children(node):
                self._channels[("up", child, node)] = _Channel()
                self._channels[("down", node, child)] = _Channel()
        # rendezvous key -> ({worker: (k, post)}, posters yet to read)
        self._rounds: dict[object, tuple[dict[int, tuple], set[int]]] = {}
        self._reductions = [0] * num_workers  # reduce_sync calls per worker

        # asynchronous tree reduction state; a child cache keeps first-delivery
        # order, which fixes the order the partial sums are added in
        self._child_cache: list[dict[int, _Estimate]] = [
            {} for _ in range(num_workers)
        ]
        self._latest_estimate: list[_Estimate | None] = [None] * num_workers
        self._forwarded_stamp = [-1] * num_workers

        self._stop_requested = False

    # -- bookkeeping -------------------------------------------------------

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    def _bump(self) -> None:
        self._version += 1
        self._changed.notify_all()

    def _send(self, key: tuple, k: int, item) -> int:
        """Queue ``item``, sent at iteration k, on channel ``key``; return its
        delivery iteration.

        Under ``drop_free_jitter`` it is never earlier than that of the
        channel's previous message, so messages keep their send order.
        """
        channel = self._channels[key]
        deliver_at = k + self.delay.draw(self._rng)
        if self.delay.kind == "drop_free_jitter":
            deliver_at = max(deliver_at, channel.last_delivery)
        channel.last_delivery = deliver_at
        channel.queue.append((deliver_at, item))
        return deliver_at

    def _freshest(self, key: tuple, now: int, stamp, limit: int | None = None):
        """Deliver the messages on channel ``key`` that are due at iteration
        ``now``, at most ``limit`` of them in send order, and return the one
        with the largest ``stamp(item)`` (the first of equals), or None."""
        queue = self._channels[key].queue
        taken, kept = [], []
        for entry in queue:
            if entry[0] <= now and (limit is None or len(taken) < limit):
                taken.append(entry[1])
            else:
                kept.append(entry)
        queue.clear()
        queue.extend(kept)
        return max(taken, key=stamp, default=None)

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
            in_flight = len(self._channels[("halo", source, target)].in_flight)
            return (in_flight, self.buffer_slots - in_flight, self.buffer_slots)

    # -- rendezvous ----------------------------------------------------------

    def _rendezvous(self, key, block_id: int, k: int, post, peers, lost):
        """Generator behind every synchronous op: meet ``peers`` at round ``key``.

        Posts ``(k, post)`` and yields while a worker in ``peers`` has not
        posted, then returns the round, ``{worker: (k, post)}``. A peer that
        terminated without posting raises ``ProtocolError(lost(peer))``;
        passing the live set itself as ``peers`` instead completes over
        whoever is left. The round is dropped once every poster has read it.
        """
        with self._lock:
            posts, unread = self._rounds.setdefault(key, ({}, set()))
            posts[block_id] = (k, post)
            unread.add(block_id)
            self._bump()
        while True:
            with self._lock:
                missing = [w for w in peers if w not in posts]
                if not missing:
                    unread.discard(block_id)
                    if not unread:
                        del self._rounds[key]
                    return posts
                dead = [w for w in missing if w not in self._live]
                if dead:
                    raise ProtocolError(lost(dead[0]))
            yield

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
        copies = {nbr: np.array(payload, copy=True) for nbr, payload in outgoing.items()}
        posts = yield from self._rendezvous(
            ("halo", k), block_id, k, copies, self.topology[block_id],
            lambda dead: (
                f"sync halo exchange deadlock: block {dead} terminated "
                f"without sending to block {block_id} at iteration {k}"
            ),
        )
        return {
            nbr: HaloMessage(k, posts[nbr][1][block_id])
            for nbr in self.topology[block_id]
        }

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
            now = self._iteration[block_id]
            for nbr in self.topology[block_id]:
                key = ("halo", block_id, nbr)
                out = self._channels[key]
                receiver_now = self._iteration[nbr]
                out.in_flight = [t for t in out.in_flight if t > receiver_now]
                if len(out.in_flight) < self.buffer_slots:
                    message = HaloMessage(k, np.array(outgoing[nbr], copy=True))
                    deliver_at = self._send(key, k, message)
                    out.in_flight.append(deliver_at)
                    self._event("send", block_id, nbr, k, deliver_at)
                else:
                    self._event("send_skipped", block_id, nbr, k)

                key = ("halo", nbr, block_id)
                best = self._freshest(
                    key, now, attrgetter("outer_iteration"), self.buffer_slots
                )
                if best is None:
                    continue
                into = self._channels[key]
                if best.outer_iteration > into.applied:
                    into.applied = best.outer_iteration
                    fresh[nbr] = best
                    self._event("apply", nbr, block_id, best.outer_iteration, k)
                else:
                    self._event("discard_stale", nbr, block_id, best.outer_iteration, k)
            self._bump()
        return fresh

    # -- residual reductions -------------------------------------------------

    def reduce_sync(self, block_id: int, value: float, k: int):
        """Generator: exact collective sum over all workers for iteration k."""
        with self._lock:
            index = self._reductions[block_id]
            self._reductions[block_id] += 1
            posts, _ = self._rounds.get(("reduce", index), ({}, None))
            for round_k, _ in posts.values():
                if round_k != k:
                    raise ProtocolError(
                        f"mismatched collective: block {block_id} reduced iteration {k} "
                        f"while round {index} belongs to iteration {round_k}"
                    )
        posts = yield from self._rendezvous(
            ("reduce", index), block_id, k, float(value), range(self.num_workers),
            lambda dead: (
                f"sync reduction deadlock: block {dead} terminated without "
                f"contributing to round {index}"
            ),
        )
        return float(sum(posts[w][1] for w in sorted(posts)))

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
            cache = self._child_cache[block_id]
            for child in tree.children(block_id):
                best = self._freshest(("up", child, block_id), now, attrgetter("stamp"))
                if best is not None and (child not in cache or best.stamp > cache[child].stamp):
                    cache[child] = best

            parent = tree.parent(block_id)
            if parent is not None:
                best = self._freshest(("down", parent, block_id), now, attrgetter("stamp"))
                latest = self._latest_estimate[block_id]
                if best is not None and (latest is None or best.stamp > latest.stamp):
                    self._latest_estimate[block_id] = best

            partial = float(value)
            contributions = {block_id: k}
            for est in cache.values():
                partial += est.total
                contributions.update(est.contributions)

            if parent is None:
                if len(contributions) == self.num_workers:
                    self._latest_estimate[block_id] = _Estimate(
                        partial, dict(contributions), k
                    )
            else:
                self._send(
                    ("up", block_id, parent), k, _Estimate(partial, dict(contributions), k)
                )

            latest = self._latest_estimate[block_id]
            if latest is not None and latest.stamp > self._forwarded_stamp[block_id]:
                for child in tree.children(block_id):
                    self._send(("down", block_id, child), k, latest)
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
            self._rounds.setdefault(_CONFIRM_FLUSH, ({}, set()))
            self._bump()

    def confirm_pending(self) -> bool:
        with self._lock:
            return _CONFIRM_FLUSH in self._rounds

    def _check_confirm(self, block_id: int, key: str) -> None:
        with self._lock:
            if key not in self._rounds:
                raise ProtocolError(
                    f"block {block_id} joined a confirmation that was never requested"
                )

    def confirm_exchange(
        self, block_id: int, outgoing: dict[int, np.ndarray], k: int
    ):
        """Generator: synchronous halo flush opening a confirmation round.

        All live workers post their current payloads and each receives its
        neighbors' latest values, labelled with the iteration each sender
        posted, so the residues reduced afterwards describe one consistent
        global iterate. Bypasses the halo channels but advances their
        applied iteration so later channel receives cannot regress
        freshness.
        """
        self._check_outgoing(block_id, outgoing)
        self._check_confirm(block_id, _CONFIRM_FLUSH)
        copies = {nbr: np.array(payload, copy=True) for nbr, payload in outgoing.items()}
        posts = yield from self._rendezvous(
            _CONFIRM_FLUSH, block_id, k, copies, self._live, None
        )
        fresh = {}
        with self._lock:
            for nbr in self.topology[block_id]:
                if nbr in posts:
                    sent_k, payloads = posts[nbr]
                    fresh[nbr] = HaloMessage(sent_k, payloads[block_id])
                    into = self._channels[("halo", nbr, block_id)]
                    into.applied = max(into.applied, sent_k)
            self._rounds.setdefault(_CONFIRM_SUM, ({}, set()))
        return fresh

    def confirm_round(self, block_id: int, value: float):
        """Generator: synchronous sum over all live workers' current values."""
        self._check_confirm(block_id, _CONFIRM_SUM)
        posts = yield from self._rendezvous(
            _CONFIRM_SUM, block_id, None, float(value), self._live, None
        )
        return float(sum(posts[w][1] for w in sorted(posts)))

