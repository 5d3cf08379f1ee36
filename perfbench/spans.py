"""Per-layer spans recorded from outside the library.

``Tracer.installed()`` replaces the public functions of each blocksolve
module, and every alias another module imported under its own name, with
wrappers that record a span (name, start, end, parent) in memory, then puts
the originals back. Replay execution runs every worker on one thread, so a
single span stack gives each span its parent. A layer's self time is its
spans' duration minus the time covered by their child spans.

Three call paths need more than a plain wrapper:

* ``multisplit`` calls ``spmv``, ``inner_solve``, ``block_system`` and
  ``decompose`` through names it imported, so those aliases are patched too;
* the ``direct`` inner solve factors and solves through ``scipy.linalg``
  without entering ``inner_solvers``, so it is timed at ``lu_factor`` and
  ``lu_solve``;
* the synchronous fabric ops are generators: each resumption is a span and
  each yield (the rendezvous is not complete yet) counts as a wait poll.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import scipy.linalg

from blocksolve import comm, inner_solvers, linalg, multisplit, problems


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _run(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def wrap(self, name, fn, observe=None):
        """Span around each call; ``observe(args, result)`` counts work done."""

        def traced(*args, **kwargs):
            result = self._run(name, fn, args, kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap_generator(self, name, fn, observe_call=None):
        """Span around each resumption of a generator op; yields are polls."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            if observe_call is not None:
                observe_call(args)
            gen = fn(*args, **kwargs)
            while True:
                try:
                    value = self._run(name, next, (gen,), {})
                except StopIteration as stop:
                    return stop.value
                counts[name + ".wait_polls"] += 1
                yield value

        return traced

    # -- work counters -----------------------------------------------------

    def _count_spmv(self, args, result):
        a = args[0]
        self.counts["spmv.nnz"] += a.nnz
        self.counts["spmv.bytes"] += (
            a.values.nbytes
            + a.col_indices.nbytes
            + a.row_offsets.nbytes
            + 8 * (a.num_cols + a.num_rows)  # x read once, y written once
        )

    def _count_inner(self, args, result):
        report = result[1]
        self.counts["inner.iterations"] += report.iterations_used
        self.counts["inner.stop." + report.stop_reason] += 1

    def _count_factor(self, args, result):
        self.counts["direct.factor_bytes"] += result[0].nbytes

    def _count_payload(self, args):
        outgoing = args[2]
        self.counts["payload.bytes"] += sum(p.size * 8 for p in outgoing.values())

    def _async_halo(self, fn):
        """Counts the payloads the pool actually posted, from the event log."""
        run = self.wrap("halo_async", fn)

        def traced(fabric, block_id, outgoing, k):
            seen = len(fabric.events)
            result = run(fabric, block_id, outgoing, k)
            for event in fabric.events[seen:]:
                if event[0] == "send":
                    self.counts["payload.bytes"] += outgoing[event[2]].size * 8
            return result

        return traced

    def _request_confirm(self, fn):
        def traced(fabric):
            if not fabric.confirm_pending():
                self.counts["confirm.rounds"] += 1
            return fn(fabric)

        return traced

    # -- patching --------------------------------------------------------------

    def _patches(self):
        """(owner, attribute, wrapper factory) for every traced entry point."""

        def span(name, observe=None):
            return lambda fn: self.wrap(name, fn, observe)

        def generator(name, observe_call=None):
            return lambda fn: self.wrap_generator(name, fn, observe_call)

        spmv = span("spmv", self._count_spmv)
        fabric = comm.Fabric
        return [
            (linalg, "spmv", spmv),
            (multisplit, "spmv", spmv),
            (inner_solvers, "spmv", spmv),
            (multisplit, "inner_solve", span("inner_solve", self._count_inner)),
            (scipy.linalg, "lu_factor", span("lu_factor", self._count_factor)),
            (scipy.linalg, "lu_solve", span("lu_solve")),
            (fabric, "halo_exchange_sync", generator("halo_sync", self._count_payload)),
            (fabric, "confirm_exchange", generator("halo_sync", self._count_payload)),
            (fabric, "reduce_sync", generator("reduce_sync")),
            (fabric, "confirm_round", generator("reduce_sync")),
            (fabric, "halo_exchange_async", self._async_halo),
            (fabric, "reduce_async", span("reduce_async")),
            (fabric, "request_confirm", self._request_confirm),
            (multisplit, "outer_solve", span("outer_solve")),
            (multisplit, "build_workspaces", span("build_workspaces")),
            (multisplit, "assemble_block_rhs", span("assemble_rhs")),
            (multisplit, "merge_overlap", span("merge_overlap")),
            (multisplit, "local_relative_residual", span("local_residual")),
            (multisplit, "true_relative_residual", span("true_residual")),
            (multisplit, "block_system", span("block_system")),
            (multisplit, "decompose", span("decompose")),
            (problems, "decompose", span("decompose")),
            (problems, "build_laplace_3d", span("build_laplace_3d")),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, factory in self._patches():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """(total seconds, self seconds, calls) per span name."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            duration = end - start
            total[name] += duration
            calls[name] += 1
            if parent >= 0:
                child[parent] += duration
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            own[name] += end - start - covered
        return total, own, calls
