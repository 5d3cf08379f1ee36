import math
import sys
import threading
import time

import numpy as np
import pytest

from blocksolve.comm import DelayModel, ReductionTree, create_fabric
from blocksolve.errors import ConfigurationError, ProtocolError


def run_rendezvous(gens):
    """Round-robin a set of rendezvous generators to completion."""
    results = {}
    pending = dict(gens)
    for _ in range(100000):
        if not pending:
            return results
        for wid, gen in list(pending.items()):
            try:
                next(gen)
            except StopIteration as stop:
                results[wid] = stop.value
                del pending[wid]
    raise AssertionError("rendezvous did not complete")


def pair_fabric(mode, delay=None, slots=100, record=False):
    return create_fabric(
        2, mode, buffer_slots=slots, delay=delay, topology=[[1], [0]], record_events=record
    )


class TestCreateFabric:
    def test_single_worker_no_channels(self):
        fabric = create_fabric(1, "sync")
        fabric.begin_iteration(0, 0)
        assert run_rendezvous({0: fabric.halo_exchange_sync(0, {}, 0)}) == {0: {}}

    def test_single_worker_async_noop(self):
        fabric = create_fabric(1, "async")
        fabric.begin_iteration(0, 0)
        assert fabric.halo_exchange_async(0, {}, 0) == {}

    def test_asymmetric_topology_rejected(self):
        with pytest.raises(ConfigurationError, match="asymmetric"):
            create_fabric(2, "sync", topology=[[1], []])

    def test_self_neighbor_rejected(self):
        with pytest.raises(ConfigurationError, match="itself"):
            create_fabric(1, "sync", topology=[[0]])

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            create_fabric(0, "sync")
        with pytest.raises(ConfigurationError):
            create_fabric(1, "both")
        with pytest.raises(ConfigurationError):
            create_fabric(1, "sync", buffer_slots=0)


class TestSyncExchange:
    def test_two_workers_swap_constants(self):
        fabric = pair_fabric("sync")
        for wid in (0, 1):
            fabric.begin_iteration(wid, 4)
        gens = {
            0: fabric.halo_exchange_sync(0, {1: np.array([1.5])}, 4),
            1: fabric.halo_exchange_sync(1, {0: np.array([2.5])}, 4),
        }
        got = run_rendezvous(gens)
        assert got[0][1].payload[0] == 2.5
        assert got[0][1].outer_iteration == 4
        assert got[1][0].payload[0] == 1.5

    def test_same_iteration_despite_delays(self):
        # the synchronous swap waits for same-iteration data; injected delays
        # stretch time, not correctness
        fabric = create_fabric(
            4,
            "sync",
            delay=DelayModel("uniform", low=0, high=5, seed=3),
            topology=[[1, 2], [0, 3], [0, 3], [1, 2]],
        )
        for k in range(3):
            for wid in range(4):
                fabric.begin_iteration(wid, k)
            gens = {
                wid: fabric.halo_exchange_sync(
                    wid,
                    {nbr: np.array([10.0 * wid + k]) for nbr in fabric.topology[wid]},
                    k,
                )
                for wid in range(4)
            }
            got = run_rendezvous(gens)
            for wid in range(4):
                for nbr, message in got[wid].items():
                    assert message.outer_iteration == k
                    assert message.payload[0] == 10.0 * nbr + k

    def test_terminated_neighbor_raises(self):
        fabric = pair_fabric("sync")
        fabric.begin_iteration(0, 0)
        fabric.deregister(1)
        gen = fabric.halo_exchange_sync(0, {1: np.array([1.0])}, 0)
        with pytest.raises(ProtocolError, match="terminated"):
            next(gen)

    def test_wrong_mode(self):
        fabric = pair_fabric("async")
        with pytest.raises(ProtocolError):
            next(fabric.halo_exchange_sync(0, {1: np.array([1.0])}, 0))


def async_pair_loop(fabric, iterations, on_apply=None):
    """Drive two async workers in round-robin; payload is [seq] per message."""
    applied = {0: [], 1: []}
    for k in range(iterations):
        for wid in (0, 1):
            fabric.begin_iteration(wid, k)
        for wid, nbr in ((0, 1), (1, 0)):
            fresh = fabric.halo_exchange_async(wid, {nbr: np.array([float(k)])}, k)
            if nbr in fresh:
                applied[wid].append((k, fresh[nbr].outer_iteration))
                if on_apply:
                    on_apply(wid, k, fresh[nbr].outer_iteration)
    return applied


class TestAsyncExchange:
    def test_no_delay_freshness(self):
        fabric = pair_fabric("async")
        applied = async_pair_loop(fabric, 6)
        # worker 0 polls before worker 1 has posted iteration k: sees k-1;
        # worker 1 polls after worker 0 posted: sees k
        for k, seq in applied[0]:
            assert seq in (k, k - 1)
        for k, seq in applied[1]:
            assert seq == k

    def test_fixed_delay_two(self):
        fabric = pair_fabric("async", DelayModel("fixed", fixed=2))
        applied = async_pair_loop(fabric, 12)
        for k, seq in applied[0]:
            assert seq == k - 2
        for k, seq in applied[1]:
            assert seq == k - 2
        assert {k for k, _ in applied[0]} == set(range(2, 12))

    def test_single_slot_with_delay_three(self):
        fabric = pair_fabric("async", DelayModel("fixed", fixed=3), slots=1, record=True)
        applied = async_pair_loop(fabric, 31)
        # one slot in flight for 3 iterations: sends land at 0, 3, 6, ...
        for receiver in (0, 1):
            seqs = [seq for _, seq in applied[receiver]]
            assert seqs == list(range(0, 28, 3))
        skipped = [e for e in fabric.events if e[0] == "send_skipped"]
        assert skipped  # exhausted pool skips, never blocks

    def test_suspended_neighbor_never_blocks(self):
        fabric = pair_fabric("async", DelayModel("fixed", fixed=1), slots=5)
        # worker 1 never begins an iteration, never sends, never receives
        for k in range(1000):
            fabric.begin_iteration(0, k)
            fresh = fabric.halo_exchange_async(0, {1: np.array([float(k)])}, k)
            assert fresh == {}
            estimate, lags = fabric.reduce_async(0, 1.0, k)
            assert math.isinf(estimate) or lags
        in_flight, free, capacity = fabric.pool_state(0, 1)
        assert in_flight == capacity and free == 0

    def test_buffer_conservation_every_step(self):
        fabric = pair_fabric(
            "async", DelayModel("uniform", low=0, high=3, seed=13), slots=4
        )
        for k in range(1200):
            for wid in (0, 1):
                fabric.begin_iteration(wid, k)
            for wid, nbr in ((0, 1), (1, 0)):
                fabric.halo_exchange_async(wid, {nbr: np.array([float(k)])}, k)
                for pair in ((0, 1), (1, 0)):
                    in_flight, free, capacity = fabric.pool_state(*pair)
                    assert in_flight + free == capacity == 4

    def test_applied_sequences_strictly_increase(self):
        fabric = pair_fabric("async", DelayModel("uniform", low=0, high=3, seed=5))
        applied = async_pair_loop(fabric, 400)
        for receiver in (0, 1):
            seqs = [seq for _, seq in applied[receiver]]
            assert all(b > a for a, b in zip(seqs, seqs[1:]))
            assert len(seqs) > 100

    @pytest.mark.parametrize("bound", [0, 1, 3])
    def test_staleness_bound(self, bound):
        fabric = pair_fabric("async", DelayModel("uniform", low=0, high=bound, seed=8))
        applied = async_pair_loop(fabric, 500)
        for receiver in (0, 1):
            for k, seq in applied[receiver]:
                assert k - seq <= bound + 1

    def test_jitter_preserves_order(self):
        fabric = pair_fabric(
            "async", DelayModel("drop_free_jitter", low=0, high=4, seed=21), record=True
        )
        async_pair_loop(fabric, 300)
        # FIFO clamp: delivery times never regress, so no stale discards
        assert not [e for e in fabric.events if e[0] == "discard_stale"]


class TestReduceSync:
    def test_sum_of_squares_combination(self):
        fabric = pair_fabric("sync")
        gens = {
            0: fabric.reduce_sync(0, 9.0, 0),
            1: fabric.reduce_sync(1, 16.0, 0),
        }
        got = run_rendezvous(gens)
        assert got[0] == got[1] == 25.0
        assert math.sqrt(got[0]) == 5.0

    def test_zeros(self):
        fabric = pair_fabric("sync")
        got = run_rendezvous({0: fabric.reduce_sync(0, 0.0, 0), 1: fabric.reduce_sync(1, 0.0, 0)})
        assert got[0] == 0.0

    def test_single_worker(self):
        fabric = create_fabric(1, "sync")
        assert run_rendezvous({0: fabric.reduce_sync(0, 7.5, 3)}) == {0: 7.5}

    def test_mismatched_iteration_raises(self):
        fabric = pair_fabric("sync")
        gen0 = fabric.reduce_sync(0, 1.0, 5)
        gen1 = fabric.reduce_sync(1, 1.0, 6)
        with pytest.raises(ProtocolError, match="mismatched"):
            run_rendezvous({0: gen0, 1: gen1})

    def test_terminated_participant_raises(self):
        fabric = pair_fabric("sync")
        gen = fabric.reduce_sync(0, 1.0, 0)
        next(gen)  # posted; worker 1 has not
        fabric.deregister(1)
        with pytest.raises(ProtocolError, match="sync reduction deadlock.*terminated"):
            next(gen)


class TestReduceAsync:
    def test_single_worker_immediate(self):
        fabric = create_fabric(1, "async")
        fabric.begin_iteration(0, 0)
        estimate, lags = fabric.reduce_async(0, 4.0, 0)
        assert estimate == 4.0
        assert lags == {0: 0}

    def test_estimate_inf_before_flush(self):
        fabric = create_fabric(4, "async")
        for wid in range(4):
            fabric.begin_iteration(wid, 0)
        estimates = [fabric.reduce_async(wid, 1.0, 0)[0] for wid in range(4)]
        assert math.isinf(estimates[1]) and math.isinf(estimates[3])

    def test_constant_contributions_flush_within_tree_depth(self):
        fabric = create_fabric(4, "async")
        depth = fabric.tree.depth()
        flushed_at = {}
        for k in range(4 * depth + 2):
            for wid in range(4):
                fabric.begin_iteration(wid, k)
                estimate, _ = fabric.reduce_async(wid, 2.5, k)
                if wid not in flushed_at and estimate == 4 * 2.5:
                    flushed_at[wid] = k
        assert set(flushed_at) == {0, 1, 2, 3}
        assert max(flushed_at.values()) <= 2 * depth

    def test_steady_state_lag_bounded(self):
        fabric = create_fabric(7, "async")
        depth = fabric.tree.depth()
        for k in range(6 * depth):
            for wid in range(7):
                fabric.begin_iteration(wid, k)
                estimate, lags = fabric.reduce_async(wid, float(k), k)
                if not math.isinf(estimate) and k > 3 * depth:
                    assert lags and max(lags.values()) <= 2 * depth
                    # the estimate is a true sum of per-worker past contributions
                    assert estimate == sum(float(k - lag) for lag in lags.values())

    def test_estimate_is_consistent_snapshot(self):
        fabric = create_fabric(3, "async", delay=DelayModel("uniform", low=0, high=2, seed=4))
        values = {}
        for k in range(30):
            for wid in range(3):
                fabric.begin_iteration(wid, k)
                values[(wid, k)] = 1.0 + 0.1 * wid + 0.01 * k
                estimate, lags = fabric.reduce_async(wid, values[(wid, k)], k)
                if not math.isinf(estimate):
                    expected = sum(values[(w, k - lag)] for w, lag in lags.items())
                    assert estimate == pytest.approx(expected, rel=1e-15)


class TestConfirm:
    def test_confirm_round_collects_all_live(self):
        fabric = pair_fabric("async")
        fabric.request_confirm()
        assert fabric.confirm_pending()
        for wid in (0, 1):
            fabric.begin_iteration(wid, 0)
        ex = {
            0: fabric.confirm_exchange(0, {1: np.array([1.0])}, 0),
            1: fabric.confirm_exchange(1, {0: np.array([2.0])}, 0),
        }
        got = run_rendezvous(ex)
        assert got[0][1].payload[0] == 2.0
        rounds = {
            0: fabric.confirm_round(0, 9.0),
            1: fabric.confirm_round(1, 16.0),
        }
        totals = run_rendezvous(rounds)
        assert totals[0] == totals[1] == 25.0
        assert not fabric.confirm_pending()

    def test_confirm_without_request_raises(self):
        fabric = pair_fabric("async")
        with pytest.raises(ProtocolError, match="never requested"):
            next(fabric.confirm_round(0, 1.0))

    def test_confirm_completes_over_remaining_live_worker(self):
        fabric = pair_fabric("async")
        fabric.request_confirm()
        exchange = fabric.confirm_exchange(0, {1: np.array([1.0])}, 0)
        next(exchange)  # waits for worker 1, which then departs
        fabric.deregister(1)
        assert run_rendezvous({0: exchange}) == {0: {}}
        assert run_rendezvous({0: fabric.confirm_round(0, 9.0)}) == {0: 9.0}
        assert not fabric.confirm_pending()

    def test_flush_labels_payloads_with_sender_iteration(self):
        fabric = pair_fabric("async", record=True)
        fabric.begin_iteration(0, 10)
        fabric.begin_iteration(1, 5)
        fabric.request_confirm()
        got = run_rendezvous({
            0: fabric.confirm_exchange(0, {1: np.array([10.0])}, 10),
            1: fabric.confirm_exchange(1, {0: np.array([5.0])}, 5),
        })
        assert got[0][1].outer_iteration == 5
        assert got[1][0].outer_iteration == 10
        run_rendezvous({0: fabric.confirm_round(0, 1.0), 1: fabric.confirm_round(1, 1.0)})
        # worker 1's later pool sends are fresher than its flushed payload
        for k in range(6, 11):
            fabric.begin_iteration(1, k)
            fabric.halo_exchange_async(1, {0: np.array([float(k)])}, k)
        fabric.begin_iteration(0, 11)
        fresh = fabric.halo_exchange_async(0, {1: np.array([11.0])}, 11)
        assert fresh[1].outer_iteration == 10
        assert not [e for e in fabric.events if e[0] == "discard_stale"]


class TestRoundLifetime:
    def test_completed_rounds_are_freed(self):
        fabric = create_fabric(3, "sync", topology=[[1], [0, 2], [1]])
        for k in range(300):
            for wid in range(3):
                fabric.begin_iteration(wid, k)
            run_rendezvous({
                wid: fabric.halo_exchange_sync(
                    wid, {nbr: np.array([float(k)]) for nbr in fabric.topology[wid]}, k
                )
                for wid in range(3)
            })
            run_rendezvous({wid: fabric.reduce_sync(wid, 1.0, k) for wid in range(3)})
        assert fabric._rounds == {}

        fabric = pair_fabric("async")
        fabric.request_confirm()
        run_rendezvous({
            0: fabric.confirm_exchange(0, {1: np.array([1.0])}, 0),
            1: fabric.confirm_exchange(1, {0: np.array([2.0])}, 0),
        })
        run_rendezvous({0: fabric.confirm_round(0, 1.0), 1: fabric.confirm_round(1, 1.0)})
        assert fabric._rounds == {}

    def test_threaded_rounds_stay_exact_and_are_freed(self):
        # more workers than cores and a short switch interval, so threads
        # interleave inside the shared round table
        n, iterations = 6, 150
        fabric = create_fabric(n, "sync", topology=[[(w - 1) % n, (w + 1) % n] for w in range(n)])
        errors = []

        def drive(wid):
            def wait_on(gen):
                while True:
                    version = fabric.version
                    try:
                        next(gen)
                    except StopIteration as stop:
                        return stop.value
                    fabric.wait_for_change(wid, version)

            try:
                for k in range(iterations):
                    fabric.begin_iteration(wid, k)
                    outgoing = {nbr: np.array([100.0 * wid + k]) for nbr in fabric.topology[wid]}
                    got = wait_on(fabric.halo_exchange_sync(wid, outgoing, k))
                    for nbr, message in got.items():
                        assert message.payload[0] == 100.0 * nbr + k
                    assert wait_on(fabric.reduce_sync(wid, float(wid + k), k)) == sum(
                        float(w + k) for w in range(n)
                    )
            except BaseException as exc:  # re-raised by the main thread below
                errors.append(exc)
            finally:
                fabric.deregister(wid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drive, args=(w,), daemon=True) for w in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        assert fabric._rounds == {}


class TestReductionTree:
    def test_binary_links(self):
        tree = ReductionTree(7)
        assert tree.parent(0) is None
        assert tree.children(0) == [1, 2]
        assert tree.children(1) == [3, 4]
        assert tree.parent(5) == 2
        assert tree.depth() == 2

    def test_spans_all_workers(self):
        tree = ReductionTree(10, arity=3)
        seen = set()
        frontier = [0]
        while frontier:
            node = frontier.pop()
            seen.add(node)
            frontier.extend(tree.children(node))
        assert seen == set(range(10))


class TestDeterminism:
    def test_async_run_reproducible(self):
        def trace():
            fabric = pair_fabric("async", DelayModel("uniform", low=0, high=3, seed=17))
            return async_pair_loop(fabric, 200)

        assert trace() == trace()


class TestLiveness:
    def test_threads_true_deadlock_raises_promptly(self):
        # worker 0 waits for a halo payload and worker 1 for a reduction
        # contribution: each waits on a rendezvous its peer never joins
        fabric = pair_fabric("sync")
        ops = {
            0: fabric.halo_exchange_sync(0, {1: np.zeros(1)}, 0),
            1: fabric.reduce_sync(1, 1.0, 0),
        }
        errors = []

        def drive(wid):
            try:
                while True:
                    version = fabric.version
                    if next(ops[wid], "done") == "done":
                        return
                    fabric.wait_for_change(wid, version)
            except ProtocolError as exc:
                errors.append(exc)
            finally:
                fabric.deregister(wid)

        threads = [threading.Thread(target=drive, args=(w,), daemon=True) for w in (0, 1)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert time.perf_counter() - start < 5
        assert "every live worker [0, 1] is waiting" in str(errors[0])
        assert len(errors) == 2  # the peer then fails on the departed worker


class TestDelayModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DelayModel("sometimes")
        with pytest.raises(ConfigurationError):
            DelayModel("fixed", fixed=-1)
        with pytest.raises(ConfigurationError):
            DelayModel("uniform", low=3, high=1)

    def test_draws_within_bounds(self):
        model = DelayModel("uniform", low=1, high=4, seed=0)
        rng = np.random.default_rng(0)
        draws = {model.draw(rng) for _ in range(200)}
        assert draws == {1, 2, 3, 4}
