"""Overload-robustness tests: admission control (reject / drop-oldest),
CoDel shedding, deadline propagation, client retries + hedging, the
queue-depth autoscaler, and the 16x-oversubscription acceptance (bounded
admitted latency + no blocking past the deadline, with the unbounded
ablation for contrast).

Latency-sensitive tests run against a deterministic ``_SleepServer``
(fixed service time per batch) so capacity is arithmetic, not
core-count luck."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import raylite
from repro.agents import DQNAgent
from repro.serving import (
    InferenceWorkerPool,
    PolicyClient,
    RetrySpec,
    drive_concurrent_load,
    resolve_retry_spec,
)
from repro.serving.overload import (
    AdmissionSpec,
    AutoscaleSpec,
    CoDelShedder,
    DeadlineExceededError,
    OverloadError,
    QueueDepthAutoscaler,
    RouteStats,
    ServerClosedError,
    deadline_from_budget,
    remaining,
    resolve_admission_spec,
    resolve_autoscale_spec,
)
from repro.serving.policy_server import _BatchingFrontEnd, num_rows
from repro.spaces import FloatBox, IntBox
from repro.utils.errors import RLGraphError

pytestmark = pytest.mark.mp_timeout(180)

STATE_DIM = 2
OBS = np.zeros(STATE_DIM, dtype=np.float32)


class _SleepServer(_BatchingFrontEnd):
    """Front end with a fixed per-batch service time that answers each
    row with its first feature (0 for ``OBS``) — deterministic capacity
    (max_batch_size / service_time rows/s) for latency math that must
    hold on any machine.  ``batches`` logs every dispatched batch's
    rows, so tests can check what the collector packed together."""

    pad_batches = False

    def __init__(self, service_time: float = 0.005, **kwargs):
        self.service_time = service_time
        self.batches = []
        super().__init__(FloatBox(shape=(STATE_DIM,)), **kwargs)

    @property
    def requests_executed(self):
        """Observation rows executed (requests are row blocks)."""
        return sum(len(batch) for batch in self.batches)

    def _dispatch(self, requests):
        time.sleep(self.service_time)
        obs = self._stack(requests)
        assert len(obs) == num_rows(requests)
        self.batches.append(obs)
        self._scatter(requests, obs[:, 0].astype(np.int64))

    def _apply_weights(self, weights):
        pass


@pytest.fixture(autouse=True)
def _raylite_cleanup():
    yield
    raylite.shutdown()


# ---------------------------------------------------------------------------
# Spec resolution
# ---------------------------------------------------------------------------
class TestSpecResolution:
    def test_admission_default_is_disabled(self):
        spec = resolve_admission_spec(None)
        assert spec.max_queue is None and not spec.enabled

    def test_admission_int_is_max_queue(self):
        spec = resolve_admission_spec(64)
        assert spec.max_queue == 64 and spec.policy == "reject"
        assert spec.enabled

    def test_admission_dict(self):
        spec = resolve_admission_spec(
            {"max_queue": 8, "policy": "drop-oldest", "codel_target": 0.01})
        assert (spec.max_queue, spec.policy) == (8, "drop-oldest")
        assert spec.make_shedder() is not None

    def test_admission_rejects_unknown_keys_and_bool(self):
        with pytest.raises(RLGraphError, match="Unknown admission_spec"):
            resolve_admission_spec({"max_size": 8})
        with pytest.raises(RLGraphError, match="bool"):
            resolve_admission_spec(True)
        with pytest.raises(RLGraphError, match="policy"):
            AdmissionSpec(max_queue=8, policy="tail-drop")

    def test_codel_only_admission_is_enabled(self):
        spec = resolve_admission_spec({"codel_target": 0.005})
        assert spec.enabled and spec.max_queue is None

    def test_autoscale_resolution(self):
        assert resolve_autoscale_spec(None) is None
        assert resolve_autoscale_spec(False) is None
        spec = resolve_autoscale_spec({"max_replicas": 8})
        assert spec.max_replicas == 8
        with pytest.raises(RLGraphError, match="Unknown autoscale_spec"):
            resolve_autoscale_spec({"replicas": 8})
        with pytest.raises(RLGraphError, match="high_watermark"):
            AutoscaleSpec(high_watermark=2, low_watermark=5)

    def test_retry_resolution(self):
        assert resolve_retry_spec(None) is None
        assert resolve_retry_spec(3).max_retries == 3
        spec = resolve_retry_spec({"max_retries": 1, "hedge_after": 0.01})
        assert spec.hedge_after == 0.01
        with pytest.raises(RLGraphError, match="Unknown retry_spec"):
            resolve_retry_spec({"retries": 1})

    def test_deadline_helpers(self):
        assert deadline_from_budget(None) is None
        assert remaining(None) is None
        d = deadline_from_budget(1.0, now=10.0)
        assert d == 11.0 and remaining(d, now=10.4) == pytest.approx(0.6)
        with pytest.raises(RLGraphError, match=">= 0"):
            deadline_from_budget(-1.0)


# ---------------------------------------------------------------------------
# CoDel state machine (pure: explicit clocks, no sleeping)
# ---------------------------------------------------------------------------
class TestCoDel:
    def test_below_target_never_sheds(self):
        shedder = CoDelShedder(target=0.01, interval=0.1)
        for i in range(100):
            assert not shedder.on_dequeue(0.005, now=i * 0.01, queue_depth=5)
        assert not shedder.dropping

    def test_burst_above_target_tolerated_within_interval(self):
        shedder = CoDelShedder(target=0.01, interval=0.1)
        assert not shedder.on_dequeue(0.05, now=0.0, queue_depth=5)   # arms
        assert not shedder.on_dequeue(0.05, now=0.05, queue_depth=5)  # < interval
        assert not shedder.on_dequeue(0.002, now=0.08, queue_depth=5)  # disarms
        assert not shedder.on_dequeue(0.05, now=0.2, queue_depth=5)
        assert not shedder.dropping

    def test_standing_queue_triggers_accelerating_drops(self):
        shedder = CoDelShedder(target=0.01, interval=0.1)
        assert not shedder.on_dequeue(0.05, now=0.0, queue_depth=9)
        assert shedder.on_dequeue(0.05, now=0.1, queue_depth=9)
        assert shedder.dropping
        # Next drop fires one full interval later...
        assert not shedder.on_dequeue(0.05, now=0.15, queue_depth=9)
        assert shedder.on_dequeue(0.05, now=0.2, queue_depth=9)
        # ...then interval/sqrt(2) after that: the control law speeds up.
        assert shedder.on_dequeue(0.05, now=0.2 + 0.1 / np.sqrt(2) + 1e-6,
                                  queue_depth=9)

    def test_recovery_exits_dropping_state(self):
        shedder = CoDelShedder(target=0.01, interval=0.1)
        shedder.on_dequeue(0.05, now=0.0, queue_depth=9)
        assert shedder.on_dequeue(0.05, now=0.1, queue_depth=9)
        assert not shedder.on_dequeue(0.001, now=0.2, queue_depth=9)
        assert not shedder.dropping

    def test_empty_queue_resets_even_when_slow(self):
        shedder = CoDelShedder(target=0.01, interval=0.1)
        shedder.on_dequeue(0.05, now=0.0, queue_depth=9)
        assert not shedder.on_dequeue(0.05, now=0.1, queue_depth=0)
        assert not shedder.dropping


# ---------------------------------------------------------------------------
# Autoscaler decision function (pure: injected now)
# ---------------------------------------------------------------------------
class TestAutoscalerDecide:
    SPEC = AutoscaleSpec(min_replicas=1, max_replicas=4, high_watermark=8,
                         low_watermark=1, sustain=0.5, idle_after=2.0,
                         cooldown=1.0)

    def test_grow_requires_sustained_depth(self):
        scaler = QueueDepthAutoscaler(self.SPEC)
        assert scaler.decide(20, 1, now=0.0) == 0     # arming
        assert scaler.decide(20, 1, now=0.3) == 0     # not sustained yet
        assert scaler.decide(20, 1, now=0.6) == 1     # sustained: grow
        assert scaler.events[-1]["action"] == "grow"

    def test_burst_between_watermarks_resets_the_timer(self):
        scaler = QueueDepthAutoscaler(self.SPEC)
        scaler.decide(20, 1, now=0.0)
        scaler.decide(4, 1, now=0.3)                  # back in the band
        assert scaler.decide(20, 1, now=0.6) == 0     # re-arming, not grow
        assert scaler.decide(20, 1, now=1.2) == 1

    def test_cooldown_separates_actions(self):
        scaler = QueueDepthAutoscaler(self.SPEC)
        scaler.decide(20, 1, now=0.0)
        assert scaler.decide(20, 1, now=0.6) == 1
        # Sustained again immediately, but cooldown holds the line.
        scaler.decide(20, 2, now=0.7)
        assert scaler.decide(20, 2, now=1.3) == 0
        assert scaler.decide(20, 2, now=2.5) == 1

    def test_never_beyond_max_or_below_min(self):
        scaler = QueueDepthAutoscaler(self.SPEC)
        scaler.decide(20, 4, now=0.0)
        assert scaler.decide(20, 4, now=1.0) == 0     # at max: hold
        scaler2 = QueueDepthAutoscaler(self.SPEC)
        scaler2.decide(0, 1, now=0.0)
        assert scaler2.decide(0, 1, now=5.0) == 0     # at min: hold

    def test_shrink_requires_sustained_idleness(self):
        scaler = QueueDepthAutoscaler(self.SPEC)
        assert scaler.decide(0, 3, now=0.0) == 0
        assert scaler.decide(1, 3, now=1.0) == 0
        assert scaler.decide(0, 3, now=2.1) == -1
        assert scaler.events[-1]["action"] == "shrink"


# ---------------------------------------------------------------------------
# Admission control on a live front end
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_reject_policy_raises_typed_overload(self):
        with _SleepServer(service_time=0.01, max_batch_size=4,
                          batch_window=0.0,
                          admission_spec={"max_queue": 8}) as srv:
            refs, rejected = [], 0
            for _ in range(64):
                try:
                    refs.append(srv.submit(OBS))
                except OverloadError as exc:
                    assert exc.reason == "queue_full"
                    assert exc.queue_depth >= 8
                    assert exc.retry_after > 0
                    rejected += 1
            for ref in refs:
                ref.result(10.0)
            assert rejected > 0
            assert srv.stats.as_dict()["rejected"] == rejected
            # Every admitted request was served; depth returns to zero.
            assert srv.queue_depth() == 0

    def test_drop_oldest_fails_oldest_and_admits_newest(self):
        with _SleepServer(service_time=0.01, max_batch_size=4,
                          batch_window=0.001,
                          admission_spec={"max_queue": 4,
                                          "policy": "drop-oldest"}) as srv:
            refs = [srv.submit(OBS) for _ in range(32)]
            outcomes = {"ok": 0, "dropped": 0}
            for ref in refs:
                try:
                    ref.result(10.0)
                    outcomes["ok"] += 1
                except OverloadError as exc:
                    assert exc.reason == "dropped_oldest"
                    outcomes["dropped"] += 1
            assert outcomes["dropped"] > 0 and outcomes["ok"] > 0
            # The LAST submit always survives drop-oldest.
            refs[-1].result(0)
            assert srv.stats.as_dict()["shed"] == outcomes["dropped"]

    def test_codel_sheds_standing_queue(self):
        with _SleepServer(service_time=0.01, max_batch_size=2,
                          batch_window=0.0,
                          admission_spec={"max_queue": 256,
                                          "codel_target": 0.005,
                                          "codel_interval": 0.02}) as srv:
            refs = [srv.submit(OBS) for _ in range(64)]
            shed = 0
            for ref in refs:
                try:
                    ref.result(20.0)
                except OverloadError as exc:
                    assert exc.reason == "shed"
                    shed += 1
            assert shed > 0
            assert srv.stats.as_dict()["shed"] == shed

    def test_unbounded_default_never_rejects(self):
        with _SleepServer(service_time=0.001, max_batch_size=8,
                          batch_window=0.0) as srv:
            refs = [srv.submit(OBS) for _ in range(128)]
            for ref in refs:
                ref.result(10.0)
            stats = srv.stats.as_dict()
            assert stats["rejected"] == 0 and stats["shed"] == 0


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_expired_request_is_never_executed(self):
        srv = _SleepServer(service_time=0.05, max_batch_size=1,
                           batch_window=0.0)
        try:
            blocker = srv.submit(OBS)              # holds the loop ~50ms
            doomed = srv.submit(OBS, deadline=0.01)
            with pytest.raises(DeadlineExceededError) as info:
                doomed.result(10.0)
            assert info.value.waited >= 0.01
            assert info.value.budget == pytest.approx(0.01, abs=1e-3)
            blocker.result(10.0)
            time.sleep(0.02)
            # The expired request consumed no batch slot.
            assert srv.requests_executed == 1
            assert srv.stats.as_dict()["expired"] == 1
        finally:
            srv.stop()

    def test_default_deadline_applies_to_every_request(self):
        srv = _SleepServer(service_time=0.05, max_batch_size=1,
                           batch_window=0.0, default_deadline=0.01)
        try:
            blocker = srv.submit(OBS)
            doomed = srv.submit(OBS)               # inherits the default
            with pytest.raises(DeadlineExceededError):
                doomed.result(10.0)
            blocker.result(10.0)
        finally:
            srv.stop()

    def test_act_many_shares_one_deadline(self):
        """Total wait is bounded by the budget, not N x budget."""
        srv = _SleepServer(service_time=0.05, max_batch_size=1,
                           batch_window=0.0)
        try:
            client = PolicyClient(srv)
            obs = np.zeros((6, STATE_DIM), dtype=np.float32)
            t0 = time.perf_counter()
            with pytest.raises((raylite.RayliteError,
                                DeadlineExceededError)):
                client.act_many(obs, timeout=0.12)
            elapsed = time.perf_counter() - t0
            # Six requests at 50ms each would stack to 0.72s under the
            # old per-ref timeout; the shared deadline caps the walk.
            assert elapsed < 0.4
        finally:
            srv.stop()


# ---------------------------------------------------------------------------
# Block requests: k rows, one future, one admission / deadline decision
# ---------------------------------------------------------------------------
def _block(rows: int, value: int = 0) -> np.ndarray:
    return np.full((rows, STATE_DIM), value, dtype=np.float32)


class TestBlockRequests:
    def test_block_size_and_shape_are_validated(self):
        with _SleepServer(service_time=0.001, max_batch_size=4) as srv:
            with pytest.raises(RLGraphError, match="max_batch_size"):
                srv.submit_block(_block(5))
            with pytest.raises(RLGraphError, match="max_batch_size"):
                srv.submit_block(_block(0))
            with pytest.raises(RLGraphError, match=r"\(2,\)"):
                srv.submit_block(OBS)       # one unbatched observation
            with pytest.raises(RLGraphError, match=r"\(3, 3\)"):
                srv.submit_block(np.zeros((3, STATE_DIM + 1), np.float32))
            assert srv.stats.requests == 0 and srv.queue_depth() == 0
            # k = 1 block: a (1,) action array, unlike submit's scalar.
            assert srv.submit_block(_block(1, 7)).result(5.0).tolist() == [7]
            assert int(srv.submit(_block(1, 7)[0]).result(5.0)) == 7

    def test_reject_admission_is_atomic_per_block(self):
        with _SleepServer(service_time=0.1, max_batch_size=8,
                          batch_window=0.0,
                          admission_spec={"max_queue": 8}) as srv:
            blocker = srv.submit(OBS)          # holds the loop ~100 ms
            time.sleep(0.02)
            queued = srv.submit_block(_block(6))
            before = (srv.queue_depth(), srv.stats.requests)
            assert before == (6, 7)
            with pytest.raises(OverloadError) as info:
                srv.submit_block(_block(4))    # 6 + 4 > 8: all refused
            assert info.value.reason == "queue_full"
            # The whole act_many is refused at its first slice; none of
            # its 16 observations is left queued or executing.
            with pytest.raises(OverloadError):
                PolicyClient(srv).act_many(_block(16))
            assert (srv.queue_depth(), srv.stats.requests) == before
            assert srv.stats.rejected == 4 + 8
            srv.submit_block(_block(2))        # 6 + 2 fits exactly
            blocker.result(5.0)
            assert len(queued.result(5.0)) == 6
        assert srv.requests_executed == 1 + 6 + 2

    def test_drop_oldest_sheds_whole_requests(self):
        with _SleepServer(service_time=0.1, max_batch_size=8,
                          batch_window=0.0,
                          admission_spec={"max_queue": 8,
                                          "policy": "drop-oldest"}) as srv:
            blocker = srv.submit(OBS)
            time.sleep(0.02)
            old = [srv.submit_block(_block(4, 1)),
                   srv.submit_block(_block(4, 2))]
            newest = srv.submit_block(_block(6, 3))  # needs both gone
            for ref in old:
                with pytest.raises(OverloadError) as info:
                    ref.result(5.0)
                assert info.value.reason == "dropped_oldest"
            assert srv.queue_depth() == 6
            assert newest.result(5.0).tolist() == [3] * 6
            blocker.result(5.0)
            assert srv.stats.shed == 8
        assert srv.requests_executed == 1 + 6

    def test_expired_block_fails_one_future_and_occupies_no_rows(self):
        with _SleepServer(service_time=0.05, max_batch_size=4,
                          batch_window=0.0) as srv:
            blocker = srv.submit(OBS)          # holds the loop ~50 ms
            time.sleep(0.02)
            doomed = srv.submit_block(_block(3), deadline=0.01)
            alive = srv.submit_block(_block(3, 5))
            with pytest.raises(DeadlineExceededError):
                doomed.result(5.0)
            assert alive.result(5.0).tolist() == [5] * 3
            blocker.result(5.0)
            assert srv.stats.expired == 3
        assert srv.requests_executed == 1 + 3

    def test_codel_sheds_whole_blocks(self):
        with _SleepServer(service_time=0.01, max_batch_size=4,
                          batch_window=0.0,
                          admission_spec={"codel_target": 0.005,
                                          "codel_interval": 0.02}) as srv:
            refs = [srv.submit_block(_block(2, i)) for i in range(48)]
            served, shed = 0, 0
            for i, ref in enumerate(refs):
                try:
                    assert ref.result(20.0).tolist() == [i, i]
                    served += 1
                except OverloadError as exc:
                    assert exc.reason == "shed"
                    shed += 1
            assert shed > 0 and served > 0
            assert srv.stats.shed == 2 * shed
        assert srv.requests_executed == 2 * served

    def test_interleaved_singles_and_blocks_pack_whole_and_in_order(self):
        """Several threads mix ``submit`` and ``submit_block``: no
        dispatched batch exceeds ``max_batch_size`` rows, no block is
        split or reordered, and each client's rows are dispatched in
        the order it submitted them."""
        max_batch, clients, per_client = 8, 4, 60
        with _SleepServer(service_time=0.0005, max_batch_size=max_batch,
                          batch_window=0.0005) as srv:
            failures = []

            def loop(cid: int) -> None:
                rng = np.random.default_rng(cid)
                seq, pending = 0, []
                for _ in range(per_client):
                    k = int(rng.integers(1, max_batch + 1))
                    tags = np.arange(seq, seq + k) + cid * 10_000
                    rows = np.stack([tags, tags], axis=1).astype(np.float32)
                    seq += k
                    if k == 1 and rng.random() < 0.5:
                        pending.append((srv.submit(rows[0]), tags[0]))
                    else:
                        pending.append((srv.submit_block(rows), tags))
                try:
                    for ref, tags in pending:
                        np.testing.assert_array_equal(ref.result(20.0), tags)
                except BaseException as exc:  # noqa: BLE001
                    failures.append(exc)

            threads = [threading.Thread(target=loop, args=(cid,))
                       for cid in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures[0]
        assert max(len(batch) for batch in srv.batches) <= max_batch
        assert srv.stats.max_batch <= max_batch
        assert srv.stats.mean_batch_size > 1.0   # rows, and it did batch
        dispatched = np.concatenate(srv.batches)[:, 0].astype(np.int64)
        assert srv.stats.requests == len(dispatched)
        for cid in range(clients):
            mine = dispatched[dispatched // 10_000 == cid] % 10_000
            np.testing.assert_array_equal(mine, np.arange(len(mine)))

    def test_act_many_submits_one_block_per_slice(self):
        with _SleepServer(service_time=0.001, max_batch_size=32,
                          batch_window=0.0) as srv:
            sizes = []
            submit_block = srv.submit_block

            def counting(rows, deadline=None):
                sizes.append(len(rows))
                return submit_block(rows, deadline=deadline)

            srv.submit_block = counting
            client = PolicyClient(srv)
            tags = np.arange(100)
            obs = np.stack([tags, tags], axis=1).astype(np.float32)
            actions = client.act_many(obs)
            assert sizes == [32, 32, 32, 4]
            assert [int(a) for a in actions] == tags.tolist()
            assert srv.stats.requests == 100
            assert client.act_many(obs[:0]) == []
            assert client.num_requests == 1


# ---------------------------------------------------------------------------
# Server-closed semantics
# ---------------------------------------------------------------------------
class TestServerClosed:
    def test_post_stop_submit_raises_typed_error_immediately(self):
        srv = _SleepServer(service_time=0.001)
        srv.stop()
        t0 = time.perf_counter()
        with pytest.raises(ServerClosedError, match="not running"):
            srv.submit(OBS)
        assert time.perf_counter() - t0 < 0.1   # synchronous, no hang

    def test_stop_drains_queued_requests_before_exiting(self):
        srv = _SleepServer(service_time=0.005, max_batch_size=4,
                           batch_window=0.0)
        refs = [srv.submit(OBS) for _ in range(16)]
        srv.stop()
        # Drain-and-stop: everything queued before stop() still serves.
        for ref in refs:
            ref.result(5.0)

    def test_racing_acts_resolve_fast_during_stop(self):
        srv = _SleepServer(service_time=0.002, max_batch_size=8,
                           batch_window=0.0)
        outcome = {"served": 0, "closed": 0, "other": None}

        def hammer():
            client = PolicyClient(srv, timeout=5.0)
            while True:
                try:
                    client.act(OBS)
                    outcome["served"] += 1
                except ServerClosedError:
                    outcome["closed"] += 1
                    return
                except BaseException as exc:  # noqa: BLE001
                    outcome["other"] = exc
                    return

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        time.sleep(0.1)
        srv.stop()
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "client hung across stop()"
        assert outcome["other"] is None, outcome["other"]
        assert outcome["served"] > 0 and outcome["closed"] == 1


# ---------------------------------------------------------------------------
# Client retries + hedging
# ---------------------------------------------------------------------------
class TestRetriesAndHedging:
    def test_retries_recover_from_rejects(self):
        with _SleepServer(service_time=0.002, max_batch_size=1,
                          batch_window=0.0,
                          admission_spec={"max_queue": 1,
                                          "retry_after": 0.002}) as srv:
            done = []

            def worker():
                client = PolicyClient(
                    srv, timeout=10.0,
                    retry_spec={"max_retries": 100, "base_delay": 0.001})
                for _ in range(10):
                    client.act(OBS)
                done.append(client.retries)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert len(done) == 8, "a retrying client failed outright"
            assert srv.stats.as_dict()["rejected"] > 0
            assert sum(done) > 0, "nothing was ever retried"

    @staticmethod
    def _block_and_fill(srv):
        """Occupy the service loop, then fill the 1-slot queue."""
        blocker = srv.submit(OBS)
        deadline = time.perf_counter() + 5.0
        while srv.queue_depth() > 0 and time.perf_counter() < deadline:
            time.sleep(0.001)   # wait for the loop to take the blocker
        queued = srv.submit(OBS)
        return [blocker, queued]

    def test_no_retry_without_spec(self):
        with _SleepServer(service_time=0.05, max_batch_size=1,
                          batch_window=0.0,
                          admission_spec={"max_queue": 1}) as srv:
            client = PolicyClient(srv, timeout=5.0)
            refs = self._block_and_fill(srv)
            with pytest.raises(OverloadError):
                client.act(OBS)
            assert client.retries == 0
            for ref in refs:
                ref.result(5.0)

    def test_retry_never_violates_the_deadline(self):
        with _SleepServer(service_time=0.05, max_batch_size=1,
                          batch_window=0.0,
                          admission_spec={"max_queue": 1,
                                          "retry_after": 10.0}) as srv:
            # retry_after (10s) can never fit in a 50ms budget, so the
            # client must surface the overload error instead of sleeping.
            client = PolicyClient(srv, timeout=0.05, retry_spec=5)
            refs = self._block_and_fill(srv)
            t0 = time.perf_counter()
            with pytest.raises(OverloadError):
                client.act(OBS)
            assert time.perf_counter() - t0 < 1.0
            assert client.retries == 0
            for ref in refs:
                ref.result(5.0)

    def test_hedging_duplicates_slow_requests(self):
        with _SleepServer(service_time=0.002, max_batch_size=8,
                          batch_window=0.0) as srv:
            client = PolicyClient(
                srv, timeout=5.0,
                retry_spec=RetrySpec(max_retries=0, hedge_after=0.0005))
            for _ in range(20):
                assert int(client.act(OBS)) == 0
            assert client.hedges > 0
            assert client.latency_stats()["hedges"] == client.hedges

    def test_fast_server_never_hedges(self):
        with _SleepServer(service_time=0.0, max_batch_size=8,
                          batch_window=0.0) as srv:
            client = PolicyClient(
                srv, timeout=5.0,
                retry_spec=RetrySpec(max_retries=0, hedge_after=0.5))
            for _ in range(10):
                client.act(OBS)
            assert client.hedges == 0


# ---------------------------------------------------------------------------
# Load-driver accounting
# ---------------------------------------------------------------------------
class TestDriveConcurrentLoad:
    def test_summary_reports_zero_stragglers_normally(self):
        with _SleepServer(service_time=0.001, max_batch_size=8,
                          batch_window=0.0) as srv:
            summary = drive_concurrent_load(
                srv, num_clients=2, duration=0.2,
                observations=np.zeros((2, STATE_DIM), dtype=np.float32))
            assert summary["stragglers"] == 0
            assert summary["overload_errors"] == 0
            assert summary["requests"] > 0

    def test_stragglers_are_counted_not_silently_dropped(self):
        class _WedgingTarget:
            """First act per client resolves; the second parks until
            released — a worker that stops answering mid-measurement."""

            def __init__(self):
                self._seen = set()
                self._lock = threading.Lock()
                self.pending = []

            def submit(self, obs, deadline=None):
                from repro.raylite.core import ObjectRef
                ref = ObjectRef()
                ident = threading.get_ident()
                with self._lock:
                    first = ident not in self._seen
                    self._seen.add(ident)
                    if not first:
                        self.pending.append(ref)
                if first:
                    ref._resolve(np.int64(0))
                return ref

        target = _WedgingTarget()
        summary = drive_concurrent_load(
            target, num_clients=2, duration=0.2,
            observations=np.zeros((2, STATE_DIM), dtype=np.float32),
            join_timeout=0.2)
        assert summary["stragglers"] == 2
        assert summary["requests"] == 2
        for ref in target.pending:   # release the parked threads
            ref._resolve(np.int64(0))

    def test_tolerate_overload_counts_rejects(self):
        with _SleepServer(service_time=0.02, max_batch_size=1,
                          batch_window=0.0,
                          admission_spec={"max_queue": 1,
                                          "retry_after": 0.001}) as srv:
            summary = drive_concurrent_load(
                srv, num_clients=4, duration=0.4,
                observations=np.zeros((4, STATE_DIM), dtype=np.float32),
                tolerate_overload=True)
            assert summary["overload_errors"] > 0
            assert summary["stragglers"] == 0

    def test_overload_fails_the_run_by_default(self):
        with _SleepServer(service_time=0.02, max_batch_size=1,
                          batch_window=0.0,
                          admission_spec={"max_queue": 1}) as srv:
            with pytest.raises(RLGraphError, match="clients failed"):
                drive_concurrent_load(
                    srv, num_clients=8, duration=0.4,
                    observations=np.zeros((8, STATE_DIM),
                                          dtype=np.float32))


# ---------------------------------------------------------------------------
# Acceptance: 16x oversubscription keeps admitted latency bounded
# ---------------------------------------------------------------------------
class TestOversubscription:
    SERVICE = 0.004          # 4ms per batch of 8 => capacity 2000 req/s
    BATCH = 8
    MAX_QUEUE = 16
    DEADLINE = 0.25

    def _measure(self, admission_spec, num_requests=1024, submitters=4):
        """Blast requests far faster than capacity (>= 16x: submits are
        instant against a 4ms service clock) and timestamp every
        resolution via completion callbacks."""
        srv = _SleepServer(service_time=self.SERVICE,
                           max_batch_size=self.BATCH, batch_window=0.001,
                           admission_spec=admission_spec)
        lock = threading.Lock()
        resolved = []          # (latency, failed_with or None)
        rejected = [0]

        def on_done(t_submit, ref):
            latency = time.perf_counter() - t_submit
            try:
                ref.result(0)
                err = None
            except BaseException as exc:  # noqa: BLE001
                err = exc
            with lock:
                resolved.append((latency, err))

        import functools

        def submitter(n):
            for _ in range(n):
                t_submit = time.perf_counter()
                try:
                    ref = srv.submit(OBS, deadline=self.DEADLINE)
                except OverloadError:
                    with lock:
                        rejected[0] += 1
                    continue
                ref.add_done_callback(
                    functools.partial(on_done, t_submit))

        threads = [threading.Thread(
            target=submitter, args=(num_requests // submitters,))
            for _ in range(submitters)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        deadline = time.perf_counter() + 30.0
        while (len(resolved) + rejected[0] < num_requests
               and time.perf_counter() < deadline):
            time.sleep(0.01)
        peak_depth = srv.queue_depth()
        srv.stop()
        return resolved, rejected[0], peak_depth

    def test_sixteen_x_oversubscription_bounded_latency(self):
        # Unloaded reference: one request at a time.
        with _SleepServer(service_time=self.SERVICE,
                          max_batch_size=self.BATCH,
                          batch_window=0.001) as srv:
            lat = []
            for _ in range(30):
                t0 = time.perf_counter()
                srv.submit(OBS).result(5.0)
                lat.append(time.perf_counter() - t0)
            unloaded_p99 = float(np.percentile(lat, 99))

        resolved, rejected, _ = self._measure(
            {"max_queue": self.MAX_QUEUE, "policy": "reject"})
        assert rejected > 0, "16x load never tripped admission control"
        ok = [latency for latency, err in resolved if err is None]
        assert len(ok) + rejected > 0 and len(ok) > 0
        admitted_p99 = float(np.percentile(ok, 99))
        # The bounded queue caps queueing delay at ~max_queue/capacity
        # (8ms) on top of service time, so admitted p99 stays within 5x
        # of the unloaded p99 even at 16x offered load.
        assert admitted_p99 <= 5 * max(unloaded_p99, 0.01), (
            f"admitted p99 {admitted_p99 * 1e3:.1f}ms vs unloaded "
            f"{unloaded_p99 * 1e3:.1f}ms")
        # No request — admitted or failed — blocked past its deadline
        # (generous slack for a loaded 1-core CI runner).
        worst = max(latency for latency, _ in resolved)
        assert worst <= self.DEADLINE + 0.5, f"request took {worst:.3f}s"

    def test_unbounded_ablation_grows_the_queue(self):
        """Without admission the same burst piles up unboundedly —
        the behavior the tentpole exists to kill."""
        srv = _SleepServer(service_time=self.SERVICE,
                           max_batch_size=self.BATCH, batch_window=0.001)
        refs = [srv.submit(OBS) for _ in range(1024)]
        depth = srv.queue_depth()
        # Far beyond any bounded configuration: the whole burst queues.
        assert depth > 4 * self.MAX_QUEUE, f"queue depth only {depth}"
        stats = srv.stats.as_dict()
        assert stats["rejected"] == 0 and stats["shed"] == 0
        srv.stop()   # drain-and-stop serves them; don't wait on results


# ---------------------------------------------------------------------------
# Autoscaler on a live pool
# ---------------------------------------------------------------------------
def _tiny_dqn():
    return DQNAgent(state_space=FloatBox(shape=(4,)),
                    action_space=IntBox(3),
                    network_spec=[{"type": "dense", "units": 16,
                                   "activation": "relu"}],
                    seed=3)


class TestPoolAutoscaling:
    def test_grows_under_load_shrinks_idle_with_parity(self):
        pool = InferenceWorkerPool(
            _tiny_dqn, FloatBox(shape=(4,)), num_replicas=1,
            parallel_spec="thread", max_batch_size=8, batch_window=0.0,
            supervision_spec={"base_delay": 0.05},
            autoscale_spec={"min_replicas": 1, "max_replicas": 3,
                            "high_watermark": 64, "low_watermark": 2,
                            "sustain": 0.05, "idle_after": 0.3,
                            "cooldown": 0.1, "tick_interval": 0.02})
        try:
            obs = np.random.default_rng(0).standard_normal(
                (8, 4)).astype(np.float32)
            reference = _tiny_dqn()
            expected = [int(reference.get_actions(o, explore=False)[0])
                        for o in obs]
            # Backlog far beyond one replica's throughput, held until
            # the pool grows: a fixed-size burst drains in ~0.1 s on a
            # fast host, a coin flip against the sustain window.
            refs = []
            give_up = time.perf_counter() + 30.0
            while len(pool.replicas) == 1 and time.perf_counter() < give_up:
                if pool.outstanding() < 2048:
                    refs.extend(pool.submit(obs[i % len(obs)]) for i in
                                range(len(refs), len(refs) + 512))
                else:
                    time.sleep(0.001)
            actions = [int(r.result(120.0)) for r in refs]
            grew_to = len(pool.replicas)
            assert grew_to > 1, "sustained backlog never grew the pool"
            grow_events = [e for e in pool.autoscaler.events
                           if e["action"] == "grow"]
            assert len(grow_events) == grew_to - 1
            # Zero dropped or errored requests across the scale-up.
            assert len(actions) == len(refs) >= 512
            assert pool.stats.as_dict()["errors"] == 0
            # Bitwise action parity through the scale event: autoscaled
            # replicas joined warm and at the current weight version.
            assert actions[:len(obs)] == expected
            assert actions[-len(obs):] == expected
            # Silence shrinks back to min_replicas.
            wait_until = time.perf_counter() + 20.0
            while (len(pool.replicas) > 1
                   and time.perf_counter() < wait_until):
                time.sleep(0.02)
            assert len(pool.replicas) == 1, "idle pool never shrank"
            shrink_events = [e for e in pool.autoscaler.events
                             if e["action"] == "shrink"]
            assert len(shrink_events) == grew_to - 1
            # Still serving correctly at the shrunken size.
            post = [int(pool.act(o, timeout=10.0)) for o in obs]
            assert post == expected
            snap = pool.metrics_snapshot()
            assert snap["replicas"] == 1
            assert len(snap["autoscale"]["events"]) == len(
                pool.autoscaler.events)
        finally:
            pool.stop()

    def test_autoscaler_respects_max_replicas(self):
        pool = InferenceWorkerPool(
            _tiny_dqn, FloatBox(shape=(4,)), num_replicas=1,
            parallel_spec="thread", max_batch_size=8, batch_window=0.0,
            autoscale_spec={"min_replicas": 1, "max_replicas": 2,
                            "high_watermark": 32, "low_watermark": 1,
                            "sustain": 0.02, "idle_after": 5.0,
                            "cooldown": 0.05, "tick_interval": 0.02})
        try:
            refs = [pool.submit(np.zeros(4, dtype=np.float32))
                    for _ in range(3000)]
            for ref in refs:
                ref.result(120.0)
            assert len(pool.replicas) <= 2
        finally:
            pool.stop()


    def test_scale_down_retires_the_slot_before_the_kill(self):
        """A retired replica must not be resurrected by the next probe,
        and its restart history still counts.  The collector is not
        started, so the scale calls below cannot race dispatch."""
        pool = InferenceWorkerPool(
            _tiny_dqn, FloatBox(shape=(4,)), num_replicas=2,
            parallel_spec="thread", supervision_spec={"base_delay": 0.0},
            auto_start=False)
        try:
            sup = pool.supervisor
            oldest, newest = pool.replicas
            raylite.kill(sup.handle("inference-pool-replica-1"))  # "crash"
            assert sup.probe() == ["inference-pool-replica-1"]
            assert newest.is_alive() and sup.total_restarts == 1
            # Only an idle replica is eligible: let the restart hook's
            # warm-up drain first.
            raylite.get(newest.get_stats.remote(), timeout=30.0)
            pool._scale_down()
            assert pool.replicas == [oldest]
            assert not newest.is_alive()
            assert sup.names() == ["inference-pool-replica-0"]
            assert sup.probe() == [] and not newest.is_alive()
            assert sup.total_restarts == 1
        finally:
            pool.stop()


# ---------------------------------------------------------------------------
# A replica lost at submit time (the Tier-1 flake of ROADMAP "Fix first")
# ---------------------------------------------------------------------------
class _VanishingReplica:
    """A replica SIGKILLed between the liveness check and the submit:
    it still reads alive, and ``.remote()`` raises raylite's error."""

    class act_batch:
        @staticmethod
        def remote(obs):
            raise raylite.RayliteError("Actor PolicyServerActor-p0 is stopped")

    @staticmethod
    def is_alive():
        return True

    @staticmethod
    def num_pending():
        return 0


class TestReplicaLostAtSubmit:
    def _pool(self, supervision_spec):
        pool = InferenceWorkerPool(
            _tiny_dqn, FloatBox(shape=(4,)), num_replicas=1,
            parallel_spec="thread", max_batch_size=4, batch_window=0.0,
            supervision_spec=supervision_spec,
            admission_spec={"max_queue": 64, "retry_after": 0.125})
        pool.replicas = [_VanishingReplica()]
        return pool

    def test_supervised_pool_answers_typed_503(self):
        from repro.serving import HttpGateway, HttpPolicyClient
        pool = self._pool({"base_delay": 0.0})
        try:
            with pytest.raises(OverloadError) as excinfo:
                pool.act(np.zeros(4, np.float32), timeout=10.0)
            assert excinfo.value.reason == "replica_lost"
            assert excinfo.value.retry_after == 0.125
            assert isinstance(excinfo.value.__cause__, raylite.RayliteError)
            stats = pool.stats.as_dict()
            # Same branch as a result-time death: re-queued, bounded.
            assert stats["retries"] == 4 and stats["errors"] == 1
            with HttpGateway(pool) as gateway:
                with HttpPolicyClient.for_gateway(gateway) as client:
                    with pytest.raises(OverloadError) as excinfo:
                        client.act(np.zeros(4, np.float32))
            assert excinfo.value.reason == "replica_lost"
            assert excinfo.value.retry_after == 0.125
        finally:
            pool.stop()

    def test_unsupervised_pool_keeps_the_raw_error(self):
        pool = self._pool(None)
        try:
            with pytest.raises(raylite.RayliteError, match="is stopped"):
                pool.act(np.zeros(4, np.float32), timeout=10.0)
            assert pool.stats.as_dict()["retries"] == 0
        finally:
            pool.stop()


# ---------------------------------------------------------------------------
# RouteStats
# ---------------------------------------------------------------------------
class TestRouteStats:
    def test_counters_and_percentiles(self):
        stats = RouteStats()
        for i in range(100):
            stats.record(200, 0.01)
        stats.record(503, 0.001)
        snap = stats.snapshot()
        assert snap["requests"] == 101
        assert snap["by_status"] == {200: 100, 503: 1}
        assert snap["p50_ms"] == pytest.approx(10.0, rel=0.2)
