"""Serving subsystem tests: micro-batching semantics, batched-vs-
unbatched action parity, mid-traffic flat weight hot-swap, pooled
replicas over both raylite backends, the eval-during-training hook, and
the concurrent-load throughput acceptance (core-count-gated)."""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro import raylite
from repro.agents import ActorCriticAgent, DQNAgent, SACAgent
from repro.serving import (
    DeadlineExceededError,
    HttpGateway,
    InferenceWorkerPool,
    OverloadError,
    PolicyClient,
    PolicyServer,
    PolicyServerActor,
    ServerClosedError,
    bucket_size,
    drive_concurrent_load,
)
from repro.serving.overload import RouteStats
from repro.serving.policy_server import ServerStats
from repro.spaces import FloatBox, IntBox
from repro.utils.errors import RLGraphError

# Pool tests cross process boundaries; fail fast instead of wedging CI.
pytestmark = pytest.mark.mp_timeout(180)

CORES = os.cpu_count() or 1
STATE_DIM = 4
NUM_ACTIONS = 3


def _dqn(seed=3, units=16, **kwargs):
    return DQNAgent(state_space=FloatBox(shape=(STATE_DIM,)),
                    action_space=IntBox(NUM_ACTIONS),
                    network_spec=[{"type": "dense", "units": units,
                                   "activation": "relu"}],
                    seed=seed, **kwargs)


def _dqn_factory():
    """Zero-arg replica factory (module-level so process actors can
    pickle it)."""
    return _dqn()


def _sac_factory():
    """SAC replica factory: float action vectors of width 2."""
    return SACAgent(state_space=FloatBox(shape=(STATE_DIM,)),
                    action_space=FloatBox(low=np.asarray([-2.0, -1.0],
                                                         np.float32),
                                          high=np.asarray([2.0, 3.0],
                                                          np.float32)),
                    network_spec=[{"type": "dense", "units": 16,
                                   "activation": "relu"}],
                    batch_size=8, memory_capacity=64, seed=11)


def _obs_stream(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, STATE_DIM)).astype(np.float32)


def _greedy_reference(agent, obs):
    return [int(agent.get_actions(o, explore=False)[0]) for o in obs]


@pytest.fixture(autouse=True)
def _raylite_cleanup():
    yield
    raylite.shutdown()


# ---------------------------------------------------------------------------
# Micro-batching mechanics
# ---------------------------------------------------------------------------
class TestMicroBatching:
    def test_pipelined_burst_coalesces(self):
        """A burst of concurrent requests coalesces into few compiled
        calls (the amortization the server exists for)."""
        server = PolicyServer(_dqn(), max_batch_size=16, batch_window=0.05)
        obs = _obs_stream(8)
        refs = [server.submit(o) for o in obs]
        _ = [r.result(timeout=10) for r in refs]
        stats = server.stats.as_dict()
        assert stats["requests"] == 8
        # The pipelined burst must not degrade to one-call-per-request.
        assert stats["batches"] < 8
        assert stats["max_batch_size"] > 1
        server.stop()

    def test_bucket_size(self):
        assert bucket_size(1, 32) == 1
        assert bucket_size(3, 32) == 4
        assert bucket_size(5, 32) == 8
        assert bucket_size(33, 32) == 32

    def test_max_batch_size_respected(self):
        server = PolicyServer(_dqn(), max_batch_size=4, batch_window=0.05)
        obs = _obs_stream(12)
        refs = [server.submit(o) for o in obs]
        _ = [r.result(timeout=10) for r in refs]
        assert server.stats.max_batch <= 4
        server.stop()

    def test_submit_shape_validation(self):
        """Rank mismatches fail at submit with the shapes spelled out
        (regression: they used to surface as broadcasting errors deep
        in the graph)."""
        server = PolicyServer(_dqn(), max_batch_size=4)
        with pytest.raises(RLGraphError, match=r"\(2, 4\).*\(4,\)"):
            server.submit(np.zeros((2, STATE_DIM), np.float32))
        with pytest.raises(RLGraphError, match="state space"):
            server.act(np.zeros(3, np.float32))
        server.stop()

    def test_submit_after_stop_raises(self):
        server = PolicyServer(_dqn(), max_batch_size=4)
        server.stop()
        with pytest.raises(RLGraphError, match="not running"):
            server.submit(np.zeros(STATE_DIM, np.float32))

    def test_stop_drains_queued_requests(self):
        server = PolicyServer(_dqn(), max_batch_size=4, batch_window=0.01)
        refs = [server.submit(o) for o in _obs_stream(6)]
        server.stop()
        for ref in refs:
            assert 0 <= int(ref.result(timeout=5)) < NUM_ACTIONS


class TestAgentSingleObservation:
    """The serving-shape fix on ``Agent.get_actions`` itself."""

    def test_single_obs_auto_expands_and_squeezes(self):
        agent = _dqn()
        obs = _obs_stream(1)[0]
        action, pre = agent.get_actions(obs, explore=False)
        assert isinstance(action, int)
        assert pre.shape == (STATE_DIM,)

    def test_rank_mismatch_error_message(self):
        agent = _dqn()
        with pytest.raises(RLGraphError,
                           match=r"neither one observation.*\(4,\)"):
            agent.get_actions(np.zeros(3, np.float32))
        with pytest.raises(RLGraphError, match="get_actions"):
            agent.get_actions(np.zeros((2, 2, STATE_DIM), np.float32))

    def test_batch_still_accepted(self):
        agent = _dqn()
        actions, _ = agent.get_actions(_obs_stream(5), explore=False)
        assert len(actions) == 5


# ---------------------------------------------------------------------------
# Determinism: batched == unbatched (explore=False)
# ---------------------------------------------------------------------------
class TestBatchedUnbatchedParity:
    def test_dqn_action_parity(self):
        obs = _obs_stream(40)
        reference = _greedy_reference(_dqn(), obs)
        # Batched: a pipelined burst through the micro-batching server.
        server = PolicyServer(_dqn(), max_batch_size=16, batch_window=0.002)
        batched = [int(a) for a in PolicyClient(server).act_many(obs)]
        assert server.stats.max_batch > 1  # batching actually happened
        server.stop()
        # Unbatched single-call serving: same machinery, batch cap 1.
        server = PolicyServer(_dqn(), max_batch_size=1, batch_window=0.0)
        unbatched = [int(a) for a in PolicyClient(server).act_many(obs)]
        assert server.stats.max_batch == 1
        server.stop()
        assert batched == reference
        assert unbatched == reference

    def test_a2c_greedy_action_parity(self):
        def make():
            return ActorCriticAgent(
                state_space=FloatBox(shape=(STATE_DIM,)),
                action_space=IntBox(NUM_ACTIONS),
                network_spec=[{"type": "dense", "units": 16,
                               "activation": "tanh"}], seed=5)
        obs = _obs_stream(20)
        ref_agent = make()
        reference = [int(ref_agent.get_actions(o, explore=False)[0])
                     for o in obs]
        server = PolicyServer(make(), max_batch_size=8, batch_window=0.002)
        batched = [int(a) for a in PolicyClient(server).act_many(obs)]
        server.stop()
        assert batched == reference

    def test_padding_does_not_change_actions(self):
        obs = _obs_stream(30)
        reference = _greedy_reference(_dqn(), obs)
        server = PolicyServer(_dqn(), max_batch_size=16, batch_window=0.002,
                              pad_batches=False)
        unpadded = [int(a) for a in PolicyClient(server).act_many(obs)]
        server.stop()
        assert unpadded == reference


# ---------------------------------------------------------------------------
# Block requests: act_many == per-observation act == unbatched greedy
# ---------------------------------------------------------------------------
class TestBlockRequestParity:
    SIZES = (1, 31, 32, 33, 64, 100)

    @pytest.mark.parametrize("factory", [_dqn_factory, _sac_factory],
                             ids=["dqn", "sac"])
    @pytest.mark.parametrize("target", ["server", "thread", "process"])
    def test_act_many_equals_act_equals_unbatched(self, target, factory):
        obs = _obs_stream(max(self.SIZES), seed=13)
        reference_fn = factory().serving_act_fn()
        unbatched = np.stack([reference_fn(o[None])[0] for o in obs])
        if target == "server":
            front = PolicyServer(factory(), max_batch_size=32,
                                 batch_window=0.001)
        else:
            front = InferenceWorkerPool(
                factory, FloatBox(shape=(STATE_DIM,)), num_replicas=2,
                max_batch_size=32, batch_window=0.001, parallel_spec=target)
        # Int actions are exact; float vectors see batch-size-dependent
        # BLAS paths (tolerance of test_sac_agent.TestContinuousServing).
        tol = (dict(rtol=0, atol=0) if factory is _dqn_factory
               else dict(rtol=1e-5, atol=1e-6))
        try:
            client = PolicyClient(front)
            singles = np.stack([client.act(o) for o in obs])
            np.testing.assert_allclose(singles, unbatched, **tol)
            for n in self.SIZES:
                served = client.act_many(obs[:n])
                assert len(served) == n
                np.testing.assert_allclose(np.stack(served), unbatched[:n],
                                           **tol)
            stats = front.stats.as_dict()
            assert stats["requests"] == len(obs) + sum(self.SIZES)
            assert stats["max_batch_size"] <= 32
            assert stats["errors"] == 0
        finally:
            front.stop()

    def test_act_many_to_actor_handle_is_one_remote_call(self):
        obs = _obs_stream(100, seed=4)
        handle = raylite.remote(PolicyServerActor).remote(_dqn_factory)
        client = PolicyClient(handle)
        served = [int(a) for a in client.act_many(obs)]
        assert served == _greedy_reference(_dqn(), obs)
        assert raylite.get(handle.get_stats.remote()) == {
            "batches_served": 1, "requests_served": 100}
        assert client.num_requests == 1

    def test_blocks_never_straddle_a_weight_swap(self):
        """20 Hz hot-swaps between two policies that disagree on one
        observation, singles interleaved so blocks get carried over:
        all rows of every block come from ONE weight version."""
        # (The agent seed does not reach the weight initializer, so the
        # second policy is the first with every weight negated.)
        agents = [_dqn(), _dqn()]
        agents[1].set_weights(-np.asarray(agents[0].get_weights(flat=True)))
        probe = next(o for o in _obs_stream(200, seed=21)
                     if len({_greedy_reference(a, [o])[0]
                             for a in agents}) == 2)
        weights = [np.array(a.get_weights(flat=True), copy=True)
                   for a in agents]
        answers = {_greedy_reference(a, [probe])[0] for a in agents}
        server = PolicyServer(_dqn(seed=3), max_batch_size=32,
                              batch_window=0.0)
        stop = threading.Event()
        failures: list = []

        def swapper():
            i = 0
            while not stop.is_set():
                i += 1
                server.set_weights(weights[i % 2], wait=True)
                stop.wait(0.05)

        def singles():
            client = PolicyClient(server)
            while not stop.is_set():
                if int(client.act(probe)) not in answers:
                    failures.append("single: unknown action")

        threads = [threading.Thread(target=swapper),
                   threading.Thread(target=singles)]
        for thread in threads:
            thread.start()
        client = PolicyClient(server)
        block = np.repeat(probe[None], 24, axis=0)
        seen = set()
        t_end = time.perf_counter() + 1.5
        try:
            while time.perf_counter() < t_end:
                for ref in [server.submit_block(block) for _ in range(3)]:
                    rows = set(np.asarray(ref.result(10.0)).tolist())
                    assert len(rows) == 1, f"torn block: {rows}"
                    seen |= rows
                # act_many(48): a 32-row and a 16-row block, each uniform.
                served = [int(a) for a in client.act_many(
                    np.repeat(probe[None], 48, axis=0))]
                assert len(set(served[:32])) == 1
                assert len(set(served[32:])) == 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            server.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert seen == answers          # both versions were served
        assert server.stats.errors == 0
        assert server.stats.as_dict()["weight_swaps"] >= 10


class TestLatencyWindow:
    """Latency windows keep the most RECENT samples for each of their
    three owners (they used to stop recording once full, freezing
    p50/p99 at their start-up values), and the request counts stay
    exact."""

    @pytest.mark.parametrize("owner", [ServerStats, PolicyClient,
                                       RouteStats],
                             ids=["server", "client", "route"])
    def test_percentiles_follow_recent_traffic(self, owner):
        cap = owner.MAX_LATENCY_SAMPLES
        latencies = [0.001] * cap + [1.0] * (cap + 7)
        if owner is ServerStats:
            stats = ServerStats()
            stats.record_batch(32, latencies[:cap])
            stats.record_batch(32, latencies[cap:])
            assert stats.latency(50) == 1.0
            assert stats.as_dict()["p50_latency_ms"] == 1000.0
            assert stats.batches == 2           # exact counters unchanged
        elif owner is PolicyClient:
            handle = raylite.remote(PolicyServerActor).remote(_dqn_factory)
            client = PolicyClient(handle)
            for latency in latencies:
                client._latency.add(latency)
            assert client.latency(50) == 1.0
            assert len(client.latencies) == cap
            assert client.num_requests == 2 * cap + 7
        else:
            route = RouteStats()
            for latency in latencies:
                route.record(200, latency)
            assert route.snapshot()["p50_ms"] == 1000.0
            assert route.requests == 2 * cap + 7


# ---------------------------------------------------------------------------
# Mid-traffic weight hot-swap
# ---------------------------------------------------------------------------
class TestHotSwap:
    def _hammer(self, server, num_clients, stop, failures, counter):
        obs = _obs_stream(num_clients, seed=9)

        def loop(i):
            client = PolicyClient(server)
            while not stop.is_set():
                try:
                    action = int(client.act(obs[i]))
                except BaseException as exc:  # noqa: BLE001
                    failures.append(exc)
                    return
                if not 0 <= action < NUM_ACTIONS:
                    failures.append(AssertionError(f"bad action {action}"))
                    return
                counter[i] += 1

        threads = [threading.Thread(target=loop, args=(i,), daemon=True)
                   for i in range(num_clients)]
        for t in threads:
            t.start()
        return threads

    def test_swap_under_traffic_drops_nothing(self):
        server = PolicyServer(_dqn(seed=3), max_batch_size=8,
                              batch_window=0.001)
        donor = _dqn(seed=99)
        stop = threading.Event()
        failures: list = []
        counter = [0] * 4
        threads = self._hammer(server, 4, stop, failures, counter)
        time.sleep(0.25)
        before = sum(counter)
        server.set_weights(donor.get_weights(flat=True), wait=True)
        time.sleep(0.25)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        after = sum(counter)
        assert not failures
        assert server.stats.errors == 0
        assert server.stats.as_dict()["weight_swaps"] == 1
        assert before > 0 and after > before  # served through the swap
        # The server now answers exactly like the donor policy.
        probe = _obs_stream(6, seed=31)
        served = [int(server.act(o)) for o in probe]
        assert served == _greedy_reference(donor, probe)
        server.stop()

    def test_failed_swap_is_counted_and_server_keeps_serving(self, caplog):
        """A bad weight push (wrong layout) must fail loudly — counted
        in stats, logged, ref failed — while the server keeps serving
        the previous weights (fire-and-forget pushers would otherwise
        never notice)."""
        server = PolicyServer(_dqn(seed=3), max_batch_size=4)
        probe = _obs_stream(3, seed=2)
        before = [int(server.act(o)) for o in probe]
        ref = server.set_weights(np.zeros(7, np.float32))  # wrong size
        with pytest.raises(Exception):
            ref.result(timeout=10)
        assert [(r.name, r.levelname) for r in caplog.records
                if "hot-swap FAILED" in r.getMessage()] == [
            ("repro.serving.policy_server", "WARNING")]
        assert server.stats.as_dict()["weight_swap_failures"] == 1
        assert server.stats.as_dict()["weight_swaps"] == 0
        assert [int(server.act(o)) for o in probe] == before
        server.stop()

    def test_swap_accepts_dict_weights(self):
        server = PolicyServer(_dqn(seed=3), max_batch_size=4)
        donor = _dqn(seed=42)
        server.set_weights(donor.get_weights(), wait=True)
        probe = _obs_stream(4, seed=8)
        assert [int(server.act(o)) for o in probe] == \
            _greedy_reference(donor, probe)
        server.stop()


# ---------------------------------------------------------------------------
# InferenceWorkerPool (sharded serving)
# ---------------------------------------------------------------------------
class TestWorkerPool:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_parity_and_swap(self, backend):
        obs = _obs_stream(24)
        reference = _greedy_reference(_dqn(), obs)
        pool = InferenceWorkerPool(
            _dqn_factory, FloatBox(shape=(STATE_DIM,)), num_replicas=2,
            max_batch_size=8, batch_window=0.002, parallel_spec=backend)
        served = [int(a) for a in PolicyClient(pool).act_many(obs)]
        assert served == reference
        donor = _dqn(seed=77)
        pool.set_weights(donor.get_weights(flat=True), wait=True)
        probe = _obs_stream(5, seed=17)
        assert [int(pool.act(o)) for o in probe] == \
            _greedy_reference(donor, probe)
        stats = pool.replica_stats()
        assert sum(s["requests_served"] for s in stats) >= len(obs)
        pool.stop()

    def test_least_loaded_routing_signal(self):
        handle = raylite.remote(PolicyServerActor).remote(_dqn_factory)
        assert handle.num_pending() == 0
        ref = handle.act_batch.remote(_obs_stream(4))
        raylite.get(ref)
        assert handle.num_pending() == 0

    def test_remote_client_over_actor_boundary(self):
        obs = _obs_stream(6)
        reference = _greedy_reference(_dqn(), obs)
        handle = raylite.remote(PolicyServerActor).remote(_dqn_factory)
        client = PolicyClient(handle)
        assert [int(client.act(o)) for o in obs] == reference
        assert client.latency_stats()["requests"] == len(obs)

    def test_client_rejects_non_target(self):
        with pytest.raises(RLGraphError, match="neither"):
            PolicyClient(object())

    def test_exploratory_pool_never_pads(self):
        """Like an exploratory PolicyServer, an exploratory pool never
        pads: a phantom row would advance the replica's exploration
        schedule and count as served."""
        pool = InferenceWorkerPool(
            _dqn_factory, FloatBox(shape=(STATE_DIM,)), num_replicas=1,
            max_batch_size=8, explore=True, parallel_spec="thread")
        try:
            assert len(pool.submit_block(_obs_stream(3)).result(10.0)) == 3
            assert pool.replica_stats() == [
                {"batches_served": 1, "requests_served": 3}]
        finally:
            pool.stop()


# ---------------------------------------------------------------------------
# Request conservation: every admitted row ends in exactly one outcome
# ---------------------------------------------------------------------------
def _outcome(ref) -> str:
    """The ServerStats counter a settled request's client outcome
    belongs to."""
    try:
        ref.result(0)
    except OverloadError as exc:
        return "errors" if exc.reason == "replica_lost" else "shed"
    except DeadlineExceededError:
        return "expired"
    except ServerClosedError:
        return "closed"
    except Exception:  # noqa: BLE001 - a failed batch
        return "errors"
    return "served"


def _conservation_run(front, seed, stop_at, kill=None, submitters=4):
    """Open-loop random traffic (singles and blocks, random deadlines),
    ``kill()`` a third of the way in, ``front.stop()`` at ``stop_at``
    while submitters keep going; then check that every future settled
    exactly once and the counters add up."""
    lock = threading.Lock()
    submitted, settles = [], {}
    rejected = [0]
    done = threading.Event()

    def on_settle(ref):
        with lock:
            settles[ref.id] = settles.get(ref.id, 0) + 1

    def submitter(index):
        rng = np.random.default_rng([seed, index])
        while not done.is_set():
            rows = int(rng.integers(1, 5))
            budget = (None, 0.0005, 0.003, 0.05)[int(rng.integers(4))]
            obs = rng.standard_normal((rows, STATE_DIM)).astype(np.float32)
            try:
                ref = (front.submit(obs[0], deadline=budget) if rows == 1
                       else front.submit_block(obs, deadline=budget))
            except OverloadError:
                with lock:
                    rejected[0] += rows
            except ServerClosedError:
                pass
            else:
                ref.add_done_callback(on_settle)
                with lock:
                    submitted.append((ref, rows))
            if rng.random() < 0.3:
                time.sleep(0.0005)

    threads = [threading.Thread(target=submitter, args=(i,), daemon=True)
               for i in range(submitters)]
    for thread in threads:
        thread.start()
    if kill is not None:
        time.sleep(stop_at / 3)
        kill()
    time.sleep(stop_at * (2 / 3 if kill is not None else 1))
    front.stop()
    time.sleep(0.05)
    done.set()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads)
    refs = [ref for ref, _ in submitted]
    _, pending = raylite.wait(refs, num_returns=len(refs), timeout=30.0)
    assert not pending, f"{len(pending)} futures never settled"
    assert all(settles.get(ref.id) == 1 for ref in refs)
    stats = front.stats.as_dict()
    outcomes = {"served": 0, "errors": 0, "shed": 0, "expired": 0,
                "closed": 0}
    for ref, rows in submitted:
        outcomes[_outcome(ref)] += rows
    served = sum(k * v for k, v in stats["batch_size_histogram"].items())
    assert stats["requests"] == sum(rows for _, rows in submitted)
    assert stats["requests"] == (served + stats["errors"] + stats["shed"]
                                 + stats["expired"] + stats["closed"])
    assert outcomes == {"served": served, **{
        key: stats[key] for key in ("errors", "shed", "expired", "closed")}}
    assert stats["rejected"] == rejected[0]
    return stats


class TestRequestConservation:
    """requests == served + errors + shed + expired + closed, and the
    rejected counter matches the OverloadErrors raised at submit, under
    admission, CoDel, short deadlines and a stop mid-traffic."""

    ADMISSION = {"max_queue": 24, "codel_target": 0.0005,
                 "codel_interval": 0.005, "retry_after": 0.001}

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("policy", ["reject", "drop-oldest"])
    def test_server_counts_every_request_once(self, policy, seed):
        server = PolicyServer(_dqn(), max_batch_size=8, batch_window=0.001,
                              admission_spec=dict(self.ADMISSION,
                                                  policy=policy))
        stats = _conservation_run(server, seed, stop_at=0.3)
        assert stats["shed"] + stats["expired"] + stats["rejected"] > 0

    @pytest.mark.chaos
    def test_pool_with_a_killed_replica_counts_every_request_once(self):
        pool = InferenceWorkerPool(
            _dqn_factory, FloatBox(shape=(STATE_DIM,)), num_replicas=2,
            max_batch_size=8, batch_window=0.001, parallel_spec="thread",
            supervision_spec={"base_delay": 0.01},
            admission_spec=dict(self.ADMISSION, policy="drop-oldest"))
        victim = pool.supervisor.handle(pool.supervisor.names()[0])

        def kill():  # with batches queued, so they are lost with it
            deadline = time.perf_counter() + 5.0
            while (victim.num_pending() < 2
                   and time.perf_counter() < deadline):
                time.sleep(0)
            raylite.kill(victim)

        _conservation_run(pool, 7, stop_at=0.9, kill=kill)
        assert pool.supervisor.total_restarts >= 1


# ---------------------------------------------------------------------------
# The one load driver, over its three kinds of target
# ---------------------------------------------------------------------------
class TestLoadDriver:
    KEYS = {"requests", "attempts", "wall_time", "req_per_s", "p50_ms",
            "p99_ms", "overload_errors", "deadline_errors", "shed_rate",
            "deadline_rate", "retries", "stragglers"}

    @pytest.mark.parametrize("kind", ["front_end", "actor", "gateway"])
    def test_counts_every_call_past_the_latency_window(self, kind,
                                                       monkeypatch):
        """``requests`` is every call the clients made, not the size of
        a capped latency window, for every kind of target."""
        monkeypatch.setattr(PolicyClient, "MAX_LATENCY_SAMPLES", 50)
        obs = _obs_stream(2, seed=6)
        if kind == "actor":
            target = raylite.remote(PolicyServerActor).remote(_dqn_factory)
            load = drive_concurrent_load(target, 2, 0.3, observations=obs)
            served = raylite.get(target.get_stats.remote())["requests_served"]
        else:
            server = PolicyServer(_dqn(), max_batch_size=8,
                                  batch_window=0.0)
            try:
                if kind == "gateway":
                    with HttpGateway(server) as gateway:
                        load = drive_concurrent_load(gateway, 2, 0.3,
                                                     observations=obs,
                                                     deadline=1.0)
                else:
                    load = drive_concurrent_load(server, 2, 0.3,
                                                 observations=obs)
            finally:
                server.stop()
            served = server.stats.requests
        assert set(load) == self.KEYS
        assert load["requests"] > 2 * 50
        assert load["requests"] == load["attempts"] == served
        assert load["stragglers"] == 0
        assert load["p50_ms"] <= load["p99_ms"]

    def test_gateway_target_refuses_retry_spec(self):
        server = PolicyServer(_dqn(), max_batch_size=8)
        try:
            with HttpGateway(server) as gateway:
                with pytest.raises(RLGraphError, match="retry_spec"):
                    drive_concurrent_load(gateway, 1, 0.1, retry_spec=2)
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# Serving chaos: replica SIGKILL under live load
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestServingChaos:
    def test_replica_sigkill_zero_dropped_requests_and_parity(self):
        """SIGKILL one process replica under concurrent load: no request
        errors (the supervised pool re-queues the dead replica's batch
        onto live replicas and restarts the slot), and the healed pool
        still serves the exact reference policy."""
        import signal

        pool = InferenceWorkerPool(
            _dqn_factory, FloatBox(shape=(STATE_DIM,)), num_replicas=2,
            max_batch_size=8, batch_window=0.002, parallel_spec="process",
            supervision_spec={"base_delay": 0.05, "max_delay": 0.5,
                              "max_restarts": 5})
        try:
            victim_pid = pool.replicas[0].pid
            timer = threading.Timer(
                1.0, lambda: os.kill(victim_pid, signal.SIGKILL))
            timer.daemon = True
            timer.start()
            # Raises if ANY client saw an error — the zero-dropped-
            # requests assertion is the driver's own contract.
            load = drive_concurrent_load(pool, num_clients=4, duration=3.0)
            timer.join()
            assert load["requests"] > 0
            assert pool.stats.errors == 0
            assert pool.supervisor.total_restarts >= 1
            assert all(h.is_alive() for h in pool.replicas)
            # Post-restart action parity with an unkilled reference.
            obs = _obs_stream(20, seed=77)
            served = [int(pool.act(o, timeout=30.0)) for o in obs]
            assert served == _greedy_reference(_dqn(), obs)
        finally:
            pool.stop()

    def test_replica_sigkill_requeues_whole_blocks(self):
        """SIGKILL one process replica while clients loop ``act_many``:
        a block lost with the replica is re-queued WHOLE, so every call
        still returns every row, in order, with exact parity."""
        import signal

        pool = InferenceWorkerPool(
            _dqn_factory, FloatBox(shape=(STATE_DIM,)), num_replicas=2,
            max_batch_size=8, batch_window=0.002, parallel_spec="process",
            supervision_spec={"base_delay": 0.05, "max_delay": 0.5,
                              "max_restarts": 5})
        obs = _obs_stream(20, seed=41)       # 8 + 8 + 4 rows per call
        reference = _greedy_reference(_dqn(), obs)
        stop = threading.Event()
        failures: list = []
        calls = [0, 0, 0]

        def loop(i):
            client = PolicyClient(pool, timeout=30.0)
            while not stop.is_set():
                try:
                    served = [int(a) for a in client.act_many(obs)]
                except BaseException as exc:  # noqa: BLE001
                    failures.append(exc)
                    return
                if served != reference:
                    failures.append(AssertionError(f"rows lost: {served}"))
                    return
                calls[i] += 1

        try:
            victim_pid = pool.replicas[0].pid
            threads = [threading.Thread(target=loop, args=(i,))
                       for i in range(len(calls))]
            for thread in threads:
                thread.start()
            time.sleep(1.0)
            os.kill(victim_pid, signal.SIGKILL)
            time.sleep(2.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures[0]
            assert all(calls)
            assert pool.stats.errors == 0
            assert pool.stats.requests == sum(calls) * len(obs)
            assert pool.supervisor.total_restarts >= 1
            assert pool.outstanding() == 0
        finally:
            stop.set()
            pool.stop()


# ---------------------------------------------------------------------------
# Eval-during-training hook
# ---------------------------------------------------------------------------
class TestEvalDuringTraining:
    def test_sync_batch_executor_pushes_to_server(self):
        from repro.environments import GridWorld
        from repro.execution import SyncBatchExecutor

        def agent_factory(worker_index=0):
            return ActorCriticAgent(
                state_space=FloatBox(shape=(16,)), action_space=IntBox(4),
                network_spec=[{"type": "dense", "units": 8,
                               "activation": "tanh"}], seed=2)

        def env_factory(seed):
            return GridWorld("4x4", max_steps=20, seed=seed)

        learner = agent_factory()
        server = PolicyServer(agent_factory(), max_batch_size=4,
                              batch_window=0.001)
        # The plain `weight_listeners=[server]` push is fire-and-forget;
        # block on each swap here so the post-run assertions are not
        # racing the server's mailbox.
        executor = SyncBatchExecutor(
            learner, agent_factory, env_factory, num_workers=1,
            envs_per_worker=1, rollout_length=8,
            weight_listeners=[lambda w: server.set_weights(w, wait=True)])
        executor.execute_workload(num_iterations=2)
        # The serving agent tracks the learner exactly (flat push path).
        np.testing.assert_array_equal(server.agent.get_weights(flat=True),
                                      learner.get_weights(flat=True))
        assert server.stats.as_dict()["weight_swaps"] == 2
        # ... and is still serving.
        assert 0 <= int(server.act(np.zeros(16, np.float32))) < 4
        server.stop()

    def test_impala_runner_publish_notifies_listeners(self):
        from repro.agents import IMPALAAgent
        from repro.environments import GridWorld
        from repro.execution.impala_runner import IMPALARunner

        def agent_factory():
            return IMPALAAgent(
                state_space=FloatBox(shape=(16,)), action_space=IntBox(4),
                network_spec=[{"type": "dense", "units": 8,
                               "activation": "tanh"}], seed=4)

        pushed = []
        runner = IMPALARunner(
            learner_agent=agent_factory(), agent_factory=agent_factory,
            env_factory=lambda seed: GridWorld("4x4", max_steps=20,
                                               seed=seed),
            num_actors=1, weight_listeners=[pushed.append])
        runner._publish_weights()
        assert len(pushed) == 1
        np.testing.assert_array_equal(
            pushed[0], runner.learner.get_weights(flat=True))


# ---------------------------------------------------------------------------
# Throughput acceptance (core-count-gated; recorded-only on 1 core)
# ---------------------------------------------------------------------------
class TestThroughput:
    def _measure(self, server, num_clients, duration=0.6):
        load = drive_concurrent_load(server, num_clients, duration,
                                     observations=_obs_stream(num_clients,
                                                              seed=1))
        return load["req_per_s"]

    def test_batched_vs_unbatched_throughput(self):
        """With >= 4 concurrent clients, micro-batching must sustain
        >= 2x the req/s of unbatched single-call serving — asserted on
        >= 4 cores, recorded-only on fewer (per the repo's core-count
        gating; even 1 core usually shows the win, since the gain is
        per-call overhead amortization, not parallelism)."""
        num_clients = 6
        # A wider net makes the per-call overhead vs batch-compute
        # contrast realistic rather than degenerate.
        unbatched_server = PolicyServer(_dqn(units=64), max_batch_size=1,
                                        batch_window=0.0)
        unbatched = self._measure(unbatched_server, num_clients)
        unbatched_server.stop()
        batched_server = PolicyServer(_dqn(units=64), max_batch_size=16,
                                      batch_window=0.0)
        batched = self._measure(batched_server, num_clients)
        mean_batch = batched_server.stats.mean_batch_size
        batched_server.stop()
        ratio = batched / unbatched if unbatched else float("inf")
        print(f"\nserving throughput ({num_clients} clients, {CORES} cores): "
              f"unbatched {unbatched:.0f} req/s, batched {batched:.0f} req/s "
              f"({ratio:.2f}x, mean batch {mean_batch:.1f})")
        assert mean_batch > 1.5  # batching engaged under concurrency
        if CORES >= 4:
            assert ratio >= 2.0, (
                f"batched serving only {ratio:.2f}x unbatched on "
                f"{CORES} cores")


# ---------------------------------------------------------------------------
# Overload integration on real agents (mechanics live in test_overload.py)
# ---------------------------------------------------------------------------
class TestServingOverloadIntegration:
    def test_pool_with_bounded_queue_rejects_then_recovers(self):
        from repro.serving import OverloadError

        pool = InferenceWorkerPool(
            _dqn_factory, FloatBox(shape=(STATE_DIM,)), num_replicas=2,
            max_batch_size=8, batch_window=0.002, parallel_spec="thread",
            admission_spec={"max_queue": 16, "retry_after": 0.01})
        try:
            obs = _obs_stream(64, seed=5)
            admitted, rejected = [], 0
            for o in obs:
                for _ in range(8):   # 8x the queue bound, instantly
                    try:
                        admitted.append(pool.submit(o))
                    except OverloadError as exc:
                        assert exc.reason == "queue_full"
                        rejected += 1
            for ref in admitted:
                ref.result(30.0)
            assert rejected > 0
            assert pool.stats.as_dict()["rejected"] == rejected
            # Back under load: normal requests flow with exact parity.
            probe = _obs_stream(10, seed=23)
            assert [int(pool.act(o, timeout=30.0)) for o in probe] == \
                _greedy_reference(_dqn(), probe)
        finally:
            pool.stop()

    def test_metrics_snapshot_contract(self):
        server = PolicyServer(_dqn(), max_batch_size=8, batch_window=0.001,
                              admission_spec={"max_queue": 32})
        try:
            client = PolicyClient(server)
            for o in _obs_stream(12, seed=3):
                client.act(o)
            snap = server.metrics_snapshot()
            assert snap["requests"] == 12
            assert snap["queue_depth"] == 0
            assert snap["max_queue"] == 32
            assert snap["admission_policy"] == "reject"
            assert snap["running"] is True
            hist = snap["batch_size_histogram"]
            assert sum(k * v for k, v in hist.items()) == 12
            for key in ("rejected", "shed", "expired", "retries"):
                assert snap[key] == 0
        finally:
            server.stop()
        assert server.metrics_snapshot()["running"] is False

    def test_client_deadline_reaches_inprocess_server(self):
        from repro.serving import DeadlineExceededError

        server = PolicyServer(_dqn(), max_batch_size=4, batch_window=0.0)
        try:
            client = PolicyClient(server, timeout=5.0)
            # A pre-expired budget fails typed BEFORE any batch slot is
            # spent — proving the deadline rode submit() end to end.
            ref = client.submit(_obs_stream(1)[0], deadline=0.0)
            with pytest.raises(DeadlineExceededError):
                ref.result(5.0)
            assert server.stats.as_dict()["expired"] == 1
        finally:
            server.stop()
