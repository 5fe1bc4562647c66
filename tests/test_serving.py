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
    InferenceWorkerPool,
    PolicyClient,
    PolicyServer,
    PolicyServerActor,
    bucket_size,
    drive_concurrent_load,
)
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
    """Latency buffers keep the most RECENT window (they used to stop
    recording once full, freezing p50/p99 at their start-up values)."""

    def test_server_percentiles_follow_recent_traffic(self):
        stats = ServerStats()
        cap = ServerStats.MAX_LATENCY_SAMPLES
        stats.record_batch(32, [0.001] * cap)
        stats.record_batch(32, [1.0] * (cap + 7))
        assert stats.latency(50) == 1.0
        assert stats.as_dict()["p50_latency_ms"] == 1000.0
        assert stats.batches == 2           # exact counters unchanged

    def test_client_percentiles_follow_recent_traffic(self):
        handle = raylite.remote(PolicyServerActor).remote(_dqn_factory)
        client = PolicyClient(handle)
        cap = PolicyClient.MAX_LATENCY_SAMPLES
        for _ in range(cap):
            client._record(0.001)
        for _ in range(cap + 7):
            client._record(1.0)
        assert client.latency(50) == 1.0
        assert len(client.latencies) == cap
        assert client.num_requests == 2 * cap + 7


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

    def test_failed_swap_is_counted_and_server_keeps_serving(self):
        """A bad weight push (wrong layout) must fail loudly — counted
        in stats, ref failed — while the server keeps serving the
        previous weights (fire-and-forget pushers would otherwise never
        notice)."""
        server = PolicyServer(_dqn(seed=3), max_batch_size=4)
        probe = _obs_stream(3, seed=2)
        before = [int(server.act(o)) for o in probe]
        ref = server.set_weights(np.zeros(7, np.float32))  # wrong size
        with pytest.raises(Exception):
            ref.result(timeout=10)
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
