"""Execution-layer tests: n-step accumulation, workers, the Ape-X
executor on raylite, the IMPALA runner, and the baselines."""

import threading

import numpy as np
import pytest

from repro import raylite
from repro.agents import ApexAgent, DQNAgent, IMPALAAgent
from repro.backend import XGRAPH, XTAPE
from repro.baselines import (
    DMReferenceIMPALARunner,
    HandTunedActor,
    RLlibLikeApexExecutor,
)
from repro.environments import GridWorld, RandomEnv, SequentialVectorEnv, SimPong
from repro.execution import (
    LearnerReplicaActor,
    NStepAccumulator,
    SingleThreadedWorker,
)
from repro.execution.impala_runner import (
    IMPALAActorCore,
    IMPALARunner,
    _merge_rollouts,
)
from repro.execution.ray import ApexExecutor, ApexWorkerActor
from repro.execution.sync_batch_executor import A2CRolloutActor
from repro.execution.worker import batched_n_step, build_agent
from repro.serving.worker_pool import PolicyServerActor
from repro.spaces import FloatBox, IntBox
from repro.utils import RLGraphError


def teardown_module(module):
    raylite.shutdown()


# ---------------------------------------------------------------------------
# n-step post-processing
# ---------------------------------------------------------------------------
class TestNStepAccumulator:
    def test_one_step_passthrough(self):
        acc = NStepAccumulator(1, 0.9)
        out = acc.push("s0", 1, 1.0, False, "s1")
        assert out == [("s0", 1, 1.0, False, "s1")]

    def test_three_step_window(self):
        acc = NStepAccumulator(3, 0.5)
        assert acc.push("s0", 0, 1.0, False, "s1") == []
        assert acc.push("s1", 0, 1.0, False, "s2") == []
        out = acc.push("s2", 0, 1.0, False, "s3")
        assert len(out) == 1
        s, a, r, t, ns = out[0]
        assert s == "s0" and ns == "s3"
        assert r == pytest.approx(1 + 0.5 + 0.25)
        assert not t

    def test_terminal_flushes_short_windows(self):
        acc = NStepAccumulator(3, 0.5)
        acc.push("s0", 0, 1.0, False, "s1")
        out = acc.push("s1", 0, 2.0, True, "s2")
        assert len(out) == 2
        # First sample spans both steps: 1 + 0.5*2 = 2, terminal.
        assert out[0][2] == pytest.approx(2.0) and out[0][3]
        assert out[0][4] == "s2"
        # Second sample is the final step alone.
        assert out[1][0] == "s1" and out[1][2] == pytest.approx(2.0)

    def test_invalid_n_step(self):
        with pytest.raises(RLGraphError):
            NStepAccumulator(0, 0.9)

    def test_batched_matches_streaming(self):
        """Vectorized n-step must agree with the streaming accumulator on
        windows that fit inside the block."""
        rng = np.random.default_rng(0)
        t_steps, n_envs, n_step, gamma = 12, 3, 3, 0.9
        states = rng.standard_normal((t_steps, n_envs, 2)).astype(np.float32)
        next_states = rng.standard_normal((t_steps, n_envs, 2)).astype(np.float32)
        actions = rng.integers(0, 4, (t_steps, n_envs))
        rewards = rng.normal(size=(t_steps, n_envs)).astype(np.float32)
        terminals = rng.random((t_steps, n_envs)) < 0.15

        s, a, r, t, ns = batched_n_step(states, actions, rewards, terminals,
                                        next_states, n_step, gamma)
        r_grid = r.reshape(t_steps, n_envs)
        t_grid = t.reshape(t_steps, n_envs)
        ns_grid = ns.reshape(t_steps, n_envs, 2)

        for e in range(n_envs):
            acc = NStepAccumulator(n_step, gamma)
            emitted = {}
            order = []
            for step in range(t_steps):
                ready = acc.push(step, actions[step, e], rewards[step, e],
                                 terminals[step, e], next_states[step, e])
                for (start, _, rr, tt, nn) in ready:
                    emitted[start] = (rr, tt, nn)
            for start, (rr, tt, nn) in emitted.items():
                np.testing.assert_allclose(r_grid[start, e], rr, atol=1e-5)
                assert t_grid[start, e] == tt
                np.testing.assert_allclose(ns_grid[start, e], nn, atol=1e-6)


# ---------------------------------------------------------------------------
# SingleThreadedWorker
# ---------------------------------------------------------------------------
def _make_worker(backend=XGRAPH, num_envs=2, **worker_kwargs):
    env_fns = [lambda i=i: GridWorld(seed=i) for i in range(num_envs)]
    vec = SequentialVectorEnv(env_fns=env_fns)
    agent = DQNAgent(state_space=vec.state_space,
                     action_space=vec.action_space,
                     network_spec=[{"type": "dense", "units": 16}],
                     memory_capacity=512, batch_size=8, backend=backend,
                     seed=0)
    return SingleThreadedWorker(agent, vec, **worker_kwargs)


class TestSingleThreadedWorker:
    @pytest.mark.parametrize("batched", [True, False])
    def test_collect_samples_shapes(self, batched):
        worker = _make_worker(batched_postprocessing=batched, n_step=3,
                              discount=0.9)
        batch = worker.collect_samples(40)
        n = len(batch["rewards"])
        assert n > 0
        assert batch["states"].shape == (n, 16)
        assert batch["next_states"].shape == (n, 16)
        assert batch["terminals"].dtype == bool
        assert worker.stats.env_frames == 40

    def test_worker_side_prioritization_adds_priorities(self):
        worker = _make_worker(worker_side_prioritization=True, n_step=1)
        batch = worker.collect_samples(20)
        assert "priorities" in batch
        assert np.all(batch["priorities"] > 0)

    def test_batched_mode_fewer_api_calls(self):
        """The batched worker issues O(T) executor calls; the incremental
        one O(T * E) plus per-sample priority calls."""
        fast = _make_worker(worker_side_prioritization=True,
                            batched_postprocessing=True)
        slow = _make_worker(worker_side_prioritization=True,
                            batched_postprocessing=False)
        fast.collect_samples(40)
        slow.collect_samples(40)
        # xgraph backend counts session runs directly.
        fast_runs = fast.agent.graph.session.stats.run_calls
        slow_runs = slow.agent.graph.session.stats.run_calls
        assert slow_runs > fast_runs * 1.5

    def test_execute_timesteps_trains(self):
        worker = _make_worker()
        stats = worker.execute_timesteps(600, update_interval=8,
                                         update_after=100)
        assert stats.env_frames == 600
        assert worker.agent.updates > 0
        assert stats.frames_per_second > 0


# ---------------------------------------------------------------------------
# Ape-X executor on raylite
# ---------------------------------------------------------------------------
def _apex_setup(num_workers=2, executor_cls=ApexExecutor, backend=XGRAPH,
                **kwargs):
    def env_factory(seed):
        return GridWorld(seed=seed)

    def agent_factory():
        return ApexAgent(state_space=(16,), action_space=IntBox(4),
                         network_spec=[{"type": "dense", "units": 16}],
                         backend=backend, seed=1)

    learner = agent_factory()
    executor = executor_cls(
        learner_agent=learner, agent_factory=agent_factory,
        env_factory=env_factory, num_workers=num_workers, envs_per_worker=2,
        num_replay_shards=2, task_size=40, batch_size=16,
        replay_capacity=4096, learning_starts=80, weight_sync_steps=5,
        **kwargs)
    return executor


class TestApexExecutor:
    def test_collects_and_updates(self):
        executor = _apex_setup()
        result = executor.execute_workload(num_samples=400)
        assert result.env_frames > 0
        assert result.learner_updates > 0
        assert result.env_frames_per_second > 0
        d = result.as_dict()
        assert set(d) >= {"env_frames", "learner_updates", "wall_time"}

    def test_throughput_only_mode(self):
        executor = _apex_setup()
        result = executor.execute_workload(num_samples=300,
                                           updates_enabled=False)
        assert result.learner_updates == 0
        assert result.env_frames > 0

    def test_rllib_like_baseline_runs(self):
        executor = _apex_setup(executor_cls=RLlibLikeApexExecutor)
        result = executor.execute_workload(num_samples=200)
        assert result.env_frames > 0

    def test_invalid_worker_mode(self):
        with pytest.raises(RLGraphError):
            ApexExecutor(learner_agent=None, agent_factory=None,
                         env_factory=None, worker_mode="bogus")


@pytest.mark.mp_timeout(180)
class TestProcessBackendExecutors:
    """parallel_spec="process": the same coordination loops on raylite
    process actors with shared-memory sample/weight transport."""

    def test_apex_process_backend_collects_and_updates(self):
        executor = _apex_setup(parallel_spec={"backend": "process",
                                              "env_backend": "subproc"})
        try:
            result = executor.execute_workload(num_samples=300)
            assert result.env_frames > 0
            assert result.learner_updates > 0
        finally:
            raylite.shutdown()

    def test_impala_process_backend_runs_and_updates(self):
        runner = _impala_setup(parallel_spec="process")
        try:
            result = runner.run(duration=2.0)
            assert result["env_frames"] > 0
            assert result["learner_updates"] > 0
            assert all(np.isfinite(l) for l in result["losses"])
            assert 0 <= result["policy_lag_mean"] <= result["policy_lag_max"]
        finally:
            raylite.shutdown()

    def test_sync_batch_process_backend(self):
        from repro.agents import ActorCriticAgent
        from repro.execution import SyncBatchExecutor

        def env_factory(seed):
            return GridWorld(seed=seed)

        def agent_factory(worker_index=0):
            return ActorCriticAgent(
                state_space=(16,), action_space=IntBox(4),
                network_spec=[{"type": "dense", "units": 16,
                               "activation": "tanh"}], seed=5)

        executor = SyncBatchExecutor(
            learner_agent=agent_factory(), agent_factory=agent_factory,
            env_factory=env_factory, num_workers=2, envs_per_worker=2,
            rollout_length=8, parallel_spec="process")
        try:
            result = executor.execute_workload(num_iterations=3)
            assert result["env_frames"] == 3 * 2 * 2 * 8
            assert result["learner_updates"] == 3
        finally:
            raylite.shutdown()


# ---------------------------------------------------------------------------
# IMPALA runner
# ---------------------------------------------------------------------------
def _impala_env_factory(seed):
    return GridWorld(seed=seed)


def _impala_agent_factory(backend=XGRAPH):
    return IMPALAAgent(state_space=(16,), action_space=IntBox(4),
                       network_spec=[{"type": "dense", "units": 16,
                                      "activation": "tanh"}],
                       backend=backend, seed=2)


def _impala_setup(runner_cls=IMPALARunner, num_actors=2, backend=XGRAPH,
                  **kwargs):
    def agent_factory():
        return _impala_agent_factory(backend)

    learner = agent_factory()
    return runner_cls(learner_agent=learner, agent_factory=agent_factory,
                      env_factory=_impala_env_factory, num_actors=num_actors,
                      rollout_length=8, batch_size=2, **kwargs)


def _assert_rollouts_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert a[key].dtype == b[key].dtype, key
            np.testing.assert_array_equal(a[key], b[key], err_msg=key)
        else:
            assert a[key] == b[key], key


class TestIMPALARunner:
    def test_runs_and_updates(self):
        runner = _impala_setup()
        result = runner.run(duration=2.0)
        assert result["env_frames"] > 0
        assert result["learner_updates"] > 0
        assert all(np.isfinite(l) for l in result["losses"])
        assert 0 <= result["policy_lag_mean"] <= result["policy_lag_max"]

    @pytest.mark.mp_timeout(120)
    def test_supervised_thread_actor_survives_a_kill(self):
        runner = _impala_setup(num_actors=1, supervision_spec={
            "base_delay": 0.05, "max_delay": 0.5, "max_restarts": 5})
        updates_at_kill = []

        def kill():
            updates_at_kill.append(runner._weights_version)
            raylite.kill(runner.supervisor.handle("impala-actor-0"))

        timer = threading.Timer(1.0, kill)
        timer.daemon = True
        timer.start()
        try:
            result = runner.run(duration=3.0)
            timer.join()
        finally:
            raylite.shutdown()
        assert result["restarts"] >= 1
        assert result["supervision_failures"] == []
        # The only actor was killed: updates after the kill come from
        # its restarted incarnation.
        assert result["learner_updates"] > updates_at_kill[0]

    @pytest.mark.mp_timeout(120)
    def test_first_rollout_identical_across_backends(self):
        rollouts = {}
        for backend in ("thread", "process"):
            runner = _impala_setup(num_actors=1, parallel_spec=backend)
            try:
                rollouts[backend] = raylite.get(
                    runner.actor_handles[0].rollout.remote())
            finally:
                raylite.shutdown()
        _assert_rollouts_equal(rollouts["thread"], rollouts["process"])

    def test_redundant_assignments_leave_the_rollout_unchanged(self):
        clean, redundant = (
            IMPALAActorCore(0, _impala_agent_factory, _impala_env_factory,
                            rollout_length=8, num_envs=2,
                            redundant_assignments=flag)
            for flag in (False, True))
        for _ in range(3):
            _assert_rollouts_equal(clean.rollout(), redundant.rollout())

    def test_merge_rollouts_shapes(self):
        t, e = 4, 2
        item = {
            "states": np.zeros((t, e, 3)), "actions": np.zeros((t, e), int),
            "behaviour_log_probs": np.zeros((t, e), np.float32),
            "rewards": np.zeros((t, e), np.float32),
            "terminals": np.zeros((t, e), bool),
            "bootstrap_states": np.zeros((e, 3)),
        }
        merged = _merge_rollouts([item, item])
        assert merged["states"].shape == (t, 2 * e, 3)
        assert merged["bootstrap_states"].shape == (2 * e, 3)
        with pytest.raises(RLGraphError):
            _merge_rollouts([])

    def test_dm_reference_baseline_slower_acting(self):
        # Wall-clock comparisons flake under load; retry once and use a
        # lenient bound here (the strict 20% claim is asserted in
        # benchmarks/test_bench_impala_assignments.py).
        for attempt in range(2):
            fast = _impala_setup(num_actors=1)
            slow = _impala_setup(runner_cls=DMReferenceIMPALARunner,
                                 num_actors=1)
            r_fast = fast.run(duration=2.0, updates_enabled=False)
            r_slow = slow.run(duration=2.0, updates_enabled=False)
            if r_fast["env_frames"] > r_slow["env_frames"] * 0.9:
                break
        assert r_fast["env_frames"] > r_slow["env_frames"] * 0.9


# ---------------------------------------------------------------------------
# Agent construction in every actor class
# ---------------------------------------------------------------------------
class TestBuildAgent:
    def test_worker_index_follows_the_signature(self):
        assert build_agent(lambda: "bare", 3) == "bare"
        assert build_agent(lambda worker_index: worker_index, 3) == 3
        assert build_agent(lambda **kw: kw, 3) == {"worker_index": 3}

    @pytest.mark.parametrize("build", [
        lambda f: A2CRolloutActor(f, None, worker_index=1),
        lambda f: ApexWorkerActor(f, None, worker_index=1),
        lambda f: LearnerReplicaActor(f, rank=1, world_size=2),
        lambda f: IMPALAActorCore(1, f, None),
        lambda f: PolicyServerActor(f, replica_index=1),
    ], ids=["a2c", "apex", "learner", "impala", "serving"])
    def test_factory_type_error_reaches_the_caller(self, build):
        """A factory's own TypeError is not mistaken for "takes no
        worker_index": it is called once, and its error propagates."""
        calls = []

        def factory(worker_index=0):
            calls.append(worker_index)
            if worker_index == 1:
                raise TypeError("factory bug for worker 1")
            return object()

        with pytest.raises(TypeError, match="factory bug"):
            build(factory)
        assert calls == [1]


# ---------------------------------------------------------------------------
# Hand-tuned actor
# ---------------------------------------------------------------------------
class TestHandTunedActor:
    def test_matches_agent_greedy_actions(self):
        env = SimPong(size=16, seed=0)
        agent = DQNAgent(
            state_space=env.state_space, action_space=env.action_space,
            preprocessing_spec=[{"type": "divide", "divisor": 255.0}],
            network_spec=[
                {"type": "conv2d", "filters": 4, "kernel_size": 4,
                 "stride": 2},
                {"type": "dense", "units": 16},
            ],
            dueling=True, backend=XGRAPH, seed=4)
        actor = HandTunedActor.from_agent(agent)
        frames = np.stack([env.reset() for _ in range(3)])
        fast_actions = actor.act(frames)
        agent_actions, _ = agent.get_actions(frames, explore=False)
        np.testing.assert_array_equal(fast_actions, agent_actions)
