"""Chaos suite: SIGKILL process actors mid-run and assert the runs
complete with learning intact.

Each test kills a real worker process (``os.kill(handle.pid, SIGKILL)``
— no cooperation from the victim) while the coordination loop is live,
then asserts (a) the workload finishes, (b) the supervisor restarted the
slot, (c) updates kept flowing and no weight version was lost.  The
timer fires well inside a duration-bounded workload so the kill always
lands mid-run.  Everything sits under the ``mp_timeout`` SIGALRM guard:
a recovery deadlock fails fast instead of wedging CI.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import raylite
from repro.agents import ApexAgent, IMPALAAgent
from repro.environments import GridWorld
from repro.execution.impala_runner import IMPALARunner
from repro.execution.ray import ApexExecutor
from repro.spaces import IntBox

pytestmark = [pytest.mark.chaos, pytest.mark.mp_timeout(240)]

# Fast, bounded backoff so a restart completes well inside the workload.
SUPERVISION = {"base_delay": 0.05, "factor": 2.0, "max_delay": 0.5,
               "max_restarts": 5}


# Module-level factories: process actors must be able to ship their
# construction recipe to a fresh worker process on every (re)start.
def _env_factory(seed):
    return GridWorld(seed=seed)


def _apex_agent_factory():
    return ApexAgent(state_space=(16,), action_space=IntBox(4),
                     network_spec=[{"type": "dense", "units": 16}], seed=1)


def _impala_agent_factory():
    return IMPALAAgent(state_space=(16,), action_space=IntBox(4),
                       network_spec=[{"type": "dense", "units": 16,
                                      "activation": "tanh"}], seed=2)


def _sigkill_later(pid_fn, delay):
    """Arm a SIGKILL against ``pid_fn()`` after ``delay`` seconds."""
    def _fire():
        try:
            os.kill(pid_fn(), signal.SIGKILL)
        except (ProcessLookupError, OSError):
            pass
    timer = threading.Timer(delay, _fire)
    timer.daemon = True
    timer.start()
    return timer


class TestApexChaos:
    def test_sigkill_worker_mid_run_recovers(self):
        executor = ApexExecutor(
            learner_agent=_apex_agent_factory(),
            agent_factory=_apex_agent_factory, env_factory=_env_factory,
            num_workers=2, envs_per_worker=2, num_replay_shards=2,
            task_size=40, batch_size=16, replay_capacity=4096,
            learning_starts=80, weight_sync_steps=5,
            parallel_spec="process", supervision_spec=SUPERVISION)
        timer = _sigkill_later(lambda: executor.workers[0].pid, 1.5)
        try:
            result = executor.execute_workload(duration=6.0)
            timer.join()
            # The run completed and kept learning through the kill.
            assert result.env_frames > 0
            assert result.learner_updates > 0
            assert all(np.isfinite(loss)
                       for _, loss in result.loss_timeline)
            # Reward trend intact: workers still reported episodes.
            assert result.mean_worker_return is not None
            # The supervisor actually restarted the murdered slot, and
            # every slot ends the run alive.
            assert executor.supervisor.total_restarts >= 1
            names = [e.name for e in executor.supervisor.restart_history]
            assert any(n.startswith("apex-worker") for n in names)
            assert all(h.is_alive() for h in executor.supervisor.handles())
        finally:
            raylite.shutdown()


class TestImpalaChaos:
    def test_sigkill_actor_mid_run_recovers(self):
        runner = IMPALARunner(
            learner_agent=_impala_agent_factory(),
            agent_factory=_impala_agent_factory, env_factory=_env_factory,
            num_actors=2, envs_per_actor=1, rollout_length=10,
            batch_size=2, parallel_spec="process",
            supervision_spec=SUPERVISION)
        timer = _sigkill_later(lambda: runner.actor_handles[0].pid, 1.5)
        try:
            result = runner.run(duration=6.0)
            timer.join()
            assert result["env_frames"] > 0
            assert result["learner_updates"] > 0
            assert all(np.isfinite(loss) for loss in result["losses"])
            # The kill was absorbed by a restart, not a budget blow-up.
            assert result["restarts"] >= 1
            assert result["supervision_failures"] == []
            # No lost weight versions: every update published exactly
            # one version, kill or no kill.
            assert runner._weights_version == result["learner_updates"]
        finally:
            raylite.shutdown()


def _dqn_learner_factory(worker_index=0):
    return ApexAgent(state_space=(16,), action_space=IntBox(4),
                     network_spec=[{"type": "dense", "units": 16}], seed=5)


class TestLearnerGroupChaos:
    def test_sigkill_learner_replica_mid_run_recovers(self):
        """Kill one learner replica mid-round: the group restarts it,
        re-pushes flat weights out of block 0, retries the round, and
        the update stream continues uninterrupted."""
        from repro.execution.learner_group import LearnerGroup

        group = LearnerGroup(_dqn_learner_factory(), _dqn_learner_factory,
                             spec=2, parallel_spec="process",
                             supervision_spec=SUPERVISION)
        rng = np.random.default_rng(11)

        def batch(n=24):
            return {
                "states": rng.standard_normal((n, 16)).astype(np.float32),
                "actions": rng.integers(0, 4, n),
                "rewards": rng.standard_normal(n).astype(np.float32),
                "terminals": rng.random(n) < 0.2,
                "next_states": rng.standard_normal(
                    (n, 16)).astype(np.float32),
            }

        timer = _sigkill_later(lambda: group.replicas[1].pid, 0.5)
        try:
            losses = []
            deadline = time.perf_counter() + 8.0
            while time.perf_counter() < deadline and len(losses) < 60:
                loss, td = group.update(batch())
                losses.append(loss)
            timer.join()
            # One more round AFTER the kill definitely landed.
            loss, td = group.update(batch())
            losses.append(loss)
            assert group.restarts >= 1
            assert all(np.isfinite(loss) for loss in losses)
            # No update was lost to the kill: the driver counter matches
            # rank 0's applied-step count exactly.
            assert group.updates == len(losses)
            assert np.all(np.isfinite(group.get_weights(flat=True)))
            names = [e.name for e in group.supervisor.restart_history]
            assert any(n.startswith("learner-") for n in names)
        finally:
            group.shutdown()
            raylite.shutdown()


# ---------------------------------------------------------------------------
# Serving gateway under overload + replica death
# ---------------------------------------------------------------------------
class TestGatewayChaos:
    def test_sigkill_replica_while_gateway_sheds(self):
        """SIGKILL one process replica while the HTTP gateway is
        rejecting excess load behind a tiny bounded queue.

        The contract under simultaneous overload + failure: zero hung
        requests — every single request resolves, within its deadline,
        to a success (200), a typed overload rejection (503), or a
        deadline expiry (504); nothing else, and nothing blocks past
        the budget.  After the supervisor heals the slot, the pool
        serves the exact reference policy again over HTTP.
        """
        from repro.agents import DQNAgent
        from repro.serving import (
            DeadlineExceededError,
            HttpGateway,
            HttpPolicyClient,
            InferenceWorkerPool,
            OverloadError,
        )
        from repro.spaces import FloatBox

        def dqn_factory():
            return DQNAgent(state_space=FloatBox(shape=(8,)),
                            action_space=IntBox(4),
                            network_spec=[{"type": "dense", "units": 16,
                                           "activation": "relu"}],
                            seed=5)

        pool = InferenceWorkerPool(
            dqn_factory, FloatBox(shape=(8,)), num_replicas=2,
            max_batch_size=8, batch_window=0.002, parallel_spec="process",
            supervision_spec=SUPERVISION,
            admission_spec={"max_queue": 4, "retry_after": 0.01})
        gateway = HttpGateway(pool, default_deadline=2.0)
        try:
            gateway.start()
            obs = np.random.default_rng(9).standard_normal(
                (8, 8)).astype(np.float32)
            timer = _sigkill_later(lambda: pool.replicas[0].pid, 1.0)
            stop_at = time.perf_counter() + 3.0
            counts = {"ok": 0, "overload": 0, "deadline": 0}
            unexpected = []
            over_deadline = []
            lock = threading.Lock()

            def client_loop(index):
                client = HttpPolicyClient.for_gateway(
                    gateway, deadline_ms=2000)
                try:
                    while time.perf_counter() < stop_at:
                        t0 = time.perf_counter()
                        try:
                            client.act(obs[index])
                            key = "ok"
                        except OverloadError:
                            key = "overload"
                        except DeadlineExceededError:
                            key = "deadline"
                        except BaseException as exc:  # noqa: BLE001
                            with lock:
                                unexpected.append(exc)
                            return
                        elapsed = time.perf_counter() - t0
                        with lock:
                            counts[key] += 1
                            # 2s budget + generous loaded-CI slack; a
                            # hang would blow far past this.
                            if elapsed > 3.5:
                                over_deadline.append(elapsed)
                finally:
                    client.close()

            threads = [threading.Thread(target=client_loop, args=(i,),
                                        daemon=True)
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            timer.join()
            stragglers = sum(1 for t in threads if t.is_alive())
            assert stragglers == 0, f"{stragglers} clients hung"
            assert not unexpected, "untyped failures: " + "; ".join(
                f"{type(exc).__name__}: {exc!r}" for exc in unexpected)
            assert not over_deadline, (
                f"requests blocked past deadline: {over_deadline[:5]}")
            assert counts["ok"] > 0
            # The tiny queue under 8 concurrent clients guarantees the
            # gateway was actively load-shedding during the run.
            assert counts["overload"] > 0, counts
            assert pool.supervisor.total_restarts >= 1
            assert all(h.is_alive() for h in pool.replicas)
            # Post-restart parity over the HTTP path.
            reference = dqn_factory()
            expected = [int(reference.get_actions(o, explore=False)[0])
                        for o in obs]
            with HttpPolicyClient.for_gateway(gateway,
                                              timeout=30.0) as client:
                served = [int(client.act(o, deadline_ms=30000))
                          for o in obs]
            assert served == expected
        finally:
            gateway.stop()
            pool.stop()
            raylite.shutdown()
