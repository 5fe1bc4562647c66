"""SyncBatchExecutor: synchronous parallel rollout collection on raylite.

The paper notes that "implementing other distributed semantics on Ray
with RLgraph only requires extending the generic Ray executor to
implement a coordination loop" (§5.1).  This is such a loop on the
generic :class:`~repro.execution.executor.Executor`, the A2C/PPO
pattern: all workers collect one on-policy rollout with the *current*
weights, the learner updates once on the merged batch, weights
broadcast, repeat.  Contrast with the asynchronous Ape-X loop in
:mod:`repro.execution.ray.apex_executor`.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.agents.actor_critic_agent import discounted_returns
from repro.execution.executor import Executor, RunResult, recent_mean
from repro.execution.supervision import ReplicaFactory, gather
from repro.execution.worker import PolicyActor


class A2CRolloutActor(PolicyActor):
    """Collects fixed-length on-policy rollouts with the pushed weights."""

    def __init__(self, agent_factory: Callable, env_factory: Callable,
                 num_envs: int = 2, rollout_length: int = 32,
                 worker_index: int = 0, vector_env_spec=None,
                 parallel_spec=None):
        super().__init__(agent_factory, env_factory, num_envs, worker_index,
                         vector_env_spec, parallel_spec)
        self.rollout_length = int(rollout_length)

    def rollout(self, discount: float) -> Dict[str, np.ndarray]:
        """One on-policy rollout; returns flat arrays + returns."""
        traj, new_returns = self.act(self.agent.get_actions,
                                     self.rollout_length)
        # Per-env discounted returns, then flattened (T*E).
        rewards, terminals = traj["rewards"], traj["terminals"]   # (T, E)
        returns = np.empty_like(rewards)
        for e in range(rewards.shape[1]):
            returns[:, e] = discounted_returns(rewards[:, e], terminals[:, e],
                                               discount)
        flat = lambda arr: arr.reshape((-1,) + arr.shape[2:])
        return {
            "states": flat(traj["states"]),
            "actions": flat(traj["actions"]),
            "returns": returns.reshape(-1),
            "episode_returns": new_returns,
        }

    def get_stats(self) -> Dict:
        return {"env_frames": self.env_frames,
                "episode_returns": list(
                    self.vector_env.finished_episode_returns)}


class SyncBatchExecutor(Executor):
    """Synchronous parallel A2C: rollout barrier -> one update -> sync."""

    PATTERN = "a2c"

    def __init__(self, learner_agent, agent_factory: Callable,
                 env_factory: Callable, num_workers: int = 2,
                 envs_per_worker: int = 2, rollout_length: int = 32,
                 discount: float = 0.99, vector_env_spec=None,
                 parallel_spec=None, weight_listeners=None,
                 supervision_spec=None, learner_spec=None):
        super().__init__(learner_agent, agent_factory, parallel_spec,
                         weight_listeners, supervision_spec,
                         learner_spec=learner_spec)
        self.discount = float(discount)
        self.workers = self.supervisor.spawn({
            f"a2c-worker-{i}": ReplicaFactory(
                self.parallel, A2CRolloutActor, agent_factory, env_factory,
                num_envs=envs_per_worker, rollout_length=rollout_length,
                worker_index=i, vector_env_spec=vector_env_spec,
                parallel_spec=self.parallel)
            for i in range(num_workers)
        }, on_restart=self._sync_restarted)

    def execute_workload(self, num_iterations: int = 10) -> RunResult:
        result = RunResult()
        episode_returns = []
        for _ in range(num_iterations):
            # Barrier: all workers roll out with current weights.  In
            # supervised mode a worker that died is restarted (weights
            # re-pushed by the restart hook) and this iteration trains
            # on the surviving rollouts; with none, it trains nothing.
            rollouts = gather(self.workers, "rollout", self.discount)
            if not rollouts:
                continue
            for r in rollouts:
                episode_returns.extend(r.pop("episode_returns", []))
            merged = {key: np.concatenate([r[key] for r in rollouts])
                      for key in ("states", "actions", "returns")}
            total, _, _ = self.learner.update(merged)
            self.count_update(result, total)
            gather(self.workers, "set_weights", *self.publish())
        self.finish(result)
        result.mean_return = recent_mean(episode_returns)
        return result
