"""SyncBatchExecutor: synchronous parallel rollout collection on raylite.

The paper notes that "implementing other distributed semantics on Ray
with RLgraph only requires extending the generic Ray executor to
implement a coordination loop" (§5.1). This executor is that second
loop: the A2C/PPO pattern — all workers collect one on-policy rollout
with the *current* weights, the learner updates once on the merged
batch, weights broadcast, repeat. Contrast with the asynchronous Ape-X
loop in :mod:`repro.execution.ray.apex_executor`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.agents.actor_critic_agent import discounted_returns
from repro.execution.learner_group import LearnerGroup, resolve_learner_spec
from repro.execution.parallel import (
    notify_weight_listeners,
    resolve_parallel_spec,
)
from repro.execution.supervision import (
    ReplicaFactory,
    Supervisor,
    gather,
)
from repro.execution.worker import build_vector_env, snapshot_fn
from repro.utils.errors import RLGraphError


class A2CRolloutActor:
    """Collects fixed-length on-policy rollouts with the pushed weights."""

    def __init__(self, agent_factory: Callable, env_factory: Callable,
                 num_envs: int = 2, rollout_length: int = 32,
                 worker_index: int = 0, vector_env_spec=None,
                 parallel_spec=None):
        try:
            self.agent = agent_factory(worker_index=worker_index)
        except TypeError:
            self.agent = agent_factory()
        self.vector_env = build_vector_env(
            env_factory, num_envs, worker_index * 1000,
            vector_env_spec=vector_env_spec, parallel_spec=parallel_spec)
        self._snap = snapshot_fn(self.vector_env)
        self.rollout_length = int(rollout_length)
        self._states = self.vector_env.reset_all()
        self.env_frames = 0
        self._episodes_shipped = 0

    def set_weights(self, weights) -> int:
        self.agent.set_weights(weights)
        return 0

    def rollout(self, discount: float) -> Dict[str, np.ndarray]:
        """One on-policy rollout; returns flat arrays + returns."""
        traj = {"states": [], "actions": [], "rewards": [], "terminals": []}
        for _ in range(self.rollout_length):
            actions, pre = self.agent.get_actions(self._states)
            # Snapshot before dispatch (zero-copy buffer safety), then
            # overlap trajectory assembly with env stepping.
            pre = self._snap(pre)
            self.vector_env.step_async(actions)
            traj["states"].append(pre)
            traj["actions"].append(actions)
            next_states, rewards, terminals = self.vector_env.step_wait()
            traj["rewards"].append(rewards)
            traj["terminals"].append(terminals)
            self._states = next_states
            self.env_frames += self.vector_env.num_envs
        # Per-env discounted returns, then flattened (T*E).
        rewards = np.asarray(traj["rewards"], np.float32)     # (T, E)
        terminals = np.asarray(traj["terminals"], bool)
        returns = np.empty_like(rewards)
        for e in range(rewards.shape[1]):
            returns[:, e] = discounted_returns(rewards[:, e], terminals[:, e],
                                               discount)
        flat = lambda arr: np.asarray(arr).reshape(
            (-1,) + np.asarray(arr).shape[2:])
        # Ship only episodes finished since the previous rollout; the
        # executor accumulates across iterations.
        new_returns, self._episodes_shipped = \
            self.vector_env.finished_returns_since(self._episodes_shipped)
        return {
            "states": flat(traj["states"]),
            "actions": flat(traj["actions"]),
            "returns": returns.reshape(-1),
            "episode_returns": list(new_returns),
        }

    def get_stats(self) -> Dict:
        return {"env_frames": self.env_frames,
                "episode_returns": list(
                    self.vector_env.finished_episode_returns)}


class SyncBatchExecutor:
    """Synchronous parallel A2C: rollout barrier -> one update -> sync."""

    def __init__(self, learner_agent, agent_factory: Callable,
                 env_factory: Callable, num_workers: int = 2,
                 envs_per_worker: int = 2, rollout_length: int = 32,
                 discount: float = 0.99, vector_env_spec=None,
                 parallel_spec=None, weight_listeners=None,
                 supervision_spec=None, learner_spec=None):
        self.learner = learner_agent
        self.discount = float(discount)
        # Eval-during-training hook: every published weight vector also
        # goes to these listeners (e.g. a serving PolicyServer).
        self.weight_listeners = list(weight_listeners or [])
        self.parallel = resolve_parallel_spec(parallel_spec)
        # Data-parallel learner group: K replicas shard each merged
        # batch, all-reduce flat gradient slabs over shared memory, and
        # present the same update/get_weights interface as one agent.
        lspec = resolve_learner_spec(learner_spec)
        if lspec is not None:
            self.learner = LearnerGroup(
                learner_agent, agent_factory=agent_factory, spec=lspec,
                parallel_spec=self.parallel,
                supervision_spec=supervision_spec)
        self.supervisor = Supervisor(supervision_spec)
        self.workers = self.supervisor.spawn({
            f"a2c-worker-{i}": ReplicaFactory(
                self.parallel, A2CRolloutActor,
                agent_factory, env_factory,
                num_envs=envs_per_worker,
                rollout_length=rollout_length, worker_index=i,
                vector_env_spec=vector_env_spec,
                parallel_spec=self.parallel)
            for i in range(num_workers)
        }, on_restart=lambda h: h.set_weights.remote(
            self.learner.get_weights(flat=True)))

    def execute_workload(self, num_iterations: int = 10) -> Dict:
        t0 = time.perf_counter()
        losses: List[float] = []
        episode_returns: List[float] = []
        for _ in range(num_iterations):
            # Barrier: all workers roll out with current weights.  In
            # supervised mode a worker that died is restarted (weights
            # re-pushed by the restart hook) and this iteration trains
            # on the surviving rollouts.
            rollouts = gather(self.workers, "rollout", self.discount)
            if not rollouts:
                continue
            for r in rollouts:
                episode_returns.extend(r.pop("episode_returns", []))
            merged = {
                "states": np.concatenate([r["states"] for r in rollouts]),
                "actions": np.concatenate([r["actions"] for r in rollouts]),
                "returns": np.concatenate([r["returns"] for r in rollouts]),
            }
            total, _, _ = self.learner.update(merged)
            losses.append(total)
            # Flat broadcast: one ndarray (one shm block in process mode).
            weights = self.learner.get_weights(flat=True)
            gather(self.workers, "set_weights", weights)
            notify_weight_listeners(self.weight_listeners, weights)
        stats = gather(self.workers, "get_stats")
        wall = time.perf_counter() - t0
        env_frames = sum(s["env_frames"] for s in stats)
        return {
            "env_frames": env_frames,
            "env_frames_per_second": env_frames / wall,
            "updates": num_iterations,
            "wall_time": wall,
            "losses": losses,
            "mean_return": (float(np.mean(episode_returns[-20:]))
                            if episode_returns else None),
        }
