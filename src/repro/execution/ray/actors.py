"""raylite actor classes for the Ape-X executor.

* :class:`ApexWorkerActor` — one sample-collection worker: local agent
  copy, a vector of environments, n-step post-processing and worker-side
  prioritization (paper §5.1, "vectorized environment worker for sample
  collection, including all heuristics described in the Ape-X paper").
* :class:`ReplayShardActor` — one prioritized replay shard (the paper
  runs 4 "instances of replay memories to feed the learner").
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.components.memories import PrioritizedReplayBuffer
from repro.execution.worker import PolicyActor, SingleThreadedWorker


def apex_worker_epsilon(worker_index: int, num_workers: int,
                        base: float = 0.4, alpha: float = 7.0) -> float:
    """Ape-X per-worker constant epsilon: eps_i = base^(1 + i/(N-1)*alpha)
    (Horgan et al. 2018, eq. in §4). Workers keep exploring at fixed,
    staggered rates forever instead of sharing one decaying schedule."""
    if num_workers <= 1:
        return base
    return base ** (1.0 + worker_index / (num_workers - 1) * alpha)


class ApexWorkerActor(PolicyActor):
    """Builds a local agent + vectorized worker inside the actor thread.

    ``agent_factory`` may accept a ``worker_index`` kwarg to configure
    per-worker exploration (Ape-X constant epsilons).  ``vector_env_spec``
    selects the vector-environment engine (``None`` keeps the sequential
    paper baseline); ``parallel_spec`` supplies engine defaults (e.g.
    ``env_backend="subproc"`` steps the vector in worker processes)."""

    def __init__(self, agent_factory: Callable, env_factory: Callable,
                 num_envs: int = 4, n_step: int = 3, discount: float = 0.99,
                 worker_side_prioritization: bool = True,
                 batched_postprocessing: bool = True,
                 worker_index: int = 0, vector_env_spec=None,
                 parallel_spec=None):
        super().__init__(agent_factory, env_factory, num_envs, worker_index,
                         vector_env_spec, parallel_spec)
        self.worker = SingleThreadedWorker(
            self.agent, self.vector_env, n_step=n_step, discount=discount,
            worker_side_prioritization=worker_side_prioritization,
            batched_postprocessing=batched_postprocessing)

    def collect(self, num_samples: int) -> Dict[str, np.ndarray]:
        return self.worker.collect_samples(num_samples)

    def get_stats(self) -> Dict:
        stats = self.worker.stats
        return {
            "env_frames": stats.env_frames,
            "sample_steps": stats.sample_steps,
            "wall_time": stats.wall_time,
            "mean_return": stats.mean_return(),
            "episode_returns": list(stats.episode_returns),
        }


class ReplayShardActor:
    """One prioritized replay shard."""

    def __init__(self, capacity: int = 50_000, alpha: float = 0.6,
                 beta: float = 0.4, seed: Optional[int] = None,
                 min_sample_size: int = 1):
        self.buffer = PrioritizedReplayBuffer(capacity, alpha=alpha,
                                              beta=beta, seed=seed)
        self.min_sample_size = int(min_sample_size)
        self.inserted = 0

    def insert(self, batch: Dict[str, np.ndarray]) -> int:
        priorities = batch.pop("priorities", None)
        self.buffer.insert(batch, priorities=priorities)
        self.inserted += len(batch["rewards"])
        return self.inserted

    def sample(self, batch_size: int):
        """Returns (records, indices, weights) or None if underfilled."""
        if len(self.buffer) < max(batch_size, self.min_sample_size):
            return None
        return self.buffer.sample(batch_size)

    def update_priorities(self, indices, priorities) -> int:
        self.buffer.update_priorities(indices, priorities)
        return len(indices)

    def size(self) -> int:
        return len(self.buffer)

    def state_dict(self) -> Dict:
        """Shard checkpoint: buffer contents + cursors + trees + RNG."""
        state = self.buffer.state_dict()
        state["inserted"] = self.inserted
        return state

    def load_state_dict(self, state: Dict) -> int:
        state = dict(state)
        self.inserted = int(state.pop("inserted", 0))
        self.buffer.load_state_dict(state)
        return self.inserted
