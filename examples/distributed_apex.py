#!/usr/bin/env python
"""Distributed prioritized experience replay (Ape-X) on the raylite
actor engine — the paper's Fig. 6 workload at laptop scale.

Spawns N sample-collection workers (each a vector of SimPong
environments with n-step post-processing and worker-side
prioritization), routes batches to prioritized replay shards, and trains
a central learner, comparing the RLgraph worker against the RLlib-like
incremental baseline.

Run:  python examples/distributed_apex.py [num_workers]
"""

import sys

from repro import raylite
from repro.agents import ApexAgent
from repro.baselines import RLlibLikeApexExecutor
from repro.environments import SimPong
from repro.execution.ray import ApexExecutor
from repro.spaces import IntBox


FRAME = 16          # small frames keep the demo fast
FRAME_SKIP = 4


def env_factory(seed):
    return SimPong(size=FRAME, frame_skip=FRAME_SKIP, seed=seed)


def agent_factory():
    probe = SimPong(size=FRAME, frame_skip=FRAME_SKIP, seed=0)
    return ApexAgent(
        state_space=probe.state_space,
        action_space=probe.action_space,
        preprocessing_spec=[{"type": "divide", "divisor": 255.0},
                            {"type": "flatten"}],
        network_spec=[{"type": "dense", "units": 64, "activation": "relu"}],
        dueling=True, n_step=3,
        optimizer_spec={"type": "rmsprop", "learning_rate": 1e-4},
        backend="xgraph", seed=7)


def run(executor_cls, label, num_workers):
    executor = executor_cls(
        learner_agent=agent_factory(), agent_factory=agent_factory,
        env_factory=env_factory, num_workers=num_workers, envs_per_worker=4,
        num_replay_shards=2, task_size=200, batch_size=64,
        replay_capacity=20_000, learning_starts=1000, weight_sync_steps=10,
        frame_multiplier=FRAME_SKIP)
    result = executor.execute_workload(duration=8.0)
    print(f"  [{label:>10}] {result.env_frames_per_second:9.0f} env frames/s"
          f"   {result.learner_updates:4d} learner updates"
          f"   mean return {result.mean_return}")
    return result


def main(num_workers: int = 2):
    print(f"Ape-X on raylite, {num_workers} workers x 4 envs, 2 replay shards")
    rlgraph = run(ApexExecutor, "RLgraph", num_workers)
    rllib = run(RLlibLikeApexExecutor, "RLlib-like", num_workers)
    speedup = rlgraph.env_frames_per_second / max(
        rllib.env_frames_per_second, 1e-9)
    print(f"RLgraph / RLlib-like throughput: {speedup:.2f}x "
          f"(paper Fig. 6: 1.6x-2.8x depending on scale)")
    raylite.shutdown()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2)
