"""E3 — Fig. 6: distributed Ape-X sample throughput vs worker count.

RLgraph's Ray executor vs the RLlib-like baseline on the raylite engine,
with the full loop live (replay shards, learner updates, priority
pushes, weight syncs). Worker counts {1, 2, 4} map to the paper's
{16, 64, 256} (laptop scale; the *shape* — RLgraph ahead by a large
factor at low counts, margin narrowing as shared resources saturate —
is the reproduction target).
"""

import numpy as np
import pytest

from repro.agents import ApexAgent
from repro.baselines import RLlibLikeApexExecutor
from repro.environments import SimPong
from repro.execution.ray import ApexExecutor

FRAME = 16
FRAME_SKIP = 4
WORKER_COUNTS = [1, 2, 4]
DURATION = 4.0


def _env_factory(seed):
    return SimPong(size=FRAME, frame_skip=FRAME_SKIP, seed=seed)


def _agent_factory():
    probe = SimPong(size=FRAME, frame_skip=FRAME_SKIP, seed=0)
    return ApexAgent(
        state_space=probe.state_space, action_space=probe.action_space,
        preprocessing_spec=[{"type": "divide", "divisor": 255.0},
                            {"type": "flatten"}],
        network_spec=[{"type": "dense", "units": 64, "activation": "relu"}],
        dueling=True, n_step=3,
        optimizer_spec={"type": "rmsprop", "learning_rate": 1e-4},
        backend="xgraph", seed=11)


def _run(executor_cls, num_workers):
    executor = executor_cls(
        learner_agent=_agent_factory(), agent_factory=_agent_factory,
        env_factory=_env_factory, num_workers=num_workers,
        envs_per_worker=4, num_replay_shards=2, task_size=200,
        batch_size=64, replay_capacity=20_000, learning_starts=800,
        weight_sync_steps=10, frame_multiplier=FRAME_SKIP)
    result = executor.execute_workload(duration=DURATION)
    from repro import raylite
    raylite.shutdown()
    return result


def test_apex_distributed_throughput(benchmark, table):
    results = {}

    def sweep():
        for n in WORKER_COUNTS:
            results[("rlgraph", n)] = _run(ApexExecutor, n)
            results[("rllib_like", n)] = _run(RLlibLikeApexExecutor, n)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for n in WORKER_COUNTS:
        rg = results[("rlgraph", n)]
        rl = results[("rllib_like", n)]
        ratio = rg.env_frames_per_second / max(rl.env_frames_per_second, 1e-9)
        rows.append([n, f"{rg.env_frames_per_second:.0f}",
                     f"{rl.env_frames_per_second:.0f}", f"{ratio:.2f}x",
                     rg.learner_updates, rl.learner_updates])
        benchmark.extra_info[f"workers={n}"] = {
            "rlgraph_fps": round(rg.env_frames_per_second),
            "rllib_like_fps": round(rl.env_frames_per_second),
            "ratio": round(ratio, 2),
        }
    table("Fig. 6 — Ape-X env frames/s (incl. frame-skip) vs workers",
          ["workers", "RLgraph", "RLlib-like", "ratio",
           "RLgraph updates", "RLlib-like updates"], rows)

    # Paper shape: RLgraph outperforms the RLlib-like baseline at every
    # worker count (paper: +185% at 16 workers, +60% at 256).
    for n in WORKER_COUNTS:
        rg = results[("rlgraph", n)].env_frames_per_second
        rl = results[("rllib_like", n)].env_frames_per_second
        assert rg > rl * 1.1, f"workers={n}: RLgraph {rg:.0f} vs {rl:.0f}"
    # Scaling slope depends on available cores (this box may have one, in
    # which case aggregate throughput saturates immediately — the analogue
    # of the paper's own "16 workers is highest due to better resource
    # utilization" saturation note). Assert no *collapse* under added
    # workers; the slope itself is recorded in docs/benchmarks.md.
    import os
    first = results[("rlgraph", WORKER_COUNTS[0])].env_frames_per_second
    last = results[("rlgraph", WORKER_COUNTS[-1])].env_frames_per_second
    assert last > first * 0.7
    if (os.cpu_count() or 1) >= 2 * WORKER_COUNTS[-1]:
        assert last > first * 1.3  # real scaling needs real cores
