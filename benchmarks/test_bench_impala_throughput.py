"""E7 — Fig. 9: IMPALA throughput on SeekAvoid vs actor count.

RLgraph IMPALA vs the DeepMind-reference implementation (redundant
per-step actor weight assignments) on the same substrate: one
coordination loop (two rollouts in flight per actor, an update as soon
as a batch is in hand), v-trace learner.

Paper shape: RLgraph ~10-15% ahead at low actor counts; both converge
as the learner becomes the bottleneck at scale. Actor counts {1, 2, 4}
map to the paper's {16, 64, 256} (laptop scale; one core here, see
docs/benchmarks.md for the scaling caveat).
"""

import numpy as np
import pytest

from repro.agents import IMPALAAgent
from repro.baselines import DMReferenceIMPALARunner
from repro.environments import SeekAvoid
from repro.execution.impala_runner import IMPALARunner

WIDTH, HEIGHT = 32, 24
ACTOR_COUNTS = [1, 2, 4]
DURATION = 4.0


def _env_factory(seed):
    return SeekAvoid(width=WIDTH, height=HEIGHT, max_steps=150, seed=seed)


def _agent_factory():
    probe = SeekAvoid(width=WIDTH, height=HEIGHT, seed=0)
    return IMPALAAgent(
        state_space=probe.state_space, action_space=probe.action_space,
        preprocessing_spec=[{"type": "divide", "divisor": 255.0},
                            {"type": "flatten"}],
        network_spec=[{"type": "dense", "units": 128, "activation": "relu"}],
        optimizer_spec={"type": "rmsprop", "learning_rate": 2e-4},
        backend="xgraph", seed=2)


def _run(runner_cls, num_actors, updates_enabled):
    runner = runner_cls(
        learner_agent=_agent_factory(), agent_factory=_agent_factory,
        env_factory=_env_factory, num_actors=num_actors, envs_per_actor=1,
        rollout_length=20, batch_size=max(num_actors // 2, 1))
    return runner.run(duration=DURATION, updates_enabled=updates_enabled)


def test_impala_throughput(benchmark, table):
    """Acting throughput (updates off) carries the Fig. 9 shape
    assertion: on a single core, enabling updates couples actor
    throughput to how many updates the learner happens to win from the
    scheduler, swamping the 10-15% actor-efficiency effect the figure
    isolates (see docs/benchmarks.md). The updates-on sweep is reported as a
    supplementary table."""
    results = {}

    def sweep():
        for n in ACTOR_COUNTS:
            results[("rlgraph", n)] = _run(IMPALARunner, n, False)
            results[("dm_reference", n)] = _run(DMReferenceIMPALARunner, n,
                                                False)
        results["training_rlgraph"] = _run(IMPALARunner, 2, True)
        results["training_dm"] = _run(DMReferenceIMPALARunner, 2, True)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for n in ACTOR_COUNTS:
        rg = results[("rlgraph", n)]
        dm = results[("dm_reference", n)]
        ratio = (rg["env_frames_per_second"]
                 / max(dm["env_frames_per_second"], 1e-9))
        rows.append([n, f"{rg['env_frames_per_second']:.0f}",
                     f"{dm['env_frames_per_second']:.0f}", f"{ratio:.2f}x"])
        benchmark.extra_info[f"actors={n}"] = {
            "rlgraph_fps": round(rg["env_frames_per_second"]),
            "dm_fps": round(dm["env_frames_per_second"]),
            "ratio": round(ratio, 2)}
    table("Fig. 9 — IMPALA acting env frames/s on seekavoid vs actors",
          ["actors", "RLgraph", "DM reference", "ratio"], rows)

    trg, tdm = results["training_rlgraph"], results["training_dm"]
    table("Fig. 9 (supplementary) — full training loop, 2 actors",
          ["impl", "frames/s", "updates"],
          [["RLgraph", f"{trg['env_frames_per_second']:.0f}",
            trg["learner_updates"]],
           ["DM reference", f"{tdm['env_frames_per_second']:.0f}",
            tdm["learner_updates"]]])

    # Paper shape: RLgraph >= reference at every actor count, with a
    # clear margin at low counts where actor efficiency dominates.
    # (0.85 tolerance: at the highest count a single oversubscribed core
    # adds scheduler noise on the order of the measured effect.)
    for n in ACTOR_COUNTS:
        rg = results[("rlgraph", n)]["env_frames_per_second"]
        dm = results[("dm_reference", n)]["env_frames_per_second"]
        assert rg > dm * 0.85, (n, rg, dm)
    low = ACTOR_COUNTS[0]
    rg = results[("rlgraph", low)]["env_frames_per_second"]
    dm = results[("dm_reference", low)]["env_frames_per_second"]
    assert rg > dm * 1.05, "low-actor-count margin (paper: 10-15%)"
    # The training loop must sustain updates on both implementations.
    assert trg["learner_updates"] > 0 and tdm["learner_updates"] > 0
