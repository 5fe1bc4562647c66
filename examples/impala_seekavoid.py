#!/usr/bin/env python
"""IMPALA actor-learner training on the SeekAvoid arena — the paper's
Fig. 9 workload at laptop scale.

Actors reply with fixed-length rollouts with behaviour log-probs; the
runner's one coordination loop trains on each batch of them as it
arrives, applies v-trace-corrected updates and publishes fresh weights. Compares the RLgraph implementation against the
DeepMind-reference actor (redundant per-step weight assignments).

Run:  python examples/impala_seekavoid.py [num_actors]
"""

import sys

from repro.agents import IMPALAAgent
from repro.baselines import DMReferenceIMPALARunner
from repro.environments import SeekAvoid
from repro.execution.impala_runner import IMPALARunner

WIDTH, HEIGHT = 32, 24


def env_factory(seed):
    return SeekAvoid(width=WIDTH, height=HEIGHT, max_steps=150, seed=seed)


def agent_factory():
    probe = SeekAvoid(width=WIDTH, height=HEIGHT, seed=0)
    return IMPALAAgent(
        state_space=probe.state_space,
        action_space=probe.action_space,
        preprocessing_spec=[{"type": "divide", "divisor": 255.0},
                            {"type": "flatten"}],
        network_spec=[{"type": "dense", "units": 128, "activation": "relu"}],
        rollout_length=20,
        entropy_coeff=0.01,
        optimizer_spec={"type": "rmsprop", "learning_rate": 2e-4},
        backend="xgraph", seed=3)


def run(runner_cls, label, num_actors):
    runner = runner_cls(
        learner_agent=agent_factory(), agent_factory=agent_factory,
        env_factory=env_factory, num_actors=num_actors, envs_per_actor=1,
        rollout_length=20, batch_size=max(num_actors // 2, 1))
    result = runner.run(duration=8.0)
    print(f"  [{label:>12}] {result['env_frames_per_second']:8.0f} env "
          f"frames/s   {result['learner_updates']:4d} updates   "
          f"mean return {result['mean_return']}")
    return result


def main(num_actors: int = 2):
    print(f"IMPALA on SeekAvoid ({WIDTH}x{HEIGHT} RGB), "
          f"{num_actors} actors, one coordination loop")
    rlgraph = run(IMPALARunner, "RLgraph", num_actors)
    reference = run(DMReferenceIMPALARunner, "DM reference", num_actors)
    speedup = (rlgraph["env_frames_per_second"]
               / max(reference["env_frames_per_second"], 1e-9))
    print(f"RLgraph / reference throughput: {speedup:.2f}x "
          f"(paper Fig. 9: 1.10-1.15x at low actor counts)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2)
