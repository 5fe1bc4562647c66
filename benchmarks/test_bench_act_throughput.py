"""E2 — Fig. 5b: single-threaded worker act (inference) throughput.

A single worker acts on a vector of SimPong environments through a conv
torso + dueling head. Compares the static-graph backend (xgraph ~ TF
RLgraph), define-by-run (xtape ~ PT RLgraph), the define-by-run fast
path (the paper's edge-contraction optimization) and the hand-tuned
bare-NumPy actor (~ PT hand-tuned).

Paper shape: the static backend wins as the environment vector (i.e.
inference batch) grows because the session amortizes Python dispatch;
define-by-run pays per-call component-traversal overhead that becomes
negligible at large batch; hand-tuned bounds the define-by-run path.
"""

import time

import numpy as np
import pytest

from repro.agents import DQNAgent
from repro.backend import XGRAPH, XTAPE
from repro.baselines import HandTunedActor
from repro.environments import SequentialVectorEnv, SimPong

FRAME = 32
FRAME_SKIP = 4
VECTOR_SIZES = [1, 2, 4, 8, 16, 32]
STEPS = 30


def _make_agent(backend):
    probe = SimPong(size=FRAME, frame_skip=FRAME_SKIP, seed=0)
    return DQNAgent(
        state_space=probe.state_space, action_space=probe.action_space,
        preprocessing_spec=[{"type": "divide", "divisor": 255.0}],
        network_spec=[
            {"type": "conv2d", "filters": 8, "kernel_size": 8, "stride": 4},
            {"type": "conv2d", "filters": 16, "kernel_size": 4, "stride": 2},
            {"type": "dense", "units": 128},
        ],
        dueling=True, backend=backend, seed=0)


def _act_loop(act_fn, num_envs: int, steps: int = STEPS) -> float:
    """Frames/s of an act->env-step loop on a fresh env vector."""
    vec = SequentialVectorEnv(
        envs=[SimPong(size=FRAME, frame_skip=FRAME_SKIP, seed=i)
              for i in range(num_envs)])
    states = vec.reset_all()
    act_fn(states)  # warm-up (plan caching etc.)
    t0 = time.perf_counter()
    for _ in range(steps):
        actions = act_fn(states)
        states, _, _ = vec.step(actions)
    elapsed = time.perf_counter() - t0
    return steps * num_envs * FRAME_SKIP / elapsed


def _variants():
    xgraph_agent = _make_agent(XGRAPH)
    xtape_agent = _make_agent(XTAPE)
    xtape_fast_agent = _make_agent(XTAPE)
    xtape_fast_agent.graph.eager_fastpath = True
    handtuned = HandTunedActor.from_agent(xgraph_agent)
    ts = np.asarray(0)
    return {
        "xgraph (TF RLgraph)": lambda s: np.asarray(
            xgraph_agent.call_api("get_greedy_actions", s, ts)[0]),
        "xtape (PT RLgraph)": lambda s: np.asarray(
            xtape_agent.call_api("get_greedy_actions", s, ts)[0]),
        "xtape fast-path": lambda s: np.asarray(
            xtape_fast_agent.call_api("get_greedy_actions", s, ts)[0]),
        "hand-tuned numpy": handtuned.act,
    }


def test_act_throughput(benchmark, table):
    variants = _variants()
    results = {name: [] for name in variants}

    def sweep():
        for num_envs in VECTOR_SIZES:
            for name, fn in variants.items():
                results[name].append(_act_loop(fn, num_envs))
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for i, num_envs in enumerate(VECTOR_SIZES):
        rows.append([num_envs] + [f"{results[name][i]:.0f}"
                                  for name in variants])
    table("Fig. 5b — act throughput (env frames/s incl. frame-skip)",
          ["envs"] + list(variants), rows)
    for name in variants:
        benchmark.extra_info[name] = [round(v) for v in results[name]]

    xgraph = results["xgraph (TF RLgraph)"]
    xtape = results["xtape (PT RLgraph)"]
    fast = results["xtape fast-path"]
    # Paper shape 1: throughput grows with the vector size (batching).
    assert xgraph[-1] > xgraph[0] * 2
    assert xtape[-1] > xtape[0] * 2
    # Paper shape 2: the static backend is at least competitive with the
    # define-by-run dispatch path at large batch sizes.
    assert xgraph[-1] > 0.7 * xtape[-1]
    # Paper shape 3 (weak): the fast path stays within noise of regular
    # define-by-run dispatch — in CPython the meta-graph replay costs
    # about as much as plain method dispatch, so the paper's fast-path
    # win does not reproduce at this scale (recorded in docs/benchmarks.md).
    assert np.mean(fast) >= 0.7 * np.mean(xtape)
