"""E14 — sharded multi-learner training (learner-group follow-up).

Two measurements around the data-parallel learner group:

* **group update throughput** — updates/sec for one learner vs
  K ∈ {2, 4} replica groups on the same total batch (each replica
  computes gradients on B/K rows into its pooled shared-memory block,
  then every replica sums the K blocks in rank order and applies the
  same fused step);
* **time-to-sync** — wall time of one bare all-reduce round (write +
  barriered schedule) over a 1M-element float32 slab, ring vs tree.

Core-count gating follows E11/E12: on a single-core host every replica
shares one CPU, so the K-replica group pays K sequential gradient
passes plus coordination — the numbers are recorded for trend tracking
but no scaling ratio is asserted.  On >= 2K cores the group must not
be slower than ~40% of the single learner's update rate (replicas run
concurrently; the all-reduce adds bounded overhead).
"""

import os
import time

import numpy as np
import pytest

from repro.agents import DQNAgent
from repro.execution.learner_group import LearnerGroup
from repro.raylite import collectives
from repro.raylite.shm import get_pool
from repro.spaces import FloatBox, IntBox

CORES = os.cpu_count() or 1
STATE_DIM = 16
BATCH = 256
SLAB_ELEMENTS = 1_000_000


def _agent_factory(worker_index=0):
    return DQNAgent(
        state_space=FloatBox(shape=(STATE_DIM,)), action_space=IntBox(4),
        network_spec=[{"type": "dense", "units": 64, "activation": "relu"},
                      {"type": "dense", "units": 64, "activation": "relu"}],
        double_q=True, dueling=True, sync_interval=50, batch_size=32,
        memory_capacity=512, seed=3)


def _batch(rng, n=BATCH):
    return {
        "states": rng.standard_normal((n, STATE_DIM)).astype(np.float32),
        "actions": rng.integers(0, 4, n),
        "rewards": rng.standard_normal(n).astype(np.float32),
        "terminals": rng.random(n) < 0.1,
        "next_states": rng.standard_normal((n, STATE_DIM)).astype(np.float32),
    }


def _rate(fn, window=0.5):
    fn()  # warm
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < window:
        fn()
        n += 1
    return n / (time.perf_counter() - t0)


def test_group_update_throughput(benchmark, table):
    rng = np.random.default_rng(0)
    batch = _batch(rng)
    rates = {}
    pool_deltas = {}

    def sweep():
        single = _agent_factory()
        rates["single"] = _rate(lambda: single.update(batch))
        for k in (2, 4):
            group = LearnerGroup(_agent_factory(), _agent_factory, spec=k,
                                 parallel_spec="thread")
            try:
                group.update(batch)  # attach ring members
                before = get_pool().stats()["misses"]
                rates[f"K={k}"] = _rate(lambda: group.update(batch))
                pool_deltas[f"K={k}"] = \
                    get_pool().stats()["misses"] - before
            finally:
                group.shutdown()

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [["single", f"{rates['single']:.1f}", "-", "-"]]
    for k in (2, 4):
        rows.append([f"group K={k}", f"{rates[f'K={k}']:.1f}",
                     f"{rates[f'K={k}'] / rates['single']:.2f}x",
                     pool_deltas[f"K={k}"]])
    table("E14 — learner-group update throughput "
          f"(B={BATCH}, {CORES} cores)",
          ["learner", "updates/s", "vs single", "pool misses during run"],
          rows)
    benchmark.extra_info.update(
        {k.replace("=", ""): round(v, 2) for k, v in rates.items()})

    # Steady-state rounds reuse the pooled blocks: zero new allocations.
    assert all(d == 0 for d in pool_deltas.values())
    if CORES < 4:
        pytest.skip(f"{CORES}-core host — recorded only: "
                    f"{ {k: round(v, 1) for k, v in rates.items()} }")
    # With real cores behind the replicas the group must stay within a
    # constant factor of the single learner on the SAME total batch.
    assert rates["K=2"] >= 0.4 * rates["single"]


def test_allreduce_time_to_sync(benchmark, table):
    rows = []
    timings = {}

    def sweep():
        for algorithm, world in (("ring", 4), ("tree", 4), ("tree", 2)):
            ring = collectives.SlabRing(world, SLAB_ELEMENTS)
            if not ring.available:
                pytest.skip("shared memory unavailable")
            members = [
                collectives.RingMember(r, world, ring.names(),
                                       SLAB_ELEMENTS, SLAB_ELEMENTS)
                for r in range(world)]
            vec = np.ones(SLAB_ELEMENTS, np.float32)
            steps = collectives.allreduce_steps(algorithm, world)

            def round_trip():
                for m in members:
                    m.write(vec)
                for method, step in steps:
                    for m in members:
                        getattr(m, method)(step)

            t = 1.0 / _rate(round_trip, window=0.4)
            timings[(algorithm, world)] = t
            mb = SLAB_ELEMENTS * 4 / 1e6
            rows.append([algorithm, world, f"{t * 1e3:.2f}",
                         f"{mb * world / t / 1e3:.2f}"])
            for m in members:
                m.close()
            ring.release()

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table(f"E14 — all-reduce time-to-sync ({SLAB_ELEMENTS / 1e6:.0f}M "
          f"float32 slab, driver-barrier schedule, {CORES} cores)",
          ["algorithm", "world", "round ms", "GB/s aggregate"], rows)
    benchmark.extra_info.update(
        {f"{a}_K{w}_ms": round(t * 1e3, 3) for (a, w), t in timings.items()})
    # Sanity, not a perf bar: a 4 MB-per-rank in-memory all-reduce
    # finishing slower than 2s would mean the schedule regressed.
    assert all(t < 2.0 for t in timings.values())
