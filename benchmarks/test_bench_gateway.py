"""E15 — HTTP gateway under oversubscription: admission control keeps
admitted latency flat while load shedding absorbs the excess.

The overload claim: with a bounded request queue (reject policy), p99 of
*admitted* requests stays within a small factor of lightly-loaded p99
no matter how far offered load exceeds capacity — the excess turns into
fast typed 503s (the shed rate), not queueing delay.  Without admission
the same oversubscription turns into unbounded queue growth and p99
measured in queue residence time.

This bench drives closed-loop keep-alive HTTP clients against a
gateway + micro-batching PolicyServer at 1x/4x/16x client multiples of
a baseline and reports req/s, success p50/p99, and shed rate per level,
plus the unbounded ablation at 16x.

Acceptance (core-count-gated per the 1-CPU container rule):

* every request at every level resolves — zero stragglers;
* at 16x the bounded queue actually sheds (shed rate > 0);
* on >= 2 cores: admitted p99 at 16x <= 5x the 1x p99 (recorded-only on
  1 core, where 32 client threads fight the server for the GIL and
  client-side latency measures scheduling, not queueing).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.agents import DQNAgent
from repro.serving import HttpGateway, PolicyServer, drive_concurrent_load
from repro.spaces import FloatBox, IntBox

pytestmark = pytest.mark.mp_timeout(300)

CORES = os.cpu_count() or 1
STATE_DIM = 8
BASE_CLIENTS = 2
LEVELS = {"1x": BASE_CLIENTS, "4x": 4 * BASE_CLIENTS,
          "16x": 16 * BASE_CLIENTS}
DURATION = 1.0
DEADLINE_MS = 250.0
MAX_QUEUE = 16


def _agent():
    return DQNAgent(state_space=FloatBox(shape=(STATE_DIM,)),
                    action_space=IntBox(4),
                    network_spec=[{"type": "dense", "units": 64,
                                   "activation": "relu"}], seed=3)


def _observations(n):
    rng = np.random.default_rng(0)
    return rng.standard_normal((n, STATE_DIM)).astype(np.float32)


def test_gateway_oversubscription(benchmark, table):
    results = {}

    def sweep():
        server = PolicyServer(
            _agent(), max_batch_size=16, batch_window=0.0,
            admission_spec={"max_queue": MAX_QUEUE, "policy": "reject",
                            "retry_after": 0.002})
        with HttpGateway(server, default_deadline=DEADLINE_MS / 1e3) \
                as gateway:
            for level, clients in LEVELS.items():
                results[level] = drive_concurrent_load(
                    gateway, clients, DURATION,
                    observations=_observations(clients),
                    tolerate_overload=True, deadline=DEADLINE_MS / 1e3)
        server.stop()
        # Ablation: same 16x oversubscription, unbounded queue.
        server = PolicyServer(_agent(), max_batch_size=16, batch_window=0.0)
        with HttpGateway(server, default_deadline=DEADLINE_MS / 1e3) \
                as gateway:
            results["16x-unbounded"] = drive_concurrent_load(
                gateway, LEVELS["16x"], DURATION,
                observations=_observations(LEVELS["16x"]),
                tolerate_overload=True, deadline=DEADLINE_MS / 1e3)
        server.stop()
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for level in ("1x", "4x", "16x", "16x-unbounded"):
        r = results[level]
        rows.append([level, r["attempts"], f"{r['req_per_s']:.0f}",
                     f"{r['p50_ms']:.2f}", f"{r['p99_ms']:.2f}",
                     f"{r['shed_rate']:.3f}", f"{r['deadline_rate']:.3f}"])
    table(f"E15 — gateway oversubscription, queue={MAX_QUEUE}, "
          f"deadline={DEADLINE_MS:.0f}ms ({CORES} cores)",
          ["load", "attempts", "ok/s", "p50 ms", "p99 ms", "shed rate",
           "expired rate"], rows)
    benchmark.extra_info.update(
        cores=CORES, max_queue=MAX_QUEUE, deadline_ms=DEADLINE_MS,
        results={k: {kk: (round(vv, 3) if isinstance(vv, float) else vv)
                     for kk, vv in r.items()}
                 for k, r in results.items()})

    for level, r in results.items():
        assert r["stragglers"] == 0, f"{level}: clients hung"
        assert r["requests"] > 0, f"{level}: nothing succeeded"
    # 16 clients per admitted slot: the bounded queue must be shedding.
    overloaded = results["16x"]
    assert overloaded["shed_rate"] > 0 or overloaded["deadline_rate"] > 0, (
        "16x oversubscription never tripped admission control")
    if CORES >= 2:
        ratio = overloaded["p99_ms"] / max(results["1x"]["p99_ms"], 1e-6)
        assert ratio <= 5.0, (
            f"admitted p99 grew {ratio:.1f}x under 16x oversubscription "
            f"despite the bounded queue")
