"""serve_batch — a vector-env client against the micro-batcher.

In-process ``PolicyServer(max_batch_size=32, batch_window=0)``; the
reader loops ``PolicyClient.act_many`` over 64 observations (what a
vector-env client sends per step) while a writer hot-swaps the flat
weight vector at a fixed 20 Hz with ``set_weights(w, wait=True)``.
Batch assembly, bucket padding and the act plan at batch 32 dominate;
HTTP is bypassed.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np

from repro.serving import PolicyClient, PolicyServer

from perf import layers
from perf.harness import median_latency_ms, median_window, window_rates
from perf.trace import span, unattributed_fraction
from perf.workloads.serve_http import POOL_SIZE, STATE_DIM, build_agent

MAX_BATCH_SIZE, CALL_OBS, SWAP_HZ = 32, 64, 20.0
#: ~900 act_many calls/s: p99 keeps about a hundred samples beyond it.
DESIGNED_TAIL = 99.0
#: Latency limit of the SLO per act_many call: 3x the p99 of the
#: first seed study (2.55 ms), frozen.
SLO_MS = 7.6


def setup(seed: int, seconds: float, tracer=None):
    ctx = SimpleNamespace(seed=seed, tracer=tracer,
                          tracers={"concurrent": tracer})
    rng = np.random.default_rng(seed)
    ctx.pool = rng.standard_normal((POOL_SIZE, STATE_DIM)).astype(np.float32)
    ctx.agent = build_agent(seed)
    # Unbatched reference: one greedy act per observation, before the
    # server exists.  Swaps rewrite the same weights, so it stays valid.
    ctx.expected = np.asarray(
        [ctx.agent.get_actions(obs, explore=False)[0] for obs in ctx.pool])
    ctx.weights = np.array(ctx.agent.get_weights(flat=True), copy=True)
    ctx.server = PolicyServer(ctx.agent, max_batch_size=MAX_BATCH_SIZE,
                              batch_window=0.0)
    ctx.client = PolicyClient(ctx.server)
    # Ready = first batched answer and first applied swap.
    ctx.client.act_many(ctx.pool[:CALL_OBS])
    ctx.server.set_weights(ctx.weights, wait=True)
    return ctx


def _drive(ctx, seconds: float):
    server, client, tracer = ctx.server, ctx.client, ctx.tracer
    stop = threading.Event()
    swaps, swap_errors = [], []

    def writer() -> None:
        due = time.perf_counter()
        while not stop.is_set():
            start = time.perf_counter()
            try:
                with span(tracer, "serving.set_weights"):
                    server.set_weights(ctx.weights, wait=True)
                swaps.append(time.perf_counter() - start)
            except Exception as exc:  # a swap that did not apply
                swap_errors.append(type(exc).__name__)
            due += 1.0 / SWAP_HZ
            stop.wait(max(due - time.perf_counter(), 0.0))

    thread = threading.Thread(target=writer, name="perf-swap-writer")
    samples, wrong, dropped = [], 0, 0
    t0 = time.perf_counter()
    thread.start()
    deadline = t0 + seconds
    now, i = t0, 0
    while now < deadline:
        lo = i % POOL_SIZE
        obs = ctx.pool[lo:lo + CALL_OBS]
        try:
            with span(tracer, "serving.iteration"), \
                    span(tracer, "serving.act_many"):
                actions = client.act_many(obs)
        except Exception:  # any lost request fails the whole call
            dropped += 1
        else:
            wrong += int(np.count_nonzero(
                np.asarray(actions) != ctx.expected[lo:lo + CALL_OBS]))
        done = time.perf_counter()
        samples.append((done, done - now))
        now = done
        i += CALL_OBS
    t1 = now
    stop.set()
    thread.join(timeout=30.0)
    stats = server.metrics_snapshot()
    over_limit = sum(1 for _, v in samples if v * 1e3 > SLO_MS)
    return SimpleNamespace(
        t0=t0, t1=t1, samples=samples, swaps=swaps, stats=stats,
        attempted=len(samples) + len(swaps) + len(swap_errors),
        failed=dropped + len(swap_errors) + wrong,
        req_per_s=median_window(window_rates(
            [t for t, _ in samples], t0, t1,
            weights=[CALL_OBS] * len(samples))),
        p50_ms=median_latency_ms(samples, t0, t1),
        swap_p50_ms=float(np.median(swaps)) * 1e3,
        slo_miss_fraction=(over_limit + dropped) / max(len(samples), 1),
        checks={
            "batched_actions_equal_unbatched": wrong == 0,
            "no_dropped_requests_across_swaps":
                dropped == 0 and stats["errors"] == 0,
            "every_swap_applied":
                not swap_errors and stats["weight_swap_failures"] == 0,
            "no_writer_straggler": not thread.is_alive(),
        })


def measure(ctx, seconds: float) -> dict:
    run = _drive(ctx, seconds)
    return {
        "metrics": {"throughput_per_s": run.req_per_s,
                    "latency_p50_ms": run.p50_ms},
        "latency_ms": [dt * 1e3 for _, dt in run.samples],
        "designed_tail": DESIGNED_TAIL,
        "info": {"throughput_unit": "actions returned",
                 "latency_of": f"one act_many call of {CALL_OBS} observations",
                 "req_per_s": run.req_per_s,
                 "swap_latency_p50_ms": run.swap_p50_ms,
                 "slo_miss_fraction": run.slo_miss_fraction},
        "attempted": run.attempted, "failed": run.failed,
        "checks": run.checks,
    }


def trace(ctx, seconds: float) -> dict:
    run = _drive(ctx, seconds * 0.6)
    stats, agent = run.stats, ctx.agent
    act = agent.serving_act_fn()
    batch = ctx.pool[:MAX_BATCH_SIZE]
    layer = {
        "serving.req_per_s": run.req_per_s,
        "serving.slo_miss_fraction": run.slo_miss_fraction,
        "serving.swap_latency_p50_ms": run.swap_p50_ms,
        "serving.inproc_act_ms": layers.median_seconds(
            lambda: ctx.client.act(ctx.pool[0]), 500) * 1e3,
        "serving.mean_batch_size": stats["mean_batch_size"],
        "serving.batches": stats["batches"],
        "serving.server_latency_p50_ms": stats["p50_latency_ms"],
        "serving.swaps": stats["weight_swaps"],
        "serving.swap_failures": stats["weight_swap_failures"],
        "serving.rejected": stats["rejected"],
        "serving.shed": stats["shed"],
        "serving.expired": stats["expired"],
        "harness.unattributed_fraction":
            unattributed_fraction(ctx.tracer.spans, "serving.iteration"),
    }
    # The plan and the weight transport on their own, server stopped so
    # nothing else runs the agent's session.
    ctx.server.stop()
    layer["backend.act_plan_ms_b32"] = layers.session_ms_per_call(
        agent, lambda: act(batch), 500)
    layer["backend.plan_steps"] = layers.step_count(agent, lambda: act(batch))
    layer.update(layers.build_and_compile(agent))
    layer.update(layers.weight_transport(agent))
    return {
        "layers": layer,
        "traced_throughput_per_s": run.req_per_s,
        "attempted": run.attempted, "failed": run.failed,
        "checks": run.checks,
    }


def teardown(ctx) -> None:
    ctx.server.stop()
