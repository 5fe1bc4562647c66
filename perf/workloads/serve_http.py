"""serve_http — one request at a time over HTTP.

A child process (perf/serve_child.py) serves a DQN policy through
``PolicyServer(max_batch_size=16, batch_window=0)`` behind
``HttpGateway``.  Two closed-loop clients, each one keep-alive
``HttpPolicyClient`` sending ``X-Deadline-Ms: 250``, cycle through a
seeded pool of 1024 observations.  HTTP parsing, JSON, the asyncio to
server hand-off and admission dominate; batches never exceed 2.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np

from repro.agents import DQNAgent
from repro.serving import HttpPolicyClient
from repro.spaces import FloatBox, IntBox

from perf.harness import (
    ROOT,
    median_latency_ms,
    median_window,
    window_rates,
)
from perf.trace import span, unattributed_fraction

STATE_DIM, NUM_ACTIONS = 16, 4
MAX_BATCH_SIZE, MAX_QUEUE = 16, 64
NUM_CLIENTS, DEADLINE_MS, POOL_SIZE, PROBE_OBS = 2, 250.0, 1024, 32
#: ~1.4k requests/s: p99 keeps more than a hundred samples beyond it.
DESIGNED_TAIL = 99.0
#: Latency limit of the SLO: 3x the p99 of the first seed study (2.68 ms), frozen.
SLO_MS = 8.0


def build_agent(seed: int) -> DQNAgent:
    return DQNAgent(
        state_space=FloatBox(shape=(STATE_DIM,)),
        action_space=IntBox(NUM_ACTIONS),
        network_spec=[{"type": "dense", "units": 64, "activation": "relu"},
                      {"type": "dense", "units": 64, "activation": "relu"}],
        double_q=True, dueling=True, seed=seed * 1000 + 5)


def setup(seed: int, seconds: float, tracer=None):
    ctx = SimpleNamespace(seed=seed, tracer=tracer,
                          tracers={"concurrent": tracer})
    ctx.server = subprocess.Popen(
        [sys.executable, "-m", "perf.serve_child", str(seed)], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    rng = np.random.default_rng(seed)
    ctx.pool = rng.standard_normal((POOL_SIZE, STATE_DIM)).astype(np.float32)
    # The same seed builds the same policy here: its greedy actions are
    # what every HTTP answer is checked against.
    agent = build_agent(seed)
    ctx.expected = np.asarray(agent.get_actions(ctx.pool, explore=False)[0])
    ctx.port = json.loads(ctx.server.stdout.readline())["port"]
    # Ready = first HTTP 200.
    with HttpPolicyClient("127.0.0.1", ctx.port) as client:
        ctx.first_action = int(client.act(ctx.pool[0]))
    return ctx


def _ask(ctx, command: str) -> dict:
    ctx.server.stdin.write(command + "\n")
    ctx.server.stdin.flush()
    return json.loads(ctx.server.stdout.readline())


def _drive(ctx, seconds: float):
    """Closed loop: every client sends its next request when the answer
    to the previous one has arrived and been checked."""
    stop = threading.Event()
    per_client = [[] for _ in range(NUM_CLIENTS)]
    failures = [[] for _ in range(NUM_CLIENTS)]
    wrong = [0] * NUM_CLIENTS
    tracer = ctx.tracer

    def loop(index: int) -> None:
        i = index * (POOL_SIZE // NUM_CLIENTS)
        with HttpPolicyClient("127.0.0.1", ctx.port,
                              deadline_ms=DEADLINE_MS) as client:
            while not stop.is_set():
                k = i % POOL_SIZE
                start = time.perf_counter()
                try:
                    with span(tracer, "serving.iteration"), \
                            span(tracer, "serving.http_request"):
                        action = client.act(ctx.pool[k])
                except Exception as exc:  # refused, expired or broken
                    failures[index].append(type(exc).__name__)
                else:
                    done = time.perf_counter()
                    per_client[index].append((done, done - start))
                    wrong[index] += int(int(action) != ctx.expected[k])
                i += 1

    threads = [threading.Thread(target=loop, args=(i,), name=f"perf-http-{i}")
               for i in range(NUM_CLIENTS)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    t1 = time.perf_counter()
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
    samples = sorted(s for client in per_client for s in client)
    failed = sum(len(f) for f in failures) + sum(wrong)
    attempted = len(samples) + sum(len(f) for f in failures)
    over_limit = sum(1 for _, v in samples if v * 1e3 > SLO_MS)
    with HttpPolicyClient("127.0.0.1", ctx.port) as client:
        probe_ok = all(int(client.act(ctx.pool[k])) == ctx.expected[k]
                       for k in range(PROBE_OBS))
    return SimpleNamespace(
        t0=t0, t1=t1, samples=samples, attempted=attempted, failed=failed,
        req_per_s=median_window(window_rates(
            [t for t, _ in samples], t0, t1)),
        p50_ms=median_latency_ms(samples, t0, t1),
        slo_miss_fraction=(over_limit + failed) / max(attempted, 1),
        checks={
            "http_actions_equal_in_process_greedy":
                probe_ok and ctx.first_action == ctx.expected[0]
                and sum(wrong) == 0,
            "no_failed_requests": sum(len(f) for f in failures) == 0,
            "no_client_stragglers": not any(t.is_alive() for t in threads),
        })


def measure(ctx, seconds: float) -> dict:
    run = _drive(ctx, seconds)
    return {
        "metrics": {"throughput_per_s": run.req_per_s,
                    "latency_p50_ms": run.p50_ms},
        "latency_ms": [dt * 1e3 for _, dt in run.samples],
        "designed_tail": DESIGNED_TAIL,
        "info": {"throughput_unit": "actions returned",
                 "latency_of": "one HTTP request",
                 "req_per_s": run.req_per_s,
                 "slo_miss_fraction": run.slo_miss_fraction},
        "attempted": run.attempted, "failed": run.failed,
        "checks": run.checks,
    }


def trace(ctx, seconds: float) -> dict:
    run = _drive(ctx, seconds * 0.6)
    with HttpPolicyClient("127.0.0.1", ctx.port) as client:
        metrics = client.metrics()
        # One client, nothing else in flight: the HTTP path's own cost.
        lone = []
        for k in range(500):
            start = time.perf_counter()
            client.act(ctx.pool[k])
            lone.append(time.perf_counter() - start)
    target, route = metrics["target"], metrics["gateway"]["/act"]
    layer = _ask(ctx, "probe")
    layer.update({
        "serving.req_per_s": run.req_per_s,
        "serving.slo_miss_fraction": run.slo_miss_fraction,
        "serving.http_overhead_ms":
            float(np.median(lone)) * 1e3 - layer["serving.inproc_act_ms"],
        "serving.gateway_route_p50_ms": route["p50_ms"],
        "serving.mean_batch_size": target["mean_batch_size"],
        "serving.batches": target["batches"],
        "serving.server_latency_p50_ms": target["p50_latency_ms"],
        "serving.swaps": target["weight_swaps"],
        "serving.swap_failures": target["weight_swap_failures"],
        "serving.rejected": target["rejected"],
        "serving.shed": target["shed"],
        "serving.expired": target["expired"],
        "harness.unattributed_fraction":
            unattributed_fraction(ctx.tracer.spans, "serving.iteration"),
    })
    return {
        "layers": layer,
        "traced_throughput_per_s": run.req_per_s,
        "attempted": run.attempted, "failed": run.failed,
        "checks": run.checks,
    }


def teardown(ctx) -> None:
    try:
        ctx.server.stdin.write("stop\n")
        ctx.server.stdin.close()
        ctx.server.wait(timeout=30.0)
    except (OSError, subprocess.TimeoutExpired):
        ctx.server.kill()
        ctx.server.wait()
    ctx.server.stdout.close()
