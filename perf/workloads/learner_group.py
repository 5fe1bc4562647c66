"""learner_group — update-bound: a K=2 LearnerGroup on thread replicas.

A DQN (16 -> 64 -> 64, dueling, double-Q) at ``optimize="native"`` is
updated on a cycled pool of eight seeded 256-row batches.  Each round
shards the batch, runs the native gradient plan on both replicas,
all-reduces the flat gradient slab over pooled shm blocks and applies
one fused Adam step.  No envs, no acting, no replay, no serving.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from repro import raylite
from repro.agents import DQNAgent
from repro.components.common.batch_splitter import shard_sizes, split_batch
from repro.execution import LearnerGroup
from repro.raylite import collectives
from repro.spaces import FloatBox, IntBox

from perf import layers
from perf.harness import median_latency_ms, median_window, window_rates
from perf.trace import Traced, Tracer, unattributed_fraction

STATE_DIM, NUM_ACTIONS = 16, 4
BATCH_ROWS, POOL_BATCHES, WORLD_SIZE = 256, 8, 2
#: ~210 updates/s, pooled over a run: p99 keeps ~30 samples beyond it.
DESIGNED_TAIL = 99.0


def _build_agent(seed: int) -> DQNAgent:
    return DQNAgent(
        state_space=FloatBox(shape=(STATE_DIM,)),
        action_space=IntBox(NUM_ACTIONS),
        network_spec=[{"type": "dense", "units": 64, "activation": "relu"},
                      {"type": "dense", "units": 64, "activation": "relu"}],
        double_q=True, dueling=True, sync_interval=50, batch_size=32,
        memory_capacity=512, seed=seed, optimize="native")


def _batch(rng) -> dict:
    n = BATCH_ROWS
    return {
        "states": rng.standard_normal((n, STATE_DIM)).astype(np.float32),
        "actions": rng.integers(0, NUM_ACTIONS, n),
        "rewards": rng.standard_normal(n).astype(np.float32),
        "terminals": rng.random(n) < 0.1,
        "next_states": rng.standard_normal((n, STATE_DIM)).astype(np.float32),
    }


def setup(seed: int, seconds: float, tracer=None):
    ctx = SimpleNamespace(seed=seed, tracer=tracer,
                          tracers={"concurrent": tracer})
    rng = np.random.default_rng(seed)
    ctx.pool = [_batch(rng) for _ in range(POOL_BATCHES)]

    def agent_factory(worker_index=0):
        return _build_agent(seed * 1000 + 3)

    ctx.agent_factory = agent_factory
    ctx.single = agent_factory()
    ctx.reference = agent_factory()
    ctx.group = LearnerGroup(ctx.reference, agent_factory, spec=WORLD_SIZE,
                             parallel_spec="thread")
    # First update on both sides, which is also the output check: one
    # K=2 group round must land where the single learner lands.  Shard
    # sums reassociate the float32 batch reduction, and Adam's first
    # step divides by |g|, so an element whose gradient nearly cancels
    # may differ by a few percent of one step (lr = 1e-3) — hence the
    # absolute tolerance; a wrong or missing shard moves most elements
    # by a whole step and changes the loss.
    single_loss, _ = ctx.single.update(ctx.pool[0])
    group_loss, _ = ctx.group.update(ctx.pool[0])
    ctx.group_matches_single = bool(
        np.isclose(group_loss, single_loss, rtol=1e-4)
        and np.allclose(ctx.group.get_weights(flat=True),
                        ctx.single.get_weights(flat=True),
                        rtol=1e-4, atol=5e-5))
    return ctx


def _drive(update, pool, seconds: float):
    """Closed loop of ``update(batch)`` calls over the cycled pool."""
    samples, losses = [], []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = 0
    now = t0
    while now < deadline:
        loss, _ = update(pool[i % len(pool)])
        done = time.perf_counter()
        samples.append((done, done - now))
        losses.append(loss)
        now = done
        i += 1
    return SimpleNamespace(t0=t0, t1=now, samples=samples, losses=losses)


def _group_run(ctx, group, seconds: float):
    misses_before = layers.pool_counts()["raylite.pool_misses"]
    run = _drive(group.update, ctx.pool, seconds)
    run.updates_per_s = median_window(window_rates(
        [t for t, _ in run.samples], run.t0, run.t1))
    run.p50_ms = median_latency_ms(run.samples, run.t0, run.t1)
    run.checks = {
        "group_update_matches_single_learner": ctx.group_matches_single,
        "finite_losses": bool(np.all(np.isfinite(run.losses))),
        "no_pool_misses_in_steady_state":
            layers.pool_counts()["raylite.pool_misses"] == misses_before,
    }
    return run


def measure(ctx, seconds: float) -> dict:
    run = _group_run(ctx, ctx.group, seconds)
    return {
        "metrics": {"throughput_per_s": run.updates_per_s,
                    "latency_p50_ms": run.p50_ms},
        "latency_ms": [dt * 1e3 for _, dt in run.samples],
        "designed_tail": DESIGNED_TAIL,
        "info": {"throughput_unit": "learner updates",
                 "latency_of": "one LearnerGroup.update(batch) call",
                 "updates_per_s": run.updates_per_s},
        "attempted": len(run.samples),
        "failed": int(np.sum(~np.isfinite(run.losses))),
        "checks": run.checks,
    }


def _reenact_round(ctx, seconds: float) -> dict:
    """The group's round, driven phase by phase through the replicas'
    public methods: shard -> gradients -> all-reduce steps -> one fused
    apply + publish -> weight reload on the other rank."""
    tracer = ctx.tracers["reenacted"] = Tracer()
    group = ctx.group
    grad_n = ctx.reference.flat_grad_size()
    weight_n = ctx.reference.flat_layout().total
    steps = collectives.allreduce_steps(group.algorithm, WORLD_SIZE)
    sizes = shard_sizes(BATCH_ROWS, WORLD_SIZE, remainder="last")
    iterations = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        tracer.iteration = iterations
        batch = ctx.pool[iterations % POOL_BATCHES]
        with tracer.span("execution.iteration"):
            with tracer.span("components.split_batch"):
                shards = split_batch(batch, WORLD_SIZE, remainder="last")
            with tracer.span("execution.grad"):
                raylite.get([
                    h.compute_gradients.remote(shard, n / BATCH_ROWS)
                    for h, shard, n in zip(group.replicas, shards, sizes)])
            with tracer.span("execution.allreduce"):
                for method, step in steps:
                    raylite.get([h.collective_step.remote(method, step)
                                 for h in group.replicas])
            with tracer.span("execution.apply_publish"):
                out = raylite.get(
                    group.replicas[0].apply_and_publish.remote(grad_n))
            with tracer.span("execution.load_weights"):
                raylite.get([h.load_weights.remote(0, weight_n, grad_n,
                                                   out["updates"])
                             for h in group.replicas[1:]])
        iterations += 1
    means = layers.span_means_ms(tracer)
    return {
        "execution.grad_ms": means["execution.grad"],
        "execution.allreduce_ms": means["execution.allreduce"],
        "execution.apply_publish_ms": means["execution.apply_publish"],
        "harness.unattributed_fraction":
            unattributed_fraction(tracer.spans, "execution.iteration"),
    }


def _bare_allreduce(ctx) -> dict:
    """The collective alone: slab write + barriered steps over pooled
    blocks with in-process ring members (no actors, no mailboxes).
    Bytes are computed from ``flat_grad_size``: each non-root rank's
    slab is read once by its tree partner."""
    grad_n = ctx.reference.flat_grad_size()
    ring = collectives.SlabRing(WORLD_SIZE, grad_n)
    members = [collectives.RingMember(r, WORLD_SIZE, ring.names(), grad_n,
                                      grad_n) for r in range(WORLD_SIZE)]
    vec = np.ones(grad_n, np.float32)
    steps = collectives.allreduce_steps(ctx.group.algorithm, WORLD_SIZE)

    def round_trip():
        for member in members:
            member.write(vec)
        for method, step in steps:
            for member in members:
                getattr(member, method)(step)

    try:
        return {"raylite.allreduce_slab_ms":
                layers.median_seconds(round_trip, 200) * 1e3,
                "raylite.allreduce_bytes": grad_n * 4 * (WORLD_SIZE - 1)}
    finally:
        for member in members:
            member.close()
        ring.release()


def trace(ctx, seconds: float) -> dict:
    tracer = ctx.tracer
    group = Traced(ctx.group, tracer, {"update": "execution.group_update"})
    run = _group_run(ctx, group, seconds * 0.4)
    # The plain single-learner baseline on the same batches.
    single = Traced(ctx.single, tracer, {"update": "agents.update"},
                    layers.session_probe(ctx.single))
    base = _drive(single.update, ctx.pool, seconds * 0.2)
    single_rate = median_window(window_rates(
        [t for t, _ in base.samples], base.t0, base.t1))
    upd_s, upd_runs, _ = single.deltas["agents.update"]
    upd_wall = sum(dt for _, dt in base.samples)
    layer = {
        "execution.updates_per_s": run.updates_per_s,
        "execution.single_learner_updates_per_s": single_rate,
        # Base: the single learner's rate on the same batches and host.
        "execution.scaling_efficiency": run.updates_per_s / single_rate,
        "agents.update_ms": upd_wall / len(base.samples) * 1e3,
        "agents.update_self_ms":
            (upd_wall - upd_s) / len(base.samples) * 1e3,
        "backend.update_plan_ms": upd_s / upd_runs * 1e3,
    }
    layer.update(_reenact_round(ctx, seconds * 0.2))
    layer.update(_bare_allreduce(ctx))
    layer.update(layers.pool_counts())
    layer.update(layers.update_counts(
        ctx.single, lambda: ctx.single.update(ctx.pool[0])))
    layer.update(layers.build_and_compile(ctx.single))
    layer.update(layers.weight_transport(ctx.single))
    layer["raylite.thread_call_us"] = layers.remote_call_us("thread")
    return {
        "layers": layer,
        "traced_throughput_per_s": run.updates_per_s,
        "attempted": len(run.samples) + len(base.samples),
        "failed": int(np.sum(~np.isfinite(run.losses + base.losses))),
        "checks": run.checks,
    }


def teardown(ctx) -> None:
    ctx.group.shutdown()
    raylite.shutdown()
