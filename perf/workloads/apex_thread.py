"""apex_thread — the full Ape-X loop on thread actors.

Acting-dominated: two workers, each acting on four SimPong(16) envs at
batch 4 and post-processing 200-sample tasks with worker-side
priorities; two replay shards; a dueling-DQN learner fed through the
executor's own driver loop.  No shared memory, no HTTP.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np

from repro import raylite
from repro.agents import ApexAgent
from repro.environments import SequentialVectorEnv, SimPong
from repro.execution import SingleThreadedWorker
from repro.execution.ray import ApexExecutor, ReplayShardActor

from perf import layers
from perf.harness import gaps_ms, mean_gap_ms
from perf.trace import (
    Traced,
    TracedHandle,
    Tracer,
    busy_fraction,
    unattributed_fraction,
)

SIZE, FRAME_SKIP = 16, 4
NUM_WORKERS, ENVS_PER_WORKER, NUM_SHARDS = 2, 4, 2
TASK_SIZE, BATCH_SIZE, N_STEP = 200, 64, 3
LEARNING_STARTS, WEIGHT_SYNC_STEPS = 800, 10
# Small enough that both shards are full two seconds into a process, so
# peak memory does not depend on how many frames it happens to collect.
REPLAY_CAPACITY = 8_000
#: Update gaps are few and clustered: no percentile, but the mean of the
#: slowest tenth (see harness.pooled_tail).
DESIGNED_TAIL = None

AGENT_SPANS = {"get_actions": "agents.act", "call_api": "agents.td_errors",
               "update": "agents.update", "get_weights": "agents.get_weights",
               "set_weights": "agents.set_weights"}


def _build_agent(seed: int) -> ApexAgent:
    probe = SimPong(size=SIZE, frame_skip=FRAME_SKIP, seed=0)
    return ApexAgent(
        state_space=probe.state_space, action_space=probe.action_space,
        preprocessing_spec=[{"type": "divide", "divisor": 255.0},
                            {"type": "flatten"}],
        network_spec=[{"type": "dense", "units": 64, "activation": "relu"}],
        dueling=True, n_step=N_STEP, seed=seed)


def setup(seed: int, seconds: float, tracer=None):
    ctx = SimpleNamespace(seed=seed, tracer=tracer, worker_agents=[],
                          tracers={"concurrent": tracer})

    def env_factory(env_seed):
        return SimPong(size=SIZE, frame_skip=FRAME_SKIP,
                       seed=seed * 100_003 + env_seed)

    def agent_factory(worker_index=0):
        agent = _build_agent(seed * 1000 + 11)
        ctx.worker_agents.append(agent)
        return agent

    ctx.env_factory = env_factory
    ctx.learner = _build_agent(seed * 1000 + 11)
    learner = ctx.learner
    if tracer is not None:
        learner = Traced(ctx.learner, tracer, AGENT_SPANS)
    ctx.executor = ApexExecutor(
        learner, agent_factory, env_factory, num_workers=NUM_WORKERS,
        envs_per_worker=ENVS_PER_WORKER, num_replay_shards=NUM_SHARDS,
        task_size=TASK_SIZE, batch_size=BATCH_SIZE,
        replay_capacity=REPLAY_CAPACITY, n_step=N_STEP,
        learning_starts=LEARNING_STARTS, weight_sync_steps=WEIGHT_SYNC_STEPS,
        seed=seed, parallel_spec="thread")
    if tracer is not None:
        ctx.executor.workers = [TracedHandle(h, tracer)
                                for h in ctx.executor.workers]
        ctx.executor.shards = [TracedHandle(h, tracer)
                               for h in ctx.executor.shards]
    # Ready = the first learner update went through the executor.  The
    # shards then hold >= LEARNING_STARTS samples, so the measured call
    # below needs no second fill phase.
    warm = ctx.executor.execute_workload(
        num_samples=LEARNING_STARTS + 2 * TASK_SIZE)
    ctx.executor.learning_starts = 0
    while warm.learner_updates == 0:
        warm = ctx.executor.execute_workload(num_samples=2 * TASK_SIZE)
    return ctx


def _run_executor(ctx, seconds: float):
    """One ``execute_workload(duration=...)`` with frame counters sampled
    from the workers' public stats; returns the end-to-end numbers."""
    executor = ctx.executor
    sampler = layers.CounterSampler(executor.workers, "env_frames",
                                    seconds / 7.0).start()
    t0 = time.perf_counter()
    result = executor.execute_workload(duration=seconds)
    t1 = time.perf_counter()
    sampler.stop()
    update_times = [t0 + t for t, _ in result.loss_timeline]
    losses = [loss for _, loss in result.loss_timeline]
    return SimpleNamespace(
        t0=t0, t1=t1, result=result, losses=losses,
        frames_per_s=sampler.rate(),
        update_gap_ms=mean_gap_ms(update_times, t0, t1),
        gaps_ms=gaps_ms(update_times, t0, t1),
        tasks=sum(s[-1][1] - s[0][1] for s in sampler.samples if s)
        // TASK_SIZE)


def _checks(ctx, run) -> dict:
    executor = ctx.executor
    weights = ctx.learner.get_weights(flat=True)
    raylite.get([w.set_weights.remote(weights) for w in executor.workers],
                timeout=30.0)
    return {
        "finite_losses": bool(np.all(np.isfinite(run.losses))),
        "at_least_one_update": run.result.learner_updates >= 1,
        "worker_weights_equal_learner": all(
            np.array_equal(a.get_weights(flat=True), weights)
            for a in ctx.worker_agents[:NUM_WORKERS]),
    }


def measure(ctx, seconds: float) -> dict:
    run = _run_executor(ctx, seconds)
    updates = run.result.learner_updates
    return {
        "metrics": {"throughput_per_s": run.frames_per_s,
                    "latency_p50_ms": run.update_gap_ms},
        "latency_ms": run.gaps_ms, "designed_tail": DESIGNED_TAIL,
        "info": {"throughput_unit": "env frames",
                 "latency_of": "gap between learner updates (p50: mean gap)",
                 "env_frames_per_s": run.frames_per_s,
                 "updates_per_s": updates / (run.t1 - run.t0)},
        "attempted": int(updates + run.tasks),
        "failed": int(np.sum(~np.isfinite(run.losses))),
        "checks": _checks(ctx, run),
    }


def _reenact(ctx, seconds: float) -> dict:
    """One Ape-X iteration at a time on the driver thread, every call
    into a layer wrapped in a span: collect (act, env step, TD errors,
    post-processing as collect's self time) -> replay insert -> sample
    -> learner update -> priority update -> weight hand-off."""
    tracer = ctx.tracers["reenacted"] = Tracer()
    agent = _build_agent(ctx.seed * 1000 + 11)
    actor = Traced(agent, tracer, AGENT_SPANS, layers.session_probe(agent))
    learner = Traced(ctx.learner, tracer, AGENT_SPANS,
                     layers.session_probe(ctx.learner))
    envs = [ctx.env_factory(9000 + i) for i in range(ENVS_PER_WORKER)]
    vector_env = Traced(SequentialVectorEnv(envs=envs), tracer,
                        {"step_wait": "environments.step"})
    worker = Traced(
        SingleThreadedWorker(actor, vector_env, n_step=N_STEP,
                             worker_side_prioritization=True),
        tracer, {"collect_samples": "execution.collect"})
    shard = Traced(
        ReplayShardActor(capacity=REPLAY_CAPACITY, seed=ctx.seed,
                         min_sample_size=BATCH_SIZE),
        tracer, {"insert": "components.replay_insert",
                 "sample": "components.replay_sample",
                 "update_priorities": "components.replay_update_priorities"})
    iterations = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        tracer.iteration = iterations
        with tracer.span("execution.iteration"):
            batch = worker.collect_samples(TASK_SIZE)
            shard.insert(batch)
            records, idx, weights = shard.sample(BATCH_SIZE)
            _, td = learner.update(dict(records, importance_weights=weights))
            shard.update_priorities(idx, np.abs(td) + 1e-6)
            actor.set_weights(learner.get_weights(flat=True))
        iterations += 1
    means = layers.span_means_ms(tracer)
    out = layers.acting_and_update_metrics(means, actor, learner)
    session_runs = (actor.deltas["agents.act"][1]
                    + actor.deltas["agents.td_errors"][1])
    out.update({
        "agents.td_errors_ms": means["agents.td_errors"],
        "backend.session_runs_per_frame":
            session_runs / (iterations * TASK_SIZE),
        "environments.frames_per_step": ENVS_PER_WORKER,
        "environments.resets": len(vector_env.finished_episode_returns),
        "components.replay_insert_ms": means["components.replay_insert"],
        "components.replay_sample_ms": means["components.replay_sample"],
        "components.replay_update_priorities_ms":
            means["components.replay_update_priorities"],
        "components.replay_size": shard.size(),
        "execution.collect_ms": means["execution.collect"],
        "execution.postprocess_ms": layers.span_means_ms(
            tracer, self_time=True)["execution.collect"],
        "harness.unattributed_fraction":
            unattributed_fraction(tracer.spans, "execution.iteration"),
    })
    return out


def trace(ctx, seconds: float) -> dict:
    tracer = ctx.tracer
    # The real concurrent loop, watched through the learner proxy and the
    # traced actor handles: who waits for whom.
    run = _run_executor(ctx, seconds * 0.5)
    driver = threading.get_ident()
    layer = {
        "execution.driver_idle_fraction":
            1.0 - busy_fraction(tracer.spans, driver, run.t0, run.t1),
        "execution.learner_idle_fraction":
            1.0 - busy_fraction(tracer.spans, driver, run.t0, run.t1,
                                {"agents.update"}),
        "execution.env_frames_per_s": run.frames_per_s,
        "execution.updates_per_s":
            run.result.learner_updates / (run.t1 - run.t0),
    }
    checks = _checks(ctx, run)
    layer.update(_reenact(ctx, seconds * 0.35))
    records, _, weights = raylite.get(
        ctx.executor.shards[0].sample.remote(BATCH_SIZE), timeout=30.0)
    batch = dict(records, importance_weights=weights)
    layer.update(layers.update_counts(
        ctx.learner, lambda: ctx.learner.update(batch)))
    layer.update(layers.build_and_compile(ctx.learner))
    layer["agents.weight_bytes"] = int(
        ctx.learner.get_weights(flat=True).nbytes)
    layer["raylite.thread_call_us"] = layers.remote_call_us("thread")
    return {
        "layers": layer,
        "traced_throughput_per_s": run.frames_per_s,
        "attempted": int(run.result.learner_updates + run.tasks),
        "failed": int(np.sum(~np.isfinite(run.losses))),
        "checks": checks,
    }


def teardown(ctx) -> None:
    raylite.shutdown()
