"""impala_process — IMPALA with its actor in another process.

One process actor rolls four SeekAvoid(32x24) envs for 20 steps; each
~0.7 MB rollout crosses the process boundary through the shm codec, a
feeder thread fills the learner's FIFO, and the v-trace learner (128-unit
dense, 2 rollouts per batch) pushes flat weights back after every update.
No replay memory; thread mailboxes idle.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np

from repro import raylite
from repro.agents import IMPALAAgent
from repro.environments import SeekAvoid
from repro.execution.impala_runner import IMPALAActorCore, IMPALARunner

from perf import layers
from perf.harness import gaps_ms, mean_gap_ms
from perf.trace import (
    Traced,
    Tracer,
    busy_fraction,
    unattributed_fraction,
)

WIDTH, HEIGHT = 32, 24
NUM_ACTORS, ENVS_PER_ACTOR = 1, 4
ROLLOUT_LENGTH, BATCH_SIZE = 20, 2
FRAMES_PER_UPDATE = BATCH_SIZE * ROLLOUT_LENGTH * ENVS_PER_ACTOR
# IMPALARunner.run is one blocking call that cannot be resumed, so one
# call covers warm-up and measurement: the measured window is the last
# --seconds of a run that is WARM_SECONDS longer, and the first update
# must fall inside the warm-up.
WARM_SECONDS = 3.0
#: Update gaps are few and clustered: no percentile, but the mean of the
#: slowest tenth (see harness.pooled_tail).
DESIGNED_TAIL = None

AGENT_SPANS = {"get_actions": "agents.act", "update": "agents.update",
               "get_weights": "agents.get_weights",
               "set_weights": "agents.set_weights"}


def _build_agent(seed: int) -> IMPALAAgent:
    probe = SeekAvoid(width=WIDTH, height=HEIGHT, seed=0)
    return IMPALAAgent(
        state_space=probe.state_space, action_space=probe.action_space,
        preprocessing_spec=[{"type": "divide", "divisor": 255.0},
                            {"type": "flatten"}],
        network_spec=[{"type": "dense", "units": 128, "activation": "relu"}],
        optimizer_spec={"type": "rmsprop", "learning_rate": 2e-4},
        rollout_length=ROLLOUT_LENGTH, seed=seed)


def setup(seed: int, seconds: float, tracer=None):
    ctx = SimpleNamespace(seed=seed, tracer=tracer,
                          tracers={"concurrent": tracer})

    def env_factory(env_seed):
        return SeekAvoid(width=WIDTH, height=HEIGHT, max_steps=150,
                         seed=seed * 100_003 + env_seed)

    def agent_factory():
        return _build_agent(seed * 1000 + 2)

    ctx.env_factory, ctx.agent_factory = env_factory, agent_factory
    ctx.learner = agent_factory()
    learner = ctx.learner
    if tracer is not None:
        learner = Traced(ctx.learner, tracer, AGENT_SPANS)
    ctx.runner = IMPALARunner(
        learner, agent_factory, env_factory, num_actors=NUM_ACTORS,
        envs_per_actor=ENVS_PER_ACTOR, rollout_length=ROLLOUT_LENGTH,
        batch_size=BATCH_SIZE, parallel_spec="process")
    # A traced run spends half of --seconds in the real concurrent loop
    # and the rest re-enacting it piece by piece.
    ctx.measured_seconds = seconds if tracer is None else seconds * 0.5
    ctx.sampler = layers.CounterSampler(
        ctx.runner.actor_handles, "env_frames", ctx.measured_seconds / 7.0)
    ctx.duration = WARM_SECONDS + ctx.measured_seconds

    def run():
        ctx.driver_thread = threading.get_ident()
        ctx.t_start = time.perf_counter()
        ctx.result = ctx.runner.run(duration=ctx.duration)

    ctx.run_thread = threading.Thread(target=run, name="perf-impala-driver")
    ctx.run_thread.start()
    ctx.sampler.start()
    # Ready = the learner applied its first update (its public counter).
    deadline = time.monotonic() + WARM_SECONDS
    while ctx.learner.updates == 0 and time.monotonic() < deadline:
        time.sleep(0.005)
    ctx.ready = ctx.learner.updates > 0
    return ctx


def _finish_run(ctx):
    seconds = ctx.measured_seconds
    ctx.run_thread.join()
    ctx.sampler.stop()
    result = ctx.result
    t1 = ctx.t_start + ctx.duration
    t0 = t1 - seconds
    update_times = [ctx.t_start + t for t, _ in result["reward_timeline"]]
    measured_updates = sum(t0 <= t < t1 for t in update_times)
    return SimpleNamespace(
        t0=t0, t1=t1, result=result,
        frames_per_s=ctx.sampler.rate(since=t0),
        updates_per_s=measured_updates / seconds,
        update_gap_ms=mean_gap_ms(update_times, t0, t1),
        gaps_ms=gaps_ms(update_times, t0, t1),
        attempted=result["learner_updates"]
        + result["env_frames"] // (ROLLOUT_LENGTH * ENVS_PER_ACTOR),
        failed=int(np.sum(~np.isfinite(result["losses"]))),
        checks={
            "first_update_within_warm_up": ctx.ready,
            "finite_losses": bool(np.all(np.isfinite(result["losses"]))),
            "at_least_one_update": result["learner_updates"] >= 1,
            "no_actor_restarts": result["restarts"] == 0
            and not result["supervision_failures"],
        })


def measure(ctx, seconds: float) -> dict:
    run = _finish_run(ctx)
    return {
        "metrics": {"throughput_per_s": run.frames_per_s,
                    "latency_p50_ms": run.update_gap_ms},
        "latency_ms": run.gaps_ms, "designed_tail": DESIGNED_TAIL,
        "info": {"throughput_unit": "env frames",
                 "latency_of": "gap between learner updates (p50: mean gap)",
                 "env_frames_per_s": run.frames_per_s,
                 "updates_per_s": run.updates_per_s},
        "attempted": int(run.attempted), "failed": run.failed,
        "checks": run.checks,
    }


def _merge(items: list) -> dict:
    """Stack (T, E, ...) rollouts into one (T, B, ...) learner batch, as
    the runner does before each update."""
    batch = {key: np.concatenate([item[key] for item in items], axis=1)
             for key in ("states", "actions", "behaviour_log_probs",
                         "rewards", "terminals")}
    batch["bootstrap_states"] = np.concatenate(
        [item["bootstrap_states"] for item in items], axis=0)
    return batch


def _reenact_in_process(ctx, seconds: float) -> dict:
    """The actor's rollout and the learner's update on one thread, every
    call into a layer wrapped in a span."""
    tracer = ctx.tracers["reenacted"] = Tracer()
    core = IMPALAActorCore(0, ctx.agent_factory, ctx.env_factory,
                           rollout_length=ROLLOUT_LENGTH,
                           num_envs=ENVS_PER_ACTOR)
    actor = core.agent = Traced(core.agent, tracer, AGENT_SPANS,
                                layers.session_probe(core.agent))
    core.vector_env = Traced(core.vector_env, tracer,
                             {"step_wait": "environments.step"})
    core = Traced(core, tracer, {"rollout": "execution.rollout_in_process"})
    learner = Traced(ctx.learner, tracer, AGENT_SPANS,
                     layers.session_probe(ctx.learner))
    iterations = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        tracer.iteration = iterations
        with tracer.span("execution.iteration"):
            items = [core.rollout() for _ in range(BATCH_SIZE)]
            with tracer.span("execution.merge"):
                batch = _merge(items)
            learner.update(batch)
            actor.set_weights(learner.get_weights(flat=True))
        iterations += 1
    ctx.rollout_item = items[0]
    out = layers.acting_and_update_metrics(
        layers.span_means_ms(tracer), actor, learner)
    out.update({
        "backend.session_runs_per_frame":
            actor.deltas["agents.act"][1] / (iterations * FRAMES_PER_UPDATE),
        "environments.frames_per_step": ENVS_PER_ACTOR,
        "environments.resets": len(core.vector_env.finished_episode_returns),
        "harness.unattributed_fraction":
            unattributed_fraction(tracer.spans, "execution.iteration"),
    })
    return out


def _reenact_across_processes(ctx) -> dict:
    """What the feeder thread pays per rollout: a process actor's
    ``rollout`` round trip (compute + shm codec + pipe), a weight push,
    and a call that does no work."""
    handle = raylite.remote(IMPALAActorCore).options(backend="process").remote(
        0, ctx.agent_factory, ctx.env_factory,
        rollout_length=ROLLOUT_LENGTH, num_envs=ENVS_PER_ACTOR)
    weights = ctx.learner.get_weights(flat=True)
    try:
        return {
            "execution.rollout_ms": layers.median_seconds(
                lambda: raylite.get(handle.rollout.remote()), 15) * 1e3,
            "raylite.weight_push_ms": layers.median_seconds(
                lambda: raylite.get(handle.set_weights.remote(weights)),
                50) * 1e3,
            "raylite.process_call_us": layers.median_seconds(
                lambda: raylite.get(handle.get_stats.remote()), 200) * 1e6,
        }
    finally:
        raylite.kill(handle)


def trace(ctx, seconds: float) -> dict:
    run = _finish_run(ctx)
    spans = ctx.tracer.spans
    layer = {
        "execution.driver_idle_fraction":
            1.0 - busy_fraction(spans, ctx.driver_thread, run.t0, run.t1),
        "execution.learner_idle_fraction":
            1.0 - busy_fraction(spans, ctx.driver_thread, run.t0, run.t1,
                                {"agents.update"}),
        "execution.env_frames_per_s": run.frames_per_s,
        "execution.updates_per_s": run.updates_per_s,
    }
    layer.update(_reenact_in_process(ctx, seconds * 0.3))
    layer.update(_reenact_across_processes(ctx))
    payload = {k: v for k, v in ctx.rollout_item.items()
               if isinstance(v, np.ndarray)}
    layer.update(layers.shm_roundtrip(payload))
    batch = _merge([ctx.rollout_item] * BATCH_SIZE)
    layer.update(layers.update_counts(
        ctx.learner, lambda: ctx.learner.update(batch)))
    layer.update(layers.build_and_compile(ctx.learner))
    layer["agents.weight_bytes"] = int(
        ctx.learner.get_weights(flat=True).nbytes)
    return {
        "layers": layer,
        "traced_throughput_per_s": run.frames_per_s,
        "attempted": int(run.attempted), "failed": run.failed,
        "checks": run.checks,
    }


def teardown(ctx) -> None:
    ctx.run_thread.join()
    ctx.sampler.stop()
    raylite.shutdown()
