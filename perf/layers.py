"""Measurements of single layers, shared by the workloads' traced runs.

Everything here calls a layer's public functions from outside and reads
its public stats objects; nothing under ``src/`` is patched.  Metric
names are ``<module>.<metric>`` with ``module`` a package of ``repro``.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Callable, Dict, List

import numpy as np

from repro import raylite
from repro.execution.ray import ReplayShardActor
from repro.raylite import shm

from perf.trace import Tracer, durations, self_times


def median_seconds(fn: Callable[[], object], calls: int) -> float:
    """Median wall time of ``calls`` calls of ``fn`` (after one warm-up)."""
    fn()
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def session_probe(agent):
    """Counters of the agent's ``SessionStats`` (session wall, run calls,
    plan steps executed) as a probe for :class:`trace.Traced`."""
    stats = agent.graph.session.stats
    return lambda: (stats.total_time, stats.run_calls, stats.nodes_executed)


def session_ms_per_call(agent, fn: Callable[[], object], calls: int) -> float:
    """Mean time inside ``Session.run`` per call of ``fn`` — the plan's
    own cost without the agent's Python plumbing around it."""
    probe = session_probe(agent)
    fn()
    t_before, runs_before, _ = probe()
    for _ in range(calls):
        fn()
    t_after, runs_after, _ = probe()
    return (t_after - t_before) / max(runs_after - runs_before, 1) * 1e3


def build_and_compile(agent) -> Dict[str, float]:
    """``core`` and ``backend`` set-up costs and compiler counts of one
    built agent, read after its plans have run at least once."""
    build = agent.build_stats
    sess = agent.graph.session.stats
    return {
        "core.build_s": build.trace_time + build.build_time,
        "core.graph_fn_nodes": build.num_graph_fn_nodes,
        "backend.compile_s": sess.compile_time,
        "backend.native_compile_s": sess.native_compile_time,
        "backend.native_cache_hits": sess.native_cache_hits,
        "backend.nodes_fused": sess.nodes_fused,
        "backend.native_segments": sess.native_segments,
        "backend.native_steps": sess.native_steps,
        "backend.native_py_steps": sess.native_py_steps,
        "backend.buffers_donated": sess.buffers_donated,
    }


def update_counts(agent, update: Callable[[], object],
                  updates: int = 20) -> Dict[str, float]:
    """Counts over a fixed number of updates, so they repeat exactly:
    steps of the update plan (the smallest per-call step count — calls
    that also sync the target network execute more) and session runs
    per update (target syncs included)."""
    probe = session_probe(agent)
    update()
    steps = []
    _, runs_before, _ = probe()
    for _ in range(updates):
        _, _, before = probe()
        update()
        steps.append(probe()[2] - before)
    return {"backend.plan_steps": min(steps),
            "backend.session_runs_per_update":
                (probe()[1] - runs_before) / updates}


def step_count(agent, fn: Callable[[], object]) -> float:
    """Compiled-plan steps executed by one (warm) call of ``fn``."""
    probe = session_probe(agent)
    fn()
    before = probe()[2]
    fn()
    return probe()[2] - before


def weight_transport(agent, calls: int = 50) -> Dict[str, float]:
    flat = agent.get_weights(flat=True)
    return {
        "agents.get_weights_ms":
            median_seconds(lambda: agent.get_weights(flat=True), calls) * 1e3,
        "agents.set_weights_ms":
            median_seconds(lambda: agent.set_weights(flat), calls) * 1e3,
        "agents.weight_bytes": int(flat.nbytes),
    }


def remote_call_us(backend: str, calls: int = 200) -> float:
    """Round trip of a remote call that does no work (``size()`` of an
    empty replay shard) through a raylite mailbox of ``backend``."""
    handle = raylite.remote(ReplayShardActor).options(
        backend=backend).remote(capacity=16)
    try:
        return median_seconds(
            lambda: raylite.get(handle.size.remote()), calls) * 1e6
    finally:
        raylite.kill(handle)


def shm_roundtrip(payload, calls: int = 50) -> Dict[str, float]:
    """The process backend's codec on ``payload``: one copy into a
    shared-memory block on encode, zero-copy views out on decode (whose
    release unlinks the block).  Bytes are computed from the arrays."""
    def roundtrip():
        tree, block = shm.encode(payload)
        decoded = shm.decode(tree, block)
        del decoded

    nbytes = sum(v.nbytes for v in payload.values()
                 if isinstance(v, np.ndarray))
    return {"raylite.shm_roundtrip_ms": median_seconds(roundtrip, calls) * 1e3,
            "raylite.shm_bytes_per_msg": nbytes}


def pool_counts() -> Dict[str, float]:
    stats = shm.get_pool().stats()
    return {"raylite.pool_hits": stats["hits"],
            "raylite.pool_misses": stats["misses"]}


def span_means_ms(tracer: Tracer, self_time: bool = False) -> Dict[str, float]:
    """Span name -> mean duration (or mean self time) in milliseconds."""
    table = self_times(tracer.spans) if self_time else durations(tracer.spans)
    return {name: statistics.fmean(values) * 1e3
            for name, values in table.items()}


def acting_and_update_metrics(means: Dict[str, float], actor, learner
                              ) -> Dict[str, float]:
    """What a re-enacted training iteration says about ``agents`` and
    the plans under it.  ``actor`` and ``learner`` are
    :class:`trace.Traced` agents probed with :func:`session_probe`; a
    call's self time is its wall minus its time inside ``Session.run``."""
    act_s, act_runs, _ = actor.deltas["agents.act"]
    upd_s, upd_runs, _ = learner.deltas["agents.update"]
    return {
        "agents.act_ms": means["agents.act"],
        "agents.act_self_ms":
            means["agents.act"] - act_s / actor.calls["agents.act"] * 1e3,
        "agents.update_ms": means["agents.update"],
        "agents.update_self_ms":
            means["agents.update"]
            - upd_s / learner.calls["agents.update"] * 1e3,
        "agents.get_weights_ms": means["agents.get_weights"],
        "agents.set_weights_ms": means["agents.set_weights"],
        "backend.act_plan_ms_b4": act_s / act_runs * 1e3,
        "backend.update_plan_ms": upd_s / upd_runs * 1e3,
        "environments.step_ms": means["environments.step"],
    }


class CounterSampler:
    """Polls the public ``get_stats`` of raylite actors on a fixed period
    and keeps ``(reply time, counter)`` per actor.  The call queues
    behind the actor's task in flight, so every sample lands on a task
    boundary and rates between samples are exact for whole tasks."""

    def __init__(self, handles: List, key: str, period: float):
        self.handles = list(handles)
        self.key = key
        self.period = period
        self.samples: List[List[tuple]] = [[] for _ in self.handles]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perf-counter-sampler")

    def _record(self, index: int, ref) -> None:
        now = time.perf_counter()
        try:
            value = ref.result(0)[self.key]
        except Exception:  # actor stopped before answering: no sample
            return
        self.samples[index].append((now, value))

    def poll(self) -> List:
        refs = []
        for index, handle in enumerate(self.handles):
            try:
                ref = handle.get_stats.remote()
            except raylite.RayliteError:  # actor already stopped
                continue
            ref.add_done_callback(
                lambda done, index=index: self._record(index, done))
            refs.append(ref)
        return refs

    def _run(self) -> None:
        self.poll()
        while not self._stop.wait(self.period):
            self.poll()

    def start(self) -> "CounterSampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop polling and take one closing sample from every actor
        that still answers."""
        self._stop.set()
        self._thread.join(timeout=10.0)
        refs = self.poll()
        raylite.wait(refs, num_returns=len(refs), timeout=10.0)

    def rate(self, since: float = 0.0) -> float:
        """Summed per-actor rate between each actor's first sample at or
        after ``since`` and its last one."""
        total = 0.0
        for samples in self.samples:
            inside = [x for x in samples if x[0] >= since]
            (t_first, c_first), (t_last, c_last) = inside[0], inside[-1]
            total += (c_last - c_first) / (t_last - t_first)
        return total
