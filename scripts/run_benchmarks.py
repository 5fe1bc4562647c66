#!/usr/bin/env python
"""Quick-mode performance snapshots -> BENCH_compiler.json +
BENCH_parallel.json + BENCH_learner.json.

Runs the hot-path micro-benchmarks that track the repo's perf
trajectory — `session.run` on the DQN update fetch-set (per optimize
level, including ``"native"`` C codegen when a toolchain is present),
vector-env stepping, and prioritized-replay sampling — plus a
thread-vs-process snapshot of Ape-X/IMPALA actor-side sample throughput
on a CPU-bound env (the ISSUE-3 axis) and the learner-path snapshot
(fused vs per-variable optimizer step, dict vs flat weight push — the
ISSUE-4 axis), each in a few seconds, and writes ops/sec summaries. CI
calls this in a non-blocking step so every PR from the graph-compiler
PR onward records machine-readable perf points.

Usage:
    PYTHONPATH=src python scripts/run_benchmarks.py \
        [--output BENCH_compiler.json] \
        [--parallel-output BENCH_parallel.json] [--skip-parallel] \
        [--learner-output BENCH_learner.json] [--skip-learner] \
        [--serving-output BENCH_serving.json] [--skip-serving] \
        [--multi-learner-output BENCH_multi_learner.json] \
        [--skip-multi-learner] \
        [--gateway-output BENCH_gateway.json] [--skip-gateway] \
        [--continuous-output BENCH_continuous.json] [--skip-continuous]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time


def _measure(fn, window: float = 0.3, rounds: int = 3) -> float:
    """Best-of-``rounds`` calls/sec for ``fn`` (robust to CPU-clock drift)."""
    fn()  # warm
    best = 0.0
    for _ in range(rounds):
        n, t0 = 0, time.perf_counter()
        while time.perf_counter() - t0 < window:
            fn()
            n += 1
        best = max(best, n / (time.perf_counter() - t0))
    return best


def _optimize_levels() -> tuple:
    """The sweepable optimize levels on this host (``"native"`` needs a
    C toolchain; without one the level would just re-measure fused)."""
    from repro.backend import native

    return ("none", "basic", "fused") + (
        ("native",) if native.toolchain_available() else ())


def bench_session_run() -> dict:
    """DQN update fetch-set throughput per optimize level (the E10
    configuration, so this snapshot tracks that bench's series)."""
    import numpy as np
    from repro.agents import DQNAgent
    from repro.spaces import FloatBox, IntBox

    results = {}
    for optimize in _optimize_levels():
        agent = DQNAgent(
            state_space=FloatBox(shape=(4,)), action_space=IntBox(2),
            network_spec=[{"type": "dense", "units": 16,
                           "activation": "relu"},
                          {"type": "dense", "units": 16,
                           "activation": "relu"}],
            prioritized_replay=True, dueling=True, double_q=True,
            batch_size=4, memory_capacity=512, seed=11, optimize=optimize)
        rng = np.random.default_rng(0)
        agent.observe_batch(
            states=rng.standard_normal((128, 4)).astype(np.float32),
            actions=rng.integers(0, 2, 128),
            rewards=rng.standard_normal(128).astype(np.float32),
            terminals=rng.random(128) < 0.1,
            next_states=rng.standard_normal((128, 4)).astype(np.float32))
        batch = np.asarray(4)
        results[optimize] = round(_measure(
            lambda: agent.call_api("update_from_memory", batch)), 1)
    results["fused_speedup_vs_none"] = round(
        results["fused"] / results["none"], 3)
    if "native" in results:
        results["native_speedup_vs_fused"] = round(
            results["native"] / results["fused"], 3)
    return results


def bench_vector_env_step() -> dict:
    """Sequential vector-env stepping throughput (8 GridWorlds)."""
    import numpy as np
    from repro.environments import GridWorld, SequentialVectorEnv

    vec = SequentialVectorEnv(envs=[GridWorld(seed=i) for i in range(8)])
    vec.reset_all()
    actions = np.zeros(vec.num_envs, dtype=np.int64)

    def step():
        vec.step_async(actions)
        vec.step_wait()

    steps_per_s = _measure(step)
    return {"steps_per_s": round(steps_per_s, 1),
            "env_frames_per_s": round(steps_per_s * vec.num_envs, 1)}


def bench_per_sample() -> dict:
    """Prioritized-replay insert/sample/update on the host-side buffer."""
    import numpy as np
    from repro.components.memories.python_memory import (
        PrioritizedReplayBuffer,
    )

    rng = np.random.default_rng(0)
    buf = PrioritizedReplayBuffer(capacity=2 ** 16, seed=0)
    n = 2 ** 16
    records = {
        "states": rng.standard_normal((n, 8)).astype(np.float32),
        "rewards": rng.standard_normal(n).astype(np.float32),
    }
    buf.insert(records, priorities=rng.random(n))
    sampled = {}

    def sample():
        _, idx, _ = buf.sample(256)
        sampled["idx"] = idx

    sample_per_s = _measure(sample)
    idx = sampled["idx"]
    priorities = rng.random(256)
    update_per_s = _measure(lambda: buf.update_priorities(idx, priorities))
    chunk = {k: v[:1024] for k, v in records.items()}
    prio_chunk = rng.random(1024)
    insert_per_s = _measure(lambda: buf.insert(chunk, priorities=prio_chunk))
    return {"sample256_per_s": round(sample_per_s, 1),
            "update256_per_s": round(update_per_s, 1),
            "insert1024_per_s": round(insert_per_s, 1)}


def bench_parallel_backends(duration: float = 2.0) -> dict:
    """Ape-X/IMPALA actor-side throughput, thread vs. process backends.

    CPU-bound pure-Python env (GIL-holding spin): the thread backend
    serializes its actors; the process backend scales with cores.
    Updates are disabled so the numbers isolate sample collection.
    """
    import os

    from repro import raylite
    from repro.agents import ApexAgent, IMPALAAgent
    from repro.environments import RandomEnv
    from repro.execution.impala_runner import IMPALARunner
    from repro.execution.ray import ApexExecutor
    from repro.spaces import IntBox

    def env_factory(seed):
        return RandomEnv(state_space=(8,), action_space=4,
                         terminal_prob=0.02, cpu_work=2000, seed=seed)

    def apex_agent_factory(worker_index=0):
        return ApexAgent(state_space=(8,), action_space=IntBox(4),
                         network_spec=[{"type": "dense", "units": 16}],
                         seed=worker_index + 1)

    def impala_agent_factory():
        return IMPALAAgent(state_space=(8,), action_space=IntBox(4),
                           network_spec=[{"type": "dense", "units": 16,
                                          "activation": "tanh"}], seed=2)

    def apex_rate(parallel_spec):
        executor = ApexExecutor(
            learner_agent=apex_agent_factory(),
            agent_factory=apex_agent_factory, env_factory=env_factory,
            num_workers=4, envs_per_worker=2, num_replay_shards=2,
            task_size=50, batch_size=16, replay_capacity=4096,
            learning_starts=10 ** 9, parallel_spec=parallel_spec)
        try:
            result = executor.execute_workload(duration=duration,
                                               updates_enabled=False)
            return round(result.env_frames_per_second, 1)
        finally:
            raylite.shutdown()

    def impala_rate(parallel_spec):
        runner = IMPALARunner(
            learner_agent=impala_agent_factory(),
            agent_factory=impala_agent_factory, env_factory=env_factory,
            num_actors=4, envs_per_actor=2, rollout_length=10,
            batch_size=2, parallel_spec=parallel_spec)
        try:
            result = runner.run(duration=duration, updates_enabled=False)
            return round(result["env_frames_per_second"], 1)
        finally:
            raylite.shutdown()

    summary = {
        "cores": os.cpu_count() or 1,
        "cpu_work": 2000,
        "num_workers": 4,
        "apex_frames_per_s": {
            "thread": apex_rate("thread"),
            "process": apex_rate({"backend": "process",
                                  "env_backend": "subproc",
                                  "env_workers": 2}),
        },
        "impala_frames_per_s": {
            "thread": impala_rate("thread"),
            "process": impala_rate("process"),
        },
    }
    for key in ("apex_frames_per_s", "impala_frames_per_s"):
        rates = summary[key]
        rates["process_speedup"] = round(
            rates["process"] / rates["thread"], 3) if rates["thread"] else None
    return summary


def bench_learner_path() -> dict:
    """Flat-parameter learner path: fused vs per-variable update step
    (K=100 Adam variables) and dict vs flat weight push (thread
    backend; the E12 bench covers the process backend)."""
    import numpy as np

    from repro import raylite
    from repro.agents import DQNAgent
    from repro.backend import functional as F
    from repro.components.optimizers import Adam
    from repro.core import Component, graph_fn, rlgraph_api
    from repro.core.graph_builder import build_graph
    from repro.spaces import FloatBox, IntBox

    class KVar(Component):
        def __init__(self, optimizer, num_vars, scope="kvar"):
            super().__init__(scope=scope)
            self.optimizer = optimizer
            self.num_vars = num_vars
            self.add_components(optimizer)

        def create_variables(self, input_spaces):
            ws = [self.get_variable(f"w-{i:03d}", shape=(16,),
                                    initializer="normal")
                  for i in range(self.num_vars)]
            self.optimizer.set_variables(ws)

        @rlgraph_api
        def update(self, target):
            loss = self._graph_fn_loss(target)
            return self._graph_fn_result(loss, self.optimizer.step(loss))

        @graph_fn
        def _graph_fn_loss(self, target):
            total = None
            for name in sorted(self.variables):
                var = self.variables[name]
                term = F.reduce_sum(F.square(F.sub(var.read(), target)))
                total = term if total is None else F.add(total, term)
            return total

        @graph_fn(requires_variables=False)
        def _graph_fn_result(self, loss, step_op):
            return F.with_deps(loss, step_op) if step_op is not None else loss

    target = np.zeros(16, np.float32)
    update_rates = {}
    update_nodes = {}
    levels = tuple(lv for lv in _optimize_levels() if lv != "basic")
    for optimize in levels:
        problem = KVar(Adam(learning_rate=1e-3), num_vars=100)
        built = build_graph(problem, {"target": FloatBox(shape=(16,))},
                            seed=1, optimize=optimize)
        update_rates[optimize] = round(
            _measure(lambda: built.execute("update", target)), 1)
        update_nodes[optimize] = problem.optimizer.update_node_count

    def agent_factory():
        return DQNAgent(
            state_space=FloatBox(shape=(8,)), action_space=IntBox(4),
            network_spec=[{"type": "dense", "units": 128,
                           "activation": "relu"}], seed=5)

    class Sink:
        def __init__(self, factory):
            self.agent = factory()

        def set_weights(self, weights) -> int:
            self.agent.set_weights(weights)
            return 0

    learner = agent_factory()
    sink = raylite.remote(Sink).remote(agent_factory)
    push_rates = {}
    try:
        for kind in ("dict", "flat"):
            def push():
                weights = learner.get_weights(flat=(kind == "flat"))
                raylite.get(sink.set_weights.remote(weights))
            push_rates[kind] = round(_measure(push), 1)
    finally:
        raylite.shutdown()

    summary = {
        "update_step_k100_per_s": update_rates,
        "update_graph_nodes_k100": update_nodes,
        "weight_push_thread_per_s": push_rates,
    }
    summary["fused_update_speedup"] = round(
        update_rates["fused"] / update_rates["none"], 3) \
        if update_rates["none"] else None
    if "native" in update_rates:
        summary["native_update_speedup_vs_fused"] = round(
            update_rates["native"] / update_rates["fused"], 3) \
            if update_rates["fused"] else None
    summary["flat_push_speedup"] = round(
        push_rates["flat"] / push_rates["dict"], 3) \
        if push_rates["dict"] else None
    return summary


def bench_serving(duration: float = 1.0, num_clients: int = 6) -> dict:
    """Policy-serving snapshot (the E13 axis): req/s and client-side
    p50/p99 latency, micro-batched vs unbatched single-call serving,
    under closed-loop concurrent clients.  Ratios are recorded, not
    asserted — like E11/E12 the batched/unbatched bar only means much
    on multi-core hosts (though the batching win is per-call overhead
    amortization and usually shows even on one core)."""
    import os

    import numpy as np

    from repro.agents import DQNAgent
    from repro.serving import PolicyServer, drive_concurrent_load
    from repro.spaces import FloatBox, IntBox

    def agent():
        return DQNAgent(state_space=FloatBox(shape=(8,)),
                        action_space=IntBox(4),
                        network_spec=[{"type": "dense", "units": 64,
                                       "activation": "relu"}], seed=3)

    rng = np.random.default_rng(0)
    observations = rng.standard_normal((num_clients, 8)).astype(np.float32)

    def drive(server):
        load = drive_concurrent_load(server, num_clients, duration,
                                     observations=observations)
        return {"req_per_s": round(load["req_per_s"], 1),
                "p50_ms": round(load["p50_ms"], 3),
                "p99_ms": round(load["p99_ms"], 3)}

    summary = {"cores": os.cpu_count() or 1, "clients": num_clients}
    server = PolicyServer(agent(), max_batch_size=1, batch_window=0.0)
    summary["unbatched"] = drive(server)
    server.stop()
    server = PolicyServer(agent(), max_batch_size=16, batch_window=0.0)
    summary["batched"] = drive(server)
    summary["batched"]["mean_batch_size"] = round(
        server.stats.mean_batch_size, 2)
    server.stop()
    base = summary["unbatched"]["req_per_s"]
    summary["batched_speedup"] = round(
        summary["batched"]["req_per_s"] / base, 3) if base else None
    return summary


def bench_gateway(duration: float = 0.8) -> dict:
    """HTTP gateway overload snapshot (the E15 axis): req/s, success
    p50/p99 and shed rate at 1x/4x/16x client multiples against a
    bounded-queue (reject) gateway, plus the unbounded ablation at 16x.
    The contract the numbers should show: admitted p99 stays flat while
    the shed rate absorbs the oversubscription; the ablation instead
    converts the same load into queueing delay."""
    import os

    import numpy as np

    from repro.agents import DQNAgent
    from repro.serving import HttpGateway, PolicyServer, drive_concurrent_load
    from repro.spaces import FloatBox, IntBox

    def agent():
        return DQNAgent(state_space=FloatBox(shape=(8,)),
                        action_space=IntBox(4),
                        network_spec=[{"type": "dense", "units": 64,
                                       "activation": "relu"}], seed=3)

    rng = np.random.default_rng(0)
    deadline_ms = 250.0
    levels = {"1x": 2, "4x": 8, "16x": 32}

    def drive(gateway, clients):
        load = drive_concurrent_load(
            gateway, clients, duration,
            observations=rng.standard_normal(
                (clients, 8)).astype(np.float32),
            tolerate_overload=True, deadline=deadline_ms / 1e3)
        return {"clients": clients,
                "req_per_s": round(load["req_per_s"], 1),
                "p50_ms": round(load["p50_ms"], 3),
                "p99_ms": round(load["p99_ms"], 3),
                "shed_rate": round(load["shed_rate"], 4),
                "deadline_rate": round(load["deadline_rate"], 4),
                "stragglers": load["stragglers"]}

    summary = {"cores": os.cpu_count() or 1, "max_queue": 16,
               "deadline_ms": deadline_ms}
    server = PolicyServer(
        agent(), max_batch_size=16, batch_window=0.0,
        admission_spec={"max_queue": 16, "retry_after": 0.002})
    with HttpGateway(server, default_deadline=deadline_ms / 1e3) as gateway:
        for level, clients in levels.items():
            summary[level] = drive(gateway, clients)
    server.stop()
    server = PolicyServer(agent(), max_batch_size=16, batch_window=0.0)
    with HttpGateway(server, default_deadline=deadline_ms / 1e3) as gateway:
        summary["16x_unbounded"] = drive(gateway, levels["16x"])
    server.stop()
    base = summary["1x"]["p99_ms"]
    summary["p99_growth_16x_vs_1x"] = round(
        summary["16x"]["p99_ms"] / base, 3) if base else None
    return summary


def bench_multi_learner(window: float = 0.5) -> dict:
    """Learner-group snapshot (the E14 axis): single vs K-replica
    update throughput on one total batch, plus the bare all-reduce
    round time over a 1M-element slab (ring and tree).  Ratios are
    recorded, not asserted — on a 1-core host the replicas serialize
    (same gating note as E11/E12)."""
    import numpy as np

    from repro.agents import DQNAgent
    from repro.execution.learner_group import LearnerGroup
    from repro.raylite import collectives
    from repro.raylite.shm import get_pool
    from repro.spaces import FloatBox, IntBox

    def agent_factory(worker_index=0):
        return DQNAgent(
            state_space=FloatBox(shape=(16,)), action_space=IntBox(4),
            network_spec=[{"type": "dense", "units": 64,
                           "activation": "relu"},
                          {"type": "dense", "units": 64,
                           "activation": "relu"}],
            double_q=True, dueling=True, sync_interval=50, batch_size=32,
            memory_capacity=512, seed=3)

    rng = np.random.default_rng(0)
    n = 256
    batch = {
        "states": rng.standard_normal((n, 16)).astype(np.float32),
        "actions": rng.integers(0, 4, n),
        "rewards": rng.standard_normal(n).astype(np.float32),
        "terminals": rng.random(n) < 0.1,
        "next_states": rng.standard_normal((n, 16)).astype(np.float32),
    }

    update_rates = {}
    pool_misses = {}
    single = agent_factory()
    update_rates["single"] = round(
        _measure(lambda: single.update(batch), window=window), 1)
    for k in (2, 4):
        group = LearnerGroup(agent_factory(), agent_factory, spec=k,
                             parallel_spec="thread")
        try:
            group.update(batch)  # warm: ring members attach lazily
            before = get_pool().stats()["misses"]
            update_rates[f"k{k}"] = round(
                _measure(lambda: group.update(batch), window=window), 1)
            pool_misses[f"k{k}"] = get_pool().stats()["misses"] - before
        finally:
            group.shutdown()

    slab = 1_000_000
    allreduce_ms = {}
    for algorithm, world in (("ring", 4), ("tree", 4), ("tree", 2)):
        ring = collectives.SlabRing(world, slab)
        if not ring.available:
            allreduce_ms = {"unavailable": True}
            break
        members = [collectives.RingMember(r, world, ring.names(), slab, slab)
                   for r in range(world)]
        vec = np.ones(slab, np.float32)
        steps = collectives.allreduce_steps(algorithm, world)

        def round_trip():
            for m in members:
                m.write(vec)
            for method, step in steps:
                for m in members:
                    getattr(m, method)(step)

        rate = _measure(round_trip, window=window)
        allreduce_ms[f"{algorithm}_k{world}"] = round(1e3 / rate, 3)
        for m in members:
            m.close()
        ring.release()

    summary = {
        "group_update_per_s": update_rates,
        "pool_misses_during_run": pool_misses,
        "allreduce_round_ms_1m_slab": allreduce_ms,
    }
    base = update_rates["single"]
    summary["k2_vs_single"] = round(update_rates["k2"] / base, 3) \
        if base else None
    return summary


def bench_continuous(window: float = 0.3) -> dict:
    """Continuous-control snapshot (the E16 axis): SAC update
    throughput per optimize level on an identical external batch, plus
    raw pendulum stepping.  The SAC update fetch-set is the largest in
    the suite (two policy evaluations, six critic towers, grouped
    gradient step), so its fused/native speedups track whether the
    compiler win generalizes beyond the DQN-shaped updates of E10."""
    import numpy as np

    from repro.agents import SACAgent
    from repro.environments import Pendulum
    from repro.spaces import FloatBox

    state_dim, action_dim, batch_size = 3, 1, 32

    def agent(optimize):
        return SACAgent(
            state_space=FloatBox(shape=(state_dim,)),
            action_space=FloatBox(
                low=-2.0 * np.ones(action_dim, np.float32),
                high=2.0 * np.ones(action_dim, np.float32)),
            network_spec=[{"type": "dense", "units": 64,
                           "activation": "relu"},
                          {"type": "dense", "units": 64,
                           "activation": "relu"}],
            batch_size=batch_size, memory_capacity=1024, seed=11,
            optimize=optimize)

    rng = np.random.default_rng(0)
    batch = {
        "states": rng.standard_normal(
            (batch_size, state_dim)).astype(np.float32),
        "actions": rng.uniform(
            -2.0, 2.0, (batch_size, action_dim)).astype(np.float32),
        "rewards": rng.standard_normal(batch_size).astype(np.float32),
        "terminals": rng.random(batch_size) < 0.1,
        "next_states": rng.standard_normal(
            (batch_size, state_dim)).astype(np.float32),
    }

    update_rates = {}
    for optimize in _optimize_levels():
        sac = agent(optimize)
        update_rates[optimize] = round(
            _measure(lambda: sac.update(batch), window=window), 1)

    env = Pendulum(max_steps=200, seed=0)
    env.reset()
    torques = rng.uniform(-2.0, 2.0, 4096).astype(np.float32)
    idx = [0]

    def step():
        _, _, terminal, _ = env.step(torques[idx[0] % 4096])
        idx[0] += 1
        if terminal:
            env.reset()

    summary = {
        "sac_update_per_s": update_rates,
        "pendulum_steps_per_s": round(_measure(step, window=window), 1),
    }
    summary["fused_update_speedup"] = round(
        update_rates["fused"] / update_rates["none"], 3) \
        if update_rates["none"] else None
    if "native" in update_rates:
        summary["native_update_speedup_vs_fused"] = round(
            update_rates["native"] / update_rates["fused"], 3) \
            if update_rates["fused"] else None
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_compiler.json",
                        help="summary JSON path (default: %(default)s)")
    parser.add_argument("--parallel-output", default="BENCH_parallel.json",
                        help="thread-vs-process snapshot path "
                             "(default: %(default)s)")
    parser.add_argument("--skip-parallel", action="store_true",
                        help="skip the thread-vs-process actor snapshot")
    parser.add_argument("--learner-output", default="BENCH_learner.json",
                        help="learner-path snapshot path "
                             "(default: %(default)s)")
    parser.add_argument("--skip-learner", action="store_true",
                        help="skip the learner-path snapshot")
    parser.add_argument("--serving-output", default="BENCH_serving.json",
                        help="policy-serving snapshot path "
                             "(default: %(default)s)")
    parser.add_argument("--skip-serving", action="store_true",
                        help="skip the policy-serving snapshot")
    parser.add_argument("--multi-learner-output",
                        default="BENCH_multi_learner.json",
                        help="learner-group snapshot path "
                             "(default: %(default)s)")
    parser.add_argument("--skip-multi-learner", action="store_true",
                        help="skip the learner-group snapshot")
    parser.add_argument("--gateway-output", default="BENCH_gateway.json",
                        help="HTTP gateway overload snapshot path "
                             "(default: %(default)s)")
    parser.add_argument("--skip-gateway", action="store_true",
                        help="skip the HTTP gateway overload snapshot")
    parser.add_argument("--continuous-output",
                        default="BENCH_continuous.json",
                        help="continuous-control snapshot path "
                             "(default: %(default)s)")
    parser.add_argument("--skip-continuous", action="store_true",
                        help="skip the continuous-control snapshot")
    args = parser.parse_args(argv)

    from repro.backend import native

    host = {"python": platform.python_version(),
            "platform": platform.platform(),
            "cores": os.cpu_count() or 1,
            "optimize_levels": list(_optimize_levels()),
            "native_toolchain": native.toolchain_available()}
    summary = {
        **host,
        "session_run_dqn_update_per_s": bench_session_run(),
        "vector_env_step": bench_vector_env_step(),
        "prioritized_replay": bench_per_sample(),
    }
    with open(args.output, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    json.dump(summary, sys.stdout, indent=2)
    print()
    if not args.skip_parallel:
        parallel = {**host, **bench_parallel_backends()}
        with open(args.parallel_output, "w") as f:
            json.dump(parallel, f, indent=2)
            f.write("\n")
        json.dump(parallel, sys.stdout, indent=2)
        print()
    if not args.skip_learner:
        learner = {**host, **bench_learner_path()}
        with open(args.learner_output, "w") as f:
            json.dump(learner, f, indent=2)
            f.write("\n")
        json.dump(learner, sys.stdout, indent=2)
        print()
    if not args.skip_serving:
        serving = {**host, **bench_serving()}
        with open(args.serving_output, "w") as f:
            json.dump(serving, f, indent=2)
            f.write("\n")
        json.dump(serving, sys.stdout, indent=2)
        print()
    if not args.skip_multi_learner:
        multi = {**host, **bench_multi_learner()}
        with open(args.multi_learner_output, "w") as f:
            json.dump(multi, f, indent=2)
            f.write("\n")
        json.dump(multi, sys.stdout, indent=2)
        print()
    if not args.skip_gateway:
        gateway = {**host, **bench_gateway()}
        with open(args.gateway_output, "w") as f:
            json.dump(gateway, f, indent=2)
            f.write("\n")
        json.dump(gateway, sys.stdout, indent=2)
        print()
    if not args.skip_continuous:
        continuous = {**host, **bench_continuous()}
        with open(args.continuous_output, "w") as f:
            json.dump(continuous, f, indent=2)
            f.write("\n")
        json.dump(continuous, sys.stdout, indent=2)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
