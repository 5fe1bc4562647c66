#!/usr/bin/env python
"""Serve a trained policy under synthetic concurrent load.

Loads agent weights (``--checkpoint`` from ``Agent.export_model``; a
fresh agent otherwise), stands up the serving stack — an in-process
:class:`PolicyServer`, or an :class:`InferenceWorkerPool` with
``--replicas N`` — and drives it with ``--clients`` concurrent
synchronous clients for ``--duration`` seconds.  Prints a JSON summary:
req/s, p50/p99 latency, batch-size distribution.

Overload knobs: ``--max-queue`` bounds the request queue (with
``--admission-policy`` reject|drop-oldest and ``--codel-target`` for
sojourn-based shedding), ``--deadline-ms`` attaches a budget to every
request, ``--autoscale-max N`` turns on the queue-depth autoscaler for
pooled serving.

``--gateway`` fronts the stack with the stdlib HTTP/JSON gateway and
drives the same load over real sockets (keep-alive clients, typed
503/504 handling); ``--gateway-port 0`` picks an ephemeral port.

Examples:
    PYTHONPATH=src python scripts/serve_policy.py --env gridworld \
        --clients 8 --duration 3
    PYTHONPATH=src python scripts/serve_policy.py --env cartpole \
        --replicas 2 --backend process --checkpoint model.pkl
    # overload behavior over HTTP, bounded queue:
    PYTHONPATH=src python scripts/serve_policy.py --gateway \
        --max-queue 16 --deadline-ms 250 --clients 32
    # unbatched baseline for comparison:
    PYTHONPATH=src python scripts/serve_policy.py --max-batch-size 1
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

NETWORK = [{"type": "dense", "units": 64, "activation": "relu"}]


def build_env(name: str):
    from repro.environments import CartPole, GridWorld
    if name == "gridworld":
        return GridWorld("4x4", seed=0)
    if name == "cartpole":
        return CartPole(seed=0)
    raise SystemExit(f"Unknown --env {name!r} (gridworld|cartpole)")


def build_agent(env_name: str, agent_type: str, checkpoint, seed: int):
    """Replica factory — module-level so process replicas can pickle it
    (``functools.partial`` over this function ships across spawn)."""
    from repro.agents import AGENTS
    env = build_env(env_name)
    agent = AGENTS.from_spec(
        {"type": agent_type, "state_space": env.state_space,
         "action_space": env.action_space, "network_spec": NETWORK,
         "seed": seed})
    if checkpoint:
        agent.import_model(checkpoint)
    return agent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--env", default="gridworld",
                        help="observation/action spaces source "
                             "(gridworld|cartpole)")
    parser.add_argument("--agent", default="dqn",
                        help="agent registry name (default: %(default)s)")
    parser.add_argument("--checkpoint", default=None,
                        help="weights file from Agent.export_model")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--duration", type=float, default=3.0)
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--batch-window", type=float, default=0.002,
                        help="seconds an open batch waits for stragglers")
    parser.add_argument("--replicas", type=int, default=0,
                        help="0 = single in-process server; N>0 = "
                             "InferenceWorkerPool with N actor replicas")
    parser.add_argument("--backend", default="thread",
                        choices=("thread", "process"),
                        help="raylite backend for --replicas > 0")
    parser.add_argument("--max-queue", type=int, default=0,
                        help="bound the request queue (0 = unbounded)")
    parser.add_argument("--admission-policy", default="reject",
                        choices=("reject", "drop-oldest"),
                        help="full-queue policy for --max-queue > 0")
    parser.add_argument("--codel-target", type=float, default=0.0,
                        help="CoDel sojourn target in seconds "
                             "(0 = no delay-based shedding)")
    parser.add_argument("--deadline-ms", type=float, default=0.0,
                        help="per-request deadline budget "
                             "(0 = no deadline)")
    parser.add_argument("--autoscale-max", type=int, default=0,
                        help="enable the queue-depth autoscaler up to N "
                             "replicas (pooled serving only)")
    parser.add_argument("--gateway", action="store_true",
                        help="serve over the HTTP/JSON gateway and drive "
                             "the load over real sockets")
    parser.add_argument("--gateway-port", type=int, default=0,
                        help="gateway TCP port (0 = ephemeral)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    from repro import raylite
    from repro.serving import (
        HttpGateway,
        InferenceWorkerPool,
        PolicyServer,
        drive_concurrent_load,
    )

    env = build_env(args.env)
    agent_factory = functools.partial(build_agent, args.env, args.agent,
                                      args.checkpoint, args.seed)

    admission = None
    if args.max_queue > 0 or args.codel_target > 0:
        admission = {"policy": args.admission_policy}
        if args.max_queue > 0:
            admission["max_queue"] = args.max_queue
        if args.codel_target > 0:
            admission["codel_target"] = args.codel_target
    deadline = args.deadline_ms / 1e3 if args.deadline_ms > 0 else None
    autoscale = None
    if args.autoscale_max > 0:
        if args.replicas <= 0:
            raise SystemExit("--autoscale-max needs pooled serving "
                             "(--replicas N)")
        autoscale = {"min_replicas": args.replicas,
                     "max_replicas": args.autoscale_max}

    if args.replicas > 0:
        server = InferenceWorkerPool(
            agent_factory, env.state_space, num_replicas=args.replicas,
            max_batch_size=args.max_batch_size,
            batch_window=args.batch_window, parallel_spec=args.backend,
            admission_spec=admission, default_deadline=deadline,
            autoscale_spec=autoscale)
    else:
        server = PolicyServer(agent_factory(),
                              max_batch_size=args.max_batch_size,
                              batch_window=args.batch_window,
                              admission_spec=admission,
                              default_deadline=deadline)

    summary = {
        "env": args.env,
        "agent": args.agent,
        "clients": args.clients,
        "replicas": args.replicas,
        "backend": args.backend if args.replicas else "in-process",
        "max_batch_size": args.max_batch_size,
        "batch_window_ms": args.batch_window * 1e3,
        "max_queue": args.max_queue or None,
        "deadline_ms": args.deadline_ms or None,
    }
    gateway = None
    if args.gateway:
        gateway = HttpGateway(server, port=args.gateway_port,
                              default_deadline=(deadline or 30.0)).start()
        summary["gateway"] = gateway.url
        load = drive_concurrent_load(gateway, args.clients, args.duration,
                                     tolerate_overload=True,
                                     deadline=deadline)
        summary.update({
            "requests": load["requests"],
            "attempts": load["attempts"],
            "shed_rate": round(load["shed_rate"], 4),
            "deadline_rate": round(load["deadline_rate"], 4),
            "stragglers": load["stragglers"],
        })
    else:
        load = drive_concurrent_load(
            server, args.clients, args.duration,
            tolerate_overload=admission is not None)
        summary.update({
            "requests": load["requests"],
            "overload_errors": load["overload_errors"],
            "stragglers": load["stragglers"],
        })
    summary.update({
        "duration_s": round(load["wall_time"], 3),
        "requests_per_s": round(load["req_per_s"], 1),
        "p50_latency_ms": round(load["p50_ms"], 3),
        "p99_latency_ms": round(load["p99_ms"], 3),
        "server": server.metrics_snapshot(),
    })
    if gateway is not None:
        summary["routes"] = gateway.metrics_snapshot()["gateway"]
        gateway.stop()
    server.stop()
    raylite.shutdown()
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
