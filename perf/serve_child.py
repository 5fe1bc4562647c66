"""The serving process of the ``serve_http`` workload.

Builds the policy, a ``PolicyServer`` and an ``HttpGateway`` on an
ephemeral port, prints ``{"port": N}`` and then answers one-word
commands on stdin with one JSON line each:

``probe``  in-process measurements against the same server, taken while
           the HTTP side is idle (in-process act latency, the batch-1
           act plan, build/compile counts);
``stop``   (or EOF) stop the gateway and the server, then exit.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from repro.serving import HttpGateway, PolicyClient, PolicyServer

from perf import layers
from perf.workloads.serve_http import (
    MAX_BATCH_SIZE,
    MAX_QUEUE,
    build_agent,
)


def _probe(agent, server) -> dict:
    obs = np.zeros(agent.state_space.shape, np.float32)
    client = PolicyClient(server)
    act = agent.serving_act_fn()
    out = {"serving.inproc_act_ms":
           layers.median_seconds(lambda: client.act(obs), 500) * 1e3,
           "backend.act_plan_ms_b1":
           layers.session_ms_per_call(agent, lambda: act(obs[None]), 500),
           "backend.plan_steps":
           layers.step_count(agent, lambda: act(obs[None]))}
    out.update(layers.build_and_compile(agent))
    out.update(layers.weight_transport(agent))
    return out


def main() -> None:
    seed = int(sys.argv[1])
    agent = build_agent(seed)
    server = PolicyServer(agent, max_batch_size=MAX_BATCH_SIZE,
                          batch_window=0.0,
                          admission_spec={"max_queue": MAX_QUEUE})
    gateway = HttpGateway(server).start()
    try:
        print(json.dumps({"port": gateway.address[1]}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "probe":
                print(json.dumps(_probe(agent, server)), flush=True)
            elif command == "stop":
                break
    finally:
        gateway.stop()
        server.stop()


if __name__ == "__main__":
    main()
