"""Policy serving: dynamic micro-batching inference for trained agents.

Training produces weights; this package serves them to many concurrent
clients.

* :class:`PolicyServer` — collects concurrent requests into
  micro-batches (batch window + max-batch-size knobs) and executes ONE
  compiled act call per batch.
* :class:`InferenceWorkerPool` — the same front end sharded over
  raylite thread/process actor replicas with least-loaded routing, plus
  an optional queue-depth autoscaler (``autoscale_spec``).
* :class:`PolicyClient` — synchronous ``act(obs)`` over either, in
  process or across the raylite boundary, with optional deadline-gated
  retries and hedged sends (``retry_spec``).
* :class:`HttpGateway` — stdlib asyncio HTTP/JSON edge in front of
  either front end: deadline propagation via ``X-Deadline-Ms``, typed
  503/504 overload mapping, per-route ``/metrics``.
* Overload policy (:mod:`repro.serving.overload`): bounded-queue
  admission (``reject`` / ``drop-oldest``), CoDel-style shedding,
  request deadlines, and the queue-depth autoscaler — all opt-in via
  ``admission_spec`` / ``default_deadline`` / ``autoscale_spec``.
* One way to count a request: every request future is settled, and its
  outcome counted, in one place (``requests == served + errors + shed +
  expired + closed``); server, client and gateway-route latency
  percentiles share one bounded :class:`~repro.serving.overload.LatencyWindow`; and
  :func:`drive_concurrent_load` is the one load driver, in process or
  over HTTP.

See ``docs/serving.md`` for the architecture, the latency/throughput
tradeoff of the batching knobs, and the gateway's overload behavior.
"""

from repro.serving.policy_server import (
    PolicyServer,
    ServerStats,
    bucket_size,
)
from repro.serving.worker_pool import InferenceWorkerPool, PolicyServerActor
from repro.serving.client import (
    PolicyClient,
    RetrySpec,
    drive_concurrent_load,
    resolve_retry_spec,
)
from repro.serving.gateway import HttpGateway, HttpPolicyClient
from repro.serving.overload import (
    AdmissionSpec,
    AutoscaleSpec,
    CoDelShedder,
    DeadlineExceededError,
    OverloadError,
    QueueDepthAutoscaler,
    ServerClosedError,
)

__all__ = [
    "PolicyServer",
    "InferenceWorkerPool",
    "PolicyServerActor",
    "PolicyClient",
    "RetrySpec",
    "ServerStats",
    "bucket_size",
    "drive_concurrent_load",
    "resolve_retry_spec",
    "HttpGateway",
    "HttpPolicyClient",
    "AdmissionSpec",
    "AutoscaleSpec",
    "CoDelShedder",
    "DeadlineExceededError",
    "OverloadError",
    "QueueDepthAutoscaler",
    "ServerClosedError",
]
