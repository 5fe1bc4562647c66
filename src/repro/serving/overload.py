"""Overload robustness for the serving stack: admission control,
deadlines, CoDel shedding, and queue-driven autoscaling.

This module is the policy layer the micro-batching front ends and the
HTTP gateway share, so that a traffic spike fails fast instead of
growing queueing delay without bound:

* **Admission control** (:class:`AdmissionSpec`): a bounded request
  queue with a configurable full-queue policy — ``"reject"`` raises a
  typed :class:`OverloadError` at submit time (carrying the queue depth
  and a retry-after hint, so clients and the gateway can back off
  intelligently), ``"drop-oldest"`` fails the *oldest* queued request
  and admits the new one (freshest-first under overload).
* **CoDel-style shedding** (:class:`CoDelShedder`): even a bounded
  queue can sit persistently full, adding ``max_queue / throughput`` of
  latency to every request ("standing queue").  The shedder watches the
  *sojourn time* of dequeued requests; once the queueing delay stays
  above ``target`` for a full ``interval``, it starts shedding at
  dequeue with the classic ``interval / sqrt(drop_count)`` control law
  until the standing queue drains.
* **Deadlines**: requests carry an absolute expiry; the batch loop
  fails expired requests with :class:`DeadlineExceededError` instead of
  wasting a batch slot executing an answer nobody is waiting for.
* **Autoscaling** (:class:`QueueDepthAutoscaler`): a deliberately
  boring controller — sustained queue depth above the high watermark
  grows the replica set, sustained idleness below the low watermark
  shrinks it, with a cooldown between actions so restarts/warm-ups
  never thrash.  The decision function is pure (injectable clock) so
  property tests drive it through scenarios in microseconds.
* **Latency accounting** (:class:`LatencyWindow`): the one bounded
  window behind every serving latency percentile.

Everything here is deterministic and dependency-free; the stateful
pieces take explicit ``now`` values so tests never sleep.
"""

from __future__ import annotations

import collections
import math
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.utils.errors import RLGraphError


# ---------------------------------------------------------------------------
# Typed errors
# ---------------------------------------------------------------------------
class OverloadError(RLGraphError):
    """The serving layer refused (or shed) a request to protect latency.

    Carries ``queue_depth`` (depth observed when the decision was made),
    ``retry_after`` (seconds — the client backoff hint, also surfaced as
    the HTTP ``Retry-After`` header) and ``reason`` (``"queue_full"``,
    ``"dropped_oldest"``, ``"shed"`` or ``"replica_lost"``).
    """

    def __init__(self, message: str, queue_depth: Optional[int] = None,
                 retry_after: Optional[float] = None,
                 reason: str = "overload"):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.retry_after = retry_after
        self.reason = reason


class DeadlineExceededError(RLGraphError):
    """A request's deadline expired before (or while) it was served.

    ``waited`` is how long the request sat in the system; ``budget`` is
    the deadline it was admitted with (both seconds, either may be
    ``None`` when unknown).
    """

    def __init__(self, message: str, waited: Optional[float] = None,
                 budget: Optional[float] = None):
        super().__init__(message)
        self.waited = waited
        self.budget = budget


class ServerClosedError(RLGraphError):
    """The serving front end was stopped; the request was not served.

    Raised synchronously by ``submit`` after ``stop()`` and used to fail
    any request that raced into the mailbox while the stop drain ran —
    callers get this immediately instead of hanging until their own
    timeout.
    """


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
def deadline_from_budget(budget: Optional[float],
                         now: Optional[float] = None) -> Optional[float]:
    """An absolute monotonic deadline for a relative seconds budget."""
    if budget is None:
        return None
    if budget < 0:
        raise RLGraphError(f"deadline budget must be >= 0, got {budget}")
    return (now if now is not None else time.perf_counter()) + budget


def remaining(deadline: Optional[float],
              now: Optional[float] = None) -> Optional[float]:
    """Seconds left before ``deadline`` (may be negative; None = no
    deadline)."""
    if deadline is None:
        return None
    return deadline - (now if now is not None else time.perf_counter())


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
_ADMISSION_POLICIES = ("reject", "drop-oldest")


class AdmissionSpec:
    """Resolved admission-control configuration for one front end.

    ``max_queue=None`` disables admission entirely — the unbounded
    pre-overload behavior, kept as the config ablation the overload
    bench compares against.
    """

    def __init__(self, max_queue: Optional[int] = None,
                 policy: str = "reject",
                 codel_target: Optional[float] = None,
                 codel_interval: float = 0.1,
                 retry_after: float = 0.05):
        if max_queue is not None and max_queue < 1:
            raise RLGraphError("max_queue must be >= 1 (or None)")
        if policy not in _ADMISSION_POLICIES:
            raise RLGraphError(
                f"Unknown admission policy {policy!r}; expected one of "
                f"{_ADMISSION_POLICIES}")
        if codel_target is not None and codel_target <= 0:
            raise RLGraphError("codel_target must be > 0 (or None)")
        if codel_interval <= 0:
            raise RLGraphError("codel_interval must be > 0")
        if retry_after < 0:
            raise RLGraphError("retry_after must be >= 0")
        self.max_queue = None if max_queue is None else int(max_queue)
        self.policy = policy
        self.codel_target = codel_target
        self.codel_interval = float(codel_interval)
        self.retry_after = float(retry_after)

    @property
    def enabled(self) -> bool:
        return self.max_queue is not None or self.codel_target is not None

    def make_shedder(self) -> Optional["CoDelShedder"]:
        if self.codel_target is None:
            return None
        return CoDelShedder(self.codel_target, self.codel_interval)

    def __repr__(self):
        return (f"AdmissionSpec(max_queue={self.max_queue}, "
                f"policy={self.policy!r}, codel_target={self.codel_target}, "
                f"codel_interval={self.codel_interval}, "
                f"retry_after={self.retry_after})")


_ADMISSION_KEYS = {"max_queue", "policy", "codel_target", "codel_interval",
                   "retry_after"}


def resolve_admission_spec(spec) -> AdmissionSpec:
    """Resolve an ``admission_spec`` config value.

    ``None`` — disabled (unbounded queue, the pre-overload seed
    behavior).  An int — ``max_queue`` with the default ``"reject"``
    policy.  A dict may set any of ``max_queue``, ``policy``,
    ``codel_target``, ``codel_interval``, ``retry_after``.  An
    :class:`AdmissionSpec` passes through.
    """
    if isinstance(spec, AdmissionSpec):
        return spec
    if spec is None:
        return AdmissionSpec()
    if isinstance(spec, bool):
        raise RLGraphError(
            "admission_spec must be None, int, dict or AdmissionSpec — "
            "pass max_queue explicitly instead of a bool")
    if isinstance(spec, int):
        return AdmissionSpec(max_queue=spec)
    if isinstance(spec, dict):
        unknown = set(spec) - _ADMISSION_KEYS
        if unknown:
            raise RLGraphError(
                f"Unknown admission_spec keys {sorted(unknown)}; "
                f"expected a subset of {sorted(_ADMISSION_KEYS)}")
        return AdmissionSpec(**spec)
    raise RLGraphError(
        f"admission_spec must be None, int, dict or AdmissionSpec, "
        f"got {type(spec).__name__}")


class CoDelShedder:
    """Controlled-delay shedding on the dequeue path.

    The CoDel insight: queue *length* is a bad overload signal (bursts
    are fine), queueing *delay that persists* is the real problem.  The
    collector reports each dequeued request's sojourn time; once the
    delay has stayed above ``target`` for a full ``interval`` the
    shedder enters the dropping state and sheds with the
    ``interval / sqrt(drop_count)`` control law — shedding accelerates
    while the standing queue persists, and stops the moment a request
    sojourns under target (or the queue empties).

    Purely functional in time: callers pass ``now``, so tests drive the
    state machine through whole scenarios without sleeping.
    """

    def __init__(self, target: float, interval: float = 0.1):
        if target <= 0:
            raise RLGraphError("codel target must be > 0")
        if interval <= 0:
            raise RLGraphError("codel interval must be > 0")
        self.target = float(target)
        self.interval = float(interval)
        self._first_above: Optional[float] = None
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0

    def on_dequeue(self, sojourn: float, now: Optional[float] = None,
                   queue_depth: int = 0) -> bool:
        """Report one dequeued request; True means shed it."""
        if now is None:
            now = time.perf_counter()
        if sojourn < self.target or queue_depth == 0:
            # Delay back under control: leave dropping state entirely.
            self._first_above = None
            self._dropping = False
            self._drop_count = 0
            return False
        if self._dropping:
            if now >= self._drop_next:
                self._drop_count += 1
                self._drop_next = now + self.interval / math.sqrt(
                    self._drop_count)
                return True
            return False
        if self._first_above is None:
            # Above target, but maybe just a burst: arm the interval.
            self._first_above = now + self.interval
            return False
        if now >= self._first_above:
            # Persistently above target for >= interval: start shedding.
            self._dropping = True
            self._drop_count = 1
            self._drop_next = now + self.interval
            return True
        return False

    @property
    def dropping(self) -> bool:
        return self._dropping

    def __repr__(self):
        return (f"CoDelShedder(target={self.target}, "
                f"interval={self.interval}, dropping={self._dropping})")


# ---------------------------------------------------------------------------
# Queue-depth-driven autoscaling
# ---------------------------------------------------------------------------
class AutoscaleSpec:
    """Resolved autoscaler configuration for an InferenceWorkerPool.

    ``high_watermark``/``low_watermark`` are queue depths (requests
    waiting in the front-end mailbox); depth must stay beyond a
    watermark for ``sustain``/``idle_after`` seconds before the pool
    grows/shrinks, and ``cooldown`` seconds must pass between any two
    scale actions.  ``tick_interval`` is how often the collector wakes
    to evaluate the controller when no traffic is flowing (shrink must
    trigger on *silence*).
    """

    def __init__(self, min_replicas: int = 1, max_replicas: int = 4,
                 high_watermark: int = 8, low_watermark: int = 1,
                 sustain: float = 0.25, idle_after: float = 1.0,
                 cooldown: float = 1.0, tick_interval: float = 0.05):
        if min_replicas < 1:
            raise RLGraphError("min_replicas must be >= 1")
        if max_replicas < min_replicas:
            raise RLGraphError("max_replicas must be >= min_replicas")
        if low_watermark < 0 or high_watermark <= low_watermark:
            raise RLGraphError(
                "need high_watermark > low_watermark >= 0")
        if min(sustain, idle_after, cooldown) < 0:
            raise RLGraphError("sustain/idle_after/cooldown must be >= 0")
        if tick_interval <= 0:
            raise RLGraphError("tick_interval must be > 0")
        self.min_replicas = int(min_replicas)
        self.max_replicas = int(max_replicas)
        self.high_watermark = int(high_watermark)
        self.low_watermark = int(low_watermark)
        self.sustain = float(sustain)
        self.idle_after = float(idle_after)
        self.cooldown = float(cooldown)
        self.tick_interval = float(tick_interval)

    def __repr__(self):
        return (f"AutoscaleSpec(replicas=[{self.min_replicas}, "
                f"{self.max_replicas}], high={self.high_watermark}, "
                f"low={self.low_watermark}, sustain={self.sustain}, "
                f"idle_after={self.idle_after}, cooldown={self.cooldown})")


_AUTOSCALE_KEYS = {"min_replicas", "max_replicas", "high_watermark",
                   "low_watermark", "sustain", "idle_after", "cooldown",
                   "tick_interval"}


def resolve_autoscale_spec(spec) -> Optional[AutoscaleSpec]:
    """``None``/``False`` — disabled.  A dict sets any
    :class:`AutoscaleSpec` knob.  A spec passes through."""
    if spec is None or spec is False:
        return None
    if isinstance(spec, AutoscaleSpec):
        return spec
    if isinstance(spec, dict):
        unknown = set(spec) - _AUTOSCALE_KEYS
        if unknown:
            raise RLGraphError(
                f"Unknown autoscale_spec keys {sorted(unknown)}; "
                f"expected a subset of {sorted(_AUTOSCALE_KEYS)}")
        return AutoscaleSpec(**spec)
    raise RLGraphError(
        f"autoscale_spec must be None, dict or AutoscaleSpec, "
        f"got {type(spec).__name__}")


class QueueDepthAutoscaler:
    """Hysteresis controller: sustained depth grows, sustained idleness
    shrinks, cooldown separates actions.

    :meth:`decide` is side-effect-free apart from its own bookkeeping
    and never touches replicas — the pool owns the (blocking) scale
    mechanics, this owns only the *when*.
    """

    def __init__(self, spec: AutoscaleSpec,
                 clock=time.perf_counter):
        self.spec = spec
        self._clock = clock
        self._above_since: Optional[float] = None
        self._below_since: Optional[float] = None
        self._last_action_at: Optional[float] = None
        self.events: List[Dict[str, Any]] = []

    def _in_cooldown(self, now: float) -> bool:
        return (self._last_action_at is not None
                and now - self._last_action_at < self.spec.cooldown)

    def decide(self, queue_depth: int, num_replicas: int,
               now: Optional[float] = None) -> int:
        """+1 = grow, -1 = shrink, 0 = hold."""
        if now is None:
            now = self._clock()
        spec = self.spec
        if queue_depth >= spec.high_watermark:
            self._below_since = None
            if self._above_since is None:
                self._above_since = now
            if (num_replicas < spec.max_replicas
                    and now - self._above_since >= spec.sustain
                    and not self._in_cooldown(now)):
                self._record(now, "grow", queue_depth, num_replicas)
                return 1
            return 0
        if queue_depth <= spec.low_watermark:
            self._above_since = None
            if self._below_since is None:
                self._below_since = now
            if (num_replicas > spec.min_replicas
                    and now - self._below_since >= spec.idle_after
                    and not self._in_cooldown(now)):
                self._record(now, "shrink", queue_depth, num_replicas)
                return -1
            return 0
        # Between watermarks: the comfortable band, reset both timers.
        self._above_since = None
        self._below_since = None
        return 0

    def _record(self, now: float, action: str, depth: int,
                replicas: int) -> None:
        self._last_action_at = now
        self._above_since = None
        self._below_since = None
        self.events.append({"at": now, "action": action,
                            "queue_depth": depth, "replicas": replicas})

    def __repr__(self):
        return (f"QueueDepthAutoscaler({self.spec!r}, "
                f"events={len(self.events)})")


# ---------------------------------------------------------------------------
# Latency accounting (server, client, load driver and gateway routes)
# ---------------------------------------------------------------------------
class LatencyWindow:
    """Latency samples in seconds: an exact ``count`` of all added, and
    the most recent ``maxlen`` for percentiles (a long-running server's
    p99 follows its current traffic, in bounded memory).  Thread-safe;
    owners hold the reentrant :attr:`lock` to update their counters too."""

    MAX_LATENCY_SAMPLES = 50_000

    def __init__(self, maxlen: int = MAX_LATENCY_SAMPLES):
        self.lock = threading.RLock()
        self.count = 0
        self._samples = collections.deque(maxlen=maxlen)

    def add(self, seconds: float) -> None:
        with self.lock:
            self.count += 1
            self._samples.append(seconds)

    def extend(self, seconds) -> None:
        with self.lock:
            self.count += len(seconds)
            self._samples.extend(seconds)

    @property
    def samples(self) -> np.ndarray:
        """The window's samples, oldest first."""
        with self.lock:
            return np.asarray(self._samples)

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile of the window (None when empty)."""
        samples = self.samples
        return float(np.percentile(samples, q)) if samples.size else None


# ---------------------------------------------------------------------------
# Per-route metrics (used by the HTTP gateway)
# ---------------------------------------------------------------------------
class RouteStats:
    """Answers by status and latency percentiles for one gateway route
    (thread-safe; ``requests`` is exact, percentiles cover the most
    recent :class:`LatencyWindow`)."""

    MAX_LATENCY_SAMPLES = LatencyWindow.MAX_LATENCY_SAMPLES

    def __init__(self):
        self._latency = LatencyWindow(self.MAX_LATENCY_SAMPLES)
        self.by_status: Dict[int, int] = {}

    @property
    def requests(self) -> int:
        return self._latency.count

    def record(self, status: int, latency: float) -> None:
        with self._latency.lock:
            self.by_status[status] = self.by_status.get(status, 0) + 1
            self._latency.add(latency)

    def snapshot(self) -> Dict[str, Any]:
        with self._latency.lock:
            snap: Dict[str, Any] = {
                "requests": self.requests,
                "by_status": dict(sorted(self.by_status.items())),
            }
            if self.requests:
                snap["p50_ms"] = round(self._latency.percentile(50) * 1e3, 3)
                snap["p99_ms"] = round(self._latency.percentile(99) * 1e3, 3)
        return snap
