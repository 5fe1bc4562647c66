"""PolicyClient: a synchronous act interface over any serving target.

Clients see one call — ``act(obs) -> action`` — regardless of what sits
behind it:

* an **in-process** :class:`PolicyServer` or :class:`InferenceWorkerPool`
  (the client submits into the micro-batching mailbox and blocks on the
  raylite-style future), or
* a raylite :class:`PolicyServerActor` handle **across the actor
  boundary** (thread or process replica) — the client wraps the
  observation as a batch of one and issues ``act_batch.remote``, so an
  executor's eval worker can query a central server without importing
  any of its internals.

``act_many(observations)`` is the vector-env call: the array goes to a
front end as ``max_batch_size``-row block requests (one future each) and
to an actor handle as one ``act_batch`` call — never one request per
observation.

The client records per-request round-trip latency, which is where
p50/p99 service latency is honestly measured (server-side numbers can't
see queueing before ``submit`` or wake-up after resolve).

Tail-latency armor (all optional, all deadline-gated):

* every call runs under one **deadline budget** (``timeout``) that also
  propagates into the serving front end, so the batch loop can skip the
  request once it expires instead of wasting a batch slot;
* ``retry_spec`` adds bounded client-side **retries** on
  :class:`OverloadError` with the supervision module's jitterless
  exponential backoff (reused, not duplicated) — a retry that could not
  finish inside the deadline is never attempted;
* ``hedge_after`` (on the retry spec) adds **hedged sends**: if the
  primary request has not resolved after that long, a duplicate is
  issued and the first completion wins — the classic p99 cut for a
  pure, idempotent request like policy inference.
"""

from __future__ import annotations

import collections
import time
from typing import List, Optional

import numpy as np

from repro import raylite
from repro.execution.supervision import BackoffPolicy
from repro.serving.overload import (
    DeadlineExceededError,
    OverloadError,
)
from repro.utils.errors import RLGraphError


class RetrySpec:
    """Resolved client retry/hedging configuration.

    ``max_retries`` bounds re-submissions after a retryable error
    (default: overload rejections/sheds — the cases where backing off
    and retrying is the protocol).  ``backoff`` is the supervision
    module's :class:`BackoffPolicy` (jitterless, deterministic);
    an :class:`OverloadError`'s ``retry_after`` hint takes precedence
    when larger.  ``hedge_after`` (seconds, None = off) issues a
    duplicate request when the primary is still pending after that
    long; first completion wins.  Retries and hedges never extend the
    call's deadline.
    """

    def __init__(self, max_retries: int = 2,
                 backoff: Optional[BackoffPolicy] = None,
                 hedge_after: Optional[float] = None,
                 retry_on: tuple = (OverloadError,)):
        if max_retries < 0:
            raise RLGraphError("max_retries must be >= 0")
        if hedge_after is not None and hedge_after <= 0:
            raise RLGraphError("hedge_after must be > 0 (or None)")
        self.max_retries = int(max_retries)
        self.backoff = backoff or BackoffPolicy(
            base_delay=0.01, factor=2.0, max_delay=0.5,
            max_restarts=max(max_retries, 1))
        self.hedge_after = hedge_after
        self.retry_on = tuple(retry_on)

    def __repr__(self):
        return (f"RetrySpec(max_retries={self.max_retries}, "
                f"backoff={self.backoff!r}, "
                f"hedge_after={self.hedge_after})")


_RETRY_KEYS = {"max_retries", "hedge_after", "base_delay", "factor",
               "max_delay"}


def resolve_retry_spec(spec) -> Optional[RetrySpec]:
    """``None``/``False`` — no retries (seed behavior).  An int —
    ``max_retries``.  A dict may set ``max_retries``, ``hedge_after``
    and the backoff knobs.  A :class:`RetrySpec` passes through."""
    if spec is None or spec is False:
        return None
    if isinstance(spec, RetrySpec):
        return spec
    if isinstance(spec, bool):
        return RetrySpec()
    if isinstance(spec, int):
        return RetrySpec(max_retries=spec)
    if isinstance(spec, dict):
        unknown = set(spec) - _RETRY_KEYS
        if unknown:
            raise RLGraphError(
                f"Unknown retry_spec keys {sorted(unknown)}; "
                f"expected a subset of {sorted(_RETRY_KEYS)}")
        max_retries = spec.get("max_retries", 2)
        backoff = BackoffPolicy(
            base_delay=spec.get("base_delay", 0.01),
            factor=spec.get("factor", 2.0),
            max_delay=spec.get("max_delay", 0.5),
            max_restarts=max(max_retries, 1))
        return RetrySpec(max_retries=max_retries, backoff=backoff,
                         hedge_after=spec.get("hedge_after"))
    raise RLGraphError(
        f"retry_spec must be None, bool, int, dict or RetrySpec, "
        f"got {type(spec).__name__}")


class PolicyClient:
    """Synchronous policy queries with client-side latency accounting."""

    #: Latency samples kept for percentiles; the request *count* is
    #: exact regardless (long-lived eval clients must not leak memory).
    MAX_LATENCY_SAMPLES = 50_000

    def __init__(self, target, timeout: Optional[float] = 30.0,
                 retry_spec=None):
        self.timeout = timeout
        self.retry = resolve_retry_spec(retry_spec)
        self._latencies = collections.deque(maxlen=self.MAX_LATENCY_SAMPLES)
        self._num_requests = 0
        self.retries = 0
        self.hedges = 0
        submit = getattr(target, "submit", None)
        if submit is not None and not hasattr(submit, "remote"):
            # In-process server/pool: its submit() is a plain method and
            # takes the per-request deadline budget, so the batch loop
            # can skip the request once expired.
            self._submit = submit
            self._remote = False
        elif hasattr(target, "act_batch"):
            # A raylite actor handle (attribute access yields .remote
            # callables): single-request batches over the boundary.
            self._handle = target
            self._submit = self._submit_remote
            self._remote = True
        else:
            raise RLGraphError(
                f"PolicyClient target {target!r} is neither a serving "
                f"front end (submit/act) nor a raylite policy actor "
                f"(act_batch)")
        self.target = target

    def _submit_remote(self, obs, deadline=None) -> raylite.ObjectRef:
        return self._handle.act_batch.remote(np.asarray(obs)[None])

    def submit(self, obs, deadline: Optional[float] = None
               ) -> raylite.ObjectRef:
        """Fire-and-forget: returns the action future."""
        return self._submit(obs, deadline=deadline)

    def _record(self, latency: float) -> None:
        self._num_requests += 1
        self._latencies.append(latency)

    # -- the deadline-gated request path -------------------------------------
    def _await_first(self, refs, timeout: Optional[float]):
        """Wait for the first *settled* ref and return its outcome —
        preferring a success when a ref failed but another is pending
        (the hedging semantics: first good answer wins)."""
        errors: List[BaseException] = []
        deadline = None if timeout is None else time.perf_counter() + timeout
        while refs:
            rem = None if deadline is None \
                else max(deadline - time.perf_counter(), 0.0)
            ready, pending = raylite.wait(refs, num_returns=1, timeout=rem)
            if not ready:
                break
            for ref in ready:
                try:
                    return ref.result(0)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
            refs = pending
        if errors:
            raise errors[0]
        raise raylite.RayliteError(
            f"act timed out after {timeout}s")

    def _attempt(self, obs, remaining: Optional[float]):
        """One submission (plus an optional hedge) within ``remaining``."""
        hedge_after = self.retry.hedge_after if self.retry else None
        ref = self._submit(obs, deadline=remaining)
        if hedge_after is None:
            return self._await_first([ref], remaining)
        first_wait = hedge_after if remaining is None \
            else min(hedge_after, remaining)
        t0 = time.perf_counter()
        ready, _ = raylite.wait([ref], num_returns=1, timeout=first_wait)
        if ready:
            return ref.result(0)
        rem = None if remaining is None \
            else remaining - (time.perf_counter() - t0)
        if rem is not None and rem <= 0:
            raise raylite.RayliteError(
                f"act timed out after {remaining}s")
        # The primary is slow: hedge.  A rejected hedge (overloaded
        # server) is not an error — the primary is still in flight.
        refs = [ref]
        try:
            refs.append(self._submit(obs, deadline=rem))
            self.hedges += 1
        except OverloadError:
            pass
        return self._await_first(refs, rem)

    def act(self, obs, timeout: Optional[float] = None):
        """Blocking single-observation act; records round-trip latency.

        ``timeout`` (default: the client's ``timeout``) is a total
        deadline budget covering queueing, batching, every retry and
        any hedge — the call never blocks past it.
        """
        budget = timeout if timeout is not None else self.timeout
        deadline = None if budget is None \
            else time.perf_counter() + budget
        t0 = time.perf_counter()
        attempt = 0
        while True:
            remaining = None if deadline is None \
                else deadline - time.perf_counter()
            if remaining is not None and remaining <= 0:
                raise DeadlineExceededError(
                    f"act: deadline budget {budget}s exhausted after "
                    f"{attempt} attempt(s)", budget=budget)
            try:
                result = self._attempt(obs, remaining)
                break
            except BaseException as exc:  # noqa: BLE001
                retryable = (self.retry is not None
                             and isinstance(exc, self.retry.retry_on)
                             and attempt < self.retry.max_retries)
                if not retryable:
                    raise
                delay = self.retry.backoff.delay(attempt)
                if isinstance(exc, OverloadError) and exc.retry_after:
                    delay = max(delay, exc.retry_after)
                remaining = None if deadline is None \
                    else deadline - time.perf_counter()
                if remaining is not None and delay >= remaining:
                    # A retry that cannot finish inside the deadline is
                    # never attempted: surface the real failure now.
                    raise
                attempt += 1
                self.retries += 1
                time.sleep(delay)
        self._record(time.perf_counter() - t0)
        if self._remote:
            result = np.asarray(result)[0]
        return result

    def act_many(self, observations, timeout: Optional[float] = None):
        """One action per observation, in input order, for a whole
        ``(N, *state_shape)`` array (what a vector-env client holds).

        Against a serving front end the array is cut into
        ``max_batch_size``-row slices and each slice is submitted as ONE
        block request (``submit_block``): ``ceil(N / max_batch_size)``
        futures, each admitted all-or-nothing and served inside one
        batch under one weight version.  A raylite policy actor has no
        batch cap and gets the whole array in one ``act_batch`` call.

        ``timeout`` is a single deadline shared across ALL pending
        futures: total wall time is bounded by it, not by
        ``N x timeout`` (each gather waits only for what is left of the
        shared budget).  Records one latency sample per call: the mean
        per observation.
        """
        budget = timeout if timeout is not None else self.timeout
        t0 = time.perf_counter()
        deadline = None if budget is None else t0 + budget
        rows = np.asarray(observations)
        if not len(rows):
            return []
        if self._remote:
            refs = [self._handle.act_batch.remote(rows)]
        else:
            step = self.target.max_batch_size
            refs = [self.target.submit_block(rows[lo:lo + step],
                                             deadline=budget)
                    for lo in range(0, len(rows), step)]
        parts = []
        for ref in refs:
            rem = None if deadline is None \
                else max(deadline - time.perf_counter(), 0.0)
            parts.append(np.asarray(ref.result(rem)))
        self._record((time.perf_counter() - t0) / len(rows))
        return list(np.concatenate(parts))

    # -- latency accounting --------------------------------------------------
    @property
    def num_requests(self) -> int:
        return self._num_requests

    @property
    def latencies(self) -> np.ndarray:
        """Recorded per-request round-trip latencies (seconds)."""
        return np.asarray(self._latencies)

    def latency(self, percentile: float) -> Optional[float]:
        if not self._latencies:
            return None
        return float(np.percentile(self._latencies, percentile))

    def latency_stats(self) -> dict:
        if not self._latencies:
            return {"requests": 0}
        arr = np.asarray(self._latencies)
        return {
            "requests": len(arr),
            "mean_ms": round(float(arr.mean()) * 1e3, 3),
            "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 3),
            "p99_ms": round(float(np.percentile(arr, 99)) * 1e3, 3),
            "retries": self.retries,
            "hedges": self.hedges,
        }


def drive_concurrent_load(server, num_clients: int, duration: float,
                          observations=None, tolerate_overload: bool = False,
                          client_timeout: Optional[float] = None,
                          retry_spec=None, join_timeout: float = 30.0):
    """Closed-loop synchronous load driver (the serving benchmark shape).

    Spawns ``num_clients`` threads, each a :class:`PolicyClient` looping
    ``act`` on its own fixed observation for ``duration`` seconds, and
    aggregates client-side latency.  This is the one driver behind the
    E13 bench, the tier-1 throughput acceptance, the CLI, and the CI
    perf snapshot — measurement methodology changes land once, here.

    ``observations`` is one observation per client; ``None`` samples
    them from the server's ``state_space``.  Returns a dict with
    ``requests``, ``req_per_s``, ``p50_ms``, ``p99_ms``, the raw
    ``latencies`` array (seconds), plus ``stragglers`` (clients still
    alive after the join deadline — they no longer vanish silently from
    the stats) and ``overload_errors``.  A failing server fails the
    measurement loudly: any client whose ``act`` raised re-raises here
    — a perf snapshot must never average over a dying run.  With
    ``tolerate_overload=True``, typed :class:`OverloadError` responses
    are counted (and briefly backed off) instead of failing the run —
    the shape overload tests and benches need.
    """
    import threading

    if observations is None:
        observations = server.state_space.sample(size=max(num_clients, 1))
    stop = threading.Event()
    clients = [PolicyClient(server, retry_spec=retry_spec)
               if client_timeout is None else
               PolicyClient(server, timeout=client_timeout,
                            retry_spec=retry_spec)
               for _ in range(num_clients)]
    client_errors: List[BaseException] = []
    overload_counts = [0] * num_clients

    def loop(index: int) -> None:
        obs = np.asarray(observations[index])
        client = clients[index]
        try:
            while not stop.is_set():
                try:
                    client.act(obs)
                except OverloadError as exc:
                    if not tolerate_overload:
                        raise
                    overload_counts[index] += 1
                    stop.wait(exc.retry_after or 0.005)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            client_errors.append(exc)

    threads = [threading.Thread(target=loop, args=(i,), daemon=True)
               for i in range(num_clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join(timeout=join_timeout)
    stragglers = sum(1 for thread in threads if thread.is_alive())
    wall = time.perf_counter() - t0
    if client_errors:
        raise RLGraphError(
            f"drive_concurrent_load: {len(client_errors)}/{num_clients} "
            f"clients failed mid-measurement; first error: "
            f"{client_errors[0]!r}") from client_errors[0]
    samples = [c.latencies for c in clients if c.num_requests]
    if not samples:
        raise RLGraphError(
            "drive_concurrent_load: no request completed within the "
            "measurement window — the server is wedged or erroring")
    latencies = np.concatenate(samples)
    return {
        "requests": int(len(latencies)),
        "wall_time": wall,
        "req_per_s": len(latencies) / wall,
        "p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "latencies": latencies,
        "stragglers": stragglers,
        "overload_errors": int(sum(overload_counts)),
        "retries": int(sum(c.retries for c in clients)),
    }
