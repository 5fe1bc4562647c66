"""PolicyClient: a synchronous act interface over any serving target.

Clients see one call — ``act(obs) -> action`` — whether it goes to an
**in-process** :class:`PolicyServer` or :class:`InferenceWorkerPool`
(submit into the micro-batching mailbox, block on the future) or to a
raylite :class:`PolicyServerActor` handle **across the actor boundary**
(a batch of one through ``act_batch.remote``).  ``act_many`` is the
vector-env call: ``max_batch_size``-row blocks to a front end, one
``act_batch`` call to an actor — never one request per observation.

The client records per-request round-trip latency, which is where
p50/p99 service latency is honestly measured (server-side numbers can't
see queueing before ``submit`` or wake-up after resolve).

Every call runs under one **deadline budget** (``timeout``) that also
propagates into the front end, so the batch loop skips the request once
it expires.  ``retry_spec`` adds bounded, deadline-gated **retries** on
:class:`OverloadError` and optional **hedged sends** (see
:class:`RetrySpec`).

:func:`drive_concurrent_load` is the one closed-loop load driver, over
a front end, a raylite policy actor or an :class:`HttpGateway`.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

import numpy as np

from repro import raylite
from repro.execution.supervision import BackoffPolicy
from repro.serving.gateway import HttpGateway, HttpPolicyClient
from repro.serving.overload import (
    DeadlineExceededError,
    LatencyWindow,
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
    """``None``/``False`` — no retries.  An int —
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

    #: Latency samples kept for percentiles (the request count is exact).
    MAX_LATENCY_SAMPLES = LatencyWindow.MAX_LATENCY_SAMPLES

    def __init__(self, target, timeout: Optional[float] = 30.0,
                 retry_spec=None):
        self.timeout = timeout
        self.retry = resolve_retry_spec(retry_spec)
        self._latency = LatencyWindow(self.MAX_LATENCY_SAMPLES)
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
        self._latency.add(time.perf_counter() - t0)
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
        ``N x timeout``: each slice is submitted with, and each gather
        waits for, what is left of it (a full slice may run here before
        the next is submitted).  One latency sample per call: the mean
        per observation.
        """
        budget = timeout if timeout is not None else self.timeout
        t0 = time.perf_counter()
        deadline = None if budget is None else t0 + budget

        def left():
            return None if deadline is None \
                else max(deadline - time.perf_counter(), 0.0)
        rows = np.asarray(observations)
        if not len(rows):
            return []
        if self._remote:
            refs = [self._handle.act_batch.remote(rows)]
        else:
            step = self.target.max_batch_size
            refs = [self.target.submit_block(rows[lo:lo + step],
                                             deadline=left())
                    for lo in range(0, len(rows), step)]
        parts = [np.asarray(ref.result(left())) for ref in refs]
        self._latency.add((time.perf_counter() - t0) / len(rows))
        return list(np.concatenate(parts))

    # -- latency accounting --------------------------------------------------
    @property
    def num_requests(self) -> int:
        return self._latency.count

    @property
    def latencies(self) -> np.ndarray:
        """The most recent per-request round-trip latencies (seconds)."""
        return self._latency.samples

    def latency(self, percentile: float) -> Optional[float]:
        return self._latency.percentile(percentile)

    def latency_stats(self) -> dict:
        samples = self.latencies
        if not samples.size:
            return {"requests": 0}
        return {
            "requests": self.num_requests,
            "mean_ms": round(float(samples.mean()) * 1e3, 3),
            "p50_ms": round(self.latency(50) * 1e3, 3),
            "p99_ms": round(self.latency(99) * 1e3, 3),
            "retries": self.retries,
            "hedges": self.hedges,
        }


def drive_concurrent_load(target, num_clients: int, duration: float,
                          observations=None, tolerate_overload: bool = False,
                          deadline: Optional[float] = None, retry_spec=None,
                          join_timeout: float = 30.0):
    """The one closed-loop load driver (serving benches, tests, CLI).

    ``num_clients`` threads loop ``act`` on their own observation
    (default: sampled from the target's state space) for ``duration``
    seconds, each through a :class:`PolicyClient` (front end or raylite
    policy actor) or a keep-alive :class:`HttpPolicyClient` (an
    :class:`HttpGateway`; no ``retry_spec``).  ``deadline`` is the
    per-call budget in seconds sent to the server.  Every successful
    call is timed into one :class:`LatencyWindow`.  Any client error
    fails the run; with ``tolerate_overload`` typed overload (backed off
    by its ``retry_after``) and deadline errors are counted instead.

    Returns ``requests`` (successes), ``attempts``, ``wall_time``,
    ``req_per_s``, ``p50_ms``/``p99_ms`` (NaN without a success),
    ``overload_errors``, ``deadline_errors``, ``shed_rate``,
    ``deadline_rate``, ``retries`` and ``stragglers`` (clients still
    running after ``join_timeout``).
    """
    http = isinstance(target, HttpGateway)
    if http and retry_spec is not None:
        raise RLGraphError("drive_concurrent_load: retry_spec is for "
                           "PolicyClient targets, not an HttpGateway")
    if observations is None:
        space = (target.target if http else target).state_space
        observations = space.sample(size=max(num_clients, 1))
    budget = {} if deadline is None else (
        {"deadline_ms": deadline * 1e3} if http else {"timeout": deadline})
    clients = [HttpPolicyClient.for_gateway(target, **budget) if http
               else PolicyClient(target, retry_spec=retry_spec, **budget)
               for _ in range(num_clients)]
    window, stop = LatencyWindow(), threading.Event()
    failures: List[BaseException] = []
    overloads, expiries = [0] * num_clients, [0] * num_clients

    def loop(index: int) -> None:
        obs, client = np.asarray(observations[index]), clients[index]
        try:
            while not stop.is_set():
                t0 = time.perf_counter()
                try:
                    client.act(obs)
                except OverloadError as exc:
                    if not tolerate_overload:
                        raise
                    overloads[index] += 1
                    stop.wait(exc.retry_after or 0.002)
                except DeadlineExceededError:
                    if not tolerate_overload:
                        raise
                    expiries[index] += 1
                else:
                    window.add(time.perf_counter() - t0)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failures.append(exc)
        finally:
            if http:
                client.close()

    threads = [threading.Thread(target=loop, args=(i,), daemon=True)
               for i in range(num_clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join(timeout=join_timeout)
    wall = time.perf_counter() - t0
    if failures:
        raise RLGraphError(
            f"drive_concurrent_load: {len(failures)}/{num_clients} "
            f"clients failed mid-measurement; first error: "
            f"{failures[0]!r}") from failures[0]
    requests, overload, expired = window.count, sum(overloads), sum(expiries)
    attempts = requests + overload + expired
    if not attempts:
        raise RLGraphError(
            "drive_concurrent_load: no request completed within the "
            "measurement window — the server is wedged")
    p50, p99 = (window.percentile(q) if requests else float("nan")
                for q in (50, 99))
    return {
        "requests": requests, "attempts": attempts, "wall_time": wall,
        "req_per_s": requests / wall,
        "p50_ms": p50 * 1e3, "p99_ms": p99 * 1e3,
        "overload_errors": overload, "deadline_errors": expired,
        "shed_rate": overload / attempts, "deadline_rate": expired / attempts,
        "retries": 0 if http else sum(c.retries for c in clients),
        "stragglers": sum(thread.is_alive() for thread in threads),
    }
