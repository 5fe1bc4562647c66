"""PolicyServer: dynamic micro-batching inference over a built agent.

The ROADMAP's north star is serving a trained policy to heavy concurrent
traffic; after PRs 2-4 one compiled ``act`` call is fast, so the
remaining win is *amortizing* it.  Many clients each hold one
observation; executing them one by one pays the full Python dispatch +
session overhead per request.  The server instead collects concurrent
requests into micro-batches — up to ``max_batch_size`` observation rows,
waiting at most ``batch_window`` seconds for stragglers — and issues ONE
compiled ``get_greedy_actions`` call for the whole batch, then scatters
the per-row actions back to each caller.

A request is a *block* of k >= 1 observation rows behind one future:
``submit(obs)`` is k = 1, ``submit_block(rows)`` hands over a whole
``(k, *state_shape)`` array (what a vector-env client holds), so the
per-request cost — future, admission, queue hand-off — is paid once per
block, not once per observation.  The collector packs whole blocks and
never splits one across two batches.

Request/response plumbing deliberately reuses raylite's mailbox
machinery rather than growing a parallel future type: requests queue in
a ``queue.Queue`` exactly like an actor mailbox, and every pending
request is a :class:`raylite.ObjectRef` — the same event-driven future
clients already know from ``.remote()`` calls (``ref.result()`` blocks,
``add_done_callback`` composes).

Weight hot-swap rides the same mailbox: :meth:`PolicyServer.set_weights`
enqueues a control item carrying the flat weight vector (PR 4's
zero-copy sync path), and the batching loop applies it *between*
batches — a running server updates mid-traffic without dropping or
corrupting a single request.

Batch shapes are quantized to power-of-two buckets (``pad_batches``) so
the backend sees a handful of recurring batch sizes instead of an
arbitrary one per window; each bucket's compiled act plan and its NumPy
allocations are warmed once at :meth:`start`, keeping tail latency flat
from the first request on.
"""

from __future__ import annotations

import collections
import queue
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.raylite import ObjectRef
from repro.serving.overload import (
    DeadlineExceededError,
    OverloadError,
    ServerClosedError,
    deadline_from_budget,
    resolve_admission_spec,
)
from repro.utils.errors import RLGraphError


class ServerStats:
    """Row/batch counters and latency percentiles (thread-safe).

    Counters count observation *rows* (a k-row block request adds k);
    latency keeps one sample per request, over the most recent
    ``MAX_LATENCY_SAMPLES`` requests.
    """

    MAX_LATENCY_SAMPLES = 50_000

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.batches = 0
        self.errors = 0
        self.weight_swaps = 0
        self.weight_swap_failures = 0
        self.max_batch = 0
        self.rejected = 0
        self.shed = 0
        self.expired = 0
        self.retries = 0
        self._batched_requests = 0
        self._batch_hist: Dict[int, int] = {}
        self._latencies = collections.deque(maxlen=self.MAX_LATENCY_SAMPLES)

    def record_batch(self, size: int, latencies) -> None:
        with self._lock:
            self.batches += 1
            self._batched_requests += size
            self.max_batch = max(self.max_batch, size)
            self._batch_hist[size] = self._batch_hist.get(size, 0) + 1
            self._latencies.extend(latencies)

    def record_submit(self, count: int = 1) -> None:
        with self._lock:
            self.requests += count

    def record_error(self, count: int = 1) -> None:
        with self._lock:
            self.errors += count

    def record_reject(self, count: int = 1) -> None:
        with self._lock:
            self.rejected += count

    def record_shed(self, count: int = 1) -> None:
        with self._lock:
            self.shed += count

    def record_expired(self, count: int = 1) -> None:
        with self._lock:
            self.expired += count

    def record_retry(self, count: int = 1) -> None:
        with self._lock:
            self.retries += count

    @property
    def batch_size_histogram(self) -> Dict[int, int]:
        with self._lock:
            return dict(sorted(self._batch_hist.items()))

    def record_swap(self) -> None:
        with self._lock:
            self.weight_swaps += 1

    def record_swap_failure(self) -> None:
        with self._lock:
            self.weight_swap_failures += 1

    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            return (self._batched_requests / self.batches
                    if self.batches else 0.0)

    def latency(self, percentile: float) -> Optional[float]:
        """Latency percentile in seconds (None before any request)."""
        with self._lock:
            if not self._latencies:
                return None
            return float(np.percentile(self._latencies, percentile))

    def as_dict(self) -> Dict[str, Any]:
        p50, p99 = self.latency(50), self.latency(99)
        with self._lock:
            return {
                "requests": self.requests,
                "batches": self.batches,
                "errors": self.errors,
                "rejected": self.rejected,
                "shed": self.shed,
                "expired": self.expired,
                "retries": self.retries,
                "weight_swaps": self.weight_swaps,
                "weight_swap_failures": self.weight_swap_failures,
                "mean_batch_size": round(
                    self._batched_requests / self.batches, 2)
                    if self.batches else 0.0,
                "max_batch_size": self.max_batch,
                "batch_size_histogram": dict(sorted(self._batch_hist.items())),
                "p50_latency_ms": round(p50 * 1e3, 3) if p50 else None,
                "p99_latency_ms": round(p99 * 1e3, 3) if p99 else None,
            }


class _Request:
    """A block of ``rows`` >= 1 observation rows behind ONE future.

    ``obs`` is always ``(rows, *state_shape)``.  ``single`` marks a
    ``submit`` request: its future resolves with the row's action, a
    block's with the ``(rows, ...)`` action array.
    """

    __slots__ = ("obs", "rows", "single", "ref", "t_submit", "attempts",
                 "deadline")

    def __init__(self, obs, ref: ObjectRef, t_submit: float,
                 deadline: Optional[float] = None, single: bool = False):
        self.obs = obs
        self.rows = len(obs)
        self.single = single
        self.ref = ref
        self.t_submit = t_submit
        # Absolute (perf_counter) expiry, or None: the batch loop skips
        # expired requests instead of wasting a batch slot on them.
        self.deadline = deadline
        # Dispatch attempts so far: a supervised worker pool re-queues
        # the requests of a batch lost to a replica crash (bounded — see
        # InferenceWorkerPool._on_batch_done) instead of failing them.
        self.attempts = 0


class _Control:
    """A mailbox item that is not a request (weight swap)."""

    __slots__ = ("kind", "value", "ref")

    def __init__(self, kind: str, value, ref: ObjectRef):
        self.kind = kind
        self.value = value
        self.ref = ref


_STOP = object()


def num_rows(requests) -> int:
    """Observation rows in a collected batch (requests are row blocks)."""
    return sum(req.rows for req in requests)


def bucket_size(n: int, max_batch_size: int) -> int:
    """The power-of-two batch bucket for ``n`` (capped at the max)."""
    if n >= max_batch_size:
        return max_batch_size
    b = 1
    while b < n:
        b <<= 1
    return min(b, max_batch_size)


def bucket_sizes(max_batch_size: int):
    """All batch buckets a server can see (what warm-up must prime)."""
    sizes = {max_batch_size}
    b = 1
    while b < max_batch_size:
        sizes.add(b)
        b <<= 1
    return sorted(sizes)


class _BatchingFrontEnd:
    """Shared micro-batching front end (mailbox + collector loop).

    Subclasses implement :meth:`_dispatch` (execute one collected batch)
    and :meth:`_apply_weights` (the between-batches hot swap).
    """

    def __init__(self, state_space, max_batch_size: int = 32,
                 batch_window: float = 0.002, name: str = "policy-server",
                 auto_start: bool = True, admission_spec=None,
                 default_deadline: Optional[float] = None,
                 tick: Optional[float] = None):
        if max_batch_size < 1:
            raise RLGraphError("max_batch_size must be >= 1")
        if batch_window < 0:
            raise RLGraphError("batch_window must be >= 0")
        if default_deadline is not None and default_deadline <= 0:
            raise RLGraphError("default_deadline must be > 0 (or None)")
        self.state_space = state_space
        self.max_batch_size = int(max_batch_size)
        self.batch_window = float(batch_window)
        self.name = name
        self.admission = resolve_admission_spec(admission_spec)
        self.default_deadline = default_deadline
        self.stats = ServerStats()
        self._shedder = self.admission.make_shedder()
        self._mailbox: "queue.Queue" = queue.Queue()
        # Queued observation *rows* (controls excluded): the admission /
        # shedding / autoscaling signal.  Tracked explicitly because
        # Queue.qsize() would count control items (and blocks as one).
        self._depth = 0
        self._depth_lock = threading.Lock()
        # A block that did not fit the batch being assembled: it heads
        # the next one (collector-thread private, still counted queued).
        self._carry: Optional[_Request] = None
        # Collector wake-up period with an empty mailbox: None blocks
        # forever (the plain-server default); the pool sets it so the
        # autoscaler can act on *silence* (shrink-when-idle).
        self._tick = tick
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        if auto_start:
            self.start()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "_BatchingFrontEnd":
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stopped.clear()
        self._warm_up()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name=self.name)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain-and-stop: requests already queued are still served (the
        sentinel sits behind them in the mailbox), new submits fail with
        a typed :class:`ServerClosedError` *synchronously*.  A request
        that raced past the submit-time check while stop ran is failed
        here with the same typed error immediately — its caller's
        ``ref.result()`` raises right away rather than hanging until
        the client timeout."""
        if self._thread is None:
            return
        self._stopped.set()
        self._mailbox.put(_STOP)
        self._thread.join(timeout=30.0)
        self._thread = None
        while True:
            try:
                item = self._mailbox.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, _Request):
                self._depth_add(-item.rows)
            if isinstance(item, (_Request, _Control)):
                item.ref._fail(ServerClosedError(
                    f"{self.name}: server is not running"))

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def _warm_up(self) -> None:  # pragma: no cover - overridden
        pass

    # -- queue-depth accounting ----------------------------------------------
    def _depth_add(self, rows: int) -> None:
        with self._depth_lock:
            self._depth += rows

    def queue_depth(self) -> int:
        """Observation rows currently waiting in the mailbox (the
        overload signal: admission, CoDel and the autoscaler read it)."""
        with self._depth_lock:
            return self._depth

    def _admit(self, rows: int) -> None:
        """Bounded-queue admission of one ``rows``-row request: runs
        synchronously in ``submit`` and is all-or-nothing — the request
        is counted into the queue depth whole, or not at all.

        ``reject`` raises the typed :class:`OverloadError` to the caller
        (queue depth + retry-after attached); ``drop-oldest`` fails the
        oldest *queued* requests (whole, until the new one fits) instead
        and admits the new one.
        """
        max_queue = self.admission.max_queue
        with self._depth_lock:
            depth = self._depth
            if max_queue is None or depth + rows <= max_queue:
                self._depth = depth + rows
                return
        if self.admission.policy == "reject":
            self.stats.record_reject(rows)
            raise OverloadError(
                f"{self.name}: request queue is full "
                f"({depth}+{rows}/{max_queue} rows); retry after "
                f"{self.admission.retry_after:.3f}s",
                queue_depth=depth, retry_after=self.admission.retry_after,
                reason="queue_full")
        # drop-oldest: pop queued items until enough requests surfaced;
        # controls (weight swaps) are order-insensitive between batches
        # and are simply re-enqueued.
        requeue = []
        while depth + rows > max_queue:
            try:
                item = self._mailbox.get_nowait()
            except queue.Empty:
                break
            if not isinstance(item, _Request):
                requeue.append(item)
                continue
            depth -= item.rows
            self._depth_add(-item.rows)
            self.stats.record_shed(item.rows)
            item.ref._fail(OverloadError(
                f"{self.name}: dropped as oldest queued request under "
                f"overload (queue limit {max_queue} rows)",
                queue_depth=depth, retry_after=self.admission.retry_after,
                reason="dropped_oldest"))
        for item in requeue:
            self._mailbox.put(item)
        self._depth_add(rows)

    # -- client surface ------------------------------------------------------
    def submit(self, obs, deadline: Optional[float] = None) -> ObjectRef:
        """Enqueue one observation; returns a raylite-style future for
        its action.  Shape problems fail *here*, synchronously, with the
        expected shapes spelled out — they never poison a batch.

        ``deadline`` is a seconds budget for this request; once it
        expires while queued the batch loop fails the future with
        :class:`DeadlineExceededError` instead of executing it.  A full
        bounded queue raises :class:`OverloadError` here (``reject``
        policy) or sheds the oldest queued request (``drop-oldest``).
        """
        obs = np.asarray(obs)
        if obs.shape != self.state_space.shape:
            raise RLGraphError(
                f"{self.name}: observation of shape {obs.shape} does not "
                f"match the state space shape {self.state_space.shape} — "
                f"submit exactly one unbatched observation per request")
        return self._enqueue(obs[None], deadline, single=True)

    def submit_block(self, rows, deadline: Optional[float] = None
                     ) -> ObjectRef:
        """Enqueue a ``(k, *state_shape)`` block of observations,
        ``1 <= k <= max_batch_size``, as ONE request: one future (it
        resolves with the ``(k, ...)`` action array, rows in order), one
        deadline, all-or-nothing admission.  The block is never split
        across two batches, so all its rows run under one weight
        version.  ``submit`` is this with ``k = 1`` and the row's action
        as the result; the array is read at batch time, not copied here.
        """
        rows = np.asarray(rows)
        if rows.ndim == 0 or rows.shape[1:] != self.state_space.shape:
            raise RLGraphError(
                f"{self.name}: block of shape {rows.shape} is not (k, "
                f"*{self.state_space.shape}) — stack the observations")
        if not 1 <= len(rows) <= self.max_batch_size:
            raise RLGraphError(
                f"{self.name}: a block holds 1..{self.max_batch_size} "
                f"(max_batch_size) rows, got {len(rows)} — slice it "
                f"(PolicyClient.act_many does)")
        return self._enqueue(rows, deadline, single=False)

    def _enqueue(self, rows, deadline, single: bool) -> ObjectRef:
        if self._stopped.is_set() or self._thread is None:
            raise ServerClosedError(f"{self.name}: server is not running")
        self._admit(len(rows))
        now = time.perf_counter()
        if deadline is None:
            deadline = self.default_deadline
        ref = ObjectRef()
        self.stats.record_submit(len(rows))
        self._mailbox.put(_Request(
            rows, ref, now, deadline_from_budget(deadline, now), single))
        # Re-check after the put: a stop() racing this submit may have
        # already drained the mailbox, leaving the request unread.
        # Settle-once semantics make this safe — if the loop (or the
        # stop-drain) did handle it, this _fail is a no-op.
        thread = self._thread
        if self._stopped.is_set() and (thread is None
                                       or not thread.is_alive()):
            ref._fail(ServerClosedError(
                f"{self.name}: server is not running"))
        return ref

    def act(self, obs, timeout: Optional[float] = None,
            deadline: Optional[float] = None):
        """Synchronous single-observation act."""
        return self.submit(obs, deadline=deadline).result(timeout)

    def set_weights(self, weights, wait: bool = False) -> ObjectRef:
        """Hot-swap policy weights mid-traffic.

        ``weights`` is a flat float32 vector (``get_weights(flat=True)``)
        or a per-variable dict; the swap applies between micro-batches,
        so no in-flight request ever sees a half-written policy.  Returns
        a future resolving once the swap is applied (``wait=True`` blocks
        on it).
        """
        if self._thread is None or not self._thread.is_alive():
            raise RLGraphError(f"{self.name}: server is not running")
        ref = ObjectRef()
        self._mailbox.put(_Control("weights", weights, ref))
        if wait:
            ref.result(timeout=30.0)
        return ref

    # -- the batching loop ---------------------------------------------------
    def _loop(self) -> None:
        while True:
            item, self._carry = self._carry, None
            if item is None:
                try:
                    item = self._mailbox.get(timeout=self._tick)
                except queue.Empty:
                    # Idle tick: no traffic — let subclasses evaluate
                    # time-driven policy (autoscaler shrink-when-idle).
                    self._on_idle_tick()
                    continue
            if item is _STOP:
                return
            requests: List[_Request] = []
            controls: List[_Control] = []
            if isinstance(item, _Control):
                controls.append(item)
            else:
                self._depth_add(-item.rows)
                requests.append(item)
                rows = item.rows
                deadline = time.perf_counter() + self.batch_window
                while rows < self.max_batch_size:
                    remaining = deadline - time.perf_counter()
                    try:
                        if remaining > 0:
                            nxt = self._mailbox.get(timeout=remaining)
                        else:
                            # Window closed: opportunistically drain what
                            # is already queued, never wait further.
                            nxt = self._mailbox.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        # Serve this batch, then re-see the sentinel.
                        self._mailbox.put(_STOP)
                        break
                    if isinstance(nxt, _Control):
                        controls.append(nxt)
                    elif rows + nxt.rows > self.max_batch_size:
                        # Whole blocks only: never split (a swap must
                        # not land inside a request), never reordered.
                        self._carry = nxt
                        break
                    else:
                        self._depth_add(-nxt.rows)
                        requests.append(nxt)
                        rows += nxt.rows
            requests = self._filter_admitted(requests)
            if requests:
                try:
                    self._dispatch(requests)
                except BaseException as exc:
                    self.stats.record_error(num_rows(requests))
                    for req in requests:
                        req.ref._fail(exc)
            # Controls apply BETWEEN batches: the swap never tears a
            # batch that was already being assembled.
            for control in controls:
                try:
                    self._apply_weights(control.value)
                    self.stats.record_swap()
                    control.ref._resolve(True)
                except BaseException as exc:
                    # Most swap callers are fire-and-forget (executor
                    # weight_listeners): failing only the ref would be
                    # silent, leaving the server on stale weights with
                    # no trace — count it and warn loudly as well.
                    self.stats.record_swap_failure()
                    import sys
                    print(f"{self.name}: weight hot-swap FAILED, still "
                          f"serving previous weights: {exc}",
                          file=sys.stderr)
                    control.ref._fail(exc)

    def _filter_admitted(self, requests: List[_Request]) -> List[_Request]:
        """Drop expired and CoDel-shed requests from a collected batch.

        Runs on the collector thread just before dispatch.  An expired
        request is *never executed* — its slot is simply not wasted —
        and its future fails with the typed deadline error.  When CoDel
        detects a standing queue (sojourn above target for a full
        interval), requests shed here fail with :class:`OverloadError`
        so clients back off instead of piling on.
        """
        now = time.perf_counter()
        depth = self.queue_depth()
        backlog = depth + num_rows(requests)
        admitted: List[_Request] = []
        for req in requests:
            if req.deadline is not None and now >= req.deadline:
                self.stats.record_expired(req.rows)
                req.ref._fail(DeadlineExceededError(
                    f"{self.name}: deadline expired after "
                    f"{now - req.t_submit:.4f}s in queue (budget "
                    f"{req.deadline - req.t_submit:.4f}s) — request was "
                    f"never executed",
                    waited=now - req.t_submit,
                    budget=req.deadline - req.t_submit))
                continue
            if self._shedder is not None and self._shedder.on_dequeue(
                    now - req.t_submit, now=now,
                    queue_depth=backlog):
                self.stats.record_shed(req.rows)
                req.ref._fail(OverloadError(
                    f"{self.name}: shed after {now - req.t_submit:.4f}s "
                    f"queueing delay (CoDel target "
                    f"{self._shedder.target:.4f}s)",
                    queue_depth=depth,
                    retry_after=self.admission.retry_after, reason="shed"))
                continue
            admitted.append(req)
        return admitted

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One scrapeable snapshot: counters, percentiles, queue depth,
        batch-size histogram, admission configuration.  The HTTP
        gateway serves this (plus its per-route layer) at /metrics."""
        snap = self.stats.as_dict()
        snap["queue_depth"] = self.queue_depth()
        snap["max_queue"] = self.admission.max_queue
        snap["admission_policy"] = (self.admission.policy
                                    if self.admission.enabled else None)
        snap["codel_target"] = self.admission.codel_target
        snap["running"] = (self._thread is not None
                           and self._thread.is_alive())
        return snap

    # -- to be implemented ---------------------------------------------------
    def _dispatch(self, requests: List[_Request]) -> None:
        raise NotImplementedError

    def _apply_weights(self, weights) -> None:
        raise NotImplementedError

    def _on_idle_tick(self) -> None:
        """Called when a tick elapses with no mailbox traffic (only when
        ``tick`` is set).  Subclasses hook time-driven policy here."""

    # -- shared batch helpers ------------------------------------------------
    def _stack(self, requests: List[_Request]):
        """Concatenate the requests' row blocks, padded up to the batch
        bucket.  A lone block that fills its bucket is handed on as is
        (no copy)."""
        obs = (requests[0].obs if len(requests) == 1
               else np.concatenate([r.obs for r in requests]))
        n = len(obs)
        if self.pad_batches:
            target = bucket_size(n, self.max_batch_size)
            if target > n:
                pad = np.broadcast_to(obs[-1], (target - n,) + obs.shape[1:])
                obs = np.concatenate([obs, pad], axis=0)
        return obs

    def _scatter(self, requests: List[_Request], actions) -> None:
        """Resolve each request's future with its slice of the batch's
        actions (rows past the last request are bucket padding)."""
        actions = np.asarray(actions)
        now = time.perf_counter()
        lo = 0
        for req in requests:
            hi = lo + req.rows
            req.ref._resolve(actions[lo] if req.single else actions[lo:hi])
            lo = hi
        self.stats.record_batch(
            lo, [now - r.t_submit for r in requests])


class PolicyServer(_BatchingFrontEnd):
    """In-process micro-batching policy server over one built agent.

    Args:
        agent: a built :class:`~repro.agents.agent.Agent`; requests run
            through its greedy act endpoint (``explore=False``, the
            serving default) via the cached compiled call path.
        max_batch_size: micro-batch cap (one compiled call serves up to
            this many concurrent requests).
        batch_window: how long (seconds) an open batch waits for
            stragglers.  ``0`` still drains already-queued requests —
            the knob trades tail latency for batching opportunity.
        explore: serve exploratory actions instead of greedy ones
            (eval traffic wants False; self-play style traffic may not).
        pad_batches: quantize batch shapes to power-of-two buckets so
            the backend sees few distinct shapes (warmed at start).
        auto_start: start the batching thread on construction.
    """

    def __init__(self, agent, max_batch_size: int = 32,
                 batch_window: float = 0.002, explore: bool = False,
                 pad_batches: bool = True, name: str = "policy-server",
                 auto_start: bool = True, admission_spec=None,
                 default_deadline: Optional[float] = None):
        if agent.graph is None:
            raise RLGraphError("PolicyServer needs a built agent")
        self.agent = agent
        self.explore = explore
        # Padding feeds phantom duplicate rows through the act call; on
        # the greedy path that is free, but with explore=True each
        # phantom row would advance the exploration schedule and burn
        # RNG draws — so exploratory serving never pads.
        self.pad_batches = pad_batches and not explore
        self._act = agent.serving_act_fn(explore=explore)
        super().__init__(agent.state_space, max_batch_size=max_batch_size,
                         batch_window=batch_window, name=name,
                         auto_start=auto_start, admission_spec=admission_spec,
                         default_deadline=default_deadline)

    def _warm_up(self) -> None:
        """Prime the compiled act plan and its allocations for every
        batch bucket, so no live request pays first-call latency.
        Warm-up traffic is synthetic: the agent's timestep counter (and
        with it any exploration schedule) is restored afterwards."""
        before = self.agent.timesteps
        zeros = self.state_space.zeros
        for size in bucket_sizes(self.max_batch_size):
            self._act(zeros(size=size))
        self.agent.timesteps = before

    def _dispatch(self, requests: List[_Request]) -> None:
        obs = self._stack(requests)
        actions = self._act(obs)
        self._scatter(requests, actions)

    def _apply_weights(self, weights) -> None:
        self.agent.set_weights(weights)

    def __repr__(self):
        return (f"PolicyServer(agent={type(self.agent).__name__}, "
                f"max_batch={self.max_batch_size}, "
                f"window={self.batch_window * 1e3:.1f}ms)")
