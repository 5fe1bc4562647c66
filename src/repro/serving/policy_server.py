"""PolicyServer: dynamic micro-batching inference over a built agent.

Executing concurrent requests one by one pays the full Python dispatch
and session overhead per request.  The server instead collects them into
micro-batches — up to ``max_batch_size`` observation rows, waiting at
most ``batch_window`` seconds for stragglers — and issues ONE compiled
act call per batch, then scatters the per-row actions back.

A request is a *block* of k >= 1 observation rows behind one future
(``submit(obs)`` is k = 1, ``submit_block(rows)`` hands over a whole
``(k, *state_shape)`` array), so the per-request cost — future,
admission, queue hand-off — is paid once per block.  The collector packs
whole blocks and never splits one across two batches.

Requests queue in a ``queue.Queue`` like an actor mailbox, and each is a
:class:`raylite.ObjectRef` — the future clients already know from
``.remote()`` calls.  Weight hot-swap (:meth:`PolicyServer.set_weights`)
rides the same mailbox and applies *between* batches, so a running
server updates mid-traffic without dropping or corrupting a request.

Batch shapes are quantized to power-of-two buckets (``pad_batches``) so
the backend sees a handful of recurring batch sizes; each bucket's act
plan is warmed once at :meth:`start`, keeping tail latency flat from the
first request on.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.raylite import ObjectRef
from repro.serving.overload import (
    DeadlineExceededError,
    LatencyWindow,
    OverloadError,
    ServerClosedError,
    deadline_from_budget,
    resolve_admission_spec,
)
from repro.utils.errors import RLGraphError

logger = logging.getLogger(__name__)


class ServerStats:
    """Row/batch counters and latency percentiles (thread-safe).

    Counters count observation *rows* (a k-row block request adds k).
    Every admitted row ends in exactly one outcome, so once traffic has
    settled ``requests == served + errors + shed + expired + closed``
    (``served`` is the batch-size histogram's row total; ``rejected``
    rows were never admitted).  Latency keeps one sample per served
    request in a :class:`LatencyWindow`.
    """

    MAX_LATENCY_SAMPLES = LatencyWindow.MAX_LATENCY_SAMPLES
    COUNTERS = ("requests", "batches", "errors", "rejected", "shed",
                "expired", "closed", "retries", "weight_swaps",
                "weight_swap_failures")

    def __init__(self):
        self._latency = LatencyWindow(self.MAX_LATENCY_SAMPLES)
        self._lock = self._latency.lock  # one lock per served batch
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.max_batch = 0
        self._batch_hist: Dict[int, int] = {}

    def record_batch(self, size: int, latencies) -> None:
        """The served outcome: one batch of ``size`` rows answered."""
        with self._lock:
            self.batches += 1
            self.max_batch = max(self.max_batch, size)
            self._batch_hist[size] = self._batch_hist.get(size, 0) + 1
            self._latency.extend(latencies)

    def count(self, name: str, rows: int = 1) -> None:
        """Add ``rows`` to the counter ``name`` (one of ``COUNTERS``)."""
        with self._lock:
            setattr(self, name, getattr(self, name) + rows)

    @property
    def batch_size_histogram(self) -> Dict[int, int]:
        with self._lock:
            return dict(sorted(self._batch_hist.items()))

    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            served = sum(k * v for k, v in self._batch_hist.items())
            return served / self.batches if self.batches else 0.0

    def latency(self, percentile: float) -> Optional[float]:
        """Latency percentile in seconds (None before any request)."""
        return self._latency.percentile(percentile)

    def as_dict(self) -> Dict[str, Any]:
        p50, p99 = self.latency(50), self.latency(99)
        with self._lock:
            return {
                **{name: getattr(self, name) for name in self.COUNTERS},
                "mean_batch_size": round(self.mean_batch_size, 2),
                "max_batch_size": self.max_batch,
                "batch_size_histogram": self.batch_size_histogram,
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


def warm_up(agent, act, sizes) -> None:
    """Prime an agent's serving ``act`` once per batch size, so no live
    request pays first-call latency.  The synthetic traffic leaves the
    timestep counter (and any exploration schedule) as it was."""
    before = agent.timesteps
    zeros = agent.state_space.zeros
    for size in sizes:
        act(zeros(size=size))
    agent.timesteps = before


class _BatchingFrontEnd:
    """Shared micro-batching front end (mailbox + collector loop).

    Subclasses implement :meth:`_dispatch` (execute one collected batch)
    and :meth:`_apply_weights` (the between-batches hot swap), and set
    ``pad_batches``.  :meth:`_settle` settles and counts every request.
    """

    #: Exploratory serving never pads: each phantom row would advance
    #: the exploration schedule and burn RNG draws (greedy rows are free).
    explore = False

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
        sentinel sits behind them in the mailbox); new submits fail
        synchronously with a typed :class:`ServerClosedError`, and one
        that raced the stop fails with it at once instead of hanging
        until its client's timeout."""
        if self._thread is None:
            return
        self._stopped.set()
        self._mailbox.put(_STOP)
        self._thread.join(timeout=30.0)
        self._thread = None
        self._close_mailbox()

    def _close_mailbox(self) -> None:
        """Fail everything left in the mailbox with ServerClosedError."""
        while True:
            try:
                item = self._mailbox.get_nowait()
            except queue.Empty:
                return
            closed = ServerClosedError(f"{self.name}: server is not running")
            if isinstance(item, _Request):
                self._depth_add(-item.rows)
                self._settle(item, "closed", closed)
            elif isinstance(item, _Control):
                item.ref._fail(closed)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def _warm_up(self) -> None:  # pragma: no cover - overridden
        pass

    # -- the one settle path -------------------------------------------------
    def _settle(self, req: _Request, outcome: str, value) -> bool:
        """Resolve ``req``'s future with ``value`` (``outcome`` is
        ``"served"``; :meth:`_scatter` counts served rows per batch) or
        fail it with ``value`` and count its rows under the ServerStats
        counter ``outcome`` — only if this call settled it (a stop can
        race the batch loop).  Returns whether it did."""
        if outcome == "served":
            return req.ref._resolve(value)
        won = req.ref._fail(value)
        if won:
            self.stats.count(outcome, req.rows)
        return won

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
            self.stats.count("rejected", rows)
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
            self._settle(item, "shed", OverloadError(
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
        req = _Request(rows, ObjectRef(), now,
                       deadline_from_budget(deadline, now), single)
        self.stats.count("requests", req.rows)
        self._mailbox.put(req)
        # Re-check after the put: a stop() racing this submit may have
        # already drained the mailbox, leaving the request unread.
        thread = self._thread
        if self._stopped.is_set() and (thread is None
                                       or not thread.is_alive()):
            self._close_mailbox()
        return req.ref

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
                    for req in requests:
                        self._settle(req, "errors", exc)
            # Controls apply BETWEEN batches: the swap never tears a
            # batch that was already being assembled.
            for control in controls:
                try:
                    self._apply_weights(control.value)
                    self.stats.count("weight_swaps")
                    control.ref._resolve(True)
                except BaseException as exc:
                    # Most swap callers are fire-and-forget (executor
                    # weight_listeners): failing only the ref would be
                    # silent, leaving the server on stale weights with
                    # no trace — count it and warn loudly as well.
                    self.stats.count("weight_swap_failures")
                    logger.warning("%s: weight hot-swap FAILED, still "
                                   "serving previous weights: %s",
                                   self.name, exc)
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
                self._settle(req, "expired", DeadlineExceededError(
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
                self._settle(req, "shed", OverloadError(
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
        if self.pad_batches and not self.explore:
            target = bucket_size(n, self.max_batch_size)
            if target > n:
                pad = np.broadcast_to(obs[-1], (target - n,) + obs.shape[1:])
                obs = np.concatenate([obs, pad], axis=0)
        return obs

    def _scatter(self, requests: List[_Request], actions) -> None:
        """Resolve each request's future with its slice of the batch's
        actions (rows past the last request are bucket padding), and
        record the rows and latencies of the requests this served."""
        actions = np.asarray(actions)
        now = time.perf_counter()
        lo = served = 0
        latencies = []
        for req in requests:
            hi = lo + req.rows
            if self._settle(req, "served",
                            actions[lo] if req.single else actions[lo:hi]):
                served += req.rows
                latencies.append(now - req.t_submit)
            lo = hi
        self.stats.record_batch(served, latencies)


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
        self.pad_batches = pad_batches
        self._act = agent.serving_act_fn(explore=explore)
        super().__init__(agent.state_space, max_batch_size=max_batch_size,
                         batch_window=batch_window, name=name,
                         auto_start=auto_start, admission_spec=admission_spec,
                         default_deadline=default_deadline)

    def _warm_up(self) -> None:
        warm_up(self.agent, self._act, bucket_sizes(self.max_batch_size))

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
