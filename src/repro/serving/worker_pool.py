"""InferenceWorkerPool: micro-batched serving sharded over raylite actors.

One :class:`~repro.serving.policy_server.PolicyServer` batches well but
executes on one thread; when inference itself is the bottleneck (big
nets, or pure-Python preprocessing holding the GIL) the pool shards the
same micro-batching front end across N :class:`PolicyServerActor`
replicas — raylite thread actors by default, or **process** actors
(``parallel_spec="process"``) for real multi-core inference where each
batch decodes from shared memory in the worker.

Dispatch is asynchronous: the collector thread routes each assembled
batch to the least-loaded replica (``handle.num_pending()``, the same
mailbox-depth signal raylite schedulers see) and immediately resumes
collecting the next batch; the per-batch ``ObjectRef`` completion
callback scatters actions back to the per-request futures.  The pool
therefore keeps all replicas busy without ever blocking on one.

Weight hot-swap broadcasts the flat vector to every replica through the
normal actor mailboxes — FIFO per actor guarantees each replica applies
it between its own batches, so a mid-traffic swap is exactly as safe as
the single-server case (and ships one shared-memory block per process
replica, PR 4's invariant).
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, List, Optional

import numpy as np

from repro import raylite
from repro.execution.parallel import resolve_parallel_spec
from repro.execution.supervision import ReplicaFactory, Supervisor, gather
from repro.serving.overload import (
    OverloadError,
    QueueDepthAutoscaler,
    resolve_autoscale_spec,
)
from repro.serving.policy_server import (
    _BatchingFrontEnd,
    _Request,
    bucket_sizes,
    num_rows,
)
from repro.utils.errors import RLGraphError

# How many times one request may ride a crashed-replica batch before its
# future fails (each retry lands on a different, live replica).
_MAX_DISPATCH_ATTEMPTS = 5


class PolicyServerActor:
    """One inference replica: a built agent behind the actor surface.

    Runs inside a raylite thread or process worker; the pool (or a
    remote :class:`~repro.serving.client.PolicyClient`) talks to it via
    ``act_batch``/``set_weights`` tasks through the actor mailbox.
    """

    def __init__(self, agent_factory: Callable, explore: bool = False,
                 replica_index: int = 0):
        try:
            self.agent = agent_factory(worker_index=replica_index)
        except TypeError:
            self.agent = agent_factory()
        self._act = self.agent.serving_act_fn(explore=explore)
        self.batches_served = 0
        self.requests_served = 0

    def act_batch(self, states) -> np.ndarray:
        states = np.asarray(states)
        actions = self._act(states)
        self.batches_served += 1
        self.requests_served += len(states)
        return np.asarray(actions)

    def warm_up(self, sizes) -> int:
        """Prime the compiled act plan per batch bucket.  Warm-up is
        synthetic traffic: the timestep counter (exploration schedule)
        is restored afterwards, mirroring PolicyServer._warm_up."""
        before = self.agent.timesteps
        zeros = self.agent.state_space.zeros
        for size in sizes:
            self._act(zeros(size=size))
        self.agent.timesteps = before
        return 0

    def set_weights(self, weights) -> int:
        self.agent.set_weights(weights)
        return 0

    def get_stats(self) -> dict:
        return {"batches_served": self.batches_served,
                "requests_served": self.requests_served}


class InferenceWorkerPool(_BatchingFrontEnd):
    """Shards micro-batched act requests over PolicyServerActor replicas.

    Args:
        agent_factory: builds one agent per replica (all replicas must
            share the architecture — the flat hot-swap layout is the
            same across them; pass the same seed for bitwise parity).
        state_space: the observation space served (shape validation at
            ``submit``) — passed explicitly because replicas may live
            across a process boundary.
        num_replicas: actor shard count.
        parallel_spec: raylite backend selection (thread/process), the
            same switch every executor takes.
    """

    def __init__(self, agent_factory: Callable, state_space,
                 num_replicas: int = 2, max_batch_size: int = 32,
                 batch_window: float = 0.002, explore: bool = False,
                 pad_batches: bool = True, parallel_spec=None,
                 name: str = "inference-pool", auto_start: bool = True,
                 supervision_spec=None, admission_spec=None,
                 default_deadline=None, autoscale_spec=None):
        if num_replicas < 1:
            raise RLGraphError("num_replicas must be >= 1")
        from repro.spaces.space_utils import space_from_spec
        self.pad_batches = pad_batches
        self.parallel = resolve_parallel_spec(parallel_spec)
        self._agent_factory = agent_factory
        self._explore = explore
        # The last hot-swapped weight vector: a restarted replica must
        # rejoin at the CURRENT version, not its factory-fresh init.
        self._current_weights = None
        self.supervisor = Supervisor(supervision_spec)
        self.replicas = self.supervisor.spawn({
            f"{name}-replica-{i}": self._replica_factory(i)
            for i in range(num_replicas)
        }, on_restart=self._sync_restarted_replica)
        # Monotonic replica index: autoscaled replicas get fresh slot
        # names even after earlier ones were retired.
        self._next_replica_index = num_replicas
        self.autoscale = resolve_autoscale_spec(autoscale_spec)
        self.autoscaler = (QueueDepthAutoscaler(self.autoscale)
                           if self.autoscale is not None else None)
        self._inflight: set = set()
        self._inflight_lock = threading.Lock()
        self._inflight_drained = threading.Event()
        self._inflight_drained.set()
        # Rows routed but not yet resolved.  The autoscaling signal
        # is mailbox depth PLUS this: the collector routes batches
        # without blocking, so under overload the backlog sits in
        # replica mailboxes, not ours.
        self._inflight_requests = 0
        super().__init__(space_from_spec(state_space),
                         max_batch_size=max_batch_size,
                         batch_window=batch_window, name=name,
                         auto_start=auto_start,
                         admission_spec=admission_spec,
                         default_deadline=default_deadline,
                         # The collector must wake on silence so the
                         # autoscaler can shrink an idle pool.
                         tick=(self.autoscale.tick_interval
                               if self.autoscale is not None else None))

    def _replica_factory(self, index: int) -> ReplicaFactory:
        return ReplicaFactory(self.parallel, PolicyServerActor,
                              self._agent_factory, self._explore, index)

    # -- batching hooks ------------------------------------------------------
    def _warm_up(self) -> None:
        """Warm every replica's compiled plan per batch bucket."""
        sizes = bucket_sizes(self.max_batch_size)
        raylite.get([r.warm_up.remote(sizes) for r in self.replicas])

    def _sync_restarted_replica(self, handle) -> List:
        """Bring a fresh replica up to serving parity: warm its compiled
        act plans and push the current weight version (both ride the
        mailbox ahead of any batch routed to it); returns the refs."""
        refs = [handle.warm_up.remote(bucket_sizes(self.max_batch_size))]
        if self._current_weights is not None:
            refs.append(handle.set_weights.remote(self._current_weights))
        return refs

    def _live_replicas(self) -> List:
        """Replicas eligible for routing: dead ones are EXCLUDED so no
        batch is ever handed to a crashed replica.  With supervision on,
        the collector thread restarts them here (bounded backoff) —
        requests queue during the restart and none are dropped."""
        live = [h for h in self.replicas if h.is_alive()]
        if len(live) < len(self.replicas):
            self.supervisor.probe()
            live = [h for h in self.replicas if h.is_alive()]
        return live

    # -- autoscaling ---------------------------------------------------------
    def outstanding(self) -> int:
        """Rows somewhere inside the pool: queued in the mailbox or
        routed to a replica and awaiting its result.  This — not bare
        mailbox depth — is the overload signal the autoscaler watches:
        the collector routes without blocking, so a saturated pool shows
        up as in-flight backlog, not as mailbox depth."""
        with self._inflight_lock:
            inflight = self._inflight_requests
        return self.queue_depth() + inflight

    def _maybe_autoscale(self) -> None:
        """Evaluate the queue-depth controller between batches (and on
        idle ticks).  Runs on the collector thread, so replica-list
        mutation never races dispatch."""
        if self.autoscaler is None or self._stopped.is_set():
            return
        decision = self.autoscaler.decide(self.outstanding(),
                                          len(self.replicas))
        if decision > 0:
            self._scale_up()
        elif decision < 0:
            self._scale_down()

    def _scale_up(self) -> None:
        """Add one replica, fully warmed, at the current weight version.

        The new replica only joins the routing set once its compiled
        act plans are primed and the current flat weights applied —
        scale events must preserve bitwise action parity, so a cold or
        stale replica never sees a batch.
        """
        index = self._next_replica_index
        self._next_replica_index += 1
        factory = self._replica_factory(index)
        try:
            handle = factory()
            raylite.get(self._sync_restarted_replica(handle), timeout=60.0)
        except Exception as exc:
            # A failed grow is a missed opportunity, not an outage:
            # existing replicas keep serving; the controller's cooldown
            # already spaces out the next attempt.
            import sys
            print(f"{self.name}: scale-up failed, staying at "
                  f"{len(self.replicas)} replicas: {exc}", file=sys.stderr)
            return
        self.replicas.append(self.supervisor.register(
            f"{self.name}-replica-{index}", handle, factory,
            on_restart=self._sync_restarted_replica))

    def _scale_down(self) -> None:
        """Retire one idle replica (newest first).

        Only a replica with an empty mailbox (``num_pending() == 0``)
        is eligible — since this runs on the collector thread, nothing
        can route to it concurrently, so the kill drops zero requests.
        A busy pool simply defers the shrink to a later tick.
        """
        for handle in reversed(self.replicas):
            try:
                if handle.num_pending() != 0:
                    continue
            except Exception:
                continue
            self.replicas.remove(handle)
            # Retires the slot BEFORE the kill: a slot still supervised
            # would be resurrected by the next probe.
            self.supervisor.kill(handle)
            return

    def _on_idle_tick(self) -> None:
        self._maybe_autoscale()

    def _dispatch(self, requests: List[_Request]) -> None:
        """Route to the least-loaded LIVE replica; scatter on completion.

        Non-blocking: the completion callback (running on the replica's
        result path) distributes actions, so the collector immediately
        returns to assembling the next batch for the next replica.
        """
        self._maybe_autoscale()
        obs = self._stack(requests)
        for req in requests:
            req.attempts += 1
        try:
            live = self._live_replicas()
            if not live:
                raise RLGraphError(
                    f"{self.name}: no live replicas to dispatch to")
            replica = min(live, key=lambda h: h.num_pending())
            ref = replica.act_batch.remote(obs)
        except Exception as exc:
            # A replica lost at submit time is the same event as one
            # lost at result time.
            self._handle_failed_batch(requests, exc)
            return
        with self._inflight_lock:
            self._inflight.add(ref.id)
            self._inflight_requests += num_rows(requests)
            self._inflight_drained.clear()
        ref.add_done_callback(
            functools.partial(self._on_batch_done, requests))

    def _on_batch_done(self, requests: List[_Request],
                       ref: raylite.ObjectRef) -> None:
        with self._inflight_lock:
            self._inflight.discard(ref.id)
            self._inflight_requests -= num_rows(requests)
            if not self._inflight:
                self._inflight_drained.set()
        try:
            actions = ref.result(timeout=0)
        except Exception as exc:
            self._handle_failed_batch(requests, exc)
            return
        self._scatter(requests, actions)

    def _handle_failed_batch(self, requests: List[_Request],
                             exc: Exception) -> None:
        """A batch was lost with its replica.  Supervised pools re-queue
        the requests, blocks whole (the collector routes them to a live
        replica — zero rows dropped by a crash); a request out of
        attempts resolves with a typed ``replica_lost`` overload error
        (503 + retry-after at the gateway).  Unsupervised pools keep the
        seed behavior and fail them with the raw error."""
        if not self.supervisor.spec.enabled or self._stopped.is_set():
            self.stats.record_error(num_rows(requests))
            for req in requests:
                req.ref._fail(exc)
            return
        for req in requests:
            if req.attempts < _MAX_DISPATCH_ATTEMPTS:
                # No record_submit: the request was already counted.
                # It does count as a retry (and re-enters the queue
                # depth) — the metrics must show crash-induced
                # re-dispatches.
                self.stats.record_retry(req.rows)
                self._depth_add(req.rows)
                self._mailbox.put(req)
            else:
                self.stats.record_error(req.rows)
                lost = OverloadError(
                    f"{self.name}: request lost its replica "
                    f"{req.attempts} times: {exc!r}",
                    queue_depth=self.queue_depth(),
                    retry_after=self.admission.retry_after,
                    reason="replica_lost")
                lost.__cause__ = exc
                req.ref._fail(lost)

    def _apply_weights(self, weights) -> None:
        """Broadcast the swap to every replica (FIFO per actor mailbox
        makes it batch-atomic on each); blocks until all confirmed so
        the returned future means 'the whole pool serves new weights'.
        A replica that dies mid-swap is restarted by supervision and
        receives the new version through the restart hook instead."""
        self._current_weights = weights
        gather(self.replicas, "set_weights", weights, timeout=30.0)

    # -- lifecycle ------------------------------------------------------------
    def stop(self, kill_replicas: bool = True) -> None:
        super().stop()
        # The collector has drained; wait for batches already dispatched
        # to replicas, so every accepted request is answered before the
        # replicas are reaped (the front end's drain-and-stop contract).
        self._inflight_drained.wait(timeout=30.0)
        if kill_replicas:
            for replica in self.replicas:
                self.supervisor.kill(replica)
            self.replicas = []

    def replica_stats(self) -> List[dict]:
        return gather(list(self.replicas), "get_stats")

    def metrics_snapshot(self) -> dict:
        """The front-end snapshot plus pool-level state: replica count,
        per-replica served counters, autoscale event log."""
        snap = super().metrics_snapshot()
        snap["replicas"] = len(self.replicas)
        snap["outstanding"] = self.outstanding()
        try:
            snap["replica_stats"] = self.replica_stats()
        except Exception:
            snap["replica_stats"] = []
        if self.autoscaler is not None:
            snap["autoscale"] = {
                "min_replicas": self.autoscale.min_replicas,
                "max_replicas": self.autoscale.max_replicas,
                "events": list(self.autoscaler.events),
            }
        snap["restarts"] = self.supervisor.total_restarts
        return snap

    def __repr__(self):
        return (f"InferenceWorkerPool(replicas={len(self.replicas)}, "
                f"backend={self.parallel.backend!r}, "
                f"max_batch={self.max_batch_size})")
