"""Actor supervision: liveness probes + bounded-backoff restarts.

raylite can *kill* workers but (before this module) nothing restarted
them — a crashed Ape-X/IMPALA actor or serving replica simply
disappeared and the run died with a descriptive error.  The
:class:`Supervisor` closes that gap:

* every supervised slot pairs a live actor handle with a **picklable
  replica factory** (:class:`ReplicaFactory`) — the exact construction
  recipe (class + args + raylite backend) that built the original, so a
  restart is a fresh actor with the same configuration;
* liveness is the raylite mailbox signal (``handle.is_alive()``, thread
  and process backends alike) — a SIGKILLed process actor flips it
  immediately, before its reader thread even sees the pipe EOF;
* restarts back off exponentially (``base_delay * factor**attempt``,
  capped at ``max_delay``), **jitterless** so a seeded clock reproduces
  the exact restart timeline, and are bounded: after ``max_restarts``
  failed resurrections of one slot the supervisor gives up with a typed
  :class:`SupervisionError` listing the full restart history;
* each restart runs the slot's ``on_restart`` hook — executors use it to
  re-push the current flat weight vector so a rejoined actor resumes at
  the current version instead of its factory-fresh init.

Callers never hold a raw incarnation of a supervised actor.
:meth:`Supervisor.spawn` hands out :class:`SlotHandle` objects — the
handle surface (``.method.remote(...)``, ``is_alive()``, ``pid``,
``num_pending()``) addressed at the slot's *current* incarnation — and a
submit to a dead incarnation restarts the slot, runs the hook and
re-submits.  What a coordination loop does when a *result* is lost is
written once here too: :class:`Pump` (one task per arm, any number
per slot; a task lost with its incarnation is re-armed on the
replacement), :func:`broadcast` / :func:`gather` (a slot that dies is
skipped — its restart hook re-syncs it) and :meth:`Supervisor.retrying`
(re-run a whole round).  With supervision off ``spawn`` returns the raw
raylite handles, and the same call shapes re-raise the original
exception.

The supervisor never polls on its own thread; recovery happens on the
loop that owns the actors, at its next submit or
:meth:`Supervisor.probe`.  Only :class:`Exception` is treated as a lost
task: ``KeyboardInterrupt`` / ``SystemExit`` pass through untouched.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import raylite
from repro.utils.errors import RLGraphError


class SupervisionError(RLGraphError):
    """A supervised actor exhausted its restart budget.

    Carries the slot ``name`` and the full restart ``history`` (a list
    of :class:`RestartEvent`) so post-mortems see every resurrection
    attempt, not just the last failure.
    """

    def __init__(self, name: str, history: List["RestartEvent"],
                 reason: str = "restart budget exhausted"):
        self.actor_name = name
        self.history = list(history)
        lines = "\n".join(f"  {event}" for event in self.history) or "  (none)"
        super().__init__(
            f"Supervised actor {name!r}: {reason} "
            f"after {len(self.history)} restart(s); history:\n{lines}")


class RestartEvent:
    """One restart of one supervised slot (for history/assertions)."""

    __slots__ = ("name", "attempt", "delay", "at", "reason")

    def __init__(self, name: str, attempt: int, delay: float, at: float,
                 reason: str = "dead"):
        self.name = name
        self.attempt = attempt
        self.delay = delay
        self.at = at
        self.reason = reason

    def __repr__(self):
        return (f"RestartEvent({self.name!r}, attempt={self.attempt}, "
                f"delay={self.delay:.3f}s, at={self.at:.3f}, "
                f"reason={self.reason!r})")


class BackoffPolicy:
    """Bounded, jitterless exponential backoff.

    ``delay(attempt) = min(base_delay * factor**attempt, max_delay)``
    for ``attempt`` in ``[0, max_restarts)``.  Deterministic by design:
    chaos tests and seeded-clock property tests must reproduce the exact
    restart timeline, so there is no jitter knob.
    """

    def __init__(self, base_delay: float = 0.1, factor: float = 2.0,
                 max_delay: float = 5.0, max_restarts: int = 5):
        if base_delay < 0:
            raise RLGraphError("base_delay must be >= 0")
        if factor < 1.0:
            raise RLGraphError("factor must be >= 1")
        if max_delay < base_delay:
            raise RLGraphError("max_delay must be >= base_delay")
        if max_restarts < 0:
            raise RLGraphError("max_restarts must be >= 0")
        self.base_delay = float(base_delay)
        self.factor = float(factor)
        self.max_delay = float(max_delay)
        self.max_restarts = int(max_restarts)

    def delay(self, attempt: int) -> float:
        """Backoff before restart number ``attempt`` (0-based)."""
        if attempt < 0:
            raise RLGraphError("attempt must be >= 0")
        return min(self.base_delay * self.factor ** attempt, self.max_delay)

    def delays(self) -> List[float]:
        """The whole (bounded) delay schedule."""
        return [self.delay(i) for i in range(self.max_restarts)]

    def __repr__(self):
        return (f"BackoffPolicy(base_delay={self.base_delay}, "
                f"factor={self.factor}, max_delay={self.max_delay}, "
                f"max_restarts={self.max_restarts})")


class SupervisionSpec:
    """Resolved supervision configuration (one per executor)."""

    def __init__(self, enabled: bool = True,
                 backoff: Optional[BackoffPolicy] = None,
                 probe_interval: float = 0.05,
                 reset_after: float = 60.0):
        self.enabled = bool(enabled)
        self.backoff = backoff or BackoffPolicy()
        if probe_interval <= 0:
            raise RLGraphError("probe_interval must be > 0")
        if reset_after < 0:
            raise RLGraphError("reset_after must be >= 0")
        self.probe_interval = float(probe_interval)
        # A slot healthy this long earns its attempt counter back —
        # transient crash storms stay bounded, but one crash per hour
        # does not eventually exhaust the budget of a long run.
        self.reset_after = float(reset_after)

    def __repr__(self):
        return (f"SupervisionSpec(enabled={self.enabled}, "
                f"backoff={self.backoff!r}, "
                f"probe_interval={self.probe_interval}, "
                f"reset_after={self.reset_after})")


_SPEC_KEYS = {"enabled", "probe_interval", "reset_after", "base_delay",
              "factor", "max_delay", "max_restarts"}


def resolve_supervision_spec(spec) -> SupervisionSpec:
    """Resolve an executor's ``supervision_spec`` value.

    ``None``/``False`` — disabled (the seed behavior: a crashed actor
    raises a descriptive error and the run dies).  ``True``/``"on"`` —
    defaults.  A dict may set any of ``enabled``, ``probe_interval``,
    ``reset_after`` plus the :class:`BackoffPolicy` knobs
    (``base_delay``, ``factor``, ``max_delay``, ``max_restarts``).
    A :class:`SupervisionSpec` passes through.
    """
    if isinstance(spec, SupervisionSpec):
        return spec
    if spec is None or spec is False:
        return SupervisionSpec(enabled=False)
    if spec is True or spec == "on":
        return SupervisionSpec(enabled=True)
    if isinstance(spec, dict):
        unknown = set(spec) - _SPEC_KEYS
        if unknown:
            raise RLGraphError(
                f"Unknown supervision_spec keys {sorted(unknown)}; "
                f"expected a subset of {sorted(_SPEC_KEYS)}")
        backoff = BackoffPolicy(
            base_delay=spec.get("base_delay", 0.1),
            factor=spec.get("factor", 2.0),
            max_delay=spec.get("max_delay", 5.0),
            max_restarts=spec.get("max_restarts", 5))
        return SupervisionSpec(
            enabled=spec.get("enabled", True), backoff=backoff,
            probe_interval=spec.get("probe_interval", 0.05),
            reset_after=spec.get("reset_after", 60.0))
    raise RLGraphError(
        f"supervision_spec must be None, bool, 'on', dict or "
        f"SupervisionSpec, got {type(spec).__name__}")


class ReplicaFactory:
    """Picklable recipe for (re)creating one actor replica.

    Captures the actor class, its construction arguments and the
    :class:`~repro.execution.parallel.ParallelSpec` backend selection —
    everything a restart needs.  Picklability matters because process
    actors ship their construction arguments to a fresh worker process
    on every (re)start; a closure over live handles would not survive
    the trip.
    """

    def __init__(self, parallel, cls: type, *args, **kwargs):
        self.parallel = parallel
        self.cls = cls
        self.args = args
        self.kwargs = kwargs

    def __call__(self):
        return self.parallel.actor_factory(self.cls).remote(
            *self.args, **self.kwargs)

    def __repr__(self):
        return (f"ReplicaFactory({self.cls.__name__}, "
                f"backend={self.parallel.backend!r})")


class _Slot:
    """One supervised actor slot: current handle + restart bookkeeping."""

    __slots__ = ("name", "handle", "factory", "on_restart", "attempts",
                 "last_restart_at", "history")

    def __init__(self, name, handle, factory, on_restart):
        self.name = name
        self.handle = handle
        self.factory = factory
        self.on_restart = on_restart
        self.attempts = 0
        self.last_restart_at: Optional[float] = None
        self.history: List[RestartEvent] = []


class SlotHandle:
    """The stable address of one supervised slot.

    Quacks like a raylite actor handle but always reaches the slot's
    *current* incarnation: ``handle.method.remote(...)`` on a dead actor
    restarts it (bounded backoff, ``on_restart`` hook) and submits to
    the replacement, so no caller ever swaps handles after a crash.
    """

    __slots__ = ("_supervisor", "_slot")

    def __init__(self, supervisor: "Supervisor", slot: _Slot):
        self._supervisor = supervisor
        self._slot = slot

    def is_alive(self) -> bool:
        return self._slot.handle.is_alive()

    @property
    def pid(self):
        return self._slot.handle.pid

    def num_pending(self) -> int:
        return self._slot.handle.num_pending()

    def __getattr__(self, name: str) -> "_SlotMethod":
        if name.startswith("_"):
            raise AttributeError(name)
        return _SlotMethod(self, name)

    def __repr__(self):
        return f"<SlotHandle {self._slot.name} -> {self._slot.handle!r}>"


class _SlotMethod:
    """Bound ``.remote()`` callable for one method of a slot."""

    __slots__ = ("_handle", "_name")

    def __init__(self, handle: SlotHandle, name: str):
        self._handle = handle
        self._name = name

    def remote(self, *args, **kwargs):
        return self._handle._supervisor._submit(
            self._handle._slot, self._name, args, kwargs)


class Supervisor:
    """Restarts crashed actors with bounded exponential backoff.

    ``spec`` is any ``supervision_spec`` value
    (:func:`resolve_supervision_spec`).  A disabled supervisor
    supervises nothing: :meth:`spawn` returns raw handles and every
    recovery entry point is a no-op, so consumers hold one code path.

    Thread-safe: executor loops, raylite reader-thread death callbacks
    and serving monitor threads may all drive recovery concurrently; a
    per-supervisor lock serializes restarts so one death produces one
    replacement.  ``clock``/``sleep`` are injectable for deterministic
    property tests.
    """

    def __init__(self, spec=True,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.spec = resolve_supervision_spec(spec)
        self._clock = clock
        self._sleep = sleep
        self._slots: Dict[str, _Slot] = {}
        # Restart events of slots since retired (autoscaler
        # scale-downs): total_restarts must not forget them.
        self._retired_history: List[RestartEvent] = []
        self._lock = threading.RLock()

    # -- registration -------------------------------------------------------
    def spawn(self, factories: Dict[str, Callable[[], object]],
              on_restart: Optional[Callable[[object], None]] = None
              ) -> List[object]:
        """Build one actor per ``{slot name: factory}`` entry and
        :meth:`register` it; returns the handles to call through."""
        return [self.register(name, factory(), factory, on_restart)
                for name, factory in factories.items()]

    def register(self, name: str, handle, factory: Callable[[], object],
                 on_restart: Optional[Callable[[object], None]] = None):
        """Supervise ``handle``; ``factory()`` builds its replacement.

        Returns the slot's :class:`SlotHandle` — or ``handle`` itself
        when supervision is disabled.  ``on_restart(new_handle)`` runs
        after every successful restart, before any re-submitted task,
        with the *raw* replacement — executors re-push the current flat
        weight vector here so the rejoined actor resumes at the current
        version.
        """
        if not self.spec.enabled:
            return handle
        with self._lock:
            if name in self._slots:
                raise RLGraphError(f"Slot {name!r} already supervised")
            slot = self._slots[name] = _Slot(name, handle, factory,
                                             on_restart)
        return SlotHandle(self, slot)

    def retire(self, handle):
        """Stop supervising ``handle``'s slot; returns its current raw
        incarnation (a raw handle passes through).

        The serving autoscaler scales a pool *down* by retiring one
        replica: the slot must leave supervision first, or the next
        probe would resurrect the deliberately-removed actor.  The
        slot's restart history is retained (``total_restarts`` never
        forgets); draining/killing the returned handle is the caller's
        job (:meth:`kill` does both).
        """
        if not isinstance(handle, SlotHandle):
            return handle
        slot = handle._slot
        with self._lock:
            if self._slots.pop(slot.name, None) is slot:
                self._retired_history.extend(slot.history)
        return slot.handle

    def kill(self, handle) -> None:
        """Deliberately remove an actor: :meth:`retire` its slot first
        (so no probe resurrects it), then kill the incarnation —
        best-effort, it may be dead already."""
        self._reap(self.retire(handle))

    def names(self) -> List[str]:
        with self._lock:
            return list(self._slots)

    def handle(self, name: str):
        """The slot's *current* raw handle (post-restart incarnations
        move)."""
        with self._lock:
            return self._slots[name].handle

    def handles(self) -> List[object]:
        with self._lock:
            return [slot.handle for slot in self._slots.values()]

    @property
    def restart_history(self) -> List[RestartEvent]:
        """All restarts across all slots (including since-retired
        ones), in restart order."""
        with self._lock:
            events = [e for slot in self._slots.values()
                      for e in slot.history] + list(self._retired_history)
        return sorted(events, key=lambda e: e.at)

    @property
    def total_restarts(self) -> int:
        return len(self.restart_history)

    # -- recovery -----------------------------------------------------------
    def ensure_alive(self, name: str):
        """Return a live raw handle for slot ``name``.

        If the slot's current incarnation is alive (including a
        replacement another thread already made), return it without
        restarting anything; otherwise restart with backoff.  Raises
        :class:`SupervisionError` once the slot's budget is exhausted
        and :class:`KeyError` for unknown slots.
        """
        with self._lock:
            return self._ensure_slot(self._slots[name])

    def probe(self) -> List[str]:
        """Liveness-probe every slot; restart the dead ones.

        Returns the names of slots restarted by THIS call.  Cheap when
        everyone is alive (one ``is_alive()`` per slot), so executor
        loops call it every iteration.
        """
        restarted = []
        with self._lock:
            for slot in list(self._slots.values()):
                before = slot.handle
                self._ensure_slot(slot)
                if slot.handle is not before:
                    restarted.append(slot.name)
        return restarted

    def retrying(self, round_fn: Callable[[], object]):
        """Run ``round_fn()``; when it fails, restart the dead slots and
        run the whole round again — at most ``max_restarts`` re-runs
        (:class:`SupervisionError` propagates as soon as one slot's own
        budget is spent).  With nothing supervised the original
        exception propagates from the first failure."""
        reruns = 0
        while True:
            try:
                return round_fn()
            except Exception:
                if not self._slots or reruns >= self.spec.backoff.max_restarts:
                    raise
                reruns += 1
                self.probe()

    def _submit(self, slot: _Slot, method: str, args, kwargs):
        """``SlotHandle.method.remote``: submit to the slot's current
        incarnation, restarting it first (and again, if the submit
        itself finds it dead) until the task is queued on a live actor
        or the slot's budget is spent.  A retired slot is never
        resurrected: its last incarnation answers, or raises."""
        while True:
            with self._lock:
                retired = self._slots.get(slot.name) is not slot
                handle = slot.handle if retired else self._ensure_slot(slot)
            try:
                return getattr(handle, method).remote(*args, **kwargs)
            except Exception:
                if retired or handle.is_alive():
                    raise  # not a death to heal (e.g. no such method)

    def _ensure_slot(self, slot: _Slot):
        if slot.handle.is_alive():
            # Healthy long enough? The slot earns its budget back.
            if (slot.attempts and slot.last_restart_at is not None
                    and self._clock() - slot.last_restart_at
                    >= self.spec.reset_after):
                slot.attempts = 0
            return slot.handle
        return self._restart(slot)

    def _restart(self, slot: _Slot):
        backoff = self.spec.backoff
        while True:
            if slot.attempts >= backoff.max_restarts:
                raise SupervisionError(slot.name, slot.history)
            attempt = slot.attempts
            delay = backoff.delay(attempt)
            slot.attempts += 1
            if delay:
                self._sleep(delay)
            self._reap(slot.handle)
            now = self._clock()
            event = RestartEvent(slot.name, attempt, delay, now)
            try:
                new_handle = slot.factory()
            except Exception as exc:
                event.reason = f"factory failed: {exc!r}"
                slot.history.append(event)
                continue  # next attempt (or budget exhaustion above)
            slot.history.append(event)
            if not new_handle.is_alive():
                # Constructed but already dead (e.g. crash-on-init):
                # burns an attempt like any other failed resurrection.
                event.reason = "replacement dead on arrival"
                self._reap(new_handle)
                continue
            slot.handle = new_handle
            slot.last_restart_at = now
            if slot.on_restart is not None:
                try:
                    slot.on_restart(new_handle)
                except Exception as exc:
                    # A rejoin hook failing (e.g. the fresh actor died
                    # again mid-push) is the next death, not a crash of
                    # the supervisor: retry within the same budget.
                    event.reason = f"on_restart failed: {exc!r}"
                    continue
            return new_handle

    @staticmethod
    def _reap(handle) -> None:
        """Clean up the dead incarnation (fail its pending refs, drop it
        from the raylite registry).  Best-effort — it is already dead."""
        try:
            raylite.kill(handle)
        except Exception:
            pass


# -- the call shapes of a coordination loop (any mix of slot/raw handles) ----
class Pump:
    """Keeps one task in flight per arm.

    ``arm`` submits one task (arm a handle twice to keep two in its
    mailbox); ``reap`` yields the ``(handle, result)`` pairs that
    completed.  A task lost with its incarnation is re-armed on the
    slot's replacement (the first re-armed submit restarts it, the
    others find it alive), so after any recovery every slot still has
    as many tasks in flight as it had armed.
    """

    def __init__(self):
        self._tasks: Dict[raylite.ObjectRef, Tuple] = {}

    def __len__(self) -> int:
        return len(self._tasks)

    def arm(self, handle, method: str, *args) -> None:
        ref = getattr(handle, method).remote(*args)
        self._tasks[ref] = (handle, method, args)

    def reap(self, timeout: Optional[float]) -> Iterator[Tuple]:
        """Wait up to ``timeout`` for one armed task, then yield every
        completed ``(handle, result)``.  An unrecoverable loss (raw
        handle, or a spent restart budget) raises with that task
        disarmed; tasks not yet yielded stay armed for the next call."""
        if not self._tasks:
            return
        ready, _ = raylite.wait(list(self._tasks), num_returns=1,
                                timeout=timeout)
        for ref in ready:
            handle, method, args = self._tasks.pop(ref)
            try:
                result = ref.result()
            except Exception:
                if not isinstance(handle, SlotHandle):
                    raise
                self.arm(handle, method, *args)
                continue
            yield handle, result

    def drain(self, timeout: float) -> Iterator[Tuple]:
        """:meth:`reap` until nothing is armed — tasks armed while
        draining included — or ``timeout`` seconds have passed."""
        deadline = time.monotonic() + timeout
        while self._tasks:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            yield from self.reap(remaining)


def broadcast(handles, method: str, *args) -> List[Tuple]:
    """Submit ``method(*args)`` to every handle without waiting;
    returns ``(handle, ref)`` pairs.  A slot found dead is restarted
    (its hook re-syncs it) before the submit."""
    return [(handle, getattr(handle, method).remote(*args))
            for handle in handles]


def gather(handles, method: str, *args,
           timeout: Optional[float] = None) -> List[object]:
    """:func:`broadcast`, then collect the results that arrive.  A slot
    that dies (or times out) before answering is skipped — its next
    submit or probe restarts it and the restart hook re-syncs it."""
    results = []
    for handle, ref in broadcast(handles, method, *args):
        try:
            results.append(ref.result(timeout))
        except Exception:
            if not isinstance(handle, SlotHandle):
                raise
    return results
