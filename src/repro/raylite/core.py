"""raylite core: actors, futures, object store.

Semantics follow Ray where it matters for the executors:

* ``remote(Cls)`` returns a factory; ``factory.remote(*args)`` constructs
  the actor in its own worker and returns an :class:`ActorHandle`;
* ``handle.method.remote(*args)`` enqueues a task and returns an
  :class:`ObjectRef` immediately; tasks of one actor run in FIFO order;
* ``get(ref)`` blocks; ``wait(refs, num_returns)`` splits ready/pending —
  both are event-driven (ObjectRef completion callbacks), never polling;
* :class:`ObjectRef` arguments to ``.remote()`` calls are resolved to
  their values at submission time (Ray's by-value task-argument rule),
  which is also what carries object-store values across the process
  boundary;
* exceptions raised in actor methods surface at ``get`` time;
* an optional serialization round-trip (``init(serialize=True)``) models
  Ray's object-store copy costs for transfer-sensitive benchmarks.

Two execution backends share this surface:

* ``backend="thread"`` (default) — one Python thread per actor.  NumPy
  code that releases the GIL runs in parallel; pure-Python actor code
  serializes.
* ``backend="process"`` — one ``multiprocessing`` worker per actor with
  a shared-memory data path (:mod:`repro.raylite.process_backend`).
  Pure-Python/CPU-bound actors scale with cores.

Select globally via ``init(backend=...)`` or per-actor via
``remote(Cls).options(backend="process")``.  ``shutdown()`` reaps every
worker (thread or process) and fails still-pending refs with a clear
:class:`RayliteError` so no caller is left hanging.
"""

from __future__ import annotations

import atexit
import itertools
import pickle
import queue
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.utils.errors import RLGraphError


class RayliteError(RLGraphError):
    """Raised for framework-level failures (not actor exceptions)."""


_BACKENDS = ("thread", "process")


class _Config:
    serialize = False
    initialized = True
    backend = "thread"
    start_method: Optional[str] = None


_config = _Config()
_actors: List[Any] = []
_actors_lock = threading.Lock()


def init(serialize: bool = False, backend: Optional[str] = None,
         start_method: Optional[str] = None) -> None:
    """Configure the runtime (optional; defaults are live).

    ``backend`` sets the default actor backend (``"thread"`` or
    ``"process"``); ``None`` leaves the current default untouched.
    ``start_method`` picks the multiprocessing start method for process
    actors (default: fork where available, else spawn).
    """
    _config.serialize = serialize
    if backend is not None:
        if backend not in _BACKENDS:
            raise RayliteError(
                f"Unknown backend {backend!r}; expected one of {_BACKENDS}")
        _config.backend = backend
    if start_method is not None:
        _config.start_method = start_method
    _config.initialized = True


def register_actor(handle) -> None:
    with _actors_lock:
        _actors.append(handle)


def shutdown() -> None:
    """Reap all actor workers (threads and processes).

    Queued-but-unfinished tasks fail with :class:`RayliteError`; callers
    blocked in ``get``/``wait`` on those refs wake up immediately
    instead of hanging.  Registered via ``atexit`` so stray
    non-daemonic actor processes cannot wedge interpreter exit.
    """
    with _actors_lock:
        actors = list(_actors)
        _actors.clear()
    for actor in actors:
        actor._stop()


atexit.register(shutdown)


def kill(handle) -> None:
    """Stop one actor (Ray's ``ray.kill``); pending tasks fail."""
    with _actors_lock:
        try:
            _actors.remove(handle)
        except ValueError:
            pass
    handle._stop()


def _maybe_copy(value):
    if _config.serialize:
        return pickle.loads(pickle.dumps(value))
    return value


class ObjectRef:
    """A future for a task result (or a ``put`` value).

    Completion is event-based: waiters either block on the internal
    event (:meth:`result`) or register callbacks
    (:meth:`add_done_callback`, used by :func:`wait`) — there is no
    polling loop anywhere in the runtime.
    """

    _ids = itertools.count()

    def __init__(self):
        self.id = next(ObjectRef._ids)
        self._event = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None
        self._lock = threading.Lock()
        self._callbacks: List[Callable[["ObjectRef"], None]] = []

    def _settle(self, value, error: Optional[BaseException]) -> bool:
        """Settle once; True when this call won (e.g. a shutdown race)."""
        with self._lock:
            if self._event.is_set():
                return False
            self._value = value
            self._error = error
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for callback in callbacks:
            callback(self)
        return True

    def _resolve(self, value) -> bool:
        return self._settle(value, None)

    def _fail(self, error: BaseException) -> bool:
        return self._settle(None, error)

    def add_done_callback(self, callback: Callable[["ObjectRef"], None]):
        """Run ``callback(self)`` on completion (immediately if done)."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def remove_done_callback(self, callback) -> None:
        """Detach a pending callback (no-op if already fired/absent)."""
        with self._lock:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

    def ready(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        if not self._event.wait(timeout):
            raise RayliteError(f"get() timed out after {timeout}s")
        if self._error is not None:
            raise self._error
        return _maybe_copy(self._value)

    def __repr__(self):
        state = "ready" if self.ready() else "pending"
        return f"<ObjectRef #{self.id} {state}>"


def put(value) -> ObjectRef:
    """Store a value in the object store (returns a resolved ref)."""
    ref = ObjectRef()
    ref._resolve(_maybe_copy(value))
    return ref


def get(refs, timeout: Optional[float] = None):
    """Resolve a ref or a list of refs (blocking)."""
    if isinstance(refs, ObjectRef):
        return refs.result(timeout)
    return [r.result(timeout) for r in refs]


def wait(refs: Sequence[ObjectRef], num_returns: int = 1,
         timeout: Optional[float] = None) -> Tuple[List[ObjectRef], List[ObjectRef]]:
    """Block until ``num_returns`` refs are ready (or timeout).

    Returns (ready, pending) preserving input order within each list.
    Event-based: completion callbacks trip one shared event, so waiting
    costs no CPU regardless of how long the tasks run.
    """
    if num_returns > len(refs):
        raise RayliteError(
            f"num_returns {num_returns} > number of refs {len(refs)}")
    target = threading.Event()
    unique = {r.id: r for r in refs}
    _on_done = None
    if num_returns <= 0:
        target.set()
    else:
        # A ref listed twice counts twice toward num_returns (it will
        # appear twice in the ready list), but registers one callback.
        multiplicity: Dict[int, int] = {}
        for ref in refs:
            multiplicity[ref.id] = multiplicity.get(ref.id, 0) + 1
        state = {"remaining": num_returns}
        state_lock = threading.Lock()

        def _on_done(ref: ObjectRef) -> None:
            with state_lock:
                state["remaining"] -= multiplicity[ref.id]
                if state["remaining"] > 0:
                    return
            target.set()

        for ref in unique.values():
            ref.add_done_callback(_on_done)
    target.wait(timeout)
    if _on_done is not None:
        # Detach from still-pending refs: polling callers (executors
        # re-waiting every few ms) must not accumulate dead closures.
        for ref in unique.values():
            ref.remove_done_callback(_on_done)
    ready = [r for r in refs if r.ready()]
    ready_ids = {r.id for r in ready}
    return ready, [r for r in refs if r.id not in ready_ids]


def _resolve_ref_args(args, kwargs):
    """Ray's by-value rule: ObjectRef task arguments resolve to values
    before the task ships (this is what carries object-store entries
    across the process boundary)."""
    def _res(value):
        return value.result() if isinstance(value, ObjectRef) else value

    return (tuple(_res(a) for a in args),
            {k: _res(v) for k, v in kwargs.items()})


class _Task:
    __slots__ = ("method_name", "args", "kwargs", "ref")

    def __init__(self, method_name, args, kwargs, ref):
        self.method_name = method_name
        self.args = args
        self.kwargs = kwargs
        self.ref = ref


class _RemoteMethod:
    """Bound ``.remote()`` callable for one actor method."""

    def __init__(self, handle, name: str):
        self._handle = handle
        self._name = name

    def remote(self, *args, **kwargs) -> ObjectRef:
        args, kwargs = _resolve_ref_args(args, kwargs)
        return self._handle._submit(self._name, args, kwargs)

    def __call__(self, *args, **kwargs):
        raise RayliteError(
            f"Actor methods must be called with .remote(): {self._name}")


class ActorHandle:
    """A handle to an actor running in its own thread."""

    def __init__(self, cls: type, args, kwargs, name: str = ""):
        self._cls = cls
        self._name = name or f"{cls.__name__}-{id(self) & 0xFFFF:x}"
        self._mailbox: "queue.Queue[Optional[_Task]]" = queue.Queue()
        self._instance = None
        self._init_error: Optional[BaseException] = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._pending: Dict[int, ObjectRef] = {}
        self._pending_lock = threading.Lock()
        self._death_callbacks: List[Callable[["ActorHandle"], None]] = []
        self._death_notified = False
        self._death_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._run, args=(args, kwargs), daemon=True,
            name=f"raylite-{self._name}")
        self._thread.start()
        self._started.wait()
        if self._init_error is not None:
            raise self._init_error
        register_actor(self)

    # -- liveness -----------------------------------------------------------
    def is_alive(self) -> bool:
        """Liveness probe: the actor loop is still serving its mailbox.

        Supervisors (:mod:`repro.execution.supervision`) poll this; a
        deliberately stopped actor counts as dead too — the supervisor
        only restarts actors it owns, so the distinction lives in the
        crash flag carried by death callbacks, not here.
        """
        return not self._stopped.is_set() and self._thread.is_alive()

    def add_death_callback(
            self, callback: Callable[["ActorHandle"], None]) -> None:
        """Run ``callback(handle)`` once if the actor dies *unexpectedly*
        (its worker vanishing without :func:`kill`/:func:`shutdown`).
        Thread actors only die with the interpreter, so for this backend
        the callback is registered for surface parity and fires only if
        the actor thread is found dead while not stopped."""
        fire = False
        with self._death_lock:
            if self._death_notified:
                fire = True
            elif not self._thread.is_alive() and not self._stopped.is_set():
                self._death_notified = True
                fire = True
            else:
                self._death_callbacks.append(callback)
        if fire:
            callback(self)

    def _notify_death(self) -> None:
        with self._death_lock:
            if self._death_notified:
                return
            self._death_notified = True
            callbacks, self._death_callbacks = self._death_callbacks, []
        for callback in callbacks:
            try:
                callback(self)
            except Exception:  # pragma: no cover - defensive
                pass

    # -- actor loop ---------------------------------------------------------
    def _run(self, args, kwargs):
        try:
            self._instance = self._cls(*args, **kwargs)
        except BaseException as exc:  # surfaced to the creator
            self._init_error = exc
            self._started.set()
            return
        self._started.set()
        while not self._stopped.is_set():
            try:
                task = self._mailbox.get(timeout=0.1)
            except queue.Empty:
                continue
            if task is None:
                break
            try:
                method = getattr(self._instance, task.method_name)
                task.ref._resolve(method(*task.args, **task.kwargs))
            except BaseException as exc:
                task.ref._fail(exc)
            finally:
                with self._pending_lock:
                    self._pending.pop(task.ref.id, None)

    def _submit(self, method_name: str, args, kwargs) -> ObjectRef:
        if self._stopped.is_set():
            raise RayliteError(f"Actor {self._name} is stopped")
        if not hasattr(self._cls, method_name):
            raise RayliteError(
                f"Actor {self._cls.__name__} has no method {method_name!r}")
        ref = ObjectRef()
        args = tuple(_maybe_copy(a) for a in args)
        kwargs = {k: _maybe_copy(v) for k, v in kwargs.items()}
        with self._pending_lock:
            self._pending[ref.id] = ref
        self._mailbox.put(_Task(method_name, args, kwargs, ref))
        return ref

    def num_pending(self) -> int:
        """Tasks submitted but not yet completed (mailbox depth + any
        in-flight task) — the load signal schedulers route on."""
        with self._pending_lock:
            return len(self._pending)

    def _stop(self):
        self._stopped.set()
        self._mailbox.put(None)
        self._thread.join(timeout=5.0)
        # Fail whatever never ran (queued tasks, or an in-flight task on
        # a wedged thread): blocked getters wake with a clear error.
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for ref in pending.values():
            ref._fail(RayliteError(
                f"raylite.shutdown: actor {self._name} stopped; "
                f"pending tasks cancelled"))

    def __getattr__(self, name: str) -> _RemoteMethod:
        if name.startswith("_"):
            raise AttributeError(name)
        return _RemoteMethod(self, name)

    def __repr__(self):
        return f"<ActorHandle {self._name}>"


def _make_handle(cls: type, args, kwargs, name: str = "",
                 backend: Optional[str] = None,
                 start_method: Optional[str] = None):
    backend = backend or _config.backend
    if backend == "thread":
        return ActorHandle(cls, args, kwargs, name=name)
    if backend == "process":
        from repro.raylite.process_backend import ProcessActorHandle
        return ProcessActorHandle(
            cls, args, kwargs, name=name,
            start_method=start_method or _config.start_method)
    raise RayliteError(
        f"Unknown backend {backend!r}; expected one of {_BACKENDS}")


class _ActorFactory:
    def __init__(self, cls: type):
        self._cls = cls

    def remote(self, *args, **kwargs):
        return _make_handle(self._cls, args, kwargs)

    def options(self, name: str = "", backend: Optional[str] = None,
                start_method: Optional[str] = None):
        """Per-actor overrides (Ray's ``.options()``): display ``name``,
        execution ``backend`` and process ``start_method``."""
        factory = self
        if backend is not None and backend not in _BACKENDS:
            raise RayliteError(
                f"Unknown backend {backend!r}; expected one of {_BACKENDS}")

        class _Configured:
            def remote(self, *args, **kwargs):
                return _make_handle(factory._cls, args, kwargs, name=name,
                                    backend=backend,
                                    start_method=start_method)

        return _Configured()


def remote(cls: type) -> _ActorFactory:
    """Decorator/wrapper turning a class into an actor factory."""
    if not isinstance(cls, type):
        raise RayliteError("raylite.remote expects a class")
    return _ActorFactory(cls)
