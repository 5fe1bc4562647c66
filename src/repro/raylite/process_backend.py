"""raylite process backend: actors in ``multiprocessing`` workers.

Each actor owns one OS process running :func:`_worker_main` — a mailbox
loop over a duplex pipe.  The driver side (:class:`ProcessActorHandle`)
mirrors the thread backend's surface exactly (``handle.method.remote()``
returning :class:`~repro.raylite.core.ObjectRef`), so executors select a
backend without touching their coordination loops:

* task submission pickles only the lightweight message skeleton; NumPy
  payloads (weight dicts, sample batches, rollouts) travel through
  ``multiprocessing.shared_memory`` blocks via :mod:`repro.raylite.shm`
  — one copy into the block on the sender, zero-copy views out of it on
  the receiver;
* a per-handle reader thread resolves ObjectRefs as results arrive, so
  ``get``/``wait`` block on events, never on polls;
* worker death (crash, kill, unpicklable traffic) fails every pending
  ref with a descriptive :class:`RayliteError` instead of hanging.

Workers are deliberately **non-daemonic** so actors may themselves host
subprocess vector envs (daemonic processes cannot have children);
``raylite.shutdown`` is registered via ``atexit`` as the reaper of last
resort.  Spawn-safety: the worker entry point is a module-level
function and all construction arguments ship through ``Process(args=)``
(inherited for free under fork, pickled once under spawn).
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import traceback
from typing import Any, Dict, Optional

from repro.raylite import shm as shm_codec
from repro.utils.procutil import cap_native_threads, default_start_method

# A worker that has not answered the ready handshake in this long is
# wedged (e.g. the rare fork-while-threaded-parent deadlock): fail the
# construction fast with a clear error instead of stalling the caller.
_READY_TIMEOUT = 20.0
_JOIN_TIMEOUT = 5.0


def _send_error(conn, tag: str, task_id, exc: BaseException) -> None:
    tb = traceback.format_exc()
    try:
        conn.send((tag, task_id, exc, tb))
    except Exception:  # exception itself does not pickle: ship a summary
        from repro.utils.errors import RLGraphError
        summary = RLGraphError(f"{type(exc).__name__}: {exc}")
        conn.send((tag, task_id, summary, tb))


def _worker_main(conn, cls, args, kwargs) -> None:
    """Actor-process entry point: construct, then serve the mailbox."""
    # Actors run beside the driver's learner: one native thread each
    # (the driver process is deliberately never capped).
    cap_native_threads()
    try:
        instance = cls(*args, **kwargs)
    except BaseException as exc:
        _send_error(conn, "init_error", None, exc)
        conn.close()
        return
    conn.send(("ready", None, None, None))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # driver vanished
            break
        kind = message[0]
        if kind == "stop":
            break
        _, task_id, tree, block = message
        try:
            method_name, call_args, call_kwargs = shm_codec.decode(tree, block)
            result = getattr(instance, method_name)(*call_args, **call_kwargs)
        except BaseException as exc:
            _send_error(conn, "err", task_id, exc)
            continue
        out_tree, out_block = shm_codec.encode(result)
        try:
            conn.send(("ok", task_id, out_tree, out_block))
        except BaseException as exc:  # unpicklable result / driver gone
            shm_codec.discard(out_tree, out_block)
            try:
                _send_error(conn, "err", task_id, exc)
            except Exception:
                break  # pipe is dead; exit so the block is not re-leaked
    conn.close()


class ProcessActorHandle:
    """Driver-side handle to an actor living in a worker process."""

    _counter = itertools.count()

    def __init__(self, cls: type, args, kwargs, name: str = "",
                 start_method: Optional[str] = None):
        # Imported late: core imports this module.
        from repro.raylite.core import ObjectRef, RayliteError, register_actor

        self._ObjectRef = ObjectRef
        self._RayliteError = RayliteError
        self._cls = cls
        self._name = name or f"{cls.__name__}-p{next(self._counter)}"
        method = start_method or default_start_method()
        ctx = multiprocessing.get_context(method)
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=_worker_main, args=(child_conn, cls, args, kwargs),
            name=f"raylite-{self._name}", daemon=False)
        self._proc.start()
        child_conn.close()
        self._task_ids = itertools.count()
        self._pending: Dict[int, Any] = {}
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._stopped = threading.Event()
        self._death_callbacks = []
        self._death_notified = False
        self._death_lock = threading.Lock()
        self._await_ready()
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True,
            name=f"raylite-{self._name}-reader")
        self._reader.start()
        register_actor(self)

    # -- startup ------------------------------------------------------------
    def _await_ready(self) -> None:
        if not self._conn.poll(_READY_TIMEOUT):
            self._proc.terminate()
            raise self._RayliteError(
                f"Actor {self._name} did not come up within "
                f"{_READY_TIMEOUT:.0f}s")
        try:
            kind, _, exc, tb = self._conn.recv()
        except (EOFError, OSError):
            self._proc.join(_JOIN_TIMEOUT)
            raise self._RayliteError(
                f"Actor {self._name} process died during construction "
                f"(exit code {self._proc.exitcode})")
        if kind == "init_error":
            self._proc.join(_JOIN_TIMEOUT)
            if tb and hasattr(exc, "add_note"):
                exc.add_note(f"(remote actor traceback)\n{tb}")
            raise exc

    # -- liveness -----------------------------------------------------------
    @property
    def pid(self) -> Optional[int]:
        """OS pid of the actor's worker process (chaos tests SIGKILL it)."""
        return self._proc.pid

    def is_alive(self) -> bool:
        """Liveness probe: the worker process exists and the handle has
        not been stopped.  This is the mailbox-level signal supervisors
        poll — a SIGKILLed worker flips it immediately, before the
        reader thread has even seen the pipe EOF."""
        return not self._stopped.is_set() and self._proc.is_alive()

    def add_death_callback(self, callback) -> None:
        """Run ``callback(handle)`` once when the worker dies
        *unexpectedly* (crash / SIGKILL / pipe loss) — NOT on a
        deliberate :func:`~repro.raylite.core.kill` or ``shutdown``.
        Fires immediately if the death already happened."""
        with self._death_lock:
            if not self._death_notified:
                self._death_callbacks.append(callback)
                return
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

    # -- result pump --------------------------------------------------------
    def _read_loop(self) -> None:
        while True:
            try:
                kind, task_id, tree, block = self._conn.recv()
            except (EOFError, OSError):
                deliberate = self._stopped.is_set()
                self._fail_pending(self._RayliteError(
                    f"Actor {self._name} process died "
                    f"(exit code {self._proc.exitcode}); pending tasks "
                    f"failed"))
                self._stopped.set()
                if not deliberate:
                    self._notify_death()
                return
            with self._lock:
                entry = self._pending.pop(task_id, None)
            if entry is None:
                shm_codec.discard(tree, block if kind == "ok" else None)
                continue
            ref = entry[0]
            if kind == "ok":
                try:
                    ref._resolve(shm_codec.decode(tree, block))
                except BaseException as exc:
                    ref._fail(exc)
            else:  # kind == "err": (exc, remote traceback) in tree/block
                if block and hasattr(tree, "add_note"):
                    tree.add_note(f"(remote actor traceback)\n{block}")
                ref._fail(tree)

    def _fail_pending(self, error: BaseException) -> None:
        with self._lock:
            pending, self._pending = self._pending, {}
        for ref, args_block in pending.values():
            # The worker never consumed this task's args: unlink its
            # shared block here or it outlives the interpreter (encode()
            # disowned it from the resource tracker).
            shm_codec.discard(None, args_block)
            ref._fail(error)

    # -- submission ---------------------------------------------------------
    def _submit(self, method_name: str, args, kwargs):
        if self._stopped.is_set():
            raise self._RayliteError(f"Actor {self._name} is stopped")
        if not hasattr(self._cls, method_name):
            raise self._RayliteError(
                f"Actor {self._cls.__name__} has no method {method_name!r}")
        ref = self._ObjectRef()
        task_id = next(self._task_ids)
        tree, block = shm_codec.encode((method_name, tuple(args), kwargs))
        # Keep the args-block name with the ref: a task cancelled before
        # the worker decodes it must discard the block (see
        # _fail_pending), since nothing else ever unlinks it.
        with self._lock:
            self._pending[task_id] = (ref, block)
        try:
            with self._send_lock:
                self._conn.send(("task", task_id, tree, block))
        except (BrokenPipeError, OSError):
            shm_codec.discard(tree, block)
            with self._lock:
                self._pending.pop(task_id, None)
            ref._fail(self._RayliteError(
                f"Actor {self._name} is gone; could not submit "
                f"{method_name!r}"))
        return ref

    def num_pending(self) -> int:
        """Tasks submitted but not yet completed (same load signal as the
        thread backend's :meth:`ActorHandle.num_pending`)."""
        with self._lock:
            return len(self._pending)

    # -- teardown -----------------------------------------------------------
    def _stop(self) -> None:
        """Reap the worker.  Idle actors exit gracefully; an actor with
        queued work gets a short grace for the in-flight task and is
        then terminated — pending refs fail with a clear RayliteError
        (stop-means-cancel, as in Ray), callers never hang."""
        if self._stopped.is_set():
            self._proc.join(_JOIN_TIMEOUT)
            return
        self._stopped.set()
        try:
            with self._send_lock:
                self._conn.send(("stop", None, None, None))
        except (BrokenPipeError, OSError):
            pass
        with self._lock:
            has_pending = bool(self._pending)
        # The stop sentinel sits behind queued tasks; do not drain them.
        self._proc.join(1.0 if has_pending else _JOIN_TIMEOUT)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(1.0)
        if self._proc.is_alive():  # pragma: no cover - last resort
            self._proc.kill()
            self._proc.join(1.0)
        self._fail_pending(self._RayliteError(
            f"raylite.shutdown: actor {self._name} stopped; "
            f"pending tasks cancelled"))
        try:
            self._conn.close()
        except OSError:
            pass

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        from repro.raylite.core import _RemoteMethod
        return _RemoteMethod(self, name)

    def __repr__(self):
        state = "stopped" if self._stopped.is_set() else "running"
        return f"<ProcessActorHandle {self._name} {state}>"
