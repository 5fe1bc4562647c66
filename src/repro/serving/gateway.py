"""HTTP/JSON gateway in front of the micro-batching serving stack.

:class:`HttpGateway` serves a :class:`PolicyServer` or
:class:`InferenceWorkerPool` (``POST /act``, ``GET /metrics``,
``GET /healthz``) from an ``asyncio`` loop on a background thread,
stdlib only.  Overload never looks like a hang: a rejection or shed is
a 503 with ``Retry-After``, an expired deadline a 504, a bad body or
header value a 400, each with a typed JSON body.  A request that cannot
be framed gets a 400 (request line, header line, ``Content-Length``),
413 (body over ``_MAX_BODY``) or 431 (head over ``_HEAD_LIMIT``), and
its connection is closed.

Each keep-alive connection is one :class:`asyncio.Protocol` with one
request in flight, served straight from ``data_received`` once its head
and body are buffered (no coroutine, no task); bytes pipelined behind
it wait unread until its answer is written.  ``/act`` submits
synchronously, the ref's done-callback hops onto the loop with one
``call_soon_threadsafe``, and the answer leaves in one
``transport.write``.  :class:`HttpPolicyClient` sends each request with
one ``sendall`` on one keep-alive socket.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from http import HTTPStatus
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.serving.overload import (
    DeadlineExceededError,
    OverloadError,
    RouteStats,
    ServerClosedError,
)
from repro.utils.errors import RLGraphError

_HEAD_LIMIT = 64 * 1024
_MAX_BODY = 8 * 1024 * 1024
_GRACE = 1.0  # the gateway's wait past a budget: a wedged backend is a 504


class _BadRequest(RLGraphError):
    """A 4xx (400 by default) with the message in the JSON body."""

    def __init__(self, message: str, status=400, error="bad_request"):
        super().__init__(message)
        self.status, self.error = status, error


def _error_answer(exc: Exception):
    """``(status, payload, extra headers)`` for a failed request."""
    if isinstance(exc, OverloadError):
        extra = ({"Retry-After": f"{exc.retry_after:.3f}"}
                 if exc.retry_after else {})
        return 503, {"error": "overload", "reason": exc.reason,
                     "queue_depth": exc.queue_depth,
                     "retry_after": exc.retry_after}, extra
    if isinstance(exc, ServerClosedError):
        return 503, {"error": "server_closed", "detail": str(exc)}, {}
    if isinstance(exc, DeadlineExceededError):
        return 504, {"error": "deadline_exceeded", "detail": str(exc)}, {}
    if isinstance(exc, _BadRequest):
        return exc.status, {"error": exc.error, "detail": str(exc)}, {}
    return 500, {"error": "internal",
                 "detail": f"{type(exc).__name__}: {exc}"}, {}


class _Connection(asyncio.Protocol):
    """One client socket: requests are cut out of a byte buffer and
    answered in order, one in flight at a time."""

    def __init__(self, gateway: "HttpGateway", loop):
        self.gateway, self.loop, self.transport = gateway, loop, None
        self.buffer = bytearray()
        self.scanned = 0  # buffer prefix known to hold no end of head
        self.busy, self.keep_alive = False, True
        self.stats, self.t0, self.ref, self.timer = None, 0.0, None, None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.gateway._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.gateway._connections.discard(self)
        self.transport = None

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.busy:
            self.transport.pause_reading()  # until the answer is written
        else:
            self.serve()

    def eof_received(self) -> bool:
        self.keep_alive = False  # answer what is in flight, then close
        return self.busy

    def serve(self) -> None:
        """Serve buffered requests in order until one is in flight."""
        routes = self.gateway.routes
        while (not self.busy and self.keep_alive
               and self.transport is not None):
            self.busy, self.t0 = True, self.loop.time()
            self.stats = routes["other"]
            try:
                request = self._next_request()
            except _BadRequest as exc:
                self.keep_alive = False  # framing is lost: answer, close
                self.answer(*_error_answer(exc))
                return
            if request is None:
                self.busy = False
                self.transport.resume_reading()
                return
            method, path, headers, body = request
            self.stats = routes.get(path, self.stats)
            self.keep_alive = headers.get("connection", "").lower() != "close"
            self.gateway._dispatch(self, method, path, headers, body)

    def _next_request(self):
        """The next complete request in the buffer, or None."""
        buf = self.buffer
        end = buf.find(b"\r\n\r\n", self.scanned)
        if not 0 <= end <= _HEAD_LIMIT:
            if len(buf) > _HEAD_LIMIT:
                raise _BadRequest("request head too large", 431,
                                  "head_too_large")
            self.scanned = max(0, len(buf) - 3)
            return None
        self.scanned = end
        first, *lines = buf[:end].decode("latin-1").split("\r\n")
        parts, pairs = first.split(), [line.partition(":") for line in lines]
        if (len(parts) != 3 or not parts[2].startswith("HTTP/")
                or not all(sep and key.strip() for key, sep, _ in pairs)):
            raise _BadRequest(f"malformed request head: {first[:200]!r}")
        headers = {key.strip().lower(): value.strip()
                   for key, _, value in pairs}
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise _BadRequest(f"bad Content-Length: {length[:50]!r}")
        if int(length) > _MAX_BODY:
            raise _BadRequest(f"body of {length} bytes exceeds {_MAX_BODY}",
                              413, "body_too_large")
        stop = end + 4 + int(length)
        if len(buf) < stop:
            return None
        body = bytes(buf[end + 4:stop])
        del buf[:stop]
        self.scanned = 0
        return parts[0], parts[1].split("?", 1)[0], headers, body

    def await_ref(self, ref, budget: float) -> None:
        """Answer when ``ref`` settles, or with a 504 after the grace."""
        loop = self.loop

        def settle(expired: bool = False) -> None:
            if self.ref is not ref:
                return  # answered already
            try:
                if expired:
                    raise DeadlineExceededError(
                        f"no answer within {budget + _GRACE:.3f}s")
                answer = 200, {"action": np.asarray(ref.result(0)).tolist()}
            except Exception as exc:  # noqa: BLE001 - typed below
                answer = _error_answer(exc)
            self.answer(*answer)
            self.serve()

        def on_done(_ref) -> None:
            try:
                loop.call_soon_threadsafe(settle)
            except RuntimeError:
                pass  # the gateway's loop is closed: nobody left to answer

        self.ref = ref
        self.timer = loop.call_later(budget + _GRACE, settle, True)
        ref.add_done_callback(on_done)

    def answer(self, status: int, payload: Dict[str, Any],
               extra: Optional[Dict[str, str]] = None) -> None:
        """Record the request in flight and write its whole answer."""
        body = json.dumps(payload).encode()
        if self.timer is not None:
            self.timer.cancel()
        self.busy, self.ref, self.timer = False, None, None
        self.stats.record(status, self.loop.time() - self.t0)
        if self.transport is None:
            return  # the client left before its answer
        head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: "
                f"{'keep-alive' if self.keep_alive else 'close'}\r\n")
        head += "".join(f"{k}: {v}\r\n" for k, v in (extra or {}).items())
        self.transport.write((head + "\r\n").encode() + body)
        if not self.keep_alive:
            self.transport.close()


class HttpGateway:
    """Serve a batching front end (server or pool) over HTTP/JSON.

    ``default_deadline`` (seconds) applies when a request carries no
    ``X-Deadline-Ms`` header; it bounds end-to-end time in the serving
    stack AND the gateway's own wait, so a wedged backend turns into a
    504, never a silently parked socket.  ``port=0`` binds an ephemeral
    port (read it from ``.address`` after ``start()``).
    """

    def __init__(self, target, host: str = "127.0.0.1", port: int = 0,
                 default_deadline: float = 1.0, name: str = "gateway"):
        if default_deadline <= 0:
            raise RLGraphError("default_deadline must be > 0")
        self.target, self.host, self.name = target, host, name
        self.default_deadline = float(default_deadline)
        self.routes: Dict[str, RouteStats] = {
            "/act": RouteStats(), "/metrics": RouteStats(),
            "/healthz": RouteStats(), "other": RouteStats()}
        self._requested_port = int(port)
        self._port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._connections: set = set()  # live; touched on the loop only

    def start(self) -> "HttpGateway":
        if self._thread is not None and self._thread.is_alive():
            return self
        loop = asyncio.new_event_loop()
        try:
            server = loop.run_until_complete(loop.create_server(
                lambda: _Connection(self, loop), host=self.host,
                port=self._requested_port))
        except OSError as exc:
            loop.close()
            raise RLGraphError(
                f"{self.name}: startup failed: {exc!r}") from exc
        self._port = server.sockets[0].getsockname()[1]
        self._loop = loop
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        args=(loop, server), name=self.name)
        self._thread.start()
        return self

    def stop(self) -> None:
        thread, loop = self._thread, self._loop
        if thread is None or loop is None:
            return
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:
            pass  # loop already closed
        thread.join(timeout=10.0)
        self._thread = self._loop = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    @property
    def address(self) -> Tuple[str, int]:
        if self._port is None:
            raise RLGraphError(f"{self.name}: not started")
        return (self.host, self._port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _run(self, loop, server) -> None:
        try:
            loop.run_forever()
        finally:
            server.close()
            for conn in list(self._connections):
                conn.transport.abort()
            # Lets the aborted transports close their sockets first.
            loop.run_until_complete(server.wait_closed())
            loop.close()

    # -- routing (on the loop, straight from data_received) -----------------
    def _dispatch(self, conn: _Connection, method, path, headers, body):
        try:
            if path == "/act" and method == "POST":
                conn.await_ref(*self._submit_act(headers, body))
            elif path == "/act":
                conn.answer(405, {"error": "method_not_allowed"})
            elif path == "/metrics":
                conn.answer(200, self.metrics_snapshot())
            elif path == "/healthz":
                conn.answer(*self._route_healthz())
            else:
                conn.answer(404, {"error": "not_found", "path": path})
        except Exception as exc:  # noqa: BLE001 - must answer the socket
            conn.answer(*_error_answer(exc))

    def _route_healthz(self):
        snapshot = getattr(self.target, "metrics_snapshot", None)
        try:
            if not callable(snapshot) or snapshot().get("running", True):
                return 200, {"status": "ok"}
        except Exception:  # noqa: BLE001 - a failing target is not healthy
            pass
        return 503, {"status": "stopped"}

    def _submit_act(self, headers: Dict[str, str], body: bytes):
        """Validate an /act request and submit it: ``(ref, budget)``."""
        try:  # JSON and Unicode decode errors are ValueErrors
            obs = np.asarray(json.loads(body or b"{}")["obs"],
                             dtype=self.target.state_space.dtype)
        except (KeyError, TypeError, ValueError) as exc:
            raise _BadRequest(f'body must be a JSON object with a valid '
                              f'"obs" array: {exc!r}') from exc
        raw = headers.get("x-deadline-ms")
        try:
            budget = (self.default_deadline if raw is None
                      else float(raw) / 1e3)
        except ValueError as exc:
            raise _BadRequest(
                f"X-Deadline-Ms is not a number: {raw!r}") from exc
        if not 0 < budget < float("inf"):
            raise _BadRequest("X-Deadline-Ms must be finite and > 0")
        try:
            return self.target.submit(obs, deadline=budget), budget
        except RLGraphError as exc:
            if isinstance(exc, (OverloadError, ServerClosedError)):
                raise
            raise _BadRequest(str(exc)) from exc

    def metrics_snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {"gateway": {
            route: stats.snapshot() for route, stats in self.routes.items()}}
        target_snapshot = getattr(self.target, "metrics_snapshot", None)
        if callable(target_snapshot):
            try:
                snap["target"] = target_snapshot()
            except Exception as exc:  # noqa: BLE001
                snap["target"] = {"error": f"{type(exc).__name__}: {exc}"}
        return snap


class HttpPolicyClient:
    """Minimal keep-alive HTTP client for an :class:`HttpGateway`.

    Mirrors :class:`PolicyClient`'s act surface over the wire;
    ``deadline_ms`` rides the ``X-Deadline-Ms`` header.  Raises the
    same typed errors the in-process path raises, so tests and benches
    can treat both paths uniformly.  One socket (``TCP_NODELAY``,
    ``timeout`` on every send and read), one ``sendall`` per request.
    Not thread-safe — one instance per driving thread.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 deadline_ms: Optional[float] = None):
        self.host, self.port = host, int(port)
        self.timeout, self.deadline_ms = timeout, deadline_ms
        self._sock = self._reader = None  # one keep-alive socket

    @classmethod
    def for_gateway(cls, gateway: HttpGateway, **kwargs
                    ) -> "HttpPolicyClient":
        host, port = gateway.address
        return cls(host, port, **kwargs)

    def _request(self, method: str, path: str, body: bytes = b"",
                 headers: str = ""):
        message = (f"{method} {path} HTTP/1.1\r\n"
                   f"Host: {self.host}:{self.port}\r\n{headers}"
                   f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        try:
            return self._exchange(message)
        except ConnectionError:
            # One reconnect: the gateway may have closed an idle socket.
            return self._exchange(message)

    def _exchange(self, message: bytes):
        """One request out; status line, headers and body back."""
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=self.timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader = self._sock.makefile("rb")
        try:
            self._sock.sendall(message)
            status = self._reader.readline()
            headers: Dict[str, str] = {}
            for line in iter(self._reader.readline, b"\r\n"):
                if not line:
                    raise ConnectionResetError("gateway closed the socket")
                key, _, value = line.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            body = self._reader.read(length)
            if len(body) != length:
                raise ConnectionResetError("gateway closed the socket")
        except BaseException:
            self.close()  # the stream's position is unknown
            raise
        if headers.get("connection", "").lower() == "close":
            self.close()
        return (int(status.split()[1]), headers,
                json.loads(body.decode() or "{}"))

    def act(self, obs, deadline_ms: Optional[float] = None):
        headers = "Content-Type: application/json\r\n"
        budget = deadline_ms if deadline_ms is not None else self.deadline_ms
        if budget is not None:
            headers += f"X-Deadline-Ms: {budget:g}\r\n"
        body = json.dumps({"obs": np.asarray(obs).tolist()}).encode()
        status, resp_headers, payload = self._request(
            "POST", "/act", body, headers)
        if status == 200:
            return np.asarray(payload["action"])
        if status == 503:
            retry_after = payload.get("retry_after")
            if retry_after is None:
                header = resp_headers.get("retry-after")
                retry_after = float(header) if header else None
            raise OverloadError(
                f"gateway returned 503: {payload}",
                queue_depth=payload.get("queue_depth", 0),
                retry_after=retry_after,
                reason=payload.get("reason", payload.get("error", "unknown")))
        if status == 504:
            raise DeadlineExceededError(
                f"gateway returned 504: {payload.get('detail', '')}")
        raise RLGraphError(f"gateway returned {status}: {payload}")

    def metrics(self) -> Dict[str, Any]:
        status, _, payload = self._request("GET", "/metrics")
        if status != 200:
            raise RLGraphError(f"/metrics returned {status}: {payload}")
        return payload

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        status, _, payload = self._request("GET", "/healthz")
        return status, payload

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()  # it holds a reference to the socket
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

