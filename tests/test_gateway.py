"""HTTP gateway tests: action parity with the in-process path, deadline
propagation over the wire (X-Deadline-Ms -> 504 + expired counter, no
wasted batch slot), typed overload mapping (503 + Retry-After), error
codes, keep-alive connection reuse, per-route /metrics, the parser's
malformed-input corpus (typed 4xx, bounded buffer, split reads,
pipelining, stalls), and HttpPolicyClient against scripted peers."""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import raylite
from repro.agents import DQNAgent
from repro.serving import (
    HttpGateway,
    HttpPolicyClient,
    InferenceWorkerPool,
    PolicyServer,
)
from repro.serving import gateway as gateway_module
from repro.serving.overload import (
    DeadlineExceededError,
    OverloadError,
)
from repro.serving.policy_server import _BatchingFrontEnd, num_rows
from repro.spaces import FloatBox, IntBox
from repro.utils.errors import RLGraphError

pytestmark = pytest.mark.mp_timeout(180)

STATE_DIM = 4
NUM_ACTIONS = 3


def _dqn(seed=3):
    return DQNAgent(state_space=FloatBox(shape=(STATE_DIM,)),
                    action_space=IntBox(NUM_ACTIONS),
                    network_spec=[{"type": "dense", "units": 16,
                                   "activation": "relu"}],
                    seed=seed)


def _dqn_factory():
    return _dqn()


class _SleepServer(_BatchingFrontEnd):
    pad_batches = False

    def __init__(self, service_time=0.005, **kwargs):
        self.service_time = service_time
        super().__init__(FloatBox(shape=(STATE_DIM,)), **kwargs)

    def _dispatch(self, requests):
        time.sleep(self.service_time)
        self._scatter(requests, np.zeros(num_rows(requests), dtype=np.int64))

    def _apply_weights(self, weights):
        pass


@pytest.fixture(autouse=True)
def _raylite_cleanup():
    yield
    raylite.shutdown()


@pytest.fixture()
def dqn_gateway():
    agent = _dqn()
    server = PolicyServer(agent, max_batch_size=8, batch_window=0.001)
    gateway = HttpGateway(server, default_deadline=5.0).start()
    yield agent, server, gateway
    gateway.stop()
    server.stop()


def _raw(gateway, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(*gateway.address, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            json.loads(response.read().decode() or "{}")
    finally:
        conn.close()


_ACT_BODY = json.dumps({"obs": [0.0] * STATE_DIM}).encode()
#: One complete /act request, as raw bytes.
ACT = (f"POST /act HTTP/1.1\r\nContent-Length: {len(_ACT_BODY)}\r\n\r\n"
       .encode() + _ACT_BODY)


def _read_message(reader):
    """(first line, headers, body) of one HTTP message, or None at EOF."""
    first = reader.readline()
    if not first:
        return None
    headers = {}
    for line in iter(reader.readline, b"\r\n"):
        assert line, "connection closed mid-head"
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", "0")))
    return first, headers, body


def _read_answer(reader):
    first, headers, body = _read_message(reader)
    return int(first.split()[1]), headers, json.loads(body)


def _closed_by_peer(reader) -> bool:
    try:
        return reader.read() == b""
    except ConnectionResetError:
        return True     # closed while request bytes were still unread


class _Peer:
    """A scripted TCP peer: ``handle(conn, reader)`` runs, in turn, for
    every accepted connection, which is closed when it returns;
    ``accepts`` counts the connections."""

    def __init__(self, handle):
        self.handle = handle
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.address = self.listener.getsockname()
        self.accepts = 0
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            conn.settimeout(10)
            self.accepts += 1
            with conn, conn.makefile("rb") as reader:
                self.handle(conn, reader)

    def close(self):
        self.stop.set()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()
        self.listener.close()


def _answer_bytes(payload, connection="keep-alive") -> bytes:
    body = json.dumps(payload).encode()
    return (f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n").encode() + body


class TestGatewayBasics:
    def test_action_parity_with_in_process_path(self, dqn_gateway):
        agent, server, gateway = dqn_gateway
        obs = np.random.default_rng(7).standard_normal(
            (16, STATE_DIM)).astype(np.float32)
        expected = [int(agent.get_actions(o, explore=False)[0])
                    for o in obs]
        with HttpPolicyClient.for_gateway(gateway) as client:
            served = [int(client.act(o)) for o in obs]
        assert served == expected

    def test_keep_alive_reuses_one_connection(self, dqn_gateway):
        _, _, gateway = dqn_gateway
        obs = np.zeros(STATE_DIM, dtype=np.float32)
        conn = http.client.HTTPConnection(*gateway.address, timeout=10)
        try:
            for _ in range(5):
                conn.request("POST", "/act",
                             body=json.dumps({"obs": obs.tolist()}))
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read().decode())
                # getresponse() would raise on a dropped keep-alive.
        finally:
            conn.close()

    def test_healthz(self, dqn_gateway):
        _, server, gateway = dqn_gateway
        with HttpPolicyClient.for_gateway(gateway) as client:
            status, payload = client.healthz()
            assert (status, payload["status"]) == (200, "ok")
        server.stop()
        with HttpPolicyClient.for_gateway(gateway) as client:
            status, payload = client.healthz()
            assert status == 503

    def test_metrics_has_routes_and_target(self, dqn_gateway):
        _, _, gateway = dqn_gateway
        with HttpPolicyClient.for_gateway(gateway) as client:
            client.act(np.zeros(STATE_DIM, dtype=np.float32))
            metrics = client.metrics()
        assert metrics["gateway"]["/act"]["requests"] == 1
        assert metrics["gateway"]["/act"]["by_status"] == {"200": 1} or \
            metrics["gateway"]["/act"]["by_status"] == {200: 1}
        assert "p99_ms" in metrics["gateway"]["/act"]
        target = metrics["target"]
        assert target["requests"] >= 1
        assert "queue_depth" in target and "batch_size_histogram" in target

    def test_ephemeral_port_and_context_manager(self):
        server = _SleepServer(service_time=0.0)
        with HttpGateway(server) as gateway:
            assert gateway.address[1] > 0
            status, _, _ = _raw(gateway, "GET", "/healthz")
            assert status == 200
        server.stop()


class TestGatewayErrors:
    def test_bad_json_is_400(self, dqn_gateway):
        _, _, gateway = dqn_gateway
        status, _, payload = _raw(gateway, "POST", "/act", body="not json")
        assert status == 400 and payload["error"] == "bad_request"

    def test_missing_obs_key_is_400(self, dqn_gateway):
        _, _, gateway = dqn_gateway
        status, _, payload = _raw(gateway, "POST", "/act",
                                  body=json.dumps({"state": [0.0]}))
        assert status == 400

    def test_wrong_shape_is_400(self, dqn_gateway):
        _, _, gateway = dqn_gateway
        status, _, payload = _raw(
            gateway, "POST", "/act",
            body=json.dumps({"obs": [0.0] * (STATE_DIM + 1)}))
        assert status == 400
        assert "shape" in payload["detail"]

    def test_unknown_route_is_404_and_bad_method_405(self, dqn_gateway):
        _, _, gateway = dqn_gateway
        assert _raw(gateway, "GET", "/nope")[0] == 404
        assert _raw(gateway, "GET", "/act")[0] == 405

    def test_bad_deadline_header_is_400(self, dqn_gateway):
        _, _, gateway = dqn_gateway
        body = json.dumps({"obs": [0.0] * STATE_DIM})
        status, _, _ = _raw(gateway, "POST", "/act", body=body,
                            headers={"X-Deadline-Ms": "soon"})
        assert status == 400
        status, _, _ = _raw(gateway, "POST", "/act", body=body,
                            headers={"X-Deadline-Ms": "-5"})
        assert status == 400

    def test_stopped_server_is_503(self):
        server = _SleepServer(service_time=0.0)
        with HttpGateway(server) as gateway:
            server.stop()
            status, _, payload = _raw(
                gateway, "POST", "/act",
                body=json.dumps({"obs": [0.0] * STATE_DIM}))
            assert status == 503 and payload["error"] == "server_closed"


class TestGatewayDeadlines:
    def test_header_deadline_propagates_to_batch_loop(self):
        """The HTTP-path deadline acceptance: an X-Deadline-Ms that
        expires while queued yields 504, bumps the server's expired
        counter, and never occupies a batch slot."""
        server = _SleepServer(service_time=0.08, max_batch_size=1,
                              batch_window=0.0)
        executed = []
        original = server._dispatch

        def counting(requests):
            executed.extend(requests)
            original(requests)

        server._dispatch = counting
        with HttpGateway(server, default_deadline=5.0) as gateway:
            blocker = server.submit(np.zeros(STATE_DIM, dtype=np.float32))
            with HttpPolicyClient.for_gateway(gateway) as client:
                with pytest.raises(DeadlineExceededError):
                    client.act(np.zeros(STATE_DIM, dtype=np.float32),
                               deadline_ms=20)
            blocker.result(10.0)
            time.sleep(0.05)
            assert server.stats.as_dict()["expired"] == 1
            assert len(executed) == 1   # only the blocker ran
            with HttpPolicyClient.for_gateway(gateway) as client:
                assert client.metrics()["gateway"]["/act"][
                    "by_status"].get("504", 0) == 1
        server.stop()

    def test_overload_maps_to_503_with_retry_after(self):
        server = _SleepServer(
            service_time=0.05, max_batch_size=1, batch_window=0.0,
            admission_spec={"max_queue": 1, "retry_after": 0.07})
        with HttpGateway(server, default_deadline=5.0) as gateway:
            obs = np.zeros(STATE_DIM, dtype=np.float32)
            blocker = server.submit(obs)
            wait_until = time.perf_counter() + 5.0
            while (server.queue_depth() > 0
                   and time.perf_counter() < wait_until):
                time.sleep(0.001)
            queued = server.submit(obs)      # fills the 1-slot queue
            status, headers, payload = _raw(
                gateway, "POST", "/act",
                body=json.dumps({"obs": obs.tolist()}))
            assert status == 503
            assert payload["reason"] == "queue_full"
            assert payload["queue_depth"] >= 1
            assert float(headers["Retry-After"]) == pytest.approx(0.07)
            # The typed client raises the same error the in-process
            # path raises, with the hint attached.
            with HttpPolicyClient.for_gateway(gateway) as client:
                with pytest.raises(OverloadError) as info:
                    client.act(obs)
                assert info.value.retry_after == pytest.approx(0.07)
            blocker.result(10.0)
            queued.result(10.0)
        server.stop()

    def test_server_side_rejects_show_in_metrics(self):
        server = _SleepServer(
            service_time=0.02, max_batch_size=1, batch_window=0.0,
            admission_spec={"max_queue": 1, "retry_after": 0.001})
        with HttpGateway(server, default_deadline=5.0) as gateway:
            obs = np.zeros(STATE_DIM, dtype=np.float32)
            with HttpPolicyClient.for_gateway(gateway) as client:
                outcomes = {"ok": 0, "overload": 0}
                for _ in range(30):
                    try:
                        client.act(obs)
                        outcomes["ok"] += 1
                    except OverloadError:
                        outcomes["overload"] += 1
                metrics = client.metrics()
            assert outcomes["ok"] > 0
            if outcomes["overload"]:
                assert metrics["target"]["rejected"] >= \
                    outcomes["overload"]
                by_status = metrics["gateway"]["/act"]["by_status"]
                n503 = by_status.get(503, by_status.get("503", 0))
                assert n503 == outcomes["overload"]
        server.stop()


class TestGatewayOverPool:
    def test_gateway_serves_a_worker_pool(self):
        pool = InferenceWorkerPool(
            _dqn_factory, FloatBox(shape=(STATE_DIM,)), num_replicas=2,
            parallel_spec="thread", max_batch_size=8, batch_window=0.001)
        try:
            obs = np.random.default_rng(11).standard_normal(
                (8, STATE_DIM)).astype(np.float32)
            reference = _dqn()
            expected = [int(reference.get_actions(o, explore=False)[0])
                        for o in obs]
            with HttpGateway(pool, default_deadline=10.0) as gateway:
                with HttpPolicyClient.for_gateway(gateway) as client:
                    served = [int(client.act(o)) for o in obs]
                    metrics = client.metrics()
            assert served == expected
            assert metrics["target"]["replicas"] == 2
        finally:
            pool.stop()


@pytest.fixture()
def sleep_gateway():
    server = _SleepServer(service_time=0.05, batch_window=0.0)
    gateway = HttpGateway(server, default_deadline=5.0).start()
    yield server, gateway
    gateway.stop()
    server.stop()


class TestGatewayFraming:
    """The malformed-input corpus: whatever arrives on the socket, the
    gateway answers with a typed status, and a stream it cannot frame is
    answered and closed rather than dropped."""

    MAX = gateway_module._MAX_BODY
    HEAD = gateway_module._HEAD_LIMIT

    @pytest.mark.parametrize("raw, status, error", [
        (b"GARBAGE\r\n\r\n", 400, "bad_request"),
        (b"POST /act\r\n\r\n", 400, "bad_request"),
        (b"POST /act HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400,
         "bad_request"),
        (b"POST /act HTTP/1.1\r\nContent-Length: -4\r\n\r\n", 400,
         "bad_request"),
        (b"POST /act HTTP/1.1\r\nno colon\r\n\r\n", 400, "bad_request"),
        (b"POST /act HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX + 1),
         413, "body_too_large"),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * HEAD + b"\r\n\r\n",
         431, "head_too_large"),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * HEAD, 431,
         "head_too_large"),
    ], ids=["garbage", "no-version", "length-abc", "length-negative",
            "header-no-colon", "body-too-large", "head-too-large",
            "head-never-ends"])
    def test_unframeable_request_gets_typed_4xx_then_close(
            self, sleep_gateway, raw, status, error):
        server, gateway = sleep_gateway
        with socket.create_connection(gateway.address, timeout=10) as sock:
            sock.sendall(raw)
            with sock.makefile("rb") as reader:
                got, headers, payload = _read_answer(reader)
                assert (got, payload["error"]) == (status, error)
                assert payload["detail"]
                assert headers["connection"] == "close"
                assert _closed_by_peer(reader)
        assert gateway.routes["other"].by_status == {status: 1}
        # The gateway is unharmed: the next connection is served.
        with HttpPolicyClient.for_gateway(gateway) as client:
            assert int(client.act(np.zeros(STATE_DIM, np.float32))) == 0

    def test_request_split_into_single_bytes_is_served(self, sleep_gateway):
        _, gateway = sleep_gateway
        with socket.create_connection(gateway.address, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i, byte in enumerate(ACT):
                sock.sendall(bytes([byte]))
                if i % 4 == 0:
                    time.sleep(0.001)   # let the gateway see short reads
            with sock.makefile("rb") as reader:
                status, _, payload = _read_answer(reader)
        assert (status, payload) == (200, {"action": 0})

    def test_pipelined_requests_are_answered_in_order(self, sleep_gateway):
        """Two slow /act and a synchronous /healthz in ONE write: three
        answers, in request order, on the same connection."""
        _, gateway = sleep_gateway
        with socket.create_connection(gateway.address, timeout=10) as sock:
            sock.sendall(ACT + ACT + b"GET /healthz HTTP/1.1\r\n\r\n")
            with sock.makefile("rb") as reader:
                answers = [_read_answer(reader) for _ in range(3)]
        assert [(s, p) for s, _, p in answers] == [
            (200, {"action": 0}), (200, {"action": 0}),
            (200, {"status": "ok"})]
        assert all(h["connection"] == "keep-alive" for _, h, _ in answers)

    def test_stalled_connection_does_not_delay_others(self, sleep_gateway):
        _, gateway = sleep_gateway
        with socket.create_connection(gateway.address, timeout=10) as stalled:
            stalled.sendall(ACT[:20])                    # mid-head
            t0 = time.perf_counter()
            with HttpPolicyClient.for_gateway(gateway) as client:
                for _ in range(3):
                    assert int(client.act(np.zeros(STATE_DIM))) == 0
            assert time.perf_counter() - t0 < 2.0
            stalled.sendall(ACT[20:])                    # resumes fine
            with stalled.makefile("rb") as reader:
                assert _read_answer(reader)[0] == 200

    def test_connection_buffer_stays_bounded_under_a_flood(
            self, monkeypatch):
        """A client floods twice the buffer limit behind a slow /act: the
        gateway reads no further while the answer is owed, so the buffer
        never exceeds head limit + _MAX_BODY; the flood is then refused
        with a 431 (no end of head) and the connection closed."""
        peak = [0]
        original = gateway_module._Connection.data_received

        def recording(conn, data):
            original(conn, data)
            peak[0] = max(peak[0], len(conn.buffer))

        monkeypatch.setattr(gateway_module._Connection, "data_received",
                            recording)
        limit = self.HEAD + self.MAX
        server = _SleepServer(service_time=0.3, batch_window=0.0)
        with HttpGateway(server, default_deadline=5.0) as gateway:
            sock = socket.create_connection(gateway.address, timeout=10)

            def flood():
                try:
                    sock.sendall(ACT + b"x" * (2 * limit))
                except OSError:
                    pass            # the gateway closed the socket

            sender = threading.Thread(target=flood, daemon=True)
            sender.start()
            with sock.makefile("rb") as reader:
                first = _read_answer(reader)
                second = _read_answer(reader)
            sender.join(timeout=10)
            assert not sender.is_alive()
            sock.close()
        server.stop()
        assert first[0] == 200
        assert (second[0], second[2]["error"]) == (431, "head_too_large")
        assert 0 < peak[0] <= limit


class TestGatewayStop:
    def test_stop_mid_batch_does_not_fail_in_process_callers(self):
        """An HTTP request and an in-process one share a batch and the
        gateway stops while it runs: settling the HTTP ref must not raise
        on the batcher thread (the gateway's loop is closed), so the
        in-process caller gets its action and no error is counted."""
        server = _SleepServer(service_time=0.3, batch_window=0.05)
        gateway = HttpGateway(server, default_deadline=5.0).start()
        try:
            with socket.create_connection(gateway.address,
                                          timeout=10) as sock:
                sock.sendall(ACT)
                wait_until = time.perf_counter() + 5.0
                while (server.stats.requests < 1
                       and time.perf_counter() < wait_until):
                    time.sleep(0.0005)
                ref = server.submit(np.zeros(STATE_DIM, np.float32))
                gateway.stop()
                assert int(ref.result(5.0)) == 0
        finally:
            gateway.stop()
            server.stop()
        assert server.stats.as_dict()["errors"] == 0


def _answer_once_then_close(conn, reader):
    if _read_message(reader) is not None:
        conn.sendall(_answer_bytes({"action": 1}))


def _close_at_once(conn, reader):
    pass


def _answer_all_with_connection_close(conn, reader):
    while _read_message(reader) is not None:
        conn.sendall(_answer_bytes({"action": 2}, connection="close"))


def _never_answer(conn, reader):
    _read_message(reader)
    reader.read()       # hold the socket until the client gives up


class TestHttpPolicyClient:
    @pytest.fixture()
    def peer(self, request):
        peer = _Peer(request.param)
        yield peer
        peer.close()

    @pytest.mark.parametrize("peer", [_answer_once_then_close],
                             indirect=True)
    def test_reconnects_after_the_peer_closed_its_idle_socket(self, peer):
        with HttpPolicyClient(*peer.address, timeout=5) as client:
            for n in (1, 2, 3):
                assert int(client.act([0.0] * STATE_DIM)) == 1
                assert peer.accepts == n

    @pytest.mark.parametrize("peer", [_close_at_once], indirect=True)
    def test_reconnects_only_once(self, peer):
        with HttpPolicyClient(*peer.address, timeout=5) as client:
            with pytest.raises(ConnectionError):
                client.act([0.0] * STATE_DIM)
        time.sleep(0.1)
        assert peer.accepts == 2

    @pytest.mark.parametrize("peer", [_answer_all_with_connection_close],
                             indirect=True)
    def test_connection_close_is_honoured(self, peer):
        """The peer would answer more requests on the socket, but said
        ``Connection: close``: each request opens a new connection."""
        with HttpPolicyClient(*peer.address, timeout=5) as client:
            assert int(client.act([0.0] * STATE_DIM)) == 2
            assert int(client.act([0.0] * STATE_DIM)) == 2
        assert peer.accepts == 2

    @pytest.mark.parametrize("peer", [_never_answer], indirect=True)
    def test_timeout_bounds_a_peer_that_never_answers(self, peer):
        t0 = time.perf_counter()
        with HttpPolicyClient(*peer.address, timeout=0.3) as client:
            with pytest.raises(OSError) as info:
                client.act([0.0] * STATE_DIM)
        assert not isinstance(info.value, ConnectionError)
        # One timeout, no silent retry of a request that may be running.
        assert time.perf_counter() - t0 < 0.3 * 2
        assert peer.accepts == 1


def test_importing_serving_does_not_load_http_client():
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(gateway_module.__file__))))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.serving; print('http.client' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
