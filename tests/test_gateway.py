"""HTTP gateway tests: action parity with the in-process path, deadline
propagation over the wire (X-Deadline-Ms -> 504 + expired counter, no
wasted batch slot), typed overload mapping (503 + Retry-After), error
codes, keep-alive connection reuse, and per-route /metrics."""

from __future__ import annotations

import http.client
import json
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
