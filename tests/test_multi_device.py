"""Multi-device (sync replica) strategy tests — the Fig. 8 mechanism.

Because the DQN loss is a batch mean, averaging two half-batch tower
gradients must equal the full-batch gradient exactly, so a 2-device
update from the same weights must land on the same weights as a
1-device update on the same batch.
"""

import numpy as np
import pytest

from repro.agents import DQNAgent
from repro.backend import XGRAPH, XTAPE
from repro.spaces import IntBox


def _agent(num_devices, backend, seed=7):
    return DQNAgent(
        state_space=(8,), action_space=IntBox(3),
        network_spec=[{"type": "dense", "units": 16}],
        double_q=False, huber_delta=None, num_devices=num_devices,
        sync_interval=0, memory_capacity=64,
        optimizer_spec={"type": "sgd", "learning_rate": 0.1},
        backend=backend, seed=seed)


def _batch(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "states": rng.standard_normal((n, 8)).astype(np.float32),
        "actions": rng.integers(0, 3, n),
        "rewards": rng.normal(size=n).astype(np.float32),
        "terminals": np.zeros(n, bool),
        "next_states": rng.standard_normal((n, 8)).astype(np.float32),
    }


@pytest.fixture(params=[XGRAPH, XTAPE])
def backend(request):
    return request.param


class TestMultiDevice:
    def test_tower_averaging_matches_full_batch(self, backend):
        single = _agent(1, backend)
        double = _agent(2, backend)
        # Same seed -> identical initial weights.
        for key, value in single.get_weights().items():
            np.testing.assert_allclose(double.get_weights()[key], value)

        batch = _batch()
        single.update(batch)
        double.update(batch)
        w1, w2 = single.get_weights(), double.get_weights()
        for key in w1:
            np.testing.assert_allclose(w1[key], w2[key], atol=1e-5,
                                       err_msg=key)

    def test_towers_train_on_their_slice_of_the_importance_weights(
            self, backend):
        """Regression: the towers used to be fed ``ones_like(rewards)``,
        so prioritized/external weights were silently dropped whenever
        ``num_devices > 1``."""
        batch = dict(_batch(), importance_weights=np.linspace(
            0.1, 2.0, 8, dtype=np.float32))
        single, double = _agent(1, backend), _agent(2, backend)
        loss1, td1 = single.update(batch)
        loss2, td2 = double.update(batch)
        np.testing.assert_allclose(loss2, loss1, rtol=1e-5)
        np.testing.assert_allclose(td2, td1, atol=1e-5)
        w1, w2 = single.get_weights(), double.get_weights()
        for key in w1:
            np.testing.assert_allclose(w1[key], w2[key], atol=1e-5,
                                       err_msg=key)

    def test_two_device_update_returns_all_tds(self, backend):
        agent = _agent(2, backend)
        loss, td = agent.update(_batch(8))
        assert np.isfinite(loss)
        assert td.shape == (8,)

    def test_tower_components_on_distinct_devices(self):
        agent = _agent(2, XGRAPH)
        devices = {s.resolved_device() for s in agent.root.tower_splitters}
        assert devices == {"/sim:gpu:0", "/sim:gpu:1"}

    def test_multi_device_learns(self, backend):
        """End-to-end: training exclusively through the 2-tower external
        update path still solves the corridor GridWorld."""
        from repro.components.memories import ReplayBuffer
        from repro.environments import GridWorld

        env = GridWorld("corridor", max_steps=20, seed=0)
        agent = DQNAgent(
            state_space=env.state_space, action_space=env.action_space,
            network_spec=[{"type": "dense", "units": 32}],
            num_devices=2, batch_size=32, memory_capacity=64,
            discount=0.9, sync_interval=20,
            optimizer_spec={"type": "adam", "learning_rate": 3e-3},
            epsilon_spec={"type": "linear", "from_": 1.0, "to_": 0.05,
                          "num_timesteps": 600},
            backend=backend, seed=2)
        buf = ReplayBuffer(capacity=1000, seed=0)
        state = env.reset()
        for step in range(1500):
            action, pre = agent.get_actions(state)
            next_state, reward, terminal, _ = env.step(action)
            buf.insert({"states": pre[None], "actions": np.asarray([action]),
                        "rewards": np.asarray([reward], np.float32),
                        "terminals": np.asarray([terminal]),
                        "next_states": np.asarray(next_state,
                                                  np.float32)[None]})
            state = env.reset() if terminal else next_state
            if step > 100 and step % 2 == 0:
                agent.update(buf.sample(32))
        # Greedy rollout reaches the goal.
        state = env.reset()
        for _ in range(20):
            action, _ = agent.get_actions(state, explore=False)
            state, reward, terminal, _ = env.step(action)
            if terminal:
                break
        assert terminal and reward == 1.0
