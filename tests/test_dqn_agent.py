"""DQN agent tests: build, act, observe, update, sync, learning."""

import numpy as np
import pytest

from repro.agents import ApexAgent, DQNAgent
from repro.backend import XGRAPH, XTAPE, native
from repro.environments import GridWorld
from repro.spaces import FloatBox, IntBox
from repro.utils import RLGraphError


@pytest.fixture(params=[XGRAPH, XTAPE])
def backend(request):
    return request.param


def make_agent(backend, **kwargs):
    defaults = dict(
        state_space=FloatBox(shape=(16,)),
        action_space=IntBox(4),
        network_spec=[{"type": "dense", "units": 32}],
        memory_capacity=256,
        batch_size=16,
        backend=backend,
        seed=11,
        epsilon_spec={"type": "linear", "from_": 1.0, "to_": 0.0,
                      "num_timesteps": 500},
    )
    defaults.update(kwargs)
    return DQNAgent(**defaults)


class TestBuildAndAct:
    def test_act_shapes_and_range(self, backend):
        agent = make_agent(backend)
        states = np.random.default_rng(0).standard_normal((5, 16)).astype(np.float32)
        actions, preprocessed = agent.get_actions(states)
        assert actions.shape == (5,)
        assert np.all((actions >= 0) & (actions < 4))
        assert preprocessed.shape == (5, 16)
        assert agent.timesteps == 5

    def test_single_state_act(self, backend):
        agent = make_agent(backend)
        action, _ = agent.get_actions(np.zeros(16, np.float32))
        assert isinstance(action, int)

    def test_greedy_vs_explore(self, backend):
        agent = make_agent(backend)
        states = np.zeros((50, 16), np.float32)
        greedy, _ = agent.get_actions(states, explore=False)
        assert len(set(greedy.tolist())) == 1  # same state -> same argmax

    def test_build_stats(self, backend):
        agent = make_agent(backend)
        assert agent.build_stats.num_components > 10
        assert agent.build_stats.trace_time > 0

    def test_non_discrete_action_space_rejected(self, backend):
        with pytest.raises(RLGraphError):
            DQNAgent(state_space=(4,), action_space=FloatBox(shape=(2,)),
                     backend=backend, auto_build=False)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(RLGraphError):
            make_agent(XGRAPH, bogus_flag=True)


class TestObserveUpdate:
    def _fill_memory(self, agent, n=64):
        rng = np.random.default_rng(1)
        for i in range(n):
            agent.observe(
                state=rng.standard_normal(16).astype(np.float32),
                action=int(rng.integers(0, 4)),
                reward=float(rng.normal()),
                terminal=bool(rng.random() < 0.1),
                next_state=rng.standard_normal(16).astype(np.float32))
        agent.flush_observations()

    def test_update_from_memory(self, backend):
        agent = make_agent(backend)
        self._fill_memory(agent)
        loss, td = agent.update()
        assert np.isfinite(loss)
        assert td.shape == (16,)
        assert agent.updates == 1

    def test_update_changes_weights(self, backend):
        agent = make_agent(backend)
        self._fill_memory(agent)
        before = agent.get_weights()
        agent.update()
        after = agent.get_weights()
        changed = any(not np.allclose(before[k], after[k]) for k in before)
        assert changed

    def test_update_from_external_batch(self, backend):
        agent = make_agent(backend)
        rng = np.random.default_rng(2)
        batch = {
            "states": rng.standard_normal((8, 16)).astype(np.float32),
            "actions": rng.integers(0, 4, 8),
            "rewards": rng.normal(size=8).astype(np.float32),
            "terminals": np.zeros(8, bool),
            "next_states": rng.standard_normal((8, 16)).astype(np.float32),
        }
        loss, td = agent.update(batch)
        assert np.isfinite(loss) and td.shape == (8,)

    def test_sync_copies_weights(self, backend):
        agent = make_agent(backend, sync_interval=0)  # manual sync only
        policy_w = agent.root.policy.get_weights()
        # Perturb online policy, then sync.
        perturbed = {k: v + 1.0 for k, v in policy_w.items()}
        agent.root.policy.set_weights(perturbed)
        agent.sync_target()
        target_w = agent.root.target_policy.get_weights()
        for key, value in perturbed.items():
            target_key = key.replace("/policy/", "/target-policy/")
            np.testing.assert_allclose(target_w[target_key], value)

    def test_prioritized_variant_updates(self, backend):
        agent = make_agent(backend, prioritized_replay=True)
        self._fill_memory(agent)
        loss, td = agent.update()
        assert np.isfinite(loss)

    def test_export_import_roundtrip(self, backend, tmp_path):
        agent = make_agent(backend)
        self._fill_memory(agent)
        agent.update()
        path = str(tmp_path / "model.pkl")
        agent.export_model(path)
        clone = make_agent(backend)
        clone.import_model(path)
        w1, w2 = agent.get_weights(), clone.get_weights()
        for key in w1:
            np.testing.assert_allclose(w1[key], w2[key])


class TestLearning:
    @pytest.mark.parametrize("backend", [XGRAPH, XTAPE])
    def test_learns_gridworld(self, backend):
        """DQN must solve the 4x4 GridWorld (reach goal reliably)."""
        env = GridWorld("4x4", max_steps=30, seed=0)
        agent = DQNAgent(
            state_space=env.state_space, action_space=env.action_space,
            network_spec=[{"type": "dense", "units": 64}],
            memory_capacity=2000, batch_size=64, backend=backend, seed=5,
            double_q=True, sync_interval=25, discount=0.95,
            optimizer_spec={"type": "adam", "learning_rate": 3e-3},
            epsilon_spec={"type": "linear", "from_": 1.0, "to_": 0.05,
                          "num_timesteps": 2000},
            observe_flush_size=8)
        state = env.reset()
        for step in range(5000):
            action, _ = agent.get_actions(state)
            next_state, reward, terminal, _ = env.step(action)
            agent.observe(state, action, reward, terminal, next_state)
            state = env.reset() if terminal else next_state
            if step > 200 and step % 2 == 0:
                agent.update()
        # Greedy rollouts must reach the goal reliably.
        successes = 0
        for _ in range(5):
            state = env.reset()
            for _ in range(30):
                action, _ = agent.get_actions(state, explore=False)
                state, reward, terminal, _ = env.step(action)
                if terminal:
                    break
            successes += int(terminal and reward == 1.0)
        assert successes >= 4, f"greedy success rate too low: {successes}/5"


class TestApexAgent:
    def test_defaults(self):
        agent = ApexAgent(state_space=(8,), action_space=IntBox(3),
                          network_spec=[{"type": "dense", "units": 16}],
                          auto_build=False)
        assert agent.config["dueling"] is True
        assert agent.config["n_step"] == 3

    def test_external_update_path(self, backend):
        agent = ApexAgent(state_space=(8,), action_space=IntBox(3),
                          network_spec=[{"type": "dense", "units": 16}],
                          backend=backend, seed=3)
        rng = np.random.default_rng(0)
        batch = {
            "states": rng.standard_normal((4, 8)).astype(np.float32),
            "actions": rng.integers(0, 3, 4),
            "rewards": rng.normal(size=4).astype(np.float32),
            "terminals": np.zeros(4, bool),
            "next_states": rng.standard_normal((4, 8)).astype(np.float32),
            "importance_weights": np.ones(4, np.float32),
        }
        loss, td = agent.update(batch)
        assert np.isfinite(loss) and len(td) == 4

    @pytest.mark.parametrize("optimize", [
        "basic", "fused", pytest.param("native", marks=pytest.mark.native)])
    def test_td_errors_agree_across_learner_endpoints(self, backend,
                                                      optimize):
        """The Ape-X invariant: on the same weights and batch, the
        worker-side ``get_td_errors`` (priorities), ``compute_gradients``
        (learner groups) and the in-graph update report the same TD
        errors — all three derive from one loss composition."""
        if optimize == "native" and not native.toolchain_available():
            pytest.skip("no C toolchain")
        agent = ApexAgent(state_space=(8,), action_space=IntBox(3),
                          network_spec=[{"type": "dense", "units": 16}],
                          backend=backend, optimize=optimize, seed=3)
        rng = np.random.default_rng(0)
        batch = {
            "states": rng.standard_normal((6, 8)).astype(np.float32),
            "actions": rng.integers(0, 3, 6),
            "rewards": rng.normal(size=6).astype(np.float32),
            "terminals": rng.random(6) < 0.3,
            "next_states": rng.standard_normal((6, 8)).astype(np.float32),
            "importance_weights": rng.uniform(0.2, 1.5, 6).astype(np.float32),
        }
        td_worker = np.asarray(agent.call_api(
            "get_td_errors", *agent.update_feed(batch)))
        _, stats = agent.get_gradients(batch)
        _, td_update = agent.update(batch)
        assert np.any(td_worker != 0.0)
        for td in (stats["td"], td_update):
            if optimize == "basic":
                np.testing.assert_array_equal(td, td_worker)
            else:
                np.testing.assert_allclose(td, td_worker, rtol=1e-5,
                                           atol=1e-6)
