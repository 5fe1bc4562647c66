"""Tests for graph visualization (paper Appendix A) and the synchronous
batch executor (the paper's "other distributed semantics" claim)."""

import numpy as np
import pytest

from repro import raylite
from repro.agents import ActorCriticAgent, DQNAgent
from repro.backend import XGRAPH
from repro.environments import GridWorld
from repro.execution.sync_batch_executor import SyncBatchExecutor
from repro.spaces import IntBox
from repro.utils.visualize import component_tree, summarize, to_dot


def teardown_module(module):
    raylite.shutdown()


def _agent(**kw):
    return DQNAgent(state_space=(4,), action_space=IntBox(2),
                    network_spec=[{"type": "dense", "units": 8}],
                    backend=XGRAPH, seed=0,
                    device_map={"policy": "/sim:gpu:0"}, **kw)


class TestVisualization:
    def test_component_tree_structure(self):
        agent = _agent()
        tree = component_tree(agent.root)
        assert "dqn-agent" in tree
        assert "policy" in tree and "target-policy" in tree
        assert "var kernel" in tree
        assert "api get_q_values()" in tree
        assert "/sim:gpu:0" in tree  # device map surfaced

    def test_dot_output_well_formed(self):
        agent = _agent()
        dot = to_dot(agent.graph)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "cluster_" in dot
        assert "->" in dot
        # Every component cluster carries its device label.
        assert "/sim:gpu:0" in dot

    def test_dot_single_api_is_subset(self):
        agent = _agent()
        full = to_dot(agent.graph)
        act_only = to_dot(agent.graph, api_name="get_actions")
        assert len(act_only) < len(full)
        assert "epsilon-greedy" in act_only
        # The update path (loss/optimizer) is not in the act dataflow.
        assert "adam" not in act_only

    def test_summarize(self):
        agent = _agent()
        info = summarize(agent.graph)
        assert info["components"] > 10
        assert info["graph_fn_nodes"] > 10
        assert info["api_methods"] >= 5
        assert info["backend_nodes"] > 50
        assert info["devices"] >= 2  # cpu default + mapped gpu


class TestSyncBatchExecutor:
    def test_synchronous_a2c_learns_corridor(self):
        def env_factory(seed):
            return GridWorld("corridor", max_steps=20, seed=seed)

        def agent_factory(worker_index=None):
            return ActorCriticAgent(
                state_space=(8,), action_space=IntBox(4),
                network_spec=[{"type": "dense", "units": 32,
                               "activation": "tanh"}],
                entropy_coeff=0.02, discount=0.95,
                optimizer_spec={"type": "adam", "learning_rate": 5e-3},
                backend=XGRAPH,
                seed=4 + 31 * (worker_index if worker_index is not None
                               else 0))

        executor = SyncBatchExecutor(
            learner_agent=agent_factory(), agent_factory=agent_factory,
            env_factory=env_factory, num_workers=2, envs_per_worker=2,
            rollout_length=20, discount=0.95)
        result = executor.execute_workload(num_iterations=80)
        assert result["env_frames"] == 80 * 2 * 2 * 20
        assert result["learner_updates"] == 80
        assert all(np.isfinite(l) for l in result["losses"])
        assert result["mean_return"] is not None
        assert result["mean_return"] > 0.3, result["mean_return"]

    def test_a_barrier_without_rollouts_applies_no_update(self, monkeypatch):
        """An iteration whose gather returns no rollouts (every worker
        lost) skips its update; the result counts only updates that
        ran."""
        from repro.execution import sync_batch_executor

        def agent_factory(worker_index=None):
            return ActorCriticAgent(
                state_space=(8,), action_space=IntBox(4),
                network_spec=[{"type": "dense", "units": 8,
                               "activation": "tanh"}],
                backend=XGRAPH, seed=4)

        gather, barriers = sync_batch_executor.gather, []

        def gather_losing_the_second_barrier(handles, method, *args):
            if method == "rollout":
                barriers.append(method)
                if len(barriers) == 2:
                    return []
            return gather(handles, method, *args)

        monkeypatch.setattr(sync_batch_executor, "gather",
                            gather_losing_the_second_barrier)
        executor = SyncBatchExecutor(
            learner_agent=agent_factory(), agent_factory=agent_factory,
            env_factory=lambda seed: GridWorld("corridor", max_steps=20,
                                               seed=seed),
            num_workers=1, envs_per_worker=1, rollout_length=4)
        result = executor.execute_workload(num_iterations=3)
        assert len(barriers) == 3
        assert result["learner_updates"] == 2
        assert len(result["losses"]) == 2
        assert executor.learner.updates == 2
        assert executor._weights_version == 2
