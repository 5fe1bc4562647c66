"""IMPALA agent (Espeholt et al. 2018; paper §5.1, Fig. 9).

Actors run the policy and enqueue fixed-length rollouts with behaviour
log-probs; the learner dequeues time-major (T, B, ...) batches, computes
v-trace corrected targets and applies one optimizer step. The shared
FIFO queue and the staging area live in the execution layer
(:mod:`repro.execution.impala_runner`); this module is the model graph.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.agents.agent import AGENTS, Agent, LearnerRoot
from repro.backend import functional as F
from repro.backend.ops import handle_shape
from repro.components.loss_functions import IMPALALoss
from repro.components.policies import Policy
from repro.components.preprocessing import PreprocessorStack
from repro.core import Component, graph_fn, rlgraph_api
from repro.spaces import BoolBox, FloatBox, IntBox
from repro.utils.errors import RLGraphError

_UINT31 = 2**31 - 1


class IMPALARoot(LearnerRoot):
    STEP_API = "update_from_rollout"

    def __init__(self, agent: "IMPALAAgent", scope="impala-agent", **kwargs):
        super().__init__(scope=scope, **kwargs)
        cfg = agent.config
        self.preprocessor = PreprocessorStack(cfg["preprocessing_spec"],
                                              scope="preprocessor")
        self.policy = Policy(cfg["network_spec"], agent.action_space,
                             value_head=True, scope="policy")
        self.loss = IMPALALoss(
            discount=agent.discount, value_coeff=cfg["value_coeff"],
            entropy_coeff=cfg["entropy_coeff"],
            clip_rho_threshold=cfg["clip_rho_threshold"],
            clip_pg_rho_threshold=cfg["clip_pg_rho_threshold"], scope="loss")
        self.add_optimizer(cfg["optimizer_spec"], self.policy)
        self.add_components(self.preprocessor, self.policy, self.loss,
                            self.optimizer)

    # -- actor side ------------------------------------------------------------
    @rlgraph_api
    def act_with_log_probs(self, states, time_step):
        preprocessed = self.preprocessor.preprocess(states)
        actions = self.policy.get_action(preprocessed)
        log_probs = self.policy.get_action_log_probs(preprocessed, actions)
        return actions, log_probs, preprocessed

    @rlgraph_api
    def get_greedy_actions(self, states, time_step):
        preprocessed = self.preprocessor.preprocess(states)
        actions = self.policy.get_deterministic_action(preprocessed)
        return actions, preprocessed

    # -- learner side -------------------------------------------------------------
    def compose_loss(self, rollout_states, rollout_actions,
                     behaviour_log_probs, rewards, terminals,
                     bootstrap_states):
        """The v-trace loss of a time-major rollout batch (or shard):
        ``(total, policy_loss, value_loss)``."""
        flat_states, flat_actions = self._graph_fn_fold_time(
            rollout_states, rollout_actions)
        log_probs_flat = self.policy.get_action_log_probs(flat_states,
                                                          flat_actions)
        values_flat = self.policy.get_state_values(flat_states)
        entropies_flat = self.policy.get_entropy(flat_states)
        bootstrap_values = self.policy.get_state_values(bootstrap_states)
        log_probs, values, entropies = self._graph_fn_unfold_time(
            log_probs_flat, values_flat, entropies_flat, rewards)
        return self.loss.get_loss(
            log_probs, behaviour_log_probs, values, bootstrap_values,
            rewards, terminals, entropies)

    @graph_fn(returns=2, requires_variables=False)
    def _graph_fn_fold_time(self, states, actions):
        """(T, B, ...) -> (T*B, ...) for batched network evaluation."""
        shape = handle_shape(states)
        if shape is None or any(d is None for d in shape[2:]):
            raise RLGraphError("fold_time needs known feature dims")
        flat_states = F.reshape(states, (-1,) + tuple(shape[2:]))
        flat_actions = F.reshape(actions, (-1,))
        return flat_states, flat_actions

    @graph_fn(returns=3, requires_variables=False)
    def _graph_fn_unfold_time(self, log_probs, values, entropies, ref):
        return (F.reshape_like(log_probs, ref), F.reshape_like(values, ref),
                F.reshape_like(entropies, ref))


@AGENTS.register("impala")
class IMPALAAgent(Agent):
    """Importance-weighted actor-learner agent."""

    DEFAULT_CONFIG = {
        "network_spec": [{"type": "dense", "units": 128,
                          "activation": "relu"}],
        "preprocessing_spec": [],
        "value_coeff": 0.5,
        "entropy_coeff": 0.01,
        "clip_rho_threshold": 1.0,
        "clip_pg_rho_threshold": 1.0,
        "rollout_length": 20,
        "optimizer_spec": {"type": "rmsprop", "learning_rate": 1e-3},
    }
    #: A time-major rollout dict: states (T,B,...), actions (T,B),
    #: behaviour_log_probs (T,B), rewards (T,B), terminals (T,B),
    #: bootstrap_states (B,...).
    UPDATE_FEED = (("states", None), ("actions", None),
                   ("behaviour_log_probs", np.float32),
                   ("rewards", np.float32), ("terminals", bool),
                   ("bootstrap_states", None))

    def build_root(self) -> Component:
        return IMPALARoot(self)

    def input_spaces(self) -> Dict[str, Any]:
        preprocessed = self.preprocessed_space()
        tm = dict(add_batch_rank=True, add_time_rank=True, time_major=True)
        return {
            "states": self.state_space.with_batch_rank(),
            "time_step": IntBox(low=0, high=_UINT31),
            "rollout_states": preprocessed.strip_ranks().with_extra_ranks(**tm),
            "rollout_actions": self.action_space.strip_ranks()
                                                .with_extra_ranks(**tm),
            "behaviour_log_probs": FloatBox(**tm),
            "rewards": FloatBox(**tm),
            "terminals": BoolBox(**tm),
            "bootstrap_states": preprocessed.with_batch_rank(),
        }

    def get_actions(self, states, explore: bool = True, preprocess: bool = True):
        """Returns (actions, log_probs, preprocessed)."""
        states, single = self._batch_states(states)
        if explore:
            out = self.call_api("act_with_log_probs", states,
                                np.asarray(self.timesteps))
        else:
            actions, preprocessed = self.call_api(
                "get_greedy_actions", states, np.asarray(self.timesteps))
            out = (actions, np.zeros(len(states), np.float32), preprocessed)
        self.timesteps += len(states)
        return out

    def shard_spec(self):
        """Rollout tensors are time-major (T, B, ...): learner groups
        shard along axis 1; ``bootstrap_states`` is (B, ...) and shards
        along axis 0 with the same boundaries."""
        return 1, {"bootstrap_states": 0}
