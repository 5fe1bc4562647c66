"""Advantage actor-critic (A2C) agent: on-policy, batch updates from
worker-collected rollouts with host-side discounted returns."""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.agents.agent import AGENTS, Agent, LearnerRoot
from repro.components.loss_functions import ActorCriticLoss
from repro.components.policies import Policy
from repro.components.preprocessing import PreprocessorStack
from repro.core import Component, rlgraph_api
from repro.spaces import FloatBox, IntBox

_UINT31 = 2**31 - 1


def discounted_returns(rewards, terminals, discount: float,
                       bootstrap_value: float = 0.0) -> np.ndarray:
    """Host-side discounted return computation over a rollout."""
    rewards = np.asarray(rewards, dtype=np.float32)
    terminals = np.asarray(terminals, dtype=bool)
    out = np.empty_like(rewards)
    acc = float(bootstrap_value)
    for t in range(len(rewards) - 1, -1, -1):
        if terminals[t]:
            acc = 0.0
        acc = rewards[t] + discount * acc
        out[t] = acc
    return out


class ActorCriticRoot(LearnerRoot):
    STEP_API = "update_from_batch"

    def __init__(self, agent: "ActorCriticAgent", scope="a2c-agent", **kwargs):
        super().__init__(scope=scope, **kwargs)
        cfg = agent.config
        self.preprocessor = PreprocessorStack(cfg["preprocessing_spec"],
                                              scope="preprocessor")
        self.policy = Policy(cfg["network_spec"], agent.action_space,
                             value_head=True, scope="policy")
        self.loss = ActorCriticLoss(value_coeff=cfg["value_coeff"],
                                    entropy_coeff=cfg["entropy_coeff"],
                                    scope="loss")
        self.add_optimizer(cfg["optimizer_spec"], self.policy)
        self.add_components(self.preprocessor, self.policy, self.loss,
                            self.optimizer)

    @rlgraph_api
    def get_actions(self, states, time_step):
        preprocessed = self.preprocessor.preprocess(states)
        actions = self.policy.get_action(preprocessed)
        return actions, preprocessed

    @rlgraph_api
    def get_greedy_actions(self, states, time_step):
        preprocessed = self.preprocessor.preprocess(states)
        actions = self.policy.get_deterministic_action(preprocessed)
        return actions, preprocessed

    def compose_loss(self, next_states, actions, returns):
        """``(total, policy_loss, value_loss)``. `next_states` carries
        the already-preprocessed rollout states (naming matches the
        shared agent input-space convention)."""
        log_probs = self.policy.get_action_log_probs(next_states, actions)
        values = self.policy.get_state_values(next_states)
        entropies = self.policy.get_entropy(next_states)
        return self.loss.get_loss(log_probs, values, returns, entropies)


@AGENTS.register("a2c", aliases=["actor_critic"])
class ActorCriticAgent(Agent):
    """A2C with host-side return computation (GAE omitted for clarity)."""

    DEFAULT_CONFIG = {
        "network_spec": [{"type": "dense", "units": 128,
                          "activation": "tanh"}],
        "preprocessing_spec": [],
        "value_coeff": 0.5,
        "entropy_coeff": 0.01,
        "optimizer_spec": {"type": "adam", "learning_rate": 1e-3},
    }
    #: On-policy update from a rollout batch with precomputed returns
    #: (``states`` already preprocessed).
    UPDATE_FEED = (("states", None), ("actions", None),
                   ("returns", np.float32))

    def build_root(self) -> Component:
        return ActorCriticRoot(self)

    def input_spaces(self) -> Dict[str, Any]:
        return {
            "states": self.state_space.with_batch_rank(),
            "time_step": IntBox(low=0, high=_UINT31),
            "next_states": self.preprocessed_space().with_batch_rank(),
            "actions": self.action_space.with_batch_rank(),
            "returns": FloatBox(add_batch_rank=True),
        }

    def get_actions(self, states, explore: bool = True, preprocess: bool = True):
        states, single = self._batch_states(states)
        api = "get_actions" if explore else "get_greedy_actions"
        actions, preprocessed = self.call_api(api, states,
                                              np.asarray(self.timesteps))
        self.timesteps += len(states)
        if single:
            return np.asarray(actions)[0], preprocessed[0]
        return np.asarray(actions), preprocessed
