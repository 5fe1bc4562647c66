"""PPO agent: clipped-surrogate updates with multiple epochs per batch."""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.agents.agent import AGENTS, Agent, LearnerRoot
from repro.agents.actor_critic_agent import discounted_returns
from repro.components.loss_functions import PPOLoss
from repro.components.policies import Policy
from repro.components.preprocessing import PreprocessorStack
from repro.core import Component, rlgraph_api
from repro.spaces import FloatBox, IntBox
from repro.utils.errors import RLGraphError

_UINT31 = 2**31 - 1


class PPORoot(LearnerRoot):
    STEP_API = "update_from_batch"

    def __init__(self, agent: "PPOAgent", scope="ppo-agent", **kwargs):
        super().__init__(scope=scope, **kwargs)
        cfg = agent.config
        self.preprocessor = PreprocessorStack(cfg["preprocessing_spec"],
                                              scope="preprocessor")
        self.policy = Policy(cfg["network_spec"], agent.action_space,
                             value_head=True, scope="policy")
        self.loss = PPOLoss(clip_ratio=cfg["clip_ratio"],
                            value_coeff=cfg["value_coeff"],
                            entropy_coeff=cfg["entropy_coeff"], scope="loss")
        self.add_optimizer(cfg["optimizer_spec"], self.policy)
        self.add_components(self.preprocessor, self.policy, self.loss,
                            self.optimizer)

    @rlgraph_api
    def act_with_log_probs(self, states, time_step):
        """Returns (actions, log_probs, values, preprocessed) for rollout
        collection — PPO needs behaviour log-probs for the ratio."""
        preprocessed = self.preprocessor.preprocess(states)
        actions = self.policy.get_action(preprocessed)
        log_probs = self.policy.get_action_log_probs(preprocessed, actions)
        values = self.policy.get_state_values(preprocessed)
        return actions, log_probs, values, preprocessed

    @rlgraph_api
    def get_greedy_actions(self, states, time_step):
        preprocessed = self.preprocessor.preprocess(states)
        actions = self.policy.get_deterministic_action(preprocessed)
        return actions, preprocessed

    def compose_loss(self, next_states, actions, old_log_probs, advantages,
                     returns):
        """The clipped-surrogate loss: ``(total, policy_loss)``."""
        log_probs = self.policy.get_action_log_probs(next_states, actions)
        values = self.policy.get_state_values(next_states)
        entropies = self.policy.get_entropy(next_states)
        return self.loss.get_loss(
            log_probs, old_log_probs, advantages, values, returns, entropies)


@AGENTS.register("ppo")
class PPOAgent(Agent):
    """PPO (Schulman et al. 2017) with multi-epoch minibatch updates."""

    DEFAULT_CONFIG = {
        "network_spec": [{"type": "dense", "units": 128,
                          "activation": "tanh"}],
        "preprocessing_spec": [],
        "clip_ratio": 0.2,
        "value_coeff": 0.5,
        "entropy_coeff": 0.01,
        "epochs": 4,
        "minibatch_size": 64,
        "optimizer_spec": {"type": "adam", "learning_rate": 3e-4},
    }
    #: ``batch``: states (preprocessed), actions, old_log_probs, and
    #: either returns/advantages or what :meth:`_prepare_batch` derives
    #: them from (rewards + terminals, values).
    UPDATE_FEED = (("states", None), ("actions", None),
                   ("old_log_probs", np.float32),
                   ("advantages", np.float32), ("returns", np.float32))

    def build_root(self) -> Component:
        return PPORoot(self)

    def input_spaces(self) -> Dict[str, Any]:
        return {
            "states": self.state_space.with_batch_rank(),
            "time_step": IntBox(low=0, high=_UINT31),
            "next_states": self.preprocessed_space().with_batch_rank(),
            "actions": self.action_space.with_batch_rank(),
            "old_log_probs": FloatBox(add_batch_rank=True),
            "advantages": FloatBox(add_batch_rank=True),
            "returns": FloatBox(add_batch_rank=True),
        }

    def get_actions(self, states, explore: bool = True, preprocess: bool = True):
        """Returns (actions, log_probs, values, preprocessed)."""
        states, single = self._batch_states(states)
        if explore:
            out = self.call_api("act_with_log_probs", states,
                                np.asarray(self.timesteps))
        else:
            actions, preprocessed = self.call_api(
                "get_greedy_actions", states, np.asarray(self.timesteps))
            out = (actions, np.zeros(len(states), np.float32),
                   np.zeros(len(states), np.float32), preprocessed)
        self.timesteps += len(states)
        return out

    def _prepare_batch(self, batch: Dict) -> Dict:
        """Returns and normalized advantages. The normalization is a
        statistic of *this* batch — when a learner group shards the
        batch it becomes per-shard (documented group semantics)."""
        if "returns" in batch:
            returns = np.asarray(batch["returns"], np.float32)
        else:
            returns = discounted_returns(batch["rewards"], batch["terminals"],
                                         self.discount)
        if "advantages" in batch:
            advantages = np.asarray(batch["advantages"], np.float32)
        else:
            advantages = returns - np.asarray(batch["values"], np.float32)
        advantages = ((advantages - advantages.mean())
                      / (advantages.std() + 1e-8))
        return {**batch, "returns": returns, "advantages": advantages}

    def update(self, batch: Optional[Dict] = None):
        """Multi-epoch minibatch PPO update; returns the mean total
        loss. (:meth:`get_gradients` is one pass over the whole prepared
        batch — learner groups shard it instead of looping.)"""
        if batch is None:
            raise RLGraphError("PPO is on-policy; pass a rollout batch")
        feed = self.update_feed(batch)
        n = len(feed[0])
        mb = min(self.config["minibatch_size"], n)
        rng = self.seeds.rng("ppo-minibatch", self.updates)
        losses = []
        for _ in range(self.config["epochs"]):
            order = rng.permutation(n)
            for start in range(0, n, mb):
                idx = order[start:start + mb]
                total, _ = self.call_api("update_from_batch",
                                         *[x[idx] for x in feed])
                losses.append(float(np.asarray(total)))
        self._count_update()
        return float(np.mean(losses))
