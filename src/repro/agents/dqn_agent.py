"""DQN-family agents: vanilla/double/dueling DQN with uniform or
prioritized replay, and the Ape-X learner/actor variant.

The root component reproduces the paper's running example: a dueling DQN
with prioritized replay builds to roughly the "43 components" measured in
Fig. 5a, and the API methods mirror Fig. 3 (update samples from memory,
splits the record, feeds the loss, steps the optimizer).
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.backend import functional as F
from repro.components.common import ContainerSplitter, Synchronizer
from repro.components.explorations import EpsilonGreedy
from repro.components.loss_functions import DQNLoss
from repro.components.memories import PrioritizedReplay, ReplayMemory
from repro.components.policies import Policy
from repro.components.preprocessing import PreprocessorStack
from repro.core import Component, graph_fn, rlgraph_api
from repro.agents.agent import AGENTS, Agent, LearnerRoot, api_like
from repro.spaces import BoolBox, Dict as DictSpace, FloatBox, IntBox
from repro.utils.errors import RLGraphError

_UINT31 = 2**31 - 1

DEFAULT_NETWORK = [{"type": "dense", "units": 256, "activation": "relu"},
                   {"type": "dense", "units": 256, "activation": "relu"}]


#: Keys of a transition record / of a tower's shard, in the order of
#: the loss inputs.
RECORD_KEYS = ("states", "actions", "rewards", "terminals", "next_states")
SHARD_KEYS = (*RECORD_KEYS, "importance_weights")


class DQNRoot(LearnerRoot):
    """Root component wiring preprocessor, policies, memory, loss, opt."""

    def __init__(self, agent: "DQNAgent", scope: str = "dqn-agent", **kwargs):
        super().__init__(scope=scope, **kwargs)
        self.agent = agent
        cfg = agent.config

        self.preprocessor = PreprocessorStack(cfg["preprocessing_spec"],
                                              scope="preprocessor")
        network_spec = cfg["network_spec"]
        self.policy = Policy(network_spec, agent.action_space,
                             dueling=cfg["dueling"], scope="policy")
        self.target_policy = Policy(
            _clone_network_spec(network_spec), agent.action_space,
            dueling=cfg["dueling"], scope="target-policy")
        self.exploration = EpsilonGreedy(
            num_actions=agent.action_space.num_categories,
            epsilon_spec=cfg["epsilon_spec"])
        memory_cls = (PrioritizedReplay if cfg["prioritized_replay"]
                      else ReplayMemory)
        memory_kwargs = dict(capacity=cfg["memory_capacity"], scope="memory")
        if cfg["prioritized_replay"]:
            memory_kwargs.update(alpha=cfg["alpha"], beta=cfg["beta"])
        self.memory = memory_cls(**memory_kwargs)
        self.splitter = ContainerSplitter(*RECORD_KEYS,
                                          scope="record-splitter")
        self.dqn_loss = DQNLoss(
            num_actions=agent.action_space.num_categories,
            discount=agent.discount, double_q=cfg["double_q"],
            huber_delta=cfg["huber_delta"], n_step=cfg["n_step"],
            scope="loss")
        self.add_optimizer(cfg["optimizer_spec"], self.policy)
        self.synchronizer = Synchronizer(self.policy, self.target_policy,
                                         scope="target-synchronizer")
        components = [self.preprocessor, self.policy, self.target_policy,
                      self.exploration, self.memory, self.splitter,
                      self.dqn_loss, self.optimizer, self.synchronizer]
        # Synchronous multi-device strategy (paper §4.1): the executor
        # expands the graph with a batch splitter; per-tower losses feed
        # gradient averaging in the optimizer.
        self.num_devices = int(cfg.get("num_devices", 1))
        if self.num_devices > 1:
            from repro.components.common import BatchSplitter
            self.batch_splitter = BatchSplitter(self.num_devices,
                                                scope="device-batch-splitter")
            self.tower_splitters = [
                ContainerSplitter(*SHARD_KEYS, scope=f"tower-{i}-splitter",
                                  device=f"/sim:gpu:{i}")
                for i in range(self.num_devices)]
            components.append(self.batch_splitter)
            components.extend(self.tower_splitters)
        self.add_components(*components)

    # -- acting --------------------------------------------------------------
    @rlgraph_api
    def get_actions(self, states, time_step):
        preprocessed = self.preprocessor.preprocess(states)
        q_values = self.policy.get_q_values(preprocessed)
        greedy = self._graph_fn_argmax(q_values)
        actions = self.exploration.get_action(greedy, time_step)
        return actions, preprocessed

    @rlgraph_api
    def get_greedy_actions(self, states, time_step):
        preprocessed = self.preprocessor.preprocess(states)
        q_values = self.policy.get_q_values(preprocessed)
        greedy = self._graph_fn_argmax(q_values)
        return greedy, preprocessed

    @graph_fn(requires_variables=False)
    def _graph_fn_argmax(self, q_values):
        return F.argmax(q_values, axis=-1)

    # -- observing ------------------------------------------------------------
    @rlgraph_api
    def insert_records(self, records):
        return self.memory.insert_records(records)

    # -- updating ----------------------------------------------------------------
    def compose_loss(self, preprocessed_states, actions, rewards, terminals,
                     next_states, importance_weights):
        """The DQN loss composition — ``(loss, td)`` — that every
        learner endpoint of this root goes through."""
        q_values = self.policy.get_q_values(preprocessed_states)
        q_next = self.policy.get_q_values(next_states)
        q_next_target = self.target_policy.get_q_values(next_states)
        return self.dqn_loss.get_loss(q_values, actions, rewards, terminals,
                                      q_next, q_next_target,
                                      importance_weights)

    # TD errors without an optimizer step (worker-side prioritization,
    # Ape-X heuristic).
    get_td_errors = api_like(
        compose_loss, "get_td_errors",
        lambda self, *inputs: self.compose_loss(*inputs)[1])

    @rlgraph_api
    def update_from_memory(self, batch_size):
        sample, indices, importance_weights = self.memory.get_records(
            batch_size)
        loss, td = self.compose_loss(*self.splitter.split(sample),
                                     importance_weights)
        step_op = self.optimizer.step(loss)
        prio = (self.memory.update_records(indices, td)
                if self.agent.config["prioritized_replay"] else None)
        return self._graph_fn_total(loss, step_op, prio), td

    def loss_and_step(self, *inputs):
        if self.num_devices == 1:
            return super().loss_and_step(*inputs)
        # Split the batch over simulated devices; average tower grads.
        shards = self.batch_splitter.split(self._graph_fn_pack(*inputs))
        losses, tds = zip(*[
            self.compose_loss(*splitter.split(shard))
            for splitter, shard in zip(self.tower_splitters, shards)])
        step_op = self.optimizer.step_towers(*losses)
        loss = self._graph_fn_mean_losses(*losses)
        return (self._graph_fn_total(loss, step_op),
                self._graph_fn_concat_tds(*tds))

    @graph_fn(requires_variables=False)
    def _graph_fn_pack(self, *inputs):
        return dict(zip(SHARD_KEYS, inputs))

    @graph_fn(requires_variables=False)
    def _graph_fn_mean_losses(self, *losses):
        total = losses[0]
        for l in losses[1:]:
            total = F.add(total, l)
        return F.div(total, float(len(losses)))

    @graph_fn(requires_variables=False)
    def _graph_fn_concat_tds(self, *tds):
        return F.concat(list(tds), axis=0)

    # -- target sync -----------------------------------------------------------
    @rlgraph_api
    def sync_target(self):
        return self.synchronizer.sync()


def _clone_network_spec(spec):
    """Deep-copy a network spec so online/target nets get separate layers."""
    import copy
    from repro.components.neural_networks import NeuralNetwork
    if isinstance(spec, NeuralNetwork):
        raise RLGraphError(
            "Pass a layer-spec (list/path), not a NeuralNetwork instance, "
            "so the target network can be cloned")
    return copy.deepcopy(spec)


@AGENTS.register("dqn")
class DQNAgent(Agent):
    """DQN (Mnih et al. 2015) with the paper's standard extensions.

    Config keys (kwargs): network_spec, preprocessing_spec, dueling,
    double_q, prioritized_replay, alpha, beta, n_step, memory_capacity,
    batch_size, optimizer_spec, epsilon_spec, sync_interval, huber_delta.
    """

    ROOT_SCOPE = "dqn-agent"
    DEFAULT_CONFIG = {
        "network_spec": DEFAULT_NETWORK,
        "preprocessing_spec": [],
        "dueling": False,
        "double_q": True,
        "prioritized_replay": False,
        "alpha": 0.6,
        "beta": 0.4,
        "n_step": 1,
        "memory_capacity": 10_000,
        "batch_size": 32,
        "optimizer_spec": {"type": "adam", "learning_rate": 1e-3},
        "epsilon_spec": {"type": "linear", "from_": 1.0, "to_": 0.05,
                         "num_timesteps": 10_000},
        "sync_interval": 10,
        "huber_delta": 1.0,
        "num_devices": 1,
    }
    UPDATE_FEED = (("states", None), ("actions", None),
                   ("rewards", np.float32), ("terminals", bool),
                   ("next_states", None), ("importance_weights", np.float32))
    SYNC_API = "sync_target"

    def __init__(self, state_space, action_space, **kwargs):
        super().__init__(state_space, action_space, **kwargs)
        if not isinstance(self.action_space, IntBox):
            raise RLGraphError("DQN requires a discrete (IntBox) action space")

    # -- wiring ---------------------------------------------------------------
    def build_root(self) -> Component:
        return DQNRoot(self, scope=self.ROOT_SCOPE)

    def input_spaces(self) -> Dict[str, Any]:
        preprocessed = self.preprocessed_space().with_batch_rank()
        records = DictSpace(
            states=preprocessed.strip_ranks(),
            actions=self.action_space.strip_ranks(),
            rewards=FloatBox(),
            terminals=BoolBox(),
            next_states=preprocessed.strip_ranks(),
            add_batch_rank=True,
        )
        return {
            "states": self.state_space.with_batch_rank(),
            "preprocessed_states": preprocessed,
            "time_step": IntBox(low=0, high=_UINT31),
            "records": records,
            "batch_size": IntBox(low=0, high=_UINT31),
            "importance_weights": FloatBox(add_batch_rank=True),
            "actions": self.action_space.with_batch_rank(),
            "rewards": FloatBox(add_batch_rank=True),
            "terminals": BoolBox(add_batch_rank=True),
            "next_states": preprocessed,
        }

    # -- API ----------------------------------------------------------------------
    def get_actions(self, states, explore: bool = True,
                    preprocess: bool = True):
        """Act on a batch of states; returns (actions, preprocessed)."""
        states, single = self._batch_states(states)
        api = "get_actions" if explore else "get_greedy_actions"
        actions, preprocessed = self.call_api(api, states,
                                              np.asarray(self.timesteps))
        self.timesteps += len(states)
        if single:
            return int(actions[0]), preprocessed[0]
        return np.asarray(actions), preprocessed

    def _insert_records(self, records: Dict[str, np.ndarray]) -> None:
        self.call_api("insert_records", records)

    def _memory_feed(self):
        return (np.asarray(self.config["batch_size"]),)

    def _prepare_batch(self, batch: Dict) -> Dict:
        if batch.get("importance_weights") is None:
            batch = {**batch, "importance_weights":
                     np.ones(len(batch["rewards"]), np.float32)}
        return batch

    def sync_target(self):
        self.call_api("sync_target")


@AGENTS.register("apex")
class ApexAgent(DQNAgent):
    """Ape-X configuration of DQN (Horgan et al. 2018, paper §5.1).

    Same graph as DQN but defaults match the distributed setting: dueling
    + double-Q + n-step worker-side targets + prioritized semantics. The
    distributed replay itself lives in raylite actors
    (:mod:`repro.execution.ray.apex_executor`); the learner trains through
    ``update_from_external`` on batches pulled from those shards.
    """

    ROOT_SCOPE = "apex-agent"
    DEFAULT_CONFIG = {
        **DQNAgent.DEFAULT_CONFIG, "dueling": True, "double_q": True,
        "n_step": 3,
        "prioritized_replay": False,  # shards hold priorities
        "memory_capacity": 4,  # in-graph memory unused
    }
