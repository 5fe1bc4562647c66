"""Soft Actor-Critic (Haarnoja et al. 2018): the continuous-control agent.

The policy head is a tanh-squashed diagonal Gaussian
(:class:`~repro.components.policies.distributions.SquashedGaussian`), so
sampled actions always land inside the ``FloatBox`` bounds and the
log-prob carries the stable change-of-variables correction
``log(1 - tanh²(u)) = 2·(log2 − u − softplus(−2u))``. Twin Q critics
take ``concat([states, actions])``; the backup target is the min of the
two *target* critics minus the entropy bonus; target nets track the
online critics by Polyak averaging through the existing
:class:`~repro.components.common.synchronizer.Synchronizer`; the
temperature α is learned against an entropy target.

Unlike the discrete agents, SAC's update cannot be phrased as gradients
of one scalar loss over one variable list — the actor loss must not
update the critics and vice versa. The root therefore binds its
optimizer to three variable groups (policy, twin critics, temperature)
and its loss composition returns one objective per group; the optimizer
differentiates each objective w.r.t. its own group only and takes ONE
step over the joint list — so SAC goes through the same derived learner
endpoints as every other agent and inherits every ``optimize`` level and
the flat-slab learner-group machinery unchanged.

Reparameterization noise is generated HOST-side (``SeedStream`` keyed on
the update counter, or passed in the batch as ``noise``/``next_noise``)
rather than with in-graph ``random_normal`` nodes: the in-graph RNGs are
backend-specific, and host noise is what makes the parity matrix exact
across backends/optimize levels and checkpoint resume bitwise. Acting
still samples in-graph (exploration needs no cross-backend parity).

Batches shard row-major on axis 0 for every key (including the noise
keys), so the base :meth:`Agent.shard_spec` already describes SAC to
learner groups.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional

import numpy as np

from repro.backend import functional as F
from repro.backend.ops import handle_shape
from repro.components.common import ContainerSplitter, Synchronizer
from repro.components.memories import ReplayMemory
from repro.components.neural_networks.neural_network import NeuralNetwork
from repro.components.policies import Policy, SquashedGaussian
from repro.components.policies.policy import ValueHead
from repro.components.preprocessing import PreprocessorStack
from repro.core import Component, graph_fn, rlgraph_api
from repro.agents.agent import AGENTS, Agent, LearnerRoot
from repro.spaces import BoolBox, Dict as DictSpace, FloatBox, IntBox
from repro.spaces.space_utils import space_from_spec
from repro.utils.errors import RLGraphError

_UINT31 = 2**31 - 1

DEFAULT_NETWORK = [{"type": "dense", "units": 256, "activation": "relu"},
                   {"type": "dense", "units": 256, "activation": "relu"}]


class ContinuousQFunction(Component):
    """Q(s, a) for vector actions: torso over concat([s, a]) + scalar head."""

    def __init__(self, network_spec, scope: str = "q-function", **kwargs):
        super().__init__(scope=scope, **kwargs)
        self.network = NeuralNetwork(copy.deepcopy(network_spec))
        self.q_head = ValueHead(scope="q-head")
        self.add_components(self.network, self.q_head)

    @rlgraph_api
    def get_q_value(self, states, actions):
        state_actions = self._graph_fn_concat(states, actions)
        features = self.network.call(state_actions)
        return self.q_head.get_value(features)

    @graph_fn(requires_variables=False)
    def _graph_fn_concat(self, states, actions):
        return F.concat([states, F.cast(actions, np.float32)], axis=-1)


class Temperature(Component):
    """Holds the learned log-temperature log(α) as a trainable variable,
    so it joins the optimizer's flat slab like any network weight."""

    def __init__(self, initial_alpha: float = 1.0, scope: str = "temperature",
                 **kwargs):
        super().__init__(scope=scope, **kwargs)
        if initial_alpha <= 0.0:
            raise RLGraphError(
                f"SAC initial_alpha must be positive, got {initial_alpha}")
        self.initial_alpha = float(initial_alpha)
        self.log_alpha: Optional[Any] = None

    def create_variables(self, input_spaces):
        self.log_alpha = self.get_variable(
            "log-alpha", shape=(1,), dtype=np.float32, trainable=True,
            initializer=float(np.log(self.initial_alpha)))


class SACRoot(LearnerRoot):
    """Root component wiring policy, twin critics, targets, α, memory."""

    def __init__(self, agent: "SACAgent", scope: str = "sac-agent", **kwargs):
        super().__init__(scope=scope, **kwargs)
        self.agent = agent
        cfg = agent.config
        space = agent.action_space
        dim = agent.action_dim

        self.preprocessor = PreprocessorStack(cfg["preprocessing_spec"],
                                              scope="preprocessor")
        distribution = SquashedGaussian(dim, low=space.low, high=space.high)
        self.policy = Policy(cfg["network_spec"], space,
                             distribution=distribution, scope="policy")
        q_spec = cfg["q_network_spec"] or cfg["network_spec"]
        self.q1 = ContinuousQFunction(q_spec, scope="q1")
        self.q2 = ContinuousQFunction(q_spec, scope="q2")
        self.target_q1 = ContinuousQFunction(q_spec, scope="target-q1")
        self.target_q2 = ContinuousQFunction(q_spec, scope="target-q2")
        self.temperature = Temperature(cfg["initial_alpha"],
                                       scope="temperature")
        self.memory = ReplayMemory(capacity=cfg["memory_capacity"],
                                   scope="memory")
        self.splitter = ContainerSplitter(
            "states", "actions", "rewards", "terminals", "next_states",
            scope="record-splitter")
        # One variable group per objective compose_loss returns.
        self.add_optimizer(cfg["optimizer_spec"], self.policy,
                           (self.q1, self.q2), self.temperature)
        # Per-critic Polyak trackers. flat=False: each critic's variable
        # set is a subset of the joint optimizer slab and cannot
        # re-coalesce into its own (see Synchronizer docstring).
        self.sync1 = Synchronizer(self.q1, self.target_q1, tau=cfg["tau"],
                                  flat=False, scope="target-synchronizer-1")
        self.sync2 = Synchronizer(self.q2, self.target_q2, tau=cfg["tau"],
                                  flat=False, scope="target-synchronizer-2")
        # No root-level build_dependencies: the critics' input spaces
        # derive from _graph_fn_policy_sample's output, so gating the
        # root's graph fns on the critics would deadlock the fixpoint.
        # Ordering is already guaranteed by dataflow — the loss node's
        # inputs are outputs of policy/critic/target nodes (their
        # variables exist by readiness) and Temperature is vacuously
        # input-complete (created in the first completion sweep).
        self.add_components(self.preprocessor, self.policy, self.q1, self.q2,
                            self.target_q1, self.target_q2, self.temperature,
                            self.memory, self.splitter, self.optimizer,
                            self.sync1, self.sync2)

    # -- acting --------------------------------------------------------------
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

    # -- observing ------------------------------------------------------------
    @rlgraph_api
    def insert_records(self, records):
        return self.memory.insert_records(records)

    # -- updating ----------------------------------------------------------------
    @rlgraph_api
    def update_from_memory(self, batch_size, noise, next_noise):
        sample, indices, importance_weights = self.memory.get_records(
            batch_size)
        return self.loss_and_step(*self.splitter.split(sample), noise,
                                  next_noise)

    def compose_loss(self, preprocessed_states, actions, rewards, terminals,
                     next_states, noise, next_noise):
        """``((actor, critic, alpha) objectives, td)``: squashed samples
        for both state batches, the five Q evaluations, then the loss
        trio over them."""
        params = self.policy.get_logits(preprocessed_states)
        next_params = self.policy.get_logits(next_states)
        new_a, log_pi, next_a, next_log_pi = self._graph_fn_policy_sample(
            params, next_params, noise, next_noise)
        q1_pred = self.q1.get_q_value(preprocessed_states, actions)
        q2_pred = self.q2.get_q_value(preprocessed_states, actions)
        q1_new = self.q1.get_q_value(preprocessed_states, new_a)
        q2_new = self.q2.get_q_value(preprocessed_states, new_a)
        q1_target = self.target_q1.get_q_value(next_states, next_a)
        q2_target = self.target_q2.get_q_value(next_states, next_a)
        actor, critic, alpha, td = self._graph_fn_losses(
            rewards, terminals, q1_pred, q2_pred, q1_new, q2_new, q1_target,
            q2_target, log_pi, next_log_pi)
        return (actor, critic, alpha), td

    @graph_fn(returns=4, requires_variables=False)
    def _graph_fn_policy_sample(self, params, next_params, noise, next_noise):
        noise = self._build_sized_noise(params, noise)
        next_noise = self._build_sized_noise(next_params, next_noise)
        dist = self.policy.distribution
        new_a, log_pi = dist.sample_with_log_prob(params, noise)
        next_a, next_log_pi = dist.sample_with_log_prob(next_params,
                                                        next_noise)
        return new_a, log_pi, next_a, next_log_pi

    def _build_sized_noise(self, params, noise):
        """During the define-by-run shape-inference build the memory path
        samples ``batch_size``-example rows while the noise example has
        the standard example batch; substitute zeros of the right row
        count so the build sees consistent shapes (mirrors the
        apply_flat_grads build guard)."""
        from repro.core.component import get_current_build
        if get_current_build() is None:
            return noise
        pshape, nshape = handle_shape(params), handle_shape(noise)
        if (pshape and nshape and pshape[0] is not None
                and nshape[0] is not None and pshape[0] != nshape[0]):
            return np.zeros((pshape[0], self.agent.action_dim), np.float32)
        return noise

    @graph_fn(returns=4, requires_variables=False)
    def _graph_fn_losses(self, r, t, q1_pred, q2_pred, q1_new, q2_new,
                         q1_target, q2_target, log_pi, next_log_pi):
        """Actor / critic / temperature losses (the optimizer's
        variable-group order) and the TD errors."""
        log_alpha = self.temperature.log_alpha.read()
        alpha = F.exp(F.stop_gradient(log_alpha))
        # Critic: y = r + γ(1-t)·(min(Q1t,Q2t)(s',a') − α·logπ(a'|s'))
        not_done = F.sub(1.0, F.cast(t, np.float32))
        soft_q_next = F.sub(F.minimum(q1_target, q2_target),
                            F.mul(alpha, next_log_pi))
        y = F.stop_gradient(
            F.add(r, F.mul(float(self.agent.discount),
                           F.mul(not_done, soft_q_next))))
        td = F.sub(q1_pred, y)
        critic_loss = F.mul(0.5, F.add(
            F.reduce_mean(F.square(td)),
            F.reduce_mean(F.square(F.sub(q2_pred, y)))))
        # Actor: mean(α·logπ(a_new|s) − min(Q1,Q2)(s, a_new))
        actor_loss = F.reduce_mean(
            F.sub(F.mul(alpha, log_pi), F.minimum(q1_new, q2_new)))
        # Temperature: −mean(log_alpha·(logπ + H_target)), logπ detached.
        entropy_err = F.stop_gradient(
            F.add(log_pi, float(self.agent.target_entropy)))
        alpha_loss = F.neg(F.reduce_mean(F.mul(log_alpha, entropy_err)))
        return actor_loss, critic_loss, alpha_loss, td

    # -- target sync -----------------------------------------------------------
    @rlgraph_api
    def sync_targets(self):
        return self._graph_fn_group_syncs(self.sync1.sync(),
                                          self.sync2.sync())

    @graph_fn(requires_variables=False)
    def _graph_fn_group_syncs(self, op1, op2):
        return F.group(*[op for op in (op1, op2) if op is not None])


@AGENTS.register("sac")
class SACAgent(Agent):
    """Soft Actor-Critic (Haarnoja et al. 2018) for FloatBox actions.

    Config keys (kwargs): network_spec, q_network_spec, preprocessing_spec,
    memory_capacity, batch_size, optimizer_spec, tau, sync_interval,
    initial_alpha, target_entropy.

    ``target_entropy=None`` uses the standard −dim(A). ``sync_interval``
    counts updates between Polyak syncs (default 1: every update, the
    usual SAC cadence — ``tau`` keeps the tracking soft).
    """

    ROOT_SCOPE = "sac-agent"
    DEFAULT_CONFIG = {
        "network_spec": DEFAULT_NETWORK,
        "q_network_spec": None,
        "preprocessing_spec": [],
        "memory_capacity": 10_000,
        "batch_size": 64,
        "optimizer_spec": {"type": "adam", "learning_rate": 3e-4},
        "tau": 0.005,
        "sync_interval": 1,
        "initial_alpha": 1.0,
        "target_entropy": None,
    }
    UPDATE_FEED = (("states", None), ("actions", np.float32),
                   ("rewards", np.float32), ("terminals", bool),
                   ("next_states", None), ("noise", np.float32),
                   ("next_noise", np.float32))
    SYNC_API = "sync_targets"

    def __init__(self, state_space, action_space, **kwargs):
        # Space checks + derived sizes must precede build() in the base
        # constructor (build_root reads them).
        action = space_from_spec(action_space)
        if not isinstance(action, FloatBox) or len(action.shape) != 1:
            raise RLGraphError(
                f"SAC requires a rank-1 FloatBox action space, got {action!r}")
        if action.low is None or action.high is None:
            raise RLGraphError(
                "SAC requires bounded actions (the tanh squash maps onto "
                "[low, high])")
        self.action_dim = int(action.shape[0])
        super().__init__(state_space, action_space, **kwargs)

    @property
    def target_entropy(self) -> float:
        target = self.config["target_entropy"]
        return -float(self.action_dim) if target is None else float(target)

    # -- wiring ---------------------------------------------------------------
    def build_root(self) -> Component:
        return SACRoot(self, scope=self.ROOT_SCOPE)

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
        noise_space = FloatBox(shape=(self.action_dim,), add_batch_rank=True)
        return {
            "states": self.state_space.with_batch_rank(),
            "preprocessed_states": preprocessed,
            "time_step": IntBox(low=0, high=_UINT31),
            "records": records,
            "batch_size": IntBox(low=0, high=_UINT31),
            "actions": self.action_space.with_batch_rank(),
            "rewards": FloatBox(add_batch_rank=True),
            "terminals": BoolBox(add_batch_rank=True),
            "next_states": preprocessed,
            "noise": noise_space,
            "next_noise": FloatBox(shape=(self.action_dim,),
                                   add_batch_rank=True),
        }

    # -- API ----------------------------------------------------------------------
    def get_actions(self, states, explore: bool = True,
                    preprocess: bool = True):
        """Act on states; returns (action_vectors, preprocessed)."""
        states, single = self._batch_states(states)
        api = "get_actions" if explore else "get_greedy_actions"
        actions, preprocessed = self.call_api(api, states,
                                              np.asarray(self.timesteps))
        self.timesteps += len(states)
        actions = np.asarray(actions)
        if single:
            return actions[0], preprocessed[0]
        return actions, preprocessed

    def _insert_records(self, records: Dict[str, np.ndarray]) -> None:
        records = dict(records)
        records["actions"] = np.asarray(records["actions"],
                                        np.float32).reshape(
            -1, self.action_dim)
        self.call_api("insert_records", records)

    # -- noise plumbing -----------------------------------------------------------
    def _noise(self, batch_size: int):
        """Reparameterization noise for one update, drawn from the seed
        stream keyed on the update counter — deterministic across
        backends and across checkpoint/resume."""
        rng = self.seeds.rng("sac-noise", self.updates)
        shape = (int(batch_size), self.action_dim)
        return (rng.standard_normal(shape).astype(np.float32),
                rng.standard_normal(shape).astype(np.float32))

    def _prepare_batch(self, batch: Dict) -> Dict:
        """Noise is taken from the batch when the caller supplies it
        (learner groups shard it with the data)."""
        if "noise" in batch:
            return batch
        noise, next_noise = self._noise(len(batch["rewards"]))
        return {**batch, "noise": noise, "next_noise": next_noise}

    def _memory_feed(self):
        batch_size = self.config["batch_size"]
        return (np.asarray(batch_size), *self._noise(batch_size))

    def sync_targets(self):
        self.call_api("sync_targets")
