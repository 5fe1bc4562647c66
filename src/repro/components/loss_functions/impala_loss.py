"""IMPALA V-trace loss (Espeholt et al. 2018, paper §5.1 Fig. 9).

Operates on time-major rollouts: the learner consumes (T, B, ...) batches
of the actors' rollouts, computes v-trace corrected targets off-policy,
and applies policy-gradient + baseline + entropy terms.
"""

from __future__ import annotations

import numpy as np

from repro.backend import functional as F
from repro.core import Component, graph_fn, rlgraph_api


class IMPALALoss(Component):
    """V-trace actor-learner loss.

    ``get_loss`` inputs (all time-major):
        target_log_probs:    log pi(a|s) under the learner, (T, B)
        behaviour_log_probs: log mu(a|s) under the actor,   (T, B)
        values:              V(s) under the learner,        (T, B)
        bootstrap_value:     V(s_T),                        (B,)
        rewards:             (T, B)
        terminals:           (T, B) bool
        entropies:           (T, B)
    """

    def __init__(self, discount: float = 0.99, value_coeff: float = 0.5,
                 entropy_coeff: float = 0.01, clip_rho_threshold: float = 1.0,
                 clip_pg_rho_threshold: float = 1.0, scope: str = "impala-loss",
                 **kwargs):
        super().__init__(scope=scope, **kwargs)
        self.discount = float(discount)
        self.value_coeff = float(value_coeff)
        self.entropy_coeff = float(entropy_coeff)
        self.clip_rho_threshold = clip_rho_threshold
        self.clip_pg_rho_threshold = clip_pg_rho_threshold

    @rlgraph_api
    def get_loss(self, target_log_probs, behaviour_log_probs, values,
                 bootstrap_value, rewards, terminals, entropies):
        return self._graph_fn_loss(target_log_probs, behaviour_log_probs,
                                   values, bootstrap_value, rewards,
                                   terminals, entropies)

    @graph_fn(returns=3, requires_variables=False)
    def _graph_fn_loss(self, target_log_probs, behaviour_log_probs, values,
                       bootstrap_value, rewards, terminals, entropies):
        log_rhos = F.stop_gradient(F.sub(target_log_probs,
                                         behaviour_log_probs))
        discounts = F.mul(F.sub(1.0, F.cast(terminals, np.float32)),
                          self.discount)
        vs, pg_adv = F.vtrace(
            log_rhos, discounts, rewards, F.stop_gradient(values),
            bootstrap_value,
            clip_rho_threshold=self.clip_rho_threshold,
            clip_pg_rho_threshold=self.clip_pg_rho_threshold)
        policy_loss = F.neg(F.reduce_mean(F.mul(target_log_probs,
                                                F.stop_gradient(pg_adv))))
        value_loss = F.mul(0.5, F.reduce_mean(
            F.square(F.sub(values, F.stop_gradient(vs)))))
        entropy = F.reduce_mean(entropies)
        total = F.sub(F.add(policy_loss, F.mul(self.value_coeff, value_loss)),
                      F.mul(self.entropy_coeff, entropy))
        return total, policy_loss, value_loss
