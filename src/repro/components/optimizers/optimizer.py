"""Optimizer components.

``step(loss)`` computes gradients of ``loss`` w.r.t. a fixed variable list
and applies an update rule. The gradient computation goes through
:func:`repro.backend.gradients.grads_of`, so one graph-function body
creates static update ops at build time *and* performs immediate updates
in define-by-run mode — paper Fig. 3, line 11.

Tower averaging for the synchronous multi-device strategy is exposed as
``step_towers(*losses)`` (gradients averaged before applying).

Two update constructions exist:

* **fused** (default whenever the build's ``optimize`` level is not
  ``"none"``) — the variable list is coalesced into one contiguous
  :class:`~repro.backend.variables.ParamSlab`, per-variable gradients
  collapse into a flat buffer through a single ``flatcat`` node, global
  norm clipping becomes one squared-norm reduction plus one scale over
  the slab, and the whole update is ONE multi-tensor op
  (``fused_adam``/``fused_rmsprop``/``fused_sgd``) — O(1) graph nodes
  regardless of the number of variables K, vs O(10·K) per-variable.
* **per-variable** (``optimize="none"`` only) — the seed construction,
  kept as the paper-faithful ablation baseline and as the reference the
  tests compare the fused path against.

Both produce identical weights (bitwise without clipping; the flat
global-norm reduction reorders one summation).

The optimizer may be bound to several variable *groups* (one provider
each). The objective handed to ``step`` / ``compute_flat_grads`` is then
a tuple with one scalar per group, and each scalar is differentiated
w.r.t. its own group only — how SAC keeps the actor loss out of the
critic weights while still taking ONE fused step over one slab.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.backend import context
from repro.backend import functional as F
from repro.backend.gradients import grads_of
from repro.backend.variables import ParamSlab, Variable
from repro.core import Component, graph_fn, rlgraph_api
from repro.utils.errors import RLGraphError
from repro.utils.registry import Registry

OPTIMIZERS = Registry("optimizer")


class Optimizer(Component):
    """Base optimizer over an explicit variable list.

    The variable list is bound with :meth:`set_variables` before the
    build (agents bind their policy's registry); slot variables are
    created lazily the first time the update ops build.
    """

    def __init__(self, learning_rate: float = 1e-3, clip_grad_norm: Optional[float] = None,
                 scope: str = "optimizer", **kwargs):
        super().__init__(scope=scope, **kwargs)
        self.learning_rate = float(learning_rate)
        self.clip_grad_norm = clip_grad_norm
        self._use_fused: Optional[bool] = None
        self._param_slab: Optional[ParamSlab] = None
        # One list per variable group; self._variables is their
        # concatenation (the order per-variable gradients travel in).
        self._groups: List[List[Variable]] = []
        self._variables: List[Variable] = []
        self._providers: Sequence = ()
        self._step_var = None
        # Nodes added by the update construction itself (everything past
        # the gradient computation) — the O(10·K) vs O(1) metric.
        self.update_node_count: Optional[int] = None

    def set_variables(self, variables: Sequence[Variable]) -> None:
        variables = list(variables)
        self.set_variables_provider(lambda: variables)

    def set_variables_provider(self, *providers) -> None:
        """Defer the variable list to build time (a provider is called
        when the update ops are created, after the owning policy has made
        its variables). Several providers bind one variable group each
        (see the module docstring)."""
        self._providers = providers

    def create_variables(self, input_spaces):
        self._step_var = self.get_variable("step", shape=(), dtype=np.int64,
                                           trainable=False)

    # -- API ------------------------------------------------------------------
    @rlgraph_api
    def step(self, loss):
        return self._graph_fn_step(loss)

    @rlgraph_api
    def step_towers(self, *losses):
        return self._graph_fn_step(*losses)

    @rlgraph_api
    def compute_flat_grads(self, loss):
        return self._graph_fn_flat_grads(loss)

    @rlgraph_api
    def apply_flat_grads(self, flat_grads):
        return self._graph_fn_apply_flat(flat_grads)

    # -- update construction ----------------------------------------------------
    @graph_fn
    def _graph_fn_step(self, *losses):
        self._resolve_variables()
        tower_grads = [self._gradients(loss) for loss in losses]
        graph = context.current_graph() if context.is_symbolic() else None
        base_nodes = len(graph.nodes) if graph is not None else 0
        if self._resolve_fused():
            out = self._fused_step(tower_grads)
        else:
            out = self._per_variable_step(tower_grads)
        if graph is not None:
            self.update_node_count = len(graph.nodes) - base_nodes
        return out

    @graph_fn
    def _graph_fn_flat_grads(self, loss):
        """The gradient half of the fused step: per-variable gradients
        of ``loss`` collapse through ONE ``flatcat`` node into the flat
        slab vector (members in slab order, i.e. sorted by name) —
        *unclipped*, so a downstream all-reduce averages raw shard
        gradients and clipping applies once to the averaged vector,
        exactly as the single-learner in-graph step clips the full-batch
        gradient."""
        self._resolve_variables()
        return self._flatcat(self._gradients(loss))

    @graph_fn
    def _graph_fn_apply_flat(self, flat_grads):
        """Apply half: feed an externally produced flat gradient vector
        through the exact fused lowering of :meth:`_graph_fn_step`
        (clip → shared step bump → one multi-tensor op), so an
        extract-then-apply round trip is bitwise-comparable to the
        in-graph step."""
        self._resolve_variables()
        if not self._resolve_fused():
            raise RLGraphError(
                f"Optimizer {self.global_scope}: apply_flat_grads needs the "
                f"fused construction (optimize != 'none' and a fused update "
                f"rule); the per-variable ablation has no flat-slab layout "
                f"to scatter into")
        from repro.core.component import get_current_build
        if (get_current_build() is not None
                and isinstance(flat_grads, np.ndarray)
                and flat_grads.size != self.flat_grad_size()):
            # Eager (define-by-run) shape-inference build: the example
            # pushed through the batch-ranked input space has an
            # arbitrary length; substitute a slab-sized zero vector so
            # the fused kernels see consistent shapes (any variable
            # mutation is snapshot-restored by the builder afterwards).
            flat_grads = np.zeros(self.flat_grad_size(), np.float32)
        return self._apply_flat(flat_grads)

    def _gradients(self, loss):
        """Per-variable gradients in ``self._variables`` order: of the
        scalar ``loss`` w.r.t. every variable, or — for a tuple with one
        scalar per variable group — of each scalar w.r.t. its group."""
        if not isinstance(loss, tuple):
            return grads_of(loss, self._variables)
        if len(loss) != len(self._groups):
            raise RLGraphError(
                f"Optimizer {self.global_scope}: got {len(loss)} objectives "
                f"for {len(self._groups)} variable groups")
        return [g for part, group in zip(loss, self._groups)
                for g in grads_of(part, group)]

    def _flatcat(self, grads):
        """Collapse per-variable gradients (``self._variables`` order)
        through ONE ``flatcat`` node into the flat slab vector."""
        by_var = {id(v): g for v, g in zip(self._variables, grads)}
        return F.flatcat([by_var[id(m)] for m in self._flat_members()])

    def _resolve_variables(self) -> None:
        if not self._variables and self._providers:
            self._groups = [list(provider()) for provider in self._providers]
            self._variables = [v for group in self._groups for v in group]
        if not self._variables:
            raise RLGraphError(
                f"Optimizer {self.global_scope}: set_variables() was never "
                f"called")

    def _flat_members(self) -> List[Variable]:
        """Variables in flat-vector order: the slab's member order when
        fused, the same sorted-by-name order (without claiming storage)
        in the per-variable ablation."""
        if self._resolve_fused():
            return list(self._ensure_param_slab().members)
        return sorted(self._variables, key=lambda v: v.name)

    def flat_grad_size(self) -> int:
        """Element count of the flat gradient vector (== ParamSlab size)."""
        self._resolve_variables()
        return int(sum(int(np.prod(v.shape, dtype=np.int64))
                       for v in self._variables))

    def _resolve_fused(self) -> bool:
        """Decide (once) between the fused and per-variable paths.

        Fused unless the owning build runs at ``optimize="none"`` (the
        paper-faithful per-variable ablation). Falls back to
        per-variable when the subclass has no fused rule or a variable
        cannot coalesce (non-float32)."""
        if self._use_fused is not None:
            return self._use_fused
        from repro.core.component import get_current_build
        build = get_current_build()
        use = getattr(build, "optimize", "fused") != "none"
        if use and type(self)._apply_fused_update \
                is Optimizer._apply_fused_update:
            use = False
        if use and any(v.dtype != np.float32 for v in self._variables):
            use = False
        self._use_fused = use
        return use

    # -- fused (flat-parameter) construction ------------------------------------
    def _fused_step(self, tower_grads):
        # Gradients arrive in self._variables order; the slab layout is
        # sorted by name — _flatcat reorders so segment i is member i.
        flats = [self._flatcat(tg) for tg in tower_grads]
        if len(flats) == 1:
            flat = flats[0]
        else:
            flat = F.mul(1.0 / len(flats), _sum_handles(flats))
        return self._apply_flat(flat)

    def _apply_flat(self, flat):
        """Everything past the flat gradient: clip (one squared-norm
        reduction + one scale over the slab), the shared step bump, and
        ONE multi-tensor update op. Shared by the in-graph fused step
        and the external ``apply_flat_grads`` path — identical nodes,
        identical arithmetic."""
        slab = self._ensure_param_slab()
        if self.clip_grad_norm is not None:
            total = F.reduce_sum(F.square(flat))
            norm = F.sqrt(F.maximum(total, 1e-12))
            scale = F.minimum(1.0, F.div(float(self.clip_grad_norm), norm))
            flat = F.mul(flat, scale)
        step_read = self._step_var.read()
        bumped = F.add(step_read, np.int64(1))
        t = F.cast(bumped, np.float32)
        bump = self._step_var.assign(bumped)
        ops = [bump] if bump is not None else []
        update = self._apply_fused_update(slab, flat, t)
        if update is not None:
            ops.append(update)
        return F.group(*ops)

    def _ensure_param_slab(self) -> ParamSlab:
        if self._param_slab is None:
            self._param_slab = ParamSlab.ensure(
                self._variables, name=f"{self.global_scope}/slab")
        return self._param_slab

    def _flat_slot(self, kind: str, slab: ParamSlab) -> Variable:
        """One flat slot variable matching the whole parameter slab."""
        return self.get_variable(f"{kind}-slab", shape=(slab.size,),
                                 dtype=np.float32, trainable=False,
                                 initializer="zeros")

    def _apply_fused_update(self, slab: ParamSlab, flat_grad, t):
        """Build the single multi-tensor update op (subclass hook)."""
        raise NotImplementedError

    # -- per-variable construction (seed behavior; optimize="none") -------------
    def _per_variable_step(self, tower_grads):
        if len(tower_grads) == 1:
            grads = tower_grads[0]
        else:
            # Synchronous multi-device strategy: average tower gradients.
            inv = 1.0 / len(tower_grads)
            grads = [
                F.mul(inv, _sum_handles([tg[i] for tg in tower_grads]))
                for i in range(len(self._variables))
            ]
        if self.clip_grad_norm is not None:
            grads = self._clip_by_global_norm(grads)
        ops = []
        # `t` and the bump share ONE add node: the add is the assign's
        # input, so its value is fixed before the in-place bump and
        # every consumer sees t = step + 1 regardless of schedule. (Two
        # separate add nodes — the seed construction — left the second
        # one free to execute after the assign and read the already
        # bumped step through the live read_var buffer.)
        step_read = self._step_var.read()
        bumped = F.add(step_read, np.int64(1))
        t = F.cast(bumped, np.float32)
        bump = self._step_var.assign(bumped)
        if bump is not None:
            ops.append(bump)
        for i, (var, grad) in enumerate(zip(self._variables, grads)):
            update_ops = self._apply_update(i, var, grad, t)
            ops.extend(op for op in update_ops if op is not None)
        return F.group(*ops)

    def _clip_by_global_norm(self, grads):
        sq = [F.reduce_sum(F.square(g)) for g in grads]
        total = _sum_handles(sq)
        norm = F.sqrt(F.maximum(total, 1e-12))
        scale = F.minimum(1.0, F.div(float(self.clip_grad_norm), norm))
        return [F.mul(g, scale) for g in grads]

    def _slot(self, kind: str, index: int, var: Variable) -> Variable:
        return self.get_variable(f"{kind}-{index}", shape=var.shape,
                                 dtype=np.float32, trainable=False,
                                 initializer="zeros")

    def _apply_update(self, index: int, var: Variable, grad, t):
        raise NotImplementedError


def _sum_handles(handles):
    total = handles[0]
    for h in handles[1:]:
        total = F.add(total, h)
    return total


@OPTIMIZERS.register("sgd", aliases=["gradient_descent"])
class GradientDescent(Optimizer):
    """Plain SGD with optional momentum."""

    def __init__(self, learning_rate: float = 1e-3, momentum: float = 0.0,
                 scope: str = "sgd", **kwargs):
        super().__init__(learning_rate=learning_rate, scope=scope, **kwargs)
        self.momentum = float(momentum)

    def _apply_update(self, index, var, grad, t):
        if self.momentum:
            mom = self._slot("momentum", index, var)
            new_m = F.add(F.mul(self.momentum, mom.read()), grad)
            op1 = mom.assign(new_m)
            op2 = var.assign_add(F.mul(-self.learning_rate, new_m))
            return [op1, op2]
        return [var.assign_add(F.mul(-self.learning_rate, grad))]

    def _apply_fused_update(self, slab, flat_grad, t):
        mom = self._flat_slot("momentum", slab) if self.momentum else None
        return F.fused_sgd(flat_grad, slab.flat_variable(),
                           lr=self.learning_rate, momentum=self.momentum,
                           momentum_var=mom)


@OPTIMIZERS.register("adam")
class Adam(Optimizer):
    """Adam (Kingma & Ba 2015)."""

    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8,
                 scope: str = "adam", **kwargs):
        super().__init__(learning_rate=learning_rate, scope=scope, **kwargs)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)

    def _apply_update(self, index, var, grad, t):
        m = self._slot("m", index, var)
        v = self._slot("v", index, var)
        new_m = F.add(F.mul(self.beta1, m.read()),
                      F.mul(1.0 - self.beta1, grad))
        new_v = F.add(F.mul(self.beta2, v.read()),
                      F.mul(1.0 - self.beta2, F.square(grad)))
        # beta^t via exp(t * log(beta)) — t is a runtime tensor.
        bc1 = F.sub(1.0, F.exp(F.mul(t, float(np.log(self.beta1)))))
        bc2 = F.sub(1.0, F.exp(F.mul(t, float(np.log(self.beta2)))))
        m_hat = F.div(new_m, F.maximum(bc1, 1e-8))
        v_hat = F.div(new_v, F.maximum(bc2, 1e-8))
        delta = F.mul(-self.learning_rate,
                      F.div(m_hat, F.add(F.sqrt(v_hat), self.epsilon)))
        return [m.assign(new_m), v.assign(new_v), var.assign_add(delta)]

    def _apply_fused_update(self, slab, flat_grad, t):
        m = self._flat_slot("m", slab)
        v = self._flat_slot("v", slab)
        return F.fused_adam(flat_grad, t, slab.flat_variable(), m, v,
                            lr=self.learning_rate, beta1=self.beta1,
                            beta2=self.beta2, epsilon=self.epsilon)


@OPTIMIZERS.register("rmsprop")
class RMSProp(Optimizer):
    """RMSProp (Tieleman & Hinton 2012) — the Ape-X/IMPALA default."""

    def __init__(self, learning_rate: float = 1e-3, decay: float = 0.99,
                 epsilon: float = 1e-8, scope: str = "rmsprop", **kwargs):
        super().__init__(learning_rate=learning_rate, scope=scope, **kwargs)
        self.decay = float(decay)
        self.epsilon = float(epsilon)

    def _apply_update(self, index, var, grad, t):
        ms = self._slot("mean-square", index, var)
        new_ms = F.add(F.mul(self.decay, ms.read()),
                       F.mul(1.0 - self.decay, F.square(grad)))
        delta = F.mul(-self.learning_rate,
                      F.div(grad, F.add(F.sqrt(new_ms), self.epsilon)))
        return [ms.assign(new_ms), var.assign_add(delta)]

    def _apply_fused_update(self, slab, flat_grad, t):
        ms = self._flat_slot("mean-square", slab)
        return F.fused_rmsprop(flat_grad, slab.flat_variable(), ms,
                               lr=self.learning_rate, decay=self.decay,
                               epsilon=self.epsilon)
