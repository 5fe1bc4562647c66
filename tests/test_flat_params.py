"""Flat-parameter learner path: slab aliasing, fused-optimizer parity,
flat weight sync round trips, and the single-shm-block push invariant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import XGRAPH, XTAPE
from repro.backend import functional as F
from repro.backend.variables import FlatLayout, ParamSlab, Variable
from repro.components.optimizers import Adam, GradientDescent, RMSProp
from repro.core import Component, graph_fn, rlgraph_api
from repro.core.graph_builder import build_graph
from repro.spaces import FloatBox, IntBox
from repro.utils.errors import RLGraphError


@pytest.fixture(params=[XGRAPH, XTAPE])
def backend(request):
    return request.param


# ---------------------------------------------------------------------------
# ParamSlab / FlatLayout mechanics
# ---------------------------------------------------------------------------
class _VarOwner(Component):
    def __init__(self, scope="owner"):
        super().__init__(scope=scope)

    def create_variables(self, input_spaces):
        self.kernel = self.get_variable("kernel", shape=(3, 2),
                                        initializer="normal")
        self.bias = self.get_variable("bias", shape=(2,), initializer="ones")


def _built_owner():
    comp = _VarOwner()
    comp.input_complete = True
    comp.ensure_variables()
    return comp


class TestParamSlab:
    def test_view_aliasing_both_directions(self):
        comp = _built_owner()
        before = {n: v.value.copy() for n, v in comp.variables.items()}
        slab = comp.coalesce_variables()
        # Coalescing preserves every value.
        for name, var in comp.variables.items():
            np.testing.assert_array_equal(var.value, before[name])
            assert np.shares_memory(var.value, slab.flat)
        # Write through the Variable view -> visible in the slab.
        comp.bias.set(np.array([5.0, 7.0], np.float32))
        offset = slab._offsets[comp.bias.name]
        np.testing.assert_array_equal(slab.flat[offset:offset + 2], [5.0, 7.0])
        # Write through the slab -> visible in the Variable view.
        slab.flat[:] = np.arange(slab.size, dtype=np.float32)
        np.testing.assert_array_equal(
            comp.bias.value, slab.flat[offset:offset + 2])
        assert float(comp.kernel.value.reshape(-1)[0]) == float(
            slab.flat[slab._offsets[comp.kernel.name]])

    def test_ensure_reuses_existing_slab(self):
        comp = _built_owner()
        slab = comp.coalesce_variables()
        again = ParamSlab.ensure(list(comp.variables.values()))
        assert again is slab

    def test_subset_of_slab_rejected(self):
        comp = _built_owner()
        comp.coalesce_variables()
        with pytest.raises(RLGraphError, match="larger slab"):
            ParamSlab.ensure([comp.bias])

    def test_non_float32_rejected(self):
        var = Variable("x/int", np.zeros(3, np.int64), trainable=True,
                       dtype=np.int64)
        with pytest.raises(RLGraphError, match="float32"):
            ParamSlab([var])


class TestFlatLayout:
    def test_gather_scatter_round_trip(self):
        comp = _built_owner()
        layout = comp.flat_layout()
        flat = layout.gather()
        assert flat.shape == (layout.total,) and flat.dtype == np.float32
        as_dict = layout.to_dict(flat)
        for name, var in comp.variables.items():
            np.testing.assert_array_equal(as_dict[name], var.value)
        layout.scatter(flat * 2.0)
        np.testing.assert_array_equal(layout.gather(), flat * 2.0)

    def test_single_memcpy_run_over_slab(self):
        comp = _built_owner()
        comp.coalesce_variables()
        layout = comp.flat_layout()
        # Every variable is slab-backed in sorted order -> exactly one run.
        assert len(layout._runs) == 1 and layout._runs[0][0] is not None

    def test_scatter_size_mismatch(self):
        comp = _built_owner()
        with pytest.raises(RLGraphError, match="vector"):
            comp.flat_layout().scatter(np.zeros(3, np.float32))

    def test_runs_rebuilt_after_late_coalescing(self):
        # A layout built BEFORE coalescing (e.g. an executor grabbing
        # flat weights before the first eager update creates the
        # optimizer slab) must pick up the memcpy fast path afterwards.
        comp = _built_owner()
        layout = comp.flat_layout()
        before = layout.gather()
        assert all(run[0] is None for run in layout._current_runs())
        comp.coalesce_variables()
        runs = layout._current_runs()
        assert len(runs) == 1 and runs[0][0] is not None
        np.testing.assert_array_equal(layout.gather(), before)


# ---------------------------------------------------------------------------
# Fused vs per-variable optimizer parity
# ---------------------------------------------------------------------------
class _MultiVarProblem(Component):
    """Quadratic over several differently-shaped variables, with single-
    and two-tower update APIs."""

    def __init__(self, optimizer, scope="problem", **kwargs):
        super().__init__(scope=scope, **kwargs)
        self.optimizer = optimizer
        self.add_components(optimizer)

    def create_variables(self, input_spaces):
        self.w1 = self.get_variable("w1", shape=(4,), initializer="ones")
        self.w2 = self.get_variable("w2", shape=(2, 3), initializer="normal")
        self.w3 = self.get_variable("w3", shape=(), initializer=0.5)
        self.optimizer.set_variables([self.w1, self.w2, self.w3])

    @rlgraph_api
    def update(self, target):
        loss = self._graph_fn_loss(target)
        return self._graph_fn_result(loss, self.optimizer.step(loss))

    @rlgraph_api
    def update_towers(self, target):
        loss_a = self._graph_fn_loss(target)
        loss_b = self._graph_fn_loss_b(target)
        return self._graph_fn_result(
            loss_a, self.optimizer.step_towers(loss_a, loss_b))

    @graph_fn
    def _graph_fn_loss(self, target):
        return F.add(
            F.reduce_sum(F.square(F.sub(self.w1.read(), target))),
            F.add(F.reduce_sum(F.square(self.w2.read())),
                  F.square(self.w3.read())))

    @graph_fn
    def _graph_fn_loss_b(self, target):
        return F.add(F.reduce_sum(F.square(self.w2.read())),
                     F.reduce_sum(F.mul(self.w1.read(), target)))

    @graph_fn(requires_variables=False)
    def _graph_fn_result(self, loss, step_op):
        if step_op is None:
            return loss
        return F.with_deps(loss, step_op)


OPTIMIZER_CASES = [
    ("sgd", lambda: GradientDescent(learning_rate=0.05)),
    ("sgd-momentum", lambda: GradientDescent(learning_rate=0.05,
                                             momentum=0.9)),
    ("adam", lambda: Adam(learning_rate=0.05)),
    ("rmsprop", lambda: RMSProp(learning_rate=0.05)),
    ("adam-clip", lambda: Adam(learning_rate=0.05, clip_grad_norm=0.5)),
    ("sgd-clip", lambda: GradientDescent(learning_rate=0.05,
                                         clip_grad_norm=0.1)),
]


def _drive(make_opt, optimize, backend, api="update", steps=60):
    problem = _MultiVarProblem(make_opt())
    built = build_graph(problem, {"target": FloatBox(shape=(4,))},
                        backend=backend, seed=5, optimize=optimize)
    target = np.asarray([0.5, -1.0, 2.0, 0.0], np.float32)
    losses = [float(np.asarray(built.execute(api, target)))
              for _ in range(steps)]
    state = np.concatenate([problem.w1.value.reshape(-1),
                            problem.w2.value.reshape(-1),
                            problem.w3.value.reshape(-1)])
    return losses, state, problem


class TestFusedOptimizerParity:
    @pytest.mark.parametrize("name,make_opt", OPTIMIZER_CASES,
                             ids=[c[0] for c in OPTIMIZER_CASES])
    def test_single_tower_parity(self, backend, name, make_opt):
        ref_losses, ref_state, _ = _drive(make_opt, "none", backend)
        losses, state, problem = _drive(make_opt, "fused", backend)
        assert problem.optimizer._use_fused
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-5, atol=1e-6)
        if "clip" in name:
            # The flat squared-norm reduction reorders one summation.
            np.testing.assert_allclose(state, ref_state, rtol=1e-5,
                                       atol=1e-6)
        else:
            np.testing.assert_array_equal(state, ref_state)

    @pytest.mark.parametrize("name,make_opt", OPTIMIZER_CASES[:4],
                             ids=[c[0] for c in OPTIMIZER_CASES[:4]])
    def test_multi_tower_parity(self, backend, name, make_opt):
        _, ref_state, _ = _drive(make_opt, "none", backend,
                                 api="update_towers")
        _, state, problem = _drive(make_opt, "fused", backend,
                                   api="update_towers")
        assert problem.optimizer._use_fused
        np.testing.assert_array_equal(state, ref_state)

    def test_optimize_none_keeps_seed_construction(self, backend):
        _, _, problem = _drive(lambda: Adam(learning_rate=0.05), "none",
                               backend, steps=2)
        assert problem.optimizer._use_fused is False
        assert problem.optimizer._param_slab is None


class _ManyVarProblem(Component):
    """K variables — the O(10·K) vs O(1) update-graph-size fixture."""

    def __init__(self, optimizer, num_vars=100, scope="many", **kwargs):
        super().__init__(scope=scope, **kwargs)
        self.optimizer = optimizer
        self.num_vars = num_vars
        self.add_components(optimizer)

    def create_variables(self, input_spaces):
        self.ws = [self.get_variable(f"w-{i:03d}", shape=(3,),
                                     initializer="normal")
                   for i in range(self.num_vars)]
        self.optimizer.set_variables(self.ws)

    @rlgraph_api
    def update(self, target):
        loss = self._graph_fn_loss(target)
        return self._graph_fn_result(loss, self.optimizer.step(loss))

    @graph_fn
    def _graph_fn_loss(self, target):
        total = F.reduce_sum(F.square(F.sub(self.ws[0].read(), target)))
        for w in self.ws[1:]:
            total = F.add(total,
                          F.reduce_sum(F.square(F.sub(w.read(), target))))
        return total

    @graph_fn(requires_variables=False)
    def _graph_fn_result(self, loss, step_op):
        return F.with_deps(loss, step_op) if step_op is not None else loss


class TestUpdateGraphSize:
    def _build(self, optimize):
        problem = _ManyVarProblem(Adam(learning_rate=0.01), num_vars=100)
        build_graph(problem, {"target": FloatBox(shape=(3,))},
                    backend=XGRAPH, seed=1, optimize=optimize)
        return problem.optimizer.update_node_count

    def test_fused_update_is_constant_size(self):
        # The whole K=100 Adam update (flatcat + step bump + one fused
        # op + group and their constants) must stay O(1).
        assert self._build("fused") <= 20

    def test_per_variable_update_is_linear_size(self):
        assert self._build("none") >= 500


class TestAgentLevelParity:
    def test_dqn_50_updates_weights_allclose(self):
        from repro.agents import DQNAgent

        rng = np.random.default_rng(0)
        batch = {
            "states": rng.standard_normal((32, 4)).astype(np.float32),
            "actions": rng.integers(0, 2, 32),
            "rewards": rng.standard_normal(32).astype(np.float32),
            "terminals": rng.random(32) < 0.1,
            "next_states": rng.standard_normal((32, 4)).astype(np.float32),
        }

        def drive(optimize):
            agent = DQNAgent(
                state_space=FloatBox(shape=(4,)), action_space=IntBox(2),
                network_spec=[{"type": "dense", "units": 8,
                               "activation": "relu"}],
                double_q=True, sync_interval=7, seed=3, optimize=optimize)
            for _ in range(50):
                agent.update(dict(batch))
            return agent.get_weights()

        ref = drive("none")
        fused = drive("fused")
        assert set(ref) == set(fused)
        for name in ref:
            np.testing.assert_allclose(fused[name], ref[name], rtol=1e-6,
                                       atol=1e-7, err_msg=name)


# ---------------------------------------------------------------------------
# Flat weight sync
# ---------------------------------------------------------------------------
def _dqn(seed=3, optimize="fused"):
    from repro.agents import DQNAgent
    return DQNAgent(state_space=FloatBox(shape=(4,)), action_space=IntBox(2),
                    network_spec=[{"type": "dense", "units": 8,
                                   "activation": "relu"}],
                    seed=seed, optimize=optimize)


class TestFlatWeightSync:
    def test_flat_dict_round_trip(self):
        agent = _dqn(seed=3)
        flat = agent.get_weights(flat=True)
        as_dict = agent.get_weights()
        layout_dict = agent.flat_layout().to_dict(flat)
        assert set(as_dict) == set(layout_dict)
        for name in as_dict:
            np.testing.assert_array_equal(as_dict[name], layout_dict[name])

    def test_flat_transfer_between_agents(self):
        learner, actor = _dqn(seed=3), _dqn(seed=9)
        # Initializers are seeded by variable name+shape, so make the
        # learner actually diverge before shipping weights.
        rng = np.random.default_rng(0)
        learner.set_weights(
            rng.standard_normal(learner.flat_layout().total)
            .astype(np.float32))
        assert not np.array_equal(learner.get_weights(flat=True),
                                  actor.get_weights(flat=True))
        actor.set_weights(learner.get_weights(flat=True))
        ref = learner.get_weights()
        got = actor.get_weights()
        for name in ref:
            np.testing.assert_array_equal(got[name], ref[name], err_msg=name)

    def test_flat_transfer_across_optimize_levels(self):
        # Flat layout is storage-agnostic: a fused learner's vector
        # scatters into a per-variable ("none") actor and vice versa.
        learner, actor = _dqn(seed=3, optimize="fused"), \
            _dqn(seed=9, optimize="none")
        actor.set_weights(learner.get_weights(flat=True))
        np.testing.assert_array_equal(actor.get_weights(flat=True),
                                      learner.get_weights(flat=True))

    def test_flat_size_mismatch_raises(self):
        agent = _dqn()
        with pytest.raises(RLGraphError):
            agent.set_weights(np.zeros(7, np.float32))

    def test_flat_push_is_single_shm_block(self):
        from repro.agents import DQNAgent
        from repro.raylite import shm

        agent = DQNAgent(
            state_space=FloatBox(shape=(4,)), action_space=IntBox(2),
            network_spec=[{"type": "dense", "units": 64,
                           "activation": "relu"}], seed=3)
        flat = agent.get_weights(flat=True)
        assert flat.nbytes >= shm.SHM_THRESHOLD
        tree, block = shm.encode({"weights": flat})
        try:
            assert block is not None  # exactly one shared block...
            tokens = [v for v in tree.values()
                      if isinstance(v, shm.ShmArray)]
            assert len(tokens) == 1  # ...carrying exactly one array
        finally:
            shm.discard(tree, block)

    def test_dict_push_keeps_working(self):
        learner, actor = _dqn(seed=3), _dqn(seed=9)
        rng = np.random.default_rng(1)
        learner.set_weights(
            rng.standard_normal(learner.flat_layout().total)
            .astype(np.float32))
        actor.set_weights(learner.get_weights())
        np.testing.assert_array_equal(actor.get_weights(flat=True),
                                      learner.get_weights(flat=True))


# ---------------------------------------------------------------------------
# Synchronizer satellites
# ---------------------------------------------------------------------------
class TestSynchronizerPairing:
    def _two_nets(self, units_b=4, tau=None):
        from repro.components.common import Synchronizer
        from repro.components.neural_networks import DenseLayer

        class TwoNets(Component):
            def __init__(self):
                super().__init__(scope="two-nets")
                self.a = DenseLayer(units=4, scope="net-a")
                self.b = DenseLayer(units=units_b, scope="net-b")
                self.sync = Synchronizer(self.a, self.b, tau=tau)
                self.add_components(self.a, self.b, self.sync)

            @rlgraph_api
            def forward_a(self, inputs):
                return self.a.apply(inputs)

            @rlgraph_api
            def forward_b(self, inputs):
                return self.b.apply(inputs)

            @rlgraph_api
            def do_sync(self):
                return self.sync.sync()

        return TwoNets()

    def test_aggregated_mismatch_error_lists_all_keys(self, backend):
        with pytest.raises(RLGraphError) as exc:
            build_graph(self._two_nets(units_b=8),
                        {"inputs": FloatBox(shape=(3,), add_batch_rank=True)},
                        backend=backend)
        message = str(exc.value)
        # Both the kernel and the bias mismatch must be reported at once.
        assert "kernel" in message and "bias" in message

    def test_pairing_cached_and_flat(self, backend):
        root = self._two_nets()
        built = build_graph(root,
                            {"inputs": FloatBox(shape=(3,),
                                                add_batch_rank=True)},
                            backend=backend, optimize="fused")
        sync = root.sync
        assert sync._pairs is not None
        pairs_before = sync._pairs
        assert sync._use_flat and sync._slabs is not None
        x = np.ones((2, 3), np.float32)
        out_a = built.execute("forward_a", x)
        built.execute("do_sync")
        np.testing.assert_allclose(built.execute("forward_b", x), out_a,
                                   atol=1e-6)
        built.execute("do_sync")
        assert sync._pairs is pairs_before  # computed once, reused

    def test_optimize_none_keeps_per_variable_sync(self):
        root = self._two_nets()
        built = build_graph(root,
                            {"inputs": FloatBox(shape=(3,),
                                                add_batch_rank=True)},
                            backend=XGRAPH, optimize="none")
        assert root.sync._use_flat is False
        x = np.ones((2, 3), np.float32)
        out_a = built.execute("forward_a", x)
        built.execute("do_sync")
        np.testing.assert_allclose(built.execute("forward_b", x), out_a,
                                   atol=1e-6)


# ---------------------------------------------------------------------------
# Replay-memory satellite: proper ones/anchor ops
# ---------------------------------------------------------------------------
class TestReplayMemoryOps:
    def test_sample_weights_are_unit(self, backend):
        from repro.components.memories import ReplayMemory
        from repro.spaces import Dict as DictSpace, BoolBox

        memory = ReplayMemory(capacity=16)
        records = DictSpace(states=FloatBox(shape=(2,)), rewards=FloatBox(),
                            terminals=BoolBox(), add_batch_rank=True)
        built = build_graph(
            memory, {"records": records,
                     "batch_size": IntBox(low=0, high=1000)},
            backend=backend)
        built.execute("insert_records", {
            "states": np.ones((8, 2), np.float32),
            "rewards": np.zeros(8, np.float32),
            "terminals": np.zeros(8, bool)})
        _, idx, weights = built.execute("get_records", np.asarray(4))
        assert weights.dtype == np.float32
        np.testing.assert_array_equal(weights, np.ones(len(idx), np.float32))
        assert int(built.execute("get_size", np.asarray(4))) == 8

    def test_get_size_returns_snapshot_not_live_buffer(self, backend):
        # The fetched size must be a copy: a later insert mutating the
        # size variable in place must not change an already-fetched
        # result retroactively.
        from repro.components.memories import ReplayMemory
        from repro.spaces import Dict as DictSpace, BoolBox

        memory = ReplayMemory(capacity=16)
        records = DictSpace(states=FloatBox(shape=(2,)), rewards=FloatBox(),
                            terminals=BoolBox(), add_batch_rank=True)
        built = build_graph(
            memory, {"records": records,
                     "batch_size": IntBox(low=0, high=1000)},
            backend=backend)
        batch = {"states": np.ones((4, 2), np.float32),
                 "rewards": np.zeros(4, np.float32),
                 "terminals": np.zeros(4, bool)}
        built.execute("insert_records", batch)
        size_then = built.execute("get_size", np.asarray(1))
        built.execute("insert_records", batch)
        assert int(np.asarray(size_then)) == 4
        assert int(np.asarray(built.execute("get_size", np.asarray(1)))) == 8

    def test_anchor_elided_by_compiler(self):
        from repro.backend import Graph, Session, symbolic_mode

        g = Graph(name="anchor")
        with g.as_default(), symbolic_mode():
            ph = g.placeholder((), np.int64, name="n")
            x = g.constant(np.arange(4, dtype=np.float32))
            out = F.anchor(F.reduce_sum(x), ph)
        sess = Session(g, optimize="basic")
        assert float(sess.run(out, {ph: np.int64(3)})) == 6.0
        plan = sess.compiled_plan(out)
        assert all("anchor" not in step.name for step in plan.steps)
