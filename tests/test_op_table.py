"""Tests derived from the op table (``OpSpec`` facts + native vocabulary).

An op's forward, out-form, fusion/aliasing facts and C lowering are
declared once (``repro.backend.ops.OpSpec``, ``native._C_EXPR``,
``native._LOWERINGS``). These tests iterate over those tables instead of
naming ops, so a new entry is exercised — or reported as lacking a case
— without anyone remembering to add a test:

- every out-form equals its forward bitwise and writes the donated
  buffer;
- every ``fresh`` forward really allocates (the property buffer
  donation rests on), every elementwise op is fresh or a declared
  pass-through;
- every op with a C expression / ``Lowering`` lowers in a one-op plan
  and matches the interpreter; ``mod`` is not native because it has no
  entry; a matmul above the native loop limit calls BLAS from the C,
  and stays a Python step where no GEMM symbol is found;
- every ``transpose_a`` / ``transpose_b`` combination of ``matmul``,
  forward and adjoint, at every optimize level and on the eager tape,
  through GEMM and through the no-GEMM loop; a DQN's plans hold no
  ``transpose`` step;
- a bool temporary of a native chain is widened to ``int`` (so the
  loop vectorizes), a ``uint8`` one is not (it wraps like NumPy).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import DQNAgent
from repro.backend import (
    ETensor,
    Graph,
    Session,
    Variable,
    backward,
    eager_mode,
    functional as F,
    gradients,
    native,
    symbolic_mode,
)
from repro.backend.ops import OPS, apply_op
from repro.spaces import FloatBox, IntBox

needs_cc = pytest.mark.skipif(not native.toolchain_available(),
                              reason="no C toolchain in environment")

# The parity contract of optimize="native" (tests/test_parity_matrix.py).
TOL = dict(rtol=1e-5, atol=1e-6)
PASS_THROUGH = {"identity", "stop_gradient"}

f32, f64, i64 = np.float32, np.float64, np.int64
FLOATS, NUMS = (f32, f64), (f32, f64, i64)


def _rand(rng, shape, dtype, positive=False):
    """Values in (-0.9, 0.9) — inside every op's domain but log/sqrt's,
    which take ``positive`` — scaled up for integer dtypes."""
    x = rng.uniform(0.05, 0.9, shape) if positive \
        else rng.uniform(-0.9, 0.9, shape)
    if np.dtype(dtype) == np.bool_:
        return x > 0.3
    if np.issubdtype(np.dtype(dtype), np.integer):
        return (x * 10).astype(dtype) + (3 if positive else 0)
    return x.astype(dtype)


# One row per ELEMENTWISE op: (arity, attrs, input dtypes the forward
# accepts, positive-only inputs).
ELEMENTWISE = {
    "add": (2, {}, NUMS, False), "sub": (2, {}, NUMS, False),
    "mul": (2, {}, NUMS, False), "div": (2, {}, NUMS, True),
    "mod": (2, {}, NUMS, True), "neg": (1, {}, NUMS, False),
    "power": (1, {"p": 0.5}, FLOATS, True),
    "exp": (1, {}, NUMS, False), "log": (1, {}, NUMS, True),
    "sqrt": (1, {}, NUMS, True), "square": (1, {}, NUMS, False),
    "abs": (1, {}, NUMS, False), "sign": (1, {}, NUMS, False),
    "floor": (1, {}, FLOATS, False),
    "maximum": (2, {}, NUMS, False), "minimum": (2, {}, NUMS, False),
    "clip": (1, {"lo": -0.25, "hi": 0.5}, FLOATS, False),
    "relu": (1, {}, NUMS, False), "tanh": (1, {}, FLOATS, False),
    "sigmoid": (1, {}, FLOATS, False), "softplus": (1, {}, FLOATS, False),
    "atanh": (1, {}, FLOATS, False),
    "equal": (2, {}, (f32, i64), False),
    "not_equal": (2, {}, (f32, i64), False),
    "greater": (2, {}, (f32, i64), False),
    "greater_equal": (2, {}, (f32, i64), False),
    "less": (2, {}, (f32, i64), False),
    "less_equal": (2, {}, (f32, i64), False),
    "logical_and": (2, {}, (np.bool_, f32), False),
    "logical_or": (2, {}, (np.bool_, f32), False),
    "logical_not": (1, {}, (np.bool_, f32), False),
    "cast": (1, {"dtype": i64}, (f32, i64, np.bool_), False),
    "where": (3, {}, FLOATS, False),
    "identity": (1, {}, NUMS, False),
    "stop_gradient": (1, {}, NUMS, False),
    "ones_like": (1, {"dtype": f32}, NUMS, False),
}


def _elementwise_inputs(op, rng):
    """Argument lists over the row's dtypes and a few broadcast layouts."""
    arity, attrs, dtypes, positive = ELEMENTWISE[op]
    layouts = {1: [((3, 4),)],
               2: [((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 1), (1, 4))],
               3: [((3, 4), (3, 4), (4,))]}[arity]
    for dtype in dtypes:
        for shapes in layouts:
            args = [_rand(rng, s, dtype, positive) for s in shapes]
            if op == "where":
                args[0] = args[0] > 0
            yield args, attrs


_X4 = np.arange(12, dtype=f32).reshape(3, 4)
_I3 = np.asarray([2, 0, 1], i64)
# One row per non-elementwise FRESH op: (args, attrs), preferring the
# degenerate arguments (one input, unit reps, empty axes) for which a
# NumPy call is most likely to hand its input back.
FRESH_CASES = {
    "matmul": ([_X4, np.eye(4, dtype=f32)], {}),
    "reduce_sum": ([_X4], {"axis": ()}),
    "reduce_mean": ([_X4], {"axis": (), "keepdims": True}),
    "reduce_max": ([_X4], {"axis": ()}),
    "reduce_min": ([_X4], {"axis": ()}),
    "argmax": ([_X4], {"axis": 1}),
    "cumsum": ([_X4[:, :1]], {"axis": -1}),
    "one_hot": ([_I3], {"depth": 3}),
    "gather": ([_X4, np.arange(3)], {}),
    "concat": ([_X4], {"axis": 0}),
    "stack": ([_X4], {"axis": 0}),
    "tile": ([_X4], {"reps": (1, 1)}),
    "take_index": ([_X4[:1]], {"index": 0, "axis": 0}),
    "zeros2d": ([np.asarray(3)], {"cols": 2}),
    "dyn_arange": ([np.asarray(3)], {}),
    "anchor": ([_X4], {}),
    "getitem_grad": ([_X4, _X4], {"idx": slice(None)}),
    "gather_grad": ([_X4, _X4, np.arange(3)], {}),
    "random_uniform": ([_X4], {"seed": 1}),
    "random_normal": ([_X4], {"seed": 1}),
    "conv2d": ([_X4.reshape(1, 3, 4, 1), np.ones((1, 1, 1, 1), f32)],
               {"stride": 1, "padding": "VALID"}),
    "searchsorted": ([np.arange(4.0), np.asarray([0.5, 2.5])], {}),
}


def test_tables_cover_every_elementwise_and_every_fresh_op():
    assert set(ELEMENTWISE) == {n for n, s in OPS.items() if s.elementwise}
    assert set(FRESH_CASES) == {n for n, s in OPS.items()
                                if s.fresh and not s.elementwise}


class TestDeclaredFacts:
    def test_fact_implications(self):
        for name, spec in OPS.items():
            if spec.out is not None:
                assert spec.fresh, f"{name}: an out-form needs fresh=True"
            if spec.fresh:
                assert spec.alias_safe, name
            if spec.mutates:
                assert spec.stateful, name
            if spec.elementwise:
                assert not spec.stateful, name
                assert spec.fresh or name in PASS_THROUGH, (
                    f"{name}: elementwise ops allocate, or are declared "
                    f"pass-throughs")

    @pytest.mark.parametrize("op", sorted(ELEMENTWISE))
    def test_fresh_elementwise_forward_allocates(self, op):
        spec = OPS[op]
        rng = np.random.default_rng(0)
        with np.errstate(all="ignore"):
            for args, attrs in _elementwise_inputs(op, rng):
                result = spec.forward(args, attrs)
                aliases = any(np.shares_memory(result, a) for a in args)
                assert aliases == (not spec.fresh), (op, args[0].dtype)

    @pytest.mark.parametrize("op", sorted(FRESH_CASES))
    def test_fresh_forward_allocates(self, op):
        args, attrs = FRESH_CASES[op]
        result = OPS[op].forward(list(args), dict(attrs))
        assert isinstance(result, (np.ndarray, np.generic)), op
        assert not any(np.shares_memory(result, a) for a in args), op

    def test_flip_returns_a_view_and_is_not_fresh(self):
        # Declared fresh at the parent of ISSUE 17: a donated step then
        # overwrote the flipped value's still-live source buffer.
        x = np.arange(6, dtype=f32).reshape(2, 3)
        assert np.shares_memory(OPS["flip"].forward([x], {"axis": 1}), x)
        assert not OPS["flip"].fresh and not OPS["flip"].alias_safe
        g = Graph(name="flip", seed=1)
        with g.as_default(), symbolic_mode():
            a = g.placeholder((None,), f32)
            x = F.matmul(F.reshape(a, (1, -1)), g.constant(np.eye(4, dtype=f32)))
            fetches = [F.exp(F.flip(x, 1)), F.mul(x, 2.0)]
        feed = {a: np.arange(4, dtype=f32)}
        ref = Session(g, optimize="none").run(fetches, feed)
        sess = Session(g, optimize="fused")
        for _ in range(2):  # the second run takes the donating path
            for r, o in zip(ref, sess.run(fetches, feed)):
                np.testing.assert_array_equal(o, r)


OUT_FORMS = sorted(n for n, s in OPS.items() if s.out is not None)


class TestOutForms:
    def test_every_fresh_elementwise_op_but_where_has_one(self):
        assert set(OUT_FORMS) == {
            n for n, s in OPS.items() if s.elementwise and s.fresh} - {"where"}

    @pytest.mark.parametrize("op", OUT_FORMS)
    def test_out_form_equals_forward_and_writes_donated_buffer(self, op):
        spec = OPS[op]
        rng = np.random.default_rng(1)
        with np.errstate(all="ignore"):
            for args, attrs in _elementwise_inputs(op, rng):
                ref = spec.forward(args, attrs)
                buf = np.empty_like(ref)
                got = spec.out(args, attrs, buf)
                assert got is buf, op
                assert got.dtype == ref.dtype
                np.testing.assert_array_equal(got, ref)
                # The compiler donates a dying *input*: in place too.
                for k, a in enumerate(args):
                    if a.shape != ref.shape or a.dtype != ref.dtype:
                        continue
                    donor = a.copy()
                    donated = args[:k] + [donor] + args[k + 1:]
                    got = spec.out(donated, attrs, donor)
                    assert got is donor, op
                    np.testing.assert_array_equal(got, ref)


# ---------------------------------------------------------------------------
# Native vocabulary: one-op plans
# ---------------------------------------------------------------------------
def _fed(op, *arrays, **attrs):
    """Case: ``op`` applied to one placeholder per array."""
    def build(g):
        phs = [g.placeholder(a.shape, a.dtype) for a in arrays]
        return apply_op(OPS[op], phs, attrs), dict(zip(phs, arrays)), []
    return build


def _on_variable(op):
    """Case: ``op`` over a variable read (``anchor`` of a placeholder is
    elided at compile time; of mutable state it is a real copy)."""
    def build(g):
        var = Variable("v", np.linspace(-1, 1, 6, dtype=f32).reshape(2, 3),
                       trainable=False, graph=g)
        node = var.read() if op == "read_var" \
            else apply_op(OPS[op], [var.read()], {})
        return node, {}, []
    return build


def _fused_chain(g):
    x = g.placeholder((3, 4), f32)
    feed = {x: _rand(np.random.default_rng(2), (3, 4), f32)}
    return F.tanh(F.add(F.mul(x, 0.5), 1.0)), feed, []


def _optimizer(op, slots, **hyper):
    def build(g):
        rng = np.random.default_rng(3)
        names = ("var",) + slots
        state = {k: Variable(k, _rand(rng, (12,), f32, positive=True),
                             trainable=False, graph=g) for k in names}
        grad = g.placeholder((12,), f32)
        inputs, feed = [grad], {grad: _rand(rng, (12,), f32)}
        if op == "fused_adam":
            t = g.placeholder((), f32)
            inputs.append(t)
            feed[t] = np.asarray(3.0, f32)
        node = apply_op(OPS[op], inputs, {**state, **hyper})
        return node, feed, list(state.values())
    return build


_R = np.random.default_rng(4)
_X = _rand(_R, (3, 4), f32)
_IDX = np.asarray([2, 0, 1, 2], i64)
LOWERING_CASES = {
    "read_var": _on_variable("read_var"),
    "anchor": _on_variable("anchor"),
    "size_of": _fed("size_of", _X), "shape_of": _fed("shape_of", _X),
    "fused": _fused_chain,
    "reshape": _fed("reshape", _X, newshape=(4, -1)),
    "reshape_like": _fed("reshape_like", _X, np.zeros((2, 6), f32)),
    "squeeze": _fed("squeeze", _X[:, :1], axis=1),
    "expand_dims": _fed("expand_dims", _X, axis=1),
    "transpose": _fed("transpose", _X, perm=(1, 0)),
    "matmul": _fed("matmul", _X, _rand(_R, (4, 5), f32)),
    "reduce_sum": _fed("reduce_sum", _X, axis=0),
    "reduce_mean": _fed("reduce_mean", _X, axis=1, keepdims=True),
    "reduce_max": _fed("reduce_max", _X, axis=None),
    "reduce_min": _fed("reduce_min", _X, axis=(0, 1)),
    "argmax": _fed("argmax", _X, axis=1),
    "unbroadcast_like_op": _fed("unbroadcast_like_op", _X,
                                np.zeros((1, 4), f32)),
    "broadcast_like": _fed("broadcast_like", _X[0], _X, axis=0,
                           keepdims=False),
    "one_hot": _fed("one_hot", _IDX, depth=3),
    "gather": _fed("gather", _X, _IDX % 3),
    "concat": _fed("concat", _X, _X[:, :2], axis=1),
    "flatcat": _fed("flatcat", _X, _X[0]),
    "fused_sgd": _optimizer("fused_sgd", ("momentum_var",), lr=0.05,
                            momentum=0.9),
    "fused_adam": _optimizer("fused_adam", ("m", "v"), lr=0.01, beta1=0.9,
                             beta2=0.999, epsilon=1e-8),
    "fused_rmsprop": _optimizer("fused_rmsprop", ("ms",), lr=0.01,
                                decay=0.95, epsilon=1e-6),
}
for _op in native._C_EXPR:
    _arity, _attrs, _dtypes, _pos = ELEMENTWISE[_op]
    _args = [_rand(_R, (3, 4), _dtypes[0], _pos) for _ in range(_arity)]
    if _op == "where":
        _args[0] = _args[0] > 0
    LOWERING_CASES[_op] = _fed(_op, *_args, **_attrs)


def _big_matmul(dtype, transposed):
    """Case: a matmul above ``_MATMUL_NATIVE_LIMIT`` (so native calls
    the process's CBLAS GEMM), optionally over a transposed operand."""
    m, k, n = 64, 96, 80
    assert m * k * n > native._MATMUL_NATIVE_LIMIT
    rng = np.random.default_rng(6)
    a = _rand(rng, (m, k), dtype)
    b = _rand(rng, (n, k) if transposed else (k, n), dtype)

    def build(g):
        pa, pb = g.placeholder(a.shape, dtype), g.placeholder(b.shape, dtype)
        rhs = F.transpose(pb, (1, 0)) if transposed else pb
        return F.matmul(pa, rhs), {pa: a, pb: b}, []
    return build


def _run_case(build, optimize):
    """Fetch the op under test plus a native tail (fused cast*0.5,
    flattened, summed), so the op's step sits in a viable segment;
    returns the fetched values, the final state of the case's variables,
    the stats."""
    g = Graph(name="op-table", seed=5)
    with g.as_default(), symbolic_mode():
        node, feed, state = build(g)
        tail = F.reduce_sum(F.reshape(F.mul(F.cast(node, f32), 0.5), (-1,)))
    sess = Session(g, optimize=optimize)
    values = [sess.run([node, tail], feed) for _ in range(2)][-1]
    return values + [v.value.copy() for v in state], sess.stats


def test_lowering_cases_cover_the_native_tables():
    assert set(LOWERING_CASES) == set(native._LOWERINGS)
    assert set(native._C_EXPR) <= set(native._LOWERINGS)
    assert set(native._LOWERINGS) - {"fused"} <= set(OPS)


@needs_cc
@pytest.mark.native
class TestNativeVocabulary:
    @pytest.mark.parametrize("op", sorted(LOWERING_CASES))
    def test_one_op_plan_lowers_and_matches_interpreter(self, op):
        ref, _ = _run_case(LOWERING_CASES[op], "none")
        out, stats = _run_case(LOWERING_CASES[op], "native")
        for r, o in zip(ref, out):
            assert np.asarray(o).dtype == np.asarray(r).dtype
            np.testing.assert_allclose(o, r, **TOL, err_msg=op)
        assert stats.plans_native == 1
        assert stats.native_steps >= 1
        assert stats.native_py_steps == 0, f"{op} stayed a Python step"

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("dtype", FLOATS)
    def test_matmul_above_the_loop_limit_calls_blas(self, dtype, transposed):
        case = _big_matmul(dtype, transposed)
        ref, _ = _run_case(case, "none")
        out, stats = _run_case(case, "native")
        for r, o in zip(ref, out):
            assert np.asarray(o).dtype == np.asarray(r).dtype
            np.testing.assert_allclose(o, r, **TOL)
        assert stats.plans_native == 1
        assert stats.native_py_steps == 0

    def test_matmul_stays_python_without_a_gemm_symbol(self, monkeypatch):
        monkeypatch.setattr(native, "_find_gemm", lambda ct: None)
        case = _big_matmul(f32, False)
        ref, _ = _run_case(case, "none")
        out, stats = _run_case(case, "native")
        for r, o in zip(ref, out):
            np.testing.assert_allclose(o, r, **TOL)
        assert stats.plans_native == 1  # the tail is still a segment
        assert stats.native_py_steps == 1

    def test_mod_is_not_native_because_it_has_no_entry(self):
        # np.mod's sign semantics differ from C fmod, so the expression
        # table simply has no "mod" — nothing else excludes it.
        assert OPS["mod"].elementwise
        assert set(ELEMENTWISE) - set(native._C_EXPR) == {"mod"}
        assert "mod" not in native._LOWERINGS
        x = _rand(_R, (3, 4), f32)
        case = _fed("mod", x, np.full((4,), 0.4, f32))
        ref, _ = _run_case(case, "none")
        out, stats = _run_case(case, "native")
        for r, o in zip(ref, out):
            np.testing.assert_allclose(o, r, **TOL)
        assert stats.native_steps >= 1 and stats.native_py_steps == 1


# ---------------------------------------------------------------------------
# matmul's transpose flags: forward and adjoint everywhere
# ---------------------------------------------------------------------------
FLAGS = [(False, False), (False, True), (True, False), (True, True)]
LEVELS = ("none", "basic", "fused", "native")


def _flagged_operands(ta, tb, dtype=f32, m=3, k=4, n=5):
    """Stored operands of ``op(x) @ op(y)`` (op(x) is m x k, op(y) is
    k x n) and the weights ``w`` of the loss ``sum(w * op(x) @ op(y))``."""
    rng = np.random.default_rng(8)
    return (_rand(rng, (k, m) if ta else (m, k), dtype),
            _rand(rng, (n, k) if tb else (k, n), dtype),
            _rand(rng, (m, n), dtype))


def _flagged_reference(x, y, w, ta, tb):
    """NumPy forward and adjoints, with the transposes spelled out."""
    ox, oy = (x.T if ta else x), (y.T if tb else y)
    gox, goy = w @ oy.T, ox.T @ w
    return ox @ oy, (gox.T if ta else gox), (goy.T if tb else goy)


def _flagged_graph(x, y, w, ta, tb, optimize):
    """Forward and both adjoints through the graph; the session too."""
    g = Graph(name="matmul-flags", seed=5)
    with g.as_default(), symbolic_mode():
        px, py, pw = (g.placeholder(v.shape, v.dtype) for v in (x, y, w))
        out = F.matmul(px, py, transpose_a=ta, transpose_b=tb)
        gx, gy = gradients(F.reduce_sum(F.mul(out, pw)), [px, py])
    sess = Session(g, optimize=optimize)
    fetches = [out, gx, gy]
    values = [sess.run(fetches, {px: x, py: y, pw: w})
              for _ in range(2)][-1]
    return values, sess, fetches


def _flagged_tape(x, y, w, ta, tb):
    with eager_mode():
        ex, ey = ETensor(x, requires_grad=True), ETensor(y, requires_grad=True)
        out = F.matmul(ex, ey, transpose_a=ta, transpose_b=tb)
        backward(F.reduce_sum(F.mul(out, w)))
        return [out.data, ex.grad, ey.grad]


class TestMatmulFlags:
    @pytest.mark.parametrize("ta,tb", FLAGS)
    def test_shape_rule_follows_the_flags(self, ta, tb):
        x, y, w = _flagged_operands(ta, tb)
        g = Graph(name="matmul-shape")
        with g.as_default(), symbolic_mode():
            out = F.matmul(g.placeholder(x.shape, f32),
                           g.placeholder(y.shape, f32),
                           transpose_a=ta, transpose_b=tb)
        assert out.shape == w.shape

    @pytest.mark.parametrize("ta,tb", FLAGS)
    def test_adjoint_builds_no_transpose(self, ta, tb):
        x, y, w = _flagged_operands(ta, tb)
        _, sess, fetches = _flagged_graph(x, y, w, ta, tb, "basic")
        ops = [step.op for step in sess.compiled_plan(fetches).steps]
        assert ops.count("matmul") == 3 and "transpose" not in ops

    @pytest.mark.parametrize("ta,tb", FLAGS)
    @pytest.mark.parametrize("level", ("none", "basic", "fused", "xtape"))
    def test_interpreted_levels_match_numpy(self, level, ta, tb):
        x, y, w = _flagged_operands(ta, tb)
        ref = _flagged_reference(x, y, w, ta, tb)
        out = (_flagged_tape(x, y, w, ta, tb) if level == "xtape"
               else _flagged_graph(x, y, w, ta, tb, level)[0])
        for r, o in zip(ref, out):
            assert o.shape == r.shape and o.dtype == r.dtype
            np.testing.assert_allclose(o, r, **TOL)

    @needs_cc
    @pytest.mark.native
    @pytest.mark.parametrize("ta,tb", FLAGS)
    @pytest.mark.parametrize("dtype", FLOATS)
    @pytest.mark.parametrize("gemm", [True, False], ids=["gemm", "loop"])
    def test_native_matches_interpreter(self, monkeypatch, gemm, dtype,
                                        ta, tb):
        if not gemm:
            monkeypatch.setattr(native, "_find_gemm", lambda ct: None)
        x, y, w = _flagged_operands(ta, tb, dtype)
        ref, _, _ = _flagged_graph(x, y, w, ta, tb, "none")
        out, sess, fetches = _flagged_graph(x, y, w, ta, tb, "native")
        for r, o in zip(ref, out):
            assert o.shape == r.shape and o.dtype == r.dtype
            np.testing.assert_allclose(o, r, **TOL)
        plan = sess.compiled_plan(fetches)
        assert plan.stats.native_py_steps == 0
        assert plan.c_source.count("((gemm_t)") == (3 if gemm else 0)
        if gemm and (ta or tb):
            assert f", {native._CBLAS_TRANS}, " in plan.c_source

    @needs_cc
    @pytest.mark.native
    def test_every_float_matmul_calls_gemm_when_one_is_found(self):
        # 1 x 4 x 1 multiply-adds: a C loop where no GEMM is found.
        x, y, w = _flagged_operands(False, False, m=1, k=4, n=1)
        _, sess, fetches = _flagged_graph(x, y, w, False, False, "native")
        assert native._find_gemm("float") is not None
        assert sess.compiled_plan(fetches).c_source.count("((gemm_t)") == 3


def test_dqn_plans_hold_no_transpose_step():
    """The dueling DQN's gradient and update plans: every matmul adjoint
    is a flagged matmul, so no plan copies a transpose."""
    agent = DQNAgent(state_space=FloatBox(shape=(6,)), action_space=IntBox(3),
                     network_spec=[{"type": "dense", "units": 8,
                                    "activation": "relu"}],
                     dueling=True, double_q=True, seed=2, optimize="fused")
    rng = np.random.default_rng(0)
    batch = {"states": rng.standard_normal((8, 6)).astype(f32),
             "actions": rng.integers(0, 3, 8),
             "rewards": rng.standard_normal(8).astype(f32),
             "terminals": np.zeros(8, bool),
             "next_states": rng.standard_normal((8, 6)).astype(f32)}
    agent.get_gradients(batch)
    agent.update(batch)
    plans = list(agent.graph.session._compiled.values())
    ops = [step.op for plan in plans for step in plan.steps]
    assert ops.count("matmul") >= 10
    assert "transpose" not in ops


# ---------------------------------------------------------------------------
# Chain temporaries: bool widens to int, uint8 keeps its wraparound
# ---------------------------------------------------------------------------
def _relu_adjoint(g):
    """greater -> cast -> mul: the ReLU adjoint, one bool temporary."""
    rng = np.random.default_rng(9)
    x, up = g.placeholder((6, 8), f32), g.placeholder((6, 8), f32)
    node = F.mul(F.cast(F.greater(x, 0.0), f32), up)
    return node, {x: _rand(rng, (6, 8), f32),
                  up: _rand(rng, (6, 8), f32)}, []


def _uint8_sum(g):
    """cast -> cast -> add in uint8: 200 + 100 wraps to 44 in NumPy."""
    x, y = g.placeholder((2, 4), f32), g.placeholder((2, 4), f32)
    feed = {x: np.full((2, 4), 200.0, f32),
            y: np.asarray([[100, 50, 0, 55], [56, 1, 255, 10]], f32)}
    return F.add(F.cast(x, np.uint8), F.cast(y, np.uint8)), feed, []


@needs_cc
@pytest.mark.native
@pytest.mark.parametrize("case,temp", [(_relu_adjoint, "int"),
                                       (_uint8_sum, "unsigned char")],
                         ids=["bool", "uint8"])
def test_chain_temporaries_keep_numpy_values(case, temp):
    ref, _ = _run_case(case, "none")
    out, stats = _run_case(case, "native")
    np.testing.assert_array_equal(out[0], ref[0])
    assert out[0].dtype == ref[0].dtype
    np.testing.assert_allclose(out[1], ref[1], **TOL)
    assert stats.native_py_steps == 0
    if case is _uint8_sum:
        assert 44 in ref[0] and ref[0].dtype == np.uint8
    g = Graph(name="chain-temps", seed=5)
    with g.as_default(), symbolic_mode():
        node, feed, _ = case(g)
    sess = Session(g, optimize="native")
    sess.run(node, feed)
    source = sess.compiled_plan(node).c_source
    assert f"const {temp} t" in source
    if temp == "int":
        assert "const unsigned char t" not in source
