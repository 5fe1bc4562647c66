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
  and stays a Python step where no GEMM symbol is found.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    Graph,
    Session,
    Variable,
    functional as F,
    native,
    symbolic_mode,
)
from repro.backend.ops import OPS, apply_op

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
