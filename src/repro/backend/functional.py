"""Public functional API (``F``) used inside graph functions.

Each function dispatches through :func:`repro.backend.ops.apply_op`, so the
same graph-function code builds symbolic nodes during a static-graph build
and computes immediately in define-by-run mode (paper §4.2).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backend import context
from repro.backend.eager import ETensor, raw
from repro.backend.graph import Node
from repro.backend.ops import OPS, apply_op, handle_shape


def _op(name, inputs, attrs=None):
    return apply_op(OPS[name], inputs, attrs)


# -- arithmetic ----------------------------------------------------------------
def add(x, y):
    return _op("add", [x, y])


def sub(x, y):
    return _op("sub", [x, y])


def mul(x, y):
    return _op("mul", [x, y])


def div(x, y):
    return _op("div", [x, y])


def neg(x):
    return _op("neg", [x])


def mod(x, y):
    return _op("mod", [x, y])


def power(x, p):
    return _op("power", [x], {"p": float(p)})


def exp(x):
    return _op("exp", [x])


def log(x):
    return _op("log", [x])


def sqrt(x):
    return _op("sqrt", [x])


def square(x):
    return _op("square", [x])


def abs(x):  # noqa: A001 - mirrors np.abs naming
    return _op("abs", [x])


def sign(x):
    return _op("sign", [x])


def floor(x):
    return _op("floor", [x])


def maximum(x, y):
    return _op("maximum", [x, y])


def minimum(x, y):
    return _op("minimum", [x, y])


def clip(x, lo, hi):
    return _op("clip", [x], {"lo": float(lo), "hi": float(hi)})


# -- activations -----------------------------------------------------------------
def relu(x):
    return _op("relu", [x])


def tanh(x):
    return _op("tanh", [x])


def sigmoid(x):
    return _op("sigmoid", [x])


def softplus(x):
    return _op("softplus", [x])


def atanh(x):
    return _op("atanh", [x])


# -- comparisons ------------------------------------------------------------------
def equal(x, y):
    return _op("equal", [x, y])


def not_equal(x, y):
    return _op("not_equal", [x, y])


def greater(x, y):
    return _op("greater", [x, y])


def greater_equal(x, y):
    return _op("greater_equal", [x, y])


def less(x, y):
    return _op("less", [x, y])


def less_equal(x, y):
    return _op("less_equal", [x, y])


def logical_and(x, y):
    return _op("logical_and", [x, y])


def logical_or(x, y):
    return _op("logical_or", [x, y])


def logical_not(x):
    return _op("logical_not", [x])


def cast(x, dtype):
    return _op("cast", [x], {"dtype": np.dtype(dtype)})


# -- linear algebra / reductions -----------------------------------------------
def matmul(x, y, transpose_a=False, transpose_b=False):
    """``(x.T if transpose_a else x) @ (y.T if transpose_b else y)``; the
    flags reach BLAS as its transpose arguments instead of a copy."""
    return _op("matmul", [x, y], {"transpose_a": bool(transpose_a),
                                  "transpose_b": bool(transpose_b)})


def reduce_sum(x, axis=None, keepdims=False):
    return _op("reduce_sum", [x], {"axis": axis, "keepdims": keepdims})


def reduce_mean(x, axis=None, keepdims=False):
    return _op("reduce_mean", [x], {"axis": axis, "keepdims": keepdims})


def reduce_max(x, axis=None, keepdims=False):
    return _op("reduce_max", [x], {"axis": axis, "keepdims": keepdims})


def reduce_min(x, axis=None, keepdims=False):
    return _op("reduce_min", [x], {"axis": axis, "keepdims": keepdims})


def argmax(x, axis=None):
    return _op("argmax", [x], {"axis": axis})


def cumsum(x, axis=-1):
    return _op("cumsum", [x], {"axis": axis})


def flip(x, axis):
    return _op("flip", [x], {"axis": axis})


# -- shape ops --------------------------------------------------------------------
def reshape(x, newshape):
    return _op("reshape", [x], {"newshape": tuple(newshape)})


def reshape_like(x, ref):
    return _op("reshape_like", [x, ref])


def transpose(x, perm):
    return _op("transpose", [x], {"perm": tuple(perm)})


def expand_dims(x, axis):
    return _op("expand_dims", [x], {"axis": axis})


def squeeze(x, axis=None):
    return _op("squeeze", [x], {"axis": axis})


def concat(values: Sequence, axis=0):
    return _op("concat", list(values), {"axis": axis})


def concat_slice(g, *parts, index, axis):
    return _op("concat_slice", [g, *parts], {"index": index, "axis": axis})


def stack(values: Sequence, axis=0):
    return _op("stack", list(values), {"axis": axis})


def take_index(x, index, axis=0):
    return _op("take_index", [x], {"index": index, "axis": axis})


def getitem(x, idx):
    return _op("getitem", [x], {"idx": idx})


def getitem_grad(g, x, idx):
    return _op("getitem_grad", [g, x], {"idx": idx})


def gather(params, indices):
    """Select rows (axis 0) of ``params`` by integer ``indices``."""
    return _op("gather", [params, indices])


def gather_grad(g, params, indices):
    return _op("gather_grad", [g, params, indices])


def one_hot(indices, depth: int):
    return _op("one_hot", [indices], {"depth": int(depth)})


def where(cond, x, y):
    return _op("where", [cond, x, y])


def identity(x):
    return _op("identity", [x])


def ones_like(x, dtype=np.float32):
    """Ones with the runtime shape of ``x`` (one cheap kernel, and the
    compiler constant-folds it when ``x`` has a constant shape)."""
    return _op("ones_like", [x], {"dtype": np.dtype(dtype)})


def anchor(x, *deps):
    """Pass ``x`` through while data-depending on ``deps``. The graph
    compiler elides the node entirely; the interpreter forwards ``x``."""
    return _op("anchor", [x, *deps])


def flatcat(handles: Sequence):
    """Coalesce tensors into one flat float32 vector — a single graph
    node regardless of the number of inputs (fused optimizer path)."""
    return _op("flatcat", list(handles))


def stop_gradient(x):
    return _op("stop_gradient", [x])


def tile(x, reps):
    return _op("tile", [x], {"reps": tuple(reps)})


def shape_of(x):
    """Runtime shape as an int64 vector."""
    return _op("shape_of", [x])


def size_of(x):
    return _op("size_of", [x])


def dyn_arange(n):
    """``np.arange`` with a runtime scalar bound."""
    return _op("dyn_arange", [n])


def searchsorted(sorted_seq, values, side="left"):
    return _op("searchsorted", [sorted_seq, values], {"side": side})


# -- backward helpers --------------------------------------------------------------
def unbroadcast_like(g, ref):
    g_shape, r_shape = handle_shape(g), handle_shape(ref)
    if (g_shape is not None and r_shape is not None
            and None not in g_shape and None not in r_shape
            and tuple(g_shape) == tuple(r_shape)):
        return g
    return _op("unbroadcast_like_op", [g, ref])


def broadcast_like(g, ref, axis=None, keepdims=False):
    return _op("broadcast_like", [g, ref], {"axis": axis, "keepdims": keepdims})


# -- nn ------------------------------------------------------------------------------
def conv2d(x, filters, stride=1, padding="VALID"):
    return _op("conv2d", [x, filters], {"stride": int(stride),
                                        "padding": padding})


def conv2d_grad_input(g, x, filters, stride, padding):
    return _op("conv2d_grad_input", [g, x, filters],
               {"stride": stride, "padding": padding})


def conv2d_grad_filters(g, x, filters, stride, padding):
    return _op("conv2d_grad_filters", [g, x, filters],
               {"stride": stride, "padding": padding})


def lstm_seq(x, w, b, h0, c0):
    """Time-major LSTM returning the full (T, B, H) output sequence."""
    return _op("lstm_seq", [x, w, b, h0, c0])


def lstm_final_c(x, w, b, h0, c0):
    """Final cell state (no gradient; used to carry state across rollouts)."""
    return _op("lstm_final_c", [x, w, b, h0, c0])


def lstm_grad(g, x, w, b, h0, c0, which: int):
    return _op("lstm_grad", [g, x, w, b, h0, c0], {"which": which})


# -- random -------------------------------------------------------------------------
_eager_seed_counter = [0]


def _seed():
    if context.is_symbolic():
        return context.current_graph().next_op_seed()
    _eager_seed_counter[0] += 1
    return _eager_seed_counter[0] * 7919 + 13


def random_uniform(shape=None, low=0.0, high=1.0, like=None, ref_rank=None,
                   seed=None):
    attrs = {"low": float(low), "high": float(high),
             "seed": seed if seed is not None else _seed()}
    if like is not None:
        attrs["ref_rank"] = ref_rank
        return _op("random_uniform", [like], attrs)
    attrs["shape"] = tuple(shape)
    return _op("random_uniform", [], attrs)


def random_normal(shape=None, mean=0.0, stddev=1.0, like=None, seed=None):
    attrs = {"mean": float(mean), "stddev": float(stddev),
             "seed": seed if seed is not None else _seed()}
    if like is not None:
        return _op("random_normal", [like], attrs)
    attrs["shape"] = tuple(shape)
    return _op("random_normal", [], attrs)


def vtrace(log_rhos, discounts, rewards, values, bootstrap_value,
           clip_rho_threshold=1.0, clip_pg_rho_threshold=1.0):
    """V-trace targets: returns (vs, pg_advantages), both stop-gradient."""
    attrs = {"clip_rho_threshold": clip_rho_threshold,
             "clip_pg_rho_threshold": clip_pg_rho_threshold}
    vs = _op("vtrace", [log_rhos, discounts, rewards, values, bootstrap_value],
             {**attrs, "which": 0})
    pg_adv = _op("vtrace", [log_rhos, discounts, rewards, values,
                            bootstrap_value], {**attrs, "which": 1})
    return vs, pg_adv


def zeros2d(n, cols: int):
    """A (n, cols) float32 zero matrix with runtime row count."""
    return _op("zeros2d", [n], {"cols": int(cols)})


# -- fused optimizer updates (flat-parameter learner path) --------------------
def fused_sgd(flat_grad, var, lr, momentum=0.0, momentum_var=None):
    """In-place SGD over a whole parameter slab: one stateful node."""
    return _op("fused_sgd", [flat_grad],
               {"var": var, "lr": float(lr), "momentum": float(momentum),
                "momentum_var": momentum_var})


def fused_adam(flat_grad, t, var, m, v, lr, beta1, beta2, epsilon):
    """In-place Adam over a whole parameter slab: one stateful node."""
    return _op("fused_adam", [flat_grad, t],
               {"var": var, "m": m, "v": v, "lr": float(lr),
                "beta1": float(beta1), "beta2": float(beta2),
                "epsilon": float(epsilon)})


def fused_rmsprop(flat_grad, var, ms, lr, decay, epsilon):
    """In-place RMSProp over a whole parameter slab: one stateful node."""
    return _op("fused_rmsprop", [flat_grad],
               {"var": var, "ms": ms, "lr": float(lr), "decay": float(decay),
                "epsilon": float(epsilon)})


def py_func(fn, inputs=(), shape=None, dtype=None):
    """Wrap an arbitrary Python callable as a stateful op (TF py_func)."""
    return _op("py_func", list(inputs), {"fn": fn, "shape": shape,
                                         "dtype": dtype})


# -- composites ------------------------------------------------------------------------
def softmax(x, axis=-1):
    shifted = sub(x, stop_gradient(reduce_max(x, axis=axis, keepdims=True)))
    e = exp(shifted)
    return div(e, reduce_sum(e, axis=axis, keepdims=True))


def log_softmax(x, axis=-1):
    shifted = sub(x, stop_gradient(reduce_max(x, axis=axis, keepdims=True)))
    return sub(shifted, log(reduce_sum(exp(shifted), axis=axis, keepdims=True)))


def logsumexp(x, axis=None, keepdims=False):
    m = stop_gradient(reduce_max(x, axis=axis, keepdims=True))
    out = add(log(reduce_sum(exp(sub(x, m)), axis=axis, keepdims=True)), m)
    if not keepdims:
        out = squeeze(out, axis=axis) if axis is not None else reshape(out, ())
    return out


def huber_loss(x, delta: float = 1.0):
    """Elementwise Huber: 0.5 x^2 for |x| <= delta, linear beyond."""
    abs_x = abs(x)
    quadratic = mul(0.5, square(x))
    linear = mul(delta, sub(abs_x, 0.5 * delta))
    return where(less_equal(abs_x, delta), quadratic, linear)


def l2_loss(x):
    return mul(0.5, reduce_sum(square(x)))


def flatten_batch(x):
    """Collapse all but the leading (batch) dim: (B, ...) -> (B, prod)."""
    shape = handle_shape(x)
    if shape is None or None in shape[1:]:
        raise TypeError(f"flatten_batch needs known trailing dims, got {shape}")
    flat = int(np.prod(shape[1:])) if len(shape) > 1 else 1
    return reshape(x, (-1, flat))


def group(*deps):
    """Bundle side-effect handles into one op (symbolic) / no-op (eager)."""
    if context.is_symbolic():
        node = identity(0.0)
        node.with_deps(*[d for d in deps if isinstance(d, Node)])
        return node
    return None


def with_deps(value, *deps):
    """Force ``deps`` to execute before ``value`` (symbolic only)."""
    if context.is_symbolic():
        if not isinstance(value, Node):
            value = identity(value)
        else:
            value = identity(value)
        value.with_deps(*[d for d in deps if isinstance(d, Node)])
        return value
    return value


def to_numpy(x):
    """Eager-mode value extraction (raises in symbolic mode)."""
    if isinstance(x, Node):
        raise TypeError("to_numpy called on a symbolic Node; run a Session")
    return raw(x)
