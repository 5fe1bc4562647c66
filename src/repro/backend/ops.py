"""Op specifications shared by the symbolic graph and the eager tape.

Every primitive is an :class:`OpSpec`: a NumPy forward kernel, an optional
gradient rule (written against :mod:`repro.backend.functional`, so the
same rule builds grad *nodes* in symbolic mode and computes grad *values*
in eager mode), and best-effort shape/dtype inference for graph
construction.

``apply_op`` is the single dispatch point:

* symbolic mode -> creates a :class:`~repro.backend.graph.Node`;
* eager mode    -> computes immediately, recording to the tape when any
  input requires gradients.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.backend import context
from repro.backend import kernels
from repro.backend.eager import ETensor, _needs_grad, raw
from repro.backend.graph import Graph, Node
from repro.utils.errors import RLGraphError


class OpSpec:
    """Definition of a primitive operation — the one declaration of
    everything the NumPy-level stack knows about it.

    Besides the forward, gradient and shape/dtype rules it carries the
    facts the graph compiler reads, set where the op is registered
    (``docs/architecture.md``, "Adding an op"):

    ``elementwise``: a shape-preserving / broadcasting NumPy call with no
    state and no Python-level side effects; may join a fused kernel.
    ``fresh``: the forward ALWAYS returns a newly allocated array that
    aliases neither its inputs nor variable state, so its value's buffer
    may be donated as an in-place output. Ops returning views
    (reshape/transpose/getitem/flip), possibly an input itself
    (``identity``, ``unbroadcast_like_op``, one-input ``flatcat``) or
    variable state (``read_var``/``assign``) are not.
    ``alias_safe`` (default: ``fresh``): as a consumer the op keeps no
    alias of an argument past its step; a buffer is only donated when
    every consumer of its value is alias-safe.
    ``foldable``: may be evaluated at compile time on constant inputs;
    False when the output can be unboundedly larger than the inputs.
    ``mutates`` (default: ``stateful``; reads and private RNG streams opt
    out): writes observable state, i.e. is a mutation barrier — variable
    buffers change in place, so a state-dependent value on one side is
    not interchangeable with the "same" expression on the other.
    ``out``: ``fn(args, attrs, out)`` writing the forward's result into a
    donated buffer instead of allocating (a bare ufunc ``u`` stands for
    ``u(*args, out=out)``); must be arithmetic-identical to the forward,
    which NumPy ufuncs are regardless of ``out``.
    """

    __slots__ = ("name", "forward", "grad", "shape_fn", "dtype_fn", "stateful",
                 "elementwise", "fresh", "alias_safe", "foldable", "mutates",
                 "out")

    def __init__(self, name: str,
                 forward: Callable[[List[np.ndarray], Dict[str, Any]], np.ndarray],
                 grad: Optional[Callable] = None,
                 shape_fn: Optional[Callable] = None,
                 dtype_fn: Optional[Callable] = None,
                 stateful: bool = False, *, elementwise: bool = False,
                 fresh: bool = False, alias_safe: Optional[bool] = None,
                 foldable: bool = True, mutates: Optional[bool] = None,
                 out: Optional[Callable] = None):
        if isinstance(out, np.ufunc):
            ufunc = out
            out = lambda i, a, buf: ufunc(*i, out=buf)  # noqa: E731
        self.name = name
        self.forward = forward
        self.grad = grad
        self.shape_fn = shape_fn
        self.dtype_fn = dtype_fn
        self.stateful = stateful
        self.elementwise = elementwise
        self.fresh = fresh
        self.alias_safe = fresh if alias_safe is None else alias_safe
        self.foldable = foldable
        self.mutates = stateful if mutates is None else mutates
        self.out = out


OPS: Dict[str, OpSpec] = {}


def register_op(name: str, forward, grad=None, shape_fn=None, dtype_fn=None,
                stateful=False, **facts) -> OpSpec:
    if name in OPS:
        raise RLGraphError(f"Op {name!r} already registered")
    spec = OpSpec(name, forward, grad, shape_fn, dtype_fn, stateful, **facts)
    OPS[name] = spec
    return spec


# ---------------------------------------------------------------------------
# Handle coercion
# ---------------------------------------------------------------------------
def as_symbolic(value, graph: Graph) -> Node:
    if isinstance(value, Node):
        if value.graph is not graph:
            raise RLGraphError(
                f"Node {value.name} belongs to graph {value.graph.name}, "
                f"not the current graph {graph.name}")
        return value
    if isinstance(value, ETensor):
        return graph.constant(value.data)
    return graph.constant(value)


def handle_shape(handle):
    """Best-known shape of a handle (may contain None) or None."""
    if isinstance(handle, Node):
        return handle.shape
    if isinstance(handle, ETensor):
        return handle.data.shape
    return np.shape(handle)


def handle_dtype(handle):
    if isinstance(handle, Node):
        return handle.dtype
    if isinstance(handle, ETensor):
        return handle.data.dtype
    arr = np.asarray(handle)
    if arr.dtype == np.float64:
        return np.dtype(np.float32)
    return arr.dtype


def apply_op(spec: OpSpec, inputs: Sequence[Any], attrs: Optional[Dict] = None,
             name: str = ""):
    attrs = attrs or {}
    if context.is_symbolic():
        graph = context.current_graph()
        nodes = [as_symbolic(x, graph) for x in inputs]
        shape = None
        dtype = None
        try:
            if spec.shape_fn is not None:
                shape = spec.shape_fn([n.shape for n in nodes], attrs)
        except Exception:
            shape = None
        try:
            if spec.dtype_fn is not None:
                dtype = spec.dtype_fn([n.dtype for n in nodes], attrs)
            else:
                known = [n.dtype for n in nodes if n.dtype is not None]
                dtype = np.result_type(*known) if known else None
                if dtype == np.float64:
                    dtype = np.dtype(np.float32)
        except Exception:
            dtype = None
        return Node(graph, spec.name, nodes, attrs, shape, dtype, name=name,
                    stateful=spec.stateful)
    # Eager path.
    raws = [raw(x) for x in inputs]
    out = spec.forward(raws, attrs)
    if (spec.grad is not None and context.grad_enabled()
            and any(_needs_grad(x) for x in inputs)):
        return ETensor(out, parents=list(inputs), spec=spec, attrs=attrs)
    return out


# ---------------------------------------------------------------------------
# Shape inference helpers (None-aware)
# ---------------------------------------------------------------------------
def broadcast_shapes_unknown(shapes):
    """NumPy broadcast over shapes that may contain None dims."""
    if any(s is None for s in shapes):
        return None
    ndim = max((len(s) for s in shapes), default=0)
    # Shorter shapes broadcast as if left-padded with 1s (known!), so pad
    # with 1 — padding with None would wrongly mark result dims unknown.
    padded = [(1,) * (ndim - len(s)) + tuple(s) for s in shapes]
    out = []
    for dims in zip(*padded):
        known = [d for d in dims if d is not None]
        if not known:
            out.append(None)
        elif all(d == 1 for d in known):
            # All known dims are 1; an unknown dim (padded or None) decides.
            out.append(1 if len(known) == len(dims) else None)
        else:
            non_one = {d for d in known if d != 1}
            if len(non_one) > 1:
                raise RLGraphError(f"Incompatible broadcast shapes {shapes}")
            dim = non_one.pop()
            out.append(dim if None not in dims else dim)
    return tuple(out)


def _ew_shape(shapes, attrs):
    return broadcast_shapes_unknown(shapes)


def _first_shape(shapes, attrs):
    return shapes[0]


def _reduce_shape(shapes, attrs):
    shape = shapes[0]
    if shape is None:
        return None
    axis = attrs.get("axis")
    keepdims = attrs.get("keepdims", False)
    if axis is None:
        return (1,) * len(shape) if keepdims else ()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    out = []
    for i, d in enumerate(shape):
        if i in axes:
            if keepdims:
                out.append(1)
        else:
            out.append(d)
    return tuple(out)


def _matmul_shape(shapes, attrs):
    a, b = shapes
    if a is None or b is None:
        return None
    if len(a) != 2 or len(b) != 2:
        return None
    return (a[0], b[1])


def _bool_dtype(dtypes, attrs):
    return np.dtype(np.bool_)


def _float_dtype(dtypes, attrs):
    return np.dtype(np.float32)


def _int_dtype(dtypes, attrs):
    return np.dtype(np.int64)


def _first_dtype(dtypes, attrs):
    return dtypes[0]


# ---------------------------------------------------------------------------
# Gradient rule helpers
# ---------------------------------------------------------------------------
def _F():
    from repro.backend import functional as F
    return F


# ======================= elementwise arithmetic =============================
def _grad_add(inputs, output, g, attrs):
    F = _F()
    x, y = inputs
    return (F.unbroadcast_like(g, x), F.unbroadcast_like(g, y))


def _grad_sub(inputs, output, g, attrs):
    F = _F()
    x, y = inputs
    return (F.unbroadcast_like(g, x), F.unbroadcast_like(F.neg(g), y))


def _grad_mul(inputs, output, g, attrs):
    F = _F()
    x, y = inputs
    return (F.unbroadcast_like(F.mul(g, y), x),
            F.unbroadcast_like(F.mul(g, x), y))


def _grad_div(inputs, output, g, attrs):
    F = _F()
    x, y = inputs
    gx = F.div(g, y)
    gy = F.neg(F.div(F.mul(g, x), F.mul(y, y)))
    return (F.unbroadcast_like(gx, x), F.unbroadcast_like(gy, y))


# Every elementwise op below allocates its result (``_EW``); its ``out``
# form sits beside the forward it must equal. Forwards keep their operator
# spelling: ``i[0] + i[1]`` and ``np.add(...)`` promote scalars differently.
_EW = dict(elementwise=True, fresh=True)

register_op("add", lambda i, a: i[0] + i[1], _grad_add, _ew_shape,
            out=np.add, **_EW)
register_op("sub", lambda i, a: i[0] - i[1], _grad_sub, _ew_shape,
            out=np.subtract, **_EW)
register_op("mul", lambda i, a: i[0] * i[1], _grad_mul, _ew_shape,
            out=np.multiply, **_EW)
register_op("div", lambda i, a: np.true_divide(i[0], i[1]).astype(np.float32)
            if np.issubdtype(np.asarray(i[0]).dtype, np.integer)
            and np.issubdtype(np.asarray(i[1]).dtype, np.integer)
            else np.true_divide(i[0], i[1]),
            _grad_div, _ew_shape, dtype_fn=_float_dtype,
            out=np.true_divide, **_EW)
register_op("neg", lambda i, a: -i[0],
            lambda inp, out, g, a: (_F().neg(g),), _first_shape,
            out=np.negative, **_EW)
register_op("mod", lambda i, a: np.mod(i[0], i[1]), None, _ew_shape,
            out=np.mod, **_EW)
register_op("power", lambda i, a: np.power(i[0], a["p"]),
            lambda inp, out, g, a: (
                _F().mul(g, _F().mul(a["p"], _F().power(inp[0], a["p"] - 1))),),
            _first_shape, dtype_fn=_float_dtype,
            out=lambda i, a, out: np.power(i[0], a["p"], out=out), **_EW)

register_op("exp", lambda i, a: np.exp(i[0]),
            lambda inp, out, g, a: (_F().mul(g, out),),
            _first_shape, dtype_fn=_float_dtype, out=np.exp, **_EW)
register_op("log", lambda i, a: np.log(i[0]),
            lambda inp, out, g, a: (_F().div(g, inp[0]),),
            _first_shape, dtype_fn=_float_dtype, out=np.log, **_EW)
register_op("sqrt", lambda i, a: np.sqrt(i[0]),
            lambda inp, out, g, a: (_F().div(g, _F().mul(2.0, out)),),
            _first_shape, dtype_fn=_float_dtype, out=np.sqrt, **_EW)
register_op("square", lambda i, a: np.square(i[0]),
            lambda inp, out, g, a: (_F().mul(g, _F().mul(2.0, inp[0])),),
            _first_shape, out=np.square, **_EW)
register_op("abs", lambda i, a: np.abs(i[0]),
            lambda inp, out, g, a: (_F().mul(g, _F().sign(inp[0])),),
            _first_shape, out=np.absolute, **_EW)
register_op("sign", lambda i, a: np.sign(i[0]), None, _first_shape,
            out=np.sign, **_EW)
register_op("floor", lambda i, a: np.floor(i[0]), None, _first_shape,
            out=np.floor, **_EW)


def _grad_maximum(inputs, output, g, attrs):
    F = _F()
    x, y = inputs
    mask = F.cast(F.greater_equal(x, y), np.float32)
    return (F.unbroadcast_like(F.mul(g, mask), x),
            F.unbroadcast_like(F.mul(g, F.sub(1.0, mask)), y))


def _grad_minimum(inputs, output, g, attrs):
    F = _F()
    x, y = inputs
    mask = F.cast(F.less_equal(x, y), np.float32)
    return (F.unbroadcast_like(F.mul(g, mask), x),
            F.unbroadcast_like(F.mul(g, F.sub(1.0, mask)), y))


register_op("maximum", lambda i, a: np.maximum(i[0], i[1]), _grad_maximum,
            _ew_shape, out=np.maximum, **_EW)
register_op("minimum", lambda i, a: np.minimum(i[0], i[1]), _grad_minimum,
            _ew_shape, out=np.minimum, **_EW)


def _grad_clip(inputs, output, g, attrs):
    F = _F()
    x = inputs[0]
    inside = F.logical_and(F.greater_equal(x, attrs["lo"]),
                           F.less_equal(x, attrs["hi"]))
    return (F.mul(g, F.cast(inside, np.float32)),)


register_op("clip", lambda i, a: np.clip(i[0], a["lo"], a["hi"]), _grad_clip,
            _first_shape,
            out=lambda i, a, out: np.clip(i[0], a["lo"], a["hi"], out=out),
            **_EW)

# ======================= activations ========================================
def _sigmoid_out(i, a, out):
    np.negative(i[0], out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.true_divide(1.0, out, out=out)


register_op("relu", lambda i, a: np.maximum(i[0], 0),
            lambda inp, out, g, a: (
                _F().mul(g, _F().cast(_F().greater(inp[0], 0.0), np.float32)),),
            _first_shape,
            out=lambda i, a, out: np.maximum(i[0], 0, out=out), **_EW)
register_op("tanh", lambda i, a: np.tanh(i[0]),
            lambda inp, out, g, a: (
                _F().mul(g, _F().sub(1.0, _F().square(out))),),
            _first_shape, dtype_fn=_float_dtype, out=np.tanh, **_EW)
register_op("sigmoid", lambda i, a: 1.0 / (1.0 + np.exp(-i[0])),
            lambda inp, out, g, a: (
                _F().mul(g, _F().mul(out, _F().sub(1.0, out))),),
            _first_shape, dtype_fn=_float_dtype, out=_sigmoid_out, **_EW)
register_op("softplus", lambda i, a: np.logaddexp(0.0, i[0]),
            lambda inp, out, g, a: (_F().mul(g, _F().sigmoid(inp[0])),),
            _first_shape, dtype_fn=_float_dtype,
            out=lambda i, a, out: np.logaddexp(0.0, i[0], out=out), **_EW)
register_op("atanh", lambda i, a: np.arctanh(i[0]),
            lambda inp, out, g, a: (
                _F().div(g, _F().sub(1.0, _F().square(inp[0]))),),
            _first_shape, dtype_fn=_float_dtype, out=np.arctanh, **_EW)

# ======================= comparisons / logic =================================
for _name, _fn in [("equal", np.equal), ("not_equal", np.not_equal),
                   ("greater", np.greater), ("greater_equal", np.greater_equal),
                   ("less", np.less), ("less_equal", np.less_equal)]:
    register_op(_name, (lambda f: lambda i, a: f(i[0], i[1]))(_fn), None,
                _ew_shape, dtype_fn=_bool_dtype, out=_fn, **_EW)

register_op("logical_and", lambda i, a: np.logical_and(i[0], i[1]), None,
            _ew_shape, dtype_fn=_bool_dtype, out=np.logical_and, **_EW)
register_op("logical_or", lambda i, a: np.logical_or(i[0], i[1]), None,
            _ew_shape, dtype_fn=_bool_dtype, out=np.logical_or, **_EW)
register_op("logical_not", lambda i, a: np.logical_not(i[0]), None,
            _first_shape, dtype_fn=_bool_dtype, out=np.logical_not, **_EW)


def _grad_cast(inputs, output, g, attrs):
    F = _F()
    src = handle_dtype(inputs[0])
    if src is not None and np.issubdtype(src, np.floating):
        return (F.cast(g, src),)
    return (None,)


def _cast_out(i, a, out):
    np.copyto(out, i[0], casting="unsafe")
    return out


register_op("cast", lambda i, a: np.asarray(i[0]).astype(a["dtype"]), _grad_cast,
            _first_shape, dtype_fn=lambda d, a: np.dtype(a["dtype"]),
            out=_cast_out, **_EW)

# ======================= linear algebra ======================================
def _grad_matmul(inputs, output, g, attrs):
    F = _F()
    x, y = inputs
    return (F.matmul(g, F.transpose(y, (1, 0))),
            F.matmul(F.transpose(x, (1, 0)), g))


register_op("matmul", lambda i, a: i[0] @ i[1], _grad_matmul, _matmul_shape,
            dtype_fn=_float_dtype, fresh=True)

# ======================= reductions ==========================================
def _grad_sum(inputs, output, g, attrs):
    F = _F()
    return (F.broadcast_like(g, inputs[0], axis=attrs.get("axis"),
                             keepdims=attrs.get("keepdims", False)),)


def _grad_mean(inputs, output, g, attrs):
    F = _F()
    x = inputs[0]
    gb = F.broadcast_like(g, x, axis=attrs.get("axis"),
                          keepdims=attrs.get("keepdims", False))
    ratio = F.div(F.cast(F.size_of(output), np.float32),
                  F.cast(F.size_of(x), np.float32))
    return (F.mul(gb, ratio),)


def _grad_reduce_max(inputs, output, g, attrs):
    F = _F()
    x = inputs[0]
    out_b = F.broadcast_like(output, x, axis=attrs.get("axis"),
                             keepdims=attrs.get("keepdims", False))
    g_b = F.broadcast_like(g, x, axis=attrs.get("axis"),
                           keepdims=attrs.get("keepdims", False))
    mask = F.cast(F.equal(x, out_b), np.float32)
    return (F.mul(g_b, mask),)


register_op("reduce_sum",
            lambda i, a: np.sum(i[0], axis=a.get("axis"),
                                keepdims=a.get("keepdims", False)),
            _grad_sum, _reduce_shape, fresh=True)
register_op("reduce_mean",
            lambda i, a: np.mean(i[0], axis=a.get("axis"),
                                 keepdims=a.get("keepdims", False),
                                 dtype=np.float32),
            _grad_mean, _reduce_shape, dtype_fn=_float_dtype, fresh=True)
register_op("reduce_max",
            lambda i, a: np.max(i[0], axis=a.get("axis"),
                                keepdims=a.get("keepdims", False)),
            _grad_reduce_max, _reduce_shape, fresh=True)
register_op("reduce_min",
            lambda i, a: np.min(i[0], axis=a.get("axis"),
                                keepdims=a.get("keepdims", False)),
            None, _reduce_shape, fresh=True)
register_op("argmax", lambda i, a: np.argmax(i[0], axis=a.get("axis")),
            None, _reduce_shape, dtype_fn=_int_dtype, fresh=True)
register_op("cumsum", lambda i, a: np.cumsum(i[0], axis=a.get("axis", -1)),
            lambda inp, out, g, a: (
                _F().flip(_F().cumsum(_F().flip(g, a.get("axis", -1)),
                                      axis=a.get("axis", -1)),
                          a.get("axis", -1)),),
            _first_shape, fresh=True)
# np.flip returns a reversed VIEW of its input: not fresh.
register_op("flip", lambda i, a: np.flip(i[0], axis=a["axis"]),
            lambda inp, out, g, a: (_F().flip(g, a["axis"]),), _first_shape)

# ======================= shape manipulation ==================================
def _reshape_shape(shapes, attrs):
    new = attrs["newshape"]
    if any(d == -1 or d is None for d in new):
        src = shapes[0]
        if src is not None and all(d is not None for d in src):
            try:
                return np.empty(src).reshape(new).shape
            except Exception:
                return tuple(None if (d == -1 or d is None) else d for d in new)
        return tuple(None if (d == -1 or d is None) else d for d in new)
    return tuple(new)


def _reshape_fwd(i, a):
    new = tuple(-1 if d is None else d for d in a["newshape"])
    return np.reshape(i[0], new)


register_op("reshape", _reshape_fwd,
            lambda inp, out, g, a: (_F().reshape_like(g, inp[0]),),
            _reshape_shape)
register_op("reshape_like", lambda i, a: np.reshape(i[0], np.shape(i[1])),
            lambda inp, out, g, a: (_F().reshape_like(g, inp[0]), None),
            lambda shapes, a: shapes[1])


def _transpose_shape(shapes, attrs):
    s = shapes[0]
    if s is None:
        return None
    perm = attrs["perm"]
    return tuple(s[p] for p in perm)


register_op("transpose", lambda i, a: np.transpose(i[0], a["perm"]),
            lambda inp, out, g, a: (
                _F().transpose(g, tuple(np.argsort(a["perm"]))),),
            _transpose_shape)


def _expand_shape(shapes, attrs):
    s = shapes[0]
    if s is None:
        return None
    axis = attrs["axis"] % (len(s) + 1)
    return s[:axis] + (1,) + s[axis:]


register_op("expand_dims", lambda i, a: np.expand_dims(i[0], a["axis"]),
            lambda inp, out, g, a: (_F().reshape_like(g, inp[0]),),
            _expand_shape)
register_op("squeeze", lambda i, a: np.squeeze(i[0], axis=a.get("axis")),
            lambda inp, out, g, a: (_F().reshape_like(g, inp[0]),),
            lambda shapes, a: None if shapes[0] is None else tuple(
                d for i2, d in enumerate(shapes[0])
                if not (d == 1 and (a.get("axis") is None
                                    or i2 in np.atleast_1d(a.get("axis"))))))


def _concat_shape(shapes, attrs):
    if any(s is None for s in shapes):
        return None
    axis = attrs.get("axis", 0)
    base = list(shapes[0])
    axis = axis % len(base)
    total = 0
    for s in shapes:
        if s[axis] is None:
            total = None
            break
        total += s[axis]
    base[axis] = total
    for i, d in enumerate(base):
        if i != axis:
            if any(s[i] != d for s in shapes if s[i] is not None and d is not None):
                return None
    return tuple(base)


def _grad_concat(inputs, output, g, attrs):
    F = _F()
    axis = attrs.get("axis", 0)
    grads = []
    for idx in range(len(inputs)):
        grads.append(F.concat_slice(g, *inputs, index=idx, axis=axis))
    return tuple(grads)


def _concat_slice_fwd(i, a):
    g = i[0]
    parts = i[1:]
    axis = a["axis"]
    index = a["index"]
    start = sum(np.shape(p)[axis] for p in parts[:index])
    stop = start + np.shape(parts[index])[axis]
    slicer = [slice(None)] * np.ndim(g)
    slicer[axis] = slice(start, stop)
    return g[tuple(slicer)]


register_op("concat", lambda i, a: np.concatenate(i, axis=a.get("axis", 0)),
            _grad_concat, _concat_shape, fresh=True)
register_op("concat_slice", _concat_slice_fwd,
            None, lambda shapes, a: shapes[1 + a["index"]])


def _stack_shape(shapes, attrs):
    if any(s is None for s in shapes):
        return None
    axis = attrs.get("axis", 0)
    base = list(shapes[0])
    axis = axis % (len(base) + 1)
    return tuple(base[:axis] + [len(shapes)] + base[axis:])


def _grad_stack(inputs, output, g, attrs):
    F = _F()
    axis = attrs.get("axis", 0)
    return tuple(F.take_index(g, i, axis=axis) for i in range(len(inputs)))


register_op("stack", lambda i, a: np.stack(i, axis=a.get("axis", 0)),
            _grad_stack, _stack_shape, fresh=True)
register_op("take_index", lambda i, a: np.take(i[0], a["index"], axis=a["axis"]),
            None,
            lambda shapes, a: None if shapes[0] is None else tuple(
                d for j, d in enumerate(shapes[0]) if j != a["axis"] % len(shapes[0])),
            fresh=True)


_SHAPE_SENTINEL = 1000003  # replaces unknown dims during shape probing


def _getitem_shape(shapes, attrs):
    s = shapes[0]
    if s is None:
        return None
    probe_shape = tuple(_SHAPE_SENTINEL if d is None else d for d in s)
    try:
        # A broadcast view costs no memory regardless of sentinel size.
        probe = np.broadcast_to(np.int8(0), probe_shape)
        result = probe[attrs["idx"]].shape
    except Exception:
        return None
    return tuple(None if d == _SHAPE_SENTINEL else d for d in result)


def _grad_getitem(inputs, output, g, attrs):
    F = _F()
    return (F.getitem_grad(g, inputs[0], idx=attrs["idx"]),)


def _getitem_grad_fwd(i, a):
    g, x = i
    out = np.zeros_like(x, dtype=np.asarray(g).dtype)
    np.add.at(out, a["idx"], g)
    return out


register_op("getitem", lambda i, a: i[0][a["idx"]], _grad_getitem, _getitem_shape)
register_op("getitem_grad", _getitem_grad_fwd, None,
            lambda shapes, a: shapes[1], fresh=True)


def _gather_shape(shapes, attrs):
    params, idx = shapes
    if params is None or idx is None:
        return None
    return tuple(idx) + tuple(params[1:])


def _grad_gather(inputs, output, g, attrs):
    F = _F()
    return (F.gather_grad(g, inputs[0], inputs[1]), None)


def _gather_grad_fwd(i, a):
    g, params, idx = i
    out = np.zeros_like(params, dtype=np.asarray(g).dtype)
    np.add.at(out, np.asarray(idx).astype(np.int64), g)
    return out


register_op("gather", lambda i, a: np.take(i[0], np.asarray(i[1]).astype(np.int64),
                                           axis=0),
            _grad_gather, _gather_shape, dtype_fn=_first_dtype, fresh=True)
register_op("gather_grad", _gather_grad_fwd, None, lambda shapes, a: shapes[1],
            fresh=True)

register_op("one_hot", lambda i, a: kernels.one_hot(i[0], a["depth"]),
            None,
            lambda shapes, a: None if shapes[0] is None
            else tuple(shapes[0]) + (a["depth"],),
            dtype_fn=_float_dtype, fresh=True)


def _grad_where(inputs, output, g, attrs):
    F = _F()
    cond = inputs[0]
    mask = F.cast(cond, np.float32)
    return (None,
            F.unbroadcast_like(F.mul(g, mask), inputs[1]),
            F.unbroadcast_like(F.mul(g, F.sub(1.0, mask)), inputs[2]))


register_op("where", lambda i, a: np.where(i[0], i[1], i[2]), _grad_where,
            lambda shapes, a: broadcast_shapes_unknown(shapes),
            dtype_fn=lambda d, a: d[1], **_EW)

# The two pass-throughs fuse like any elementwise op but hand back their
# input, so they are neither fresh nor alias-safe.
register_op("identity", lambda i, a: i[0],
            lambda inp, out, g, a: (g,), _first_shape, dtype_fn=_first_dtype,
            elementwise=True)
register_op("stop_gradient", lambda i, a: i[0], None, _first_shape,
            dtype_fn=_first_dtype, elementwise=True)
register_op("tile", lambda i, a: np.tile(i[0], a["reps"]), None, None,
            fresh=True, foldable=False)

# ``ones_like``: shape-tracking constants (e.g. unit importance weights)
# without burning elementwise kernels on a mul/add chain. ``anchor``
# threads a data dependency through; the compiler elides it to its
# first input when that input is pure, and keeps it otherwise — the
# forward COPIES, so a fetched value anchored on mutable state (e.g. a
# memory's size read) is a snapshot, not an alias into the live
# variable buffer.
def _ones_like_out(i, a, out):
    out.fill(1)
    return out


register_op("ones_like",
            lambda i, a: np.ones(np.shape(i[0]), dtype=a["dtype"]),
            None, _first_shape, dtype_fn=lambda d, a: np.dtype(a["dtype"]),
            out=_ones_like_out, **_EW)
register_op("anchor", lambda i, a: np.array(i[0]),
            lambda inp, out, g, a: (g,) + (None,) * (len(inp) - 1),
            _first_shape, dtype_fn=_first_dtype, fresh=True)

# ======================= backward-only helpers ===============================
register_op("unbroadcast_like_op",
            lambda i, a: kernels.unbroadcast(i[0], np.shape(i[1])),
            None, lambda shapes, a: shapes[1])


def _broadcast_like_fwd(i, a):
    g, ref = i
    axis = a.get("axis")
    keepdims = a.get("keepdims", False)
    g = np.asarray(g)
    if not keepdims and axis is not None:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        for ax in sorted(x % np.ndim(ref) for x in axes):
            g = np.expand_dims(g, ax)
    elif not keepdims and axis is None:
        g = np.reshape(g, (1,) * np.ndim(ref))
    return np.broadcast_to(g, np.shape(ref))


register_op("broadcast_like", _broadcast_like_fwd, None,
            lambda shapes, a: shapes[1], foldable=False)

register_op("shape_of", lambda i, a: np.asarray(np.shape(i[0]), dtype=np.int64),
            None, lambda shapes, a: (None if shapes[0] is None
                                     else (len(shapes[0]),)),
            dtype_fn=_int_dtype, alias_safe=True)
register_op("size_of", lambda i, a: np.asarray(np.size(i[0]), dtype=np.int64),
            None, lambda shapes, a: (), dtype_fn=_int_dtype, alias_safe=True)
register_op("dyn_arange", lambda i, a: np.arange(int(i[0]), dtype=np.int64),
            None, lambda shapes, a: (None,), dtype_fn=_int_dtype,
            fresh=True, foldable=False)

register_op("searchsorted",
            lambda i, a: np.searchsorted(i[0], i[1], side=a.get("side", "left")),
            None, lambda shapes, a: shapes[1], dtype_fn=_int_dtype, fresh=True)

# ======================= convolution ==========================================
def _conv2d_shape(shapes, attrs):
    x, f = shapes
    if x is None or f is None:
        return None
    n, h, w, _ = x
    kh, kw, _, cout = f
    stride, padding = attrs["stride"], attrs["padding"]
    oh = None if h is None else kernels.conv2d_output_size(h, kh, stride, padding)
    ow = None if w is None else kernels.conv2d_output_size(w, kw, stride, padding)
    return (n, oh, ow, cout)


def _grad_conv2d(inputs, output, g, attrs):
    F = _F()
    x, f = inputs
    return (F.conv2d_grad_input(g, x, f, stride=attrs["stride"],
                                padding=attrs["padding"]),
            F.conv2d_grad_filters(g, x, f, stride=attrs["stride"],
                                  padding=attrs["padding"]))


register_op("conv2d",
            lambda i, a: kernels.conv2d_forward(i[0], i[1], a["stride"],
                                                a["padding"]),
            _grad_conv2d, _conv2d_shape, dtype_fn=_float_dtype, fresh=True)
register_op("conv2d_grad_input",
            lambda i, a: kernels.conv2d_backward(i[0], i[1], i[2], a["stride"],
                                                 a["padding"])[0],
            None, lambda shapes, a: shapes[1], dtype_fn=_float_dtype)
register_op("conv2d_grad_filters",
            lambda i, a: kernels.conv2d_backward(i[0], i[1], i[2], a["stride"],
                                                 a["padding"])[1],
            None, lambda shapes, a: shapes[2], dtype_fn=_float_dtype)

# ======================= LSTM =================================================
def _lstm_seq_fwd(i, a):
    x, w, b, h0, c0 = i
    outs, _, _, _ = kernels.lstm_forward(x, w, b, h0, c0)
    return outs


def _lstm_final_c_fwd(i, a):
    x, w, b, h0, c0 = i
    _, _, c, _ = kernels.lstm_forward(x, w, b, h0, c0)
    return c


def _grad_lstm_seq(inputs, output, g, attrs):
    F = _F()
    x, w, b, h0, c0 = inputs
    dx = F.lstm_grad(g, x, w, b, h0, c0, which=0)
    dw = F.lstm_grad(g, x, w, b, h0, c0, which=1)
    db = F.lstm_grad(g, x, w, b, h0, c0, which=2)
    dh0 = F.lstm_grad(g, x, w, b, h0, c0, which=3)
    dc0 = F.lstm_grad(g, x, w, b, h0, c0, which=4)
    return (dx, dw, db, dh0, dc0)


def _lstm_grad_fwd(i, a):
    g, x, w, b, h0, c0 = i
    _, _, _, cache = kernels.lstm_forward(x, w, b, h0, c0)
    hidden = h0.shape[-1]
    zeros_h = np.zeros_like(h0, dtype=np.float32)
    grads = kernels.lstm_backward(np.asarray(g, dtype=np.float32), zeros_h,
                                  zeros_h, x, w, cache)
    return grads[a["which"]]


def _lstm_seq_shape(shapes, attrs):
    x, w, b, h0, c0 = shapes
    if x is None or h0 is None:
        return None
    return (x[0], x[1], h0[-1])


register_op("lstm_seq", _lstm_seq_fwd, _grad_lstm_seq, _lstm_seq_shape,
            dtype_fn=_float_dtype)
register_op("lstm_final_c", _lstm_final_c_fwd, None,
            lambda shapes, a: shapes[4], dtype_fn=_float_dtype)
register_op("lstm_grad", _lstm_grad_fwd, None,
            lambda shapes, a: shapes[1 + a["which"]], dtype_fn=_float_dtype)

# ======================= random ops ===========================================
def _get_rng(attrs):
    rng = attrs.get("_rng")
    if rng is None:
        rng = np.random.default_rng(attrs.get("seed"))
        attrs["_rng"] = rng
    return rng


def _random_uniform_fwd(i, a):
    rng = _get_rng(a)
    if i:
        shape = np.shape(i[0])[:a["ref_rank"]] if a.get("ref_rank") else np.shape(i[0])
    else:
        shape = a["shape"]
    return rng.uniform(a.get("low", 0.0), a.get("high", 1.0),
                       size=shape).astype(np.float32)


def _random_normal_fwd(i, a):
    rng = _get_rng(a)
    shape = np.shape(i[0]) if i else a["shape"]
    return (rng.standard_normal(size=shape) * a.get("stddev", 1.0)
            + a.get("mean", 0.0)).astype(np.float32)


register_op("random_uniform", _random_uniform_fwd, None,
            lambda shapes, a: (tuple(a["shape"]) if not shapes else
                               (shapes[0][:a["ref_rank"]] if a.get("ref_rank")
                                and shapes[0] is not None else shapes[0])),
            dtype_fn=_float_dtype, stateful=True, fresh=True, mutates=False)
register_op("random_normal", _random_normal_fwd, None,
            lambda shapes, a: tuple(a["shape"]) if not shapes else shapes[0],
            dtype_fn=_float_dtype, stateful=True, fresh=True, mutates=False)

register_op("zeros2d",
            lambda i, a: np.zeros((int(i[0]), a["cols"]), dtype=np.float32),
            None, lambda shapes, a: (None, a["cols"]), dtype_fn=_float_dtype,
            fresh=True, foldable=False)

# ======================= V-trace (IMPALA, Espeholt et al. 2018) ==============
def _vtrace_fwd(i, a):
    """Compute v-trace targets.

    Inputs: log_rhos (T, B), discounts (T, B), rewards (T, B),
    values (T, B), bootstrap_value (B,).
    Returns vs (which=0) or pg_advantages (which=1); both are
    no-gradient targets, matching the reference implementation.
    """
    log_rhos, discounts, rewards, values, bootstrap = [np.asarray(x) for x in i]
    clip_rho = a.get("clip_rho_threshold", 1.0)
    clip_pg_rho = a.get("clip_pg_rho_threshold", 1.0)
    rhos = np.exp(log_rhos)
    clipped_rhos = np.minimum(clip_rho, rhos) if clip_rho is not None else rhos
    cs = np.minimum(1.0, rhos)
    t_steps = values.shape[0]
    values_tp1 = np.concatenate([values[1:], bootstrap[None]], axis=0)
    deltas = clipped_rhos * (rewards + discounts * values_tp1 - values)
    acc = np.zeros_like(bootstrap, dtype=np.float32)
    vs_minus_v = np.zeros_like(values, dtype=np.float32)
    for t in range(t_steps - 1, -1, -1):
        acc = deltas[t] + discounts[t] * cs[t] * acc
        vs_minus_v[t] = acc
    vs = vs_minus_v + values
    if a["which"] == 0:
        return vs.astype(np.float32)
    vs_tp1 = np.concatenate([vs[1:], bootstrap[None]], axis=0)
    pg_rhos = (np.minimum(clip_pg_rho, rhos) if clip_pg_rho is not None
               else rhos)
    pg_adv = pg_rhos * (rewards + discounts * vs_tp1 - values)
    return pg_adv.astype(np.float32)


register_op("vtrace", _vtrace_fwd, None,
            lambda shapes, a: shapes[3], dtype_fn=_float_dtype)

# ======================= flat-parameter learner path ==========================
# ``flatcat`` coalesces the reverse pass's per-variable gradients into
# one flat float32 buffer with a SINGLE graph node regardless of how
# many variables feed it — the front half of the fused optimizer path.
def _flatcat_fwd(i, a):
    if len(i) == 1:
        return np.asarray(i[0], dtype=np.float32).reshape(-1)
    return np.concatenate(
        [np.asarray(x, dtype=np.float32).reshape(-1) for x in i])


def _flatcat_shape(shapes, attrs):
    total = 0
    for s in shapes:
        if s is None or any(d is None for d in s):
            return (None,)
        total += int(np.prod(s)) if s else 1
    return (total,)


register_op("flatcat", _flatcat_fwd, None, _flatcat_shape,
            dtype_fn=_float_dtype)


# Multi-tensor fused optimizer ops: ONE stateful node updates the whole
# parameter slab (plus its optimizer-slot slabs) in place from the flat
# gradient, replacing the per-variable chains of ~10+ nodes each. The
# slab handles travel in attrs like the assign/scatter family's
# ``var`` attr; kernels live in backend/kernels.py. Returns the slab
# size so the node has a value for control-dependency grouping.
def _fused_update_shape(shapes, attrs):
    return ()


def _fused_sgd_fwd(i, a):
    var = a["var"]
    mom = a.get("momentum_var")
    kernels.fused_sgd(i[0], var.value, a["lr"], a.get("momentum", 0.0),
                      mom.value if mom is not None else None)
    return np.asarray(var.value.size, dtype=np.int64)


def _fused_adam_fwd(i, a):
    var = a["var"]
    kernels.fused_adam(i[0], i[1], var.value, a["m"].value, a["v"].value,
                       a["lr"], a["beta1"], a["beta2"], a["epsilon"])
    return np.asarray(var.value.size, dtype=np.int64)


def _fused_rmsprop_fwd(i, a):
    var = a["var"]
    kernels.fused_rmsprop(i[0], var.value, a["ms"].value, a["lr"],
                          a["decay"], a["epsilon"])
    return np.asarray(var.value.size, dtype=np.int64)


register_op("fused_sgd", _fused_sgd_fwd, None, _fused_update_shape,
            dtype_fn=_int_dtype, stateful=True, alias_safe=True)
register_op("fused_adam", _fused_adam_fwd, None, _fused_update_shape,
            dtype_fn=_int_dtype, stateful=True, alias_safe=True)
register_op("fused_rmsprop", _fused_rmsprop_fwd, None, _fused_update_shape,
            dtype_fn=_int_dtype, stateful=True, alias_safe=True)


# ======================= python escape hatch ==================================
# TF-style py_func: wraps arbitrary Python callables as (stateful) graph
# nodes. Used for queue components and in-graph environment stepping
# (the IMPALA fused-stepping pattern from paper §5.1).
register_op("py_func", lambda i, a: a["fn"](*i), None,
            shape_fn=lambda shapes, a: a.get("shape"),
            dtype_fn=lambda dtypes, a: (np.dtype(a["dtype"])
                                        if a.get("dtype") is not None else None),
            stateful=True)
