"""Native C codegen backend: whole-plan execution with zero Python dispatch.

``optimize="native"`` lowers a :class:`~repro.backend.compiler.CompiledPlan`
one level further: the slot-slab step list is split into *segments* —
maximal runs of steps whose ops fall inside the native vocabulary
(elementwise chains and fused groups, reductions, float matmuls, shape
copies, one-hot/gather/concat, and the multi-tensor fused optimizer ops
from the flat-parameter learner path) — and each segment is emitted as one
shape-specialized C function. A segment executes with a single foreign
call: every operand is a raw pointer in a per-segment pointer table, so
the Python interpreter is not entered between its steps at all, and the
GIL is released once for the whole segment. Steps outside the vocabulary
(assigns, scatters, memory ops, ``py_func``) stay Python and bridge
segments through the slab; a gradient plan has none and is one call.

Design notes:

* **Lazy, feed-specialized builds.** Shapes are baked into the C source,
  so lowering happens at the first ``run()`` per feed-shape signature (a
  probe run records every step's shapes/dtypes and returns the correct
  fetch values). Up to :data:`_MAX_BUILDS` signatures are kept; beyond
  that, unseen signatures execute on the wrapped compiled plan.
* **Pointer table.** Entries are *static* (persistent per-step output
  buffers and contiguous constant copies, resolved once), *fn* (the
  address of a BLAS function), *var* (live
  variable storage, re-resolved when :func:`repro.backend.variables
  .storage_epoch` changes), or *dyn* (slab values produced by Python
  steps or other segments, resolved per run behind a shape/dtype guard).
  A failed guard downgrades just that segment to its recorded Python
  steps for that run — downstream segments guard the same slots, so
  shape drift cascades correctly.
* **Vocabulary as tables.** :data:`_C_EXPR` maps an elementwise op to
  its C scalar expression and :data:`_LOWERINGS` maps a step op to its
  :class:`Lowering` (precondition + emitter); a step is native iff the
  lookup hits and the entry accepts its probed metadata. Each lowered
  step becomes one ``static`` C function, called in order by its
  segment's exported ``segN``.
* **GEMM from C.** A matmul above :data:`_MATMUL_NATIVE_LIMIT` calls
  the CBLAS ``?gemm`` of the BLAS numpy already mapped into the process
  (:data:`_GEMM_SYMBOLS`) through a *fn* entry, so it keeps BLAS speed
  without leaving the segment; where no symbol is found it stays a
  Python step.
* **Caching.** The generated source is deterministic, and the compiled
  shared object is cached on disk keyed by the MD5 of source, compiler
  path and flags, so repeat processes skip the C compiler entirely. A
  cached object that no longer loads is discarded and rebuilt once.
  Threads building the same source take turns: one compiles, the rest
  load its object.
* **Graceful degradation.** No working C toolchain, a failed compile or
  an unloadable object falls back to the ``"fused"``-level plan with a
  one-time warning naming the cause; results are unchanged.
* **Numerics.** Native arithmetic follows NumPy's result dtypes but
  uses libm scalar kernels, so values match the interpreter to floating
  tolerance rather than bitwise (the parity matrix checks native cells
  with ``allclose``; the bitwise invariant is asserted at ``"basic"``).
  NaN propagation through ``maximum``/``minimum``/``relu`` follows C
  comparison semantics, not NumPy's NaN-poisoning.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import shutil
import subprocess
import tempfile
import threading
import time
import warnings
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Tuple)

import numpy as np

from repro.backend import variables
from repro.utils import procutil

# Feed-shape signatures lowered per plan before falling back to the
# wrapped compiled plan for unseen signatures.
_MAX_BUILDS = 4

# Matmuls up to this many multiply-adds are emitted as native loops;
# larger ones call the process's CBLAS GEMM from the C (they stay Python
# steps only where no GEMM symbol is found, see _GEMM_SYMBOLS).
_MATMUL_NATIVE_LIMIT = 1 << 16

# CBLAS GEMM entry points looked up in the BLAS objects already mapped
# into this process, in order, with the C type of their integer
# arguments: numpy's wheels ship an ILP64 OpenBLAS with decorated names,
# a system CBLAS is LP64. ``{}`` is the BLAS type letter (s / d).
_GEMM_SYMBOLS = (("scipy_cblas_{}gemm64_", "long long"),
                 ("cblas_{}gemm64_", "long long"),
                 ("cblas_{}gemm", "int"))
_CBLAS_ROW_MAJOR, _CBLAS_NO_TRANS = 101, 111

_CFLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno"]


# ---------------------------------------------------------------------------
# Toolchain discovery
# ---------------------------------------------------------------------------
_TOOLCHAIN: Dict[str, Any] = {"checked": False, "cc": None}
_TOOLCHAIN_LOCK = threading.Lock()
_WARNED: Dict[str, bool] = {}
_DEGRADED = {
    "toolchain": "no C toolchain is available",
    "compile": "the C compiler rejected the generated source",
    "load": "the built shared object could not be loaded",
}


def _probe_cc(cc: str) -> bool:
    """Verify ``cc`` can produce a loadable shared object."""
    try:
        with tempfile.TemporaryDirectory() as tmp:
            c_path = os.path.join(tmp, "probe.c")
            so_path = os.path.join(tmp, "probe.so")
            with open(c_path, "w") as fh:
                fh.write("int repro_native_probe(void) { return 42; }\n")
            res = subprocess.run(
                [cc, "-O1", "-fPIC", "-shared", c_path, "-o", so_path],
                capture_output=True, timeout=60)
            return res.returncode == 0 and os.path.exists(so_path)
    except Exception:
        return False


def find_cc() -> Optional[str]:
    """Path of a working C compiler (cached per process), or None.
    Threads asking during the first probe wait for its answer."""
    with _TOOLCHAIN_LOCK:
        if _TOOLCHAIN["checked"]:
            return _TOOLCHAIN["cc"]
        candidates = []
        if os.environ.get("CC"):
            candidates.append(os.environ["CC"])
        candidates += ["cc", "gcc", "clang"]
        for cand in candidates:
            path = shutil.which(cand)
            if path and _probe_cc(path):
                _TOOLCHAIN["cc"] = path
                break
        _TOOLCHAIN["checked"] = True
        return _TOOLCHAIN["cc"]


def toolchain_available() -> bool:
    return find_cc() is not None


def warn_degraded(cause: str) -> None:
    """One-time (per cause) warning that ``optimize='native'`` runs the
    ``'fused'`` plan instead; ``cause`` is a key of :data:`_DEGRADED`."""
    if not _WARNED.get(cause):
        _WARNED[cause] = True
        warnings.warn(
            f"optimize='native' requested but {_DEGRADED[cause]}; "
            "executing with the 'fused' plan instead",
            RuntimeWarning, stacklevel=3)


def _cache_dir() -> str:
    path = os.environ.get("REPRO_NATIVE_CACHE")
    if not path:
        path = os.path.join(os.path.expanduser("~"), ".cache", "repro",
                            "native")
    os.makedirs(path, exist_ok=True)
    return path


def _find_gemm(ct: str) -> Optional[Tuple[int, str]]:
    """``(address, integer C type)`` of the CBLAS ``?gemm`` for C float
    type ``ct`` in a BLAS object already mapped into this process, or
    None. The address goes into a segment's pointer table, never into
    the C source, so the cached object is independent of it."""
    letter = "s" if ct == "float" else "d"
    for _path, lib in procutil.native_libraries():
        for pattern, int_ct in _GEMM_SYMBOLS:
            try:
                fn = getattr(lib, pattern.format(letter))
            except AttributeError:
                continue
            return ctypes.cast(fn, ctypes.c_void_p).value, int_ct
    return None


# ---------------------------------------------------------------------------
# Shared-object build + load
# ---------------------------------------------------------------------------
class _SharedLib:
    """A loaded plan library: one ``void segN(char **)`` per segment.

    Prefers cffi (ABI mode, per-plan FFI instance so cdefs never clash
    across plans); falls back to ctypes.
    """

    def __init__(self, path: str, seg_names: List[str]):
        self.path = path
        self.fns: Dict[str, Any] = {}
        try:
            import cffi
            ffi = cffi.FFI()
            ffi.cdef("".join(f"void {n}(char **);" for n in seg_names))
            lib = ffi.dlopen(path)
            self._ffi, self._lib = ffi, lib
            for n in seg_names:
                self.fns[n] = getattr(lib, n)
            self.cast_ptr = lambda addr: ffi.cast("char **", addr)
        except Exception:
            import ctypes
            lib = ctypes.CDLL(path)
            self._lib = lib
            for n in seg_names:
                fn = getattr(lib, n)
                fn.argtypes = [ctypes.c_void_p]
                fn.restype = None
                self.fns[n] = fn
            self.cast_ptr = lambda addr: addr


_BUILD_LOCKS: Dict[str, threading.Lock] = {}
_BUILD_LOCKS_GUARD = threading.Lock()


def _fresh_locks_after_fork() -> None:
    """A process actor forked while a driver thread probes or compiles
    would inherit that lock held, with no thread left to release it."""
    global _TOOLCHAIN_LOCK, _BUILD_LOCKS_GUARD
    _TOOLCHAIN_LOCK = threading.Lock()
    _BUILD_LOCKS_GUARD = threading.Lock()
    _BUILD_LOCKS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_locks_after_fork)


def _build_library(source: str, seg_names: List[str]
                   ) -> Tuple[Optional[_SharedLib], bool, Optional[str]]:
    """Compile (or load from the disk cache) the plan library.

    Returns ``(lib, cache_hit, None)``, or ``(None, False, cause)`` with
    ``cause`` a key of :data:`_DEGRADED`. A cached object that fails to
    load (truncated by a killed writer, built for another platform) is
    unlinked and rebuilt once instead of poisoning its key forever.
    Threads building one source (a group's replicas, on their first
    round) serialize on a per-digest lock: the first compiles, the
    others load its object as a cache hit.
    """
    cc = find_cc()
    if cc is None:
        return None, False, "toolchain"
    digest = hashlib.md5(
        "\0".join([source, cc] + _CFLAGS).encode()).hexdigest()
    with _BUILD_LOCKS_GUARD:
        lock = _BUILD_LOCKS.setdefault(digest, threading.Lock())
    with lock:
        return _build_locked(source, seg_names, cc, digest)


def _build_locked(source, seg_names, cc, digest):
    cache = _cache_dir()
    so_path = os.path.join(cache, f"plan_{digest}.so")
    for cached in ((True, False) if os.path.exists(so_path) else (False,)):
        if not cached:
            # Unique per process and thread; os.replace publishes each
            # file whole, so concurrent processes race benignly.
            tmp = f"{so_path}.tmp{os.getpid()}.{threading.get_ident()}"
            try:
                with open(tmp + ".c", "w") as fh:
                    fh.write(source)
                res = subprocess.run([cc] + _CFLAGS + [tmp + ".c", "-o", tmp,
                                                       "-lm"],
                                     capture_output=True, timeout=300)
                if res.returncode != 0:
                    return None, False, "compile"
                os.replace(tmp + ".c",
                           os.path.join(cache, f"plan_{digest}.c"))
                os.replace(tmp, so_path)
            except Exception:
                return None, False, "compile"
            finally:
                for leftover in (tmp, tmp + ".c"):
                    if os.path.exists(leftover):
                        os.unlink(leftover)
        try:
            return _SharedLib(so_path, seg_names), cached, None
        except Exception:
            if cached:
                try:
                    os.unlink(so_path)
                except OSError:
                    pass  # a concurrent process already discarded it
    return None, False, "load"


# ---------------------------------------------------------------------------
# Dtype / shape helpers
# ---------------------------------------------------------------------------
_CTYPES = {
    np.dtype(np.float32): "float",
    np.dtype(np.float64): "double",
    np.dtype(np.int64): "long long",
    np.dtype(np.int32): "int",
    np.dtype(np.bool_): "unsigned char",
    np.dtype(np.uint8): "unsigned char",
}


def _ct(dtype) -> Optional[str]:
    try:
        return _CTYPES.get(np.dtype(dtype))
    except TypeError:
        return None


def _meta(value):
    """(shape, dtype, c_contiguous) for an ndarray, else None.

    NumPy scalars (what 0-d reductions and 0-d arithmetic return) count
    as 0-d arrays — the pointer-table resolver materializes them."""
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype, value.flags.c_contiguous)
    if isinstance(value, np.generic):
        return ((), value.dtype, True)
    return None


def _numel(shape) -> int:
    return int(np.prod(shape, dtype=np.int64))


def _estrides(shape) -> List[int]:
    """C-order element strides."""
    out = [0] * len(shape)
    acc = 1
    for i in range(len(shape) - 1, -1, -1):
        out[i] = acc
        acc *= int(shape[i])
    return out


def _bstrides(shape, out_shape) -> Optional[List[int]]:
    """Element strides of ``shape`` broadcast (right-aligned) against
    ``out_shape``; 0 on broadcast dims; None if not broadcastable."""
    shape = tuple(int(d) for d in shape)
    out_shape = tuple(int(d) for d in out_shape)
    if len(shape) > len(out_shape):
        return None
    es = _estrides(shape)
    pad = len(out_shape) - len(shape)
    full = [0] * pad
    for i, d in enumerate(shape):
        if d == out_shape[pad + i]:
            full.append(0 if d == 1 else es[i])
        elif d == 1:
            full.append(0)
        else:
            return None
    return full


def _flit(value, double: bool = False) -> str:
    """C literal for a float constant (f32 by default, baked exactly)."""
    if double:
        text = f"{float(value):.17g}"
        suffix = ""
    else:
        text = f"{float(np.float32(value)):.9g}"
        suffix = "f"
    if "." not in text and "e" not in text and "n" not in text:
        text += ".0"
    return text + suffix


def _lit(value, ctype: str) -> str:
    if ctype == "float":
        return _flit(value)
    if ctype == "double":
        return _flit(value, double=True)
    suffix = "LL" if ctype == "long long" else ""
    return f"{int(value)}{suffix}"


# ---------------------------------------------------------------------------
# Elementwise expression table
# ---------------------------------------------------------------------------
_FLOAT_CTS = ("float", "double")


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) \
        and not isinstance(value, bool)


def _c(expr: str, dt) -> str:
    """``expr`` converted to the C type of NumPy dtype ``dt``."""
    return f"({_ct(dt)})({expr})"


# Entry signature: ``c_expr(attrs, args, in_dts, out_dt) -> str | None``
# (``args`` are C operand expressions; None = these attrs/dtypes are not
# expressible, the step stays Python).
def _t(template: str, floats_only: bool = False):
    """Entry from a C template: ``{0}``.. are the operands converted to
    the result type ``{ct}``, ``{x0}``.. the raw operands, ``{f}`` the
    libm suffix and ``{one}`` the literal 1 of a float result type."""
    def c_expr(a, x, dts, dt):
        ct = _ct(dt)
        if floats_only and ct not in _FLOAT_CTS:
            return None
        f = "f" if ct == "float" else ""
        return template.format(
            *[_c(v, dt) for v in x], ct=ct, f=f, one="1.0" + f,
            **{f"x{k}": v for k, v in enumerate(x)})
    return c_expr


def _either(first, second):
    return lambda a, x, dts, dt: (first(a, x, dts, dt)
                                  or second(a, x, dts, dt))


def _x_div(a, x, dts, dt):
    if all(np.issubdtype(np.dtype(d), np.integer) for d in dts):
        # np int/int -> float64 division then astype(float32).
        return f"(float)((double)({x[0]}) / (double)({x[1]}))"
    return _t("({0} / {1})", floats_only=True)(a, x, dts, dt)


def _x_power(a, x, dts, dt):
    p = a.get("p")
    if not _is_number(p):
        return None
    if float(p) == 2.0:
        return _C_EXPR["square"](a, x, dts, dt)
    return _t("pow{f}({0}, %s)" % _lit(p, _ct(dt)), True)(a, x, dts, dt)


def _x_clip(a, x, dts, dt):
    lo, hi = a.get("lo"), a.get("hi")
    if not (_is_number(lo) and _is_number(hi)):
        return None
    v, lo_l, hi_l = _c(x[0], dt), _lit(lo, _ct(dt)), _lit(hi, _ct(dt))
    return f"({v} < {lo_l} ? {lo_l} : ({v} > {hi_l} ? {hi_l} : {v}))"


def _x_compare(sym):
    def c_expr(a, x, dts, dt):
        common = _ct(np.result_type(*[np.dtype(d) for d in dts]))
        if common is None:
            return None
        return f"(({common})({x[0]}) {sym} ({common})({x[1]}))"
    return c_expr


# Ops the C emitter can express as one scalar expression. An elementwise
# op without an entry is simply not native: ``mod`` has none because
# np.mod's sign semantics differ from C fmod. maximum/minimum/relu use C
# comparisons (see "Numerics" in the module docstring).
_C_EXPR = {
    "add": _t("({0} + {1})"), "sub": _t("({0} - {1})"),
    "mul": _t("({0} * {1})"), "div": _x_div, "neg": _t("(-{0})"),
    "power": _x_power, "square": _t("({0} * {0})"),
    "exp": _t("exp{f}({0})", True), "log": _t("log{f}({0})", True),
    "sqrt": _t("sqrt{f}({0})", True), "tanh": _t("tanh{f}({0})", True),
    "atanh": _t("atanh{f}({0})", True),
    "abs": _either(_t("fabs{f}({0})", True), _t("({0} < 0 ? -{0} : {0})")),
    "sign": _t("({0} > 0 ? ({ct})1 : ({0} < 0 ? ({ct})-1 : ({ct})0))"),
    "floor": _either(_t("floor{f}({0})", True), _t("{0}")),
    "maximum": _t("({0} > {1} ? {0} : {1})"),
    "minimum": _t("({0} < {1} ? {0} : {1})"),
    "clip": _x_clip, "relu": _t("({0} > 0 ? {0} : ({ct})0)"),
    "sigmoid": _t("({one} / ({one} + exp{f}(-{0})))", True),
    "softplus": _t("({0} > 0 ? {0} + log1p{f}(exp{f}(-{0})) : "
                   "log1p{f}(exp{f}({0})))", True),
    "equal": _x_compare("=="), "not_equal": _x_compare("!="),
    "greater": _x_compare(">"), "greater_equal": _x_compare(">="),
    "less": _x_compare("<"), "less_equal": _x_compare("<="),
    "logical_and": _t("((({x0}) != 0) && (({x1}) != 0))"),
    "logical_or": _t("((({x0}) != 0) || (({x1}) != 0))"),
    "logical_not": _t("(({x0}) == 0)"),
    "cast": lambda a, x, dts, dt: (
        f"(({x[0]}) != 0)" if np.dtype(dt) == np.dtype(np.bool_)
        else _c(x[0], dt)),
    "where": _t("(({x0}) != 0 ? {1} : {2})"),
    "identity": _t("{0}"), "stop_gradient": _t("{0}"),
    "ones_like": _t("({ct})1"),
}


def _member_expr(op: str, attrs: Dict[str, Any], args: List[str],
                 in_dts: List[Any], out_dt) -> Optional[str]:
    """C scalar expression for one elementwise member, or None when the
    op has no :data:`_C_EXPR` entry or the entry declines."""
    entry = _C_EXPR.get(op)
    if entry is None or _ct(out_dt) is None:
        return None
    return entry(attrs, args, in_dts, out_dt)


# ---------------------------------------------------------------------------
# C emission
# ---------------------------------------------------------------------------
class _W:
    """Line writer with a per-function unique-id counter (deterministic,
    so the generated source — and the disk-cache key — is stable)."""

    def __init__(self):
        self.lines: List[str] = []
        self._uid = 0

    def uid(self) -> int:
        self._uid += 1
        return self._uid

    def __call__(self, line: str = ""):
        self.lines.append(line)


def _emit_elementwise(cx, instrs, member_dts, ext_metas, data) -> None:
    """One loop nest computing a chain of elementwise members
    (``instrs``: ``(op, _, attrs, refs)`` with result dtypes
    ``member_dts``) with scalar temporaries — the native analogue of the
    fused kernel. ``data`` lists the external operands that are read.
    Broadcasting is stride-0 indexing; a member whose natural shape is
    smaller than the final output is recomputed per broadcast position,
    which is value-identical for pure elementwise ops."""
    out_shape = tuple(int(d) for d in cx.out[0])
    out_ct = _ct(cx.out[1])
    size = _numel(out_shape)
    out_idx = cx.out_buf()
    arg_idx: List[Optional[int]] = [None] * len(ext_metas)
    for k in data:
        arg_idx[k] = cx.arg(k)
    w, u = cx.w, cx.w.uid()
    w(f"  {{ /* {cx.label} */")
    for k in data:
        ct = _ct(ext_metas[k][1])
        w(f"  const {ct} *p{u}_{k} = (const {ct} *)B[{arg_idx[k]}];")
    w(f"  {out_ct} *o{u} = ({out_ct} *)B[{out_idx}];")

    def body(indent: str, load_of, out_ix: str):
        for m_i, (mop, _fwd, mattrs, refs) in enumerate(instrs):
            args, dts = [], []
            for kind, r in refs:
                if kind == "arg":
                    args.append(load_of(r))
                    dts.append(ext_metas[r][1] if ext_metas[r] is not None
                               else np.dtype(np.float32))
                else:
                    args.append(f"t{u}_{r}")
                    dts.append(member_dts[r])
            expr = _member_expr(mop, mattrs, args, dts, member_dts[m_i])
            w(f"{indent}const {_ct(member_dts[m_i])} t{u}_{m_i} = {expr};")
        w(f"{indent}o{u}[{out_ix}] = t{u}_{len(instrs) - 1};")

    flat = all(
        tuple(int(d) for d in ext_metas[k][0]) == out_shape
        or _numel(ext_metas[k][0]) == 1
        for k in data)
    if flat:
        def load(k):
            if arg_idx[k] is None:
                return "0"
            if tuple(int(d) for d in ext_metas[k][0]) == out_shape:
                return f"p{u}_{k}[i{u}]"
            return f"p{u}_{k}[0]"
        w(f"  for (long long i{u} = 0; i{u} < {size}; i{u}++) {{")
        body("    ", load, f"i{u}")
        w("  }")
    else:
        strides = {k: _bstrides(ext_metas[k][0], out_shape) for k in data}

        def load(k):
            if arg_idx[k] is None:
                return "0"
            terms = [f"i{u}_{d} * {s}" for d, s in enumerate(strides[k])
                     if s != 0]
            return f"p{u}_{k}[{' + '.join(terms) or '0'}]"
        indent = "  "
        w(f"  long long io{u} = 0;")
        for d, dim in enumerate(out_shape):
            w(f"{indent}for (long long i{u}_{d} = 0; i{u}_{d} < {dim}; "
              f"i{u}_{d}++) {{")
            indent += "  "
        body(indent, load, f"io{u}++")
        for _ in out_shape:
            indent = indent[:-2]
            w(f"{indent}}}")
    w("  }")


def _emit_reduce(cx, axes, mode: str) -> None:
    """sum/mean/max/min over ``axes`` of a C-contiguous input; kept dims
    iterate outermost so the output writes linearly."""
    in_meta, out_meta = cx.ins[0], cx.out
    shape = tuple(int(d) for d in in_meta[0])
    in_ct = _ct(in_meta[1])
    out_ct = _ct(out_meta[1])
    es = _estrides(shape)
    kept = [d for d in range(len(shape)) if d not in axes]
    red = [d for d in range(len(shape)) if d in axes]
    float_acc = np.issubdtype(np.dtype(out_meta[1]), np.floating)
    acc_ct = "double" if float_acc else "long long"
    out_i, arg_i = cx.out_buf(), cx.arg(0)
    w, u = cx.w, cx.w.uid()
    w(f"  {{ /* {cx.label} */")
    w(f"  const {in_ct} *p{u} = (const {in_ct} *)B[{arg_i}];")
    w(f"  {out_ct} *o{u} = ({out_ct} *)B[{out_i}];")
    w(f"  long long oc{u} = 0;")
    indent = "  "
    for d in kept:
        w(f"{indent}for (long long i{u}_{d} = 0; i{u}_{d} < {shape[d]}; "
          f"i{u}_{d}++) {{")
        indent += "  "
    if mode in ("sum", "mean"):
        w(f"{indent}{acc_ct} acc{u} = 0;")
    elif mode == "max":
        w(f"{indent}{acc_ct} acc{u} = "
          f"{'-INFINITY' if float_acc else 'LLONG_MIN'};")
    else:
        w(f"{indent}{acc_ct} acc{u} = "
          f"{'INFINITY' if float_acc else 'LLONG_MAX'};")
    for d in red:
        w(f"{indent}for (long long i{u}_{d} = 0; i{u}_{d} < {shape[d]}; "
          f"i{u}_{d}++) {{")
        indent += "  "
    idx = " + ".join(f"i{u}_{d} * {es[d]}" for d in range(len(shape)))
    v = f"({acc_ct})p{u}[{idx or '0'}]"
    if mode in ("sum", "mean"):
        w(f"{indent}acc{u} += {v};")
    elif mode == "max":
        w(f"{indent}if ({v} > acc{u}) acc{u} = {v};")
    else:
        w(f"{indent}if ({v} < acc{u}) acc{u} = {v};")
    for _ in red:
        indent = indent[:-2]
        w(f"{indent}}}")
    if mode == "mean":
        count = max(_numel([shape[d] for d in red]), 1)
        w(f"{indent}o{u}[oc{u}++] = ({out_ct})(acc{u} / {count}.0);")
    else:
        w(f"{indent}o{u}[oc{u}++] = ({out_ct})acc{u};")
    for _ in kept:
        indent = indent[:-2]
        w(f"{indent}}}")
    w("  }")


def _emit_copy(cx, _how=None) -> None:
    """memcpy of the first operand; the others only lend their shape."""
    out_i, arg_i = cx.out_buf(), cx.arg(0)
    if cx.buf.nbytes:
        cx.w(f"  memcpy(B[{out_i}], B[{arg_i}], {cx.buf.nbytes}); "
             f"/* {cx.label} */")
    for k in range(1, len(cx.ins)):
        cx.guard(k)


# ---------------------------------------------------------------------------
# The native vocabulary: one Lowering per step op
# ---------------------------------------------------------------------------
class Lowering(NamedTuple):
    """One native-vocabulary entry: a step op's precondition and emitter.

    ``accept(step, ins, out, dts)`` sees the probed operand metas, result
    meta (never None) and fused-member dtypes; it returns None or False
    when the step must stay a Python step, otherwise whatever it derived
    (axes, a permutation, or just True), which ``emit(cx, how)`` gets to
    write the step's pointer-table entries, guards and C into its
    segment. ``work`` is the step's worth in interpreter steps: a run of
    native steps only becomes a segment — one foreign call — when its
    work adds up to 2, so pointer/constant bookkeeping (0) never
    justifies one and a fused group or optimizer kernel (2) always does.
    """

    accept: Callable
    emit: Callable
    work: int = 1


class _StepCx:
    """What ``Lowering.emit`` works with: the probed step, its own C
    writer (the body of the step's function) and its segment's
    pointer-table entries, guards and stores."""

    def __init__(self, step, rec, proto, template, dynamic, native_ids):
        self.step = step
        self.ins, self.out, self.dts = rec
        self.w = _W()
        # The step name, made safe for a C comment.
        self.label = str(step.name).replace("/*", "").replace("*/", "")
        self.buf: Optional[np.ndarray] = None  # set by out_buf()
        self.out_index: Optional[int] = None
        self._proto = proto
        self._template = template
        self._dynamic = dynamic  # slots fed or written by an earlier step
        self._native_ids = native_ids

    def entry(self, key, entry) -> int:
        entries, eidx = self._proto["entries"], self._proto["eidx"]
        i = eidx.get(key)
        if i is None:
            i = eidx[key] = len(entries)
            entries.append(entry)
        return i

    def arg(self, k) -> int:
        """Pointer-table index of the step's k-th operand."""
        slot = self.step.arg_slots[k]
        meta = self.ins[k]
        if slot in self._proto["inseg"]:
            return self._proto["inseg"][slot]
        if slot in self._dynamic:
            return self.entry(("d", slot),
                              ("d", slot, tuple(meta[0]), np.dtype(meta[1])))
        # Template constant: contiguous snapshot, resolved once.
        arr = np.ascontiguousarray(self._template[slot])
        return self.entry(("c", slot), ("s", arr))

    def args(self) -> List[int]:
        return [self.arg(k) for k in range(len(self.ins))]

    def var(self, var) -> int:
        """Pointer-table index of a variable's live storage."""
        arr = var.value
        return self.entry(("v", id(var)), ("v", var, arr.shape, arr.dtype))

    def guard(self, k) -> None:
        """Pin the shape of an operand the C code only shape-inspects."""
        proto, slot = self._proto, self.step.arg_slots[k]
        if slot in proto["inseg"] or ("d", slot) in proto["eidx"]:
            return
        if slot not in self._dynamic:
            return  # template constant: shape can't change
        if slot not in proto["gset"]:
            proto["gset"].add(slot)
            proto["guards"].append((slot, tuple(self.ins[k][0])))

    def store(self, index: int, obj, is_var: bool = False) -> None:
        """The step's value is ``obj`` (entry ``index``) after the call."""
        self._proto["inseg"][self.step.out_slot] = index
        self._proto["stores"].append((self.step.out_slot, obj, is_var))
        if not is_var:
            self._native_ids.add(id(obj))

    def store_const(self, value) -> None:
        self.store(self.entry(("k", self.step.out_slot,
                               len(self._proto["stores"])), ("s", value)),
                   value)

    def out_buf(self) -> int:
        """Allocate the step's persistent output buffer (stored by
        ``_lower`` once the emitter returns); its pointer-table index."""
        self.buf = np.empty(tuple(int(d) for d in self.out[0]),
                            dtype=np.dtype(self.out[1]))
        self.out_index = self.entry(("b", id(self.buf)), ("s", self.buf))
        return self.out_index


def _emit_read_var(cx, _how):
    var = cx.step.attrs["var"]
    cx.store(cx.var(var), var, is_var=True)


def _emit_shape_const(cx, _how):
    shape = tuple(int(d) for d in cx.ins[0][0])
    cx.guard(0)
    cx.store_const(np.asarray(shape if cx.step.op == "shape_of"
                              else _numel(shape), dtype=np.int64))


def _chain(instructions, member_dts, in_metas, out_meta):
    """Validate an elementwise chain for C emission.

    Returns ``(instructions, member_dts, data_args, shape_only_args)``
    (external arg positions that are read vs. only shape-inspected), or
    None if any member falls outside the expression table or an operand
    can't be indexed.
    """
    if _ct(out_meta[1]) is None:
        return None
    out_shape = out_meta[0]
    data, shape_only = set(), set()
    for m_i, (mop, _fwd, mattrs, refs) in enumerate(instructions):
        if _ct(member_dts[m_i]) is None:
            return None
        dts = []
        for kind, r in refs:
            if kind == "arg":
                meta = in_metas[r]
                if meta is None:
                    return None
                if mop == "ones_like":
                    shape_only.add(r)
                else:
                    data.add(r)
                    if (_ct(meta[1]) is None
                            or _bstrides(meta[0], out_shape) is None):
                        return None
                dts.append(meta[1])
            else:
                dts.append(member_dts[r])
        if _member_expr(mop, mattrs, ["x"] * len(refs), dts,
                        member_dts[m_i]) is None:
            return None
    return instructions, member_dts, sorted(data), sorted(shape_only - data)


def _accept_ew(step, ins, out, dts):
    """A standalone elementwise op is a one-member chain."""
    refs = [("arg", k) for k in range(len(step.arg_slots))]
    return _chain([(step.op, None, step.attrs, refs)], [np.dtype(out[1])],
                  ins, out)


def _emit_chain(cx, how):
    instrs, dts, data, shape_only = how
    _emit_elementwise(cx, instrs, dts, cx.ins, data)
    for k in shape_only:
        cx.guard(k)


def _accept_copy(step, ins, out, dts):
    m0 = ins[0] if ins else None
    return (m0 is not None and np.dtype(m0[1]) == np.dtype(out[1])
            and _numel(m0[0]) == _numel(out[0]))


def _accept_transpose(step, ins, out, dts):
    m0, perm = ins[0], step.attrs.get("perm")
    if (m0 is None or _ct(m0[1]) is None or perm is None
            or len(perm) != len(m0[0])):
        return None
    return [int(p) % len(m0[0]) for p in perm]


def _emit_transpose(cx, perm):
    out_shape = tuple(int(d) for d in cx.out[0])
    ct = _ct(cx.ins[0][1])
    ies = _estrides(tuple(int(d) for d in cx.ins[0][0]))
    out_i, arg_i = cx.out_buf(), cx.arg(0)
    w, u = cx.w, cx.w.uid()
    w(f"  {{ /* {cx.label} */")
    w(f"  const {ct} *p{u} = (const {ct} *)B[{arg_i}];")
    w(f"  {ct} *o{u} = ({ct} *)B[{out_i}];")
    w(f"  long long io{u} = 0;")
    indent = "  "
    for d, dim in enumerate(out_shape):
        w(f"{indent}for (long long i{u}_{d} = 0; i{u}_{d} < {dim}; "
          f"i{u}_{d}++) {{")
        indent += "  "
    idx = " + ".join(f"i{u}_{d} * {ies[perm[d]]}"
                     for d in range(len(out_shape)))
    w(f"{indent}o{u}[io{u}++] = p{u}[{idx or '0'}];")
    for _ in out_shape:
        indent = indent[:-2]
        w(f"{indent}}}")
    w("  }")


def _accept_matmul(step, ins, out, dts):
    """True for a native loop; ``(address, integer C type)`` of the
    CBLAS GEMM to call above :data:`_MATMUL_NATIVE_LIMIT`."""
    ma, mb = ins
    if not (ma is not None and mb is not None
            and len(ma[0]) == 2 and len(mb[0]) == 2 and len(out[0]) == 2
            and ma[1] == mb[1] == out[1] and _ct(ma[1]) in _FLOAT_CTS):
        return None
    if _numel(ma[0]) * int(mb[0][1]) <= _MATMUL_NATIVE_LIMIT:
        return True
    return _find_gemm(_ct(ma[1]))


def _emit_matmul(cx, how):
    m, k = (int(d) for d in cx.ins[0][0])
    _, n = (int(d) for d in cx.ins[1][0])
    ct = _ct(cx.out[1])
    out_i, a_i, b_i = cx.out_buf(), cx.arg(0), cx.arg(1)
    w = cx.w
    if how is not True:
        # C = 1 * A @ B + 0 * C, row-major, through the fn entry.
        address, it = how
        f_i = cx.entry(("f", address), ("f", address))
        w(f"  {{ /* {cx.label} */")
        w(f"  typedef void (*gemm_t)(int, int, int, {it}, {it}, {it}, {ct}, "
          f"const {ct} *, {it}, const {ct} *, {it}, {ct}, {ct} *, {it});")
        w(f"  ((gemm_t)(void *)B[{f_i}])({_CBLAS_ROW_MAJOR}, "
          f"{_CBLAS_NO_TRANS}, {_CBLAS_NO_TRANS}, {m}, {n}, {k}, "
          f"({ct})1, (const {ct} *)B[{a_i}], {k}, (const {ct} *)B[{b_i}], "
          f"{n}, ({ct})0, ({ct} *)B[{out_i}], {n});")
        w("  }")
        return
    u = w.uid()
    w(f"  {{ /* {cx.label} */")
    w(f"  const {ct} *a{u} = (const {ct} *)B[{a_i}];")
    w(f"  const {ct} *b{u} = (const {ct} *)B[{b_i}];")
    w(f"  {ct} *o{u} = ({ct} *)B[{out_i}];")
    w(f"  for (long long i = 0; i < {m}; i++) {{")
    w(f"    for (long long j = 0; j < {n}; j++) o{u}[i * {n} + j] = 0;")
    w(f"    for (long long p = 0; p < {k}; p++) {{")
    w(f"      const {ct} av = a{u}[i * {k} + p];")
    w(f"      for (long long j = 0; j < {n}; j++) "
      f"o{u}[i * {n} + j] += av * b{u}[p * {n} + j];")
    w("    }")
    w("  }")
    w("  }")


def _reduce_axes(shape, axis) -> Tuple[int, ...]:
    nd = len(shape)
    if axis is None:
        return tuple(range(nd))
    if isinstance(axis, (int, np.integer)):
        return (int(axis) % nd,)
    return tuple(sorted(int(x) % nd for x in axis))


def _reduce(mode: str) -> Lowering:
    def accept(step, ins, out, dts):
        m0 = ins[0]
        if m0 is None or _ct(m0[1]) is None or _ct(out[1]) is None:
            return None
        axes = _reduce_axes(m0[0], step.attrs.get("axis"))
        if not axes:
            return None
        if mode in ("max", "min") and _numel(m0[0]) == 0:
            return None
        if mode == "mean" and _numel([m0[0][d] for d in axes]) == 0:
            return None
        return set(axes)

    return Lowering(accept, lambda cx, axes: _emit_reduce(cx, axes, mode))


def _accept_argmax(step, ins, out, dts):
    m0, ax = ins[0], step.attrs.get("axis")
    if (m0 is None or _ct(m0[1]) is None or _numel(m0[0]) == 0
            or not (ax is None or isinstance(ax, (int, np.integer)))
            or np.dtype(out[1]) != np.dtype(np.int64)):
        return None
    return (None if ax is None else int(ax) % len(m0[0]),)


def _emit_argmax(cx, how):
    (axis,) = how
    shape = tuple(int(d) for d in cx.ins[0][0])
    in_ct = _ct(cx.ins[0][1])
    out_i, arg_i = cx.out_buf(), cx.arg(0)
    w, u = cx.w, cx.w.uid()
    w(f"  {{ /* {cx.label} */")
    w(f"  const {in_ct} *p{u} = (const {in_ct} *)B[{arg_i}];")
    w(f"  long long *o{u} = (long long *)B[{out_i}];")
    if axis is None:
        size = _numel(shape)
        w(f"  {in_ct} best{u} = p{u}[0]; long long bi{u} = 0;")
        w(f"  for (long long i{u} = 1; i{u} < {size}; i{u}++) {{")
        w(f"    if (p{u}[i{u}] > best{u}) {{ best{u} = p{u}[i{u}]; "
          f"bi{u} = i{u}; }}")
        w("  }")
        w(f"  o{u}[0] = bi{u};")
        w("  }")
        return
    es = _estrides(shape)
    kept = [d for d in range(len(shape)) if d != axis]
    w(f"  long long oc{u} = 0;")
    indent = "  "
    for d in kept:
        w(f"{indent}for (long long i{u}_{d} = 0; i{u}_{d} < {shape[d]}; "
          f"i{u}_{d}++) {{")
        indent += "  "
    base = " + ".join(f"i{u}_{d} * {es[d]}" for d in kept)
    base = base or "0"
    w(f"{indent}{in_ct} best{u} = p{u}[{base}]; long long bi{u} = 0;")
    w(f"{indent}for (long long j{u} = 1; j{u} < {shape[axis]}; j{u}++) {{")
    w(f"{indent}  {in_ct} v{u} = p{u}[{base} + j{u} * {es[axis]}];")
    w(f"{indent}  if (v{u} > best{u}) {{ best{u} = v{u}; bi{u} = j{u}; }}")
    w(f"{indent}}}")
    w(f"{indent}o{u}[oc{u}++] = bi{u};")
    for _ in kept:
        indent = indent[:-2]
        w(f"{indent}}}")
    w("  }")


def _accept_unbroadcast(step, ins, out, dts):
    """The axes to sum the gradient over (empty: same shape, a copy)."""
    m0 = ins[0]
    if m0 is None or _ct(m0[1]) is None or m0[1] != out[1]:
        return None
    gin = tuple(int(d) for d in m0[0])
    tgt = tuple(int(d) for d in out[0])
    if gin == tgt:
        return set()
    pad = len(gin) - len(tgt)
    if pad < 0 or any(t != gin[pad + i] and t != 1
                      for i, t in enumerate(tgt)):
        return None
    return set(range(pad)) | {pad + i for i, t in enumerate(tgt)
                              if t == 1 and gin[pad + i] != 1}


def _emit_unbroadcast(cx, axes):
    if axes:
        _emit_reduce(cx, axes, "sum")
        cx.guard(1)
    else:
        _emit_copy(cx)


def _bcast_expanded(g_shape, out_shape, attrs):
    """The post-``expand_dims`` shape ``broadcast_like`` feeds into
    ``broadcast_to`` (same element order as the raw input), or None."""
    nd = len(out_shape)
    axis = attrs.get("axis")
    keepdims = attrs.get("keepdims", False)
    g_shape = tuple(int(d) for d in g_shape)
    if not keepdims and axis is not None:
        if isinstance(axis, (int, np.integer)):
            axes: Tuple = (int(axis),)
        elif isinstance(axis, (tuple, list)):
            axes = tuple(int(x) for x in axis)
        else:
            return None
        exp = list(g_shape)
        for ax in sorted(x % nd for x in axes):
            if ax > len(exp):
                return None
            exp.insert(ax, 1)
    elif not keepdims and axis is None:
        if _numel(g_shape) != 1:
            return None
        exp = [1] * nd
    else:
        exp = list(g_shape)
    if len(exp) != nd:
        return None
    for d, od in zip(exp, out_shape):
        if d != int(od) and d != 1:
            return None
    return tuple(exp)


def _accept_bcast(step, ins, out, dts):
    m0 = ins[0]
    if m0 is None or _ct(m0[1]) is None or m0[1] != out[1]:
        return None
    return _bcast_expanded(m0[0], out[0], step.attrs)


def _emit_bcast(cx, expanded):
    _emit_elementwise(cx, [("identity", None, {}, [("arg", 0)])],
                      [np.dtype(cx.out[1])],
                      [(expanded, cx.ins[0][1], True)], [0])
    cx.guard(1)


def _accept_one_hot(step, ins, out, dts):
    m0, depth = ins[0], step.attrs.get("depth")
    return (m0 is not None and _ct(m0[1]) is not None
            and _ct(out[1]) is not None
            and isinstance(depth, (int, np.integer)) and int(depth) > 0)


def _emit_one_hot(cx, _how):
    depth = int(cx.step.attrs["depth"])
    n = _numel(cx.ins[0][0])
    idx_ct, out_ct = _ct(cx.ins[0][1]), _ct(cx.out[1])
    out_i, arg_i = cx.out_buf(), cx.arg(0)
    w, u = cx.w, cx.w.uid()
    w(f"  {{ /* {cx.label} */")
    w(f"  const {idx_ct} *p{u} = (const {idx_ct} *)B[{arg_i}];")
    w(f"  {out_ct} *o{u} = ({out_ct} *)B[{out_i}];")
    w(f"  memset(o{u}, 0, {cx.buf.nbytes});")
    w(f"  for (long long i{u} = 0; i{u} < {n}; i{u}++) {{")
    w(f"    long long v{u} = (long long)p{u}[i{u}];")
    w(f"    if (v{u} >= 0 && v{u} < {depth}) "
      f"o{u}[i{u} * {depth} + v{u}] = ({out_ct})1;")
    w("  }")
    w("  }")


def _accept_gather(step, ins, out, dts):
    mp, mi = ins
    return (mp is not None and mi is not None and len(mp[0]) >= 1
            and int(mp[0][0]) > 0 and _ct(mi[1]) is not None)


def _emit_gather(cx, _how):
    # Out-of-range indices clamp (np.take would raise; plans only issue
    # in-range reads) — keeps the C side memory-safe without branching
    # back to Python.
    params_meta, idx_meta = cx.ins
    n_rows = int(params_meta[0][0])
    row = (_numel(params_meta[0][1:])
           * np.dtype(params_meta[1]).itemsize)
    n_idx = _numel(idx_meta[0])
    idx_ct = _ct(idx_meta[1])
    out_i, p_i, i_i = cx.out_buf(), cx.arg(0), cx.arg(1)
    w, u = cx.w, cx.w.uid()
    w(f"  {{ /* {cx.label} */")
    w(f"  const char *p{u} = (const char *)B[{p_i}];")
    w(f"  const {idx_ct} *x{u} = (const {idx_ct} *)B[{i_i}];")
    w(f"  char *o{u} = (char *)B[{out_i}];")
    w(f"  for (long long i{u} = 0; i{u} < {n_idx}; i{u}++) {{")
    w(f"    long long v{u} = (long long)x{u}[i{u}];")
    w(f"    if (v{u} < 0) v{u} = 0;")
    w(f"    if (v{u} >= {n_rows}) v{u} = {n_rows - 1};")
    w(f"    memcpy(o{u} + i{u} * {row}, p{u} + v{u} * {row}, {row});")
    w("  }")
    w("  }")


def _accept_concat(step, ins, out, dts):
    nd, ax = len(out[0]), step.attrs.get("axis", 0)
    if (not ins or any(m is None for m in ins) or nd == 0
            or not isinstance(ax, (int, np.integer))
            or any(np.dtype(m[1]) != np.dtype(out[1]) or len(m[0]) != nd
                   for m in ins)):
        return None
    return (int(ax) % nd,)


def _emit_concat(cx, how):
    (axis,) = how
    esize = np.dtype(cx.out[1]).itemsize
    out_shape = tuple(int(d) for d in cx.out[0])
    outer = _numel(out_shape[:axis])
    out_row = _numel(out_shape[axis:]) * esize
    out_i, arg_idx = cx.out_buf(), cx.args()
    w, u = cx.w, cx.w.uid()
    w(f"  {{ /* {cx.label} */")
    w(f"  char *o{u} = (char *)B[{out_i}];")
    off = 0
    for t, meta in enumerate(cx.ins):
        in_row = _numel(tuple(meta[0])[axis:]) * esize
        if in_row:
            w(f"  for (long long r{u} = 0; r{u} < {outer}; r{u}++)")
            w(f"    memcpy(o{u} + r{u} * {out_row} + {off}, "
              f"(const char *)B[{arg_idx[t]}] + r{u} * {in_row}, {in_row});")
        off += in_row
    w("  }")


def _accept_flatcat(step, ins, out, dts):
    return bool(ins) and all(
        m is not None and np.dtype(m[1]) == np.dtype(np.float32)
        for m in ins)


def _emit_flatcat(cx, _how):
    out_i, arg_idx = cx.out_buf(), cx.args()
    w, u = cx.w, cx.w.uid()
    w(f"  {{ /* {cx.label} */")
    w(f"  char *o{u} = (char *)B[{out_i}];")
    off = 0
    for t, meta in enumerate(cx.ins):
        nbytes = _numel(meta[0]) * np.dtype(meta[1]).itemsize
        if nbytes:
            w(f"  memcpy(o{u} + {off}, B[{arg_idx[t]}], {nbytes});")
        off += nbytes
    w("  }")


def _slabs_ok(ins, attrs, numbers, slabs) -> bool:
    """The fused optimizer kernels need a float32 gradient, numeric
    hyper-parameters and C-contiguous float32 slabs of its size."""
    g = ins[0] if ins else None
    if (g is None or np.dtype(g[1]) != np.dtype(np.float32)
            or not all(_is_number(attrs.get(key)) for key in numbers)):
        return False
    for key in slabs:
        arr = getattr(attrs.get(key), "value", None)
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float32
                and arr.flags.c_contiguous and arr.size == _numel(g[0])):
            return False
    return True


def _accept_sgd(step, ins, out, dts):
    a = step.attrs
    mom = a.get("momentum", 0.0)
    return _is_number(mom) and _slabs_ok(
        ins, a, ("lr",), ("var", "momentum_var") if mom else ("var",))


def _emit_fused_sgd(cx, _how):
    a = cx.step.attrs
    n = int(a["var"].value.size)
    nlr = _flit(np.float32(-a["lr"]))
    g_i, p_i = cx.arg(0), cx.var(a["var"])
    w, u = cx.w, cx.w.uid()
    w(f"  {{ /* {cx.label} */")
    w(f"  const float *g{u} = (const float *)B[{g_i}];")
    w(f"  float *p{u} = (float *)B[{p_i}];")
    if a.get("momentum", 0.0):
        mom = _flit(np.float32(a["momentum"]))
        w(f"  float *m{u} = (float *)B[{cx.var(a['momentum_var'])}];")
        w(f"  for (long long i{u} = 0; i{u} < {n}; i{u}++) {{")
        w(f"    const float nm{u} = {mom} * m{u}[i{u}] + g{u}[i{u}];")
        w(f"    m{u}[i{u}] = nm{u};")
        w(f"    p{u}[i{u}] += {nlr} * nm{u};")
        w("  }")
    else:
        w(f"  for (long long i{u} = 0; i{u} < {n}; i{u}++) "
          f"p{u}[i{u}] += {nlr} * g{u}[i{u}];")
    w("  }")
    cx.store_const(np.asarray(n, dtype=np.int64))


def _accept_adam(step, ins, out, dts):
    a = step.attrs
    return (_slabs_ok(ins, a, ("lr", "beta1", "beta2", "epsilon"),
                      ("var", "m", "v"))
            and len(ins) >= 2 and ins[1] is not None
            and np.dtype(ins[1][1]) in (np.dtype(np.float32),
                                        np.dtype(np.int64))
            and _numel(ins[1][0]) == 1
            and 0.0 < float(a["beta1"]) < 1.0
            and 0.0 < float(a["beta2"]) < 1.0)


def _emit_fused_adam(cx, _how):
    # Mirrors kernels.fused_adam float32-for-float32 (same beta^t via
    # exp(t*log(beta)), same 1e-8 floor); -ffp-contract=off keeps the
    # per-op rounding comparable to NumPy's.
    a = cx.step.attrs
    n = int(a["var"].value.size)
    beta1, beta2 = a["beta1"], a["beta2"]
    b1, b2 = _flit(np.float32(beta1)), _flit(np.float32(beta2))
    ob1 = _flit(np.float32(1.0 - beta1))
    ob2 = _flit(np.float32(1.0 - beta2))
    lb1 = _flit(np.float32(np.log(beta1)))
    lb2 = _flit(np.float32(np.log(beta2)))
    nlr = _flit(np.float32(-a["lr"]))
    eps = _flit(np.float32(a["epsilon"]))
    t_ct = _ct(cx.ins[1][1])
    g_i, p_i, t_i = cx.arg(0), cx.var(a["var"]), cx.arg(1)
    m_i, v_i = cx.var(a["m"]), cx.var(a["v"])
    w, u = cx.w, cx.w.uid()
    w(f"  {{ /* {cx.label} */")
    w(f"  const float *g{u} = (const float *)B[{g_i}];")
    w(f"  const {t_ct} *t{u} = (const {t_ct} *)B[{t_i}];")
    w(f"  float *p{u} = (float *)B[{p_i}];")
    w(f"  float *m{u} = (float *)B[{m_i}];")
    w(f"  float *v{u} = (float *)B[{v_i}];")
    w(f"  const float tf{u} = (float)t{u}[0];")
    w(f"  float bc1{u} = 1.0f - expf(tf{u} * {lb1});")
    w(f"  float bc2{u} = 1.0f - expf(tf{u} * {lb2});")
    w(f"  if (bc1{u} < 1e-08f) bc1{u} = 1e-08f;")
    w(f"  if (bc2{u} < 1e-08f) bc2{u} = 1e-08f;")
    w(f"  for (long long i{u} = 0; i{u} < {n}; i{u}++) {{")
    w(f"    const float gv{u} = g{u}[i{u}];")
    w(f"    const float nm{u} = {b1} * m{u}[i{u}] + {ob1} * gv{u};")
    w(f"    const float nv{u} = {b2} * v{u}[i{u}] + {ob2} * (gv{u} * gv{u});")
    w(f"    const float mh{u} = nm{u} / bc1{u};")
    w(f"    const float vh{u} = nv{u} / bc2{u};")
    w(f"    p{u}[i{u}] += {nlr} * (mh{u} / (sqrtf(vh{u}) + {eps}));")
    w(f"    m{u}[i{u}] = nm{u};")
    w(f"    v{u}[i{u}] = nv{u};")
    w("  }")
    w("  }")
    cx.store_const(np.asarray(n, dtype=np.int64))


def _accept_rmsprop(step, ins, out, dts):
    return _slabs_ok(ins, step.attrs, ("lr", "decay", "epsilon"),
                     ("var", "ms"))


def _emit_fused_rmsprop(cx, _how):
    a = cx.step.attrs
    n = int(a["var"].value.size)
    dec = _flit(np.float32(a["decay"]))
    odec = _flit(np.float32(1.0 - a["decay"]))
    nlr = _flit(np.float32(-a["lr"]))
    eps = _flit(np.float32(a["epsilon"]))
    g_i, p_i, s_i = cx.arg(0), cx.var(a["var"]), cx.var(a["ms"])
    w, u = cx.w, cx.w.uid()
    w(f"  {{ /* {cx.label} */")
    w(f"  const float *g{u} = (const float *)B[{g_i}];")
    w(f"  float *p{u} = (float *)B[{p_i}];")
    w(f"  float *s{u} = (float *)B[{s_i}];")
    w(f"  for (long long i{u} = 0; i{u} < {n}; i{u}++) {{")
    w(f"    const float gv{u} = g{u}[i{u}];")
    w(f"    const float ns{u} = {dec} * s{u}[i{u}] + {odec} * (gv{u} * gv{u});")
    w(f"    p{u}[i{u}] += {nlr} * (gv{u} / (sqrtf(ns{u}) + {eps}));")
    w(f"    s{u}[i{u}] = ns{u};")
    w("  }")
    w("  }")
    cx.store_const(np.asarray(n, dtype=np.int64))


_SHAPE_CONST = Lowering(
    lambda step, ins, out, dts: bool(ins) and ins[0] is not None,
    _emit_shape_const, work=0)
_COPY = Lowering(_accept_copy, _emit_copy)

_LOWERINGS: Dict[str, Lowering] = {
    "read_var": Lowering(
        lambda step, ins, out, dts: out[2] and _ct(out[1]) is not None,
        _emit_read_var, work=0),
    "size_of": _SHAPE_CONST, "shape_of": _SHAPE_CONST,
    "fused": Lowering(
        lambda step, ins, out, dts: (
            dts is not None and _chain(step.instructions, dts, ins, out)),
        _emit_chain, work=2),
    "reshape": _COPY, "reshape_like": _COPY, "squeeze": _COPY,
    "expand_dims": _COPY, "anchor": _COPY,
    "transpose": Lowering(_accept_transpose, _emit_transpose),
    "matmul": Lowering(_accept_matmul, _emit_matmul),
    "reduce_sum": _reduce("sum"), "reduce_mean": _reduce("mean"),
    "reduce_max": _reduce("max"), "reduce_min": _reduce("min"),
    "argmax": Lowering(_accept_argmax, _emit_argmax),
    "unbroadcast_like_op": Lowering(_accept_unbroadcast, _emit_unbroadcast),
    "broadcast_like": Lowering(_accept_bcast, _emit_bcast),
    "one_hot": Lowering(_accept_one_hot, _emit_one_hot),
    "gather": Lowering(_accept_gather, _emit_gather),
    "concat": Lowering(_accept_concat, _emit_concat),
    "flatcat": Lowering(_accept_flatcat, _emit_flatcat),
    "fused_sgd": Lowering(_accept_sgd, _emit_fused_sgd, work=2),
    "fused_adam": Lowering(_accept_adam, _emit_fused_adam, work=2),
    "fused_rmsprop": Lowering(_accept_rmsprop, _emit_fused_rmsprop, work=2),
}
# Every op with a C scalar expression lowers standalone as a one-member
# chain (inside a fused group its expression is used directly).
_LOWERINGS.update(dict.fromkeys(_C_EXPR, Lowering(_accept_ew, _emit_chain)))


# ---------------------------------------------------------------------------
# Probe run
# ---------------------------------------------------------------------------
def _probe(compiled, slab):
    """Interpret the plan once on a fed ``slab``, recording per-step
    operand/output metadata (the shape specialization the C source is
    emitted against). Returns ``(records, fetch_values)`` — a real run,
    so its results are returned to the caller."""
    records = []
    for step in compiled.steps:
        args = [slab[i] for i in step.arg_slots]
        in_metas = [_meta(v) for v in args]
        member_dts = None
        if step.instructions is not None:
            # Run members individually (value-identical to the fused
            # kernel) so each member's result dtype is observable.
            locs: List[Any] = []
            member_dts = []
            for _op, fwd, attrs, refs in step.instructions:
                margs = [args[r] if kind == "arg" else locs[r]
                         for kind, r in refs]
                val = fwd(margs, attrs)
                locs.append(val)
                member_dts.append(np.asarray(val).dtype)
            result = locs[-1]
        else:
            result = step.forward(args, step.attrs)
        slab[step.out_slot] = result
        records.append((in_metas, _meta(result), member_dts))
    return records, [slab[s] for s in compiled._fetch_slots]


# ---------------------------------------------------------------------------
# Segment lowering
# ---------------------------------------------------------------------------
class _Segment:
    """One compiled C function plus its pointer-table recipe: a lowered
    proto bound to the loaded library."""

    __slots__ = ("name", "fn", "ptrs", "cast", "statics", "var_entries",
                 "dyn", "guards", "stores", "fallback")

    def __init__(self, proto, lib):
        self.name = proto["name"]
        self.fn = lib.fns[self.name]
        self.ptrs = np.zeros(max(len(proto["entries"]), 1), dtype=np.uint64)
        self.statics, self.var_entries, self.dyn = [], [], []
        for i, e in enumerate(proto["entries"]):
            if e[0] == "s":
                self.ptrs[i] = e[1].ctypes.data
                self.statics.append(e[1])
            elif e[0] == "f":
                self.ptrs[i] = e[1]
            elif e[0] == "v":
                self.var_entries.append((i, e[1], e[2], e[3]))
            else:
                self.dyn.append((i, e[1], e[2], e[3]))
        self.guards = proto["guards"]
        self.stores = proto["stores"]
        self.fallback = proto["fallback"]
        self.cast = lib.cast_ptr(int(self.ptrs.ctypes.data))


class _Build:
    """One feed-signature specialization: the item list interleaving
    Python steps and native segments, plus the loaded library."""

    __slots__ = ("items", "lib", "epoch", "native_ids")

    def refresh(self) -> bool:
        """Re-resolve variable-storage pointers (after a storage-epoch
        bump, e.g. a ParamSlab repoint). False if any variable no longer
        matches its baked shape/dtype — the build is then unusable."""
        for item in self.items:
            if item[0] != "seg":
                continue
            seg = item[1]
            for i, var, shape, dtype in seg.var_entries:
                v = var.value
                if not (isinstance(v, np.ndarray) and v.shape == shape
                        and v.dtype == dtype and v.flags.c_contiguous):
                    return False
                seg.ptrs[i] = v.ctypes.data
        self.epoch = variables.storage_epoch()
        return True


def _assemble_source(protos) -> str:
    """One ``static`` function per lowered step and an exported
    ``segN(char **B)`` calling them in order. Kept apart (``noinline``)
    the compiler optimizes each step on its own: compiled as one
    function, the learner_group DQN's 131-step gradient plan peaks cc1
    at ~60 MB, against ~49 MB split per step."""
    parts = ["#include <math.h>", "#include <string.h>",
             "#include <limits.h>", ""]
    for p in protos:
        calls = []
        for k, lines in enumerate(p["bodies"]):
            fn = f"{p['name']}_{k}"
            parts.append(f"static __attribute__((noinline)) "
                         f"void {fn}(char **B) {{")
            parts.extend(lines)
            parts.append("}")
            calls.append(f"  {fn}(B);")
        parts.append(f"void {p['name']}(char **B) {{")
        parts.extend(calls)
        parts.append("}")
        parts.append("")
    return "\n".join(parts)


def _lower(compiled, records):
    """Look every step up in :data:`_LOWERINGS`, pick viable segments,
    and emit their C bodies.

    Returns ``(protos, items, source, native_ids, n_native)`` or None
    when no segment clears the viability bar.
    """
    steps = compiled.steps
    lowered: List[Optional[Tuple[Lowering, Any]]] = []
    for step, rec in zip(steps, records):
        low = _LOWERINGS.get(step.op)
        how = None
        if low is not None and rec[1] is not None:
            try:
                how = low.accept(step, *rec)
            except Exception:
                how = None
        lowered.append(None if how is None or how is False else (low, how))
    runs = []  # maximal native runs worth a foreign call
    for native, group in itertools.groupby(
            enumerate(lowered), key=lambda e: e[1] is not None):
        group = list(group)
        if native and sum(low.work for _j, (low, _how) in group) >= 2:
            runs.append((group[0][0], group[-1][0] + 1))
    if not runs:
        return None
    run_map = {j: (lo, hi) for lo, hi in runs for j in range(lo, hi)}
    dynamic = {slot for _ph, slot in compiled._feed_slots}
    native_ids: set = set()
    protos: List[Dict[str, Any]] = []
    items: List[Tuple] = []
    for j, step in enumerate(steps):
        span = run_map.get(j)
        if span is None:
            items.append(("py", compiled._steps[j], step.op == "py_func"))
        else:
            lo, hi = span
            if j == lo:
                protos.append({"name": f"seg{len(protos)}", "bodies": [],
                               "entries": [], "eidx": {}, "inseg": {},
                               "guards": [], "gset": set(), "stores": [],
                               "fallback": compiled._steps[lo:hi]})
                items.append(("segref", len(protos) - 1))
            low, how = lowered[j]
            cx = _StepCx(step, records[j], protos[-1], compiled._template,
                         dynamic, native_ids)
            low.emit(cx, how)
            if cx.w.lines:
                protos[-1]["bodies"].append(cx.w.lines)
            if cx.buf is not None:
                cx.store(cx.out_index, cx.buf)
        dynamic.add(step.out_slot)
    n_native = sum(hi - lo for lo, hi in runs)
    return protos, items, _assemble_source(protos), native_ids, n_native


def _run_segment(seg: _Segment, slab) -> bool:
    """Resolve dynamic pointers, check guards, call the C function, and
    apply stores. False = a guard failed (caller runs the recorded
    Python steps for this segment instead)."""
    ptrs = seg.ptrs
    keep = None
    for i, slot, shape, dtype in seg.dyn:
        v = slab[slot]
        if not isinstance(v, (np.ndarray, np.generic)) \
                or v.shape != shape or v.dtype != dtype:
            return False
        if v.__class__ is not np.ndarray or not v.flags.c_contiguous:
            v = np.ascontiguousarray(v)
            if keep is None:
                keep = []
            keep.append(v)  # alive until after the C call
        ptrs[i] = v.ctypes.data
    for slot, shape in seg.guards:
        v = slab[slot]
        if not isinstance(v, (np.ndarray, np.generic)) or v.shape != shape:
            return False
    seg.fn(seg.cast)
    for out_slot, obj, is_var in seg.stores:
        slab[out_slot] = obj.value if is_var else obj
    return True


def _derives_from(value, native_ids) -> bool:
    """Whether ``value`` is (a view of) a build-owned native buffer —
    such arrays are overwritten in place by the next run."""
    depth = 0
    while value is not None and depth < 16:
        if id(value) in native_ids:
            return True
        value = getattr(value, "base", None)
        depth += 1
    return False


# ---------------------------------------------------------------------------
# NativePlan
# ---------------------------------------------------------------------------
class NativePlan:
    """Drop-in for :class:`~repro.backend.compiler.CompiledPlan` that
    executes native segments where possible (the Session wraps the
    compiled plan with this at ``optimize="native"``)."""

    def __init__(self, compiled, session_stats=None):
        self._compiled = compiled
        self._session_stats = session_stats
        self._builds: Dict[Tuple, Any] = {}
        self._counted = False
        self._broken = False
        self.steps = compiled.steps
        self.stats = compiled.stats
        self.c_source: Optional[str] = None

    @property
    def codegen_source(self):
        return self._compiled.codegen_source

    def run(self, feed_values: Dict[int, Any]) -> List[Any]:
        compiled = self._compiled
        if self._broken:
            return compiled.run(feed_values)
        slab = compiled.feed_slab(feed_values)
        sig = tuple((slot, np.shape(slab[slot]),
                     str(np.asarray(slab[slot]).dtype))
                    for _ph, slot in compiled._feed_slots)
        build = self._builds.get(sig)
        if build is None and len(self._builds) < _MAX_BUILDS:
            return self._build_and_run(sig, slab)
        if isinstance(build, _Build):
            if (build.epoch == variables.storage_epoch()
                    or build.refresh()):
                return self._run_build(build, slab)
            self._broken = True  # variables changed shape under us
        return compiled.run_slab(slab)

    # -- lowering ----------------------------------------------------------
    def _build_and_run(self, sig, slab):
        """First run of a feed signature: the probe run is the run, and
        the build it specializes serves the following ones."""
        t0 = time.perf_counter()
        records, fetches = _probe(self._compiled, slab)
        try:
            self._builds[sig] = self._build(records)
        finally:
            if self._session_stats is not None:
                self._session_stats.native_compile_time += (
                    time.perf_counter() - t0)
        return self._copy_fetches(fetches, frozenset())

    def _build(self, records):
        """Lower and compile against one probe: a :class:`_Build`, or
        ``"py"`` when nothing is viable. A library that cannot be built
        (or variables no longer matching) marks the whole plan broken."""
        compiled, stats = self._compiled, self._session_stats
        try:
            lowered = _lower(compiled, records)
        except Exception:
            lowered = None
        if lowered is None:
            return "py"
        protos, items, self.c_source, native_ids, n_native = lowered
        lib, hit, cause = _build_library(self.c_source,
                                         [p["name"] for p in protos])
        if lib is None:
            self._broken = True
            warn_degraded(cause)
            return "py"
        segs = [_Segment(proto, lib) for proto in protos]
        build = _Build()
        build.items = [("seg", segs[it[1]]) if it[0] == "segref" else it
                       for it in items]
        build.lib = lib
        build.native_ids = native_ids
        build.epoch = None
        if not build.refresh():
            self._broken = True
            return "py"
        if hit and stats is not None:
            stats.native_cache_hits += 1
        if not self._counted:
            self._counted = True
            n_py = len(compiled.steps) - n_native
            cs = compiled.stats
            cs.native_segments, cs.native_steps = len(segs), n_native
            cs.native_py_steps = n_py
            if stats is not None:
                stats.plans_native += 1
                stats.native_segments += len(segs)
                stats.native_steps += n_native
                stats.native_py_steps += n_py
        return build

    # -- execution ---------------------------------------------------------
    def _run_build(self, build: _Build, slab):
        compiled = self._compiled
        native_ids = build.native_ids
        for item in build.items:
            if item[0] == "seg":
                seg = item[1]
                if not _run_segment(seg, slab):
                    for fwd, attrs, arg_slots, out_slot in seg.fallback:
                        slab[out_slot] = fwd([slab[i] for i in arg_slots],
                                             attrs)
            else:
                fwd, attrs, arg_slots, out_slot = item[1]
                args = [slab[i] for i in arg_slots]
                if item[2]:
                    # py_func may retain its arguments; never hand it a
                    # buffer the next native run will overwrite in place.
                    args = [v.copy() if v.__class__ is np.ndarray
                            and _derives_from(v, native_ids) else v
                            for v in args]
                slab[out_slot] = fwd(args, attrs)
        return self._copy_fetches([slab[s] for s in compiled._fetch_slots],
                                  native_ids)

    def _copy_fetches(self, fetches, native_ids):
        out = []
        for v in fetches:
            if v.__class__ is np.ndarray and (
                    _derives_from(v, native_ids)
                    or variables.aliases_state(v)):
                v = v.copy()
            out.append(v)
        return out
