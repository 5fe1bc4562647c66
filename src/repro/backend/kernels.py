"""Pure-NumPy forward kernels shared by both backends.

Only kernels that need nontrivial implementations live here (convolution,
LSTM, one-hot). Elementwise and reduction ops call NumPy directly from the
op table in :mod:`repro.backend.ops`.

Layout conventions follow TensorFlow: images are NHWC, conv filters are
(KH, KW, Cin, Cout), LSTM inputs are time-major (T, B, D) to match the
paper's time-major space option.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


# ---------------------------------------------------------------------------
# Convolution (NHWC, via im2col)
# ---------------------------------------------------------------------------
def conv2d_output_size(in_size: int, k: int, stride: int, padding: str) -> int:
    if padding == "SAME":
        return -(-in_size // stride)  # ceil division
    return (in_size - k) // stride + 1


def _same_pad_amounts(in_size: int, k: int, stride: int):
    out = conv2d_output_size(in_size, k, stride, "SAME")
    total = max((out - 1) * stride + k - in_size, 0)
    return total // 2, total - total // 2


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: str) -> np.ndarray:
    """(N, H, W, C) -> (N, OH, OW, KH*KW*C) patch matrix."""
    n, h, w, c = x.shape
    if padding == "SAME":
        ph0, ph1 = _same_pad_amounts(h, kh, stride)
        pw0, pw1 = _same_pad_amounts(w, kw, stride)
        x = np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)))
        h, w = x.shape[1], x.shape[2]
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kh, kw, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )
    return np.ascontiguousarray(patches).reshape(n, oh, ow, kh * kw * c)


def col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int,
           padding: str) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter patch grads back onto the image."""
    n, h, w, c = x_shape
    if padding == "SAME":
        ph0, ph1 = _same_pad_amounts(h, kh, stride)
        pw0, pw1 = _same_pad_amounts(w, kw, stride)
    else:
        ph0 = ph1 = pw0 = pw1 = 0
    hp, wp = h + ph0 + ph1, w + pw0 + pw1
    out = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    cols6 = cols.reshape(n, oh, ow, kh, kw, c)
    for i in range(kh):
        for j in range(kw):
            out[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :] += (
                cols6[:, :, :, i, j, :]
            )
    return out[:, ph0:hp - ph1 if ph1 else hp, pw0:wp - pw1 if pw1 else wp, :]


def conv2d_forward(x: np.ndarray, filters: np.ndarray, stride: int,
                   padding: str) -> np.ndarray:
    """NHWC conv. ``filters``: (KH, KW, Cin, Cout)."""
    kh, kw, cin, cout = filters.shape
    assert x.shape[-1] == cin, (x.shape, filters.shape)
    cols = im2col(x, kh, kw, stride, padding)  # (N, OH, OW, KH*KW*Cin)
    out = cols @ filters.reshape(-1, cout)
    return out


def conv2d_backward(grad: np.ndarray, x: np.ndarray, filters: np.ndarray,
                    stride: int, padding: str):
    kh, kw, cin, cout = filters.shape
    cols = im2col(x, kh, kw, stride, padding)
    n, oh, ow, _ = cols.shape
    grad2 = grad.reshape(-1, cout)
    dfilters = (cols.reshape(-1, kh * kw * cin).T @ grad2).reshape(filters.shape)
    dcols = (grad2 @ filters.reshape(-1, cout).T).reshape(n, oh, ow, kh * kw * cin)
    dx = col2im(dcols, x.shape, kh, kw, stride, padding)
    return dx, dfilters


# ---------------------------------------------------------------------------
# Fused LSTM (time-major) with manual BPTT
# ---------------------------------------------------------------------------
def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                 h0: np.ndarray, c0: np.ndarray):
    """Run an LSTM over a time-major sequence.

    Args:
        x: (T, B, D) inputs.
        w: (D + H, 4H) stacked kernel, gate order [i, f, g, o].
        b: (4H,) bias.
        h0, c0: (B, H) initial states.

    Returns:
        outputs (T, B, H), final (h, c), and a cache for backward.
    """
    t_steps, batch, _ = x.shape
    hidden = h0.shape[-1]
    outs = np.empty((t_steps, batch, hidden), dtype=np.float32)
    cache = []
    h, c = h0.astype(np.float32), c0.astype(np.float32)
    for t in range(t_steps):
        xh = np.concatenate([x[t], h], axis=1)
        gates = xh @ w + b
        i = _sigmoid(gates[:, :hidden])
        f = _sigmoid(gates[:, hidden:2 * hidden] + 1.0)  # forget bias 1.0
        g = np.tanh(gates[:, 2 * hidden:3 * hidden])
        o = _sigmoid(gates[:, 3 * hidden:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        cache.append((xh, i, f, g, o, c, tanh_c))
        h, c = h_new, c_new
        outs[t] = h
    return outs, h, c, cache


def lstm_backward(grad_outs: np.ndarray, grad_h_final: np.ndarray,
                  grad_c_final: np.ndarray, x: np.ndarray, w: np.ndarray,
                  cache):
    """BPTT through :func:`lstm_forward`.

    Returns dx (T,B,D), dw, db, dh0, dc0.
    """
    t_steps, batch, dim = x.shape
    hidden = grad_outs.shape[-1]
    dw = np.zeros_like(w)
    db = np.zeros(4 * hidden, dtype=np.float32)
    dx = np.empty_like(x, dtype=np.float32)
    dh = grad_h_final.astype(np.float32).copy()
    dc = grad_c_final.astype(np.float32).copy()
    for t in range(t_steps - 1, -1, -1):
        xh, i, f, g, o, c_prev, tanh_c = cache[t]
        dh = dh + grad_outs[t]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c ** 2)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc = dc * f
        dgates = np.concatenate(
            [di * i * (1 - i), df * f * (1 - f), dg * (1 - g ** 2),
             do * o * (1 - o)], axis=1)
        dw += xh.T @ dgates
        db += dgates.sum(axis=0)
        dxh = dgates @ w.T
        dx[t] = dxh[:, :dim]
        dh = dxh[:, dim:]
    return dx, dw, db, dh, dc


# ---------------------------------------------------------------------------
# Misc kernels
# ---------------------------------------------------------------------------
def one_hot(indices: np.ndarray, depth: int, dtype=np.float32) -> np.ndarray:
    flat = np.asarray(indices).reshape(-1).astype(np.int64)
    out = np.zeros((flat.size, depth), dtype=dtype)
    valid = (flat >= 0) & (flat < depth)
    out[np.arange(flat.size)[valid], flat[valid]] = 1
    return out.reshape(np.asarray(indices).shape + (depth,))


def unbroadcast(grad: np.ndarray, target_shape) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``target_shape`` (reverse of
    NumPy broadcasting)."""
    grad = np.asarray(grad)
    if grad.shape == tuple(target_shape):
        return grad
    # Sum out prepended dims.
    while grad.ndim > len(target_shape):
        grad = grad.sum(axis=0)
    # Sum along broadcast (size-1) dims.
    for axis, size in enumerate(target_shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Multi-tensor fused optimizer kernels (flat-parameter learner path)
# ---------------------------------------------------------------------------
# Each kernel updates a whole parameter slab (and its slot slabs) in
# place from one flat gradient vector. Arithmetic mirrors the
# per-variable op chains in components/optimizers/optimizer.py constant
# for constant (python floats cast to float32 exactly like
# graph.constant does), so fused results are bitwise identical to the
# per-variable path — elementwise ops cannot mix elements across the
# concatenated segments.

def fused_sgd(grad: np.ndarray, params: np.ndarray, lr: float,
              momentum: float = 0.0,
              momentum_buf: Optional[np.ndarray] = None) -> None:
    g = np.asarray(grad, dtype=np.float32)
    if momentum:
        new_m = np.float32(momentum) * momentum_buf + g
        momentum_buf[...] = new_m
        params += np.float32(-lr) * new_m
    else:
        params += np.float32(-lr) * g


def fused_adam(grad: np.ndarray, t, params: np.ndarray, m: np.ndarray,
               v: np.ndarray, lr: float, beta1: float, beta2: float,
               epsilon: float) -> None:
    g = np.asarray(grad, dtype=np.float32)
    t = np.float32(t)
    new_m = np.float32(beta1) * m + np.float32(1.0 - beta1) * g
    new_v = np.float32(beta2) * v + np.float32(1.0 - beta2) * np.square(g)
    # beta^t via exp(t * log(beta)) — matches the per-variable graph.
    bc1 = np.float32(1.0) - np.exp(t * np.float32(np.log(beta1)))
    bc2 = np.float32(1.0) - np.exp(t * np.float32(np.log(beta2)))
    m_hat = new_m / np.maximum(bc1, np.float32(1e-8))
    v_hat = new_v / np.maximum(bc2, np.float32(1e-8))
    delta = np.float32(-lr) * (m_hat / (np.sqrt(v_hat) + np.float32(epsilon)))
    m[...] = new_m
    v[...] = new_v
    params += delta


def fused_rmsprop(grad: np.ndarray, params: np.ndarray, ms: np.ndarray,
                  lr: float, decay: float, epsilon: float) -> None:
    g = np.asarray(grad, dtype=np.float32)
    new_ms = np.float32(decay) * ms + np.float32(1.0 - decay) * np.square(g)
    delta = np.float32(-lr) * (g / (np.sqrt(new_ms) + np.float32(epsilon)))
    ms[...] = new_ms
    params += delta


# ---------------------------------------------------------------------------
# Fused elementwise kernels (graph compiler)
# ---------------------------------------------------------------------------
def build_fused_kernel(instructions):
    """Compile a chain of elementwise ops into one Python function.

    ``instructions`` is a topologically ordered list of
    ``(op, forward, attrs, refs)`` tuples, where each ref is either
    ``("arg", k)`` — the k-th external input — or ``("local", j)`` — the
    output of instruction j. The generated function has the standard
    op-forward signature ``fn(args, attrs)`` and calls the *registered*
    forwards, so fused results are bitwise identical to unfused
    execution; the win is eliminating per-node executor dispatch and
    slab traffic for intermediates.
    """
    namespace = {}
    lines = []
    for j, (_op, forward, attrs, refs) in enumerate(instructions):
        namespace[f"_f{j}"] = forward
        namespace[f"_c{j}"] = attrs
        args = ", ".join(f"a[{k}]" if kind == "arg" else f"t{k}"
                         for kind, k in refs)
        lines.append(f"    t{j} = _f{j}([{args}], _c{j})")
    lines.append(f"    return t{len(instructions) - 1}")
    source = "def _fused(a, attrs):\n" + "\n".join(lines)
    exec(compile(source, "<fused-kernel>", "exec"), namespace)
    fused = namespace["_fused"]
    fused.num_ops = len(instructions)
    fused.ops = tuple(op for op, _, _, _ in instructions)
    return fused
