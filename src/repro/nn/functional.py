"""Differentiable functional ops built on :class:`repro.nn.tensor.Tensor`.

Everything here is vectorized NumPy: convolutions use an im2col
(``sliding_window_view``) lowering so the inner loop is a single GEMM,
softmax and log-softmax use the log-sum-exp trick, and backward closures
avoid re-computing forward quantities.

Hot-path conventions (see ``repro.perf`` for the measurement side):

* im2col materializes its copy in a (C*K, N*L_out) "kn" layout whose inner
  runs are contiguous in the source image, then feeds one GEMM; the column
  buffer is cached in the closure and reused by backward for the weight
  gradient.
* conv/pool backward scatter through strided slice ``+=`` (index sets from
  a uniform stride never collide), never ``np.add.at``, except for
  overlapping pooling windows where collisions are real.
* ``conv1d``/``conv2d``/``linear_act`` optionally fuse a relu/tanh
  epilogue into the same tape node, applied in place on the GEMM output.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import amp as _amp
from .tensor import Tensor, unbroadcast


# Activation epilogues fusable into conv / linear nodes.  Each entry maps
# name -> (in-place forward on the pre-activation buffer,
#          in-place-safe backward factor from the *post*-activation output).
_FUSED_ACTS = {
    "relu": (
        lambda buf: np.maximum(buf, 0.0, out=buf),
        lambda out, g: g * (out > 0),
    ),
    "tanh": (
        lambda buf: np.tanh(buf, out=buf),
        lambda out, g: g * (1.0 - out * out),
    ),
}


def _fused_act(activation: Optional[str]):
    if activation is None:
        return None
    try:
        return _FUSED_ACTS[activation]
    except KeyError:
        raise ValueError(
            f"unsupported fused activation {activation!r}; choose from {sorted(_FUSED_ACTS)} or None"
        )


# Batch sizes repeat every step, so the row-gather index is worth caching
# (read-only: it is shared across every caller with the same n).
_ROW_INDEX: dict = {}


def _row_index(n: int) -> np.ndarray:
    rows = _ROW_INDEX.get(n)
    if rows is None:
        rows = np.arange(n)
        rows.flags.writeable = False
        _ROW_INDEX[n] = rows
    return rows


def _pad_nd(xd: np.ndarray, padding: int, spatial_axes: int) -> np.ndarray:
    """Zero-pad the trailing ``spatial_axes`` axes by ``padding`` on both
    sides.  Hand-rolled (zeros + slice assign) because ``np.pad`` spends
    most of its time in Python bookkeeping for this common case."""
    if padding <= 0:
        return xd
    shape = list(xd.shape)
    sl = [slice(None)] * xd.ndim
    for ax in range(xd.ndim - spatial_axes, xd.ndim):
        shape[ax] += 2 * padding
        sl[ax] = slice(padding, padding + xd.shape[ax])
    buf = np.zeros(tuple(shape), dtype=xd.dtype)
    buf[tuple(sl)] = xd
    return buf


# ----------------------------------------------------------------------
# Elementwise
# ----------------------------------------------------------------------
def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def backward(g: np.ndarray):
        return (g * out,)

    return x._unary_out(out, backward)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)
    xd = x.data

    def backward(g: np.ndarray):
        return (g / xd,)

    return x._unary_out(data, backward)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward(g: np.ndarray):
        return (g * (1.0 - out * out),)

    return x._unary_out(out, backward)


def sigmoid(x: Tensor) -> Tensor:
    # Numerically stable piecewise formulation (expit identity).
    xd = x.data
    out = np.empty_like(xd, dtype=np.result_type(xd.dtype, np.float32))
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    e = np.exp(xd[~pos])
    out[~pos] = e / (1.0 + e)
    out = out.astype(xd.dtype, copy=False)

    def backward(g: np.ndarray):
        return (g * out * (1.0 - out),)

    return x._unary_out(out, backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    data = np.where(mask, x.data, 0.0).astype(x.data.dtype, copy=False)

    def backward(g: np.ndarray):
        return (g * mask,)

    return x._unary_out(data, backward)


def leaky_relu(x: Tensor, alpha: float = 0.01) -> Tensor:
    mask = x.data > 0
    data = np.where(mask, x.data, alpha * x.data).astype(x.data.dtype, copy=False)

    def backward(g: np.ndarray):
        return (g * np.where(mask, 1.0, alpha).astype(g.dtype),)

    return x._unary_out(data, backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    mask = x.data > 0
    expm1 = np.expm1(np.minimum(x.data, 0.0))
    data = np.where(mask, x.data, alpha * expm1).astype(x.data.dtype, copy=False)

    def backward(g: np.ndarray):
        return (g * np.where(mask, 1.0, alpha * (expm1 + 1.0)).astype(g.dtype),)

    return x._unary_out(data, backward)


def gelu(x: Tensor) -> Tensor:
    """Tanh approximation of GELU (Hendrycks & Gimpel)."""
    xd = x.data
    # Python float, not np.sqrt's float64 scalar: NumPy 2 treats np.float64
    # scalars as strong types, so the latter silently upcasts float32
    # activations to float64 for the whole op (round-tripped back only at
    # the final astype).
    c = float(np.sqrt(2.0 / np.pi))
    inner = c * (xd + 0.044715 * xd ** 3)
    t = np.tanh(inner)
    data = 0.5 * xd * (1.0 + t)

    def backward(g: np.ndarray):
        dinner = c * (1.0 + 3 * 0.044715 * xd ** 2)
        dt = (1.0 - t * t) * dinner
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * dt),)

    return x._unary_out(data.astype(xd.dtype, copy=False), backward)


def softplus(x: Tensor) -> Tensor:
    xd = x.data
    data = np.logaddexp(0.0, xd).astype(xd.dtype, copy=False)

    def backward(g: np.ndarray):
        s = np.empty_like(xd)
        pos = xd >= 0
        s[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
        e = np.exp(xd[~pos])
        s[~pos] = e / (1.0 + e)
        return (g * s,)

    return x._unary_out(data, backward)


def abs(x: Tensor) -> Tensor:  # noqa: A001 - mirrors np.abs
    sign = np.sign(x.data)
    data = np.abs(x.data)

    def backward(g: np.ndarray):
        return (g * sign,)

    return x._unary_out(data, backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    mask = (x.data >= lo) & (x.data <= hi)
    data = np.clip(x.data, lo, hi)

    def backward(g: np.ndarray):
        return (g * mask,)

    return x._unary_out(data, backward)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select; ``cond`` is a boolean array (non-diff)."""
    cond = np.asarray(cond, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(g: np.ndarray):
        return (
            unbroadcast(np.where(cond, g, 0.0), a.shape),
            unbroadcast(np.where(cond, 0.0, g), b.shape),
        )

    req = a.requires_grad or b.requires_grad
    return Tensor(data, requires_grad=req, parents=(a, b), backward_fn=backward)


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    xd = x.data
    m = xd.max(axis=axis, keepdims=True)
    shifted = xd - m
    s = np.exp(shifted).sum(axis=axis, keepdims=True)
    out_keep = m + np.log(s)
    data = out_keep if keepdims else np.squeeze(out_keep, axis=axis)
    softmax_vals = np.exp(shifted) / s

    def backward(g: np.ndarray):
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (g_exp * softmax_vals,)

    return x._unary_out(data, backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return x._unary_out(out, backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    sm = np.exp(data)

    def backward(g: np.ndarray):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return x._unary_out(data, backward)


# ----------------------------------------------------------------------
# Linear algebra helpers
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` with weight of shape (in, out)."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def linear_act(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    activation: Optional[str] = None,
) -> Tensor:
    """Fused ``act(x @ weight + bias)`` as a single tape node.

    The bias add and the relu/tanh epilogue run in place on the GEMM
    output, and backward applies the activation derivative to the incoming
    gradient before the two grad GEMMs — one node where the unfused
    composition records three.  Falls back to the unfused ops for inputs
    that are not 2-D (the Dense hot path is (N, F)).
    """
    act = _fused_act(activation)
    if x.data.ndim != 2:
        out = linear(x, weight, bias)
        if activation == "relu":
            return relu(out)
        if activation == "tanh":
            return tanh(out)
        return out
    ac = _amp.active()
    if ac is not None:
        return _linear_act_amp(x, weight, bias, act, ac)

    xd, wd = x.data, weight.data
    out = xd @ wd  # (N, units)
    if bias is not None:
        out += bias.data
    if act is not None:
        act[0](out)

    need_x = x.requires_grad  # the first layer's input grad is dead work

    def backward(g: np.ndarray):
        if act is not None:
            g = act[1](out, g)
        grad_x = g @ wd.T if need_x else None
        grad_w = xd.T @ g
        if bias is None:
            return (grad_x, grad_w, None)
        # g is (N, units) here; a 1-D bias reduces over the batch axis
        # directly, skipping the generic unbroadcast machinery.
        grad_b = g.sum(axis=0) if bias.data.ndim == 1 else unbroadcast(g, bias.shape)
        return (grad_x, grad_w, grad_b)

    parents = (x, weight) if bias is None else (x, weight, bias)
    req = any(p.requires_grad for p in parents)
    return Tensor(out, requires_grad=req, parents=parents, backward_fn=backward)


def _linear_act_amp(x: Tensor, weight: Tensor, bias, act, ac) -> Tensor:
    """Narrow-storage ``linear_act``: inputs and weights are snapped to the
    active plan's storage grid, the GEMM accumulates in fp32, and the
    output is stored narrow.  Backward mirrors real mixed-precision
    hardware: activation gradients return narrow, weight/bias gradients
    return fp32 (master precision) for the optimizer.
    """
    xd = ac.cast_in(x.data)  # narrow-grid values, fp32 compute layout
    wd = ac.cast_in(weight.data)
    out = xd @ wd  # fp32 accumulate
    if bias is not None:
        out += ac.to_compute(bias.data)
    if act is not None:
        act[0](out)
    out = ac.snap_out(out)  # narrow storage (in place for bf16)

    need_x = x.requires_grad

    def backward(g: np.ndarray):
        g = ac.to_compute(g)
        if act is not None:
            g = act[1](ac.to_compute(out), g)
        grad_x = ac.snap_out(g @ wd.T) if need_x else None
        grad_w = xd.T @ g  # fp32 — applied to fp32 master weights
        if bias is None:
            return (grad_x, grad_w, None)
        grad_b = g.sum(axis=0) if bias.data.ndim == 1 else unbroadcast(g, bias.shape)
        return (grad_x, grad_w, grad_b)

    parents = (x, weight) if bias is None else (x, weight, bias)
    req = any(p.requires_grad for p in parents)
    return Tensor(out, requires_grad=req, parents=parents, backward_fn=backward)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Fused softmax + cross-entropy as one tape node with the stable
    ``(p - y) / n`` backward.

    ``labels`` may be integer class ids (N,) or one-hot / soft labels
    (N, C).  Equivalent to ``-mean(log_softmax(logits)[y])`` but skips the
    intermediate log-prob node and the fancy-index gather node whose
    backward is an ``np.add.at`` scatter.
    """
    labels = np.asarray(labels)
    zd = logits.data
    ac = _amp.active()
    if ac is not None and zd.dtype != np.float32:
        # Loss math runs in fp32 under autocast (softmax of fp16 logits
        # both underflows and crawls); the (p - y)/n gradient returns fp32
        # and the upstream fused kernels re-narrow it on entry.
        zd = zd.astype(np.float32)
    if zd.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects (N, C) logits, got {zd.shape}")
    n = zd.shape[0]
    shifted = zd - zd.max(axis=1, keepdims=True)
    if labels.ndim == 1:
        idx = labels.astype(np.int64)
        rows = _row_index(n)
        picked = shifted[rows, idx]  # (N,) gather before exp clobbers it
        np.exp(shifted, out=shifted)
        denom = shifted.sum(axis=1, keepdims=True)
        p = shifted
        p /= denom  # softmax, saved for backward
        # -mean(logp[y]) = (sum(log denom) - sum(shifted[y])) / n, all
        # pre-exp quantities, so no log-of-underflowed-softmax
        # instability.  denom is dead after the divide, so log lands in
        # it; .sum() skips the np.mean wrapper's per-call overhead.
        np.log(denom, out=denom)
        loss = float((denom.sum() - picked.sum()) / n)
    else:
        soft = labels.astype(zd.dtype, copy=False)
        denom = np.exp(shifted).sum(axis=1, keepdims=True)
        logp = shifted
        logp -= np.log(denom)
        loss = -float(np.sum(soft * logp)) / n
        p = np.exp(logp)  # saved for backward

    def backward(g: np.ndarray):
        # d loss / d z = (p - y) / n, computed in place on the saved
        # softmax buffer (this node is the graph root in training loops,
        # so the buffer is not referenced anywhere else afterwards).
        if labels.ndim == 1:
            p[rows, idx] -= 1.0
        else:
            # General soft labels: d(-sum(y*logp)/n)/dz = (p*sum_c(y) - y)/n;
            # the row sums collapse to 1 for proper one-hot/soft targets.
            np.multiply(p, soft.sum(axis=1, keepdims=True), out=p)
            np.subtract(p, soft, out=p)
        scale = np.asarray(g).reshape(()) / n
        np.multiply(p, scale, out=p)
        return (p,)

    return Tensor(
        np.asarray(loss, dtype=zd.dtype),
        requires_grad=logits.requires_grad,
        parents=(logits,),
        backward_fn=backward,
    )


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales at train time so eval is identity."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    keep = 1.0 - p
    dt = x.data.dtype
    # Draw uniforms directly in the input dtype (float32 inputs never touch
    # float64), then overwrite the same buffer with the scaled 0/(1/keep)
    # mask — one allocation total, reused again by backward.
    if dt == np.float64 or dt == np.float32:
        mask = rng.random(x.shape, dtype=dt)
    else:
        mask = rng.random(x.shape).astype(dt)
    kept = mask < keep
    np.multiply(kept, dt.type(1.0 / keep), out=mask)
    data = x.data * mask

    def backward(g: np.ndarray):
        return (g * mask,)

    return x._unary_out(data, backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup: out[i] = weight[indices[i]]."""
    indices = np.asarray(indices)
    data = weight.data[indices]
    vocab, dim = weight.shape

    def backward(g: np.ndarray):
        grad = np.zeros((vocab, dim), dtype=g.dtype)
        np.add.at(grad, indices.reshape(-1), g.reshape(-1, dim))
        return (grad,)

    return weight._unary_out(data, backward)


# ----------------------------------------------------------------------
# 1-D convolution via im2col (the CANDLE NT3 workload is Conv1D-heavy)
# ----------------------------------------------------------------------
def _im2col_1d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """(N, C, L) -> (C*kernel, N*L_out) patch matrix ("kn" layout).

    The windowed view stays zero-copy until the reshape at the GEMM
    boundary; putting (C, K) on the rows keeps each copied run contiguous
    along L in the source, which is what makes the copy fast.
    """
    n, c, length = x.shape
    l_out = (length - kernel) // stride + 1
    # (N, C, L_out_full, K) view; subsample for stride, then move (C, K)
    # to the front.  Only the final reshape copies.
    win = sliding_window_view(x, kernel, axis=2)
    if stride > 1:
        win = win[:, :, ::stride]
    return win.transpose(1, 3, 0, 2).reshape(c * kernel, n * l_out)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    activation: Optional[str] = None,
) -> Tensor:
    """1-D convolution, optionally fused with a relu/tanh epilogue.

    Shapes: x (N, C_in, L), weight (C_out, C_in, K), bias (C_out,).
    Returns (N, C_out, L_out) with L_out = (L + 2*padding - K)//stride + 1.
    """
    act = _fused_act(activation)
    ac = _amp.active()
    xd_src = x.data if ac is None else ac.cast_in(x.data)
    wd_src = weight.data if ac is None else ac.cast_in(weight.data)
    xd_pad = _pad_nd(xd_src, padding, 1)
    n, c_in, length = xd_pad.shape
    c_out, c_in_w, k = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv1d channel mismatch: input {c_in} vs weight {c_in_w}")
    l_out = (length - k) // stride + 1
    if l_out <= 0:
        raise ValueError(f"conv1d output length {l_out} <= 0 (L={length}, K={k})")

    cols = _im2col_1d(xd_pad, k, stride)  # (C_in*K, N*L_out), cached for backward
    w2 = wd_src.reshape(c_out, c_in * k)
    out2d = w2 @ cols  # (C_out, N*L_out) — one GEMM (fp32 accumulate under amp)
    if bias is not None:
        out2d += bias.data[:, None] if ac is None else ac.to_compute(bias.data)[:, None]
    if act is not None:
        act[0](out2d)
    if ac is not None:
        out2d = ac.snap_out(out2d)  # narrow storage
    out = out2d.reshape(c_out, n, l_out).transpose(1, 0, 2)  # view

    x_shape, need_x = x.shape, x.requires_grad

    def backward(g: np.ndarray):
        if ac is not None:
            g = ac.to_compute(g)
        if act is not None:
            g = act[1](out if ac is None else ac.to_compute(out), g)
        g2d = g.transpose(1, 0, 2).reshape(c_out, n * l_out)  # copy once
        grad_w = (g2d @ cols.T).reshape(c_out, c_in, k)
        grad_b = g.sum(axis=(0, 2)) if bias is not None else None
        if not need_x:  # input grad GEMM + scatter would be discarded
            return (None, grad_w, grad_b)
        grad_cols = (w2.T @ g2d).reshape(c_in, k, n, l_out)
        grad_x_pad = np.zeros((n, c_in, length), dtype=g.dtype)
        # One strided slice += per kernel tap: within a tap the target
        # indices kk + stride*[0, l_out) are distinct, so no np.add.at.
        span = (l_out - 1) * stride + 1
        for kk in range(k):
            grad_x_pad[:, :, kk : kk + span : stride] += grad_cols[:, kk].transpose(1, 0, 2)
        grad_x = grad_x_pad[:, :, padding : length - padding] if padding > 0 else grad_x_pad
        if ac is not None:
            grad_x = ac.snap(grad_x)  # activation grads narrow; w/b stay fp32
        return (grad_x.reshape(x_shape), grad_w, grad_b)

    parents = (x, weight) if bias is None else (x, weight, bias)
    req = any(p.requires_grad for p in parents)
    return Tensor(out, requires_grad=req, parents=parents, backward_fn=backward)


def maxpool1d(x: Tensor, pool: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over the last axis of (N, C, L)."""
    stride = stride or pool
    xd = x.data
    n, c, length = xd.shape
    l_out = (length - pool) // stride + 1
    s_n, s_c, s_l = xd.strides
    windows = np.lib.stride_tricks.as_strided(
        xd,
        shape=(n, c, l_out, pool),
        strides=(s_n, s_c, s_l * stride, s_l),
        writeable=False,
    )
    out = windows.max(axis=3)
    arg = windows.argmax(axis=3)  # (N, C, L_out)

    def backward(g: np.ndarray):
        # np.zeros (not zeros_like): xd may be a non-contiguous view from
        # an upstream op, and the flat scatter below needs the reshape to
        # be a view, which only a C-contiguous buffer guarantees.
        grad = np.zeros(xd.shape, dtype=xd.dtype)
        pos = arg + np.arange(l_out)[None, None, :] * stride  # absolute index into L
        g2 = grad.reshape(n * c, length)
        rows = np.arange(n * c)[:, None]
        if stride >= pool:
            # Disjoint windows: every (row, pos) target is unique, so a
            # plain fancy-index assignment works — no np.add.at scatter.
            g2[rows, pos.reshape(n * c, l_out)] = g.reshape(n * c, l_out)
        else:
            np.add.at(g2, (rows, pos.reshape(n * c, l_out)), g.reshape(n * c, l_out))
        return (grad,)

    return x._unary_out(out, backward)


def avgpool1d(x: Tensor, pool: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over the last axis of (N, C, L)."""
    stride = stride or pool
    xd = x.data
    n, c, length = xd.shape
    l_out = (length - pool) // stride + 1
    s_n, s_c, s_l = xd.strides
    windows = np.lib.stride_tricks.as_strided(
        xd,
        shape=(n, c, l_out, pool),
        strides=(s_n, s_c, s_l * stride, s_l),
        writeable=False,
    )
    out = windows.mean(axis=3)

    def backward(g: np.ndarray):
        grad = np.zeros_like(xd)
        share = g / pool
        # Strided slice += per tap — indices within a tap never collide.
        span = (l_out - 1) * stride + 1
        for kk in range(pool):
            grad[:, :, kk : kk + span : stride] += share
        return (grad,)

    return x._unary_out(out, backward)


def global_avgpool1d(x: Tensor) -> Tensor:
    """Mean over the length axis of (N, C, L) -> (N, C)."""
    return x.mean(axis=2)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float = 0.1,
    eps: float = 1e-5,
    training: bool = True,
    axis: Tuple[int, ...] = (0,),
) -> Tensor:
    """Batch normalization over ``axis`` (the reduction axes).

    For (N, F) inputs use axis=(0,); for (N, C, L) use axis=(0, 2).
    Running stats are updated in place when training.
    """
    xd = x.data
    if training:
        mean = xd.mean(axis=axis, keepdims=True)
        var = xd.var(axis=axis, keepdims=True)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.squeeze()
        running_var *= 1.0 - momentum
        running_var += momentum * var.squeeze()
    else:
        shape = [1] * xd.ndim
        feat_axes = [i for i in range(xd.ndim) if i not in axis]
        for i, a in enumerate(feat_axes):
            shape[a] = -1 if i == 0 else shape[a]
        # Reshape running stats to broadcast against x.
        bshape = [1] * xd.ndim
        for a in range(xd.ndim):
            if a not in axis:
                bshape[a] = xd.shape[a]
        mean = running_mean.reshape(bshape)
        var = running_var.reshape(bshape)

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (xd - mean) * inv_std

    bshape = [1] * xd.ndim
    for a in range(xd.ndim):
        if a not in axis:
            bshape[a] = xd.shape[a]
    gamma_b = gamma.data.reshape(bshape)
    out = x_hat * gamma_b + beta.data.reshape(bshape)

    m = 1
    for a in axis:
        m *= xd.shape[a]

    def backward(g: np.ndarray):
        grad_beta = g.sum(axis=axis).reshape(beta.shape)
        grad_gamma = (g * x_hat).sum(axis=axis).reshape(gamma.shape)
        if training:
            gxh = g * gamma_b
            grad_x = (
                inv_std
                / m
                * (m * gxh - gxh.sum(axis=axis, keepdims=True) - x_hat * (gxh * x_hat).sum(axis=axis, keepdims=True))
            )
        else:
            grad_x = g * gamma_b * inv_std
        return (grad_x, grad_gamma, grad_beta)

    req = x.requires_grad or gamma.requires_grad or beta.requires_grad
    return Tensor(out, requires_grad=req, parents=(x, gamma, beta), backward_fn=backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis."""
    xd = x.data
    mean = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (xd - mean) * inv_std
    out = x_hat * gamma.data + beta.data
    d = xd.shape[-1]

    def backward(g: np.ndarray):
        grad_beta = unbroadcast(g, beta.shape)
        grad_gamma = unbroadcast(g * x_hat, gamma.shape)
        gxh = g * gamma.data
        grad_x = (
            inv_std
            / d
            * (d * gxh - gxh.sum(axis=-1, keepdims=True) - x_hat * (gxh * x_hat).sum(axis=-1, keepdims=True))
        )
        return (grad_x, grad_gamma, grad_beta)

    req = x.requires_grad or gamma.requires_grad or beta.requires_grad
    return Tensor(out, requires_grad=req, parents=(x, gamma, beta), backward_fn=backward)


# ----------------------------------------------------------------------
# 2-D convolution (tumor-imaging workloads) via im2col
# ----------------------------------------------------------------------
def _im2col_2d(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(N, C, H, W) -> (C*kh*kw, N*H_out*W_out) patch matrix ("kn" layout).

    Same contract as :func:`_im2col_1d`: zero-copy window view, one copy at
    the reshape, rows ordered (C, KH, KW) to match ``weight.reshape``.
    """
    n, c, h, w = x.shape
    h_out = (h - kh) // stride + 1
    w_out = (w - kw) // stride + 1
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))  # (N, C, Ho_f, Wo_f, kh, kw)
    if stride > 1:
        win = win[:, :, ::stride, ::stride]
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n * h_out * w_out)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    activation: Optional[str] = None,
) -> Tensor:
    """2-D convolution, optionally fused with a relu/tanh epilogue.

    Shapes: x (N, C_in, H, W), weight (C_out, C_in, KH, KW), bias (C_out,).
    Returns (N, C_out, H_out, W_out).
    """
    act = _fused_act(activation)
    ac = _amp.active()
    xd_src = x.data if ac is None else ac.cast_in(x.data)
    wd_src = weight.data if ac is None else ac.cast_in(weight.data)
    xd_pad = _pad_nd(xd_src, padding, 2)
    n, c_in, h, w = xd_pad.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input {c_in} vs weight {c_in_w}")
    h_out = (h - kh) // stride + 1
    w_out = (w - kw) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ValueError(f"conv2d output {h_out}x{w_out} <= 0 (input {h}x{w}, kernel {kh}x{kw})")

    cols = _im2col_2d(xd_pad, kh, kw, stride)  # (C*kh*kw, N*Ho*Wo), cached for backward
    w2 = wd_src.reshape(c_out, c_in * kh * kw)
    out2d = w2 @ cols  # (C_out, N*Ho*Wo) — one GEMM (fp32 accumulate under amp)
    if bias is not None:
        out2d += bias.data[:, None] if ac is None else ac.to_compute(bias.data)[:, None]
    if act is not None:
        act[0](out2d)
    if ac is not None:
        out2d = ac.snap_out(out2d)  # narrow storage
    out = out2d.reshape(c_out, n, h_out, w_out).transpose(1, 0, 2, 3)  # view

    x_shape, need_x = x.shape, x.requires_grad

    def backward(g: np.ndarray):
        if ac is not None:
            g = ac.to_compute(g)
        if act is not None:
            g = act[1](out if ac is None else ac.to_compute(out), g)
        g2d = g.transpose(1, 0, 2, 3).reshape(c_out, n * h_out * w_out)  # copy once
        grad_w = (g2d @ cols.T).reshape(c_out, c_in, kh, kw)
        grad_b = g.sum(axis=(0, 2, 3)) if bias is not None else None
        if not need_x:  # input grad GEMM + scatter would be discarded
            return (None, grad_w, grad_b)
        grad_cols = (w2.T @ g2d).reshape(c_in, kh, kw, n, h_out, w_out)
        grad_x_pad = np.zeros((n, c_in, h, w), dtype=g.dtype)
        # One strided slice += per kernel tap; stride-uniform targets
        # within a tap never collide, so no np.add.at scatter.
        h_span = (h_out - 1) * stride + 1
        w_span = (w_out - 1) * stride + 1
        for dh in range(kh):
            for dw in range(kw):
                grad_x_pad[
                    :, :, dh : dh + h_span : stride, dw : dw + w_span : stride
                ] += grad_cols[:, dh, dw].transpose(1, 0, 2, 3)
        if padding > 0:
            grad_x = grad_x_pad[:, :, padding : h - padding, padding : w - padding]
        else:
            grad_x = grad_x_pad
        if ac is not None:
            grad_x = ac.snap(grad_x)  # activation grads narrow; w/b stay fp32
        return (grad_x.reshape(x_shape), grad_w, grad_b)

    parents = (x, weight) if bias is None else (x, weight, bias)
    req = any(p.requires_grad for p in parents)
    return Tensor(out, requires_grad=req, parents=parents, backward_fn=backward)


def maxpool2d(x: Tensor, pool: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over the last two axes of (N, C, H, W)."""
    stride = stride or pool
    xd = x.data
    n, c, h, w = xd.shape
    h_out = (h - pool) // stride + 1
    w_out = (w - pool) // stride + 1
    s_n, s_c, s_h, s_w = xd.strides
    windows = np.lib.stride_tricks.as_strided(
        xd,
        shape=(n, c, h_out, w_out, pool, pool),
        strides=(s_n, s_c, s_h * stride, s_w * stride, s_h, s_w),
        writeable=False,
    )
    flat = windows.reshape(n, c, h_out, w_out, pool * pool)
    out = flat.max(axis=4)
    arg = flat.argmax(axis=4)  # flat index within the window

    def backward(g: np.ndarray):
        # C-contiguous zeros so the flat reshape below is a view (xd may
        # be a non-contiguous transpose from conv2d).
        grad = np.zeros(xd.shape, dtype=xd.dtype)
        dh, dw = np.divmod(arg, pool)
        hh = dh + np.arange(h_out)[None, None, :, None] * stride
        ww = dw + np.arange(w_out)[None, None, None, :] * stride
        # Flatten (H, W) so the scatter is a single 2-D fancy index.
        pos = (hh * w + ww).reshape(n * c, h_out * w_out)
        g2 = grad.reshape(n * c, h * w)
        rows = np.arange(n * c)[:, None]
        if stride >= pool:
            # Disjoint windows: unique targets, plain assignment suffices.
            g2[rows, pos] = g.reshape(n * c, h_out * w_out)
        else:
            np.add.at(g2, (rows, pos), g.reshape(n * c, h_out * w_out))
        return (grad,)

    return x._unary_out(out, backward)


def global_avgpool2d(x: Tensor) -> Tensor:
    """Mean over (H, W) of (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Op-level instrumentation (see repro.perf)
# ----------------------------------------------------------------------
# Wrap the public ops so an attached OpProfiler sees every call.  With no
# profiler active the wrapper is one global read + branch.  This runs at
# the end of module init, so layers.py (imported after us) binds the
# instrumented functions.
from ..perf.hooks import instrument as _instrument  # noqa: E402

_INSTRUMENTED_OPS = (
    "relu", "tanh", "sigmoid", "leaky_relu", "elu", "gelu", "softplus",
    "softmax", "log_softmax", "logsumexp",
    "linear", "linear_act", "softmax_cross_entropy",
    "dropout", "embedding", "batch_norm", "layer_norm",
    "conv1d", "conv2d",
    "maxpool1d", "avgpool1d", "maxpool2d",
)
for _name in _INSTRUMENTED_OPS:
    globals()[_name] = _instrument(_name, globals()[_name])
del _name
