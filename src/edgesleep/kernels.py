"""Deterministic numeric kernels for every layer type the network uses.

Each kernel has a forward evaluation and a matching analytic gradient;
no autodiff framework is involved.  All kernels are pure functions over
numpy arrays and preserve the caller's dtype: float32 in training and on
inference paths, float64 where a caller passes float64 parameters (the
finite-difference gradient checks).  Outputs are checked finite: a NaN/Inf
is a hard error (NonFiniteError, naming the kernel), never propagated.
Shapes are the caller's contract and are not checked here: the network's
tensor shapes are fixed by model.expected_shapes, which every model file
is checked against when it is read.

Shape convention: activations are ``[..., L, C]`` -- any number of leading
batch axes, then positions, then channels.  Every kernel treats the
leading axes as independent rows, and every parameter gradient is summed
over them.

Row contract: each forward kernel computes a row with the same operations
on the same shapes whatever the leading axes hold -- products are stacked
matmuls (one BLAS call per row, never one call over rows folded together),
reductions run over the last axis -- so a forward call on ``[N, L, C]``
equals N stacked single calls bit for bit, for any N and either dtype.
The backward kernels fold the rows into one product wherever a product
spans them: every parameter gradient, the input gradients of dense and
conv1d, and attention's d_ctx and input gradient (_fold_matmul).  BLAS
may order a dot product differently for a different GEMM shape, so a
backward call equals stacked single calls only up to floating-point
summation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LAYER_NORM_EPS = 1e-5


class NonFiniteError(ValueError):
    """A kernel produced NaN or Inf."""


def _finite(out: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    return out


def _rows(a: np.ndarray) -> np.ndarray:
    """Fold every leading axis into one: [..., C] -> [M, C]."""
    return a.reshape(-1, a.shape[-1])


def _fold_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w as one GEMM over every row of a: [..., N] @ [N, M] -> [..., M]."""
    return (_rows(a) @ w).reshape(*a.shape[:-1], w.shape[1])


def _im2col(x: np.ndarray, K: int, stride: int) -> np.ndarray:
    """Unroll the conv windows of x: [..., L, Cin] -> contiguous [..., Lout, K*Cin].

    Window t of each leading row is laid out k-major, so that it lines up
    with w.reshape(K*Cin, Cout).  In a C-ordered x that window is the K*Cin
    consecutive values from row t*stride on, so the matrix is one strided
    view over x and one copy of it.  It equals, bit for bit, the copy of
    sliding_window_view(x, K, axis=-2)[..., ::stride, :, :].swapaxes(-1, -2).
    The two inner strides come from Cin and the item size, never from
    x.strides: numpy may give a length-1 axis (x[..., None]) stride 0.
    """
    x = np.ascontiguousarray(x)
    *lead, L, cin = x.shape
    shape = (*lead, (L - K) // stride + 1, K * cin)
    strides = (*x.strides[:-2], stride * cin * x.itemsize, x.itemsize)
    return np.ndarray(shape, x.dtype, x, 0, strides).copy()


def conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1) -> np.ndarray:
    """Valid (unpadded) 1-D convolution as one GEMM per row over unrolled windows.

    x: [..., L, Cin], w: [K, Cin, Cout], b: [Cout] -> [..., Lout, Cout] with
    Lout = floor((L - K) / stride) + 1 and
    out[t, co] = b[co] + sum_{k, ci} x[t*stride + k, ci] * w[k, ci, co].
    The caller keeps L >= K and stride >= 1 (model.expected_shapes).
    """
    K, cin, cout = w.shape
    out = _im2col(x, K, stride) @ w.reshape(K * cin, cout)
    out += b
    return _finite(out, "conv1d")


def conv1d_backward(
    x: np.ndarray, w: np.ndarray, stride: int, grad_out: np.ndarray, need_dx: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of conv1d w.r.t. input, weights, and bias.

    The weight and bias gradients sum over every leading axis, as one GEMM
    over the windows of all rows.  With need_dx=False the input gradient
    is not computed and comes back None.

    The input gradient groups the taps in blocks of `stride` consecutive
    ones (B = ceil(K / stride), the last block possibly shorter).  Tap
    k = b*stride + j of window t lands on input position (t + b)*stride + j,
    so block b's products for every window, one GEMM [rows, Cout] @ [Cout,
    taps*Cin], add as one slice in runs of taps*Cin contiguous values at
    group offset b of a zeroed [..., groups, stride*Cin] buffer; the buffer
    reshapes to [..., groups*stride, Cin] and is cut to L (a view when
    groups*stride > L).  A position takes at most one tap per block, so its
    taps add in increasing k, as in a per-tap strided scatter, and the
    products equal per-tap GEMMs' bit for bit wherever BLAS orders a dot
    product the same for both GEMM shapes.
    """
    K, cin, cout = w.shape
    g = _rows(grad_out)
    dw = (_rows(_im2col(x, K, stride)).T @ g).reshape(w.shape)
    db = g.sum(axis=0)
    if not need_dx:
        return None, dw, db
    *lead, L, _ = x.shape
    lout = grad_out.shape[-2]
    blocks = -(-K // stride)
    groups = max(lout + blocks - 1, -(-L // stride))
    dx = np.zeros((*lead, groups, stride * cin), x.dtype)
    for b in range(blocks):
        taps = w[b * stride : (b + 1) * stride]
        n = len(taps) * cin
        dx[..., b : b + lout, :n] += (g @ taps.reshape(n, cout).T).reshape(*lead, lout, n)
    return dx.reshape(*lead, groups * stride, cin)[..., :L, :], dw, db


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map x @ w + b over the last axis of x: [..., N] @ [N, M] + [M] -> [..., M]."""
    return _finite(x @ w + b, "dense")


def dense_backward(
    x: np.ndarray, w: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g = _rows(grad_out)
    return _fold_matmul(grad_out, w.T), _rows(x).T @ g, g.sum(axis=0)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(y: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out masked to where the ReLU passed its input; y may be the
    ReLU's output or its input, since relu(z) > 0 exactly where z > 0."""
    return grad_out * (y > 0)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-stable softmax over the last axis; invariant under constant shifts."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return _finite(e / e.sum(axis=-1, keepdims=True), "softmax")


def softmax_backward(probs: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    inner = (grad_out * probs).sum(axis=-1, keepdims=True)
    return probs * (grad_out - inner)


def _centred(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x - x.mean(-1, keepdims=True), x.var(-1, keepdims=True)) bit for bit,
    with the mean and variance taken once in numpy's own steps
    (numpy._core._methods._mean and _var: one add.reduce, then a
    true_divide by the intp count)."""
    count = np.intp(x.shape[-1])
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    np.true_divide(mu, count, out=mu, casting="unsafe")
    xc = x - mu
    var = np.add.reduce(np.square(xc), axis=-1, keepdims=True)
    np.true_divide(var, count, out=var, casting="unsafe")
    return xc, var


def layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per-position normalization of [..., T, D] over the D axis, then affine.

    Bit for bit (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1,
    keepdims=True) + LAYER_NORM_EPS) * gain + shift: x is centred once
    (_centred) and the rest runs in place.
    """
    xhat, var = _centred(x)
    var += LAYER_NORM_EPS
    xhat /= np.sqrt(var, out=var)
    xhat *= gain
    xhat += shift
    return _finite(xhat, "layer_norm")


def layer_norm_backward(
    x: np.ndarray, gain: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xc, var = _centred(x)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv_std
    dgain = _rows(grad_out * xhat).sum(axis=0)
    dshift = _rows(grad_out).sum(axis=0)
    dxhat = grad_out * gain
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgain, dshift


@dataclass
class AttentionCache:
    """Intermediates of one attention evaluation, kept for backprop."""

    x: np.ndarray
    q_h: np.ndarray  # [..., h, T, dh]
    k_h: np.ndarray
    v_h: np.ndarray
    attn: np.ndarray  # [..., h, T, T], rows sum to 1
    ctx: np.ndarray  # [..., T, D], heads re-merged, before output projection


def _split_heads(z: np.ndarray, heads: int) -> np.ndarray:
    """[..., T, D] -> [..., h, T, D/h]."""
    return z.reshape(*z.shape[:-1], heads, z.shape[-1] // heads).swapaxes(-3, -2)


def _merge_heads(z: np.ndarray) -> np.ndarray:
    """[..., h, T, dh] -> [..., T, h*dh]."""
    *lead, h, T, dh = z.shape
    return z.swapaxes(-3, -2).reshape(*lead, T, h * dh)


def multi_head_attention_with_cache(
    x: np.ndarray,
    wq: np.ndarray,
    bq: np.ndarray,
    wk: np.ndarray,
    bk: np.ndarray,
    wv: np.ndarray,
    bv: np.ndarray,
    wo: np.ndarray,
    bo: np.ndarray,
    heads: int,
) -> tuple[np.ndarray, AttentionCache]:
    """Scaled dot-product self-attention over x: [..., T, D]; the caller keeps
    D divisible by heads (ArchConfig rounds every width to a multiple)."""
    dh = x.shape[-1] // heads
    q_h = _split_heads(x @ wq + bq, heads)
    k_h = _split_heads(x @ wk + bk, heads)
    v_h = _split_heads(x @ wv + bv, heads)
    scores = q_h @ k_h.swapaxes(-1, -2) / np.sqrt(np.asarray(dh, dtype=x.dtype))
    attn = softmax(scores)
    ctx = _merge_heads(attn @ v_h)
    out = _finite(ctx @ wo + bo, "attention")
    return out, AttentionCache(x=x, q_h=q_h, k_h=k_h, v_h=v_h, attn=attn, ctx=ctx)


def multi_head_attention_backward(
    cache: AttentionCache,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    wo: np.ndarray,
    grad_out: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Returns (dx, grads) with grads keyed wq/bq/wk/bk/wv/bv/wo/bo; the
    parameter gradients sum over every leading axis of x."""
    x, attn = cache.x, cache.attn
    heads, _, dh = cache.q_h.shape[-3:]
    scale = 1.0 / np.sqrt(np.asarray(dh, dtype=x.dtype))

    d_ctx = _fold_matmul(grad_out, wo.T)
    g = _rows(grad_out)
    dwo = _rows(cache.ctx).T @ g
    dbo = g.sum(axis=0)

    d_ctx_h = _split_heads(d_ctx, heads)
    d_attn = d_ctx_h @ cache.v_h.swapaxes(-1, -2)
    d_v_h = attn.swapaxes(-1, -2) @ d_ctx_h
    d_scores = softmax_backward(attn, d_attn)
    d_q_h = d_scores @ cache.k_h * scale
    d_k_h = d_scores.swapaxes(-1, -2) @ cache.q_h * scale

    dq = _merge_heads(d_q_h)
    dk = _merge_heads(d_k_h)
    dv = _merge_heads(d_v_h)
    x2 = _rows(x)
    grads = {
        "wq": x2.T @ _rows(dq),
        "bq": _rows(dq).sum(axis=0),
        "wk": x2.T @ _rows(dk),
        # softmax is shift-invariant along each query's row, so a key bias
        # never changes the output: its gradient is exactly zero (summing dk
        # gives only rounding noise, which Adam would turn into steps)
        "bk": np.zeros(wk.shape[1], x.dtype),
        "wv": x2.T @ _rows(dv),
        "bv": _rows(dv).sum(axis=0),
        "wo": dwo,
        "bo": dbo,
    }
    dx = _fold_matmul(dq, wq.T)
    dx += _fold_matmul(dk, wk.T)
    dx += _fold_matmul(dv, wv.T)
    return dx, grads
