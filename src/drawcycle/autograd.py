"""Tape-based reverse-mode automatic differentiation on float64 numpy arrays.

A ``Tape`` records every differentiable operation executed while it is
active (define-by-run).  ``backward`` replays the recorded nodes in reverse
order and accumulates exact gradients into every tensor that requires them.
Parameters live outside the tape and persist across steps; the tape itself
is rebuilt every training step.

All data is float64.  Convolution is cross-correlation (no kernel flip).
"""

import numpy as np


class Tape:
    """Ordered record of executed operations; replaying it reversed
    computes reverse-mode gradients."""

    _active = None

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def record(self, output, backward_fn):
        output.node_id = len(self._nodes)
        self._nodes.append((output, backward_fn))

    def clear(self):
        self._nodes.clear()

    def __enter__(self):
        self._prev = Tape._active
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape._active = self._prev
        return False


class Tensor:
    """Dense n-dimensional float64 value with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "node_id")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.node_id = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape, self.requires_grad)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def accumulate_grad(tensor, g):
    """Add ``g`` into ``tensor.grad``, reducing broadcast axes if needed."""
    if not tensor.requires_grad:
        return
    g = np.asarray(g, dtype=np.float64)
    if g.shape != tensor.data.shape:
        g = np.sum(g).reshape(tensor.data.shape) if tensor.data.size == 1 else g.reshape(tensor.data.shape)
    if tensor.grad is None:
        tensor.grad = np.zeros_like(tensor.data)
    tensor.grad += g


def from_op(out, inputs, backward_fn):
    """Finalize an op result: mark it differentiable and record it on the
    active tape when any input requires gradients."""
    tape = Tape._active
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, backward_fn)
    return out


def _check_ew_shapes(a, b):
    if a.data.shape == b.data.shape:
        return
    if a.data.size == 1 or b.data.size == 1:
        return
    raise ValueError(
        "elementwise shapes %s and %s are not broadcastable" % (a.data.shape, b.data.shape)
    )


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_ew_shapes(a, b)
    out = Tensor(a.data + b.data)

    def bwd(g):
        accumulate_grad(a, g)
        accumulate_grad(b, g)

    return from_op(out, (a, b), bwd)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_ew_shapes(a, b)
    out = Tensor(a.data - b.data)

    def bwd(g):
        accumulate_grad(a, g)
        accumulate_grad(b, -g)

    return from_op(out, (a, b), bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_ew_shapes(a, b)
    out = Tensor(a.data * b.data)

    def bwd(g):
        accumulate_grad(a, g * b.data)
        accumulate_grad(b, g * a.data)

    return from_op(out, (a, b), bwd)


def neg(a):
    a = _as_tensor(a)
    out = Tensor(-a.data)

    def bwd(g):
        accumulate_grad(a, -g)

    return from_op(out, (a,), bwd)


def abs_(a):
    a = _as_tensor(a)
    out = Tensor(np.abs(a.data))
    sign = np.sign(a.data)  # subgradient 0 at exactly 0

    def bwd(g):
        accumulate_grad(a, g * sign)

    return from_op(out, (a,), bwd)


def log(a):
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        raise ValueError("log requires strictly positive inputs")
    out = Tensor(np.log(a.data))

    def bwd(g):
        accumulate_grad(a, g / a.data)

    return from_op(out, (a,), bwd)


def tanh(a):
    a = _as_tensor(a)
    t = np.tanh(a.data)
    out = Tensor(t)

    def bwd(g):
        accumulate_grad(a, g * (1.0 - t * t))

    return from_op(out, (a,), bwd)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    a = _as_tensor(a)
    s = _sigmoid(a.data)
    out = Tensor(s)

    def bwd(g):
        accumulate_grad(a, g * s * (1.0 - s))

    return from_op(out, (a,), bwd)


def softplus(a):
    """Numerically stable ln(1 + e^x); backs every log-sigmoid loss."""
    a = _as_tensor(a)
    x = a.data
    out = Tensor(np.where(x > 0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0.0)))))
    s = _sigmoid(x)

    def bwd(g):
        accumulate_grad(a, g * s)

    return from_op(out, (a,), bwd)


# ---------------------------------------------------------------------------
# convolution kernels (im2col / col2im)

def _im2col_view(xpad, K, stride, Ho, Wo):
    B, C, Hp, Wp = xpad.shape
    sB, sC, sH, sW = xpad.strides
    shape = (B, C, K, K, Ho, Wo)
    strides = (sB, sC, sH, sW, sH * stride, sW * stride)
    return np.lib.stride_tricks.as_strided(xpad, shape=shape, strides=strides)


def _col2im(cols6, B, C, Hp, Wp, K, stride, Ho, Wo):
    xp = np.zeros((B, C, Hp, Wp))
    for i in range(K):
        for j in range(K):
            xp[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride] += cols6[:, :, i, j]
    return xp


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """Cross-correlation of a BCHW input with an OIKK kernel."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ValueError("conv2d expects BCHW input and OIKK weight")
    B, C, H, W = x.data.shape
    O, I, K, K2 = weight.data.shape
    if K != K2:
        raise ValueError("conv2d kernels must be square")
    if C != I:
        raise ValueError("conv2d channel mismatch: input %d vs weight %d" % (C, I))
    Ho = (H + 2 * padding - K) // stride + 1
    Wo = (W + 2 * padding - K) // stride + 1
    if Ho < 1 or Wo < 1 or H + 2 * padding < K or W + 2 * padding < K:
        raise ValueError("conv2d output extent is empty for input %s" % (x.data.shape,))
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.shape != (O,):
            raise ValueError("conv2d bias must have shape (O,)")

    xpad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.data
    cols = np.ascontiguousarray(_im2col_view(xpad, K, stride, Ho, Wo)).reshape(B, C * K * K, Ho * Wo)
    wm = weight.data.reshape(O, C * K * K)
    out_data = np.matmul(wm, cols).reshape(B, O, Ho, Wo)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, O, 1, 1)
    out = Tensor(out_data)

    inputs = (x, weight) if bias is None else (x, weight, bias)

    def bwd(g):
        gm = g.reshape(B, O, Ho * Wo)
        if weight.requires_grad:
            gw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0)
            accumulate_grad(weight, gw.reshape(O, I, K, K))
        if x.requires_grad:
            gcols = np.matmul(wm.T, gm).reshape(B, C, K, K, Ho, Wo)
            gxp = _col2im(gcols, B, C, H + 2 * padding, W + 2 * padding, K, stride, Ho, Wo)
            gx = gxp[:, :, padding:padding + H, padding:padding + W] if padding else gxp
            accumulate_grad(x, gx)
        if bias is not None and bias.requires_grad:
            accumulate_grad(bias, g.sum(axis=(0, 2, 3)))

    return from_op(out, inputs, bwd)


def conv_transpose2d(x, weight, bias=None, stride=1, padding=0):
    """Fractionally-strided convolution; the adjoint of conv2d with the
    same OIKK weight (maps O channels back to I channels)."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ValueError("conv_transpose2d expects BCHW input and OIKK weight")
    B, O, Ho, Wo = x.data.shape
    O2, I, K, K2 = weight.data.shape
    if K != K2:
        raise ValueError("conv_transpose2d kernels must be square")
    if O != O2:
        raise ValueError("conv_transpose2d channel mismatch: input %d vs weight %d" % (O, O2))
    H = (Ho - 1) * stride - 2 * padding + K
    W = (Wo - 1) * stride - 2 * padding + K
    if H < 1 or W < 1:
        raise ValueError("conv_transpose2d output extent is empty")
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.shape != (I,):
            raise ValueError("conv_transpose2d bias must have shape (I,)")

    wm = weight.data.reshape(O, I * K * K)
    xm = x.data.reshape(B, O, Ho * Wo)
    cols6 = np.matmul(wm.T, xm).reshape(B, I, K, K, Ho, Wo)
    outp = _col2im(cols6, B, I, H + 2 * padding, W + 2 * padding, K, stride, Ho, Wo)
    out_data = outp[:, :, padding:padding + H, padding:padding + W] if padding else outp
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, I, 1, 1)
    out = Tensor(np.ascontiguousarray(out_data))

    inputs = (x, weight) if bias is None else (x, weight, bias)

    def bwd(g):
        gpad = np.pad(g, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else g
        gcols = np.ascontiguousarray(_im2col_view(gpad, K, stride, Ho, Wo)).reshape(B, I * K * K, Ho * Wo)
        if x.requires_grad:
            gx = np.matmul(wm, gcols).reshape(B, O, Ho, Wo)
            accumulate_grad(x, gx)
        if weight.requires_grad:
            gw = np.matmul(xm, gcols.transpose(0, 2, 1)).sum(axis=0)
            accumulate_grad(weight, gw.reshape(O, I, K, K))
        if bias is not None and bias.requires_grad:
            accumulate_grad(bias, g.sum(axis=(0, 2, 3)))

    return from_op(out, inputs, bwd)


def reflect_pad(x, pad):
    """Mirror-pad the two spatial axes of a BCHW tensor."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError("reflect_pad expects a BCHW tensor")
    B, C, H, W = x.data.shape
    if pad < 0 or (pad > 0 and pad >= min(H, W)):
        raise ValueError("reflect pad %d too large for extents (%d, %d)" % (pad, H, W))
    if pad == 0:
        out = Tensor(x.data.copy())

        def bwd0(g):
            accumulate_grad(x, g)

        return from_op(out, (x,), bwd0)

    out = Tensor(np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="reflect"))
    rowmap = np.abs(np.arange(-pad, H + pad))
    rowmap = np.where(rowmap >= H, 2 * (H - 1) - rowmap, rowmap)
    colmap = np.abs(np.arange(-pad, W + pad))
    colmap = np.where(colmap >= W, 2 * (W - 1) - colmap, colmap)

    def bwd(g):
        gx = np.zeros((B * C, H, W))
        np.add.at(
            gx,
            (np.arange(B * C)[:, None, None], rowmap[None, :, None], colmap[None, None, :]),
            g.reshape(B * C, H + 2 * pad, W + 2 * pad),
        )
        accumulate_grad(x, gx.reshape(B, C, H, W))

    return from_op(out, (x,), bwd)


def reduce(x, kind):
    """Full reduction to a scalar tensor; ``mean`` distributes 1/N backward."""
    x = _as_tensor(x)
    if x.data.size == 0:
        raise ValueError("cannot reduce an empty tensor")
    if kind == "mean":
        out = Tensor(np.mean(x.data))
        scale = 1.0 / x.data.size
    elif kind == "sum":
        out = Tensor(np.sum(x.data))
        scale = 1.0
    else:
        raise ValueError("unknown reduce kind %r" % (kind,))

    def bwd(g):
        accumulate_grad(x, np.full(x.data.shape, float(g) * scale))

    return from_op(out, (x,), bwd)


def mean(x):
    return reduce(x, "mean")


def sum_all(x):
    return reduce(x, "sum")


def backward(root, tape):
    """Seed the scalar ``root`` with a unit gradient and replay the tape
    in reverse, accumulating gradients into every reachable tensor."""
    if root.data.size != 1:
        raise ValueError("backward root must be a scalar tensor")
    if root.node_id is None:
        raise ValueError("backward root was not recorded on a tape")
    # A node's gradient is dropped as soon as its backward function has used
    # it, so a repeated call on the same tape accumulates into the leaves
    # without double-counting.
    root.grad = np.ones_like(root.data)
    for out, fn in reversed(tape._nodes):
        if out.grad is not None:
            g, out.grad = out.grad, None
            fn(g)


def zero_grad(params):
    """Zero every gradient buffer; parameter data is untouched."""
    for p in params:
        p.grad = np.zeros_like(p.data)
