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
# convolution kernels (im2col / col2im), shared by conv2d and its adjoint
# conv_transpose2d.  Names follow conv2d: image side (B, C, H, W), column side
# (B, O, Ho, Wo), weight (O, C, K, K).

def _conv_args(name, x, weight, bias, stride, padding, transpose):
    """Check a (transposed) convolution's arguments; returns the tensors and
    the extents (B, C, H, W, O, K, Ho, Wo)."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ValueError("%s expects BCHW input and OIKK weight" % name)
    B, cin, Hx, Wx = x.data.shape
    O, C, K, K2 = weight.data.shape
    if K != K2:
        raise ValueError("%s kernels must be square" % name)
    cw, cout = (O, C) if transpose else (C, O)
    if cin != cw:
        raise ValueError("%s channel mismatch: input %d vs weight %d" % (name, cin, cw))
    if transpose:
        Ho, Wo = Hx, Wx
        H, W = ((n - 1) * stride - 2 * padding + K for n in (Ho, Wo))
    else:
        H, W = Hx, Wx
        Ho, Wo = ((n + 2 * padding - K) // stride + 1 for n in (H, W))
    if min(H, W, Ho, Wo) < 1:
        raise ValueError("%s output extent is empty for input %s" % (name, x.data.shape))
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.shape != (cout,):
            raise ValueError("%s bias must have shape (%d,)" % (name, cout))
    return x, weight, bias, (B, C, H, W, O, K, Ho, Wo)


def _im2col(img, K, stride, padding, Ho, Wo):
    """Zero-pad a (B, C, H, W) image and gather its K x K patches as
    contiguous (B, C*K*K, Ho*Wo) columns."""
    xpad = np.pad(img, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else img
    B, C = xpad.shape[:2]
    sB, sC, sH, sW = xpad.strides
    view = np.lib.stride_tricks.as_strided(
        xpad, shape=(B, C, K, K, Ho, Wo), strides=(sB, sC, sH, sW, sH * stride, sW * stride))
    return np.ascontiguousarray(view).reshape(B, C * K * K, Ho * Wo)


def _col2im(cols, C, H, W, K, stride, padding, Ho, Wo):
    """Scatter-add (B, C*K*K, Ho*Wo) columns back onto the padded image and
    crop the padding: the adjoint of ``_im2col``."""
    B = cols.shape[0]
    cols6 = cols.reshape(B, C, K, K, Ho, Wo)
    xp = np.zeros((B, C, H + 2 * padding, W + 2 * padding))
    for i in range(K):
        for j in range(K):
            xp[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride] += cols6[:, :, i, j]
    return xp[:, :, padding:padding + H, padding:padding + W] if padding else xp


def _accumulate_weight_bias(weight, bias, gm, cols, g):
    """Weight gradient from column-side gradients ``gm`` (B, O, Ho*Wo) and
    image columns ``cols``; bias gradient from the output gradient ``g``."""
    if weight.requires_grad:
        gw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0)
        accumulate_grad(weight, gw.reshape(weight.data.shape))
    if bias is not None and bias.requires_grad:
        accumulate_grad(bias, g.sum(axis=(0, 2, 3)))


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """Cross-correlation of a BCHW input with an OIKK kernel."""
    x, weight, bias, (B, C, H, W, O, K, Ho, Wo) = _conv_args(
        "conv2d", x, weight, bias, stride, padding, transpose=False)
    cols = _im2col(x.data, K, stride, padding, Ho, Wo)
    wm = weight.data.reshape(O, C * K * K)
    out_data = np.matmul(wm, cols).reshape(B, O, Ho, Wo)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, O, 1, 1)
    out = Tensor(out_data)

    def bwd(g):
        gm = g.reshape(B, O, Ho * Wo)
        _accumulate_weight_bias(weight, bias, gm, cols, g)
        if x.requires_grad:
            if stride == 1 and padding < K and O <= C:
                # a stride-1 input gradient is the correlation of g, padded by
                # K-1-padding, with the flipped channel-swapped kernel: one GEMM
                # on g's columns, which hold O/C as much as col2im's
                wf = weight.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].reshape(C, O * K * K)
                gx = np.matmul(wf, _im2col(g, K, 1, K - 1 - padding, H, W)).reshape(B, C, H, W)
            else:
                gx = _col2im(np.matmul(wm.T, gm), C, H, W, K, stride, padding, Ho, Wo)
            accumulate_grad(x, gx)

    return from_op(out, (x, weight) if bias is None else (x, weight, bias), bwd)


def conv_transpose2d(x, weight, bias=None, stride=1, padding=0):
    """Fractionally-strided convolution; the adjoint of conv2d with the
    same OIKK weight (maps O channels back to I channels)."""
    x, weight, bias, (B, C, H, W, O, K, Ho, Wo) = _conv_args(
        "conv_transpose2d", x, weight, bias, stride, padding, transpose=True)
    wm = weight.data.reshape(O, C * K * K)
    xm = x.data.reshape(B, O, Ho * Wo)
    out_data = _col2im(np.matmul(wm.T, xm), C, H, W, K, stride, padding, Ho, Wo)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, C, 1, 1)
    out = Tensor(np.ascontiguousarray(out_data))

    def bwd(g):
        gcols = _im2col(g, K, stride, padding, Ho, Wo)
        if x.requires_grad:
            accumulate_grad(x, np.matmul(wm, gcols).reshape(B, O, Ho, Wo))
        _accumulate_weight_bias(weight, bias, xm, gcols, g)

    return from_op(out, (x, weight) if bias is None else (x, weight, bias), bwd)


def reflect_pad(x, pad):
    """Mirror-pad the two spatial axes of a BCHW tensor."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError("reflect_pad expects a BCHW tensor")
    H, W = x.data.shape[2:]
    if pad < 0 or (pad > 0 and pad >= min(H, W)):
        raise ValueError("reflect pad %d too large for extents (%d, %d)" % (pad, H, W))
    out = Tensor(np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="reflect"))

    def bwd(g):
        # fold each mirrored border back onto the row or column it copies:
        # padded index -i copies i, and index n-1+i copies n-1-i
        gc = g[:, :, :, pad:pad + W].copy()
        gc[:, :, :, 1:pad + 1] += g[:, :, :, :pad][:, :, :, ::-1]
        gc[:, :, :, W - 1 - pad:W - 1] += g[:, :, :, W + pad:][:, :, :, ::-1]
        gx = gc[:, :, pad:pad + H].copy()
        gx[:, :, 1:pad + 1] += gc[:, :, :pad][:, :, ::-1]
        gx[:, :, H - 1 - pad:H - 1] += gc[:, :, H + pad:][:, :, ::-1]
        accumulate_grad(x, gx)

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
