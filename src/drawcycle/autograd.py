"""Tape-based reverse-mode automatic differentiation on float64 numpy arrays.

A ``Tape`` records every differentiable operation executed while it is
active (define-by-run).  ``backward`` replays the recorded nodes in reverse
order and accumulates exact gradients into every tensor that requires them.
Parameters live outside the tape and persist across steps; the tape itself
is rebuilt every training step.

All data is float64.  Convolution is cross-correlation (no kernel flip).
"""

import math

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
        output.node = _Node(output.data.shape, len(self._nodes))
        self._nodes.append((output.node, backward_fn))

    def target(self, t):
        """Where a contribution to ``t``'s gradient goes on this tape: its
        node when ``t`` was recorded here since the last clear, else ``t``
        itself, as a leaf."""
        node = t.node
        if node is not None and node.index < len(self._nodes) and self._nodes[node.index][0] is node:
            return node
        return t

    def clear(self):
        self._nodes.clear()

    def __enter__(self):
        self._prev = Tape._active
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape._active = self._prev
        return False


class _Node:
    """A recorded output as backward sees it: its shape, the gradient
    accumulated for it and its place on the tape.  The tape and the ops
    that consume the output hold this, not the output ``Tensor``, so the
    output's values are freed as soon as no vjp reads them."""

    __slots__ = ("shape", "grad", "index")

    def __init__(self, shape, index):
        self.shape = shape
        self.grad = None
        self.index = index


class Tensor:
    """Dense n-dimensional float64 value with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.node = None  # its _Node once an op records it on a tape

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


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def accumulate_grad(target, g):
    """Add ``g`` into the gradient of ``target``, a tape node or a leaf
    ``Tensor``; ``g`` itself is stored when there is none yet, so the caller
    hands over an array that nothing else holds.  A size-1 target takes the
    sum of a broadcast ``g``; any other shape mismatch is a wrong vjp and
    raises."""
    g = np.asarray(g, dtype=np.float64)
    shape = target.shape
    if g.shape != shape:
        if math.prod(shape) != 1:
            raise ValueError("gradient of shape %s for a tensor of shape %s" % (g.shape, shape))
        g = np.sum(g).reshape(shape)
    if target.grad is None:
        target.grad = g
    else:
        target.grad += g


def from_op(out, *pairs):
    """Finalize an op result from its (input, vjp) pairs: ``vjp(g)`` is
    that input's share of the output gradient ``g``.  Inputs that are None
    or need no gradient are dropped.  If any is left and a tape is active,
    the result is marked differentiable and recorded with one backward that
    adds each remaining vjp into its input's gradient target, in order."""
    tape = Tape._active
    if tape is None:
        return out
    pairs = [(tape.target(t), vjp) for t, vjp in pairs if t is not None and t.requires_grad]
    if pairs:
        out.requires_grad = True

        def backward_fn(g):
            for target, vjp in pairs:
                r = vjp(g)
                # an identity vjp (add, sub) hands g itself to every input,
                # and a stored gradient is added into in place; any other
                # vjp returns a fresh array
                accumulate_grad(target, r.copy() if r is g else r)

        tape.record(out, backward_fn)
    return out


def _operands(a, b):
    """Both operands of a binary op as tensors, of one shape unless one of
    them has size 1."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ValueError("elementwise shapes %s and %s are not broadcastable" % (a.data.shape, b.data.shape))
    return a, b


def add(a, b):
    a, b = _operands(a, b)
    return from_op(Tensor(a.data + b.data), (a, lambda g: g), (b, lambda g: g))


def sub(a, b):
    a, b = _operands(a, b)
    return from_op(Tensor(a.data - b.data), (a, lambda g: g), (b, lambda g: -g))


def mul(a, b):
    a, b = _operands(a, b)
    return from_op(Tensor(a.data * b.data), (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def pointwise(a, value, local_grad):
    """Record an elementwise op of one input from its output ``value`` and
    its local derivative ``local_grad`` (an array of the input's shape, or a
    scalar): its vjp is ``g * local_grad``."""
    return from_op(Tensor(value), (a, lambda g: g * local_grad))


def neg(a):
    a = as_tensor(a)
    return pointwise(a, -a.data, -1.0)


def abs_(a):
    a = as_tensor(a)
    return pointwise(a, np.abs(a.data), np.sign(a.data))  # subgradient 0 at exactly 0


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise ValueError("log requires strictly positive inputs")
    return pointwise(a, np.log(a.data), 1.0 / a.data)


def tanh(a):
    a = as_tensor(a)
    t = np.tanh(a.data)
    return pointwise(a, t, 1.0 - t * t)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    a = as_tensor(a)
    s = _sigmoid(a.data)
    return pointwise(a, s, s * (1.0 - s))


def softplus(a):
    """Numerically stable ln(1 + e^x); backs every log-sigmoid loss."""
    a = as_tensor(a)
    x = a.data
    value = np.where(x > 0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0.0))))
    return pointwise(a, value, _sigmoid(x))


# ---------------------------------------------------------------------------
# convolution kernels on raw arrays.  Names follow conv2d: image side
# (B, C, H, W), column side (B, O, Ho, Wo), weight (O, C, K, K).  conv2d is
# _conv_forward, with vjps _conv_input_grad and _conv_weight_grad; its adjoint
# conv_transpose2d is _conv_input_grad, with vjps _conv_forward and
# _conv_weight_grad of the image and gradient swapped.
#
# A stride-1 conv builds its K*K-expanded intermediate on the side with
# fewer channels.  Forward and weight gradient: the image's columns when
# O >= C, shifted windows of the padded image when O < C (narrow).  Input
# gradient: g's columns when O <= C, col2im otherwise.

def _conv_args(name, x, weight, bias, stride, padding, transpose):
    """Check a (transposed) convolution's arguments; returns the tensors and
    the extents (B, C, H, W, O, K, Ho, Wo)."""
    x, weight = as_tensor(x), as_tensor(weight)
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
        bias = as_tensor(bias)
        if bias.data.shape != (cout,):
            raise ValueError("%s bias must have shape (%d,)" % (name, cout))
    return x, weight, bias, (B, C, H, W, O, K, Ho, Wo)


def _zero_pad(a, pad, right=0):
    """``a`` (B, C, H, W) with ``pad`` zero rows and columns on every side
    and ``right`` more zero columns on the right (``a`` itself when both
    are 0): the same array as ``np.pad``, without its per-call cost."""
    if not (pad or right):
        return a
    B, C, H, W = a.shape
    out = np.zeros((B, C, H + 2 * pad, W + 2 * pad + right))
    out[:, :, pad:pad + H, pad:pad + W] = a
    return out


def _im2col(img, K, stride, padding, Ho, Wo):
    """Zero-pad a (B, C, H, W) image and gather its K x K patches as
    contiguous (B, C*K*K, Ho*Wo) columns."""
    xpad = _zero_pad(img, padding)
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


def _cols_weight_grad(gm, cols):
    """Weight gradient from column-side gradients ``gm`` (B, O, Ho*Wo) and
    image columns ``cols`` (B, C*K*K, Ho*Wo)."""
    if gm.shape[0] == 1:
        return np.matmul(gm[0], cols[0].T)  # one GEMM, no length-1 sum
    return np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0)


def _conv_forward(x, w, stride, padding, Ho, Wo):
    """conv2d without bias of the image ``x`` (B, C, H, W) with the weight
    ``w`` (O, C, K, K): (B, O, Ho, Wo).  The narrow case (stride 1, O < C)
    builds no columns: one GEMM of the reordered kernel with the padded
    image gives per-offset products y (B, O, K, K, Hp, Wp), and the output
    sums their K*K shifted windows, window (i, j) starting at row i, column
    j: the gather that mirrors ``_col2im``'s scatter."""
    B, C = x.shape[:2]
    O, _, K, _ = w.shape
    if not (stride == 1 and O < C):
        return np.matmul(w.reshape(O, C * K * K), _im2col(x, K, stride, padding, Ho, Wo)).reshape(B, O, Ho, Wo)
    xpad = _zero_pad(x, padding)
    Hp, Wp = xpad.shape[2:]
    wr = w.transpose(0, 2, 3, 1).reshape(O * K * K, C)
    y = np.matmul(wr, xpad.reshape(B, C, Hp * Wp)).reshape(B, O, K, K, Hp, Wp)
    out = y[:, :, 0, 0, :Ho, :Wo].copy()
    for i in range(K):
        for j in range(K):
            if i or j:
                out += y[:, :, i, j, i:i + Ho, j:j + Wo]
    return out


def _conv_input_grad(g, w, stride, padding, H, W):
    """Gradient (B, C, H, W) of conv2d's image from its output gradient
    ``g`` (B, O, Ho, Wo) and weight ``w`` (O, C, K, K)."""
    B, O, Ho, Wo = g.shape
    C, K = w.shape[1:3]
    if stride == 1 and padding < K and O <= C:
        # the correlation of g, padded by K-1-padding, with the flipped
        # channel-swapped kernel: one GEMM on g's columns, which hold O/C as
        # much as col2im's
        wf = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].reshape(C, O * K * K)
        return np.matmul(wf, _im2col(g, K, 1, K - 1 - padding, H, W)).reshape(B, C, H, W)
    cols = np.matmul(w.reshape(O, C * K * K).T, g.reshape(B, O, Ho * Wo))
    return _col2im(cols, C, H, W, K, stride, padding, Ho, Wo)


def _conv_weight_grad(x, g, stride, padding, K):
    """Gradient (O, C, K, K) of conv2d's weight from its image ``x``
    (B, C, H, W) and output gradient ``g`` (B, O, Ho, Wo).  The image's
    columns are rebuilt here, not kept on the tape.  The narrow case builds
    none: g padded to Wp columns lines up with the flat padded image, so
    kernel row i is one GEMM of the image window starting at row i (a view)
    with a copy of g shifted by each column offset j, and the K-wide
    intermediate is built on g's side."""
    B, C = x.shape[:2]
    O, Ho, Wo = g.shape[1:]
    if not (stride == 1 and O < C):
        cols = _im2col(x, K, stride, padding, Ho, Wo)
        return _cols_weight_grad(g.reshape(B, O, Ho * Wo), cols).reshape(O, C, K, K)
    xpad = _zero_pad(x, padding)
    Wp = xpad.shape[3]
    xflat = xpad.reshape(B, C, -1)
    N = Ho * Wp
    gp = _zero_pad(g, 0, K - 1).reshape(B, O, N)
    # gs[b, n, o, j] = gp[b, o, n - j]; a shift past the end drops only the
    # zero pad columns of g's last row, so no window leaves the image
    gs = np.zeros((B, N, O, K))
    for j in range(K):
        gs[:, j:, :, j] = gp[:, :, :N - j].transpose(0, 2, 1)
    gs = gs.reshape(B, N, O * K)
    gw = np.empty((C, K, O, K))
    for i in range(K):
        gw[:, i] = np.matmul(xflat[:, :, i * Wp:i * Wp + N], gs).sum(axis=0).reshape(C, O, K)
    return gw.transpose(2, 0, 1, 3)


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """Cross-correlation of a BCHW input with an OIKK kernel."""
    x, weight, bias, (B, C, H, W, O, K, Ho, Wo) = _conv_args(
        "conv2d", x, weight, bias, stride, padding, transpose=False)
    out_data = _conv_forward(x.data, weight.data, stride, padding, Ho, Wo)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, O, 1, 1)
    return from_op(Tensor(out_data),
                   (weight, lambda g: _conv_weight_grad(x.data, g, stride, padding, K)),
                   (bias, lambda g: g.sum(axis=(0, 2, 3))),
                   (x, lambda g: _conv_input_grad(g, weight.data, stride, padding, H, W)))


def conv_transpose2d(x, weight, bias=None, stride=1, padding=0):
    """Fractionally-strided convolution; the adjoint of conv2d with the
    same OIKK weight (maps O channels back to C channels).  Its value is
    conv2d's input gradient, its input gradient is conv2d's forward, and its
    weight gradient is conv2d's with the image and the gradient swapped."""
    x, weight, bias, (B, C, H, W, O, K, Ho, Wo) = _conv_args(
        "conv_transpose2d", x, weight, bias, stride, padding, transpose=True)
    out_data = _conv_input_grad(x.data, weight.data, stride, padding, H, W)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, C, 1, 1)
    return from_op(Tensor(np.ascontiguousarray(out_data)),
                   (x, lambda g: _conv_forward(g, weight.data, stride, padding, Ho, Wo)),
                   (weight, lambda g: _conv_weight_grad(g, x.data, stride, padding, K)),
                   (bias, lambda g: g.sum(axis=(0, 2, 3))))


def reflect_pad(x, pad):
    """Mirror-pad the two spatial axes of a BCHW tensor: padded index -i
    copies i, and index n-1+i copies n-1-i (``np.pad``'s reflect mode)."""
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError("reflect_pad expects a BCHW tensor")
    B, C, H, W = x.data.shape
    if pad < 0 or (pad > 0 and pad >= min(H, W)):
        raise ValueError("reflect pad %d too large for extents (%d, %d)" % (pad, H, W))
    # the mirrored rows of x, then whole mirrored columns of that: np.pad's
    # order, which a translate's peak memory is sensitive to
    xp = np.empty((B, C, H + 2 * pad, W + 2 * pad))
    xp[:, :, pad:pad + H, pad:pad + W] = x.data
    xp[:, :, :pad, pad:pad + W] = x.data[:, :, 1:pad + 1][:, :, ::-1]
    xp[:, :, H + pad:, pad:pad + W] = x.data[:, :, H - 1 - pad:H - 1][:, :, ::-1]
    xp[:, :, :, :pad] = xp[:, :, :, pad + 1:2 * pad + 1][:, :, :, ::-1]
    xp[:, :, :, W + pad:] = xp[:, :, :, W - 1:W - 1 + pad][:, :, :, ::-1]

    def vjp(g):
        # fold each mirrored border back onto the row or column it copies
        gc = g[:, :, :, pad:pad + W].copy()
        gc[:, :, :, 1:pad + 1] += g[:, :, :, :pad][:, :, :, ::-1]
        gc[:, :, :, W - 1 - pad:W - 1] += g[:, :, :, W + pad:][:, :, :, ::-1]
        gx = gc[:, :, pad:pad + H].copy()
        gx[:, :, 1:pad + 1] += gc[:, :, :pad][:, :, ::-1]
        gx[:, :, H - 1 - pad:H - 1] += gc[:, :, H + pad:][:, :, ::-1]
        return gx

    return from_op(Tensor(xp), (x, vjp))


def reduce(x, kind):
    """Full reduction to a scalar tensor; ``mean`` distributes 1/N backward."""
    x = as_tensor(x)
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
    shape = x.data.shape
    return from_op(out, (x, lambda g: np.full(shape, float(g) * scale)))


def mean(x):
    return reduce(x, "mean")


def backward(root, tape):
    """Seed the scalar ``root`` with a unit gradient and replay the tape
    in reverse, accumulating gradients into every reachable tensor."""
    if root.data.size != 1:
        raise ValueError("backward root must be a scalar tensor")
    if tape.target(root) is root:
        raise ValueError("backward root was not recorded on this tape")
    # A node's gradient is dropped as soon as its backward function has used
    # it, so a repeated call on the same tape accumulates into the leaves
    # without double-counting.
    root.node.grad = np.ones(root.node.shape)
    for node, fn in reversed(tape._nodes):
        if node.grad is not None:
            g, node.grad = node.grad, None
            fn(g)


def zero_grad(params):
    """Drop every gradient buffer (``grad = None``); parameter data is
    untouched.  The next backward allocates each one afresh."""
    for p in params:
        p.grad = None
