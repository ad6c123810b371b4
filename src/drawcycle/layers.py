"""Network building blocks.

Convolutions come in dense and masked-sparse flavours; activations cover
ReLU, LeakyReLU, the randomized rectifier used by the discriminator, and
the K-Winners competitive activation with duty-cycle boosting used by the
sparse generator variant.
"""

import math

import numpy as np

from . import autograd as ag
from .autograd import Tensor, accumulate_grad, from_op


def sparse_mask_init(shape, weight_sparsity, rng_seed):
    """Binary mask with exactly ceil((1 - sparsity) * size) ones placed
    uniformly at random; fixed for the lifetime of the layer."""
    if not 0.0 <= weight_sparsity < 1.0:
        raise ValueError("weight_sparsity must be in [0, 1)")
    size = int(np.prod(shape))
    n_keep = math.ceil((1.0 - weight_sparsity) * size)
    rng = np.random.default_rng(rng_seed)
    keep = rng.choice(size, size=n_keep, replace=False)
    mask = np.zeros(size)
    mask[keep] = 1.0
    return mask.reshape(shape)


class Layer:
    """One protocol for every layer.  ``tensors`` lists the named tensors
    a layer owns, in checkpoint order: those with ``requires_grad`` are its
    parameters, and all of them are its checkpoint state.  A layer with
    other state (an RNG, a lazily bound buffer) overrides the state
    methods."""

    tensors = ()

    def params(self):
        return [t for _, t in self.tensors if t.requires_grad]

    def state_arrays(self):
        return [(name, t.data) for name, t in self.tensors]

    def load_state_arrays(self, get):
        for name, t in self.tensors:
            value = get(name)
            # a smaller array would broadcast into the tensor silently
            if np.shape(value) != t.data.shape:
                raise ValueError("state %r has shape %s, expected %s"
                                 % (name, np.shape(value), t.data.shape))
            t.data[...] = value


class Conv2d(Layer):
    """Plain convolution layer holding weight and bias."""

    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=0):
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(np.zeros((out_ch, in_ch, kernel, kernel)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True)
        self.tensors = [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x, train=False):
        return ag.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class SparseConv2d(Conv2d):
    """Convolution whose weight carries a fixed random zero mask.

    The mask is applied inside the graph, so masked weights receive zero
    gradient and stay exactly zero under any number of optimizer steps.
    """

    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=0,
                 weight_sparsity=0.5, mask_seed=0):
        super().__init__(in_ch, out_ch, kernel, stride=stride, padding=padding)
        self.mask = Tensor(sparse_mask_init(self.weight.shape, weight_sparsity, mask_seed))
        self.tensors.append(("mask", self.mask))

    def apply_mask(self):
        self.weight.data *= self.mask.data

    def forward(self, x, train=False):
        masked = ag.mul(self.weight, self.mask)
        return ag.conv2d(x, masked, self.bias, stride=self.stride, padding=self.padding)


class ConvTranspose2d(Layer):
    """Fractionally-strided convolution layer (upsampling)."""

    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=0):
        self.stride = stride
        self.padding = padding
        # adjoint convention: weight maps in_ch -> out_ch, stored (in, out, K, K)
        self.weight = Tensor(np.zeros((in_ch, out_ch, kernel, kernel)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True)
        self.tensors = [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x, train=False):
        return ag.conv_transpose2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


def instance_norm(x, gain, shift, eps=1e-5):
    """Per-sample, per-channel standardization followed by an affine map."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 4:
        raise ValueError("instance_norm expects a BCHW tensor")
    B, C, H, W = x.data.shape
    # a single spatial element degenerates gracefully: x == mean, so the
    # standardized value is 0 and the output is just the shift
    if gain.data.shape != (C,) or shift.data.shape != (C,):
        raise ValueError("instance_norm gain/shift must have shape (C,)")

    mu = x.data.mean(axis=(2, 3), keepdims=True)
    var = x.data.var(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    g4 = gain.data.reshape(1, C, 1, 1)
    out = Tensor(g4 * xhat + shift.data.reshape(1, C, 1, 1))

    def bwd(g):
        if shift.requires_grad:
            accumulate_grad(shift, g.sum(axis=(0, 2, 3)))
        if gain.requires_grad:
            accumulate_grad(gain, (g * xhat).sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gh = g * g4
            m1 = gh.mean(axis=(2, 3), keepdims=True)
            m2 = (gh * xhat).mean(axis=(2, 3), keepdims=True)
            accumulate_grad(x, inv * (gh - m1 - xhat * m2))

    return from_op(out, (x, gain, shift), bwd)


class InstanceNorm(Layer):
    def __init__(self, channels, eps=1e-5):
        self.eps = eps
        self.gain = Tensor(np.ones(channels), requires_grad=True)
        self.shift = Tensor(np.zeros(channels), requires_grad=True)
        self.tensors = [("gain", self.gain), ("shift", self.shift)]

    def forward(self, x, train=False):
        return instance_norm(x, self.gain, self.shift, eps=self.eps)


def relu_family(x, kind="relu", alpha=0.0):
    """ReLU or LeakyReLU(alpha); the slope at exactly 0 comes from the
    negative branch."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if kind == "relu":
        alpha = 0.0
    elif kind != "leaky":
        raise ValueError("unknown rectifier kind %r" % (kind,))
    slope = np.where(x.data > 0, 1.0, alpha)
    out = Tensor(x.data * slope)

    def bwd(g):
        accumulate_grad(x, g * slope)

    return from_op(out, (x,), bwd)


class ReLU(Layer):
    def forward(self, x, train=False):
        return relu_family(x, "relu")


class LeakyReLU(Layer):
    """LeakyReLU with negative slope 0.2."""

    def forward(self, x, train=False):
        return relu_family(x, "leaky", alpha=0.2)


# slope bounds of the randomized rectifier: the common competition setting
RRELU_LOWER = 0.125
RRELU_UPPER = 1.0 / 3.0


def rrelu_forward(x, rng, train=False):
    """Randomized leaky rectifier.

    Train mode scales each negative element by its own slope drawn from
    Uniform(RRELU_LOWER, RRELU_UPPER); the drawn slope is reused in
    backward.  Eval mode uses the deterministic mean slope
    (RRELU_LOWER + RRELU_UPPER) / 2.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if train:
        a = rng.uniform(RRELU_LOWER, RRELU_UPPER, size=x.data.shape)
    else:
        a = np.full(x.data.shape, (RRELU_LOWER + RRELU_UPPER) / 2.0)
    slope = np.where(x.data > 0, 1.0, a)
    out = Tensor(x.data * slope)

    def bwd(g):
        accumulate_grad(x, g * slope)

    return from_op(out, (x,), bwd)


class RReLU(Layer):
    def __init__(self, seed=0):
        self.rng = np.random.default_rng(seed)

    def forward(self, x, train=False):
        return rrelu_forward(x, self.rng, train=train)

    def state_arrays(self):
        from .serialize import rng_state_to_array
        return [("rng", rng_state_to_array(self.rng))]

    def load_state_arrays(self, get):
        from .serialize import rng_state_from_array
        self.rng = rng_state_from_array(get("rng"))


class KWinners(Layer):
    """K-winner-take-all activation with duty-cycle boosting.

    Competes per sample across all units of the layer (channels x spatial,
    flattened).  In train mode, scores are boosted by
    exp(boost_strength * (k/n - duty_cycle)); the k top-scoring units keep
    their original values, everything else is zeroed, and the duty cycles
    are updated as an exponential moving average of the winner indicator.
    Eval mode is a pure top-k on raw values with frozen duty cycles.

    Unit count binds on first forward; k defaults to ceil(k_frac * n).  An
    eval forward over another unit count m keeps ceil(k * m / n) winners.
    """

    def __init__(self, k=None, k_frac=0.3, boost_strength=1.5, duty_period=1000):
        if boost_strength < 0:
            raise ValueError("boost_strength must be >= 0")
        self.k = k
        self.k_frac = k_frac
        self.boost_strength = boost_strength
        self.duty_period = duty_period
        self.n = None
        self.duty_cycle = None

    def _bind(self, n):
        self.n = n
        if self.k is None:
            self.k = math.ceil(self.k_frac * n)
        if not 1 <= self.k <= n:
            raise ValueError("require 1 <= k <= n, got k=%d n=%d" % (self.k, n))
        self.duty_cycle = np.zeros(n)

    def forward(self, x, train=False):
        return kwinners_forward(x, self, train=train)

    def state_arrays(self):
        if self.n is None:
            return [("meta", np.array([-1.0, -1.0]))]
        return [("meta", np.array([float(self.n), float(self.k)])),
                ("duty_cycle", self.duty_cycle)]

    def load_state_arrays(self, get):
        meta = get("meta")
        if meta[0] < 0:
            self.n = None
            self.duty_cycle = None
            return
        self.n = int(meta[0])
        self.k = int(meta[1])
        self.duty_cycle = get("duty_cycle").copy()


def kwinners_forward(x, state, train=False):
    """Apply K-winner-take-all; gradients pass only through winners."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    B = x.data.shape[0]
    flat = x.data.reshape(B, -1)
    n = flat.shape[1]
    if state.n is None:
        state._bind(n)
    k = state.k
    if n != state.n:
        if train:
            raise ValueError("unit count %d does not match bound layer size %d" % (n, state.n))
        # another unit count keeps the bound layer's share of winners
        k = -(-state.k * n // state.n)
    if k > n:
        raise ValueError("k=%d exceeds unit count n=%d" % (k, n))

    if train and state.boost_strength > 0:
        scores = flat * np.exp(state.boost_strength * (k / n - state.duty_cycle))[None, :]
    else:
        scores = flat

    keep = _top_k_mask(scores, k).astype(np.float64)
    out = Tensor((flat * keep).reshape(x.data.shape))

    if train:
        kwinners_update_duty_cycle(state, keep.mean(axis=0))

    def bwd(g):
        accumulate_grad(x, (g.reshape(B, -1) * keep).reshape(x.data.shape))

    return from_op(out, (x,), bwd)


def _top_k_mask(scores, k):
    """Boolean (B, n) mask of each row's k highest scores, the same units
    a stable argsort of -scores ranks first: ties resolve to the lowest unit
    index, and NaNs rank last.  Only each row's k-th score is found, by a
    partition, not a full sort."""
    neg = -scores
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    above = neg < kth
    tie = neg == kth
    nan_rows = np.isnan(kth[:, 0])
    if nan_rows.any():
        # fewer than k numbers: all of them win, and NaNs fill up the rest
        tie[nan_rows] = np.isnan(neg[nan_rows])
        above[nan_rows] = ~tie[nan_rows]
    need = k - np.count_nonzero(above, axis=1, keepdims=True)
    if (np.count_nonzero(tie, axis=1, keepdims=True) > need).any():
        # more ties than places left: the lowest unit indices take them
        tie &= np.cumsum(tie, axis=1) <= need
    return above | tie


def kwinners_update_duty_cycle(state, winner_indicators):
    """EMA update over duty_period steps of the winner indicator."""
    a = 1.0 / state.duty_period
    state.duty_cycle *= 1.0 - a
    state.duty_cycle += a * np.asarray(winner_indicators, dtype=np.float64)


class ResidualBlock:
    """Two 3x3 convolutions with norms and an activation, plus an identity
    shortcut: out = x + F(x).  ``conv(cin, cout, kernel, stride, padding)``
    and ``act()`` build the layers, conv1 before conv2."""

    def __init__(self, channels, conv=Conv2d, act=ReLU):
        self.conv1 = conv(channels, channels, 3, 1, 1)
        self.conv2 = conv(channels, channels, 3, 1, 1)
        self.act = act()
        self.norm1 = InstanceNorm(channels)
        self.norm2 = InstanceNorm(channels)

    def sublayers(self):
        return [("conv1", self.conv1), ("norm1", self.norm1), ("act", self.act),
                ("conv2", self.conv2), ("norm2", self.norm2)]

    def forward(self, x, train=False):
        h = self.conv1.forward(x, train)
        h = self.norm1.forward(h, train)
        h = self.act.forward(h, train)
        h = self.conv2.forward(h, train)
        h = self.norm2.forward(h, train)
        return ag.add(x, h)
