"""Network building blocks.

Convolutions come in dense and masked-sparse flavours; activations cover
ReLU, LeakyReLU, the randomized rectifier used by the discriminator, and
the K-Winners competitive activation with duty-cycle boosting used by the
sparse generator variant.
"""

import math

import numpy as np

from . import autograd as ag
from .autograd import Tensor, as_tensor, from_op, pointwise
from .serialize import RNG_STATE_SHAPE, rng_state_from_array, rng_state_to_array

# added to each channel's variance before instance norm's square root
NORM_EPS = 1e-5


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
    methods.  Loading reads entries through ``get(key, shape=None)``,
    which rejects one of another shape, not broadcasting it."""

    tensors = ()

    def params(self):
        return [t for _, t in self.tensors if t.requires_grad]

    def state_arrays(self):
        return [(name, t.data) for name, t in self.tensors]

    def load_state_arrays(self, get):
        for name, t in self.tensors:
            t.data[...] = get(name, t.data.shape)


def parts_state(parts):
    """The checkpoint entries of (prefix, part) pairs: every state array
    of each part, named ``prefix.key``."""
    return [("%s.%s" % (prefix, key), arr)
            for prefix, part in parts for key, arr in part.state_arrays()]


def load_parts(parts, get):
    """Load each part of (prefix, part) pairs from the entries that
    ``parts_state`` names, through a ``get(name, shape=None)`` lookup."""
    for prefix, part in parts:
        part.load_state_arrays(lambda key, shape=None: get("%s.%s" % (prefix, key), shape))


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
    """Convolution whose weight carries a fixed random zero mask, all ones
    until ``models.init_weights`` draws its ``weight_sparsity`` share of zeros.

    The mask is applied inside the graph, so masked weights receive zero
    gradient and stay exactly zero under any number of optimizer steps.
    """

    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=0, weight_sparsity=0.5):
        super().__init__(in_ch, out_ch, kernel, stride=stride, padding=padding)
        self.weight_sparsity = weight_sparsity
        self.mask = Tensor(np.ones(self.weight.shape))
        self.tensors.append(("mask", self.mask))

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


def instance_norm(x, gain, shift):
    """Per-sample, per-channel standardization followed by an affine map."""
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError("instance_norm expects a BCHW tensor")
    B, C, H, W = x.data.shape
    # a single spatial element degenerates gracefully: x == mean, so the
    # standardized value is 0 and the output is just the shift
    if gain.data.shape != (C,) or shift.data.shape != (C,):
        raise ValueError("instance_norm gain/shift must have shape (C,)")

    # np.var's own steps on the centred input, which is then scaled in place
    # into xhat: no second activation-sized array
    mu = x.data.mean(axis=(2, 3), keepdims=True)
    xhat = x.data - mu
    var = (xhat * xhat).mean(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv
    g4 = gain.data.reshape(1, C, 1, 1)
    out = Tensor(g4 * xhat + shift.data.reshape(1, C, 1, 1))

    def x_vjp(g):
        gh = g * g4
        m1 = gh.mean(axis=(2, 3), keepdims=True)
        m2 = (gh * xhat).mean(axis=(2, 3), keepdims=True)
        return inv * (gh - m1 - xhat * m2)

    return from_op(out, (shift, lambda g: g.sum(axis=(0, 2, 3))),
                   (gain, lambda g: (g * xhat).sum(axis=(0, 2, 3))), (x, x_vjp))


class InstanceNorm(Layer):
    def __init__(self, channels):
        self.gain = Tensor(np.ones(channels), requires_grad=True)
        self.shift = Tensor(np.zeros(channels), requires_grad=True)
        self.tensors = [("gain", self.gain), ("shift", self.shift)]

    def forward(self, x, train=False):
        return instance_norm(x, self.gain, self.shift)


def relu_family(x, alpha):
    """LeakyReLU(alpha), ReLU at alpha = 0; the slope at exactly 0 comes
    from the negative branch."""
    x = as_tensor(x)
    # the tape keeps the 1-byte sign mask, not a float slope per element;
    # x where positive, else x * alpha: the bits of x * slope
    pos = x.data > 0
    return from_op(Tensor(np.where(pos, x.data, x.data * alpha)),
                   (x, lambda g: g * np.where(pos, 1.0, alpha)))


class ReLU(Layer):
    def forward(self, x, train=False):
        return relu_family(x, 0.0)


class LeakyReLU(Layer):
    """LeakyReLU with negative slope 0.2."""

    def forward(self, x, train=False):
        return relu_family(x, 0.2)


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
    x = as_tensor(x)
    if train:
        a = rng.uniform(RRELU_LOWER, RRELU_UPPER, size=x.data.shape)
    else:
        a = (RRELU_LOWER + RRELU_UPPER) / 2.0
    slope = np.where(x.data > 0, 1.0, a)
    return pointwise(x, x.data * slope, slope)


class RReLU(Layer):
    rng = None  # the train-mode slope stream: seeded by models.init_weights, or loaded

    def forward(self, x, train=False):
        return rrelu_forward(x, self.rng, train=train)

    def state_arrays(self):
        return [("rng", rng_state_to_array(self.rng))]

    def load_state_arrays(self, get):
        self.rng = rng_state_from_array(get("rng", RNG_STATE_SHAPE))


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
        n, k = get("meta", (2,))
        if n < 0:
            self.n = None
            self.duty_cycle = None
            return
        self.n = int(n)
        self.k = int(k)
        self.duty_cycle = get("duty_cycle", (self.n,)).copy()


def kwinners_forward(x, state, train=False):
    """Apply K-winner-take-all; gradients pass only through winners."""
    x = as_tensor(x)
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

    # the boolean winner mask multiplies as 1.0 / 0.0
    win = _top_k_mask(scores, k)
    if train:
        kwinners_update_duty_cycle(state, win.mean(axis=0))
    win = win.reshape(x.data.shape)
    return from_op(Tensor(x.data * win), (x, lambda g: g * win))


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


class Sequential(Layer):
    """The one composite layer: named layers run in the order added.  Its
    state follows the ``Layer`` protocol, each entry named ``layer.key``;
    ``named_layers`` yields the leaf layers under dotted names, descending
    into nested composites."""

    def __init__(self):
        self.layers = []  # list of (name, layer)

    def add(self, name, layer):
        self.layers.append((name, layer))
        return layer

    def named_layers(self):
        for name, layer in self.layers:
            if isinstance(layer, Sequential):
                for sub, leaf in layer.named_layers():
                    yield name + "." + sub, leaf
            else:
                yield name, layer

    def params(self):
        return [p for _, layer in self.layers for p in layer.params()]

    def forward(self, x, train=False):
        for _, layer in self.layers:
            x = layer.forward(x, train)
        return x

    def state_arrays(self):
        return parts_state(self.layers)

    def load_state_arrays(self, get):
        load_parts(self.layers, get)


class ResidualBlock(Sequential):
    """Two 3x3 convolutions with norms and an activation, plus an identity
    shortcut: out = x + F(x).  ``conv(cin, cout, kernel, stride, padding)``
    and ``act()`` build the layers."""

    def __init__(self, channels, conv=Conv2d, act=ReLU):
        super().__init__()
        self.conv1 = self.add("conv1", conv(channels, channels, 3, 1, 1))
        self.norm1 = self.add("norm1", InstanceNorm(channels))
        self.act = self.add("act", act())
        self.conv2 = self.add("conv2", conv(channels, channels, 3, 1, 1))
        self.norm2 = self.add("norm2", InstanceNorm(channels))

    def forward(self, x, train=False):
        return ag.add(x, super().forward(x, train))
