"""Generator and discriminator assembly.

The generator is an encoder (7x7 stride-1 entry, two stride-2
downsamplers), a stack of residual blocks, and a decoder (two stride-2
transpose convolutions, 7x7 exit, tanh head).  The ``sparse_kwinners``
variant swaps every encoder / residual convolution for a masked sparse
convolution and every encoder / mid activation for K-Winners; decoders
stay dense with ReLU.

The discriminator is a five-layer fully convolutional patch classifier
(4x4 kernels, 70x70 receptive field) emitting an unbounded logit map.
"""

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .layers import (
    Conv2d, ConvTranspose2d, InstanceNorm, KWinners, Layer, LeakyReLU, ReLU,
    RReLU, ResidualBlock, SparseConv2d,
)

GENERATOR_VARIANTS = ("dense_relu", "sparse_kwinners")
DISCRIMINATOR_ACTIVATIONS = ("rrelu", "leaky")


def gaussian_samples(rng, shape, std):
    """Box-Muller normal samples from a seeded uniform generator."""
    n = int(np.prod(shape))
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
    return (std * z).reshape(shape)


class _Tanh(Layer):
    def forward(self, x, train=False):
        return ag.tanh(x)


class _ReflectPad(Layer):
    def __init__(self, pad):
        self.pad = pad

    def forward(self, x, train=False):
        return ag.reflect_pad(x, self.pad)


def _leaves(layers, prefix=""):
    """(dotted name, layer) pairs, descending into any layer with
    ``sublayers()``."""
    for name, layer in layers:
        if hasattr(layer, "sublayers"):
            yield from _leaves(layer.sublayers(), prefix + name + ".")
        else:
            yield prefix + name, layer


class _Net:
    """Shared parameter / state walking over an ordered layer list."""

    def __init__(self):
        self.layers = []  # list of (name, layer)

    def add(self, name, layer):
        self.layers.append((name, layer))
        return layer

    def named_layers(self):
        return _leaves(self.layers)

    def params(self):
        out = []
        for _, layer in self.named_layers():
            out.extend(layer.params())
        return out

    def forward(self, x, train=False):
        for _, layer in self.layers:
            x = layer.forward(x, train)
        return x

    def state_entries(self, prefix=""):
        out = []
        for name, layer in self.named_layers():
            for key, arr in layer.state_arrays():
                out.append(("%s%s.%s" % (prefix, name, key), arr))
        return out

    def load_state_entries(self, entries, prefix=""):
        for name, layer in self.named_layers():
            def get(key, _name=name):
                full = "%s%s.%s" % (prefix, _name, key)
                if full not in entries:
                    raise KeyError("missing checkpoint entry %r" % (full,))
                return entries[full]
            layer.load_state_arrays(get)


class GeneratorNet(_Net):
    def __init__(self, in_channels=1, out_channels=1, width=64, n_res=12,
                 variant="dense_relu", weight_sparsity=0.5, kwinners_cfg=None, seed=0):
        super().__init__()
        if variant not in GENERATOR_VARIANTS:
            raise ValueError("unknown generator variant %r" % (variant,))
        if width < 1 or n_res < 0:
            raise ValueError("require width >= 1 and n_res >= 0")
        if in_channels < 1 or out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.width = width
        self.n_res = n_res
        self.variant = variant
        self.weight_sparsity = weight_sparsity
        sparse = variant == "sparse_kwinners"
        kcfg = kwinners_cfg or {}
        mask_seed = [seed * 1000]

        def enc_conv(cin, cout, k, s, p):
            if sparse:
                mask_seed[0] += 1
                return SparseConv2d(cin, cout, k, stride=s, padding=p,
                                    weight_sparsity=weight_sparsity, mask_seed=mask_seed[0])
            return Conv2d(cin, cout, k, stride=s, padding=p)

        def enc_act():
            return KWinners(**kcfg) if sparse else ReLU()

        w = width
        self.add("enc.pad", _ReflectPad(3))
        self.add("enc.conv0", enc_conv(in_channels, w, 7, 1, 0))
        self.add("enc.norm0", InstanceNorm(w))
        self.add("enc.act0", enc_act())
        self.add("enc.conv1", enc_conv(w, 2 * w, 3, 2, 1))
        self.add("enc.norm1", InstanceNorm(2 * w))
        self.add("enc.act1", enc_act())
        self.add("enc.conv2", enc_conv(2 * w, 4 * w, 3, 2, 1))
        self.add("enc.norm2", InstanceNorm(4 * w))
        self.add("enc.act2", enc_act())
        for i in range(n_res):
            mask_seed[0] += 2
            self.add("res%d" % i, ResidualBlock(
                4 * w, sparse=sparse, weight_sparsity=weight_sparsity,
                mask_seeds=(mask_seed[0] - 1, mask_seed[0]), kwinners_cfg=kcfg))
        self.add("dec.up0", ConvTranspose2d(4 * w, 2 * w, 4, stride=2, padding=1))
        self.add("dec.norm0", InstanceNorm(2 * w))
        self.add("dec.act0", ReLU())
        self.add("dec.up1", ConvTranspose2d(2 * w, w, 4, stride=2, padding=1))
        self.add("dec.norm1", InstanceNorm(w))
        self.add("dec.act1", ReLU())
        self.add("dec.pad", _ReflectPad(3))
        self.add("dec.conv", Conv2d(w, out_channels, 7, stride=1, padding=0))
        self.add("dec.tanh", _Tanh())
        init_weights(self, seed)

    def forward(self, x, train=False):
        if x.data.ndim != 4:
            raise ValueError("generator expects a BCHW tensor")
        B, C, H, W = x.data.shape
        if C != self.in_channels:
            raise ValueError("generator expects %d input channels, got %d" % (self.in_channels, C))
        if H % 4 or W % 4:
            raise ValueError("spatial extents must be divisible by 4, got (%d, %d)" % (H, W))
        return super().forward(x, train)


class DiscriminatorNet(_Net):
    """Five 4x4 convolutions (strides 2,2,2,1,1) emitting a patch-logit map;
    no squashing at the head."""

    def __init__(self, in_channels=1, width=64, activation="rrelu", leaky_alpha=0.2, seed=0):
        super().__init__()
        if activation not in DISCRIMINATOR_ACTIVATIONS:
            raise ValueError("unknown discriminator activation %r" % (activation,))
        if width < 1 or in_channels < 1:
            raise ValueError("require width >= 1 and in_channels >= 1")
        self.in_channels = in_channels
        self.width = width
        self.activation = activation
        w = width

        def act(i):
            if activation == "rrelu":
                return RReLU(seed=seed * 100 + i)
            return LeakyReLU(alpha=leaky_alpha)

        self.add("conv0", Conv2d(in_channels, w, 4, stride=2, padding=1))
        self.add("act0", act(0))
        self.add("conv1", Conv2d(w, 2 * w, 4, stride=2, padding=1))
        self.add("norm1", InstanceNorm(2 * w))
        self.add("act1", act(1))
        self.add("conv2", Conv2d(2 * w, 4 * w, 4, stride=2, padding=1))
        self.add("norm2", InstanceNorm(4 * w))
        self.add("act2", act(2))
        self.add("conv3", Conv2d(4 * w, 8 * w, 4, stride=1, padding=1))
        self.add("norm3", InstanceNorm(8 * w))
        self.add("act3", act(3))
        self.add("conv4", Conv2d(8 * w, 1, 4, stride=1, padding=1))
        init_weights(self, seed)

    def forward(self, x, train=False):
        if x.data.ndim != 4:
            raise ValueError("discriminator expects a BCHW tensor")
        H, W = x.data.shape[2:]
        # the 4x4 stack needs conv3 to see at least a 2x2 map; anything
        # smaller than 24 px collapses before the head
        if H < 24 or W < 24:
            raise ValueError("input (%d, %d) too small for the patch classifier" % (H, W))
        return super().forward(x, train)


def init_weights(net, seed):
    """Gaussian(0, std 0.02) convolution weights via Box-Muller, zero
    biases, unit norm gains, zero shifts; sparse masks re-applied after
    sampling."""
    rng = np.random.default_rng(seed)
    for _, layer in net.named_layers():
        if isinstance(layer, (Conv2d, ConvTranspose2d)):
            layer.weight.data[...] = gaussian_samples(rng, layer.weight.shape, 0.02)
            if layer.bias is not None:
                layer.bias.data[...] = 0.0
            if isinstance(layer, SparseConv2d):
                layer.apply_mask()
        elif isinstance(layer, InstanceNorm):
            layer.gain.data[...] = 1.0
            layer.shift.data[...] = 0.0


def output_noise_deviation(net, images, sigma, seed=0):
    """Mean L1 change of the generator output when Gaussian noise of the
    given sigma is added to its input (eval mode); images are 8-bit
    grayscale arrays."""
    from .data import image_to_net

    rng = np.random.default_rng(seed)
    devs = []
    for img in images:
        x = image_to_net(img)
        clean = net.forward(Tensor(x), train=False).data
        noisy = net.forward(Tensor(x + rng.normal(0.0, sigma, size=x.shape)), train=False).data
        devs.append(float(np.mean(np.abs(noisy - clean))))
    return float(np.mean(devs))


def count_nonzero_weights(net):
    total = 0
    for _, layer in net.named_layers():
        if isinstance(layer, (Conv2d, ConvTranspose2d)):
            total += int(np.count_nonzero(layer.weight.data))
    return total
