"""Generator and discriminator assembly.  Both networks work on
single-channel grayscale drawings.

The generator is an encoder (7x7 stride-1 entry, two stride-2
downsamplers), a stack of residual blocks, and a decoder (two stride-2
transpose convolutions, 7x7 exit, tanh head).  The ``sparse_kwinners``
variant swaps every encoder / residual convolution for a masked sparse
convolution and every encoder / mid activation for K-Winners; decoders
stay dense with ReLU.

The discriminator is a five-layer fully convolutional patch classifier
(4x4 kernels, 70x70 receptive field) emitting an unbounded logit map.
"""

import itertools
from functools import partial

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .layers import (
    Conv2d, ConvTranspose2d, InstanceNorm, KWinners, Layer, LeakyReLU, ReLU,
    RReLU, ResidualBlock, Sequential, SparseConv2d, sparse_mask_init,
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


class GeneratorNet(Sequential):
    def __init__(self, width=64, n_res=12, variant="dense_relu", weight_sparsity=0.5,
                 kwinners_cfg=None):
        super().__init__()
        if variant not in GENERATOR_VARIANTS:
            raise ValueError("unknown generator variant %r" % (variant,))
        if width < 1 or n_res < 0:
            raise ValueError("require width >= 1 and n_res >= 0")
        if variant == "sparse_kwinners":
            enc_conv = partial(SparseConv2d, weight_sparsity=weight_sparsity)
            enc_act = partial(KWinners, **(kwinners_cfg or {}))
        else:
            enc_conv, enc_act = Conv2d, ReLU
        w = width
        self.add("enc.pad", _ReflectPad(3))
        self.add("enc.conv0", enc_conv(1, w, 7, 1, 0))
        self.add("enc.norm0", InstanceNorm(w))
        self.add("enc.act0", enc_act())
        self.add("enc.conv1", enc_conv(w, 2 * w, 3, 2, 1))
        self.add("enc.norm1", InstanceNorm(2 * w))
        self.add("enc.act1", enc_act())
        self.add("enc.conv2", enc_conv(2 * w, 4 * w, 3, 2, 1))
        self.add("enc.norm2", InstanceNorm(4 * w))
        self.add("enc.act2", enc_act())
        for i in range(n_res):
            self.add("res%d" % i, ResidualBlock(4 * w, conv=enc_conv, act=enc_act))
        self.add("dec.up0", ConvTranspose2d(4 * w, 2 * w, 4, stride=2, padding=1))
        self.add("dec.norm0", InstanceNorm(2 * w))
        self.add("dec.act0", ReLU())
        self.add("dec.up1", ConvTranspose2d(2 * w, w, 4, stride=2, padding=1))
        self.add("dec.norm1", InstanceNorm(w))
        self.add("dec.act1", ReLU())
        self.add("dec.pad", _ReflectPad(3))
        self.add("dec.conv", Conv2d(w, 1, 7, stride=1, padding=0))
        self.add("dec.tanh", _Tanh())

    def forward(self, x, train=False):
        if x.data.ndim != 4:
            raise ValueError("generator expects a BCHW tensor")
        B, C, H, W = x.data.shape
        if C != 1:
            raise ValueError("generator expects 1 input channel, got %d" % (C,))
        if H % 4 or W % 4:
            raise ValueError("spatial extents must be divisible by 4, got (%d, %d)" % (H, W))
        return super().forward(x, train)


class DiscriminatorNet(Sequential):
    """Five 4x4 convolutions (strides 2,2,2,1,1) emitting a patch-logit map;
    no squashing at the head."""

    def __init__(self, width=64, activation="rrelu"):
        super().__init__()
        if activation not in DISCRIMINATOR_ACTIVATIONS:
            raise ValueError("unknown discriminator activation %r" % (activation,))
        if width < 1:
            raise ValueError("require width >= 1")
        w = width
        act = RReLU if activation == "rrelu" else LeakyReLU

        self.add("conv0", Conv2d(1, w, 4, stride=2, padding=1))
        self.add("act0", act())
        self.add("conv1", Conv2d(w, 2 * w, 4, stride=2, padding=1))
        self.add("norm1", InstanceNorm(2 * w))
        self.add("act1", act())
        self.add("conv2", Conv2d(2 * w, 4 * w, 4, stride=2, padding=1))
        self.add("norm2", InstanceNorm(4 * w))
        self.add("act2", act())
        self.add("conv3", Conv2d(4 * w, 8 * w, 4, stride=1, padding=1))
        self.add("norm3", InstanceNorm(8 * w))
        self.add("act3", act())
        self.add("conv4", Conv2d(8 * w, 1, 4, stride=1, padding=1))

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
    """Make every random draw of a fresh network, in ``named_layers()`` order,
    and return it: Gaussian(0, std 0.02) conv weights via Box-Muller from
    ``seed``; the j-th sparse conv's mask from ``seed * 1000 + 1 + j``, then
    its masked weights zeroed; the i-th RReLU's stream from ``seed * 100 + i``.
    Biases and norm gains and shifts keep their built values (0, 1 and 0)."""
    rng = np.random.default_rng(seed)
    mask_seeds = itertools.count(seed * 1000 + 1)
    stream_seeds = itertools.count(seed * 100)
    for _, layer in net.named_layers():
        if isinstance(layer, (Conv2d, ConvTranspose2d)):
            layer.weight.data[...] = gaussian_samples(rng, layer.weight.shape, 0.02)
            if isinstance(layer, SparseConv2d):
                layer.mask.data[...] = sparse_mask_init(layer.mask.shape, layer.weight_sparsity,
                                                        next(mask_seeds))
                layer.weight.data *= layer.mask.data
        elif isinstance(layer, RReLU):
            layer.rng = np.random.default_rng(next(stream_seeds))
    return net


def output_noise_deviation(net, images, sigma, seed=0):
    """Per-image mean L1 change of the generator output when Gaussian noise
    of the given sigma is added to its input (eval mode); images are 8-bit
    grayscale arrays."""
    from .data import image_to_net

    rng = np.random.default_rng(seed)
    devs = []
    for img in images:
        x = image_to_net(img)
        clean = net.forward(Tensor(x), train=False).data
        noisy = net.forward(Tensor(x + rng.normal(0.0, sigma, size=x.shape)), train=False).data
        devs.append(float(np.mean(np.abs(noisy - clean))))
    return devs
