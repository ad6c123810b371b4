import numpy as np
import pytest

from drawcycle import autograd as ag
from drawcycle.autograd import Tape, Tensor
from drawcycle.layers import Conv2d, ConvTranspose2d, KWinners, RReLU, SparseConv2d
from drawcycle.models import (
    DiscriminatorNet, GeneratorNet, count_nonzero_weights, gaussian_samples,
    init_weights, output_noise_deviation,
)

from gradcheck import numeric_grad_sample


def small_gen(**kw):
    kw.setdefault("width", 4)
    kw.setdefault("n_res", 1)
    return GeneratorNet(**kw)


class TestGaussianSamples:
    def test_moments(self):
        s = gaussian_samples(np.random.default_rng(0), (200000,), 0.02)
        assert abs(float(s.mean())) < 5e-4
        assert 0.0195 < float(s.std()) < 0.0205

    def test_seed_determinism(self):
        a = gaussian_samples(np.random.default_rng(7), (64,), 0.02)
        b = gaussian_samples(np.random.default_rng(7), (64,), 0.02)
        assert np.array_equal(a, b)


class TestGeneratorShape:
    @pytest.mark.parametrize("variant", ["dense_relu", "sparse_kwinners"])
    def test_preserves_shape_and_range(self, variant):
        net = small_gen(variant=variant, seed=1)
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, size=(2, 1, 16, 16)))
        out = net.forward(x)
        assert out.data.shape == (2, 1, 16, 16)
        assert np.all(out.data > -1.0) and np.all(out.data < 1.0)

    def test_larger_input_accepted(self):
        net = small_gen(seed=2)
        x = Tensor(np.zeros((1, 1, 32, 24)))
        assert net.forward(x).data.shape == (1, 1, 32, 24)

    def test_indivisible_extent_rejected(self):
        net = small_gen()
        with pytest.raises(ValueError):
            net.forward(Tensor(np.zeros((1, 1, 18, 16))))

    def test_wrong_channel_count_rejected(self):
        net = small_gen()
        with pytest.raises(ValueError):
            net.forward(Tensor(np.zeros((1, 3, 16, 16))))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            GeneratorNet(width=4, n_res=1, variant="dense_kwinners")


class TestGeneratorVariants:
    def test_sparse_uses_sparse_convs_and_kwinners(self):
        net = small_gen(variant="sparse_kwinners", seed=3)
        kinds = [type(l) for _, l in net.named_layers()]
        assert any(k is SparseConv2d for k in kinds)
        assert any(k is KWinners for k in kinds)

    def test_decoder_stays_dense(self):
        net = small_gen(variant="sparse_kwinners", seed=3)
        for name, layer in net.named_layers():
            if name.startswith("dec."):
                assert not isinstance(layer, (SparseConv2d, KWinners))

    def test_dense_has_no_sparse_parts(self):
        net = small_gen(variant="dense_relu", seed=3)
        for _, layer in net.named_layers():
            assert not isinstance(layer, (SparseConv2d, KWinners))

    def test_sparse_nonzero_ratio(self):
        dense = small_gen(variant="dense_relu", seed=4)
        sparse = small_gen(variant="sparse_kwinners", weight_sparsity=0.5, seed=4)
        n_dense = count_nonzero_weights(dense)
        n_sparse = count_nonzero_weights(sparse)
        # only encoder and residual convolutions are masked, so the whole-net
        # ratio sits between 0.5 and 1
        assert 0.5 < n_sparse / n_dense < 0.95

    def test_mask_determinism_across_builds(self):
        a = small_gen(variant="sparse_kwinners", seed=5)
        b = small_gen(variant="sparse_kwinners", seed=5)
        for (na, la), (_, lb) in zip(a.named_layers(), b.named_layers()):
            if isinstance(la, SparseConv2d):
                assert np.array_equal(la.mask.data, lb.mask.data), na


class TestDiscriminatorShape:
    def test_64_input_gives_6x6(self):
        net = DiscriminatorNet(width=4, seed=0)
        out = net.forward(Tensor(np.zeros((1, 1, 64, 64))))
        assert out.data.shape == (1, 1, 6, 6)

    def test_256_input_gives_30x30(self):
        net = DiscriminatorNet(width=2, seed=0)
        out = net.forward(Tensor(np.zeros((1, 1, 256, 256))))
        assert out.data.shape == (1, 1, 30, 30)

    def test_small_input_rejected(self):
        net = DiscriminatorNet(width=4)
        for size in (8, 16, 23):
            with pytest.raises(ValueError):
                net.forward(Tensor(np.zeros((1, 1, size, size))))

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            DiscriminatorNet(width=4, activation="gelu")

    def test_leaky_variant_builds(self):
        net = DiscriminatorNet(width=4, activation="leaky")
        assert not any(isinstance(l, RReLU) for _, l in net.named_layers())

    def test_rrelu_variant_uses_rrelu(self):
        net = DiscriminatorNet(width=4, activation="rrelu")
        assert sum(isinstance(l, RReLU) for _, l in net.named_layers()) == 4


class TestPatchLocality:
    def test_interior_crop_covariance(self):
        # shifting the input by the coarse stride shifts the logit map by one
        # cell, away from border effects; the per-image normalizers are
        # stubbed out because their crop-dependent statistics mask the
        # geometric property under test
        net = DiscriminatorNet(width=4, activation="leaky", seed=6)

        class _Identity:
            def forward(self, x, train=False):
                return x

        net.layers = [(n, _Identity() if n.startswith("norm") else l)
                      for n, l in net.layers]
        rng = np.random.default_rng(8)
        big = rng.uniform(-1, 1, size=(1, 1, 136, 128))
        out_a = net.forward(Tensor(big[:, :, :128, :])).data
        out_b = net.forward(Tensor(big[:, :, 8:, :])).data
        # stride product of the three stride-2 layers is 8, i.e. one cell
        inner_a = out_a[:, :, 6:-5, 5:-5]
        inner_b = out_b[:, :, 5:-6, 5:-5]
        assert inner_a.shape == inner_b.shape
        assert np.max(np.abs(inner_a - inner_b)) < 1e-9


class TestInitWeights:
    def test_statistics(self):
        net = GeneratorNet(width=16, n_res=2, seed=9)
        ws = np.concatenate([
            l.weight.data.ravel() for _, l in net.named_layers()
            if isinstance(l, (Conv2d, ConvTranspose2d))])
        assert ws.size > 100000
        assert abs(float(ws.mean())) < 5e-4
        assert 0.0195 < float(ws.std()) < 0.0205

    def test_biases_zero_norms_neutral(self):
        net = small_gen(seed=10)
        for _, layer in net.named_layers():
            if isinstance(layer, (Conv2d, ConvTranspose2d)) and layer.bias is not None:
                assert np.all(layer.bias.data == 0.0)
            if hasattr(layer, "gain"):
                assert np.all(layer.gain.data == 1.0)
                assert np.all(layer.shift.data == 0.0)

    def test_seed_determinism(self):
        a = small_gen(seed=11)
        b = small_gen(seed=11)
        c = small_gen(seed=12)
        xa = np.concatenate([p.data.ravel() for p in a.params()])
        xb = np.concatenate([p.data.ravel() for p in b.params()])
        xc = np.concatenate([p.data.ravel() for p in c.params()])
        assert np.array_equal(xa, xb)
        assert not np.array_equal(xa, xc)

    def test_reinit_respects_masks(self):
        net = small_gen(variant="sparse_kwinners", seed=13)
        init_weights(net, 99)
        for _, layer in net.named_layers():
            if isinstance(layer, SparseConv2d):
                assert np.all(layer.weight.data[layer.mask.data == 0] == 0.0)


class TestWholeNetGradients:
    def _check(self, net, size=16):
        rng = np.random.default_rng(20)
        x = rng.uniform(-0.5, 0.5, size=(1, 1, size, size))

        tape = Tape()
        with tape:
            t = Tensor(x, requires_grad=True)
            loss = ag.mean(net.forward(t))
        ag.backward(loss, tape)

        def f(xv):
            with Tape():
                return ag.mean(net.forward(Tensor(xv))).item()

        idx = rng.choice(x.size, size=12, replace=False)
        num = numeric_grad_sample(f, x, idx)
        ana = t.grad.reshape(-1)[idx]
        assert np.max(np.abs(ana - num) / np.maximum(1e-3, np.abs(num))) < 2e-3

        # a sampled parameter check on the first convolution
        conv = next(l for _, l in net.named_layers() if hasattr(l, "weight"))
        w0 = conv.weight.data.copy()
        for p in net.params():
            p.grad = None
        tape = Tape()
        with tape:
            loss = ag.mean(net.forward(Tensor(x)))
        ag.backward(loss, tape)
        widx = rng.choice(w0.size, size=8, replace=False)

        def fw(wv):
            conv.weight.data[...] = wv
            with Tape():
                v = ag.mean(net.forward(Tensor(x))).item()
            conv.weight.data[...] = w0
            return v

        num_w = numeric_grad_sample(fw, w0, widx)
        ana_w = conv.weight.grad.reshape(-1)[widx]
        assert np.max(np.abs(ana_w - num_w) / np.maximum(1e-3, np.abs(num_w))) < 2e-3

    def test_generator_gradcheck(self):
        self._check(small_gen(seed=21))

    def test_discriminator_gradcheck(self):
        net = DiscriminatorNet(width=4, activation="leaky", seed=22)
        self._check(net, size=32)


class TestNoiseDeviation:
    def test_zero_sigma_zero_deviation(self):
        net = small_gen(seed=30)
        imgs = [np.random.default_rng(0).integers(0, 256, size=(16, 16)).astype(np.float64)]
        assert output_noise_deviation(net, imgs, 0.0) == 0.0

    def test_positive_sigma_positive_and_deterministic(self):
        net = small_gen(seed=31)
        imgs = [np.random.default_rng(1).integers(0, 256, size=(16, 16)).astype(np.float64)]
        a = output_noise_deviation(net, imgs, 0.1, seed=5)
        b = output_noise_deviation(net, imgs, 0.1, seed=5)
        assert a > 0.0
        assert a == b
