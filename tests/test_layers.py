import itertools
import math
import tracemalloc

import numpy as np
import pytest

from drawcycle import autograd as ag
from drawcycle.autograd import Tape, Tensor
from drawcycle.layers import (
    Conv2d, InstanceNorm, KWinners, ReLU, ResidualBlock, RReLU,
    NORM_EPS, SparseConv2d, _top_k_mask, instance_norm, kwinners_forward,
    kwinners_update_duty_cycle, relu_family, rrelu_forward, sparse_mask_init,
)
from drawcycle.models import init_weights

from gradcheck import REL_TOL, numeric_grad, rel_error


def _input_grad(op, x, g):
    """Gradient of sum(op(x) * g) with respect to x."""
    tape = Tape()
    with tape:
        t = Tensor(x, requires_grad=True)
        loss = ag.reduce(ag.mul(op(t), Tensor(g)), "sum")
    ag.backward(loss, tape)
    return t.grad


class TestSparseMask:
    def test_zero_sparsity_all_ones(self):
        assert np.all(sparse_mask_init((2, 3, 3, 3), 0.0, 0) == 1.0)

    def test_half_sparsity_count(self):
        mask = sparse_mask_init((4, 25), 0.5, 1)
        assert int(mask.sum()) == 50

    def test_ceil_count(self):
        mask = sparse_mask_init((3, 3), 0.5, 2)
        assert int(mask.sum()) == math.ceil(0.5 * 9)

    def test_seed_determinism(self):
        a = sparse_mask_init((5, 20), 0.7, 42)
        b = sparse_mask_init((5, 20), 0.7, 42)
        c = sparse_mask_init((5, 20), 0.7, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sparsity_one_rejected(self):
        with pytest.raises(ValueError):
            sparse_mask_init((3, 3), 1.0, 0)


def masked_conv(in_ch, out_ch, weight_sparsity, mask_seed):
    """A 3x3 padding-1 sparse convolution whose mask is drawn from mask_seed."""
    layer = SparseConv2d(in_ch, out_ch, 3, padding=1, weight_sparsity=weight_sparsity)
    layer.mask.data[...] = sparse_mask_init(layer.weight.shape, weight_sparsity, mask_seed)
    return layer


class TestSparseConv:
    def test_mask_all_zeros_until_drawn(self):
        layer = SparseConv2d(2, 3, 3, weight_sparsity=0.5)
        assert layer.weight_sparsity == 0.5
        assert np.all(layer.mask.data == 0.0) and np.all(layer.weight.data == 0.0)

    def test_all_ones_mask_matches_dense(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        sparse = masked_conv(2, 3, 0.0, 0)
        sparse.weight.data[...] = rng.normal(size=sparse.weight.shape)
        dense = Conv2d(2, 3, 3, padding=1)
        dense.weight.data[...] = sparse.weight.data
        assert np.array_equal(sparse.forward(x).data, dense.forward(x).data)

    def test_all_zero_weights_constant_bias(self):
        layer = masked_conv(1, 2, 0.5, 1)
        layer.bias.data[...] = [0.7, -0.3]
        x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 4, 4)))
        out = layer.forward(x)
        # weights start at zero, so only the bias shows
        for c, b in enumerate([0.7, -0.3]):
            assert np.allclose(out.data[:, c], b)

    def test_matches_dense_with_prezeroed_weights(self):
        rng = np.random.default_rng(3)
        layer = masked_conv(2, 3, 0.6, 7)
        layer.weight.data[...] = rng.normal(size=layer.weight.shape) * layer.mask.data
        dense = Conv2d(2, 3, 3, padding=1)
        dense.weight.data[...] = layer.weight.data * layer.mask.data
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        assert np.allclose(layer.forward(x).data, dense.forward(x).data, atol=1e-14)

    def test_masked_weights_get_zero_gradient(self):
        rng = np.random.default_rng(4)
        layer = masked_conv(1, 2, 0.5, 9)
        layer.weight.data[...] = rng.normal(size=layer.weight.shape) * layer.mask.data
        tape = Tape()
        with tape:
            loss = ag.mean(layer.forward(Tensor(rng.normal(size=(1, 1, 4, 4)))))
        ag.backward(loss, tape)
        assert np.all(layer.weight.grad[layer.mask.data == 0] == 0.0)
        assert np.any(layer.weight.grad[layer.mask.data == 1] != 0.0)


class TestInstanceNorm:
    def test_constant_channel_maps_to_zero(self):
        layer = InstanceNorm(2)
        x = Tensor(np.full((1, 2, 4, 4), 3.7))
        assert np.allclose(layer.forward(x).data, 0.0, atol=1e-3)

    def test_standardization(self):
        rng = np.random.default_rng(0)
        layer = InstanceNorm(3)
        out = layer.forward(Tensor(rng.normal(2.0, 5.0, size=(2, 3, 8, 8)))).data
        for b in range(2):
            for c in range(3):
                ch = out[b, c]
                assert abs(ch.mean()) < 1e-9
                assert ch.var() == pytest.approx(1.0, rel=1e-4)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2, 3, 3))
        gain = rng.normal(1.0, 0.1, size=2)
        shift = rng.normal(size=2)

        def run(xv, gv, sv):
            return ag.mean(ag.tanh(instance_norm(
                Tensor(xv, requires_grad=False),
                Tensor(gv, requires_grad=False),
                Tensor(sv, requires_grad=False))))

        tape = Tape()
        with tape:
            tx, tg, ts = Tensor(x, True), Tensor(gain, True), Tensor(shift, True)
            loss = ag.mean(ag.tanh(instance_norm(tx, tg, ts)))
        ag.backward(loss, tape)
        for arr, grad, pick in ((x, tx.grad, 0), (gain, tg.grad, 1), (shift, ts.grad, 2)):
            def f(v, pick=pick):
                args = [x, gain, shift]
                args[pick] = v
                with Tape():
                    return run(*args).item()
            assert rel_error(grad, numeric_grad(f, arr)) < REL_TOL

    def test_matches_np_var_reference(self):
        rng = np.random.default_rng(7)
        x = rng.normal(1.0, 3.0, size=(2, 3, 9, 7))
        gain, shift = rng.normal(size=3), rng.normal(size=3)
        mu = x.mean(axis=(2, 3), keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=(2, 3), keepdims=True) + NORM_EPS)
        want = gain.reshape(1, 3, 1, 1) * ((x - mu) * inv) + shift.reshape(1, 3, 1, 1)
        out = instance_norm(Tensor(x), Tensor(gain), Tensor(shift)).data
        assert out.tobytes() == want.tobytes()

    def test_single_element_degenerates_to_shift(self):
        layer = InstanceNorm(2)
        layer.shift.data[:] = [0.5, -1.0]
        out = layer.forward(Tensor(np.array([[[[3.0]], [[-7.0]]]])))
        assert np.allclose(out.data[0, :, 0, 0], [0.5, -1.0])


class TestReluFamily:
    def test_relu_values(self):
        out = relu_family(Tensor([-1.0, 2.0]), 0.0)
        assert np.array_equal(out.data, [0.0, 2.0])

    def test_leaky_value(self):
        assert relu_family(Tensor([-5.0]), 0.2).data[0] == -1.0

    def test_leaky_alpha_one_is_identity(self):
        x = np.random.default_rng(0).normal(size=8)
        assert np.array_equal(relu_family(Tensor(x), 1.0).data, x)

    def test_slope_at_zero_from_negative_branch(self):
        tape = Tape()
        with tape:
            x = Tensor([0.0], requires_grad=True)
            loss = ag.reduce(relu_family(x, 0.3), "sum")
        ag.backward(loss, tape)
        assert x.grad[0] == 0.3


    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    def test_gradient_bits_are_g_times_slope(self, alpha):
        x = np.array([-2.0, -0.0, 0.0, 0.0, -0.0, 1e-300, -1e-300, 3.0])
        g = np.array([1.5, -2.0, -0.0, 3.0, 4.0, -0.5, -1.0, -0.0])
        got = _input_grad(lambda t: relu_family(t, alpha), x, g)
        assert got.tobytes() == (g * np.where(x > 0, 1.0, alpha)).tobytes()


class TestRReLU:
    def test_eval_slope(self):
        out = rrelu_forward(Tensor([-2.0]), np.random.default_rng(0), train=False)
        assert out.data[0] == pytest.approx(-2.0 * (11.0 / 48.0), abs=1e-12)

    def test_positive_passthrough_both_modes(self):
        x = np.abs(np.random.default_rng(1).normal(size=16)) + 0.01
        for train in (False, True):
            out = rrelu_forward(Tensor(x), np.random.default_rng(2), train=train)
            assert np.array_equal(out.data, x)

    def test_train_range_and_mean(self):
        rng = np.random.default_rng(3)
        x = np.full(100000, -1.0)
        out = rrelu_forward(Tensor(x), rng, train=True).data
        assert np.all(out >= -1.0 / 3.0 - 1e-12)
        assert np.all(out <= -1.0 / 8.0 + 1e-12)
        assert out.mean() == pytest.approx(-11.0 / 48.0, abs=0.002)

    def test_train_backward_reuses_sampled_slope(self):
        tape = Tape()
        with tape:
            x = Tensor(np.full(50, -1.0), requires_grad=True)
            out = rrelu_forward(x, np.random.default_rng(5), train=True)
            loss = ag.reduce(out, "sum")
        ag.backward(loss, tape)
        assert np.allclose(x.grad, -out.data)  # slope = out / x with x = -1


class TestKWinners:
    def test_k_equals_n_identity(self):
        state = KWinners(k=4)
        x = np.random.default_rng(0).normal(size=(2, 4))
        assert np.array_equal(kwinners_forward(Tensor(x), state).data, x)

    def test_topk(self):
        state = KWinners(k=2, boost_strength=0.0)
        out = kwinners_forward(Tensor([[3.0, 1.0, 2.0, 5.0]]), state)
        assert np.array_equal(out.data, [[3.0, 0.0, 0.0, 5.0]])

    def test_tie_break_lowest_index(self):
        state = KWinners(k=1, boost_strength=0.0)
        out = kwinners_forward(Tensor([[2.0, 2.0, 1.0]]), state)
        assert np.array_equal(out.data, [[2.0, 0.0, 0.0]])

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("train", [False, True])
    def test_matches_stable_argsort(self, B, train):
        # tie-heavy integer scores with signed zeros and NaNs, against a stable
        # argsort of -scores: ties go to the lowest index and NaNs rank last,
        # also when fewer than k scores are numbers
        rng = np.random.default_rng(7)
        n = 40
        for k, nan_frac in itertools.product((1, math.ceil(0.3 * n), n), (0.1, 0.8)):
            x = rng.integers(-3, 4, size=(B, 2, 4, 5)).astype(np.float64)
            x[x == 0] *= rng.choice([1.0, -1.0], size=x.shape)[x == 0]
            x[rng.random(x.shape) < nan_frac] = np.nan
            state = KWinners(k=k)
            state._bind(n)
            state.duty_cycle[:] = rng.integers(0, 3, size=n) / 4.0
            duty = state.duty_cycle.copy()
            flat = x.reshape(B, n)
            scores = flat * np.exp(state.boost_strength * (k / n - duty)) if train else flat
            order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            keep = np.zeros((B, n))
            keep[np.arange(B)[:, None], order] = 1.0
            out = kwinners_forward(Tensor(x), state, train=train).data
            assert np.array_equal(out, (flat * keep).reshape(x.shape), equal_nan=True)
            if train:
                a = 1.0 / state.duty_period
                assert np.array_equal(state.duty_cycle, duty * (1.0 - a) + a * keep.mean(axis=0))
            else:
                assert np.array_equal(state.duty_cycle, duty)

    def test_boosting_prefers_low_duty_unit(self):
        state = KWinners(k=1, boost_strength=1.5, duty_period=1000)
        state._bind(2)
        state.duty_cycle[:] = [0.9, 0.0]
        out = kwinners_forward(Tensor([[1.0, 1.0]]), state, train=True)
        assert out.data[0, 1] == 1.0 and out.data[0, 0] == 0.0

    def test_boost_neutrality(self):
        x = np.random.default_rng(1).normal(size=(3, 10))
        a = KWinners(k=3, boost_strength=0.0)
        a._bind(10)
        a.duty_cycle[:] = np.random.default_rng(2).uniform(size=10)
        b = KWinners(k=3, boost_strength=0.0)
        out_a = kwinners_forward(Tensor(x), a, train=True).data
        out_b = kwinners_forward(Tensor(x), b, train=True).data
        assert np.array_equal(out_a, out_b)

    def test_cardinality_and_grad_support(self):
        rng = np.random.default_rng(3)
        state = KWinners(k=5, boost_strength=1.5)
        for _ in range(10):
            x = rng.normal(size=(2, 1, 4, 5))
            tape = Tape()
            with tape:
                t = Tensor(x, requires_grad=True)
                out = kwinners_forward(t, state, train=True)
                loss = ag.reduce(ag.mul(out, out), "sum")
            ag.backward(loss, tape)
            flat = out.data.reshape(2, -1)
            assert np.all((flat != 0).sum(axis=1) == 5)
            assert np.all(t.grad.reshape(2, -1)[flat == 0] == 0.0)

    @pytest.mark.parametrize("train", [False, True])
    def test_gradient_bits_are_g_times_mask(self, train):
        # zeros and -0.0 tie; the winner mask multiplies g as 1.0 / 0.0
        x = np.array([[0.0, -0.0, -1.0, 2.0, 0.0, -0.0, -3.0, 1e-300]])
        g = np.array([[-1.5, -2.0, -0.0, 3.0, -4.0, 0.5, -1.0, 2.0]])
        state = KWinners(k=4, boost_strength=0.0)
        keep = _top_k_mask(x, 4).astype(np.float64)
        got = _input_grad(lambda t: kwinners_forward(t, state, train=train), x, g)
        assert got.tobytes() == (g * keep).tobytes()

    def test_eval_at_other_size_keeps_fraction(self):
        rng = np.random.default_rng(6)
        state = KWinners(k_frac=0.3)
        small = Tensor(rng.normal(size=(1, 4, 32, 32)))
        kwinners_forward(small, state, train=True)
        bound = kwinners_forward(small, state).data
        assert np.count_nonzero(bound) == math.ceil(0.3 * small.size)
        big = kwinners_forward(Tensor(rng.normal(size=(1, 4, 64, 64))), state).data
        assert np.count_nonzero(big) / big.size >= 0.29
        assert np.array_equal(kwinners_forward(small, state).data, bound)

    def test_k_too_large_rejected(self):
        state = KWinners(k=5)
        with pytest.raises(ValueError):
            kwinners_forward(Tensor(np.zeros((1, 3))), state)

    def test_boosting_spreads_activity(self):
        # boosting should hand wins to otherwise-starved units
        bias = np.array([3.0, 2.0, 1.0, 0.0, 0.0, -1.0, -2.0, -3.0])
        freqs = {}
        for strength in (0.0, 2.0):
            rng = np.random.default_rng(4)
            state = KWinners(k=2, boost_strength=strength, duty_period=100)
            wins = np.zeros(8)
            steps = 3000
            for _ in range(steps):
                x = rng.normal(size=(1, 8)) + bias
                out = kwinners_forward(Tensor(x), state, train=True)
                wins += (out.data[0] != 0)
            freqs[strength] = wins / steps
        target = 2.0 / 8.0
        spread_off = np.abs(freqs[0.0] - target).sum()
        spread_on = np.abs(freqs[2.0] - target).sum()
        assert spread_on < spread_off
        # the most disadvantaged unit never wins without boosting
        assert freqs[0.0][-1] == 0.0
        assert freqs[2.0][-2] > 0.0


class TestDutyCycleUpdate:
    def test_always_winning_monotone_to_one(self):
        state = KWinners(k=1, duty_period=10)
        state._bind(2)
        prev = 0.0
        for _ in range(100):
            kwinners_update_duty_cycle(state, np.array([1.0, 0.0]))
            assert state.duty_cycle[0] > prev
            prev = state.duty_cycle[0]
        assert prev > 0.99

    def test_never_winning_stays_zero(self):
        state = KWinners(k=1, duty_period=10)
        state._bind(2)
        for _ in range(50):
            kwinners_update_duty_cycle(state, np.array([1.0, 0.0]))
        assert state.duty_cycle[1] == 0.0

    def test_single_update_from_zero(self):
        state = KWinners(k=1, duty_period=1000)
        state._bind(1)
        kwinners_update_duty_cycle(state, np.array([1.0]))
        assert state.duty_cycle[0] == pytest.approx(0.001, abs=1e-15)


class TestResidualBlock:
    def test_zero_weights_identity(self):
        block = ResidualBlock(3, conv=Conv2d, act=ReLU)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 5, 5)))
        out = block.forward(x)
        assert np.array_equal(out.data, x.data)

    def test_shape_preserved(self):
        block = ResidualBlock(4, conv=SparseConv2d, act=KWinners)
        init_weights(block, 0)
        # init_weights reaches conv1 first, then conv2
        assert np.array_equal(block.conv1.mask.data, sparse_mask_init((4, 4, 3, 3), 0.5, 1))
        assert np.array_equal(block.conv2.mask.data, sparse_mask_init((4, 4, 3, 3), 0.5, 2))
        for conv in (block.conv1, block.conv2):
            assert np.all(conv.weight.data[conv.mask.data == 0] == 0.0)
            assert np.all(conv.weight.data[conv.mask.data == 1] != 0.0)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 4, 6, 6)))
        assert block.forward(x).data.shape == x.data.shape

    def test_gradient_through_skip(self):
        rng = np.random.default_rng(5)
        block = ResidualBlock(2, conv=Conv2d, act=ReLU)
        block.conv1.weight.data[...] = rng.normal(0, 0.3, block.conv1.weight.shape)
        block.conv2.weight.data[...] = rng.normal(0, 0.3, block.conv2.weight.shape)
        x = rng.normal(size=(1, 2, 4, 4))

        def f(xv):
            with Tape():
                return ag.mean(ag.tanh(block.forward(Tensor(xv)))).item()

        tape = Tape()
        with tape:
            t = Tensor(x, requires_grad=True)
            loss = ag.mean(ag.tanh(block.forward(t)))
        ag.backward(loss, tape)
        assert rel_error(t.grad, numeric_grad(f, x)) < REL_TOL


class TestTapeMemory:
    def test_forward_keeps_only_what_backward_reads(self):
        # conv2d -> instance_norm -> relu on an active tape: backward reads
        # the conv input (held by the caller), instance norm's xhat and
        # relu's 1-byte mask; the caller holds the output.  Holding the
        # conv and norm outputs or a float slope would keep 5 or more
        # activations beyond the input.
        rng = np.random.default_rng(40)
        x = Tensor(rng.normal(size=(1, 8, 32, 32)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
        gain, shift = Tensor(np.ones(8), requires_grad=True), Tensor(np.zeros(8), requires_grad=True)
        tape = Tape()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with tape:
                out = relu_family(instance_norm(ag.conv2d(x, w, padding=1), gain, shift), 0.0)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2.5 * x.data.nbytes
        with tape:
            loss = ag.reduce(out, "sum")
        ag.backward(loss, tape)
        assert x.grad.shape == x.data.shape
