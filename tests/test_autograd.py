import math

import numpy as np
import pytest

from drawcycle import autograd as ag
from drawcycle.autograd import Tape, Tensor

from gradcheck import REL_TOL, numeric_grad, rel_error


def scalar_loss(expr_fn, *arrays):
    """Run expr_fn on tensors built from arrays inside a fresh tape and
    return (loss value, input gradients)."""
    tape = Tape()
    with tape:
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        loss = expr_fn(*tensors)
    ag.backward(loss, tape)
    return loss.item(), [t.grad for t in tensors]


class TestElementwise:
    def test_add(self):
        out = ag.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_mul_by_zeros(self):
        x = np.array([1.5, -2.0, 3.0])
        _, (gx, _) = scalar_loss(lambda a, b: ag.reduce(ag.mul(a, b), "sum"), x, np.zeros(3))
        assert np.array_equal(gx, np.zeros(3))

    def test_sub_self_is_zero(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        out = ag.sub(Tensor(x), Tensor(x))
        assert np.array_equal(out.data, np.zeros((4, 5)))

    def test_scalar_broadcast(self):
        out = ag.add(Tensor([1.0, 2.0]), Tensor(10.0))
        assert np.array_equal(out.data, [11.0, 12.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ag.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_tanh_zero(self):
        assert ag.tanh(Tensor([0.0])).data[0] == 0.0

    def test_abs_value_and_grad(self):
        _, (g,) = scalar_loss(lambda a: ag.reduce(ag.abs_(a), "sum"), np.array([-3.5]))
        assert ag.abs_(Tensor([-3.5])).data[0] == 3.5
        assert g[0] == -1.0

    def test_abs_subgradient_at_zero(self):
        _, (g,) = scalar_loss(lambda a: ag.reduce(ag.abs_(a), "sum"), np.array([0.0]))
        assert g[0] == 0.0

    def test_softplus_at_zero(self):
        out = ag.softplus(Tensor([0.0]))
        assert out.data[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ag.log(Tensor([1.0, 0.0]))

    @pytest.mark.parametrize("kind", ["neg", "tanh", "sigmoid", "softplus"])
    def test_unary_gradients(self, kind):
        x = np.random.default_rng(7).normal(size=(3, 4))

        def f(xv):
            t = Tape()
            with t:
                return ag.mean(getattr(ag, kind)(Tensor(xv))).item()

        _, (g,) = scalar_loss(lambda a: ag.mean(getattr(ag, kind)(a)), x)
        assert rel_error(g, numeric_grad(f, x)) < REL_TOL

    def test_log_gradient(self):
        x = np.random.default_rng(8).uniform(0.5, 3.0, size=(6,))

        def f(xv):
            with Tape():
                return ag.mean(ag.log(Tensor(xv))).item()

        _, (g,) = scalar_loss(lambda a: ag.mean(ag.log(a)), x)
        assert rel_error(g, numeric_grad(f, x)) < REL_TOL


class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 5, 5))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        out = ag.conv2d(Tensor(x), Tensor(w))
        assert np.array_equal(out.data, x)

    def test_zero_input_gives_bias(self):
        x = np.zeros((1, 2, 4, 4))
        w = np.random.default_rng(1).normal(size=(3, 2, 3, 3))
        b = np.array([1.0, -2.0, 0.5])
        out = ag.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1)
        for c in range(3):
            assert np.allclose(out.data[:, c], b[c])

    def test_known_2x2_kernel(self):
        x = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], float).reshape(1, 1, 3, 3)
        w = np.array([[1, 0], [0, 1]], float).reshape(1, 1, 2, 2)
        out = ag.conv2d(Tensor(x), Tensor(w))
        # frozen from the nested-sum oracle below
        assert np.array_equal(out.data.reshape(2, 2), [[6.0, 8.0], [12.0, 14.0]])

    def test_against_nested_sum_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 6, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        stride, pad = 2, 1
        out = ag.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        Ho = (6 + 2 * pad - 3) // stride + 1
        Wo = (7 + 2 * pad - 3) // stride + 1
        ref = np.zeros((2, 4, Ho, Wo))
        for n in range(2):
            for o in range(4):
                for i in range(Ho):
                    for j in range(Wo):
                        acc = b[o]
                        for c in range(3):
                            for u in range(3):
                                for v in range(3):
                                    acc += xp[n, c, i * stride + u, j * stride + v] * w[o, c, u, v]
                        ref[n, o, i, j] = acc
        assert np.allclose(out.data, ref, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ag.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError):
            ag.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_gradients(self, stride, pad):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)

        def run(xv, wv, bv):
            return ag.mean(ag.conv2d(Tensor(xv), Tensor(wv), Tensor(bv),
                                     stride=stride, padding=pad))

        _, (gx, gw, gb) = scalar_loss(
            lambda a, ww, bb: ag.mean(ag.conv2d(a, ww, bb, stride=stride, padding=pad)),
            x, w, b)
        for arr, g, pick in ((x, gx, 0), (w, gw, 1), (b, gb, 2)):
            def f(v, pick=pick):
                args = [x, w, b]
                args[pick] = v
                with Tape():
                    return run(*args).item()
            assert rel_error(g, numeric_grad(f, arr)) < REL_TOL

    @pytest.mark.parametrize("C,O", [(4, 2), (3, 3), (2, 5)])
    @pytest.mark.parametrize("K", [3, 4, 7])
    def test_stride1_input_gradient_matches_col2im(self, C, O, K):
        # reference: scatter the column gradients back with col2im
        rng = np.random.default_rng(17)
        B, H, W = 2, 9, 8
        for pad in range(K):
            x = rng.normal(size=(B, C, H, W))
            w = rng.normal(size=(O, C, K, K))
            Ho, Wo = H + 2 * pad - K + 1, W + 2 * pad - K + 1
            g = rng.normal(size=(B, O, Ho, Wo))
            _, (gx,) = scalar_loss(
                lambda a: ag.reduce(ag.mul(ag.conv2d(a, Tensor(w), padding=pad), Tensor(g)), "sum"),
                x)
            cols = np.matmul(w.reshape(O, C * K * K).T, g.reshape(B, O, Ho * Wo))
            ref = ag._col2im(cols, C, H, W, K, 1, pad, Ho, Wo)
            np.testing.assert_allclose(gx, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


class TestConvTranspose2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 4, 4))
        w = np.zeros((2, 2, 1, 1))
        w[0, 0] = w[1, 1] = 1.0
        out = ag.conv_transpose2d(Tensor(x), Tensor(w))
        assert np.allclose(out.data, x)

    def test_block_broadcast(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        w = np.ones((1, 1, 2, 2))
        out = ag.conv_transpose2d(Tensor(x), Tensor(w), stride=2)
        # scatter-sum oracle: disjoint 2x2 blocks each holding one input value
        ref = np.kron(x[0, 0], np.ones((2, 2)))
        assert np.array_equal(out.data[0, 0], ref)

    @pytest.mark.parametrize("H,K,s,p", [(5, 3, 2, 1), (4, 4, 2, 1), (6, 3, 1, 1)])
    def test_adjointness(self, H, K, s, p):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, H, H))
        w = Tensor(rng.normal(size=(2, 3, K, K)))
        cx = ag.conv2d(Tensor(x), w, stride=s, padding=p)
        y = rng.normal(size=cx.data.shape)
        lhs = np.sum(cx.data * y)
        rhs = np.sum(x * ag.conv_transpose2d(Tensor(y), w, stride=s, padding=p).data)
        assert abs(lhs - rhs) < 1e-10

    def test_gradients(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(1, 3, 3, 3))
        w = rng.normal(size=(3, 2, 4, 4))
        b = rng.normal(size=2)

        _, (gx, gw, gb) = scalar_loss(
            lambda a, ww, bb: ag.mean(ag.conv_transpose2d(a, ww, bb, stride=2, padding=1)),
            x, w, b)
        for arr, g, pick in ((x, gx, 0), (w, gw, 1), (b, gb, 2)):
            def f(v, pick=pick):
                args = [x, w, b]
                args[pick] = v
                with Tape():
                    return ag.mean(ag.conv_transpose2d(
                        Tensor(args[0]), Tensor(args[1]), Tensor(args[2]),
                        stride=2, padding=1)).item()
            assert rel_error(g, numeric_grad(f, arr)) < REL_TOL


class TestReflectPad:
    def test_pad_zero_is_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 3, 3))
        assert np.array_equal(ag.reflect_pad(Tensor(x), 0).data, x)

    def test_mirror_row(self):
        x = np.array([[1.0, 2.0, 3.0]] * 3).reshape(1, 1, 3, 3)
        out = ag.reflect_pad(Tensor(x), 1)
        assert np.array_equal(out.data[0, 0, 1], [2.0, 1.0, 2.0, 3.0, 2.0])

    def test_pad_too_large_rejected(self):
        with pytest.raises(ValueError):
            ag.reflect_pad(Tensor(np.zeros((1, 1, 3, 3))), 3)

    def test_gradient(self):
        x = np.random.default_rng(2).normal(size=(1, 1, 4, 4))

        def f(xv):
            with Tape():
                return ag.mean(ag.tanh(ag.reflect_pad(Tensor(xv), 2))).item()

        _, (g,) = scalar_loss(lambda a: ag.mean(ag.tanh(ag.reflect_pad(a, 2))), x)
        assert rel_error(g, numeric_grad(f, x)) < REL_TOL

    @pytest.mark.parametrize("pad", [0, 1, 3, 6])
    def test_backward_matches_add_at(self, pad):
        # reference: np.add.at of each padded entry onto the entry it copies;
        # the two sum up to 9 terms per entry in different orders
        rng = np.random.default_rng(19)
        B, C, H, W = 2, 3, 7, 9
        g = rng.normal(size=(B, C, H + 2 * pad, W + 2 * pad))
        _, (gx,) = scalar_loss(
            lambda a: ag.reduce(ag.mul(ag.reflect_pad(a, pad), Tensor(g)), "sum"),
            rng.normal(size=(B, C, H, W)))
        rows = np.abs(np.arange(-pad, H + pad))
        rows = np.where(rows >= H, 2 * (H - 1) - rows, rows)
        cols = np.abs(np.arange(-pad, W + pad))
        cols = np.where(cols >= W, 2 * (W - 1) - cols, cols)
        index = (np.arange(B)[:, None, None, None], np.arange(C)[None, :, None, None],
                 rows[None, None, :, None], cols[None, None, None, :])
        ref, ref_abs = np.zeros((B, C, H, W)), np.zeros((B, C, H, W))
        np.add.at(ref, index, g)
        np.add.at(ref_abs, index, np.abs(g))
        assert np.all(np.abs(gx - ref) <= 8 * np.finfo(np.float64).eps * ref_abs)


class TestReduce:
    def test_mean(self):
        assert ag.reduce(Tensor([2.0, 4.0, 6.0]), "mean").item() == 4.0

    def test_sum_zeros(self):
        assert ag.reduce(Tensor(np.zeros((3, 3))), "sum").item() == 0.0

    def test_mean_backward_distributes(self):
        _, (g,) = scalar_loss(lambda a: ag.mean(a), np.zeros(5))
        assert np.allclose(g, 0.2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ag.reduce(Tensor(np.zeros(0)), "mean")


class TestBackward:
    def test_sum_root_gives_ones(self):
        _, (g,) = scalar_loss(lambda a: ag.reduce(a, "sum"),
                              np.random.default_rng(0).normal(size=(2, 3)))
        assert np.array_equal(g, np.ones((2, 3)))

    def test_chain_rule_mean_square(self):
        _, (g,) = scalar_loss(lambda a: ag.mean(ag.mul(a, a)), np.array([1.0, 2.0]))
        assert np.allclose(g, [1.0, 2.0])  # 2x/N with N=2

    def test_composite_graph_vs_finite_differences(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 6))

        def expr(a):
            return ag.mean(ag.softplus(ag.mul(ag.tanh(a), ag.add(a, 0.5))))

        def f(xv):
            with Tape():
                return expr(Tensor(xv)).item()

        _, (g,) = scalar_loss(expr, x)
        assert rel_error(g, numeric_grad(f, x)) < REL_TOL

    def test_nonscalar_root_rejected(self):
        tape = Tape()
        with tape:
            x = Tensor(np.zeros(3), requires_grad=True)
            y = ag.add(x, 1.0)
        with pytest.raises(ValueError):
            ag.backward(y, tape)

    def test_repeated_backward_accumulates(self):
        tape = Tape()
        with tape:
            x = Tensor([1.0, 2.0], requires_grad=True)
            loss = ag.reduce(x, "sum")
        ag.backward(loss, tape)
        ag.backward(loss, tape)
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_determinism(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        outs = []
        for _ in range(2):
            tape = Tape()
            with tape:
                X = Tensor(x, requires_grad=True)
                loss = ag.mean(ag.tanh(ag.conv2d(X, Tensor(w), padding=1)))
            ag.backward(loss, tape)
            outs.append((loss.item(), X.grad.copy()))
        assert outs[0][0] == outs[1][0]
        assert np.array_equal(outs[0][1], outs[1][1])


class TestZeroGrad:
    def test_zeroing(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        x.grad = np.array([3.0, 4.0])
        ag.zero_grad([x])
        assert np.array_equal(x.grad, [0.0, 0.0])
        assert np.array_equal(x.data, [1.0, 2.0])

    def test_repeated_zero(self):
        x = Tensor([1.0], requires_grad=True)
        ag.zero_grad([x])
        ag.zero_grad([x])
        assert np.array_equal(x.grad, [0.0])

    def test_empty_list_noop(self):
        ag.zero_grad([])
