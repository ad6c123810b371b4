import math

import numpy as np
import pytest

from drawcycle import autograd as ag
from drawcycle.autograd import Tape, Tensor
from drawcycle.objectives import (
    cycle_consistency_loss, gan_loss_discriminator, gan_loss_generator,
    identity_loss, total_objective,
)

LN2 = math.log(2.0)


def t(v):
    return Tensor(np.asarray(v, dtype=np.float64))


class TestGeneratorGanLoss:
    def test_zero_logit_gives_ln2(self):
        assert gan_loss_generator(t([0.0])).item() == pytest.approx(LN2, abs=1e-12)

    def test_negative_three(self):
        # softplus(3) with a fooled discriminator pushed the wrong way
        assert gan_loss_generator(t([-3.0])).item() == pytest.approx(3.0485873515737420, abs=1e-12)

    def test_confident_real_logit_small_loss(self):
        assert gan_loss_generator(t([20.0])).item() < 1e-8

    def test_mean_over_patches(self):
        v = gan_loss_generator(t([[0.0, 0.0], [-3.0, 20.0]])).item()
        expect = (LN2 + LN2 + 3.0485873515737420 + math.log1p(math.exp(-20.0))) / 4.0
        assert v == pytest.approx(expect, abs=1e-12)

    def test_matches_naive_sigmoid_form(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-8, 8, size=100)
        v = gan_loss_generator(t(z)).item()
        naive = float(np.mean(-np.log(1.0 / (1.0 + np.exp(-z)))))
        assert v == pytest.approx(naive, abs=1e-12)

    def test_stable_at_extreme_logits(self):
        assert np.isfinite(gan_loss_generator(t([-1000.0, 1000.0])).item())

    def test_gradient_pushes_logits_up(self):
        tape = Tape()
        with tape:
            z = Tensor(np.array([0.0, -2.0, 3.0]), requires_grad=True)
            loss = gan_loss_generator(z)
        ag.backward(loss, tape)
        assert np.all(z.grad < 0.0)


class TestDiscriminatorGanLoss:
    def test_zero_logits(self):
        # 0.5 * (ln 2 + ln 2) = ln 2
        assert gan_loss_discriminator(t([0.0]), t([0.0])).item() == pytest.approx(LN2, abs=1e-12)

    def test_known_pair(self):
        # 0.5 * (softplus(-1) + softplus(1))
        v = gan_loss_discriminator(t([1.0]), t([1.0])).item()
        expect = 0.5 * (math.log1p(math.exp(-1.0)) + math.log1p(math.exp(1.0)))
        assert v == pytest.approx(expect, abs=1e-12)
        assert v == pytest.approx(0.8132616875182229, abs=1e-12)

    def test_perfect_discriminator_low_loss(self):
        assert gan_loss_discriminator(t([30.0]), t([-30.0])).item() < 1e-8

    def test_negation_symmetry(self):
        # swapping real/fake and negating logits leaves the loss unchanged
        rng = np.random.default_rng(1)
        real, fake = rng.normal(size=7), rng.normal(size=7)
        a = gan_loss_discriminator(t(real), t(fake)).item()
        b = gan_loss_discriminator(t(-fake), t(-real)).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_half_of_summed_terms(self):
        rng = np.random.default_rng(2)
        real, fake = rng.normal(size=5), rng.normal(size=5)
        v = gan_loss_discriminator(t(real), t(fake)).item()
        full = float(np.mean(np.logaddexp(0.0, -real)) + np.mean(np.logaddexp(0.0, fake)))
        assert v == pytest.approx(0.5 * full, abs=1e-12)


class TestCycleLoss:
    def test_perfect_reconstruction_zero(self):
        x = t(np.random.default_rng(0).normal(size=(1, 1, 4, 4)))
        y = t(np.random.default_rng(1).normal(size=(1, 1, 4, 4)))
        assert cycle_consistency_loss(x, x, y, y).item() == 0.0

    def test_constant_offset(self):
        x = t(np.zeros((1, 1, 2, 2)))
        xc = t(np.full((1, 1, 2, 2), 0.25))
        y = t(np.zeros((1, 1, 2, 2)))
        yc = t(np.full((1, 1, 2, 2), -0.5))
        assert cycle_consistency_loss(x, xc, y, yc).item() == pytest.approx(0.75, abs=1e-12)

    def test_mean_not_sum(self):
        x = t(np.zeros((1, 1, 8, 8)))
        xc = t(np.full((1, 1, 8, 8), 1.0))
        assert cycle_consistency_loss(x, xc, x, x).item() == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cycle_consistency_loss(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 3, 3))),
                                   t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 2, 2))))

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            args = [t(rng.normal(size=(1, 1, 3, 3))) for _ in range(4)]
            assert cycle_consistency_loss(*args).item() >= 0.0


class TestIdentityLoss:
    def test_identity_map_zero(self):
        y = t(np.random.default_rng(4).normal(size=(1, 1, 4, 4)))
        x = t(np.random.default_rng(5).normal(size=(1, 1, 4, 4)))
        assert identity_loss(y, y, x, x).item() == 0.0

    def test_same_functional_form_as_cycle(self):
        # both penalties are the same symmetric L1 functional applied to
        # different arguments
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b, c, d = (t(rng.normal(size=(2, 1, 3, 3))) for _ in range(4))
            assert identity_loss(a, b, c, d).item() == pytest.approx(
                cycle_consistency_loss(a, b, c, d).item(), abs=1e-12)


class TestTotalObjective:
    def test_weighted_sum(self):
        total = total_objective(t(1.0), t(2.0), t(0.5), 10.0)
        assert total.item() == pytest.approx(8.0, abs=1e-12)

    def test_identity_term_added_with_weight(self):
        total = total_objective(t(1.0), t(2.0), t(0.5), 10.0, idt=t(0.25), idt_weight=2.0)
        assert total.item() == pytest.approx(8.5, abs=1e-12)

    def test_lambda_zero_drops_cycle(self):
        total = total_objective(t(1.0), t(2.0), t(100.0), 0.0)
        assert total.item() == pytest.approx(3.0, abs=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            total_objective(t(1.0), t(1.0), t(1.0), -1.0)

    def test_gradient_scales_with_lambda(self):
        for lam in (1.0, 10.0):
            tape = Tape()
            with tape:
                cyc = Tensor(np.array(0.7), requires_grad=True)
                total = total_objective(t(0.0), t(0.0), cyc, lam)
            ag.backward(total, tape)
            assert cyc.grad == pytest.approx(lam, abs=1e-12)
