"""Loss functions: adversarial patch losses, cycle consistency, identity
mapping, and the combined generator objective.

Adversarial terms work on raw discriminator logits through the stable
softplus form, never materializing probabilities.  The discriminator loss
is halved, which slows its effective learning rate relative to the
generators.
"""

from dataclasses import dataclass, fields
from typing import Optional

from . import autograd as ag
from .autograd import Tensor


@dataclass
class LossBundle:
    """Realized per-step loss values; its fields, in order, are the loss
    columns of ``losses.csv``."""

    gan_g_xy: float
    gan_g_yx: float
    gan_d_x: float
    gan_d_y: float
    cyc: float
    idt: Optional[float]
    total_g: float

    def values(self):
        return [getattr(self, f.name) for f in fields(self)]


def gan_loss_generator(d_out_on_fake):
    """Generator adversarial term from the discriminator's logits on fakes:
    mean softplus(-logit) = mean -log D, the form whose gradient stays large
    while D rejects the fakes (Goodfellow et al., arXiv 1406.2661, section 3)."""
    return ag.mean(ag.softplus(ag.neg(d_out_on_fake)))


def gan_loss_discriminator(d_out_real, d_out_fake):
    """Halved sum of the real and fake binary terms:
    0.5 * (mean softplus(-real) + mean softplus(fake))."""
    real_term = ag.mean(ag.softplus(ag.neg(d_out_real)))
    fake_term = ag.mean(ag.softplus(d_out_fake))
    return ag.mul(ag.add(real_term, fake_term), 0.5)


def _l1_mean(a, b):
    if a.data.shape != b.data.shape:
        raise ValueError("L1 terms need matching shapes, got %s vs %s" % (a.data.shape, b.data.shape))
    return ag.mean(ag.abs_(ag.sub(a, b)))


def cycle_consistency_loss(x, x_cycled, y, y_cycled):
    """Sum over both directions of the per-element L1 reconstruction error."""
    return ag.add(_l1_mean(x_cycled, x), _l1_mean(y_cycled, y))


def identity_loss(y, g_xy_of_y, x, g_yx_of_x):
    """L1 penalty for each generator applied to its own target domain."""
    return ag.add(_l1_mean(g_xy_of_y, y), _l1_mean(g_yx_of_x, x))


def total_objective(gan_g_xy, gan_g_yx, cyc, lambda_cyc, idt=None, idt_weight=1.0):
    """Combined generator objective; the identity term enters only when
    supplied (weight 1 by default, config-exposed)."""
    if lambda_cyc < 0:
        raise ValueError("lambda_cyc must be >= 0")
    total = ag.add(ag.add(gan_g_xy, gan_g_yx), ag.mul(cyc, float(lambda_cyc)))
    if idt is not None:
        total = ag.add(total, ag.mul(idt, float(idt_weight)))
    return total
