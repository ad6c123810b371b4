"""Optimization loop: Adam with linear learning-rate decay, alternating
generator/discriminator updates over both directions, a bounded history
pool of generated fakes, and bit-exact checkpointing.

Given (seed, config, dataset), every reported loss is deterministic.
"""

import time
from dataclasses import dataclass, field, fields
from typing import List, Optional

import numpy as np

from . import autograd as ag
from .autograd import Tape, Tensor
from .data import image_to_net
from .models import DiscriminatorNet, GeneratorNet
from .objectives import (
    LossBundle, cycle_consistency_loss, gan_loss_discriminator,
    gan_loss_generator, identity_loss, total_objective,
)
from .serialize import (
    CheckpointError, read_entries, rng_state_from_array, rng_state_to_array,
    write_entries,
)


class TrainingDiverged(RuntimeError):
    """Raised when a loss term stops being finite."""

    def __init__(self, term, step, value):
        super().__init__("non-finite loss %r = %r at step %d" % (term, value, step))
        self.term = term
        self.step = step


@dataclass
class TrainConfig:
    lr0: float = 0.0002
    epochs_total: int = 200
    epochs_const: int = 100
    lambda_cyc: float = 10.0
    idt_enabled: bool = True
    idt_weight: float = 1.0
    variant: str = "dense_relu"
    d_activation: str = "leaky"
    width: int = 64
    n_res: int = 12
    weight_sparsity: float = 0.5
    k_frac: float = 0.3
    boost_strength: float = 1.5
    duty_period: int = 1000
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    d_steps_per_g: int = 1
    pool_size: int = 50
    batch_size: int = 1
    seed: int = 0
    channels: int = 1
    saturating_gan: bool = False
    checkpoint_every: int = 0

    def validate(self):
        if not 0 <= self.epochs_const <= self.epochs_total:
            raise ValueError("require 0 <= epochs_const <= epochs_total")
        for name in ("lr0", "adam_beta1", "adam_beta2", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive" % name)
        if self.lambda_cyc < 0:
            raise ValueError("lambda_cyc must be >= 0")
        if self.batch_size < 1 or self.d_steps_per_g < 1:
            raise ValueError("batch_size and d_steps_per_g must be >= 1")
        if self.pool_size < 0:
            raise ValueError("pool_size must be >= 0")
        return self

    def to_text(self):
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            lines.append("%s = %s" % (f.name, v))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Parse line-based ``key = value`` config text.  Unknown keys are
        an error, not a warning."""
        known = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("line %d: expected 'key = value', got %r" % (lineno, raw))
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ValueError("line %d: unknown config key %r" % (lineno, key))
            kwargs[key] = _parse_value(known[key], val, key)
        return cls(**kwargs).validate()


def _parse_value(typ, val, key):
    name = typ if isinstance(typ, str) else typ.__name__
    if name == "bool":
        if val.lower() in ("true", "1", "yes", "on"):
            return True
        if val.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError("config key %r: bad boolean %r" % (key, val))
    if name == "int":
        return int(val)
    if name == "float":
        return float(val)
    return val


def preset_config(name):
    """The three reference configurations: baseline (identity loss on,
    dense generator), no_idt (identity loss removed), finetuned (identity
    loss removed, sparse K-Winners generator, randomized-rectifier
    discriminator)."""
    if name == "baseline":
        return TrainConfig(idt_enabled=True, variant="dense_relu", d_activation="leaky")
    if name == "no_idt":
        return TrainConfig(idt_enabled=False, variant="dense_relu", d_activation="leaky")
    if name == "finetuned":
        return TrainConfig(idt_enabled=False, variant="sparse_kwinners",
                           d_activation="rrelu", n_res=12)
    raise ValueError("unknown preset %r" % (name,))


def lr_at_epoch(cfg, epoch):
    """Constant lr0 for the first epochs_const epochs, then linear decay
    to zero at epochs_total."""
    if not 0 <= epoch <= cfg.epochs_total:
        raise ValueError("epoch %d outside [0, %d]" % (epoch, cfg.epochs_total))
    if epoch < cfg.epochs_const:
        return cfg.lr0
    span = cfg.epochs_total - cfg.epochs_const
    if span == 0:
        return 0.0
    return cfg.lr0 * (1.0 - (epoch - cfg.epochs_const) / span)


@dataclass
class AdamState:
    m: List[np.ndarray]
    v: List[np.ndarray]
    t: int = 0


def adam_step(params, grads, state, lr, beta1=0.5, beta2=0.999, eps=1e-8):
    """Standard bias-corrected Adam update, in place."""
    state.t += 1
    t = state.t
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape:
            raise ValueError("gradient shape %s does not match parameter %s" % (g.shape, p.data.shape))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


class Adam:
    def __init__(self, params, beta1=0.5, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.state = AdamState(
            m=[np.zeros_like(p.data) for p in self.params],
            v=[np.zeros_like(p.data) for p in self.params],
        )

    def step(self, lr):
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        adam_step(self.params, grads, self.state, lr,
                  beta1=self.beta1, beta2=self.beta2, eps=self.eps)

    def state_entries(self, prefix):
        out = [("%s.t" % prefix, np.array(float(self.state.t)))]
        for i, (m, v) in enumerate(zip(self.state.m, self.state.v)):
            out.append(("%s.m.%04d" % (prefix, i), m))
            out.append(("%s.v.%04d" % (prefix, i), v))
        return out

    def load_state_entries(self, entries, prefix):
        self.state.t = int(entries["%s.t" % prefix])
        for i in range(len(self.params)):
            self.state.m[i][...] = entries["%s.m.%04d" % (prefix, i)]
            self.state.v[i][...] = entries["%s.v.%04d" % (prefix, i)]


class ImagePool:
    """Bounded history of generated fakes.  Below capacity every fresh
    image is stored and returned; at capacity the fresh image is returned
    with probability 1/2, otherwise it replaces a random stored image and
    the old one is returned."""

    def __init__(self, capacity, seed=0):
        self.capacity = capacity
        self.images = []
        self.rng = np.random.default_rng(seed)

    def query(self, fresh):
        if self.capacity == 0:
            return fresh
        if len(self.images) < self.capacity:
            self.images.append(fresh.copy())
            return fresh
        if self.rng.random() < 0.5:
            return fresh
        idx = int(self.rng.integers(self.capacity))
        old = self.images[idx]
        self.images[idx] = fresh.copy()
        return old


@dataclass
class EpochStats:
    epoch: int
    means: LossBundle
    seconds: float


CHECKPOINT_VERSION = b"drawcycle-checkpoint-1"


class Trainer:
    """Owns the four networks, their optimizers, pools, and RNG streams."""

    def __init__(self, cfg):
        cfg.validate()
        self.cfg = cfg
        kcfg = {"k_frac": cfg.k_frac, "boost_strength": cfg.boost_strength,
                "duty_period": cfg.duty_period}
        gen = dict(in_channels=cfg.channels, out_channels=cfg.channels, width=cfg.width,
                   n_res=cfg.n_res, variant=cfg.variant, weight_sparsity=cfg.weight_sparsity,
                   kwinners_cfg=kcfg)
        disc = dict(in_channels=cfg.channels, width=cfg.width, activation=cfg.d_activation)
        self.g_xy = GeneratorNet(seed=cfg.seed * 4 + 1, **gen)
        self.g_yx = GeneratorNet(seed=cfg.seed * 4 + 2, **gen)
        self.d_x = DiscriminatorNet(seed=cfg.seed * 4 + 3, **disc)
        self.d_y = DiscriminatorNet(seed=cfg.seed * 4 + 4, **disc)
        self.opt_g = Adam(self.g_xy.params() + self.g_yx.params(),
                          cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        self.opt_dx = Adam(self.d_x.params(), cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        self.opt_dy = Adam(self.d_y.params(), cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        self.pool_x = ImagePool(cfg.pool_size, seed=cfg.seed * 4 + 5)
        self.pool_y = ImagePool(cfg.pool_size, seed=cfg.seed * 4 + 6)
        self.rng_x = np.random.default_rng(cfg.seed * 4 + 7)
        self.rng_y = np.random.default_rng(cfg.seed * 4 + 8)
        self.epoch = 0
        self.step_count = 0
        self.history: List[EpochStats] = []

    # -- single optimization step ------------------------------------------

    def _all_params(self):
        return (self.g_xy.params() + self.g_yx.params()
                + self.d_x.params() + self.d_y.params())

    def train_step(self, x_images, y_images, lr):
        """One generator update followed by d_steps_per_g discriminator
        updates per direction; returns the realized loss bundle."""
        cfg = self.cfg
        x = Tensor(np.concatenate([image_to_net(im) for im in x_images], axis=0))
        y = Tensor(np.concatenate([image_to_net(im) for im in y_images], axis=0))

        tape = Tape()
        with tape:
            fake_y = self.g_xy.forward(x, train=True)
            cyc_x = self.g_yx.forward(fake_y, train=True)
            fake_x = self.g_yx.forward(y, train=True)
            cyc_y = self.g_xy.forward(fake_x, train=True)
            d_on_fake_y = self.d_y.forward(fake_y, train=True)
            d_on_fake_x = self.d_x.forward(fake_x, train=True)
            loss_g_xy = gan_loss_generator(d_on_fake_y, saturating=cfg.saturating_gan)
            loss_g_yx = gan_loss_generator(d_on_fake_x, saturating=cfg.saturating_gan)
            cyc = cycle_consistency_loss(x, cyc_x, y, cyc_y)
            idt = None
            if cfg.idt_enabled:
                idt = identity_loss(y, self.g_xy.forward(y, train=True),
                                    x, self.g_yx.forward(x, train=True))
            total = total_objective(loss_g_xy, loss_g_yx, cyc, cfg.lambda_cyc,
                                    idt=idt, idt_weight=cfg.idt_weight)
        ag.zero_grad(self._all_params())
        ag.backward(total, tape)
        self.opt_g.step(lr)
        tape.clear()

        fake_y_img = fake_y.data.copy()
        fake_x_img = fake_x.data.copy()
        d_losses = {}
        for _ in range(cfg.d_steps_per_g):
            for name, disc, opt, pool, real, fake in (
                ("gan_d_y", self.d_y, self.opt_dy, self.pool_y, y, fake_y_img),
                ("gan_d_x", self.d_x, self.opt_dx, self.pool_x, x, fake_x_img),
            ):
                pooled = pool.query(fake)
                dtape = Tape()
                with dtape:
                    d_real = disc.forward(real, train=True)
                    d_fake = disc.forward(Tensor(pooled), train=True)
                    loss_d = gan_loss_discriminator(d_real, d_fake)
                ag.zero_grad(disc.params())
                ag.backward(loss_d, dtape)
                opt.step(lr)
                dtape.clear()
                d_losses.setdefault(name, loss_d.item())

        bundle = LossBundle(
            gan_g_xy=loss_g_xy.item(), gan_g_yx=loss_g_yx.item(),
            gan_d_x=d_losses["gan_d_x"], gan_d_y=d_losses["gan_d_y"],
            cyc=cyc.item(), idt=None if idt is None else idt.item(),
            total_g=total.item(), lambda_cyc=cfg.lambda_cyc,
        )
        for term in LossBundle.FIELDS:
            v = getattr(bundle, term)
            if v is not None and not np.isfinite(v):
                raise TrainingDiverged(term, self.step_count, v)
        self.step_count += 1
        return bundle

    # -- full run ----------------------------------------------------------

    def run(self, dataset, checkpoint_dir=None):
        """Iterate epochs with independently shuffled unpaired domains;
        appends per-epoch mean losses (and wall seconds) to history."""
        cfg = self.cfg
        if not dataset.domain_x or not dataset.domain_y:
            raise ValueError("cannot train on an empty dataset")
        paths = []
        while self.epoch < cfg.epochs_total:
            lr = lr_at_epoch(cfg, self.epoch)
            perm_x = self.rng_x.permutation(len(dataset.domain_x))
            perm_y = self.rng_y.permutation(len(dataset.domain_y))
            n_steps = min(len(perm_x), len(perm_y)) // cfg.batch_size
            bundles = []
            t0 = time.perf_counter()
            for s in range(n_steps):
                ix = perm_x[s * cfg.batch_size:(s + 1) * cfg.batch_size]
                iy = perm_y[s * cfg.batch_size:(s + 1) * cfg.batch_size]
                bundles.append(self.train_step(
                    [dataset.domain_x[i] for i in ix],
                    [dataset.domain_y[i] for i in iy], lr))
            seconds = time.perf_counter() - t0
            self.history.append(EpochStats(self.epoch, _mean_bundle(bundles, cfg), seconds))
            self.epoch += 1
            if checkpoint_dir and cfg.checkpoint_every and self.epoch % cfg.checkpoint_every == 0:
                import os
                path = os.path.join(checkpoint_dir, "epoch_%04d.ckpt" % self.epoch)
                self.checkpoint_save(path)
                paths.append(path)
        return paths

    # -- checkpointing -----------------------------------------------------

    def checkpoint_save(self, path):
        entries = [("version", CHECKPOINT_VERSION),
                   ("config", self.cfg.to_text().encode("utf-8")),
                   ("epoch", np.array(float(self.epoch))),
                   ("step_count", np.array(float(self.step_count)))]
        for prefix, net in self._named_nets():
            entries.extend(net.state_entries(prefix + "."))
        entries.extend(self.opt_g.state_entries("opt_g"))
        entries.extend(self.opt_dx.state_entries("opt_dx"))
        entries.extend(self.opt_dy.state_entries("opt_dy"))
        for name, pool in (("pool_x", self.pool_x), ("pool_y", self.pool_y)):
            imgs = (np.stack(pool.images) if pool.images
                    else np.zeros((0, 1, 1, 1)))
            entries.append(("%s.images" % name, imgs))
            entries.append(("%s.rng" % name, rng_state_to_array(pool.rng)))
        entries.append(("rng_x", rng_state_to_array(self.rng_x)))
        entries.append(("rng_y", rng_state_to_array(self.rng_y)))
        write_entries(path, entries)

    def _named_nets(self):
        return (("g_xy", self.g_xy), ("g_yx", self.g_yx),
                ("d_x", self.d_x), ("d_y", self.d_y))

    @classmethod
    def checkpoint_load(cls, path, expect_cfg=None):
        entries = read_entries(path)
        if entries.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError("%s: unsupported checkpoint version" % (path,))
        try:
            cfg = TrainConfig.from_text(entries["config"].decode("utf-8"))
            if expect_cfg is not None:
                for name in ("width", "n_res", "variant", "d_activation", "channels"):
                    got, want = getattr(cfg, name), getattr(expect_cfg, name)
                    if got != want:
                        raise CheckpointError("%s: checkpoint %s=%r does not match configured %r"
                                              % (path, name, got, want))
            trainer = cls(cfg)
            trainer.epoch = int(entries["epoch"])
            trainer.step_count = int(entries["step_count"])
            for prefix, net in trainer._named_nets():
                net.load_state_entries(entries, prefix + ".")
            trainer.opt_g.load_state_entries(entries, "opt_g")
            trainer.opt_dx.load_state_entries(entries, "opt_dx")
            trainer.opt_dy.load_state_entries(entries, "opt_dy")
            for name, pool in (("pool_x", trainer.pool_x), ("pool_y", trainer.pool_y)):
                imgs = entries["%s.images" % name]
                pool.images = [imgs[i].copy() for i in range(imgs.shape[0])] if imgs.size else []
                pool.rng = rng_state_from_array(entries["%s.rng" % name])
            trainer.rng_x = rng_state_from_array(entries["rng_x"])
            trainer.rng_y = rng_state_from_array(entries["rng_y"])
        except (KeyError, ValueError) as exc:
            raise CheckpointError("%s: %s" % (path, exc))
        return trainer


def _mean_bundle(bundles, cfg):
    def m(vals):
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else None

    return LossBundle(
        gan_g_xy=m([b.gan_g_xy for b in bundles]),
        gan_g_yx=m([b.gan_g_yx for b in bundles]),
        gan_d_x=m([b.gan_d_x for b in bundles]),
        gan_d_y=m([b.gan_d_y for b in bundles]),
        cyc=m([b.cyc for b in bundles]),
        idt=m([b.idt for b in bundles]) if cfg.idt_enabled else None,
        total_g=m([b.total_g for b in bundles]),
        lambda_cyc=cfg.lambda_cyc,
    )


LOSS_CSV_HEADER = "epoch,gan_g_xy,gan_g_yx,gan_d_x,gan_d_y,cyc,idt,total_g"


def history_to_csv(history):
    lines = [LOSS_CSV_HEADER]
    for row in history:
        vals = []
        for f in LossBundle.FIELDS:
            v = getattr(row.means, f)
            vals.append("" if v is None else "%.17g" % v)
        lines.append("%d,%s" % (row.epoch, ",".join(vals)))
    return "\n".join(lines) + "\n"
