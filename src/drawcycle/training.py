"""Optimization loop: Adam with linear learning-rate decay, alternating
generator/discriminator updates over both directions, a bounded history
pool of generated fakes, and bit-exact checkpointing.

Given (seed, config, dataset), every reported loss is deterministic.
"""

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import List

import numpy as np

from . import autograd as ag
from . import serialize
from .autograd import Tape, Tensor
from .data import image_to_net
from .layers import load_parts, parts_state
from .models import DiscriminatorNet, GeneratorNet, init_weights
from .objectives import (
    LossBundle, cycle_consistency_loss, gan_loss_discriminator,
    gan_loss_generator, identity_loss, total_objective,
)
from .serialize import (
    RNG_STATE_SHAPE, CheckpointError, read_entries, rng_state_from_array,
    rng_state_to_array, write_entries,
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
    checkpoint_every: int = 0

    def validate(self):
        if not 0 <= self.epochs_const <= self.epochs_total:
            raise ValueError("require 0 <= epochs_const <= epochs_total")
        for name in ("lr0", "adam_beta1", "adam_beta2", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive" % name)
        if self.batch_size < 1 or self.d_steps_per_g < 1:
            raise ValueError("batch_size and d_steps_per_g must be >= 1")
        if not 0.0 <= self.weight_sparsity < 1.0:
            raise ValueError("weight_sparsity must be in [0, 1)")
        if not 0.0 < self.k_frac <= 1.0:
            raise ValueError("k_frac must be in (0, 1]")
        if self.duty_period < 1:
            raise ValueError("duty_period must be >= 1")
        for name in ("lambda_cyc", "idt_weight", "boost_strength", "pool_size",
                     "checkpoint_every", "seed"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0" % name)
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


# Keys that the stored config of a checkpoint written by an earlier version
# may carry, each with the one value, as written, that this model has (None:
# any value; image_size was never read).  Only checkpoint loading accepts them.
RETIRED_KEYS = {"image_size": None, "channels": "1", "saturating_gan": "false"}


def _checkpoint_config(text):
    """Parse a checkpoint's stored config, dropping the retired keys that
    hold their one accepted value."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        key, _, val = (part.strip() for part in raw.split("#", 1)[0].partition("="))
        if key in RETIRED_KEYS:
            if RETIRED_KEYS[key] not in (None, val):
                raise ValueError("line %d: retired config key %r loads only as %s, got %r"
                                 % (lineno, key, RETIRED_KEYS[key], val))
            raw = ""  # keeps the line numbers of later errors
        lines.append(raw)
    return TrainConfig.from_text("\n".join(lines))


def _parse_value(typ, val, key):
    if typ is bool:
        if val.lower() in ("true", "1", "yes", "on"):
            return True
        if val.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError("config key %r: bad boolean %r" % (key, val))
    try:
        return typ(val)
    except ValueError:
        raise ValueError("config key %r: bad %s %r" % (key, typ.__name__, val)) from None


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


def adam_step(params, grads, m, v, t, lr, beta1=0.5, beta2=0.999, eps=1e-8):
    """Standard bias-corrected Adam update number t (from 1) of params and
    their moments m and v, in place."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, mp, vp in zip(params, grads, m, v):
        if g.shape != p.data.shape:
            raise ValueError("gradient shape %s does not match parameter %s" % (g.shape, p.data.shape))
        mp *= beta1
        mp += (1.0 - beta1) * g
        vp *= beta2
        vp += (1.0 - beta2) * (g * g)
        p.data -= lr * (mp / c1) / (np.sqrt(vp / c2) + eps)


class Adam:
    def __init__(self, params, beta1=0.5, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, lr):
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        self.t += 1
        adam_step(self.params, grads, self.m, self.v, self.t, lr,
                  beta1=self.beta1, beta2=self.beta2, eps=self.eps)
        # a gradient lives from backward to the step that applies it
        for p in self.params:
            p.grad = None

    def state_arrays(self):
        out = [("t", np.array(float(self.t)))]
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            out += [("m.%04d" % i, m), ("v.%04d" % i, v)]
        return out

    def load_state_arrays(self, get):
        self.t = int(get("t", ()))
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            m[...] = get("m.%04d" % i, m.shape)
            v[...] = get("v.%04d" % i, v.shape)


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
        if self.images and fresh.shape != self.images[0].shape:
            raise ValueError("image pool holds images of shape %s, got a fresh one of shape %s"
                             % (self.images[0].shape, fresh.shape))
        if len(self.images) < self.capacity:
            self.images.append(fresh.copy())
            return fresh
        if self.rng.random() < 0.5:
            return fresh
        idx = int(self.rng.integers(self.capacity))
        old = self.images[idx]
        self.images[idx] = fresh.copy()
        return old

    def state_arrays(self):
        images = np.stack(self.images) if self.images else np.zeros((0, 1, 1, 1))
        return [("images", images), ("rng", rng_state_to_array(self.rng))]

    def load_state_arrays(self, get):
        self.rng = rng_state_from_array(get("rng", RNG_STATE_SHAPE))
        images = get("images")
        # n stored batches of one-channel images (n, B, 1, H, W), or the
        # empty placeholder that state_arrays writes
        if images.shape != (0, 1, 1, 1) and not (
                images.ndim == 5 and images.shape[2] == 1 and len(images) <= self.capacity):
            raise ValueError("pool images have shape %s, expected (n, B, 1, H, W) with n <= %d"
                             % (images.shape, self.capacity))
        self.images = [im.copy() for im in images]


@dataclass
class EpochStats:
    epoch: int
    means: LossBundle
    seconds: float


CHECKPOINT_VERSION = b"drawcycle-checkpoint-1"


def build_generator(cfg):
    """A generator of a config's structure, holding no drawn values yet."""
    kcfg = {"k_frac": cfg.k_frac, "boost_strength": cfg.boost_strength,
            "duty_period": cfg.duty_period}
    return GeneratorNet(width=cfg.width, n_res=cfg.n_res, variant=cfg.variant,
                        weight_sparsity=cfg.weight_sparsity, kwinners_cfg=kcfg)


class Trainer:
    """Owns the four networks, their optimizers, pools, and RNG streams.
    ``Trainer(cfg)`` seeds all of them; ``checkpoint_load`` builds the same
    parts and loads every value from the file."""

    def __init__(self, cfg):
        self._build(cfg)
        for i, net in enumerate((self.g_xy, self.g_yx, self.d_x, self.d_y), 1):
            init_weights(net, cfg.seed * 4 + i)

    def _build(self, cfg):
        """Create every part with no network draw, and return self; the
        networks' values come from ``__init__`` or a checkpoint."""
        cfg.validate()
        self.cfg = cfg
        self.g_xy = build_generator(cfg)
        self.g_yx = build_generator(cfg)
        self.d_x = DiscriminatorNet(cfg.width, cfg.d_activation)
        self.d_y = DiscriminatorNet(cfg.width, cfg.d_activation)
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
        return self

    # -- single optimization step ------------------------------------------

    @staticmethod
    def _update(opt, loss, tape, lr):
        """Step ``opt`` down the gradient of ``loss`` recorded on ``tape``, then clear it."""
        ag.zero_grad(opt.params)
        ag.backward(loss, tape)
        opt.step(lr)
        tape.clear()

    def train_step(self, x_images, y_images, lr):
        """One generator update followed by d_steps_per_g discriminator
        updates per direction; returns the realized loss bundle."""
        cfg = self.cfg
        x = Tensor(np.concatenate([image_to_net(im) for im in x_images], axis=0))
        y = Tensor(np.concatenate([image_to_net(im) for im in y_images], axis=0))

        with Tape() as tape:
            fake_y = self.g_xy.forward(x, train=True)
            cyc_x = self.g_yx.forward(fake_y, train=True)
            fake_x = self.g_yx.forward(y, train=True)
            cyc_y = self.g_xy.forward(fake_x, train=True)
            d_on_fake_y = self.d_y.forward(fake_y, train=True)
            d_on_fake_x = self.d_x.forward(fake_x, train=True)
            loss_g_xy = gan_loss_generator(d_on_fake_y)
            loss_g_yx = gan_loss_generator(d_on_fake_x)
            cyc = cycle_consistency_loss(x, cyc_x, y, cyc_y)
            idt = None
            if cfg.idt_enabled:
                idt = identity_loss(y, self.g_xy.forward(y, train=True),
                                    x, self.g_yx.forward(x, train=True))
            total = total_objective(loss_g_xy, loss_g_yx, cyc, cfg.lambda_cyc,
                                    idt=idt, idt_weight=cfg.idt_weight)
        self._update(self.opt_g, total, tape, lr)

        # one pool query per generator step: every D step sees the same
        # pooled fake, and the pool stores each generated image once
        d_sides = (("gan_d_y", self.d_y, self.opt_dy, y, self.pool_y.query(fake_y.data)),
                   ("gan_d_x", self.d_x, self.opt_dx, x, self.pool_x.query(fake_x.data)))
        d_losses = {}
        for _ in range(cfg.d_steps_per_g):
            for name, disc, opt, real, pooled in d_sides:
                with Tape() as tape:
                    d_real = disc.forward(real, train=True)
                    d_fake = disc.forward(Tensor(pooled), train=True)
                    loss_d = gan_loss_discriminator(d_real, d_fake)
                self._update(opt, loss_d, tape, lr)
                d_losses.setdefault(name, loss_d.item())

        bundle = LossBundle(
            gan_g_xy=loss_g_xy.item(), gan_g_yx=loss_g_yx.item(),
            gan_d_x=d_losses["gan_d_x"], gan_d_y=d_losses["gan_d_y"],
            cyc=cyc.item(), idt=None if idt is None else idt.item(),
            total_g=total.item(),
        )
        for term, v in asdict(bundle).items():
            if v is not None and not np.isfinite(v):
                raise TrainingDiverged(term, self.step_count, v)
        self.step_count += 1
        return bundle

    # -- full run ----------------------------------------------------------

    def run(self, dataset, on_epoch=None):
        """Iterate epochs with independently shuffled unpaired domains;
        appends per-epoch mean losses (and wall seconds) to history, then
        calls on_epoch(self), if given, after each epoch."""
        cfg = self.cfg
        n_x, n_y = len(dataset.domain_x), len(dataset.domain_y)
        if min(n_x, n_y) < cfg.batch_size:
            raise ValueError("batch_size %d does not fit the training domains (%d X and %d Y "
                             "drawings): no step could run" % (cfg.batch_size, n_x, n_y))
        while self.epoch < cfg.epochs_total:
            lr = lr_at_epoch(cfg, self.epoch)
            perm_x = self.rng_x.permutation(n_x)
            perm_y = self.rng_y.permutation(n_y)
            n_steps = min(n_x, n_y) // cfg.batch_size
            bundles = []
            t0 = time.perf_counter()
            for s in range(n_steps):
                ix = perm_x[s * cfg.batch_size:(s + 1) * cfg.batch_size]
                iy = perm_y[s * cfg.batch_size:(s + 1) * cfg.batch_size]
                bundles.append(self.train_step(
                    [dataset.domain_x[i] for i in ix],
                    [dataset.domain_y[i] for i in iy], lr))
            seconds = time.perf_counter() - t0
            self.history.append(EpochStats(self.epoch, _mean_bundle(bundles), seconds))
            self.epoch += 1
            if on_epoch is not None:
                on_epoch(self)

    # -- checkpointing -----------------------------------------------------

    def _state_parts(self):
        """The checkpoint layout: (entry-name prefix, part) in file order;
        each part follows the ``layers.Layer`` state protocol."""
        return (("g_xy", self.g_xy), ("g_yx", self.g_yx), ("d_x", self.d_x), ("d_y", self.d_y),
                ("opt_g", self.opt_g), ("opt_dx", self.opt_dx), ("opt_dy", self.opt_dy),
                ("pool_x", self.pool_x), ("pool_y", self.pool_y))

    def checkpoint_save(self, path):
        entries = [("version", CHECKPOINT_VERSION),
                   ("config", self.cfg.to_text().encode("utf-8")),
                   ("epoch", np.array(float(self.epoch))),
                   ("step_count", np.array(float(self.step_count)))]
        entries += parts_state(self._state_parts())
        entries += [("rng_x", rng_state_to_array(self.rng_x)),
                    ("rng_y", rng_state_to_array(self.rng_y))]
        write_entries(path, entries)

    @classmethod
    def checkpoint_load(cls, path):
        with _handing_over(path, read_entries(path)) as get:
            cfg = _checkpoint_config(get("config").decode("utf-8"))
            trainer = cls.__new__(cls)._build(cfg)
            trainer.epoch = int(get("epoch", ()))
            trainer.step_count = int(get("step_count", ()))
            load_parts(trainer._state_parts(), get)
            trainer.rng_x = rng_state_from_array(get("rng_x", RNG_STATE_SHAPE))
            trainer.rng_y = rng_state_from_array(get("rng_y", RNG_STATE_SHAPE))
        return trainer


@contextmanager
def _handing_over(path, entries):
    """Check a checkpoint's version and yield a lookup ``get(name,
    shape=None)`` that hands each entry to its owner once: it takes the
    entry out of ``entries``, so the file's values are held once, not
    twice, while they are copied into the built parts.  A missing entry, a
    second read of one, one of another shape than ``shape``, a
    ``ValueError`` of the load, and any entry that no part read are each a
    ``CheckpointError``, so a load is whole or refused."""
    if entries.pop("version", None) != CHECKPOINT_VERSION:
        raise CheckpointError("%s: unsupported checkpoint version" % (path,))
    taken = set()

    def get(name, shape=None):
        if name in taken:
            raise CheckpointError("%s: checkpoint entry %r was already read" % (path, name))
        if name not in entries:
            raise CheckpointError("%s: missing checkpoint entry %r" % (path, name))
        taken.add(name)
        value = entries.pop(name)
        if shape is not None and np.shape(value) != shape:
            raise CheckpointError("%s: entry %r has shape %s, expected %s"
                                  % (path, name, np.shape(value), shape))
        return value

    try:
        yield get
    except ValueError as exc:
        raise CheckpointError("%s: %s" % (path, exc))
    if entries:
        raise CheckpointError("%s: %d checkpoint entries that no part reads, first %s" % (
            path, len(entries), ", ".join(map(repr, list(entries)[:4]))))


def load_generator(path, name):
    """Load only the generator ``name`` ("g_xy" or "g_yx") of a checkpoint,
    for inference; returns (generator, config, epochs trained).  Only the
    version, config, epoch and that generator's entries are read from the
    file; ``Trainer.checkpoint_load`` reads everything, to resume."""
    # through the module attribute: bench/tracing.py wraps this module's
    # read_entries name with a hook that takes the path alone
    entries = serialize.read_entries(
        path, keep=lambda key: key in ("version", "config", "epoch") or key.startswith(name + "."))
    with _handing_over(path, entries) as get:
        cfg = _checkpoint_config(get("config").decode("utf-8"))
        net = build_generator(cfg)
        load_parts([(name, net)], get)
        epoch = int(get("epoch", ()))
    return net, cfg, epoch


def _mean_bundle(bundles):
    """Column-by-column mean of step losses; a column that is None at every
    step (idt without the identity loss) stays None."""
    def m(vals):
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else None

    return LossBundle(*(m([getattr(b, f.name) for b in bundles]) for f in fields(LossBundle)))


LOSS_CSV_HEADER = ",".join(["epoch"] + [f.name for f in fields(LossBundle)])


def history_to_csv(history):
    lines = [LOSS_CSV_HEADER]
    for row in history:
        vals = ["" if v is None else "%.17g" % v for v in row.means.values()]
        lines.append("%d,%s" % (row.epoch, ",".join(vals)))
    return "\n".join(lines) + "\n"
