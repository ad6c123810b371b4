"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion.  The
heavyweight desk-scale training run is executed once (module-scoped
fixture) and shared by the sparsity, speed-ordering, and noise-report
criteria.
"""

import math
import os
import time

import numpy as np
import pytest

from drawcycle import autograd as ag
from drawcycle.autograd import Tape, Tensor
from drawcycle.cli import main as cli_main
from drawcycle.data import SynthConfig, image_to_net, net_to_image, synth_generate
from drawcycle.layers import KWinners, SparseConv2d, instance_norm
from drawcycle.metrics import psnr_mse_consistent, ssim
from drawcycle.models import DiscriminatorNet, GeneratorNet
from drawcycle.objectives import (
    cycle_consistency_loss, gan_loss_discriminator, gan_loss_generator,
    identity_loss, total_objective,
)
from drawcycle.serialize import read_entries
from drawcycle.training import (
    TrainConfig, Trainer, history_to_csv, lr_at_epoch, preset_config,
)

from gradcheck import numeric_grad, rel_error


def _verdict(criterion, ok, detail=""):
    line = "criterion %s: %s%s" % (criterion, "PASS" if ok else "FAIL",
                                   " (%s)" % detail if detail else "")
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared desk-scale run


def desk_config(preset="finetuned", seed=0):
    cfg = preset_config(preset)
    cfg.width = 16
    cfg.n_res = 3
    cfg.epochs_total = 20
    cfg.epochs_const = 10
    cfg.seed = seed
    return cfg.validate()


@pytest.fixture(scope="module")
def corpus64():
    return synth_generate(SynthConfig(image_size=64, n_train=40, n_test=10, seed=7))


def cycle_ssim(trainer, dataset):
    vals = []
    for x_img in dataset.test_x:
        x = Tensor(image_to_net(x_img))
        fake = trainer.g_xy.forward(x, train=False)
        cyc = trainer.g_yx.forward(fake, train=False)
        vals.append(ssim(x_img.astype(np.float64),
                         net_to_image(cyc.data).astype(np.float64)))
    return float(np.mean(vals))


@pytest.fixture(scope="module")
def desk_run(corpus64, tmp_path_factory):
    trainer = Trainer(desk_config())
    ssim_start = cycle_ssim(trainer, corpus64)
    t0 = time.perf_counter()
    trainer.run(corpus64)
    wall = time.perf_counter() - t0
    ssim_end = cycle_ssim(trainer, corpus64)
    ckpt_dir = tmp_path_factory.mktemp("desk")
    ckpt = str(ckpt_dir / "finetuned.ckpt")
    trainer.checkpoint_save(ckpt)
    return {
        "trainer": trainer,
        "dataset": corpus64,
        "wall_seconds": wall,
        "ssim_start": ssim_start,
        "ssim_end": ssim_end,
        "losses_csv": history_to_csv(trainer.history),
        "ckpt": ckpt,
    }


@pytest.fixture(scope="module")
def speed_runs(corpus64, tmp_path_factory):
    """Two epochs of each reference config at desk scale; also leaves a
    short-trained dense checkpoint behind for the noise report."""
    # the presets take turns epoch by epoch, so a burst of load from other
    # processes on the host slows one epoch of each, not both of one
    presets = ("no_idt", "finetuned", "baseline")
    trainers = {}
    for preset in presets:
        cfg = desk_config(preset)
        cfg.epochs_total = 2
        cfg.epochs_const = 2
        trainers[preset] = Trainer(cfg)
    for epoch in range(2):
        for preset in presets:
            trainers[preset].cfg.epochs_total = epoch + 1
            trainers[preset].run(corpus64)
    out = {preset: {"epoch_seconds": min(h.seconds for h in tr.history)}
           for preset, tr in trainers.items()}
    path = str(tmp_path_factory.mktemp("speed") / "no_idt.ckpt")
    trainers["no_idt"].checkpoint_save(path)
    out["no_idt"]["ckpt"] = path
    return out


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient suite


def _fd_check_params(net, x, params):
    tape = Tape()
    with tape:
        t = Tensor(x, requires_grad=True)
        loss = ag.mean(net.forward(t))
    ag.backward(loss, tape)
    worst = 0.0

    def f_input(xv):
        with Tape():
            return ag.mean(net.forward(Tensor(xv))).item()

    worst = max(worst, rel_error(t.grad, numeric_grad(f_input, x)))
    for p in params:
        base = p.data.copy()

        def f_param(pv, _p=p, _base=base):
            _p.data[...] = pv
            with Tape():
                v = ag.mean(net.forward(Tensor(x))).item()
            _p.data[...] = _base
            return v

        worst = max(worst, rel_error(p.grad, numeric_grad(f_param, base)))
    return worst


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0

    # every differentiable elementwise / structural operation
    unary = (ag.neg, ag.abs_, ag.tanh, ag.sigmoid, ag.softplus,
             lambda v: ag.log(ag.softplus(v)), ag.mean, lambda v: ag.reduce(v, "sum"))
    for op in unary:
        x = rng.uniform(0.5, 2.0, size=(2, 3))

        def f(xv, _op=op):
            with Tape():
                out = _op(Tensor(xv))
                return ag.reduce(out, "sum").item() if out.data.ndim else out.item()

        tape = Tape()
        with tape:
            t = Tensor(x, requires_grad=True)
            out = op(t)
            loss = ag.reduce(out, "sum") if out.data.ndim else out
        ag.backward(loss, tape)
        worst = max(worst, rel_error(t.grad, numeric_grad(f, x)))

    for op in (ag.add, ag.sub, ag.mul):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        tape = Tape()
        with tape:
            ta, tb = Tensor(a, True), Tensor(b, True)
            loss = ag.reduce(ag.tanh(op(ta, tb)), "sum")
        ag.backward(loss, tape)
        for arr, grad, pos in ((a, ta.grad, 0), (b, tb.grad, 1)):
            def f2(v, _op=op, _pos=pos):
                args = [a, b]
                args[_pos] = v
                with Tape():
                    return ag.reduce(ag.tanh(_op(Tensor(args[0]), Tensor(args[1]))), "sum").item()
            worst = max(worst, rel_error(grad, numeric_grad(f2, arr)))

    # structural ops: convolution, transposed convolution, reflection pad,
    # instance norm
    x = rng.normal(size=(1, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))

    def f_conv(xv):
        with Tape():
            return ag.reduce(ag.tanh(ag.conv2d(Tensor(xv), Tensor(w), None, 1, 1)), "sum").item()

    tape = Tape()
    with tape:
        t = Tensor(x, requires_grad=True)
        loss = ag.reduce(ag.tanh(ag.conv2d(t, Tensor(w), None, 1, 1)), "sum")
    ag.backward(loss, tape)
    worst = max(worst, rel_error(t.grad, numeric_grad(f_conv, x)))

    wt = rng.normal(size=(2, 3, 4, 4))

    def f_tconv(xv):
        with Tape():
            return ag.reduce(ag.tanh(ag.conv_transpose2d(Tensor(xv), Tensor(wt), None, 2, 1)),
                             "sum").item()

    tape = Tape()
    with tape:
        t = Tensor(x, requires_grad=True)
        loss = ag.reduce(ag.tanh(ag.conv_transpose2d(t, Tensor(wt), None, 2, 1)), "sum")
    ag.backward(loss, tape)
    worst = max(worst, rel_error(t.grad, numeric_grad(f_tconv, x)))

    def f_pad(xv):
        with Tape():
            return ag.reduce(ag.tanh(ag.reflect_pad(Tensor(xv), 2)), "sum").item()

    tape = Tape()
    with tape:
        t = Tensor(x, requires_grad=True)
        loss = ag.reduce(ag.tanh(ag.reflect_pad(t, 2)), "sum")
    ag.backward(loss, tape)
    worst = max(worst, rel_error(t.grad, numeric_grad(f_pad, x)))

    gain = rng.normal(1.0, 0.1, size=2)
    shift = rng.normal(size=2)

    def f_norm(xv):
        with Tape():
            return ag.reduce(ag.tanh(instance_norm(
                Tensor(xv), Tensor(gain, False), Tensor(shift, False))), "sum").item()

    tape = Tape()
    with tape:
        t = Tensor(x, requires_grad=True)
        loss = ag.reduce(ag.tanh(instance_norm(t, Tensor(gain, False), Tensor(shift, False))),
                         "sum")
    ag.backward(loss, tape)
    worst = max(worst, rel_error(t.grad, numeric_grad(f_norm, x)))

    # full 16x16 / width-4 / n_res-1 networks, every parameter element
    xin = rng.uniform(-0.5, 0.5, size=(1, 1, 16, 16))
    gen = GeneratorNet(width=4, n_res=1, variant="dense_relu", seed=1)
    worst = max(worst, _fd_check_params(gen, xin, gen.params()))
    # the patch stack needs >= 24 px of input to keep all five layers live
    xdisc = rng.uniform(-0.5, 0.5, size=(1, 1, 24, 24))
    disc = DiscriminatorNet(width=4, activation="leaky", seed=2)
    worst = max(worst, _fd_check_params(disc, xdisc, disc.params()))

    elapsed = time.perf_counter() - t0
    _verdict("1 (gradient suite)", worst < 1e-4 and elapsed < 120.0,
             "worst rel err %.3g, %.1f s" % (worst, elapsed))


# ---------------------------------------------------------------------------
# criterion 2: published metric table consistency


def test_criterion_2_metric_consistency():
    consistent_pairs = [
        (13.27, 3063.37), (11.78, 4311.68), (29.96, 65.666), (42.44, 3.70),
        (32.80, 34.15), (18.00, 1030.91), (44.89, 2.11),
    ]
    ok = True
    for p, m in consistent_pairs:
        computed, good = psnr_mse_consistent(p, m, tol=0.01)
        ok = ok and good
    # the 27.00 <-> 515.77 row violates the dB identity outright
    _, row_b = psnr_mse_consistent(27.00, 515.77, tol=0.01)
    ok = ok and not row_b
    # and jointly with 21.55 <-> 455.07 it claims PSNR rising while MSE
    # rises, which the identity makes impossible: the implied dB values
    # must move opposite to MSE
    implied_a, _ = psnr_mse_consistent(21.55, 455.07, tol=0.01)
    implied_b, _ = psnr_mse_consistent(27.00, 515.77, tol=0.01)
    claims_rise = 27.00 > 21.55 and 515.77 > 455.07
    identity_falls = implied_b < implied_a
    ok = ok and claims_rise and identity_falls
    _verdict("2 (metric tables)", ok)


# ---------------------------------------------------------------------------
# criterion 3: loss identities


def test_criterion_3_loss_identities():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        a, b, c, d = (Tensor(rng.normal(size=(1, 1, 4, 4))) for _ in range(4))
        g1 = Tensor(rng.normal(size=()))
        g2 = Tensor(rng.normal(size=()))
        cyc = cycle_consistency_loss(a, b, c, d)
        idt = identity_loss(a, b, c, d)
        w = float(rng.uniform(0.1, 5.0))
        with_idt = total_objective(g1, g2, cyc, 10.0, idt=idt, idt_weight=w).item()
        without = total_objective(g1, g2, cyc, 10.0).item()
        ok = ok and abs((with_idt - without) - w * idt.item()) < 1e-12

    # identity-behaving generators zero both reconstruction penalties
    x = Tensor(rng.normal(size=(1, 1, 4, 4)))
    y = Tensor(rng.normal(size=(1, 1, 4, 4)))
    ok = ok and cycle_consistency_loss(x, x, y, y).item() == 0.0
    ok = ok and identity_loss(y, y, x, x).item() == 0.0

    zeros = Tensor(np.zeros((1, 1, 3, 3)))
    ln2 = math.log(2.0)
    ok = ok and abs(gan_loss_generator(zeros).item() - ln2) < 1e-12
    ok = ok and abs(gan_loss_discriminator(zeros, zeros).item() - ln2) < 1e-12
    _verdict("3 (loss identities)", ok)


# ---------------------------------------------------------------------------
# criterion 7: learning-rate schedule (cheap, before the big run)


def test_criterion_7_schedule():
    cfg = TrainConfig()
    ok = all(lr_at_epoch(cfg, e) == 0.0002 for e in range(0, 101))
    ok = ok and lr_at_epoch(cfg, 150) == 0.0001
    ok = ok and lr_at_epoch(cfg, 200) == 0.0
    _verdict("7 (lr schedule)", ok)


# ---------------------------------------------------------------------------
# criterion 5: desk-scale training run


def test_criterion_5_desk_scale_run(desk_run, corpus64):
    ok = desk_run["wall_seconds"] < 1800.0
    gain = desk_run["ssim_end"] - desk_run["ssim_start"]
    ok = ok and gain >= 0.05
    # a second run with the same seed must reproduce the loss log
    # byte-for-byte
    rerun = Trainer(desk_config())
    rerun.run(corpus64)
    ok = ok and history_to_csv(rerun.history) == desk_run["losses_csv"]
    _verdict("5 (desk-scale run)", ok,
             "%.0f s, cycle SSIM %.3f -> %.3f" % (
                 desk_run["wall_seconds"], desk_run["ssim_start"], desk_run["ssim_end"]))


# ---------------------------------------------------------------------------
# criterion 4: sparsity conservation after training


def test_criterion_4_sparsity_conservation(desk_run):
    trainer = desk_run["trainer"]
    ok = True
    masked_checked = 0
    for net in (trainer.g_xy, trainer.g_yx):
        for _, layer in net.named_layers():
            if isinstance(layer, SparseConv2d):
                zeros = layer.weight.data[layer.mask.data == 0]
                ok = ok and np.all(zeros == 0.0)
                masked_checked += zeros.size
    ok = ok and masked_checked > 0

    # record every K-Winners output over 50 random batches
    records = []
    kwinners = [l for _, l in trainer.g_xy.named_layers() if isinstance(l, KWinners)]
    originals = [l.forward for l in kwinners]
    for layer in kwinners:
        def wrapped(x, train=False, _layer=layer, _orig=layer.forward):
            out = _orig(x, train)
            records.append((_layer.k, out.data.copy()))
            return out
        layer.forward = wrapped
    try:
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = Tensor(rng.uniform(-1.0, 1.0, size=(1, 1, 64, 64)))
            with Tape():
                trainer.g_xy.forward(x, train=True)
    finally:
        for layer, orig in zip(kwinners, originals):
            layer.forward = orig

    ok = ok and len(records) == 50 * len(kwinners)
    for k, out in records:
        flat = out.reshape(out.shape[0], -1)
        ok = ok and np.all((flat != 0).sum(axis=1) == k)
    _verdict("4 (sparsity conservation)", ok,
             "%d masked weights, %d k-winner activations" % (masked_checked, len(records)))


# ---------------------------------------------------------------------------
# criterion 6: relative per-epoch speed ordering


def test_criterion_6_speed_ordering(speed_runs):
    t_no_idt = speed_runs["no_idt"]["epoch_seconds"]
    t_fine = speed_runs["finetuned"]["epoch_seconds"]
    t_base = speed_runs["baseline"]["epoch_seconds"]
    ok = t_no_idt < t_fine < t_base
    _verdict("6 (speed ordering)", ok,
             "no_idt %.1fs < finetuned %.1fs < baseline %.1fs"
             % (t_no_idt, t_fine, t_base))


# ---------------------------------------------------------------------------
# criterion 8: checkpoint fidelity


def test_criterion_8_checkpoint_fidelity(desk_run, corpus64, tmp_path):
    trainer = desk_run["trainer"]
    reloaded = Trainer.checkpoint_load(desk_run["ckpt"])
    x = Tensor(image_to_net(corpus64.test_x[0]))
    ok = np.array_equal(trainer.g_xy.forward(x).data, reloaded.g_xy.forward(x).data)

    # a resumed run reproduces the unbroken run's later epoch losses
    straight = Trainer(desk_config(seed=5))
    straight.cfg.epochs_total = 4
    straight.cfg.epochs_const = 4
    small = synth_generate(SynthConfig(image_size=32, n_train=4, n_test=1, seed=5))
    straight.run(small)

    broken = Trainer(desk_config(seed=5))
    broken.cfg.epochs_total = 2
    broken.cfg.epochs_const = 4
    broken.run(small)
    broken.cfg.epochs_total = 4
    mid = str(tmp_path / "mid.ckpt")
    broken.checkpoint_save(mid)
    resumed = Trainer.checkpoint_load(mid)
    resumed.run(small)
    tail = [straight.history[i].means.values() for i in (2, 3)]
    resumed_rows = [h.means.values() for h in resumed.history]
    ok = ok and tail == resumed_rows
    _verdict("8 (checkpoint fidelity)", ok)


# ---------------------------------------------------------------------------
# criterion 9: noise-robustness report (informative)


def test_criterion_9_noise_report(desk_run, speed_runs, corpus64, tmp_path, capsys):
    data_dir = tmp_path / "testX"
    data_dir.mkdir()
    from drawcycle.data import save_pgm
    for i, img in enumerate(corpus64.test_x):
        save_pgm(img, str(data_dir / ("%04d.pgm" % i)))
    rc = cli_main(["noise-report",
                   "--ckpt-a", desk_run["ckpt"],
                   "--ckpt-b", speed_runs["no_idt"]["ckpt"],
                   "--data", str(data_dir),
                   "--sigma", "0.1", "--seed", "0"])
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().split("\n") if "deviation" in ln]
    ok = rc == 0 and len(lines) == 2
    ok = ok and "sparse_kwinners" in out and "dense_relu" in out
    with capsys.disabled():
        for ln in lines:
            print(ln)
    _verdict("9 (noise report)", ok)
