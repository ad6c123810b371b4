"""Command-line entry points: corpus synthesis, training, translation,
evaluation, loss-curve rendering, and the noise-robustness comparison.

Every command is deterministic given identical inputs and seeds; a run
manifest sufficient to reproduce a training run is rewritten atomically
after each epoch and at run end, also when the run fails.
"""

import argparse
import math
import os
import sys
import time

import numpy as np

from .data import (
    SynthConfig, image_to_net, list_pgm, load_corpus, load_pgm, net_to_image,
    save_pgm, synth_generate, write_corpus,
)
from .metrics import evaluate_dataset, report_summary, report_to_csv
from .models import output_noise_deviation
from .autograd import Tensor
from .training import TrainConfig, Trainer, history_to_csv, load_generator, lr_at_epoch


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------

def cmd_synth(args):
    cfg = SynthConfig(image_size=args.size, n_train=args.train, n_test=args.test,
                      seed=args.seed)
    dataset = synth_generate(cfg)
    write_corpus(dataset, args.out)
    print("wrote corpus to %s: %d+%d train, %d+%d test, %d eval pairs"
          % (args.out, len(dataset.domain_x), len(dataset.domain_y),
             len(dataset.test_x), len(dataset.test_y), len(dataset.paired_eval)))
    return 0


def cmd_train(args):
    with open(args.config) as fh:
        cfg = TrainConfig.from_text(fh.read())
    dataset = load_corpus(args.data)
    os.makedirs(args.out, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    trainer = Trainer(cfg)
    checkpoints = []  # paths, in the order written

    def save(name):
        path = os.path.join(args.out, name)
        trainer.checkpoint_save(path)
        checkpoints.append(path)

    def on_epoch(_):
        last = trainer.history[-1]
        print("epoch %d/%d: %.2f s, lr %.6f, total_g %.4f"
              % (trainer.epoch, cfg.epochs_total, last.seconds,
                 lr_at_epoch(cfg, last.epoch), last.means.total_g), file=sys.stderr)
        # the last epoch's state is saved once, as final.ckpt, after the run
        every = cfg.checkpoint_every
        if every and trainer.epoch % every == 0 and trainer.epoch < cfg.epochs_total:
            save("epoch_%04d.ckpt" % trainer.epoch)
        _write_run_record(args, trainer, checkpoints, started, "running")

    try:
        trainer.run(dataset, on_epoch)
    except KeyboardInterrupt:
        _write_run_record(args, trainer, checkpoints, started, "interrupted")
        raise
    except Exception as exc:
        # keep the completed epochs' losses and checkpoints, and record the failure
        _write_run_record(args, trainer, checkpoints, started, "failed: %s" % (exc,))
        raise
    if trainer.epoch > 0:
        save("final.ckpt")
    _write_run_record(args, trainer, checkpoints, started, "completed")
    print("trained %d epochs; outputs in %s" % (trainer.epoch, args.out))
    return 0


def _write_run_record(args, trainer, checkpoints, started, status):
    """Write losses.csv and manifest.txt for the epochs completed so far."""
    losses_path = os.path.join(args.out, "losses.csv")
    _write_atomic(losses_path, history_to_csv(trainer.history))
    manifest = ["started = %s" % started,
                "updated = %s" % time.strftime("%Y-%m-%dT%H:%M:%S"),
                "status = %s" % status,
                "pid = %d" % os.getpid(),
                "data = %s" % os.path.abspath(args.data),
                "epochs_completed = %d" % trainer.epoch,
                "losses_csv = %s" % os.path.abspath(losses_path)]
    manifest += ["checkpoint = %s" % os.path.abspath(p) for p in checkpoints]
    manifest += ["[config]", trainer.cfg.to_text().rstrip()]
    _write_atomic(os.path.join(args.out, "manifest.txt"), "\n".join(manifest) + "\n")


def cmd_translate(args):
    net, _, _ = load_generator(args.ckpt, "g_xy" if args.direction == "x2y" else "g_yx")
    names = _pgm_names(args.indir)
    os.makedirs(args.out, exist_ok=True)
    for name in names:
        img = load_pgm(os.path.join(args.indir, name))
        out = net.forward(Tensor(image_to_net(img)), train=False)
        save_pgm(net_to_image(out.data), os.path.join(args.out, name))
    print("translated %d images (%s) into %s" % (len(names), args.direction, args.out))
    return 0


def _pgm_names(path):
    """The .pgm names in a directory that must hold at least one."""
    names = list_pgm(path)
    if not names:
        raise ValueError("no .pgm files in %s" % (path,))
    return names


def _load_pgm_dir(path, names):
    return [load_pgm(os.path.join(path, n)) for n in names]


def cmd_evaluate(args):
    """Score each translated image against the reference of the same name."""
    names = list_pgm(args.translated)
    ref_names = list_pgm(args.reference)
    if names != ref_names:
        raise ValueError("file names differ: only in %s: %s; only in %s: %s" % (
            args.translated, ", ".join(sorted(set(names) - set(ref_names))) or "-",
            args.reference, ", ".join(sorted(set(ref_names) - set(names))) or "-"))
    report = evaluate_dataset(_load_pgm_dir(args.translated, names),
                              _load_pgm_dir(args.reference, names),
                              ids=[n[:-4] for n in names])
    _write_atomic(args.out, report_to_csv(report))
    print(report_summary(report))
    return 0


# ---------------------------------------------------------------------------
# loss-curve SVG

_CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
                 "#ff7f0e", "#8c564b", "#17becf")


def _chart_svg(title, xs, ys, color, x0, y0, w, h):
    parts = ['<text x="%d" y="%d" font-size="12" font-family="sans-serif">%s</text>'
             % (x0, y0 - 6, title)]
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#999"/>'
                 % (x0, y0, w, h))
    lo, hi = min(ys), max(ys)
    span = (hi - lo) or 1.0
    xspan = (max(xs) - min(xs)) or 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = x0 + (x - min(xs)) / xspan * w
        py = y0 + h - (y - lo) / span * h
        pts.append("%.2f,%.2f" % (px, py))
    parts.append('<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>'
                 % (color, " ".join(pts)))
    parts.append('<text x="%d" y="%d" font-size="10" font-family="sans-serif">%.4g</text>'
                 % (x0 + w + 4, y0 + 10, hi))
    parts.append('<text x="%d" y="%d" font-size="10" font-family="sans-serif">%.4g</text>'
                 % (x0 + w + 4, y0 + h, lo))
    return parts


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _loss_row(path, line, text, n_fields):
    """One losses.csv row as floats, with None for an empty loss cell (a
    column the run did not use).  Raises naming the file and line for a
    field count other than the header's, or a cell that is not a finite
    number."""
    cells = text.split(",")
    if len(cells) != n_fields:
        raise ValueError("%s line %d: %d fields, the header has %d" % (path, line, len(cells), n_fields))
    bad = [c for i, c in enumerate(cells) if (c or i == 0) and not _finite(c)]
    if bad:
        raise ValueError("%s line %d: %r is not a finite number" % (path, line, bad[0]))
    return [float(c) if c else None for c in cells]


def cmd_curves(args):
    with open(args.losses) as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    if len(lines) < 2:
        raise ValueError("%s has no data rows" % (args.losses,))
    header = lines[0][1].split(",")
    if header[0] != "epoch":
        raise ValueError("%s: first column must be 'epoch'" % (args.losses,))
    columns = args.columns.split(",") if args.columns else header[1:]
    for c in columns:
        if c not in header[1:]:
            raise ValueError("unknown loss column %r" % (c,))
    rows = [_loss_row(args.losses, n, ln, len(header)) for n, ln in lines[1:]]
    chart_w, chart_h, pad = 640, 120, 50
    parts = []
    y0 = pad
    drawn = 0
    for ci, col in enumerate(columns):
        idx = header.index(col)
        series = [(r[0], r[idx]) for r in rows if r[idx] is not None]
        if not series:
            continue
        xs = [s[0] for s in series]
        ys = [s[1] for s in series]
        parts.extend(_chart_svg(col, xs, ys, _CURVE_COLORS[ci % len(_CURVE_COLORS)],
                                pad, y0, chart_w, chart_h))
        y0 += chart_h + 40
        drawn += 1
    if not drawn:
        raise ValueError("no plottable loss columns")
    svg = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">\n%s\n</svg>\n'
           % (chart_w + 2 * pad + 60, y0, "\n".join(parts)))
    _write_atomic(args.out, svg)
    print("wrote %d curves to %s" % (drawn, args.out))
    return 0


def cmd_noise_report(args):
    images = _load_pgm_dir(args.data, _pgm_names(args.data))
    results = []
    for label, path in (("a", args.ckpt_a), ("b", args.ckpt_b)):
        net, cfg, epochs = load_generator(path, "g_xy")
        devs = output_noise_deviation(net, images, args.sigma, seed=args.seed)
        results.append((label, cfg.variant, path, epochs, devs))
    for label, variant, path, epochs, devs in results:
        q1, median, q3 = np.percentile(devs, [25, 50, 75])
        # the mean stays the third token from the end: tests read it there
        print("generator %s (%s, %s, epochs %d): output L1 deviation at sigma %.3f: "
              "median %.6f, quartiles %.6f %.6f, mean %.6f (%d images)"
              % (label, variant, path, epochs, args.sigma, median, q1, q3,
                 float(np.mean(devs)), len(devs)))
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="drawcycle",
                                description="Unpaired drawing-to-drawing translation")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate the synthetic two-domain corpus")
    s.add_argument("--out", required=True)
    s.add_argument("--size", type=int, default=64)
    s.add_argument("--train", type=int, default=40)
    s.add_argument("--test", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("train", help="train on a corpus directory")
    s.add_argument("--data", required=True)
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("translate", help="run a trained generator over a directory of PGMs")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--in", dest="indir", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--direction", choices=("x2y", "y2x"), default="x2y")
    s.set_defaults(func=cmd_translate)

    s = sub.add_parser("evaluate", help="score translated images against references")
    s.add_argument("--translated", required=True)
    s.add_argument("--reference", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("curves", help="render losses.csv as an SVG chart")
    s.add_argument("--losses", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--columns", default=None,
                   help="comma-separated subset of loss columns")
    s.set_defaults(func=cmd_curves)

    s = sub.add_parser("noise-report",
                       help="compare output stability of two generators under input noise")
    s.add_argument("--ckpt-a", required=True)
    s.add_argument("--ckpt-b", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--sigma", type=float, default=0.1)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_noise_report)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
