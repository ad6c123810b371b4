"""Fast tests of the benchmark itself: every output check rejects a
deliberately corrupted output, BENCHMARK.json names exactly what the
benchmark prints, and a tiny-scale run of each workload completes.

Run from the repository root: python3 -m pytest bench -q
"""

import json
import math
import os
import shutil
import sys
from dataclasses import asdict

import numpy as np
import pytest

import checks
import run
from tracing import per_layer_metrics
from workloads import WORKLOADS

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from drawcycle import cli  # noqa: E402
from drawcycle.autograd import Tensor  # noqa: E402
from drawcycle.data import save_pgm  # noqa: E402
from drawcycle.layers import KWinners, SparseConv2d  # noqa: E402
from drawcycle.training import Trainer, preset_config  # noqa: E402


def tiny_spec(workload):
    return dict(WORKLOADS[workload], width=2, n_res=1, n_train=2, n_test=2,
                min_rounds=1)


@pytest.fixture(scope="module")
def finetuned_step():
    cfg = preset_config("finetuned")
    cfg.width, cfg.n_res = 2, 1
    trainer = Trainer(cfg.validate())
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
    bundle = trainer.train_step([img], [img], cfg.lr0)
    return cfg, trainer, asdict(bundle)


# -- training checks ---------------------------------------------------------

def test_losses_accept_a_real_step(finetuned_step):
    cfg, _, bundle = finetuned_step
    assert checks.check_losses(bundle, cfg.lambda_cyc, cfg.idt_weight, cfg.idt_enabled) == []


@pytest.mark.parametrize("term, value", [
    ("total_g", None), ("cyc", -1e-3), ("gan_g_xy", 0.0), ("gan_d_y", math.nan),
])
def test_losses_reject_a_perturbed_term(finetuned_step, term, value):
    cfg, _, bundle = finetuned_step
    bad = dict(bundle)
    bad[term] = bad[term] * (1 + 1e-9) if value is None else value
    assert checks.check_losses(bad, cfg.lambda_cyc, cfg.idt_weight, cfg.idt_enabled)


def test_losses_identity_includes_idt():
    bundle = {"gan_g_xy": 0.5, "gan_g_yx": 0.25, "gan_d_x": 0.5, "gan_d_y": 0.5,
              "cyc": 0.125, "idt": 0.0625}
    bundle["total_g"] = 0.5 + 0.25 + 10.0 * 0.125 + 2.0 * 0.0625
    assert checks.check_losses(bundle, 10.0, 2.0, True) == []
    assert checks.check_losses(bundle, 10.0, 1.0, True)
    assert checks.check_losses(dict(bundle, idt=None), 10.0, 2.0, True)


def test_masked_weights_reject_a_nonzero_masked_weight(finetuned_step):
    _, trainer, _ = finetuned_step
    layers = [(n, l.weight.data.copy(), l.mask.data) for n, l in trainer.g_xy.named_layers()
              if isinstance(l, SparseConv2d)]
    assert layers and checks.check_masked_weights(layers) == []
    name, weight, mask = layers[0]
    weight[np.unravel_index(np.flatnonzero(mask == 0)[0], mask.shape)] = 1e-30
    assert checks.check_masked_weights([(name, weight, mask)])


def test_duty_cycles_follow_the_ema_of_k_winners():
    layer = KWinners(k_frac=0.3, duty_period=50)
    rng = np.random.default_rng(1)
    for _ in range(7):
        layer.forward(Tensor(rng.standard_normal((1, 3, 4, 4))), train=True)
    entry = ("act", layer.duty_cycle, layer.k, layer.duty_period, 7)
    assert checks.check_duty_cycles([entry]) == []
    assert checks.check_duty_cycles([entry[:4] + (6,)])
    perturbed = layer.duty_cycle.copy()
    perturbed[0] += 1e-6
    assert checks.check_duty_cycles([("act", perturbed, layer.k, layer.duty_period, 7)])


# -- translate and evaluate checks --------------------------------------------

@pytest.fixture
def pgm_dirs(tmp_path):
    rng = np.random.default_rng(2)
    dirs = {k: tmp_path / k for k in ("inp", "out", "ref")}
    for d in dirs.values():
        d.mkdir()
    for name in ("0000.pgm", "0001.pgm"):
        for d in dirs.values():
            save_pgm(rng.integers(0, 256, size=(16, 12)), str(d / name))
    return dirs


def flip_pixel(path):
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))


def test_translated_accepts_matching_outputs(pgm_dirs):
    assert checks.check_translated(str(pgm_dirs["inp"]), str(pgm_dirs["out"])) == []


def test_translated_rejects_wrong_size_missing_and_16_bit(pgm_dirs):
    inp, out = str(pgm_dirs["inp"]), pgm_dirs["out"]
    save_pgm(np.zeros((12, 12)), str(out / "0000.pgm"))
    assert checks.check_translated(inp, str(out))
    (out / "0000.pgm").write_bytes(b"P5\n12 16\n65535\n" + bytes(384))
    assert checks.check_translated(inp, str(out))
    (out / "0000.pgm").unlink()
    assert checks.check_translated(inp, str(out))


def test_same_bytes_rejects_a_flipped_pixel(pgm_dirs, tmp_path):
    alone = tmp_path / "alone.pgm"
    shutil.copyfile(pgm_dirs["out"] / "0001.pgm", alone)
    assert checks.check_same_bytes(str(alone), str(pgm_dirs["out"] / "0001.pgm")) == []
    flip_pixel(alone)
    assert checks.check_same_bytes(str(alone), str(pgm_dirs["out"] / "0001.pgm"))


def test_report_recomputed_from_the_images(pgm_dirs, tmp_path):
    out, ref, report = pgm_dirs["out"], pgm_dirs["ref"], tmp_path / "report.csv"
    assert cli.main(["evaluate", "--translated", str(out), "--reference", str(ref),
                     "--out", str(report)]) == 0
    assert checks.check_report(str(report), str(out), str(ref)) == []
    flip_pixel(out / "0001.pgm")
    assert checks.check_report(str(report), str(out), str(ref))


def test_report_rejects_an_inconsistent_psnr(pgm_dirs, tmp_path):
    out, ref, report = pgm_dirs["out"], pgm_dirs["ref"], tmp_path / "report.csv"
    assert cli.main(["evaluate", "--translated", str(out), "--reference", str(ref),
                     "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[2] = repr(float(fields[2]) + 0.01)
    report.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    assert checks.check_report(str(report), str(out), str(ref))


# -- declared metrics and tiny runs -------------------------------------------

def test_benchmark_json_declares_what_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w["why"] for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_completes(workload, trace):
    out = run.run_workload(tiny_spec(workload), "test-" + workload, 0, 0.0, trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    names = [n for n, _ in per_layer_metrics()] if trace else [n for n, _ in run.END_TO_END]
    assert sorted(out["metrics"]) == sorted(names)
    # every layer is exercised, so every figure, per-layer ones too, is > 0
    assert [n for n, m in out["metrics"].items() if not m["value"] > 0] == []
    if trace:
        # ceil(0.3 n) winners of n units in every K-Winners layer
        assert 0.3 <= out["metrics"]["train.layers.kwinners_forward.active_frac"]["value"] < 0.31
