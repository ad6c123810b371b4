"""drawcycle benchmark: training steps and translation, end to end and per
layer.

Usage:
  python3 bench/run.py --workload desk|mid --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports drawcycle from its src/.
Each phase runs in its own process, one after another: corpus synthesis,
training of the no_idt, finetuned and baseline presets in rounds, with
calls of `drawcycle translate` from the finetuned checkpoint between
them, then a check of the translations and `drawcycle evaluate`.  Every
output is checked.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
when --trace is 0 and the per-layer metrics when it is 1.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

from phase import PhaseError, job_for, run_phase
from tracing import per_layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
# a run must end within 180 s; leave room to clean up
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("step_s.no_idt", "s/step"),
    ("step_s.finetuned", "s/step"),
    ("step_s.baseline", "s/step"),
    ("translate_images_per_s", "images/s"),
    ("peak_rss_mb.train", "MB"),
    ("peak_rss_mb.translate", "MB"),
)


def run_workload(spec, name, seed, seconds, trace):
    """Run every phase of one workload; returns the result object."""
    run_dir = os.path.join(OUT_ROOT, "run-%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    base = {
        "name": "corpus", "phase": "corpus", "spec": spec, "seed": seed, "seconds": seconds,
        "trace": bool(trace), "deadline": time.monotonic() + DEADLINE_S,
        "run_dir": run_dir, "corpus": os.path.join(run_dir, "corpus"),
        "ckpt": os.path.join(run_dir, "finetuned.ckpt"),
        "result_file": os.path.join(run_dir, "result-corpus.json"),
        "trace_file": os.path.join(OUT_ROOT, "trace-%s-seed%d-corpus.jsonl" % (name, seed)),
    }
    results = {}
    try:
        for phase in ("corpus", "train", "evaluate"):
            results[phase] = run_phase(job_for(base, phase, phase))
            print("phase %s: setup %.3f s, peak %.0f MB" % (
                phase, results[phase]["setup_s"], results[phase]["peak_rss_mb"]), file=sys.stderr)
            done = list(results.values()) + results[phase].get("translated", [])
            if any(r["failed"] for r in done):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    train = results.get("train", {})
    translated = train.get("translated", [])
    for preset, r in train.get("presets", {}).items():
        print("%s: %s s/step" % (preset, " ".join("%.3f" % t for t in r["times"])),
              file=sys.stderr)
    print("translate: %s images/s" % (" ".join("%.2f" % r["images_per_s"] for r in translated
                                               if r["images_per_s"])), file=sys.stderr)
    phases = list(results.values()) + translated
    for e in (e for r in phases for e in r["errors"] + r["failures"]):
        print("check: %s" % (e,), file=sys.stderr)
    out = {
        "correct": not any(r["errors"] for r in phases),
        "attempted": sum(r["attempted"] for r in phases),
        "failed": sum(r["failed"] for r in phases),
    }
    step_s = {p: r["step_s"] for p, r in train.get("presets", {}).items()}
    translated = [r for r in translated if r["images_per_s"] is not None]
    if trace:
        values = layer_values(list(results.values()), translated)
        values.update(("traced.step_s." + p, s) for p, s in step_s.items())
        out["metrics"] = {n: {"value": values.get(n), "unit": u} for n, u in per_layer_metrics()}
    else:
        values = {
            "setup_s": sum(r["setup_s"] for r in results.values()),
            "translate_images_per_s": median([r["images_per_s"] for r in translated]),
            "peak_rss_mb.train": train.get("peak_rss_mb"),
            "peak_rss_mb.translate": median([r["peak_rss_mb"] for r in translated]),
        }
        values.update(("step_s." + p, s) for p, s in step_s.items())
        out["metrics"] = {n: {"value": values.get(n), "unit": u} for n, u in END_TO_END}
    missing = [n for n, m in out["metrics"].items() if m["value"] is None]
    if missing:
        raise PhaseError("no measurement for %s" % (", ".join(missing),))
    return out


def median(values):
    return statistics.median(values) if values else None


def layer_values(results, translated):
    """Per-layer metrics: training figures per round (one timed step of
    each preset), translate figures per image (the mean over the translate
    calls), evaluate figures per image and set-up figures per repeat."""
    values = {}
    for r in results:
        for section, layers in r.get("layers", {}).items():
            values.update(("%s.%s" % (section, k), v) for k, v in layers.items())
    if translated:
        for key in translated[0]["layers"]["translate"]:
            values["translate." + key] = statistics.mean(
                r["layers"]["translate"][key] for r in translated)
        values["traced.image_s"] = median([r["image_s"] for r in translated])
        values["trace.spans_per_image"] = statistics.mean(r["spans_per_image"] for r in translated)
    values["trace.spans_per_round"] = next(
        (r["spans_per_round"] for r in results if "spans_per_round" in r), None)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "drawcycle", "__init__.py")):
        print("error: no drawcycle sources under %s" % (os.path.join(ROOT, "src"),), file=sys.stderr)
        return 2
    try:
        result = run_workload(WORKLOADS[args.workload], args.workload, args.seed,
                              args.seconds, args.trace)
    except PhaseError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
