"""The phases of a benchmark run, each executed in a process of its own.

Usage: python3 bench/phase.py JOB.json

The job names the phase (corpus, train, translate or evaluate), the
workload dict, the seed, how long to measure, whether to trace, and where
to read inputs and write the result.  Only the program's public entry
points are called.

The train phase holds the three presets' trainers and runs them in
rounds: each round gives every preset the same training work and then
makes the workload's `drawcycle translate` calls, each in a child process
of its own, from the finetuned checkpoint.  Every metric's samples are so
spread over the whole run, and a burst of load from other tenants of the
host moves all of them a little instead of one of them a lot.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict

from checks import (
    check_duty_cycles, check_losses, check_masked_weights, check_report,
    check_same_bytes, check_translated,
)
from workloads import IMAGE_SIZE, PRESETS, SETUP_REPEATS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))


class PhaseError(RuntimeError):
    pass


def run_phase(job):
    """Run one phase in a child process, killed at the job's deadline (a
    time.monotonic() value); returns its result."""
    job_path = os.path.join(job["run_dir"], "job-%s.json" % job["name"])
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    # the CLI's progress lines go to stderr: the benchmark's stdout ends
    # with the result
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "phase.py"), job_path],
                            stdout=sys.stderr, env=env, cwd=ROOT)
    timer = threading.Timer(max(job["deadline"] - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        proc.wait()
    except BaseException:
        # interrupted: leave no child running
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise PhaseError("phase %s exited with %d" % (job["name"], proc.returncode))
    with open(job["result_file"]) as fh:
        return json.load(fh)


def peak_rss_mb():
    """This process's peak resident memory.  Not ru_maxrss: a child started
    from the train process would report that process's peak as its own."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def job_for(job, name, phase):
    """A job for another phase of the same run."""
    run_dir, trace_file = job["run_dir"], job["trace_file"]
    return dict(job, name=name, phase=phase,
                result_file=os.path.join(run_dir, "result-%s.json" % name),
                trace_file=trace_file.replace("%s.jsonl" % job["name"], "%s.jsonl" % name))


def import_program():
    """Import drawcycle from this checkout's sources, never an installed copy."""
    sys.path.insert(0, SRC)
    import drawcycle
    if not os.path.abspath(drawcycle.__file__).startswith(os.path.join(SRC, "")):
        raise ImportError("drawcycle was imported from %s, not %s" % (drawcycle.__file__, SRC))


def median_time(fn):
    """Median wall time of SETUP_REPEATS calls of ``fn``."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def set_section(tracer, name):
    if tracer is not None:
        tracer.section = name


def corpus_phase(job, tracer):
    """Synthesize the seeded corpus and write it in the `drawcycle synth`
    layout."""
    from drawcycle import data

    spec = job["spec"]

    def synthesize():
        dataset = data.synth_generate(data.SynthConfig(
            image_size=IMAGE_SIZE, n_train=spec["n_train"], n_test=spec["n_test"],
            seed=job["seed"]))
        # the same seed writes the same files over the last repeat's
        data.write_corpus(dataset, job["corpus"])

    set_section(tracer, "setup")
    setup = median_time(synthesize)
    set_section(tracer, None)
    result = {"setup_s": setup, "attempted": 0, "failed": 0, "errors": [], "failures": []}
    if tracer is not None:
        from tracing import SETUP_LAYERS
        result["layers"] = {"setup": tracer.summarize("setup", SETUP_LAYERS, SETUP_REPEATS)}
    return result


class PresetRun:
    """One preset's trainer.  Every step is checked; every step after the
    first, a warm-up, is timed."""

    def __init__(self, job, preset, tracer):
        from drawcycle.data import load_corpus
        from drawcycle.layers import KWinners, SparseConv2d
        from drawcycle.training import Trainer, preset_config

        spec = job["spec"]
        built = []

        def build():
            # drop the last repeat's trainer first, so that only one is alive
            built.clear()
            dataset = load_corpus(job["corpus"])
            cfg = preset_config(preset)
            cfg.width, cfg.n_res, cfg.seed = spec["width"], spec["n_res"], job["seed"]
            cfg.epochs_total = cfg.epochs_const = 1
            built.extend((dataset, cfg, Trainer(cfg.validate())))

        self.setup_s = median_time(build)
        self.dataset, self.cfg, self.trainer = built
        self.preset, self.tracer = preset, tracer
        self.times, self.errors, self.failures = [], [], []
        self.attempted = 0

        trainer = self.trainer
        named = [("%s.%s" % (g, n), layer)
                 for g, net in (("g_xy", trainer.g_xy), ("g_yx", trainer.g_yx))
                 for n, layer in net.named_layers()]
        self.sparse = [(n, layer) for n, layer in named if isinstance(layer, SparseConv2d)]
        self.kwinners = [(n, layer) for n, layer in named if isinstance(layer, KWinners)]
        self.train_forwards = {n: 0 for n, _ in self.kwinners}
        for name, layer in self.kwinners:
            layer.forward = self.counting(name, layer.forward)
        # Trainer.run calls self.train_step, so its steps come here too
        self.train_step = trainer.train_step
        trainer.train_step = self.step

    def counting(self, name, forward):
        def counted(x, train=False):
            self.train_forwards[name] += bool(train)
            return forward(x, train)
        return counted

    def step(self, x_images, y_images, lr):
        self.attempted += 1
        set_section(self.tracer, "warmup" if self.attempted == 1 else "train")
        t = time.perf_counter()
        bundle = self.train_step(x_images, y_images, lr)
        dt = time.perf_counter() - t
        set_section(self.tracer, None)
        if self.attempted > 1:
            self.times.append(dt)
        cfg = self.cfg
        self.errors.extend(check_losses(asdict(bundle), cfg.lambda_cyc, cfg.idt_weight,
                                        cfg.idt_enabled))
        self.errors.extend(check_masked_weights(
            [(n, layer.weight.data, layer.mask.data) for n, layer in self.sparse]))
        return bundle

    def advance(self, loop):
        """A round's training: one whole epoch through the loop `drawcycle
        train` runs ("run"), or one step ("step")."""
        trainer, dataset, cfg = self.trainer, self.dataset, self.cfg
        try:
            if loop == "run":
                cfg.epochs_total = cfg.epochs_const = trainer.epoch + 1
                trainer.run(dataset)
            else:
                i = self.attempted % len(dataset.domain_x)
                trainer.train_step([dataset.domain_x[i]], [dataset.domain_y[i]], cfg.lr0)
        except Exception as exc:
            self.failures.append("%s step %d: %r" % (self.preset, self.attempted, exc))

    def result(self):
        self.errors.extend(check_duty_cycles(
            [(n, layer.duty_cycle, layer.k, layer.duty_period, self.train_forwards[n])
             for n, layer in self.kwinners]))
        return {"attempted": self.attempted, "failed": len(self.failures),
                "errors": self.errors, "failures": self.failures,
                "step_s": statistics.median(self.times) if self.times else None,
                "times": self.times}


def train_phase(job, tracer):
    """Build the three presets' trainers, take one warm-up step with each,
    write the finetuned checkpoint, then run rounds until the job's
    seconds have passed and the workload's minimum of rounds is done."""
    spec = job["spec"]
    runs = [PresetRun(job, preset, tracer) for preset in PRESETS]
    setup = sum(r.setup_s for r in runs)
    for r in runs:
        x, y = r.dataset.domain_x[0], r.dataset.domain_y[0]
        try:
            r.trainer.train_step([x], [y], r.cfg.lr0)
        except Exception as exc:
            r.failures.append("%s step %d: %r" % (r.preset, r.attempted, exc))
    finetuned = runs[PRESETS.index("finetuned")]
    failed = any(r.failures for r in runs)
    if not failed:
        setup += median_time(lambda: finetuned.trainer.checkpoint_save(job["ckpt"]))

    translated = []
    rounds = 0
    start = time.perf_counter()
    while not failed and (rounds < spec["min_rounds"] or time.perf_counter() - start < job["seconds"]):
        for r in runs:
            r.advance(spec["loop"])
        failed = any(r.failures for r in runs)
        for _ in range(0 if failed else spec["translate_calls"]):
            result = run_phase(job_for(job, "translate-%d" % len(translated), "translate"))
            translated.append(result)
            failed = failed or result["failed"] > 0
        rounds += 1

    presets = {r.preset: r.result() for r in runs}
    result = {"setup_s": setup, "presets": presets, "translated": translated,
              "attempted": sum(p["attempted"] for p in presets.values()),
              "failed": sum(p["failed"] for p in presets.values()),
              "errors": [e for p in presets.values() for e in p["errors"]],
              "failures": [f for p in presets.values() for f in p["failures"]]}
    timed_rounds = min(len(p["times"]) for p in presets.values())
    if tracer is not None and timed_rounds:
        # per unit of one timed step of each preset
        from tracing import TRAIN_LAYERS
        result["layers"] = {"train": tracer.summarize("train", TRAIN_LAYERS, timed_rounds)}
        result["spans_per_round"] = tracer.span_count("train") / timed_rounds
    return result


def cli_call(tracer, section, argv, failures):
    """One call of the `drawcycle` command line; returns (ok, wall time)."""
    from drawcycle import cli

    set_section(tracer, section)
    t = time.perf_counter()
    rc = cli.main(argv)
    dt = time.perf_counter() - t
    set_section(tracer, None)
    if rc != 0:
        failures.append("%s exited %d" % (argv[0], rc))
    return rc == 0, dt


def translate_phase(job, tracer):
    """One `drawcycle translate` over the held-out outlines, timed with the
    checkpoint load.  Each call has a process of its own, as a command-line
    call does, so no call inherits the last one's heap."""
    in_dir = os.path.join(job["corpus"], "testX")
    out = os.path.join(job["run_dir"], "translated")
    n_images = sum(1 for n in os.listdir(in_dir) if n.endswith(".pgm"))
    errors, failures = [], []
    shutil.rmtree(out, ignore_errors=True)
    ok, wall = cli_call(tracer, "translate",
                        ["translate", "--ckpt", job["ckpt"], "--in", in_dir, "--out", out],
                        failures)
    if ok:
        errors.extend(check_translated(in_dir, out))
    result = {"setup_s": 0.0, "attempted": 1, "failed": len(failures),
              "errors": errors, "failures": failures,
              "images_per_s": n_images / wall if ok else None, "times": [wall]}
    if tracer is not None and ok:
        from tracing import TRANSLATE_LAYERS
        result["layers"] = {"translate": tracer.summarize("translate", TRANSLATE_LAYERS, n_images)}
        result["spans_per_image"] = tracer.span_count("translate") / n_images
        result["image_s"] = wall / n_images
    return result


def evaluate_phase(job, tracer):
    """Untimed checks of the last translate call's outputs: one drawing
    translated alone, then `drawcycle evaluate` against eval_pairs."""
    corpus, run_dir = job["corpus"], job["run_dir"]
    in_dir = os.path.join(corpus, "testX")
    reference = os.path.join(corpus, "eval_pairs")
    out = os.path.join(run_dir, "translated")
    names = sorted(n for n in os.listdir(in_dir) if n.endswith(".pgm"))
    errors, failures = [], []

    name = names[job["seed"] % len(names)]
    alone_in, alone_out = os.path.join(run_dir, "alone_in"), os.path.join(run_dir, "alone_out")
    os.makedirs(alone_in)
    shutil.copyfile(os.path.join(in_dir, name), os.path.join(alone_in, name))
    ok, _ = cli_call(tracer, "alone",
                     ["translate", "--ckpt", job["ckpt"], "--in", alone_in, "--out", alone_out],
                     failures)
    if ok:
        errors.extend(check_translated(alone_in, alone_out))
        errors.extend(check_same_bytes(os.path.join(alone_out, name), os.path.join(out, name)))
    report = os.path.join(run_dir, "report.csv")
    ok, _ = cli_call(tracer, "evaluate",
                     ["evaluate", "--translated", out, "--reference", reference, "--out", report],
                     failures)
    if ok:
        errors.extend(check_report(report, out, reference))
    result = {"setup_s": 0.0, "attempted": 2, "failed": len(failures),
              "errors": errors, "failures": failures}
    if tracer is not None:
        from tracing import EVALUATE_LAYERS
        result["layers"] = {"evaluate": tracer.summarize("evaluate", EVALUATE_LAYERS, len(names))}
    return result


PHASES = {"corpus": corpus_phase, "train": train_phase, "translate": translate_phase,
          "evaluate": evaluate_phase}


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    import_program()
    tracer = None
    if job["trace"]:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    result = PHASES[job["phase"]](job, tracer)
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.write(job["trace_file"])
    with open(job["result_file"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
