"""Traced runs: spans around the calls into each layer of drawcycle.

``install`` replaces public functions of the program's modules with
wrappers that open a span on entry and close it on exit.  Nothing inside
the program changes: every wrapped name is looked up through its module
at call time, so the program calls the wrapper.  Backward time is taken
by wrapping the backward function that ``Tape.record`` receives; each is
labelled with the op whose span is open when it is recorded.

Spans are kept in memory and written out at the end, each with its name,
start, end, parent and the section of the run it fell in.
"""

import json
import os
import time
from collections import defaultdict

BWD = ".bwd"

# Per-layer metrics, per unit of work of each section: a train step (summed
# over one step of each preset), a translated image, an evaluated image and
# one corpus synthesis.
TRAIN_LAYERS = (
    ("autograd.conv2d", ("fwd_s", "bwd_s", "calls", "gflop")),
    ("autograd.conv_transpose2d", ("fwd_s", "bwd_s", "calls", "gflop")),
    ("layers.kwinners_forward", ("fwd_s", "bwd_s", "active_frac")),
    ("layers.sparse_mask", ("fwd_s", "bwd_s")),
    ("training.adam_step", ("s",)),
    ("autograd.backward", ("self_s", "nodes")),
    ("autograd.elementwise", ("fwd_s", "bwd_s")),
    ("autograd.zero_grad", ("s",)),
    ("layers.relu_family", ("fwd_s", "bwd_s")),
    ("layers.rrelu_forward", ("fwd_s", "bwd_s")),
    ("objectives", ("fwd_s",)),
    ("training.ImagePool.query", ("s",)),
    ("layers.instance_norm", ("fwd_s", "bwd_s")),
    ("autograd.reflect_pad", ("fwd_s", "bwd_s")),
    ("models.GeneratorNet.forward", ("s",)),
    ("models.DiscriminatorNet.forward", ("s",)),
)
TRANSLATE_LAYERS = (
    ("autograd.conv2d", ("fwd_s", "calls", "gflop")),
    ("autograd.conv_transpose2d", ("fwd_s", "calls", "gflop")),
    ("layers.kwinners_forward", ("fwd_s", "active_frac")),
    ("layers.sparse_mask", ("fwd_s",)),
    ("layers.instance_norm", ("fwd_s",)),
    ("autograd.reflect_pad", ("fwd_s",)),
    ("layers.relu_family", ("fwd_s",)),
    ("autograd.elementwise", ("fwd_s",)),
    ("models.GeneratorNet.forward", ("s",)),
    ("training.Trainer.checkpoint_load", ("s",)),
    ("serialize.read_entries", ("s", "mb")),
    ("data.load_pgm", ("s",)),
    ("data.save_pgm", ("s",)),
    ("cli.cmd_translate", ("s",)),
)
EVALUATE_LAYERS = (
    ("metrics.ssim", ("s",)),
    ("metrics.evaluate_dataset", ("s",)),
    ("cli.cmd_evaluate", ("s",)),
)
SETUP_LAYERS = (("data.synth_generate", ("s",)),)

SECTION_LAYERS = (
    ("train", TRAIN_LAYERS),
    ("translate", TRANSLATE_LAYERS),
    ("evaluate", EVALUATE_LAYERS),
    ("setup", SETUP_LAYERS),
)
# The traced run's own end-to-end figures, to compare with an untraced run.
TRACED_FIGURES = ("traced.step_s.no_idt", "traced.step_s.finetuned",
                  "traced.step_s.baseline", "traced.image_s",
                  "trace.spans_per_round", "trace.spans_per_image")

UNITS = {"fwd_s": "s", "bwd_s": "s", "s": "s", "self_s": "s", "calls": "count",
         "nodes": "count", "gflop": "GFLOP", "mb": "MB", "active_frac": "fraction"}


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for section, layers in SECTION_LAYERS:
        for layer, keys in layers:
            out.extend(("%s.%s.%s" % (section, layer, k), UNITS[k]) for k in keys)
    out.extend((name, "count" if name.startswith("trace.") else "s")
               for name in TRACED_FIGURES)
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, section]
        self.stack = []
        self.section = None
        self.counts = defaultdict(float)  # (section, key) -> value
        self.pending_bwd_flop = 0.0

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.section])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def top_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def count(self, key, value):
        self.counts[(self.section, key)] += value

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        return traced

    def summarize(self, section, layers, units):
        """Per-unit metrics of ``section`` over ``units`` units of work."""
        total, child, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for name, start, end, parent, sec in self.spans:
            if sec != section:
                continue
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out = {}
        for layer, keys in layers:
            for k in keys:
                if k in ("fwd_s", "s"):
                    v = total[layer]
                elif k == "bwd_s":
                    v = total[layer + BWD]
                elif k == "self_s":
                    v = total[layer] - child[layer]
                elif k == "calls":
                    v = calls[layer]
                elif k == "active_frac":
                    n = self.counts[(section, layer + ".n")]
                    out["%s.%s" % (layer, k)] = self.counts[(section, layer + ".frac")] / n if n else 0.0
                    continue
                else:
                    v = self.counts[(section, layer + "." + k)]
                out["%s.%s" % (layer, k)] = v / units if units else 0.0
        return out

    def span_count(self, section):
        return sum(1 for s in self.spans if s[4] == section)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, sec in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "section": sec}) + "\n")


def _conv_flop(transpose):
    """Forward FLOP count of one (transposed) convolution from its shapes."""
    def flop(x, weight, stride, padding):
        xd = getattr(x, "data", x)
        B, _, H, W = xd.shape
        O, I, K, _ = weight.data.shape
        if transpose:
            return 2.0 * B * H * W * O * I * K * K
        Ho = (H + 2 * padding - K) // stride + 1
        Wo = (W + 2 * padding - K) // stride + 1
        return 2.0 * B * Ho * Wo * O * I * K * K
    return flop


def install(tracer):
    """Wrap the program's public functions for the rest of the process."""
    from drawcycle import autograd as ag
    from drawcycle import cli, data, layers, metrics, models, training

    def conv(name, fn, flop):
        def traced(x, weight, bias=None, stride=1, padding=0):
            f = flop(x, weight, stride, padding)
            grads = sum(bool(getattr(t, "requires_grad", False)) for t in (x, weight))
            tracer.count(name + ".gflop", f / 1e9)
            tracer.pending_bwd_flop = f * grads
            idx = tracer.begin(name)
            try:
                return fn(x, weight, bias, stride=stride, padding=padding)
            finally:
                tracer.end(idx)
                tracer.pending_bwd_flop = 0.0
        return traced

    ag.conv2d = conv("autograd.conv2d", ag.conv2d, _conv_flop(False))
    ag.conv_transpose2d = conv("autograd.conv_transpose2d", ag.conv_transpose2d,
                               _conv_flop(True))
    ag.reflect_pad = tracer.wrap("autograd.reflect_pad", ag.reflect_pad)
    for fn in ("add", "sub", "neg", "abs_", "log", "tanh", "sigmoid", "softplus", "reduce"):
        setattr(ag, fn, tracer.wrap("autograd.elementwise", getattr(ag, fn)))

    orig_mul = ag.mul

    def mul(a, b):
        # the weight x mask product recorded by SparseConv2d.forward
        name = "layers.sparse_mask" if tracer.top_name() == "layers.SparseConv2d" else "autograd.elementwise"
        idx = tracer.begin(name)
        try:
            return orig_mul(a, b)
        finally:
            tracer.end(idx)
    ag.mul = mul

    ag.backward = tracer.wrap(
        "autograd.backward", ag.backward,
        after=lambda out, root, tape: tracer.count("autograd.backward.nodes", len(tape)))
    ag.zero_grad = tracer.wrap("autograd.zero_grad", ag.zero_grad)

    orig_record = ag.Tape.record

    def record(tape, output, backward_fn):
        op = tracer.top_name() or "unlabelled"
        flop = tracer.pending_bwd_flop

        def traced_bwd(g):
            if flop:
                tracer.count(op + ".gflop", flop / 1e9)
            idx = tracer.begin(op + BWD)
            try:
                return backward_fn(g)
            finally:
                tracer.end(idx)
        return orig_record(tape, output, traced_bwd)
    ag.Tape.record = record

    def active(out, *args, **kwargs):
        tracer.count("layers.kwinners_forward.frac",
                     float((out.data != 0).sum()) / out.data.size)
        tracer.count("layers.kwinners_forward.n", 1)

    layers.kwinners_forward = tracer.wrap("layers.kwinners_forward", layers.kwinners_forward,
                                          after=active)
    for fn in ("instance_norm", "relu_family", "rrelu_forward"):
        setattr(layers, fn, tracer.wrap("layers." + fn, getattr(layers, fn)))
    layers.SparseConv2d.forward = tracer.wrap("layers.SparseConv2d", layers.SparseConv2d.forward)
    for cls in (models.GeneratorNet, models.DiscriminatorNet):
        cls.forward = tracer.wrap("models.%s.forward" % cls.__name__, cls.forward)

    for fn in ("gan_loss_generator", "gan_loss_discriminator", "cycle_consistency_loss",
               "identity_loss", "total_objective"):
        setattr(training, fn, tracer.wrap("objectives", getattr(training, fn)))
    training.adam_step = tracer.wrap("training.adam_step", training.adam_step)
    training.ImagePool.query = tracer.wrap("training.ImagePool.query", training.ImagePool.query)
    training.Trainer.checkpoint_load = classmethod(tracer.wrap(
        "training.Trainer.checkpoint_load", training.Trainer.checkpoint_load.__func__))
    training.read_entries = tracer.wrap(
        "serialize.read_entries", training.read_entries,
        after=lambda out, path: tracer.count("serialize.read_entries.mb",
                                             os.path.getsize(path) / 1e6))

    for fn in ("load_pgm", "save_pgm"):
        setattr(cli, fn, tracer.wrap("data." + fn, getattr(cli, fn)))
    cli.evaluate_dataset = tracer.wrap("metrics.evaluate_dataset", cli.evaluate_dataset)
    for fn in ("cmd_translate", "cmd_evaluate"):
        setattr(cli, fn, tracer.wrap("cli." + fn, getattr(cli, fn)))
    metrics.ssim = tracer.wrap("metrics.ssim", metrics.ssim)
    data.synth_generate = tracer.wrap("data.synth_generate", data.synth_generate)
