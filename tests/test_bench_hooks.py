"""The traced benchmark (bench/tracing.py) wraps program functions by name;
a name it needs that the program no longer has fails here, not only
under ``pytest bench``."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_tracing_install_finds_every_wrapped_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# One finetuned train step under tracing: each activation's and elementwise
# op's tape node is labelled with its own op, so its backward time is booked
# to that op, not lost as "unlabelled".
TRACED_STEP = """
import numpy as np
import tracing
from drawcycle.training import Trainer, preset_config

tracer = tracing.Tracer()
tracing.install(tracer)
cfg = preset_config("finetuned")
cfg.width, cfg.n_res = 2, 1
trainer = Trainer(cfg.validate())
img = np.random.default_rng(0).integers(0, 256, size=(32, 32)).astype(np.uint8)
trainer.train_step([img], [img], cfg.lr0)
print("\\n".join(sorted({span[0] for span in tracer.spans})))
"""


def test_traced_step_labels_backward_spans():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "bench"))
    proc = subprocess.run([sys.executable, "-c", TRACED_STEP], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    names = set(proc.stdout.split())
    for op in ("layers.relu_family", "layers.rrelu_forward", "layers.kwinners_forward",
               "autograd.elementwise", "autograd.conv2d"):
        assert op + ".bwd" in names, op
