"""Workload definitions: the scale, the corpus make-up and the make-up of
a round.  Every workload runs every phase, so every run reports every
end-to-end metric.

A workload is a plain dict so that a child process receives it as JSON
and the tests can pass a tiny one.
"""

PRESETS = ("no_idt", "finetuned", "baseline")

# Both workloads train and translate 64 px drawings, the reference size.
IMAGE_SIZE = 64

# Each set-up (corpus synthesis, trainer construction, checkpoint write) is
# done this many times in a run; setup_s sums their medians.
SETUP_REPEATS = 5

WORKLOADS = {
    # The acceptance desk config, the scale at which criterion 6 is judged.
    # GEMMs are small, so K-Winners, instance norm, the tape and per-op
    # Python overhead are a larger share of a step than at mid scale.
    "desk": {
        "why": "acceptance desk scale (width 16, 3 res blocks, 64 px) where criterion 6 is judged: small GEMMs, so K-Winners, norms and per-op overhead weigh more",
        "width": 16,
        "n_res": 3,
        # training drawings per domain: one Trainer.run epoch is 4 steps
        "n_train": 4,
        # held-out outlines in the translate directory
        "n_test": 24,
        # a round trains each preset one whole epoch through Trainer.run,
        # the loop `drawcycle train` runs, then makes four translate calls
        "loop": "run",
        "translate_calls": 4,
        "min_rounds": 3,
    },
    # Half the reference width and depth: larger GEMMs than at desk, a larger
    # share for Adam and the checkpoint load, and a trainer near 1 GB of
    # memory.
    "mid": {
        "why": "mid scale (width 32, 6 res blocks, 64 px): 6.5x the conv FLOPs of a desk step; Adam's share of a step is 2x, a 168 MB checkpoint load's share of a translate 3x desk's",
        "width": 32,
        "n_res": 6,
        "n_train": 4,
        "n_test": 8,
        # a round is one Trainer.train_step of each preset and one call
        "loop": "step",
        "translate_calls": 1,
        "min_rounds": 7,
    },
}
