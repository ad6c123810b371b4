"""The seeded contract: the losses.csv and final.ckpt hashes of a short
seeded run of each preset, and the hash of its translation of the test
drawings, as README's Tests section describes it.

Usage:
  python3 tools/seeded_contract.py [--out DIR]

Synthesises the corpus (8 training and 4 test drawings per domain, seed
0), writes each configs/<preset>.cfg at width 16, 3 residual blocks and
2 epochs (1 at constant lr), trains it with the drawcycle CLI of this
checkout, translates the corpus's testX from its final.ckpt, and prints
one line per preset: `<preset> <sha256 of losses.csv> <sha256 of
final.ckpt> <sha256 of the translation>`, the last taken over each output
file's name and bytes in name order.  So two checkouts print the same
lines exactly when their losses, checkpoints and translations are
byte-equal.  The runs go to a temporary directory that is removed at
exit, or to DIR, kept, when --out is given.  Uses only the standard
library and the CLI.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = ("baseline", "no_idt", "finetuned")
OVERRIDES = {"width": "16", "n_res": "3", "epochs_total": "2", "epochs_const": "1"}


def drawcycle(*args):
    """Run one drawcycle command of this checkout; raise if it fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-m", "drawcycle.cli"] + list(args),
                   env=env, check=True, stdout=subprocess.DEVNULL)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def sha256_dir(path):
    """One hash over every file of a directory: each name and its bytes,
    in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            data = f.read()
        h.update(b"%s\0%d\0" % (name.encode("utf-8"), len(data)))
        h.update(data)
    return h.hexdigest()


def contract_config(preset):
    """The preset's config text with the contract's overrides."""
    with open(os.path.join(ROOT, "configs", preset + ".cfg")) as f:
        lines = f.read().splitlines()
    seen = set()
    for i, line in enumerate(lines):
        key = line.split("=", 1)[0].strip()
        if key in OVERRIDES:
            lines[i] = "%s = %s" % (key, OVERRIDES[key])
            seen.add(key)
    missing = set(OVERRIDES) - seen
    if missing:
        raise SystemExit("configs/%s.cfg lacks %s" % (preset, ", ".join(sorted(missing))))
    return "\n".join(lines) + "\n"


def run_contract(out):
    corpus = os.path.join(out, "corpus")
    drawcycle("synth", "--out", corpus, "--train", "8", "--test", "4", "--seed", "0")
    for preset in PRESETS:
        cfg = os.path.join(out, preset + ".cfg")
        with open(cfg, "w") as f:
            f.write(contract_config(preset))
        run = os.path.join(out, "run_" + preset)
        drawcycle("train", "--data", corpus, "--config", cfg, "--out", run)
        ckpt = os.path.join(run, "final.ckpt")
        translated = os.path.join(run, "translated")
        drawcycle("translate", "--ckpt", ckpt, "--in", os.path.join(corpus, "testX"),
                  "--out", translated)
        print(preset, sha256(os.path.join(run, "losses.csv")), sha256(ckpt),
              sha256_dir(translated), flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="keep the corpus, configs and runs in this new directory")
    args = p.parse_args()
    if args.out:
        os.makedirs(args.out)
        run_contract(args.out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            run_contract(tmp)


if __name__ == "__main__":
    main()
