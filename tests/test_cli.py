import os

import numpy as np
import pytest

from drawcycle.cli import main
from drawcycle.data import load_pgm, save_pgm
from drawcycle.metrics import evaluate_dataset, report_to_csv
from drawcycle.training import TrainConfig


def write_config(path, **overrides):
    base = dict(width=2, n_res=1, epochs_total=1, epochs_const=1, pool_size=4)
    base.update(overrides)
    cfg = TrainConfig(**base)
    path.write_text(cfg.to_text())
    return cfg


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    rc = main(["synth", "--out", str(root), "--size", "32",
               "--train", "3", "--test", "2", "--seed", "1"])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    cfg_dir = tmp_path_factory.mktemp("cfg")
    cfg_path = cfg_dir / "run.cfg"
    write_config(cfg_path, seed=2)
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--data", str(corpus), "--config", str(cfg_path),
               "--out", str(out)])
    assert rc == 0
    return out


class TestSynth:
    def test_layout_and_counts(self, corpus):
        for sub, n in (("trainX", 3), ("trainY", 3), ("testX", 2),
                       ("testY", 2), ("eval_pairs", 2)):
            files = sorted(os.listdir(corpus / sub))
            assert len(files) == n
            assert files[0] == "0000.pgm"

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["--size", "32", "--train", "2", "--test", "1", "--seed", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(a)] + args) == 0
        assert main(["synth", "--out", str(b)] + args) == 0
        for sub in ("trainX", "eval_pairs"):
            for name in os.listdir(a / sub):
                assert (a / sub / name).read_bytes() == (b / sub / name).read_bytes()

    def test_bad_size_fails(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "x"), "--size", "63"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_default_counts(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--size", "32"]) == 0
        assert len(os.listdir(out / "trainX")) == 40
        assert len(os.listdir(out / "testX")) == 10

    def test_existing_corpus_refused(self, tmp_path, capsys):
        # a smaller corpus written over a larger one would keep its extra
        # drawings, and training would read them
        out = tmp_path / "c"
        assert main(["synth", "--out", str(out), "--size", "32", "--train", "6"]) == 0
        before = {sub: sorted(os.listdir(out / sub)) for sub in os.listdir(out)}
        rc = main(["synth", "--out", str(out), "--size", "32", "--train", "2"])
        assert rc == 1
        assert "already holds drawings" in capsys.readouterr().err
        assert {sub: sorted(os.listdir(out / sub)) for sub in os.listdir(out)} == before

    def test_empty_subdirectories_accepted(self, tmp_path):
        out = tmp_path / "c"
        (out / "trainX").mkdir(parents=True)
        assert main(["synth", "--out", str(out), "--size", "32", "--train", "2"]) == 0
        assert len(os.listdir(out / "trainX")) == 2


class TestTrain:
    def test_outputs_exist(self, trained):
        assert (trained / "losses.csv").exists()
        assert (trained / "final.ckpt").exists()
        assert (trained / "manifest.txt").exists()

    def test_losses_csv_rows(self, trained):
        lines = (trained / "losses.csv").read_text().strip().split("\n")
        assert lines[0].startswith("epoch,")
        assert len(lines) == 2

    def test_manifest_mentions_config_and_checkpoint(self, trained):
        text = (trained / "manifest.txt").read_text()
        assert "epochs_completed = 1" in text
        assert "status = completed" in text
        assert "final.ckpt" in text
        assert "[config]" in text
        assert "lambda_cyc = 10.0" in text

    def test_same_seed_reproduces_losses(self, tmp_path, corpus):
        cfg_path = tmp_path / "r.cfg"
        write_config(cfg_path, seed=5)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--data", str(corpus), "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            outs.append((out / "losses.csv").read_text())
        assert outs[0] == outs[1]

    def test_two_domain_directory_trains(self, tmp_path, corpus, trained):
        # train reads only trainX and trainY: the same losses as on the
        # full corpus, without its test and eval directories
        data = tmp_path / "data"
        for sub in ("trainX", "trainY"):
            (data / sub).mkdir(parents=True)
            for name in os.listdir(corpus / sub):
                (data / sub / name).write_bytes((corpus / sub / name).read_bytes())
        cfg_path = tmp_path / "t.cfg"
        write_config(cfg_path, seed=2)
        out = tmp_path / "trun"
        assert main(["train", "--data", str(data), "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert (out / "losses.csv").read_text() == (trained / "losses.csv").read_text()

    def test_zero_epochs_no_checkpoint(self, tmp_path, corpus):
        cfg_path = tmp_path / "z.cfg"
        write_config(cfg_path, epochs_total=0, epochs_const=0)
        out = tmp_path / "zrun"
        assert main(["train", "--data", str(corpus), "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert not (out / "final.ckpt").exists()
        assert "epochs_completed = 0" in (out / "manifest.txt").read_text()

    def test_failed_run_keeps_losses_and_records_failure(self, tmp_path, corpus,
                                                         monkeypatch, capsys):
        # with a checkpoint each epoch, epoch 1's is written before epoch 2 fails
        from drawcycle.training import Trainer, TrainingDiverged
        train_step = Trainer.train_step

        def step(self, x_images, y_images, lr):
            if self.epoch == 1:
                raise TrainingDiverged("cyc", self.step_count, float("nan"))
            return train_step(self, x_images, y_images, lr)

        monkeypatch.setattr(Trainer, "train_step", step)
        cfg_path = tmp_path / "f.cfg"
        write_config(cfg_path, epochs_total=3, epochs_const=3, checkpoint_every=1)
        out = tmp_path / "frun"
        rc = main(["train", "--data", str(corpus), "--config", str(cfg_path),
                   "--out", str(out)])
        assert rc == 1
        assert "non-finite loss 'cyc'" in capsys.readouterr().err
        rows = (out / "losses.csv").read_text().strip().split("\n")
        assert len(rows) == 2 and rows[1].startswith("0,")
        manifest = (out / "manifest.txt").read_text()
        assert "status = failed: non-finite loss 'cyc'" in manifest
        assert "epochs_completed = 1" in manifest
        assert not (out / "final.ckpt").exists()
        assert (out / "epoch_0001.ckpt").exists()
        listed = [ln for ln in manifest.splitlines() if ln.startswith("checkpoint = ")]
        assert listed == ["checkpoint = %s" % (out / "epoch_0001.ckpt")]

    def test_killed_run_keeps_each_finished_epoch(self, tmp_path, corpus, monkeypatch):
        # a BaseException that is not an Exception stands in for a kill: no
        # failure record is written, so what is left is the last epoch's
        from drawcycle.training import Trainer

        class Killed(BaseException):
            pass

        train_step = Trainer.train_step

        def step(self, x_images, y_images, lr):
            if self.epoch == 2:
                raise Killed()
            return train_step(self, x_images, y_images, lr)

        monkeypatch.setattr(Trainer, "train_step", step)
        cfg_path = tmp_path / "k.cfg"
        write_config(cfg_path, epochs_total=3, epochs_const=3, checkpoint_every=1)
        out = tmp_path / "krun"
        with pytest.raises(Killed):
            main(["train", "--data", str(corpus), "--config", str(cfg_path),
                  "--out", str(out)])
        rows = (out / "losses.csv").read_text().strip().split("\n")
        assert len(rows) == 3 and rows[2].startswith("1,")
        manifest = (out / "manifest.txt").read_text()
        assert "status = running" in manifest
        assert "pid = %d" % os.getpid() in manifest
        assert "epochs_completed = 2" in manifest
        on_disk = sorted(n for n in os.listdir(out) if n.endswith(".ckpt"))
        assert on_disk == ["epoch_0001.ckpt", "epoch_0002.ckpt"]
        listed = [ln for ln in manifest.splitlines() if ln.startswith("checkpoint = ")]
        assert listed == ["checkpoint = %s" % (out / n) for n in on_disk]

    def test_interrupted_run_records_interruption(self, tmp_path, corpus, monkeypatch):
        # Ctrl-C is a KeyboardInterrupt, not an Exception: it is recorded, then re-raised
        from drawcycle.training import Trainer
        train_step = Trainer.train_step

        def step(self, x_images, y_images, lr):
            if self.epoch == 1:
                raise KeyboardInterrupt()
            return train_step(self, x_images, y_images, lr)

        monkeypatch.setattr(Trainer, "train_step", step)
        cfg_path = tmp_path / "i.cfg"
        write_config(cfg_path, epochs_total=3, epochs_const=3, checkpoint_every=1)
        out = tmp_path / "irun"
        with pytest.raises(KeyboardInterrupt):
            main(["train", "--data", str(corpus), "--config", str(cfg_path),
                  "--out", str(out)])
        rows = (out / "losses.csv").read_text().strip().split("\n")
        assert len(rows) == 2 and rows[1].startswith("0,")
        manifest = (out / "manifest.txt").read_text()
        assert "status = interrupted" in manifest
        assert "pid = %d" % os.getpid() in manifest
        assert "epochs_completed = 1" in manifest
        listed = [ln for ln in manifest.splitlines() if ln.startswith("checkpoint = ")]
        assert listed == ["checkpoint = %s" % (out / "epoch_0001.ckpt")]

    def test_last_epoch_saved_once_as_final(self, tmp_path, corpus):
        cfg_path = tmp_path / "e.cfg"
        write_config(cfg_path, epochs_total=2, epochs_const=1, checkpoint_every=1)
        out = tmp_path / "erun"
        assert main(["train", "--data", str(corpus), "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        on_disk = sorted(n for n in os.listdir(out) if n.endswith(".ckpt"))
        assert on_disk == ["epoch_0001.ckpt", "final.ckpt"]
        manifest = (out / "manifest.txt").read_text()
        assert "status = completed" in manifest
        listed = [ln for ln in manifest.splitlines() if ln.startswith("checkpoint = ")]
        assert listed == ["checkpoint = %s" % (out / n) for n in on_disk]

    def test_progress_line_per_epoch(self, tmp_path, corpus, capsys):
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path, seed=4, epochs_total=2, epochs_const=0)
        out = tmp_path / "run"
        assert main(["train", "--data", str(corpus), "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        lines = captured.err.strip().split("\n")
        assert [ln.split(":")[0] for ln in lines] == ["epoch 1/2", "epoch 2/2"]
        rows = (out / "losses.csv").read_text().strip().split("\n")[1:]
        for line, row, lr in zip(lines, rows, ("0.000200", "0.000100")):
            seconds, lr_part, total_part = line.split(": ", 1)[1].split(", ")
            assert seconds.endswith(" s") and float(seconds[:-2]) > 0
            assert lr_part == "lr " + lr
            assert total_part == "total_g %.4f" % float(row.split(",")[-1])
        assert captured.out == "trained 2 epochs; outputs in %s\n" % (out,)

    def test_unknown_config_key_fails(self, tmp_path, corpus, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("momentum = 0.9\n")
        rc = main(["train", "--data", str(corpus), "--config", str(cfg_path),
                   "--out", str(tmp_path / "bo")])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err


class TestTranslate:
    def test_shapes_and_determinism(self, trained, corpus, tmp_path):
        ckpt = str(trained / "final.ckpt")
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out in (out1, out2):
            assert main(["translate", "--ckpt", ckpt, "--in", str(corpus / "testX"),
                         "--out", str(out)]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(corpus / "testX"))
        for name in names:
            img = load_pgm(str(out1 / name))
            assert img.shape == (32, 32)
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_reverse_direction(self, trained, corpus, tmp_path):
        out = tmp_path / "rev"
        assert main(["translate", "--ckpt", str(trained / "final.ckpt"),
                     "--in", str(corpus / "testY"), "--out", str(out),
                     "--direction", "y2x"]) == 0
        assert len(os.listdir(out)) == 2

    def test_empty_input_dir_fails(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["translate", "--ckpt", str(trained / "final.ckpt"),
                   "--in", str(empty), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


    def test_truncated_checkpoint_fails_without_outputs(self, trained, corpus, tmp_path,
                                                        capsys):
        data = (trained / "final.ckpt").read_bytes()
        ckpt = tmp_path / "final.ckpt"
        # the cut falls in rng_x, an entry the generator-only read skips
        ckpt.write_bytes(data[:len(data) - 100])
        out = tmp_path / "o"
        for direction in ("x2y", "y2x"):
            rc = main(["translate", "--ckpt", str(ckpt), "--in", str(corpus / "testX"),
                       "--out", str(out), "--direction", direction])
            assert rc == 1
            assert "error:" in capsys.readouterr().err
            assert not out.exists()


    def test_bad_drawing_named_and_nothing_written(self, trained, tmp_path, capsys):
        indir = tmp_path / "in"
        indir.mkdir()
        save_pgm(np.zeros((32, 32), dtype=np.uint8), str(indir / "a.pgm"))
        save_pgm(np.zeros((30, 30), dtype=np.uint8), str(indir / "b.pgm"))
        out = tmp_path / "o"
        rc = main(["translate", "--ckpt", str(trained / "final.ckpt"), "--in", str(indir),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(indir / "b.pgm") in err and "divisible by 4" in err
        assert not out.exists()


class TestEvaluate:
    def test_identical_dirs_perfect_scores(self, corpus, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(["evaluate", "--translated", str(corpus / "testX"),
                   "--reference", str(corpus / "testX"), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "SSIM=100.00%" in printed
        assert "MSE=0.00" in printed
        lines = out.read_text().strip().split("\n")
        # header + one row per image + aggregate
        assert len(lines) == 4
        assert lines[-1].startswith("aggregate,")

    def test_count_mismatch_fails(self, corpus, tmp_path, capsys):
        rc = main(["evaluate", "--translated", str(corpus / "testX"),
                   "--reference", str(corpus / "trainX"),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_pairs_by_name(self, tmp_path):
        rng = np.random.default_rng(3)
        a, b = (rng.integers(0, 256, size=(32, 32)).astype(np.uint8) for _ in range(2))
        tr, ref = tmp_path / "tr", tmp_path / "ref"
        tr.mkdir()
        ref.mkdir()
        # same names, swapped contents: each image is scored against the
        # reference of its own name
        for d, first, second in ((tr, a, b), (ref, b, a)):
            save_pgm(first, str(d / "0000.pgm"))
            save_pgm(second, str(d / "0001.pgm"))
        out = tmp_path / "r.csv"
        assert main(["evaluate", "--translated", str(tr), "--reference", str(ref),
                     "--out", str(out)]) == 0
        want = evaluate_dataset([a, b], [b, a], ids=["0000", "0001"])
        assert out.read_text() == report_to_csv(want)

    def test_name_mismatch_fails(self, tmp_path, capsys):
        img = np.zeros((32, 32), dtype=np.uint8)
        tr, ref = tmp_path / "tr", tmp_path / "ref"
        tr.mkdir()
        ref.mkdir()
        for d, names in ((tr, ("0000.pgm", "0001.pgm")), (ref, ("0001.pgm", "zzz.pgm"))):
            for name in names:
                save_pgm(img, str(d / name))
        rc = main(["evaluate", "--translated", str(tr), "--reference", str(ref),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "0000.pgm" in err and "zzz.pgm" in err
        assert not (tmp_path / "r.csv").exists()

    def test_size_mismatch_names_pair(self, tmp_path, capsys):
        tr, ref = tmp_path / "tr", tmp_path / "ref"
        tr.mkdir()
        ref.mkdir()
        for d, size in ((tr, 32), (ref, 28)):
            save_pgm(np.zeros((32, 32), dtype=np.uint8), str(d / "0000.pgm"))
            save_pgm(np.zeros((size, size), dtype=np.uint8), str(d / "0001.pgm"))
        rc = main(["evaluate", "--translated", str(tr), "--reference", str(ref),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(tr / "0001.pgm") in err and str(ref / "0001.pgm") in err
        assert not (tmp_path / "r.csv").exists()


class TestCurves:
    def _csv(self, tmp_path, idt=True):
        p = tmp_path / "losses.csv"
        rows = ["epoch,gan_g_xy,gan_g_yx,gan_d_x,gan_d_y,cyc,idt,total_g"]
        for e in range(3):
            idt_cell = str(0.5 - 0.1 * e) if idt else ""
            rows.append("%d,1.0,1.1,0.7,0.6,%g,%s,12.0" % (e, 2.0 - e * 0.5, idt_cell))
        p.write_text("\n".join(rows) + "\n")
        return p

    def test_all_columns_rendered(self, tmp_path):
        losses = self._csv(tmp_path)
        out = tmp_path / "c.svg"
        assert main(["curves", "--losses", str(losses), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 7
        assert svg.startswith("<svg")

    def test_column_subset(self, tmp_path):
        losses = self._csv(tmp_path)
        out = tmp_path / "s.svg"
        assert main(["curves", "--losses", str(losses), "--out", str(out),
                     "--columns", "cyc,total_g"]) == 0
        assert out.read_text().count("<polyline") == 2

    def test_empty_idt_column_skipped(self, tmp_path):
        losses = self._csv(tmp_path, idt=False)
        out = tmp_path / "n.svg"
        assert main(["curves", "--losses", str(losses), "--out", str(out)]) == 0
        assert out.read_text().count("<polyline") == 6

    def test_empty_csv_fails(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("epoch,cyc\n")
        rc = main(["curves", "--losses", str(p), "--out", str(tmp_path / "e.svg")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("row,why", [
        ("3,1.0,1.1", "3 fields, the header has 8"),
        ("3,1.0,1.1,0.7,0.6,nan,0.2,12.0", "'nan' is not a finite number"),
        ("3,1.0,1.1,0.7,0.6,1.5,x,12.0", "'x' is not a finite number"),
        (",1.0,1.1,0.7,0.6,1.5,0.2,12.0", "'' is not a finite number"),
    ])
    def test_bad_row_fails(self, tmp_path, capsys, row, why):
        # a short row failed with "list index out of range", and a nan cell
        # exited 0 with "nan" in the SVG's points
        losses = self._csv(tmp_path)
        losses.write_text(losses.read_text() + "\n" + row + "\n")
        out = tmp_path / "b.svg"
        rc = main(["curves", "--losses", str(losses), "--out", str(out)])
        assert rc == 1
        assert "%s line 6: %s" % (losses, why) in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_column_fails(self, tmp_path, capsys):
        losses = self._csv(tmp_path)
        rc = main(["curves", "--losses", str(losses), "--out", str(tmp_path / "u.svg"),
                   "--columns", "entropy"])
        assert rc == 1
        assert "unknown loss column" in capsys.readouterr().err


class TestNoiseReport:
    def test_two_checkpoints_compared(self, trained, corpus, capsys):
        ckpt = str(trained / "final.ckpt")
        rc = main(["noise-report", "--ckpt-a", ckpt, "--ckpt-b", ckpt,
                   "--data", str(corpus / "testX"), "--sigma", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.strip().split("\n") if "deviation" in ln]
        assert len(lines) == 2
        # identical checkpoints and seed give identical deviations
        assert lines[0].split()[-3] == lines[1].split()[-3]
        # each checkpoint's training budget is printed
        assert all("epochs 1)" in ln for ln in lines)

    def test_empty_data_dir_fails(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        ckpt = str(trained / "final.ckpt")
        rc = main(["noise-report", "--ckpt-a", ckpt, "--ckpt-b", ckpt, "--data", str(empty)])
        assert rc == 1
        assert "error: no .pgm files in %s" % (empty,) in capsys.readouterr().err

    def test_bad_drawing_named(self, trained, tmp_path, capsys):
        data = tmp_path / "d"
        data.mkdir()
        save_pgm(np.zeros((32, 30), dtype=np.uint8), str(data / "a.pgm"))
        ckpt = str(trained / "final.ckpt")
        rc = main(["noise-report", "--ckpt-a", ckpt, "--ckpt-b", ckpt, "--data", str(data)])
        assert rc == 1
        assert "error: %s: spatial extents must be divisible by 4" % (data / "a.pgm",) \
            in capsys.readouterr().err

    def test_line_matches_full_trainer_load(self, trained, corpus, capsys):
        # the report's figures from the whole trainer's g_xy, as before
        # noise-report loaded only the generator
        from drawcycle.models import output_noise_deviation
        from drawcycle.training import Trainer
        ckpt = str(trained / "final.ckpt")
        rc = main(["noise-report", "--ckpt-a", ckpt, "--ckpt-b", ckpt,
                   "--data", str(corpus / "testX"), "--sigma", "0.05", "--seed", "3"])
        assert rc == 0
        trainer = Trainer.checkpoint_load(ckpt)
        names = sorted(os.listdir(corpus / "testX"))
        devs = output_noise_deviation(trainer.g_xy, [load_pgm(str(corpus / "testX" / n))
                                                     for n in names], 0.05, seed=3)
        q1, median, q3 = np.percentile(devs, [25, 50, 75])
        expected = ["generator %s (dense_relu, %s, epochs 1): output L1 deviation at sigma "
                    "0.050: median %.6f, quartiles %.6f %.6f, mean %.6f (2 images)"
                    % (label, ckpt, median, q1, q3, float(np.mean(devs))) for label in "ab"]
        assert capsys.readouterr().out.strip().split("\n") == expected
