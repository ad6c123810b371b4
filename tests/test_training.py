import hashlib
import os
import weakref

import numpy as np
import pytest

from drawcycle import autograd as ag
from drawcycle import training
from drawcycle.autograd import Tape, Tensor
from drawcycle.data import SynthConfig, synth_generate
from drawcycle.serialize import CheckpointError, read_entries, write_entries
from drawcycle.training import (
    Adam, ImagePool, TrainConfig, Trainer, TrainingDiverged,
    adam_step, history_to_csv, load_generator, lr_at_epoch, preset_config,
)


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def tiny_config(**kw):
    kw.setdefault("width", 2)
    kw.setdefault("n_res", 1)
    kw.setdefault("epochs_total", 1)
    kw.setdefault("epochs_const", 1)
    kw.setdefault("pool_size", 4)
    return TrainConfig(**kw).validate()


def all_params(trainer):
    """Every parameter of a trainer's four networks, through its optimizers."""
    return [p for opt in (trainer.opt_g, trainer.opt_dx, trainer.opt_dy) for p in opt.params]


def tiny_dataset(n=2, size=32, seed=0):
    cfg = SynthConfig(image_size=size, n_train=n, n_test=1, seed=seed)
    return synth_generate(cfg)


class TestConfig:
    def test_round_trip_text(self):
        cfg = tiny_config(lambda_cyc=7.5, idt_enabled=False, seed=3)
        back = TrainConfig.from_text(cfg.to_text())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            TrainConfig.from_text("learning_rate = 0.1\n")

    def test_comments_and_blanks_ignored(self):
        cfg = TrainConfig.from_text("# header\n\nlambda_cyc = 5  # inline\n")
        assert cfg.lambda_cyc == 5.0

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig.from_text("idt_enabled = maybe\n")

    def test_bad_number_names_key(self):
        for key, value in (("width", "1.5"), ("lr0", "abc"), ("seed", "")):
            with pytest.raises(ValueError, match="config key %r: bad" % key):
                TrainConfig.from_text("%s = %s\n" % (key, value))

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs_const=10, epochs_total=5).validate()
        with pytest.raises(ValueError):
            TrainConfig(lambda_cyc=-1.0).validate()
        # a negative period would save every |n|-th epoch, a negative
        # weight reward identity error, a negative strength invert boosting
        for key, value in (("checkpoint_every", -2), ("idt_weight", -1.0),
                           ("boost_strength", -1.0), ("seed", -1)):
            with pytest.raises(ValueError, match=key):
                TrainConfig(**{key: value}).validate()
            with pytest.raises(ValueError, match=key):
                TrainConfig.from_text("%s = %s\n" % (key, value))
        # the sparse-generator keys, when parsed, not at the first step
        for key, value in (("duty_period", 0), ("duty_period", -5),
                           ("weight_sparsity", 1.0), ("weight_sparsity", -0.1),
                           ("k_frac", 0.0), ("k_frac", 1.5), ("k_frac", -0.3)):
            with pytest.raises(ValueError, match=key):
                TrainConfig(**{key: value}).validate()
            with pytest.raises(ValueError, match=key):
                TrainConfig.from_text("%s = %s\n" % (key, value))
        TrainConfig(duty_period=1, weight_sparsity=0.0, k_frac=1.0).validate()

    def test_presets(self):
        base = preset_config("baseline")
        assert base.idt_enabled and base.variant == "dense_relu"
        no_idt = preset_config("no_idt")
        assert not no_idt.idt_enabled and no_idt.variant == "dense_relu"
        fine = preset_config("finetuned")
        assert not fine.idt_enabled
        assert fine.variant == "sparse_kwinners"
        assert fine.d_activation == "rrelu"
        assert fine.n_res == 12
        with pytest.raises(ValueError):
            preset_config("best")

    @pytest.mark.parametrize("name", ["baseline", "no_idt", "finetuned"])
    def test_config_files_match_presets(self, name):
        with open(os.path.join(CONFIGS, name + ".cfg")) as fh:
            assert TrainConfig.from_text(fh.read()) == preset_config(name)


class TestLrSchedule:
    CFG = TrainConfig(lr0=0.0002, epochs_total=200, epochs_const=100)

    def test_constant_phase(self):
        for e in (0, 50, 99):
            assert lr_at_epoch(self.CFG, e) == 0.0002

    def test_decay_values(self):
        assert lr_at_epoch(self.CFG, 100) == pytest.approx(0.0002, abs=1e-18)
        assert lr_at_epoch(self.CFG, 150) == pytest.approx(0.0001, abs=1e-18)
        assert lr_at_epoch(self.CFG, 200) == 0.0

    def test_continuous_at_knee(self):
        assert abs(lr_at_epoch(self.CFG, 99) - lr_at_epoch(self.CFG, 100)) < 1e-15

    def test_non_increasing(self):
        vals = [lr_at_epoch(self.CFG, e) for e in range(201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_at_epoch(self.CFG, 201)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = Tensor(np.array([3.0, -2.0]))
        adam_step([p], [np.array([0.5, -4.0])], [np.zeros(2)], [np.zeros(2)], 1, lr=0.01)
        # bias correction makes the first update lr * sign(g) up to eps
        assert p.data[0] == pytest.approx(3.0 - 0.01, abs=1e-8)
        assert p.data[1] == pytest.approx(-2.0 + 0.01, abs=1e-8)

    def test_trace_matches_reference(self):
        # minimizing f(p) = p^2 from p = 1 with lr 0.1; the trace below was
        # produced by an independent scalar implementation
        expect = [
            0.90000000049999995, 0.8018876030811648, 0.70697131356592147,
            0.61645998694566306, 0.53138669742331046, 0.45256802617827285,
            0.38059064791452701, 0.31581432937741233, 0.25838353272461595,
            0.20824410977388991,
        ]
        p = Tensor(np.array([1.0]))
        opt = Adam([p])
        for want in expect:
            p.grad = 2.0 * p.data
            opt.step(0.1)
            assert p.data[0] == pytest.approx(want, abs=1e-15)

    def test_zero_grad_is_noop(self):
        p = Tensor(np.array([1.0, 2.0]))
        opt = Adam([p])
        opt.step(0.1)  # p.grad is None -> treated as zeros
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_step_drops_gradients(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.array([0.5, -0.5])
        Adam([p]).step(0.1)
        assert p.grad is None

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            adam_step([p], [np.zeros(2)], [np.zeros(3)], [np.zeros(3)], 1, lr=0.1)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0]))
        opt = Adam([p])
        for _ in range(2000):
            p.grad = 2.0 * p.data
            opt.step(0.05)
        assert abs(p.data[0]) < 1e-2


class TestImagePool:
    def test_zero_capacity_passthrough(self):
        pool = ImagePool(0)
        img = np.ones((1, 1, 2, 2))
        assert pool.query(img) is img
        assert pool.images == []

    def test_below_capacity_returns_fresh(self):
        pool = ImagePool(3, seed=0)
        for i in range(3):
            img = np.full((1, 1, 2, 2), float(i))
            out = pool.query(img)
            assert np.array_equal(out, img)
        assert len(pool.images) == 3

    def test_stored_copies_are_independent(self):
        pool = ImagePool(2, seed=0)
        img = np.zeros((1, 1, 2, 2))
        pool.query(img)
        img[...] = 99.0
        assert np.all(pool.images[0] == 0.0)

    def test_at_capacity_fresh_fraction(self):
        pool = ImagePool(1, seed=42)
        pool.query(np.full((1, 1, 1, 1), -1.0))
        fresh = 0
        n = 10000
        for i in range(n):
            out = pool.query(np.full((1, 1, 1, 1), float(i)))
            fresh += out[0, 0, 0, 0] == float(i)
        assert abs(fresh / n - 0.5) < 0.02

    def test_swapped_image_comes_from_store(self):
        pool = ImagePool(1, seed=0)
        first = np.full((1, 1, 1, 1), 7.0)
        pool.query(first)
        seen_old = False
        for i in range(50):
            out = pool.query(np.full((1, 1, 1, 1), 100.0 + i))
            if out[0, 0, 0, 0] == 7.0:
                seen_old = True
                break
        assert seen_old

    def test_shape_change_rejected(self):
        pool = ImagePool(2, seed=0)
        pool.query(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError, match=r"\(1, 1, 2, 2\).*\(1, 1, 3, 3\)"):
            pool.query(np.zeros((1, 1, 3, 3)))


class TestTrainStep:
    def test_zero_lr_freezes_parameters(self):
        trainer = Trainer(tiny_config(seed=1))
        ds = tiny_dataset()
        before = [p.data.copy() for p in all_params(trainer)]
        trainer.train_step([ds.domain_x[0]], [ds.domain_y[0]], lr=0.0)
        after = [p.data for p in all_params(trainer)]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_positive_lr_moves_parameters(self):
        trainer = Trainer(tiny_config(seed=1))
        ds = tiny_dataset()
        before = [p.data.copy() for p in all_params(trainer)]
        trainer.train_step([ds.domain_x[0]], [ds.domain_y[0]], lr=2e-4)
        moved = sum(not np.array_equal(a, b)
                    for a, b in zip(before, [p.data for p in all_params(trainer)]))
        assert moved > len(before) // 2

    def test_bundle_fields_finite_and_idt_gating(self):
        ds = tiny_dataset()
        on = Trainer(tiny_config(seed=2, idt_enabled=True))
        b = on.train_step([ds.domain_x[0]], [ds.domain_y[0]], lr=1e-4)
        assert b.idt is not None and np.isfinite(b.idt)
        off = Trainer(tiny_config(seed=2, idt_enabled=False))
        b = off.train_step([ds.domain_x[0]], [ds.domain_y[0]], lr=1e-4)
        assert b.idt is None
        assert np.isfinite(b.total_g)

    def test_identical_seeds_identical_bundles(self):
        ds = tiny_dataset()
        runs = []
        for _ in range(2):
            tr = Trainer(tiny_config(seed=5))
            bs = [tr.train_step([ds.domain_x[i % 2]], [ds.domain_y[i % 2]], 1e-4)
                  for i in range(3)]
            runs.append([b.values() for b in bs])
        assert runs[0] == runs[1]

    def test_sparse_masks_survive_updates(self):
        from drawcycle.layers import SparseConv2d
        cfg = tiny_config(seed=3, variant="sparse_kwinners", d_activation="rrelu")
        trainer = Trainer(cfg)
        ds = tiny_dataset()
        for _ in range(3):
            trainer.train_step([ds.domain_x[0]], [ds.domain_y[0]], lr=1e-3)
        for net in (trainer.g_xy, trainer.g_yx):
            for _, layer in net.named_layers():
                if isinstance(layer, SparseConv2d):
                    assert np.all(layer.weight.data[layer.mask.data == 0] == 0.0)

    def test_each_optimizer_steps_through_update(self, monkeypatch):
        trainer = Trainer(tiny_config(seed=1, d_steps_per_g=2))
        ds = tiny_dataset()
        calls = []
        update = Trainer._update

        def spy(opt, loss, tape, lr):
            update(opt, loss, tape, lr)
            calls.append((opt, len(tape), lr))
        monkeypatch.setattr(Trainer, "_update", staticmethod(spy))
        trainer.train_step([ds.domain_x[0]], [ds.domain_y[0]], lr=1e-4)
        d_steps = [(trainer.opt_dy, 0, 1e-4), (trainer.opt_dx, 0, 1e-4)] * 2
        assert calls == [(trainer.opt_g, 0, 1e-4)] + d_steps

    @pytest.mark.parametrize("preset", ["finetuned", "baseline"])
    def test_no_gradients_held_after_step(self, preset):
        cfg = preset_config(preset)
        cfg.width, cfg.n_res, cfg.pool_size, cfg.seed = 2, 1, 4, 1
        trainer = Trainer(cfg.validate())
        ds = tiny_dataset()
        trainer.train_step([ds.domain_x[0]], [ds.domain_y[0]], lr=1e-4)
        assert all(p.grad is None for p in all_params(trainer))

    def test_resolution_change_rejected(self):
        # a run continued at another resolution would feed its
        # discriminators pooled fakes of the old size
        trainer = Trainer(tiny_config(seed=1, pool_size=1))
        small, large = tiny_dataset(size=32), tiny_dataset(size=64)
        trainer.train_step([small.domain_x[0]], [small.domain_y[0]], lr=1e-4)
        with pytest.raises(ValueError, match=r"\(1, 1, 32, 32\).*\(1, 1, 64, 64\)"):
            trainer.train_step([large.domain_x[0]], [large.domain_y[0]], lr=1e-4)

    def test_pools_store_one_image_per_generator_step(self):
        trainer = Trainer(tiny_config(seed=1, d_steps_per_g=2, pool_size=50))
        ds = tiny_dataset()
        trainer.train_step([ds.domain_x[0]], [ds.domain_y[0]], lr=1e-4)
        assert len(trainer.pool_x.images) == 1
        assert len(trainer.pool_y.images) == 1

    def test_descent_on_average(self):
        # the combined generator objective should drop over a few steps for
        # most seeds at this scale
        ds = tiny_dataset(n=2)
        wins = 0
        trials = 10
        for seed in range(trials):
            tr = Trainer(tiny_config(seed=seed))
            first = tr.train_step([ds.domain_x[0]], [ds.domain_y[0]], 2e-3).total_g
            last = None
            for _ in range(8):
                last = tr.train_step([ds.domain_x[0]], [ds.domain_y[0]], 2e-3).total_g
            wins += last < first
        assert wins >= trials * 0.8


class TestRun:
    def test_history_rows_and_step_count(self):
        ds = tiny_dataset(n=3)
        tr = Trainer(tiny_config(epochs_total=2, epochs_const=2, seed=4))
        tr.run(ds)
        assert len(tr.history) == 2
        assert [h.epoch for h in tr.history] == [0, 1]
        assert tr.step_count == 6
        assert all(h.seconds > 0 for h in tr.history)

    def test_on_epoch_sees_each_finished_epoch(self):
        ds = tiny_dataset(n=2)
        tr = Trainer(tiny_config(epochs_total=3, epochs_const=3, seed=4))
        seen = []
        tr.run(ds, on_epoch=lambda t: seen.append((t, t.epoch, [h.epoch for h in t.history])))
        assert seen == [(tr, 1, [0]), (tr, 2, [0, 1]), (tr, 3, [0, 1, 2])]

    def test_empty_dataset_rejected(self):
        tr = Trainer(tiny_config())
        from drawcycle.data import Dataset
        with pytest.raises(ValueError):
            tr.run(Dataset(domain_x=[], domain_y=[]))

    def test_batch_larger_than_a_domain_rejected(self):
        # 2 drawings per domain cannot form a batch of 5: fail before the
        # first epoch instead of running epochs of zero steps
        tr = Trainer(tiny_config(batch_size=5, epochs_total=3, epochs_const=3))
        with pytest.raises(ValueError, match=r"batch_size 5 .*\(2 X and 2 Y"):
            tr.run(tiny_dataset(n=2))
        assert tr.epoch == 0 and tr.history == []

    def test_csv_layout(self):
        ds = tiny_dataset(n=2)
        tr = Trainer(tiny_config(epochs_total=1, epochs_const=1, seed=6, idt_enabled=False))
        tr.run(ds)
        text = history_to_csv(tr.history)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,gan_g_xy,gan_g_yx,gan_d_x,gan_d_y,cyc,idt,total_g"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert cells[6] == ""  # identity column empty when disabled


class TestCheckpoint:
    def _short_trainer(self, seed=7, **kw):
        tr = Trainer(tiny_config(seed=seed, **kw))
        ds = tiny_dataset(n=2, seed=seed)
        for _ in range(2):
            tr.train_step([ds.domain_x[0]], [ds.domain_y[0]], 1e-4)
        return tr, ds

    def test_round_trip_bit_exact_forward(self, tmp_path):
        tr, ds = self._short_trainer()
        path = str(tmp_path / "t.ckpt")
        tr.checkpoint_save(path)
        back = Trainer.checkpoint_load(path)
        from drawcycle.data import image_to_net
        x = Tensor(image_to_net(ds.test_x[0]))
        a = tr.g_xy.forward(x).data
        b = back.g_xy.forward(x).data
        assert np.array_equal(a, b)
        assert back.step_count == tr.step_count

    def test_resume_matches_unbroken_run(self, tmp_path):
        ds = tiny_dataset(n=2, seed=9)
        straight = Trainer(tiny_config(seed=9, epochs_total=4, epochs_const=4))
        straight.run(ds)

        broken = Trainer(tiny_config(seed=9, epochs_total=4, epochs_const=4))
        broken.cfg.epochs_total = 2
        broken.run(ds)
        path = str(tmp_path / "mid.ckpt")
        broken.cfg.epochs_total = 4
        broken.checkpoint_save(path)
        resumed = Trainer.checkpoint_load(path)
        resumed.run(ds)

        assert len(resumed.history) == 2  # only the post-resume epochs
        straight_tail = [straight.history[i].means.values() for i in (2, 3)]
        resumed_rows = [h.means.values() for h in resumed.history]
        assert straight_tail == resumed_rows

    def test_batch_of_two_round_trip(self, tmp_path):
        # a sparse run of two batch-2 epochs; the pools then hold one
        # (2, 1, H, W) batch per step and a resumed step is bit-exact
        ds = tiny_dataset(n=4, seed=11)
        cfg = tiny_config(seed=11, variant="sparse_kwinners", d_activation="rrelu",
                          batch_size=2, epochs_total=2, epochs_const=1)
        tr = Trainer(cfg)
        tr.run(ds)
        assert tr.step_count == 4 and len(tr.history) == 2
        path = str(tmp_path / "b2.ckpt")
        tr.checkpoint_save(path)
        entries = read_entries(path)
        assert entries["pool_x.images"].shape == (4, 2, 1, 32, 32)
        assert entries["pool_y.images"].shape == (4, 2, 1, 32, 32)
        back = Trainer.checkpoint_load(path)
        xs, ys = ds.domain_x[:2], ds.domain_y[2:]
        assert tr.train_step(xs, ys, 1e-4).values() == back.train_step(xs, ys, 1e-4).values()
        for a, b in zip(all_params(tr), all_params(back)):
            assert np.array_equal(a.data, b.data)

    def _with_config_lines(self, path, extra):
        # rewrite the stored config the way an earlier version wrote it
        entries = read_entries(path)
        entries["config"] += extra.encode("utf-8")
        write_entries(path, list(entries.items()))

    def test_retired_config_keys_load(self, tmp_path):
        tr, ds = self._short_trainer(seed=12, variant="sparse_kwinners", d_activation="rrelu")
        path = str(tmp_path / "old.ckpt")
        tr.checkpoint_save(path)
        self._with_config_lines(path, "image_size = 32\nchannels = 1\nsaturating_gan = false\n")
        back = Trainer.checkpoint_load(path)
        assert back.cfg == tr.cfg
        b1 = tr.train_step([ds.domain_x[1]], [ds.domain_y[1]], 1e-4)
        b2 = back.train_step([ds.domain_x[1]], [ds.domain_y[1]], 1e-4)
        assert b1.values() == b2.values()

    @pytest.mark.parametrize("line", ["channels = 3", "saturating_gan = true"])
    def test_retired_config_key_other_value_rejected(self, tmp_path, line):
        tr, _ = self._short_trainer()
        path = str(tmp_path / "old.ckpt")
        tr.checkpoint_save(path)
        self._with_config_lines(path, line + "\n")
        with pytest.raises(CheckpointError, match=repr(line.split()[0])):
            Trainer.checkpoint_load(path)

    def test_retired_config_key_rejected_in_config_file(self):
        with pytest.raises(ValueError, match="unknown config key 'channels'"):
            TrainConfig.from_text("channels = 1\n")

    def test_corrupt_file_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            Trainer.checkpoint_load(str(p))

    def test_missing_optimizer_entry_rejected(self, tmp_path):
        tr, _ = self._short_trainer()
        path = str(tmp_path / "m.ckpt")
        tr.checkpoint_save(path)
        entries = read_entries(path)
        del entries["opt_g.t"]
        write_entries(path, list(entries.items()))
        with pytest.raises(CheckpointError, match="opt_g.t"):
            Trainer.checkpoint_load(path)

    def _with_entry(self, tmp_path, name, value, **kw):
        tr, _ = self._short_trainer(**kw)
        path = str(tmp_path / "bad.ckpt")
        tr.checkpoint_save(path)
        entries = read_entries(path)
        assert name in entries
        entries[name] = value
        write_entries(path, list(entries.items()))
        return path

    @pytest.mark.parametrize("name", ["opt_g.m.0000", "opt_dy.v.0000"])
    def test_wrong_shape_optimizer_moment_rejected(self, tmp_path, name):
        # a shape-(1,) moment would broadcast into its buffer; the error
        # names the whole entry, so which optimizer is damaged
        path = self._with_entry(tmp_path, name, np.array([0.5]))
        with pytest.raises(CheckpointError, match=repr(name) + " has shape"):
            Trainer.checkpoint_load(path)

    def test_wrong_length_duty_cycle_rejected(self, tmp_path):
        path = self._with_entry(tmp_path, "g_xy.enc.act0.duty_cycle", np.zeros(3),
                                variant="sparse_kwinners")
        for load in (lambda: load_generator(path, "g_xy"), lambda: Trainer.checkpoint_load(path)):
            with pytest.raises(CheckpointError, match="'g_xy.enc.act0.duty_cycle' has shape"):
                load()

    @pytest.mark.parametrize("name", ["opt_g.t", "epoch", "g_xy.enc.act0.meta",
                                      "rng_x", "pool_x.rng", "d_x.act0.rng"])
    def test_wrong_shape_scalar_entry_rejected(self, tmp_path, name):
        path = self._with_entry(tmp_path, name, np.zeros(3), variant="sparse_kwinners",
                                d_activation="rrelu")
        with pytest.raises(CheckpointError, match=repr(name) + " has shape"):
            Trainer.checkpoint_load(path)

    @pytest.mark.parametrize("shape", [(2, 1, 3, 3), (5, 1, 1, 32, 32)])
    def test_bad_pool_images_rejected(self, tmp_path, shape):
        # a flat image stack, and one stored batch more than pool_size = 4
        path = self._with_entry(tmp_path, "pool_x.images", np.zeros(shape))
        with pytest.raises(CheckpointError, match="pool images have shape"):
            Trainer.checkpoint_load(path)

    def test_pool_images_of_other_size_fail_first_step(self, tmp_path):
        path = self._with_entry(tmp_path, "pool_x.images", np.zeros((2, 1, 1, 3, 3)))
        back = Trainer.checkpoint_load(path)
        ds = tiny_dataset(n=2, seed=7)
        with pytest.raises(ValueError, match=r"\(1, 1, 3, 3\).*\(1, 1, 32, 32\)"):
            back.train_step([ds.domain_x[1]], [ds.domain_y[1]], 1e-4)

    def _fresh_entries_digest(self, tmp_path, preset):
        # names, order and bytes of every entry but the config text of a
        # freshly built seeded trainer: a renamed or reordered entry, or a
        # change to the order of initialization, changes the hash
        cfg = preset_config(preset)
        cfg.width, cfg.n_res, cfg.pool_size = 2, 1, 4
        path = str(tmp_path / "fresh.ckpt")
        Trainer(cfg.validate()).checkpoint_save(path)
        h = hashlib.sha256()
        for name, value in read_entries(path).items():
            if name != "config":
                h.update(name.encode("utf-8"))
                h.update(value if isinstance(value, bytes) else value.tobytes())
        return h.hexdigest()

    def test_fresh_entries_pinned(self, tmp_path):
        # sparse generator, randomized-rectifier discriminator
        assert (self._fresh_entries_digest(tmp_path, "finetuned")
                == "1a391544991126d994c68c4988661890d6da3d1cfbfac0863debd372c779b585")

    def test_fresh_entries_pinned_dense(self, tmp_path):
        # dense generator, leaky discriminator
        assert (self._fresh_entries_digest(tmp_path, "no_idt")
                == "5a5a155880f6cc823207ac2c85ff12f67e36535c056187326576c091668e3b13")

    def test_sparse_variant_round_trip(self, tmp_path):
        tr, ds = self._short_trainer(seed=8, variant="sparse_kwinners",
                                     d_activation="rrelu")
        path = str(tmp_path / "s.ckpt")
        tr.checkpoint_save(path)
        back = Trainer.checkpoint_load(path)
        b1 = tr.train_step([ds.domain_x[1]], [ds.domain_y[1]], 1e-4)
        b2 = back.train_step([ds.domain_x[1]], [ds.domain_y[1]], 1e-4)
        assert b1.values() == b2.values()


class TestLoadGenerator:
    NAMES = ("g_xy", "g_yx")

    def _checkpoint(self, tmp_path, variant, steps=1):
        preset = {"dense_relu": "no_idt", "sparse_kwinners": "finetuned"}[variant]
        cfg = preset_config(preset)
        cfg.width, cfg.n_res, cfg.pool_size, cfg.seed = 2, 1, 4, 3
        tr = Trainer(cfg.validate())
        ds = tiny_dataset(n=2, seed=3)
        for _ in range(steps):
            tr.train_step([ds.domain_x[0]], [ds.domain_y[0]], 1e-3)
        tr.epoch = 5
        path = str(tmp_path / "c.ckpt")
        tr.checkpoint_save(path)
        return path, ds

    def _assert_same_outputs(self, path, ds):
        from drawcycle.data import image_to_net, net_to_image
        trainer = Trainer.checkpoint_load(path)
        for name in self.NAMES:
            net, cfg, epoch = load_generator(path, name)
            assert cfg == trainer.cfg and epoch == trainer.epoch == 5
            for img in (ds.test_x[0], ds.test_y[0]):
                x = Tensor(image_to_net(img))
                a = getattr(trainer, name).forward(x).data
                b = net.forward(x).data
                assert a.tobytes() == b.tobytes()
                assert net_to_image(a).tobytes() == net_to_image(b).tobytes()

    @pytest.mark.parametrize("variant", ["dense_relu", "sparse_kwinners"])
    def test_matches_full_load(self, tmp_path, variant):
        self._assert_same_outputs(*self._checkpoint(tmp_path, variant))

    def test_matches_full_load_before_any_forward(self, tmp_path):
        # K-Winners layers not yet bound to a size are stored with meta -1
        path, ds = self._checkpoint(tmp_path, "sparse_kwinners", steps=0)
        assert read_entries(path)["g_xy.enc.act0.meta"][0] == -1
        self._assert_same_outputs(path, ds)

    def test_matches_full_load_with_retired_keys(self, tmp_path):
        path, ds = self._checkpoint(tmp_path, "sparse_kwinners")
        entries = read_entries(path)
        entries["config"] += b"image_size = 32\nchannels = 1\nsaturating_gan = false\n"
        write_entries(path, list(entries.items()))
        self._assert_same_outputs(path, ds)

    @pytest.mark.parametrize("name", NAMES)
    def test_missing_entry_of_chosen_generator_rejected(self, tmp_path, name):
        path, _ = self._checkpoint(tmp_path, "sparse_kwinners")
        entries = read_entries(path)
        del entries[name + ".res0.conv1.mask"]
        write_entries(path, list(entries.items()))
        with pytest.raises(CheckpointError, match=repr(name + ".res0.conv1.mask")):
            load_generator(path, name)

    @pytest.mark.parametrize("name", NAMES)
    def test_other_generator_not_read(self, tmp_path, name):
        path, _ = self._checkpoint(tmp_path, "dense_relu")
        other = "g_yx" if name == "g_xy" else "g_xy"
        want = load_generator(path, name)[0].forward(Tensor(np.zeros((1, 1, 32, 32)))).data
        entries = read_entries(path)
        del entries[other + ".enc.conv0.weight"]
        entries[other + ".enc.conv0.bias"] = np.zeros(7)  # wrong shape
        write_entries(path, list(entries.items()))
        with pytest.raises(CheckpointError):
            Trainer.checkpoint_load(path)
        got = load_generator(path, name)[0].forward(Tensor(np.zeros((1, 1, 32, 32)))).data
        assert got.tobytes() == want.tobytes()

    def test_wrong_shape_entry_rejected(self, tmp_path):
        path, _ = self._checkpoint(tmp_path, "dense_relu")
        entries = read_entries(path)
        entries["g_xy.enc.conv0.weight"] = np.array([0.5])  # would broadcast
        write_entries(path, list(entries.items()))
        for load in (lambda: load_generator(path, "g_xy"), lambda: Trainer.checkpoint_load(path)):
            with pytest.raises(CheckpointError, match="'g_xy.enc.conv0.weight' has shape"):
                load()

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        # every weight, mask and K-Winners state comes from the checkpoint,
        # so a load must succeed with every random draw made to fail
        path, ds = self._checkpoint(tmp_path, "sparse_kwinners")
        from drawcycle import layers, models, training
        from drawcycle.data import image_to_net
        trainer = Trainer.checkpoint_load(path)

        def no_draw(*args, **kwargs):
            raise AssertionError("a load drew a random number")

        for module, name in ((models, "gaussian_samples"), (models, "sparse_mask_init"),
                             (layers, "sparse_mask_init"), (training, "init_weights")):
            monkeypatch.setattr(module, name, no_draw)
        # a resume rebuilds its pools' and streams' generators from the file
        # through default_rng, so only the generator-only load goes without it
        resumed = Trainer.checkpoint_load(path)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        for name in self.NAMES:
            net = load_generator(path, name)[0]
            for img in (ds.test_x[0], ds.test_y[0]):
                x = Tensor(image_to_net(img))
                assert net.forward(x).data.tobytes() == getattr(trainer, name).forward(x).data.tobytes()
        step = ([ds.domain_x[1]], [ds.domain_y[1]], 1e-3)
        assert resumed.train_step(*step) == trainer.train_step(*step)

    def test_unsupported_version_rejected(self, tmp_path):
        path, _ = self._checkpoint(tmp_path, "dense_relu")
        entries = read_entries(path)
        entries["version"] = b"drawcycle-checkpoint-0"
        write_entries(path, list(entries.items()))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            load_generator(path, "g_xy")


class TestEntriesReadOnce:
    """Every entry a load reads is read once and then dropped, and every
    entry it read from the file is taken by some part."""

    def _checkpoint(self, tmp_path, n_res=1):
        # a sparse generator and a randomized-rectifier discriminator, two
        # steps in, so K-Winners state and both pools are stored too
        tr = Trainer(tiny_config(seed=5, n_res=n_res, variant="sparse_kwinners",
                                 d_activation="rrelu"))
        ds = tiny_dataset(n=2, seed=5)
        for _ in range(2):
            tr.train_step([ds.domain_x[0]], [ds.domain_y[0]], 1e-4)
        path = str(tmp_path / "c.ckpt")
        tr.checkpoint_save(path)
        return path

    LOADS = {"generator": lambda path: load_generator(path, "g_xy"),
             "resume": Trainer.checkpoint_load}

    def test_fewer_blocks_in_config_than_in_file_rejected(self, tmp_path):
        # a stored config of 1 residual block over a file that holds 3
        # would load as a smaller generator than the one that was trained;
        # a resume also meets optimizer moments of other shapes first
        path = self._checkpoint(tmp_path, n_res=3)
        entries = read_entries(path)
        entries["config"] = entries["config"].replace(b"n_res = 3\n", b"n_res = 1\n")
        write_entries(path, list(entries.items()))
        with pytest.raises(CheckpointError, match="entries that no part reads, first 'g_xy.res1"):
            load_generator(path, "g_xy")
        with pytest.raises(CheckpointError, match="'opt_g.m.0020' has shape"):
            Trainer.checkpoint_load(path)

    @pytest.mark.parametrize("load", sorted(LOADS))
    def test_stray_entry_rejected(self, tmp_path, load):
        path = self._checkpoint(tmp_path)
        entries = read_entries(path)
        entries["g_xy.res0.conv3.weight"] = np.zeros(2)
        write_entries(path, list(entries.items()))
        with pytest.raises(CheckpointError, match="1 checkpoint entries that no part reads, "
                                                  "first 'g_xy.res0.conv3.weight'"):
            self.LOADS[load](path)

    def test_second_read_of_an_entry_rejected(self):
        entries = {"version": training.CHECKPOINT_VERSION, "a": np.zeros(2)}
        with pytest.raises(CheckpointError, match="p: checkpoint entry 'a' was already read"):
            with training._handing_over("p", entries) as get:
                get("a")
                get("a")

    class _Watched(dict):
        """A load's entries, which check at each read that no array read
        before it is still referenced by anyone."""

        def __init__(self, entries):
            super().__init__(entries)
            self.arrays = sum(isinstance(v, np.ndarray) for v in entries.values())
            self.read = []  # (name, weakref) of each array read so far

        def alive(self):
            return [name for name, ref in self.read if ref() is not None]

        def _take(self, name, value):
            assert not self.alive(), "%s still held when %r is read" % (self.alive(), name)
            if isinstance(value, np.ndarray):
                self.read.append((name, weakref.ref(value)))
            return value

        def __getitem__(self, name):
            return self._take(name, super().__getitem__(name))

        def pop(self, name, *default):
            return self._take(name, super().pop(name, *default))

    def _watch(self, monkeypatch, module):
        watched = []
        real = module.read_entries

        def read(path, **kw):
            watched.append(self._Watched(real(path, **kw)))
            return watched[-1]

        monkeypatch.setattr(module, "read_entries", read)
        return watched

    @pytest.mark.parametrize("load", sorted(LOADS))
    def test_each_entry_released_once_copied(self, tmp_path, monkeypatch, load):
        from drawcycle import serialize
        path = self._checkpoint(tmp_path)
        watched = self._watch(monkeypatch, serialize if load == "generator" else training)
        self.LOADS[load](path)
        (entries,) = watched
        assert len(entries.read) == entries.arrays > 20
        assert entries.alive() == [] and not entries


class TestDivergenceGuard:
    def test_nan_parameters_raise(self):
        tr = Trainer(tiny_config(seed=10))
        ds = tiny_dataset()
        tr.g_xy.params()[0].data[...] = np.nan
        with pytest.raises(TrainingDiverged):
            tr.train_step([ds.domain_x[0]], [ds.domain_y[0]], 1e-4)
