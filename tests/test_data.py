import os

import numpy as np
import pytest

from drawcycle.data import (
    Dataset, PGMError, SynthConfig, draw_circle, draw_line, draw_rect,
    image_to_net, load_corpus, load_pgm, make_splits, net_to_image,
    render_pair, save_pgm, synth_generate, write_corpus,
)


class TestPgm:
    def test_round_trip_bit_exact(self, tmp_path):
        img = np.random.default_rng(0).integers(0, 256, size=(17, 23)).astype(np.uint8)
        p = tmp_path / "img.pgm"
        save_pgm(img, str(p))
        back = load_pgm(str(p))
        assert back.dtype == np.uint8
        assert np.array_equal(back, img)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "tiny.pgm"
        save_pgm(np.array([[0, 255], [128, 7]], dtype=np.uint8), str(p))
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[len(b"P5\n2 2\n255\n"):] == bytes([0, 255, 128, 7])

    def test_comments_in_header_are_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n\x01\x02")
        assert np.array_equal(load_pgm(str(p)), [[1, 2]])

    def test_ascii_variant_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(PGMError):
            load_pgm(str(p))

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "trunc.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(PGMError):
            load_pgm(str(p))

    @pytest.mark.parametrize("size", [b"-4 -4", b"0 5"])
    def test_empty_size_rejected(self, tmp_path, size):
        # "-4 -4" with 16 bytes reached a bare numpy reshape error, and
        # "0 5" loaded as a (5, 0) array
        p = tmp_path / "empty.pgm"
        p.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(16))
        with pytest.raises(PGMError, match="empty.pgm"):
            load_pgm(str(p))

    def test_wide_maxval_rejected(self, tmp_path):
        p = tmp_path / "wide.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(PGMError):
            load_pgm(str(p))


class TestValueMapping:
    def test_black_and_white_endpoints(self):
        x = image_to_net(np.array([[0, 255]], dtype=np.uint8))
        assert x.shape == (1, 1, 1, 2)
        assert x[0, 0, 0, 0] == -1.0
        assert x[0, 0, 0, 1] == 1.0

    def test_round_trip_all_levels(self):
        img = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert np.array_equal(net_to_image(image_to_net(img)), img)

    def test_round_half_up(self):
        # 126.5/127.5 - 1 maps back to exactly 126.5 in double precision;
        # half-up gives 127 where banker's rounding would give 126
        v = 126.5 / 127.5 - 1.0
        assert net_to_image(np.array([[[[v]]]]))[0, 0] == 127

    def test_out_of_range_clipped(self):
        arr = np.array([[[[-2.0, 2.0]]]])
        assert list(net_to_image(arr)[0]) == [0, 255]


class TestStrokes:
    def test_horizontal_line(self):
        img = np.zeros((5, 5), dtype=np.uint8)
        draw_line(img, 2, 0, 2, 4)
        assert np.array_equal(img[2], [255] * 5)
        assert img.sum() == 255 * 5

    def test_rect_perimeter_only(self):
        img = np.zeros((6, 6), dtype=np.uint8)
        draw_rect(img, 1, 1, 4, 4)
        assert np.all(img[1, 1:5] == 255)
        assert np.all(img[4, 1:5] == 255)
        assert np.all(img[2:4, 2:4] == 0)

    def test_circle_on_ring(self):
        img = np.zeros((21, 21), dtype=np.uint8)
        draw_circle(img, 10, 10, 6)
        rr, cc = np.nonzero(img)
        dist = np.hypot(rr - 10.0, cc - 10.0)
        assert np.all(np.abs(dist - 6.0) < 1.0)
        assert len(rr) >= 8


class TestRenderPair:
    def test_binary_values_and_shared_geometry(self):
        cfg = SynthConfig(image_size=64, seed=0)
        outline, annotated = render_pair(cfg, 123)
        for img in (outline, annotated):
            assert img.shape == (64, 64)
            assert set(np.unique(img)) <= {0, 255}
        # annotated is the outline strokes plus extras
        assert np.all(annotated >= outline)
        assert annotated.sum() > outline.sum()

    def test_seed_determinism(self):
        cfg = SynthConfig(image_size=32)
        a = render_pair(cfg, 5)
        b = render_pair(cfg, 5)
        c = render_pair(cfg, 6)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], c[0])


class TestSplits:
    def test_counts_and_disjointness(self):
        train, test = make_splits(50, 40, 10, 0)
        assert len(train) == 40 and len(test) == 10
        assert not set(train) & set(test)
        assert set(train) | set(test) == set(range(50))

    def test_determinism(self):
        assert make_splits(30, 20, 5, 7) == make_splits(30, 20, 5, 7)
        assert make_splits(30, 20, 5, 7) != make_splits(30, 20, 5, 8)

    def test_overdraw_rejected(self):
        with pytest.raises(ValueError):
            make_splits(10, 8, 3, 0)


class TestSynthGenerate:
    def test_shapes_counts_and_determinism(self):
        cfg = SynthConfig(image_size=32, n_train=6, n_test=3, seed=11)
        ds = synth_generate(cfg)
        assert len(ds.domain_x) == 6 and len(ds.domain_y) == 6
        assert len(ds.test_x) == 3 and len(ds.test_y) == 3
        assert len(ds.paired_eval) == 3
        for img in ds.domain_x + ds.domain_y:
            assert img.shape == (32, 32)
            assert set(np.unique(img)) <= {0, 255}
        ds2 = synth_generate(SynthConfig(image_size=32, n_train=6, n_test=3, seed=11))
        assert all(np.array_equal(a, b) for a, b in zip(ds.domain_x, ds2.domain_x))
        assert all(np.array_equal(a, b) for a, b in zip(ds.domain_y, ds2.domain_y))

    def test_eval_pairs_share_geometry_with_test_x(self):
        cfg = SynthConfig(image_size=64, n_train=4, n_test=2, seed=3)
        ds = synth_generate(cfg)
        for (outline, annotated), tx in zip(ds.paired_eval, ds.test_x):
            assert np.array_equal(outline, tx)
            assert np.all(annotated >= outline)
            assert annotated.sum() > outline.sum()

    def test_domains_differ(self):
        ds = synth_generate(SynthConfig(image_size=32, n_train=4, n_test=2, seed=4))
        # annotated images carry more ink on average
        mx = np.mean([im.mean() for im in ds.domain_x])
        my = np.mean([im.mean() for im in ds.domain_y])
        assert my > mx

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            synth_generate(SynthConfig(image_size=30))
        with pytest.raises(ValueError):
            synth_generate(SynthConfig(n_train=0))
        with pytest.raises(ValueError, match="seed"):
            synth_generate(SynthConfig(seed=-1))


class TestCorpusIO:
    def test_write_load_round_trip(self, tmp_path):
        ds = synth_generate(SynthConfig(image_size=32, n_train=3, n_test=2, seed=5))
        write_corpus(ds, str(tmp_path))
        back = load_corpus(str(tmp_path))
        for orig, loaded in ((ds.domain_x, back.domain_x), (ds.domain_y, back.domain_y)):
            assert len(loaded) == 3
            for a, b in zip(orig, loaded):
                assert np.array_equal(a, b)
        # training loads no test or eval images; they are written for
        # translate and evaluate, eval_pairs/NNNN.pgm the Y of testX/NNNN.pgm
        assert back.test_x == [] and back.test_y == [] and back.paired_eval is None
        written = [("testX", ds.test_x), ("testY", ds.test_y),
                   ("eval_pairs", [y for _, y in ds.paired_eval])]
        for sub, images in written:
            assert len(os.listdir(tmp_path / sub)) == 2
            for i, img in enumerate(images):
                assert np.array_equal(load_pgm(str(tmp_path / sub / ("%04d.pgm" % i))), img)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(str(tmp_path / "nope"))
