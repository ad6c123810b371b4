"""Synthetic two-domain engineering-drawing corpus, PGM image I/O and
split handling.

Domain X holds bare part outlines (rectangles, polylines, circles drawn
white on black); domain Y holds the same kind of geometry plus annotation
strokes (dimension lines with end ticks, hatching, small weld-style
glyphs).  Paired evaluation samples share the underlying geometry across
domains by construction and are never exposed to training.
"""

import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

WHITE = 255


# ---------------------------------------------------------------------------
# PGM (binary P5) I/O

class PGMError(Exception):
    pass


def save_pgm(image, path):
    """Write an 8-bit grayscale image as binary PGM (maxval 255)."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise PGMError("PGM images must be 2-D")
    arr = arr.astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(arr.tobytes())


def load_pgm(path):
    """Read a binary PGM written by :func:`save_pgm` (or any P5 file with
    maxval 255); round trips are bit exact."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(blob):
            c = blob[pos:pos + 1]
            if c == b"#":
                while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PGMError("%s: truncated header" % (path,))
        return blob[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise PGMError("%s: not a binary PGM (magic %r)" % (path, magic.decode("ascii", "replace")))
    try:
        w = int(next_token())
        h = int(next_token())
        maxval = int(next_token())
    except ValueError:
        raise PGMError("%s: malformed header" % (path,))
    if maxval != 255:
        raise PGMError("%s: unsupported maxval %d (need 255)" % (path, maxval))
    pos += 1  # single whitespace after maxval
    payload = blob[pos:pos + w * h]
    if len(payload) != w * h:
        raise PGMError("%s: truncated payload (%d of %d bytes)" % (path, len(payload), w * h))
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w).copy()


# ---------------------------------------------------------------------------
# image <-> network range mapping

def image_to_net(image):
    """Map an 8-bit image to a (1, 1, H, W) float64 tensor array in [-1, 1]."""
    arr = np.asarray(image, dtype=np.float64)
    return (arr / 127.5 - 1.0)[None, None]


def net_to_image(arr):
    """Map network output in [-1, 1] back to an 8-bit image
    (round half up)."""
    arr = np.asarray(arr, dtype=np.float64)
    arr = arr.reshape(arr.shape[-2:])
    vals = np.floor((arr + 1.0) * 127.5 + 0.5)
    return np.clip(vals, 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# stroke rasterization

def draw_line(img, r0, c0, r1, c1, value=WHITE):
    n = int(max(abs(r1 - r0), abs(c1 - c0))) + 1
    rows = np.clip(np.round(np.linspace(r0, r1, n)).astype(int), 0, img.shape[0] - 1)
    cols = np.clip(np.round(np.linspace(c0, c1, n)).astype(int), 0, img.shape[1] - 1)
    img[rows, cols] = value


def draw_rect(img, r0, c0, r1, c1, value=WHITE):
    draw_line(img, r0, c0, r0, c1, value)
    draw_line(img, r1, c0, r1, c1, value)
    draw_line(img, r0, c0, r1, c0, value)
    draw_line(img, r0, c1, r1, c1, value)


def draw_circle(img, cr, cc, radius, value=WHITE):
    n = max(8, int(2 * np.pi * radius))
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    rows = np.clip(np.round(cr + radius * np.sin(th)).astype(int), 0, img.shape[0] - 1)
    cols = np.clip(np.round(cc + radius * np.cos(th)).astype(int), 0, img.shape[1] - 1)
    img[rows, cols] = value


# ---------------------------------------------------------------------------
# synthetic corpus

@dataclass
class SynthConfig:
    image_size: int = 64
    n_train: int = 40
    n_test: int = 10
    seed: int = 0
    rects: Tuple[int, int] = (1, 3)
    polylines: Tuple[int, int] = (1, 3)
    circles: Tuple[int, int] = (0, 2)
    hatches: Tuple[int, int] = (1, 2)
    dims: Tuple[int, int] = (1, 3)

    def validate(self):
        if self.image_size < 16 or self.image_size % 4:
            raise ValueError("image_size must be >= 16 and divisible by 4")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        for name in ("rects", "polylines", "circles", "hatches", "dims"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ValueError("bad range for %s: (%d, %d)" % (name, lo, hi))


@dataclass
class Dataset:
    domain_x: List[np.ndarray]
    domain_y: List[np.ndarray]
    test_x: List[np.ndarray] = field(default_factory=list)
    test_y: List[np.ndarray] = field(default_factory=list)
    paired_eval: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
    eval_annotation_masks: Optional[List[np.ndarray]] = None


def _sample_geometry(cfg, rng):
    """Random primitive set for one drawing; shared by both renders."""
    S = cfg.image_size
    geom = {"rects": [], "polylines": [], "circles": []}
    for _ in range(rng.integers(cfg.rects[0], cfg.rects[1] + 1)):
        r0 = int(rng.integers(2, S - 12))
        c0 = int(rng.integers(2, S - 12))
        r1 = int(r0 + rng.integers(8, max(9, min(S - 2 - r0, S // 2))))
        c1 = int(c0 + rng.integers(8, max(9, min(S - 2 - c0, S // 2))))
        geom["rects"].append((r0, c0, r1, c1))
    for _ in range(rng.integers(cfg.polylines[0], cfg.polylines[1] + 1)):
        n_seg = int(rng.integers(2, 5))
        pts = rng.integers(2, S - 2, size=(n_seg + 1, 2))
        geom["polylines"].append([(int(r), int(c)) for r, c in pts])
    for _ in range(rng.integers(cfg.circles[0], cfg.circles[1] + 1)):
        rad = int(rng.integers(4, max(5, S // 6)))
        cr = int(rng.integers(rad + 2, S - rad - 2))
        cc = int(rng.integers(rad + 2, S - rad - 2))
        geom["circles"].append((cr, cc, rad))
    return geom


def _render_outline(cfg, geom):
    img = np.zeros((cfg.image_size, cfg.image_size), dtype=np.uint8)
    for r0, c0, r1, c1 in geom["rects"]:
        draw_rect(img, r0, c0, r1, c1)
    for pts in geom["polylines"]:
        for (r0, c0), (r1, c1) in zip(pts[:-1], pts[1:]):
            draw_line(img, r0, c0, r1, c1)
    for cr, cc, rad in geom["circles"]:
        draw_circle(img, cr, cc, rad)
    return img


def _render_annotations(cfg, geom, rng):
    """Annotation strokes only: dimension callouts, hatching, weld glyphs."""
    S = cfg.image_size
    ann = np.zeros((S, S), dtype=np.uint8)
    rects = geom["rects"]
    n_dims = int(rng.integers(cfg.dims[0], cfg.dims[1] + 1))
    for i in range(n_dims):
        if not rects:
            break
        r0, c0, r1, c1 = rects[i % len(rects)]
        off = int(rng.integers(3, 6))
        rr = min(r1 + off, S - 2)
        # dimension line with end ticks and arrow marks
        draw_line(ann, rr, c0, rr, c1)
        draw_line(ann, rr - 2, c0, rr + 2, c0)
        draw_line(ann, rr - 2, c1, rr + 2, c1)
        draw_line(ann, rr - 1, c0 + 1, rr + 1, c0 + 1)
        draw_line(ann, rr - 1, c1 - 1, rr + 1, c1 - 1)
    n_hatch = int(rng.integers(cfg.hatches[0], cfg.hatches[1] + 1))
    for i in range(n_hatch):
        if not rects:
            break
        r0, c0, r1, c1 = rects[(i + 1) % len(rects)]
        for d in range(r0 - c1 + 2, r1 - c0 - 1, 4):
            lo_c = max(c0 + 1, r0 - d)
            hi_c = min(c1 - 1, r1 - d)
            if lo_c <= hi_c:
                draw_line(ann, lo_c + d, lo_c, hi_c + d, hi_c)
    # weld-style glyph: small triangle with a leader line at a polyline start
    if geom["polylines"]:
        r, c = geom["polylines"][0][0]
        r = int(np.clip(r, 6, S - 7))
        c = int(np.clip(c, 6, S - 7))
        draw_line(ann, r, c, r - 4, c + 4)
        draw_line(ann, r - 4, c + 4, r - 4, c + 1)
        draw_line(ann, r - 4, c + 1, r, c)
    return ann


def render_pair(cfg, sample_seed):
    """Render (outline, annotated, annotation mask) for one geometry seed."""
    rng = np.random.default_rng(sample_seed)
    geom = _sample_geometry(cfg, rng)
    outline = _render_outline(cfg, geom)
    ann = _render_annotations(cfg, geom, rng)
    annotated = np.maximum(outline, ann)
    return outline, annotated, ann > 0


def make_splits(n_items, n_train, n_test, seed):
    """Seeded disjoint train/test index selection."""
    if n_train + n_test > n_items:
        raise ValueError("requested %d + %d items from a corpus of %d" % (n_train, n_test, n_items))
    perm = np.random.default_rng(seed).permutation(n_items)
    return [int(i) for i in perm[:n_train]], [int(i) for i in perm[n_train:n_train + n_test]]


def synth_generate(cfg):
    """Build the full synthetic corpus: unpaired train/test domains plus
    geometry-sharing evaluation pairs aligned with the test X images."""
    cfg.validate()
    total = cfg.n_train + cfg.n_test
    ss = np.random.SeedSequence(cfg.seed)
    seeds_x, seeds_y = ss.spawn(2)
    x_seeds = seeds_x.spawn(total)
    y_seeds = seeds_y.spawn(total)

    x_imgs = [render_pair(cfg, s)[0] for s in x_seeds]
    y_imgs = [render_pair(cfg, s)[1] for s in y_seeds]

    train_ix, test_ix = make_splits(total, cfg.n_train, cfg.n_test, cfg.seed + 1)
    train_iy, test_iy = make_splits(total, cfg.n_train, cfg.n_test, cfg.seed + 2)

    paired_eval, masks = [], []
    for i in test_ix:
        outline, annotated, mask = render_pair(cfg, x_seeds[i])
        paired_eval.append((outline, annotated))
        masks.append(mask)

    return Dataset(
        domain_x=[x_imgs[i] for i in train_ix],
        domain_y=[y_imgs[i] for i in train_iy],
        test_x=[x_imgs[i] for i in test_ix],
        test_y=[y_imgs[i] for i in test_iy],
        paired_eval=paired_eval,
        eval_annotation_masks=masks,
    )


# ---------------------------------------------------------------------------
# corpus directory layout

SUBDIRS = ("trainX", "trainY", "testX", "testY", "eval_pairs")


def write_corpus(dataset, outdir):
    """Write the corpus directory: eval_pairs/NNNN.pgm is the ground-truth
    Y image for testX/NNNN.pgm."""
    for sub in SUBDIRS:
        os.makedirs(os.path.join(outdir, sub), exist_ok=True)
    groups = [
        ("trainX", dataset.domain_x),
        ("trainY", dataset.domain_y),
        ("testX", dataset.test_x),
        ("testY", dataset.test_y),
        ("eval_pairs", [y for _, y in (dataset.paired_eval or [])]),
    ]
    for sub, images in groups:
        for i, img in enumerate(images):
            save_pgm(img, os.path.join(outdir, sub, "%04d.pgm" % i))


def list_pgm(path):
    """Sorted names of the ``.pgm`` files in a directory."""
    return sorted(n for n in os.listdir(path) if n.endswith(".pgm"))


def _load_dir(path):
    if not os.path.isdir(path):
        raise FileNotFoundError("missing corpus directory %s" % (path,))
    return [load_pgm(os.path.join(path, n)) for n in list_pgm(path)]


def load_corpus(root):
    """Load a corpus directory written by :func:`write_corpus`."""
    ds = Dataset(
        domain_x=_load_dir(os.path.join(root, "trainX")),
        domain_y=_load_dir(os.path.join(root, "trainY")),
        test_x=_load_dir(os.path.join(root, "testX")),
        test_y=_load_dir(os.path.join(root, "testY")),
    )
    pair_dir = os.path.join(root, "eval_pairs")
    if os.path.isdir(pair_dir):
        ys = _load_dir(pair_dir)
        ds.paired_eval = list(zip(ds.test_x, ys))
    return ds
