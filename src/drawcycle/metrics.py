"""Image quality metrics: MSE, PSNR, SSIM, and dataset aggregation.

All metrics operate on 8-bit grayscale images on the 0..255 scale in
float64.  The dataset-level PSNR is computed from the mean MSE, which is
the convention under which published PSNR/MSE pairs are internally
consistent; :func:`psnr_mse_consistent` checks a pair against that
identity.
"""

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

MAX_VALUE = 255.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def mse(a, b):
    """Mean squared pixel difference on the 0..255 scale."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("mse needs matching shapes, got %s vs %s" % (a.shape, b.shape))
    d = a - b
    return float(np.mean(d * d))


def psnr(mse_value):
    """10 * log10(max^2 / mse) in dB; zero error reports +inf."""
    if mse_value < 0:
        raise ValueError("mse must be >= 0")
    if mse_value == 0:
        return math.inf
    return 10.0 * math.log10(MAX_VALUE * MAX_VALUE / mse_value)


def _gaussian_window():
    half = (SSIM_WINDOW - 1) / 2.0
    x = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    g /= g.sum()
    return np.outer(g, g)


def _windowed_mean(img, window):
    k = window.shape[0]
    views = np.lib.stride_tricks.sliding_window_view(img, (k, k))
    return np.tensordot(views, window, axes=([2, 3], [0, 1]))


def ssim(a, b):
    """Structural similarity with an 11x11 Gaussian window (sigma 1.5),
    averaged over valid window positions only."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("ssim needs matching shapes, got %s vs %s" % (a.shape, b.shape))
    if a.ndim != 2 or min(a.shape) < SSIM_WINDOW:
        raise ValueError("ssim needs 2-D images at least %dx%d" % (SSIM_WINDOW, SSIM_WINDOW))
    c1 = (SSIM_K1 * MAX_VALUE) ** 2
    c2 = (SSIM_K2 * MAX_VALUE) ** 2
    w = _gaussian_window()
    mu_a = _windowed_mean(a, w)
    mu_b = _windowed_mean(b, w)
    var_a = _windowed_mean(a * a, w) - mu_a * mu_a
    var_b = _windowed_mean(b * b, w) - mu_b * mu_b
    cov = _windowed_mean(a * b, w) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


@dataclass
class MetricsReport:
    per_image: List[Tuple[str, float, float, float]]  # (id, mse, psnr, ssim)
    mean_mse: float
    psnr_from_mean_mse: float
    mean_ssim: float
    n_images: int


def evaluate_dataset(translated, reference, ids=None):
    """Per-image metrics plus aggregates; the aggregate PSNR is derived
    from the mean MSE."""
    if len(translated) != len(reference):
        raise ValueError("image counts differ: %d vs %d" % (len(translated), len(reference)))
    if not translated:
        raise ValueError("cannot evaluate an empty image set")
    if ids is None:
        ids = ["%04d" % i for i in range(len(translated))]
    per_image = []
    for name, t, r in zip(ids, translated, reference):
        m = mse(t, r)
        per_image.append((name, m, psnr(m), ssim(t, r)))
    mean_mse = float(np.mean([row[1] for row in per_image]))
    mean_ssim = float(np.mean([row[3] for row in per_image]))
    return MetricsReport(
        per_image=per_image,
        mean_mse=mean_mse,
        psnr_from_mean_mse=psnr(mean_mse),
        mean_ssim=mean_ssim,
        n_images=len(per_image),
    )


def psnr_mse_consistent(psnr_db, mse_value, tol=0.01):
    """Check a reported PSNR/MSE pair against the dB identity.

    Returns (computed_psnr_db, consistent) where consistent means the
    printed dB value is within ``tol`` of the value implied by the MSE.
    """
    computed = psnr(mse_value)
    return computed, abs(computed - psnr_db) <= tol


def report_to_csv(report):
    lines = ["id,mse,psnr,ssim"]
    for name, m, p, s in report.per_image:
        lines.append("%s,%.17g,%.17g,%.17g" % (name, m, p, s))
    lines.append("aggregate,%.17g,%.17g,%.17g"
                 % (report.mean_mse, report.psnr_from_mean_mse, report.mean_ssim))
    return "\n".join(lines) + "\n"


def report_summary(report):
    """Aggregate line in the SSIM-as-percent convention."""
    return "PSNR=%.2f, SSIM=%.2f%%, MSE=%.2f" % (
        report.psnr_from_mean_mse, report.mean_ssim * 100.0, report.mean_mse)
