"""Output checks.  Each one tests a property of the method or recomputes a
result apart from the program; none compares against stored outputs.

Every function returns a list of error strings; an empty list means the
output passed.
"""

import math
import os

import numpy as np

# total_g is summed by the program in the same order as below, so the
# identity holds to the last bit; the tolerance only absorbs a different
# but equally valid summation order.
LOSS_RTOL = 1e-12
# Σ duty_cycle accumulates one rounding per element per update.
DUTY_RTOL = 1e-9
METRIC_RTOL = 1e-9

GAN_TERMS = ("gan_g_xy", "gan_g_yx", "gan_d_x", "gan_d_y")


def check_losses(bundle, lambda_cyc, idt_weight, idt_enabled):
    """Loss terms of one train step: finite, GAN terms > 0, cyc >= 0, and
    total_g = gan_g_xy + gan_g_yx + λ·cyc (+ idt_weight·idt)."""
    idt = bundle["idt"]
    terms = GAN_TERMS + ("cyc", "total_g") + (() if idt is None else ("idt",))
    errors = ["%s is not finite: %r" % (t, bundle[t]) for t in terms
              if not math.isfinite(bundle[t])]
    if idt_enabled != (idt is not None):
        errors.append("idt term present=%s with idt_enabled=%s" % (idt is not None, idt_enabled))
    if errors:
        return errors
    errors = ["%s = %r is not > 0" % (t, bundle[t]) for t in GAN_TERMS if not bundle[t] > 0]
    if not bundle["cyc"] >= 0:
        errors.append("cyc = %r is negative" % (bundle["cyc"],))
    want = bundle["gan_g_xy"] + bundle["gan_g_yx"] + lambda_cyc * bundle["cyc"]
    if idt is not None:
        want += idt_weight * idt
    if abs(bundle["total_g"] - want) > LOSS_RTOL * max(abs(want), 1e-300):
        errors.append("total_g = %r but its terms sum to %r" % (bundle["total_g"], want))
    return errors


def check_masked_weights(layers):
    """``layers`` holds (name, weight, mask) arrays; every weight under a
    zero of its mask must be exactly 0."""
    errors = []
    for name, weight, mask in layers:
        leaked = np.count_nonzero(weight[mask == 0])
        if leaked:
            errors.append("%s: %d masked weights are non-zero" % (name, leaked))
    return errors


def expected_duty_sum(k, duty_period, t):
    """Σ duty_cycle after t train-mode forwards at B=1 from all zeros: each
    forward adds exactly k winners to an EMA with rate 1/duty_period."""
    return k * (1.0 - (1.0 - 1.0 / duty_period) ** t)


def check_duty_cycles(layers):
    """``layers`` holds (name, duty_cycle, k, duty_period, t)."""
    errors = []
    for name, duty, k, period, t in layers:
        got = float(np.sum(duty))
        want = expected_duty_sum(k, period, t)
        if abs(got - want) > DUTY_RTOL * max(want, 1e-300):
            errors.append("%s: Σ duty_cycle = %r, expected %r after %d forwards"
                          % (name, got, want, t))
    return errors


def read_pgm(path):
    """Parse an 8-bit binary PGM; returns (image, error)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            return None, "truncated header"
        fields.append(blob[start:pos])
    pos += 1
    if fields[0] != b"P5":
        return None, "magic %r is not P5" % (fields[0],)
    try:
        w, h, maxval = (int(f) for f in fields[1:])
    except ValueError:
        return None, "malformed header"
    if maxval != 255:
        return None, "maxval %d is not 8-bit" % (maxval,)
    if len(blob) - pos != w * h:
        return None, "payload is %d bytes, expected %d" % (len(blob) - pos, w * h)
    return np.frombuffer(blob, dtype=np.uint8, offset=pos).reshape(h, w), None


def _pgm_names(path):
    return sorted(n for n in os.listdir(path) if n.endswith(".pgm"))


def check_translated(in_dir, out_dir):
    """One 8-bit PGM of the input's size per input, under the same name."""
    in_names, out_names = _pgm_names(in_dir), _pgm_names(out_dir)
    if in_names != out_names:
        return ["outputs %s do not match inputs %s" % (out_names, in_names)]
    errors = []
    for name in in_names:
        src, err = read_pgm(os.path.join(in_dir, name))
        if err:
            errors.append("input %s: %s" % (name, err))
            continue
        out, err = read_pgm(os.path.join(out_dir, name))
        if err:
            errors.append("output %s: %s" % (name, err))
        elif out.shape != src.shape:
            errors.append("output %s is %s, input is %s" % (name, out.shape, src.shape))
    return errors


def check_same_bytes(alone, together):
    """A drawing translated alone must equal its translation inside the
    directory: every sample is processed on its own."""
    with open(alone, "rb") as a, open(together, "rb") as b:
        if a.read() != b.read():
            return ["%s differs from %s" % (alone, together)]
    return []


def _close(got, want):
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= METRIC_RTOL * max(abs(want), 1e-12)


def check_report(report_csv, translated_dir, reference_dir):
    """Recompute each image's MSE in numpy from the PGM files, paired by
    name; PSNR = 10·log10(255²/MSE); the aggregate PSNR comes from the mean
    MSE."""
    with open(report_csv) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "id,mse,psnr,ssim":
        return ["report header is %r" % (lines[:1],)]
    rows = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            return ["malformed report row %r" % (ln,)]
        rows[parts[0]] = [float(v) for v in parts[1:]]
    agg = rows.pop("aggregate", None)
    if agg is None:
        return ["report has no aggregate row"]
    names = [n[:-4] for n in _pgm_names(translated_dir)]
    if sorted(rows) != names:
        return ["report ids %s do not match translated images %s" % (sorted(rows), names)]
    errors, mses = [], []
    for name in names:
        t, err_t = read_pgm(os.path.join(translated_dir, name + ".pgm"))
        r, err_r = read_pgm(os.path.join(reference_dir, name + ".pgm"))
        if err_t or err_r or t.shape != r.shape:
            errors.append("%s: cannot pair translated and reference" % (name,))
            continue
        d = t.astype(np.float64) - r.astype(np.float64)
        m = float(np.mean(d * d))
        mses.append(m)
        got_mse, got_psnr, _ = rows[name]
        if not _close(got_mse, m):
            errors.append("%s: reported MSE %r, recomputed %r" % (name, got_mse, m))
        if not _close(got_psnr, _psnr(got_mse)):
            errors.append("%s: PSNR %r does not match its MSE %r" % (name, got_psnr, got_mse))
    if errors:
        return errors
    mean_mse = float(np.mean(mses))
    if not _close(agg[0], mean_mse):
        errors.append("aggregate MSE %r, recomputed %r" % (agg[0], mean_mse))
    if not _close(agg[1], _psnr(mean_mse)):
        errors.append("aggregate PSNR %r, expected %r from the mean MSE" % (agg[1], _psnr(mean_mse)))
    return errors


def _psnr(m):
    return math.inf if m == 0 else 10.0 * math.log10(255.0 ** 2 / m)
