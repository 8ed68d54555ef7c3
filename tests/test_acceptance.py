"""Acceptance suite: one test and one reported verdict line per criterion.

Each test computes its statistic at the stated sample size and tolerance,
registers a PASS/FAIL line for the terminal summary, and then asserts.
"""

import math

import numpy as np
import pytest

from semcom import baseline, cspace, encoder, funcomp, harness, phy, scenegen
from semcom.errors import SemcomError


def verdict(report, number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    report(line)
    assert ok, line


def test_criterion_1_rate_reduction(criterion_report):
    """The semantic system saves 99.79% of the rate at every resolution."""
    reductions = {
        n_b: round(100.0 * (1.0 - baseline.semantic_rate_bits(n_b)
                            / baseline.traditional_rate_bits(n_b)), 2)
        for n_b in range(1, 17)
    }
    ok = all(v == 99.79 for v in reductions.values())
    ok = ok and round(100.0 * baseline.rate_reduction(), 2) == 99.79
    verdict(criterion_report, 1, ok,
            f"rate reduction {sorted(set(reductions.values()))}% for all n_b")


def test_criterion_2_rates_table(criterion_report):
    """Packet sizes for n_b in {2, 5, 8} match the reference rate table."""
    semantic = [baseline.semantic_rate_bits(n) for n in (2, 5, 8)]
    traditional = [baseline.traditional_rate_bits(n) for n in (2, 5, 8)]
    ok = semantic == [8, 20, 32] and traditional == [3750, 9375, 15000]
    verdict(criterion_report, 2, ok,
            f"semantic {semantic}, traditional {traditional}")


def test_criterion_3_channel_ber(criterion_report):
    """Empirical BER matches the closed form within 3 binomial SE, 1e7 bits."""
    n_bits = 10_000_000
    chunk = 1_000_000
    worst = 0.0
    details = []
    ok = True
    for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0):
        rng = np.random.default_rng(1234 + int(snr_db))
        errors = 0
        snr = 10.0 ** (snr_db / 10.0)
        for _ in range(n_bits // chunk):
            fades = rng.rayleigh(scale=math.sqrt(0.5), size=chunk)
            noise = rng.normal(0.0, math.sqrt(0.5 / snr), size=chunk)
            # all-zero bits -> +1 symbols; an error is a negative decision
            errors += int(((fades + noise) * fades < 0).sum())
        ber = errors / n_bits
        expected = phy.analytic_ber(snr_db)
        se = math.sqrt(expected * (1.0 - expected) / n_bits)
        dev = abs(ber - expected) / se
        worst = max(worst, dev)
        ok = ok and dev <= 3.0
        details.append(f"{snr_db:g}dB {dev:.2f}se")
    verdict(criterion_report, 3,
            ok, f"BER deviations {', '.join(details)} (max {worst:.2f}se)")


def test_criterion_4_semantic_vs_syntactic_gap(criterion_report):
    """At 15 dB / n_b=8 syntactic errors are frequent, semantic errors rare."""
    agg = harness.run_trials("semantic", 8, 15.0, 10_000, 0, workers=1)
    ok = (agg.p_syntactic >= 0.1
          and agg.p_syntactic >= 2.0 * agg.p_semantic)
    verdict(criterion_report, 4,
            ok, f"15dB nb=8: p_syntactic={agg.p_syntactic:.4f}, "
                f"p_semantic={agg.p_semantic:.4f}")


def test_criterion_5_distortion_floor(criterion_report):
    """High-SNR distortion equals the noiseless floor within 3 SE, and > 0."""
    # both points in one trial-major run, so each scene is fitted once
    high, clean = harness._run_points(harness.run_trial, [(8, 30.0), (8, None)],
                                      3_000, 0)
    diff = high.mean_distortion - clean.mean_distortion
    se = math.hypot(high.distortion_se, clean.distortion_se)
    ok = abs(diff) <= 3.0 * se and high.mean_distortion > 0.0
    verdict(criterion_report, 5,
            ok, f"30dB {high.mean_distortion:.6f} vs noiseless "
                f"{clean.mean_distortion:.6f} (|diff|={abs(diff):.2g}, "
                f"3se={3 * se:.2g})")


def test_criterion_6_low_rate_ordering(criterion_report):
    """At 15 dB and n_b=2 the semantic system beats pixel transmission."""
    semantic = harness.run_trials("semantic", 2, 15.0, 10_000, 0, workers=1)
    traditional = harness.run_trials("traditional", 2, 15.0, 10_000, 0,
                                     workers=1)
    ok = semantic.p_semantic < traditional.p_semantic
    verdict(criterion_report, 6,
            ok, f"nb=2 15dB semantic {semantic.p_semantic:.4f} < "
                f"traditional {traditional.p_semantic:.4f}")


def test_criterion_7_functional_compression(criterion_report):
    """The mod-2 toy function compresses to one bit via two classes."""
    f = funcomp.FiniteFunction([0, 1, 2, 3], {x: x % 2 for x in range(4)})
    classes = funcomp.equivalence_classes(f)
    bits = funcomp.min_bits(classes)
    ok = classes == [(0, 2), (1, 3)] and bits == 1
    verdict(criterion_report, 7,
            ok, f"classes {{0,2}},{{1,3}} -> {bits} bit")


def test_criterion_8_property_suites(criterion_report):
    """Bulk property checks: bounds, metric, codec, identity, reproducibility."""
    rng = np.random.default_rng(2024)
    checks = {}

    # gamma sandwich bound, 1e5 hue pairs at each of 4 sharpness values
    h = rng.uniform(0.0, 1.0, size=(100_000, 2))
    ok = True
    for rho in (5.0, 10.0, 50.0, 100.0):
        for h1, h2 in h[:: len(h) // 25_000]:
            circ = cspace.circular_distance(h1, h2)
            g = cspace.gamma(h1, h2, rho)
            ok = ok and circ - 1e-12 <= g <= circ + math.log(2.0) / rho + 1e-12
    d1 = (h[:, 0] - h[:, 1]) % 1.0
    circ = np.minimum(d1, 1.0 - d1)
    for rho in (5.0, 10.0, 50.0, 100.0):
        m = np.minimum(d1, 1.0 - d1)
        g = m - np.log(0.5 * np.exp(-rho * (d1 - m))
                       + 0.5 * np.exp(-rho * (1.0 - d1 - m))) / rho
        ok = ok and bool(np.all(g >= circ - 1e-12))
        ok = ok and bool(np.all(g <= circ + math.log(2.0) / rho + 1e-12))
    checks["gamma-sandwich"] = ok

    # triangle inequality for the semantic metric on 1e5 random triples
    def sample_points(k):
        return np.stack([rng.uniform(1.0, 2.5, k), rng.uniform(0.0, 1.0, k),
                         rng.uniform(0.0, 1.0, k), rng.uniform(0.0, 1.0, k)],
                        axis=1)

    def metric(a, b):
        dh = (a[:, 1] - b[:, 1]) % 1.0
        hue = np.minimum(dh, 1.0 - dh)
        sq = ((a[:, 0] - b[:, 0]) ** 2 + (a[:, 2] - b[:, 2]) ** 2
              + (a[:, 3] - b[:, 3]) ** 2 + hue ** 2)
        return np.sqrt(0.25 * sq)

    p, q, r = (sample_points(100_000) for _ in range(3))
    checks["metric-triangle"] = bool(
        np.all(metric(p, r) <= metric(p, q) + metric(q, r) + 1e-9))
    # spot-check the vectorized metric against the scalar implementation
    a = cspace.SemanticPoint(*p[0])
    b = cspace.SemanticPoint(*q[0])
    checks["metric-triangle"] &= (
        abs(metric(p[:1], q[:1])[0] - cspace.semantic_metric(a, b)) < 1e-12)

    # quantizer roundtrip within half a cell for 1e5 random points
    ok = True
    pts = sample_points(100_000)
    for n_b in (2, 8):
        spec = phy.QuantizerSpec(n_b)
        for row in pts[:: len(pts) // 50_000]:
            point = cspace.SemanticPoint(*row)
            back = phy.dequantize(phy.quantize(point, spec), spec)
            for v, vq, (lo, hi, circular) in zip(point.as_tuple(),
                                                 back.as_tuple(),
                                                 phy.DIMENSION_RANGES):
                half = (hi - lo) / spec.levels / 2.0
                err = (cspace.circular_distance(v, vq) if circular
                       else abs(v - vq))
                ok = ok and err <= half + 1e-12
    checks["quantizer-roundtrip"] = ok

    # noiseless pipeline transmits packets verbatim
    ok = True
    for i in range(40):
        rec = harness.run_trial(
            harness.CONCEPT_LABELS[i % 5], 8, None, harness.trial_rng(50, i))
        ok = ok and not rec.syntactic_error
        ok = ok and bool(np.array_equal(rec.bits, rec.received_bits))
    checks["noiseless-identity"] = ok

    # CSV output byte-identical across reruns and worker counts
    import tempfile, os
    cfg = dict(trials=60, base_seed=13)
    blobs = []
    for workers in (1, 3, 1):
        cfg_obj = harness.ExperimentConfig(snr_db_list=(10.0,), workers=workers,
                                           **cfg)
        rows = harness.sweep_snr(cfg_obj)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "sweep.csv")
            harness.emit_csv(rows, path, harness.SNR_SWEEP_HEADER, cfg)
            with open(path, "rb") as f:
                blobs.append(f.read())
    checks["csv-reproducible"] = blobs[0] == blobs[1] == blobs[2]

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    verdict(criterion_report, 8,
            ok, "all property suites hold" if ok else f"failed: {failed}")


def test_criterion_9_encoder_floor(criterion_report):
    """Noiseless-channel decoding: >= 99% accuracy; exact shape ratios."""
    concepts = cspace.CONCEPTS
    errors = 0
    total = 0
    per_concept = []
    for ci, c in enumerate(concepts):
        wrong = 0
        for i in range(1_000):
            rng = harness.trial_rng(7_000 + ci, i)
            spec = scenegen.sample_spec(c.label, rng)
            img = scenegen.render(spec, rng)
            try:
                point = encoder.encode(img)
            except SemcomError:  # a degenerate scene; any other error is a bug
                wrong += 1
                continue
            if cspace.decode_concept(point).label != c.label:
                wrong += 1
        per_concept.append(f"{c.label} {wrong / 1_000:.1%}")
        errors += wrong
        total += 1_000
    accuracy = 1.0 - errors / total

    # shape-ratio tolerances on noiseless renders
    ideal = {"red-triangle": (1.85, 2.15), "yellow-square": (1.35, 1.48),
             "red-octagon": (1.0724, 1.0924), "red-circle": (1.0, 1.06)}
    ratios_ok = True
    rng = np.random.default_rng(40)
    for label, (lo, hi) in ideal.items():
        spec = scenegen.sample_spec(label, rng)
        clean = scenegen.SceneSpec(spec.concept, spec.fill_hsv, spec.n_sides,
                                   spec.circumradius, spec.rotation,
                                   spec.center, pixel_noise_sigma=0.0)
        r = encoder.estimate_shape_ratio(
            encoder.segment(scenegen.image_hsv(scenegen.render(clean))[1]))
        ratios_ok = ratios_ok and lo <= r <= hi

    ok = accuracy >= 0.99 and ratios_ok
    verdict(criterion_report, 9,
            ok, f"noiseless accuracy {accuracy:.2%} "
                f"({', '.join(per_concept)}); ratio tolerances "
                f"{'met' if ratios_ok else 'violated'}")
