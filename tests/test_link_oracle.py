"""Exact oracle for the semantic link: quantize -> pack -> channel -> unpack ->
dequantize -> decode, given the encoded point.

BPSK over i.i.d. Rayleigh fading with perfect CSI flips each bit on its own
with probability eps = phy.analytic_ber(snr_db), so a dimension whose sent
index is k arrives as index j with probability eps^d (1 - eps)^(n_b - d),
d the Hamming distance between j and k. The dimensions arrive independently,
the loss is a sum of per-dimension terms, and every prototype has the same
saturation and brightness, so the decision depends on the received (r, h)
cells only. That gives P(semantic error) and E[distortion] in closed form,
which the Monte Carlo link must match within a binomial bound.
"""

import functools
import math

import numpy as np
import pytest

from semcom import cspace, phy

#: Binomial bound, in standard deviations, on a Monte Carlo count or mean.
Z = 5.0
#: Channel draws per encoded point at each (n_b, channel) case.
DRAWS = 400

#: (true concept, encoded point): the five prototypes and encoder-like
#: points, two of them near the red-circle / red-octagon boundary.
POINTS = (
    ("blue-circle", cspace.SemanticPoint(1.0, 2.0 / 3.0, 1.0, 0.9714)),
    ("red-circle", cspace.SemanticPoint(1.0, 0.0, 1.0, 0.9714)),
    ("red-octagon", cspace.SemanticPoint(1.0823922, 0.0, 1.0, 0.9714)),
    ("red-triangle", cspace.SemanticPoint(2.0, 0.0, 1.0, 0.9714)),
    ("yellow-square", cspace.SemanticPoint(1.4142136, 1.0 / 6.0, 1.0, 0.9714)),
    ("red-circle", cspace.SemanticPoint(1.035, 0.985, 0.93, 0.88)),
    ("red-octagon", cspace.SemanticPoint(1.05, 0.012, 0.81, 0.95)),
    ("yellow-square", cspace.SemanticPoint(1.38, 0.19, 0.97, 0.9)),
    ("blue-circle", cspace.SemanticPoint(1.02, 0.64, 0.88, 0.79)),
)


def _centres(n_b: int) -> np.ndarray:
    """Cell centres, shape (4, 2^n_b): row d is dimension d's reconstruction."""
    levels = 1 << n_b
    j = np.arange(levels) + 0.5
    return np.array([lo + j * (hi - lo) / levels for lo, hi in phy.DIMENSION_RANGES])


def _hue_gap(h, target):
    d = (h - target) % 1.0
    return np.minimum(d, 1.0 - d)


@functools.lru_cache(maxsize=None)
def _decisions(n_b: int) -> np.ndarray:
    """Index into cspace.CONCEPTS decoded from each received (r cell, h cell)."""
    r, h = _centres(n_b)[:2]
    cost = np.stack([(r[:, None] - c.prototype.r) ** 2
                     + _hue_gap(h[None, :], c.prototype.h) ** 2
                     for c in cspace.CONCEPTS])
    return cost.argmin(axis=0)  # first minimum: the lowest label, as decode_concept


def _index_pmf(sent: np.ndarray, n_b: int, eps: float) -> np.ndarray:
    """P(received index j | sent index) per dimension, shape (len(sent), 2^n_b)."""
    j = np.arange(1 << n_b)
    flips = ((sent[:, None] ^ j[None, :])[..., None] >> np.arange(n_b)) & 1
    d = flips.sum(axis=-1)
    return eps ** d * (1.0 - eps) ** (n_b - d)


def exact_link(concept: str, point: cspace.SemanticPoint, n_b: int,
               eps: float) -> tuple[float, float, float]:
    """(P(semantic error), E[distortion], Var[distortion]) of one encoded point."""
    proto = cspace.concept_by_label(concept).prototype
    levels = 1 << n_b
    sent = np.array([min(int((v - lo) / ((hi - lo) / levels)), levels - 1)
                     for v, (lo, hi) in zip(point.as_tuple(), phy.DIMENSION_RANGES)])
    pmf = _index_pmf(sent, n_b, eps)
    true = [c.label for c in cspace.CONCEPTS].index(concept)
    p_error = float(pmf[0] @ (_decisions(n_b) != true) @ pmf[1])
    centres = _centres(n_b)
    gaps = np.abs(centres - np.array(proto.as_tuple())[:, None])
    gaps[1] = _hue_gap(centres[1], proto.h)
    terms = 0.25 * gaps ** 2
    mean = (pmf * terms).sum(axis=1)
    var = (pmf * terms ** 2).sum(axis=1) - mean ** 2
    return p_error, float(mean.sum()), float(max(var.sum(), 0.0))


def monte_carlo_link(concept: str, point: cspace.SemanticPoint, n_b: int,
                     snr_db: float | None, rng: np.random.Generator,
                     draws: int) -> tuple[int, float]:
    """(semantic errors, distortion sum) over draws passes through the link."""
    spec = phy.QuantizerSpec(n_b)
    bits = phy.pack(phy.quantize(point, spec), n_b)
    received = phy.transmit_packet(np.tile(bits, (draws, 1)),
                                   phy.ChannelParams(snr_db, rng))
    proto = cspace.concept_by_label(concept).prototype
    errors, distortion = 0, 0.0
    for packet, count in zip(*np.unique(received, axis=0, return_counts=True)):
        p_hat = phy.dequantize(phy.unpack(packet, n_b), spec)
        errors += count * (cspace.decode_concept(p_hat).label != concept)
        distortion += count * cspace.semantic_loss(proto, p_hat)
    return int(errors), distortion


@pytest.mark.parametrize("n_b", [1, 2, 8])
@pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0, None], ids=str)
def test_monte_carlo_link_matches_the_exact_oracle(n_b, snr_db):
    eps = 0.0 if snr_db is None else phy.analytic_ber(snr_db)
    rng = np.random.default_rng([n_b, 99 if snr_db is None else int(snr_db)])
    errors = distortion = 0.0
    exp_errors = var_errors = exp_distortion = var_distortion = 0.0
    for concept, point in POINTS:
        p, mean, var = exact_link(concept, point, n_b, eps)
        e, d = monte_carlo_link(concept, point, n_b, snr_db, rng, DRAWS)
        errors += e
        distortion += d
        exp_errors += DRAWS * p
        var_errors += DRAWS * p * (1.0 - p)
        exp_distortion += DRAWS * mean
        var_distortion += DRAWS * var
    assert abs(errors - exp_errors) <= Z * math.sqrt(var_errors) + 1e-9
    assert abs(distortion - exp_distortion) <= (
        Z * math.sqrt(var_distortion) + 1e-9 * exp_distortion)


def test_the_oracle_sees_channel_and_quantizer_errors():
    """The oracle's premise holds, and its cases have errors to compare."""
    assert len({c.prototype.as_tuple()[2:] for c in cspace.CONCEPTS}) == 1  # one (s, b)
    concept, octagon = POINTS[6]
    assert exact_link(concept, octagon, 1, 0.0)[0] == 1.0  # too coarse to decode right
    assert exact_link(concept, octagon, 8, 0.0)[:2] == (0.0, pytest.approx(
        cspace.semantic_loss(cspace.concept_by_label(concept).prototype, octagon),
        abs=1e-4))
    clean, noisy = (exact_link(concept, octagon, 8, phy.analytic_ber(snr))[0]
                    for snr in (30.0, 0.0))
    assert 0.0 < clean < noisy < 1.0
