"""Conceptual-space geometry.

A two-domain space for colored shapes: one shape dimension (the ratio of
the maximum to the minimum center-to-boundary distance) and the three
color dimensions (hue, saturation, brightness). Points live in this space,
concepts are prototype points with implicit Voronoi regions, and decoding
is minimum distance to a prototype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError

DEFAULT_RHO = 50.0

#: The conceptual space: (lo, hi) per dimension, in packet order (r, h, s, b).
#: A coordinate must lie in its [lo, hi], but hue is circular, so its hi is
#: excluded. nan and ±inf fail these comparisons too.
DIMENSION_RANGES = ((1.0, 2.5), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
_DIMENSION_NAMES = ("shape ratio", "hue", "saturation", "brightness")


@dataclass(frozen=True)
class SemanticPoint:
    """Coordinates (r, h, s, b) of a point in the conceptual space."""

    r: float
    h: float
    s: float
    b: float

    def __post_init__(self):
        for name, v, (lo, hi) in zip(_DIMENSION_NAMES, self.as_tuple(), DIMENSION_RANGES):
            if not lo <= v <= hi or (v == hi and name == "hue"):
                raise InvalidParameterError(
                    f"{name} must be in [{lo}, {hi}{')' if name == 'hue' else ']'}, got {v}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.r, self.h, self.s, self.b)


@dataclass(frozen=True)
class Concept:
    """A labeled concept: its polygon's sides (None for a circle) and prototype point."""

    label: str
    n_sides: int | None
    prototype: SemanticPoint


def circular_distance(h1: float, h2: float) -> float:
    """Exact distance on the unit hue circle, in [0, 0.5].

    Out-of-range inputs are wrapped modulo 1, never rejected.
    """
    d = (h1 - h2) % 1.0
    return min(d, 1.0 - d)


def gamma(h1: float, h2: float, rho: float = DEFAULT_RHO) -> float:
    """Smooth approximation of the circular hue distance.

    Soft-min of the two arc lengths with sharpness rho; always within
    [circular_distance, circular_distance + ln(2)/rho].
    """
    if rho <= 0:
        raise InvalidParameterError(f"rho must be > 0, got {rho}")
    d1 = (h1 - h2) % 1.0
    d2 = 1.0 - d1
    # -(1/rho) * ln(0.5*exp(-rho*d1) + 0.5*exp(-rho*d2)), stabilized
    m = min(d1, d2)
    return m - math.log(0.5 * math.exp(-rho * (d1 - m)) + 0.5 * math.exp(-rho * (d2 - m))) / rho


def semantic_loss(p: SemanticPoint, q: SemanticPoint) -> float:
    """Mean of squared per-dimension differences (the training-style loss).

    The hue term is the exact circular distance, so the loss is zero iff
    p == q.
    """
    hue = circular_distance(p.h, q.h)
    return 0.25 * ((p.r - q.r) ** 2 + (p.s - q.s) ** 2 + (p.b - q.b) ** 2 + hue ** 2)


def semantic_metric(p: SemanticPoint, q: SemanticPoint) -> float:
    """True metric on the space: sqrt of the loss.

    An L2 combination of per-dimension metrics, so the triangle
    inequality holds (the raw squared loss does not satisfy it).
    """
    return math.sqrt(semantic_loss(p, q))


def decode_concept(p_hat: SemanticPoint) -> Concept:
    """Minimum-distance decoding over CONCEPTS; ties go to the first, lowest label."""
    return min(CONCEPTS, key=lambda c: semantic_metric(c.prototype, p_hat))


def polygon_ratio(n_sides: int | None) -> float:
    """Max/min center-to-boundary distance ratio of a regular n-gon.

    None denotes a circle (ratio 1). For an n-gon the minimum distance is
    the apothem, giving 1/cos(pi/n).
    """
    if n_sides is None:
        return 1.0
    if n_sides < 3:
        raise InvalidParameterError(f"polygon needs >= 3 sides, got {n_sides}")
    return 1.0 / math.cos(math.pi / n_sides)


def distortion_bound_holds(p_star: SemanticPoint, p: SemanticPoint,
                           p_hat: SemanticPoint) -> bool:
    """Triangle-inequality decomposition of the end-to-end distortion."""
    lhs = semantic_metric(p_star, p_hat)
    rhs = semantic_metric(p_star, p) + semantic_metric(p, p_hat)
    return lhs <= rhs + 1e-12


# Canonical hues: red 0, yellow 1/6, blue 2/3. Saturation and brightness
# copy the yellow-square reference prototype.
_PROTO_S = 1.0
_PROTO_B = 0.9714

#: The five-concept table from (label, sides, hue) rows, in ascending label order.
CONCEPTS = tuple(sorted(
    (Concept(label, n, SemanticPoint(polygon_ratio(n), hue, _PROTO_S, _PROTO_B))
     for label, n, hue in (("yellow-square", 4, 1.0 / 6.0),
                           ("red-triangle", 3, 0.0),
                           ("red-octagon", 8, 0.0),
                           ("red-circle", None, 0.0),
                           ("blue-circle", None, 2.0 / 3.0))),
    key=lambda c: c.label))


def concept_by_label(label: str) -> Concept:
    for c in CONCEPTS:
        if c.label == label:
            return c
    raise InvalidParameterError(f"unknown concept label {label!r}")


def prototypes_csv() -> str:
    """Prototype table as CSV text: label,r,h,s,b at 6 decimal places."""
    lines = ["label,r,h,s,b"]
    for c in CONCEPTS:
        p = c.prototype
        lines.append(f"{c.label},{p.r:.6f},{p.h:.6f},{p.s:.6f},{p.b:.6f}")
    return "\n".join(lines) + "\n"
