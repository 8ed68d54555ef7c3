"""Functional compression: equivalence classes and the minimal-rate search.

Compressing with respect to a target function means the receiver only
needs to distinguish inputs the function separates; for the semantic
pipeline the target is concept recovery, relaxed to a distortion
threshold, and the minimal quantizer resolution is found by exhaustive
sweep over the 16-point design space.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

from .errors import InvalidParameterError
from .harness import Aggregate, _check_batch, draw_trial, run_trial


@dataclass
class FiniteFunction:
    """A total function on a finite domain with a source distribution."""

    domain: list
    mapping: dict
    probabilities: dict | None = None

    def __post_init__(self):
        repeated = [x for x, k in Counter(self.domain).items() if k > 1]
        if repeated:
            raise InvalidParameterError(f"domain elements repeated: {repeated}")
        missing = [x for x in self.domain if x not in self.mapping]
        if missing:
            raise InvalidParameterError(f"mapping not total; missing {missing}")
        if self.probabilities is None:
            self.probabilities = {x: 1.0 / len(self.domain) for x in self.domain}
        bad = [x for x in self.domain
               if x not in self.probabilities or not self.probabilities[x] >= 0.0]
        if bad:
            raise InvalidParameterError(f"no probability >= 0 for {bad}")
        total = sum(self.probabilities[x] for x in self.domain)
        if abs(total - 1.0) > 1e-9:
            raise InvalidParameterError(f"probabilities sum to {total}, expected 1")


def equivalence_classes(f: FiniteFunction) -> list[tuple]:
    """Partition the domain by equal outputs; classes ordered by smallest element."""
    groups: dict = {}
    for x in f.domain:
        groups.setdefault(f.mapping[x], []).append(x)
    classes = [tuple(sorted(g)) for g in groups.values()]
    return sorted(classes, key=lambda c: c[0])


def min_bits(partition: list[tuple]) -> int:
    """Fixed-length code bound: ceil(log2 of the class count)."""
    if not partition:
        raise InvalidParameterError("partition must be non-empty")
    return (len(partition) - 1).bit_length()


def expected_code_length(f: FiniteFunction) -> float:
    """Expected length of an optimal prefix-free code on the induced classes.

    Built by repeatedly merging the two least likely classes; a single
    class needs zero bits by convention.
    """
    probs: dict = {}
    for x in f.domain:
        probs[f.mapping[x]] = probs.get(f.mapping[x], 0.0) + f.probabilities[x]
    heap = list(probs.values())
    heapq.heapify(heap)
    total = 0.0
    while len(heap) > 1:
        p = heapq.heappop(heap) + heapq.heappop(heap)
        total += p
        heapq.heappush(heap, p)
    return total


@dataclass
class RatePoint:
    """One sweep point of the semantic rate search."""

    n_b: int
    mean_distortion: float
    stderr: float
    feasible: bool


@dataclass
class RateSearchResult:
    minimal_n_b: int | None
    points: list[RatePoint] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.minimal_n_b is not None


def semantic_rate_search(tau: float, snr_db: float | None = None,
                         trials: int = 1000, base_seed: int = 0,
                         max_n_b: int = 16) -> RateSearchResult:
    """Smallest quantizer resolution meeting a mean-distortion threshold.

    Sweeps n_b over 1..max_n_b running the full pipeline (scene, encoder,
    quantizer, channel, reconstruction) and returns the first n_b whose
    estimated mean end-to-end distortion is <= tau, with all sweep points
    retained. Infeasible thresholds (below the encoder floor) yield
    minimal_n_b = None. A point whose trials are all degenerate has nan
    mean and stderr and is infeasible. A tau that is not > 0 (nan
    included), a max_n_b outside 1..16 or fewer than one trial raises
    InvalidParameterError before any trial runs.
    """
    if not tau > 0:  # refuses nan as well
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    _check_batch("semantic", max_n_b, trials, 1)
    n_b_values = range(1, max_n_b + 1)
    aggs = [Aggregate() for _ in n_b_values]
    # scene by scene, so the fits of a scene's n_b points hit encoder's memo
    for i in range(trials):
        for n_b, agg in zip(n_b_values, aggs):
            concept, rng = draw_trial(base_seed, i)
            agg.add(run_trial(concept, n_b, snr_db, rng))
    result = RateSearchResult(None)
    for n_b, agg in zip(n_b_values, aggs):
        mean = agg.mean_distortion
        point = RatePoint(n_b, mean, agg.distortion_se, mean <= tau)
        result.points.append(point)
        if point.feasible and result.minimal_n_b is None:
            result.minimal_n_b = n_b
    return result
