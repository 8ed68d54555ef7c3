"""Functional compression: equivalence classes and the minimal-rate search.

Compressing with respect to a target function means the receiver only
needs to distinguish inputs the function separates; for the semantic
pipeline the target is concept recovery, relaxed to a distortion
threshold, and the minimal quantizer resolution is found by exhaustive
sweep over the 16-point design space.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import InvalidParameterError
from .harness import _run_points, run_trial


@dataclass
class FiniteFunction:
    """A total function with a source distribution; its domain is the mapping's keys."""

    mapping: dict
    probabilities: dict | None = None

    def __post_init__(self):
        if not self.mapping:
            raise InvalidParameterError("the domain is empty")
        if self.probabilities is None:
            self.probabilities = {x: 1.0 / len(self.mapping) for x in self.mapping}
        extra = [x for x in self.probabilities if x not in self.mapping]
        if extra:
            raise InvalidParameterError(f"probabilities outside the domain: {extra}")
        bad = [x for x in self.mapping
               if x not in self.probabilities or not self.probabilities[x] >= 0.0]
        if bad:
            raise InvalidParameterError(f"no probability >= 0 for {bad}")
        total = sum(self.probabilities[x] for x in self.mapping)
        if abs(total - 1.0) > 1e-9:
            raise InvalidParameterError(f"probabilities sum to {total}, expected 1")


def equivalence_classes(f: FiniteFunction) -> list[tuple]:
    """Partition the domain by equal outputs; classes ordered by smallest element."""
    groups: dict = {}
    for x, y in f.mapping.items():
        groups.setdefault(y, []).append(x)
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
    for x, y in f.mapping.items():
        probs[y] = probs.get(y, 0.0) + f.probabilities[x]
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
    points: list[RatePoint]

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
    included), a max_n_b outside 1..16, an SNR with no positive finite
    linear value or fewer than one trial raises InvalidParameterError
    before any trial runs.
    """
    if not tau > 0:  # refuses nan as well
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    n_b_values = range(1, max_n_b + 1)
    aggs = _run_points([(run_trial, n_b, snr_db) for n_b in n_b_values], trials, base_seed)
    points = [RatePoint(n_b, agg.mean_distortion, agg.distortion_se,
                        agg.mean_distortion <= tau) for n_b, agg in zip(n_b_values, aggs)]
    return RateSearchResult(next((p.n_b for p in points if p.feasible), None), points)
