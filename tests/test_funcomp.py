"""Functional compression: equivalence classes, code lengths, rate search."""

import heapq
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semcom import encoder, funcomp, harness
from semcom.errors import DegenerateSceneError, InvalidParameterError


def mod2_function():
    return funcomp.FiniteFunction([0, 1, 2, 3], {x: x % 2 for x in range(4)})


class TestEquivalenceClasses:
    def test_mod2_example(self):
        classes = funcomp.equivalence_classes(mod2_function())
        assert classes == [(0, 2), (1, 3)]
        assert funcomp.min_bits(classes) == 1

    def test_injective_function(self):
        f = funcomp.FiniteFunction("abcd", {c: c.upper() for c in "abcd"})
        classes = funcomp.equivalence_classes(f)
        assert classes == [("a",), ("b",), ("c",), ("d",)]
        assert funcomp.min_bits(classes) == 2

    def test_constant_function(self):
        f = funcomp.FiniteFunction([1, 2, 3], {x: "same" for x in (1, 2, 3)})
        assert funcomp.equivalence_classes(f) == [(1, 2, 3)]
        assert funcomp.min_bits(funcomp.equivalence_classes(f)) == 0

    def test_classes_partition_domain(self):
        f = funcomp.FiniteFunction(list(range(10)), {x: x % 3 for x in range(10)})
        classes = funcomp.equivalence_classes(f)
        seen = sorted(x for cls in classes for x in cls)
        assert seen == list(range(10))

    def test_min_bits_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            funcomp.min_bits([])


class TestFiniteFunction:
    def test_rejects_partial_mapping(self):
        with pytest.raises(InvalidParameterError):
            funcomp.FiniteFunction([0, 1, 2], {0: "a", 1: "b"})

    def test_rejects_bad_probabilities(self):
        with pytest.raises(InvalidParameterError):
            funcomp.FiniteFunction([0, 1], {0: "a", 1: "b"},
                                   {0: 0.9, 1: 0.3})

    def test_rejects_probabilities_not_covering_the_domain(self):
        with pytest.raises(InvalidParameterError):
            funcomp.FiniteFunction([0, 1], {0: "a", 1: "b"}, {0: 1.0})

    @pytest.mark.parametrize("p0,p1", [(math.nan, 1.0), (-0.5, 1.5)])
    def test_rejects_nan_or_negative_probability(self, p0, p1):
        with pytest.raises(InvalidParameterError):
            funcomp.FiniteFunction([0, 1], {0: "a", 1: "b"}, {0: p0, 1: p1})

    def test_rejects_repeated_domain_element(self):
        with pytest.raises(InvalidParameterError, match="'a'"):
            funcomp.FiniteFunction(["a", "b", "a"], {"a": 0, "b": 1})

    def test_uniform_default(self):
        f = mod2_function()
        assert f.probabilities[0] == pytest.approx(0.25)


class TestExpectedCodeLength:
    def test_uniform_four_classes(self):
        f = funcomp.FiniteFunction([0, 1, 2, 3], {x: x for x in range(4)})
        assert funcomp.expected_code_length(f) == pytest.approx(2.0)

    def test_skewed_three_classes(self):
        f = funcomp.FiniteFunction(
            [0, 1, 2], {x: x for x in range(3)},
            {0: 0.5, 1: 0.25, 2: 0.25})
        assert funcomp.expected_code_length(f) == pytest.approx(1.5)

    def test_single_class_needs_no_bits(self):
        f = funcomp.FiniteFunction([0, 1], {0: "k", 1: "k"})
        assert funcomp.expected_code_length(f) == 0.0

    def test_mod2_uniform_is_one_bit(self):
        assert funcomp.expected_code_length(mod2_function()) == pytest.approx(1.0)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=12))
    def test_equals_merge_with_id_tie_break(self, weights):
        # equal probabilities may pop in either order: the sum is the same float
        probs = [w / sum(weights) for w in weights]
        f = funcomp.FiniteFunction(list(range(len(probs))),
                                   {x: x for x in range(len(probs))},
                                   dict(enumerate(probs)))
        heap = [(p, i) for i, p in enumerate(probs)]
        heapq.heapify(heap)
        total, next_id = 0.0, len(heap)
        while len(heap) > 1:
            p1, _ = heapq.heappop(heap)
            p2, _ = heapq.heappop(heap)
            total += p1 + p2
            heapq.heappush(heap, (p1 + p2, next_id))
            next_id += 1
        assert funcomp.expected_code_length(f) == total

    def test_at_most_fixed_length(self):
        f = funcomp.FiniteFunction(list(range(5)), {x: x for x in range(5)},
                                   {0: 0.6, 1: 0.1, 2: 0.1, 3: 0.1, 4: 0.1})
        classes = funcomp.equivalence_classes(f)
        assert funcomp.expected_code_length(f) <= funcomp.min_bits(classes)


class TestRateSearch:
    def test_rejects_nonpositive_tau(self):
        with pytest.raises(InvalidParameterError):
            funcomp.semantic_rate_search(0.0)

    def test_rejects_nan_tau(self):
        with pytest.raises(InvalidParameterError):
            funcomp.semantic_rate_search(math.nan)

    def test_rejects_no_trials(self):
        with pytest.raises(InvalidParameterError):
            funcomp.semantic_rate_search(0.1, trials=0)

    @pytest.mark.parametrize("max_n_b", [0, 17])
    def test_rejects_max_n_b_outside_quantizer_range_before_any_trial(
            self, max_n_b, monkeypatch):
        calls = []
        monkeypatch.setattr(funcomp, "run_trial", lambda *a: calls.append(a))
        with pytest.raises(InvalidParameterError):
            funcomp.semantic_rate_search(0.1, trials=1, max_n_b=max_n_b)
        assert calls == []

    def test_loose_threshold_feasible_at_one_bit(self):
        result = funcomp.semantic_rate_search(10.0, snr_db=None, trials=20,
                                              max_n_b=3)
        assert result.feasible
        assert result.minimal_n_b == 1
        assert len(result.points) == 3

    def test_impossible_threshold_infeasible(self):
        # far below the encoder floor, no resolution can reach it
        result = funcomp.semantic_rate_search(1e-9, snr_db=None, trials=20,
                                              max_n_b=4)
        assert not result.feasible
        assert result.minimal_n_b is None
        assert all(not p.feasible for p in result.points)

    def test_distortion_decreases_with_resolution(self):
        result = funcomp.semantic_rate_search(1e-9, snr_db=None, trials=40,
                                              max_n_b=6)
        means = [p.mean_distortion for p in result.points]
        # coarse quantization dominates at low n_b; by n_b=6 the encoder
        # floor dominates
        assert means[0] > means[5]

    def test_all_degenerate_points_are_nan_and_infeasible(self, monkeypatch):
        def degenerate(img):
            raise DegenerateSceneError("no foreground")

        monkeypatch.setattr(encoder, "encode", degenerate)
        result = funcomp.semantic_rate_search(10.0, snr_db=None, trials=3,
                                              max_n_b=2)
        assert not result.feasible
        assert len(result.points) == 2
        for p in result.points:
            assert math.isnan(p.mean_distortion) and math.isnan(p.stderr)
            assert not p.feasible

    def test_each_scene_is_fitted_once(self):
        # trial by trial, a scene's second n_b finds its fit in the memo; point
        # by point, 40 scenes overflow the memo and every fit would run twice
        encoder._fit_shape_cached.cache_clear()
        funcomp.semantic_rate_search(10.0, snr_db=None, trials=40, max_n_b=2)
        assert encoder._fit_shape_cached.cache_info().misses <= 40

    @pytest.mark.parametrize("snr_db", [None, 10.0])
    def test_points_equal_run_trials(self, snr_db):
        # the search accumulates exactly as run_trials does, n_b by n_b
        result = funcomp.semantic_rate_search(0.002, snr_db=snr_db, trials=8,
                                              base_seed=3)
        assert [p.n_b for p in result.points] == list(range(1, 17))
        for p in result.points:
            agg = harness.run_trials("semantic", p.n_b, snr_db, 8, 3)
            assert p.mean_distortion == agg.mean_distortion
            assert p.stderr == agg.distortion_se
