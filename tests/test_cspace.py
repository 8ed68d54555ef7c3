"""Geometry of the conceptual space: distances, loss, decoding, prototypes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom import cspace
from semcom.errors import InvalidParameterError

hues = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                 allow_nan=False, allow_infinity=False)


def point(r, h, s, b):
    return cspace.SemanticPoint(r, h, s, b)


points = st.builds(
    point,
    st.floats(min_value=1.0, max_value=2.5),
    hues,
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestCircularDistance:
    def test_wraparound(self):
        assert cspace.circular_distance(0.95, 0.05) == pytest.approx(0.1)

    def test_same_point(self):
        assert cspace.circular_distance(0.3, 0.3) == 0.0

    def test_antipodal_is_half(self):
        assert cspace.circular_distance(0.0, 0.5) == pytest.approx(0.5)

    def test_out_of_range_wrapped(self):
        assert cspace.circular_distance(1.2, 0.1) == pytest.approx(0.1)

    @given(hues, hues)
    def test_symmetric_and_bounded(self, h1, h2):
        d = cspace.circular_distance(h1, h2)
        assert 0.0 <= d <= 0.5
        assert d == pytest.approx(cspace.circular_distance(h2, h1))

    @given(hues, hues, hues)
    def test_triangle_inequality_on_circle(self, a, b, c):
        assert (cspace.circular_distance(a, c)
                <= cspace.circular_distance(a, b)
                + cspace.circular_distance(b, c) + 1e-12)


class TestGamma:
    def test_rejects_nonpositive_rho(self):
        with pytest.raises(InvalidParameterError):
            cspace.gamma(0.1, 0.2, rho=0.0)

    def test_coincident_hues_offset(self):
        # soft-min of 0 and 1 at sharpness rho is ~ln(2)/rho above zero
        assert cspace.gamma(0.3, 0.3, rho=50.0) == pytest.approx(
            math.log(2.0) / 50.0, rel=1e-6)

    @given(hues, hues, st.sampled_from([5.0, 10.0, 50.0, 100.0]))
    def test_sandwich_bound(self, h1, h2, rho):
        circ = cspace.circular_distance(h1, h2)
        g = cspace.gamma(h1, h2, rho)
        assert circ - 1e-12 <= g <= circ + math.log(2.0) / rho + 1e-12

    def test_large_rho_converges_to_exact(self):
        assert cspace.gamma(0.9, 0.1, rho=1e4) == pytest.approx(0.2, abs=1e-3)


class TestSemanticLoss:
    def test_frozen_prototype_pair(self):
        # yellow-square vs red-triangle prototypes, exact-mode loss
        ys = point(1.4142, 0.1667, 1.0, 0.9714)
        rt = point(2.0, 0.0, 1.0, 0.9714)
        expected = 0.25 * ((2.0 - 1.4142) ** 2 + 0.1667 ** 2)
        assert cspace.semantic_loss(ys, rt) == pytest.approx(expected)
        assert expected == pytest.approx(0.09273, abs=5e-5)

    @given(points, points)
    def test_symmetric_nonnegative(self, p, q):
        loss = cspace.semantic_loss(p, q)
        assert loss >= 0.0
        assert loss == pytest.approx(cspace.semantic_loss(q, p))

    @given(points)
    def test_zero_iff_equal_exact_mode(self, p):
        assert cspace.semantic_loss(p, p) == 0.0

    def test_hue_wrap_in_loss(self):
        p = point(1.0, 0.98, 0.5, 0.5)
        q = point(1.0, 0.02, 0.5, 0.5)
        assert cspace.semantic_loss(p, q) == pytest.approx(0.25 * 0.04 ** 2)


class TestSemanticMetric:
    @given(points, points, points)
    @settings(max_examples=300)
    def test_triangle_inequality(self, p, q, r):
        assert (cspace.semantic_metric(p, r)
                <= cspace.semantic_metric(p, q)
                + cspace.semantic_metric(q, r) + 1e-9)

    @given(points, points)
    def test_identity_and_symmetry(self, p, q):
        assert cspace.semantic_metric(p, p) == 0.0
        assert cspace.semantic_metric(p, q) == pytest.approx(
            cspace.semantic_metric(q, p))

    def test_is_sqrt_of_loss(self):
        p = point(1.5, 0.1, 0.8, 0.7)
        q = point(2.0, 0.6, 0.2, 0.3)
        assert cspace.semantic_metric(p, q) == pytest.approx(
            math.sqrt(cspace.semantic_loss(p, q)))


class TestDecodeConcept:
    def test_prototype_decodes_to_itself(self):
        concepts = cspace.CONCEPTS
        for c in concepts:
            assert cspace.decode_concept(c.prototype).label == c.label

    def test_reference_prototype_is_yellow_square(self):
        p = point(1.4142, 0.1667, 1.0, 0.9714)
        decoded = cspace.decode_concept(p)
        assert decoded.label == "yellow-square"

    def test_tie_broken_by_label(self, monkeypatch):
        # CONCEPTS is in label order and min keeps the first minimum
        labels = [c.label for c in cspace.CONCEPTS]
        assert labels == sorted(labels)
        a = cspace.Concept("alpha", None, point(1.0, 0.0, 0.0, 0.0))
        z = cspace.Concept("zeta", None, point(1.0, 0.0, 0.0, 0.0))
        monkeypatch.setattr(cspace, "CONCEPTS", (a, z))
        assert cspace.decode_concept(point(1.2, 0.0, 0.0, 0.0)).label == "alpha"

    @given(points)
    def test_decodes_to_nearest(self, p):
        concepts = cspace.CONCEPTS
        decoded = cspace.decode_concept(p)
        best = min(cspace.semantic_metric(c.prototype, p) for c in concepts)
        assert cspace.semantic_metric(decoded.prototype, p) == pytest.approx(best)


class TestPolygonRatio:
    def test_circle(self):
        assert cspace.polygon_ratio(None) == 1.0

    def test_known_shapes(self):
        assert cspace.polygon_ratio(3) == pytest.approx(2.0)
        assert cspace.polygon_ratio(4) == pytest.approx(math.sqrt(2.0))
        assert cspace.polygon_ratio(8) == pytest.approx(1.0824, abs=1e-4)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(InvalidParameterError):
            cspace.polygon_ratio(2)

    def test_many_sides_approaches_circle(self):
        assert cspace.polygon_ratio(1000) == pytest.approx(1.0, abs=1e-4)


class TestSemanticPointValidation:
    @pytest.mark.parametrize("coords", [
        (0.9, 0.0, 0.5, 0.5),   # ratio below 1
        (1.0, 1.0, 0.5, 0.5),   # hue at the open end
        (1.0, -0.1, 0.5, 0.5),
        (1.0, 0.0, 1.5, 0.5),
        (1.0, 0.0, 0.5, -0.1),
        (math.inf, 0.0, 0.5, 0.5),
        (1.0, math.nan, 0.5, 0.5),
        (math.nextafter(2.5, 3.0), 0.0, 0.5, 0.5),  # ratio just past its top
    ])
    def test_rejects_out_of_range(self, coords):
        with pytest.raises(InvalidParameterError):
            cspace.SemanticPoint(*coords)

    @pytest.mark.parametrize("dim", range(4))
    def test_range_ends_accepted_but_hue_top(self, dim):
        middle = [(lo + hi) / 2 for lo, hi in cspace.DIMENSION_RANGES]
        lo, hi = cspace.DIMENSION_RANGES[dim]
        for v in (lo, hi):
            coords = middle[:dim] + [v] + middle[dim + 1:]
            if dim == 1 and v == hi:
                with pytest.raises(InvalidParameterError, match=r"hue must be in \[0.0, 1.0\)"):
                    cspace.SemanticPoint(*coords)
            else:
                assert cspace.SemanticPoint(*coords).as_tuple()[dim] == v

    def test_as_tuple_roundtrip(self):
        p = point(1.3, 0.25, 0.9, 0.8)
        assert cspace.SemanticPoint(*p.as_tuple()) == p


class TestPrototypeTable:
    def test_labels_sorted(self):
        labels = [c.label for c in cspace.CONCEPTS]
        assert labels == sorted(labels)
        assert labels == ["blue-circle", "red-circle", "red-octagon",
                          "red-triangle", "yellow-square"]

    def test_prototype_coordinates(self):
        by_label = {c.label: c.prototype for c in cspace.CONCEPTS}
        assert by_label["yellow-square"].as_tuple() == pytest.approx(
            (math.sqrt(2.0), 1.0 / 6.0, 1.0, 0.9714))
        assert by_label["red-triangle"].as_tuple() == pytest.approx(
            (2.0, 0.0, 1.0, 0.9714))
        assert by_label["red-octagon"].r == pytest.approx(1.0824, abs=1e-4)
        assert by_label["red-circle"].as_tuple() == pytest.approx(
            (1.0, 0.0, 1.0, 0.9714))
        assert by_label["blue-circle"].h == pytest.approx(2.0 / 3.0)

    def test_concept_by_label_unknown(self):
        with pytest.raises(InvalidParameterError):
            cspace.concept_by_label("green-pentagon")

    def test_prototypes_csv_layout(self):
        lines = cspace.prototypes_csv().strip().split("\n")
        assert lines[0] == "label,r,h,s,b"
        assert len(lines) == 6
        assert lines[5].startswith("yellow-square,1.414214,0.166667,")


class TestDistortionBound:
    @given(points, points, points)
    def test_always_holds(self, p_star, p, p_hat):
        # triangle-inequality decomposition of the end-to-end distortion
        assert (cspace.semantic_metric(p_star, p_hat)
                <= cspace.semantic_metric(p_star, p) + cspace.semantic_metric(p, p_hat)
                + 1e-12)
