"""Analytic encoder: segmentation, color statistics, shape classification."""

import colorsys
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st
from scipy import ndimage

from semcom import baseline, cspace, encoder, harness, phy, scenegen
from semcom.errors import (DegenerateHueError, DegenerateSceneError,
                           DegenerateShapeError, SemcomError)


def noiseless_render(concept, rng):
    spec = scenegen.sample_spec(concept, rng)
    return spec, scenegen.render(spec)


def segment(img):
    """encoder.segment of an RGB image, given its saturation plane."""
    return encoder.segment(scenegen.image_hsv(img)[1])


def estimate_color(img, mask):
    """encoder.estimate_color of an RGB image, given its HSV planes."""
    return encoder.estimate_color(scenegen.image_hsv(img), mask)


def noisy_scene(seed, concept, sigma):
    rng = np.random.default_rng(seed)
    img = scenegen.render(scenegen.sample_spec(concept, rng))
    return np.clip(img + rng.normal(0.0, sigma, img.shape), 0.0, 1.0)


#: Finite images in [0, 1]: arbitrary arrays, uniform noise, and scenes of
#: every concept under pixel noise up to 0.6 (about a third give a point).
any_image = st.one_of(
    hnp.arrays(np.float64, (25, 25, 3), elements=st.floats(0.0, 1.0)),
    st.builds(lambda seed: np.random.default_rng(seed).uniform(0.0, 1.0, (25, 25, 3)),
              st.integers(0, 2 ** 32 - 1)),
    st.builds(noisy_scene, st.integers(0, 2 ** 32 - 1),
              st.sampled_from(harness.CONCEPT_LABELS), st.floats(0.0, 0.6)),
)


def flat_image(h, s, v):
    return np.tile(colorsys.hsv_to_rgb(h, s, v), (25, 25, 1))


class TestSegment:
    def test_noiseless_circle_mask_exact(self, rng):
        spec, img = noiseless_render("red-circle", rng)
        xs, ys = np.meshgrid(np.arange(25, dtype=float),
                             np.arange(25, dtype=float))
        expected = scenegen._shape_mask(xs, ys, spec)
        assert np.array_equal(segment(img), expected)

    def test_all_gray_degenerate(self):
        img = np.full((25, 25, 3), 0.5)
        with pytest.raises(DegenerateSceneError):
            segment(img)

    def test_stray_pixels_removed(self, rng):
        spec, img = noiseless_render("red-octagon", rng)
        img = img.copy()
        img[0, 0] = (1.0, 0.0, 0.0)  # isolated saturated corner pixel
        mask = segment(img)
        assert not mask[0, 0]

    def test_min_foreground_enforced(self):
        img = np.full((25, 25, 3), 0.5)
        img[12, 10:14] = (1.0, 0.0, 0.0)  # 4 pixels < 20
        with pytest.raises(DegenerateSceneError):
            segment(img)


def reference_largest_component(mask):
    """The largest 4-connected component by ndimage: the first of equal sizes."""
    labels, count = ndimage.label(mask)
    if count <= 1:
        return mask
    sizes = ndimage.sum_labels(mask, labels, index=np.arange(1, count + 1))
    return labels == int(sizes.argmax()) + 1


def saturation_masks():
    """Thresholded saturation planes of noisy renders of every concept and of
    the images the pixel system receives from them at 0, 5 and 10 dB."""
    masks = []
    for ci, concept in enumerate(harness.CONCEPT_LABELS):
        for i in range(6):
            rng = harness.trial_rng(300 + ci, i)
            img = scenegen.render(scenegen.sample_spec(concept, rng), rng)
            images = [img]
            for snr in (0.0, 5.0, 10.0):
                received = phy.transmit_packet(baseline.pixel_quantize(img, 8),
                                               phy.ChannelParams(snr, rng))
                images.append(baseline.pixel_dequantize(received, 8))
            masks += [scenegen.image_hsv(im)[1] > encoder.SATURATION_THRESHOLD
                      for im in images]
    return masks


class TestLargestComponent:
    """The row-run labeller keeps exactly the component ndimage would."""

    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                             max_side=30)))
    @example(np.zeros((3, 4), dtype=bool))
    @example(np.ones((30, 30), dtype=bool))
    @example(np.indices((30, 30)).sum(axis=0) % 2 == 0)  # 450 one-pixel components
    def test_equals_ndimage(self, mask):
        assert np.array_equal(encoder._largest_component(mask),
                              reference_largest_component(mask))

    @pytest.mark.parametrize("rows", [
        # equal sizes: the component whose first pixel comes first is kept
        ["#.#", "#.#"],
        ["..#", "#.#", "#.."],
        [".##", "...", "##."],
        ["#..#", "#..#", "...."],
        ["...#", "##.#", "...#", "##.."],
        # a U whose arms meet only below its first row, beside a bigger bar
        ["#.#.#", "#.#.#", "###.#", "....#", "....#", "....#"],
        # a component whose raster-first run joins its root only late
        ["...#.#", "..##.#", ".#...#", "######"],
    ])
    def test_ties_and_late_joins(self, rows):
        mask = np.array([[c == "#" for c in row] for row in rows])
        assert np.array_equal(encoder._largest_component(mask),
                              reference_largest_component(mask))

    def test_seeded_renders_and_received_images(self):
        masks = saturation_masks()
        assert len(masks) == 4 * 6 * len(harness.CONCEPT_LABELS)
        for mask in masks:
            assert np.array_equal(encoder._largest_component(mask),
                                  reference_largest_component(mask))

    @pytest.mark.parametrize("density", [0.3, 0.55])
    def test_large_random_mask(self, density):
        mask = np.random.default_rng(7).random((200, 200)) < density
        assert np.array_equal(encoder._largest_component(mask),
                              reference_largest_component(mask))

    @pytest.mark.parametrize("spine", [0, -1])
    @pytest.mark.parametrize("stray", [False, True])
    def test_large_comb(self, spine, stray):
        # 350 teeth of 699 runs, each with one run above, on a spine at the
        # top (no run has two above) or at the bottom (one run has 350)
        mask = np.zeros((700, 702), dtype=bool)
        mask[:, :700:2] = True
        mask[spine, :700] = True
        mask[350, 701] = stray
        assert np.array_equal(encoder._largest_component(mask),
                              reference_largest_component(mask))

    @pytest.mark.parametrize("stray", [False, True])
    def test_large_spiral(self, stray):
        mask = np.zeros((700, 702), dtype=bool)
        y, x, dy, dx, length, legs = 0, 0, 0, 1, 699, 0
        while length > 0:  # a one-pixel line turning clockwise inward
            for _ in range(length):
                mask[y, x] = True
                y, x = y + dy, x + dx
            dy, dx = dx, -dy
            legs += 1
            length -= 2 * (legs >= 3 and legs % 2 == 1)
        mask[350, 701] = stray
        assert np.array_equal(encoder._largest_component(mask),
                              reference_largest_component(mask))


class TestEstimateColor:
    def test_uniform_fill(self):
        img = flat_image(1.0 / 6.0, 1.0, 1.0)
        mask = np.ones((25, 25), dtype=bool)
        h, s, v = estimate_color(img, mask)
        assert h == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert s == pytest.approx(1.0)
        assert v == pytest.approx(1.0)

    def test_circular_mean_across_wrap(self):
        img = np.zeros((25, 25, 3))
        img[:, :12] = colorsys.hsv_to_rgb(0.95, 1.0, 1.0)
        img[:, 12:] = colorsys.hsv_to_rgb(0.05, 1.0, 1.0)
        mask = np.zeros((25, 25), dtype=bool)
        mask[:, 11:13] = True  # equal counts of the two hues
        h, _, _ = estimate_color(img, mask)
        assert min(h, 1.0 - h) == pytest.approx(0.0, abs=1e-9)

    def test_antipodal_hues_degenerate(self):
        img = np.zeros((25, 25, 3))
        img[:, :12] = (1.0, 0.0, 0.0)  # hue 0
        img[:, 13:] = (0.0, 1.0, 1.0)  # hue 0.5
        mask = np.zeros((25, 25), dtype=bool)
        mask[:, 11] = mask[:, 13] = True
        with pytest.raises(DegenerateHueError):
            estimate_color(img, mask)

    def test_hue_rounding_up_to_one_wraps_to_zero(self):
        # the circular mean is a tiny negative angle, and % 1.0 rounds it to 1.0
        img = np.full((25, 25, 3), 0.5)
        ys, xs = np.nonzero(np.hypot(*np.mgrid[-12:13, -12:13]) <= 8)
        for k, (y, x) in enumerate(zip(ys, xs)):
            img[y, x] = colorsys.hsv_to_rgb((0.00025, 0.99975, 0.0)[k % 3], 1.0, 1.0)
        h, _, _ = estimate_color(img, segment(img))
        assert h == 0.0
        assert encoder.encode(img).h == 0.0

    def test_noiseless_render_recovers_fill(self, rng):
        spec, img = noiseless_render("yellow-square", rng)
        mask = segment(img)
        h, s, v = estimate_color(img, mask)
        fh, fs, fv = spec.fill_hsv
        assert cspace.circular_distance(h, fh) < 0.02
        assert abs(s - fs) < 0.02
        assert abs(v - fv) < 0.02

    def test_hue_rotation_equivariance(self, rng):
        base = 0.11
        mask = np.ones((25, 25), dtype=bool)
        h0, _, _ = estimate_color(flat_image(base, 1.0, 1.0), mask)
        for c in (0.1, 0.25, 0.5, 0.77):
            h1, _, _ = estimate_color(flat_image((base + c) % 1.0, 1.0, 1.0), mask)
            assert cspace.circular_distance(h1, (h0 + c) % 1.0) < 1e-6


class TestBoundaryMask:
    """Foreground pixels with a 4-neighbour outside the foreground or the frame."""

    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                             max_side=12)))
    @example(np.ones((5, 6), dtype=bool))  # all boundary is the frame's
    def test_equals_mask_minus_its_erosion(self, mask):
        expected = mask & ~ndimage.binary_erosion(mask)
        assert np.array_equal(encoder.boundary_mask(mask), expected)


class TestShapeRatio:
    def test_circle_radius_ten(self):
        spec = scenegen.SceneSpec((0.0, 1.0, 1.0), None, 10.0, 0.0, (12.0, 12.0))
        mask = segment(scenegen.render(spec))
        assert 1.0 <= encoder.estimate_shape_ratio(mask) <= 1.06

    def test_triangle(self, rng):
        _, img = noiseless_render("red-triangle", rng)
        r = encoder.estimate_shape_ratio(segment(img))
        assert 1.85 <= r <= 2.15

    def test_square(self, rng):
        _, img = noiseless_render("yellow-square", rng)
        r = encoder.estimate_shape_ratio(segment(img))
        assert 1.35 <= r <= 1.48

    def test_octagon(self, rng):
        _, img = noiseless_render("red-octagon", rng)
        r = encoder.estimate_shape_ratio(segment(img))
        assert r == pytest.approx(1.0824, abs=0.01)

    def test_ratio_at_least_one(self, rng):
        for concept in harness.CONCEPT_LABELS:
            _, img = noiseless_render(concept, rng)
            assert encoder.estimate_shape_ratio(segment(img)) >= 1.0

    def test_rotation_invariance(self):
        for n, ideal in ((3, 2.0), (4, math.sqrt(2.0)), (8, 1.0824)):
            for k in range(16):
                rot = k * 2.0 * math.pi / n / 16
                spec = scenegen.SceneSpec((0.0, 1.0, 1.0), n, 9.0, rot, (12.0, 12.0))
                mask = segment(scenegen.render(spec))
                r = encoder.estimate_shape_ratio(mask)
                assert abs(r - ideal) <= 0.1, (n, k, r)

    def test_thin_mask_degenerate(self):
        img = np.full((25, 25, 3), 0.5)
        img[12, 2:23] = (1.0, 0.0, 0.0)  # a 1-pixel-high bar
        with pytest.raises(DegenerateShapeError):
            encoder.estimate_shape_ratio(segment(img))


class TestEncode:
    @given(any_image)
    @settings(max_examples=60, deadline=None)
    def test_any_image_gives_a_point_or_a_semcom_error(self, img):
        try:
            point = encoder.encode(img)
        except SemcomError:
            return
        assert isinstance(point, cspace.SemanticPoint)  # validated on construction

    def test_deterministic(self, rng):
        spec = scenegen.sample_spec("blue-circle", rng)
        img = scenegen.render(spec, rng)
        assert encoder.encode(img) == encoder.encode(img)

    def test_yellow_square_near_prototype(self):
        mid = 12.0
        spec = scenegen.SceneSpec((1.0 / 6.0, 1.0, 0.9714), 4, 9.0, 0.0, (mid, mid))
        point = encoder.encode(scenegen.render(spec))
        proto = cspace.SemanticPoint(math.sqrt(2.0), 1.0 / 6.0, 1.0, 0.9714)
        assert cspace.semantic_metric(point, proto) < 0.05

    def test_distortion_floor_regression(self):
        # frozen: mean semantic_loss(prototype, encode(scene)) stays near the
        # measured encoder floor; a drift signals an encoder change
        concepts = cspace.CONCEPTS
        total = 0.0
        count = 0
        rng = np.random.default_rng(999)
        for _ in range(300):
            c = concepts[rng.integers(len(concepts))]
            spec = scenegen.sample_spec(c.label, rng)
            point = encoder.encode(scenegen.render(spec, rng))
            total += cspace.semantic_loss(c.prototype, point)
            count += 1
        floor = total / count
        assert 0.0 < floor < 0.002
        assert floor == pytest.approx(0.00097, abs=0.0004)


def reference_band(mask):
    """The centroid, every pixel's coordinates, and the certificate's band:
    the pixels within 3.2 of the farthest foreground pixel's distance."""
    ys, xs = np.nonzero(mask)
    cy0 = ys.mean()
    cx0 = xs.mean()
    gx, gy = (g.ravel() for g in np.meshgrid(np.arange(mask.shape[1], dtype=float),
                                             np.arange(mask.shape[0], dtype=float)))
    dist0 = np.hypot(gx - cx0, gy - cy0)
    rmax = dist0[mask.ravel()].max()
    return cx0, cy0, gx, gy, (dist0 >= rmax - 3.2) & (dist0 <= rmax + 3.2)


def certificate_slack(mask, n):
    """encoder._consistency_slack on the mask's reference band and centroid."""
    cx0, cy0, _, _, band = reference_band(mask)
    return encoder._consistency_slack(mask, band, cx0, cy0, n)


def convexity_witness(mask):
    """encoder._convexity_witness on the mask's reference band."""
    return encoder._convexity_witness(mask, reference_band(mask)[4])


def reference_consistency_slack(mask, n):
    """The exhaustive search: every band pixel at every center and rotation."""
    cx0, cy0, gx, gy, band = reference_band(mask)
    flat = mask.ravel()
    px = gx[band]
    py = gy[band]
    fg = flat[band]
    if fg.all() or not fg.any():
        return -np.inf

    if n is None:
        rots = np.array([0.0])
    else:
        rots = np.arange(36) * (2.0 * math.pi / n / 36)

    def slack_at(cx, cy):
        dist = np.hypot(px - cx, py - cy)
        if n is None:
            u = dist[:, None]
        else:
            ang = np.arctan2(py - cy, px - cx)[:, None]
            folded = (ang - rots[None, :]) % (2.0 * math.pi / n) - math.pi / n
            u = dist[:, None] * np.cos(folded)
        return float((u[~fg].reshape(-1, rots.size).min(axis=0)
                      - u[fg].reshape(-1, rots.size).max(axis=0)).max())

    best = -np.inf
    best_c = (cx0, cy0)
    for dx in np.arange(-0.6, 0.61, 0.3):
        for dy in np.arange(-0.6, 0.61, 0.3):
            s = slack_at(cx0 + dx, cy0 + dy)
            if s > best:
                best = s
                best_c = (cx0 + dx, cy0 + dy)
    cx, cy = best_c
    for step in (0.15, 0.075, 0.0375):
        for dx, dy in ((step, 0), (-step, 0), (0, step), (0, -step),
                       (step, step), (step, -step), (-step, step), (-step, -step)):
            s = slack_at(cx + dx, cy + dy)
            if s > best:
                best = s
                cx, cy = cx + dx, cy + dy
    return best


def seeded_images():
    """(kind, image) pairs of every concept: its noiseless and noisy render,
    then what the pixel system receives of the noisy one at 0, 10 or 20 dB
    with n_b = 8, and at 10, 15 or 20 dB with n_b = 2 (criterion 6 runs
    n_b = 2 at 15 dB)."""
    for ci, concept in enumerate(harness.CONCEPT_LABELS):
        for i in range(4):
            rng = harness.trial_rng(900 + ci, i)
            spec = scenegen.sample_spec(concept, rng)
            noisy = scenegen.render(spec, rng)
            yield "render", scenegen.render(spec)
            yield "render", noisy
            for n_b, snrs in ((8, (0.0, 10.0, 20.0)), (2, (10.0, 15.0, 20.0))):
                bits = baseline.pixel_quantize(noisy, n_b)
                snr = snrs[(ci + i) % 3]
                received = phy.transmit_packet(bits, phy.ChannelParams(snr, rng))
                yield "received", baseline.pixel_dequantize(received, n_b)


def seeded_masks(kinds=("render", "received")):
    """The masks of those seeded images of the given kinds that segment."""
    masks = []
    for kind, img in seeded_images():
        if kind in kinds:
            try:
                masks.append(segment(img))
            except SemcomError:
                pass
    return masks


@pytest.fixture(scope="module")
def masks():
    return seeded_masks()


class TestCertificateBand:
    """fit_shape hands every certificate call the reference band and centroid."""

    def test_fit_shape_hands_down_the_reference_band(self, masks, monkeypatch):
        slack, witness = encoder._consistency_slack, encoder._convexity_witness
        calls = []

        def recorded_slack(mask, band, cx0, cy0, n):
            calls.append((mask, band, (cx0, cy0)))
            return slack(mask, band, cx0, cy0, n)

        def recorded_witness(mask, band):
            calls.append((mask, band, None))
            return witness(mask, band)

        monkeypatch.setattr(encoder, "_consistency_slack", recorded_slack)
        monkeypatch.setattr(encoder, "_convexity_witness", recorded_witness)
        for mask in [*masks, *EDGE_MASKS, *structured_masks()]:
            encoder._fit_shape(mask)
        assert len(calls) > 50
        assert any(centroid is None for _, _, centroid in calls)  # the witness ran
        for mask, band, centroid in calls:
            cx0, cy0, _, _, expected = reference_band(mask)
            assert np.array_equal(band, expected)
            assert centroid in (None, (cx0, cy0))


class TestConsistencySlack:
    """The pruned certificate returns exactly the exhaustive search's float."""

    @pytest.mark.parametrize("n", [None, 8])
    def test_bit_identical_to_exhaustive(self, masks, n):
        assert len(masks) >= 55
        for mask in [*masks, *EDGE_MASKS, *structured_masks()]:
            got = certificate_slack(mask, n)
            assert got == reference_consistency_slack(mask, n)

    @pytest.mark.parametrize("n", [None, 8])
    def test_all_foreground_band(self, n):
        # the other -inf case, a band with no foreground, cannot occur: the
        # farthest foreground pixel always lies in the band
        mask = np.ones((25, 25), dtype=bool)
        assert certificate_slack(mask, n) == -np.inf
        assert reference_consistency_slack(mask, n) == -np.inf

    def test_fit_shape_unchanged(self, masks, monkeypatch):
        fitted = [encoder.fit_shape(mask) for mask in masks]
        monkeypatch.setattr(encoder, "_consistency_slack",
                            lambda mask, band, cx0, cy0, n:
                            reference_consistency_slack(mask, n))
        # the memoized front would return the fits above; refit without it
        assert fitted == [encoder._fit_shape(mask) for mask in masks]


def reference_round_pick(template, circle_slack, octagon_slack):
    """The certificate decision as four branches, before it became one rule.

    The octagon counts as fitting only with a slack above _PRUNE_EPS, and
    beats a fitting circle only by that much more than the tie-break.
    """
    _, radius, rot = template
    eps = encoder._PRUNE_EPS
    if circle_slack > 0 and octagon_slack <= eps:
        return (None, radius, 0.0)
    if octagon_slack > eps and circle_slack <= 0:
        return (8, radius, rot)
    if circle_slack > 0 and octagon_slack > eps:
        if octagon_slack > encoder._OCTAGON_SLACK_FACTOR * circle_slack + eps:
            return (8, radius, rot)
        return (None, radius, 0.0)
    return template


#: Slacks for the rule, among them a rounded 0 (EDGE_MASKS[0]'s octagon
#: slack) and the margin itself, which must not win.
SLACKS = (-math.inf, -0.3, -0.0, 0.0, 4.4e-16, 1e-9, 0.1, 0.25, 0.2500001, 1.0)


def fixed_slacks(circle, octagon):
    """A stand-in for encoder._consistency_slack that returns fixed slacks."""
    return lambda mask, band, cx0, cy0, n: circle if n is None else octagon


class TestRoundCertificateRule:
    """fit_shape's circle-vs-octagon rule agrees with the four-branch rule."""

    def test_every_slack_pair(self, masks, monkeypatch):
        # with no certificate the template's pick stands; with the witness off
        # every slack pair reaches the rule (or the octagon template's skip,
        # which must agree with it), and the rule gets whole slacks
        monkeypatch.setattr(encoder, "_convexity_witness", lambda mask, band: False)
        monkeypatch.setattr(encoder, "_consistency_slack",
                            lambda mask, band, cx0, cy0, n: -math.inf)
        templates = {}
        for mask in masks:
            fit = encoder._fit_shape(mask)
            templates.setdefault(fit[0], (mask, fit))
        assert None in templates and 8 in templates
        assert templates[8][1][2] != 0.0  # a rotation the circle pick must drop
        # the margin's exact boundary: 2.5 * 0.1 is the float 0.25
        assert encoder._OCTAGON_SLACK_FACTOR * 0.1 == 0.25
        for n in (None, 8):
            mask, template = templates[n]
            for c in SLACKS:
                for o in SLACKS:
                    monkeypatch.setattr(encoder, "_consistency_slack",
                                        fixed_slacks(c, o))
                    assert (encoder._fit_shape(mask)
                            == reference_round_pick(template, c, o)), (n, c, o)
            monkeypatch.setattr(encoder, "_consistency_slack", fixed_slacks(0.1, 0.25))
            assert encoder._fit_shape(mask)[0] is None

    def test_witness_keeps_the_template(self, masks, monkeypatch):
        # a witness proves neither slack positive, so it is asked only where
        # the circle's is not positive, and then the template's pick stands
        monkeypatch.setattr(encoder, "_convexity_witness", lambda mask, band: True)
        monkeypatch.setattr(encoder, "_consistency_slack",
                            lambda mask, band, cx0, cy0, n: -math.inf)
        templates = {}
        for mask in masks:
            fit = encoder._fit_shape(mask)
            templates.setdefault(fit[0], (mask, fit))
        for n in (None, 8):
            mask, template = templates[n]
            for c in SLACKS:
                for o in SLACKS:
                    if c <= 0 and o > encoder._PRUNE_EPS:
                        continue  # no witness exists for such a mask
                    monkeypatch.setattr(encoder, "_consistency_slack",
                                        fixed_slacks(c, o))
                    assert (encoder._fit_shape(mask)
                            == reference_round_pick(template, c, o)), (n, c, o)

    def test_octagon_template_without_a_fitting_circle_asks_nothing_more(
            self, masks, monkeypatch):
        # where the circle's slack is not positive, the octagon can only keep
        # an octagon template's pick: no witness call and no octagon search
        with monkeypatch.context() as patch:
            patch.setattr(encoder, "_convexity_witness", lambda mask, band: False)
            patch.setattr(encoder, "_consistency_slack",
                          lambda mask, band, cx0, cy0, n: -math.inf)
            templates = [encoder._fit_shape(mask) for mask in masks]
        slack, witness = encoder._consistency_slack, encoder._convexity_witness
        asked = []

        def spied_slack(mask, band, cx0, cy0, n):
            asked.append((n, slack(mask, band, cx0, cy0, n)))
            return asked[-1][1]

        def spied_witness(mask, band):
            asked.append(("witness", witness(mask, band)))
            return asked[-1][1]

        monkeypatch.setattr(encoder, "_consistency_slack", spied_slack)
        monkeypatch.setattr(encoder, "_convexity_witness", spied_witness)
        skipped = 0
        for mask, template in zip(masks, templates):
            asked.clear()
            fit = encoder._fit_shape(mask)
            if template[0] == 8 and asked[0][1] <= 0:
                skipped += 1
                assert [n for n, _ in asked] == [None]
                assert fit == template
        assert skipped >= 3


def reference_witness(mask):
    """Whether a background band pixel has foreground band pixels on both
    sides of it in its row, or in its column, by brute force."""
    _, _, _, _, band = reference_band(mask)
    band = band.reshape(mask.shape)
    fg = band & mask
    for y, x in np.argwhere(band & ~mask):
        if fg[y, :x].any() and fg[y, x + 1:].any():
            return True
        if fg[:y, x].any() and fg[y + 1:, x].any():
            return True
    return False


def flipped_shape_mask(seed, concept, flip):
    """A scene's shape mask with each pixel flipped with probability flip."""
    rng = np.random.default_rng(seed)
    xs, ys = np.meshgrid(np.arange(25, dtype=float), np.arange(25, dtype=float))
    mask = scenegen._shape_mask(xs, ys, scenegen.sample_spec(concept, rng))
    return mask ^ (rng.random(mask.shape) < flip)


#: Masks with enough foreground to segment: arbitrary arrays, uniform
#: noise, and shapes of every concept with pixels flipped as by a channel.
any_mask = st.one_of(
    hnp.arrays(bool, (25, 25)),
    st.builds(lambda seed, p: np.random.default_rng(seed).random((25, 25)) < p,
              st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95)),
    st.builds(flipped_shape_mask, st.integers(0, 2 ** 32 - 1),
              st.sampled_from(harness.CONCEPT_LABELS), st.floats(0.0, 0.05)),
).filter(lambda m: m.sum() >= encoder.MIN_FOREGROUND_PIXELS)


def fit_or_refusal(mask):
    """encoder._fit_shape's tuple for the mask, or the error it raises."""
    try:
        return encoder._fit_shape(mask)
    except DegenerateShapeError as error:
        return type(error)


def pixel_mask(top, left, rows):
    """A 25x25 mask holding the '#' pixels of rows, drawn from (top, left)."""
    mask = np.zeros((25, 25), dtype=bool)
    mask[top:top + len(rows), left:left + len(rows[0])] = [
        [c == "#" for c in row] for row in rows]
    return mask


def disk(cx, cy, radius):
    """The 25x25 mask of the pixel centres within radius of (cx, cy)."""
    xs, ys = np.meshgrid(np.arange(25.0), np.arange(25.0))
    return np.hypot(xs - cx, ys - cy) <= radius


#: Round masks at the witness's edge. The first is an octagon with a gap
#: in its top row, which an octagon face runs along: there the witness
#: fires, yet the octagon's slack is 0 in exact arithmetic and 4.4e-16 in
#: floats, which the margin keeps from beating the circle's template pick.
#: The second is a disk with a diagonal bite, whose bitten pixels lie
#: inside the foreground's convex hull but have foreground on one side
#: only, so the witness leaves it to the octagon search.
EDGE_MASKS = [
    pixel_mask(9, 9, ["..#.#.", ".#####", "######", "######", "######", ".#####"]),
    disk(12.0, 12.0, 6.0) & ~disk(7.25, 16.25, 1.6),
]


class TestConvexityWitness:
    """A witness fires exactly for a background band pixel between two
    foreground band pixels of a row or column, only where neither family
    fits the band by a margin, and never changes a fit."""

    def check(self, mask):
        fired = convexity_witness(mask)
        assert fired == reference_witness(mask)
        if fired:
            # an octagon face along the row can make the octagon's slack 0
            assert reference_consistency_slack(mask, None) < 0
            assert reference_consistency_slack(mask, 8) < encoder._PRUNE_EPS
        return fired

    def test_seeded_masks(self, masks):
        assert any([self.check(mask) for mask in masks])
        assert any(map(convexity_witness, seeded_masks(("received",))))

    @given(any_mask)
    @example(np.pad(np.ones((9, 9), dtype=bool), 8))  # a square: no pixel inside
    @example(np.pad(np.eye(21, dtype=bool) | np.eye(21, dtype=bool)[::-1], 2))
    @example(EDGE_MASKS[0].T.copy())  # a gap that only its column shows
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_masks(self, mask):
        self.check(mask)

    @pytest.mark.parametrize("mask,fires", zip(EDGE_MASKS, (True, False)),
                             ids=["top-row gap", "diagonal bite"])
    def test_edge_masks(self, mask, fires):
        assert self.check(mask) == fires
        assert encoder._fit_shape(mask) == reference_fit_shape(mask)

    def test_top_row_gap_keeps_the_circle(self, monkeypatch):
        # its octagon slack is a rounded 0, below the margin, so the
        # template's circle stands with the witness and without it
        mask = EDGE_MASKS[0]
        assert 0 < reference_consistency_slack(mask, 8) < 1e-12
        assert reference_consistency_slack(mask, None) < 0
        template = encoder._fit_shape(mask)
        assert template[0] is None
        monkeypatch.setattr(encoder, "_convexity_witness", lambda mask, band: False)
        assert encoder._fit_shape(mask) == template

    @given(any_mask)
    @example(EDGE_MASKS[0])  # the witness fires where the octagon's slack rounds above 0
    @settings(max_examples=40, deadline=None)
    def test_fit_without_the_witness(self, mask):
        fit = fit_or_refusal(mask)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoder, "_convexity_witness", lambda mask, band: False)
            assert fit == fit_or_refusal(mask)


def reference_model_radius(angles, n, radius, rotation):
    """Center-to-boundary distance of a regular shape along given angles."""
    if n is None:
        return np.full_like(angles, radius)
    folded = (angles - rotation) % (2.0 * math.pi / n) - math.pi / n
    return radius * math.cos(math.pi / n) / np.cos(folded)


def reference_fit_shape(mask):
    """The template fit one radius and one refinement candidate at a time,
    scoring a fixed 0.92-1.08 annulus, then the real certificates."""
    ys, xs = np.nonzero(mask)
    cy = ys.mean()
    cx = xs.mean()
    gx, gy = (g.ravel() for g in np.meshgrid(np.arange(mask.shape[1], dtype=float),
                                             np.arange(mask.shape[0], dtype=float)))
    dist = np.hypot(gx - cx, gy - cy)
    angles = np.arctan2(gy - cy, gx - cx)
    flat = mask.ravel()
    area = float(flat.sum())

    best = (None, 0.0, 0.0)
    best_score = np.inf
    for n in encoder.CANDIDATE_SHAPES:
        if n is None:
            r0 = math.sqrt(area / math.pi)
            rots = np.array([0.0])
            refine = ()
        else:
            r0 = math.sqrt(2.0 * area / (n * math.sin(2.0 * math.pi / n)))
            rot_step = 2.0 * math.pi / n / 16
            rots = np.arange(16) * rot_step
            refine = (rot_step / 2, rot_step / 4)
        apothem_frac = 1.0 if n is None else math.cos(math.pi / n)
        lo = 0.92 * r0 * apothem_frac - 1e-9
        hi = 1.08 * r0 + 1e-9
        band = (dist >= lo) & (dist <= hi)
        base = int((~flat & (dist < lo)).sum() + (flat & (dist > hi)).sum())
        bdist = dist[band]
        bang = angles[band]
        bflat = flat[band]
        for radius in (0.96 * r0, r0, 1.04 * r0):
            model = reference_model_radius(bang[:, None], n, radius, rots[None, :])
            scores = (bflat[:, None] != (bdist[:, None] <= model)).sum(axis=0)
            k = int(scores.argmin())
            score, rot = float(scores[k]) + base, float(rots[k])
            for step in refine:
                for cand in (rot - step, rot + step):
                    m = reference_model_radius(bang, n, radius, cand)
                    sc = float((bflat != (bdist <= m)).sum()) + base
                    if sc < score:
                        score, rot = sc, cand
            if score < best_score:
                best_score = score
                best = (n, radius, rot)
    if best[0] not in (None, 8):
        return best
    return reference_round_pick(best, certificate_slack(mask, None),
                                certificate_slack(mask, 8))


def structured_masks():
    """Noiseless renders at each of the fit's 16 grid rotations and a quarter
    step past it, where its last refinement looks, at integer and half-pixel
    centres: masks where integer score ties are common. The shape family
    cycles through the candidates from one render to the next."""
    masks = []
    for k in range(16):
        for quarter in (0.0, 0.25):
            for center in ((12.0, 12.0), (12.5, 12.0), (12.5, 12.5)):
                for radius in (6.0, 8.0, 9.0, 10.0, 11.0):
                    n = encoder.CANDIDATE_SHAPES[len(masks) % len(encoder.CANDIDATE_SHAPES)]
                    rotation = 0.0 if n is None else (k + quarter) * 2.0 * math.pi / n / 16
                    spec = scenegen.SceneSpec((0.0, 1.0, 1.0), n, radius, rotation, center)
                    masks.append(segment(scenegen.render(spec)))
    return masks


class TestFitShapeReference:
    """The one-expression template fit returns exactly the sequential fit's tuple."""

    def test_seeded_masks(self, masks):
        for mask in masks:
            assert encoder._fit_shape(mask) == reference_fit_shape(mask)

    def test_structured_noiseless_masks(self):
        masks = structured_masks()
        assert len(masks) == 480
        for mask in masks:
            assert encoder._fit_shape(mask) == reference_fit_shape(mask)


@pytest.fixture
def empty_fit_cache():
    encoder._fit_shape_cached.cache_clear()
    yield
    encoder._fit_shape_cached.cache_clear()


@pytest.mark.usefixtures("empty_fit_cache")
class TestFitShapeMemo:
    """fit_shape's memo returns exactly what the fit itself returns."""

    def test_equals_uncached_fit(self, masks):
        for mask in masks:
            assert encoder.fit_shape(mask) == encoder._fit_shape(mask)
            assert encoder.fit_shape(mask) == encoder._fit_shape(mask)  # a hit
        assert encoder._fit_shape_cached.cache_info().hits >= len(masks)

    def test_same_bits_different_shape_are_separate_entries(self):
        square = np.zeros((5, 5), dtype=bool)
        square[1:4, 1:4] = True
        row = square.reshape(1, 25)
        assert square.tobytes() == row.tobytes()
        encoder.fit_shape(square)
        with pytest.raises(DegenerateShapeError):  # a row spans 2 sectors
            encoder.fit_shape(row)
        info = encoder._fit_shape_cached.cache_info()
        assert info.currsize == 1 and info.hits == 0

    def test_caller_changing_its_array_does_not_reach_the_cache(self, masks):
        mask = masks[0].copy()
        first = encoder.fit_shape(mask)
        mask[:] = False
        mask[5:20, 5:20] = True  # a square now
        assert encoder.fit_shape(mask) == encoder._fit_shape(mask)
        assert encoder.fit_shape(masks[0]) == first
        assert first == encoder._fit_shape(masks[0])

    def test_cache_stays_within_its_bound(self):
        for k in range(2 * encoder.FIT_CACHE_SIZE):  # distinct rectangles
            mask = np.zeros((25, 25), dtype=bool)
            mask[3:7 + k // 8, 3:7 + k % 8] = True
            encoder.fit_shape(mask)
        info = encoder._fit_shape_cached.cache_info()
        assert info.misses == 2 * encoder.FIT_CACHE_SIZE
        assert info.currsize == encoder.FIT_CACHE_SIZE


def unmemoized_encode(img):
    """encode's pipeline with neither memo: its point, or its refusal."""
    try:
        hsv = scenegen.image_hsv(img)
        mask = encoder.segment(hsv[1])
        hue, sat, val = encoder.estimate_color(hsv, mask)
        ratio = cspace.polygon_ratio(encoder._fit_shape(mask)[0])
    except SemcomError as exc:
        return type(exc), str(exc)
    return cspace.SemanticPoint(ratio, hue, min(sat, 1.0), min(val, 1.0))


def encoded(img):
    """encoder.encode's point, or its refusal."""
    try:
        return encoder.encode(img)
    except SemcomError as exc:
        return type(exc), str(exc)


def hue_cancelling_image():
    """A block half red, half cyan: its hues cancel, so encode refuses it."""
    img = np.full((25, 25, 3), 0.5)
    img[5:20, 5:12] = (1.0, 0.0, 0.0)
    img[5:20, 12:19] = (0.0, 1.0, 1.0)
    return img


@pytest.fixture
def empty_front_end():
    encoder._front_end.cache_clear()
    yield
    encoder._front_end.cache_clear()


@pytest.mark.usefixtures("empty_front_end")
class TestEncodeMemo:
    """encode's memo of the last image's mask and colour changes no result."""

    def test_equals_unmemoized_pipeline(self):
        images = [img for _, img in seeded_images()]
        points = 0
        for img in images:
            expected = unmemoized_encode(img)
            assert encoded(img) == expected
            assert encoded(img) == expected  # a hit when the first gave a point
            points += isinstance(expected, cspace.SemanticPoint)
        assert points > len(images) // 2
        assert encoder._front_end.cache_info().hits >= points

    def test_caller_changing_its_array_in_place(self):
        rng = harness.trial_rng(11, 0)
        img = scenegen.render(scenegen.sample_spec("red-circle", rng), rng)
        first = encoder.encode(img)
        img[:] = scenegen.render(scenegen.sample_spec("yellow-square", rng), rng)
        assert encoded(img) == unmemoized_encode(img) != first

    def test_same_bytes_different_shape_are_not_confused(self):
        rng = harness.trial_rng(3, 0)
        img = scenegen.render(scenegen.sample_spec("blue-circle", rng), rng)
        rows = img.reshape(5, 125, 3)  # five rows of the image end to end
        assert img.tobytes() == rows.tobytes()
        first = encoder.encode(img)
        assert encoded(rows) == unmemoized_encode(rows) != first
        assert encoded(img) == first

    @pytest.mark.parametrize("make, error", [
        (lambda: np.full((25, 25, 3), 0.5), DegenerateSceneError),
        (hue_cancelling_image, DegenerateHueError),
    ], ids=["gray", "hues cancel"])
    def test_refused_image_is_refused_on_every_call(self, make, error):
        rng = harness.trial_rng(5, 0)
        encoder.encode(scenegen.render(scenegen.sample_spec("red-circle", rng), rng))
        img = make()
        for misses in (2, 3):
            with pytest.raises(error):
                encoder.encode(img)
            info = encoder._front_end.cache_info()
            assert info.currsize == 1 and info.misses == misses and info.hits == 0


def reference_sector_occupancy(mask):
    """The sector count from the mask alone: its own centroid, then the
    angle of each boundary pixel around it."""
    ys, xs = np.nonzero(mask)
    cy = ys.mean()
    cx = xs.mean()
    by, bx = np.nonzero(encoder.boundary_mask(mask))
    angles = np.arctan2(by - cy, bx - cx) % (2.0 * math.pi)
    sectors = np.minimum((angles / (2.0 * math.pi) * encoder.N_SECTORS).astype(int),
                         encoder.N_SECTORS - 1)
    return int(np.unique(sectors).size)


def counting_sector_occupancy(counts):
    """encoder._sector_occupancy, appending each count it returns to counts."""
    real = encoder._sector_occupancy

    def spy(angles):
        counts.append(real(angles))
        return counts[-1]
    return spy


def drawn_mask(shape, *boxes):
    """A mask of the given shape with each (rows, columns) slice pair set."""
    mask = np.zeros(shape, dtype=bool)
    for rows, cols in boxes:
        mask[rows, cols] = True
    return mask


#: Hand-made masks on both sides of the rule, with their sector counts.
DRAWN_MASKS = [
    (drawn_mask((25, 25), (12, slice(2, 23))), 2),  # a one-pixel-high bar
    (drawn_mask((1, 25), (0, slice(0, 25))), 2),  # a one-row raster
    (drawn_mask((25, 25), (slice(2, 6), 2)), 2),  # a one-pixel-wide column
    (drawn_mask((25, 25), (slice(2, 5), 2), (4, slice(2, 20))), 7),  # a thin L
    # a thick L: 7 sectors on its boundary, 8 over all its pixels
    (drawn_mask((7, 7), (slice(2, 5), slice(2, 4)), (slice(3, 5), slice(2, 5))), 7),
    (drawn_mask((25, 25), (2, slice(4, 21)), (slice(2, 6), 12)), 8),  # a thin T
    (drawn_mask((7, 7), (slice(2, 5), slice(2, 5))), 8),  # a 3x3 square
    (drawn_mask((25, 25), (slice(5, 7), slice(3, 14))), 14),  # a two-pixel bar
]


@pytest.mark.usefixtures("empty_fit_cache")
class TestSectorCheck:
    """fit_shape refuses a mask exactly where the boundary's own sector count
    falls short, inside the memo: a refusal takes no entry, and a repeated
    mask is checked once."""

    def check(self, mask):
        expected = reference_sector_occupancy(mask)
        counts = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoder, "_sector_occupancy", counting_sector_occupancy(counts))
            if expected < encoder.MIN_NONEMPTY_SECTORS:
                with pytest.raises(DegenerateShapeError, match="boundary sectors"):
                    encoder.fit_shape(mask)
            else:
                assert encoder.fit_shape(mask) == encoder._fit_shape(mask)
        assert counts and set(counts) == {expected}
        return expected

    def test_seeded_masks(self, masks):
        for mask in masks:
            self.check(mask)

    @pytest.mark.parametrize("mask, count", DRAWN_MASKS)
    def test_drawn_masks(self, mask, count):
        assert self.check(mask) == count

    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                             max_side=12)).filter(np.any))
    @settings(max_examples=60, deadline=None)
    def test_small_masks(self, mask):
        self.check(mask)

    def test_refused_mask_takes_no_entry(self, masks):
        encoder.fit_shape(masks[0])
        bar = DRAWN_MASKS[0][0]
        for misses in (2, 3):  # refused afresh on every call
            with pytest.raises(DegenerateShapeError):
                encoder.fit_shape(bar)
            info = encoder._fit_shape_cached.cache_info()
            assert info.currsize == 1 and info.misses == misses

    def test_encoding_again_checks_sectors_once(self, monkeypatch):
        rng = harness.trial_rng(5, 0)
        img = scenegen.render(scenegen.sample_spec("red-circle", rng), rng)
        counts = []
        monkeypatch.setattr(encoder, "_sector_occupancy",
                            counting_sector_occupancy(counts))
        assert encoder.encode(img) == encoder.encode(img)
        assert len(counts) == 1
