"""Scene generator: color conversion, rasterization, PPM I/O."""

import colorsys
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom import cspace, encoder, harness, scenegen
from semcom.errors import InvalidParameterError

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def reference_ppm_header(raw: bytes) -> tuple[list[bytes], int]:
    """Up to four PPM header fields, read byte by byte, and the offset just
    past the last one read."""
    fields = []
    pos = 0
    while len(fields) < 4 and pos < len(raw):
        if raw[pos:pos + 1].isspace():
            pos += 1
        elif raw[pos:pos + 1] == b"#":
            end = raw.find(b"\n", pos)
            pos = len(raw) if end < 0 else end + 1
        else:
            start = pos
            while pos < len(raw) and not raw[pos:pos + 1].isspace():
                pos += 1
            fields.append(raw[start:pos])
    return fields, pos


def byte_runs(alphabet, **kwargs):
    return st.lists(st.sampled_from(alphabet), **kwargs).map(b"".join)


# all six ASCII whitespace bytes, and bytes that are not whitespace in a bytes scan
PPM_SPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
PPM_OTHER = [b"0", b"7", b"P", b"#", b"\x00", b"\xff", b"\x1c"]
ppm_comment = st.builds(lambda text, end: b"#" + text + end,
                        byte_runs(PPM_OTHER + PPM_SPACE[:1] + PPM_SPACE[3:], max_size=4),
                        st.sampled_from([b"\n"] * 4 + [b""]))  # the last line may not end
ppm_gap = st.tuples(byte_runs(PPM_SPACE, min_size=1, max_size=2),
                    st.just(b"") | ppm_comment).map(b"".join)
ppm_header = st.tuples(
    st.just(b"") | ppm_gap,
    st.sampled_from([b"P6"] * 3 + [b"P5", b"P6#", b"\xffP6", b"P6\x1c"]),
    ppm_gap, st.sampled_from([b"1", b"2", b"3"] * 2 + [b"0", b"2#", b"\x002"]),
    ppm_gap, st.sampled_from([b"1", b"2"] * 2 + [b"0", b"#1", b"2\x1c"]),
    ppm_gap, st.sampled_from([b"255", b"9", b"1"] * 2 + [b"0", b"256", b"9\xff"]),
).map(b"".join)


class TestHsvRgb:
    @pytest.mark.parametrize("hsv,rgb", [
        ((0.0, 1.0, 1.0), (1.0, 0.0, 0.0)),        # red
        ((1.0 / 6.0, 1.0, 1.0), (1.0, 1.0, 0.0)),  # yellow
        ((2.0 / 3.0, 1.0, 1.0), (0.0, 0.0, 1.0)),  # blue
        ((0.0, 0.0, 0.5), (0.5, 0.5, 0.5)),        # achromatic gray
    ])
    def test_known_colors(self, hsv, rgb):
        # render fills the shape with the spec's HSV colour as RGB
        spec = scenegen.SceneSpec(hsv, None, 6.0, 0.0, (12.0, 12.0))
        assert tuple(scenegen.render(spec)[12, 12]) == pytest.approx(rgb)
        h, s, v = scenegen.image_hsv(np.asarray([rgb]))
        assert (h[0], s[0], v[0]) == pytest.approx(hsv)

    def test_gray_has_zero_hue_and_saturation(self):
        h, s, v = scenegen.image_hsv(np.full((1, 3), 0.5))
        assert h[0] == 0.0 and s[0] == 0.0 and v[0] == pytest.approx(0.5)
        assert (h[0], s[0], v[0]) == colorsys.rgb_to_hsv(0.5, 0.5, 0.5)

    @given(unit, st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.05, max_value=1.0))
    def test_roundtrip(self, h, s, v):
        r, g, b = colorsys.hsv_to_rgb(h % 1.0, s, v)
        h2, s2, v2 = scenegen.image_hsv(np.asarray([(r, g, b)]))
        assert (h2[0], s2[0], v2[0]) == pytest.approx(colorsys.rgb_to_hsv(r, g, b),
                                                      abs=1e-12)
        # hue is circular; 1.0 wraps to 0.0
        dh = min(abs(h2[0] - (h % 1.0)), 1.0 - abs(h2[0] - (h % 1.0)))
        assert dh < 1e-9
        assert s2[0] == pytest.approx(s, abs=1e-9)
        assert v2[0] == pytest.approx(v, abs=1e-9)


class TestSampleSpec:
    def test_unknown_concept_rejected(self):
        with pytest.raises(InvalidParameterError):
            scenegen.sample_spec("green-pentagon", np.random.default_rng(0))

    def test_ranges(self, rng):
        for _ in range(50):
            spec = scenegen.sample_spec("yellow-square", rng)
            h, s, v = spec.fill_hsv
            assert abs(h - 1.0 / 6.0) <= scenegen.HUE_JITTER + 1e-12
            assert scenegen.SAT_RANGE[0] <= s <= scenegen.SAT_RANGE[1]
            assert scenegen.VAL_RANGE[0] <= v <= scenegen.VAL_RANGE[1]
            assert scenegen.RADIUS_RANGE[0] <= spec.circumradius <= scenegen.RADIUS_RANGE[1]
            mid = (scenegen.IMAGE_SIZE - 1) / 2.0
            assert abs(spec.center[0] - mid) <= scenegen.CENTER_JITTER
            assert abs(spec.center[1] - mid) <= scenegen.CENTER_JITTER
            assert spec.n_sides == 4

    def test_shape_map(self, rng):
        assert {c.label: c.n_sides for c in cspace.CONCEPTS} == {
            "yellow-square": 4, "red-triangle": 3, "red-octagon": 8,
            "red-circle": None, "blue-circle": None}
        assert encoder.CANDIDATE_SHAPES == (3, 4, 8, None)
        for label in harness.CONCEPT_LABELS:
            assert (scenegen.sample_spec(label, rng).n_sides
                    == cspace.concept_by_label(label).n_sides)


class TestRender:
    def test_shape_and_range(self, rng):
        spec = scenegen.sample_spec("red-circle", rng)
        img = scenegen.render(spec, rng)
        assert img.shape == (25, 25, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_noiseless_circle_matches_point_test(self, rng):
        spec = scenegen.sample_spec("blue-circle", rng)
        img = scenegen.render(spec)
        cx, cy = spec.center
        for y in (0, 6, 12, 18, 24):
            for x in (0, 6, 12, 18, 24):
                inside = (x - cx) ** 2 + (y - cy) ** 2 <= spec.circumradius ** 2 + 1e-9
                expected = ((0.5, 0.5, 0.5) if not inside
                            else colorsys.hsv_to_rgb(*spec.fill_hsv))
                assert img[y, x] == pytest.approx(expected)

    def test_square_has_correct_area(self):
        # rotation pi/4 puts the edge normals on the axes: a plain square of
        # apothem 8*cos(pi/4) ~ 5.657 covering an 11x11 pixel block
        mid = 12.0
        spec = scenegen.SceneSpec((1 / 6, 1.0, 1.0), 4, 8.0, math.pi / 4.0, (mid, mid))
        img = scenegen.render(spec)
        fg = (np.abs(img - 0.5).max(axis=2) > 1e-9).sum()
        assert fg == 11 * 11

    def test_a_stream_adds_pixel_noise_from_it(self, rng):
        spec = scenegen.sample_spec("red-circle", rng)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        noise = rng_b.normal(0.0, scenegen.PIXEL_NOISE_SIGMA, (25, 25, 3))
        assert np.array_equal(scenegen.render(spec, rng_a),
                              np.clip(scenegen.render(spec) + noise, 0.0, 1.0))
        assert rng_a.random() == rng_b.random()  # the same number of draws

    def test_noisy_mask_close_to_noiseless(self, rng):
        # the sigma=0.02 noise flips only a tiny fraction of threshold tests
        diffs = []
        for _ in range(60):
            spec = scenegen.sample_spec("red-octagon", rng)
            clean = scenegen.render(spec)
            noisy = scenegen.render(spec, rng)
            m_clean = scenegen.image_hsv(clean)[1] > 0.2
            m_noisy = scenegen.image_hsv(noisy)[1] > 0.2
            diffs.append((m_clean ^ m_noisy).mean())
        assert max(diffs) <= 0.02

    def test_render_deterministic_given_spec(self, rng):
        spec = scenegen.sample_spec("red-triangle", rng)
        assert np.array_equal(scenegen.render(spec), scenegen.render(spec))


class TestRotationGeometry:
    def test_polygon_rotation_moves_vertices(self):
        spec = scenegen.SceneSpec((0.0, 1.0, 1.0), 3, 9.0, 0.0, (12.0, 12.0))
        rotated = scenegen.SceneSpec((0.0, 1.0, 1.0), 3, 9.0, math.pi / 3.0, (12.0, 12.0))
        assert not np.array_equal(scenegen.render(spec), scenegen.render(rotated))

    def test_full_turn_is_identity(self):
        for n, turn in ((3, 2 * math.pi / 3), (4, math.pi / 2), (8, math.pi / 4)):
            spec = scenegen.SceneSpec((0.0, 1.0, 1.0), n, 9.0, 0.3, (12.0, 12.0))
            shifted = scenegen.SceneSpec((0.0, 1.0, 1.0), n, 9.0, 0.3 + turn, (12.0, 12.0))
            assert np.array_equal(scenegen.render(spec), scenegen.render(shifted))


class TestPpm:
    def test_roundtrip(self, rng, tmp_path):
        spec = scenegen.sample_spec("yellow-square", rng)
        img = scenegen.render(spec, rng)
        path = str(tmp_path / "scene.ppm")
        scenegen.write_ppm(img, path)
        back = scenegen.read_ppm(path)
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_header_comment_skipped(self, tmp_path):
        path = str(tmp_path / "c.ppm")
        with open(path, "wb") as f:
            f.write(b"P6\n# a comment\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
        img = scenegen.read_ppm(path)
        assert img.shape == (1, 2, 3)
        assert img[0, 0] == pytest.approx((1.0, 0.0, 0.0))

    def test_comments_and_every_whitespace_between_fields(self, tmp_path):
        path = str(tmp_path / "c.ppm")
        with open(path, "wb") as f:
            f.write(b"P6 # x\n2\t1\x0b# y\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
        img = scenegen.read_ppm(path)
        assert img.shape == (1, 2, 3)
        assert img[0, 1] == pytest.approx((0.0, 0.0, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(header=ppm_header, tail=ppm_gap, payload=st.binary(min_size=19, max_size=40),
           cut=st.none() | st.integers(0, 40))
    def test_header_matches_the_byte_by_byte_reference(self, tmp_path_factory, header,
                                                       tail, payload, cut):
        raw = header + tail + payload
        raw = raw if cut is None else raw[:cut]
        fields, end = reference_ppm_header(raw)
        path = tmp_path_factory.mktemp("ppm") / "x.ppm"

        def read(data):
            path.write_bytes(data)
            try:
                return scenegen.read_ppm(str(path))
            except InvalidParameterError as exc:
                return str(exc).removeprefix(f"{path}: ")

        got = read(raw)
        if fields[:1] != [b"P6"]:
            assert got == "not a binary PPM"
        elif len(fields) < 4 or not all(f.isdigit() for f in fields[1:]):
            assert got == "incomplete or non-numeric PPM header"
        else:
            # write_ppm's layout of the same fields, then what follows the offset
            want = read(b"%s\n%s %s\n%s\n" % tuple(fields) + raw[end + 1:])
            if isinstance(want, np.ndarray):
                w, h, maxval = (int(f) for f in fields[1:])
                at_end = np.frombuffer(raw, np.uint8, w * h * 3, end + 1) / float(maxval)
                assert np.array_equal(want, at_end.reshape(h, w, 3))
                assert isinstance(got, np.ndarray) and np.array_equal(got, want)
            else:
                assert isinstance(got, str) and got == want

    def test_rejects_non_p6(self, tmp_path):
        path = str(tmp_path / "bad.ppm")
        with open(path, "wb") as f:
            f.write(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(InvalidParameterError):
            scenegen.read_ppm(path)

    @pytest.mark.parametrize("raw", [
        b"",
        b"P6\n25",  # header cut short
        b"P6\n# comment without end",
        b"P6\n2 x\n255\n" + bytes(12),  # non-integer width
        b"P6\n2 -1\n255\n" + bytes(12),
        b"P6\n0 1\n255\n",  # empty image
        b"P6\n2 1\n0\n" + bytes(6),  # maxval below 1
        b"P6\n2 1\n256\n" + bytes(12),  # 16-bit samples
        b"P6\n2 1\n255\n" + bytes(5),  # truncated payload
        b"P6\n2 1\n255",  # no payload at all
        b"P6\n2 1\n100\n" + bytes([0, 0, 0, 0, 101, 255]),  # samples above maxval
    ])
    def test_rejects_malformed(self, tmp_path, raw):
        path = str(tmp_path / "bad.ppm")
        with open(path, "wb") as f:
            f.write(raw)
        with pytest.raises(InvalidParameterError):
            scenegen.read_ppm(path)

    def test_maxval_scales_samples(self, tmp_path):
        path = str(tmp_path / "m.ppm")
        with open(path, "wb") as f:
            f.write(b"P6\n1 1\n15\n" + bytes([15, 5, 0]))
        img = scenegen.read_ppm(path)
        assert img[0, 0] == pytest.approx((1.0, 1.0 / 3.0, 0.0))


class TestDumpDataset:
    def test_files_and_labels(self, rng, tmp_path):
        out = str(tmp_path / "data")
        labels = scenegen.dump_dataset(out, 2, rng)
        with open(labels) as f:
            lines = f.read().strip().split("\n")
        assert lines[0] == "filename,label"
        assert len(lines) == 1 + 2 * 5
        for line, want in zip(lines[1:], np.repeat(harness.CONCEPT_LABELS, 2)):
            name, label = line.split(",")
            assert os.path.exists(os.path.join(out, name))
            assert label == want
