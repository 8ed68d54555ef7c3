"""Traditional pixel-transmission baseline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom import baseline, harness, scenegen
from semcom.errors import InvalidParameterError, MalformedPacketError


class TestRates:
    def test_semantic_rates_table(self):
        assert [baseline.semantic_rate_bits(n) for n in (2, 5, 8)] == [8, 20, 32]

    def test_traditional_rates_table(self):
        assert [baseline.traditional_rate_bits(n) for n in (2, 5, 8)] == [
            3750, 9375, 15000]

    def test_rate_reduction_value(self):
        assert baseline.rate_reduction() == 1.0 - 4.0 / 1875.0
        assert round(100.0 * baseline.rate_reduction(), 2) == 99.79

    def test_pixel_packet_bits(self):
        img = np.zeros((25, 25, 3))
        assert baseline.pixel_quantize(img, 8).size == baseline.traditional_rate_bits(8)
        assert baseline.PIXEL_VALUES == 1875


class TestPixelCodec:
    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 2, 5, 8]))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_within_half_cell(self, seed, n_b):
        img = np.random.default_rng(seed).uniform(0.0, 1.0, (25, 25, 3))
        bits = baseline.pixel_quantize(img, n_b)
        assert bits.size == baseline.traditional_rate_bits(n_b)
        back = baseline.pixel_dequantize(bits, n_b)
        assert np.abs(back - img).max() <= 0.5 / (1 << n_b) + 1e-12

    def test_saturated_value_clamps(self):
        img = np.ones((25, 25, 3))
        bits = baseline.pixel_quantize(img, 2)
        back = baseline.pixel_dequantize(bits, 2)
        assert np.all(back == 3.5 / 4.0)

    def test_huge_value_clamps_before_the_cast(self):
        img = np.full((25, 25, 3), 1e300)
        back = baseline.pixel_dequantize(baseline.pixel_quantize(img, 8), 8)
        assert np.all(back == 255.5 / 256.0)

    @pytest.mark.parametrize("n_b", [-1, 0, 17])
    def test_rejects_n_b_outside_the_quantizer_range(self, n_b):
        with pytest.raises(InvalidParameterError):
            baseline.pixel_quantize(np.zeros((25, 25, 3)), n_b)
        with pytest.raises(InvalidParameterError):
            baseline.pixel_dequantize(
                np.zeros(max(baseline.traditional_rate_bits(n_b), 0), dtype=np.uint8), n_b)

    def test_row_major_rgb_order(self):
        img = np.zeros((25, 25, 3))
        img[0, 0, 0] = 1.0  # red channel of the first pixel
        bits = baseline.pixel_quantize(img, 1)
        assert bits[0] == 1
        assert bits[1:].sum() == 0

    def test_dequantize_rejects_wrong_length(self):
        with pytest.raises(MalformedPacketError):
            baseline.pixel_dequantize(np.zeros(100, dtype=np.uint8), 2)


class TestClassifyReceived:
    """The receiver's decode step both trial functions share, on images."""

    def test_clean_scene_classified(self, rng):
        for concept in harness.CONCEPT_LABELS:
            spec = scenegen.sample_spec(concept, rng)
            img = scenegen.render(spec, rng)
            rec = harness._decode(concept, None, None, None, harness._encode(img))
            assert not rec.degenerate
            assert rec.decoded == concept

    def test_unusable_image_flags_failure(self):
        img = np.full((25, 25, 3), 0.5)
        rec = harness._decode("red-circle", None, None, None, harness._encode(img))
        assert rec.degenerate and rec.semantic_error
        assert rec.decoded == "blue-circle"  # lexicographically first concept
        assert math.isnan(rec.distortion) and not rec.syntactic_error

    def test_quantized_clean_scene_survives(self, rng):
        rec = harness.run_traditional_trial("red-triangle", 8, None, rng)
        assert not rec.degenerate
        assert rec.decoded == "red-triangle"
