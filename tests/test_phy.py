"""Technical layer: quantizer, packing, BPSK/Rayleigh channel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom import cspace, phy
from semcom.errors import InvalidParameterError, MalformedPacketError

points = st.builds(
    cspace.SemanticPoint,
    st.floats(min_value=1.0, max_value=2.5),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestQuantizerSpec:
    @pytest.mark.parametrize("n_b", [0, 17, -1])
    def test_rejects_bad_resolution(self, n_b):
        with pytest.raises(InvalidParameterError):
            phy.QuantizerSpec(n_b)

    def test_levels(self):
        assert phy.QuantizerSpec(8).levels == 256
        assert phy.QuantizerSpec(1).levels == 2


class TestQuantizeDequantize:
    @given(points, st.integers(min_value=1, max_value=16))
    @settings(max_examples=300)
    def test_roundtrip_within_half_cell(self, p, n_b):
        spec = phy.QuantizerSpec(n_b)
        q = phy.dequantize(phy.quantize(p, spec), spec)
        for (v, vq, (lo, hi)) in zip(p.as_tuple(), q.as_tuple(),
                                     phy.DIMENSION_RANGES):
            assert abs(v - vq) <= (hi - lo) / spec.levels / 2.0 + 1e-12

    def test_cell_centers(self):
        spec = phy.QuantizerSpec(2)
        p = phy.dequantize(np.array([0, 0, 0, 0]), spec)
        # 4 levels: first cell centers
        assert p.r == pytest.approx(1.0 + 1.5 / 8.0)
        assert p.h == pytest.approx(0.125)
        assert p.s == pytest.approx(0.125)
        assert p.b == pytest.approx(0.125)

    def test_linear_edge_clamps(self):
        spec = phy.QuantizerSpec(3)
        p = cspace.SemanticPoint(2.5, 0.0, 1.0, 1.0)
        idx = phy.quantize(p, spec)
        assert idx[0] == spec.levels - 1
        assert idx[2] == idx[3] == spec.levels - 1

    def test_hue_just_below_one_lands_in_the_top_cell(self):
        spec = phy.QuantizerSpec(4)
        near_one = cspace.SemanticPoint(1.0, 1.0 - 1e-9, 0.0, 0.0)
        assert phy.quantize(near_one, spec)[1] == spec.levels - 1

    def test_dequantize_rejects_bad_indices(self):
        spec = phy.QuantizerSpec(2)
        with pytest.raises(MalformedPacketError):
            phy.dequantize(np.array([0, 0, 0, 4]), spec)
        with pytest.raises(MalformedPacketError):
            phy.dequantize(np.array([0, 0, 0]), spec)


class TestPackUnpack:
    def test_msb_first_layout(self):
        bits = phy.pack(np.array([5, 0, 7, 1]), 3)
        assert bits.tolist() == [1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1]

    @given(st.integers(min_value=1, max_value=16), st.integers(0, 2 ** 32))
    def test_roundtrip(self, n_b, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, 1 << n_b, size=4)
        assert np.array_equal(phy.unpack(phy.pack(idx, n_b), n_b), idx)

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(MalformedPacketError):
            phy.pack(np.array([0, 0, 0, 8]), 3)
        with pytest.raises(MalformedPacketError):
            phy.pack(np.array([0, 0, 0]), 3)

    def test_unpack_rejects_wrong_length(self):
        with pytest.raises(MalformedPacketError):
            phy.unpack(np.zeros(11, dtype=np.uint8), 3)

    def test_packet_length(self):
        for n_b in (1, 5, 16):
            assert phy.pack(np.zeros(4, dtype=int), n_b).size == 4 * n_b

    @pytest.mark.parametrize("n_b", [-1, 0, 17])
    def test_rejects_n_b_outside_the_quantizer_range(self, n_b):
        with pytest.raises(InvalidParameterError):
            phy.pack(np.zeros(4, dtype=int), n_b)
        with pytest.raises(InvalidParameterError):
            phy.unpack(np.zeros(max(4 * n_b, 0), dtype=np.uint8), n_b)


class TestBpsk:
    def test_mapping(self):
        assert phy.bpsk_modulate(np.array([0, 1, 0])).tolist() == [1.0, -1.0, 1.0]

    def test_demodulate_with_csi(self):
        rx = np.array([0.3, -2.0, 0.01, -0.5])
        csi = np.array([1.0, 1.0, 1.0, -1.0])
        assert phy.bpsk_demodulate(rx, csi).tolist() == [0, 1, 0, 0]

    def test_noiseless_channel_identity(self, rng):
        bits = rng.integers(0, 2, size=64).astype(np.uint8)
        out = phy.transmit_packet(bits, phy.ChannelParams(None, rng))
        assert np.array_equal(out, bits)

    def test_channel_preserves_length(self, rng):
        bits = rng.integers(0, 2, size=32).astype(np.uint8)
        out = phy.transmit_packet(bits, phy.ChannelParams(5.0, rng))
        assert out.shape == bits.shape
        assert set(np.unique(out)) <= {0, 1}

    def test_rejects_non_finite_snr(self):
        with pytest.raises(InvalidParameterError):
            phy.ChannelParams(math.inf, np.random.default_rng(0))

    def test_requires_a_stream(self):
        with pytest.raises(TypeError):
            phy.ChannelParams(5.0)

    @pytest.mark.parametrize("snr_db", [4000.0, 3090.0, -4000.0, -math.inf, math.nan])
    def test_rejects_snr_without_a_positive_finite_linear_value(self, snr_db):
        # 10^(snr/10) overflows above about 3082 dB and is 0.0 below about -3236 dB
        with pytest.raises(InvalidParameterError):
            phy.ChannelParams(snr_db, np.random.default_rng(0))
        with pytest.raises(InvalidParameterError):
            phy.analytic_ber(snr_db)

    @pytest.mark.parametrize("snr_db", [3000.0, -3000.0])
    def test_extreme_finite_snr_still_transmits(self, snr_db, rng):
        bits = rng.integers(0, 2, size=64).astype(np.uint8)
        out = phy.transmit_packet(bits, phy.ChannelParams(snr_db, rng))
        assert out.shape == bits.shape
        assert 0.0 <= phy.analytic_ber(snr_db) <= 0.5
        if snr_db > 0:
            assert np.array_equal(out, bits)


class TestChannelStatistics:
    def test_fade_power_is_unit(self, rng):
        symbols = np.ones(200_000)
        _, fades = phy.rayleigh_awgn(symbols, phy.ChannelParams(100.0, rng))
        assert np.mean(fades ** 2) == pytest.approx(1.0, abs=0.01)

    def test_analytic_ber_values(self):
        assert phy.analytic_ber(0.0) == pytest.approx(0.146447, abs=1e-6)
        assert phy.analytic_ber(10.0) == pytest.approx(0.0232687, abs=1e-6)
        assert phy.analytic_ber(15.0) == pytest.approx(0.0077230, abs=1e-6)

    def test_analytic_ber_monotone(self):
        bers = [phy.analytic_ber(s) for s in range(-10, 40, 5)]
        assert all(a > b for a, b in zip(bers, bers[1:]))

    def test_empirical_matches_analytic_smoke(self, rng):
        n = 200_000
        bits = np.zeros(n, dtype=np.uint8)
        out = phy.transmit_packet(bits, phy.ChannelParams(10.0, rng))
        ber = out.mean()
        expected = phy.analytic_ber(10.0)
        se = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(ber - expected) < 5.0 * se

    def test_reproducible_given_seed(self):
        bits = np.arange(32) % 2
        a = phy.transmit_packet(bits, phy.ChannelParams(5.0, np.random.default_rng(7)))
        b = phy.transmit_packet(bits, phy.ChannelParams(5.0, np.random.default_rng(7)))
        assert np.array_equal(a, b)


class TestDimensionRanges:
    def test_normative_ranges(self):
        assert phy.DIMENSION_RANGES == (
            (1.0, 2.5), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
        assert phy.DIMENSION_RANGES is cspace.DIMENSION_RANGES  # one definition
