"""Technical layer: the mid-rise codec of both packets, BPSK over Rayleigh + AWGN.

Real-equivalent baseband with per-symbol i.i.d. fading, perfect CSI, and
coherent detection, verified against the closed-form average BER.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cspace import DIMENSION_RANGES, SemanticPoint
from .errors import InvalidParameterError, MalformedPacketError

_LO, _HI = np.array(DIMENSION_RANGES).T


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform mid-rise quantizer: n_b bits per dimension."""

    n_b: int

    def __post_init__(self):
        if not 1 <= self.n_b <= 16:
            raise InvalidParameterError(f"n_b must be in [1, 16], got {self.n_b}")

    @property
    def levels(self) -> int:
        return 1 << self.n_b


@dataclass
class ChannelParams:
    """Average received SNR per symbol (dB) plus the noise/fading stream.

    snr_db = None means a noiseless, fade-free channel.
    """

    snr_db: float | None
    rng: np.random.Generator

    def __post_init__(self):
        if self.snr_db is not None:
            _linear_snr(self.snr_db)


def _linear_snr(snr_db: float) -> float:
    """Average symbol SNR 10^(snr_db/10), which must be a positive finite float."""
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        snr = math.inf
    if not 0.0 < snr < math.inf:
        raise InvalidParameterError(
            f"snr_db={snr_db} has no positive finite linear SNR")
    return snr


def _cells(values, lo, hi, levels: int) -> np.ndarray:
    """Mid-rise cell index of each value in its [lo, hi], clamped to the end cells."""
    return np.clip((values - lo) / ((hi - lo) / levels), 0, levels - 1).astype(np.int64)


def _centres(indices: np.ndarray, lo, hi, levels: int) -> np.ndarray:
    return lo + (indices + 0.5) * (hi - lo) / levels


def _to_bits(indices: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Each index as n_b bits, MSB first, concatenated in index order."""
    shifts = np.arange(spec.n_b - 1, -1, -1)
    return ((indices[:, None] >> shifts) & 1).astype(np.uint8).ravel()


def _from_bits(bits: np.ndarray, count: int, spec: QuantizerSpec) -> np.ndarray:
    """Inverse of _to_bits for a packet of count indices; rejects any other length."""
    bits = np.asarray(bits)
    if bits.shape != (count * spec.n_b,):
        raise MalformedPacketError(f"packet length {bits.size} != {count * spec.n_b}")
    weights = 1 << np.arange(spec.n_b - 1, -1, -1)
    return (bits.reshape(count, spec.n_b).astype(np.int64) * weights).sum(axis=1)


def _checked_indices(indices: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """The four cell indices of a semantic packet, each in [0, levels)."""
    indices = np.asarray(indices)
    if indices.shape != (4,) or (indices < 0).any() or (indices >= spec.levels).any():
        raise MalformedPacketError(f"expected 4 indices in [0, {spec.levels}), got {indices}")
    return indices


def quantize(p: SemanticPoint, spec: QuantizerSpec) -> np.ndarray:
    """Mid-rise cell index per dimension; a coordinate at its range's hi is in the top cell."""
    return _cells(np.array(p.as_tuple()), _LO, _HI, spec.levels)


def dequantize(indices: np.ndarray, spec: QuantizerSpec) -> SemanticPoint:
    """Cell-center reconstruction of quantized coordinates."""
    centres = _centres(_checked_indices(indices, spec), _LO, _HI, spec.levels)
    return SemanticPoint(*centres.tolist())


def pack(indices: np.ndarray, n_b: int) -> np.ndarray:
    """Bit packet: dimension order (r, h, s, b), each index MSB first."""
    spec = QuantizerSpec(n_b)
    return _to_bits(_checked_indices(indices, spec), spec)


def unpack(bits: np.ndarray, n_b: int) -> np.ndarray:
    """Inverse of pack; rejects packets of the wrong length."""
    return _from_bits(bits, 4, QuantizerSpec(n_b))


def bpsk_modulate(bits: np.ndarray) -> np.ndarray:
    """Bit 0 -> +1, bit 1 -> -1, unit symbol energy."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=float)


def bpsk_demodulate(received: np.ndarray, csi: np.ndarray) -> np.ndarray:
    """Coherent sign decision after fade compensation (perfect CSI)."""
    return (np.asarray(received) * np.asarray(csi) < 0).astype(np.uint8)


def rayleigh_awgn(symbols: np.ndarray, params: ChannelParams
                  ) -> tuple[np.ndarray, np.ndarray]:
    """y = a*x + n with unit-mean-square Rayleigh fades a and AWGN n.

    Noise variance is 1/(2*gamma) for average symbol SNR gamma, matching
    the textbook coherent-BPSK result analytic_ber verifies against.
    Returns (received samples, fade gains).
    """
    symbols = np.asarray(symbols, dtype=float)
    if params.snr_db is None:
        return symbols.copy(), np.ones_like(symbols)
    fades = params.rng.rayleigh(scale=math.sqrt(0.5), size=symbols.shape)
    snr = _linear_snr(params.snr_db)
    noise = params.rng.normal(0.0, math.sqrt(0.5 / snr), size=symbols.shape)
    return fades * symbols + noise, fades


def analytic_ber(snr_db: float) -> float:
    """Average BER of coherent BPSK on a Rayleigh channel: closed form."""
    snr = _linear_snr(snr_db)
    return 0.5 * (1.0 - math.sqrt(snr / (1.0 + snr)))


def transmit_packet(bits: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Modulate, pass through the channel, demodulate; length preserved."""
    symbols = bpsk_modulate(bits)
    received, fades = rayleigh_awgn(symbols, params)
    return bpsk_demodulate(received, fades)
