"""Traditional pixel-transmission system.

Quantizes every channel of the full 25x25 image into 1875*n_b bits for
the same BPSK/Rayleigh link; harness.run_traditional_trial classifies the
reconstruction with the perception stack the semantic system uses.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedPacketError
from .phy import QuantizerSpec

PIXEL_VALUES = 25 * 25 * 3  # 1875 quantized values per image


def pixel_quantize(img: np.ndarray, n_b: int) -> np.ndarray:
    """Mid-rise quantize all channels on [0,1]; row-major, R,G,B, MSB first."""
    levels = QuantizerSpec(n_b).levels
    idx = np.clip(img.ravel() * levels, 0, levels - 1).astype(np.int64)
    shifts = np.arange(n_b - 1, -1, -1)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8).ravel()


def pixel_dequantize(bits: np.ndarray, n_b: int) -> np.ndarray:
    """Cell-center image reconstruction from a pixel packet."""
    levels = QuantizerSpec(n_b).levels
    bits = np.asarray(bits)
    if bits.shape != (traditional_rate_bits(n_b),):
        raise MalformedPacketError(
            f"pixel packet length {bits.size} != {traditional_rate_bits(n_b)}")
    weights = 1 << np.arange(n_b - 1, -1, -1)
    idx = (bits.reshape(PIXEL_VALUES, n_b).astype(np.int64) * weights).sum(axis=1)
    return ((idx + 0.5) / levels).reshape(25, 25, 3)


def semantic_rate_bits(n_b: int) -> int:
    """Bits per transmission of the semantic system."""
    return 4 * n_b


def traditional_rate_bits(n_b: int) -> int:
    """Bits per transmission of the pixel system."""
    return PIXEL_VALUES * n_b


def rate_reduction() -> float:
    """Fractional rate saving of the semantic system; independent of n_b."""
    return 1.0 - 4.0 / PIXEL_VALUES
