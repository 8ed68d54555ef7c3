"""Traditional pixel-transmission system.

phy's mid-rise codec turns every channel of the full 25x25 image into
1875*n_b bits for the same BPSK/Rayleigh link; harness.run_traditional_trial
classifies the reconstruction with the semantic system's perception stack.
"""

from __future__ import annotations

import numpy as np

from . import phy
from .scenegen import IMAGE_SIZE

PIXEL_VALUES = IMAGE_SIZE * IMAGE_SIZE * 3  # 1875 quantized values per image


def pixel_quantize(img: np.ndarray, n_b: int) -> np.ndarray:
    """Mid-rise quantize all channels on [0,1]; row-major, R,G,B, MSB first."""
    spec = phy.QuantizerSpec(n_b)
    return phy._to_bits(phy._cells(np.ravel(img), 0.0, 1.0, spec.levels), spec)


def pixel_dequantize(bits: np.ndarray, n_b: int) -> np.ndarray:
    """Cell-center image reconstruction from a pixel packet."""
    spec = phy.QuantizerSpec(n_b)
    idx = phy._from_bits(bits, PIXEL_VALUES, spec)
    return phy._centres(idx, 0.0, 1.0, spec.levels).reshape(IMAGE_SIZE, IMAGE_SIZE, 3)


def semantic_rate_bits(n_b: int) -> int:
    """Bits per transmission of the semantic system."""
    return 4 * n_b


def traditional_rate_bits(n_b: int) -> int:
    """Bits per transmission of the pixel system."""
    return PIXEL_VALUES * n_b


def rate_reduction() -> float:
    """Fractional rate saving of the semantic system; independent of n_b."""
    return 1.0 - 4.0 / PIXEL_VALUES
