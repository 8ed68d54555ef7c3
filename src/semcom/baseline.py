"""Traditional pixel-transmission system.

Quantizes every channel of the full 25x25 image, sends the resulting
1875*n_b bits over the same BPSK/Rayleigh link, and classifies the
reconstructed image with the shared analytic perception stack.
"""

from __future__ import annotations

import numpy as np

from . import cspace, encoder
from .errors import MalformedPacketError, SemcomError

PIXEL_VALUES = 25 * 25 * 3  # 1875 quantized values per image


def pixel_packet_bits(n_b: int) -> int:
    return PIXEL_VALUES * n_b


def pixel_quantize(img: np.ndarray, n_b: int) -> np.ndarray:
    """Mid-rise quantize all channels on [0,1]; row-major, R,G,B, MSB first."""
    levels = 1 << n_b
    idx = np.clip((img.ravel() * levels).astype(np.int64), 0, levels - 1)
    shifts = np.arange(n_b - 1, -1, -1)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8).ravel()


def pixel_dequantize(bits: np.ndarray, n_b: int) -> np.ndarray:
    """Cell-center image reconstruction from a pixel packet."""
    bits = np.asarray(bits)
    if bits.shape != (pixel_packet_bits(n_b),):
        raise MalformedPacketError(
            f"pixel packet length {bits.size} != {pixel_packet_bits(n_b)}")
    weights = 1 << np.arange(n_b - 1, -1, -1)
    idx = (bits.reshape(PIXEL_VALUES, n_b).astype(np.int64) * weights).sum(axis=1)
    return ((idx + 0.5) / (1 << n_b)).reshape(25, 25, 3)


def classify_received(img: np.ndarray) -> tuple[str, bool]:
    """Concept label for a (possibly channel-mangled) image.

    Returns (label, classifier_failure). When the perception stack cannot
    make sense of the image, the lexicographically first concept is
    reported and the failure flag raised, keeping error accounting simple.
    """
    concepts = cspace.CONCEPTS
    try:
        point = encoder.encode(img)
    except SemcomError:
        return concepts[0].label, True
    return cspace.decode_concept(point, concepts).label, False


def semantic_rate_bits(n_b: int) -> int:
    """Bits per transmission of the semantic system."""
    return 4 * n_b


def traditional_rate_bits(n_b: int) -> int:
    """Bits per transmission of the pixel system."""
    return PIXEL_VALUES * n_b


def rate_reduction() -> float:
    """Fractional rate saving of the semantic system; independent of n_b."""
    return 1.0 - 4.0 / PIXEL_VALUES
