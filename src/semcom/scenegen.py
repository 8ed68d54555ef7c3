"""Synthetic scene generator.

Renders 25x25 RGB images of colored regular polygons and circles on an
achromatic gray background, with controlled jitter in color, pose, and
size. Stands in for a real image dataset so the rest of the pipeline can
stay analytic and self-contained.
"""

from __future__ import annotations

import colorsys
import csv
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import cspace
from .errors import InvalidParameterError

IMAGE_SIZE = 25

#: Number of polygon sides per concept; None means circle.
CONCEPT_SHAPES = {label: n for label, n, _ in cspace.PROTOTYPE_SPECS}

HUE_JITTER = 0.03
SAT_RANGE = (0.9, 1.0)
VAL_RANGE = (0.93, 1.0)
RADIUS_RANGE = (6.0, 11.0)
CENTER_JITTER = 1.0
PIXEL_NOISE_SIGMA = 0.02
BACKGROUND_VALUE = 0.5


@dataclass(frozen=True)
class SceneSpec:
    """Everything needed to render one scene deterministically."""

    concept: str
    fill_hsv: tuple[float, float, float]
    n_sides: int | None
    circumradius: float
    rotation: float
    center: tuple[float, float]
    pixel_noise_sigma: float = PIXEL_NOISE_SIGMA


def sample_spec(concept: str, rng: np.random.Generator) -> SceneSpec:
    """Draw a jittered scene for a concept label (InvalidParameterError if unknown)."""
    proto_hue = cspace.concept_by_label(concept).prototype.h
    hue = (proto_hue + rng.uniform(-HUE_JITTER, HUE_JITTER)) % 1.0
    sat = rng.uniform(*SAT_RANGE)
    val = rng.uniform(*VAL_RANGE)
    rotation = rng.uniform(0.0, 2.0 * math.pi)
    radius = rng.uniform(*RADIUS_RANGE)
    mid = (IMAGE_SIZE - 1) / 2.0
    center = (mid + rng.uniform(-CENTER_JITTER, CENTER_JITTER),
              mid + rng.uniform(-CENTER_JITTER, CENTER_JITTER))
    return SceneSpec(concept, (hue, sat, val), CONCEPT_SHAPES[concept],
                     radius, rotation, center)


def _shape_mask(xs: np.ndarray, ys: np.ndarray, spec: SceneSpec) -> np.ndarray:
    """Whether each pixel center lies inside the scene's shape (boundary counts)."""
    cx, cy = spec.center
    dx = xs - cx
    dy = ys - cy
    if spec.n_sides is None:
        return dx * dx + dy * dy <= spec.circumradius ** 2 + 1e-9
    n = spec.n_sides
    apothem = spec.circumradius * math.cos(math.pi / n)
    inside = np.ones(xs.shape, dtype=bool)
    for k in range(n):
        # outward edge normals sit between consecutive vertex angles
        phi = spec.rotation + (2 * k + 1) * math.pi / n
        inside &= dx * math.cos(phi) + dy * math.sin(phi) <= apothem + 1e-9
    return inside


@functools.lru_cache(maxsize=4)
def pixel_grid(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Column and row coordinates of every pixel of a raster, row-major."""
    gx, gy = np.meshgrid(np.arange(shape[1], dtype=float),
                         np.arange(shape[0], dtype=float))
    gx.flags.writeable = gy.flags.writeable = False  # shared by every caller
    return gx.ravel(), gy.ravel()


def render(spec: SceneSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """Rasterize a spec to a (25, 25, 3) float image with channels in [0, 1].

    Pixel centers inside the shape get the fill color (hue taken mod 1,
    saturation and value clamped to [0, 1]), the rest the background gray; i.i.d. Gaussian noise is added per channel and
    clamped. rng may be omitted when pixel_noise_sigma is 0.
    """
    shape = (IMAGE_SIZE, IMAGE_SIZE)
    mask = _shape_mask(*pixel_grid(shape), spec).reshape(shape)
    h, s, v = spec.fill_hsv
    img = np.full((IMAGE_SIZE, IMAGE_SIZE, 3), BACKGROUND_VALUE)
    img[mask] = colorsys.hsv_to_rgb(h % 1.0, min(max(s, 0.0), 1.0),
                                    min(max(v, 0.0), 1.0))
    if spec.pixel_noise_sigma > 0:
        if rng is None:
            raise InvalidParameterError("noisy render requires an rng")
        img = img + rng.normal(0.0, spec.pixel_noise_sigma, img.shape)
    return np.clip(img, 0.0, 1.0)


def image_hsv(img: np.ndarray):
    """Hexcone HSV planes of a (..., 3) RGB image; hue is 0 for achromatic pixels."""
    img = np.asarray(img, float)
    r, g, b = img[..., 0], img[..., 1], img[..., 2]
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    v = maxc
    span = maxc - minc
    s = np.where(maxc > 0, span / np.where(maxc > 0, maxc, 1.0), 0.0)
    safe = np.where(span > 0, span, 1.0)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    h = np.where(maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(span > 0, (h / 6.0) % 1.0, 0.0)
    return h, s, v


def write_ppm(img: np.ndarray, path: str) -> None:
    """Write a binary PPM (P6, maxval 255, row-major RGB)."""
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_ppm(path: str) -> np.ndarray:
    """Read a binary PPM back into a float image with channels in [0, 1].

    Anything but a P6 file with a complete header, 8-bit samples (maxval
    1..255), the full payload and no sample above maxval raises
    InvalidParameterError.
    """
    with open(path, "rb") as f:
        raw = f.read()
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
    if not fields or fields[0] != b"P6":
        raise InvalidParameterError(f"{path}: not a binary PPM")
    if len(fields) < 4 or not all(f.isdigit() for f in fields[1:]):
        raise InvalidParameterError(f"{path}: incomplete or non-numeric PPM header")
    w, h, maxval = (int(f) for f in fields[1:])
    if w < 1 or h < 1:
        raise InvalidParameterError(f"{path}: image size {w}x{h}")
    if not 1 <= maxval <= 255:
        raise InvalidParameterError(f"{path}: maxval {maxval} outside 1..255")
    pos += 1  # single whitespace after maxval
    size = w * h * 3
    if len(raw) - pos < size:
        raise InvalidParameterError(
            f"{path}: payload has {max(len(raw) - pos, 0)} of {size} bytes")
    data = np.frombuffer(raw, dtype=np.uint8, count=size, offset=pos)
    if data.max() > maxval:
        raise InvalidParameterError(f"{path}: sample {data.max()} above maxval {maxval}")
    return data.reshape(h, w, 3).astype(float) / float(maxval)


def dump_dataset(out_dir: str, per_concept: int, rng: np.random.Generator) -> str:
    """Render a labeled dataset of PPM files plus a labels CSV.

    Returns the path of the labels file. A count below 1 raises
    InvalidParameterError before anything is written.
    """
    if per_concept < 1:
        raise InvalidParameterError(f"per_concept must be >= 1, got {per_concept}")
    os.makedirs(out_dir, exist_ok=True)
    labels_path = os.path.join(out_dir, "labels.csv")
    with open(labels_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["filename", "label"])
        for label in sorted(CONCEPT_SHAPES):
            for i in range(per_concept):
                spec = sample_spec(label, rng)
                name = f"{label}_{i:04d}.ppm"
                write_ppm(render(spec, rng), os.path.join(out_dir, name))
                writer.writerow([name, label])
    return labels_path
