"""Analytic semantic encoder: image -> point in the conceptual space.

Segmentation by saturation threshold, color by circular/arithmetic means
over the foreground, shape ratio from the radial profile of the boundary.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .cspace import CONCEPTS, SemanticPoint, polygon_ratio
from .errors import DegenerateHueError, DegenerateSceneError, DegenerateShapeError
from .scenegen import image_hsv, pixel_grid

SATURATION_THRESHOLD = 0.2
MIN_FOREGROUND_PIXELS = 20
N_SECTORS = 64
MIN_NONEMPTY_SECTORS = 8


def segment(s: np.ndarray) -> np.ndarray:
    """Boolean foreground mask of a saturation plane: pixels above threshold.

    Only the largest 4-connected component is kept; channel noise flips
    roughly one stray background pixel per image above the threshold, and
    a single stray pixel would wreck the shape fit. Of equal-size
    components, the one whose first pixel comes first in raster order is
    kept.
    """
    mask = _largest_component(s > SATURATION_THRESHOLD)
    if int(mask.sum()) < MIN_FOREGROUND_PIXELS:
        raise DegenerateSceneError(
            f"only {int(mask.sum())} foreground pixels, need {MIN_FOREGROUND_PIXELS}")
    return mask


def _largest_component(mask: np.ndarray) -> np.ndarray:
    """The largest 4-connected component of a 2-D mask, found from row runs.

    A run is a maximal stretch of foreground within one row; runs are
    numbered in raster order. Runs in adjacent rows whose columns overlap
    are joined by a union-find that keeps a component's lowest run number
    as its root, so of equal-size components the first root, and so the
    raster-first component, wins.
    """
    h, w = mask.shape
    width = w + 1
    # the rows end to end, each followed by a background pixel and the first
    # preceded by one; a run is the half-open range [start, stop) of flat
    flat = np.zeros(h * width + 1, dtype=bool)
    flat[1:].reshape(h, width)[:, :w] = mask
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    starts = edges[::2]
    stops = edges[1::2]
    # the runs of the row above that overlap run i are lo[i] <= j < hi[i]
    lo = np.searchsorted(stops, starts - width, side="right")
    hi = np.searchsorted(starts, stops - width)
    touching = np.flatnonzero(hi > lo)
    parent = list(range(starts.size))
    components = len(parent)
    for i, a, b in zip(touching.tolist(), lo[touching].tolist(), hi[touching].tolist()):
        x = i  # the root of run i: it has joined only runs before it
        for j in range(a, b):
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]  # path halving
            if j < x:
                parent[x] = x = j
                components -= 1
            elif j > x:
                parent[j] = x
                components -= 1
    if components <= 1:
        return mask
    for i in range(len(parent)):  # a parent precedes its child
        parent[i] = parent[parent[i]]
    root = np.array(parent)
    lengths = stops - starts
    out = np.zeros_like(mask)
    out[mask] = np.repeat(root == np.bincount(root, weights=lengths).argmax(), lengths)
    return out


def estimate_color(hsv: tuple, mask: np.ndarray) -> tuple[float, float, float]:
    """(hue, saturation, brightness) of the foreground, from an image's HSV planes.

    Hue is the circular mean (direction of the summed unit vectors), which
    handles the wrap at 0/1 correctly; saturation and value are plain means.
    """
    h, s, v = hsv
    hues = h[mask]
    cos_sum = float(np.cos(2.0 * math.pi * hues).sum())
    sin_sum = float(np.sin(2.0 * math.pi * hues).sum())
    if math.hypot(cos_sum, sin_sum) < 1e-9:
        raise DegenerateHueError("foreground hues cancel; circular mean undefined")
    hue = (math.atan2(sin_sum, cos_sum) / (2.0 * math.pi)) % 1.0
    if hue == 1.0:  # a tiny negative angle rounds up to the excluded end
        hue = 0.0
    return hue, float(s[mask].mean()), float(v[mask].mean())


def boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels with a 4-neighbor outside the foreground or the frame."""
    interior = np.zeros_like(mask)
    interior[1:-1, 1:-1] = (mask[:-2, 1:-1] & mask[2:, 1:-1]
                            & mask[1:-1, :-2] & mask[1:-1, 2:])
    return mask & ~interior


#: Candidate shapes the radial model is fitted against: the concept table's
#: polygons by side count, then the circle (None); the order settles ties.
CANDIDATE_SHAPES = (*sorted({c.n_sides for c in CONCEPTS} - {None}), None)

#: Tie-break factor when both circle and octagon can reproduce a mask
#: exactly; calibrated on noiseless renders of both shapes.
_OCTAGON_SLACK_FACTOR = 2.5


def _sector_occupancy(mask: np.ndarray) -> int:
    """Number of angular sectors around the centroid holding a boundary pixel."""
    ys, xs = np.nonzero(mask)
    cy = ys.mean()
    cx = xs.mean()
    by, bx = np.nonzero(boundary_mask(mask))
    angles = np.arctan2(by - cy, bx - cx) % (2.0 * math.pi)
    sectors = np.minimum((angles / (2.0 * math.pi) * N_SECTORS).astype(int),
                         N_SECTORS - 1)
    return int(np.unique(sectors).size)


#: Margin added to every pruning bound; the float error of a gauge is about 1e-14.
_PRUNE_EPS = 1e-9

#: Most (pixel, center, rotation) lower bounds held at once.
_BOUND_BLOCK = 4096

#: Hill-climb neighbour offsets, in units of the level's step.
_HILL_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def _polygon_slacks(bx: np.ndarray, by: np.ndarray, fx: np.ndarray,
                    fy: np.ndarray, cx0: float, cy0: float, n: int):
    """Slack evaluator of the n-gon family for one mask.

    Takes the background pixels of the band and the foreground pixels that
    can be extreme along a direction; returns slacks(cx, cy, floor), the
    slack at each center, exact wherever it reaches floor and no larger
    elsewhere (see _consistency_slack for the bounds it prunes with).
    """
    rots = np.arange(36) * (2.0 * math.pi / n / 36)
    w = 2.0 * math.pi / n
    normal = (np.arange(n)[:, None] + 0.5) * w + rots  # (normal, rotation)
    nx = np.cos(normal)
    ny = np.sin(normal)
    # per normal, the foreground maximum of <p, n_k> and the pixels at it
    top_fg = np.empty_like(nx)
    extreme = np.empty((n, rots.size, fx.size), dtype=bool)
    for k in range(n):
        proj = np.multiply.outer(fx, nx[k]) + np.multiply.outer(fy, ny[k])
        top_fg[k] = proj.max(axis=0)
        extreme[k] = (proj >= top_fg[k] - _PRUNE_EPS).T
    # per rotation and background pixel, the normal nearest the pixel as
    # seen from the centroid
    r_idx = np.arange(rots.size)[:, None]
    near = np.arctan2(by - cy0, bx - cx0) - rots[:, None]
    near = np.floor(near / w).astype(int) % n
    near_x = nx[near, r_idx]
    near_y = ny[near, r_idx]
    del near  # set-up holds as few (rotation, pixel) arrays as it can
    # per rotation, the background pixel with the lowest bound at the centroid
    low = (bx - cx0) * near_x
    low += (by - cy0) * near_y
    q = low.argmin(axis=1)
    anchor = bx[q] * nx + by[q] * ny
    step = max(1, _BOUND_BLOCK // bx.size)

    def slacks(cx, cy, floor):
        shift = nx[:, None] * cx[:, None] + ny[:, None] * cy[:, None]  # <c, n_k>
        gauge = top_fg[:, None] - shift
        top = gauge.max(axis=0)  # the foreground maximum
        cap = (anchor[:, None] - shift).max(axis=0)  # >= background minimum
        c, r = np.nonzero(cap - top + _PRUNE_EPS >= floor)
        out = np.full(cx.size, -np.inf)
        if not r.size:
            return out
        # a block of (center, rotation) pairs at a time against every
        # background pixel, to bound the working memory
        kb, p = [], []
        for s in range(0, r.size, step):
            cs, rs = c[s:s + step], r[s:s + step]
            low = (bx - cx[cs, None]) * near_x[rs]
            low += (by - cy[cs, None]) * near_y[rs]
            j = low.argmin(axis=1)
            lim = np.minimum(cap[cs, rs], (bx[j] * nx[:, rs] + by[j] * ny[:, rs]
                                           - shift[:, cs, rs]).max(axis=0))
            block_kb, block_p = np.nonzero(low <= lim[:, None] + _PRUNE_EPS)
            kb.append(block_kb + s)
            p.append(block_p)
        kb = np.concatenate(kb)
        p = np.concatenate(p)
        k, kf = np.nonzero(gauge[:, c, r] >= top[c, r] - _PRUNE_EPS)
        i, f = np.nonzero(extreme[k, r[kf]])
        kk = np.concatenate([kb, kf[i]])
        qx = np.concatenate([bx[p], fx[f]]) - cx[c[kk]]
        qy = np.concatenate([by[p], fy[f]]) - cy[c[kk]]
        folded = (np.arctan2(qy, qx) - rots[r[kk]]) % w - math.pi / n
        u = np.hypot(qx, qy) * np.cos(folded)
        lo = np.full(r.size, np.inf)
        hi = np.full(r.size, -np.inf)
        np.minimum.at(lo, kb, u[:kb.size])
        np.maximum.at(hi, kf[i], u[kb.size:])
        np.maximum.at(out, c, lo - hi)
        return out

    return slacks


def _convexity_witness(mask: np.ndarray, band: np.ndarray) -> bool:
    """Whether a background pixel of the certificate's band lies strictly
    inside the convex hull of the band's foreground pixels.

    If one does, no circle and no octagon reproduces the band at any center
    or rotation, so both slacks are negative. For both families u is a
    convex function of the pixel (|p - c|, and max_k <p - c, n_k>) that
    grows along every ray from c, so at a point q strictly inside the hull
    it is below its maximum over the foreground: min(u over background)
    <= u(q) < max(u over foreground). A pixel strictly inside lies at least
    1/L from a hull edge of length L, far beyond the float error of u.

    The hull is that of each row's outermost foreground pixels, in (row,
    column) coordinates: the lower chain runs down the rows' first pixels,
    the upper back up their last. All arithmetic is on integers, so
    "strictly inside" is exact.
    """
    flat = mask.ravel()
    w = mask.shape[1]
    fg = np.flatnonzero(band & flat)  # in raster order
    by, bx = np.divmod(np.flatnonzero(band & ~flat), w)
    cut = np.flatnonzero(np.diff(fg // w)) + 1  # where each later row starts
    ys, xs = np.divmod(np.concatenate([fg[:1], fg[cut], fg[cut - 1], fg[-1:]]), w)
    ends = list(zip(ys.tolist(), xs.tolist()))
    first, last = ends[:cut.size + 1], ends[cut.size + 1:]
    hull = _chain(first + last[-1:])[:-1] + _chain(last[::-1] + first[:1])[:-1]
    if len(hull) < 3:
        return False
    hull = np.array(hull + hull[:1])
    a = hull[:-1, :, None]
    e = hull[1:, :, None] - a
    return bool((e[:, 0] * (bx - a[:, 1]) > e[:, 1] * (by - a[:, 0])).all(axis=0).any())


def _chain(points: list) -> list:
    """Monotone-chain half hull of (row, column) points in scan order: it
    keeps only strict turns one way, so collinear and repeated points drop out."""
    chain: list = []
    for y, x in points:
        while len(chain) >= 2 and ((chain[-1][0] - chain[-2][0]) * (x - chain[-2][1])
                                   <= (chain[-1][1] - chain[-2][1]) * (y - chain[-2][0])):
            chain.pop()
        chain.append((y, x))
    return chain


def _consistency_slack(mask: np.ndarray, band: np.ndarray, cx0: float, cy0: float,
                       n: int | None, *, beat: float = math.inf) -> float:
    """Largest margin by which some shape of the family reproduces the mask.

    Only the pixels of ``band``, fit_shape's flat boolean over pixel_grid
    around the centroid (cx0, cy0), are compared.

    For a candidate center (and rotation), every pixel reduces to a scalar
    u = dist * cos(folded angle) such that the pixel is inside the shape
    iff u <= apothem; the mask is exactly reproducible iff min(u over
    background) exceeds max(u over foreground). A positive return value is
    therefore a certificate that the family can generate this exact
    raster. Searched over a center grid around the centroid plus a
    rotation grid for polygons, then hill-climbed from the best grid point.

    The grid is evaluated in one call, and so are the hill-climb's
    remaining neighbours. For the circle u = |p - c| is cheap and computed
    for every band pixel. For polygons u is computed only where it can
    decide a comparison of the search, and the result is the same float as
    computing it for every band pixel and rotation. There u equals the
    gauge max_k <p - c, n_k> over the edge normals n_k, so projections
    <p, n_k>, taken once per mask, bound it without trigonometry:

    - the foreground maximum at center c is max_k (max_p <p, n_k> - <c, n_k>),
      so only pixels extreme along some normal can hold it;
    - any one background pixel's gauge bounds the minimum from above, and
      <p - c, n_k> for the normal nearest p as seen from the centroid
      bounds each background u from below; only pixels whose lower bound
      reaches the upper bound can hold the minimum;
    - a rotation whose bounds cannot reach the slack to beat is not
      computed at all. In the hill-climb that is the current best; on the
      grid, the middle point's slack, which the grid's maximum reaches, so
      its first maximum is still found.

    Each bound carries a 1e-9 margin, far above the float error of either
    form of u, so no skipped pair can tie a computed extreme: every slack
    that can be accepted, and so every step of the search and the result,
    is bit-identical to the exhaustive search.

    Given ``beat``, the search stops at the first slack it evaluates above
    it (the middle point's, the grid's maximum, or a hill-climb step) and
    returns that slack: the search's best only ever rises, so its result
    would exceed ``beat`` too. Below ``beat`` it takes the same path and
    returns the same float.
    """
    gx, gy = pixel_grid(mask.shape)
    flat = mask.ravel()
    px = gx[band]
    py = gy[band]
    fg = flat[band]
    if fg.all() or not fg.any():
        return -np.inf

    if n is None:
        def slacks(cx, cy, floor):
            """Slack at each center, exact whatever the floor."""
            u = np.hypot(px[:, None] - cx, py[:, None] - cy)
            return u[~fg].min(axis=0) - u[fg].max(axis=0)
    else:
        # a pixel extreme along a direction has a 4-neighbour outside the
        # band's foreground that way, so only the rim of it can be
        rim = boundary_mask((flat & band).reshape(mask.shape)).ravel()
        slacks = _polygon_slacks(px[~fg], py[~fg], gx[rim], gy[rim], cx0, cy0, n)

    offsets = np.arange(-0.6, 0.61, 0.3)
    grid_x = cx0 + np.repeat(offsets, offsets.size)
    grid_y = cy0 + np.tile(offsets, offsets.size)
    # the grid's maximum is at least the middle point's slack, so the whole
    # grid may skip what cannot reach it and still find the same first maximum
    middle = grid_x.size // 2
    floor = float(slacks(grid_x[middle:middle + 1], grid_y[middle:middle + 1], -np.inf)[0])
    if floor > beat:
        return floor
    grid = slacks(grid_x, grid_y, floor)
    i = int(grid.argmax())  # finite: at least the middle point's slack
    best, cx, cy = float(grid[i]), grid_x[i], grid_y[i]
    if best > beat:
        return best
    for step in (0.15, 0.075, 0.0375):
        moves = np.array(_HILL_MOVES, dtype=float) * step
        k = 0
        # the remaining moves from the current center at once; the first
        # that improves is taken, and the rest are evaluated again from there
        while k < len(moves):
            for j, s in enumerate(slacks(cx + moves[k:, 0], cy + moves[k:, 1],
                                         best).tolist(), k):
                if s > best:
                    best = s
                    if best > beat:
                        return best
                    cx, cy = cx + moves[j, 0], cy + moves[j, 1]
                    k = j + 1
                    break
            else:
                k = len(moves)
    return best


#: Most distinct masks whose fit_shape result is kept.
FIT_CACHE_SIZE = 32


def fit_shape(mask: np.ndarray) -> tuple[int | None, float, float]:
    """Best-fitting regular shape for a mask: (n_sides, circumradius, rotation).

    For each candidate shape the circumradius seed comes from the pixel
    area, the rotation from a coarse-to-fine grid, and the score is the
    pixel-wise disagreement between the mask and the rasterized shape.
    Per-pixel boundary estimates are too noisy on a 25x25 raster to
    separate near-circular shapes; fitting whole templates pools the
    evidence of every pixel. Circle-vs-octagon decisions additionally use
    the exact-consistency certificate, since their templates differ by
    only a few corner pixels at small radii. When the certificate
    overturns the template's pick, the tuple keeps the template's
    circumradius and rotation, except that a circle's rotation is 0. The
    octagon's search runs only as far as the decision needs, and not at
    all when a background pixel inside the foreground's convex hull shows
    that neither family reproduces the mask.

    The fit depends on the mask's content alone, so it is memoized on the
    mask's shape and packed bits: a scene encoded again (the rate search
    encodes each scene once per n_b) reuses its fit. The cache keeps its
    own copy of the bits and the result is a tuple, so neither changes
    when the caller's array does.
    """
    return _fit_shape_cached(mask.shape, np.packbits(mask).tobytes())


@functools.lru_cache(maxsize=FIT_CACHE_SIZE)
def _fit_shape_cached(shape: tuple[int, ...],
                      packed: bytes) -> tuple[int | None, float, float]:
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=math.prod(shape))
    return _fit_shape(bits.view(bool).reshape(shape))


def _fit_shape(mask: np.ndarray) -> tuple[int | None, float, float]:
    """The fit of fit_shape, without the memo."""
    ys, xs = np.nonzero(mask)
    cy = ys.mean()
    cx = xs.mean()
    gx, gy = pixel_grid(mask.shape)
    dist = np.hypot(gx - cx, gy - cy)
    angles = np.arctan2(gy - cy, gx - cx)
    flat = mask.ravel()
    area = float(flat.sum())

    best = (None, 0.0, 0.0)
    best_score = np.inf
    for n in CANDIDATE_SHAPES:
        if n is None:
            r0 = math.sqrt(area / math.pi)
            rots = np.array([0.0])
            refine = ()
        else:
            r0 = math.sqrt(2.0 * area / (n * math.sin(2.0 * math.pi / n)))
            rot_step = 2.0 * math.pi / n / 16
            rots = np.arange(16) * rot_step
            refine = (rot_step / 2, rot_step / 4)
        radii = np.array([0.96 * r0, r0, 1.04 * r0])
        apothems = radii * (1.0 if n is None else math.cos(math.pi / n))
        # a template's boundary lies between its apothem and its radius, so a
        # pixel inside the smallest apothem or past the largest radius adds the
        # same to every score; only the annulus between them is scored
        lo = apothems[0] - 1e-9
        hi = radii[-1] + 1e-9
        band = (dist >= lo) & (dist <= hi)
        base = int((~flat & (dist < lo)).sum() + (flat & (dist > hi)).sum())
        bdist, bang, bflat = (a[band][:, None, None] for a in (dist, angles, flat))

        def scores(rot):
            """Disagreements of each (radius, rotation) template with the mask."""
            fold = 1.0 if n is None else np.cos(
                (bang - rot) % (2.0 * math.pi / n) - math.pi / n)
            return (bflat != (bdist <= apothems[:, None] / fold)).sum(axis=0) + base

        grid = scores(rots)
        score, rot = grid.min(axis=1), rots[grid.argmin(axis=1)]
        # local rotation refinement: per radius, the first better neighbour
        for step in refine:
            cand = rot[:, None] + np.array([-step, step])
            found = scores(cand)
            low = found.min(axis=1)
            rot = np.where(low < score, cand[np.arange(3), found.argmin(axis=1)], rot)
            score = np.minimum(low, score)
        i = int(score.argmin())
        if score[i] < best_score:
            best_score = score[i]
            best = (n, float(radii[i]), float(rot[i]))

    if best[0] in (None, 8):
        # the certificate's band: every pixel whose distance from the centroid
        # is within 3.2 of the farthest foreground pixel's
        rmax = dist[flat].max()
        band = (dist >= rmax - 3.2) & (dist <= rmax + 3.2)
        circle_slack = _consistency_slack(mask, band, cx, cy, None)
        if circle_slack <= 0 and _convexity_witness(mask, band):
            return best  # both slacks are negative: the template's pick stands
        # the octagon family matches spuriously more often, so it must win by a
        # clear margin (any positive slack wins where the circle's is <= 0);
        # the search need only tell whether its slack beats that margin
        beat = max(0.0, _OCTAGON_SLACK_FACTOR * circle_slack)
        if _consistency_slack(mask, band, cx, cy, 8, beat=beat) > beat:
            best = (8, best[1], best[2])
        elif circle_slack > 0:
            best = (None, best[1], 0.0)
    return best


def estimate_shape_ratio(mask: np.ndarray) -> float:
    """Max/min center-to-boundary distance ratio of the mask's shape.

    The ratio of the best-fitting regular shape; exact values 2, sqrt(2),
    1/cos(pi/8), and 1 for the four shapes in play.
    """
    if _sector_occupancy(mask) < MIN_NONEMPTY_SECTORS:
        raise DegenerateShapeError(
            f"fewer than {MIN_NONEMPTY_SECTORS} populated boundary sectors")
    n, _, _ = fit_shape(mask)
    return polygon_ratio(n)


def encode(img: np.ndarray) -> SemanticPoint:
    """Full embedding: segment, then color and shape estimation."""
    hsv = image_hsv(img)
    mask = segment(hsv[1])
    hue, sat, val = estimate_color(hsv, mask)
    ratio = estimate_shape_ratio(mask)
    return SemanticPoint(ratio, hue, min(sat, 1.0), min(val, 1.0))
