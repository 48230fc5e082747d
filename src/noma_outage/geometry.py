"""Curved-Earth scenario geometry: aircraft placement, specular ground
reflection points, and the random reflective-area map.

All positions live on a sphere of configurable radius.  The ground station
sits at latitude/longitude (0, 0); local ground coordinates are an azimuthal
equidistant projection about its ground point (x east, y north, meters),
accurate to sub-meter level for rectangle membership at cell scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import ScenarioConfig

#: Attempts per aircraft before giving up on the separation constraint.
MAX_PLACEMENT_ATTEMPTS = 10_000

#: Specular search on the arc angle: bisection steps that cut the bracket
#: to 1/256 of the arc, then Illinois (false-position) steps.  False
#: position from the whole arc converges slowly, as the root lies near the
#: station's end.  For aircraft at 1-13 km over the cell and beyond it, four
#: Illinois steps already reach the solve's rounding floor (a few 1e-9 m);
#: two more are margin.
_BISECT_STEPS = 8
_ILLINOIS_STEPS = 6

#: Row fill of the fullest reflector-map layout, and the number of layouts
#: tried before a coverage target counts as unreachable.
_MAX_FILL = 0.98
_MAP_LAYOUTS = 8

#: Reflector-map rows laid out together; bounds the layout's working set.
_ROW_BATCH = 16


class CellCapacityError(RuntimeError):
    """Rejection sampling could not satisfy the minimum-separation constraint."""


class CoverageError(RuntimeError):
    """The reflective-area coverage target cannot be met."""


@dataclass(frozen=True)
class EarthModel:
    radius_m: float = 6_371_000.0

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError(f"earth radius must be positive, got {self.radius_m}")


@dataclass(frozen=True)
class GeoPoint:
    """Geocentric spherical coordinates (radians) plus height above MSL."""

    lat: float
    lon: float
    height_m: float

    def __post_init__(self) -> None:
        if self.height_m < 0:
            raise ValueError(f"height must be nonnegative, got {self.height_m}")

    def unit(self) -> np.ndarray:
        cl = math.cos(self.lat)
        return np.array(
            [cl * math.cos(self.lon), cl * math.sin(self.lon), math.sin(self.lat)]
        )

    def xyz(self, earth: EarthModel) -> np.ndarray:
        """Cartesian position in meters; norm equals radius + height."""
        return (earth.radius_m + self.height_m) * self.unit()


def gs_point(cfg: ScenarioConfig) -> GeoPoint:
    return GeoPoint(0.0, 0.0, cfg.gs_height_m)


@lru_cache(maxsize=64)
def _local_frame(center: GeoPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(up, east, north) unit vectors at the center's ground point."""
    up = center.unit()
    east = np.cross([0.0, 0.0, 1.0], up)
    norm = np.linalg.norm(east)
    if norm < 1e-12:
        raise ValueError("local frame undefined at the poles")
    east /= norm
    north = np.cross(up, east)
    return up, east, north


def point_from_local(
    center: GeoPoint, earth: EarthModel, x_east: float, y_north: float, height_m: float
) -> GeoPoint:
    """Inverse azimuthal equidistant projection about the center ground point.

    Scalar float arithmetic, one IEEE operation per vector component as the
    array form (x e + y n) / rho, cos(theta) up + sin(theta) d would do."""
    up, east, north = (v.tolist() for v in _local_frame(center))
    rho = math.hypot(x_east, y_north)
    theta = rho / earth.radius_m
    if rho < 1e-12:
        u = up
    else:
        c, s = math.cos(theta), math.sin(theta)
        u = [c * up[i] + s * ((x_east * east[i] + y_north * north[i]) / rho) for i in range(3)]
    return GeoPoint(math.asin(min(max(u[2], -1.0), 1.0)), math.atan2(u[1], u[0]), height_m)


def local_from_units(center: GeoPoint, earth: EarthModel, units: np.ndarray) -> np.ndarray:
    """Vectorized azimuthal equidistant projection of unit direction vectors;
    returns (n, 2) local ground coordinates."""
    up, east, north = _local_frame(center)
    u = np.atleast_2d(units)
    c = np.clip(u @ up, -1.0, 1.0)
    w = u - c[:, None] * up[None, :]
    wn = np.linalg.norm(w, axis=1)
    theta = np.arctan2(wn, c)  # stable for small separations, unlike arccos
    scale = np.where(wn < 1e-15, 0.0, earth.radius_m * theta / np.maximum(wn, 1e-300))
    return np.column_stack([scale * (w @ east), scale * (w @ north)])


def sample_aircraft_positions(cfg: ScenarioConfig, rng: np.random.Generator) -> list[GeoPoint]:
    """Draw aircraft uniformly over the cell disc (radial CDF proportional to
    r^2) at the configured altitude, resampling any point that violates the
    3-D minimum separation."""
    earth = EarthModel(cfg.earth_radius_m)
    center = gs_point(cfg)
    sep = cfg.min_separation_m
    points: list[GeoPoint] = []
    accepted_xyz = np.empty((cfg.k_aircraft, 3))
    for n in range(cfg.k_aircraft):
        for attempt in range(MAX_PLACEMENT_ATTEMPTS):
            r = cfg.cell_radius_m * math.sqrt(rng.random())
            az = 2.0 * math.pi * rng.random()
            pt = point_from_local(
                center, earth, r * math.sin(az), r * math.cos(az), cfg.aircraft_altitude_m
            )
            xyz = pt.xyz(earth)
            diff = xyz - accepted_xyz[:n]
            # the separation test is a 3-vector norm per pair; the batched
            # squares only skip the pairs clearly apart
            close = np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= (sep * (1.0 + 1e-9)) ** 2)
            if all(np.linalg.norm(diff[j]) >= sep for j in close):
                points.append(pt)
                accepted_xyz[n] = xyz
                break
        else:
            raise CellCapacityError(
                f"could not place aircraft {len(points) + 1}/{cfg.k_aircraft} with "
                f"{cfg.min_separation_m} m separation in {MAX_PLACEMENT_ATTEMPTS} attempts"
            )
    return points


def scenario_geometry(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[GeoPoint, ...]:
    """The aircraft of one realization; the station is ``gs_point(cfg)``."""
    return tuple(sample_aircraft_positions(cfg, rng))


# ---------------------------------------------------------------------------
# Specular reflection point
# ---------------------------------------------------------------------------

def specular_reflection_points_batch(
    gs: GeoPoint, aircraft_xyz: np.ndarray, earth: EarthModel
) -> np.ndarray:
    """Ground reflection points for one station and many aircraft.

    For each aircraft the point on the sphere surface minimizing the total
    path station -> surface -> aircraft lies on the great-circle arc between
    the two ground projections, where the station-side and aircraft-side
    grazing angles are equal.  The station, the aircraft and the Earth's
    centre span one plane, so the search runs on the arc angle theta in
    [0, omega] from the station's ground point.  A point at height h and
    radius r = R + h, seen from the surface at arc angle x, has grazing
    angle psi with

        sin psi = (h - 2 r sin^2(x/2)) / sqrt(h^2 + 4 r R sin^2(x/2)),

    and the search compares 1 - sin psi of the two sides, which is formed
    without cancellation even where both sines round to 1 (an aircraft
    nearly overhead).  The gap falls monotonically along the arc (positive
    under the station, negative under the aircraft); a few bisection steps
    narrow the bracket, Illinois steps finish inside it, and the slerp
    between the two ground projections maps theta back to 3-D.  Heights
    must be positive.  An aircraft directly above the station maps to the
    station's ground point.  Returns an (n, 3) array of Cartesian surface
    points.
    """
    re = earth.radius_m
    g = gs.xyz(earth)
    a = np.atleast_2d(np.asarray(aircraft_xyz, dtype=float))
    rg = np.linalg.norm(g)
    ra = np.linalg.norm(a, axis=1)
    u1 = g / rg
    u2 = a / ra[:, None]
    cosw = np.clip(u2 @ u1, -1.0, 1.0)
    sinw = np.linalg.norm(np.cross(np.broadcast_to(u1, u2.shape), u2), axis=1)
    omega = np.arctan2(sinw, cosw)  # stable down to tiny angular separations
    degenerate = sinw < 1e-15
    half = 0.5 * omega  # the search runs on x = theta / 2 in [0, omega / 2]

    def side(r):  # (h, h^2, 4 r R, 2 r) of a point at radius r = R + h
        h = r - re
        return h, h * h, 4.0 * r * re, 2.0 * r

    station, aircraft = side(rg), side(ra)

    def drop(x, h, hh, c, r2):
        # 1 - sin psi = 2 r s (1 + 2 R / (q + h)) / q, s = sin^2 x, q = sqrt(h^2 + 4 r R s)
        s = np.sin(x) ** 2
        q = np.sqrt(hh + c * s)
        return r2 * s * (1.0 + 2.0 * re / (q + h)) / q

    def grazing_gap(x):  # sin psi_station - sin psi_aircraft
        return drop(half - x, *aircraft) - drop(x, *station)

    def false_position(lo, flo, hi, fhi):
        # flo > 0 >= fhi, except on a degenerate arc, where both are 0
        den = flo - fhi
        ok = den > 0.0
        return lo + (hi - lo) * np.where(ok, flo / np.where(ok, den, 1.0), 0.5)

    # at x = 0 the station side's drop is 0, at x = omega / 2 the aircraft side's
    lo, flo, hi, fhi = np.zeros(len(a)), drop(half, *aircraft), half, -drop(half, *station)
    moved_lo = None
    for i in range(_BISECT_STEPS + _ILLINOIS_STEPS):
        x = 0.5 * (lo + hi) if i < _BISECT_STEPS else false_position(lo, flo, hi, fhi)
        fx = grazing_gap(x)
        pos = fx > 0
        if i > _BISECT_STEPS:  # Illinois: an end kept twice in a row has its gap value halved
            fhi = np.where(pos & moved_lo, 0.5 * fhi, fhi)
            flo = np.where(pos | moved_lo, flo, 0.5 * flo)
        lo, flo = np.where(pos, x, lo), np.where(pos, fx, flo)
        hi, fhi = np.where(pos, hi, x), np.where(pos, fhi, fx)
        moved_lo = pos
    theta = 2.0 * false_position(lo, flo, hi, fhi)

    # spherical interpolation between the two ground projections
    s = np.where(degenerate, 1.0, sinw)
    u = (np.sin(omega - theta) / s)[:, None] * u1[None, :] + (np.sin(theta) / s)[:, None] * u2
    u[degenerate] = u1
    return re * u


def grazing_angle(surface_xyz: np.ndarray, other_xyz: np.ndarray) -> float | np.ndarray:
    """Elevation of a point above the local horizon at a surface point, in
    radians.  At the specular point the station-side and aircraft-side values
    coincide."""
    p = np.asarray(surface_xyz, dtype=float)
    q = np.asarray(other_xyz, dtype=float)
    n = p / np.linalg.norm(p, axis=-1, keepdims=True)
    d = q - p
    d = d / np.linalg.norm(d, axis=-1, keepdims=True)
    s = np.clip(np.sum(n * d, axis=-1), -1.0, 1.0)
    return np.arcsin(s)


# ---------------------------------------------------------------------------
# Reflective-area map
# ---------------------------------------------------------------------------

@dataclass
class ReflectorMap:
    """Non-overlapping axis-aligned reflective rectangles in local ground
    coordinates around the station.

    ``rects`` has rows (xmin, ymin, xmax, ymax); every rectangle intersects
    the cell disc and the total in-disc rectangle area, ``area_in_disc_m2``,
    equals the configured ``coverage_fraction`` times the disc area to
    within one rectangle.

    Row order: rectangles lie in horizontal bands whose members share
    (ymin, ymax); bands are disjoint except for shared edges and appear in
    increasing ymin, and within a band rectangles are disjoint and appear in
    increasing xmin.  ``covers_local`` relies on this order.
    """

    rects: np.ndarray
    area_in_disc_m2: float

    def covers_local(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Membership test for points given in local ground coordinates;
        rectangle edges count as inside.

        A point can only lie in the last band with ymin <= y, or in the band
        before it when y is on their shared edge; within a band, only in the
        last rectangle with xmin <= x.  Complex keys ymin + j xmin order like
        (ymin, xmin) pairs, which is the row order, so one ``searchsorted``
        finds that rectangle, exactly."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.zeros(x.shape, dtype=bool)
        r = self.rects
        if len(r) == 0:
            return out
        ymin_rows = r[:, 1]
        band_ymin = ymin_rows[np.r_[True, ymin_rows[1:] != ymin_rows[:-1]]]
        keys = ymin_rows + 1j * r[:, 0]
        below = np.searchsorted(band_ymin, y, side="right") - 1
        # a point on the edge two bands share lies in both
        for band in (below, below - 1):
            ymin = band_ymin[np.maximum(band, 0)]
            j = np.searchsorted(keys, ymin + 1j * x, side="right") - 1
            hit = r[np.maximum(j, 0)]
            out |= (band >= 0) & (j >= 0) & (hit[:, 1] == ymin) & (x <= hit[:, 2]) & (y <= hit[:, 3])
        return out


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 64-node Gauss-Legendre rule, computed on
    first use by Golub-Welsch: the nodes are the eigenvalues of the Jacobi
    matrix of the Legendre recurrence, and each weight is 2 v[0]**2 of its
    unit eigenvector v.  This costs one 64 x 64 ``eigh`` and no import of
    ``numpy.polynomial``."""
    k = np.arange(1.0, 64.0)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vecs[0] ** 2


def _rect_disc_areas(rects: np.ndarray, radius: float) -> np.ndarray:
    """Exact area of each rectangle clipped to the disc of given radius.

    Interior rectangles are handled directly; rectangles crossing the
    boundary are integrated with 64-node Gauss-Legendre quadrature, which is
    exact to rounding for these smooth single-kink integrands.
    """
    if len(rects) == 0:
        return np.zeros(0)
    x0, y0, x1, y1 = rects.T
    corner = np.hypot(np.maximum(np.abs(x0), np.abs(x1)), np.maximum(np.abs(y0), np.abs(y1)))
    areas = (x1 - x0) * (y1 - y0)
    boundary = corner > radius
    if boundary.any():
        nodes, weights = _gauss_legendre()
        bx0 = np.clip(x0[boundary], -radius, radius)
        bx1 = np.clip(x1[boundary], -radius, radius)
        half = (bx1 - bx0) / 2.0
        mid = (bx1 + bx0) / 2.0
        xs = mid[:, None] + half[:, None] * nodes[None, :]
        yt = np.sqrt(np.maximum(radius**2 - xs**2, 0.0))
        seg = np.clip(np.minimum(y1[boundary][:, None], yt) - np.maximum(y0[boundary][:, None], -yt), 0.0, None)
        areas[boundary] = half * (seg * weights[None, :]).sum(axis=1)
    return areas


def _disc_rects(
    bottom: np.ndarray, top: np.ndarray, starts: np.ndarray, widths: np.ndarray, radius: float
) -> np.ndarray:
    """Rectangles of rows ``bottom[i] .. top[i]`` with x ranges ``starts[i]
    .. starts[i] + widths[i]`` whose box meets the disc, row after row in
    increasing x."""
    ends = starts + widths
    # the point of each box nearest the center
    cx = np.minimum(np.maximum(0.0, starts), ends)
    cy = np.minimum(np.maximum(0.0, bottom), top)
    rect = np.empty(starts.shape + (4,))
    rect[..., 0] = starts
    rect[..., 1] = bottom[:, None]
    rect[..., 2] = ends
    rect[..., 3] = top[:, None]
    keep = cx**2 + (cy**2)[:, None] <= radius**2
    return rect.reshape(-1, 4).compress(keep.ravel(), axis=0)


def _lay_rows(rng: np.random.Generator, radius: float, smin: float, smax: float, fill: float) -> np.ndarray:
    """Rectangles in horizontal rows covering the disc's bounding square,
    each row filled to about ``fill``; only those whose box meets the disc
    are kept.

    Each row takes from the stream its height, n widths, n gaps and its
    offset, each ``lo + (hi - lo) * u`` of one uniform draw u, as
    ``Generator.uniform`` computes it; a row that falls short of the
    square's right edge then takes n more widths and n more gaps at a time
    until it reaches it.  No height exceeds ``smax``, so the next
    floor(remaining / smax) rows are sure to be laid: up to ``_ROW_BATCH``
    of them are drawn as one block and laid out together.  When a row of the
    block falls short, the draws of the rows after it go back in front of
    the stream, and that row is extended on its own.
    """
    mean_w = 0.5 * (smin + smax)
    mean_gap = mean_w * (1.0 - fill) / fill
    gap_hi = 2.0 * mean_gap
    xlo, xhi = -radius - smax, radius + smax
    span = xhi - xlo
    n = int(span / (mean_w + mean_gap) * 1.6) + 16
    pending = np.zeros(0)  # drawn from rng, not yet used

    def draws(k: int) -> np.ndarray:
        nonlocal pending
        if len(pending) < k:
            pending = np.concatenate([pending, rng.random(k - len(pending))])
        out, pending = pending[:k], pending[k:]
        return out

    rows: list[np.ndarray] = []
    y = xlo
    while y < xhi:
        b = max(1, min(_ROW_BATCH, int((xhi - y) / smax)))
        u = draws(b * (2 * n + 2)).reshape(b, 2 * n + 2)
        ys = np.cumsum(np.concatenate(([y], smin + (smax - smin) * u[:, 0])))
        widths = smin + (smax - smin) * u[:, 1 : n + 1]
        gaps = gap_hi * u[:, n + 1 : 2 * n + 1]
        starts = np.empty((b, n))
        starts[:, 0] = 0.0
        np.cumsum((widths + gaps)[:, :-1], axis=1, out=starts[:, 1:])
        starts += (xlo - (smax + gap_hi) * u[:, -1])[:, None]
        short = np.flatnonzero(starts[:, -1] + widths[:, -1] < xhi)
        if len(short):  # rare: a row not yet spanned
            b = short[0]
            pending = np.concatenate([u[b + 1 :].ravel(), pending])
            s, w, g = starts[b], widths[b], gaps[b]
            while s[-1] + w[-1] < xhi:
                more = draws(2 * n)
                more_w = smin + (smax - smin) * more[:n]
                more_g = gap_hi * more[n:]
                more_s = s[-1] + w[-1] + g[-1] + np.r_[0.0, np.cumsum(more_w + more_g)[:-1]]
                s, w, g = np.r_[s, more_s], np.r_[w, more_w], np.r_[g, more_g]
            rows.append(_disc_rects(ys[:b], ys[1 : b + 1], starts[:b], widths[:b], radius))
            rows.append(_disc_rects(ys[b : b + 1], ys[b + 1 : b + 2], s[None, :], w[None, :], radius))
            y = ys[b + 1]
        else:
            rows.append(_disc_rects(ys[:-1], ys[1:], starts, widths, radius))
            y = ys[-1]
    return np.vstack(rows) if rows else np.zeros((0, 4))


def build_reflector_map(cfg: ScenarioConfig, seed: int) -> ReflectorMap:
    """Build the random reflective-area map for one channel realization.

    Rectangles are laid out in horizontal rows of random height; within a row
    widths and gaps are drawn independently, which guarantees non-overlap by
    construction at any coverage level.  The rows are filled a little above
    the coverage target; when a cell holds only a few large rectangles that
    margin can fall short, and the rows are laid out again, from the same
    stream, at a fill halfway to the fullest.  The realized in-disc area is
    then calibrated to the target by deleting a random subset, leaving an
    error below one rectangle area (~0.02% of the disc).
    """
    if not 0.0 < cfg.coverage_fraction < 1.0:
        raise CoverageError(f"coverage_fraction must be in (0, 1), got {cfg.coverage_fraction}")
    rng = np.random.default_rng(seed)
    radius = cfg.cell_radius_m
    smin, smax = cfg.rectangle_sides.min_m, cfg.rectangle_sides.max_m
    target = cfg.coverage_fraction
    if target >= 0.95:
        raise CoverageError(f"coverage_fraction {target} exceeds the achievable fill")
    disc_area = math.pi * radius**2
    target_area = target * disc_area
    fill = min(target * 1.08 + 0.01, _MAX_FILL)
    for _ in range(_MAP_LAYOUTS):
        rects = _lay_rows(rng, radius, smin, smax, fill)
        areas = _rect_disc_areas(rects, radius)
        total = float(areas.sum())
        if total >= target_area:
            break
        fill = 0.5 * (fill + _MAX_FILL)
    else:
        raise CoverageError(
            f"coverage target {target} unreachable: placed {total / disc_area:.4f} "
            f"after {_MAP_LAYOUTS} layouts"
        )

    # Remove rectangles in a random order while the area left exceeds the
    # target.  The running totals, subtracted in that order, never increase,
    # so the removed ones are those whose running total before removal is
    # still above the target.
    order = rng.permutation(len(rects))
    left = np.subtract.accumulate(np.concatenate(([total], areas[order])))
    n_cut = np.count_nonzero(left[:-1] > target_area)
    keep = np.ones(len(rects), dtype=bool)
    keep[order[:n_cut]] = False
    return ReflectorMap(rects=rects.compress(keep, axis=0), area_in_disc_m2=float(left[n_cut]))
