import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    covers_brute_force,
    great_circle_distance,
    ref_build_reflector_map,
    ref_lay_rows,
    ref_sample_aircraft_positions,
    ref_specular_points,
)
from noma_outage.config import ConfigError, RectangleSides, ScenarioConfig
from noma_outage.geometry import (
    CellCapacityError,
    CoverageError,
    EarthModel,
    GeoPoint,
    ReflectorMap,
    _gauss_legendre,
    _lay_rows,
    build_reflector_map,
    grazing_angle,
    gs_point,
    local_from_units,
    point_from_local,
    sample_aircraft_positions,
    specular_reflection_points_batch,
)

EARTH = EarthModel()


def _specular(gs, aircraft, earth=EARTH):
    """Specular points (n, 3) for a list of aircraft GeoPoints."""
    return specular_reflection_points_batch(gs, np.array([p.xyz(earth) for p in aircraft]), earth)


def test_geopoint_norm_is_radius_plus_height():
    pt = GeoPoint(0.3, -1.2, 10_000.0)
    assert np.linalg.norm(pt.xyz(EARTH)) == pytest.approx(EARTH.radius_m + 10_000.0, rel=1e-12)


def test_local_projection_round_trip():
    center = gs_point(ScenarioConfig())
    for x, y in [(0.0, 0.0), (100.0, -50.0), (150_000.0, 90_000.0), (-220_000.0, 10.0)]:
        pt = point_from_local(center, EARTH, x, y, 0.0)
        xb, yb = local_from_units(center, EARTH, pt.unit())[0]
        assert xb == pytest.approx(x, abs=1e-6)
        assert yb == pytest.approx(y, abs=1e-6)


# ---------------------------------------------------------------------------
# aircraft placement
# ---------------------------------------------------------------------------

def test_single_aircraft_inside_cell_at_altitude():
    cfg = ScenarioConfig(k_aircraft=1)
    pts = sample_aircraft_positions(cfg, np.random.default_rng(1))
    assert len(pts) == 1
    assert pts[0].height_m == cfg.aircraft_altitude_m
    assert great_circle_distance(EARTH, gs_point(cfg), pts[0]) <= cfg.cell_radius_m


def test_pairwise_separation_enforced():
    cfg = ScenarioConfig(k_aircraft=16)
    for seed in range(5):
        pts = sample_aircraft_positions(cfg, np.random.default_rng(seed))
        xyz = np.array([p.xyz(EARTH) for p in pts])
        delta = xyz[:, None, :] - xyz[None, :, :]
        dist = np.linalg.norm(delta, axis=2)
        dist[np.diag_indices(len(pts))] = np.inf
        assert dist.min() >= cfg.min_separation_m
        assert all(p.height_m == cfg.aircraft_altitude_m for p in pts)


def test_sampling_deterministic_given_seed():
    cfg = ScenarioConfig(k_aircraft=8)
    a = sample_aircraft_positions(cfg, np.random.default_rng(42))
    b = sample_aircraft_positions(cfg, np.random.default_rng(42))
    assert a == b


def test_mean_distance_matches_uniform_disc():
    # uniform-in-area disc: E[distance to center] = 2R/3
    cfg = ScenarioConfig(k_aircraft=32)
    gs = gs_point(cfg)
    rng = np.random.default_rng(7)
    dists = []
    for _ in range(10_000 // 32):
        for p in sample_aircraft_positions(cfg, rng):
            dists.append(great_circle_distance(EARTH, gs, p))
    mean = np.mean(dists)
    assert mean == pytest.approx(2.0 * cfg.cell_radius_m / 3.0, rel=0.02)


def test_overcrowded_cell_raises_capacity_error():
    cfg = ScenarioConfig(k_aircraft=12, cell_radius_m=12_000.0, min_separation_m=10_000.0)
    with pytest.raises(CellCapacityError):
        sample_aircraft_positions(cfg, np.random.default_rng(0))


def _placements(sample, cfg, seed):
    """(points or the error message, the next draw): what a placement
    returns and where it leaves the stream."""
    rng = np.random.default_rng(seed)
    try:
        out = sample(cfg, rng)
    except CellCapacityError as err:
        out = str(err)
    return out, rng.random()


@pytest.mark.parametrize(
    "sides, seeds",
    [
        (dict(), 40),  # default cell: 222 km, 32 aircraft
        (dict(k_aircraft=16, cell_radius_m=20_000.0, min_separation_m=4_000.0), 40),  # frequent resampling
        (dict(k_aircraft=8, earth_radius_m=1_000_000.0, aircraft_altitude_m=0.0), 40),
        (dict(k_aircraft=12, cell_radius_m=12_000.0, min_separation_m=10_000.0), 2),  # capacity error
    ],
)
def test_placement_matches_reference_loop(sides, seeds):
    cfg = ScenarioConfig(**sides)
    for seed in range(seeds):
        assert _placements(sample_aircraft_positions, cfg, seed) == _placements(
            ref_sample_aircraft_positions, cfg, seed
        )


def test_placement_ties_on_separation_match_reference_loop():
    # a separation limit exactly at, or one ulp either side of, the distance
    # between the first two draws: the decision of the one-at-a-time norm
    for seed in range(20):
        cfg = ScenarioConfig(k_aircraft=2, min_separation_m=1.0)
        first = ref_sample_aircraft_positions(cfg, np.random.default_rng(seed))
        d = float(np.linalg.norm(first[1].xyz(EARTH) - first[0].xyz(EARTH)))
        for sep in (d, np.nextafter(d, np.inf), np.nextafter(d, 0.0)):
            cfg = cfg.replace(min_separation_m=float(sep))
            assert _placements(sample_aircraft_positions, cfg, seed) == _placements(
                ref_sample_aircraft_positions, cfg, seed
            )


# ---------------------------------------------------------------------------
# specular reflection point
# ---------------------------------------------------------------------------

def test_flat_earth_equal_heights_gives_midpoint():
    flat = EarthModel(radius_m=1e9 * EARTH.radius_m)
    gs = GeoPoint(0.0, 0.0, 600.0)
    ac = GeoPoint(0.0, 50_000.0 / flat.radius_m, 600.0)
    spec = _specular(gs, [ac], flat)[0]
    assert np.linalg.norm(spec) == pytest.approx(flat.radius_m, rel=1e-12)
    assert math.atan2(spec[1], spec[0]) == pytest.approx(ac.lon / 2.0, rel=1e-6)


def test_aircraft_above_station_reflects_at_station_ground_point():
    cfg = ScenarioConfig()
    gs = gs_point(cfg)
    overhead = GeoPoint(gs.lat, gs.lon, cfg.aircraft_altitude_m)
    offset = point_from_local(gs, EARTH, 3_000.0, -4_000.0, cfg.aircraft_altitude_m)
    spec = _specular(gs, [overhead, offset])
    assert np.array_equal(spec[0], EARTH.radius_m * gs.unit())
    assert np.linalg.norm(spec[1] - EARTH.radius_m * gs.unit()) > 100.0


def test_grazing_angles_equal_for_random_pairs():
    rng = np.random.default_rng(3)
    cfg = ScenarioConfig(k_aircraft=1)
    gs = gs_point(cfg)
    aircraft = []
    for _ in range(1000):
        r = cfg.cell_radius_m * math.sqrt(rng.random())
        az = rng.uniform(0.0, 2.0 * math.pi)
        aircraft.append(point_from_local(gs, EARTH, r * math.sin(az), r * math.cos(az),
                                         cfg.aircraft_altitude_m))
    spec = _specular(gs, aircraft)
    g1 = grazing_angle(spec, gs.xyz(EARTH)[None, :])
    g2 = grazing_angle(spec, np.array([p.xyz(EARTH) for p in aircraft]))
    assert np.abs(g1 - g2).max() < 1e-6


def test_specular_point_matches_grid_search_oracle():
    rng = np.random.default_rng(11)
    cfg = ScenarioConfig(k_aircraft=1)
    gs = gs_point(cfg)
    gxyz = gs.xyz(EARTH)
    for _ in range(3):
        r = cfg.cell_radius_m * math.sqrt(rng.uniform(0.2, 1.0))
        az = rng.uniform(0.0, 2.0 * math.pi)
        ac = point_from_local(gs, EARTH, r * math.sin(az), r * math.cos(az),
                              cfg.aircraft_altitude_m)
        axyz = ac.xyz(EARTH)

        # exhaustive 1e6-point search over the great-circle arc parameter
        u1 = gxyz / np.linalg.norm(gxyz)
        u2 = axyz / np.linalg.norm(axyz)
        omega = math.acos(float(np.clip(np.dot(u1, u2), -1, 1)))
        t = np.linspace(0.0, 1.0, 1_000_001)
        pts = (
            np.sin((1 - t)[:, None] * omega) * u1[None, :]
            + np.sin(t[:, None] * omega) * u2[None, :]
        ) / math.sin(omega) * EARTH.radius_m
        path = np.linalg.norm(pts - gxyz, axis=1) + np.linalg.norm(pts - axyz, axis=1)
        best = path.min()

        sxyz = _specular(gs, [ac])[0]
        got = np.linalg.norm(sxyz - gxyz) + np.linalg.norm(sxyz - axyz)
        assert abs(got - best) < 1e-3


def test_specular_batch_matches_scalar():
    cfg = ScenarioConfig(k_aircraft=4)
    gs = gs_point(cfg)
    pts = sample_aircraft_positions(cfg, np.random.default_rng(5))
    batch = _specular(gs, pts)
    for p, row in zip(pts, batch):
        single = _specular(gs, [p])[0]
        assert np.linalg.norm(single - row) < 1e-3


def test_specular_points_match_reference_bisection():
    # 2,000 aircraft uniform over the cell at 1-13 km, plus one straight
    # overhead and two on the cell edge
    rng = np.random.default_rng(17)
    cfg = ScenarioConfig()
    gs = gs_point(cfg)
    n = 2_000
    dist = np.r_[0.0, cfg.cell_radius_m, cfg.cell_radius_m, cfg.cell_radius_m * np.sqrt(rng.random(n))]
    az = rng.uniform(0.0, 2.0 * math.pi, size=n + 3)
    alt = np.r_[10_000.0, 1_000.0, 13_000.0, rng.uniform(1_000.0, 13_000.0, size=n)]
    acs = np.array([point_from_local(gs, EARTH, d * math.sin(z), d * math.cos(z), h).xyz(EARTH)
                    for d, z, h in zip(dist, az, alt)])
    got = specular_reflection_points_batch(gs, acs, EARTH)
    ref = ref_specular_points(gs, acs, EARTH)
    assert np.array_equal(got[0], EARTH.radius_m * gs.unit())
    assert np.linalg.norm(got - ref, axis=1).max() < 2e-7
    for spec in (got, ref):
        gap = grazing_angle(spec, gs.xyz(EARTH)[None, :]) - grazing_angle(spec, acs)
        assert np.abs(gap).max() < 1e-10


# ---------------------------------------------------------------------------
# reflector map
# ---------------------------------------------------------------------------

def test_map_coverage_and_hit_rate():
    cfg = ScenarioConfig()
    refl = build_reflector_map(cfg, seed=123)
    disc_area = math.pi * cfg.cell_radius_m**2
    assert refl.area_in_disc_m2 / disc_area == pytest.approx(0.5, abs=0.02)

    # Monte Carlo area oracle: hit rate of uniform points over the cell
    rng = np.random.default_rng(9)
    n = 1_000_000
    r = cfg.cell_radius_m * np.sqrt(rng.random(n))
    az = rng.uniform(0.0, 2.0 * np.pi, n)
    hits = refl.covers_local(r * np.sin(az), r * np.cos(az))
    assert hits.mean() == pytest.approx(cfg.coverage_fraction, abs=0.01)


def test_map_rectangles_do_not_overlap_and_sides_in_range():
    cfg = ScenarioConfig()
    refl = build_reflector_map(cfg, seed=77)
    sides = np.concatenate([refl.rects[:, 2] - refl.rects[:, 0], refl.rects[:, 3] - refl.rects[:, 1]])
    assert sides.min() >= cfg.rectangle_sides.min_m - 1e-9
    assert sides.max() <= cfg.rectangle_sides.max_m + 1e-9
    wavelength = 299_792_458.0 / cfg.carrier_hz
    assert sides.min() >= 10.0 * wavelength

    rng = np.random.default_rng(1)
    pick = rng.choice(len(refl.rects), size=min(1200, len(refl.rects)), replace=False)
    r = refl.rects[pick]
    x0, y0, x1, y1 = r.T
    ox = np.minimum(x1[:, None], x1[None, :]) - np.maximum(x0[:, None], x0[None, :])
    oy = np.minimum(y1[:, None], y1[None, :]) - np.maximum(y0[:, None], y0[None, :])
    overlap = (ox > 1e-9) & (oy > 1e-9)
    overlap[np.diag_indices(len(r))] = False
    assert not overlap.any()


def test_map_deterministic():
    cfg = ScenarioConfig()
    a = build_reflector_map(cfg, seed=5)
    b = build_reflector_map(cfg, seed=5)
    assert np.array_equal(a.rects, b.rects)
    assert a.area_in_disc_m2 == b.area_in_disc_m2


def test_near_zero_coverage_gives_sparse_map():
    cfg = ScenarioConfig(coverage_fraction=0.01)
    refl = build_reflector_map(cfg, seed=3)
    rng = np.random.default_rng(2)
    n = 200_000
    r = cfg.cell_radius_m * np.sqrt(rng.random(n))
    az = rng.uniform(0.0, 2.0 * np.pi, n)
    assert refl.covers_local(r * np.sin(az), r * np.cos(az)).mean() < 0.02


def test_unreachable_coverage_raises():
    with pytest.raises(CoverageError):
        build_reflector_map(ScenarioConfig(coverage_fraction=0.96), seed=1)


def _small_cell(coverage, min_side):
    return ScenarioConfig(
        cell_radius_m=10_000.0, coverage_fraction=coverage,
        rectangle_sides=RectangleSides(min_m=min_side, max_m=2.0 * min_side),
    )


@settings(max_examples=60, deadline=None)
@example(cfg=_small_cell(0.05, 1_400.0), seed=0)  # the first row layout places nothing
@given(
    cfg=st.one_of(
        st.just(ScenarioConfig()),
        st.builds(_small_cell, st.floats(0.05, 0.9), st.floats(800.0, 2_000.0)),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_map_matches_per_row_reference(cfg, seed):
    refl = build_reflector_map(cfg, seed)
    rects, area = ref_build_reflector_map(cfg, seed)
    assert np.array_equal(refl.rects, rects)
    assert refl.area_in_disc_m2 == area


class _LowDraws:
    """Generator stand-in whose uniform draws sit in the bottom tenth of
    their range, so that short widths and gaps leave rows short of the
    square's right edge."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.scalar_calls = self.array_calls = 0

    def random(self, size=None):
        return 0.1 * self.rng.random(size)

    def uniform(self, low, high, size=None):
        if size is None:
            self.scalar_calls += 1
        else:
            self.array_calls += 1
        return low + (high - low) * self.random(size)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fill", [0.2, 0.5, 0.9])
def test_row_extension_matches_reference(seed, fill):
    new, ref = _LowDraws(seed), _LowDraws(seed)
    rects = _lay_rows(new, 10_000.0, 300.0, 3_000.0, fill)
    assert np.array_equal(rects, ref_lay_rows(ref, 10_000.0, 300.0, 3_000.0, fill))
    # a row draws height and offset alone and its widths and gaps as arrays,
    # so more array draws than scalar ones means rows were extended
    assert ref.array_calls > ref.scalar_calls
    assert new.rng.random() == ref.rng.random()  # the same draws consumed


def _covers(refl, cfg, pt):
    """Membership of a ground point, through its projection about the
    station's ground point."""
    xy = local_from_units(gs_point(cfg), EarthModel(cfg.earth_radius_m), pt.unit())
    return bool(refl.covers_local(xy[:, 0], xy[:, 1])[0])


def test_gauss_legendre_rule_is_exact_to_degree_127():
    nodes, weights = _gauss_legendre()
    for j in range(128):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert abs(weights @ nodes**j - exact) <= 1e-13, j
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(64)
    assert np.abs(nodes - ref_nodes).max() <= 1e-15
    assert np.abs(weights / ref_weights - 1.0).max() <= 2e-12


def test_is_reflective_rectangle_center_and_outside():
    cfg = ScenarioConfig()
    refl = build_reflector_map(cfg, seed=21)
    earth = EarthModel(cfg.earth_radius_m)
    x0, y0, x1, y1 = refl.rects[0]
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    inside = point_from_local(gs_point(cfg), earth, cx, cy, 0.0)
    assert _covers(refl, cfg, inside)

    # a point in a gap: scan along x at the first rectangle's y until outside all
    probe_x = np.linspace(-cfg.cell_radius_m, cfg.cell_radius_m, 4001)
    hits = refl.covers_local(probe_x, np.full_like(probe_x, cy))
    assert not hits.all()
    free_x = probe_x[~hits][0]
    outside = point_from_local(gs_point(cfg), earth, float(free_x), cy, 0.0)
    assert not _covers(refl, cfg, outside)


def _edge_probes(rects):
    """Every corner and edge midpoint of every rectangle, and the points one
    floating-point step to either side of each along both axes."""
    x0, y0, x1, y1 = np.asarray(rects, float).reshape(-1, 4).T
    xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
    px = np.concatenate([x0, x1, x0, x1, xm, xm, x0, x1])
    py = np.concatenate([y0, y0, y1, y1, y0, y1, ym, ym])
    xs = [px, np.nextafter(px, -np.inf), np.nextafter(px, np.inf), px, px]
    ys = [py, py, py, np.nextafter(py, -np.inf), np.nextafter(py, np.inf)]
    return np.concatenate(xs), np.concatenate(ys)


def _map_of(rects):
    return ReflectorMap(rects=np.asarray(rects, float).reshape(-1, 4), area_in_disc_m2=0.0)


@st.composite
def band_maps(draw):
    """Rectangles in the row order the map builder emits, on a coarse integer
    grid so that touching rectangles, shared band edges and gaps between
    bands all occur; any rectangle, and so any band, may be missing."""
    rects = []
    y = draw(st.integers(-20, 20))
    for _ in range(draw(st.integers(0, 6))):
        top = y + draw(st.integers(1, 4))
        x = draw(st.integers(-20, 0))
        for _ in range(draw(st.integers(0, 5))):
            x += draw(st.integers(0, 3))  # gap, possibly zero
            right = x + draw(st.integers(1, 4))
            if draw(st.booleans()):
                rects.append((x, y, right, top))
            x = right
        y = top + draw(st.sampled_from([0, 0, 1]))  # usually a shared edge
    return rects


@settings(max_examples=200, deadline=None)
@example(rects=[], probes=[(0, 0), (3, -1)])
@given(
    rects=band_maps(),
    probes=st.lists(
        st.tuples(st.integers(-50, 80), st.integers(-50, 80)), max_size=40
    ),
)
def test_covers_local_matches_brute_force_on_band_maps(rects, probes):
    refl = _map_of(rects)
    ex, ey = _edge_probes(rects)
    half = np.asarray(probes, float).reshape(-1, 2) / 2.0  # on and between grid lines
    x = np.concatenate([ex, half[:, 0]])
    y = np.concatenate([ey, half[:, 1]])
    assert np.array_equal(refl.covers_local(x, y), covers_brute_force(refl.rects, x, y))


@settings(max_examples=20, deadline=None)
@example(seed=0, coverage=0.05, min_side=1_400.0)  # the first row layout places nothing
@given(
    seed=st.integers(0, 2**32 - 1),
    coverage=st.floats(0.05, 0.9),
    min_side=st.floats(800.0, 2_000.0),
)
def test_covers_local_matches_brute_force_on_built_maps(seed, coverage, min_side):
    cfg = ScenarioConfig(
        cell_radius_m=10_000.0, coverage_fraction=coverage,
        rectangle_sides=RectangleSides(min_m=min_side, max_m=2.0 * min_side),
    )
    refl = build_reflector_map(cfg, seed)
    rng = np.random.default_rng(seed)
    ex, ey = _edge_probes(refl.rects)
    x = np.concatenate([ex, rng.uniform(-11_000.0, 11_000.0, 2_000)])
    y = np.concatenate([ey, rng.uniform(-11_000.0, 11_000.0, 2_000)])
    assert np.array_equal(refl.covers_local(x, y), covers_brute_force(refl.rects, x, y))


def test_rectangle_side_bounds_validated():
    with pytest.raises(ConfigError):
        ScenarioConfig(rectangle_sides=RectangleSides(min_m=1.0, max_m=5000.0)).validate()
