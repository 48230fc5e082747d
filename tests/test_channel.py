import math

import numpy as np
import pytest

from helpers import gmp_channel, los_channel
from noma_outage.channel import (
    SPEED_OF_LIGHT,
    LinkBudget,
    channel_matrix,
    element_positions_xyz,
    upra_element_positions,
    vertical_reflection_coefficient,
)
from noma_outage.config import GroundParams, ScenarioConfig
from noma_outage.geometry import (
    EarthModel,
    build_reflector_map,
    grazing_angle,
    gs_point,
    scenario_geometry,
    specular_reflection_points_batch,
)
from noma_outage.montecarlo import build_trial_channel, build_trial_geometry

BUDGET = LinkBudget()
LAM = BUDGET.wavelength_m
GROUND = GroundParams()


# ---------------------------------------------------------------------------
# array layout
# ---------------------------------------------------------------------------

def test_upra_single_element_at_origin():
    pos = upra_element_positions(1, LAM)
    assert pos.shape == (1, 3)
    assert np.allclose(pos, 0.0)


def test_upra_2x2_nearest_neighbor_spacing():
    pos = upra_element_positions(4, LAM)
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    d[np.diag_indices(4)] = np.inf
    assert d.min() == pytest.approx(LAM / 2.0, rel=1e-12)


def test_upra_64_aperture_diagonal():
    pos = upra_element_positions(64, LAM)
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    assert d.max() == pytest.approx(7.0 * (LAM / 2.0) * math.sqrt(2.0), rel=1e-12)
    assert np.allclose(pos.mean(axis=0), 0.0, atol=1e-12)


def test_upra_rejects_non_square():
    with pytest.raises(ValueError):
        upra_element_positions(6, LAM)


# ---------------------------------------------------------------------------
# line of sight
# ---------------------------------------------------------------------------

def test_los_full_cycle_phase_is_real_positive():
    h = los_channel(np.zeros(3), np.array([LAM, 0.0, 0.0]), LAM)
    assert abs(h.imag) < abs(h) * 1e-12
    assert h.real == pytest.approx(LAM / (4.0 * math.pi * LAM), rel=1e-9)


def test_los_amplitude_at_cell_edge():
    d = 222_000.0
    h = los_channel(np.zeros(3), np.array([d, 0.0, 0.0]), LAM)
    assert abs(h) == pytest.approx(LAM / (4.0 * math.pi * d), rel=1e-12)
    assert abs(h) == pytest.approx(1.09e-7, rel=0.01)


def test_los_doubling_distance_halves_amplitude():
    h1 = los_channel(np.zeros(3), np.array([1000.0, 0.0, 0.0]), LAM)
    h2 = los_channel(np.zeros(3), np.array([2000.0, 0.0, 0.0]), LAM)
    assert abs(h2) == pytest.approx(abs(h1) / 2.0, rel=1e-12)


def test_los_rejects_coincident_points():
    with pytest.raises(ValueError):
        los_channel(np.zeros(3), np.zeros(3), LAM)


# ---------------------------------------------------------------------------
# reflection coefficient
# ---------------------------------------------------------------------------

def test_rho_v_grazing_limit_is_minus_one():
    rho = vertical_reflection_coefficient(1e-9, GROUND, BUDGET.carrier_hz)
    assert rho == pytest.approx(-1.0, abs=1e-6)


def test_rho_v_normal_incidence_lossless():
    ground = GroundParams(eps_r=3.0, sigma_sm=0.0)
    rho = vertical_reflection_coefficient(math.pi / 2.0, ground, BUDGET.carrier_hz)
    expected = (math.sqrt(3.0) - 1.0) / (math.sqrt(3.0) + 1.0)
    assert rho.real == pytest.approx(expected, rel=1e-12)
    assert rho.imag == pytest.approx(0.0, abs=1e-15)


def test_rho_v_minimum_at_pseudo_brewster_angle():
    # lossless ground: |rho_v| -> 0 exactly where tan(psi) = 1/sqrt(eps_r)
    ground = GroundParams(eps_r=3.0, sigma_sm=0.0)
    psi = np.linspace(1e-4, math.pi / 2.0, 20001)
    mags = np.abs(
        np.array([vertical_reflection_coefficient(p, ground, BUDGET.carrier_hz) for p in psi])
    )
    psi_min = psi[np.argmin(mags)]
    assert psi_min == pytest.approx(math.atan(1.0 / math.sqrt(3.0)), abs=2e-4)


def test_rho_v_magnitude_bounded_by_one():
    rng = np.random.default_rng(0)
    for _ in range(500):
        psi = rng.uniform(1e-6, math.pi / 2.0)
        ground = GroundParams(rng.uniform(1.0, 30.0), 10.0 ** rng.uniform(-5, 0))
        assert abs(vertical_reflection_coefficient(psi, ground, BUDGET.carrier_hz)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# ground multipath
# ---------------------------------------------------------------------------

def test_gmp_zero_reflection_gives_zero():
    h = gmp_channel(np.zeros(3), np.array([5000.0, 0, 100.0]), np.array([2500.0, 0, 0]), 0.0, LAM)
    assert h == 0.0


def test_gmp_image_method_path_length():
    # symmetric flat geometry: d_G = sqrt(D^2 + 4 h^2)
    h_m, dist = 120.0, 9000.0
    elem = np.array([0.0, 0.0, h_m])
    ac = np.array([dist, 0.0, h_m])
    spec = np.array([dist / 2.0, 0.0, 0.0])
    val = gmp_channel(elem, ac, spec, 1.0 + 0.0j, LAM)
    d_g = LAM / (4.0 * math.pi * abs(val))
    assert d_g == pytest.approx(math.sqrt(dist**2 + 4.0 * h_m**2), rel=1e-12)


def test_two_ray_interference_against_direct_sum():
    # collinear-ish synthetic geometry with controlled path difference
    d_l = 2000.0 * LAM
    elem = np.zeros(3)
    ac = np.array([d_l, 0.0, 0.0])

    def spec_for_path(d_g):
        # point on the ellipse |s-e| + |a-s| = d_g, above the midpoint
        y = math.sqrt((d_g / 2.0) ** 2 - (d_l / 2.0) ** 2)
        return np.array([d_l / 2.0, y, 0.0])

    rho = -1.0 + 0.0j
    h_l = los_channel(elem, ac, LAM)

    # half-wavelength excess: reflection phase and path phase cancel
    spec = spec_for_path(d_l + LAM / 2.0)
    h_g = gmp_channel(elem, ac, spec, rho, LAM)
    combined = abs(h_l + h_g)
    d_g = d_l + LAM / 2.0
    assert combined == pytest.approx(abs(h_l) * (1.0 + abs(rho) * d_l / d_g), rel=1e-9)

    # full-wavelength excess: deep fade
    spec = spec_for_path(d_l + LAM)
    h_g = gmp_channel(elem, ac, spec, rho, LAM)
    combined = abs(h_l + h_g)
    d_g = d_l + LAM
    assert combined == pytest.approx(abs(h_l) * (1.0 - abs(rho) * d_l / d_g), rel=1e-6)


# ---------------------------------------------------------------------------
# full channel matrix
# ---------------------------------------------------------------------------

def _build(cfg, seed=0, map_seed=1):
    aircraft = scenario_geometry(cfg, np.random.default_rng(seed))
    refl = build_reflector_map(cfg, map_seed)
    return aircraft, refl, channel_matrix(cfg, aircraft, refl)


def test_channel_matrix_shape_and_pure_los_columns():
    cfg = ScenarioConfig(k_aircraft=6, m_antennas=4)
    _, _, chan = _build(cfg)
    assert chan.h.shape == (4, 6)
    assert np.isfinite(chan.h).all()
    for k in range(6):
        if not chan.gmp_present[k]:
            assert np.array_equal(chan.h[:, k], chan.h_los[:, k])
            assert np.all(chan.h_gmp[:, k] == 0.0)


def test_channel_single_user_single_antenna_amplitude():
    cfg = ScenarioConfig(k_aircraft=1, m_antennas=1, coverage_fraction=0.001)
    for seed in range(6):
        aircraft, _, chan = _build(cfg, seed=seed, map_seed=seed)
        if chan.gmp_present[0]:
            continue
        earth = EarthModel(cfg.earth_radius_m)
        d = np.linalg.norm(aircraft[0].xyz(earth) - gs_point(cfg).xyz(earth))
        assert abs(chan.h[0, 0]) == pytest.approx(LAM / (4.0 * math.pi * d), rel=1e-9)
        return
    pytest.fail("no line-of-sight-only realization found")


def test_channel_triangle_and_fade_bounds():
    cfg = ScenarioConfig(k_aircraft=16, m_antennas=16)
    _, _, chan = _build(cfg)
    mag = np.abs(chan.h)
    lo = np.abs(chan.h_los)
    go = np.abs(chan.h_gmp)
    assert np.all(mag <= lo + go + 1e-18)
    assert np.all(mag >= lo - go - 1e-18)
    assert np.all(mag / lo <= 2.0)
    present = chan.gmp_present
    assert np.all(chan.d_gmp[:, present] > chan.d_los[:, present])
    assert np.all(go[:, present] < lo[:, present])
    assert np.all(np.abs(chan.rho_v) <= 1.0 + 1e-12)


def test_channel_deterministic():
    cfg = ScenarioConfig(k_aircraft=5, m_antennas=9)
    _, _, a = _build(cfg, seed=4, map_seed=9)
    _, _, b = _build(cfg, seed=4, map_seed=9)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.gmp_present, b.gmp_present)


def test_channel_matrix_entries_match_ray_oracles():
    # the scalar ray formulas pin every entry of the vectorized assembly, on
    # columns with the ground path and columns without it
    cfg = ScenarioConfig(k_aircraft=8, m_antennas=4)
    aircraft, _, chan = _build(cfg, seed=2, map_seed=3)
    assert chan.gmp_present.any() and not chan.gmp_present.all()
    earth, gs = EarthModel(cfg.earth_radius_m), gs_point(cfg)
    elems = element_positions_xyz(gs, earth, upra_element_positions(cfg.m_antennas, LAM))
    acs = np.array([p.xyz(earth) for p in aircraft])
    spec = specular_reflection_points_batch(gs, acs, earth)
    for m in range(cfg.m_antennas):
        for k in range(cfg.k_aircraft):
            los = los_channel(elems[m], acs[k], LAM)
            assert abs(chan.h_los[m, k] - los) <= 1e-8 * abs(los)
            if chan.gmp_present[k]:
                gmp = gmp_channel(elems[m], acs[k], spec[k], chan.rho_v[k], LAM)
                assert abs(chan.h_gmp[m, k] - gmp) <= 1e-8 * abs(gmp)
            else:
                assert chan.h_gmp[m, k] == 0.0


def test_wavelength_and_snr_from_budget():
    assert BUDGET.wavelength_m == pytest.approx(SPEED_OF_LIGHT / 987e6, rel=1e-15)
    assert BUDGET.snr_linear == pytest.approx(10.0**14.8, rel=1e-12)


def test_channel_reads_ground_carrier_and_array_from_config():
    # non-default values, so a build that falls back to any default is caught
    cfg = ScenarioConfig(
        k_aircraft=8, m_antennas=9, carrier_hz=1.1e9, ground=GroundParams(eps_r=15.0, sigma_sm=0.01)
    )
    chan = build_trial_channel(cfg, 0)
    assert chan.h.shape == (9, 8)
    assert chan.gmp_present.any()

    lam = SPEED_OF_LIGHT / cfg.carrier_hz
    earth, gs = EarthModel(cfg.earth_radius_m), gs_point(cfg)
    aircraft, _ = build_trial_geometry(cfg, 0)
    acs = np.array([p.xyz(earth) for p in aircraft])
    spec = specular_reflection_points_batch(gs, acs, earth)
    psi = grazing_angle(spec, gs.xyz(earth)[None, :])
    for k in np.flatnonzero(chan.gmp_present):
        rho = vertical_reflection_coefficient(psi[k], cfg.ground, cfg.carrier_hz)
        assert chan.rho_v[k] == pytest.approx(rho, rel=1e-12)
        assert abs(rho - vertical_reflection_coefficient(psi[k], GroundParams(), cfg.carrier_hz)) > 1e-3

    elems = element_positions_xyz(gs, earth, upra_element_positions(9, lam))
    for m in range(9):
        for k in range(8):
            los = los_channel(elems[m], acs[k], lam)
            assert abs(chan.h_los[m, k] - los) <= 1e-8 * abs(los)
