"""Air-ground channel: per-element line-of-sight and ground-multipath rays.

Each matrix entry is h = h_LOS + h_GMP with

    h_LOS = a_L * exp(-j 2 pi d_L / lambda),   a_L = lambda / (4 pi d_L)
    h_GMP = rho_v * a_G * exp(-j 2 pi d_G / lambda)

where d_L is the element-to-aircraft distance, d_G the element -> specular
point -> aircraft path, and rho_v the vertical-polarization Fresnel
coefficient of the ground.  The ground path is present only when the
specular point falls inside a reflective rectangle.  Path lengths are exact
per element (spherical wavefront, no plane-wave approximation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, GroundParams, ScenarioConfig
from .geometry import (
    EarthModel,
    GeoPoint,
    ReflectorMap,
    _local_frame,
    grazing_angle,
    gs_point,
    local_from_units,
    specular_reflection_points_batch,
)


@dataclass(frozen=True)
class LinkBudget:
    tx_power_dbm: float = 41.0
    noise_power_dbm: float = -107.0
    carrier_hz: float = 987e6

    @property
    def snr_linear(self) -> float:
        """gamma = P / N0 in linear scale."""
        return 10.0 ** ((self.tx_power_dbm - self.noise_power_dbm) / 10.0)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @classmethod
    def from_config(cls, cfg: ScenarioConfig) -> "LinkBudget":
        return cls(cfg.tx_power_dbm, cfg.noise_power_dbm, cfg.carrier_hz)


def upra_element_positions(m_antennas: int, wavelength_m: float) -> np.ndarray:
    """Offsets (m, 3) of a sqrt(M) x sqrt(M) half-wavelength grid, centered on
    the array reference point, in a local (east, north, up) frame."""
    side = int(round(math.sqrt(m_antennas)))
    if side * side != m_antennas:
        raise ValueError(f"element count must be a perfect square, got {m_antennas}")
    spacing = wavelength_m / 2.0
    coords = (np.arange(side) - (side - 1) / 2.0) * spacing
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel(), np.zeros(m_antennas)])


def vertical_reflection_coefficient(
    grazing_rad: float, ground: GroundParams, carrier_hz: float
) -> complex:
    """Fresnel reflection coefficient for vertical polarization.

    Uses the complex ground permittivity eps = eps_r - j 60 lambda sigma and

        rho_v = (eps sin(psi) - sqrt(eps - cos^2 psi))
                / (eps sin(psi) + sqrt(eps - cos^2 psi))

    with psi the grazing angle.  |rho_v| <= 1 for any passive ground.
    """
    wavelength = SPEED_OF_LIGHT / carrier_hz
    eps = ground.eps_r - 1j * 60.0 * wavelength * ground.sigma_sm
    sin_psi = np.sin(grazing_rad)
    cos2 = np.cos(grazing_rad) ** 2
    root = np.sqrt(eps - cos2)
    return (eps * sin_psi - root) / (eps * sin_psi + root)


@dataclass
class ChannelMatrix:
    """M x K channel with per-entry LOS/GMP decomposition metadata."""

    h: np.ndarray
    h_los: np.ndarray
    h_gmp: np.ndarray
    gmp_present: np.ndarray
    d_los: np.ndarray
    d_gmp: np.ndarray
    rho_v: np.ndarray


def element_positions_xyz(gs: GeoPoint, earth: EarthModel, offsets: np.ndarray) -> np.ndarray:
    """Absolute element positions: offsets applied in the station's local
    (east, north, up) frame."""
    up, east, north = _local_frame(gs)
    basis = np.vstack([east, north, up])
    return gs.xyz(earth)[None, :] + offsets @ basis


def channel_matrix(
    cfg: ScenarioConfig, aircraft: tuple[GeoPoint, ...], refl_map: ReflectorMap
) -> ChannelMatrix:
    """Assemble the M x K channel for one realization.

    The specular point and grazing angle are computed once per aircraft from
    the array reference point; path lengths are per element.
    """
    lam = LinkBudget.from_config(cfg).wavelength_m
    earth = EarthModel(cfg.earth_radius_m)
    gs = gs_point(cfg)
    elems = element_positions_xyz(gs, earth, upra_element_positions(cfg.m_antennas, lam))  # (M, 3)
    acs = np.array([p.xyz(earth) for p in aircraft])  # (K, 3)

    diff = acs[None, :, :] - elems[:, None, :]
    d_los = np.linalg.norm(diff, axis=2)  # (M, K)
    h_los = lam / (4.0 * math.pi * d_los) * np.exp(-2j * math.pi * d_los / lam)

    spec = specular_reflection_points_batch(gs, acs, earth)  # (K, 3)
    # the map's local coordinates are about the station's ground point
    local = local_from_units(gs, earth, spec / np.linalg.norm(spec, axis=1, keepdims=True))
    present = refl_map.covers_local(local[:, 0], local[:, 1])

    psi = grazing_angle(spec, np.array([gs.xyz(earth)] * len(acs)))
    rho = np.where(
        present,
        vertical_reflection_coefficient(psi, cfg.ground, cfg.carrier_hz),
        0.0 + 0.0j,
    )

    d_gmp = np.linalg.norm(spec[None, :, :] - elems[:, None, :], axis=2) + np.linalg.norm(
        acs - spec, axis=1
    )[None, :]
    h_gmp = rho[None, :] * lam / (4.0 * math.pi * d_gmp) * np.exp(-2j * math.pi * d_gmp / lam)
    h_gmp = np.where(present[None, :], h_gmp, 0.0 + 0.0j)

    return ChannelMatrix(
        h=h_los + h_gmp,
        h_los=h_los,
        h_gmp=h_gmp,
        gmp_present=present,
        d_los=d_los,
        d_gmp=d_gmp,
        rho_v=rho,
    )
