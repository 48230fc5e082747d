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
from dataclasses import dataclass, field

import numpy as np

from .config import GroundParams, ScenarioConfig
from .geometry import (
    ReflectorMap,
    ScenarioGeometry,
    _local_frame,
    grazing_angle,
    local_from_units,
    specular_reflection_points_batch,
)

SPEED_OF_LIGHT = 299_792_458.0


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


@dataclass(frozen=True)
class GroundElectrical:
    relative_permittivity: float = 3.0
    conductivity_sm: float = 1e-4

    @classmethod
    def from_params(cls, ground: GroundParams) -> "GroundElectrical":
        return cls(ground.eps_r, ground.sigma_sm)


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


@dataclass(frozen=True)
class ArrayLayout:
    """Planar array at the station: element offsets in the horizontal plane."""

    m_antennas: int
    spacing_m: float
    element_positions: np.ndarray

    @classmethod
    def upra(cls, m_antennas: int, wavelength_m: float) -> "ArrayLayout":
        return cls(m_antennas, wavelength_m / 2.0, upra_element_positions(m_antennas, wavelength_m))


def vertical_reflection_coefficient(
    grazing_rad: float, ground: GroundElectrical, carrier_hz: float
) -> complex:
    """Fresnel reflection coefficient for vertical polarization.

    Uses the complex ground permittivity eps = eps_r - j 60 lambda sigma and

        rho_v = (eps sin(psi) - sqrt(eps - cos^2 psi))
                / (eps sin(psi) + sqrt(eps - cos^2 psi))

    with psi the grazing angle.  |rho_v| <= 1 for any passive ground.
    """
    wavelength = SPEED_OF_LIGHT / carrier_hz
    eps = ground.relative_permittivity - 1j * 60.0 * wavelength * ground.conductivity_sm
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
    wavelength_m: float
    gmp_present: np.ndarray
    d_los: np.ndarray = field(default=None)
    d_gmp: np.ndarray = field(default=None)
    rho_v: np.ndarray = field(default=None)

    @property
    def m_antennas(self) -> int:
        return self.h.shape[0]

    @property
    def k_aircraft(self) -> int:
        return self.h.shape[1]


def element_positions_xyz(geom: ScenarioGeometry, layout: ArrayLayout) -> np.ndarray:
    """Absolute element positions: offsets applied in the station's local
    (east, north, up) frame."""
    up, east, north = _local_frame(geom.gs)
    basis = np.vstack([east, north, up])
    return geom.gs.xyz(geom.earth)[None, :] + layout.element_positions @ basis


def channel_matrix(
    geom: ScenarioGeometry,
    refl_map: ReflectorMap,
    layout: ArrayLayout,
    ground: GroundElectrical,
    budget: LinkBudget,
) -> ChannelMatrix:
    """Assemble the M x K channel for one realization.

    The specular point and grazing angle are computed once per aircraft from
    the array reference point; path lengths are per element.
    """
    lam = budget.wavelength_m
    earth = geom.earth
    elems = element_positions_xyz(geom, layout)  # (M, 3)
    acs = np.array([p.xyz(earth) for p in geom.aircraft])  # (K, 3)

    diff = acs[None, :, :] - elems[:, None, :]
    d_los = np.linalg.norm(diff, axis=2)  # (M, K)
    h_los = lam / (4.0 * math.pi * d_los) * np.exp(-2j * math.pi * d_los / lam)

    spec = specular_reflection_points_batch(geom.gs, acs, earth)  # (K, 3)
    local = local_from_units(
        refl_map.center, earth, spec / np.linalg.norm(spec, axis=1, keepdims=True)
    )
    present = refl_map.covers_local(local[:, 0], local[:, 1])

    psi = grazing_angle(spec, np.array([geom.gs.xyz(earth)] * len(acs)))
    rho = np.where(
        present,
        vertical_reflection_coefficient(psi, ground, budget.carrier_hz),
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
        wavelength_m=lam,
        gmp_present=present,
        d_los=d_los,
        d_gmp=d_gmp,
        rho_v=rho,
    )

