"""LEO orbit geometry and link budget.

Slant range, free-space path loss, a fixed shadowing margin, atmospheric
terms, the combined large-scale gain, and the Doppler shift seen by a ground
terminal. All angles are radians, distances kilometres unless a name says
otherwise.

Conventions in force here (kept deliberately, see README model notes):

* FSPL uses frequency in GHz and distance in METRES with additive constant
  32.45. The usual pairing for 32.45 is km/MHz (km/GHz pairs with 92.45), so
  this convention reads about 60 dB above the km/MHz one at equal inputs.
  Every derived figure in this package is self-consistent under it.
* ``slant_range`` offers two algebraic forms, see its docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_KM = 6378.0
MU_EARTH_M3_S2 = 3.986004418e14
SPEED_OF_LIGHT_M_S = 299792458.0

SLANT_RANGE_MODES = ("corrected", "verbatim")


@dataclass
class OrbitGeometry:
    """Single satellite-terminal geometry snapshot."""

    altitude_km: float
    elevation_rad: float
    earth_radius_km: float = EARTH_RADIUS_KM

    def __post_init__(self) -> None:
        if self.altitude_km <= 0:
            raise ValueError(f"altitude must be positive, got {self.altitude_km}")
        if not 0.0 < self.elevation_rad <= math.pi / 2:
            raise ValueError(
                f"elevation must lie in (0, pi/2], got {self.elevation_rad}"
            )
        if self.earth_radius_km <= 0:
            raise ValueError("earth radius must be positive")


@dataclass
class LinkBudget:
    """Carrier and loss terms for one link."""

    carrier_ghz: float
    sat_antenna_gain_db: float = 35.0
    atmospheric_loss_db: float = 0.3
    scintillation_loss_db: float = 0.5

    def __post_init__(self) -> None:
        if self.carrier_ghz <= 0:
            raise ValueError(f"carrier must be positive, got {self.carrier_ghz}")


@dataclass
class PathLossBreakdown:
    """Additive dB decomposition of the total path loss."""

    fspl_db: float
    shadow_db: float
    atmospheric_db: float
    scintillation_db: float

    @property
    def total_db(self) -> float:
        """The components summed in field order."""
        return self.fspl_db + self.shadow_db + self.atmospheric_db + self.scintillation_db


def slant_range(geom: OrbitGeometry, mode: str = "corrected") -> float:
    """Terminal-to-satellite distance in km.

    Parameters
    ----------
    geom : OrbitGeometry
    mode : str
        ``"corrected"`` (default) evaluates the law-of-cosines form
        ``sqrt(R^2 sin^2 th + r^2 + 2 R r) - R sin th``, which reduces to the
        altitude at zenith. ``"verbatim"`` evaluates the variant
        ``sqrt(R^2 sin^2 th + r^2 + 2 R r - 2 R r sin th)`` with the elevation
        term folded inside the radical; it does not reduce to the altitude at
        zenith and is kept only for cross-checks against systems that use it.
    """
    if mode not in SLANT_RANGE_MODES:
        raise ValueError(f"mode must be one of {SLANT_RANGE_MODES}, got {mode!r}")
    r_e = geom.earth_radius_km
    r_m = geom.altitude_km
    sin_th = math.sin(geom.elevation_rad)
    if mode == "verbatim":
        return math.sqrt(
            r_e**2 * sin_th**2 + r_m**2 + 2.0 * r_e * r_m - 2.0 * r_e * r_m * sin_th
        )
    return math.sqrt(r_e**2 * sin_th**2 + r_m**2 + 2.0 * r_e * r_m) - r_e * sin_th


def free_space_path_loss_db(distance_km: float, carrier_ghz: float) -> float:
    """FSPL in dB, frequency in GHz and distance converted to metres.

    ``32.45 + 20 log10(f_GHz) + 20 log10(d_m)``. Strictly increasing in both
    arguments; doubling the distance adds 20 log10(2) ~ 6.0206 dB.
    """
    if distance_km <= 0:
        raise ValueError(f"distance must be positive, got {distance_km}")
    if carrier_ghz <= 0:
        raise ValueError(f"carrier must be positive, got {carrier_ghz}")
    distance_m = distance_km * 1e3
    return 32.45 + 20.0 * math.log10(carrier_ghz) + 20.0 * math.log10(distance_m)


def total_path_loss(
    geom: OrbitGeometry,
    budget: LinkBudget,
    shadow_db: float = 0.0,
    mode: str = "corrected",
) -> PathLossBreakdown:
    """Ground-link path loss: FSPL + shadowing + gas + scintillation."""
    d_km = slant_range(geom, mode=mode)
    fspl = free_space_path_loss_db(d_km, budget.carrier_ghz)
    return PathLossBreakdown(
        fspl_db=fspl,
        shadow_db=shadow_db,
        atmospheric_db=budget.atmospheric_loss_db,
        scintillation_db=budget.scintillation_loss_db,
    )


def isl_path_loss(distance_km: float, carrier_ghz: float) -> PathLossBreakdown:
    """Inter-satellite link loss: FSPL only, no shadowing or atmosphere."""
    return PathLossBreakdown(
        fspl_db=free_space_path_loss_db(distance_km, carrier_ghz),
        shadow_db=0.0,
        atmospheric_db=0.0,
        scintillation_db=0.0,
    )


def large_scale_attenuation_db(total_loss_db: float, antenna_gain_db: float) -> float:
    """Net attenuation zeta in dB: path loss minus receive antenna gain."""
    return total_loss_db - antenna_gain_db


def large_scale_gain_linear(zeta_db: float) -> float:
    """Linear power gain 10^(-zeta/10); in (0, 1] whenever zeta >= 0."""
    return 10.0 ** (-zeta_db / 10.0)


def orbital_velocity_m_s(altitude_km: float, earth_radius_km: float = EARTH_RADIUS_KM) -> float:
    """Circular-orbit speed sqrt(mu / (R + r)), metres per second."""
    if altitude_km <= 0:
        raise ValueError("altitude must be positive")
    radius_m = (earth_radius_km + altitude_km) * 1e3
    return math.sqrt(MU_EARTH_M3_S2 / radius_m)


def doppler_shift_hz(
    altitude_km: float,
    elevation_rad: float,
    carrier_ghz: float,
    earth_radius_km: float = EARTH_RADIUS_KM,
) -> float:
    """Doppler shift for a circular-orbit pass, Hz.

    Radial projection of the orbital velocity for a terminal at elevation
    ``th``: ``f_d = (f_c / c) * v_orb * (R / (R + r)) * cos th``. Zero at
    zenith, magnitude strictly below ``f_c * v_orb / c`` everywhere.
    """
    if not 0.0 < elevation_rad <= math.pi / 2:
        raise ValueError(f"elevation must lie in (0, pi/2], got {elevation_rad}")
    if carrier_ghz <= 0:
        raise ValueError("carrier must be positive")
    v_orb = orbital_velocity_m_s(altitude_km, earth_radius_km)
    projection = earth_radius_km / (earth_radius_km + altitude_km)
    return (
        (carrier_ghz * 1e9 / SPEED_OF_LIGHT_M_S)
        * v_orb
        * projection
        * math.cos(elevation_rad)
    )


LINK_REPORT_CSV_HEADER = "d_km,fspl_db,sf_db,gas_db,scint_db,total_db,zeta_db,doppler_hz"


@dataclass
class LinkReport:
    """One evaluated link budget, printable and CSV-serializable."""

    distance_km: float
    breakdown: PathLossBreakdown
    zeta_db: float
    zeta_linear: float
    doppler_hz: float

    def csv_row(self) -> str:
        b = self.breakdown
        cells = (
            self.distance_km,
            b.fspl_db,
            b.shadow_db,
            b.atmospheric_db,
            b.scintillation_db,
            b.total_db,
            self.zeta_db,
            self.doppler_hz,
        )
        return ",".join(repr(float(c)) for c in cells)

    def as_text(self) -> str:
        b = self.breakdown
        rows = [
            ("slant range", self.distance_km, "km"),
            ("free-space path loss", b.fspl_db, "dB"),
            ("shadow fading", b.shadow_db, "dB"),
            ("atmospheric loss", b.atmospheric_db, "dB"),
            ("scintillation loss", b.scintillation_db, "dB"),
            ("total path loss", b.total_db, "dB"),
            ("large-scale attenuation", self.zeta_db, "dB"),
            ("large-scale gain", self.zeta_linear, ""),
            ("doppler shift", self.doppler_hz, "Hz"),
        ]
        width = max(len(name) for name, _, _ in rows)
        lines = []
        for name, value, unit in rows:
            if unit == "":
                lines.append(f"{name:<{width}}  {value:.6e}")
            else:
                lines.append(f"{name:<{width}}  {value:12.3f} {unit}")
        return "\n".join(lines)


def link_budget_report(
    geom: OrbitGeometry,
    budget: LinkBudget,
    shadow_db: float = 0.0,
    mode: str = "corrected",
) -> LinkReport:
    """Evaluate the ground-link budget at one geometry."""
    d_km = slant_range(geom, mode=mode)
    breakdown = total_path_loss(geom, budget, shadow_db=shadow_db, mode=mode)
    zeta_db = large_scale_attenuation_db(breakdown.total_db, budget.sat_antenna_gain_db)
    return LinkReport(
        distance_km=d_km,
        breakdown=breakdown,
        zeta_db=zeta_db,
        zeta_linear=large_scale_gain_linear(zeta_db),
        doppler_hz=doppler_shift_hz(
            geom.altitude_km, geom.elevation_rad, budget.carrier_ghz, geom.earth_radius_km
        ),
    )


def isl_link_report(distance_km: float, budget: LinkBudget) -> LinkReport:
    """Evaluate the inter-satellite budget at one separation."""
    breakdown = isl_path_loss(distance_km, budget.carrier_ghz)
    zeta_db = large_scale_attenuation_db(breakdown.total_db, budget.sat_antenna_gain_db)
    return LinkReport(
        distance_km=distance_km,
        breakdown=breakdown,
        zeta_db=zeta_db,
        zeta_linear=large_scale_gain_linear(zeta_db),
        doppler_hz=0.0,
    )
