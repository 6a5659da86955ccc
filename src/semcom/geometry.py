"""LEO orbit geometry and link budget.

Slant range, free-space path loss, a fixed shadowing margin, atmospheric
terms, the combined large-scale gain, and the Doppler shift seen by a ground
terminal. All angles are radians, distances kilometres unless a name says
otherwise.

FSPL uses frequency in GHz and distance in METRES with additive constant
32.45 (kept deliberately, see README model notes). The usual pairing for
32.45 is km/MHz (km/GHz pairs with 92.45), so this convention reads about
60 dB above the km/MHz one at equal inputs. Every derived figure in this
package is self-consistent under it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

EARTH_RADIUS_KM = 6378.0
MU_EARTH_M3_S2 = 3.986004418e14
SPEED_OF_LIGHT_M_S = 299792458.0


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


def slant_range(altitude_km: float, elevation_rad: float) -> float:
    """Terminal-to-satellite distance in km.

    The law-of-cosines form ``sqrt(R^2 sin^2 th + r^2 + 2 R r) - R sin th``,
    which reduces to the altitude at zenith.
    """
    if not altitude_km > 0:  # also false for NaN
        raise ValueError(f"altitude must be positive, got {altitude_km}")
    r_e = EARTH_RADIUS_KM
    r_m = altitude_km
    sin_th = math.sin(elevation_rad)
    return math.sqrt(r_e**2 * sin_th**2 + r_m**2 + 2.0 * r_e * r_m) - r_e * sin_th


def free_space_path_loss_db(distance_km: float, carrier_ghz: float) -> float:
    """FSPL in dB, frequency in GHz and distance converted to metres.

    ``32.45 + 20 log10(f_GHz) + 20 log10(d_m)``. Strictly increasing in both
    arguments; doubling the distance adds 20 log10(2) ~ 6.0206 dB.
    """
    if not distance_km > 0:  # also false for NaN
        raise ValueError(f"distance must be positive, got {distance_km}")
    if not carrier_ghz > 0:
        raise ValueError(f"carrier must be positive, got {carrier_ghz}")
    distance_m = distance_km * 1e3
    return 32.45 + 20.0 * math.log10(carrier_ghz) + 20.0 * math.log10(distance_m)


def orbital_velocity_m_s(altitude_km: float) -> float:
    """Circular-orbit speed sqrt(mu / (R + r)), metres per second."""
    if not altitude_km > 0:  # also false for NaN
        raise ValueError(f"altitude must be positive, got {altitude_km}")
    radius_m = (EARTH_RADIUS_KM + altitude_km) * 1e3
    return math.sqrt(MU_EARTH_M3_S2 / radius_m)


def doppler_shift_hz(altitude_km: float, elevation_rad: float, carrier_ghz: float) -> float:
    """Doppler shift for a circular-orbit pass, Hz.

    Radial projection of the orbital velocity for a terminal at elevation
    ``th``: ``f_d = (f_c / c) * v_orb * (R / (R + r)) * cos th``. Zero at
    zenith, magnitude strictly below ``f_c * v_orb / c`` everywhere.
    """
    if not 0.0 < elevation_rad <= math.pi / 2:
        raise ValueError(f"elevation must lie in (0, pi/2], got {elevation_rad}")
    if not carrier_ghz > 0:  # also false for NaN
        raise ValueError(f"carrier must be positive, got {carrier_ghz}")
    v_orb = orbital_velocity_m_s(altitude_km)
    projection = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + altitude_km)
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

    def figures(self) -> tuple[float, ...]:
        """The CSV cells, in header order, as floats also where a caller's ``LinkBudget`` holds ints."""
        b = self.breakdown
        losses = (b.fspl_db, b.shadow_db, b.atmospheric_db, b.scintillation_db, b.total_db)
        return tuple(map(float, (self.distance_km, *losses, self.zeta_db, self.doppler_hz)))

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


@dataclass(frozen=True)
class LinkBudget:
    """The ``[linkbudget]`` settings: one ground link and one inter-satellite link.

    Each check's message starts with its field, which the config loader
    reports as ``linkbudget.<field>``.
    """

    carrier_ghz: float = 28.0
    altitude_km: float = 600.0
    elevation_deg: float = 90.0
    sat_antenna_gain_db: float = 35.0
    atmospheric_loss_db: float = 0.3
    scintillation_loss_db: float = 0.5
    shadow_db: float = 0.0
    isl_distance_km: float = 2000.0

    def __post_init__(self) -> None:
        for name in ("carrier_ghz", "altitude_km", "isl_distance_km"):
            if not getattr(self, name) > 0:  # also false for NaN
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.elevation_deg <= 90.0:
            raise ValueError(f"elevation_deg must lie in (0, 90], got {self.elevation_deg}")
        if not math.radians(self.elevation_deg) > 0:  # a subnormal angle underflows
            raise ValueError(f"elevation_deg must be positive in radians too, got {self.elevation_deg}")
        for f in fields(self):
            if f.name.endswith("_db") and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        try:
            fits = all(math.isfinite(x) for report in self.reports() for x in report.figures())
        except (OverflowError, ValueError):  # 10^(-zeta/10) past the largest float, or a zero slant range
            fits = False
        if not fits:
            # Blame the key whose dB term of zeta is largest in magnitude; a
            # distance counts in metres, as in the FSPL.
            terms = {
                "carrier_ghz": 20.0 * math.log10(self.carrier_ghz),
                "altitude_km": 20.0 * math.log10(self.altitude_km * 1e3),
                "isl_distance_km": 20.0 * math.log10(self.isl_distance_km * 1e3),
                "shadow_db": self.shadow_db,
                "atmospheric_loss_db": self.atmospheric_loss_db,
                "scintillation_loss_db": self.scintillation_loss_db,
                "sat_antenna_gain_db": -self.sat_antenna_gain_db,
            }
            key = max(terms, key=lambda name: abs(terms[name]))
            raise ValueError(
                f"{key} must leave every link-budget figure finite, the large-scale gain "
                f"10^(-zeta/10) included, got {getattr(self, key)}"
            )

    def reports(self) -> tuple[LinkReport, LinkReport]:
        """Ground link report and inter-satellite report.

        Ground: FSPL at the slant range plus shadowing, gas and scintillation,
        with the Doppler shift. Inter-satellite: FSPL only, no shadowing,
        atmosphere or Doppler.
        """
        elevation_rad = math.radians(self.elevation_deg)
        doppler_hz = doppler_shift_hz(self.altitude_km, elevation_rad, self.carrier_ghz)
        losses_db = (self.shadow_db, self.atmospheric_loss_db, self.scintillation_loss_db)
        ground = self._report(slant_range(self.altitude_km, elevation_rad), doppler_hz, losses_db)
        return ground, self._report(self.isl_distance_km, 0.0)

    def _report(
        self, distance_km: float, doppler_hz: float, losses_db: tuple[float, float, float] = (0.0, 0.0, 0.0)
    ) -> LinkReport:
        """FSPL at ``distance_km`` plus ``losses_db`` (shadowing, gas, scintillation).

        Zeta is the total loss less the antenna gain, its linear gain 10^(-zeta/10).
        """
        breakdown = PathLossBreakdown(free_space_path_loss_db(distance_km, self.carrier_ghz), *losses_db)
        zeta_db = breakdown.total_db - self.sat_antenna_gain_db
        return LinkReport(distance_km, breakdown, zeta_db, 10.0 ** (-zeta_db / 10.0), doppler_hz)
