"""LEO orbit geometry and the link-budget record.

Slant range, free-space path loss, orbital speed and the Doppler shift seen
by a ground terminal, each checking its own arguments, and
:class:`LinkReport`, one evaluated link budget whose fields are its CSV
cells. The ``[linkbudget]`` settings that evaluate it are
``config.LinkBudget``, so this module imports nothing from semcom. All angles
are radians, distances kilometres unless a name says otherwise.

FSPL uses frequency in GHz and distance in METRES with additive constant
32.45 (kept deliberately, see README model notes). The usual pairing for
32.45 is km/MHz (km/GHz pairs with 92.45), so this convention reads about
60 dB above the km/MHz one at equal inputs. Every derived figure in this
package is self-consistent under it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

EARTH_RADIUS_KM = 6378.0
MU_EARTH_M3_S2 = 3.986004418e14
SPEED_OF_LIGHT_M_S = 299792458.0


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


class LinkReport(NamedTuple):
    """One evaluated link budget; its fields are the CSV cells, in header order.

    ``total_db`` sums the four losses before it, and ``zeta_db`` is the total less the antenna gain.
    """

    distance_km: float
    fspl_db: float
    shadow_db: float
    atmospheric_db: float
    scintillation_db: float
    total_db: float
    zeta_db: float
    doppler_hz: float

    @property
    def zeta_linear(self) -> float:
        """The large-scale gain 10^(-zeta/10)."""
        return 10.0 ** (-self.zeta_db / 10.0)

    def as_text(self) -> str:
        rows = [
            ("slant range", self.distance_km, "km"),
            ("free-space path loss", self.fspl_db, "dB"),
            ("shadow fading", self.shadow_db, "dB"),
            ("atmospheric loss", self.atmospheric_db, "dB"),
            ("scintillation loss", self.scintillation_db, "dB"),
            ("total path loss", self.total_db, "dB"),
            ("large-scale attenuation", self.zeta_db, "dB"),
            ("large-scale gain", self.zeta_linear, ""),
            ("doppler shift", self.doppler_hz, "Hz"),
        ]
        width = max(len(name) for name, _, _ in rows)
        cells = [(name, f"{value:12.3f} {unit}" if unit else f"{value:.6e}") for name, value, unit in rows]
        return "\n".join(f"{name:<{width}}  {cell}" for name, cell in cells)
