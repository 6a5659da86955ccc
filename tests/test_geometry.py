"""Link geometry and budget against independently coded references."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semcom.geometry import (
    LINK_REPORT_CSV_HEADER,
    LinkBudget,
    OrbitGeometry,
    doppler_shift_hz,
    free_space_path_loss_db,
    isl_link_report,
    isl_path_loss,
    large_scale_attenuation_db,
    large_scale_gain_linear,
    link_budget_report,
    orbital_velocity_m_s,
    slant_range,
    total_path_loss,
)

TABLE_BUDGET = LinkBudget(carrier_ghz=28.0)
ZENITH = OrbitGeometry(altitude_km=600.0, elevation_rad=math.pi / 2)


def quadratic_slant_km(altitude_km: float, elevation_rad: float, re_km: float = 6378.0) -> float:
    """Positive root of d^2 + 2 RE sin(th) d - (2 RE rm + rm^2) = 0."""
    roots = np.roots(
        [1.0, 2.0 * re_km * math.sin(elevation_rad), -(2.0 * re_km + altitude_km) * altitude_km]
    )
    return float(roots[roots > 0][0])


class TestSlantRange:
    def test_zenith_equals_altitude(self):
        assert slant_range(ZENITH) == pytest.approx(600.0, abs=1e-9)

    def test_matches_quadratic_root_solver(self):
        for deg in (5.0, 17.0, 30.0, 45.0, 60.0, 89.0):
            geom = OrbitGeometry(600.0, math.radians(deg))
            assert slant_range(geom) == pytest.approx(
                quadratic_slant_km(600.0, geom.elevation_rad), rel=1e-9
            )

    def test_published_form_value_at_zenith(self):
        assert slant_range(ZENITH, mode="verbatim") == pytest.approx(6406.16, abs=0.01)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            slant_range(ZENITH, mode="fancy")

    @given(st.floats(1.0, 89.9), st.floats(200.0, 2000.0))
    def test_positive_and_decreasing_in_elevation(self, deg, alt):
        lo = slant_range(OrbitGeometry(alt, math.radians(deg)))
        hi = slant_range(OrbitGeometry(alt, math.radians(min(deg + 1.0, 90.0))))
        assert 0 < hi <= lo

    def test_elevation_domain(self):
        with pytest.raises(ValueError):
            OrbitGeometry(600.0, 0.0)
        with pytest.raises(ValueError):
            OrbitGeometry(600.0, math.pi / 2 + 0.01)
        with pytest.raises(ValueError):
            OrbitGeometry(-1.0, math.pi / 4)


class TestPathLoss:
    def test_fspl_reference_value(self):
        assert free_space_path_loss_db(600.0, 28.0) == pytest.approx(176.956, abs=1e-3)

    def test_fspl_follows_constant_plus_logs(self):
        for d_km, f in ((600.0, 28.0), (2000.0, 28.0), (550.0, 12.5)):
            expected = 32.45 + 20 * math.log10(f) + 20 * math.log10(d_km * 1e3)
            assert free_space_path_loss_db(d_km, f) == pytest.approx(expected, abs=1e-9)

    def test_fspl_near_physical_definition(self):
        """20 log10(4 pi d f / c); the tabulated constant rounds the same law."""
        c = 299_792_458.0
        physical = 20 * math.log10(4 * math.pi * 600e3 * 28e9 / c)
        assert free_space_path_loss_db(600.0, 28.0) == pytest.approx(physical, abs=0.01)

    def test_total_is_sum_of_parts(self):
        b = total_path_loss(ZENITH, TABLE_BUDGET, shadow_db=1.7)
        assert b.total_db == pytest.approx(
            b.fspl_db + b.shadow_db + b.atmospheric_db + b.scintillation_db, abs=1e-12
        )
        assert b.shadow_db == 1.7
        assert b.total_db == pytest.approx(176.956 + 1.7 + 0.8, abs=1e-3)

    def test_attenuation_and_linear_gain(self):
        zeta = large_scale_attenuation_db(177.756, 35.0)
        assert zeta == pytest.approx(142.756, abs=1e-9)
        assert large_scale_gain_linear(zeta) == pytest.approx(10 ** (-14.2756), rel=1e-9)
        assert large_scale_gain_linear(0.0) == 1.0
        assert large_scale_gain_linear(10.0) == pytest.approx(0.1)


class TestReports:
    def test_ground_report_reference_numbers(self):
        rep = link_budget_report(ZENITH, TABLE_BUDGET)
        assert rep.distance_km == pytest.approx(600.0)
        assert rep.breakdown.fspl_db == pytest.approx(176.956, abs=1e-3)
        assert rep.breakdown.total_db == pytest.approx(177.756, abs=1e-3)
        assert rep.zeta_db == pytest.approx(142.756, abs=1e-3)
        assert rep.zeta_linear == pytest.approx(10 ** (-rep.zeta_db / 10), rel=1e-12)
        assert abs(rep.doppler_hz) < 1e-6

    def test_isl_report_reference_numbers(self):
        rep = isl_link_report(2000.0, TABLE_BUDGET)
        assert rep.breakdown.fspl_db == pytest.approx(187.414, abs=1e-3)
        assert rep.breakdown.total_db == rep.breakdown.fspl_db
        assert rep.breakdown.atmospheric_db == 0.0
        assert rep.breakdown.scintillation_db == 0.0
        assert rep.zeta_db == pytest.approx(187.414 - 35.0, abs=1e-3)
        assert rep.doppler_hz == 0.0

    def test_isl_path_loss_is_vacuum_only(self):
        b = isl_path_loss(2000.0, 28.0)
        assert b.total_db == pytest.approx(free_space_path_loss_db(2000.0, 28.0))

    def test_csv_row_matches_header(self):
        rep = link_budget_report(ZENITH, TABLE_BUDGET)
        row = rep.csv_row().split(",")
        assert len(row) == len(LINK_REPORT_CSV_HEADER.split(","))
        assert float(row[0]) == 600.0
        assert float(row[5]) == pytest.approx(rep.breakdown.total_db)


class TestDoppler:
    def test_orbital_velocity_from_vis_viva(self):
        mu = 3.986004418e14
        expected = math.sqrt(mu / ((6378.0 + 600.0) * 1e3))
        assert orbital_velocity_m_s(600.0) == pytest.approx(expected, rel=1e-4)

    def test_projection_formula(self):
        c = 299_792_458.0
        for deg in (10.0, 30.0, 60.0):
            v = orbital_velocity_m_s(600.0)
            expected = (28e9 / c) * v * (6378.0 / 6978.0) * math.cos(math.radians(deg))
            got = doppler_shift_hz(600.0, math.radians(deg), 28.0)
            assert got == pytest.approx(expected, rel=1e-6)

    def test_reference_magnitude_at_30_degrees(self):
        assert doppler_shift_hz(600.0, math.radians(30.0), 28.0) == pytest.approx(
            558_759.5, abs=1.0
        )

    def test_vanishes_at_zenith(self):
        assert abs(doppler_shift_hz(600.0, math.pi / 2, 28.0)) < 1e-6
