"""Link geometry and budget against independently coded references."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semcom.config import LinkBudget
from semcom.geometry import (
    LINK_REPORT_CSV_HEADER,
    LinkReport,
    doppler_shift_hz,
    free_space_path_loss_db,
    orbital_velocity_m_s,
    slant_range,
)
from semcom.tables import csv_text

from conftest import LINK_BUDGETS

TABLE_BUDGET = LinkBudget(carrier_ghz=28.0, altitude_km=600.0, elevation_deg=90.0, isl_distance_km=2000.0)


def quadratic_slant_km(altitude_km: float, elevation_rad: float, re_km: float = 6378.0) -> float:
    """Positive root of d^2 + 2 RE sin(th) d - (2 RE rm + rm^2) = 0."""
    roots = np.roots(
        [1.0, 2.0 * re_km * math.sin(elevation_rad), -(2.0 * re_km + altitude_km) * altitude_km]
    )
    return float(roots[roots > 0][0])


class TestSlantRange:
    def test_zenith_equals_altitude(self):
        assert slant_range(600.0, math.pi / 2) == pytest.approx(600.0, abs=1e-9)

    def test_matches_quadratic_root_solver(self):
        for deg in (5.0, 17.0, 30.0, 45.0, 60.0, 89.0):
            assert slant_range(600.0, math.radians(deg)) == pytest.approx(
                quadratic_slant_km(600.0, math.radians(deg)), rel=1e-9
            )

    @given(st.floats(1.0, 89.9), st.floats(200.0, 2000.0))
    def test_positive_and_decreasing_in_elevation(self, deg, alt):
        lo = slant_range(alt, math.radians(deg))
        hi = slant_range(alt, math.radians(min(deg + 1.0, 90.0)))
        assert 0 < hi <= lo

    def test_elevation_domain(self):
        with pytest.raises(ValueError, match="^elevation_deg "):
            LinkBudget(elevation_deg=0.0)
        with pytest.raises(ValueError, match="^elevation_deg "):
            LinkBudget(elevation_deg=90.5)
        with pytest.raises(ValueError, match="^altitude_km "):
            LinkBudget(altitude_km=-1.0, elevation_deg=45.0)

    @pytest.mark.parametrize("altitude_km", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_and_nan_altitude(self, altitude_km):
        with pytest.raises(ValueError, match=f"^altitude must be positive, got {altitude_km}$"):
            slant_range(altitude_km, 0.5)


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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_and_nan_arguments(self, bad):
        with pytest.raises(ValueError, match=f"^distance must be positive, got {bad}$"):
            free_space_path_loss_db(bad, 28.0)
        with pytest.raises(ValueError, match=f"^carrier must be positive, got {bad}$"):
            free_space_path_loss_db(600.0, bad)

    def test_total_is_sum_of_parts(self):
        b = dataclasses.replace(TABLE_BUDGET, shadow_db=1.7).reports()[0]
        assert b.total_db == pytest.approx(
            b.fspl_db + b.shadow_db + b.atmospheric_db + b.scintillation_db, abs=1e-12
        )
        assert b.shadow_db == 1.7
        assert b.total_db == pytest.approx(176.956 + 1.7 + 0.8, abs=1e-3)

    def test_ground_fspl_is_taken_at_the_slant_range(self):
        rep, _ = dataclasses.replace(TABLE_BUDGET, elevation_deg=30.0, shadow_db=1.7).reports()
        slant_km = slant_range(600.0, math.radians(30.0))
        assert rep.distance_km == slant_km
        assert rep.fspl_db == free_space_path_loss_db(slant_km, 28.0)
        assert (rep.atmospheric_db, rep.scintillation_db) == (0.3, 0.5)

    def test_attenuation_and_linear_gain(self):
        shadowed = dataclasses.replace(TABLE_BUDGET, shadow_db=1.7)
        rep, _ = shadowed.reports()
        assert rep.zeta_db == rep.total_db - 35.0
        assert rep.zeta_db == pytest.approx(144.456, abs=1e-3)
        assert rep.zeta_linear == pytest.approx(10 ** (-rep.zeta_db / 10), rel=1e-12)
        total = rep.total_db
        unity, _ = dataclasses.replace(shadowed, sat_antenna_gain_db=total).reports()
        assert unity.zeta_db == 0.0
        assert unity.zeta_linear == 1.0
        tenth, _ = dataclasses.replace(shadowed, sat_antenna_gain_db=total - 10.0).reports()
        assert tenth.zeta_linear == pytest.approx(0.1)


class TestReports:
    def test_ground_report_reference_numbers(self):
        rep, _ = TABLE_BUDGET.reports()
        assert rep.distance_km == pytest.approx(600.0)
        assert rep.fspl_db == pytest.approx(176.956, abs=1e-3)
        assert rep.total_db == pytest.approx(177.756, abs=1e-3)
        assert rep.zeta_db == pytest.approx(142.756, abs=1e-3)
        assert rep.zeta_linear == pytest.approx(10 ** (-rep.zeta_db / 10), rel=1e-12)
        assert abs(rep.doppler_hz) < 1e-6

    def test_isl_report_reference_numbers(self):
        _, rep = TABLE_BUDGET.reports()
        assert rep.fspl_db == pytest.approx(187.414, abs=1e-3)
        assert rep.total_db == rep.fspl_db
        assert rep.atmospheric_db == 0.0
        assert rep.scintillation_db == 0.0
        assert rep.zeta_db == pytest.approx(187.414 - 35.0, abs=1e-3)
        assert rep.doppler_hz == 0.0

    def test_isl_path_loss_is_vacuum_only(self):
        b = dataclasses.replace(TABLE_BUDGET, shadow_db=1.7).reports()[1]
        assert (b.shadow_db, b.atmospheric_db, b.scintillation_db) == (0.0, 0.0, 0.0)
        assert b.total_db == pytest.approx(free_space_path_loss_db(2000.0, 28.0))

    def test_fields_are_the_csv_columns(self):
        assert dict(zip(LINK_REPORT_CSV_HEADER.split(","), LinkReport._fields, strict=True)) == {
            "d_km": "distance_km",
            "fspl_db": "fspl_db",
            "sf_db": "shadow_db",
            "gas_db": "atmospheric_db",
            "scint_db": "scintillation_db",
            "total_db": "total_db",
            "zeta_db": "zeta_db",
            "doppler_hz": "doppler_hz",
        }

    @given(LINK_BUDGETS)
    @example(TABLE_BUDGET)
    def test_csv_row_matches_header(self, budget):
        """Every cell is a float field written so that it parses back exactly."""
        for rep in budget.reports():
            header, row = csv_text(LINK_REPORT_CSV_HEADER, [rep]).splitlines()
            assert header == LINK_REPORT_CSV_HEADER
            assert all(type(x) is float for x in rep)
            assert [float(cell) for cell in row.split(",")] == list(rep)


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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_and_nan_arguments(self, bad):
        with pytest.raises(ValueError, match=f"^altitude must be positive, got {bad}$"):
            orbital_velocity_m_s(bad)
        with pytest.raises(ValueError, match=f"^altitude must be positive, got {bad}$"):
            doppler_shift_hz(bad, 0.5, 28.0)
        with pytest.raises(ValueError, match=f"^carrier must be positive, got {bad}$"):
            doppler_shift_hz(600.0, 0.5, bad)
