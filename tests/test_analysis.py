import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindiff.analysis import (
    EmergenceCriterion,
    GrayZone,
    InsufficientDataError,
    emergence_time,
    power_law_fit,
)


class TestEmergenceTime:
    def test_exponential_crossing_matches_analytic_inversion(self):
        # v(tau) = v_inf + (v0 - v_inf) e^(-r tau); threshold crossing solvable
        v0, v_inf, r = 1e-4, 1.0, 2.0
        taus = np.geomspace(1e-6, 50, 64)
        vals = v_inf + (v0 - v_inf) * np.exp(-r * taus)
        for kind in ("geometric", "harmonic"):
            crit = EmergenceCriterion(kind)
            theta = crit.threshold(v0, v_inf)
            exact = -np.log((theta - v_inf) / (v0 - v_inf)) / r
            est = emergence_time(taus, vals, v0, v_inf, crit)
            assert abs(est - exact) / exact < 0.01

    def test_degenerate_levels_return_nan(self):
        taus = np.array([0.1, 1.0])
        assert np.isnan(emergence_time(taus, np.array([1.0, 1.0]), 1.0, 1.0, EmergenceCriterion()))

    def test_never_crossed_returns_nan(self):
        taus = np.geomspace(0.1, 1, 8)
        vals = np.full(8, 1e-3)
        assert np.isnan(emergence_time(taus, vals, 1e-3, 1.0, EmergenceCriterion()))

    @pytest.mark.parametrize("kind", ["geometric", "harmonic"])
    @pytest.mark.parametrize("start", [1e-3, 0.0], ids=["geomspace", "from-zero"])
    def test_one_call_on_modes_matches_a_call_per_mode(self, kind, start):
        """Rising and decaying rows, one never crossing, one crossed at grid[0],
        one with v0 == v_inf, and a per-mode v0, in one call and row by row."""
        taus = np.concatenate([[start], np.geomspace(2e-3, 1e3, 40)])
        rates = np.geomspace(1e-3, 1e2, 12)[:, None]
        v0 = np.geomspace(1e-3, 1e3, 12)
        v_inf = np.where(np.arange(12) % 2, 1e-2, 1e2)  # rising and decaying rows
        values = v_inf[:, None] + (v0 - v_inf)[:, None] * np.exp(-rates * taus)
        values[3] = v0[3]  # never crosses
        values[4, 0] = v_inf[4]  # crossed at grid[0]
        v_inf[5] = v0[5]  # degenerate
        values[7, 1] = -1.0  # a decaying row crossed at a nonpositive value: linear interpolation
        crit = EmergenceCriterion(kind)
        got = emergence_time(taus, values, v0, v_inf, crit)
        rows = np.array([emergence_time(taus, values[k], v0[k], v_inf[k], crit) for k in range(12)])
        assert got.shape == (12,)
        assert np.array_equal(got, rows, equal_nan=True)
        assert np.isnan(got[[3, 5]]).all() and np.isfinite(np.delete(got, [3, 5])).all()
        assert got[4] == taus[0]
        assert taus[0] < got[7] < taus[1]
        assert np.array_equal(emergence_time(taus, values[None], v0, v_inf, crit), got[None], equal_nan=True)

    def test_decreasing_trajectories_supported(self):
        taus = np.geomspace(1e-2, 10, 128)
        vals = 0.1 + (2.0 - 0.1) * np.exp(-taus)
        crit = EmergenceCriterion("geometric")
        est = emergence_time(taus, vals, 2.0, 0.1, crit)
        theta = np.sqrt(0.2)
        exact = -np.log((theta - 0.1) / 1.9)
        assert abs(est - exact) / exact < 0.01

    def test_first_passage_of_multi_crossing_series(self):
        taus = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        vals = np.array([0.1, 0.9, 0.1, 0.9, 0.9])
        est = emergence_time(taus, vals, 0.1, 1.0, EmergenceCriterion("geometric"))
        assert 1.0 <= est <= 2.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1e-6, 1e6))
    def test_scale_invariance(self, c):
        taus = np.geomspace(1e-2, 10, 40)
        vals = 1.0 + (1e-3 - 1.0) * np.exp(-taus)
        crit = EmergenceCriterion("harmonic")
        base = emergence_time(taus, vals, 1e-3, 1.0, crit)
        scaled = emergence_time(taus, c * vals, c * 1e-3, c * 1.0, crit)
        assert abs(scaled - base) <= 1e-12 * base

    def test_already_crossed_returns_first_grid_point(self):
        taus = np.array([0.5, 1.0, 2.0])
        vals = np.array([0.9, 0.95, 1.0])
        est = emergence_time(taus, vals, 1e-3, 1.0, EmergenceCriterion("geometric"))
        assert est == 0.5


class TestPowerLawFit:
    def test_exact_inverse_law_recovery(self):
        lams = np.geomspace(1e-3, 10, 20)
        for alpha0 in (0.5, 1.0, 2.0):
            taus = 3.7 * lams**(-alpha0)
            fits = power_law_fit(lams, taus, GrayZone(), np.full(20, 1e-6), np.ones(20))
            fit = fits["increasing"]
            assert abs(fit.alpha - alpha0) < 1e-10
            assert fit.r_squared > 1 - 1e-12
            assert fit.n_used == 20

    def test_gray_zone_exclusion_and_branches(self):
        lams = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 0.125])
        taus = 1.0 / lams
        v0s = np.array([0.1, 0.1, 0.9, 1.5, 10.0, 20.0])  # middle two in gray zone
        targets = np.ones(6)
        fits = power_law_fit(lams, taus, GrayZone(), v0s, targets)
        assert fits["increasing"].n_used == 2
        assert fits["decreasing"].n_used == 2

    def test_all_in_gray_zone_raises(self):
        lams = np.array([1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            power_law_fit(lams, [1.0, 0.5], GrayZone(), np.array([1.0, 1.0]), np.array([1.0, 1.0]))

    def test_single_survivor_names_branch(self):
        lams = np.array([1.0, 2.0, 4.0])
        v0s = np.array([0.1, 1.0, 1.0])  # only the first survives, increasing
        with pytest.raises(InsufficientDataError, match="increasing"):
            power_law_fit(lams, [1.0, 0.5, 0.25], GrayZone(), v0s, np.ones(3))

    def test_missing_crossings_dropped(self):
        lams = np.geomspace(0.1, 10, 8)
        taus = list(1.0 / lams)
        taus[3] = None
        fits = power_law_fit(lams, taus, GrayZone(), np.full(8, 1e-3), np.ones(8))
        assert fits["increasing"].n_used == 7

    def test_gray_zone_excludes_arrays(self):
        gz = GrayZone()
        v0 = np.array([0.1, 0.5, 1.0, 2.0, 2.5])
        assert gz.excludes(v0, 1.0).tolist() == [False, True, True, True, False]
        assert gz.excludes(1.0, 1.0 / v0).tolist() == [False, True, True, True, False]
        assert gz.excludes(v0[:, None], v0).shape == (5, 5)
        assert gz.excludes(1.0, 0.5) and not gz.excludes(1.0, 0.4)

    def test_scalar_v0_and_nan_crossings(self):
        lams = np.geomspace(0.1, 10, 8)
        taus = 1.0 / lams
        taus[3] = np.nan
        fits = power_law_fit(lams, taus, GrayZone(), 1e-3, np.ones(8))
        assert fits["increasing"].n_used == 7

    def test_gray_zone_validation(self):
        with pytest.raises(ValueError):
            GrayZone(lower=1.5)
        with pytest.raises(ValueError):
            GrayZone(upper=0.9)
