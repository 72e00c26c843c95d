import numpy as np
import pytest

from esdsim import (
    ModelParams,
    build_thermal,
    dwell_fraction,
    observable_columns,
    scan_esd,
    two_qubit_states,
)
from esdsim import events
from esdsim.cli import preset_config
from esdsim.dynamics import SectorTable
from esdsim.events import EsdInterval
from esdsim.observables import separability


def lambda_at(params, field, t):
    """Lambda at one time, from a one-point series."""
    return separability(two_qubit_states(params, field, [t]))[0]


def reference_scan(params, field, t0, t1, n_grid):
    """scan_esd one bracket at a time, one single-time state per bisection step.

    Each bisection runs until its bracket is at most 4 ulp wide, so it
    locates the true crossing rather than any point of the |Lambda| <= 1e-9 band.
    """
    def bisect(t_lo, t_hi, f_lo):
        while t_hi - t_lo > 4 * np.spacing(t_hi):
            t_mid = 0.5 * (t_lo + t_hi)
            f_mid = lambda_at(params, field, t_mid)
            if (f_lo < 0) == (f_mid < 0):
                t_lo, f_lo = t_mid, f_mid
            else:
                t_hi = t_mid
        return 0.5 * (t_lo + t_hi)

    times = np.linspace(t0, t1, n_grid)
    lam = separability(two_qubit_states(params, field, times)).tolist()
    intervals, i = [], 0
    while i < n_grid:
        if lam[i] >= 0:
            i += 1
            continue
        j = i
        while j + 1 < n_grid and lam[j + 1] < 0:
            j += 1
        t_death = t0 if i == 0 else bisect(times[i - 1], times[i], lam[i - 1])
        t_birth = t1 if j == n_grid - 1 else bisect(times[j], times[j + 1], lam[j])
        if params.lam * (t_birth - t_death) >= 1e-9 and min(lam[i : j + 1]) < -1e-12:
            intervals.append((t_death, t_birth))
        i = j + 1
    return intervals


class TestScanEsd:
    def test_isolated_pair_has_no_deaths(self):
        p = ModelParams(lam=10.0, k=0.0)
        f = build_thermal(0.0)
        assert scan_esd(p, f, 0.0, 2.0, 4000) == []

    def test_strong_coupling_small_nbar(self):
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(1.0)
        intervals = scan_esd(p, f, 0.0, 2.0, 4000)
        assert len(intervals) >= 3
        # births follow deaths inside the window
        assert any(not iv.open_right for iv in intervals)

    def test_weak_coupling_hot_field(self):
        p = ModelParams(lam=10.0, k=0.1)
        f = build_thermal(10.0)
        intervals = scan_esd(p, f, 0.0, 4.0, 8000)
        assert len(intervals) >= 1

    def test_interval_structure(self):
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(1.0)
        for iv in scan_esd(p, f, 0.0, 2.0, 4000):
            assert iv.t_death < iv.t_birth
            assert iv.min_lambda < 0
            if iv.refined:
                assert abs(lambda_at(p, f, iv.t_death)) <= 1e-9
                assert abs(lambda_at(p, f, iv.t_birth)) <= 1e-9

    def test_interior_concurrence_is_zero(self):
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(1.0)
        intervals = scan_esd(p, f, 0.0, 1.0, 4000)
        assert intervals
        for iv in intervals:
            pad = 1e-7 * iv.width
            interior = np.linspace(iv.t_death + pad, iv.t_birth - pad, 100)
            conc = observable_columns(two_qubit_states(p, f, interior))["concurrence"]
            assert np.all(conc == 0.0)

    def test_crossings_stable_under_grid_refinement(self):
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(1.0)
        coarse = scan_esd(p, f, 0.0, 1.0, 4000)
        fine = scan_esd(p, f, 0.0, 1.0, 8000)
        assert len(coarse) == len(fine)
        for a, b in zip(coarse, fine):
            assert abs(a.t_death - b.t_death) < 1e-7
            assert abs(a.t_birth - b.t_birth) < 1e-7

    def test_no_grazing_intervals(self):
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(10.0)
        for iv in scan_esd(p, f, 0.0, 2.0, 4000):
            assert iv.min_lambda < -1e-12

    @pytest.mark.parametrize("k", [0.1, 0.5])
    @pytest.mark.parametrize("nbar", [1.0, 10.0])
    def test_matches_scalar_reference(self, k, nbar):
        p = ModelParams(lam=10.0, k=k)
        f = build_thermal(nbar)
        got = scan_esd(p, f, 0.0, 2.0, 4000)
        want = reference_scan(p, f, 0.0, 2.0, 4000)
        assert len(got) == len(want)
        for iv, (t_death, t_birth) in zip(got, want):
            assert abs(iv.t_death - t_death) <= 1e-9
            assert abs(iv.t_birth - t_birth) <= 1e-9

    def test_unconverged_brackets_are_not_refined(self, monkeypatch):
        # the secant start closes every bracket here within 2 steps
        monkeypatch.setattr(events, "_MAX_BISECT", 1)
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(1.0)
        intervals = scan_esd(p, f, 0.0, 2.0, 4000)
        assert any(not (iv.open_left or iv.open_right) for iv in intervals)
        assert not any(iv.refined for iv in intervals)

    def test_newton_evaluations_per_endpoint(self, monkeypatch):
        brackets, evals = [], []
        refine, evaluate = events._refine_crossings, SectorTable.series_and_slope
        monkeypatch.setattr(events, "_refine_crossings",
                            lambda table, t_lo, *a: brackets.append(t_lo.size)
                            or refine(table, t_lo, *a))
        monkeypatch.setattr(SectorTable, "series_and_slope",
                            lambda self, t: evals.append(np.size(t)) or evaluate(self, t))
        cfg = preset_config("fig2f")
        intervals = scan_esd(cfg.params(), build_thermal(cfg.nbar, cfg.epsilon),
                             cfg.t0, cfg.t1, cfg.steps)
        assert all(iv.refined for iv in intervals if not (iv.open_left or iv.open_right))
        assert sum(brackets) > 100
        assert sum(evals) <= 6 * sum(brackets)
        # starting at the secant point of the grid's Lambda: ~2.9 (3.7 from the midpoint)
        assert sum(evals) <= 3.2 * sum(brackets)

    def test_isolated_pair_makes_no_refinement_call(self, monkeypatch):
        def fail(self, t):
            raise AssertionError("refinement evaluated")
        monkeypatch.setattr(SectorTable, "series_and_slope", fail)
        assert scan_esd(ModelParams(lam=10.0, k=0.0), build_thermal(1.0), 0.0, 2.0, 4000) == []

    def test_width_floor_is_in_lam_t(self):
        # the intervals are ~0.3 to 1.5 wide in lam t; at lam = 1e9 a floor
        # of 1e-9 in t dropped the two that are ~3.3e-10 wide there
        f = build_thermal(1.0)
        unit = scan_esd(ModelParams(lam=1.0, k=0.5), f, 0.0, 6.0, 200)
        fast = scan_esd(ModelParams(lam=1e9, k=0.5), f, 0.0, 6e-9, 200)
        assert len(unit) == len(fast) == 3
        ends = lambda ivs: np.array([(iv.t_death, iv.t_birth) for iv in ivs])  # noqa: E731
        np.testing.assert_allclose(1e9 * ends(fast), ends(unit), rtol=0, atol=1e-14)

    def test_negative_at_both_window_ends(self):
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(1.0)
        closed = next(iv for iv in scan_esd(p, f, 0.0, 2.0, 4000)
                      if not (iv.open_left or iv.open_right))
        pad = 0.1 * closed.width
        t0, t1 = closed.t_death + pad, closed.t_birth - pad
        [iv] = scan_esd(p, f, t0, t1, 50)
        assert (iv.t_death, iv.t_birth) == (t0, t1)
        assert iv.open_left and iv.open_right and not iv.refined

    def test_argument_validation(self):
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(1.0)
        with pytest.raises(ValueError):
            scan_esd(p, f, 1.0, 1.0, 100)
        with pytest.raises(ValueError):
            scan_esd(p, f, 0.0, 1.0, 1)
        for t0, t1 in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                scan_esd(p, f, t0, t1, 100)


class TestDwellFraction:
    def test_trivial_cases(self):
        assert dwell_fraction([], 0.0, 1.0) == 0.0
        full = EsdInterval(t_death=0.0, t_birth=1.0, min_lambda=-0.5, refined=False)
        assert dwell_fraction([full], 0.0, 1.0) == 1.0

    def test_stronger_coupling_dwells_longer(self):
        f = build_thermal(10.0)
        t0, t1, n = 0.0, 4.0, 8000
        weak = scan_esd(ModelParams(lam=10.0, k=0.1), f, t0, t1, n)
        strong = scan_esd(ModelParams(lam=10.0, k=0.5), f, t0, t1, n)
        assert dwell_fraction(strong, t0, t1) > dwell_fraction(weak, t0, t1)
