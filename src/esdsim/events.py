"""Detection of entanglement sudden death / sudden birth intervals.

An interval is reported wherever the separability function Lambda(t) is
strictly negative; its endpoints are sign crossings refined by safeguarded
Newton on f(t) = |rho23|^2 - rho11 rho44, a smooth trig sum with the sign
of Lambda and an exact slope, falling back to bisection (rtsafe, Press et
al., Numerical Recipes 9.4). Tangential touches of zero (as in the
isolated-pair case, where the concurrence is |sin 2 lam t|) are not deaths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SectorTable
from .model import ModelParams, ThermalField
from .observables import separability

_CROSSING_TOL = 1e-9
_MAX_BISECT = 60
_MIN_WIDTH = 1e-9   # in lam t
_GRAZE_DEPTH = -1e-12


@dataclass(frozen=True)
class EsdInterval:
    """One interval of zero concurrence.

    t_death / t_birth are the bounding Lambda sign crossings; either may
    coincide with the scan window edge, flagged by the boundary markers.
    """

    t_death: float
    t_birth: float
    min_lambda: float
    refined: bool
    open_left: bool = False
    open_right: bool = False

    @property
    def width(self) -> float:
        return self.t_birth - self.t_death


def _refine_crossings(table: SectorTable, t_lo, t_hi, lo_negative, t_start):
    """Refine every bracketed sign change of Lambda together.

    Each step evaluates one point per bracket still open, all in one table
    call that also gives f'. The first point is t_start, strictly inside;
    the sign of Lambda there shrinks the bracket, and the next point is the
    Newton point t - f/f' when it lies strictly inside the new bracket, else
    its midpoint. A bracket closes at the first point with |Lambda| <= tol
    and returns that point's Newton point if it lies inside the bracket,
    else the point itself. Those still open after _MAX_BISECT steps return
    their next point and are flagged as not converged. lo_negative is the
    sign of Lambda at each bracket's lower end.
    Returns (crossing times, converged flags).
    """
    roots = np.empty_like(t_lo)
    converged = np.zeros(t_lo.size, dtype=bool)
    # the brackets still open: their indices, ends, lower-end signs and next points
    active, lo, hi, lo_neg, t = np.arange(t_lo.size), t_lo, t_hi, lo_negative, t_start
    for _ in range(_MAX_BISECT):
        if not active.size:
            break
        series, slope = table.series_and_slope(t)
        lam = separability(series)
        move_lo = (lam < 0) == lo_neg
        lo, hi = np.where(move_lo, t, lo), np.where(move_lo, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = t - (np.abs(series.rho23) ** 2 - series.rho11 * series.rho44) / slope
        inside = (lo < newton) & (newton < hi)
        hit = np.abs(lam) <= _CROSSING_TOL
        roots[active[hit]] = np.where(inside, newton, t)[hit]
        converged[active[hit]] = True
        t = np.where(inside, newton, 0.5 * (lo + hi))
        active, lo, hi, lo_neg, t = (a[~hit] for a in (active, lo, hi, lo_neg, t))
    roots[active] = t
    return roots, converged


def scan_esd(
    params: ModelParams,
    field: ThermalField,
    t0: float,
    t1: float,
    n_grid: int,
) -> list[EsdInterval]:
    """Scan [t0, t1] for intervals with Lambda < 0; empty list if none."""
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"need a finite window, got [{t0}, {t1}]")
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
    if n_grid < 2:
        raise ValueError(f"n_grid must be >= 2, got {n_grid}")
    table = SectorTable(params, field)
    times = np.linspace(t0, t1, n_grid)
    return esd_intervals(table, times, separability(table.series(times)))


def esd_intervals(table: SectorTable, times: np.ndarray, lam: np.ndarray) -> list[EsdInterval]:
    """Intervals with Lambda < 0 from lam = Lambda(times), the grid that
    table evaluates; crossings are refined on the table. The ends of the
    increasing grid times are the ends of the scan window."""
    t0, t1, n_grid = float(times[0]), float(times[-1]), times.size

    # negative stretches [i, j] of the grid, less those that only graze zero
    neg = np.concatenate(([False], lam < 0, [False]))
    starts = np.flatnonzero(~neg[:-1] & neg[1:])
    ends = np.flatnonzero(neg[:-1] & ~neg[1:]) - 1
    stretches = [(int(i), int(j), float(lam[i : j + 1].min())) for i, j in zip(starts, ends)]
    stretches = [(i, j, depth) for i, j, depth in stretches if depth < _GRAZE_DEPTH]

    # each kept stretch [i, j] is bounded by i and j + 1: the window ends 0 and
    # n_grid stay, every inner bound m is the refined root of grid step [m-1, m]
    m = np.array([b for i, j, _ in stretches for b in (i, j + 1) if 0 < b < n_grid], dtype=int)
    # first points: the grid secant's root, or the midpoint where that is not strictly inside
    t_lo, t_hi, lam_lo = times[m - 1], times[m], lam[m - 1]
    secant = t_lo - lam_lo * (t_hi - t_lo) / (lam[m] - lam_lo)
    start = np.where((t_lo < secant) & (secant < t_hi), secant, 0.5 * (t_lo + t_hi))
    roots, converged = _refine_crossings(table, t_lo, t_hi, lam_lo < 0, start)
    bound = {0: (t0, False), n_grid: (t1, False),
             **dict(zip(m.tolist(), zip(roots.tolist(), converged.tolist())))}

    intervals: list[EsdInterval] = []
    for i, j, depth in stretches:
        (t_death, refined_l), (t_birth, refined_r) = bound[i], bound[j + 1]
        if table.lam * (t_birth - t_death) >= _MIN_WIDTH:
            intervals.append(EsdInterval(t_death, t_birth, depth, refined_l and refined_r,
                                         open_left=i == 0, open_right=j == n_grid - 1))
    return intervals


def dwell_fraction(intervals: list[EsdInterval], t0: float, t1: float) -> float:
    """Fraction of the window spent with zero concurrence."""
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
    total = sum(min(iv.t_birth, t1) - max(iv.t_death, t0) for iv in intervals)
    return max(0.0, min(1.0, total / (t1 - t0)))
