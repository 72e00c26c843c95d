"""Detection of entanglement sudden death / sudden birth intervals.

An interval is reported wherever the separability function Lambda(t) is
strictly negative; its endpoints are sign crossings refined by bisection
on the continuous analytic Lambda(t). Tangential touches of zero (as in
the isolated-pair case, where the concurrence is |sin 2 lam t|) are not
deaths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SectorTable, two_qubit_states
from .model import ModelParams, ThermalField
from .observables import separability

_CROSSING_TOL = 1e-9
_MAX_BISECT = 60
_MIN_WIDTH = 1e-9
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


def _refine_crossings(table: SectorTable, t_lo, t_hi, lo_negative):
    """Bisect every bracketed sign change of Lambda together.

    Each step evaluates one midpoint per bracket still open, all in one
    table call. A bracket closes at the first midpoint with |Lambda| <= tol;
    those still open after _MAX_BISECT steps return their last midpoint
    and are flagged as not converged. lo_negative is the sign of Lambda at
    each bracket's lower end, which bisection keeps.
    Returns (crossing times, converged flags).
    """
    t_lo, t_hi = t_lo.copy(), t_hi.copy()
    roots = np.empty_like(t_lo)
    converged = np.zeros(t_lo.size, dtype=bool)
    active = np.arange(t_lo.size)
    for _ in range(_MAX_BISECT):
        if not active.size:
            break
        t_mid = 0.5 * (t_lo[active] + t_hi[active])
        f_mid = separability(table.series(t_mid))
        hit = np.abs(f_mid) <= _CROSSING_TOL
        roots[active[hit]] = t_mid[hit]
        converged[active[hit]] = True
        move_lo = (f_mid < 0) == lo_negative[active]
        t_lo[active[move_lo]] = t_mid[move_lo]
        t_hi[active[~move_lo]] = t_mid[~move_lo]
        active = active[~hit]
    roots[active] = 0.5 * (t_lo[active] + t_hi[active])
    return roots, converged


def scan_esd(
    params: ModelParams,
    field: ThermalField,
    t0: float,
    t1: float,
    n_grid: int,
) -> list[EsdInterval]:
    """Scan [t0, t1] for intervals with Lambda < 0; empty list if none."""
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
    if n_grid < 2:
        raise ValueError(f"n_grid must be >= 2, got {n_grid}")

    times = np.linspace(t0, t1, n_grid)
    lam = separability(two_qubit_states(params, field, times))

    # negative stretches [i, j] of the grid, less those that only graze zero
    neg = np.concatenate(([False], lam < 0, [False]))
    starts = np.flatnonzero(~neg[:-1] & neg[1:])
    ends = np.flatnonzero(neg[:-1] & ~neg[1:]) - 1
    stretches = [(int(i), int(j), float(lam[i : j + 1].min())) for i, j in zip(starts, ends)]
    stretches = [(i, j, depth) for i, j, depth in stretches if depth < _GRAZE_DEPTH]

    # the grid step [m, m+1] of each crossing inside the window, keyed by m
    lo = np.array([i - 1 for i, _, _ in stretches if i > 0]
                  + [j for _, j, _ in stretches if j < n_grid - 1], dtype=int)
    roots, converged = _refine_crossings(
        SectorTable(params, field), times[lo], times[lo + 1], lam[lo] < 0)
    crossing = dict(zip(lo.tolist(), zip(roots.tolist(), converged.tolist())))

    intervals: list[EsdInterval] = []
    for i, j, depth in stretches:
        t_death, refined_l = crossing.get(i - 1, (t0, False))
        t_birth, refined_r = crossing.get(j, (t1, False))
        if t_birth - t_death >= _MIN_WIDTH:
            intervals.append(
                EsdInterval(
                    t_death=t_death,
                    t_birth=t_birth,
                    min_lambda=depth,
                    refined=refined_l and refined_r,
                    open_left=i == 0,
                    open_right=j == n_grid - 1,
                )
            )
    return intervals


def dwell_fraction(intervals: list[EsdInterval], t0: float, t1: float) -> float:
    """Fraction of the window spent with zero concurrence."""
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
    total = sum(min(iv.t_birth, t1) - max(iv.t_death, t0) for iv in intervals)
    return max(0.0, min(1.0, total / (t1 - t0)))
