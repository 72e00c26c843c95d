"""Analytic per-sector evolution and the thermally averaged two-qubit state.

Each Fock index n labels a 4-dimensional invariant subspace spanned by
{|e1 e2, n-1>, |e1 g2, n>, |g1 e2, n>, |g1 g2, n+1>}. Evolution inside a
sector is a 4x4 unitary with closed-form entries built from the two
characteristic frequencies of the sector; the thermal state is a classical
mixture over sectors.

All sectors are evaluated together: ``SectorTable`` holds the per-sector
constants as arrays over n, and the entry formulas broadcast over
(sectors x times).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ThermalField

_POP_CLAMP = 1e-12
_POSITIVITY_TOL = 1e-10
# times per evaluation block; bounds the (sectors x times) temporaries to a
# few MB at nmax ~ 240 whatever the length of the grid
_BLOCK = 512

# the amplitudes (C1, C2, C3, C4) reached from |e1, g2, n> are these phases
# times the real factors _propagator_entries returns: C1 and C3 lie an odd
# number of couplings from the start on the chain ee - eg - ge - gg
_PHASE = (1j, 1.0, -1j, 1.0)


@dataclass(frozen=True)
class SectorFrequencies:
    """Characteristic quantities of Fock sectors: scalars for one n, arrays for an array of n."""

    a: float | np.ndarray  # g * sqrt(n)
    b: float | np.ndarray  # g * sqrt(n+1)
    r: float | np.ndarray  # lam^2 * beta, the splitting omega_plus^2 - omega_minus^2
    alpha: float | np.ndarray
    beta: float | np.ndarray
    omega_plus: float | np.ndarray
    omega_minus: float | np.ndarray


@dataclass(frozen=True)
class StateSeries:
    """X-structured two-qubit density matrices over a time grid, in the basis
    {ee, eg, ge, gg}: one array per nonzero entry, the populations and the
    single surviving coherence rho23. Scalars make a one-row series.

    Populations a hair below zero are clamped; anything further below, or
    a coherence beyond rho22*rho33, is an error.
    """

    rho11: np.ndarray
    rho22: np.ndarray
    rho33: np.ndarray
    rho44: np.ndarray
    rho23: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho23", np.atleast_1d(self.rho23))
        for name in ("rho11", "rho22", "rho33", "rho44"):
            p = np.atleast_1d(getattr(self, name))
            if np.any(p < -_POP_CLAMP):
                raise ValueError(f"{name} = {p.min()} is negative beyond tolerance")
            object.__setattr__(self, name, np.where(p < 0.0, 0.0, p))
        bad = np.abs(self.rho23) ** 2 > self.rho22 * self.rho33 + _POSITIVITY_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(
                f"|rho23|^2 = {abs(self.rho23[i])**2} exceeds rho22*rho33 = "
                f"{self.rho22[i] * self.rho33[i]}"
            )

    def __len__(self) -> int:
        return self.rho11.size

    def matrix(self) -> np.ndarray:
        """Dense density matrices, shape (len, 4, 4)."""
        rho = np.zeros((len(self), 4, 4), dtype=complex)
        for j, name in enumerate(("rho11", "rho22", "rho33", "rho44")):
            rho[:, j, j] = getattr(self, name)
        rho[:, 1, 2] = self.rho23
        rho[:, 2, 1] = np.conj(self.rho23)
        return rho


def sector_frequencies(params: ModelParams, n) -> SectorFrequencies:
    """Coupling amplitudes and characteristic frequencies of sector n (int or array)."""
    if np.any(np.asarray(n) < 0):
        raise ValueError(f"sector index must be >= 0, got {n}")
    lam, g, k = params.lam, params.g, params.k
    a = g * np.sqrt(n)
    b = g * np.sqrt(n + 1)
    alpha = 1.0 + (2 * n + 1) * k**2
    beta = np.sqrt((1.0 + k**2) ** 2 + 4.0 * n * k**2)
    r = lam**2 * beta
    omega_plus = lam / np.sqrt(2.0) * np.sqrt(alpha + beta)
    # alpha - beta = (alpha^2 - beta^2) / (alpha + beta) without the
    # cancellation, which loses every digit once k^2 n is below rounding
    omega_minus = lam / np.sqrt(2.0) * np.sqrt(4.0 * n * (n + 1) * k**4 / (alpha + beta))
    return SectorFrequencies(
        a=a, b=b, r=r, alpha=alpha, beta=beta,
        omega_plus=omega_plus, omega_minus=omega_minus,
    )


def _sin_over_w(s, w, t):
    """s / w for s = sin(w t), with its limit t where w = 0."""
    zero = w == 0
    return np.where(zero, t, s / np.where(zero, 1.0, w))


def _propagator_entries(f: SectorFrequencies, lam: float, t):
    """Real factors of the propagator entries A_01, A_11, A_12, A_13: the
    column reached from |e1, g2, n>, to be multiplied by _PHASE.

    The frequencies and t broadcast: scalars give one entry, a column of
    sectors against a row of times gives (sectors x times) arrays.
    """
    wp, wm, a, b, r = f.omega_plus, f.omega_minus, f.a, f.b, f.r
    xp, xm = wp * t, wm * t
    cp, cm = np.cos(xp), np.cos(xm)
    sp, sm = np.sin(xp), np.sin(xm)
    swp, swm = sp / wp, _sin_over_w(sm, wm, t)  # omega_plus >= lam > 0
    b2, wp2, wm2 = b * b, wp * wp, wm * wm
    return (
        a * ((b2 - wp2) * swp - (b2 - wm2) * swm) / r,
        ((wp2 - b2) * cp - (wm2 - b2) * cm) / r,
        lam * (wp * sp - wm * sm) / r,
        lam * b * (cp - cm) / r,
    )


def amplitude_table(params: ModelParams, nmax: int, times: np.ndarray):
    """Amplitude arrays C_j[n, it] for n = 0 .. nmax over a time grid."""
    times = np.asarray(times, dtype=float)
    f = sector_frequencies(params, np.arange(nmax + 1).reshape((-1,) + (1,) * times.ndim))
    return tuple(np.asarray(phase * x, dtype=complex)
                 for phase, x in zip(_PHASE, _propagator_entries(f, params.lam, times)))


class SectorTable:
    """Per-sector constants of one (params, field), evaluated over any time array.

    Sectors run over n = 0 .. nmax+1: the rho11 sum carries weights shifted
    by one index, so it is extended one slot past the field's truncation to
    keep the stated tail bound.
    """

    def __init__(self, params: ModelParams, field: ThermalField):
        n = np.arange(field.nmax + 2)
        self.lam = params.lam
        self.freqs = sector_frequencies(params, n[:, None])
        self.w = field.weights
        self.w_ext = np.append(field.weights, field.weight(field.nmax + 1))

    def series(self, times) -> StateSeries:
        """The five X-state columns at each time, evaluated block by block."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        cols = {
            "rho11": np.empty(times.size), "rho22": np.empty(times.size),
            "rho33": np.empty(times.size), "rho44": np.empty(times.size),
            "rho23": np.empty(times.size, dtype=complex),
        }
        w, w_ext = self.w, self.w_ext
        for start in range(0, times.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            # real factors: |C|^2 is their square and C2 conj(C3) = i x2 x3
            x1, x2, x3, x4 = _propagator_entries(self.freqs, self.lam, times[block])
            x2, x3, x4 = x2[:-1], x3[:-1], x4[:-1]
            cols["rho11"][block] = w_ext[1:] @ x1[1:] ** 2
            cols["rho22"][block] = w @ x2**2
            cols["rho33"][block] = w @ x3**2
            cols["rho44"][block] = w @ x4**2
            cols["rho23"][block] = 1j * (w @ (x2 * x3))
        return StateSeries(**cols)


def two_qubit_states(
    params: ModelParams, field: ThermalField, times: np.ndarray
) -> StateSeries:
    """Thermally averaged two-qubit states over a whole time grid, as columns."""
    return SectorTable(params, field).series(times)
