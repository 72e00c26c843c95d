"""Analytic per-sector evolution and the thermally averaged two-qubit state.

Each Fock index n labels a 4-dimensional invariant subspace spanned by
{|e1 e2, n-1>, |e1 g2, n>, |g1 e2, n>, |g1 g2, n+1>}. Evolution inside a
sector is a 4x4 unitary with closed-form entries built from the two
characteristic frequencies of the sector; the thermal state is a classical
mixture over sectors.

All sectors are evaluated together. ``SectorTable`` holds, per sector, a
real 4x4 coefficient matrix K that maps the basis T(t) = (cos w+ t,
sin w+ t, cos w- t, sin w- t) to the four real factors of the propagator
column. Times go in blocks of a base t_b plus offsets tau, evaluated as
X = (K R(t_b)) T(tau) with R(t_b) the angle-addition rotation. A linspace
grid shares one table T(j * step) across its blocks and needs trig only at
each block's base; any other times are evaluated at base 0, where R = I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ThermalField

_POP_CLAMP = 1e-12
_POSITIVITY_TOL = 1e-10
# times per evaluation block; bounds a block's (sectors x 4 x times) arrays,
# the shared trig table among them, to ~1 MB at nmax ~ 240 for any grid
_BLOCK = 128


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


class SectorTable:
    """Per-sector constants of one (params, field), evaluated over any time array.

    Sectors run over n = 0 .. nmax+1: the rho11 sum carries weights shifted
    by one index, so it is extended one slot past the field's truncation to
    keep the stated tail bound. coeffs[n] = K maps T(t) to the real factors
    of the amplitudes (i x1, x2, -i x3, x4) reached from |e1, g2, n>.
    """

    def __init__(self, params: ModelParams, field: ThermalField):
        n = np.arange(field.nmax + 2)
        f = self.freqs = sector_frequencies(params, n)
        wp, wm, a, b2, r, lam = f.omega_plus, f.omega_minus, f.a, f.b**2, f.r, params.lam
        k = np.zeros((n.size, 4, 4))
        k[:, 0, 1] = a * (b2 - wp**2) / (r * wp)  # omega_plus >= lam > 0
        # omega_minus is 0 where a = g sqrt(n) is, which zeroes the term
        np.divide(-a * (b2 - wm**2), r * wm, out=k[:, 0, 3], where=wm > 0)
        k[:, 1, 0] = (wp**2 - b2) / r
        k[:, 1, 2] = (b2 - wm**2) / r
        k[:, 2, 1] = lam * wp / r
        k[:, 2, 3] = -lam * wm / r
        k[:, 3, 0] = lam * f.b / r
        k[:, 3, 2] = -k[:, 3, 0]
        self.coeffs = k
        # weights of x_j^2 in rho_jj (row 1 also of x2 x3); only rho11 reaches nmax+1
        self.pop_weights = np.zeros((4, n.size))
        self.pop_weights[0] = np.append(field.weights, field.weight(field.nmax + 1))
        self.pop_weights[1:, :-1] = field.weights

    def basis(self, times: np.ndarray) -> np.ndarray:
        """T(t) of every sector at each time, shape (sectors, 4, times)."""
        xp = np.multiply.outer(self.freqs.omega_plus, times)
        xm = np.multiply.outer(self.freqs.omega_minus, times)
        return np.stack((np.cos(xp), np.sin(xp), np.cos(xm), np.sin(xm)), axis=1)

    def _rotated(self, t_b: float) -> np.ndarray:
        """K R(t_b), with R(t_b) the rotation T(t_b + tau) = R(t_b) T(tau)."""
        t = self.basis(np.array(t_b))[:, None, :]
        c, s, kc, ks = t[..., 0::2], t[..., 1::2], self.coeffs[..., 0::2], self.coeffs[..., 1::2]
        return np.stack((kc * c + ks * s, ks * c - kc * s), axis=-1).reshape(self.coeffs.shape)

    def _evaluate(self, kr: np.ndarray, basis: np.ndarray):
        """Populations (4, m) and rho23 (m,) from kr = K R(t_b) and basis = T(tau):
        |C_j|^2 = x_j^2 and C2 conj(C3) = i x2 x3. Squaring each cell before
        weighting keeps small populations accurate."""
        x = kr @ basis
        rho23 = 1j * (self.pop_weights[1] @ (x[:, 1] * x[:, 2]))
        np.square(x, out=x)
        return (self.pop_weights[:, None, :] @ x.transpose(1, 0, 2))[:, 0], rho23

    def series(self, times) -> StateSeries:
        """The five X-state columns at each time, evaluated block by block.

        A linspace grid (bit for bit, >= 2 points) shares T(j * step) across
        its blocks, each rotated to its first time; other times are at base 0.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        pops = np.empty((4, times.size))
        rho23 = np.empty(times.size, dtype=complex)
        uniform = times.size >= 2 and np.array_equal(
            times, np.linspace(times[0], times[-1], times.size))
        if uniform:
            step = (times[-1] - times[0]) / (times.size - 1)
            shared = self.basis(np.arange(min(_BLOCK, times.size)) * step)
        for start in range(0, times.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            kr, basis = ((self._rotated(times[start]), shared[..., : times[block].size])
                         if uniform else (self.coeffs, self.basis(times[block])))
            pops[:, block], rho23[block] = self._evaluate(kr, basis)
        return StateSeries(*pops, rho23)


def two_qubit_states(
    params: ModelParams, field: ThermalField, times: np.ndarray
) -> StateSeries:
    """Thermally averaged two-qubit states over a whole time grid, as columns."""
    return SectorTable(params, field).series(times)
