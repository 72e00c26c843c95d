"""Analytic per-sector evolution and the thermally averaged two-qubit state.

Each Fock index n labels a 4-dimensional invariant subspace spanned by
{|e1 e2, n-1>, |e1 g2, n>, |g1 e2, n>, |g1 g2, n+1>}. Evolution inside a
sector is a 4x4 unitary with closed-form entries built from the two
characteristic frequencies of the sector; the thermal state is a classical
mixture over sectors.

The state depends on the couplings and time only through k = g/lam and
tau = lam t: every sector constant is built from (k, n) alone, in units of
lam, and lam enters where times do. All sectors are evaluated together.
``SectorTable`` holds, per sector, a real 4x4 coefficient matrix K that maps
T(tau) = (cos w+ tau, sin w+ tau, cos w- tau, sin w- tau) to the four real
factors of the propagator column. Times go in blocks of a base tau_b plus
offsets s, evaluated as X = (K R(tau_b)) T(s) with R(tau_b) the
angle-addition rotation. A linspace grid shares one table T(j * step)
across its blocks. linspace_trig builds it from about 2 sqrt(_BLOCK) libm
points per sector and frequency, every other entry one angle addition;
past that table the grid needs trig only at the blocks' bases, and
K R(tau_b) is computed for a chunk of bases at a time, in one vectorised
call. Any other times are at base 0, where R = I. Root refinement also
needs the slope: T'(tau) = D T(tau), so K' = K D maps the same T(tau) to
the factors' tau-derivatives, and d/dt = lam d/dtau; its times go through
the same block loop, at base 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ThermalField

_POP_CLAMP = 1e-12
_POSITIVITY_TOL = 1e-10
# times per evaluation block; bounds a block's (sectors x 4 x times) arrays,
# the shared trig table among them, to ~1 MB at nmax ~ 240 for any grid.
# K R(tau_b) is computed per chunk of _CHUNK block bases, in one call into one
# (bases x sectors x 4 x 4) buffer: half a block's factors, whatever the grid
_BLOCK = 128
_CHUNK = _BLOCK // 8
# sectors per linspace_trig call for the shared table, both frequencies in
# one call: each call's (times x 2 x sectors) arrays, transposed into the
# (sectors, 4, times) table, peak at ~3.4 MB for 128 times (tracemalloc),
# where one call over the 23,038 sectors of nbar = 1000 raised that run's
# peak RSS by ~57 MB
_SECTORS = 256


@dataclass(frozen=True)
class SectorFrequencies:
    """Characteristic quantities of Fock sectors in units of lam: scalars for
    one n, arrays for an array of n."""

    a: float | np.ndarray  # k * sqrt(n)
    b: float | np.ndarray  # k * sqrt(n+1)
    alpha: float | np.ndarray
    beta: float | np.ndarray  # the splitting omega_plus^2 - omega_minus^2
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
        for name in ("rho11", "rho22", "rho33", "rho44", "rho23"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has a non-finite entry")
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


def sector_frequencies(k, n) -> SectorFrequencies:
    """Amplitudes and frequencies of sector n (int or array) at k = g/lam, in units of lam."""
    if np.any(np.asarray(n) < 0):
        raise ValueError(f"sector index must be >= 0, got {n}")
    a = k * np.sqrt(n)
    b = k * np.sqrt(n + 1)
    alpha = 1.0 + (2 * n + 1) * k**2
    # the 4 n k^2 term only where n > 0: 0 * k^2 is nan once k^2 overflows
    beta = np.sqrt((1.0 + k**2) ** 2 + 4.0 * n * np.where(np.asarray(n) > 0, k**2, 0.0))
    omega_plus = np.sqrt(0.5 * (alpha + beta))
    # alpha - beta = (alpha^2 - beta^2) / (alpha + beta) without the
    # cancellation, which loses every digit once k^2 n is below rounding;
    # k^2 stays outside the root, where k^4 would overflow before omega_plus does
    omega_minus = k**2 * np.sqrt(2.0 * n * (n + 1) / (alpha + beta))
    return SectorFrequencies(
        a=a, b=b, alpha=alpha, beta=beta, omega_plus=omega_plus, omega_minus=omega_minus,
    )


def linspace_step(times: np.ndarray) -> float | None:
    """The step of times when they are np.linspace(times[0], times[-1],
    times.size) bit for bit, with at least two points; else None."""
    if times.size >= 2 and np.array_equal(times, np.linspace(times[0], times[-1], times.size)):
        return (times[-1] - times[0]) / (times.size - 1)
    return None


def linspace_trig(freq, t0: float, dt: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of freq * (t0 + j dt) for j < count, each of shape
    (count, *freq.shape).

    libm runs only at the r = ceil(sqrt(count)) offsets j dt (j < r) and at
    the ceil(count / r) bases t0 + a r dt; the point a r + j is one angle
    addition of base a and offset j, each product rounded before the sum.
    At count <= 3 that would take more libm points than the grid has, so
    those points take libm directly.
    """
    freq = np.asarray(freq, dtype=float)
    if count <= 3:
        x = np.multiply.outer(t0 + np.arange(count) * dt, freq)
        return np.cos(x), np.sin(x)
    r = math.isqrt(count - 1) + 1
    x = np.multiply.outer(np.arange(r) * dt, freq)
    c_off, s_off = np.cos(x), np.sin(x)
    x = np.multiply.outer(t0 + np.arange(0, count, r) * dt, freq)[:, None]
    c_base, s_base = np.cos(x), np.sin(x)
    # (bases, offsets, *freq.shape): the last base runs through all r
    # offsets, and what is returned stops at count
    shape = (x.shape[0], r, *freq.shape)
    cos, sin = _add_angle(c_base, s_base, c_off, s_off, (np.empty(shape), np.empty(shape)))
    return cos.reshape(-1, *freq.shape)[:count], sin.reshape(-1, *freq.shape)[:count]


def _add_angle(c, s, c_off, s_off, out):
    """cos(b + o) = c c_off - s s_off and sin(b + o) = s c_off + c s_off into
    out = (cos, sin), from c, s = cos b, sin b and c_off, s_off = cos o, sin o,
    all broadcast together; each product is rounded before the sum."""
    cos, sin = out
    tmp = np.empty_like(cos)
    np.multiply(c, c_off, out=cos)
    cos -= np.multiply(s, s_off, out=tmp)
    np.multiply(s, c_off, out=sin)
    sin += np.multiply(c, s_off, out=tmp)
    return out


class SectorTable:
    """Per-sector constants of one (params, field), evaluated over any time array.

    Sectors run over n = 0 .. nmax, the field's truncation, and every entry
    sums them with the field's weights. The constants depend on k alone, in
    units of lam: coeffs[n] = K maps T(tau) to the real factors of the
    amplitudes (i x1, x2, -i x3, x4) reached from |e1, g2, n>. Times t are
    evaluated at tau = lam t.
    """

    def __init__(self, params: ModelParams, field: ThermalField):
        self.lam, self.weights = params.lam, field.weights
        n = np.arange(field.nmax + 1)
        f = self.freqs = sector_frequencies(params.k, n)
        wp, wm, a, b2, beta = f.omega_plus, f.omega_minus, f.a, f.b**2, f.beta
        # [K; K'] in one array, so series_and_slope needs one product and no copy
        self._coeffs_and_slopes = np.zeros((n.size, 8, 4))
        k = self.coeffs = self._coeffs_and_slopes[:, :4]
        k[:, 0, 1] = a * (b2 - wp**2) / (beta * wp)  # omega_plus >= 1
        # omega_minus is 0 where a = k sqrt(n) is, which zeroes the term
        np.divide(-a * (b2 - wm**2), beta * wm, out=k[:, 0, 3], where=wm > 0)
        k[:, 1, 0] = (wp**2 - b2) / beta
        k[:, 1, 2] = (b2 - wm**2) / beta
        k[:, 2, 1] = wp / beta
        k[:, 2, 3] = -wm / beta
        k[:, 3, 0] = f.b / beta
        k[:, 3, 2] = -k[:, 3, 0]
        # K' = K D: D takes (cos wt, sin wt) to (-w sin wt, w cos wt)
        w = np.stack((wp, wm), axis=-1)[:, None, :]
        slopes = self._coeffs_and_slopes[:, 4:]
        slopes[..., 0::2] = w * k[..., 1::2]
        slopes[..., 1::2] = -w * k[..., 0::2]

    def basis(self, tau: np.ndarray) -> np.ndarray:
        """T(tau) of every sector at each tau = lam t, shape (sectors, 4, times)."""
        xp = np.multiply.outer(self.freqs.omega_plus, tau)
        xm = np.multiply.outer(self.freqs.omega_minus, tau)
        return np.stack((np.cos(xp), np.sin(xp), np.cos(xm), np.sin(xm)), axis=1)

    def _linspace_basis(self, step: float, m: int) -> np.ndarray:
        """T(j * step) for j < m, shape (sectors, 4, m), from linspace_trig,
        one call per _SECTORS sectors over both frequencies."""
        out = np.empty((self.coeffs.shape[0], 4, m))
        w = np.stack((self.freqs.omega_plus, self.freqs.omega_minus))
        for lo in range(0, w.shape[1], _SECTORS):
            c, s = linspace_trig(w[:, lo : lo + _SECTORS], 0.0, step, m)
            part = out[lo : lo + _SECTORS]
            part[:, 0::2], part[:, 1::2] = c.T, s.T
        return out

    def _rotated(self, k: np.ndarray, bases: np.ndarray, out: np.ndarray) -> np.ndarray:
        """k R(tau_b) for each base tau_b into out, shape (bases, *k.shape), for
        per-sector matrices k of shape (sectors, rows, 4), with R(tau_b) the
        rotation T(tau_b + s) = R(tau_b) T(s)."""
        # sectors last, so that every elementwise loop runs along them:
        # T as (4, bases, sectors) and k R as (rows, 4, bases, sectors)
        t = np.ascontiguousarray(np.moveaxis(self.basis(bases), 0, -1))
        k = np.ascontiguousarray(np.moveaxis(k, 0, -1))[:, :, None]
        kr = np.empty((k.shape[0], 4, *t.shape[1:]))
        # column pairs (kc c + ks s, ks c - kc s): the angle addition of (kc, ks) and (c, -s)
        _add_angle(k[:, 0::2], k[:, 1::2], t[0::2], -t[1::2], (kr[:, 0::2], kr[:, 1::2]))
        out[...] = kr.transpose(2, 3, 0, 1)
        return out

    def _factors(self, tau: np.ndarray, k: np.ndarray, step: float | None = None):
        """(block, k T(tau[block])) for each block of _BLOCK taus, for per-sector
        matrices k (sectors, rows, 4). Given the step of a linspace tau, the
        blocks share T(j * step) and each takes k rotated to its first tau,
        _CHUNK bases per _rotated call into one reused buffer; else every
        block is at base 0."""
        if step is not None:
            shared = self._linspace_basis(step, min(_BLOCK, tau.size))
            rotated = np.empty((_CHUNK, *k.shape))
        for i, start in enumerate(range(0, tau.size, _BLOCK)):
            block = slice(start, start + _BLOCK)
            if step is None:
                yield block, k @ self.basis(tau[block])
                continue
            if i % _CHUNK == 0:
                bases = tau[start : start + _CHUNK * _BLOCK : _BLOCK]
                self._rotated(k, bases, out=rotated[: bases.size])
            yield block, rotated[i % _CHUNK] @ shared[..., : tau[block].size]

    def _evaluate(self, x: np.ndarray):
        """Populations (4, m) and rho23 (m,) from the factors x (sectors, 4, m),
        which it overwrites: |C_j|^2 = x_j^2 and C2 conj(C3) = i x2 x3.
        Squaring each cell before weighting keeps small populations accurate."""
        w = self.weights
        rho23 = 1j * (w @ (x[:, 1] * x[:, 2]))
        np.square(x, out=x)
        return (w @ x.reshape(w.size, -1)).reshape(4, -1), rho23

    def series(self, times) -> StateSeries:
        """The five X-state columns at each time, evaluated block by block
        (see _factors): a linspace grid of times t (bit for bit, >= 2 points;
        lam t is not one) at the step lam dt, other times at base 0."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        pops = np.empty((4, times.size))
        rho23 = np.empty(times.size, dtype=complex)
        dt = linspace_step(times)
        step = None if dt is None else self.lam * dt
        for block, x in self._factors(self.lam * times, self.coeffs, step):
            pops[:, block], rho23[block] = self._evaluate(x)
            del x   # before the next block's are formed
        return StateSeries(*pops, rho23)

    def series_and_slope(self, times) -> tuple[StateSeries, np.ndarray]:
        """The series at any times, with the slope f'(t) of f = |rho23|^2 - rho11 rho44,
        which has the sign of Lambda. One product [K; K'] T(tau) per block of times gives
        both, d/dtau as rho_jj' = sum w 2 x_j x_j' and, with rho23 = i c,
        c' = sum w (x2' x3 + x2 x3'); a block is _BLOCK times, all at base 0:
        a 2-point refinement step is always a linspace, rounded otherwise there."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        pops, rho23 = np.empty((4, times.size)), np.empty(times.size, dtype=complex)
        dc, d11, d44 = np.empty((3, times.size))
        w = self.weights
        for block, xs in self._factors(self.lam * times, self._coeffs_and_slopes):
            x, dx = xs[:, :4], xs[:, 4:]
            dc[block] = w @ (dx[:, 1] * x[:, 2] + x[:, 1] * dx[:, 2])
            d11[block], d44[block] = 2.0 * w @ (x[:, 0] * dx[:, 0]), 2.0 * w @ (x[:, 3] * dx[:, 3])
            pops[:, block], rho23[block] = self._evaluate(x)
            del xs, x, dx   # before the next block's are formed
        s = StateSeries(*pops, rho23)
        return s, self.lam * (2.0 * s.rho23.imag * dc - d11 * s.rho44 - s.rho11 * d44)


def two_qubit_states(
    params: ModelParams, field: ThermalField, times: np.ndarray,
    table: SectorTable | None = None,
) -> StateSeries:
    """Thermally averaged two-qubit states over a whole time grid, as columns;
    table, when given, is the caller's SectorTable of (params, field)."""
    return (SectorTable(params, field) if table is None else table).series(times)
