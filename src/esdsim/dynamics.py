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
factors x of the propagator column. The table holds sqrt(P_n) K, the
thermal weight folded in, so its factors are sqrt(P_n) x and each entry of
the state is a plain sum over sectors, rho_jj = sum (sqrt(P_n) x_j)^2 and
rho23 = i sum P_n x2 x3, one einsum pass into its column. Each term is one
sector's own square or product, and a population's terms are nonnegative,
so a small population keeps its relative accuracy in any summation order.
Every cos and sin is a part of one exp(i phase), and every angle addition
one complex product. Times go in blocks of a base tau_b plus offsets s,
evaluated as X = (K R(tau_b)) T(s) with T(tau_b + s) = R(tau_b) T(s). A
linspace grid shares one table T(j * step) across its blocks and writes
each block's X into one buffer that the next block reuses. linspace_trig
builds the table from about 2 sqrt(_BLOCK) libm points per sector and
frequency, every other entry the product of a base and an offset; past that
table the grid needs trig only at the blocks' bases, and K R(tau_b) is
computed for a chunk of bases at a time, in one product. Any other times
are at base 0, where R = I. Root refinement reads Lambda, f and f' from
SectorTable.crossing, which forms no state: T'(tau) = D T(tau), so K' = K D
maps the same T(tau) to the factors' tau-derivatives, sqrt(P_n) K' sits
under sqrt(P_n) K in one array, and d/dt = lam d/dtau; all at base 0.
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
# one call: each call's (times x sectors x 2) arrays, transposed into the
# (sectors, 4, times) table, peak at 1.31 MiB for 128 times (tracemalloc),
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


def separability(rho11, rho44, rho23) -> np.ndarray:
    """Lambda = 2|rho23| - 2 sqrt(rho11 rho44), rho23 complex or c where rho23 = i c;
    the concurrence is max(0, Lambda). Lambda is kept unclamped: its negativity
    measures how deep into the separable set the state sits."""
    return 2.0 * np.abs(rho23) - 2.0 * np.sqrt(rho11 * rho44)


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
    the ceil(count / r) bases t0 + a r dt, as exp(i phase); the point a r + j
    is the complex product of base a and offset j, e^(i(b + o)) = e^(ib) e^(io).
    At count <= 3 that would take more libm points than the grid has, so
    those points take libm directly.
    """
    freq = np.asarray(freq, dtype=float)
    if count <= 3:
        e = np.exp(1j * np.multiply.outer(t0 + np.arange(count) * dt, freq))
        return e.real, e.imag
    r = math.isqrt(count - 1) + 1
    offset = np.exp(1j * np.multiply.outer(np.arange(r) * dt, freq))
    base = np.exp(1j * np.multiply.outer(t0 + np.arange(0, count, r) * dt, freq))
    # (bases, offsets, *freq.shape): the last base runs through all r
    # offsets, and what is returned stops at count
    e = (base[:, None] * offset).reshape(-1, *freq.shape)[:count]
    return e.real, e.imag


class SectorTable:
    """Per-sector constants of one (params, field), evaluated over any time array.

    Sectors run over n = 0 .. nmax, the field's truncation. The constants
    depend on k alone, in units of lam: K maps T(tau) to the real factors of
    the amplitudes (i x1, x2, -i x3, x4) reached from |e1, g2, n>, and
    coeffs[n] = sqrt(P_n) K holds the field's weight P_n folded in, so the
    folded factors give every entry as a plain sum over sectors of squares
    or products, at tau = lam t: series sums the state, crossing Lambda, f, f'.
    """

    def __init__(self, params: ModelParams, field: ThermalField):
        self.lam = params.lam
        n = np.arange(field.nmax + 1)
        f = self.freqs = sector_frequencies(params.k, n)
        wp, wm, a, beta = f.omega_plus, f.omega_minus, f.a, f.beta
        k2 = params.k**2
        # w+^2 - b^2 = (1 - k^2 + beta) / 2 >= 1, which rounds within an ulp of
        # beta, and b^2 - w-^2 as a sum of positive terms, from
        # beta - 1 = k^2 (2 + k^2 + 4n) / (beta + 1); taken as differences of
        # w^2 and b^2 they lose digits like k sqrt(n) ulp
        plus = 0.5 * (1.0 - k2 + beta)
        minus = 0.5 * k2 * ((2.0 + k2 + 4.0 * n) / (beta + 1.0) + 1.0)
        # sqrt(P_n) [K; K'] in one array, so crossing needs one product
        # and no copy
        self._coeffs_and_slopes = np.zeros((n.size, 8, 4))
        k = self.coeffs = self._coeffs_and_slopes[:, :4]
        k[:, 0, 1] = -a * plus / (beta * wp)  # omega_plus >= 1
        # omega_minus is 0 where a = k sqrt(n) is, which zeroes the term
        np.divide(-a * minus, beta * wm, out=k[:, 0, 3], where=wm > 0)
        k[:, 1, 0] = plus / beta
        k[:, 1, 2] = minus / beta
        k[:, 2, 1] = wp / beta
        k[:, 2, 3] = -wm / beta
        k[:, 3, 0] = f.b / beta
        k[:, 3, 2] = -k[:, 3, 0]
        # (omega_plus, omega_minus) per sector, the order of T's column pairs
        w = self._w = np.stack((wp, wm), axis=-1)
        # K' = K D: D takes (cos wt, sin wt) to (-w sin wt, w cos wt)
        slopes = self._coeffs_and_slopes[:, 4:]
        slopes[..., 0::2] = w[:, None] * k[..., 1::2]
        slopes[..., 1::2] = -w[:, None] * k[..., 0::2]
        self._coeffs_and_slopes *= np.sqrt(field.weights)[:, None, None]

    def basis(self, tau: np.ndarray) -> np.ndarray:
        """T(tau) of every sector at each tau = lam t, shape (sectors, 4, times)."""
        e = np.exp(1j * np.multiply.outer(self._w, tau))
        return np.stack((e.real, e.imag), axis=2).reshape(len(e), 4, *np.shape(tau))

    def _linspace_basis(self, step: float, m: int) -> np.ndarray:
        """T(j * step) for j < m, shape (sectors, 4, m), from linspace_trig,
        one call per _SECTORS sectors over both frequencies."""
        out = np.empty((self._w.shape[0], 4, m))
        for lo in range(0, out.shape[0], _SECTORS):
            c, s = linspace_trig(self._w[lo : lo + _SECTORS], 0.0, step, m)
            part = out[lo : lo + _SECTORS]
            part[:, 0::2], part[:, 1::2] = np.moveaxis(c, 0, -1), np.moveaxis(s, 0, -1)
        return out

    def _rotated(self, k: np.ndarray, bases: np.ndarray, out: np.ndarray) -> np.ndarray:
        """k R(tau_b) for each base tau_b into out, shape (bases, *k.shape), for
        per-sector matrices k of shape (sectors, rows, 4), with R(tau_b) the
        rotation T(tau_b + s) = R(tau_b) T(s). Each frequency's column pair
        (kc, ks) of k, read as kc + i ks, times e^(-i w tau_b) = c - i s is
        the pair (kc c + ks s, ks c - kc s); k and out need a contiguous last
        axis to be read as complex."""
        rotation = np.exp(-1j * np.multiply.outer(bases, self._w))[:, :, None]
        np.multiply(k.view(complex), rotation, out=out.view(complex))
        return out

    def _factors(self, tau: np.ndarray, k: np.ndarray, step: float | None = None):
        """(block, k T(tau[block])) for each block of _BLOCK taus, for per-sector
        matrices k (sectors, rows, 4). Given the step of a linspace tau, the
        blocks share T(j * step) and each takes k rotated to its first tau,
        _CHUNK bases per _rotated call into one reused buffer, and its factors
        go into one more, which the next block overwrites; else every block
        is at base 0."""
        if step is not None:
            m = min(_BLOCK, tau.size)
            shared = self._linspace_basis(step, m)
            rotated = np.empty((_CHUNK, *k.shape))
            # after the shared table, whose temporaries would otherwise stack on it
            x = np.empty((*k.shape[:2], m))
        for i, start in enumerate(range(0, tau.size, _BLOCK)):
            block = slice(start, start + _BLOCK)
            if step is None:
                yield block, k @ self.basis(tau[block])
                continue
            if i % _CHUNK == 0:
                bases = tau[start : start + _CHUNK * _BLOCK : _BLOCK]
                self._rotated(k, bases, out=rotated[: bases.size])
            m = tau[block].size
            yield block, np.matmul(rotated[i % _CHUNK], shared[..., :m], out=x[..., :m])

    @staticmethod
    def _sums(x: np.ndarray, pops: np.ndarray, c: np.ndarray):
        """Populations rho_jj = sum x_j^2 into pops (4, m) and c = sum x2 x3,
        with rho23 = i c, into c (m,), from the folded factors x (sectors, 4, m),
        one pass each. Every term is the square or product of one sector's
        own factors, so a small population, a sum of nonnegative terms, keeps
        its relative accuracy in any summation order."""
        np.einsum("njt,njt->jt", x, x, out=pops)
        np.einsum("nt,nt->t", x[:, 1], x[:, 2], out=c)

    def series(self, times) -> StateSeries:
        """The five X-state columns at each time, evaluated block by block
        (see _factors): a linspace grid of times t (bit for bit, >= 2 points;
        lam t is not one) at the step lam dt, other times at base 0. The
        folded factors x = sqrt(P_n) K T(tau) give each entry as one sum
        over sectors (see _sums)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        pops, rho23 = np.empty((4, times.size)), np.zeros(times.size, dtype=complex)
        dt = linspace_step(times)
        step = None if dt is None else self.lam * dt
        for block, x in self._factors(self.lam * times, self.coeffs, step):
            self._sums(x, pops[:, block], rho23.imag[block])
            del x   # before the next block's are formed
        return StateSeries(*pops, rho23)

    def crossing(self, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Lambda, f, f'(t)) at any times, where f = |rho23|^2 - rho11 rho44 has
        Lambda's sign; no state is formed. One product sqrt(P_n) [K; K'] T(tau) per
        block of times gives the folded factors x and their tau-derivatives x',
        and each slope sum is one pass: c' = sum (x2' x3 + x2 x3') with rho23 = i c,
        and rho_jj' = 2 sum x_j x_j' for j = 1, 4. A block is _BLOCK times, all
        at base 0: a 2-point refinement step is always a linspace, rounded
        otherwise there."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        rho11, _, _, rho44 = pops = np.empty((4, times.size))
        c = np.empty(times.size)
        dc, d11, d44 = d = np.empty((3, times.size))
        for block, xs in self._factors(self.lam * times, self._coeffs_and_slopes):
            x, dx = xs[:, :4], xs[:, 4:]
            self._sums(x, pops[:, block], c[block])
            # (x2' x3 + x3' x2) and (x1 x1', x4 x4') as pairs of rows
            np.einsum("njt,njt->t", dx[:, 1:3], x[:, 2:0:-1], out=dc[block])
            np.einsum("njt,njt->jt", x[:, ::3], dx[:, ::3], out=d[1:, block])
            del xs, x, dx   # as in series
        f, slope = c * c - rho11 * rho44, 2.0 * self.lam * (c * dc - d11 * rho44 - rho11 * d44)
        return separability(rho11, rho44, c), f, slope


def two_qubit_states(
    params: ModelParams, field: ThermalField, times: np.ndarray,
    table: SectorTable | None = None,
) -> StateSeries:
    """Thermally averaged two-qubit states over a whole time grid, as columns;
    table, when given, is the caller's SectorTable of (params, field)."""
    return (SectorTable(params, field) if table is None else table).series(times)
