"""Brute-force validator: dense real Hamiltonian, one spectral reduction.

The interaction Hamiltonian is built on the full qubit1 x qubit2 x Fock
space and decomposed once; the two-qubit reduction is taken in its
spectral basis with no reference to the closed-form sector solution.
Agreement between the two routes is the main correctness argument of the
package.

Every term of H moves exactly one excitation, so H anticommutes with the
parity (-1)^(s1 + n) (s1 = 1 when qubit 1 is excited): in parity order
H = [[0, B], [B^T, 0]], and one SVD of the half-size block B gives its
whole spectrum (the Jordan-Wielandt matrix; Golub & Van Loan, Matrix
Computations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import StateSeries
from .model import ModelParams, ThermalField

_OFF_X_TOL = 1e-8
_BLOCK = 512


@dataclass(frozen=True)
class HamiltonianMatrix:
    h1: np.ndarray
    fock_cutoff: int

    @property
    def dim(self) -> int:
        return 4 * (self.fock_cutoff + 1)

    @property
    def parity(self) -> np.ndarray:
        """(s1 + n) mod 2 of each basis row, shape (4, fock_cutoff + 1):
        one row per qubit pair state {ee, eg, ge, gg}, one column per n."""
        s1 = np.array([[1], [1], [0], [0]])
        return (s1 + np.arange(self.fock_cutoff + 1)) % 2

    def eigensystem(self):
        """Singular values sigma and vectors W of the parity-flipping block.

        With B = h1[even, odd] = U diag(sigma) V^T, the eigenpairs of h1 are
        +-sigma with vectors (u, +-v)/sqrt(2); W (dim x dim/2) holds U on the
        even rows and V on the odd rows. Raises ValueError if h1 couples two
        states of the same parity, so that this form does not hold.
        """
        even = self.parity.ravel() == 0
        for name, rows in (("even", even), ("odd", ~even)):
            if np.any(self.h1[np.ix_(rows, rows)]):
                raise ValueError(
                    f"h1 couples two {name}-parity states; the validator needs "
                    f"H to anticommute with the parity (-1)^(s1 + n)"
                )
        u, sigma, vt = np.linalg.svd(self.h1[np.ix_(even, ~even)])
        w = np.empty((self.dim, sigma.size))
        w[even], w[~even] = u, vt.T
        return sigma, w


def build_hamiltonians(params: ModelParams, fock_cutoff: int) -> HamiltonianMatrix:
    """Dense interaction Hamiltonian on the truncated space, written by
    index; every entry is lam, g sqrt(n) or 0, so the matrix is real
    symmetric."""
    if fock_cutoff < 1:
        raise ValueError(f"fock_cutoff must be >= 1, got {fock_cutoff}")
    nf = fock_cutoff + 1
    h1 = np.zeros((4 * nf, 4 * nf))
    # basis |q1 q2, n> at (q1, q2, n), qubit order |e>, |g>
    h6 = h1.reshape(2, 2, nf, 2, 2, nf)
    n = np.arange(nf)
    # lam (s1+ s2- + h.c.): |e g, n> <-> |g e, n>
    h6[0, 1, n, 1, 0, n] = h6[1, 0, n, 0, 1, n] = params.lam
    # g (s2+ a + h.c.): |q1 e, n - 1> <-> |q1 g, n>, either q1
    q1 = np.array([[0], [1]])
    h6[q1, 0, n[:-1], q1, 1, n[1:]] = h6[q1, 1, n[1:], q1, 0, n[:-1]] = (
        params.g * np.sqrt(n[1:])
    )
    return HamiltonianMatrix(h1=h1, fock_cutoff=fock_cutoff)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("tk,tk->t", a, b)


def reduced_two_qubit_series(
    h: HamiltonianMatrix, field: ThermalField, times: np.ndarray
) -> StateSeries:
    """Two-qubit reductions of U(t) rho(0) U(t)+ over a time grid, with
    rho(0) = |e1><e1| x |g2><g2| x the thermal mix.

    From h.eigensystem(), cos(Ht) = W cos(sigma t) W^T between rows of equal
    parity and sin(Ht) = W sin(sigma t) W^T between rows of opposite parity.
    With W_n the row of W at |e g, n>, M_p = sum over n of parity p of
    P_n W_n^T W_n; for qubit pair states j, m, G_p = sum over the Fock rows
    f with (j, f) of parity p of W_(j,f)^T W_(m,f). Then, with
    K_A = G_0 o M_0 + G_1 o M_1, K_B = G_0 o M_1 + G_1 o M_0, c = cos(sigma t)
    and s = sin(sigma t), rho_jm = c^T K_A c + s^T K_B s when qubit 1 is in
    the same state in j and m, else i (c^T K_A s - s^T K_B c). All 16
    entries are computed; any outside the X pattern above 1e-8 at any time
    is an error.
    """
    if h.fock_cutoff < field.nmax + 2:
        raise ValueError(
            f"fock_cutoff {h.fock_cutoff} leaves no headroom above "
            f"the thermal truncation nmax={field.nmax}; need nmax + 2"
        )
    nf = h.fock_cutoff + 1
    times = np.atleast_1d(np.asarray(times, dtype=float))
    sigma, w = h.eigensystem()
    parity = h.parity
    rows = w.reshape(4, nf, -1)
    start = rows[1, : field.nmax + 1]   # rows |e g, n>, n = 0 .. nmax
    start_parity = parity[1, : field.nmax + 1]
    mass = [
        (start[sel].T * field.weights[sel]) @ start[sel]
        for sel in (start_parity == 0, start_parity == 1)
    ]

    # the trig tables are computed once; times go in blocks through the kernels
    angle = np.outer(times, sigma)
    cos, sin = np.cos(angle), np.sin(angle)
    del angle
    rho4 = np.empty((times.size, 4, 4), dtype=complex)
    for j, m in zip(*np.triu_indices(4)):
        g0, g1 = (rows[j][sel].T @ rows[m][sel] for sel in (parity[j] == 0, parity[j] == 1))
        k_a = g0 * mass[0] + g1 * mass[1]
        k_b = g0 * mass[1] + g1 * mass[0]
        same = parity[j, 0] == parity[m, 0]   # qubit 1 in the same state
        for b in range(0, times.size, _BLOCK):
            c, s = cos[b : b + _BLOCK], sin[b : b + _BLOCK]
            ck, sk = c @ k_a, s @ k_b
            if same:
                rho4[b : b + _BLOCK, j, m] = _rowdot(ck, c) + _rowdot(sk, s)
            else:
                rho4[b : b + _BLOCK, j, m] = 1j * (_rowdot(ck, s) - _rowdot(sk, c))
        rho4[:, m, j] = rho4[:, j, m].conj()

    series = StateSeries(
        rho11=rho4[:, 0, 0].real,
        rho22=rho4[:, 1, 1].real,
        rho33=rho4[:, 2, 2].real,
        rho44=rho4[:, 3, 3].real,
        rho23=rho4[:, 1, 2],
    )
    off_x = np.abs(rho4 - series.matrix()).max()
    if off_x > _OFF_X_TOL:
        raise ValueError(f"off-X element {off_x} in reduced state")
    return series
