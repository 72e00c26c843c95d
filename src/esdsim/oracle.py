"""Brute-force validator: dense real Hamiltonian, one spectral reduction.

The interaction Hamiltonian is built from truncated ladder and Pauli
operators on the full qubit1 x qubit2 x Fock space and diagonalised once;
the two-qubit reduction is taken in its eigenbasis with no reference to
the closed-form sector solution. Agreement between the two routes is the
main correctness argument of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import StateSeries
from .model import ModelParams, ThermalField

_OFF_X_TOL = 1e-8
_BLOCK = 512

# qubit basis order |e>, |g>; two-qubit order {ee, eg, ge, gg}
_SP = np.array([[0.0, 1.0], [0.0, 0.0]])   # |e><g|
_SM = _SP.T
_I2 = np.eye(2)


@dataclass(frozen=True)
class HamiltonianMatrix:
    h1: np.ndarray
    fock_cutoff: int

    @property
    def dim(self) -> int:
        return 4 * (self.fock_cutoff + 1)

    def eigensystem(self):
        """Eigenvalues and real orthonormal eigenvectors of h1."""
        return np.linalg.eigh(self.h1)


def build_hamiltonians(params: ModelParams, fock_cutoff: int) -> HamiltonianMatrix:
    """Dense interaction Hamiltonian on the truncated space; every entry is
    lam, g or g sqrt(n), so the matrix is real symmetric."""
    if fock_cutoff < 1:
        raise ValueError(f"fock_cutoff must be >= 1, got {fock_cutoff}")
    nf = fock_cutoff + 1
    a = np.diag(np.sqrt(np.arange(1.0, nf)), 1)   # annihilation operator
    idf = np.eye(nf)

    h1 = params.lam * (
        np.kron(np.kron(_SP, _SM), idf) + np.kron(np.kron(_SM, _SP), idf)
    ) + params.g * (
        np.kron(np.kron(_I2, _SP), a) + np.kron(np.kron(_I2, _SM), a.T)
    )
    return HamiltonianMatrix(h1=h1, fock_cutoff=fock_cutoff)


def reduced_two_qubit_series(
    h: HamiltonianMatrix, field: ThermalField, times: np.ndarray
) -> StateSeries:
    """Two-qubit reductions of U(t) rho(0) U(t)+ over a time grid, with
    rho(0) = |e1><e1| x |g2><g2| x the thermal mix.

    With H = E diag(evals) E^T (E real), S the rows of E at |e g, n>,
    M = S^T diag(P) S and p(t) = exp(-i evals t), each entry of the field
    trace is rho_jm(t) = p^T (G_jm o M) p*, where G_jm = E_j^T E_m over the
    Fock rows of qubit pair states j and m. All 16 entries are computed;
    any outside the X pattern above 1e-8 at any time is an error.
    """
    if h.fock_cutoff < field.nmax + 2:
        raise ValueError(
            f"fock_cutoff {h.fock_cutoff} leaves no headroom above "
            f"the thermal truncation nmax={field.nmax}; need nmax + 2"
        )
    nf = h.fock_cutoff + 1
    times = np.atleast_1d(np.asarray(times, dtype=float))
    evals, evecs = h.eigensystem()
    start = evecs[nf : nf + field.nmax + 1]   # rows |e g, n>, n = 0 .. nmax
    weighted = (start.T * field.weights) @ start
    rows = evecs.reshape(4, nf, -1)

    rho4 = np.empty((times.size, 4, 4), dtype=complex)
    for j, m in zip(*np.triu_indices(4)):
        kernel = (rows[j].T @ rows[m]) * weighted
        for b in range(0, times.size, _BLOCK):
            # p = cos - i sin, so p^T K p* = cKc + sKs + i (cKs - sKc)
            angle = np.outer(times[b : b + _BLOCK], evals)
            cos, sin = np.cos(angle), np.sin(angle)
            ck, sk = cos @ kernel, sin @ kernel
            rho4[b : b + _BLOCK, j, m] = (
                (ck * cos + sk * sin).sum(1) + 1j * (ck * sin - sk * cos).sum(1)
            )
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
