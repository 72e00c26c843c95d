"""Brute-force validator: dense Hamiltonian, exact evolution, partial traces.

Everything here is built from truncated ladder and Pauli operators on the
full qubit1 x qubit2 x Fock space and evolved by spectral decomposition,
with no reference to the closed-form sector solution. Agreement between
the two routes is the main correctness argument of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _dc_field

import numpy as np

from .dynamics import StateSeries
from .model import ModelParams, ThermalField

_OFF_X_TOL = 1e-8
_OFF_DIAG_TOL = 1e-10

# qubit basis order |e>, |g>; two-qubit order {ee, eg, ge, gg}
_SP = np.array([[0, 1], [0, 0]], dtype=complex)   # |e><g|
_SM = _SP.T.conj()
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class HamiltonianMatrix:
    h1: np.ndarray
    fock_cutoff: int
    _eig: dict = _dc_field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return 4 * (self.fock_cutoff + 1)

    def eigensystem(self):
        """Cached spectral decomposition of h1."""
        if "evals" not in self._eig:
            evals, evecs = np.linalg.eigh(self.h1)
            self._eig["evals"] = evals
            self._eig["evecs"] = evecs
        return self._eig["evals"], self._eig["evecs"]


@dataclass(frozen=True)
class TripartiteState:
    rho: np.ndarray
    fock_cutoff: int

    def __post_init__(self):
        if np.abs(self.rho - self.rho.T.conj()).max() > 1e-12:
            raise ValueError("tripartite density matrix is not Hermitian")


def _ladder(fock_cutoff: int) -> np.ndarray:
    """Annihilation operator on the truncated Fock space."""
    nf = fock_cutoff + 1
    a = np.zeros((nf, nf), dtype=complex)
    n = np.arange(1, nf)
    a[n - 1, n] = np.sqrt(n)
    return a


def build_hamiltonians(params: ModelParams, fock_cutoff: int) -> HamiltonianMatrix:
    """Dense interaction Hamiltonian on the truncated space."""
    if fock_cutoff < 1:
        raise ValueError(f"fock_cutoff must be >= 1, got {fock_cutoff}")
    nf = fock_cutoff + 1
    a = _ladder(fock_cutoff)
    idf = np.eye(nf, dtype=complex)

    h1 = params.lam * (
        np.kron(np.kron(_SP, _SM), idf) + np.kron(np.kron(_SM, _SP), idf)
    ) + params.g * (
        np.kron(np.kron(_I2, _SP), a) + np.kron(np.kron(_I2, _SM), a.T.conj())
    )
    return HamiltonianMatrix(h1=h1, fock_cutoff=fock_cutoff)


def check_cutoff(h: HamiltonianMatrix, field: ThermalField):
    if h.fock_cutoff < field.nmax + 2:
        raise ValueError(
            f"fock_cutoff {h.fock_cutoff} leaves no headroom above "
            f"the thermal truncation nmax={field.nmax}; need nmax + 2"
        )


def sector_basis_indices(n: int, fock_cutoff: int) -> list[int]:
    """Flat indices of {|ee,n-1>, |eg,n>, |ge,n>, |gg,n+1>}; n=0 drops the first."""
    nf = fock_cutoff + 1
    idx = []
    if n >= 1:
        idx.append(0 * nf + (n - 1))   # |e e, n-1>
    idx.append(1 * nf + n)             # |e g, n>
    idx.append(2 * nf + n)             # |g e, n>
    idx.append(3 * nf + (n + 1))       # |g g, n+1>
    return idx


def _initial_columns(h: HamiltonianMatrix, field: ThermalField, t: float) -> np.ndarray:
    """Evolved kets U(t)|e1, g2, n> for n = 0 .. nmax, as columns."""
    nf = h.fock_cutoff + 1
    evals, evecs = h.eigensystem()
    init = 1 * nf + np.arange(field.nmax + 1)  # |e g, n> flat indices
    phases = np.exp(-1j * evals * t)
    return evecs @ (phases[:, None] * evecs.conj().T[:, init])


def evolve(h: HamiltonianMatrix, field: ThermalField, t: float) -> TripartiteState:
    """rho(t) = U rho(0) U+ with rho(0) = |e1><e1| x |g2><g2| x thermal mix."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    check_cutoff(h, field)
    psi = _initial_columns(h, field, t)
    rho = (psi * field.weights) @ psi.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return TripartiteState(rho=rho, fock_cutoff=h.fock_cutoff)


def _x_series(rho4: np.ndarray) -> StateSeries:
    """The X-state entries of two-qubit matrices, shape (4, 4) or (times, 4, 4)."""
    return StateSeries(
        rho11=rho4[..., 0, 0].real,
        rho22=rho4[..., 1, 1].real,
        rho33=rho4[..., 2, 2].real,
        rho44=rho4[..., 3, 3].real,
        rho23=rho4[..., 1, 2],
    )


def partial_trace_field(state: TripartiteState) -> StateSeries:
    """Trace out the Fock factor, as a one-row series; the result must carry
    the X structure."""
    nf = state.fock_cutoff + 1
    rho = state.rho.reshape(4, nf, 4, nf)
    rho4 = np.trace(rho, axis1=1, axis2=3)
    series = _x_series(rho4)
    off_x = np.abs(rho4 - series.matrix()[0]).max()
    if off_x > _OFF_X_TOL:
        raise ValueError(f"off-X element {off_x} in reduced state")
    return series


def partial_trace_to_qubit1(state: TripartiteState) -> tuple[float, float]:
    """Trace out qubit 2 and the field: (rho_ee, rho_gg) of qubit 1, whose
    off-diagonal must be numerically zero."""
    nf = state.fock_cutoff + 1
    rho = state.rho.reshape(2, 2 * nf, 2, 2 * nf)
    rho1 = np.trace(rho, axis1=1, axis2=3)
    if abs(rho1[0, 1]) > _OFF_DIAG_TOL:
        raise ValueError(f"qubit 1 coherence {abs(rho1[0, 1])} above tolerance")
    return float(rho1[0, 0].real), float(rho1[1, 1].real)


def reduced_two_qubit_series(
    h: HamiltonianMatrix, field: ThermalField, times: np.ndarray
) -> StateSeries:
    """Two-qubit reductions over a time grid without forming the full rho.

    The initial state is a mixture of product kets, so each time point only
    needs the evolved columns; the field trace is taken per pure component.
    """
    check_cutoff(h, field)
    nf = h.fock_cutoff + 1
    rho4 = np.empty((np.size(times), 4, 4), dtype=complex)
    for i, t in enumerate(np.atleast_1d(times)):
        psi_r = _initial_columns(h, field, float(t)).reshape(4, nf, -1)
        rho4[i] = np.einsum("jfn,mfn,n->jm", psi_r, psi_r.conj(), field.weights)
    return _x_series(rho4)
