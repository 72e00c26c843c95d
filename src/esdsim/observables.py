"""Entanglement, coherence, inversion and purity quantifiers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import StateSeries, TwoQubitState, sector_frequencies
from .model import ModelParams, ThermalField

_EIG_ERROR = 1e-8

_SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class Qubit1State:
    """Reduced state of qubit 1; diagonal in {|e>, |g>} for these dynamics."""

    rho_ee: float
    rho_gg: float

    def __post_init__(self):
        for name in ("rho_ee", "rho_gg"):
            p = getattr(self, name)
            if p < -1e-12:
                raise ValueError(f"{name} = {p} is negative beyond tolerance")
            if p < 0.0:
                object.__setattr__(self, name, 0.0)


def concurrence_wootters(state: TwoQubitState) -> float:
    """Spin-flip concurrence from the eigenvalues of rho (sy x sy) rho* (sy x sy).

    The sqrt-eigenvalues of that matrix equal the singular values of
    sqrt(rho) (sy x sy) sqrt(rho)*, which is how they are computed here:
    the symmetrized form keeps full absolute accuracy where the plain
    eigensolver of the non-Hermitian product loses digits.
    """
    rho = state.matrix()
    evals, evecs = np.linalg.eigh(rho)
    if evals.min() < -_EIG_ERROR:
        raise ValueError(f"density-matrix eigenvalue {evals.min()} below tolerance")
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    R = sqrt_rho @ _SIGMA_YY @ sqrt_rho.conj()
    root = np.linalg.svd(R, compute_uv=False)  # descending
    return max(0.0, root[0] - root[1] - root[2] - root[3])


def separability(state: TwoQubitState | StateSeries):
    """Lambda = 2|rho23| - 2 sqrt(rho11 rho44), of one state or a whole series."""
    return 2.0 * np.abs(state.rho23) - 2.0 * np.sqrt(state.rho11 * state.rho44)


def concurrence_xstate(state: TwoQubitState) -> tuple[float, float]:
    """Closed-form concurrence for the X structure; returns (C, Lambda).

    Lambda = 2|rho23| - 2 sqrt(rho11 rho44) is kept unclamped: its
    negativity measures how deep into the separable set the state sits.
    """
    lam_fn = separability(state)
    return max(0.0, lam_fn), lam_fn


def coherence_l1(state: TwoQubitState | StateSeries):
    """l1 coherence: sum of off-diagonal magnitudes, here 2|rho23|."""
    return 2.0 * np.abs(state.rho23)


def qubit1_reduce(state: TwoQubitState) -> Qubit1State:
    """Trace out qubit 2."""
    return Qubit1State(rho_ee=state.rho11 + state.rho22, rho_gg=state.rho33 + state.rho44)


def inversion_summed(q1: Qubit1State) -> float:
    """Population inversion W = rho_ee - rho_gg of qubit 1."""
    return q1.rho_ee - q1.rho_gg


def inversion_closed(params: ModelParams, field: ThermalField, t: float) -> float:
    """Closed-form inversion as a cosine series over sectors; needs k > 0.

    The series coefficients use the rescaled sector splitting beta/k^2;
    term-by-term this reproduces the summed-population definition. The
    1/k^2 prefactors make the expression singular at g = 0, so that case
    is rejected in favour of inversion_summed.
    """
    k = params.k
    if k == 0.0:
        raise ValueError("closed-form inversion is singular at g = 0; use inversion_summed")
    n = np.arange(field.nmax + 1)
    f = sector_frequencies(params, n)
    wp, wm = f.omega_plus, f.omega_minus
    bt = f.beta / k**2
    root = np.sqrt(n * (n + 1.0))
    bracket = (
        (1.0 + (4 * n + 3) * k**2) / (2.0 * k**2)
        + ((1.0 - bt) * k**2 - 1.0) / (4.0 * k**2) * np.cos(2.0 * wp * t)
        + ((1.0 + bt) * k**2 - 1.0) / (4.0 * k**2) * np.cos(2.0 * wm * t)
        - (n + 1.0 - root) * np.cos((wp + wm) * t)
        - (n + 1.0 + root) * np.cos((wp - wm) * t)
    )
    return float(1.0 - 2.0 / k**2 * np.sum(field.weights / bt**2 * bracket))


def linear_entropy(q1: Qubit1State) -> float:
    """Purity deficit 1 - Tr(rho^2) of qubit 1, in [0, 1/2] at unit trace."""
    return 1.0 - q1.rho_ee**2 - q1.rho_gg**2


def observable_columns(series: StateSeries) -> dict[str, np.ndarray]:
    """Every scalar observable over a series, keyed by its CLI name."""
    lam_fn = separability(series)
    rho_ee = series.rho11 + series.rho22
    rho_gg = series.rho33 + series.rho44
    return {
        "concurrence": np.maximum(0.0, lam_fn),
        "lambda": lam_fn,
        "coherence": coherence_l1(series),
        "inversion": rho_ee - rho_gg,
        "entropy": 1.0 - rho_ee**2 - rho_gg**2,
    }
