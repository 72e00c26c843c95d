"""Entanglement, coherence, inversion and purity quantifiers."""

from __future__ import annotations

import numpy as np

from .dynamics import StateSeries, sector_frequencies
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


def concurrence_wootters(rho: np.ndarray):
    """Spin-flip concurrence of dense two-qubit density matrices, shape (..., 4, 4),
    from the eigenvalues of rho (sy x sy) rho* (sy x sy).

    The sqrt-eigenvalues of that matrix equal the singular values of
    sqrt(rho) (sy x sy) sqrt(rho)*, which is how they are computed here:
    the symmetrized form keeps full absolute accuracy where the plain
    eigensolver of the non-Hermitian product loses digits.
    """
    evals, evecs = np.linalg.eigh(rho)
    if evals.min() < -_EIG_ERROR:
        raise ValueError(f"density-matrix eigenvalue {evals.min()} below tolerance")
    root_evals = np.sqrt(np.clip(evals, 0.0, None))[..., None, :]
    sqrt_rho = (evecs * root_evals) @ evecs.conj().swapaxes(-1, -2)
    R = sqrt_rho @ _SIGMA_YY @ sqrt_rho.conj()
    root = np.linalg.svd(R, compute_uv=False)  # descending
    return np.maximum(0.0, root[..., 0] - root[..., 1] - root[..., 2] - root[..., 3])


def separability(series: StateSeries) -> np.ndarray:
    """Lambda = 2|rho23| - 2 sqrt(rho11 rho44); the concurrence is max(0, Lambda).

    Lambda is kept unclamped: its negativity measures how deep into the
    separable set the state sits.
    """
    return 2.0 * np.abs(series.rho23) - 2.0 * np.sqrt(series.rho11 * series.rho44)


def inversion_closed(params: ModelParams, field: ThermalField, t: float) -> float:
    """Closed-form inversion as a cosine series over sectors; needs k > 0.

    The series coefficients use the rescaled sector splitting beta/k^2, and
    the frequencies, in units of lam, are evaluated at tau = lam t;
    term-by-term this reproduces the inversion column of observable_columns.
    The 1/k^2 prefactors make the expression singular at k = 0, so that
    case is rejected.
    """
    k, tau = params.k, params.lam * t
    if k == 0.0:
        raise ValueError("closed-form inversion is singular at k = 0; use observable_columns")
    n = np.arange(field.nmax + 1)
    f = sector_frequencies(k, n)
    wp, wm = f.omega_plus, f.omega_minus
    bt = f.beta / k**2
    root = np.sqrt(n * (n + 1.0))
    bracket = (
        (1.0 + (4 * n + 3) * k**2) / (2.0 * k**2)
        + ((1.0 - bt) * k**2 - 1.0) / (4.0 * k**2) * np.cos(2.0 * wp * tau)
        + ((1.0 + bt) * k**2 - 1.0) / (4.0 * k**2) * np.cos(2.0 * wm * tau)
        - (n + 1.0 - root) * np.cos((wp + wm) * tau)
        - (n + 1.0 + root) * np.cos((wp - wm) * tau)
    )
    return float(1.0 - 2.0 / k**2 * np.sum(field.weights / bt**2 * bracket))


def observable_columns(series: StateSeries) -> dict[str, np.ndarray]:
    """Every scalar observable over a series, keyed by its CLI name.

    inversion and entropy belong to qubit 1 (qubit 2 and the field traced
    out): W = rho_ee - rho_gg and the purity deficit 1 - rho_ee^2 - rho_gg^2.
    At any trace <= 1, |W| <= 1 and the deficit is >= 0, so the clips only
    remove rounding; the deficit may exceed 1/2 by the truncation deficit.
    """
    lam_fn = separability(series)
    rho_ee = series.rho11 + series.rho22
    rho_gg = series.rho33 + series.rho44
    return {
        "concurrence": np.maximum(0.0, lam_fn),
        "lambda": lam_fn,
        "coherence": 2.0 * np.abs(series.rho23),  # l1: sum of off-diagonal magnitudes
        "inversion": np.clip(rho_ee - rho_gg, -1.0, 1.0),
        "entropy": np.maximum(0.0, 1.0 - rho_ee**2 - rho_gg**2),
    }
