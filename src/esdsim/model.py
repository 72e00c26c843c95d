"""Physical parameters and the truncated thermal field state."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, kw_only=True)
class ModelParams:
    """Coupling constants of the two-qubit + single-mode model.

    lam    : qubit-qubit coupling (angular frequency units), > 0
    k      : coupling ratio g / lam, >= 0; the engine is a function of k
             and tau = lam t alone
    """

    lam: float
    k: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ValueError(f"k must be finite and >= 0, got {self.k}")


@dataclass(frozen=True)
class ThermalField:
    """Single-mode thermal state truncated so the geometric tail is <= epsilon.

    weights[n] is the Bose-Einstein photon number probability
    nbar^n / (1+nbar)^(n+1) for n = 0 .. nmax.
    """

    nbar: float
    epsilon: float
    nmax: int
    weights: np.ndarray = field(repr=False)

    @property
    def tail_bound(self) -> float:
        """Exact probability mass dropped by the truncation."""
        return (self.nbar / (1.0 + self.nbar)) ** (self.nmax + 1)


def build_thermal(nbar: float, epsilon: float = 1e-10) -> ThermalField:
    """Construct the truncated thermal photon number distribution.

    nmax is the smallest index with tail (nbar/(1+nbar))^(nmax+1) <= epsilon;
    the tail of the geometric distribution is exact, so the stored weights
    sum to at least 1 - epsilon.
    """
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    if nbar / (1.0 + nbar) == 1.0:
        raise ValueError(f"nbar too large: nbar/(1+nbar) rounds to 1, got {nbar}")
    if not (math.isfinite(epsilon) and 0 < epsilon < 1):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")

    if nbar == 0.0:
        return ThermalField(nbar=0.0, epsilon=epsilon, nmax=0, weights=np.array([1.0]))

    q = nbar / (1.0 + nbar)
    # closed-form estimate, then correct for float rounding
    nmax = max(0, math.ceil(math.log(epsilon) / math.log(q)) - 1)
    while q ** (nmax + 1) > epsilon:
        nmax += 1
    while nmax > 0 and q**nmax <= epsilon:
        nmax -= 1

    # P_n = q^n / (1+nbar), a form that cannot overflow
    weights = np.power(q, np.arange(nmax + 1)) / (1.0 + nbar)
    return ThermalField(nbar=nbar, epsilon=epsilon, nmax=nmax, weights=weights)
