"""Entanglement, coherence, inversion and purity quantifiers; Lambda is
dynamics.separability, the one definition that root refinement reads too."""

from __future__ import annotations

import numpy as np

from .dynamics import StateSeries, separability


def observable_columns(series: StateSeries) -> dict[str, np.ndarray]:
    """Every scalar observable over a series, keyed by its CLI name.

    inversion and entropy belong to qubit 1 (qubit 2 and the field traced
    out): W = rho_ee - rho_gg and the purity deficit 1 - rho_ee^2 - rho_gg^2.
    At any trace <= 1, |W| <= 1 and the deficit is >= 0, so the clips only
    remove rounding; the deficit may exceed 1/2 by the truncation deficit.
    """
    lam_fn = separability(series.rho11, series.rho44, series.rho23)
    rho_ee = series.rho11 + series.rho22
    rho_gg = series.rho33 + series.rho44
    return {
        "concurrence": np.maximum(0.0, lam_fn),
        "lambda": lam_fn,
        "coherence": 2.0 * np.abs(series.rho23),  # l1: sum of off-diagonal magnitudes
        "inversion": np.clip(rho_ee - rho_gg, -1.0, 1.0),
        "entropy": np.maximum(0.0, 1.0 - rho_ee**2 - rho_gg**2),
    }
