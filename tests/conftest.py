import numpy as np

from esdsim import StateSeries


def random_xstates(rng, n) -> StateSeries:
    """n random X states: Dirichlet populations, |rho23| uniform up to its
    bound sqrt(rho22 rho33), uniform phase."""
    pops = rng.dirichlet(np.ones(4), size=n)
    mag = np.sqrt(pops[:, 1] * pops[:, 2]) * rng.uniform(0, 1, n)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return StateSeries(
        rho11=pops[:, 0], rho22=pops[:, 1], rho33=pops[:, 2], rho44=pops[:, 3], rho23=mag * phase
    )
