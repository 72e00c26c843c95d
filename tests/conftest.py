import numpy as np

from esdsim import StateSeries
from esdsim.dynamics import SectorTable
from esdsim.model import ThermalField

# the amplitudes (C1, C2, C3, C4) reached from |e1, g2, n> are these phases
# times the real factors x_j: C1 and C3 lie an odd number of couplings from
# the start on the chain ee - eg - ge - gg
_PHASE = (1j, 1.0, -1j, 1.0)


def amplitude_table(params, nmax: int, times):
    """Amplitude arrays C_j[n, it] for n = 0 .. nmax over a time grid, from
    SectorTable's coefficient matrix at base 0: x = K T(lam t)."""
    times = np.asarray(times, dtype=float)
    field = ThermalField(nbar=0.0, epsilon=1.0, nmax=nmax, weights=np.ones(nmax + 1))
    table = SectorTable(params, field)
    x = table.coeffs @ table.basis(params.lam * times)
    return tuple(np.asarray(phase * x[:, j], dtype=complex) for j, phase in enumerate(_PHASE))


def random_xstates(rng, n) -> StateSeries:
    """n random X states: Dirichlet populations, |rho23| uniform up to its
    bound sqrt(rho22 rho33), uniform phase."""
    pops = rng.dirichlet(np.ones(4), size=n)
    mag = np.sqrt(pops[:, 1] * pops[:, 2]) * rng.uniform(0, 1, n)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return StateSeries(
        rho11=pops[:, 0], rho22=pops[:, 1], rho33=pops[:, 2], rho44=pops[:, 3], rho23=mag * phase
    )


def sector_basis_indices(n: int, fock_cutoff: int) -> list[int]:
    """Flat indices of {|ee,n-1>, |eg,n>, |ge,n>, |gg,n+1>} in the oracle's
    qubit1 x qubit2 x Fock basis; n=0 drops the first."""
    nf = fock_cutoff + 1
    idx = []
    if n >= 1:
        idx.append(0 * nf + (n - 1))   # |e e, n-1>
    idx.append(1 * nf + n)             # |e g, n>
    idx.append(2 * nf + n)             # |g e, n>
    idx.append(3 * nf + (n + 1))       # |g g, n+1>
    return idx


def dense_entries(h):
    """The dense dim x dim matrix of a HamiltonianMatrix's entries, H / h.lam."""
    h1 = np.zeros((h.dim, h.dim))
    h1[h.row, h.col] = h.val
    return h1


def dense_h1(h):
    """The dense dim x dim H = h.lam x its entries."""
    return h.lam * dense_entries(h)


def dense_w(h):
    """sigma and the dense dim x m W of h.eigensystem()'s stacks, columns in
    stack order: each block's singular pairs (u; v), then its null vectors
    (u; 0) and (0; v)."""
    stacks = h.eigensystem()
    sigma = np.concatenate([s.ravel() for _, s, _ in stacks])
    w = np.zeros((h.dim, sigma.size))
    col = 0
    for rows, s, wb in stacks:
        cols = col + np.arange(s.size).reshape(s.shape)
        w[rows[:, :, None], cols[:, None, :]] = wb
        col += s.size
    return sigma, w


def hamiltonian_from_dense(h1, fock_cutoff):
    """The HamiltonianMatrix of a dense h1's nonzero entries, at lam = 1."""
    from esdsim.oracle import HamiltonianMatrix

    row, col = np.nonzero(h1)
    return HamiltonianMatrix(row=row, col=col, val=h1[row, col], fock_cutoff=fock_cutoff, lam=1.0)
