import numpy as np

from esdsim import SectorTable, StateSeries, esd_intervals, observable_columns, sector_frequencies
from esdsim.cli import _write_outputs
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
    """sigma and the dense dim x m W of h.eigensystem()'s one stack, columns
    in stack order: each block's S columns (u; v) of its square SVD, 0 on
    the rows padded to S, so a null vector of B is (u; 0) or (0; v) and a
    column on padded rows alone is 0."""
    rows, sigma, wb = h.eigensystem()
    cols = np.arange(sigma.size).reshape(sigma.shape)
    b, a = np.nonzero(rows >= 0)
    w = np.zeros((h.dim, sigma.size))
    w[rows[b, a, None], cols[b]] = wb[b, a]
    return sigma.ravel(), w


def hamiltonian_from_dense(h1, fock_cutoff):
    """The HamiltonianMatrix of a dense h1's nonzero entries, at lam = 1."""
    from esdsim.oracle import HamiltonianMatrix

    row, col = np.nonzero(h1)
    return HamiltonianMatrix(row=row, col=col, val=h1[row, col], fock_cutoff=fock_cutoff, lam=1.0)


def dense(series):
    """Dense density matrices of a StateSeries, shape (len, 4, 4)."""
    rho = np.zeros((len(series), 4, 4), dtype=complex)
    for j, name in enumerate(("rho11", "rho22", "rho33", "rho44")):
        rho[:, j, j] = getattr(series, name)
    rho[:, 1, 2] = series.rho23
    rho[:, 2, 1] = np.conj(series.rho23)
    return rho


def scan(params, field, t0, t1, n):
    """The ESD intervals of [t0, t1] on an n-point grid, as run --detect-events finds them."""
    table = SectorTable(params, field)
    times = np.linspace(t0, t1, n)
    return esd_intervals(table, times, observable_columns(table.series(times))["lambda"])


def write_output(config, evaluation):
    """The RunResult of writing a valid config's output from the evaluation
    of its physics, as a group of one."""
    [result] = _write_outputs([config], evaluation)
    return result


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
    """Spin-flip concurrence (Wootters, PRL 80, 2245, 1998) of dense
    two-qubit density matrices, shape (..., 4, 4), from the eigenvalues of
    rho (sy x sy) rho* (sy x sy).

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


def inversion_closed(params, field, t: float) -> float:
    """The paper's closed-form inversion as a cosine series over sectors; needs k > 0.

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
