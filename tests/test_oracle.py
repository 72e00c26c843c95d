import numpy as np
import pytest
from conftest import sector_basis_indices
from scipy.linalg import expm

from esdsim import ModelParams, build_thermal, sector_frequencies, two_qubit_states
from esdsim.oracle import HamiltonianMatrix, build_hamiltonians, reduced_two_qubit_series


def expm_reference(h, field, times):
    """Field-traced states from expm(-i h1 t) on the weighted |e g, n> start
    columns, shape (times, 4, 4); no eigendecomposition."""
    nf = h.fock_cutoff + 1
    start = nf + np.arange(field.nmax + 1)
    out = []
    for t in times:
        psi = expm(-1j * t * h.h1)[:, start]
        rho = (psi * field.weights) @ psi.conj().T
        out.append(np.trace(rho.reshape(4, nf, 4, nf), axis1=1, axis2=3))
    return np.array(out)


def kron_hamiltonian(params, fock_cutoff):
    """h1 from truncated ladder and Pauli matrices by Kronecker products."""
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])   # |e><g|
    sm, i2 = sp.T, np.eye(2)
    nf = fock_cutoff + 1
    a = np.diag(np.sqrt(np.arange(1.0, nf)), 1)
    idf = np.eye(nf)
    return params.lam * (
        np.kron(np.kron(sp, sm), idf) + np.kron(np.kron(sm, sp), idf)
    ) + params.g * (np.kron(np.kron(i2, sp), a) + np.kron(np.kron(i2, sm), a.T))


def qubit1_populations(series):
    """(rho_ee, rho_gg) of qubit 1 from the two-qubit series."""
    return series.rho11 + series.rho22, series.rho33 + series.rho44


def free_hamiltonian(fock_cutoff, omega=100.0):
    """H0 = omega (sz1/2 + sz2/2 + a+a) on the truncated space, from krons."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    i2 = np.eye(2, dtype=complex)
    idf = np.eye(fock_cutoff + 1, dtype=complex)
    number = np.diag(np.arange(fock_cutoff + 1)).astype(complex)
    return omega * (
        0.5 * np.kron(np.kron(sz, i2), idf)
        + 0.5 * np.kron(np.kron(i2, sz), idf)
        + np.kron(np.kron(i2, i2), number)
    )


@pytest.fixture(scope="module")
def weak_setup():
    params = ModelParams.from_k(10.0, 0.1)
    field = build_thermal(1.0, 1e-10)
    h = build_hamiltonians(params, field.nmax + 2)
    return params, field, h


class TestHamiltonian:
    def test_hermitian(self, weak_setup):
        _, _, h = weak_setup
        assert h.h1.dtype == np.float64
        assert np.abs(h.h1 - h.h1.T).max() == 0.0
        h0 = free_hamiltonian(h.fock_cutoff)
        assert np.abs(h0 - h0.conj().T).max() == 0.0

    @pytest.mark.parametrize("lam,g,cutoff", [
        (10.0, 1.0, 1), (10.0, 0.0, 2), (0.3, 7.5, 5), (1e-3, 2.0**-30, 40), (123.456, 0.1, 73),
    ])
    def test_matches_kron_formula(self, lam, g, cutoff):
        h = build_hamiltonians(ModelParams(lam=lam, g=g), cutoff)
        want = kron_hamiltonian(ModelParams(lam=lam, g=g), cutoff)
        assert h.h1.dtype == want.dtype and h.h1.shape == want.shape
        assert (h.h1 == want).all()

    def test_eigensystem_is_jordan_wielandt(self, weak_setup):
        _, _, h = weak_setup
        sigma, w = h.eigensystem()
        assert sigma.shape == (h.dim // 2,) and w.shape == (h.dim, h.dim // 2)
        assert (sigma >= 0).all()
        # h1 W = W diag(sigma): (u, v)/sqrt(2) is an eigenvector for +sigma
        scale = np.abs(h.h1).max()
        assert np.abs(h.h1 @ w - w * sigma).max() < 1e-12 * scale
        assert np.abs(w.T @ w - 2 * np.eye(h.dim // 2)).max() < 1e-12
        # and (u, -v)/sqrt(2) for -sigma
        flip = np.where(h.parity.ravel() == 0, 1.0, -1.0)[:, None]
        assert np.abs(h.h1 @ (flip * w) + flip * w * sigma).max() < 1e-12 * scale

    def test_decoupled_block_structure(self):
        p = ModelParams(lam=10.0, g=0.0)
        h = build_hamiltonians(p, 2)
        nf = 3
        # with g=0 every entry coupling different Fock levels vanishes
        h4 = h.h1.reshape(4, nf, 4, nf)
        for f1 in range(nf):
            for f2 in range(nf):
                if f1 != f2:
                    assert np.abs(h4[:, f1, :, f2]).max() == 0.0
        exchange = p.lam * np.array(
            [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=complex
        )
        assert np.allclose(h4[:, 0, :, 0], exchange)

    def test_commutes_with_h0_interior(self, weak_setup):
        _, _, h = weak_setup
        h0 = free_hamiltonian(h.fock_cutoff)
        comm = h0 @ h.h1 - h.h1 @ h0
        # boundary sectors feel the Fock truncation; exclude them
        nf = h.fock_cutoff + 1
        comm4 = comm.reshape(4, nf, 4, nf)[:, : nf - 1, :, : nf - 1]
        assert np.abs(comm4).max() < 1e-10

    def test_sector_spectrum(self):
        p = ModelParams(lam=10.0, g=1.0)
        h = build_hamiltonians(p, 25)
        for n in range(0, 21):
            idx = sector_basis_indices(n, h.fock_cutoff)
            block = h.h1[np.ix_(idx, idx)]
            ev = np.sort(np.linalg.eigvalsh(block))
            f = sector_frequencies(p, n)
            if n == 0:
                expected = np.sort([-f.omega_plus, 0.0, f.omega_plus])
            else:
                expected = np.sort(
                    [-f.omega_plus, -f.omega_minus, f.omega_minus, f.omega_plus]
                )
            assert np.abs(ev - expected).max() < 1e-10

    def test_cutoff_check(self, weak_setup):
        params, field, _ = weak_setup
        h_small = build_hamiltonians(params, field.nmax)
        with pytest.raises(ValueError, match="headroom"):
            reduced_two_qubit_series(h_small, field, [0.1])

    def test_off_x_detected(self, weak_setup):
        params, field, h = weak_setup
        # a transverse drive on qubit 1 breaks excitation conservation but
        # flips the parity, so it passes the parity check and shows as off-X
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        drive = np.kron(np.kron(sx, np.eye(2)), np.eye(h.fock_cutoff + 1))
        driven = HamiltonianMatrix(h1=h.h1 + 0.3 * params.lam * drive, fock_cutoff=h.fock_cutoff)
        with pytest.raises(ValueError, match="off-X"):
            reduced_two_qubit_series(driven, field, np.linspace(0, 2, 9))

    @pytest.mark.parametrize("op", [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],
                             ids=["detuning", "drive"])
    def test_parity_breaking_refused(self, weak_setup, op):
        params, field, h = weak_setup
        # sigma_z or sigma_x on qubit 2 keeps s1 and n, so it couples states
        # of the same parity
        extra = np.kron(np.kron(np.eye(2), op), np.eye(h.fock_cutoff + 1))
        broken = HamiltonianMatrix(h1=h.h1 + 0.3 * params.lam * extra, fock_cutoff=h.fock_cutoff)
        with pytest.raises(ValueError, match="parity"):
            reduced_two_qubit_series(broken, field, np.linspace(0, 2, 9))

    @pytest.mark.parametrize("name,p", [("even", 0), ("odd", 1)])
    def test_parity_check_is_exact_and_named(self, weak_setup, name, p):
        _, field, h = weak_setup
        a, b = np.flatnonzero(h.parity.ravel() == p)[[0, -1]]
        h1 = h.h1.copy()
        h1[a, b] = h1[b, a] = 1e-300
        broken = HamiltonianMatrix(h1=h1, fock_cutoff=h.fock_cutoff)
        with pytest.raises(ValueError, match=f"two {name}-parity states"):
            reduced_two_qubit_series(broken, field, [0.1])


class TestEvolve:
    def test_t0_returns_initial_state(self, weak_setup):
        _, field, h = weak_setup
        s = reduced_two_qubit_series(h, field, [0.0])
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = field.weights.sum()
        assert np.abs(s.matrix()[0] - expected).max() < 1e-14

    def test_state_invariants(self, weak_setup):
        _, field, h = weak_setup
        rho = reduced_two_qubit_series(h, field, [1.3]).matrix()[0]
        assert np.trace(rho).real == pytest.approx(1.0, abs=field.epsilon)
        assert np.linalg.eigvalsh(rho).min() > -1e-10


class TestPartialTraces:
    def test_t0_reduction(self, weak_setup):
        _, field, h = weak_setup
        s = reduced_two_qubit_series(h, field, [0.0])
        assert s.rho22[0] == pytest.approx(1.0, abs=1e-10)
        rho_ee, _ = qubit1_populations(s)
        assert rho_ee[0] == pytest.approx(1.0, abs=1e-10)

    def test_matches_analytic_engine(self, weak_setup):
        params, field, h = weak_setup
        times = [0.5, 2.0, 5.0]
        s_or = reduced_two_qubit_series(h, field, times)
        s_an = two_qubit_states(params, field, times)
        assert np.abs(s_or.matrix() - s_an.matrix()).max() < 1e-8
        for got, want in zip(qubit1_populations(s_or), qubit1_populations(s_an)):
            assert np.abs(got - want).max() < 1e-8

    @pytest.mark.parametrize("k", [0.1, 0.5])
    @pytest.mark.parametrize("nbar", [1.0, 10.0])
    def test_analytic_engine_reduces_the_same_truncated_state(self, k, nbar):
        # criterion 1's grid: both routes start from the thermal mix cut at
        # nmax, so they differ by rounding only, not by a truncation tail
        params, field = ModelParams.from_k(10.0, k), build_thermal(nbar)
        h = build_hamiltonians(params, field.nmax + 2)
        times = np.linspace(0.0, 2.0, 200)
        s_or = reduced_two_qubit_series(h, field, times)
        s_an = two_qubit_states(params, field, times)
        assert np.abs(s_or.matrix() - s_an.matrix()).max() <= 1e-13

    def test_decoupled_half_swap(self):
        p = ModelParams(lam=10.0, g=0.0)
        field = build_thermal(0.0)
        h = build_hamiltonians(p, 2)
        s = reduced_two_qubit_series(h, field, [np.pi / (4 * p.lam)])
        rho_ee, rho_gg = qubit1_populations(s)
        assert rho_ee[0] == pytest.approx(0.5, abs=1e-12)
        assert rho_gg[0] == pytest.approx(0.5, abs=1e-12)

    def test_series_matches_dense_route(self, weak_setup):
        _, field, h = weak_setup
        times = np.linspace(0, 2, 9)
        series = reduced_two_qubit_series(h, field, times)
        assert np.abs(series.matrix() - expm_reference(h, field, times)).max() < 1e-12

    @pytest.mark.parametrize("k,nbar", [(1e-6, 3.0), (0.3, 3.0)])
    def test_series_matches_expm(self, k, nbar):
        # k = 1e-6 makes the singular values nearly degenerate (all close to
        # lam); nbar = 3 starts from many kets |e g, n> of both parities
        params = ModelParams.from_k(10.0, k)
        field = build_thermal(nbar, 1e-10)
        h = build_hamiltonians(params, field.nmax + 2)
        times = np.array([0.0, 0.37, 1.9, 13.0])
        series = reduced_two_qubit_series(h, field, times)
        assert np.abs(series.matrix() - expm_reference(h, field, times)).max() < 1e-12

    def test_reductions_against_analytic_grid(self, weak_setup):
        params, field, h = weak_setup
        times = np.linspace(0, 2, 25)
        series = reduced_two_qubit_series(h, field, times)
        analytic = two_qubit_states(params, field, times)
        assert np.abs(series.matrix() - analytic.matrix()).max() < 1e-8
