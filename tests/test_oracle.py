import numpy as np
import pytest

from esdsim import (
    ModelParams,
    build_thermal,
    qubit1_reduce,
    sector_frequencies,
    two_qubit_state,
    two_qubit_states,
)
from esdsim.oracle import (
    build_hamiltonians,
    evolve,
    partial_trace_field,
    partial_trace_to_qubit1,
    reduced_two_qubit_series,
    sector_basis_indices,
)


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
        assert np.abs(h.h1 - h.h1.conj().T).max() == 0.0
        h0 = free_hamiltonian(h.fock_cutoff)
        assert np.abs(h0 - h0.conj().T).max() == 0.0

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
            evolve(h_small, field, 0.1)


class TestEvolve:
    def test_t0_returns_initial_state(self, weak_setup):
        _, field, h = weak_setup
        state = evolve(h, field, 0.0)
        nf = h.fock_cutoff + 1
        expected = np.zeros((h.dim, h.dim), dtype=complex)
        for n in range(field.nmax + 1):
            expected[nf + n, nf + n] = field.weights[n]
        assert np.abs(state.rho - expected).max() < 1e-14

    def test_state_invariants(self, weak_setup):
        _, field, h = weak_setup
        state = evolve(h, field, 1.3)
        assert np.abs(state.rho - state.rho.conj().T).max() < 1e-12
        assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(state.rho).min() > -1e-10

    def test_sector_purity_preserved(self, weak_setup):
        params, _, h = weak_setup
        # a single Fock component evolves as a pure state
        from esdsim.model import ThermalField

        single = ThermalField(nbar=0.0, epsilon=1e-12, nmax=0, weights=np.array([1.0]))
        state = evolve(h, single, 2.1)
        purity = np.trace(state.rho @ state.rho).real
        assert purity == pytest.approx(1.0, abs=1e-12)

    def test_excitation_conserved(self, weak_setup):
        _, field, h = weak_setup
        nf = h.fock_cutoff + 1
        num_q = np.diag([1.0, 0.0]).astype(complex)
        num_f = np.diag(np.arange(nf)).astype(complex)
        i2, idf = np.eye(2, dtype=complex), np.eye(nf, dtype=complex)
        n_tot = (
            np.kron(np.kron(num_q, i2), idf)
            + np.kron(np.kron(i2, num_q), idf)
            + np.kron(np.kron(i2, i2), num_f)
        )
        ref = np.trace(n_tot @ evolve(h, field, 0.0).rho).real
        for t in [0.4, 1.1, 3.0]:
            val = np.trace(n_tot @ evolve(h, field, t).rho).real
            assert val == pytest.approx(ref, abs=1e-10)


class TestPartialTraces:
    def test_t0_reduction(self, weak_setup):
        _, field, h = weak_setup
        s = partial_trace_field(evolve(h, field, 0.0))
        assert s.rho22 == pytest.approx(1.0, abs=1e-10)
        q1 = partial_trace_to_qubit1(evolve(h, field, 0.0))
        assert q1.rho_ee == pytest.approx(1.0, abs=1e-10)

    def test_matches_analytic_engine(self, weak_setup):
        params, field, h = weak_setup
        for t in [0.5, 2.0, 5.0]:
            tri = evolve(h, field, t)
            s_or = partial_trace_field(tri)
            s_an = two_qubit_state(params, field, t)
            assert np.abs(s_or.matrix() - s_an.matrix()).max() < 1e-8
            q_or = partial_trace_to_qubit1(tri)
            q_an = qubit1_reduce(s_an)
            assert q_or.rho_ee == pytest.approx(q_an.rho_ee, abs=1e-8)
            assert q_or.rho_gg == pytest.approx(q_an.rho_gg, abs=1e-8)

    def test_decoupled_half_swap(self):
        p = ModelParams(lam=10.0, g=0.0)
        field = build_thermal(0.0)
        h = build_hamiltonians(p, 2)
        q1 = partial_trace_to_qubit1(evolve(h, field, np.pi / (4 * p.lam)))
        assert q1.rho_ee == pytest.approx(0.5, abs=1e-12)
        assert q1.rho_gg == pytest.approx(0.5, abs=1e-12)

    def test_series_matches_dense_route(self, weak_setup):
        params, field, h = weak_setup
        times = np.linspace(0, 2, 9)
        series = reduced_two_qubit_series(h, field, times)
        for t, s in zip(times, series):
            dense = partial_trace_field(evolve(h, field, float(t)))
            assert np.abs(s.matrix() - dense.matrix()).max() < 1e-12

    def test_reductions_against_analytic_grid(self, weak_setup):
        params, field, h = weak_setup
        times = np.linspace(0, 2, 25)
        series = reduced_two_qubit_series(h, field, times)
        analytic = two_qubit_states(params, field, times)
        worst = max(
            np.abs(a.matrix() - b.matrix()).max() for a, b in zip(series, analytic)
        )
        assert worst < 1e-8
