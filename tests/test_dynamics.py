import numpy as np
import pytest
from scipy.linalg import expm

from esdsim import (
    ModelParams,
    StateSeries,
    build_thermal,
    sector_frequencies,
    two_qubit_states,
)
from esdsim.model import ThermalField
from esdsim.dynamics import _BLOCK, amplitude_table


def sector_hamiltonian(params, n):
    """4x4 Hamiltonian of the coupled amplitude equations, oracle-side."""
    a = params.g * np.sqrt(n)
    b = params.g * np.sqrt(n + 1)
    lam = params.lam
    return np.array(
        [[0, a, 0, 0], [a, 0, lam, 0], [0, lam, 0, b], [0, 0, b, 0]], dtype=float
    )


def amplitudes(params, n, t):
    """(C1, C2, C3, C4) of sector n at time t: column 1 of the sector propagator."""
    return np.array([c[n, 0] for c in amplitude_table(params, n, np.array([t]))])


class TestModelParams:
    def test_k_ratio(self):
        p = ModelParams(lam=10.0, g=5.0)
        assert p.k == 0.5
        assert ModelParams.from_k(10.0, 0.1).g == pytest.approx(1.0)

    def test_rejects_bad_couplings(self):
        with pytest.raises(ValueError):
            ModelParams(lam=0.0, g=1.0)
        with pytest.raises(ValueError):
            ModelParams(lam=1.0, g=-1.0)


class TestSectorFrequencies:
    def test_n0_weak_coupling(self):
        f = sector_frequencies(ModelParams.from_k(10.0, 0.1), 0)
        assert f.omega_minus == 0.0
        assert f.omega_plus == pytest.approx(10.0 * np.sqrt(1.01), rel=1e-14)

    def test_decoupled_field(self):
        p = ModelParams(lam=10.0, g=0.0)
        for n in [0, 1, 7]:
            f = sector_frequencies(p, n)
            assert f.omega_plus == pytest.approx(10.0, rel=1e-14)
            assert f.omega_minus == pytest.approx(0.0, abs=1e-12)
            assert f.r == pytest.approx(100.0, rel=1e-14)

    def test_beta_value_example(self):
        f = sector_frequencies(ModelParams.from_k(10.0, 0.5), 1)
        assert f.beta == pytest.approx(np.sqrt(1.25**2 + 1.0), rel=1e-14)

    def test_matches_sector_spectrum(self):
        p = ModelParams.from_k(10.0, 0.5)
        for n in [1, 2, 5]:
            f = sector_frequencies(p, n)
            ev = np.sort(np.linalg.eigvalsh(sector_hamiltonian(p, n)))
            expected = np.sort([-f.omega_plus, -f.omega_minus, f.omega_minus, f.omega_plus])
            assert np.allclose(ev, expected, atol=1e-10)

    @pytest.mark.parametrize("k", [1e-8, 1e-6, 1e-4, 0.5])
    @pytest.mark.parametrize("n", [1, 10, 10**4])
    def test_omega_minus_high_precision(self, k, n):
        mpmath = pytest.importorskip("mpmath")
        p = ModelParams.from_k(10.0, k)
        with mpmath.workdps(60):
            k2 = mpmath.mpf(p.k) ** 2
            alpha = 1 + (2 * n + 1) * k2
            beta = mpmath.sqrt((1 + k2) ** 2 + 4 * n * k2)
            want = mpmath.mpf(p.lam) / mpmath.sqrt(2) * mpmath.sqrt(alpha - beta)
            got = mpmath.mpf(float(sector_frequencies(p, n).omega_minus))
            assert abs(got - want) / want <= 1e-14

    def test_array_of_sectors_matches_scalars(self):
        p = ModelParams.from_k(10.0, 0.3)
        n = np.arange(40)
        f = sector_frequencies(p, n)
        for m in n:
            g = sector_frequencies(p, int(m))
            assert (f.omega_plus[m], f.omega_minus[m], f.r[m]) == (
                g.omega_plus, g.omega_minus, g.r)

    @pytest.mark.parametrize("k", [0.05, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [0, 1, 3, 10, 100])
    def test_frequency_identities(self, k, n):
        p = ModelParams.from_k(10.0, k)
        f = sector_frequencies(p, n)
        lam2 = p.lam**2
        assert f.omega_plus >= f.omega_minus >= 0
        assert f.omega_plus**2 + f.omega_minus**2 == pytest.approx(lam2 * f.alpha, rel=1e-12)
        assert f.omega_plus**2 * f.omega_minus**2 == pytest.approx(
            ((lam2 * f.alpha) ** 2 - (lam2 * f.beta) ** 2) / 4, rel=1e-12, abs=1e-9
        )


class TestSectorPropagator:
    def test_identity_at_t0(self):
        c = amplitudes(ModelParams.from_k(10.0, 0.5), 3, 0.0)
        assert np.allclose(c, [0, 1, 0, 0], atol=1e-14)

    def test_decoupled_is_rabi_rotation(self):
        p = ModelParams(lam=10.0, g=0.0)
        t = 0.37
        c = amplitudes(p, 4, t)
        assert np.allclose(c, [0, np.cos(p.lam * t), -1j * np.sin(p.lam * t), 0], atol=1e-12)
        # agrees with the 2x2 matrix exponential embedded in the block
        block = expm(-1j * p.lam * np.array([[0, 1], [1, 0]]) * t)
        assert np.allclose(c[1:3], block[:, 0], atol=1e-12)

    def test_matches_matrix_exponential(self):
        p = ModelParams.from_k(10.0, 0.5)
        expected = expm(-1j * sector_hamiltonian(p, 2) * 0.3)[:, 1]
        assert np.abs(amplitudes(p, 2, 0.3) - expected).max() < 1e-9

    def test_unitarity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = ModelParams.from_k(10.0, rng.uniform(0.0, 1.5))
            n = int(rng.integers(0, 60))
            t = rng.uniform(0.0, 5.0)
            c = amplitudes(p, n, t)
            assert abs(np.vdot(c, c) - 1.0) < 1e-10
            expected = expm(-1j * sector_hamiltonian(p, n) * t)[:, 1]
            assert np.abs(c - expected).max() < 1e-9


class TestSectorAmplitudes:
    def test_initial_condition(self):
        c1, c2, c3, c4 = amplitudes(ModelParams.from_k(10.0, 0.3), 5, 0.0)
        assert c1 == 0 and c3 == 0 and c4 == 0
        assert c2 == pytest.approx(1.0, abs=1e-14)

    def test_n0_has_no_c1(self):
        p = ModelParams.from_k(10.0, 0.7)
        for t in np.linspace(0, 3, 17):
            assert amplitudes(p, 0, t)[0] == 0

    def test_rabi_half_swap(self):
        p = ModelParams(lam=10.0, g=0.0)
        c1, c2, c3, c4 = amplitudes(p, 0, np.pi / (2 * p.lam))
        assert abs(c1) < 1e-12 and abs(c2) < 1e-12 and abs(c4) < 1e-12
        assert c3 == pytest.approx(-1j, abs=1e-12)

    def test_matches_ode_integration(self):
        from scipy.integrate import solve_ivp

        p = ModelParams.from_k(10.0, 0.1)
        n, t = 3, 1.7
        h = sector_hamiltonian(p, n)
        sol = solve_ivp(
            lambda _, y: -1j * h @ y,
            (0.0, t),
            np.array([0, 1, 0, 0], dtype=complex),
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        assert np.abs(amplitudes(p, n, t) - sol.y[:, -1]).max() < 1e-9

    def test_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = ModelParams.from_k(10.0, rng.uniform(0, 1.2))
            c = amplitudes(p, int(rng.integers(0, 100)), rng.uniform(0, 4))
            assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-10)


class TestTwoQubitState:
    def test_initial_product_state(self):
        p = ModelParams.from_k(10.0, 0.3)
        s = two_qubit_states(p, build_thermal(1.0), 0.0)
        assert len(s) == 1
        assert s.rho22[0] == pytest.approx(1.0, abs=1e-9)
        assert s.rho11[0] == s.rho33[0] == s.rho44[0] == 0.0
        assert s.rho23[0] == 0.0

    def test_decoupled_closed_form(self):
        p = ModelParams(lam=10.0, g=0.0)
        f = build_thermal(0.0)
        t = np.array([0.11, 0.9, 2.3])
        s = two_qubit_states(p, f, t)
        assert np.abs(s.rho22 - np.cos(p.lam * t) ** 2).max() <= 1e-12
        assert np.abs(s.rho33 - np.sin(p.lam * t) ** 2).max() <= 1e-12
        assert np.abs(s.rho23 - 1j * np.cos(p.lam * t) * np.sin(p.lam * t)).max() <= 1e-12
        assert np.all(s.rho11 == 0.0) and np.all(s.rho44 == 0.0)
        # pure state: rho^2 = rho
        rho = s.matrix()
        assert np.abs(rho @ rho - rho).max() < 1e-12

    def test_thermal_trace_closure(self):
        p = ModelParams.from_k(10.0, 0.5)
        f = build_thermal(1.0, 1e-10)
        s = two_qubit_states(p, f, np.linspace(0, 2, 50))
        trace = s.rho11 + s.rho22 + s.rho33 + s.rho44
        assert np.all(trace >= 1.0 - f.epsilon)
        assert np.all(trace <= 1.0 + 1e-12)
        assert np.all(np.abs(s.rho23) ** 2 <= s.rho22 * s.rho33 + 1e-10)

    def test_blocks_match_pointwise(self):
        p = ModelParams.from_k(10.0, 0.5)
        f = build_thermal(10.0)
        times = np.linspace(0.0, 2.0, 2 * _BLOCK + 3)
        series = two_qubit_states(p, f, times)
        assert len(series) == times.size
        pointwise = np.array([two_qubit_states(p, f, [t]).matrix()[0] for t in times])
        assert np.abs(series.matrix() - pointwise).max() <= 1e-15

    def test_series_rejects_what_the_state_rejects(self):
        ok = dict(rho11=np.zeros(2), rho22=np.ones(2), rho33=np.zeros(2),
                  rho44=np.zeros(2), rho23=np.zeros(2, dtype=complex))
        s = StateSeries(**dict(ok, rho11=np.array([0.0, -1e-14])))
        assert s.rho11[1] == 0.0
        with pytest.raises(ValueError):
            StateSeries(**dict(ok, rho44=np.array([0.0, -1e-6])))
        with pytest.raises(ValueError):
            StateSeries(**dict(ok, rho33=np.full(2, 0.3), rho23=np.array([0.0, 0.6 + 0j])))

    def test_monotone_truncation(self):
        p = ModelParams.from_k(10.0, 0.5)
        eps = 1e-8
        f1 = build_thermal(1.0, eps)
        n2 = 2 * f1.nmax
        w2 = np.array([f1.weight(n) for n in range(n2 + 1)])
        f2 = ThermalField(nbar=1.0, epsilon=eps, nmax=n2, weights=w2)
        times = np.linspace(0, 2, 20)
        a = two_qubit_states(p, f1, times).matrix()
        b = two_qubit_states(p, f2, times).matrix()
        assert np.abs(a - b).max() <= eps
