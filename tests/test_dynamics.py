import math
import tracemalloc

import numpy as np
import pytest
from conftest import amplitude_table, dense
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from esdsim import (
    ModelParams,
    StateSeries,
    build_thermal,
    sector_frequencies,
    two_qubit_states,
)
from esdsim.cli import RunConfig, preset_config
from esdsim.dynamics import _BLOCK, _CHUNK, SectorTable, linspace_trig
from esdsim.model import ThermalField
from esdsim.observables import separability


def sector_hamiltonian(params, n):
    """4x4 Hamiltonian of the coupled amplitude equations, oracle-side."""
    a = params.k * params.lam * np.sqrt(n)
    b = params.k * params.lam * np.sqrt(n + 1)
    lam = params.lam
    return np.array(
        [[0, a, 0, 0], [a, 0, lam, 0], [0, lam, 0, b], [0, 0, b, 0]], dtype=float
    )


def entries_mp(mp, params, field, t):
    """(rho11, rho22, rho33, rho44, c) with rho23 = i c, from the same truncated
    sector sums, weights and float inputs as SectorTable, at mpf time t and
    the working precision, from the closed-form propagator factors."""
    lam = mp.mpf(params.lam)
    g = mp.mpf(params.k) * lam
    k2 = (g / lam) ** 2
    rho = [mp.mpf(0)] * 5
    for n, w in enumerate(map(mp.mpf, field.weights)):
        a, b = g * mp.sqrt(n), g * mp.sqrt(n + 1)
        alpha = 1 + (2 * n + 1) * k2
        beta = mp.sqrt((1 + k2) ** 2 + 4 * n * k2)
        r = lam**2 * beta
        wp = lam / mp.sqrt(2) * mp.sqrt(alpha + beta)
        wm = lam / mp.sqrt(2) * mp.sqrt(4 * n * (n + 1) * k2**2 / (alpha + beta))
        sinc_m = mp.sin(wm * t) / wm if wm else t
        x1 = a * ((b**2 - wp**2) * mp.sin(wp * t) / wp - (b**2 - wm**2) * sinc_m) / r
        x2 = ((wp**2 - b**2) * mp.cos(wp * t) - (wm**2 - b**2) * mp.cos(wm * t)) / r
        x3 = lam * (wp * mp.sin(wp * t) - wm * mp.sin(wm * t)) / r
        x4 = lam * b * (mp.cos(wp * t) - mp.cos(wm * t)) / r
        for j, term in enumerate((x1**2, x2**2, x3**2, x4**2, x2 * x3)):
            rho[j] += w * term
    return rho


def lambda_mp(params, field, t, dps=40):
    """Lambda(t) from entries_mp at dps digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        rho11, _, _, rho44, c = entries_mp(mp, params, field, mp.mpf(float(t)))
        return 2 * abs(c) - 2 * mp.sqrt(rho11 * rho44)


def slope_mp(params, field, t, dps=40):
    """f'(t) of f = |rho23|^2 - rho11 rho44, by mpmath.diff of f from entries_mp at dps digits."""
    mp = pytest.importorskip("mpmath")

    def f(tau):
        rho11, _, _, rho44, c = entries_mp(mp, params, field, tau)
        return c**2 - rho11 * rho44

    with mp.workdps(dps):
        return mp.diff(f, mp.mpf(float(t)))


def preset_lambda(name, rows):
    """Lambda of preset name's grid series at the given rows, float and mpmath."""
    cfg = preset_config(name)
    params, field = cfg.params(), build_thermal(cfg.nbar, cfg.epsilon)
    times = np.linspace(cfg.t0, cfg.t1, cfg.steps)
    got = separability(two_qubit_states(params, field, times))[rows]
    return got, [float(lambda_mp(params, field, t)) for t in times[rows]]


def amplitudes(params, n, t):
    """(C1, C2, C3, C4) of sector n at time t: column 1 of the sector propagator."""
    return np.array([c[n, 0] for c in amplitude_table(params, n, np.array([t]))])


class TestModelParams:
    def test_k_ratio(self):
        # k is held as given
        p = ModelParams(lam=10.0, k=0.5)
        assert p.k == 0.5

    def test_rejects_bad_couplings(self):
        with pytest.raises(ValueError, match="lam must be"):
            ModelParams(lam=0.0, k=0.1)
        with pytest.raises(ValueError, match="k must be finite and >= 0, got -0.1"):
            ModelParams(lam=1.0, k=-0.1)
        with pytest.raises(ValueError, match="k must be finite"):
            ModelParams(lam=1.0, k=math.inf)

    def test_keyword_only(self):
        # a positional call must not silently read a (lam, g) pair as (lam, k)
        with pytest.raises(TypeError):
            ModelParams(10.0, 5.0)


class TestSectorFrequencies:
    """sector_frequencies(k, n) is in units of lam; lam times it is compared."""

    def test_n0_weak_coupling(self):
        f = sector_frequencies(0.1, 0)
        assert f.omega_minus == 0.0
        assert 10.0 * f.omega_plus == pytest.approx(10.0 * np.sqrt(1.01), rel=1e-14)

    def test_decoupled_field(self):
        for n in [0, 1, 7]:
            f = sector_frequencies(0.0, n)
            assert 10.0 * f.omega_plus == pytest.approx(10.0, rel=1e-14)
            assert 10.0 * f.omega_minus == pytest.approx(0.0, abs=1e-12)
            assert 10.0**2 * f.beta == pytest.approx(100.0, rel=1e-14)

    def test_beta_value_example(self):
        f = sector_frequencies(0.5, 1)
        assert f.beta == pytest.approx(np.sqrt(1.25**2 + 1.0), rel=1e-14)

    def test_matches_sector_spectrum(self):
        p = ModelParams(lam=10.0, k=0.5)
        for n in [1, 2, 5]:
            f = sector_frequencies(p.k, n)
            wp, wm = p.lam * f.omega_plus, p.lam * f.omega_minus
            ev = np.sort(np.linalg.eigvalsh(sector_hamiltonian(p, n)))
            assert np.allclose(ev, np.sort([-wp, -wm, wm, wp]), atol=1e-10)

    @pytest.mark.parametrize("k", [1e-8, 1e-6, 1e-4, 0.5])
    @pytest.mark.parametrize("n", [1, 10, 10**4])
    def test_omega_minus_high_precision(self, k, n):
        mpmath = pytest.importorskip("mpmath")
        p = ModelParams(lam=10.0, k=k)
        with mpmath.workdps(60):
            k2 = mpmath.mpf(p.k) ** 2
            alpha = 1 + (2 * n + 1) * k2
            beta = mpmath.sqrt((1 + k2) ** 2 + 4 * n * k2)
            want = mpmath.mpf(p.lam) / mpmath.sqrt(2) * mpmath.sqrt(alpha - beta)
            got = mpmath.mpf(p.lam) * mpmath.mpf(float(sector_frequencies(p.k, n).omega_minus))
            assert abs(got - want) / want <= 1e-14

    def test_array_of_sectors_matches_scalars(self):
        n = np.arange(40)
        f = sector_frequencies(0.3, n)
        for m in n:
            g = sector_frequencies(0.3, int(m))
            assert (f.omega_plus[m], f.omega_minus[m], f.beta[m]) == (
                g.omega_plus, g.omega_minus, g.beta)

    @pytest.mark.parametrize("k", [0.05, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [0, 1, 3, 10, 100])
    def test_frequency_identities(self, k, n):
        p = ModelParams(lam=10.0, k=k)
        f = sector_frequencies(p.k, n)
        wp, wm = p.lam * f.omega_plus, p.lam * f.omega_minus
        lam2 = p.lam**2
        assert wp >= wm >= 0
        assert wp**2 + wm**2 == pytest.approx(lam2 * f.alpha, rel=1e-12)
        assert wp**2 * wm**2 == pytest.approx(
            ((lam2 * f.alpha) ** 2 - (lam2 * f.beta) ** 2) / 4, rel=1e-12, abs=1e-9
        )


class TestSectorPropagator:
    def test_identity_at_t0(self):
        c = amplitudes(ModelParams(lam=10.0, k=0.5), 3, 0.0)
        assert np.allclose(c, [0, 1, 0, 0], atol=1e-14)

    def test_decoupled_is_rabi_rotation(self):
        p = ModelParams(lam=10.0, k=0.0)
        t = 0.37
        c = amplitudes(p, 4, t)
        assert np.allclose(c, [0, np.cos(p.lam * t), -1j * np.sin(p.lam * t), 0], atol=1e-12)
        # agrees with the 2x2 matrix exponential embedded in the block
        block = expm(-1j * p.lam * np.array([[0, 1], [1, 0]]) * t)
        assert np.allclose(c[1:3], block[:, 0], atol=1e-12)

    def test_matches_matrix_exponential(self):
        p = ModelParams(lam=10.0, k=0.5)
        expected = expm(-1j * sector_hamiltonian(p, 2) * 0.3)[:, 1]
        assert np.abs(amplitudes(p, 2, 0.3) - expected).max() < 1e-9

    def test_unitarity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = ModelParams(lam=10.0, k=rng.uniform(0.0, 1.5))
            n = int(rng.integers(0, 60))
            t = rng.uniform(0.0, 5.0)
            c = amplitudes(p, n, t)
            assert abs(np.vdot(c, c) - 1.0) < 1e-10
            expected = expm(-1j * sector_hamiltonian(p, n) * t)[:, 1]
            assert np.abs(c - expected).max() < 1e-9

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(log_k=st.floats(-8.0, 6.0), n=st.integers(0, 10**5))
    @example(log_k=3.0, n=10**5)   # K's differences lost ~1e5 ulp here
    def test_constants_match_40_digit_sector_evolution(self, log_k, n):
        # x(tau) = K T(tau) and w+- of sector n against a 40-digit eigsy and
        # expm of the sector's own H_n / lam, entries 1, k sqrt(n), k sqrt(n+1),
        # at tau <= 1/w+, where the phases are at most 1 and round by ~1 ulp;
        # each factor sums four terms of size <= max|K|, so it is held to
        # 4 ulp of max|K|, and w+- to 2 ulp of themselves (down to the
        # reference's 40 digits of w+, where w- is 0)
        mp = pytest.importorskip("mpmath")
        k, eps = 10.0**log_k, np.finfo(float).eps
        field = ThermalField(nbar=0.0, epsilon=1.0, nmax=n, weights=np.ones(n + 1))
        table = SectorTable(ModelParams(lam=1.0, k=k), field)
        coeffs, f = table.coeffs[n], table.freqs
        with mp.workdps(40):
            a, b = mp.mpf(k) * mp.sqrt(n), mp.mpf(k) * mp.sqrt(n + 1)
            h = mp.matrix([[0, a, 0, 0], [a, 0, 1, 0], [0, 1, 0, b], [0, 0, b, 0]])
            # the spectrum is -w+, -w-, w-, w+
            _, _, wm, wp = sorted(mp.eigsy(h, eigvals_only=True))
            for got, want in ((f.omega_plus[n], wp), (f.omega_minus[n], wm)):
                assert abs(got - want) <= 2 * eps * abs(want) + 1e-38 * wp
            for tau in np.array([0.1, 0.5, 1.0]) / f.omega_plus[n]:
                # (C1, C2, C3, C4) = (i x1, x2, -i x3, x4) from |e1 g2, n>
                c = mp.expm(-1j * h * mp.mpf(tau))[:, 1]
                want = [float(mp.im(c[0])), float(mp.re(c[1])), -float(mp.im(c[2])),
                        float(mp.re(c[3]))]
                got = coeffs @ table.basis(np.array(tau))[n]
                assert np.abs(got - want).max() <= 4 * eps * np.abs(coeffs).max()


class TestSectorAmplitudes:
    def test_initial_condition(self):
        c1, c2, c3, c4 = amplitudes(ModelParams(lam=10.0, k=0.3), 5, 0.0)
        assert c1 == 0 and c3 == 0 and c4 == 0
        assert c2 == pytest.approx(1.0, abs=1e-14)

    def test_n0_has_no_c1(self):
        p = ModelParams(lam=10.0, k=0.7)
        for t in np.linspace(0, 3, 17):
            assert amplitudes(p, 0, t)[0] == 0

    def test_rabi_half_swap(self):
        p = ModelParams(lam=10.0, k=0.0)
        c1, c2, c3, c4 = amplitudes(p, 0, np.pi / (2 * p.lam))
        assert abs(c1) < 1e-12 and abs(c2) < 1e-12 and abs(c4) < 1e-12
        assert c3 == pytest.approx(-1j, abs=1e-12)

    def test_matches_ode_integration(self):
        from scipy.integrate import solve_ivp

        p = ModelParams(lam=10.0, k=0.1)
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
            p = ModelParams(lam=10.0, k=rng.uniform(0, 1.2))
            c = amplitudes(p, int(rng.integers(0, 100)), rng.uniform(0, 4))
            assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-10)


class TestTwoQubitState:
    def test_initial_product_state(self):
        p = ModelParams(lam=10.0, k=0.3)
        s = two_qubit_states(p, build_thermal(1.0), 0.0)
        assert len(s) == 1
        assert s.rho22[0] == pytest.approx(1.0, abs=1e-9)
        assert s.rho11[0] == s.rho33[0] == s.rho44[0] == 0.0
        assert s.rho23[0] == 0.0

    def test_decoupled_closed_form(self):
        p = ModelParams(lam=10.0, k=0.0)
        f = build_thermal(0.0)
        t = np.array([0.11, 0.9, 2.3])
        s = two_qubit_states(p, f, t)
        assert np.abs(s.rho22 - np.cos(p.lam * t) ** 2).max() <= 1e-12
        assert np.abs(s.rho33 - np.sin(p.lam * t) ** 2).max() <= 1e-12
        assert np.abs(s.rho23 - 1j * np.cos(p.lam * t) * np.sin(p.lam * t)).max() <= 1e-12
        assert np.all(s.rho11 == 0.0) and np.all(s.rho44 == 0.0)
        # pure state: rho^2 = rho
        rho = dense(s)
        assert np.abs(rho @ rho - rho).max() < 1e-12

    def test_thermal_trace_closure(self):
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(1.0, 1e-10)
        s = two_qubit_states(p, f, np.linspace(0, 2, 50))
        trace = s.rho11 + s.rho22 + s.rho33 + s.rho44
        assert np.all(trace >= 1.0 - f.epsilon)
        assert np.all(trace <= 1.0 + 1e-12)
        assert np.all(np.abs(s.rho23) ** 2 <= s.rho22 * s.rho33 + 1e-10)

    @pytest.mark.parametrize("k,nbar", [(0.1, 1.0), (0.5, 10.0)])  # fig1a, fig2d
    def test_trace_is_the_kept_weight(self, k, nbar):
        # every entry sums sectors 0 .. nmax with the field's weights, and
        # each sector's four amplitudes keep unit norm, so Tr rho = sum P_n
        f = build_thermal(nbar)
        table = SectorTable(ModelParams(lam=10.0, k=k), f)
        times = np.array([0.013, 0.37, 1.9, 7.5, 40.0])  # lam t up to 400
        for s in (table.series(times), table.series_and_slope(times)[0],
                  table.series(np.linspace(0.0, 40.0, 4001))):
            trace = s.rho11 + s.rho22 + s.rho33 + s.rho44
            assert np.abs(trace - f.weights.sum()).max() <= 1e-14

    def test_blocks_match_pointwise(self):
        table = SectorTable(ModelParams(lam=10.0, k=0.5), build_thermal(10.0))
        # as in TestTimePaths: the phases round apart by up to ulp(lam t1) in
        # tau, and sums of entries of size <= 1 round in different orders
        bound = 4 * table.freqs.omega_plus.max() * np.spacing(table.lam * 2.0) + 8 * np.spacing(1.0)
        # one full rotation chunk, then two full blocks and a short one in a
        # second; one full chunk and a short block (its error exceeds 1e-15)
        for steps in (_CHUNK * _BLOCK + 2 * _BLOCK + 3, _CHUNK * _BLOCK + 3):
            times = np.linspace(0.0, 2.0, steps)
            series = table.series(times)
            assert len(series) == times.size
            pointwise = np.array([dense(table.series([t]))[0] for t in times])
            assert np.abs(dense(series) - pointwise).max() <= bound

    def test_linspace_grid_shares_one_table(self, monkeypatch):
        # the grid is tested on t: lam t is not bit for bit a linspace, and a
        # test on it would send every block down the pointwise path
        table = SectorTable(ModelParams(lam=10.0, k=0.5), build_thermal(1.0))
        times = np.linspace(0.0, 2.0, _CHUNK * _BLOCK + 100)
        tau = table.lam * times
        assert not np.array_equal(tau, np.linspace(tau[0], tau[-1], tau.size))
        points, exp = [], np.exp
        monkeypatch.setattr(np, "exp", lambda x, **kw: points.append(np.size(x)) or exp(x, **kw))
        table.series(times)
        # libm points per sector and frequency: at most 2 ceil(sqrt(_BLOCK))
        # for the shared table, then one per block base; the pointwise path
        # would take one per time
        blocks = -(-times.size // _BLOCK)
        per_sector = sum(points) / (2 * table.coeffs.shape[0])
        assert per_sector <= 2 * math.ceil(math.sqrt(_BLOCK)) + blocks < times.size / 10

    def test_exp_is_the_only_trig(self, monkeypatch):
        # every cos and sin is a part of np.exp(1j * phase), so the libm
        # point counters, which wrap np.exp, see every trig point
        table = SectorTable(ModelParams(lam=10.0, k=0.5), build_thermal(1.0))
        want = dense(table.series(np.linspace(0.0, 2.0, _BLOCK + 5)))

        def refuse(*args, **kw):
            raise AssertionError("np.cos or np.sin called")

        monkeypatch.setattr(np, "cos", refuse)
        monkeypatch.setattr(np, "sin", refuse)
        assert np.array_equal(dense(table.series(np.linspace(0.0, 2.0, _BLOCK + 5))), want)
        table.series(np.array([0.3, 1.1, 0.05]))
        table.series_and_slope(np.array([0.3, 1.1]))
        assert table.basis(np.array(0.7)).shape == (table.coeffs.shape[0], 4)
        for count in (1, 2, 17):
            cos, sin = linspace_trig(np.ones(3), 0.5, 0.1, count)
            assert cos.shape == sin.shape == (count, 3)

    @pytest.mark.parametrize("nbar", [10.0, 100.0])
    def test_rotation_working_memory_is_below_its_output(self, nbar):
        # K R(tau_b) for a chunk of bases is one complex product written
        # straight into the caller's buffer: what it allocates, the phases
        # and their exp, stays under that buffer (nbar = 100: 2,315 sectors)
        table = SectorTable(ModelParams(lam=10.0, k=0.5), build_thermal(nbar))
        bases = np.linspace(0.0, 40.0, _CHUNK)
        out = np.empty((_CHUNK, *table.coeffs.shape))
        tracemalloc.start()
        try:
            table._rotated(table.coeffs, bases, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes

    def test_working_memory_does_not_grow_with_the_grid(self):
        table = SectorTable(ModelParams(lam=10.0, k=0.1), build_thermal(10.0))

        def traced_peak(steps):
            tracemalloc.start()
            try:
                table.series(np.linspace(0.0, 40.0, steps))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = traced_peak(8_000), traced_peak(64_000)
        # per time: the four population columns and rho23 that series fills,
        # and the clamped copies of the populations that StateSeries keeps
        columns = (64_000 - 8_000) * (4 * 8 + 16 + 4 * 8)
        block = table.coeffs.shape[0] * 4 * _BLOCK * 8
        assert long - short <= columns + block

    def test_batched_rotation_is_stacked_single_rotations(self):
        table = SectorTable(ModelParams(lam=10.0, k=0.5), build_thermal(10.0))
        bases = np.linspace(0.0, 40.0, _CHUNK + 3)
        kc, ks = table.coeffs[..., 0::2], table.coeffs[..., 1::2]

        def one_base(tau_b):
            # K R(tau_b) column pairs (kc c + ks s, ks c - kc s) from T(tau_b) alone
            t = table.basis(np.array(tau_b))[:, None, :]
            c, s = t[..., 0::2], t[..., 1::2]
            return np.stack((kc * c + ks * s, ks * c - kc * s), axis=-1).reshape(kc.shape[0], 4, 4)

        want = np.stack([one_base(tau_b) for tau_b in bases])
        single = np.stack([table._rotated(table.coeffs, bases[i : i + 1], np.empty_like(want[:1]))[0]
                           for i in range(bases.size)])
        batched = table._rotated(table.coeffs, bases, np.empty_like(want))
        # one loop for both, so the same bytes; numpy's complex product may
        # fuse one product into each sum, which moves a part of the written-out
        # formula by up to an ulp of its product and an ulp of the sum
        assert batched.shape == want.shape and batched.tobytes() == single.tobytes()
        assert np.abs(batched - want).max() <= 2 * np.spacing(np.abs(table.coeffs).max())

    def test_series_rejects_what_the_state_rejects(self):
        ok = dict(rho11=np.zeros(2), rho22=np.ones(2), rho33=np.zeros(2),
                  rho44=np.zeros(2), rho23=np.zeros(2, dtype=complex))
        s = StateSeries(**dict(ok, rho11=np.array([0.0, -1e-14])))
        assert s.rho11[1] == 0.0
        with pytest.raises(ValueError):
            StateSeries(**dict(ok, rho44=np.array([0.0, -1e-6])))
        with pytest.raises(ValueError):
            StateSeries(**dict(ok, rho33=np.full(2, 0.3), rho23=np.array([0.0, 0.6 + 0j])))

    def test_non_finite_rejected(self):
        p = ModelParams(lam=10.0, k=0.5)
        with pytest.raises(ValueError, match="non-finite"):
            two_qubit_states(p, build_thermal(1.0), [np.nan])
        ok = dict(rho11=np.zeros(2), rho22=np.ones(2), rho33=np.zeros(2),
                  rho44=np.zeros(2), rho23=np.zeros(2, dtype=complex))
        for name, bad in (("rho11", np.array([0.0, np.nan])),
                          ("rho44", np.array([np.inf, 0.0])),
                          ("rho23", np.array([0.0, complex(np.nan, 0.0)]))):
            with pytest.raises(ValueError, match=name):
                StateSeries(**dict(ok, **{name: bad}))

    def test_monotone_truncation(self):
        p = ModelParams(lam=10.0, k=0.5)
        eps = 1e-8
        f1 = build_thermal(1.0, eps)
        # at nbar = 1, q = 1/2: this epsilon gives nmax = 2 f1.nmax and f1's weights first
        f2 = build_thermal(1.0, 0.5 ** (2 * f1.nmax + 1))
        times = np.linspace(0, 2, 20)
        a = dense(two_qubit_states(p, f1, times))
        b = dense(two_qubit_states(p, f2, times))
        assert np.abs(a - b).max() <= eps


class TestAccuracy:
    """The grid series against 40-digit evaluations of the same sums."""

    def test_small_population_keeps_relative_accuracy(self):
        # fig1d at t ~ 0.6283: rho44 ~ 8.6e-9 sits under a sqrt in Lambda, so
        # an absolute error of eps * (coefficient size) in it would show here
        (got,), (want,) = preset_lambda("fig1d", [628])
        assert abs(got - want) <= 2e-15

    @pytest.mark.parametrize("cfg", [preset_config("fig1d"), RunConfig(k=0.5, nbar=1000.0)],
                             ids=["fig1d", "k.5-nbar1000"])
    def test_folded_sums_are_the_weighted_sector_sums(self, cfg):
        # series sums the factors of sqrt(P_n) K. With unit weights (as in
        # amplitude_table) the factors are x = K T(tau) itself, so each
        # population is fsum(P_n x_j^2) and c = Im rho23 is fsum(P_n x2 x3).
        # Folding moves a factor by a few ulp of its terms' sizes m = |K| |T|;
        # a sum of N terms stays within N ulp of the sum of their magnitudes
        # (Higham 2002, ch. 4), for a population the population itself.
        # Row 628: rho44 ~ 8.6e-9 in fig1d; tail weights ~1e-11 at nbar 1000.
        params, field = cfg.params(), build_thermal(cfg.nbar, cfg.epsilon)
        t = np.linspace(cfg.t0, cfg.t1, cfg.steps)[628:629]
        series = SectorTable(params, field).series(t)
        unit = SectorTable(params, ThermalField(nbar=0.0, epsilon=1.0, nmax=field.nmax,
                                                weights=np.ones(field.nmax + 1)))
        basis = unit.basis(params.lam * t)
        x = (unit.coeffs @ basis)[..., 0].T
        m = (np.abs(unit.coeffs) @ np.abs(basis))[..., 0].T
        p, eps, sectors = field.weights, np.finfo(float).eps, field.nmax + 1
        for j, got in enumerate((series.rho11, series.rho22, series.rho33, series.rho44)):
            want, folding = math.fsum(p * x[j] ** 2), math.fsum(p * m[j] * np.abs(x[j]))
            assert abs(got[0] - want) <= eps * (sectors * want + 8 * folding)
        want, size = math.fsum(p * x[1] * x[2]), math.fsum(p * np.abs(x[1] * x[2]))
        folding = math.fsum(p * (m[1] * np.abs(x[2]) + np.abs(x[1]) * m[2]))
        assert abs(series.rho23[0].imag - want) <= eps * (sectors * size + 4 * folding)

    def test_long_window(self):
        # fig1c ends at lam t = 400; there the last digits are set by the
        # rounding of the phase, ulp(omega t), in either time path
        got, want = preset_lambda("fig1c", slice(-20, None))
        assert np.abs(got - np.array(want)).max() <= 2e-13


class TestSlope:
    """f' of f = |rho23|^2 - rho11 rho44 from the slope matrix K' = K D."""

    @pytest.mark.parametrize("k", [1e-6, 0.1, 0.5])
    @pytest.mark.parametrize("nbar", [0.5, 10.0])
    def test_matches_mpmath_derivative(self, k, nbar):
        p, f = ModelParams(lam=10.0, k=k), build_thermal(nbar)
        table = SectorTable(p, f)
        times = np.array([0.013, 0.37, 1.9])
        series, slope = table.series_and_slope(times)
        want = np.array([float(slope_mp(p, f, t)) for t in times])
        assert np.abs(slope - want).max() <= 1e-12
        assert np.abs(dense(series) - dense(table.series(times))).max() <= 1e-15

    def test_working_memory_is_one_block_of_times(self):
        # [K; K'] T(tau) is formed per block of _BLOCK times, so refining many
        # brackets at once holds one block's (sectors x 8 x _BLOCK) doubles,
        # not one such array for every bracket
        table = SectorTable(ModelParams(lam=10.0, k=0.1), build_thermal(10.0))

        def traced_peak(count):
            tracemalloc.start()
            try:
                table.series_and_slope(np.linspace(0.0, 40.0, count))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(4 * _BLOCK + 1) <= 1.5 * traced_peak(_BLOCK)


class TestLinspaceTrig:
    """linspace_trig against libm on the same linspace."""

    FREQS = np.array([[0.0, 0.3, 1.0], [7.5, 40.0, 82.5]])

    @pytest.mark.parametrize("count", [1, 2, 3, 16, 17, 100, 128, 2000])
    @pytest.mark.parametrize("t0", [0.0, -3.7, 1e3])
    def test_matches_libm(self, count, t0):
        times = np.linspace(t0, t0 + 40.0, count)
        dt = (times[-1] - times[0]) / (count - 1) if count > 1 else 0.0
        cos, sin = linspace_trig(self.FREQS, t0, dt, count)
        assert cos.shape == sin.shape == (count, *self.FREQS.shape)
        x = np.multiply.outer(times, self.FREQS)
        # the point a r + j has the phase freq (t0 + a r dt) + freq (j dt),
        # rounded otherwise than freq t, by a few ulp of freq max|t|; the
        # complex product rounds the four parts of its factors, then each
        # part of the result once or twice (numpy may fuse one product
        # into the sum)
        bound = 4 * np.spacing(self.FREQS * np.abs(times).max()) + 4 * np.spacing(1.0)
        assert (np.abs(cos - np.cos(x)) <= bound).all()
        assert (np.abs(sin - np.sin(x)) <= bound).all()

    def test_zero_frequency_is_exact(self):
        cos, sin = linspace_trig(np.zeros(2), -3.7, 0.1, 100)
        assert (cos == 1.0).all() and (sin == 0.0).all()

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 17, 128])
    def test_libm_points(self, count, monkeypatch):
        # r offsets and ceil(count / r) bases, never more than the grid's
        # points; at count <= 3 one per point
        points, exp = [], np.exp
        monkeypatch.setattr(np, "exp", lambda x, **kw: points.append(np.size(x)) or exp(x, **kw))
        linspace_trig(np.ones(5), 0.0, 0.1, count)
        r = math.ceil(math.sqrt(count))
        want = count if count <= 3 else r + math.ceil(count / r)
        assert sum(points) == 5 * want <= 5 * count


class TestTimePaths:
    """A linspace grid (shared table by angle addition, rotated per block)
    against the same times one at a time (direct trig at base 0)."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        log_k=st.floats(-8.0, 1.0),
        nbar=st.floats(0.0, 10.0),
        t1=st.floats(0.0, 40.0, exclude_min=True),
        steps=st.integers(2, 3 * _BLOCK),
    )
    @example(log_k=-1.0, nbar=10.0, t1=40.0, steps=1)
    @example(log_k=-1.0, nbar=10.0, t1=40.0, steps=2)
    @example(log_k=-1.0, nbar=10.0, t1=40.0, steps=_BLOCK)
    @example(log_k=-1.0, nbar=10.0, t1=40.0, steps=_BLOCK + 1)
    @example(log_k=-1.0, nbar=10.0, t1=40.0, steps=_CHUNK * _BLOCK)
    @example(log_k=-1.0, nbar=10.0, t1=40.0, steps=_CHUNK * _BLOCK + 1)
    def test_grid_matches_pointwise(self, log_k, nbar, t1, steps):
        table = SectorTable(ModelParams(lam=10.0, k=10.0**log_k), build_thermal(nbar))
        times = np.linspace(0.0, t1, steps)
        grid = dense(table.series(times))
        pointwise = np.array([dense(table.series(np.array([t])))[0] for t in times])
        # the paths round the phases differently, by up to ulp(lam t1) in tau,
        # and round sums of entries of size <= 1 in different orders
        bound = 4 * table.freqs.omega_plus.max() * np.spacing(table.lam * t1) + 8 * np.spacing(1.0)
        assert np.abs(grid - pointwise).max() <= bound
