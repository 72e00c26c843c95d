import numpy as np
import pytest

from esdsim import (
    ModelParams,
    TwoQubitState,
    build_thermal,
    coherence_l1,
    concurrence_wootters,
    concurrence_xstate,
    inversion_closed,
    inversion_summed,
    linear_entropy,
    observable_columns,
    qubit1_reduce,
    two_qubit_state,
    two_qubit_states,
)
from esdsim.observables import Qubit1State

BELL = TwoQubitState(rho11=0.0, rho22=0.5, rho33=0.5, rho44=0.0, rho23=0.5)
PRODUCT = TwoQubitState(rho11=0.0, rho22=1.0, rho33=0.0, rho44=0.0, rho23=0.0)


def random_xstate(rng):
    pops = rng.dirichlet(np.ones(4))
    mag = np.sqrt(pops[1] * pops[2]) * rng.uniform(0, 1)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return TwoQubitState(
        rho11=pops[0], rho22=pops[1], rho33=pops[2], rho44=pops[3], rho23=mag * phase
    )


class TestConcurrence:
    def test_product_state(self):
        assert concurrence_wootters(PRODUCT) == 0.0
        assert concurrence_xstate(PRODUCT) == (0.0, 0.0)

    def test_bell_state(self):
        assert concurrence_wootters(BELL) == pytest.approx(1.0, abs=1e-12)
        conc, lam_fn = concurrence_xstate(BELL)
        assert conc == pytest.approx(1.0, abs=1e-12)
        assert lam_fn == pytest.approx(1.0, abs=1e-12)

    def test_wootters_equals_xstate_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            s = random_xstate(rng)
            cw = concurrence_wootters(s)
            cx, _ = concurrence_xstate(s)
            assert abs(cw - cx) <= 1e-10

    def test_isolated_pair_lambda(self):
        p = ModelParams(lam=10.0, g=0.0)
        f = build_thermal(0.0)
        for t in np.linspace(0, 1, 37):
            _, lam_fn = concurrence_xstate(two_qubit_state(p, f, t))
            assert lam_fn == pytest.approx(abs(np.sin(2 * p.lam * t)), abs=1e-12)

    def test_strong_coupling_sustained_negativity(self):
        # k=0.5, nbar=10: Lambda stays negative over sustained stretches
        p = ModelParams.from_k(10.0, 0.5)
        f = build_thermal(10.0)
        times = np.linspace(20.0, 22.0, 400)
        lam_fn = np.array(
            [concurrence_xstate(s)[1] for s in two_qubit_states(p, f, times)]
        )
        assert (lam_fn < 0).mean() > 0.5


class TestCoherence:
    def test_trivial_states(self):
        assert coherence_l1(PRODUCT) == 0.0
        assert coherence_l1(BELL) == pytest.approx(1.0, abs=1e-14)

    def test_dominates_lambda(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            s = random_xstate(rng)
            assert coherence_l1(s) >= concurrence_xstate(s)[1] - 1e-15


class TestQubit1:
    def test_reduce_product(self):
        q = qubit1_reduce(PRODUCT)
        assert (q.rho_ee, q.rho_gg) == (1.0, 0.0)
        assert inversion_summed(q) == 1.0
        assert linear_entropy(q) == 0.0

    def test_half_swap(self):
        p = ModelParams(lam=10.0, g=0.0)
        s = two_qubit_state(p, build_thermal(0.0), np.pi / (4 * p.lam))
        q = qubit1_reduce(s)
        assert q.rho_ee == pytest.approx(0.5, abs=1e-12)
        assert q.rho_gg == pytest.approx(0.5, abs=1e-12)
        assert inversion_summed(q) == pytest.approx(0.0, abs=1e-12)
        assert linear_entropy(q) == pytest.approx(0.5, abs=1e-12)

    def test_entropy_inversion_identity(self):
        p = ModelParams.from_k(10.0, 0.1)
        f = build_thermal(1.0, 1e-12)
        for t in np.linspace(0, 3, 60):
            q = qubit1_reduce(two_qubit_state(p, f, t))
            trace_deficit = abs(1.0 - q.rho_ee - q.rho_gg)
            if trace_deficit <= 1e-10:
                w = inversion_summed(q)
                assert linear_entropy(q) == pytest.approx(0.5 * (1 - w * w), abs=1e-10)

    def test_entropy_range_thermal(self):
        p = ModelParams.from_k(10.0, 0.5)
        f = build_thermal(10.0)
        for t in np.linspace(0.05, 4, 40):
            s = linear_entropy(qubit1_reduce(two_qubit_state(p, f, t)))
            assert 0.0 < s <= 0.5 + 1e-12


class TestInversionClosed:
    def test_unity_at_t0(self):
        p = ModelParams.from_k(10.0, 0.3)
        f = build_thermal(1.0)
        assert inversion_closed(p, f, 0.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("k", [0.1, 0.5])
    @pytest.mark.parametrize("nbar", [1.0, 10.0])
    def test_agrees_with_summed(self, k, nbar):
        p = ModelParams.from_k(10.0, k)
        f = build_thermal(nbar)
        times = np.linspace(0, 2, 40)
        states = two_qubit_states(p, f, times)
        for t, s in zip(times, states):
            ws = inversion_summed(qubit1_reduce(s))
            wc = inversion_closed(p, f, float(t))
            assert abs(ws - wc) <= 1e-8

    def test_rejects_decoupled(self):
        p = ModelParams(lam=10.0, g=0.0)
        with pytest.raises(ValueError, match="inversion_summed"):
            inversion_closed(p, build_thermal(1.0), 1.0)

    def test_long_time_purity_drift(self):
        # k=0.5, nbar=10: |W| shrinks toward the maximally mixed value
        p = ModelParams.from_k(10.0, 0.5)
        f = build_thermal(10.0)
        early = abs(np.mean([inversion_closed(p, f, t) for t in np.linspace(0.0, 1.0, 20)]))
        late = abs(np.mean([inversion_closed(p, f, t) for t in np.linspace(30.0, 31.0, 20)]))
        assert late < early


class TestObservableColumns:
    def test_fields_consistent(self):
        p = ModelParams.from_k(10.0, 0.5)
        f = build_thermal(1.0, 1e-12)
        m = observable_columns(two_qubit_states(p, f, np.array([0.0, 0.3, 1.1])))
        assert np.array_equal(m["concurrence"], np.maximum(0.0, m["lambda"]))
        assert np.all((0.0 <= m["concurrence"]) & (m["concurrence"] <= 1.0))
        assert np.all((-1.0 <= m["lambda"]) & (m["lambda"] <= 1.0))
        assert np.all((0.0 <= m["coherence"]) & (m["coherence"] <= 1.0))
        assert np.all((-1.0 <= m["inversion"]) & (m["inversion"] <= 1.0))
        assert np.abs(m["entropy"] - 0.5 * (1 - m["inversion"] ** 2)).max() <= 1e-10

    def test_match_scalar_observables(self):
        p = ModelParams.from_k(10.0, 0.5)
        f = build_thermal(10.0)
        series = two_qubit_states(p, f, np.linspace(0.0, 2.0, 50))
        m = observable_columns(series)
        for i, s in enumerate(series):
            q = qubit1_reduce(s)
            assert (m["concurrence"][i], m["lambda"][i]) == concurrence_xstate(s)
            assert m["coherence"][i] == coherence_l1(s)
            assert m["inversion"][i] == inversion_summed(q)
            assert m["entropy"][i] == linear_entropy(q)


class TestValidation:
    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            TwoQubitState(rho11=-1e-6, rho22=1.0, rho33=0.0, rho44=0.0, rho23=0.0)

    def test_tiny_negative_clamped(self):
        s = TwoQubitState(rho11=-1e-14, rho22=1.0, rho33=0.0, rho44=0.0, rho23=0.0)
        assert s.rho11 == 0.0

    def test_coherence_bound_enforced(self):
        with pytest.raises(ValueError):
            TwoQubitState(rho11=0.0, rho22=0.3, rho33=0.3, rho44=0.4, rho23=0.31)

    def test_qubit1_negative_rejected(self):
        with pytest.raises(ValueError):
            Qubit1State(rho_ee=-1e-3, rho_gg=1.0)
