import numpy as np
import pytest
from conftest import concurrence_wootters, dense, inversion_closed, random_xstates

from esdsim import (
    ModelParams,
    StateSeries,
    build_thermal,
    observable_columns,
    two_qubit_states,
)
from esdsim.observables import separability

BELL = StateSeries(rho11=0.0, rho22=0.5, rho33=0.5, rho44=0.0, rho23=0.5)
PRODUCT = StateSeries(rho11=0.0, rho22=1.0, rho33=0.0, rho44=0.0, rho23=0.0)


class TestConcurrence:
    def test_product_state(self):
        assert concurrence_wootters(dense(PRODUCT))[0] == 0.0
        m = observable_columns(PRODUCT)
        assert (m["concurrence"][0], m["lambda"][0]) == (0.0, 0.0)

    def test_bell_state(self):
        assert concurrence_wootters(dense(BELL))[0] == pytest.approx(1.0, abs=1e-12)
        m = observable_columns(BELL)
        assert m["concurrence"][0] == pytest.approx(1.0, abs=1e-12)
        assert m["lambda"][0] == pytest.approx(1.0, abs=1e-12)

    def test_wootters_equals_xstate_on_random_states(self):
        s = random_xstates(np.random.default_rng(11), 10_000)
        cw = concurrence_wootters(dense(s))
        assert np.abs(cw - observable_columns(s)["concurrence"]).max() <= 1e-10

    def test_isolated_pair_lambda(self):
        p = ModelParams(lam=10.0, k=0.0)
        times = np.linspace(0, 1, 37)
        lam_fn = separability(two_qubit_states(p, build_thermal(0.0), times))
        assert np.abs(lam_fn - np.abs(np.sin(2 * p.lam * times))).max() <= 1e-12

    def test_strong_coupling_sustained_negativity(self):
        # k=0.5, nbar=10: Lambda stays negative over sustained stretches
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(10.0)
        times = np.linspace(20.0, 22.0, 400)
        lam_fn = separability(two_qubit_states(p, f, times))
        assert (lam_fn < 0).mean() > 0.5


class TestCoherence:
    def test_trivial_states(self):
        assert observable_columns(PRODUCT)["coherence"][0] == 0.0
        assert observable_columns(BELL)["coherence"][0] == pytest.approx(1.0, abs=1e-14)

    def test_dominates_lambda(self):
        m = observable_columns(random_xstates(np.random.default_rng(5), 1000))
        assert np.all(m["coherence"] >= m["lambda"] - 1e-15)


class TestQubit1:
    def test_reduce_product(self):
        m = observable_columns(PRODUCT)
        assert m["inversion"][0] == 1.0
        assert m["entropy"][0] == 0.0

    def test_half_swap(self):
        p = ModelParams(lam=10.0, k=0.0)
        s = two_qubit_states(p, build_thermal(0.0), [np.pi / (4 * p.lam)])
        assert s.rho11[0] + s.rho22[0] == pytest.approx(0.5, abs=1e-12)
        assert s.rho33[0] + s.rho44[0] == pytest.approx(0.5, abs=1e-12)
        m = observable_columns(s)
        assert m["inversion"][0] == pytest.approx(0.0, abs=1e-12)
        assert m["entropy"][0] == pytest.approx(0.5, abs=1e-12)

    def test_entropy_inversion_identity(self):
        p = ModelParams(lam=10.0, k=0.1)
        f = build_thermal(1.0, 1e-12)
        s = two_qubit_states(p, f, np.linspace(0, 3, 60))
        m = observable_columns(s)
        closed = np.abs(1.0 - s.rho11 - s.rho22 - s.rho33 - s.rho44) <= 1e-10
        w = m["inversion"][closed]
        assert np.abs(m["entropy"][closed] - 0.5 * (1 - w * w)).max() <= 1e-10

    def test_entropy_range_thermal(self):
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(10.0)
        s = observable_columns(two_qubit_states(p, f, np.linspace(0.05, 4, 40)))["entropy"]
        assert np.all((0.0 < s) & (s <= 0.5 + 1e-12))

    def test_rounding_kept_in_range(self):
        # k = 0.5, nbar = 0: the entries give rho22(0) = 1 + 4e-16
        p = ModelParams(lam=10.0, k=0.5)
        m = observable_columns(two_qubit_states(p, build_thermal(0.0), np.linspace(0, 2, 200)))
        assert np.all(np.abs(m["inversion"]) <= 1.0)
        assert np.all(m["entropy"] >= 0.0)
        # a trace below 1 lets the purity deficit pass 1/2; only rounding is clipped
        short = StateSeries(rho11=0.0, rho22=0.45, rho33=0.45, rho44=0.0, rho23=0.0)
        assert observable_columns(short)["entropy"][0] == pytest.approx(0.595, abs=1e-15)


class TestInversionClosed:
    def test_unity_at_t0(self):
        p = ModelParams(lam=10.0, k=0.3)
        f = build_thermal(1.0)
        assert inversion_closed(p, f, 0.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("k", [0.1, 0.5])
    @pytest.mark.parametrize("nbar", [1.0, 10.0])
    def test_agrees_with_summed(self, k, nbar):
        p = ModelParams(lam=10.0, k=k)
        f = build_thermal(nbar)
        times = np.linspace(0, 2, 40)
        summed = observable_columns(two_qubit_states(p, f, times))["inversion"]
        for t, ws in zip(times, summed):
            wc = inversion_closed(p, f, float(t))
            assert abs(ws - wc) <= 1e-8

    def test_rejects_decoupled(self):
        p = ModelParams(lam=10.0, k=0.0)
        with pytest.raises(ValueError, match="singular at k = 0"):
            inversion_closed(p, build_thermal(1.0), 1.0)

    def test_long_time_purity_drift(self):
        # k=0.5, nbar=10: |W| shrinks toward the maximally mixed value
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(10.0)
        early = abs(np.mean([inversion_closed(p, f, t) for t in np.linspace(0.0, 1.0, 20)]))
        late = abs(np.mean([inversion_closed(p, f, t) for t in np.linspace(30.0, 31.0, 20)]))
        assert late < early


class TestObservableColumns:
    def test_fields_consistent(self):
        p = ModelParams(lam=10.0, k=0.5)
        f = build_thermal(1.0, 1e-12)
        m = observable_columns(two_qubit_states(p, f, np.array([0.0, 0.3, 1.1])))
        assert np.array_equal(m["concurrence"], np.maximum(0.0, m["lambda"]))
        assert np.all((0.0 <= m["concurrence"]) & (m["concurrence"] <= 1.0))
        assert np.all((-1.0 <= m["lambda"]) & (m["lambda"] <= 1.0))
        assert np.all((0.0 <= m["coherence"]) & (m["coherence"] <= 1.0))
        assert np.all((-1.0 <= m["inversion"]) & (m["inversion"] <= 1.0))
        assert np.abs(m["entropy"] - 0.5 * (1 - m["inversion"] ** 2)).max() <= 1e-10


class TestValidation:
    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            StateSeries(rho11=-1e-6, rho22=1.0, rho33=0.0, rho44=0.0, rho23=0.0)

    def test_tiny_negative_clamped(self):
        s = StateSeries(rho11=-1e-14, rho22=1.0, rho33=0.0, rho44=0.0, rho23=0.0)
        assert s.rho11.tolist() == [0.0]

    def test_coherence_bound_enforced(self):
        with pytest.raises(ValueError):
            StateSeries(rho11=0.0, rho22=0.3, rho33=0.3, rho44=0.4, rho23=0.31)
