import math

import numpy as np
import pytest

from esdsim import build_thermal


def test_vacuum():
    f = build_thermal(0.0, 1e-12)
    assert f.nmax == 0
    assert f.weights.tolist() == [1.0]
    assert f.tail_bound == 0.0


def test_nbar_one_weights_are_powers_of_half():
    f = build_thermal(1.0, 1e-6)
    assert f.weights[0] == pytest.approx(0.5, abs=1e-15)
    assert f.weights[1] == pytest.approx(0.25, abs=1e-15)
    assert f.weights[2] == pytest.approx(0.125, abs=1e-15)


def test_nbar_ten_truncation_index():
    f = build_thermal(10.0, 1e-10)
    # smallest N with (10/11)^(N+1) <= 1e-10
    assert f.nmax == 241
    assert (10 / 11) ** (f.nmax + 1) <= 1e-10
    assert (10 / 11) ** f.nmax > 1e-10
    # tail bound equals the dropped mass
    assert 1.0 - f.weights.sum() == pytest.approx(f.tail_bound, abs=1e-13)


@pytest.mark.parametrize("nbar,power", [(3.0, 3), (10.0, 2), (1.0, 29)])
def test_epsilon_at_a_power_of_q(nbar, power):
    # at epsilon = q^power the log estimate is one too high, and the
    # rounding correction brings nmax down to the smallest index
    q = nbar / (1.0 + nbar)
    eps = q**power
    assert math.ceil(math.log(eps) / math.log(q)) - 1 == power
    f = build_thermal(nbar, eps)
    assert f.nmax == power - 1
    assert q ** (f.nmax + 1) <= eps < q**f.nmax


@pytest.mark.parametrize("nbar", [0.3, 1.0, 5.0, 10.0])
def test_invariants(nbar):
    f = build_thermal(nbar, 1e-10)
    n = np.arange(f.nmax + 1)
    expected = nbar**n / (1 + nbar) ** (n + 1)
    assert np.allclose(f.weights, expected, rtol=1e-14)
    assert 1.0 - f.weights.sum() <= f.epsilon
    assert np.all(np.diff(f.weights) < 0)
    assert np.all(f.weights > 0) and np.all(f.weights <= 1)


@pytest.mark.parametrize("nbar", [0.0, 0.3, 2.5, 10.0, 12.0, 50.0])
def test_smaller_epsilon_extends_the_same_weights(nbar):
    # a deeper truncation stores the same leading weights bit for bit and
    # continues them, as the doubled fields of the truncation tests assume
    f, deeper = build_thermal(nbar, 1e-10), build_thermal(nbar, 1e-20)
    assert deeper.weights[: f.nmax + 1].tolist() == f.weights.tolist()
    assert nbar == 0.0 or deeper.weights[f.nmax + 1] < f.weights[-1]


@pytest.mark.parametrize("nbar,eps", [(-1.0, 1e-10), (1.0, 0.0), (1.0, 1.0), (1.0, -0.5),
                                      (1e16, 1e-10), (1e300, 1e-10)])
def test_domain_errors(nbar, eps):
    with pytest.raises(ValueError):
        build_thermal(nbar, eps)
