"""The CSV text kernel against Python's own '%.17g'."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdsim.cli import Evaluation, RunConfig, _render
from esdsim.events import EsdInterval
from esdsim._text import WIDTH, g17


def texts(xs) -> list[str]:
    matrix = g17(np.array(xs, dtype=float))
    assert matrix.shape == (len(xs), WIDTH) and matrix.dtype == np.uint8
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in matrix]


def assert_g17(xs):
    xs = [float(x) for x in xs]
    assert texts(xs) == ["%.17g" % x for x in xs]


def ties(exp: int) -> list[float]:
    """Doubles in [10**exp, 10**(exp+1)) whose exact decimal value has 18
    significant digits ending in 5, so 17 digits round them half-even: the
    odd multiples of 2**(exp-17)."""
    scale = Fraction(2) ** (exp - 17)
    lo = int(Fraction(10) ** exp / scale) | 1
    return [float((lo + 2 * j) * scale) for j in (0, 1, 2, 3, 1000, 12345)]


def decade_carries() -> list[float]:
    """Doubles below a power of ten that print as that power at 17 digits."""
    out = []
    for k in range(-320, 309):
        x = float(f"1e{k}")
        if Fraction(x) < Fraction(10) ** k and ("%.17g" % x).startswith("1"):
            out.append(x)
    return out


ANY = st.floats()  # NaN, infinities, signed zeros and subnormals included
FAST = st.floats(1e-5, 1e7) | st.floats(-1e7, -1e-5)


class TestKernel:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(ANY | FAST | st.just(0.0) | st.just(-0.0), min_size=1, max_size=40))
    def test_equals_percent_g(self, xs):
        assert_g17(xs)

    @pytest.mark.parametrize("exp", range(-6, 8))
    def test_exact_ties_round_half_even(self, exp):
        xs = ties(exp)
        assert_g17(xs + [-x for x in xs])

    def test_powers_of_ten_and_neighbours(self):
        powers = [10.0**k for k in range(-8, 10)] + [float(f"1e{k}") for k in range(-8, 10)]
        xs = []
        for p in powers:
            xs += [p, math.nextafter(p, 0), math.nextafter(p, math.inf)]
        assert_g17(xs + [-x for x in xs])

    def test_edges(self):
        edges = [0.99999999999999999, 9.9999999999999995e-5, 1e-4, 1e6, 2.0**53,
                 2.0**53 + 2, 0.0, -0.0, float("inf"), -float("inf"), float("nan"),
                 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        xs = []
        for x in edges:
            xs += [x, math.nextafter(x, 0), math.nextafter(x, math.inf)]
        assert_g17(xs + [-x for x in xs])

    def test_carries_into_the_next_decade(self):
        carries = decade_carries()
        assert float("1e-14") in carries  # 1e-14 is a double below 10**-14
        assert_g17(carries + [-x for x in carries])

    def test_fast_window_at_scale(self):
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.uniform(-1, 1, 5000), rng.uniform(0, 400, 5000),
                             10 ** rng.uniform(-5, 7, 5000)])
        assert_g17(xs)

    def test_empty(self):
        assert g17(np.array([])).shape == (0, WIDTH)


def test_render_equals_a_percent_g_join():
    """_render's CSV body equals '%.17g' cells joined by ',' and '\\n'."""
    rng = np.random.default_rng(3)
    n = 257
    columns = {
        "t": np.linspace(-1.0, 3.0, n),
        "lambda_t": np.linspace(-10.0, 30.0, n),
        "concurrence": np.where(rng.random(n) < 0.3, 0.0, rng.random(n)),
        "lambda": rng.normal(0, 1e-3, n) * np.where(rng.random(n) < 0.2, 0, 1),
        "inversion": -rng.random(n) * 10.0 ** rng.integers(-9, 9, n),
        "coherence": np.zeros(n),
        "entropy": -np.zeros(n),
    }
    columns["lambda"][:3] = [-0.0, 1e-300, -float("inf")]
    keys = ("concurrence", "lambda", "inversion", "coherence", "entropy")
    interval = EsdInterval(t_death=0.25, t_birth=1.5, min_lambda=-1e-3, refined=True)
    config = RunConfig(observables=keys, detect_events=True)
    text = _render(config, Evaluation(columns, [interval], 2.5e-12))

    header = ",".join(["t", "lambda_t", *keys])
    rows = [",".join("%.17g" % columns[key][i] for key in ["t", "lambda_t", *keys])
            for i in range(n)]
    tail = ["# esd_intervals: t_death,t_birth,min_lambda,refined",
            "# 0.25,1.5,-0.001,true", f"# oracle_max_deviation,{2.5e-12:.17g},pass"]
    assert text == "\n".join([header, *rows, *tail]) + "\n"
