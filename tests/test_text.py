"""The CSV text kernel against Python's own '%.17g'."""

import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_output

from esdsim import cli
from esdsim.cli import Evaluation, RunConfig
from esdsim.events import EsdInterval
from esdsim._text import WIDTH, g17


def texts(xs) -> list[str]:
    matrix = g17(np.array(xs, dtype=float))
    assert matrix.shape == (len(xs), WIDTH) and matrix.dtype == np.uint8
    assert not matrix[:, WIDTH - 1].any()  # the separator slot of every cell is NUL
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


def significant(text: str) -> int:
    """The significant digits of a fixed-notation '%.17g' text."""
    return len(text.lstrip("-").replace(".", "").strip("0"))


def with_digits(exp: int, n: int) -> float:
    """The first double m * 10**(exp - n + 1), for an n-digit m not ending in
    0, that '%.17g' prints with n significant digits."""
    return next(x for m in range(10 ** (n - 1), 10**n) if m % 10
                for x in [float(f"{m}e{exp - n + 1}")] if significant("%.17g" % x) == n)


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

    @pytest.mark.parametrize("exp", range(-4, 6))
    def test_every_dot_position_and_prefix(self, exp):
        # '.' after digit exp + 1 for exp >= 0, '0.' and -exp - 1 zeros before
        # the digits for exp < 0, with and without a sign
        xs = [float(f"1.2345678912345678e{exp}"), float(f"9.8765432198765432e{exp}"),
              10.0**exp, float(f"7e{exp}")]
        assert_g17(xs + [-x for x in xs])

    @pytest.mark.parametrize("n", range(1, 18))
    def test_every_trimmed_length(self, n):
        # digits 1-8 and 9-16 are one word each: n = 9, 10 and 17 end the
        # text at the last byte of the first, the first byte of the second
        # and the last byte of the second
        xs = [with_digits(exp, n) for exp in range(-4, 6)]
        assert [significant("%.17g" % x) for x in xs] == [n] * 10
        assert_g17(xs + [-x for x in xs])

    def test_low_digit_word_all_zero(self):
        assert_g17([0.5, 1234.5, -1234.5, 0.000125, 99999.5, 123456.75, 1.0, 100000.0, 3e-4])

    def test_last_fixed_notation_values(self):
        x = 99999.999999999985
        xs = [x, math.nextafter(x, 0), math.nextafter(x, math.inf),
              math.nextafter(math.nextafter(x, math.inf), math.inf), 999999.99999999988]
        assert_g17(xs + [-x for x in xs])

    def test_signed_zeros(self):
        assert texts([-0.0, 0.0, -0.0]) == ["-0", "0", "-0"]

    def test_empty(self):
        assert g17(np.array([])).shape == (0, WIDTH)


def edge_columns(n: int) -> dict[str, np.ndarray]:
    """Every output column over n rows: zeros of both signs, tiny, huge and
    non-finite values among random ones."""
    rng = np.random.default_rng(3)
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
    return columns


KEYS = ("concurrence", "lambda", "inversion", "coherence", "entropy")
INTERVAL = EsdInterval(t_death=0.25, t_birth=1.5, min_lambda=-1e-3, refined=True)


def test_render_equals_a_percent_g_join(tmp_path, monkeypatch):
    """A CSV's body equals '%.17g' cells joined by ',' and '\\n', across the
    row ranges it is written in."""
    n = 257
    columns = edge_columns(n)
    out = tmp_path / "run.csv"
    config = RunConfig(observables=KEYS, detect_events=True, output_path=str(out))
    # 7 columns of 257 rows in ranges of 86, 86 and 85 rows
    monkeypatch.setattr(cli, "_FORMAT_VALUES", 700)
    assert write_output(config, Evaluation(columns, [INTERVAL], 2.5e-12)).exit_code == 0
    text = out.read_bytes().decode("ascii")

    header = ",".join(["t", "lambda_t", *KEYS])
    rows = [",".join("%.17g" % columns[key][i] for key in ["t", "lambda_t", *KEYS])
            for i in range(n)]
    tail = ["# esd_intervals: t_death,t_birth,min_lambda,refined",
            "# 0.25,1.5,-0.001,true", f"# oracle_max_deviation,{2.5e-12:.17g},pass"]
    assert text == "\n".join([header, *rows, *tail]) + "\n"


def test_json_equals_one_dumps(tmp_path, monkeypatch):
    """A JSON output, written in row ranges, is json.dumps of its whole
    document: NaN and (-)Infinity as json writes them, samples sorted last."""
    n = 257
    columns = edge_columns(n)
    columns["inversion"][5:7] = [float("nan"), float("inf")]
    out = tmp_path / "run.json"
    config = RunConfig(observables=KEYS, detect_events=True, output_format="json",
                       output_path=str(out))
    monkeypatch.setattr(cli, "_FORMAT_VALUES", 700)
    assert write_output(config, Evaluation(columns, [INTERVAL], 2.5e-12)).exit_code == 0

    keys = ["t", "lambda_t", *KEYS]
    doc = {
        "config": asdict(config),
        "samples": [dict(zip(keys, row)) for row in
                    zip(*(columns[key].tolist() for key in keys))],
        "events": [asdict(INTERVAL)],
        "oracle": {"max_deviation": 2.5e-12, "threshold": 1e-7, "passed": True},
    }
    assert out.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
