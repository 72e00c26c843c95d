"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest
from conftest import amplitude_table, dense_h1, random_xstates, sector_basis_indices

from esdsim import (
    ModelParams,
    build_thermal,
    concurrence_wootters,
    dwell_fraction,
    inversion_closed,
    observable_columns,
    scan_esd,
    sector_frequencies,
    two_qubit_states,
)
from esdsim.cli import main
from esdsim.oracle import build_hamiltonians, reduced_two_qubit_series

GRID_K = (0.1, 0.5)
GRID_NBAR = (1.0, 10.0)
LAM = 10.0


def verdict(num, name, ok, detail=""):
    line = f"criterion {num:>2} {name:<28} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def esd_runs():
    """Lambda and coherence series on the common long window, per grid point."""
    t0, t1, n = 0.0, 4.0, 8000
    times = np.linspace(t0, t1, n)
    runs = {}
    for k in GRID_K:
        for nbar in GRID_NBAR:
            params = ModelParams(lam=LAM, k=k)
            field = build_thermal(nbar)
            columns = observable_columns(two_qubit_states(params, field, times))
            runs[(k, nbar)] = {
                "params": params,
                "field": field,
                "times": times,
                "lambda": columns["lambda"],
                "coherence": columns["coherence"],
                "intervals": scan_esd(params, field, t0, t1, n),
                "window": (t0, t1),
            }
    return runs


def test_criterion_01_oracle_equivalence():
    start = time.time()
    worst = 0.0
    times = np.linspace(0.0, 20.0 / LAM, 200)
    for k in GRID_K:
        for nbar in GRID_NBAR:
            params = ModelParams(lam=LAM, k=k)
            field = build_thermal(nbar)
            h = build_hamiltonians(params, field.nmax + 2)
            oracle_states = reduced_two_qubit_series(h, field, times)
            analytic_states = two_qubit_states(params, field, times)
            dev = np.abs(analytic_states.matrix() - oracle_states.matrix()).max()
            worst = max(worst, dev)
    elapsed = time.time() - start
    verdict(1, "oracle equivalence", worst <= 1e-8 and elapsed <= 60.0,
            f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_sector_spectrum():
    worst = 0.0
    for k in GRID_K:
        params = ModelParams(lam=LAM, k=k)
        h = build_hamiltonians(params, 25)
        h1 = dense_h1(h)
        for n in range(21):
            idx = sector_basis_indices(n, h.fock_cutoff)
            ev = np.sort(np.linalg.eigvalsh(h1[np.ix_(idx, idx)]))
            f = sector_frequencies(params.k, n)
            wp, wm = params.lam * f.omega_plus, params.lam * f.omega_minus
            if n == 0:
                expected = np.sort([-wp, 0.0, wp])
            else:
                expected = np.sort([-wp, -wm, wm, wp])
            worst = max(worst, np.abs(ev - expected).max())
    verdict(2, "sector spectrum", worst <= 1e-10, f"max dev {worst:.2e}")


def test_criterion_03_per_sector_unitarity():
    times = np.linspace(0.0, 20.0 / LAM, 1000)
    worst = 0.0
    for k in GRID_K:
        params = ModelParams(lam=LAM, k=k)
        c1, c2, c3, c4 = amplitude_table(params, 200, times)
        norms = np.abs(c1) ** 2 + np.abs(c2) ** 2 + np.abs(c3) ** 2 + np.abs(c4) ** 2
        worst = max(worst, np.abs(norms - 1.0).max())
    verdict(3, "per-sector unitarity", worst <= 1e-10, f"max dev {worst:.2e}")


def test_criterion_04_concurrence_equivalence():
    s = random_xstates(np.random.default_rng(2024), 10_000)
    worst = np.abs(concurrence_wootters(s.matrix()) - observable_columns(s)["concurrence"]).max()
    verdict(4, "concurrence dual routes", worst <= 1e-10, f"max dev {worst:.2e}")


def test_criterion_05_inversion_cross_formula():
    times = np.linspace(0.0, 2.0, 200)
    worst = 0.0
    for k in GRID_K:
        for nbar in GRID_NBAR:
            params = ModelParams(lam=LAM, k=k)
            field = build_thermal(nbar)
            summed = observable_columns(two_qubit_states(params, field, times))["inversion"]
            for t, ws in zip(times, summed):
                wc = inversion_closed(params, field, float(t))
                worst = max(worst, abs(ws - wc))
    verdict(5, "inversion cross-formula", worst <= 1e-8, f"max dev {worst:.2e}")


def test_criterion_06_entropy_identity():
    times = np.linspace(0.0, 2.0, 200)
    worst = 0.0
    checked = 0
    for k in GRID_K:
        params = ModelParams(lam=LAM, k=k)
        field = build_thermal(1.0, 1e-12)
        s = two_qubit_states(params, field, times)
        m = observable_columns(s)
        closed = np.abs(1.0 - s.rho11 - s.rho22 - s.rho33 - s.rho44) <= 1e-10
        w = m["inversion"][closed]
        worst = max(worst, np.abs(m["entropy"][closed] - 0.5 * (1 - w * w)).max(initial=0.0))
        checked += int(closed.sum())
    verdict(6, "entropy identity", checked > 0 and worst <= 1e-10,
            f"{checked} pts, max dev {worst:.2e}")


def test_criterion_07_decoupled_baseline():
    params = ModelParams(lam=LAM, k=0.0)
    field = build_thermal(0.0)
    times = np.linspace(0.0, 2.0, 2000)
    conc = observable_columns(two_qubit_states(params, field, times))["concurrence"]
    dev = np.abs(conc - np.abs(np.sin(2 * LAM * times))).max()
    intervals = scan_esd(params, field, 0.0, 2.0, 4000)
    verdict(7, "g=0 baseline", dev <= 1e-12 and not intervals,
            f"max dev {dev:.2e}, {len(intervals)} intervals")


def test_criterion_08_esd_regimes(esd_runs):
    weak_hot = esd_runs[(0.1, 10.0)]["intervals"]
    strong_cold = esd_runs[(0.5, 1.0)]["intervals"]
    births = [iv for iv in strong_cold if not iv.open_right]
    t0, t1 = esd_runs[(0.5, 10.0)]["window"]
    dwell_strong = dwell_fraction(esd_runs[(0.5, 10.0)]["intervals"], t0, t1)
    dwell_weak = dwell_fraction(esd_runs[(0.1, 10.0)]["intervals"], t0, t1)
    ok = len(weak_hot) >= 1 and len(strong_cold) >= 3 and len(births) >= 3 \
        and dwell_strong > dwell_weak
    verdict(8, "ESD regimes", ok,
            f"k=.1/n=10: {len(weak_hot)} ivs; k=.5/n=1: {len(strong_cold)} ivs; "
            f"dwell {dwell_strong:.3f} > {dwell_weak:.3f}")


def test_criterion_09_no_coherence_sudden_death(esd_runs):
    ok = True
    detail = []
    for (k, nbar), run in esd_runs.items():
        if nbar == 0:
            continue
        dead = run["coherence"] < 1e-12
        # no stretch of two consecutive dead samples = no interval wider
        # than one grid step
        has_dead_interval = bool(np.any(dead[:-1] & dead[1:]))
        ok &= not has_dead_interval
        if k == 0.5:
            ok &= bool(np.any(run["lambda"] < 0))
        detail.append(f"k={k}/n={nbar}: dead={has_dead_interval}")
    verdict(9, "coherence never dies", ok, "; ".join(detail))


def test_criterion_10_truncation_robustness():
    times = np.linspace(0.0, 2.0, 100)
    eps = 1e-8
    worst = 0.0
    for k in GRID_K:
        params = ModelParams(lam=LAM, k=k)
        base = build_thermal(1.0, eps)
        doubled = build_thermal(1.0, 0.5 ** (2 * base.nmax + 1))
        ma = observable_columns(two_qubit_states(params, base, times))
        mb = observable_columns(two_qubit_states(params, doubled, times))
        for name in ("concurrence", "lambda", "coherence", "inversion", "entropy"):
            worst = max(worst, np.abs(ma[name] - mb[name]).max())
    verdict(10, "truncation robustness", worst <= 2 * eps, f"max shift {worst:.2e}")


def test_criterion_11_cli_determinism(tmp_path):
    payloads = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.csv"
        code = main([
            "run", "--k", "0.5", "--nbar", "1", "--steps", "300",
            "--detect-events", "-o", str(out),
        ])
        assert code == 0
        payloads.append(out.read_bytes())
    verdict(11, "CLI determinism", payloads[0] == payloads[1],
            f"{len(payloads[0])} bytes")
