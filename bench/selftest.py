"""Self-test of the benchmark harness at tiny sizes; runs in about a minute.

    python3 bench/selftest.py

It checks that every metric of BENCHMARK.json is printed with its unit,
that ``--seed`` changes the esd/oracle inputs and nothing else, that a
really failing operation (an unwritable output path, exit 4) counts in
``failed`` without aborting the run, that the computed per-layer counts
repeat exactly across two traced runs of one seed, that the speed probe
samples the host during a block of work and its time is left out of the
block's, and that the harness refuses to run without an esdsim source tree.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*extra: str, cwd: Path = ROOT, workload: str = "esd", seed: int = 1,
        trace: int = 0) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def check_metrics_printed(workload: str, trace: int) -> dict:
    rc, lines = run("--tiny", workload=workload, trace=trace)
    assert rc == 0, (workload, trace, rc)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared], workload
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line
                   for line in lines[:-1]), f"{m['name']} not printed with its unit"
    return result["metrics"]


def check_layer_table():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]}
    assert declared == {n: spec[:2] for n, spec in spans.LAYER_METRICS.items()}


def check_seed_changes_only_inputs():
    assert workloads.unit("sweep", 1) == workloads.unit("sweep", 2)
    for w in ("esd", "oracle"):
        a, b = workloads.unit(w, 1), workloads.unit(w, 2)
        assert a != b and len(a) == len(b), w
        for x, y in zip(a, b):
            assert x.key == y.key
            diff = [i for i, (u, v) in enumerate(zip(x.args, y.args)) if u != v]
            assert {x.args[i - 1] for i in diff} <= {"--k", "--nbar"}, (x.args, y.args)
            px, py = dataclasses.asdict(x.physics[0][1]), dataclasses.asdict(y.physics[0][1])
            assert {f for f in px if px[f] != py[f]} <= {"k", "nbar"}, (px, py)
    assert workloads.unit("esd", 7) == workloads.unit("esd", 7)


def check_sampler():
    sampler = speed.Sampler()
    with sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.55:
            sum(range(1000))
    inside, samples = sampler.result()
    assert len(samples) >= 4 and 0.0 < inside < 0.55, (len(samples), inside)
    assert speed.scale(samples) > 0.0
    time.sleep(2 * speed.PERIOD_S)  # the timer is off: no sample comes in late
    assert sampler.result()[1] == samples


def check_failure_counted():
    rc, lines = run("--tiny", "--break-output", workload="esd")
    result = json.loads(lines[-1])
    assert rc == 0 and not result["correct"], result
    assert 1 <= result["failed"] < result["attempted"], result
    assert any(line.startswith("failed_frac") for line in lines)


def check_refuses_without_source():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        rc, lines = run(cwd=bare)
    finally:
        shutil.rmtree(bare)
        if not any((ROOT / ".bench_out").iterdir()):
            (ROOT / ".bench_out").rmdir()
    assert rc != 0 and not any(line.startswith("{") for line in lines), (rc, lines)


def main() -> int:
    check_layer_table()
    check_seed_changes_only_inputs()
    check_sampler()
    for w in workloads.NAMES:
        check_metrics_printed(w, 0)
        first = check_metrics_printed(w, 1)
        again = check_metrics_printed(w, 1)
        for name in spans.COMPUTED:
            assert first[name] == again[name], (w, name, first[name], again[name])
    check_failure_counted()
    check_refuses_without_source()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
