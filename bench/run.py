"""esdsim benchmark: one seeded workload per run, end-to-end or traced.

    python3 bench/run.py --workload {sweep,esd,oracle} --seed N --seconds S --trace {0,1}

Run it from the root of an esdsim source tree; it imports ``src/esdsim``
from there. It times how long a fresh interpreter takes to answer
``esdsim --list-presets`` (``setup_s``), then runs the workload in a fresh
worker process (bench/worker.py) with pinned BLAS threads, then checks every
operation's outputs outside the timed region (bench/reference.py).

Every time is scaled to a reference host speed by a probe that samples
the host while the benchmark times (bench/speed.py): ``setup_s``,
``ops_per_s`` and ``op_p50_s`` are the figures on a host where one probe
takes ``speed.REF_PROBE_S``. The unscaled wall-clock figures are printed
too, as ``*_wall*`` lines, and are not metrics.

Every metric is printed as a table line with its unit. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics of BENCHMARK.json with ``--trace 0``
and its per-layer metrics with ``--trace 1``. Run files go to
``.bench_out/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 7
WORKER_TIMEOUT_S = 170.0
SETUP_CODE = ("import sys, esdsim, esdsim.cli; "
              "sys.exit(esdsim.cli.main(['--list-presets']))")


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), **workloads.THREAD_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(env: dict, reps: int) -> tuple[float, float, bool]:
    """Median time of a fresh interpreter answering --list-presets, scaled
    by probe bursts just before and just after it, and unscaled."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    ok = True
    scaled, walls = [], []
    before = speed.burst()
    for i in range(reps + 1):  # the first call fills the bytecode cache, untimed
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - start
        after = speed.burst()
        ok &= proc.returncode == 0 and len(proc.stdout.split()) == 48
        if i:
            walls.append(elapsed)
            scaled.append(elapsed * speed.scale(before + after))
        before = after
    return _median(scaled), _median(walls), ok


def run_worker(args, env: dict, out: Path) -> tuple[int, float]:
    """Run the workload process; return its exit status and peak RSS in MB."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    cmd += ["--tiny"] * args.tiny + ["--break-output"] * args.break_output
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # Linux reports KiB


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "esdsim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_ops(record: dict, seed: int) -> dict[int, list[str]]:
    """Problems per operation index: exit code, determinism, reference."""
    import reference

    units = {o["key"]: o for o in record["unit"]}
    checker = reference.Checker(seed)
    problems: dict[int, list[str]] = {o["idx"]: [] for o in record["ops"]}
    first: dict[str, dict] = {}
    for o in record["ops"]:
        if o["rc"] != 0:
            problems[o["idx"]].append(f"exit {o['rc']} {o['error'] or ''}".strip())
        elif o["key"] not in first:
            first[o["key"]] = o
        elif o["digest"] != first[o["key"]]["digest"]:
            problems[o["idx"]].append("output differs from the first repetition")
    rerun = record["rerun"]
    if rerun and (rerun["rc"] != 0 or rerun["digest"] != first[rerun["key"]]["digest"]):
        problems[first[rerun["key"]]["idx"]].append("repeated run's output differs")

    for key, o in first.items():
        op = units[key]
        found = []
        for stem, phys in op["physics"]:
            found += checker.check_output(Path(o["dir"]) / f"{stem}.csv",
                                          workloads.Physics(**phys),
                                          detect_events="--detect-events" in op["args"],
                                          oracle_check="--oracle-check" in op["args"])
        for other in record["ops"]:  # byte-identical repetitions share the verdict
            if other["key"] == key and other["digest"] == o["digest"]:
                problems[other["idx"]] += found
    return problems


def _tail(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(walls) < 11:
        return f"n/a (needs >= 11 operations, have {len(walls)})"
    ordered = sorted(walls)
    pct = 100.0 * (len(ordered) - 10) / len(ordered)
    return f"{ordered[-11]:.6g} s (p{pct:.1f}, 10 of {len(ordered)} samples beyond)"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "esd", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes (bench/selftest.py)")
    p.add_argument("--break-output", action="store_true",
                   help="self-test: point the first operation's output at a missing directory")
    args = p.parse_args(argv)

    if not (SRC / "esdsim" / "cli.py").is_file():
        print(f"run.py: no esdsim source tree at {SRC}; run from an esdsim checkout",
              file=sys.stderr)
        return 2

    # One CPU for the harness, the setup interpreters and the worker, so the
    # probe samples the CPU that does the work; the last one, as the first
    # takes most device interrupts.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = _env()
    phases = {}
    start = time.perf_counter()
    out = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        setup_s, setup_wall_s, setup_ok = measure_setup(env, 3 if args.tiny else SETUP_REPS)
        phases["setup"] = time.perf_counter() - start
        status, peak_rss_mb = run_worker(args, env, out)
        phases["worker"] = time.perf_counter() - start - sum(phases.values())
        if status != 0:
            print(f"run.py: worker exited with status {status}", file=sys.stderr)
            return 1
        record = json.loads((out / "record.json").read_text())
        problems = check_ops(record, args.seed)
        phases["checks"] = time.perf_counter() - start - sum(phases.values())
        span_list = [json.loads(line) for line in open(out / "spans.jsonl")]
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if out.parent.exists() and not any(out.parent.iterdir()):
            out.parent.rmdir()

    ops = record["ops"]
    failed = sum(1 for o in ops if problems[o["idx"]])
    for o in ops:
        for msg in problems[o["idx"]]:
            print(f"FAILED op {o['idx']} ({o['key']}): {msg}", file=sys.stderr)
    untraced = [o for o in ops if not o["traced"]]
    walls = [o["wall_s"] for o in untraced]
    scaled = [o["scaled_s"] for o in untraced]

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "source_sha256": _source_digest(),
        **{k: record[k] for k in ("nproc", "python", "numpy", "blas", "threads")},
        "cpu": cpu, "ref_probe_s": speed.REF_PROBE_S,
        "phases_s": {k: round(v, 3) for k, v in phases.items()},
        "inputs": [" ".join(o["args"]) for o in record["unit"]],
        "unwrapped": record["missing"],
    }
    print("# " + json.dumps(info))
    for o in ops:
        print(f"# op {o['idx']} {o['key']} pass {o['pass']} traced {int(o['traced'])} "
              f"exit {o['rc']} wall_s {o['wall_s']:.6f} scaled_s {o['scaled_s']:.6f} "
              f"probes {o['probes']}")

    if args.trace:
        # each operation ran untraced, then traced: both sides ran the same operations
        traced = [o for o in ops if o["traced"]]
        values, absent = spans.layer_metrics(
            span_list, record["counters"], len(traced), sum(o["bytes"] for o in traced),
            sum(scaled), sum(o["scaled_s"] for o in traced),
            {o["idx"]: o["scaled_s"] / o["wall_s"] for o in traced})
        units = {m: spec[0] for m, spec in spans.LAYER_METRICS.items()}
        for name, value in values.items():
            note = "absent" if name in absent else (
                "computed" if name in spans.COMPUTED else "measured")
            print(f"{name:28s} {value:>16.8g} {units[name]:9s} {note:9s} "
                  f"moves: {spans.LAYER_METRICS[name][3]}")
        metrics = {m: {"value": values[m], "unit": units[m]} for m in values}
    else:
        e2e = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
            "op_p50_s": (_median(scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        for name, (value, unit) in e2e.items():
            print(f"{name:28s} {value:>16.8g} {unit}")
        print(f"{'op_samples':28s} {len(scaled):>16d} count")
        print(f"{'op_tail_s':28s} {_tail(scaled)}")
        print(f"{'setup_wall_s':28s} {setup_wall_s:>16.8g} s (unscaled)")
        print(f"{'ops_per_wall_s':28s} {len(walls) / sum(walls):>16.8g} 1/s (unscaled)")
        print(f"{'op_p50_wall_s':28s} {_median(walls):>16.8g} s (unscaled)")
        print(f"{'host_speed':28s} {sum(scaled) / sum(walls):>16.8g} ratio "
              "(reference seconds per wall second)")
        print(f"{'failed_frac':28s} {failed / len(ops):>16.8g} ratio ({failed} of {len(ops)})")
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in e2e.items()}
    print(json.dumps({"correct": failed == 0 and setup_ok, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
