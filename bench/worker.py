"""Runs one workload's operations, closed loop, in a fresh process.

run.py starts this script with the BLAS/OpenMP thread variables already in
its environment, so numpy reads them on its first import here. One caller
runs one operation at a time through ``esdsim.cli.main(argv)``; the unit of
operations repeats, whole, until ``--seconds`` have passed. With
``--trace 1`` every operation runs untraced and then traced, back to back,
so the difference between the two is the tracing overhead.

A speed probe (bench/speed.py) samples the host during every operation; an
operation's record holds its own wall time, without the probes', and that
time scaled to the reference speed.

Everything outside ``main(argv)`` (hashing outputs, the determinism re-run)
is outside the timed region. The result is a JSON record in ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import spans
import speed
import workloads


def _digest(directory: Path) -> tuple[str, int]:
    """sha256 over the names and bytes of every file, and the total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
        size += len(data)
    return h.hexdigest(), size


def _argv(op: workloads.Op, out: Path, break_output: bool) -> list[str]:
    target = out / "missing-dir" if break_output else out
    if op.key == "sweep":
        return [*op.args, "--output-dir", str(target), "-o", str(out / "summary.csv")]
    return [*op.args, "-o", str(target / f"{op.key}.csv")]


def _call(main, argv: list[str]) -> tuple[int | None, str | None, float]:
    start = time.perf_counter()
    try:
        rc, error = main(argv), None
    except SystemExit as exc:
        rc, error = exc.code if isinstance(exc.code, int) else 2, None
    except Exception as exc:  # a failed operation is counted, not fatal
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return rc, error, time.perf_counter() - start


def _blas_info() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
    except (TypeError, KeyError):
        return {"numpy": np.__version__, "blas": "unknown"}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--break-output", action="store_true")
    args = p.parse_args(argv)

    import esdsim.cli

    unit = workloads.unit(args.workload, args.seed, tiny=args.tiny)
    tracer = spans.Tracer()
    sampler = speed.Sampler()
    ops: list[dict] = []
    first: dict[str, dict] = {}
    passes = 0
    start = time.perf_counter()
    while True:
        for op in unit:
            for traced in (False, True) if args.trace else (False,):
                idx = len(ops)
                out = args.out / f"op{idx}"
                out.mkdir(parents=True)
                argv_op = _argv(op, out, args.break_output and idx == 0)
                if traced:
                    tracer.install()
                    tracer.begin_op(idx)
                with sampler:
                    rc, error, wall = _call(esdsim.cli.main, argv_op)
                probes_s, samples = sampler.result()
                wall -= probes_s
                if traced:
                    tracer.end_op()
                    tracer.uninstall()
                digest, size = _digest(out)
                rec = {"idx": idx, "key": op.key, "pass": passes, "traced": traced, "rc": rc,
                       "error": error, "wall_s": wall,
                       "scaled_s": wall * speed.scale(samples), "probes": len(samples),
                       "digest": digest, "bytes": size,
                       "dir": str(out)}
                if rc == 0 and op.key not in first:
                    first[op.key] = rec
                else:
                    shutil.rmtree(out)
                ops.append(rec)
        passes += 1
        if time.perf_counter() - start >= args.seconds:
            break

    # Determinism gate: when no operation ran twice, repeat the cheapest one.
    rerun = None
    if len({o["key"] for o in ops}) == len(ops) and first:
        base = min(first.values(), key=lambda r: r["wall_s"])
        op = next(o for o in unit if o.key == base["key"])
        out = args.out / "rerun"
        out.mkdir(parents=True)
        rc, error, _ = _call(esdsim.cli.main, _argv(op, out, False))
        digest, _ = _digest(out)
        rerun = {"key": op.key, "rc": rc, "error": error, "digest": digest}
        shutil.rmtree(out)

    record = {
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny, "trace": args.trace,
        "nproc": workloads.nproc(),
        "python": platform.python_version(), **_blas_info(),
        "threads": {k: os.environ.get(k) for k in workloads.THREAD_ENV},
        "unit": [dataclasses.asdict(o) for o in unit],
        "ops": ops, "rerun": rerun, "missing": tracer.missing,
        "counters": tracer.counters(),
    }
    with open(args.out / "spans.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
    (args.out / "record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
