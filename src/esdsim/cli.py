"""Command-line front end: time series, ESD reports, presets and sweeps."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field, asdict

import numpy as np

from . import __version__
from .dynamics import two_qubit_states
from .events import dwell_fraction, scan_esd
from .model import ModelParams, ThermalField, build_thermal
from .observables import observable_columns
from .oracle import build_hamiltonians, reduced_two_qubit_series

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_IO = 4

ALL_OBSERVABLES = ("concurrence", "lambda", "coherence", "inversion", "entropy")
ORACLE_FAIL_THRESHOLD = 1e-7

# window lengths in units of lam*t: >=5, >=20 and >=100 oscillation
# periods of the isolated-pair concurrence (period pi in lam*t)
_WINDOWS = {"short": (20.0, 2000), "medium": (80.0, 4000), "long": (400.0, 8000)}
_FIG_K = {1: 0.1, 2: 0.5, 3: 0.1, 4: 0.5, 5: 0.1, 6: 0.5, 7: 0.1, 8: 0.5}
_FIG_OBS = {
    1: "concurrence", 2: "concurrence",
    3: "lambda", 4: "lambda",
    5: "coherence", 6: "coherence",
    7: "entropy", 8: "entropy",
}
_PANELS = {
    "a": (1.0, "short"), "b": (1.0, "medium"), "c": (1.0, "long"),
    "d": (10.0, "short"), "e": (10.0, "medium"), "f": (10.0, "long"),
}


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    lam: float = 10.0
    k: float | None = None
    g: float | None = None
    nbar: float = 0.0
    epsilon: float = 1e-10
    t0: float = 0.0
    t1: float = 2.0
    steps: int = 2000
    observables: tuple[str, ...] = ALL_OBSERVABLES
    detect_events: bool = False
    oracle_check: bool = False
    output_format: str = "csv"
    output_path: str | None = None
    name: str = "run"

    def validate(self):
        if self.k is not None and self.g is not None:
            raise UsageError("give either --k or --g, not both")
        for name in ("lam", "k", "g", "nbar", "epsilon", "t0", "t1"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")
        if self.lam <= 0:
            raise UsageError(f"lambda must be > 0, got {self.lam}")
        if not self.t0 < self.t1:
            raise UsageError(f"need t0 < t1, got [{self.t0}, {self.t1}]")
        if self.steps < 2:
            raise UsageError(f"steps must be >= 2, got {self.steps}")
        if not self.observables:
            raise UsageError("at least one observable must be selected")
        unknown = set(self.observables) - set(ALL_OBSERVABLES)
        if unknown:
            raise UsageError(f"unknown observables: {sorted(unknown)}")
        if self.output_format not in ("csv", "json"):
            raise UsageError(f"output format must be csv or json, got {self.output_format}")
        try:
            self.params()
            build_thermal(self.nbar, self.epsilon)
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    def params(self) -> ModelParams:
        if self.g is not None:
            return ModelParams(lam=self.lam, g=self.g)
        k = self.k if self.k is not None else 0.0
        return ModelParams.from_k(lam=self.lam, k=k)

    def resolved(self) -> dict:
        """Fully materialized config for provenance output."""
        d = asdict(self)
        d["g"] = self.params().g
        d["k"] = self.params().k
        d["observables"] = list(self.observables)
        return d


def preset_names() -> list[str]:
    return [f"fig{fig}{panel}" for fig in range(1, 9) for panel in "abcdef"]


def preset_config(name: str) -> RunConfig:
    """One of the 48 figure-panel regimes: figN sets k and the observable,
    the panel letter sets nbar and the time window."""
    if len(name) != 5 or not name.startswith("fig") or name[4] not in _PANELS:
        raise UsageError(f"unknown preset {name!r}; see --list-presets")
    try:
        fig = int(name[3])
    except ValueError:
        raise UsageError(f"unknown preset {name!r}; see --list-presets")
    if fig not in _FIG_K:
        raise UsageError(f"unknown preset {name!r}; see --list-presets")
    nbar, window = _PANELS[name[4]]
    lam_t_span, steps = _WINDOWS[window]
    lam = 10.0
    return RunConfig(
        lam=lam,
        k=_FIG_K[fig],
        nbar=nbar,
        t1=lam_t_span / lam,
        steps=steps,
        observables=(_FIG_OBS[fig],),
        name=name,
    )


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".esdsim-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class RunResult:
    config: RunConfig
    exit_code: int
    max_concurrence: float = float("nan")
    dwell: float = float("nan")
    final_entropy: float = float("nan")
    oracle_deviation: float | None = None
    error: str | None = None


def execute(config: RunConfig) -> RunResult:
    """Evaluate one configuration and write its output file."""
    config.validate()
    params = config.params()
    thermal = build_thermal(config.nbar, config.epsilon)
    times = np.linspace(config.t0, config.t1, config.steps)

    series = two_qubit_states(params, thermal, times)
    columns = observable_columns(series)

    intervals = []
    if config.detect_events:
        intervals = scan_esd(params, thermal, config.t0, config.t1, config.steps)

    oracle_dev = None
    if config.oracle_check:
        h = build_hamiltonians(params, fock_cutoff=thermal.nmax + 2)
        oracle = reduced_two_qubit_series(h, thermal, times)
        oracle_dev = max(
            float(np.abs(getattr(series, name) - getattr(oracle, name)).max())
            for name in ("rho11", "rho22", "rho33", "rho44", "rho23")
        )

    text = _render(config, params, times, columns, intervals, oracle_dev)
    if config.output_path:
        try:
            _atomic_write(config.output_path, text)
        except OSError as exc:
            return RunResult(config=config, exit_code=EXIT_IO, error=str(exc))
    else:
        sys.stdout.write(text)

    result = RunResult(
        config=config,
        exit_code=EXIT_OK,
        max_concurrence=float(columns["concurrence"].max()),
        dwell=dwell_fraction(intervals, config.t0, config.t1),
        final_entropy=float(columns["entropy"][-1]),
        oracle_deviation=oracle_dev,
    )
    if oracle_dev is not None and oracle_dev > ORACLE_FAIL_THRESHOLD:
        result.exit_code = EXIT_ORACLE
        result.error = f"oracle deviation {oracle_dev:.3e} exceeds {ORACLE_FAIL_THRESHOLD}"
    return result


def _render(config, params, times, columns, intervals, oracle_dev) -> str:
    rows = [times, params.lam * times] + [columns[name] for name in config.observables]
    if config.output_format == "json":
        keys = ["t", "lambda_t", *config.observables]
        doc = {
            "config": config.resolved(),
            "samples": [dict(zip(keys, row)) for row in zip(*(r.tolist() for r in rows))],
            "events": [
                {
                    "t_death": iv.t_death,
                    "t_birth": iv.t_birth,
                    "min_lambda": iv.min_lambda,
                    "refined": iv.refined,
                    "open_left": iv.open_left,
                    "open_right": iv.open_right,
                }
                for iv in intervals
            ],
        }
        if oracle_dev is not None:
            doc["oracle"] = {
                "max_deviation": oracle_dev,
                "threshold": ORACLE_FAIL_THRESHOLD,
                "passed": oracle_dev <= ORACLE_FAIL_THRESHOLD,
            }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    lines = ["t,lambda_t," + ",".join(config.observables)]
    row_format = ",".join(["{:.17g}"] * len(rows))  # _fmt, for each column
    lines += [row_format.format(*row) for row in zip(*(r.tolist() for r in rows))]
    if config.detect_events:
        lines.append("# esd_intervals: t_death,t_birth,min_lambda,refined")
        for iv in intervals:
            lines.append(
                "# " + ",".join([_fmt(iv.t_death), _fmt(iv.t_birth),
                                 _fmt(iv.min_lambda), str(iv.refined).lower()])
            )
    if oracle_dev is not None:
        ok = "pass" if oracle_dev <= ORACLE_FAIL_THRESHOLD else "FAIL"
        lines.append(f"# oracle_max_deviation,{_fmt(oracle_dev)},{ok}")
    return "\n".join(lines) + "\n"


def sweep(configs: list[RunConfig], jobs: int = 1) -> tuple[str, int]:
    """Run several configs, return (summary CSV, aggregate exit code)."""
    def one(cfg: RunConfig) -> RunResult:
        try:
            return execute(cfg)
        except UsageError as exc:
            return RunResult(config=cfg, exit_code=EXIT_USAGE, error=str(exc))
        except Exception as exc:  # isolate per-run failures
            return RunResult(config=cfg, exit_code=EXIT_IO, error=str(exc))

    if jobs > 1 and len(configs) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, configs))
    else:
        results = [one(cfg) for cfg in configs]

    lines = ["name,status,max_concurrence,dwell_fraction,final_entropy"]
    exit_code = EXIT_OK
    for res in results:
        status = "ok" if res.exit_code == EXIT_OK else f"failed({res.exit_code})"
        lines.append(",".join([
            res.config.name, status,
            _fmt(res.max_concurrence), _fmt(res.dwell), _fmt(res.final_entropy),
        ]))
        exit_code = max(exit_code, res.exit_code)
    return "\n".join(lines) + "\n", exit_code


def _read_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {raw.rstrip()!r} in {path}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


_FILE_KEYS = {
    "lambda": ("lam", float), "k": ("k", float), "g": ("g", float),
    "nbar": ("nbar", float), "epsilon": ("epsilon", float),
    "t0": ("t0", float), "t1": ("t1", float), "steps": ("steps", int),
    "observables": ("observables", lambda s: tuple(s.split())),
    "detect_events": ("detect_events", lambda s: s.lower() in ("1", "true", "yes")),
    "oracle_check": ("oracle_check", lambda s: s.lower() in ("1", "true", "yes")),
    "output_format": ("output_format", str),
    "output_path": ("output_path", str),
    "name": ("name", str),
}


def _config_from_args(args) -> RunConfig:
    if args.k is not None and args.g is not None:
        raise UsageError("give either --k or --g, not both")
    if args.preset:
        cfg = preset_config(args.preset)
    else:
        cfg = RunConfig()
    if args.config:
        for key, val in _read_config_file(args.config).items():
            if key not in _FILE_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            attr, conv = _FILE_KEYS[key]
            try:
                setattr(cfg, attr, conv(val))
            except ValueError:
                raise UsageError(f"bad value {val!r} for config key {key!r}") from None
    # flags override both preset and file
    for flag, attr in [
        ("lam", "lam"), ("k", "k"), ("g", "g"), ("nbar", "nbar"),
        ("epsilon", "epsilon"), ("t0", "t0"), ("t1", "t1"), ("steps", "steps"),
        ("output_format", "output_format"), ("output", "output_path"),
    ]:
        val = getattr(args, flag)
        if val is not None:
            setattr(cfg, attr, val)
    if args.observables:
        cfg.observables = tuple(args.observables)
    if args.detect_events:
        cfg.detect_events = True
    if args.oracle_check:
        cfg.oracle_check = True
    if args.k is not None:
        cfg.g = None
    elif args.g is not None:
        cfg.k = None
    return cfg


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--preset", help="named figure-panel regime, e.g. fig1d")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=None,
                   help="qubit-qubit coupling (default 10.0)")
    p.add_argument("--k", type=float, default=None, help="coupling ratio g/lambda")
    p.add_argument("--g", type=float, default=None, help="qubit2-field coupling")
    p.add_argument("--nbar", type=float, default=None, help="mean thermal photon number")
    p.add_argument("--epsilon", type=float, default=None,
                   help="thermal truncation tolerance (default 1e-10)")
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--t1", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--observables", nargs="+", choices=ALL_OBSERVABLES, default=None)
    p.add_argument("--detect-events", action="store_true")
    p.add_argument("--oracle-check", action="store_true",
                   help="also run the brute-force validator and report max deviation")
    p.add_argument("--output-format", choices=("csv", "json"), default=None)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esdsim",
        description="Exact dynamics of two coupled qubits with a single-mode "
                    "thermal environment on one of them.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--list-presets", action="store_true",
                        help="print available presets and exit")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="evaluate one configuration")
    _add_run_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="run several presets/configs, print a summary")
    sweep_p.add_argument("targets", nargs="*",
                         help="preset names or config file paths; default: all 48 presets")
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.add_argument("--output-dir", default=".",
                         help="directory for per-run CSV files")
    sweep_p.add_argument("-o", "--output", default=None, help="summary file (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_presets:
        print("\n".join(preset_names()))
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE

    try:
        if args.command == "run":
            result = execute(_config_from_args(args))
            if result.error:
                print(f"esdsim: {result.error}", file=sys.stderr)
            return result.exit_code

        targets = args.targets or preset_names()
        configs = []
        for target in targets:
            if os.path.exists(target):
                ns = argparse.Namespace(
                    preset=None, config=target, lam=None, k=None, g=None,
                    nbar=None, epsilon=None, t0=None, t1=None, steps=None,
                    observables=None, detect_events=False, oracle_check=False,
                    output_format=None, output=None,
                )
                cfg = _config_from_args(ns)
                if cfg.name == "run":
                    cfg.name = os.path.splitext(os.path.basename(target))[0]
            else:
                cfg = preset_config(target)
            if cfg.output_path is None:
                cfg.output_path = os.path.join(args.output_dir, f"{cfg.name}.{cfg.output_format}")
            configs.append(cfg)
        summary, exit_code = sweep(configs, jobs=args.jobs)
        if args.output:
            _atomic_write(args.output, summary)
        else:
            sys.stdout.write(summary)
        return exit_code
    except UsageError as exc:
        print(f"esdsim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"esdsim: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
