"""Command-line front end: time series, ESD reports, presets and sweeps."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field, fields, replace

import numpy as np

from . import __version__
from .dynamics import SectorTable, two_qubit_states
from .events import dwell_fraction, esd_intervals
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


def _parse_bool(text: str) -> bool:
    """A config-file boolean: 1/true/yes or 0/false/no, in any case."""
    words = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    if text.lower() not in words:
        raise ValueError(f"not a boolean: {text!r}")
    return words[text.lower()]


def _option(default, parse, *flags, key=None, help=None, **flag_kw):
    """A RunConfig field with its schema: the parser of a config-file value,
    the command-line flags and their argparse keywords (the type is the file
    parser unless they set an action or a type), and the config-file key
    where it is not the field name."""
    if "action" not in flag_kw:
        flag_kw.setdefault("type", parse)
    return dc_field(default=default, metadata={
        "parse": parse, "flags": flags, "key": key, "flag_kw": dict(flag_kw, help=help)})


@dataclass
class RunConfig:
    """The inputs of one run; each field's metadata is its schema."""

    lam: float = _option(10.0, float, "--lam", "--lambda", key="lambda",
                         help="qubit-qubit coupling (default 10.0)")
    k: float | None = _option(None, float, "--k", help="coupling ratio g/lambda")
    g: float | None = _option(None, float, "--g", help="qubit2-field coupling")
    nbar: float = _option(0.0, float, "--nbar", help="mean thermal photon number")
    epsilon: float = _option(1e-10, float, "--epsilon",
                             help="thermal truncation tolerance (default 1e-10)")
    t0: float = _option(0.0, float, "--t0", help="start of the time window (default 0.0)")
    t1: float = _option(2.0, float, "--t1", help="end of the time window (default 2.0)")
    steps: int = _option(2000, int, "--steps", help="time grid points (default 2000)")
    observables: tuple[str, ...] = _option(
        ALL_OBSERVABLES, str.split, "--observables", type=str, nargs="+",
        choices=ALL_OBSERVABLES, help="output columns (default all)")
    detect_events: bool = _option(False, _parse_bool, "--detect-events", action="store_true",
                                  help="report the intervals of entanglement sudden death")
    oracle_check: bool = _option(
        False, _parse_bool, "--oracle-check", action="store_true",
        help="also run the brute-force validator and report max deviation")
    output_format: str = _option("csv", str, "--output-format", choices=("csv", "json"),
                                 help="output format (default csv)")
    output_path: str | None = _option(None, str, "-o", "--output", metavar="OUTPUT",
                                      help="output file (default stdout)")
    # labels a sweep row and its output file; config files and presets set it
    name: str = _option("run", str)

    def __post_init__(self):
        self.observables = tuple(self.observables)

    def validate(self):
        if self.k is not None and self.g is not None:
            raise UsageError("give either k or g, not both")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["parse"] is float and value is not None and not math.isfinite(value):
                raise UsageError(f"{f.name} must be finite, got {value}")
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
    if name not in preset_names():
        raise UsageError(f"unknown preset {name!r}; see --list-presets")
    fig, (nbar, window) = int(name[3]), _PANELS[name[4]]
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
        intervals = esd_intervals(SectorTable(params, thermal), times, columns["lambda"])

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


def sweep(configs: list[RunConfig | tuple[str, Callable[[], RunConfig]]],
          jobs: int = 1) -> tuple[str, int]:
    """Run several configs, return (summary CSV, aggregate exit code).

    An item is a RunConfig or a (name, resolve) pair: resolve() builds the
    config inside the run's error isolation, and name labels the row when
    it fails. Items resolve in order, before any runs; an item whose output
    directory does not exist, or whose output file an earlier item writes,
    fails without running. Each failed run's error goes to stderr as one line.
    """
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")

    def isolated(cfg: RunConfig, step: Callable):
        try:
            return step()
        except UsageError as exc:
            return RunResult(config=cfg, exit_code=EXIT_USAGE, error=str(exc))
        except Exception as exc:  # isolate per-run failures
            return RunResult(config=cfg, exit_code=EXIT_IO, error=str(exc))

    runs, writer = [], {}
    for item in configs:
        name, resolve = (item.name, lambda: item) if isinstance(item, RunConfig) else item
        cfg = isolated(RunConfig(name=name), resolve)
        if isinstance(cfg, RunConfig) and cfg.output_path:
            path = os.path.abspath(cfg.output_path)
            directory = os.path.dirname(path)
            if not os.path.isdir(directory):
                cfg = RunResult(config=cfg, exit_code=EXIT_IO,
                                error=f"output directory {directory} does not exist")
            elif path in writer:
                cfg = RunResult(config=cfg, exit_code=EXIT_USAGE,
                                error=f"output {path} already written by {writer[path]}")
            else:
                writer[path] = cfg.name
        runs.append(cfg)

    def one(cfg) -> RunResult:
        return cfg if isinstance(cfg, RunResult) else isolated(cfg, lambda: execute(cfg))

    if jobs > 1 and len(runs) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, runs))
    else:
        results = [one(cfg) for cfg in runs]

    lines = ["name,status,max_concurrence,dwell_fraction,final_entropy"]
    exit_code = EXIT_OK
    for res in results:
        status = "ok" if res.exit_code == EXIT_OK else f"failed({res.exit_code})"
        lines.append(",".join([
            res.config.name, status,
            _fmt(res.max_concurrence), _fmt(res.dwell), _fmt(res.final_entropy),
        ]))
        exit_code = max(exit_code, res.exit_code)
        if res.error:
            print(f"esdsim: {res.config.name}: {res.error}", file=sys.stderr)
    return "\n".join(lines) + "\n", exit_code


def _read_config_file(path: str) -> dict:
    """key=value lines, '#' starts a comment; returns parsed values by field."""
    by_key = {f.metadata["key"] or f.name: f for f in fields(RunConfig)}
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {raw.rstrip()!r} in {path}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in by_key:
                raise UsageError(f"unknown config key {key!r}")
            try:
                out[by_key[key].name] = by_key[key].metadata["parse"](val)
            except ValueError:
                raise UsageError(f"bad value {val!r} for config key {key!r}") from None
    return out


def load_config(preset: str | None = None, path: str | None = None,
                flags: dict | None = None) -> RunConfig:
    """Defaults, then a preset, then a config file, then flag values by field.

    Each layer overrides the fields it sets. k and g are one choice: a layer
    that sets one clears the other, and one that sets both fails validate().
    """
    cfg = preset_config(preset) if preset else RunConfig()
    for layer in (_read_config_file(path) if path else {}, flags or {}):
        cleared = {"g": None} if "k" in layer else {"k": None} if "g" in layer else {}
        cfg = replace(cfg, **{**cleared, **layer})
    return cfg


def _config_from_args(args) -> RunConfig:
    flags = {f.name: value for f in fields(RunConfig)
             if (value := getattr(args, f.name, None)) is not None}
    return load_config(args.preset, args.config, flags)


def _sweep_target(target: str, output_dir: str) -> tuple[str, Callable[[], RunConfig]]:
    """(row name, resolve) of a preset name or config file path for sweep()."""
    is_file = os.path.exists(target)
    name = os.path.splitext(os.path.basename(target))[0] if is_file else target

    def resolve() -> RunConfig:
        cfg = load_config(path=target) if is_file else load_config(preset=target)
        if cfg.name == "run":
            cfg.name = name
        if cfg.output_path is None:
            cfg.output_path = os.path.join(output_dir, f"{cfg.name}.{cfg.output_format}")
        return cfg

    return name, resolve


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--preset", help="named figure-panel regime, e.g. fig1d")
    p.add_argument("--config", help="key=value config file; flags override it")
    for f in fields(RunConfig):
        if f.metadata["flags"]:
            p.add_argument(*f.metadata["flags"], dest=f.name, default=None,
                           **f.metadata["flag_kw"])


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

        targets = [_sweep_target(t, args.output_dir) for t in args.targets or preset_names()]
        summary, exit_code = sweep(targets, jobs=args.jobs)
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
