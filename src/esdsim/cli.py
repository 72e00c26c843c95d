"""Command-line front end: time series, ESD reports, presets and sweeps."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field, fields, replace

import numpy as np

from . import __version__
from ._text import g17
from .dynamics import SectorTable, two_qubit_states
from .events import EsdInterval, dwell_fraction, esd_intervals
from .model import ModelParams, build_thermal, check_thermal
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

    def validate(self) -> RunConfig:
        """self if it can run, else a UsageError (FileNotFoundError if the
        output directory does not exist)."""
        if self.k is not None and self.g is not None:
            raise UsageError("give either k or g, not both")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["parse"] is float and value is not None and not math.isfinite(value):
                raise UsageError(f"{f.name} must be finite, got {value}")
        if not self.t0 < self.t1:
            raise UsageError(f"need t0 < t1, got [{self.t0}, {self.t1}]")
        if self.steps < 2:
            raise UsageError(f"steps must be >= 2, got {self.steps}")
        if not self.observables:
            raise UsageError("at least one observable must be selected")
        unknown = set(self.observables) - set(ALL_OBSERVABLES)
        if unknown:
            raise UsageError(f"unknown observables: {sorted(unknown)}")
        if len(set(self.observables)) < len(self.observables):
            raise UsageError(f"observables repeat: {' '.join(self.observables)}")
        if self.output_format not in ("csv", "json"):
            raise UsageError(f"output format must be csv or json, got {self.output_format}")
        try:
            self.params()
            check_thermal(self.nbar, self.epsilon)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _check_output(self.output_path)
        return self

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


def _check_output(path: str | None):
    """Fail before any work if path's directory does not exist; no path is stdout."""
    if path and not os.path.isdir(directory := os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(f"output directory {directory} does not exist")


def _write(path: str | None, text: str):
    """Write text to stdout, or atomically to path."""
    if not path:
        sys.stdout.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".esdsim-")
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


def _physics(config: RunConfig) -> tuple:
    """What fixes a run's evaluation; runs with equal keys share one.

    Floats enter by their bits: -0.0 and 0.0 are equal but print apart.
    """
    p = config.params()
    floats = (p.lam, p.g, config.nbar, config.epsilon, config.t0, config.t1)
    return (*(float(x).hex() for x in floats),
            config.steps, config.detect_events, config.oracle_check)


@dataclass
class Evaluation:
    """The outputs a run's physics fixes, shared by every run of it: the
    columns t, lambda_t and every observable, the ESD intervals (when
    detect_events) and the oracle deviation (when oracle_check)."""

    columns: dict[str, np.ndarray]
    intervals: list[EsdInterval]
    oracle_dev: float | None
    _text: dict[str, np.ndarray] = dc_field(default_factory=dict, init=False, repr=False)

    def text(self, name: str) -> np.ndarray:
        """Column name as a g17 byte matrix, formatted once per evaluation."""
        if name not in self._text:
            self._text[name] = g17(self.columns[name])
        return self._text[name]


def evaluate(config: RunConfig) -> Evaluation:
    """Evaluate the physics of a valid config (see _physics); writes nothing."""
    params = config.params()
    thermal = build_thermal(config.nbar, config.epsilon)
    times = np.linspace(config.t0, config.t1, config.steps)

    series = two_qubit_states(params, thermal, times)
    columns = {"t": times, "lambda_t": params.lam * times, **observable_columns(series)}

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
    return Evaluation(columns, intervals, oracle_dev)


def execute(config: RunConfig, evaluation: Evaluation) -> RunResult:
    """Render and write a valid config's output from the evaluation of its
    physics, and return its RunResult; validates and evaluates nothing."""
    _write(config.output_path, _render(config, evaluation))
    columns, oracle_dev = evaluation.columns, evaluation.oracle_dev
    result = RunResult(
        config=config,
        exit_code=EXIT_OK,
        max_concurrence=float(columns["concurrence"].max()),
        dwell=dwell_fraction(evaluation.intervals, config.t0, config.t1),
        final_entropy=float(columns["entropy"][-1]),
        oracle_deviation=oracle_dev,
    )
    if oracle_dev is not None and oracle_dev > ORACLE_FAIL_THRESHOLD:
        result.exit_code = EXIT_ORACLE
        result.error = f"oracle deviation {oracle_dev:.3e} exceeds {ORACLE_FAIL_THRESHOLD}"
    return result


def _render(config: RunConfig, evaluation: Evaluation) -> str:
    keys = ["t", "lambda_t", *config.observables]
    intervals, oracle_dev = evaluation.intervals, evaluation.oracle_dev
    if config.output_format == "json":
        doc = {
            "config": config.resolved(),
            "samples": [dict(zip(keys, row)) for row in
                        zip(*(evaluation.columns[key].tolist() for key in keys))],
            "events": [asdict(iv) for iv in intervals],
        }
        if oracle_dev is not None:
            doc["oracle"] = {
                "max_deviation": oracle_dev,
                "threshold": ORACLE_FAIL_THRESHOLD,
                "passed": oracle_dev <= ORACLE_FAIL_THRESHOLD,
            }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    # one byte row per sample: each cell and its ',', the last ',' made '\n'
    cells = [evaluation.text(key) for key in keys]
    comma = np.full((len(cells[0]), 1), ord(","), np.uint8)
    body = np.hstack([part for cell in cells for part in (cell, comma)])
    body[:, -1] = ord("\n")
    lines = [",".join(keys) + "\n", body.tobytes().translate(None, b"\0").decode("ascii")]
    if config.detect_events:
        lines.append("# esd_intervals: t_death,t_birth,min_lambda,refined\n")
        for iv in intervals:
            lines.append(
                "# " + ",".join([_fmt(iv.t_death), _fmt(iv.t_birth),
                                 _fmt(iv.min_lambda), str(iv.refined).lower()]) + "\n"
            )
    if oracle_dev is not None:
        ok = "pass" if oracle_dev <= ORACLE_FAIL_THRESHOLD else "FAIL"
        lines.append(f"# oracle_max_deviation,{_fmt(oracle_dev)},{ok}\n")
    return "".join(lines)


def _attempt(cfg: RunConfig, step: Callable):
    """step(), or the RunResult of its failure for cfg: a UsageError exits 2,
    any other error 4 (a file that cannot be read or written, for one). The
    message of any error but those and OSError or UnicodeError names its
    type, since it comes from a defect rather than from the input."""
    try:
        return step()
    except UsageError as exc:
        return RunResult(config=cfg, exit_code=EXIT_USAGE, error=str(exc))
    except (OSError, UnicodeError) as exc:
        return RunResult(config=cfg, exit_code=EXIT_IO, error=str(exc))
    except Exception as exc:  # isolate per-run failures
        return RunResult(config=cfg, exit_code=EXIT_IO, error=f"{type(exc).__name__}: {exc}")


def _run(items: list[RunConfig | tuple[str, Callable[[], RunConfig]]],
         jobs: int = 1) -> list[RunResult]:
    """The RunResult of each item, in order.

    An item is a (name, resolve) pair, or a RunConfig, which is its own
    resolve: resolve() builds the config inside the item's error isolation,
    and name labels its result when that fails. Items resolve and validate
    once, in order, before any evaluation; one that fails, or whose output
    file an earlier item writes, fails without running. Valid items with the
    same physics form one group, which one job evaluates once and writes
    member by member (a failed evaluation fails every member); with one job,
    one group's evaluation is held at a time.
    """
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    # results[i] holds item i's config until its group (its one writer) puts the result there
    results, groups, writer = [], {}, {}
    for item in items:
        name, resolve = (item.name, lambda: item) if isinstance(item, RunConfig) else item
        cfg = _attempt(RunConfig(name=name), resolve)
        if isinstance(cfg, RunConfig):
            cfg = _attempt(cfg, cfg.validate)
        if isinstance(cfg, RunConfig):
            path = cfg.output_path and os.path.abspath(cfg.output_path)
            if path and writer.setdefault(path, cfg) is not cfg:
                cfg = RunResult(config=cfg, exit_code=EXIT_USAGE,
                                error=f"output {path} already written by {writer[path].name}")
            else:
                groups.setdefault(_physics(cfg), []).append(len(results))
        results.append(cfg)

    def run_group(members: list[int]):
        first = results[members[0]]
        evaluation = _attempt(first, lambda: evaluate(first))
        for i in members:
            cfg = results[i]
            results[i] = (replace(evaluation, config=cfg) if isinstance(evaluation, RunResult)
                          else _attempt(cfg, lambda: execute(cfg, evaluation)))

    if jobs > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(run_group, groups.values()))
    else:
        for members in groups.values():
            run_group(members)
    return results


def sweep(configs: list[RunConfig | tuple[str, Callable[[], RunConfig]]],
          jobs: int = 1) -> tuple[str, int]:
    """Run the items as _run does and return (summary CSV, aggregate exit
    code): one row per item, and one stderr line per failed item's error."""
    lines = ["name,status,max_concurrence,dwell_fraction,final_entropy"]
    exit_code = EXIT_OK
    for res in _run(configs, jobs):
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
    # before Python 3.12 argparse reads "-1e-3" as an option, so "--t0 -1e-3"
    # lacked its value; every negative number, exponent form too, is a value,
    # and so are -inf and -nan, which validate() then refuses by name
    p._negative_number_matcher = re.compile(
        r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
    )
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

    def sweep_command() -> RunResult:
        _check_output(args.output)
        targets = [_sweep_target(t, args.output_dir) for t in args.targets or preset_names()]
        summary, exit_code = sweep(targets, jobs=args.jobs)
        _write(args.output, summary)
        return RunResult(config=RunConfig(name="sweep"), exit_code=exit_code)

    if args.command == "run":
        [result] = _run([("run", lambda: _config_from_args(args))])
    else:
        result = _attempt(RunConfig(name="sweep"), sweep_command)
    if result.error:
        print(f"esdsim: {result.error}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
