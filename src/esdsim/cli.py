"""Command-line front end: time series, ESD reports, presets and sweeps."""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field as dc_field, fields, replace

import numpy as np

from . import __version__
from ._text import WIDTH, g17
from .dynamics import SectorTable, sector_frequencies, two_qubit_states
from .events import EsdInterval, dwell_fraction, esd_intervals
from .model import ModelParams, build_thermal
from .observables import observable_columns
from .oracle import build_hamiltonians, reduced_two_qubit_series

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_IO = 4

ALL_OBSERVABLES = ("concurrence", "lambda", "coherence", "inversion", "entropy")
ORACLE_FAIL_THRESHOLD = 1e-7
# the largest phase omega_plus lam t whose rounding, about phase * 2^-53, stays
# inside the 1e-9 to which ESD endpoints are closed
_MAX_PHASE = 1e-9 * 2.0**53

# a preset's (lam*t span, steps) by its panel: lam*t spans of >=5, >=20 and
# >=100 oscillation periods of the isolated-pair concurrence (period pi in lam*t)
_WINDOWS = ((20.0, 2000), (80.0, 4000), (400.0, 8000))


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
    k: float = _option(0.0, float, "--k", help="coupling ratio g/lambda (default 0.0)")
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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["parse"] is float and not math.isfinite(value):
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
            nmax = build_thermal(self.nbar, self.epsilon).nmax
            _check_numbers(self.params(), nmax, self.t0, self.t1)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _check_output(self.output_path)
        return self

    def params(self) -> ModelParams:
        return ModelParams(lam=self.lam, k=self.k)


def _check_numbers(params: ModelParams, nmax: int, t0: float, t1: float):
    """Raise ValueError unless the window's span is finite and its largest
    phase, the last sector's (n = nmax) omega_plus lam t at the window's
    farther end, is at most _MAX_PHASE. The sector constants depend on k
    alone and grow with n and k; where they overflow, so does omega_plus."""
    if not math.isfinite(t1 - t0):
        raise ValueError(f"time window [{t0}, {t1}] too wide: its span t1 - t0 overflows")
    with np.errstate(over="ignore", invalid="ignore"):
        omega = sector_frequencies(np.float64(params.k), nmax).omega_plus
        phase = omega * (params.lam * max(abs(t0), abs(t1)))
    if not phase <= _MAX_PHASE:
        raise ValueError(f"phase omega_plus lam t = {phase:.3g} of sector {nmax} exceeds "
                         f"{_MAX_PHASE:.3g}: lam = {params.lam}, k = {params.k}, "
                         f"time window [{t0}, {t1}]")


def preset_names() -> list[str]:
    return [f"fig{fig}{panel}" for fig in range(1, 9) for panel in "abcdef"]


def preset_config(name: str) -> RunConfig:
    """One of the 48 figure-panel regimes, by its rules: figN sets k (0.1 odd,
    0.5 even) and the observable, the panel letter nbar (1 for a-c, 10 for
    d-f) and the time window; lam is the RunConfig default."""
    if name not in preset_names():
        raise UsageError(f"unknown preset {name!r}; see --list-presets")
    fig, panel = int(name[3]), "abcdef".index(name[4])
    lam_t_span, steps = _WINDOWS[panel % 3]
    observable = ("concurrence", "lambda", "coherence", "entropy")[(fig - 1) // 2]
    return RunConfig(k=0.1 if fig % 2 else 0.5, nbar=1.0 if panel < 3 else 10.0,
                     t1=lam_t_span / RunConfig.lam, steps=steps, observables=(observable,),
                     name=name)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _check_output(path: str | None):
    """Fail before any work if the directory of the file path resolves to,
    through any symlinks, does not exist; no path is stdout."""
    if path and not os.path.isdir(directory := os.path.dirname(os.path.realpath(path))):
        raise FileNotFoundError(f"output directory {directory} does not exist")


class _Output:
    """An output being written as bytes: stdout when path is None, an
    existing file that is not a regular one (a FIFO, a device) in place, and
    any other path as a temporary file beside the file it resolves to,
    through any symlinks, that close() puts in its place atomically. The
    temporary file gets the mode open() would give the file: the kernel
    applies the umask in force when it is created. As a context manager it
    keeps the output unless an error leaves the block."""

    def __init__(self, path: str | None):
        self.fh = self.tmp = None
        if path and os.path.exists(path) and not os.path.isfile(path):
            self.fh = open(path, "wb")
        elif path:
            self.path = os.path.realpath(path)
            self.tmp = os.path.join(os.path.dirname(self.path), f".esdsim-{os.urandom(8).hex()}")
            fd = os.open(self.tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            self.fh = os.fdopen(fd, "wb")

    def write(self, data: bytes):
        if self.fh:
            self.fh.write(data)
        else:
            sys.stdout.write(data.decode())

    def close(self, keep: bool = True):
        """Finish the output; the temporary file replaces the target when
        keep and every step succeeds, and is removed otherwise. A discard
        raises no OSError: after a failed write, closing flushes what the
        buffer holds and fails again (a full disk), but the file is closed.
        Stdout is flushed; where that fails, its descriptor is pointed at
        the null device, so what it still buffers cannot fail again when
        the interpreter flushes it at exit, which would make the exit code 120."""
        try:
            if self.fh:
                self.fh.close()
            else:
                sys.stdout.flush()
            if keep and self.tmp:
                os.replace(self.tmp, self.path)
        except OSError:
            if not self.fh:
                with contextlib.suppress(OSError):   # a stdout with no descriptor (a StringIO)
                    fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                    os.dup2(null, fd)
                    os.close(null)
            if keep:
                raise
        finally:
            if self.tmp and os.path.exists(self.tmp):
                os.unlink(self.tmp)

    def __enter__(self) -> _Output:
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(keep=exc_type is None)


@dataclass
class RunResult:
    name: str
    exit_code: int
    max_concurrence: float = float("nan")
    dwell: float = float("nan")
    final_entropy: float = float("nan")
    oracle_deviation: float | None = None
    error: str | None = None


def _physics(config: RunConfig) -> tuple:
    """What fixes a run's evaluation; runs with equal keys share one. Floats
    enter by their bits: -0.0 and 0.0 are equal but print apart."""
    floats = (config.lam, config.t0, config.t1, config.k, config.nbar, config.epsilon)
    return (*(float(x).hex() for x in floats), config.steps,
            config.detect_events, config.oracle_check)


@dataclass
class Evaluation:
    """The outputs a run's physics fixes, shared by every run of it: the
    columns t, lambda_t and every observable, the ESD intervals (when
    detect_events) and the oracle check (when oracle_check): the JSON
    "oracle" block, whose "passed" is the run's one verdict (exit 3 if false)."""

    columns: dict[str, np.ndarray]
    intervals: list[EsdInterval]
    oracle: dict | None


# values per row range that outputs are written in, about: five 2,000-row
# columns. g17 holds ~140 B a value at its peak, its 32-byte cells included,
# so an 8,000-row group whose outputs print six columns (t, lambda_t and four
# observables) is formatted and written in five ranges that each hold ~1.3 MB
_FORMAT_VALUES = 10_000


def evaluate(config: RunConfig) -> Evaluation:
    """Evaluate the physics of a valid config (see _physics); writes nothing."""
    params = config.params()
    thermal = build_thermal(config.nbar, config.epsilon)
    times = np.linspace(config.t0, config.t1, config.steps)

    table = SectorTable(params, thermal)   # one table for the series and the ESD refinement
    series = two_qubit_states(params, thermal, times, table)
    columns = {"t": times, "lambda_t": params.lam * times, **observable_columns(series)}

    intervals = []
    if config.detect_events:
        intervals = esd_intervals(table, times, columns["lambda"])

    oracle = None
    if config.oracle_check:
        h = build_hamiltonians(params, fock_cutoff=thermal.nmax + 2)
        exact = reduced_two_qubit_series(h, thermal, times)
        # the dense matrices' maximum, entry by entry, without building them
        dev = float(max(np.abs(getattr(series, f.name) - getattr(exact, f.name)).max()
                        for f in fields(series)))
        oracle = {"max_deviation": dev, "threshold": ORACLE_FAIL_THRESHOLD,
                  "passed": dev <= ORACLE_FAIL_THRESHOLD}
    return Evaluation(columns, intervals, oracle)


def _result(config: RunConfig, evaluation: Evaluation) -> RunResult:
    """The RunResult of config when its output is written: exit 3 when the
    one verdict its CSV and JSON outputs print, oracle["passed"], is false."""
    columns, oracle = evaluation.columns, evaluation.oracle
    result = RunResult(
        name=config.name,
        exit_code=EXIT_OK,
        max_concurrence=float(columns["concurrence"].max()),
        # not measured (nan) unless the run detects events
        dwell=(dwell_fraction(evaluation.intervals, config.t0, config.t1)
               if config.detect_events else float("nan")),
        final_entropy=float(columns["entropy"][-1]),
        oracle_deviation=oracle["max_deviation"] if oracle else None,
    )
    if oracle and not oracle["passed"]:
        result.exit_code = EXIT_ORACLE
        result.error = "oracle deviation {max_deviation:.3e} exceeds {threshold}".format(**oracle)
    return result


def _keys(config: RunConfig) -> tuple[str, ...]:
    return ("t", "lambda_t", *config.observables)


def _csv_parts(config: RunConfig, evaluation: Evaluation, union: list[str]):
    """(header, block, trailer) of config's CSV: block(rows, cells) is the
    text of its rows from the g17 cells of the union's columns there."""
    keys = _keys(config)
    at = [union.index(key) for key in keys]

    def block(rows: slice, cells: np.ndarray) -> bytes:
        # each cell's last byte (NUL) made ',', the row's last '\n', the NULs dropped
        body = cells[:, at]
        body[:, :, -1] = ord(",")
        body[:, -1, -1] = ord("\n")
        return body.tobytes().translate(None, b"\0")

    lines = []
    if config.detect_events:
        lines.append("# esd_intervals: t_death,t_birth,min_lambda,refined\n")
        for iv in evaluation.intervals:
            lines.append(
                "# " + ",".join([_fmt(iv.t_death), _fmt(iv.t_birth),
                                 _fmt(iv.min_lambda), str(iv.refined).lower()]) + "\n"
            )
    if oracle := evaluation.oracle:
        ok = "pass" if oracle["passed"] else "FAIL"
        lines.append(f"# oracle_max_deviation,{_fmt(oracle['max_deviation'])},{ok}\n")
    return (",".join(keys) + "\n").encode(), block, "".join(lines).encode()


def _json_parts(config: RunConfig, evaluation: Evaluation, union: list[str]):
    """(head, block, tail) of config's JSON: json.dumps(doc, indent=2,
    sort_keys=True) + "\n" but for the samples' numbers, which block(rows,
    cells) writes from the g17 cells of the union's columns there: '%.17g',
    '.0' after an integer (so json reads a float), NaN and (-)Infinity."""
    doc = {"config": asdict(config), "events": [asdict(iv) for iv in evaluation.intervals]}
    if evaluation.oracle:
        doc["oracle"] = evaluation.oracle
    # "samples" sorts last: the document without it, then its samples
    head = json.dumps(doc, indent=2, sort_keys=True)[:-2] + ',\n  "samples": ['
    keys = sorted(_keys(config))
    at = [union.index(key) for key in keys]
    # each key's fixed text, NUL-padded, before its cell; the first key's
    # closes the previous sample and opens this one
    fixed = np.array([("\n    },\n    {" if j == 0 else ",") + f"\n      {json.dumps(key)}: "
                      for j, key in enumerate(keys)], "S").view(np.uint8).reshape(len(keys), -1)

    def block(rows: slice, cells: np.ndarray) -> bytes:
        values = np.column_stack([evaluation.columns[key][rows] for key in keys])
        body = np.empty((len(values), len(keys), fixed.shape[1] + WIDTH), np.uint8)
        body[:, :, :-WIDTH], body[:, :, -WIDTH:] = fixed, cells[:, at]
        # '.0' in the last two bytes, always NUL, of a cell that prints an integer
        body[(values == np.trunc(values)) & (np.abs(values) < 1e17), -2:] = (ord("."), ord("0"))
        for i, j in np.argwhere(~np.isfinite(values)):   # json's NaN and (-)Infinity
            body[i, j, -WIDTH:] = list(json.dumps(values[i, j]).encode().ljust(WIDTH, b"\0"))
        if rows.start == 0:
            body[0, 0, :7] = 0   # no '\n    },' before the first sample
        return body.tobytes().translate(None, b"\0")

    return head.encode(), block, b"\n    }\n  ]\n}\n"


def _write_outputs(configs: list[RunConfig], evaluation: Evaluation) -> list[RunResult]:
    """Write the outputs of valid configs of one physics from its
    evaluation, and return their RunResults; validates and evaluates
    nothing. At most one of them writes stdout (_run refuses a second).

    The outputs are open together and written a row range at a time, each
    from its header to its trailer, in one pass over the rows. The ranges
    are equal and as few as keep each near _FORMAT_VALUES values of the
    union of the outputs' columns, CSV and JSON alike. Each range of the
    union is one g17 call, and each output writes its own columns' cells
    from it. So an evaluation's columns and one range of cells are held at
    a time, whatever the rows. A failure fails only the output it comes
    from, its temporary file removed; one of g17 fails every open output."""
    results = _attempt(configs[0].name, lambda: [_result(cfg, evaluation) for cfg in configs])
    if isinstance(results, RunResult):
        return [replace(results, name=cfg.name) for cfg in configs]
    count = len(evaluation.columns["t"])
    union = list(dict.fromkeys(key for cfg in configs for key in _keys(cfg)))
    size = math.ceil(count / math.ceil(count * len(union) / _FORMAT_VALUES))  # rows a range
    live = {}   # index: (output, block, trailer) of each output being written

    def attempt(indices: list[int], action: Callable):
        """action(), or its failure, which fails the outputs of indices"""
        value = _attempt(configs[indices[0]].name, action)
        if isinstance(value, RunResult):
            for i in indices:
                results[i] = replace(value, name=configs[i].name)
                if i in live:
                    live.pop(i)[0].close(keep=False)
        return value

    def start(i: int):
        cfg = configs[i]
        parts = _csv_parts if cfg.output_format == "csv" else _json_parts
        head, *rest = parts(cfg, evaluation, union)
        live[i] = (_Output(cfg.output_path), *rest)
        live[i][0].write(head)

    try:
        for i in range(len(configs)):
            attempt([i], lambda: start(i))
        # each row range while any output is open
        for rows in (slice(begin, begin + size) for begin in range(0, count, size) if live):
            cells = None   # the last range's, dropped before this one is formatted
            cells = attempt(list(live), lambda: g17(np.column_stack(
                [evaluation.columns[key][rows] for key in union])).reshape(-1, len(union), WIDTH))
            for i, (output, block, _) in list(live.items()):
                attempt([i], lambda: output.write(block(rows, cells)))
        for i, (output, _, trailer) in list(live.items()):
            attempt([i], lambda: (output.write(trailer), output.close()))
            live.pop(i, None)
    finally:
        for output, *_ in live.values():
            output.close(keep=False)
    return results


def _attempt(name: str, step: Callable):
    """step(), or the RunResult of its failure, labelled name: a UsageError
    exits 2, any other error 4 (a file that cannot be read or written, for
    one). The message of any error but those and OSError or UnicodeError
    names its type, since it comes from a defect rather than from the input."""
    try:
        return step()
    except UsageError as exc:
        return RunResult(name=name, exit_code=EXIT_USAGE, error=str(exc))
    except (OSError, UnicodeError) as exc:
        return RunResult(name=name, exit_code=EXIT_IO, error=str(exc))
    except Exception as exc:  # isolate per-run failures
        return RunResult(name=name, exit_code=EXIT_IO, error=f"{type(exc).__name__}: {exc}")


def _target(path: str | None) -> str:
    """The output a path names for the one-writer rule: the file it
    resolves to, through any symlinks, or stdout for no path."""
    return os.path.realpath(path) if path else "stdout"


def _run(items: list[RunConfig | tuple[str, Callable[[], RunConfig]]],
         summary: str | None = None) -> list[RunResult]:
    """The RunResult of each item, in order.

    An item is a (name, resolve) pair, or a RunConfig, which is its own
    resolve: resolve() builds the config inside the item's error isolation,
    and name labels its result when that fails. Items resolve and validate
    once, in order, before any evaluation; one that fails, or whose output
    (the _target of its output_path) the summary (a _target too, when
    given) or an earlier item writes, fails without running, its error
    naming that writer: a registry maps each output to its writer's name.
    Valid items with the same physics form one group, evaluated once, whose
    outputs are written together in row ranges (see _write_outputs); a
    failed evaluation fails every member. Groups run one at a time on the
    calling thread, in the order of their first items, so one group's
    evaluation and one row range of its cells are held at a time.
    """
    # results[i] holds item i's config until its group (its one writer) puts the result there
    results, groups = [], {}
    writer = {} if summary is None else {summary: "the summary"}   # output: its writer's name
    for item in items:
        name, resolve = (item.name, lambda: item) if isinstance(item, RunConfig) else item
        cfg = _attempt(name, resolve)
        if isinstance(cfg, RunConfig):
            cfg = _attempt(cfg.name, cfg.validate)
        if isinstance(cfg, RunConfig):
            path = _target(cfg.output_path)
            if path in writer:
                cfg = RunResult(name=cfg.name, exit_code=EXIT_USAGE,
                                error=f"output {path} already written by {writer[path]}")
            else:
                writer[path] = cfg.name
                groups.setdefault(_physics(cfg), []).append(len(results))
        results.append(cfg)

    def run_group(members: list[int]):
        # a function, so that its evaluation is dropped before the next group's
        first = results[members[0]]
        evaluation = _attempt(first.name, lambda: evaluate(first))
        written = ([replace(evaluation, name=results[i].name) for i in members]
                   if isinstance(evaluation, RunResult)
                   else _write_outputs([results[i] for i in members], evaluation))
        for i, result in zip(members, written):
            results[i] = result

    for members in groups.values():
        run_group(members)
    return results


def sweep(configs: list[RunConfig | tuple[str, Callable[[], RunConfig]]],
          summary_path: str | None = None) -> tuple[str, int]:
    """Run the items as _run does, none of them writing the summary's
    output, summary_path or stdout when it is None, and return (summary
    CSV, aggregate exit code): one row per item, its fields quoted where
    they hold a comma or a line break, and one stderr line per failed
    item's error."""
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(["name", "status", "max_concurrence", "dwell_fraction", "final_entropy"])
    exit_code = EXIT_OK
    for res in _run(configs, _target(summary_path)):
        status = "ok" if res.exit_code == EXIT_OK else f"failed({res.exit_code})"
        rows.writerow([res.name, status,
                       _fmt(res.max_concurrence), _fmt(res.dwell), _fmt(res.final_entropy)])
        exit_code = max(exit_code, res.exit_code)
        if res.error:
            print(f"esdsim: {res.name}: {res.error}", file=sys.stderr)
    return out.getvalue(), exit_code


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
    """Defaults, then a preset, then a config file, then flag values by
    field; each layer overrides the fields it sets."""
    cfg = preset_config(preset) if preset else RunConfig()
    return replace(cfg, **{**(_read_config_file(path) if path else {}), **(flags or {})})


def _config_from_args(args) -> RunConfig:
    flags = {f.name: value for f in fields(RunConfig)
             if (value := getattr(args, f.name, None)) is not None}
    return load_config(args.preset, args.config, flags)


_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")   # C0, DEL and C1


def _sweep_target(target: str, output_dir: str) -> tuple[str, Callable[[], RunConfig]]:
    """(row name, resolve) of a preset name or config file path for sweep().

    A name with a control character would break its summary row or stderr
    line, so it is refused, and the row shows it with the character escaped.
    """
    is_file = os.path.exists(target) and not os.path.isdir(target)
    name = os.path.splitext(os.path.basename(target))[0] if is_file else target

    def resolve() -> RunConfig:
        cfg = load_config(path=target) if is_file else load_config(preset=target)
        if cfg.name == "run":
            cfg.name = name
        if _CONTROL.search(cfg.name):
            raise UsageError(f"name {cfg.name!r} holds a control character")
        if cfg.output_path is None:
            if not cfg.name or os.sep in cfg.name or (os.altsep and os.altsep in cfg.name):
                raise UsageError(f"name {cfg.name!r} cannot name an output file in {output_dir}")
            cfg.output_path = os.path.join(output_dir, f"{cfg.name}.{cfg.output_format}")
        return cfg

    return _CONTROL.sub(lambda char: repr(char[0])[1:-1], name), resolve


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args keeps
    no state between calls."""
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
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility; sweep runs on one thread")
    sweep_p.add_argument("--output-dir", default=".",
                         help="directory for per-run CSV files")
    sweep_p.add_argument("-o", "--output", default=None, help="summary file (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    def command() -> RunResult:
        """--list-presets, or sweep: its runs, then the text it prints"""
        if args.list_presets:
            text, exit_code, path = "\n".join(preset_names()) + "\n", EXIT_OK, None
        else:
            _check_output(args.output)
            if args.jobs < 1:
                raise UsageError(f"jobs must be >= 1, got {args.jobs}")
            targets = [_sweep_target(t, args.output_dir) for t in args.targets or preset_names()]
            (text, exit_code), path = sweep(targets, summary_path=args.output), args.output
        with _Output(path) as output:
            output.write(text.encode())
        return RunResult(name="sweep", exit_code=exit_code)

    if args.list_presets or args.command == "sweep":
        result = _attempt("sweep", command)
    elif args.command == "run":
        [result] = _run([("run", lambda: _config_from_args(args))])
    else:
        parser.print_help()
        return EXIT_USAGE
    if result.error:
        print(f"esdsim: {result.error}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
