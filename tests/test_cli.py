import argparse
import contextlib
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import dense, scan, write_output
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esdsim import (EsdInterval, ModelParams, build_thermal, cli, dwell_fraction, dynamics,
                    sector_frequencies)
from esdsim.cli import (
    ALL_OBSERVABLES,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    _config_from_args,
    build_parser,
    load_config,
    main,
    preset_config,
    preset_names,
    sweep,
)

# a value for every RunConfig field, each unlike its default
SAMPLES = {
    "lam": 3.5, "k": 0.25, "nbar": 1.5, "epsilon": 1e-6, "t0": 0.5, "t1": 3.0,
    "steps": 17, "observables": ("lambda", "entropy"), "detect_events": True,
    "oracle_check": True, "output_format": "json", "output_path": "out.csv", "name": "custom",
}
CONFIG_KEYS = ["lambda", "k", "nbar", "epsilon", "t0", "t1", "steps", "observables",
               "detect_events", "oracle_check", "output_format", "output_path", "name"]
RUN_OPTIONS = ["-h", "--help", "--preset", "--config", "--lam", "--lambda", "--k", "--nbar",
               "--epsilon", "--t0", "--t1", "--steps", "--observables",
               "--detect-events", "--oracle-check", "--output-format", "-o", "--output"]
SWEEP_OPTIONS = ["-h", "--help", "--jobs", "--output-dir", "-o", "--output"]
FLAGS = [(f, flag) for f in fields(RunConfig) for flag in f.metadata["flags"]]
# every preset's (k, nbar, t1, steps, observable); lam is 10.0 and the rest the defaults
PRESETS = {
    "fig1a": (0.1, 1.0, 2.0, 2000, "concurrence"),
    "fig1b": (0.1, 1.0, 8.0, 4000, "concurrence"),
    "fig1c": (0.1, 1.0, 40.0, 8000, "concurrence"),
    "fig1d": (0.1, 10.0, 2.0, 2000, "concurrence"),
    "fig1e": (0.1, 10.0, 8.0, 4000, "concurrence"),
    "fig1f": (0.1, 10.0, 40.0, 8000, "concurrence"),
    "fig2a": (0.5, 1.0, 2.0, 2000, "concurrence"),
    "fig2b": (0.5, 1.0, 8.0, 4000, "concurrence"),
    "fig2c": (0.5, 1.0, 40.0, 8000, "concurrence"),
    "fig2d": (0.5, 10.0, 2.0, 2000, "concurrence"),
    "fig2e": (0.5, 10.0, 8.0, 4000, "concurrence"),
    "fig2f": (0.5, 10.0, 40.0, 8000, "concurrence"),
    "fig3a": (0.1, 1.0, 2.0, 2000, "lambda"),
    "fig3b": (0.1, 1.0, 8.0, 4000, "lambda"),
    "fig3c": (0.1, 1.0, 40.0, 8000, "lambda"),
    "fig3d": (0.1, 10.0, 2.0, 2000, "lambda"),
    "fig3e": (0.1, 10.0, 8.0, 4000, "lambda"),
    "fig3f": (0.1, 10.0, 40.0, 8000, "lambda"),
    "fig4a": (0.5, 1.0, 2.0, 2000, "lambda"),
    "fig4b": (0.5, 1.0, 8.0, 4000, "lambda"),
    "fig4c": (0.5, 1.0, 40.0, 8000, "lambda"),
    "fig4d": (0.5, 10.0, 2.0, 2000, "lambda"),
    "fig4e": (0.5, 10.0, 8.0, 4000, "lambda"),
    "fig4f": (0.5, 10.0, 40.0, 8000, "lambda"),
    "fig5a": (0.1, 1.0, 2.0, 2000, "coherence"),
    "fig5b": (0.1, 1.0, 8.0, 4000, "coherence"),
    "fig5c": (0.1, 1.0, 40.0, 8000, "coherence"),
    "fig5d": (0.1, 10.0, 2.0, 2000, "coherence"),
    "fig5e": (0.1, 10.0, 8.0, 4000, "coherence"),
    "fig5f": (0.1, 10.0, 40.0, 8000, "coherence"),
    "fig6a": (0.5, 1.0, 2.0, 2000, "coherence"),
    "fig6b": (0.5, 1.0, 8.0, 4000, "coherence"),
    "fig6c": (0.5, 1.0, 40.0, 8000, "coherence"),
    "fig6d": (0.5, 10.0, 2.0, 2000, "coherence"),
    "fig6e": (0.5, 10.0, 8.0, 4000, "coherence"),
    "fig6f": (0.5, 10.0, 40.0, 8000, "coherence"),
    "fig7a": (0.1, 1.0, 2.0, 2000, "entropy"),
    "fig7b": (0.1, 1.0, 8.0, 4000, "entropy"),
    "fig7c": (0.1, 1.0, 40.0, 8000, "entropy"),
    "fig7d": (0.1, 10.0, 2.0, 2000, "entropy"),
    "fig7e": (0.1, 10.0, 8.0, 4000, "entropy"),
    "fig7f": (0.1, 10.0, 40.0, 8000, "entropy"),
    "fig8a": (0.5, 1.0, 2.0, 2000, "entropy"),
    "fig8b": (0.5, 1.0, 8.0, 4000, "entropy"),
    "fig8c": (0.5, 1.0, 40.0, 8000, "entropy"),
    "fig8d": (0.5, 10.0, 2.0, 2000, "entropy"),
    "fig8e": (0.5, 10.0, 8.0, 4000, "entropy"),
    "fig8f": (0.5, 10.0, 40.0, 8000, "entropy"),
}


def reduced(preset, directory, **changes):
    """A preset at 200 steps over lam*t in [0, 10], written into directory."""
    return replace(preset_config(preset), **{
        "steps": 200, "t1": 1.0, "output_path": str(directory / f"{preset}.csv"), **changes})


def count_evaluations(monkeypatch, fail_k=None):
    """The k of every cli.two_qubit_states call, in call order; a call at
    k == fail_k raises RuntimeError("boom")."""
    calls, real = [], cli.two_qubit_states

    def counting(params, field, times, *table):
        calls.append(params.k)
        if params.k == fail_k:
            raise RuntimeError("boom")
        return real(params, field, times, *table)

    monkeypatch.setattr(cli, "two_qubit_states", counting)
    return calls


class FullDisk(io.RawIOBase):
    """A file whose every write fails as a full disk does; closing it
    closes its descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def writable(self):
        return True

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def close(self):
        if not self.closed:
            os.close(self.fd)
        super().close()


def fill_disk(monkeypatch, opens=(1,)):
    """Make the temporary files of the given os.fdopen calls (counted from
    1) a full disk."""
    calls, real = [], os.fdopen

    def fdopen(fd, *args, **kwargs):
        calls.append(fd)
        if len(calls) in opens:
            return io.BufferedWriter(FullDisk(fd))
        return real(fd, *args, **kwargs)

    monkeypatch.setattr(os, "fdopen", fdopen)


def count_formatting(monkeypatch):
    """The number of values of every cli.g17 call, in call order."""
    calls, real = [], cli.g17

    def counting(x):
        calls.append(np.size(x))
        return real(x)

    monkeypatch.setattr(cli, "g17", counting)
    return calls


def read_table(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_bad_window(self):
        with pytest.raises(UsageError):
            RunConfig(t0=1.0, t1=0.5).validate()

    @pytest.mark.parametrize("field,value", [
        ("lam", float("nan")), ("k", -1.0), ("nbar", float("nan")), ("epsilon", 2.0),
        ("t1", float("inf")), ("t0", float("-inf")),
    ])
    def test_domain_errors_are_usage_errors(self, field, value):
        with pytest.raises(UsageError):
            RunConfig(**{field: value}).validate()

    def test_no_observables(self):
        with pytest.raises(UsageError):
            RunConfig(observables=()).validate()

    def test_presets_cover_figure_grid(self):
        names = preset_names()
        assert len(names) == 48 and names == list(PRESETS)
        cfg = preset_config("fig1d")
        assert cfg.k == 0.1 and cfg.nbar == 10.0 and cfg.lam == 10.0
        cfg = preset_config("fig2a")
        assert cfg.k == 0.5 and cfg.nbar == 1.0
        with pytest.raises(UsageError):
            preset_config("fig9a")

    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_is_its_figure_panel(self, name):
        k, nbar, t1, steps, observable = PRESETS[name]
        want = RunConfig(lam=10.0, k=k, nbar=nbar, t1=t1, steps=steps,
                         observables=(observable,), name=name)
        # repr tells 1.0 from 1 and a tuple from a list, field by field
        assert preset_config(name) == want and repr(preset_config(name)) == repr(want)


class TestSchema:
    def test_samples_cover_every_field(self):
        assert list(SAMPLES) == [f.name for f in fields(RunConfig)]
        assert all(SAMPLES[f.name] != f.default for f in fields(RunConfig))

    def test_config_keys_pinned(self):
        assert [f.metadata["key"] or f.name for f in fields(RunConfig)] == CONFIG_KEYS

    @pytest.mark.parametrize("command,options", [("run", RUN_OPTIONS), ("sweep", SWEEP_OPTIONS)])
    def test_option_strings_pinned(self, command, options):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert [s for a in sub.choices[command]._actions for s in a.option_strings] == options

    @pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
    def test_every_field_settable_from_config_file(self, field, tmp_path):
        value = SAMPLES[field.name]
        text = (" ".join(value) if isinstance(value, tuple)
                else str(value).lower() if isinstance(value, bool) else str(value))
        path = tmp_path / "run.cfg"
        path.write_text(f"{field.metadata['key'] or field.name} = {text}\n")
        assert getattr(load_config(path=str(path)), field.name) == value

    def test_every_field_but_name_has_a_flag(self):
        assert [f.name for f in fields(RunConfig) if not f.metadata["flags"]] == ["name"]

    @pytest.mark.parametrize("field,flag", FLAGS, ids=[flag for _, flag in FLAGS])
    def test_flag_round_trips(self, field, flag):
        value = SAMPLES[field.name]
        words = ([] if isinstance(value, bool)
                 else list(value) if isinstance(value, tuple) else [str(value)])
        cfg = _config_from_args(build_parser().parse_args(["run", flag, *words]))
        assert getattr(cfg, field.name) == value

    @pytest.mark.parametrize("text,value", [
        ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("NO", False),
    ])
    def test_config_booleans(self, text, value, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"detect_events = {text}\noracle_check = {text}\n")
        cfg = load_config(path=str(path))
        assert cfg.detect_events is value and cfg.oracle_check is value

    def test_layers_override_in_order(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nbar = 3\nsteps = 40\n")
        cfg = load_config("fig2d", str(path), {"steps": 7})
        assert (cfg.name, cfg.k, cfg.nbar, cfg.steps) == ("fig2d", 0.5, 3.0, 7)


class TestRun:
    def test_decoupled_concurrence_column(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = RunConfig(k=0.0, nbar=0.0, steps=200, t1=2.0,
                        observables=("concurrence",), output_path=str(out))
        assert write_output(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
        header, data = read_table(out)
        assert header == ["t", "lambda_t", "concurrence"]
        t = data[:, 0]
        assert np.allclose(data[:, 1], 10.0 * t, atol=1e-12)
        assert np.abs(data[:, 2] - np.abs(np.sin(2 * 10.0 * t))).max() <= 1e-12

    def test_fig1d_has_exact_zeros(self, tmp_path):
        out = tmp_path / "fig1d.csv"
        cfg = preset_config("fig1d")
        cfg.t1, cfg.steps = 4.0, 2000
        cfg.output_path = str(out)
        assert write_output(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
        _, data = read_table(out)
        assert (data[:, 2] == 0.0).sum() >= 1

    def test_oracle_check_passes(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg = RunConfig(k=0.5, nbar=1.0, steps=200, observables=("concurrence",),
                        oracle_check=True, output_path=str(out))
        res = write_output(cfg, cli.evaluate(cfg))
        assert res.exit_code == EXIT_OK
        assert res.oracle_deviation < 1e-8
        assert "# oracle_max_deviation" in out.read_text()

    def test_oracle_deviation_builds_no_dense_stacks(self, monkeypatch):
        # the validator's series is computed once, before the measurement, so the
        # peak is evaluate's own: the series, its columns and the deviation
        steps = 20_000
        cfg = RunConfig(k=0.1, nbar=1.0, steps=steps, oracle_check=True).validate()
        real, oracle = cli.reduced_two_qubit_series, []

        def precomputed(h, field, times):
            if not oracle:
                oracle.append(real(h, field, times))
            return oracle[0]

        monkeypatch.setattr(cli, "reduced_two_qubit_series", precomputed)
        cli.evaluate(cfg)
        tracemalloc.start()
        try:
            evaluation = cli.evaluate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~137 B a time; four (steps, 4, 4) complex stacks of the dense maximum made it ~633
        assert peak <= 250 * steps
        series = cli.two_qubit_states(cfg.params(), build_thermal(cfg.nbar),
                                      np.linspace(cfg.t0, cfg.t1, steps))
        assert evaluation.oracle["max_deviation"] == np.abs(dense(series) - dense(oracle[0])).max()

    @pytest.mark.parametrize("dev,passed", [
        (2.5e-12, True), (1e-7, True), (np.nextafter(1e-7, 1), False), (float("nan"), False),
    ], ids=["rounding", "at-threshold", "past-threshold", "nan"])
    def test_one_oracle_verdict(self, dev, passed, tmp_path, monkeypatch):
        """A deviation planted in the validator's series gives one verdict: the
        CSV's pass or FAIL, the JSON's passed and the exit code (0 or 3)."""
        states, series = cli.two_qubit_states, []
        monkeypatch.setattr(cli, "two_qubit_states",
                            lambda *a: series.append(states(*a)) or series[0])

        def planted(h, field, times):
            # the exact solution but for rho11 at t = 0, where it is exactly 0
            rho11 = series[0].rho11.copy()
            assert rho11[0] == 0.0
            rho11[0] = dev
            return SimpleNamespace(**{**asdict(series[0]), "rho11": rho11})

        monkeypatch.setattr(cli, "reduced_two_qubit_series", planted)
        cfg = RunConfig(k=0.5, nbar=1.0, steps=20, oracle_check=True).validate()
        evaluation = cli.evaluate(cfg)
        outputs = [replace(cfg, output_format=fmt, output_path=str(tmp_path / f"o.{fmt}"))
                   for fmt in ("csv", "json")]
        results = cli._write_outputs(outputs, evaluation)

        line = (tmp_path / "o.csv").read_text().splitlines()[-1].split(",")
        oracle = json.loads((tmp_path / "o.json").read_text())["oracle"]
        assert line[0] == "# oracle_max_deviation" and line[2] == ("pass" if passed else "FAIL")
        assert oracle["passed"] is passed and oracle["threshold"] == 1e-7
        deviations = [float(line[1]), oracle["max_deviation"],
                      *(r.oracle_deviation for r in results)]
        assert all(got == dev or math.isnan(got) and math.isnan(dev) for got in deviations)
        error = None if passed else f"oracle deviation {dev:.3e} exceeds 1e-07"
        assert [(r.exit_code, r.error) for r in results] == [(0 if passed else 3, error)] * 2

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = RunConfig(k=0.5, nbar=1.0, steps=100, detect_events=True,
                            output_path=str(out))
            assert write_output(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_json_output_carries_resolved_config(self, tmp_path):
        out = tmp_path / "run.json"
        cfg = RunConfig(k=0.1, nbar=1.0, steps=10, output_format="json",
                        detect_events=True, output_path=str(out))
        assert write_output(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
        doc = json.loads(out.read_text())
        # the inputs only: k as given, no derived g
        assert doc["config"]["k"] == 0.1 and "g" not in doc["config"]
        assert doc["config"]["epsilon"] == 1e-10
        assert len(doc["samples"]) == 10
        assert set(doc["samples"][0]) >= {"t", "lambda_t", "concurrence"}
        assert isinstance(doc["events"], list)

    def test_json_events_are_the_intervals(self, tmp_path):
        out = tmp_path / "esd.json"
        cfg = RunConfig(k=0.5, nbar=1.0, t1=4.0, steps=400, detect_events=True,
                        output_format="json", output_path=str(out))
        assert write_output(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
        events = json.loads(out.read_text())["events"]
        intervals = scan(ModelParams(lam=10.0, k=0.5), build_thermal(1.0), 0.0, 4.0, 400)
        assert events and events == [asdict(iv) for iv in intervals]
        assert all(set(e) == {"t_death", "t_birth", "min_lambda", "refined",
                              "open_left", "open_right"} for e in events)

    def test_io_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "two_qubit_states", lambda *a: calls.append(a))
        missing = tmp_path / "missing"
        assert main(["run", "--steps", "10", "-o", str(missing / "x.csv")]) == EXIT_IO
        assert capsys.readouterr().err == f"esdsim: output directory {missing} does not exist\n"
        assert list(tmp_path.iterdir()) == [] and calls == []

    @pytest.mark.parametrize("exc,code,message", [
        (KeyError("concurrence"), EXIT_IO, "KeyError: 'concurrence'"),
        (RuntimeError("boom"), EXIT_IO, "RuntimeError: boom"),
        (FileNotFoundError("output directory d does not exist"), EXIT_IO,
         "output directory d does not exist"),
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), EXIT_IO,
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (UsageError("steps must be >= 2, got 1"), EXIT_USAGE, "steps must be >= 2, got 1"),
    ], ids=["KeyError", "RuntimeError", "OSError", "UnicodeError", "UsageError"])
    def test_failure_messages(self, exc, code, message):
        def fail():
            raise exc
        result = cli._attempt("run", fail)
        assert (result.name, result.exit_code, result.error) == ("run", code, message)

    def test_defect_names_its_exception_type(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "observable_columns", lambda series: {})
        assert main(["run", "--steps", "3"]) == EXIT_IO
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "esdsim: KeyError: 'concurrence'\n")

    def test_event_rows_match_scan_esd(self, tmp_path):
        out = tmp_path / "esd.csv"
        cfg = RunConfig(k=0.5, nbar=1.0, t1=4.0, steps=400, detect_events=True,
                        observables=("lambda",), output_path=str(out))
        assert write_output(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
        rows = [l[2:].split(",") for l in out.read_text().splitlines()[402:]]
        intervals = scan(ModelParams(lam=10.0, k=0.5), build_thermal(1.0), 0.0, 4.0, 400)
        assert len(intervals) >= 1
        assert rows == [[f"{iv.t_death:.17g}", f"{iv.t_birth:.17g}", f"{iv.min_lambda:.17g}",
                         str(iv.refined).lower()] for iv in intervals]


class TestSweep:
    def test_empty_sweep(self):
        summary, code = sweep([])
        assert code == EXIT_OK
        assert summary.splitlines() == [
            "name,status,max_concurrence,dwell_fraction,final_entropy"
        ]

    def test_figure_regimes(self, tmp_path):
        configs = []
        for i, name in enumerate(["fig1a", "fig1d", "fig2a", "fig2d"]):
            cfg = preset_config(name)
            cfg.steps, cfg.t1 = 200, 1.0
            cfg.output_path = str(tmp_path / f"{name}.csv")
            configs.append(cfg)
        summary, code = sweep(configs)
        assert code == EXIT_OK
        rows = summary.splitlines()
        assert len(rows) == 5
        assert all("ok" in row for row in rows[1:])

    def test_dwell_fraction_is_measured_only_with_events(self, tmp_path):
        plain = replace(preset_config("fig1a"), output_path=str(tmp_path / "plain.csv"))
        events = replace(plain, detect_events=True, output_format="json", name="events",
                         output_path=str(tmp_path / "events.json"))
        summary, code = sweep([plain, events])
        assert code == EXIT_OK
        rows = {row["name"]: row for row in csv.DictReader(io.StringIO(summary))}
        assert rows["fig1a"]["dwell_fraction"] == "nan"
        doc = json.loads((tmp_path / "events.json").read_text())
        want = dwell_fraction([EsdInterval(**iv) for iv in doc["events"]], plain.t0, plain.t1)
        assert float(rows["events"]["dwell_fraction"]) == want > 0

    def test_error_isolation(self, tmp_path):
        good = preset_config("fig1a")
        good.steps, good.t1 = 50, 0.5
        good.output_path = str(tmp_path / "good.csv")
        bad = RunConfig(t0=2.0, t1=1.0, name="bad")
        summary, code = sweep([bad, good])
        assert code == EXIT_USAGE
        rows = summary.splitlines()
        assert "failed" in rows[1]
        assert "ok" in rows[2]
        assert (tmp_path / "good.csv").exists()


class TestSharedPhysics:
    def test_one_evaluation_per_physics(self, tmp_path, monkeypatch):
        calls = count_evaluations(monkeypatch)
        summary, code = sweep([reduced(f"fig{fig}a", tmp_path) for fig in (1, 3, 5, 7)])
        assert code == EXIT_OK and calls == [0.1]
        assert [row.split(",")[:2] for row in summary.splitlines()[1:]] == [
            [f"fig{fig}a", "ok"] for fig in (1, 3, 5, 7)]

    def test_one_sector_table_per_evaluation(self, tmp_path, monkeypatch):
        # the series and the ESD refinement share the evaluation's one table
        built = []

        class Counting(dynamics.SectorTable):
            def __init__(self, params, field):
                built.append(params.k)
                super().__init__(params, field)

        monkeypatch.setattr(cli, "SectorTable", Counting)
        monkeypatch.setattr(dynamics, "SectorTable", Counting)
        out = tmp_path / "fig1a.json"
        cfg = reduced("fig1a", tmp_path, detect_events=True, output_format="json",
                      output_path=str(out))
        assert sweep([cfg])[1] == EXIT_OK
        assert built == [0.1] and json.loads(out.read_text())["events"]

    def test_outputs_match_separate_runs(self, tmp_path, monkeypatch):
        names = [f"fig{fig}a" for fig in range(1, 9)]  # four observables at each of two k
        (tmp_path / "swept").mkdir()
        (tmp_path / "alone").mkdir()
        calls = count_evaluations(monkeypatch)
        summary, code = sweep([reduced(n, tmp_path / "swept") for n in names])
        assert code == EXIT_OK and calls == [0.1, 0.5]
        assert [row.split(",")[0] for row in summary.splitlines()[1:]] == names
        for n in names:
            out = tmp_path / "alone" / f"{n}.csv"
            assert main(["run", "--preset", n, "--steps", "200", "--t1", "1.0",
                         "-o", str(out)]) == EXIT_OK
            assert (tmp_path / "swept" / f"{n}.csv").read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("a,b", [
        ({"epsilon": 1e-10}, {"epsilon": 1e-6}),
        ({"steps": 200}, {"steps": 201}),
        ({"detect_events": False}, {"detect_events": True}),
        ({"oracle_check": False}, {"oracle_check": True}),
        ({"t0": -1.0, "t1": 0.0}, {"t0": -1.0, "t1": -0.0}),  # equal, but print apart
    ], ids=["epsilon", "steps", "detect_events", "oracle_check", "signed-zero"])
    def test_different_physics_evaluated_apart(self, a, b, tmp_path, monkeypatch):
        configs = [reduced("fig2a", tmp_path, name=n, output_path=str(tmp_path / f"{n}.csv"),
                           **changes) for n, changes in (("a", a), ("b", b))]
        calls = count_evaluations(monkeypatch)
        assert sweep(configs)[1] == EXIT_OK and calls == [0.5, 0.5]
        for cfg in configs:
            alone = replace(cfg, output_path=str(tmp_path / "alone.csv"))
            assert write_output(alone, cli.evaluate(alone)).exit_code == EXIT_OK
            assert (tmp_path / "alone.csv").read_bytes() == (
                tmp_path / f"{cfg.name}.csv").read_bytes()

    def test_presentation_shares_the_evaluation(self, tmp_path, monkeypatch):
        # one g17 pass over t, lambda_t and the observables of the CSV and the JSON
        by_k = reduced("fig2a", tmp_path, observables=("lambda", "entropy"), name="by_k")
        as_json = replace(by_k, observables=("concurrence", "coherence"), output_format="json",
                          name="as_json", output_path=str(tmp_path / "as_json.json"))
        calls, formatted = count_evaluations(monkeypatch), count_formatting(monkeypatch)
        assert sweep([by_k, as_json])[1] == EXIT_OK and calls == [0.5]
        assert formatted == [6 * 200]
        for cfg in (by_k, as_json):
            alone = replace(cfg, output_path=str(tmp_path / "alone"))
            assert write_output(alone, cli.evaluate(alone)).exit_code == EXIT_OK
            swept = Path(cfg.output_path).read_text().replace(cfg.output_path, alone.output_path)
            assert (tmp_path / "alone").read_text() == swept

    def test_failed_evaluation_fails_its_group(self, tmp_path, monkeypatch, capsys):
        calls = count_evaluations(monkeypatch, fail_k=0.1)
        names = ["fig1a", "fig2a", "fig3a", "fig4a"]
        summary, code = sweep([reduced(n, tmp_path) for n in names])
        assert code == EXIT_IO and calls == [0.1, 0.5]
        assert [row.split(",")[:2] for row in summary.splitlines()[1:]] == [
            ["fig1a", "failed(4)"], ["fig2a", "ok"], ["fig3a", "failed(4)"], ["fig4a", "ok"]]
        assert capsys.readouterr().err.splitlines() == [
            "esdsim: fig1a: RuntimeError: boom", "esdsim: fig3a: RuntimeError: boom"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2a.csv", "fig4a.csv"]

    def test_one_evaluation_held_at_a_time(self, tmp_path, monkeypatch):
        held, real = [], cli.evaluate

        def tracked(cfg):
            assert all(ref() is None for ref in held), "an earlier evaluation is still held"
            evaluation = real(cfg)
            held.append(weakref.ref(evaluation))
            return evaluation

        monkeypatch.setattr(cli, "evaluate", tracked)
        summary, code = sweep([reduced(n, tmp_path) for n in ["fig1a", "fig2a", "fig3a", "fig1d"]])
        assert code == EXIT_OK and len(held) == 3


class TestFormatting:
    def test_one_call_per_evaluation(self, tmp_path, monkeypatch):
        # two physics on one grid, two CSVs each: each group's t, lambda_t and observables
        calls = count_formatting(monkeypatch)
        configs = [reduced(n, tmp_path) for n in ["fig1a", "fig2a", "fig3a", "fig4a"]]
        assert sweep(configs)[1] == EXIT_OK and calls == [4 * 200] * 2

    def test_run_formats_in_one_call(self, tmp_path, monkeypatch):
        calls = count_formatting(monkeypatch)
        out = tmp_path / "events.csv"
        assert main(["run", "--k", "0.5", "--nbar", "1", "--steps", "50", "--detect-events",
                     "-o", str(out)]) == EXIT_OK
        assert calls == [7 * 50]
        assert "# esd_intervals" in out.read_text()

    def test_calls_keep_near_the_value_budget(self, tmp_path, monkeypatch):
        # g17's temporaries grow with the values of one call
        calls = count_formatting(monkeypatch)
        assert main(["run", "--steps", "4000", "-o", str(tmp_path / "run.csv")]) == EXIT_OK
        # 7 columns of 4,000 rows in 3 calls of 1,334, 1,334 and 1,332 rows
        assert cli._FORMAT_VALUES == 10_000 and calls == [9338, 9338, 9324]

    def test_long_columns_format_in_equal_row_ranges(self, tmp_path, monkeypatch):
        argv = ["run", "--k", "0.5", "--nbar", "1", "--steps", "37", "--detect-events"]
        assert main([*argv, "-o", str(tmp_path / "whole.csv")]) == EXIT_OK
        monkeypatch.setattr(cli, "_FORMAT_VALUES", 40)
        calls = count_formatting(monkeypatch)
        assert main([*argv, "-o", str(tmp_path / "split.csv")]) == EXIT_OK
        # the 7 columns in 7 calls of 6 rows and one of 1 row
        assert calls == [42, 42, 42, 42, 42, 42, 7]
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_json_formats_as_its_csv_twin(self, tmp_path, monkeypatch):
        # the samples are the g17 cells of the same ranges a CSV prints
        calls = count_formatting(monkeypatch)
        for fmt in ("csv", "json"):
            assert main(["run", "--steps", "4000", "--output-format", fmt,
                         "-o", str(tmp_path / f"run.{fmt}")]) == EXIT_OK
        assert calls == [9338, 9338, 9324] * 2

    def test_lone_execute_renders_what_run_writes(self, tmp_path, monkeypatch, capsys):
        argv = ["run", "--k", "0.3", "--nbar", "2", "--steps", "30", "--detect-events",
                "--observables", "entropy", "concurrence"]
        assert main(argv) == EXIT_OK
        cfg = _config_from_args(build_parser().parse_args(argv))
        calls = count_formatting(monkeypatch)
        assert write_output(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
        assert calls == [4 * 30]
        out = capsys.readouterr().out
        assert out.count("t,lambda_t,entropy,concurrence\n") == 2
        assert out[: len(out) // 2] == out[len(out) // 2:]

    def test_shared_grid_cells_match_separate_runs(self, tmp_path):
        # two grids, each with two physics, and a third physics on the first
        steps = {"fig1a": 40, "fig1b": 60, "fig2a": 40, "fig2b": 60, "fig1d": 40}
        (tmp_path / "swept").mkdir()
        configs = [reduced(n, tmp_path / "swept", steps=k) for n, k in steps.items()]
        assert sweep(configs)[1] == EXIT_OK
        for n, k in steps.items():
            out = tmp_path / f"{n}.csv"
            assert main(["run", "--preset", n, "--steps", str(k), "--t1", "1.0",
                         "-o", str(out)]) == EXIT_OK
            assert (tmp_path / "swept" / f"{n}.csv").read_bytes() == out.read_bytes()


class TestWriter:
    def test_failure_in_a_later_range_leaves_the_target(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "run.csv"
        target.write_text("old\n")
        calls, real = [], cli.g17

        def failing(x):
            calls.append(np.size(x))
            if len(calls) == 2:
                raise OSError("no space left")
            return real(x)

        monkeypatch.setattr(cli, "g17", failing)
        # 7 columns of 4,000 rows in 3 ranges: the second fails, the third never comes
        assert main(["run", "--steps", "4000", "-o", str(target)]) == EXIT_IO
        assert calls == [9338, 9338]
        assert capsys.readouterr().err == "esdsim: no space left\n"
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]

    def test_an_output_that_cannot_be_opened_fails_alone(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "swept").mkdir()
        configs = [reduced(n, tmp_path / "swept", steps=4000) for n in ("fig1a", "fig3a")]
        (tmp_path / "swept" / "fig3a.csv").mkdir()   # open() refuses a directory
        calls = count_evaluations(monkeypatch)
        summary, code = sweep(configs)
        assert code == EXIT_IO and calls == [0.1]
        assert [row.split(",")[:2] for row in summary.splitlines()[1:]] == [
            ["fig1a", "ok"], ["fig3a", "failed(4)"]]
        assert capsys.readouterr().err == (
            f"esdsim: fig3a: [Errno 21] Is a directory: '{tmp_path / 'swept' / 'fig3a.csv'}'\n")
        alone = tmp_path / "alone.csv"
        assert main(["run", "--preset", "fig1a", "--steps", "4000", "--t1", "1.0",
                     "-o", str(alone)]) == EXIT_OK
        assert (tmp_path / "swept" / "fig1a.csv").read_bytes() == alone.read_bytes()
        assert sorted(p.name for p in (tmp_path / "swept").iterdir()) == ["fig1a.csv", "fig3a.csv"]

    def test_a_group_with_no_output_open_formats_nothing(self, tmp_path, monkeypatch):
        # the directory is gone between validation and writing
        configs = [reduced("fig1a", tmp_path / "missing", name=f"run.{fmt}", output_format=fmt,
                           output_path=str(tmp_path / "missing" / f"run.{fmt}"))
                   for fmt in ("csv", "json")]
        evaluation = cli.evaluate(configs[0])
        calls = count_formatting(monkeypatch)
        results = cli._write_outputs(configs, evaluation)
        assert [r.exit_code for r in results] == [EXIT_IO, EXIT_IO] and calls == []
        assert all("No such file or directory" in r.error for r in results)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("steps", [20, 4000])
    def test_a_full_disk_fails_the_run_and_leaves_the_target(self, steps, tmp_path,
                                                             monkeypatch, capsys):
        target = tmp_path / "run.csv"
        target.write_text("old\n")
        fill_disk(monkeypatch)
        assert main(["run", "--steps", str(steps), "-o", str(target)]) == EXIT_IO
        assert capsys.readouterr().err == "esdsim: [Errno 28] No space left on device\n"
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]

    @pytest.mark.parametrize("steps", [20, 4000])
    def test_a_full_disk_fails_only_its_own_member(self, steps, tmp_path, monkeypatch, capsys):
        (tmp_path / "swept").mkdir()
        configs = [reduced(n, tmp_path / "swept", steps=steps) for n in ("fig1a", "fig3a")]
        fill_disk(monkeypatch)   # fig1a's file: the group opens its members in order
        calls = count_evaluations(monkeypatch)
        summary, code = sweep(configs)
        assert code == EXIT_IO and calls == [0.1]
        assert [row.split(",")[:2] for row in summary.splitlines()[1:]] == [
            ["fig1a", "failed(4)"], ["fig3a", "ok"]]
        assert capsys.readouterr().err == (
            "esdsim: fig1a: [Errno 28] No space left on device\n")
        alone = tmp_path / "alone.csv"
        assert main(["run", "--preset", "fig3a", "--steps", str(steps), "--t1", "1.0",
                     "-o", str(alone)]) == EXIT_OK
        assert (tmp_path / "swept" / "fig3a.csv").read_bytes() == alone.read_bytes()
        assert [p.name for p in (tmp_path / "swept").iterdir()] == ["fig3a.csv"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_gets_the_bytes_of_a_file(self, fmt, tmp_path, capsys):
        out = tmp_path / f"run.{fmt}"
        argv = ["run", "--k", "0.5", "--nbar", "1", "--steps", "4000", "--detect-events",
                "--output-format", fmt]
        assert main([*argv, "-o", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        # a JSON's config names its output file, or null for stdout
        want = out.read_text().replace(json.dumps(str(out)), "null")
        assert capsys.readouterr().out == want and want.count("\n") > 4000

    def test_a_second_output_on_stdout_is_refused(self, tmp_path):
        # two config files of one physics, output_path left empty: stdout has one writer
        for name, obs in (("a", "lambda"), ("b", "entropy")):
            (tmp_path / f"{name}.cfg").write_text(
                f"k = 0.5\nnbar = 1\nsteps = 40\nobservables = {obs}\noutput_path =\n")
        summary = tmp_path / "summary.csv"
        code, out, err = run_main(["sweep", str(tmp_path / "a.cfg"), str(tmp_path / "b.cfg"),
                                   "--output-dir", str(tmp_path), "-o", str(summary)])
        assert code == EXIT_USAGE
        assert err == "esdsim: b: output stdout already written by a\n"
        assert [row.split(",")[:2] for row in summary.read_text().splitlines()[1:]] == [
            ["a", "ok"], ["b", "failed(2)"]]
        alone = run_main(["run", "--config", str(tmp_path / "a.cfg")])
        assert alone == (EXIT_OK, out, "") and out.count("\n") == 41

    def test_stdout_of_a_stdout_summary_is_refused(self, tmp_path):
        # output_path left empty and no -o: stdout is the summary's, so it holds one document
        (tmp_path / "a.cfg").write_text("k = 0.5\nnbar = 1\nsteps = 40\noutput_path =\n")
        code, out, err = run_main(["sweep", str(tmp_path / "a.cfg"), "--output-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert err == "esdsim: a: output stdout already written by the summary\n"
        assert out.splitlines() == ["name,status,max_concurrence,dwell_fraction,final_entropy",
                                    "a,failed(2),nan,nan,nan"]
        assert [p.name for p in tmp_path.iterdir()] == ["a.cfg"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_beyond_the_columns_does_not_grow_with_the_rows(self, fmt, tmp_path):
        # the writer's traced peak over what the evaluation holds, at 20,000 and
        # 200,000 steps: one row range of text (~1.5 MB), not ~900 B a step for
        # a whole body
        above = []
        for steps in (20_000, 200_000):
            cfg = RunConfig(k=0.1, nbar=1.0, steps=steps, observables=ALL_OBSERVABLES,
                            output_format=fmt, output_path=str(tmp_path / f"run.{fmt}"))
            evaluation = cli.evaluate(cfg)
            tracemalloc.start()
            try:
                assert write_output(cfg, evaluation).exit_code == EXIT_OK
                above.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert above[1] <= 1.1 * above[0] and above[0] < 4e6, above


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_carry_over(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["run", "--steps", "400", "--detect-events", "-o", str(first)]) == EXIT_OK
        assert main(["run", "--steps", "400", "-o", str(second)]) == EXIT_OK
        assert "# esd_intervals" in first.read_text()
        assert "# esd_intervals" not in second.read_text()
        assert first.read_text().startswith(second.read_text())

    def test_bad_flag_leaves_it_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--no-such-flag"])
        assert exc.value.code == EXIT_USAGE
        assert main(["run", "--steps", "3", "--observables", "lambda"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "t,lambda_t,lambda"


class TestMain:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_list_presets(self, capsys):
        assert main(["--list-presets"]) == EXIT_OK
        out = capsys.readouterr().out.split()
        assert len(out) == 48

    def test_list_presets_on_a_broken_pipe(self, monkeypatch, capsys):
        class Broken(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Broken())
        assert main(["--list-presets"]) == EXIT_IO
        assert capsys.readouterr().err == "esdsim: [Errno 32] Broken pipe\n"

    def test_run_stdout(self, capsys):
        code = main(["run", "--k", "0", "--nbar", "0", "--steps", "5",
                     "--observables", "concurrence"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,lambda_t,concurrence"
        assert len(lines) == 6
        assert [line.split(",")[:2] for line in lines[1:]] == [
            [f"{t:.17g}", f"{10.0 * t:.17g}"] for t in np.linspace(0.0, 2.0, 5).tolist()]

    def test_usage_error(self, capsys):
        assert main(["run", "--observables", "lambda", "lambda"]) == EXIT_USAGE

    def test_run_at_large_nbar(self, capsys):
        # nbar^n / (1+nbar)^(n+1) overflowed past n ~ 280 at nbar = 12
        assert main(["run", "--nbar", "20", "--k", "0.1", "--steps", "10"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 11

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 0.5\nnbar = 1\nsteps = 4\nobservables = concurrence\n")
        assert main(["run", "--config", str(cfg), "--steps", "7"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8

    @pytest.mark.parametrize("flags", [
        ["--epsilon", "2"], ["--k", "-1"], ["--lam", "nan"], ["--nbar", "nan"], ["--t1", "inf"],
    ])
    def test_domain_error_exits_2(self, flags, capsys):
        assert main(["run", "--steps", "5", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        # the message names the value given: "--k -1" was refused as
        # "g must be finite and >= 0, got -10.0"
        assert captured.err.startswith(f"esdsim: {flags[0][2:]} must ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("nbar", ["1e16", "1e300"])
    def test_nbar_whose_ratio_rounds_to_one_exits_2(self, nbar, capsys):
        # nbar/(1+nbar) == 1.0 made the truncation divide by log(1) = 0
        assert main(["run", "--nbar", nbar, "--steps", "3"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("esdsim: nbar ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags,shown", [
        (["--lam", "1e200"], "lam = 1e+200"),
        (["--k", "1e200"], "k = 1e+200"),
        (["--k", "1e80"], "k = 1e+80"),
    ], ids=["lam", "k", "k-1e80"])
    def test_overflowing_coupling_exits_2(self, flags, shown, capsys):
        # each crashed with exit 4: an OverflowError, or non-finite sector
        # constants; they overflow omega_plus, so its phase exceeds the bound.
        # At k = 1e200 the n = 0 term 4 n k^2 of beta was 0 * inf, and the
        # phase read nan where omega_plus is infinite
        assert main(["run", *flags, "--steps", "3"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("esdsim: phase omega_plus lam t = ")
        assert "nan" not in captured.err
        assert "exceeds 9.01e+06" in captured.err
        assert shown in captured.err and captured.err.count("\n") == 1

    def test_k_reaches_the_engine_as_given(self, capsys):
        # k was held as g = k lam and read back as g / lam: at lam = 1e-300
        # g was subnormal and the run reported k = 9.999999999999999e-09
        assert main(["run", "--lam", "1e-300", "--k", "1e-8", "--t1", "2e300", "--steps", "3",
                     "--output-format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["k"] == 1e-08

    def test_g_is_not_an_input(self, tmp_path, capsys):
        # k is the one coupling a run takes; g = k lam is derived
        with pytest.raises(SystemExit) as exc:
            main(["run", "--g", "1"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --g 1" in capsys.readouterr().err
        path = tmp_path / "g.cfg"
        path.write_text("g = 1\n")
        assert main(["run", "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == "esdsim: unknown config key 'g'\n"

    @pytest.mark.parametrize("values,shown", [
        ({"t1": "1e308"}, "phase omega_plus lam t = inf of sector 0 exceeds 9.01e+06: "
                          "lam = 10.0, k = 0.0, time window [0.0, 1e+308]"),
        ({"lambda": "1e5", "k": ".5", "nbar": "1", "t1": "1e3"},
         "phase omega_plus lam t = 3.44e+08 of sector 33 exceeds 9.01e+06: "),
        ({"t0": "-9e307", "t1": "9e307"}, "time window [-9e+307, 9e+307] too wide: "),
        ({"lambda": "1e-5", "t0": "-1e308", "t1": "1e308"},
         "time window [-1e+308, 1e+308] too wide: "),
    ], ids=["phase", "phase-lam-t", "span", "span-small-lam"])
    def test_underflowing_coupling_or_overflowing_window_exits_2(self, values, shown,
                                                                 tmp_path, capsys):
        # each exited 4 ("rho11 has a non-finite entry") after RuntimeWarnings,
        # which the test configuration makes errors, or (phase-lam-t) exited 0
        # with a phase whose rounding is 4e-8; now validate refuses them
        flags = [part for key, value in values.items() for part in (f"--{key}", value)]
        assert main(["run", *flags, "--steps", "5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"esdsim: {shown}")
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        assert main(["sweep", str(cfg), "--output-dir", str(tmp_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("edge,failed(2),")
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"esdsim: edge: {shown}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edge.cfg"]

    @pytest.mark.parametrize("argv,lam", [
        (["--k", ".5", "--nbar", "1"], "1e150"),
        (["--k", ".5", "--nbar", "1"], "1e-110"),
        ([], "1e-200"),
    ], ids=["lam-t-small", "lam-k", "lam"])
    def test_scaled_lambda_runs_as_unit_lambda(self, argv, lam, tmp_path):
        # the state depends on lam and t only through tau = lam t: each exited
        # 2 ("couplings too large" or "too small") before the sector constants
        # were built from k alone, and each is the lam = 1 run with tau <= 2
        scaled, unit = tmp_path / "scaled.csv", tmp_path / "unit.csv"
        t1 = repr(2.0 / float(lam))
        assert main(["run", *argv, "--lam", lam, "--t1", t1, "-o", str(scaled)]) == EXIT_OK
        assert main(["run", *argv, "--lam", "1", "--t1", "2", "-o", str(unit)]) == EXIT_OK
        (header, got), (_, want) = read_table(scaled), read_table(unit)
        assert header[1] == "lambda_t"
        np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=0, atol=1e-14)

    def test_smallest_normal_divisor_still_runs(self, tmp_path):
        # lam = 1e-102 ran before the sector constants were built from k alone
        self.test_scaled_lambda_runs_as_unit_lambda(["--k", "0.5", "--nbar", "1"], "1e-102",
                                                    tmp_path)

    @pytest.mark.parametrize("t0", ["-1e-3", "-1E-3", "-1.0e-3"])
    def test_negative_exponent_values_are_values(self, t0, capsys):
        # a plain argparse parser reads "-1e-3" as an option, 3.10 through 3.13
        assert main(["run", "--t0", t0, "--t1", "1", "--steps", "3"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].startswith("-0.001,")
        assert main(["run", "--lam", "-1e3", "--steps", "3"]) == EXIT_USAGE
        assert capsys.readouterr().err == "esdsim: lam must be finite and > 0, got -1000.0\n"

    @pytest.mark.parametrize("flag,value,shown", [
        ("--t0", "-inf", "-inf"), ("--t0", "-Infinity", "-inf"),
        ("--lam", "-nan", "nan"), ("--k", "-NaN", "nan"),
    ])
    def test_negative_non_finite_values_reach_validate(self, flag, value, shown, capsys):
        # argparse read "-inf" as an unknown option: "expected one argument"
        assert main(["run", flag, value, "--steps", "3"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"esdsim: {flag[2:]} must be finite, got {shown}\n"

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = abc\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("text", ["detect_events = on", "oracle_check = 2"])
    def test_bad_config_boolean_exits_2(self, text, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        assert main(["run", "--config", str(cfg), "--steps", "3"]) == EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1

    def test_sweep_reports_domain_error_as_usage(self, tmp_path, capsys):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("epsilon = 2\nsteps = 5\n")
        assert main(["sweep", str(cfg), "--output-dir", str(tmp_path)]) == EXIT_USAGE
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].startswith("hot,failed(2),")

    def test_repeated_observable_exits_2(self, tmp_path, capsys):
        # a CSV would carry the column twice while JSON samples keep one key
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("steps = 3\nobservables = concurrence concurrence\n")
        message = "observables repeat: concurrence concurrence\n"
        for argv in (["run", "--steps", "3", "--observables", "concurrence", "concurrence"],
                     ["run", "--config", str(cfg)]):
            assert main(argv) == EXIT_USAGE
            assert capsys.readouterr() == ("", f"esdsim: {message}")
        assert main(["sweep", str(cfg), "--output-dir", str(tmp_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("twice,failed(2),")
        assert captured.err == f"esdsim: twice: {message}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["twice.cfg"]

    def test_config_comments_and_blank_lines_are_skipped(self, tmp_path, capsys):
        plain, commented = tmp_path / "plain.cfg", tmp_path / "commented.cfg"
        plain.write_text("k = 0.5\nsteps = 4\n")
        commented.write_text("# a comment line\n\nk = 0.5   # inline\n  \nsteps = 4\n")
        assert load_config(path=str(commented)) == load_config(path=str(plain))
        assert main(["run", "--config", str(plain)]) == EXIT_OK
        want = capsys.readouterr()
        assert main(["run", "--config", str(commented)]) == EXIT_OK
        assert capsys.readouterr() == want

    @pytest.mark.parametrize("text,message", [
        ("k 0.3", "bad config line 'k 0.3' in {path}"),
        ("steps = 1", "steps must be >= 2, got 1"),
        ("observables = foo", "unknown observables: ['foo']"),
        ("output_format = xml", "output format must be csv or json, got xml"),
    ], ids=["no-equals", "steps", "observables", "output-format"])
    def test_config_only_refusals_exit_2(self, text, message, tmp_path, capsys):
        # argparse stops these values as flags, so only a config file reaches
        # validate's checks and the line parser's
        path = tmp_path / "x.cfg"
        path.write_text(text + "\n")
        message = message.format(path=path)
        assert main(["run", "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"esdsim: {message}\n")
        assert main(["sweep", str(path), "--output-dir", str(tmp_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == ["x,failed(2),nan,nan,nan"]
        assert captured.err == f"esdsim: x: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.cfg"]

    def test_no_command_prints_usage_and_exits_2(self, capsys):
        assert main([]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out.startswith("usage: esdsim") and err == ""

    def test_sweep_isolates_targets_that_do_not_resolve(self, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_text("steps = abc\n")
        (tmp_path / "dir.cfg").mkdir()  # not a file, so a preset name that is unknown
        (tmp_path / "bin.cfg").write_bytes(b"\xff\n")  # a file that cannot be read as text
        code = main(["sweep", str(tmp_path / "bad.cfg"), "fig9z", str(tmp_path / "dir.cfg"),
                     str(tmp_path / "bin.cfg"), "fig1a", "--output-dir", str(tmp_path)])
        assert code == EXIT_IO
        captured = capsys.readouterr()
        rows = [row.split(",")[:2] for row in captured.out.splitlines()[1:]]
        assert rows == [["bad", "failed(2)"], ["fig9z", "failed(2)"],
                        [str(tmp_path / "dir.cfg"), "failed(2)"], ["bin", "failed(4)"],
                        ["fig1a", "ok"]]
        assert [line.split(":")[:2] for line in captured.err.splitlines()] == [
            ["esdsim", " bad"], ["esdsim", " fig9z"], ["esdsim", f" {tmp_path / 'dir.cfg'}"],
            ["esdsim", " bin"]]
        assert (tmp_path / "fig1a.csv").exists()

    def test_sweep_reads_a_directory_as_a_preset_name(self, tmp_path, capsys, monkeypatch):
        # a target is a config file when it exists and is not a directory: a
        # directory fig1a/ leaves fig1a the preset, any other directory is an
        # unknown preset, though run --config cannot read it (exit 4)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig1a").mkdir()
        (tmp_path / "other").mkdir()
        assert main(["sweep", "fig1a", "other", "--output-dir", "."]) == EXIT_USAGE
        captured = capsys.readouterr()
        rows = [row.split(",")[:2] for row in captured.out.splitlines()[1:]]
        assert rows == [["fig1a", "ok"], ["other", "failed(2)"]]
        assert captured.err == "esdsim: other: unknown preset 'other'; see --list-presets\n"
        assert main(["run", "--preset", "fig1a", "-o", "run.csv"]) == EXIT_OK
        assert (tmp_path / "fig1a.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()
        assert main(["run", "--config", "other"]) == EXIT_IO
        capsys.readouterr()
        # a file that is not a regular one (a pipe, as from <(...)) is still read
        read, write = os.pipe()
        try:
            os.write(write, b"steps = 5\n")
            os.close(write)
            assert main(["sweep", f"/dev/fd/{read}", "--output-dir", "."]) == EXIT_OK
        finally:
            os.close(read)
        assert capsys.readouterr().out.splitlines()[1].split(",")[:2] == [str(read), "ok"]
        assert len((tmp_path / f"{read}.csv").read_text().splitlines()) == 6

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_exits_2(self, jobs, tmp_path, capsys):
        code = main(["sweep", "fig1a", "--jobs", jobs, "--output-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "fig1a.csv").exists()

    def test_sweep_evaluates_on_the_main_thread(self, tmp_path, monkeypatch):
        # --jobs is accepted and selects nothing: every group runs on the calling thread
        threads, real = [], cli.evaluate

        def tracked(cfg):
            threads.append(threading.current_thread())
            return real(cfg)

        monkeypatch.setattr(cli, "evaluate", tracked)
        code = main(["sweep", "fig1a", "fig2a", "fig1d", "fig2d", "--jobs", "2",
                     "--output-dir", str(tmp_path)])
        assert code == EXIT_OK and threads == [threading.main_thread()] * 4

    def test_cli_imports_no_thread_pool(self):
        script = "import sys, esdsim.cli; raise SystemExit('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_writes_each_output_once(self, jobs, tmp_path, capsys):
        for sub, k in (("a", 0.1), ("b", 0.5)):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.cfg").write_text(f"k = {k}\nsteps = 5\n")
        code = main(["sweep", str(tmp_path / "a" / "x.cfg"), str(tmp_path / "b" / "x.cfg"),
                     "fig1a", "fig1a", "--jobs", jobs, "--output-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        rows = [row.split(",")[:2] for row in captured.out.splitlines()[1:]]
        assert rows == [["x", "ok"], ["x", "failed(2)"], ["fig1a", "ok"], ["fig1a", "failed(2)"]]
        assert captured.err.splitlines() == [
            f"esdsim: x: output {tmp_path / 'x.csv'} already written by x",
            f"esdsim: fig1a: output {tmp_path / 'fig1a.csv'} already written by fig1a",
        ]
        first = tmp_path / "a.csv"
        assert main(["run", "--config", str(tmp_path / "a" / "x.cfg"), "-o", str(first)]) == 0
        assert (tmp_path / "x.csv").read_bytes() == first.read_bytes()

    def test_sweep_summary_is_the_first_writer_of_its_file(self, tmp_path, capsys):
        summary = tmp_path / "fig1a.csv"
        code = main(["sweep", "fig1a", "fig2a", "--output-dir", str(tmp_path),
                     "-o", str(summary)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"esdsim: fig1a: output {summary} already written by the summary\n")
        rows = [row.split(",")[:2] for row in summary.read_text().splitlines()]
        assert rows == [["name", "status"], ["fig1a", "failed(2)"], ["fig2a", "ok"]]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig1a.csv", "fig2a.csv"]

    @pytest.mark.parametrize("name", ["../escape", "", "a/b"])
    def test_sweep_refuses_a_name_that_is_not_a_file_name(self, name, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "c.cfg").write_text(f"name = {name}\nsteps = 5\n")
        code = main(["sweep", str(tmp_path / "c.cfg"), "fig1a", "--output-dir", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        rows = [row.split(",")[:2] for row in captured.out.splitlines()[1:]]
        assert rows == [["c", "failed(2)"], ["fig1a", "ok"]]
        assert captured.err.startswith(f"esdsim: c: name {name!r} ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.cfg", "fig1a.csv", "out"]

    @pytest.mark.parametrize("stem", ["a\rb", "a\nb", "a\x1bb", "a\x85b"])
    def test_sweep_refuses_a_control_character_in_a_name(self, stem, tmp_path, capsys):
        # csv.writer quotes "\n" but not a lone "\r", which csv.reader splits on
        for name in (stem, "ok"):
            (tmp_path / f"{name}.cfg").write_text("steps = 5\n")
        summary = tmp_path / "summary.csv"
        code = main(["sweep", str(tmp_path / f"{stem}.cfg"), str(tmp_path / "ok.cfg"),
                     "--output-dir", str(tmp_path), "-o", str(summary)])
        assert code == EXIT_USAGE
        with open(summary, newline="") as fh:
            rows = list(csv.reader(fh))
        escaped = repr(stem)[1:-1]
        assert [row[:2] for row in rows[1:]] == [[escaped, "failed(2)"], ["ok", "ok"]]
        assert capsys.readouterr().err.splitlines() == [
            f"esdsim: {escaped}: name {stem!r} holds a control character"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [f"{stem}.cfg", "ok.cfg", "ok.csv", "summary.csv"])

    def test_sweep_refuses_a_control_character_in_a_config_name(self, tmp_path, capsys):
        (tmp_path / "c.cfg").write_text("name = a\tb\nsteps = 5\n")
        code = main(["sweep", str(tmp_path / "c.cfg"), "--output-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert list(csv.reader(io.StringIO(captured.out, newline="")))[1][:2] == ["c", "failed(2)"]
        assert captured.err == "esdsim: c: name 'a\\tb' holds a control character\n"

    def test_sweep_summary_quotes_commas_and_line_breaks(self, tmp_path, capsys):
        (tmp_path / "c.cfg").write_text("name = a,b\nsteps = 5\n")
        assert main(["sweep", str(tmp_path / "c.cfg"), "--output-dir", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].startswith('"a,b",ok,')
        assert (tmp_path / "a,b.csv").exists()
        multiline = RunConfig(name="x\ny", steps=5, output_path=str(tmp_path / "x.csv"))
        summary, code = sweep([multiline])
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(summary, newline="")))
        assert [len(row) for row in rows] == [5, 5] and rows[1][:2] == ["x\ny", "ok"]

    def test_sweep_into_missing_directory_runs_nothing(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "evaluate", lambda cfg: calls.append(cfg))
        missing = tmp_path / "missing"
        code = main(["sweep", "fig1a", "fig2a", "--output-dir", str(missing)])
        assert code == EXIT_IO and calls == []
        captured = capsys.readouterr()
        rows = [row.split(",")[:2] for row in captured.out.splitlines()[1:]]
        assert rows == [["fig1a", "failed(4)"], ["fig2a", "failed(4)"]]
        assert captured.err.splitlines() == [
            f"esdsim: {name}: output directory {missing} does not exist"
            for name in ("fig1a", "fig2a")]

    def test_sweep_level_defect_names_its_exception_type(self, tmp_path, capsys, monkeypatch):
        def fail(target, output_dir):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "_sweep_target", fail)
        assert main(["sweep", "fig1a", "--output-dir", str(tmp_path)]) == EXIT_IO
        assert capsys.readouterr() == ("", "esdsim: RuntimeError: boom\n")
        assert list(tmp_path.iterdir()) == []

    def test_sweep_summary_into_missing_directory_runs_nothing(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        code = main(["sweep", "fig1a", "--output-dir", str(tmp_path),
                     "-o", str(missing / "s.csv")])
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == f"esdsim: output directory {missing} does not exist\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("content", [
        "steps = abc\n", "t0 = 2\nt1 = 1\n", b"\xff\n",
        "steps = 5\noutput_path = {tmp}/missing/x.csv\n", "steps = 5\n",
    ], ids=["bad-value", "bad-window", "not-text", "missing-output-dir", "valid"])
    def test_run_and_sweep_exit_alike(self, content, tmp_path, capsys):
        path = tmp_path / "x.cfg"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content.format(tmp=tmp_path))
        code = main(["sweep", str(path), "--output-dir", str(tmp_path)])
        captured = capsys.readouterr()
        status = captured.out.splitlines()[1].split(",")[1]
        assert status == ("ok" if code == EXIT_OK else f"failed({code})")
        assert len(captured.err.splitlines()) == (code != EXIT_OK)

        assert main(["run", "--config", str(path)]) == code
        assert len(capsys.readouterr().err.splitlines()) == (code != EXIT_OK)

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_output_files_get_the_umask_mode(self, umask, tmp_path):
        # the umask set before the interpreter starts holds for every file it writes
        script = ("from esdsim.cli import main; raise SystemExit("
                  "main(['run', '--preset', 'fig1a', '-o', 'run.csv']) or "
                  "main(['sweep', 'fig1a', '--output-dir', 'sweep', '-o', 'summary.csv']))")
        (tmp_path / "sweep").mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        old = os.umask(umask)
        try:
            proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=120)
        finally:
            os.umask(old)
        assert proc.returncode == EXIT_OK, proc.stderr
        for name in ("run.csv", "sweep/fig1a.csv", "summary.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask, name

    def test_output_files_get_the_umask_set_after_import(self, tmp_path):
        # esdsim.cli is imported by now; a umask unlike the one at import still applies
        old = os.umask(0o077)
        new = 0o027 if old == 0o077 else 0o077
        try:
            os.umask(new)
            assert main(["run", "--preset", "fig1a", "--steps", "10",
                         "-o", str(tmp_path / "run.csv")]) == EXIT_OK
        finally:
            os.umask(old)
        assert (tmp_path / "run.csv").stat().st_mode & 0o777 == 0o666 & ~new
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]

    @pytest.mark.parametrize("dangling", [False, True], ids=["target", "dangling"])
    def test_output_through_a_symlink_writes_its_target(self, dangling, tmp_path):
        (tmp_path / "links").mkdir()
        (tmp_path / "out").mkdir()
        link, target = tmp_path / "links" / "run.csv", tmp_path / "out" / "run.csv"
        if not dangling:
            target.write_text("old\n")
        link.symlink_to(target)
        assert main(["run", "--steps", "3", "-o", str(link)]) == EXIT_OK
        assert main(["run", "--steps", "3", "-o", str(tmp_path / "plain.csv")]) == EXIT_OK
        assert link.is_symlink() and target.read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert [p.name for p in (tmp_path / "links").iterdir()] == ["run.csv"]
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["run.csv"]

    def test_symlink_into_a_missing_directory_exits_4(self, tmp_path, capsys):
        link, missing = tmp_path / "link.csv", tmp_path / "missing"
        link.symlink_to(missing / "run.csv")
        assert main(["run", "--steps", "3", "-o", str(link)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"esdsim: output directory {os.path.realpath(missing)} does not exist\n")
        assert link.is_symlink() and [p.name for p in tmp_path.iterdir()] == ["link.csv"]

    def test_output_to_a_fifo_is_written_into_it(self, tmp_path):
        # the test holds the FIFO open for writing until the run is done, so the
        # reader neither waits for the run to open it nor ends before it writes
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        hold, got = os.open(fifo, os.O_RDWR), []
        with open(fifo, "rb") as fh:
            reader = threading.Thread(target=lambda: got.append(fh.read()), daemon=True)
            reader.start()
            try:
                code = main(["run", "--steps", "3", "-o", str(fifo)])
            finally:
                os.close(hold)
                reader.join(timeout=60)
        assert not reader.is_alive() and code == EXIT_OK and fifo.is_fifo()
        assert main(["run", "--steps", "3", "-o", str(tmp_path / "plain.csv")]) == EXIT_OK
        assert got == [(tmp_path / "plain.csv").read_bytes()]

    def test_sweep_refuses_a_target_that_aliases_an_earlier_one(self, tmp_path, capsys):
        (tmp_path / "b.csv").symlink_to(tmp_path / "a.csv")
        configs = [RunConfig(name=n, steps=5, output_path=str(tmp_path / f"{n}.csv"))
                   for n in ("a", "b")]
        summary, code = sweep(configs)
        assert code == EXIT_USAGE
        assert [row.split(",")[:2] for row in summary.splitlines()[1:]] == [
            ["a", "ok"], ["b", "failed(2)"]]
        assert capsys.readouterr().err == (
            f"esdsim: b: output {os.path.realpath(tmp_path / 'a.csv')} already written by a\n")
        assert (tmp_path / "b.csv").is_symlink()

    def test_sweep_presets(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        code = main(["sweep", "fig1a", "fig2a", "--output-dir", str(tmp_path),
                     "-o", str(out)])
        assert code == EXIT_OK
        assert (tmp_path / "fig1a.csv").exists()
        assert (tmp_path / "fig2a.csv").exists()
        assert len(out.read_text().splitlines()) == 3


def run_main(argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCouplingDomain:
    """Every lam, k and window length either runs, as the lam = 1 run with the
    same tau = lam t, or is refused with one line."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        log_lam=st.floats(-300.0, 308.2547),   # up to 10^308.2547 < the largest double
        k=st.one_of(st.just(0.0), st.floats(-8.0, 80.0).map(lambda e: 10.0**e)),
        tau1=st.floats(0.0, 1e8, exclude_min=True),
        nbar=st.floats(0.0, 2.0),
    )
    # k^4 overflowed in omega_minus while omega_plus, and so the phase, stayed
    # finite: exit 4, "rho11 has a non-finite entry"
    @example(log_lam=0.0, k=3e76, tau1=1e-72, nbar=1.0)
    # where H in physical units would overflow, though the phase stays
    # finite: g = k lam, an entry g sqrt(n) with g finite, and a singular
    # value with every entry finite. The validator holds H / lam, so each
    # exits 0 and passes (test_validator_runs_where_physical_units_overflow)
    @example(log_lam=300.0, k=1e10, tau1=1e-4, nbar=1.0)
    @example(log_lam=300.0, k=1e8, tau1=1e-6, nbar=1.0)
    @example(log_lam=308.23, k=0.3, tau1=4.0, nbar=0.0)
    def test_runs_as_unit_lambda_or_exits_2(self, log_lam, k, tau1, nbar):
        lam = 10.0**log_lam
        oracle = ["--oracle-check"] if nbar <= 1 else []
        self.check(k, nbar, lam, tau1 / lam, tau1, oracle)

    @pytest.mark.parametrize("lam,k,nbar,t1", [
        (1e300, 1e10, 1.0, 1e-304),
        (1e300, 1e8, 1.0, 1e-306),
        (1.7e308, 0.3, 0.0, 2.3529411764705882e-308),
    ])
    def test_validator_runs_where_physical_units_overflow(self, lam, k, nbar, t1):
        # the validator builds H / lam, entries 1 and k sqrt(n), so the lam = 1e300
        # and lam = 1.7e308 runs pass as their lam = 1 twins do
        assert self.check(k, nbar, lam, t1, lam * t1, ["--oracle-check"]) == EXIT_OK

    def test_overflowing_g_runs_without_the_validator(self):
        # g = k lam = inf was refused ("g must be finite and >= 0, got inf")
        # though the run depends on k and tau = lam t alone
        assert self.check(1e10, 1.5, 1e300, 1e-304, 1e-4, []) == EXIT_OK

    @staticmethod
    def check(k, nbar, lam, t1, tau1, oracle) -> int:
        """Run at (lam, t1) and return the exit code: 2 with one stderr line,
        or 0 with observables equal to the lam = 1 run over tau1."""
        argv = ["run", "--k", repr(k), "--nbar", repr(nbar), "--steps", "5"]
        code, out, err = run_main([*argv, "--lam", repr(lam), "--t1", repr(t1), *oracle])
        assert code in (EXIT_OK, EXIT_USAGE), err
        if code == EXIT_USAGE:
            assert out == "" and err.startswith("esdsim: ") and err.count("\n") == 1
            assert "Traceback" not in err
            return code
        assert err == ""
        unit_code, unit_out, _ = run_main([*argv, "--lam", "1", "--t1", repr(tau1)])
        assert unit_code == EXIT_OK
        rows = lambda text: np.array([[float(x) for x in line.split(",")]  # noqa: E731
                                      for line in text.splitlines()[1:] if line[0] != "#"])
        got, want = rows(out), rows(unit_out)
        omega = sector_frequencies(k, build_thermal(nbar).nmax).omega_plus
        bound = 4 * omega * np.spacing(tau1) + 8 * np.spacing(1.0)
        assert np.abs(got[:, 2:] - want[:, 2:]).max() <= bound
        if oracle:
            assert "# oracle_max_deviation," in out and out.endswith(",pass\n")
        return code
