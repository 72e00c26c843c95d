import argparse
import json
import weakref
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from esdsim import ModelParams, build_thermal, cli, scan_esd
from esdsim.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    _config_from_args,
    build_parser,
    execute,
    load_config,
    main,
    preset_config,
    preset_names,
    sweep,
)

# a value for every RunConfig field, each unlike its default
SAMPLES = {
    "lam": 3.5, "k": 0.25, "g": 2.0, "nbar": 1.5, "epsilon": 1e-6, "t0": 0.5, "t1": 3.0,
    "steps": 17, "observables": ("lambda", "entropy"), "detect_events": True,
    "oracle_check": True, "output_format": "json", "output_path": "out.csv", "name": "custom",
}
CONFIG_KEYS = ["lambda", "k", "g", "nbar", "epsilon", "t0", "t1", "steps", "observables",
               "detect_events", "oracle_check", "output_format", "output_path", "name"]
RUN_OPTIONS = ["-h", "--help", "--preset", "--config", "--lam", "--lambda", "--k", "--g",
               "--nbar", "--epsilon", "--t0", "--t1", "--steps", "--observables",
               "--detect-events", "--oracle-check", "--output-format", "-o", "--output"]
SWEEP_OPTIONS = ["-h", "--help", "--jobs", "--output-dir", "-o", "--output"]
FLAGS = [(f, flag) for f in fields(RunConfig) for flag in f.metadata["flags"]]


def reduced(preset, directory, **changes):
    """A preset at 200 steps over lam*t in [0, 10], written into directory."""
    return replace(preset_config(preset), **{
        "steps": 200, "t1": 1.0, "output_path": str(directory / f"{preset}.csv"), **changes})


def count_evaluations(monkeypatch, fail_k=None):
    """The k of every cli.two_qubit_states call, in call order; a call at
    k == fail_k raises RuntimeError("boom")."""
    calls, real = [], cli.two_qubit_states

    def counting(params, field, times):
        calls.append(params.k)
        if params.k == fail_k:
            raise RuntimeError("boom")
        return real(params, field, times)

    monkeypatch.setattr(cli, "two_qubit_states", counting)
    return calls


def read_table(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_k_and_g_exclusive(self):
        with pytest.raises(UsageError):
            RunConfig(k=0.1, g=1.0).validate()

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
        assert len(names) == 48
        cfg = preset_config("fig1d")
        assert cfg.k == 0.1 and cfg.nbar == 10.0 and cfg.lam == 10.0
        cfg = preset_config("fig2a")
        assert cfg.k == 0.5 and cfg.nbar == 1.0
        with pytest.raises(UsageError):
            preset_config("fig9a")


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

    def test_file_g_replaces_preset_k_like_the_flag(self, tmp_path):
        path = tmp_path / "g.cfg"
        path.write_text("g = 1\n")
        from_file = load_config("fig1a", str(path))
        from_flag = _config_from_args(build_parser().parse_args(
            ["run", "--preset", "fig1a", "--g", "1"]))
        assert from_file.k is None and from_file.g == 1.0
        assert from_file == from_flag
        assert main(["run", "--preset", "fig1a", "--config", str(path),
                     "--steps", "3", "-o", str(tmp_path / "out.csv")]) == EXIT_OK

    def test_layers_override_in_order(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nbar = 3\nsteps = 40\n")
        cfg = load_config("fig2d", str(path), {"steps": 7})
        assert (cfg.name, cfg.k, cfg.nbar, cfg.steps) == ("fig2d", 0.5, 3.0, 7)


class TestRun:
    def test_decoupled_concurrence_column(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = RunConfig(g=0.0, k=None, nbar=0.0, steps=200, t1=2.0,
                        observables=("concurrence",), output_path=str(out))
        assert execute(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
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
        assert execute(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
        _, data = read_table(out)
        assert (data[:, 2] == 0.0).sum() >= 1

    def test_oracle_check_passes(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg = RunConfig(k=0.5, nbar=1.0, steps=200, observables=("concurrence",),
                        oracle_check=True, output_path=str(out))
        res = execute(cfg, cli.evaluate(cfg))
        assert res.exit_code == EXIT_OK
        assert res.oracle_deviation < 1e-8
        assert "# oracle_max_deviation" in out.read_text()

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = RunConfig(k=0.5, nbar=1.0, steps=100, detect_events=True,
                            output_path=str(out))
            assert execute(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_json_output_carries_resolved_config(self, tmp_path):
        out = tmp_path / "run.json"
        cfg = RunConfig(k=0.1, nbar=1.0, steps=10, output_format="json",
                        detect_events=True, output_path=str(out))
        assert execute(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"]["g"] == pytest.approx(1.0)
        assert doc["config"]["epsilon"] == 1e-10
        assert len(doc["samples"]) == 10
        assert set(doc["samples"][0]) >= {"t", "lambda_t", "concurrence"}
        assert isinstance(doc["events"], list)

    def test_json_events_are_the_intervals(self, tmp_path):
        out = tmp_path / "esd.json"
        cfg = RunConfig(k=0.5, nbar=1.0, t1=4.0, steps=400, detect_events=True,
                        output_format="json", output_path=str(out))
        assert execute(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
        events = json.loads(out.read_text())["events"]
        intervals = scan_esd(ModelParams.from_k(10.0, 0.5), build_thermal(1.0), 0.0, 4.0, 400)
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
        result = cli._attempt(RunConfig(), fail)
        assert (result.exit_code, result.error) == (code, message)

    def test_defect_names_its_exception_type(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "observable_columns", lambda series: {})
        assert main(["run", "--steps", "3"]) == EXIT_IO
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "esdsim: KeyError: 'concurrence'\n")

    def test_event_rows_match_scan_esd(self, tmp_path):
        out = tmp_path / "esd.csv"
        cfg = RunConfig(k=0.5, nbar=1.0, t1=4.0, steps=400, detect_events=True,
                        observables=("lambda",), output_path=str(out))
        assert execute(cfg, cli.evaluate(cfg)).exit_code == EXIT_OK
        rows = [l[2:].split(",") for l in out.read_text().splitlines()[402:]]
        intervals = scan_esd(ModelParams.from_k(10.0, 0.5), build_thermal(1.0), 0.0, 4.0, 400)
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
        summary, code = sweep(configs, jobs=2)
        assert code == EXIT_OK
        rows = summary.splitlines()
        assert len(rows) == 5
        assert all("ok" in row for row in rows[1:])

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
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_evaluation_per_physics(self, jobs, tmp_path, monkeypatch):
        calls = count_evaluations(monkeypatch)
        summary, code = sweep([reduced(f"fig{fig}a", tmp_path) for fig in (1, 3, 5, 7)],
                              jobs=jobs)
        assert code == EXIT_OK and calls == [0.1]
        assert [row.split(",")[:2] for row in summary.splitlines()[1:]] == [
            [f"fig{fig}a", "ok"] for fig in (1, 3, 5, 7)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_outputs_match_separate_runs(self, jobs, tmp_path, monkeypatch):
        names = [f"fig{fig}a" for fig in range(1, 9)]  # four observables at each of two k
        (tmp_path / "swept").mkdir()
        (tmp_path / "alone").mkdir()
        calls = count_evaluations(monkeypatch)
        summary, code = sweep([reduced(n, tmp_path / "swept") for n in names], jobs=jobs)
        assert code == EXIT_OK and sorted(calls) == [0.1, 0.5]
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
            assert execute(alone, cli.evaluate(alone)).exit_code == EXIT_OK
            assert (tmp_path / "alone.csv").read_bytes() == (
                tmp_path / f"{cfg.name}.csv").read_bytes()

    def test_presentation_shares_the_evaluation(self, tmp_path, monkeypatch):
        by_k = reduced("fig2a", tmp_path, observables=("lambda", "entropy"), name="by_k")
        by_g = replace(by_k, k=None, g=5.0, output_format="json", name="by_g",
                       output_path=str(tmp_path / "by_g.json"))
        calls = count_evaluations(monkeypatch)
        assert sweep([by_k, by_g])[1] == EXIT_OK and calls == [0.5]
        for cfg in (by_k, by_g):
            alone = replace(cfg, output_path=str(tmp_path / "alone"))
            assert execute(alone, cli.evaluate(alone)).exit_code == EXIT_OK
            swept = Path(cfg.output_path).read_text().replace(cfg.output_path, alone.output_path)
            assert (tmp_path / "alone").read_text() == swept

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_evaluation_fails_its_group(self, jobs, tmp_path, monkeypatch, capsys):
        calls = count_evaluations(monkeypatch, fail_k=0.1)
        names = ["fig1a", "fig2a", "fig3a", "fig4a"]
        summary, code = sweep([reduced(n, tmp_path) for n in names], jobs=jobs)
        assert code == EXIT_IO and sorted(calls) == [0.1, 0.5]
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


class TestMain:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_list_presets(self, capsys):
        assert main(["--list-presets"]) == EXIT_OK
        out = capsys.readouterr().out.split()
        assert len(out) == 48

    def test_run_stdout(self, capsys):
        code = main(["run", "--g", "0", "--nbar", "0", "--steps", "5",
                     "--observables", "concurrence"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,lambda_t,concurrence"
        assert len(lines) == 6
        assert [line.split(",")[:2] for line in lines[1:]] == [
            [f"{t:.17g}", f"{10.0 * t:.17g}"] for t in np.linspace(0.0, 2.0, 5).tolist()]

    def test_usage_error(self, capsys):
        assert main(["run", "--k", "0.1", "--g", "1.0"]) == EXIT_USAGE

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
        assert captured.err.startswith("esdsim: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("nbar", ["1e16", "1e300"])
    def test_nbar_whose_ratio_rounds_to_one_exits_2(self, nbar, capsys):
        # nbar/(1+nbar) == 1.0 made the truncation divide by log(1) = 0
        assert main(["run", "--nbar", nbar, "--steps", "3"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("esdsim: nbar ") and err.count("\n") == 1

    @pytest.mark.parametrize("t0", ["-1e-3", "-1E-3", "-1.0e-3"])
    def test_negative_exponent_values_are_values(self, t0, capsys):
        # argparse before Python 3.12 read "-1e-3" as an option
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

    def test_sweep_isolates_targets_that_do_not_resolve(self, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_text("steps = abc\n")
        (tmp_path / "dir.cfg").mkdir()  # exists but cannot be read as a file
        code = main(["sweep", str(tmp_path / "bad.cfg"), "fig9z", str(tmp_path / "dir.cfg"),
                     "fig1a", "--output-dir", str(tmp_path)])
        assert code == EXIT_IO
        captured = capsys.readouterr()
        rows = [row.split(",")[:2] for row in captured.out.splitlines()[1:]]
        assert rows == [["bad", "failed(2)"], ["fig9z", "failed(2)"],
                        ["dir", "failed(4)"], ["fig1a", "ok"]]
        assert [line.split(":")[:2] for line in captured.err.splitlines()] == [
            ["esdsim", " bad"], ["esdsim", " fig9z"], ["esdsim", " dir"]]
        assert (tmp_path / "fig1a.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_exits_2(self, jobs, tmp_path, capsys):
        code = main(["sweep", "fig1a", "--jobs", jobs, "--output-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "fig1a.csv").exists()

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
        "steps = abc\n", "t0 = 2\nt1 = 1\n", b"\xff\n", None,
        "steps = 5\noutput_path = {tmp}/missing/x.csv\n", "steps = 5\n",
    ], ids=["bad-value", "bad-window", "not-text", "directory", "missing-output-dir", "valid"])
    def test_run_and_sweep_exit_alike(self, content, tmp_path, capsys):
        path = tmp_path / "x.cfg"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
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

    def test_sweep_presets(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        code = main(["sweep", "fig1a", "fig2a", "--output-dir", str(tmp_path),
                     "-o", str(out)])
        assert code == EXIT_OK
        assert (tmp_path / "fig1a.csv").exists()
        assert (tmp_path / "fig2a.csv").exists()
        assert len(out.read_text().splitlines()) == 3
