import json

import numpy as np
import pytest

from esdsim.cli import (
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    execute,
    main,
    preset_config,
    preset_names,
    sweep,
)


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


class TestRun:
    def test_decoupled_concurrence_column(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = RunConfig(g=0.0, k=None, nbar=0.0, steps=200, t1=2.0,
                        observables=("concurrence",), output_path=str(out))
        assert execute(cfg).exit_code == EXIT_OK
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
        assert execute(cfg).exit_code == EXIT_OK
        _, data = read_table(out)
        assert (data[:, 2] == 0.0).sum() >= 1

    def test_oracle_check_passes(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg = RunConfig(k=0.5, nbar=1.0, steps=200, observables=("concurrence",),
                        oracle_check=True, output_path=str(out))
        res = execute(cfg)
        assert res.exit_code == EXIT_OK
        assert res.oracle_deviation < 1e-8
        assert "# oracle_max_deviation" in out.read_text()

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = RunConfig(k=0.5, nbar=1.0, steps=100, detect_events=True,
                            output_path=str(out))
            assert execute(cfg).exit_code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_json_output_carries_resolved_config(self, tmp_path):
        out = tmp_path / "run.json"
        cfg = RunConfig(k=0.1, nbar=1.0, steps=10, output_format="json",
                        detect_events=True, output_path=str(out))
        assert execute(cfg).exit_code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"]["g"] == pytest.approx(1.0)
        assert doc["config"]["epsilon"] == 1e-10
        assert len(doc["samples"]) == 10
        assert set(doc["samples"][0]) >= {"t", "lambda_t", "concurrence"}
        assert isinstance(doc["events"], list)

    def test_io_failure_exit_code(self):
        cfg = RunConfig(steps=10, output_path="/nonexistent-dir/x/y.csv")
        from esdsim.cli import EXIT_IO
        assert execute(cfg).exit_code == EXIT_IO


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

    def test_usage_error(self, capsys):
        assert main(["run", "--k", "0.1", "--g", "1.0"]) == EXIT_USAGE

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

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = abc\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1

    def test_sweep_reports_domain_error_as_usage(self, tmp_path, capsys):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("epsilon = 2\nsteps = 5\n")
        assert main(["sweep", str(cfg), "--output-dir", str(tmp_path)]) == EXIT_USAGE
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].startswith("hot,failed(2),")

    def test_sweep_presets(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        code = main(["sweep", "fig1a", "fig2a", "--output-dir", str(tmp_path),
                     "-o", str(out)])
        assert code == EXIT_OK
        assert (tmp_path / "fig1a.csv").exists()
        assert (tmp_path / "fig2a.csv").exists()
        assert len(out.read_text().splitlines()) == 3
