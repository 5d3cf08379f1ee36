import pytest

from blocksolve.cli import (
    CONFIG_KEYS,
    ExperimentConfig,
    compare,
    format_compare,
    format_summary,
    format_sweep,
    main,
    parse_boundary,
    parse_config_file,
    parse_delay,
    run,
    sweep,
)
from blocksolve.comm import DelayModel
from blocksolve.errors import ConfigurationError
from blocksolve.multisplit import TRACE_HEADER
from blocksolve.problems import DirichletBoundary


def cli(tmp_path, *args):
    return main([str(a) for a in args])


def base_args(tmp_path, **overrides):
    values = {
        "nx": 4, "ny": 4, "nz": 4, "gx": 2, "mode": "sync",
        "tol": "1e-6", "out": tmp_path / "trace.csv",
    }
    values.update(overrides)
    args = ["run"]
    for key, value in values.items():
        args += [f"--{key.replace('_', '-')}" if key != "R" else "--R", str(value)]
    return args


class TestParsing:
    def test_delay_forms(self):
        assert parse_delay("none", 3) == DelayModel(seed=3)
        assert parse_delay("fixed:2", 0) == DelayModel("fixed", fixed=2)
        assert parse_delay("uniform:0:3", 1) == DelayModel("uniform", low=0, high=3, seed=1)
        assert parse_delay("jitter:1:4", 0) == DelayModel("drop_free_jitter", low=1, high=4)

    def test_delay_errors(self):
        for bad in ("sometimes", "fixed", "uniform:1", "fixed:x"):
            with pytest.raises(ConfigurationError, match="delay"):
                parse_delay(bad, 0)

    def test_boundary_forms(self):
        assert parse_boundary("const:2") == DirichletBoundary.constant(2.0)
        assert parse_boundary("faces:x_lo=1,y_hi=0.5") == DirichletBoundary(
            {"x_lo": 1.0, "y_hi": 0.5}
        )
        with pytest.raises(ConfigurationError, match="boundary"):
            parse_boundary("everywhere:1")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="frobnicate"):
            ExperimentConfig.from_mapping({"frobnicate": "1"})

    def test_field_errors_name_the_field(self):
        with pytest.raises(ConfigurationError, match="nx"):
            ExperimentConfig.from_mapping({"nx": "four"})
        with pytest.raises(ConfigurationError, match="mode"):
            ExperimentConfig.from_mapping({"mode": "magic"})
        with pytest.raises(ConfigurationError, match="seed"):
            ExperimentConfig.from_mapping({"seed": "-3"})

    def test_echo_round_trip(self):
        mapping = {
            "nx": "6", "ny": "5", "nz": "7", "gx": "2", "gy": "3", "gz": "2",
            "overlap": "1", "inner": "cg", "inner_its": "7", "inner_tol": "1e-3",
            "mode": "async", "R": "4", "delay": "uniform:0:3", "seed": "9",
            "tol": "2.5e-7", "max_outer": "77", "residual_mode": "true",
            "true_res_every": "3", "exec": "threads", "out": "other.csv",
            "boundary": "faces:x_lo=1,z_hi=0.25", "restart": "12",
        }
        config = ExperimentConfig.from_mapping(mapping)
        default = ExperimentConfig.from_mapping({})
        assert mapping.keys() == CONFIG_KEYS.keys()
        for spec in CONFIG_KEYS.values():
            assert getattr(config, spec.field) != getattr(default, spec.field), spec.field
        lines = dict(
            line.split("=", 1) for line in config.echo().splitlines() if line
        )
        assert ExperimentConfig.from_mapping(lines) == config

    def test_config_file_layering(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# experiment\nnx=6\nny=6\nnz=6\ntol=1e-5\n")
        pairs = parse_config_file(path)
        assert pairs == {"nx": "6", "ny": "6", "nz": "6", "tol": "1e-5"}
        config = ExperimentConfig.from_mapping({**pairs, "nx": "8"})
        assert config.nx == 8 and config.ny == 6

    def test_config_file_bad_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("nx 6\n")
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config_file(path)


class TestRun:
    def test_baseline_converges_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "base.csv"
        code = cli(
            tmp_path, "run", "--nx", 4, "--ny", 4, "--nz", 4,
            "--mode", "baseline", "--inner", "gmres", "--tol", "1e-6", "--out", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert "converged" in capsys.readouterr().out

    def test_two_stage_run_via_api(self, tmp_path):
        config = ExperimentConfig.from_mapping(
            {
                "nx": "4", "ny": "4", "nz": "4", "gx": "2",
                "tol": "1e-6", "out": str(tmp_path / "t.csv"),
            }
        )
        summary = run(config)
        assert summary.converged
        assert summary.final_true_residual <= 1e-6
        assert summary.iterations_per_second is None  # replay mode
        assert (tmp_path / "t.csv").exists()
        assert "outer iterations" in format_summary(summary)

    def test_threads_execution_reports_rate(self, tmp_path):
        config = ExperimentConfig.from_mapping(
            {
                "nx": "4", "ny": "4", "nz": "4", "gx": "2", "exec": "threads",
                "tol": "1e-6", "out": str(tmp_path / "thr.csv"),
            }
        )
        summary = run(config)
        assert summary.converged
        assert summary.iterations_per_second is not None
        assert summary.iterations_per_second > 0

    def test_max_outer_exhaustion_exit_two(self, tmp_path):
        code = cli(tmp_path, *base_args(tmp_path, max_outer=1, tol="1e-12"))
        assert code == 2

    def test_bad_block_grid_exit_one_names_gx(self, tmp_path, capsys):
        code = cli(tmp_path, *base_args(tmp_path, gx=9))
        assert code == 1
        assert "gx" in capsys.readouterr().err

    def test_bad_delay_exit_one(self, tmp_path, capsys):
        code = cli(tmp_path, *base_args(tmp_path, delay="sometimes"))
        assert code == 1
        assert "delay" in capsys.readouterr().err

    def test_replay_traces_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = cli(
                tmp_path,
                *base_args(
                    tmp_path, mode="async", delay="uniform:0:2", seed=5, out=out
                ),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSweep:
    def test_block_grid_axis(self, tmp_path):
        config = ExperimentConfig.from_mapping(
            {
                "nx": "4", "ny": "4", "nz": "4", "tol": "1e-6",
                "out": str(tmp_path / "s.csv"),
            }
        )
        results = sweep(config, "block_grid", "1,1,1;2,1,1")
        assert [tag for tag, _ in results] == ["1x1x1", "2x1x1"]
        assert (tmp_path / "s_block_grid_1x1x1.csv").exists()
        assert (tmp_path / "s_block_grid_2x1x1.csv").exists()
        assert all(s.converged for _, s in results)
        table = format_sweep("block_grid", results)
        assert "1x1x1" in table and "outer" in table

    def test_mode_axis_shares_seed(self, tmp_path):
        config = ExperimentConfig.from_mapping(
            {
                "nx": "4", "ny": "4", "nz": "4", "gx": "2", "seed": "3",
                "delay": "uniform:0:1", "tol": "1e-6", "out": str(tmp_path / "m.csv"),
            }
        )
        results = dict(sweep(config, "mode", "sync,async"))
        assert results["sync"].converged and results["async"].converged
        assert results["async"].outer_iterations >= results["sync"].outer_iterations

    def test_inner_max_its_axis(self, tmp_path):
        config = ExperimentConfig.from_mapping(
            {
                "nx": "4", "ny": "4", "nz": "4", "gx": "2", "tol": "1e-6",
                "out": str(tmp_path / "i.csv"),
            }
        )
        results = dict(sweep(config, "inner_max_its", "2,8"))
        assert list(results) == ["2", "8"]
        assert (tmp_path / "i_inner_max_its_2.csv").exists()
        assert (tmp_path / "i_inner_max_its_8.csv").exists()
        two = results["2"]
        # two blocks, at most two GMRES steps each per outer iteration
        assert two.converged and two.total_inner_iterations <= 4 * two.outer_iterations
        assert results["8"].converged
        assert results["8"].outer_iterations < two.outer_iterations

    @pytest.mark.parametrize(
        "axis,values,message",
        [
            ("mode", "sync,magic", "values: unknown mode 'magic'"),
            ("block_grid", "1,1,1;2,1", "values: block grid '2,1' is not gx,gy,gz"),
            ("overlap", "0,one", "values: invalid integer 'one'"),
        ],
    )
    def test_bad_value_fails_before_any_run(self, tmp_path, axis, values, message):
        config = ExperimentConfig.from_mapping(
            {"nx": "4", "ny": "4", "nz": "4", "out": str(tmp_path / "v.csv")}
        )
        with pytest.raises(ConfigurationError, match=message):
            sweep(config, axis, values)
        assert list(tmp_path.iterdir()) == []

    def test_bad_axis(self, tmp_path):
        config = ExperimentConfig.from_mapping({"out": str(tmp_path / "x.csv")})
        with pytest.raises(ConfigurationError, match="axis"):
            sweep(config, "color", "1,2")

    def test_sweep_cli_with_summary(self, tmp_path):
        summary_out = tmp_path / "summary.csv"
        code = cli(
            tmp_path, "sweep", "--nx", 4, "--ny", 4, "--nz", 4,
            "--tol", "1e-6", "--out", tmp_path / "sw.csv",
            "--axis", "overlap", "--values", "0,1", "--gx", "2",
            "--summary-out", summary_out,
        )
        assert code == 0
        lines = summary_out.read_text().splitlines()
        assert lines[0].startswith("overlap,")
        assert len(lines) == 3


def write_trace(path, iterations, residual=1e-7):
    rows = [TRACE_HEADER]
    for k in range(iterations):
        rows.append(f"{k},{float(k)},{residual},,10,0")
    path.write_text("\n".join(rows) + "\n")


class TestCompare:
    def test_identical_traces_ratio_one(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(a, 100)
        write_trace(b, 100)
        rows = compare([str(a), str(b)])
        assert all(r["iteration_ratio"] == 1.0 for r in rows)
        assert "iter_ratio" in format_compare(rows)

    def test_iteration_ratio(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(a, 100)
        write_trace(b, 150)
        rows = compare([str(a), str(b)])
        assert rows[1]["iteration_ratio"] == pytest.approx(1.5)

    def test_schema_mismatch_names_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("iteration,residual\n0,1\n")
        good = tmp_path / "good.csv"
        write_trace(good, 10)
        with pytest.raises(ValueError, match="bad.csv"):
            compare([str(good), str(bad)])

    def test_compare_cli(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(a, 10)
        write_trace(b, 20)
        report = tmp_path / "cmp.csv"
        code = cli(tmp_path, "compare", a, b, "--out", report)
        assert code == 0
        assert report.read_text().splitlines()[0].startswith("trace,")
        code = cli(tmp_path, "compare", a, tmp_path / "missing.csv")
        assert code == 1
