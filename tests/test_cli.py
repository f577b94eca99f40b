"""CLI tests: config parsing, exit codes, file outputs, determinism."""

import dataclasses

import pytest

from elid_urllc import cli
from elid_urllc.allocators import symbol_sharing
from elid_urllc.channel_model import SystemConfig
from elid_urllc.cli import build_parser, main
from elid_urllc.exceptions import ConfigError
from elid_urllc.experiments import SweepSpec, cell_seed, run_sweep


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def _file_config(path):
    return cli._load_config(build_parser().parse_args(["solve", "--config", str(path)]))


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert _file_config(path) == SystemConfig()

    def test_override_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# a comment\n"
            "symbol_budget=200\n"
            "\n"
            "energy_budget = 2.5   # trailing comment\n"
            "common_power=none\n"
        )
        config = _file_config(path)
        assert config.symbol_budget == 200
        assert config.energy_budget == 2.5
        assert config.common_power is None

    def test_out_of_range_probability(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("target_eps=1.5\n")
        with pytest.raises(ConfigError, match="target_eps"):
            _file_config(path)

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("symbol_budget=200\nsymbol_budget=abc\n")
        with pytest.raises(ConfigError, match=r":2:"):
            _file_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("blocklength=200\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            _file_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("payload_bits=160\npayload_bits=32\n")
        with pytest.raises(ConfigError, match="duplicate"):
            _file_config(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError, match=r":1:"):
            _file_config(path)


def _set_config(*items):
    argv = ["solve"]
    for item in items:
        argv += ["--set", item]
    return cli._load_config(build_parser().parse_args(argv))


class TestConfigKeys:
    """Each key parses as its SystemConfig annotation says."""

    def test_every_default_round_trips(self):
        items = [f"{f.name}={f.default}" for f in dataclasses.fields(SystemConfig)]
        assert _set_config(*items) == SystemConfig()

    def test_none_only_for_the_optional_key(self):
        for field in dataclasses.fields(SystemConfig):
            if field.name == "common_power":
                assert _set_config("common_power=none").common_power is None
                continue
            with pytest.raises(ConfigError, match=f"could not parse {field.name}='none'"):
                _set_config(f"{field.name}=none")

    def test_messages_keep_their_text(self):
        with pytest.raises(ConfigError) as unknown:
            _set_config("bogus=1")
        assert str(unknown.value) == "--set 'bogus=1': unknown config key 'bogus'"
        with pytest.raises(ConfigError) as unparsed:
            _set_config("payload_bits=1.5")
        assert str(unparsed.value) == (
            "--set 'payload_bits=1.5': could not parse payload_bits='1.5'"
        )


class TestExitCodes:
    def test_solve_success(self, tmp_path):
        out = tmp_path / "r.txt"
        assert main(["solve", "--n", "1", "--seed", "5", "--out", str(out)]) == 0
        assert out.exists()

    def test_infeasible_is_two(self, tmp_path, capsys):
        code = main(
            [
                "solve",
                "--n",
                "2",
                "--seed",
                "7",
                "--solver",
                "joint_minmax",
                "--set",
                "energy_budget=1e-4",
                "--out",
                str(tmp_path / "r.txt"),
            ]
        )
        assert code == 2
        assert "infeasible" in capsys.readouterr().err

    def test_fixed_m_budget_below_vehicle_count_is_two(self, tmp_path, capsys):
        code = main(
            ["solve", "--n", "3", "--solver", "power_minmax_fixed_m",
             "--set", "symbol_budget=2", "--out", str(tmp_path / "r.txt")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "infeasible: symbol budget 2 cannot cover 3 vehicles" in err

    def test_unreachable_target_is_two_for_both_energy_solvers(self, tmp_path, capsys):
        for solver in ("symbol_sharing", "equal_allocation"):
            code = main(
                ["solve", "--solver", solver, "--set", "payload_bits=300000",
                 "--out", str(tmp_path / "r.txt")]
            )
            assert code == 2
            assert "infeasible: no finite-energy allocation" in capsys.readouterr().err

    def test_usage_errors_are_one(self, capsys):
        assert main(["solve", "--no-such-flag"]) == 1
        assert main(["figure", "9"]) == 1
        assert main(["not-a-command"]) == 1
        assert main([]) == 1
        assert main(["solve", "--seed", "-1"]) == 1
        assert main(["solve", "--seed", str(2**64)]) == 1
        capsys.readouterr()

    def test_config_errors_are_one(self, tmp_path, capsys):
        assert main(["solve", "--set", "bogus=1", "--out", str(tmp_path / "r")]) == 1
        # a retired key is rejected, not silently ignored
        assert main(["solve", "--set", "alpha=2", "--out", str(tmp_path / "r")]) == 1
        assert (
            main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 1
        )
        assert "error" in capsys.readouterr().err

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestSolveCommand:
    def test_single_vehicle_takes_whole_budget(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        code = main(
            ["solve", "--n", "1", "--seed", "3", "--set", "symbol_budget=128",
             "--out", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert report["blocklengths"] == "128"
        assert report["converged"] == "true"
        capsys.readouterr()

    def test_report_mirrors_solver_fields(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        main(["solve", "--n", "3", "--seed", "42", "--out", str(out)])
        report = read_report(out)
        for key in (
            "solver_name",
            "seed",
            "n_vehicles",
            "converged",
            "iterations",
            "total_energy",
            "worst_margin_g",
            "worst_margin_eps_log10",
            "blocklengths",
            "powers",
            "margins_g",
            "clamped",
        ):
            assert key in report
        assert report["n_vehicles"] == "3"
        blocklengths = [int(m) for m in report["blocklengths"].split(",")]
        assert sum(blocklengths) <= 200
        assert len(report["powers"].split(",")) == 3
        capsys.readouterr()

    def test_zero_power_vehicles_are_flagged(self, tmp_path, capsys):
        # one payload bit at eps 0.6 costs no energy at these blocklengths
        out = tmp_path / "r.txt"
        for solver in ("symbol_sharing", "equal_allocation"):
            code = main(
                ["solve", "--n", "3", "--solver", solver, "--set", "payload_bits=1",
                 "--set", "target_eps=0.6", "--out", str(out)]
            )
            assert code == 0
            assert capsys.readouterr().out.count("[zero-power]") == 3
            assert read_report(out)["clamped"] == "0,1,2"

    def test_precedence_file_then_set(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("symbol_budget=100\nenergy_budget=2.5\n")
        out = tmp_path / "r.txt"
        main(
            ["solve", "--config", str(cfg), "--set", "symbol_budget=64",
             "--n", "1", "--seed", "0", "--out", str(out)]
        )
        report = read_report(out)
        assert report["blocklengths"] == "64"
        capsys.readouterr()

    def test_matches_sweep_cell(self, tmp_path, capsys):
        # the fig7 cell (n=3, seed index 0, M=1000) must reproduce through
        # the CLI with the published cell seed
        seed = cell_seed("fig7", 3, 0)
        out = tmp_path / "r.txt"
        code = main(
            ["solve", "--n", "3", "--seed", str(seed), "--solver",
             "symbol_sharing", "--set", "symbol_budget=1000", "--out", str(out)]
        )
        assert code == 0
        report = read_report(out)
        spec = SweepSpec(
            name="fig7",
            base_config=SystemConfig(),
            swept_variable="n_vehicles",
            values=(3,),
            solver="symbol_sharing",
            outputs=("total_energy[symbol_budget=1000]",),
            num_seeds=1,
        )
        (row,) = run_sweep(spec)
        assert float(report["total_energy"]) == row.metric_value
        capsys.readouterr()


class TestFigureCommand:
    def test_runs_twice_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["figure", "7", "--seeds", "2", "--out", str(a)]) == 0
        assert main(["figure", "7", "--seeds", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["figure", "8", "--seeds", "1"]) == 0
        content = (tmp_path / "fig8.csv").read_text()
        assert content.startswith("sweep,swept_value,seed,metric,value,units\n")
        assert "energy_saved_pct" in content
        capsys.readouterr()

    def test_config_flags_rejected(self, tmp_path, capsys):
        # a preset fixes its own config, so config flags are refused
        # instead of silently ignored
        cfg = tmp_path / "c.cfg"
        cfg.write_text("payload_bits=32\n")
        out = tmp_path / "f.csv"
        for flags in (["--set", "payload_bits=32"], ["--config", str(cfg)]):
            assert main(["figure", "8", "--seeds", "1", "--out", str(out), *flags]) == 1
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_custom_sweep(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(
            ["sweep", "--name", "mini", "--values", "1,2", "--seeds", "2",
             "--metrics", "total_energy,max_blocklength", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep,swept_value,seed,metric,value,units"
        assert len(lines) == 1 + 2 * 2 * 2
        assert all(line.startswith("mini,") for line in lines[1:])
        capsys.readouterr()

    def test_fixed_m_budget_below_vehicle_count_is_infeasible(self, tmp_path, capsys):
        # the equal split cannot give five vehicles a symbol each at
        # M = 3: those rows are infeasible, as for every other solver
        out = tmp_path / "s.csv"
        code = main(
            ["sweep", "--swept", "symbol_budget", "--values", "3,200", "--n", "5",
             "--solver", "power_minmax_fixed_m", "--metrics", "total_energy",
             "--seeds", "3", "--out", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 6
        assert all(row[4] == "infeasible" for row in rows if row[1] == "3")
        assert all(row[4] != "infeasible" for row in rows if row[1] == "200")
        capsys.readouterr()

    def test_unreachable_target_rows_are_infeasible(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(
            ["sweep", "--solver", "equal_allocation", "--values", "1,2",
             "--seeds", "2", "--set", "payload_bits=300000", "--out", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 4
        assert all(row[4] == "infeasible" for row in rows)
        capsys.readouterr()

    def test_energy_saved_takes_no_solver_modifier(self, tmp_path, capsys):
        # energy_saved_pct always compares symbol_sharing with the equal
        # split; a solver modifier on it would be silently ignored
        out = tmp_path / "s.csv"
        code = main(
            ["sweep", "--metrics", "energy_saved_pct[solver=joint_minmax]",
             "--values", "2", "--seeds", "1", "--out", str(out)]
        )
        assert code == 1
        assert "energy_saved_pct" in capsys.readouterr().err
        assert not out.exists()
        code = main(
            ["sweep", "--metrics", "energy_saved_pct[symbol_budget=1000]",
             "--values", "2", "--seeds", "1", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()

    def test_vehicle_count_flag_rejected_when_sweeping_vehicle_counts(
        self, tmp_path, capsys
    ):
        out = tmp_path / "s.csv"
        code = main(
            ["sweep", "--swept", "n_vehicles", "--n", "3", "--values", "2",
             "--seeds", "1", "--out", str(out)]
        )
        assert code == 1
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_sweep_defaults_to_five_vehicles(self, tmp_path, capsys):
        default, explicit = tmp_path / "d.csv", tmp_path / "e.csv"
        args = ["sweep", "--swept", "symbol_budget", "--values", "200",
                "--seeds", "2", "--metrics", "max_blocklength"]
        assert main(args + ["--out", str(default)]) == 0
        assert main(args + ["--n", "5", "--out", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()
        capsys.readouterr()

    def test_unknown_metric_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "--metrics", "nonsense", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 1
        capsys.readouterr()


class TestOracleCheckCommand:
    def test_small_run_passes(self, capsys):
        assert main(["oracle-check", "--instances", "6", "--n-values", "1,2",
                     "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "energy oracle: 3/3 passed" in out
        assert "minmax oracle: 3/3 passed" in out

    def test_defaults_pass(self, tmp_path, capsys):
        assert main(["oracle-check", "--out", str(tmp_path / "dumps")]) == 0
        out = capsys.readouterr().out
        assert "energy oracle: 100/100 passed" in out
        assert "minmax oracle: 100/100 passed" in out

    def test_default_instance_count(self):
        args = build_parser().parse_args(["oracle-check"])
        assert args.instances == 200
        assert args.n_values == (1, 2, 3)

    def test_trivial_n_range(self, capsys):
        assert main(["oracle-check", "--instances", "4", "--n-values", "1",
                     "--seed", "2"]) == 0
        capsys.readouterr()

    def test_force_fail_dumps_and_exits_one(self, tmp_path, monkeypatch, capsys):
        def costlier_sharing(scenario):
            report = symbol_sharing(scenario)
            return dataclasses.replace(report, total_energy=report.total_energy * 1.01)

        monkeypatch.setattr(cli, "symbol_sharing", costlier_sharing)
        dump_dir = tmp_path / "dumps"
        code = main(
            ["oracle-check", "--instances", "2", "--n-values", "1",
             "--out", str(dump_dir)]
        )
        assert code == 1
        dump = (dump_dir / "failure_0.txt").read_text()
        assert "suite=energy" in dump
        capsys.readouterr()

    def test_config_flags_rejected(self, tmp_path, capsys):
        # the self-check runs at its own built-in configs, so config
        # flags are refused instead of silently ignored
        cfg = tmp_path / "c.cfg"
        cfg.write_text("symbol_budget=5000\n")
        dump_dir = tmp_path / "dumps"
        for flags in (["--set", "symbol_budget=5000"], ["--config", str(cfg)]):
            code = main(
                ["oracle-check", "--instances", "2", "--n-values", "1",
                 "--out", str(dump_dir), *flags]
            )
            assert code == 1
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_rejects_oversized_n(self, capsys):
        assert main(["oracle-check", "--n-values", "4", "--instances", "2"]) == 1
        capsys.readouterr()

    def test_rejects_fewer_than_one_instance(self, capsys):
        for count in ("-5", "0"):
            assert main(["oracle-check", "--instances", count]) == 1
            captured = capsys.readouterr()
            assert "--instances must be >= 1" in captured.err
            assert "passed" not in captured.out
