"""CLI tests: config parsing, exit codes, file outputs, determinism."""

import dataclasses
import hashlib

import pytest

from elid_urllc import cli, experiments, oracles
from elid_urllc.allocators import symbol_sharing
from elid_urllc.channel_model import SystemConfig
from elid_urllc.cli import build_parser, main
from elid_urllc.exceptions import ConfigError, InfeasibleError
from elid_urllc.experiments import SweepSpec, cell_seed, run_sweep
from elid_urllc.fbl_core import ReliabilityMargin


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

    def test_range_error_names_the_file_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("payload_bits=160\ntarget_eps = 1.5\n")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert (
            f"error: {path}:2: target_eps must be in (0, 1), got 1.5"
            in capsys.readouterr().err
        )

    def test_range_error_names_the_set_item(self, tmp_path, capsys):
        code = main(["solve", "--set", "target_eps=1.5", "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert (
            "error: --set 'target_eps=1.5': target_eps must be in (0, 1), got 1.5"
            in capsys.readouterr().err
        )

    def test_set_overrides_a_bad_file_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("target_eps = 1.5\n")
        out = tmp_path / "r.txt"
        argv = ["solve", "--config", str(path), "--set", "target_eps=1e-6", "--out", str(out)]
        assert main(argv) == 0
        assert out.exists()


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
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["solve", "oracle-check"])
    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["-1", "2**64"])
    def test_seed_out_of_range_is_one_with_the_seed_rule(
        self, command, seed, tmp_path, capsys
    ):
        # both commands leave the seed to channel_model's one seed rule
        assert main([command, "--seed", str(seed), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"seed must be an integer in [0, 2^64), got {seed}" in err

    def test_config_errors_are_one(self, tmp_path, capsys):
        assert main(["solve", "--set", "bogus=1", "--out", str(tmp_path / "r")]) == 1
        # a retired key is rejected, not silently ignored
        assert main(["solve", "--set", "alpha=2", "--out", str(tmp_path / "r")]) == 1
        assert (
            main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 1
        )
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, item, message",
        [
            ("solve", "noise_psd_dbm_hz=-4000", "noise_psd_dbm_hz and bandwidth must give"),
            ("solve", "rician_k_db=4000", "rician_k_db must give a finite K factor"),
            ("sweep", "noise_psd_dbm_hz=4000", "noise_psd_dbm_hz and bandwidth must give"),
        ],
    )
    def test_configs_sampling_cannot_use_are_one(
        self, command, item, message, tmp_path, capsys
    ):
        # rejected with the config, not by a ZeroDivisionError or
        # OverflowError from the first scenario drawn
        argv = [command, "--set", item, "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--values", "1,2", "--seeds", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: --set {item!r}: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--set", "symbol_budget=1000000000000000000"],
            [
                "sweep", "--seeds", "1", "--values", "1",
                "--metrics", "total_energy[symbol_budget=1000000000000000000]",
            ],
        ],
        ids=["solve", "sweep"],
    )
    def test_unallocatable_symbol_budget_is_one(self, argv, tmp_path, capsys):
        # 10^18 symbols need exabytes of tables on any machine; the
        # allocation fails, and the command reports it like its other errors
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

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

    def test_energy_saved_when_both_splits_are_free(self, tmp_path, capsys):
        # at eps = 0.99 a one-bit packet needs no power on either split,
        # so each row saves 0% of 0 J
        out = tmp_path / "s.csv"
        code = main(
            ["sweep", "--metrics", "energy_saved_pct", "--set", "target_eps=0.99",
             "--set", "payload_bits=1", "--seeds", "2", "--values", "1,2",
             "--out", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[4] for row in rows] == ["0"] * 4
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

    @pytest.mark.parametrize(
        "flags",
        [["--values", "3,3"], ["--metrics", "total_energy,total_energy"]],
    )
    def test_repeated_value_or_metric_is_usage_error(self, flags, tmp_path, capsys):
        # a repeat would write every row twice and count each cell twice
        out = tmp_path / "s.csv"
        code = main(["sweep", "--seeds", "2", "--out", str(out)] + flags)
        assert code == 1
        assert "distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_metric_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "--metrics", "nonsense", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 1
        capsys.readouterr()


# sha256 of `oracle-check` stdout at its defaults, and of stdout plus the
# dump files when the named suites are forced to fail
DEFAULT_STDOUT_SHA256 = "308376259680ad930fa289d44859e7a0a729a6f99f26260fea9adb1b6547e80d"
FORCED_FAILURE_SHA256 = {
    ("energy",): "60dfa38b15d779c92c0e10503f18466dfa13aa700aa73e20fc7e96d0d32892d6",
    ("minmax",): "2d5a44b4050c7a64de0edb108e61450b460fc16b1d15a8279a8d07ab61d52e96",
    ("energy", "minmax"): "b1dc99ab72f8fd9dd8fe245f801294a121b3626f8d338c90b10dff31372fdcda",
}


def _costlier_sharing(scenario):
    # symbol_sharing's answer, reported 1% costlier: fails the energy suite
    report = symbol_sharing(scenario)
    return dataclasses.replace(report, total_energy=report.total_energy * 1.01)


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
        assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_STDOUT_SHA256

    def test_default_instance_count(self):
        args = build_parser().parse_args(["oracle-check"])
        assert args.instances == 200
        assert args.n_values == (1, 2, 3)

    def test_trivial_n_range(self, capsys):
        assert main(["oracle-check", "--instances", "4", "--n-values", "1",
                     "--seed", "2"]) == 0
        capsys.readouterr()

    def test_force_fail_dumps_and_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "symbol_sharing", _costlier_sharing)
        dump_dir = tmp_path / "dumps"
        code = main(
            ["oracle-check", "--instances", "2", "--n-values", "1",
             "--out", str(dump_dir)]
        )
        assert code == 1
        dump = (dump_dir / "failure_0.txt").read_text()
        assert "suite=energy" in dump
        capsys.readouterr()

    def test_one_side_infeasible_fails_and_dumps_both(self, tmp_path, monkeypatch, capsys):
        # a min-max instance where only the oracle raises is a failure,
        # and its dump holds the solver's margin beside the oracle's error
        def infeasible_oracle(scenario):
            raise InfeasibleError("forced")

        monkeypatch.setattr(oracles, "brute_force_minmax", infeasible_oracle)
        dump_dir = tmp_path / "dumps"
        code = main(
            ["oracle-check", "--instances", "2", "--n-values", "1", "--out", str(dump_dir)]
        )
        assert code == 1
        assert "minmax oracle: 0/1 passed" in capsys.readouterr().out
        fields = read_report(dump_dir / "failure_0.txt")
        assert fields["suite"] == "minmax"
        assert float(fields["local_margin"]) >= 0.0
        assert fields["oracle_margin"] == "InfeasibleError('forced')"
        assert fields["margin_gap"] == "None"

    def test_both_sides_infeasible_agree(self, tmp_path, monkeypatch, capsys):
        def infeasible(*args):
            raise InfeasibleError("forced")

        monkeypatch.setattr(oracles, "brute_force_minmax", infeasible)
        monkeypatch.setattr(experiments, "solve_joint_minmax", infeasible)
        dump_dir = tmp_path / "dumps"
        code = main(
            ["oracle-check", "--instances", "4", "--n-values", "1,2", "--out", str(dump_dir)]
        )
        assert code == 0
        assert "minmax oracle: 2/2 passed" in capsys.readouterr().out
        assert not dump_dir.exists()

    @pytest.mark.parametrize("broken", sorted(FORCED_FAILURE_SHA256), ids="+".join)
    def test_forced_failures_match_the_pinned_dumps(
        self, broken, tmp_path, monkeypatch, capsys
    ):
        # each suite's draws, checks and failure records, in order, as
        # stdout plus every dump file: the drill loop's whole contract
        if "energy" in broken:
            monkeypatch.setattr(experiments, "symbol_sharing", _costlier_sharing)
        if "minmax" in broken:
            real_oracle = oracles.brute_force_minmax

            def higher_oracle(scenario):
                report = real_oracle(scenario)
                margins = tuple(
                    ReliabilityMargin(m.g + 0.5, m.eps_log10) for m in report.margins
                )
                return dataclasses.replace(report, margins=margins)

            monkeypatch.setattr(oracles, "brute_force_minmax", higher_oracle)
        dump_dir = tmp_path / "dumps"
        code = main(["oracle-check", "--instances", "20", "--seed", "29",
                     "--out", str(dump_dir)])
        assert code == 1
        digest = hashlib.sha256(capsys.readouterr().out.encode())
        for path in sorted(dump_dir.iterdir()):
            digest.update(f"\n{path.name}\n".encode() + path.read_bytes())
        assert digest.hexdigest() == FORCED_FAILURE_SHA256[broken]

    def test_each_run_leaves_only_its_own_dumps(self, tmp_path, monkeypatch, capsys):
        dump_dir = tmp_path / "dumps"
        argv = ["oracle-check", "--instances", "20", "--seed", "29", "--out", str(dump_dir)]
        # a clean run makes no dump directory
        assert main(argv) == 0
        assert not dump_dir.exists()
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "symbol_sharing", _costlier_sharing)
            assert main(argv) == 1
        assert sorted(p.name for p in dump_dir.iterdir()) == [
            f"failure_{k}.txt" for k in range(10)
        ]
        # other files in the directory are not the command's to delete
        (dump_dir / "notes.txt").write_text("kept\n")
        (dump_dir / "failure_x.txt").write_text("kept\n")
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("0 failure(s)\n")
        assert sorted(p.name for p in dump_dir.iterdir()) == ["failure_x.txt", "notes.txt"]

        # ten failures, then a run with two: only its two remain
        small = ["oracle-check", "--instances", "4", "--n-values", "1", "--seed", "3",
                 "--out", str(dump_dir)]
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "symbol_sharing", _costlier_sharing)
            assert main(argv) == 1
            assert main(small) == 1
        assert sorted(p.name for p in dump_dir.iterdir()) == [
            "failure_0.txt", "failure_1.txt", "failure_x.txt", "notes.txt"
        ]
        assert "suite=energy" in (dump_dir / "failure_1.txt").read_text()
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
        # the vehicle counts a scenario takes, 1..max_vehicles = 10
        for n in ("11", "0"):
            assert main(["oracle-check", "--n-values", n, "--instances", "2"]) == 1
            assert "--n-values entries must be in 1..10" in capsys.readouterr().err

    def test_rejects_fewer_than_one_instance(self, capsys):
        for count in ("-5", "0"):
            assert main(["oracle-check", "--instances", count]) == 1
            captured = capsys.readouterr()
            assert "--instances must be >= 1" in captured.err
            assert "passed" not in captured.out
