"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import COMMAND_TABLE, FLAGS, build_parser, main


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["fig1b"])
        assert args.experiment == "fig1b"
        assert args.cycles == 2

    def test_cycles_option(self):
        args = build_parser().parse_args(["fig2", "--cycles", "5"])
        assert args.cycles == 5

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])


class TestCommands:
    def test_fig1b_prints_breakdown(self, capsys):
        assert main(["fig1b"]) == 0
        out = capsys.readouterr().out
        assert "DRIPS power breakdown" in out
        assert "S/R SRAMs" in out

    def test_calibration_prints_sizing(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "fractional bits f" in out
        assert "21" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Skylake" in out

    def test_latency(self, capsys):
        assert main(["latency"]) == 0
        out = capsys.readouterr().out
        assert "save" in out and "us" in out

    def test_fig2_with_one_cycle(self, capsys):
        assert main(["fig2", "--cycles", "1"]) == 0
        out = capsys.readouterr().out
        assert "DRIPS residency" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "S/R SRAM power" in out
        assert "idle interval" in out

    def test_temperature(self, capsys):
        assert main(["temperature"]) == 0
        out = capsys.readouterr().out
        assert "30 C" in out
        assert "DRIPS power" in out


class TestExamplesCompile:
    def test_every_example_compiles(self):
        """Examples must at least be syntactically valid and importable
        as sources (running them takes minutes; the APIs they use are
        covered by the unit suite)."""
        import pathlib
        import py_compile

        examples_dir = pathlib.Path(__file__).resolve().parent.parent / "examples"
        examples = sorted(examples_dir.glob("*.py"))
        assert len(examples) >= 8
        for path in examples:
            py_compile.compile(str(path), doraise=True)


class TestTraceCommand:
    def test_trace_parses_with_optional_target(self):
        args = build_parser().parse_args(["trace"])
        assert args.experiment == "trace"
        assert args.target is None
        args = build_parser().parse_args(["trace", "odrips", "--out", "t.json"])
        assert args.target == "odrips"
        assert args.out == "t.json"

    def test_unknown_target_exits_2(self, capsys):
        assert main(["trace", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown trace target" in err
        assert "odrips" in err  # the error lists the valid targets

    def test_trace_fig2_writes_perfetto_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        code = main([
            "trace", "fig2", "--cycles", "1",
            "--out", str(out), "--jsonl", str(jsonl),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["traceEvents"]
        assert any(e["ph"] == "X" for e in document["traceEvents"])
        lines = jsonl.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
        stdout = capsys.readouterr().out
        assert "Energy ledger" in stdout
        assert "Perfetto" in stdout


class TestObservabilityFlags:
    def test_trace_flag_prints_span_digest_and_uninstalls(self, capsys):
        from repro.obs.session import Observation, current

        assert main(["fig2", "--cycles", "1", "--trace", "--cache"]) == 0
        out = capsys.readouterr().out
        assert "Spans" in out
        assert "entry:llc-flush" in out
        assert "cache: 0 hit(s), 1 miss(es)" in out
        assert current() == Observation()  # main() must detach every sink

    def test_metrics_flag_prints_counters_only(self, capsys):
        assert main(["fig2", "--cycles", "1", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Counters" in out
        assert "kernel.events:" in out
        assert "Spans" not in out


class TestPerCommandFlags:
    @pytest.mark.parametrize("argv", [
        ["lint", "--budgets"],
        ["fig2", "--perturb", "dram-self-refresh=2"],
        ["report", "--max-states", "3"],
        ["check", "--html", "x"],
        ["trace", "--break-even"],
    ])
    def test_wrong_command_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMAND_TABLE))
    def test_help_lists_only_the_commands_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
        _handler, _summary, arguments = COMMAND_TABLE[command]
        assert listed == {a for a in arguments if a.startswith("--")} | {"--help"}

    def test_every_argument_is_defined_once(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if a.dest == "experiment"]
        names = {"experiment"}
        for sub in commands.choices.values():
            names.update(
                action.option_strings[-1] if action.option_strings else action.dest
                for action in sub._actions
                if action.dest != "help"
            )
        assert names == {"experiment", *FLAGS}
        assert len(names) == 33

    def test_usage_errors_exit_2_without_a_traceback(self, capsys):
        assert main(["check", "--max-states", "0"]) == 2
        assert "--max-states must be a positive integer" in capsys.readouterr().err
