"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_evaluate_model_choices(self):
        args = build_parser().parse_args(["evaluate", "--model",
                                          "charstar"])
        assert args.model == "charstar"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--model", "nope"])


class TestCommands:
    def test_budget(self, capsys):
        assert main(["budget"]) == 0
        out = capsys.readouterr().out
        assert "156" in out and "1562" in out

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "counters: 936" in out
        assert "Store Queue Occupancy" in out

    def test_counters(self, capsys):
        assert main(["counters", "-r", "4", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 4

    def test_residency(self, capsys):
        assert main(["residency", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "AVERAGE" in out
        assert "654.roms_s" in out

    def test_demo(self, capsys):
        assert main(["demo", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "ppw_gain" in out


class TestConfigurationErrors:
    """A bad knob value is a one-line ``repro: error`` and exit 2."""

    @pytest.mark.parametrize("env,argv,names", [
        ({"REPRO_EXEC_RETRIES": "abc"}, ["evaluate"], "REPRO_EXEC_RETRIES"),
        ({}, ["evaluate", "--exec-workers", "0"], "--exec-workers"),
        ({}, ["serve", "--serve-batch-timeout", "0"],
         "--serve-batch-timeout"),
        ({"REPRO_SCALE": "lots"}, ["evaluate"], "REPRO_SCALE"),
    ])
    def test_bad_value_exits_2_with_one_line(self, env, argv, names):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        child_env = {k: v for k, v in os.environ.items()
                     if not k.startswith("REPRO_")}
        child_env.update(env, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                              env=child_env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("repro: error: ")
        assert names in lines[0]
        assert "Traceback" not in proc.stderr
