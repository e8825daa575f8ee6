"""Tests for machine/microcontroller/SLA configuration and the typed
:class:`~repro.config.ExecConfig` runtime-knob API."""

import argparse
import pathlib
import re

import pytest

from repro.cli import COMMON_GROUPS, SERVE_GROUPS, build_parser
from repro.config import (
    DEFAULT_SLA,
    EXEC_ENV_VARS,
    KNOB,
    KNOBS,
    ExecConfig,
    MachineConfig,
    MicrocontrollerConfig,
    SLAConfig,
    SUPPORTED_GRANULARITIES,
    active_exec_config,
    render_knob_table,
)
from repro.errors import ConfigurationError


class TestMachineConfig:
    def test_width_high_perf_is_both_clusters(self):
        machine = MachineConfig()
        assert machine.width_high_perf == 8
        assert machine.width_low_power == 4

    def test_peak_mips_matches_table3_header(self):
        # Table 3: CPU: 2.0 GHz, 8-wide, 16,000 MIPS.
        assert MachineConfig().peak_mips == pytest.approx(16_000.0)

    def test_machine_is_frozen(self):
        with pytest.raises(Exception):
            MachineConfig().rob_entries = 1


class TestMicrocontroller:
    def test_mips_matches_paper(self):
        # 500 MHz, 1-wide => 500 MIPS.
        assert MicrocontrollerConfig().mips == pytest.approx(500.0)

    @pytest.mark.parametrize("granularity,budget", [
        (10_000, 156), (20_000, 312), (30_000, 468),
        (40_000, 625), (50_000, 781), (60_000, 937), (100_000, 1562),
    ])
    def test_ops_budget_matches_table3(self, granularity, budget):
        uc = MicrocontrollerConfig()
        assert uc.ops_budget(granularity) == budget

    def test_supported_granularities_cover_10k_to_100k(self):
        assert SUPPORTED_GRANULARITIES[0] == 10_000
        assert SUPPORTED_GRANULARITIES[-1] == 100_000
        assert len(SUPPORTED_GRANULARITIES) == 10


class TestSLAConfig:
    def test_default_sla_matches_section_3_1(self):
        assert DEFAULT_SLA.performance_floor == pytest.approx(0.90)
        assert DEFAULT_SLA.window_ms == pytest.approx(1.0)
        assert DEFAULT_SLA.guarantee == pytest.approx(0.99)

    def test_window_predictions_matches_paper_example(self):
        # 16B inst/s * 1 ms / 10k inst = 1600 predictions.
        w = DEFAULT_SLA.window_predictions(MachineConfig(), 10_000)
        assert w == 1600

    @pytest.mark.parametrize("floor", [0.0, -0.1, 1.5])
    def test_invalid_floor_rejected(self, floor):
        with pytest.raises(ValueError):
            SLAConfig(performance_floor=floor)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            SLAConfig(window_ms=0.0)


class TestEnvironmentKnobs:
    def test_default_scale_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert active_exec_config().scale == pytest.approx(1.0)

    def test_scale_env_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert active_exec_config().scale == pytest.approx(2.5)

    def test_negative_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            active_exec_config().scale

    def test_garbage_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "lots")
        with pytest.raises(ValueError):
            active_exec_config().scale

    def test_seed_env_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "123")
        assert active_exec_config().seed == 123


def _clear_exec_env(monkeypatch):
    for var in EXEC_ENV_VARS:
        monkeypatch.delenv(var, raising=False)


#: One non-default raw value per knob row and the value it parses to,
#: from the environment and (for rows with a flag) from the flag.
KNOB_SAMPLES = {
    "backend": ("auto", "auto"),
    "workers": ("3", 3),
    "arena": ("0", False),
    "shmres": ("0", False),
    "shard": ("5000", 5000),
    "chunk": ("16", 16),
    "retries": ("5", 5),
    "timeout": ("2.5", 2.5),
    "simcache_dir": ("/tmp/sc", "/tmp/sc"),
    "simcache_verify": ("0", False),
    "fault_spec": ("seed=1,crash=0.1", "seed=1,crash=0.1"),
    "interval_lru": ("64", 64),
    "trace": ("out.json", "out.json"),
    "trace_sample": ("4", 4),
    "serve_queue_bound": ("128", 128),
    "serve_batch_timeout_s": ("2.5", 2.5),
    "serve_breaker_threshold": ("5", 5),
    "serve_breaker_cooldown_s": ("0.5", 0.5),
    "serve_checkpoint": ("/tmp/ck", "/tmp/ck"),
    "serve_restarts": ("0", 0),
    "online_enabled": ("1", True),
    "online_ring": ("512", 512),
    "online_sample": ("4", 4),
    "online_drift_window": ("32", 32),
    "online_drift_threshold": ("0.5", 0.5),
    "online_interval_s": ("0.25", 0.25),
    "scale": ("2.5", 2.5),
    "seed": ("123", 123),
    "results_dir": ("/tmp/results", "/tmp/results"),
}


def _flag_argv(knob, raw):
    """Command line setting ``knob``'s flag to ``raw``."""
    command = "serve" if knob.group in ("serve", "online") else "evaluate"
    if knob.cli.get("action") == "store_true":
        return [command, knob.flag]
    return [command, knob.flag, raw]


class TestExecConfig:
    def test_defaults_match_historical_behavior(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        config = ExecConfig.from_env()
        assert config == ExecConfig()
        assert config.backend == "serial"
        assert config.workers is None
        assert config.arena is True
        assert config.chunk is None
        assert config.retries == 2
        assert config.timeout is None
        assert config.simcache_verify is True
        assert config.trace is None
        assert config.shmres is True
        assert config.shard is None
        assert config.trace_sample == 8

    def test_every_knob_parses_from_env(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "auto")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        monkeypatch.setenv("REPRO_EXEC_ARENA", "0")
        monkeypatch.setenv("REPRO_EXEC_CHUNK", "16")
        monkeypatch.setenv("REPRO_EXEC_RETRIES", "5")
        monkeypatch.setenv("REPRO_EXEC_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_SIMCACHE_DIR", "/tmp/sc")
        monkeypatch.setenv("REPRO_SIMCACHE_VERIFY", "0")
        monkeypatch.setenv("REPRO_FAULT_SPEC", "seed=1,crash=0.1")
        monkeypatch.setenv("REPRO_INTERVAL_LRU", "64")
        monkeypatch.setenv("REPRO_TRACE", "out.json")
        monkeypatch.setenv("REPRO_EXEC_SHMRES", "0")
        monkeypatch.setenv("REPRO_EXEC_SHARD", "5000")
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "4")
        config = ExecConfig.from_env()
        assert config == ExecConfig(
            backend="auto", workers=3, arena=False,
            chunk=16, retries=5, timeout=2.5, simcache_dir="/tmp/sc",
            simcache_verify=False, fault_spec="seed=1,crash=0.1",
            interval_lru=64,
            trace="out.json", shmres=False, shard=5000, trace_sample=4)
        # Every row of the table, one at a time.
        assert set(KNOB_SAMPLES) == set(KNOB)
        for knob in KNOBS:
            raw, expected = KNOB_SAMPLES[knob.field]
            _clear_exec_env(monkeypatch)
            monkeypatch.setenv(knob.env, raw)
            assert getattr(ExecConfig.from_env(), knob.field) == expected

    def test_timeout_zero_means_off(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        monkeypatch.setenv("REPRO_EXEC_TIMEOUT", "0")
        assert ExecConfig.from_env().timeout is None

    def test_trace_zero_means_off(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert ExecConfig.from_env().trace is None

    def test_shard_empty_or_zero_means_unsharded(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        assert active_exec_config().shard is None
        monkeypatch.setenv("REPRO_EXEC_SHARD", "")
        assert ExecConfig.from_env().shard is None
        monkeypatch.setenv("REPRO_EXEC_SHARD", "0")
        assert ExecConfig.from_env().shard is None
        monkeypatch.setenv("REPRO_EXEC_SHARD", "250")
        assert active_exec_config().shard == 250

    def test_shard_invalid_rejected(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        monkeypatch.setenv("REPRO_EXEC_SHARD", "many")
        with pytest.raises(ValueError):
            ExecConfig.from_env()
        monkeypatch.setenv("REPRO_EXEC_SHARD", "-4")
        with pytest.raises(ValueError):
            ExecConfig.from_env()

    def test_shmres_env_parsed(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        assert active_exec_config().shmres is True
        monkeypatch.setenv("REPRO_EXEC_SHMRES", "0")
        assert active_exec_config().shmres is False

    def test_trace_sample_env_parsed(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        assert active_exec_config().trace_sample == 8
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "16")
        assert active_exec_config().trace_sample == 16

    def test_trace_sample_invalid_rejected(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0")
        with pytest.raises(ValueError):
            ExecConfig.from_env()
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "often")
        with pytest.raises(ValueError):
            ExecConfig.from_env()

    def test_serve_knobs_parse_from_env(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        config = ExecConfig.from_env()
        assert config.serve_queue_bound == 64
        assert config.serve_batch_timeout_s == 30.0
        monkeypatch.setenv("REPRO_SERVE_QUEUE_BOUND", "128")
        monkeypatch.setenv("REPRO_SERVE_BATCH_TIMEOUT", "2.5")
        config = ExecConfig.from_env()
        assert config.serve_queue_bound == 128
        assert config.serve_batch_timeout_s == 2.5

    def test_serve_knobs_invalid_rejected(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        monkeypatch.setenv("REPRO_SERVE_BATCH_TIMEOUT", "0")
        with pytest.raises(ValueError):
            ExecConfig.from_env()
        monkeypatch.delenv("REPRO_SERVE_BATCH_TIMEOUT")
        monkeypatch.setenv("REPRO_SERVE_QUEUE_BOUND", "soon")
        with pytest.raises(ValueError):
            ExecConfig.from_env()

    def test_env_round_trip(self, monkeypatch):
        """env -> config -> to_env -> from_env is the identity."""
        _clear_exec_env(monkeypatch)
        original = ExecConfig(backend="process", workers=2, arena=False,
                              chunk=7, retries=1, timeout=0.5,
                              fault_spec="seed=9,crash=0.01",
                              interval_lru=32,
                              trace="1", shmres=False, shard=3,
                              trace_sample=2, serve_queue_bound=32,
                              serve_batch_timeout_s=4.0)
        for var, value in original.to_env().items():
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert ExecConfig.from_env() == original
        # Every row: env -> from_env -> to_env keeps the parsed value,
        # and the row's flag parses to the same value.
        for knob in KNOBS:
            raw, expected = KNOB_SAMPLES[knob.field]
            _clear_exec_env(monkeypatch)
            monkeypatch.setenv(knob.env, raw)
            image = ExecConfig.from_env().to_env()
            assert knob.read(image[knob.env], knob.env) == expected
            if knob.flag is not None:
                _clear_exec_env(monkeypatch)
                args = build_parser().parse_args(_flag_argv(knob, raw))
                assert getattr(ExecConfig.from_cli(args),
                               knob.field) == expected

    def test_from_env_memo_returns_identical_object(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        first = ExecConfig.from_env()
        assert ExecConfig.from_env() is first
        monkeypatch.setenv("REPRO_EXEC_RETRIES", "4")
        changed = ExecConfig.from_env()
        assert changed is not first and changed.retries == 4
        assert ExecConfig.from_env() is changed

    def test_memo_tracks_monkeypatched_env(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        assert ExecConfig.from_env().backend == "serial"
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "thread")
        assert ExecConfig.from_env().backend == "thread"

    def test_override_scopes_without_touching_env(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        import os
        with ExecConfig(backend="thread", retries=7).override():
            assert active_exec_config().backend == "thread"
            assert active_exec_config().backend == "thread"
            assert active_exec_config().retries == 7
            assert "REPRO_EXEC_BACKEND" not in os.environ
        assert active_exec_config().backend == "serial"

    def test_overrides_nest(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        with ExecConfig(retries=5).override():
            with ExecConfig(retries=9).override():
                assert active_exec_config().retries == 9
            assert active_exec_config().retries == 5

    def test_fields_read_active_config(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        cfg = ExecConfig(simcache_dir="/tmp/x",
                         fault_spec="seed=2,crash=0.5",
                         interval_lru=17,
                         trace="t.json")
        with cfg.override():
            assert active_exec_config().simcache_dir == "/tmp/x"
            assert active_exec_config().fault_spec == "seed=2,crash=0.5"
            assert active_exec_config().interval_lru == 17
            assert active_exec_config().trace == "t.json"

    def test_invalid_backend_is_configuration_error(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            ExecConfig(backend="gpu")
        _clear_exec_env(monkeypatch)
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "gpu")
        with pytest.raises(ConfigurationError):
            ExecConfig.from_env()

    @pytest.mark.parametrize("kwargs", [
        {"trace_sample": 0},
        {"chunk": 0},
        {"retries": -1},
        {"timeout": -2.0},
        {"interval_lru": 0},
        {"serve_breaker_threshold": 0},
        {"serve_queue_bound": 0},
        {"serve_batch_timeout_s": 0.0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecConfig(**kwargs)

    def test_invalid_workers_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            ExecConfig(workers=0)

    def test_bad_values_name_their_variable_or_flag(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        monkeypatch.setenv("REPRO_EXEC_RETRIES", "abc")
        with pytest.raises(ConfigurationError,
                           match="REPRO_EXEC_RETRIES must be an int"):
            ExecConfig.from_env()
        _clear_exec_env(monkeypatch)
        args = build_parser().parse_args(["evaluate", "--exec-workers", "0"])
        with pytest.raises(ConfigurationError,
                           match="--exec-workers must be >= 1"):
            ExecConfig.from_cli(args)

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            ExecConfig().backend = "thread"

    def test_from_cli_layers_flags_over_env(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        monkeypatch.setenv("REPRO_EXEC_RETRIES", "4")
        args = argparse.Namespace(
            exec_backend="process", exec_workers=2, exec_arena=0,
            exec_chunk=None, exec_retries=None, exec_timeout=0.0,
            fault_spec=None, trace="1")
        config = ExecConfig.from_cli(args)
        assert config.backend == "process"
        assert config.workers == 2
        assert config.arena is False
        assert config.retries == 4  # env survives an un-passed flag
        assert config.timeout is None  # 0 disables
        assert config.trace == "1"

    def test_from_cli_tolerates_foreign_namespaces(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        config = ExecConfig.from_cli(argparse.Namespace(model="best_rf"))
        assert config == ExecConfig()

    def test_apply_env_round_trips(self, monkeypatch):
        _clear_exec_env(monkeypatch)
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "8")  # will be cleared
        config = ExecConfig(backend="thread", timeout=1.5)
        config.apply_env()
        assert ExecConfig.from_env() == config
        import os
        assert "REPRO_EXEC_WORKERS" not in os.environ


def _option_flags(parser):
    return {flag for action in parser._actions
            for flag in action.option_strings if flag.startswith("--")}


class TestKnobTable:
    @pytest.mark.parametrize("command,groups", [
        ("evaluate", COMMON_GROUPS), ("serve", SERVE_GROUPS)])
    def test_parsers_expose_exactly_their_groups_flags(self, command,
                                                       groups):
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        table_flags = {knob.flag for knob in KNOBS if knob.flag}
        expected = {knob.flag for knob in KNOBS
                    if knob.flag and knob.group in groups}
        assert _option_flags(sub) & table_flags == expected

    def test_readme_knob_table_is_generated(self):
        readme = (pathlib.Path(__file__).resolve().parents[1]
                  / "README.md").read_text(encoding="utf-8")
        match = re.search(r"<!-- knob-table:start -->\n(.*?)\n"
                          r"<!-- knob-table:end -->", readme, re.S)
        assert match is not None
        assert match.group(1) == render_knob_table()
        assert len(KNOBS) == 29
