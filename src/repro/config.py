"""Global machine, experiment and runtime configuration.

Every tunable of the reproduced system lives here: the parameters of the
two-cluster scaled-Skylake core, the microcontroller's computation
budget, the SLA the paper targets, and the runtime knobs.

The values mirror the paper wherever the paper states them:

* CPU: 2.0 GHz, 8-wide in high-performance mode (two 4-wide clusters),
  16,000 MIPS peak (Table 3 header).
* Microcontroller: 500 MHz, 1-wide, 500 MIPS, 50% of cycles safely
  available for inference (Section 3 / Table 3).
* SLA: low-power mode must retain ``P_SLA = 90%`` of high-performance
  IPC over ``T_SLA = 1 ms`` windows, guaranteed to 99% (Section 3.1).
* Low-power mode consumes ~35% less power on average (Section 3).

Runtime knobs are one table, :data:`KNOBS`, a row per ``REPRO_*``
variable; :class:`ExecConfig` and the CLI flags are generated from it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from collections.abc import Callable, Iterable

from repro.errors import ConfigurationError

#: Instructions per telemetry snapshot interval (Section 4.1).
BASE_INTERVAL_INSTRUCTIONS = 10_000


# Parsers turn a non-empty raw string (env value or rendered flag) into a
# value or a ValueError; the ``*_or_off`` ones map 0 to None ("off").
def _number(kind: type, noun: str, off: bool = False) -> Callable:
    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise ValueError(f"must be {noun}") from None
        return None if off and value == 0 else value
    return parse


_int, _int_or_off = _number(int, "an int"), _number(int, "an int", True)
_float = _number(float, "a float")
_float_or_off = _number(float, "a float", True)


def _switch(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError("must be '0' or '1'")
    return raw == "1"


def _trace(raw: str) -> str | None:
    return None if raw == "0" else raw


#: The argparse form each parser implies for its flag.
_FLAG_FORMS: dict[Callable, dict] = {
    _int: {"type": int}, _int_or_off: {"type": int},
    _float: {"type": float}, _float_or_off: {"type": float},
    _switch: {"type": int, "choices": [0, 1]},
    _trace: {"nargs": "?", "const": "1", "metavar": "PATH"},
}


# Bounds: each returns what a bad value must be, or None when it fits.
def _at_least(low: int) -> Callable:
    return lambda value: None if value >= low else f"must be >= {low}"


def _above(low: float) -> Callable:
    return lambda value: None if value > low else f"must be > {low}"


def _one_of(*choices: str) -> Callable:
    def check(value: object) -> str | None:
        return None if value in choices else f"must be one of {choices}"
    check.choices = choices  # the flag's argparse ``choices``
    return check


@dataclasses.dataclass(frozen=True)
class Knob:
    """An :class:`ExecConfig` field, its ``REPRO_*`` variable and flag.
    ``check`` bounds non-None values; ``group`` picks the subcommands
    with the flag; ``cli`` adds argparse arguments."""

    field: str
    env: str
    flag: str | None
    parse: Callable[[str], object]
    default: object
    check: Callable[[object], str | None] | None
    group: str
    help: str
    cli: dict = dataclasses.field(default_factory=dict)

    def validate(self, value: object, source: str | None = None) -> object:
        """``value`` if in bounds, else an error naming ``source``."""
        if value is not None and self.check is not None:
            problem = self.check(value)
            if problem is not None:
                raise ConfigurationError(
                    f"{source or self.field} {problem}, got {value!r}")
        return value

    def read(self, raw: str | None, source: str) -> object:
        """Checked value of a raw string; unset or empty: default."""
        if not raw:
            return self.default
        try:
            value = self.parse(raw)
        except ValueError as exc:
            raise ConfigurationError(f"{source} {exc}, got {raw!r}") from None
        return self.validate(value, source)

    @staticmethod
    def render(value: object) -> str | None:
        """Environment form of a value; None means "unset"."""
        if isinstance(value, bool):
            return "1" if value else "0"
        return None if value is None else str(value)


#: Every ``REPRO_*`` knob the package reads, one row each.
KNOBS: tuple[Knob, ...] = (
    Knob("backend", "REPRO_EXEC_BACKEND", "--exec-backend", str,
         "serial", _one_of("serial", "thread", "process", "auto"), "exec",
         "fan-out backend; 'auto' probes whether workers win"),
    Knob("workers", "REPRO_EXEC_WORKERS", "--exec-workers", _int, None,
         _at_least(1), "exec", "parallel worker count; unset: CPU count"),
    Knob("arena", "REPRO_EXEC_ARENA", "--exec-arena", _switch, True, None,
         "exec", "ship traces to process workers in a zero-copy arena"),
    Knob("shmres", "REPRO_EXEC_SHMRES", "--exec-shmres", _switch, True,
         None, "exec", "return large worker results via shared memory"),
    Knob("shard", "REPRO_EXEC_SHARD", "--exec-shard", _int_or_off, None,
         _at_least(1), "exec", "stream builds, evaluations and screens "
         "in shards of N traces; 0 or unset: one pass", {"metavar": "N"}),
    Knob("chunk", "REPRO_EXEC_CHUNK", "--exec-chunk", _int, None,
         _at_least(1), "exec", "items per task; unset: adaptive"),
    Knob("retries", "REPRO_EXEC_RETRIES", "--exec-retries", _int, 2,
         _at_least(0), "exec", "retries of a failed parallel chunk"),
    Knob("timeout", "REPRO_EXEC_TIMEOUT", "--exec-timeout", _float_or_off,
         None, _above(0), "exec", "pool task timeout (s); 0 or unset: off"),
    Knob("simcache_dir", "REPRO_SIMCACHE_DIR", None, str, None, None,
         "sim", "snapshot and dataset cache directory; unset: no cache"),
    Knob("simcache_verify", "REPRO_SIMCACHE_VERIFY", None, _switch, True,
         None, "sim", "verify snapshot and dataset cache entries on read"),
    Knob("fault_spec", "REPRO_FAULT_SPEC", "--fault-spec", str, None,
         None, "exec", "fault-injection spec, e.g. 'seed=7,crash=0.1'"),
    Knob("interval_lru", "REPRO_INTERVAL_LRU", None, _int, 1024,
         _at_least(1), "sim", "interval-model memo bound (entries)"),
    Knob("trace", "REPRO_TRACE", "--trace", _trace, None, None, "obs",
         "write a JSON trace to PATH (1 or no PATH: repro_trace.json)"),
    Knob("trace_sample", "REPRO_TRACE_SAMPLE", None, _int, 8,
         _at_least(1), "obs", "keep 1 in N spans past half the buffer"),
    Knob("serve_queue_bound", "REPRO_SERVE_QUEUE_BOUND",
         "--serve-queue-bound", _int, 64, _at_least(1), "serve",
         "per-op in-flight bound before shedding"),
    Knob("serve_batch_timeout_s", "REPRO_SERVE_BATCH_TIMEOUT",
         "--serve-batch-timeout", _float, 30.0, _above(0), "serve",
         "seconds a request may run before the watchdog abandons it"),
    Knob("serve_breaker_threshold", "REPRO_SERVE_BREAKER_THRESHOLD", None,
         _int, 3, _at_least(1), "serve", "failures that trip a breaker"),
    Knob("serve_breaker_cooldown_s", "REPRO_SERVE_BREAKER_COOLDOWN", None,
         _float, 1.0, _above(0), "serve", "seconds a breaker stays open"),
    Knob("serve_checkpoint", "REPRO_SERVE_CHECKPOINT", "--checkpoint",
         str, None, None, "serve", "warm-state checkpoint; unset: off",
         {"metavar": "PATH"}),
    Knob("serve_restarts", "REPRO_SERVE_RESTARTS", "--serve-restarts",
         _int, 3, _at_least(0), "serve", "restart budget for --supervise"),
    Knob("online_enabled", "REPRO_ONLINE", "--online", _switch, False,
         None, "online", "continual adaptation", {"action": "store_true"}),
    Knob("online_ring", "REPRO_ONLINE_RING", "--online-ring", _int, 2048,
         _at_least(8), "online", "telemetry ring capacity"),
    Knob("online_sample", "REPRO_ONLINE_SAMPLE", "--online-sample", _int, 1,
         _at_least(1), "online", "sample 1 in N served requests"),
    Knob("online_drift_window", "REPRO_ONLINE_DRIFT_WINDOW",
         "--online-drift-window", _int, 64, _at_least(8), "online",
         "samples per drift-check window"),
    Knob("online_drift_threshold", "REPRO_ONLINE_DRIFT_THRESHOLD",
         "--online-drift-threshold", _float, 0.25, _above(0), "online",
         "PSI score that trips a retrain"),
    Knob("online_interval_s", "REPRO_ONLINE_INTERVAL_S",
         "--online-interval", _float, 2.0, _above(0), "online",
         "seconds between learner drift polls"),
    Knob("scale", "REPRO_SCALE", None, _float, 1.0, _above(0),
         "experiment", "dataset scale; larger approaches the paper's"),
    Knob("seed", "REPRO_SEED", None, _int, 7, None, "experiment",
         "experiment seed; a command's --seed overrides it"),
    Knob("results_dir", "REPRO_RESULTS_DIR", None, str, None, None,
         "experiment", "benchmark outputs; unset: benchmarks/results"),
)

#: The table by field name, and every variable it reads.
KNOB = {knob.field: knob for knob in KNOBS}
EXEC_ENV_VARS = tuple(knob.env for knob in KNOBS)

# Hot paths read the active config per (trace, mode) pair, so the
# ``from_env`` memo key reads ``os.environ``'s data with pre-encoded
# names: the same state, ~20x cheaper than ``os.environ.get``.
_ENV_DATA = os.environ._data
_ENV_KEYS = tuple(map(os.environ.encodekey, EXEC_ENV_VARS))


def _env_memo_key() -> tuple:
    return tuple(map(_ENV_DATA.get, _ENV_KEYS))


def _knob_fields(cls: type) -> type:
    """Make ``cls`` a frozen dataclass with one field per knob."""
    cls.__annotations__ = {knob.field: "object" for knob in KNOBS}
    for knob in KNOBS:
        setattr(cls, knob.field, knob.default)
    return dataclasses.dataclass(frozen=True)(cls)


@_knob_fields
class ExecConfig:
    """Every runtime knob, one frozen field per :data:`KNOBS` row;
    ``None`` means off (``workers``: CPU count, ``chunk``: adaptive)."""

    def __post_init__(self) -> None:
        for knob in KNOBS:
            knob.validate(getattr(self, knob.field))

    @classmethod
    def from_env(cls) -> ExecConfig:
        """Every knob from the environment, memoized on the raw
        strings: an unchanged environment returns the same object."""
        global _FROM_ENV_CACHE
        key = _env_memo_key()
        cached = _FROM_ENV_CACHE
        if cached is not None and cached[0] == key:
            return cached[1]
        config = cls(**{knob.field: knob.read(os.environ.get(knob.env),
                                              knob.env) for knob in KNOBS})
        _FROM_ENV_CACHE = (key, config)
        return config

    @classmethod
    def from_cli(cls, args) -> ExecConfig:
        """:meth:`from_env` with the flags set in ``args`` on top; a
        flag's value goes through its knob's parser and bound."""
        given = [(knob, getattr(args, knob.flag[2:].replace("-", "_"), None))
                 for knob in KNOBS if knob.flag]
        updates = {knob.field: knob.read(knob.render(value), knob.flag)
                   for knob, value in given if value is not None}
        return dataclasses.replace(cls.from_env(), **updates)

    def to_env(self) -> dict[str, str | None]:
        """Environment image (None: unset) that round-trips."""
        return {knob.env: knob.render(getattr(self, knob.field))
                for knob in KNOBS}

    def apply_env(self) -> None:
        """Write this config into ``os.environ``, which process-pool
        workers inherit."""
        for var, value in self.to_env().items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value

    @contextlib.contextmanager
    def override(self):
        """Make this the active config for a ``with`` block."""
        previous = _ACTIVE
        install_exec_config(self)
        try:
            yield self
        finally:
            install_exec_config(previous)


_FROM_ENV_CACHE: tuple[tuple, ExecConfig] | None = None
_ACTIVE: ExecConfig | None = None


def active_exec_config() -> ExecConfig:
    """The installed :class:`ExecConfig`, else :meth:`ExecConfig.from_env`."""
    if _ACTIVE is not None:
        return _ACTIVE
    return ExecConfig.from_env()


def install_exec_config(config: ExecConfig | None) -> None:
    """Install (or with ``None`` clear) the process-wide active config."""
    global _ACTIVE
    _ACTIVE = config


def add_knob_flags(parser, groups: Iterable[str]) -> None:
    """Add the flag of every knob in ``groups`` to an argparse parser;
    each defaults to None, "keep the environment's value"."""
    for knob in KNOBS:
        if knob.flag is None or knob.group not in groups:
            continue
        form = ({} if "action" in knob.cli
                else dict(_FLAG_FORMS.get(knob.parse, {})))
        if hasattr(knob.check, "choices"):
            form["choices"] = list(knob.check.choices)
        default = Knob.render(knob.default)
        shown = knob.env if default is None else f"{knob.env} or {default}"
        parser.add_argument(knob.flag, default=None, **form, **knob.cli,
                            help=f"{knob.help} (default: {shown})")


def render_knob_table() -> str:
    """README's knob table: one Markdown row per knob."""
    lines = ["| field | env var | CLI flag | default | meaning |",
             "|---|---|---|---|---|"]
    for knob in KNOBS:
        flag = f"`{knob.flag}`" if knob.flag else "—"
        default = Knob.render(knob.default)
        shown = "unset" if default is None else f"`{default}`"
        lines.append(f"| `{knob.field}` | `{knob.env}` | {flag} | {shown} "
                     f"| {knob.help} |")
    return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Resources of one out-of-order execution cluster.

    The paper's core is a scaled Skylake with two such clusters
    (Figure 2); each cluster owns its scheduler, execution units and a
    Memory Execution Unit (MEU).
    """

    issue_width: int = 4
    scheduler_entries: int = 48
    load_queue_entries: int = 36
    store_queue_entries: int = 28
    mshr_entries: int = 4
    alu_units: int = 4
    fpu_units: int = 2
    load_ports: int = 2
    store_ports: int = 1


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """The full two-cluster CPU plus memory hierarchy and timing.

    ``width_high_perf``/``width_low_power`` are the effective issue
    widths in the two operating modes; all latencies are in core cycles.
    """

    frequency_ghz: float = 2.0
    cluster: ClusterConfig = dataclasses.field(default_factory=ClusterConfig)
    num_clusters: int = 2
    rob_entries: int = 224
    retire_width: int = 8
    # Memory hierarchy.
    l1i_kib: int = 32
    l1d_kib: int = 32
    l2_kib: int = 1024
    l3_kib: int = 8192
    line_bytes: int = 64
    l1_latency: int = 4
    l2_latency: int = 12
    l3_latency: int = 40
    memory_latency: int = 200
    # Front end.
    branch_mispredict_penalty: int = 16
    icache_miss_penalty: int = 20
    uop_cache_entries: int = 1536
    # TLBs.
    tlb_miss_penalty: int = 30
    # Cluster interplay.
    intercluster_latency: int = 2
    intercluster_uop_fraction: float = 0.15
    # Mode switching (Section 3): a microcode flow transfers up to 32
    # register dependencies, one micro-op each, taking low tens of
    # cycles while execution continues on cluster 1.
    max_register_transfers: int = 32
    mode_switch_base_cycles: int = 8

    @property
    def width_high_perf(self) -> int:
        """Issue width with both clusters enabled."""
        return self.cluster.issue_width * self.num_clusters

    @property
    def width_low_power(self) -> int:
        """Issue width with cluster 2 clock-gated."""
        return self.cluster.issue_width

    @property
    def peak_mips(self) -> float:
        """Peak instruction throughput in MIPS (Table 3: 16,000)."""
        return self.frequency_ghz * 1_000.0 * self.width_high_perf


@dataclasses.dataclass(frozen=True)
class MicrocontrollerConfig:
    """The existing on-die microcontroller that hosts adaptation models.

    Section 3: 500 MHz, single issue, integer and floating point but no
    vector instructions; 50% of its cycles are safely available for
    generating adaptation predictions.
    """

    frequency_mhz: float = 500.0
    issue_width: int = 1
    available_fraction: float = 0.5
    sram_bytes: int = 1 << 20  # 1 MiB firmware data budget.

    @property
    def mips(self) -> float:
        """Peak throughput in MIPS."""
        return self.frequency_mhz * self.issue_width

    def ops_budget(self, granularity_instructions: int,
                   machine: MachineConfig | None = None) -> int:
        """Ops available per prediction at a given gating granularity.

        Reproduces the left half of Table 3: the CPU retires
        ``peak_mips`` instructions per second, so a prediction every
        ``granularity_instructions`` leaves
        ``granularity / (cpu_mips / uc_mips)`` microcontroller ops, of
        which ``available_fraction`` may be used.
        """
        machine = machine or MachineConfig()
        ratio = machine.peak_mips / self.mips  # e.g. 16000/500 = 32
        max_ops = granularity_instructions / ratio
        return int(max_ops * self.available_fraction)


@dataclasses.dataclass(frozen=True)
class SLAConfig:
    """A service level agreement per Section 3.1.

    ``performance_floor`` is :math:`P_{SLA}`: low-power-mode IPC must be
    at least this fraction of high-performance-mode IPC. ``window_ms``
    is :math:`T_{SLA}`, the measurement window. ``guarantee`` is the
    fraction of windows that must meet the floor (99%).
    """

    performance_floor: float = 0.90
    window_ms: float = 1.0
    guarantee: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.performance_floor <= 1.0:
            raise ValueError(
                f"performance_floor must be in (0, 1], got "
                f"{self.performance_floor}"
            )
        if self.window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {self.window_ms}")
        if not 0.0 < self.guarantee <= 1.0:
            raise ValueError(f"guarantee must be in (0, 1], got {self.guarantee}")

    def window_predictions(self, machine: MachineConfig,
                           granularity_instructions: int) -> int:
        """Sample size ``W`` for the SLA-violation expectation (Eq. 2).

        ``W = R * T_SLA * L`` with R the peak instruction throughput and
        L the prediction rate; e.g. 16 G inst/s * 1 ms / 10k inst =
        1600 predictions.
        """
        per_second = machine.peak_mips * 1e6
        window_instructions = per_second * (self.window_ms / 1e3)
        return max(1, int(window_instructions / granularity_instructions))


#: The SLA used throughout the paper except Section 7.3.
DEFAULT_SLA = SLAConfig()

#: The two relaxed SLAs evaluated in Table 5.
RELAXED_SLAS = (SLAConfig(performance_floor=0.80),
                SLAConfig(performance_floor=0.70))

#: Gating granularities the architecture supports (Section 3).
SUPPORTED_GRANULARITIES = tuple(range(10_000, 110_000, 10_000))
