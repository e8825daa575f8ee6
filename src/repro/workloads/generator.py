"""Applications, workloads and traces.

The paper's vocabulary (Section 4.1):

* an **application** is a program; we model it as a small set of
  :class:`~repro.workloads.phases.PhaseInstance` objects plus a Markov
  transition matrix over them;
* a **workload** is an execution of an application on a unique input;
  different inputs re-weight the phase mixture and dwell times;
* a **trace** is a recorded portion of a workload's instruction stream;
  we represent it as a per-interval sequence of phase indices (one
  entry per 10k-instruction telemetry interval) that the simulator
  tiers consume.

All sampling is deterministic given the spec seeds (see
:mod:`repro.rng`).
"""

from __future__ import annotations

import bisect
import dataclasses
from collections.abc import Mapping, Sequence

import numpy as np

from repro import rng as rng_mod
from repro.config import BASE_INTERVAL_INSTRUCTIONS
from repro.errors import ConfigurationError
from repro.workloads.phases import (
    PHASE_LIBRARY,
    PhaseArchetype,
    PhaseInstance,
    archetypes_in_families,
)

#: Ordered physics fields used to build numeric matrices from phases.
PHYSICS_FIELDS: tuple[str, ...] = (
    "ilp",
    "frac_load",
    "frac_store",
    "frac_branch",
    "frac_fp",
    "l1d_mpki",
    "l2_mpki",
    "l3_mpki",
    "branch_mpki",
    "icache_mpki",
    "uopcache_hit_rate",
    "itlb_mpki",
    "dtlb_mpki",
    "sq_pressure",
    "mlp",
    "dirty_frac",
    "noise_scale",
)


def physics_matrix(instances: Sequence[PhaseInstance]) -> np.ndarray:
    """Stack phase physics into a ``(n_phases, n_fields)`` float matrix."""
    return np.array(
        [[getattr(inst, field) for field in PHYSICS_FIELDS]
         for inst in instances],
        dtype=np.float64,
    )


@dataclasses.dataclass(frozen=True)
class ApplicationSpec:
    """A synthetic application: phases plus Markov phase dynamics."""

    name: str
    category: str
    phases: tuple[PhaseInstance, ...]
    transitions: np.ndarray  # (n_phases, n_phases) row-stochastic
    initial: np.ndarray  # (n_phases,) distribution
    seed: int

    def __post_init__(self) -> None:
        n = len(self.phases)
        if self.transitions.shape != (n, n):
            raise ConfigurationError(
                f"{self.name}: transitions shape {self.transitions.shape} "
                f"does not match {n} phases"
            )
        if not np.allclose(self.transitions.sum(axis=1), 1.0, atol=1e-6):
            raise ConfigurationError(f"{self.name}: transitions not stochastic")
        if not np.isclose(self.initial.sum(), 1.0, atol=1e-6):
            raise ConfigurationError(f"{self.name}: initial dist not normalised")

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    def workload(self, input_id: int) -> "WorkloadSpec":
        """The workload of this application on input ``input_id``."""
        return WorkloadSpec(app=self, input_id=input_id)


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """An application executed on one specific input.

    Inputs re-weight phase transitions (a video encoder on an action
    scene spends longer in motion estimation than on a static scene)
    without changing the application's phase vocabulary.
    """

    app: ApplicationSpec
    input_id: int

    @property
    def name(self) -> str:
        return f"{self.app.name}/input{self.input_id}"

    def _input_transitions(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-input transition matrix and initial distribution."""
        rng = rng_mod.stream(self.app.seed, "input", self.input_id)
        n = self.app.n_phases
        # Re-weight off-diagonal mass with a Dirichlet draw so the
        # stationary phase mixture shifts between inputs.
        weights = rng.dirichlet(np.full(n, 1.5))
        trans = self.app.transitions.copy()
        for i in range(n):
            off = trans[i].copy()
            off[i] = 0.0
            if off.sum() > 0:
                off = off * (weights + 1e-3)
                off = off / off.sum() * (1.0 - trans[i, i])
                trans[i] = off
                trans[i, i] = self.app.transitions[i, i]
        initial = weights / weights.sum()
        return trans, initial

    def trace(self, n_intervals: int, trace_id: int = 0,
              interval_instructions: int = BASE_INTERVAL_INSTRUCTIONS,
              ) -> "TraceSpec":
        """Sample a trace of ``n_intervals`` telemetry intervals."""
        if n_intervals <= 0:
            raise ConfigurationError(
                f"n_intervals must be positive, got {n_intervals}"
            )
        trans, initial = self._input_transitions()
        rng = rng_mod.stream(self.app.seed, "trace", self.input_id, trace_id)
        state = int(rng.choice(self.app.n_phases, p=initial))
        return TraceSpec(
            workload=self,
            trace_id=trace_id,
            phase_seq=phase_chain(np.cumsum(trans, axis=1), state,
                                  rng.random(n_intervals)),
            interval_instructions=interval_instructions,
            seed=rng_mod.derive_seed(
                self.app.seed, "trace-noise", self.input_id, trace_id
            ),
        )


def phase_chain(cdf: np.ndarray, state: int,
                draws: np.ndarray) -> np.ndarray:
    """Walk a Markov phase chain: one phase index per draw.

    ``cdf`` holds each state's cumulative transition row. Interval t is
    spent in the current state; the next one is the first index whose
    cumulative probability reaches ``draws[t]`` (``searchsorted``'s
    left side), clamped to the last phase for a row that sums to just
    under 1.0. The walk runs over Python lists with :func:`bisect`:
    a scalar numpy call per interval costs more than the lookup.
    """
    rows = cdf.tolist()
    last = len(rows) - 1
    seq = []
    for draw in draws.tolist():
        seq.append(state)
        state = min(bisect.bisect_left(rows[state], draw), last)
    return np.array(seq, dtype=np.int64)


@dataclasses.dataclass(frozen=True)
class TraceSpec:
    """A recorded execution region: one phase index per interval."""

    workload: WorkloadSpec
    trace_id: int
    phase_seq: np.ndarray  # (n_intervals,) int indices into app phases
    interval_instructions: int
    seed: int

    @property
    def name(self) -> str:
        return f"{self.workload.name}/trace{self.trace_id}"

    @property
    def app(self) -> ApplicationSpec:
        return self.workload.app

    @property
    def n_intervals(self) -> int:
        return int(self.phase_seq.shape[0])

    @property
    def instructions(self) -> int:
        """Total instructions covered by this trace."""
        return self.n_intervals * self.interval_instructions

    def physics(self) -> np.ndarray:
        """Per-interval physics matrix ``(n_intervals, n_fields)``."""
        table = physics_matrix(self.app.phases)
        return table[self.phase_seq]

    def phase_names(self) -> list[str]:
        """Per-interval phase archetype names."""
        names = [inst.name for inst in self.app.phases]
        return [names[i] for i in self.phase_seq]


@dataclasses.dataclass(frozen=True)
class PhaseSequence:
    """A lightweight (phase index, dwell length) run-length encoding."""

    indices: np.ndarray
    lengths: np.ndarray

    @classmethod
    def from_trace(cls, trace: TraceSpec) -> "PhaseSequence":
        """Run-length encode a trace's phase sequence."""
        seq = trace.phase_seq
        if seq.size == 0:
            return cls(indices=np.empty(0, np.int64),
                       lengths=np.empty(0, np.int64))
        change = np.flatnonzero(np.diff(seq)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [seq.size]))
        return cls(indices=seq[starts], lengths=ends - starts)

    @property
    def mean_dwell(self) -> float:
        """Mean phase dwell time in intervals."""
        if self.lengths.size == 0:
            return 0.0
        return float(self.lengths.mean())


def _sample_archetypes(families_weights: Mapping[str, float],
                       n_phases: int,
                       rng: np.random.Generator) -> list[PhaseArchetype]:
    """Pick ``n_phases`` archetypes, weighted by family."""
    candidates: list[PhaseArchetype] = []
    weights: list[float] = []
    for family, weight in families_weights.items():
        members = archetypes_in_families([family])
        if not members:
            raise ConfigurationError(f"unknown phase family {family!r}")
        for arch in members:
            candidates.append(arch)
            weights.append(weight / len(members))
    probs = np.asarray(weights, dtype=np.float64)
    probs = probs / probs.sum()
    n_phases = min(n_phases, len(candidates))
    chosen = rng.choice(len(candidates), size=n_phases, replace=False, p=probs)
    return [candidates[int(i)] for i in chosen]


def generate_application(name: str,
                         category: str,
                         families_weights: Mapping[str, float],
                         seed: int,
                         n_phases_range: tuple[int, int] = (3, 7),
                         ood_shift: float = 0.0,
                         dwell_range: tuple[float, float] = (0.96, 0.992),
                         ) -> ApplicationSpec:
    """Generate an application from category-biased phase families.

    Parameters
    ----------
    families_weights:
        Relative probability of drawing each phase family.
    ood_shift:
        Extra physics jitter (as a relative multiplier spread) applied
        to phase instances; used by the held-out SPEC-like suite to
        create distribution shift relative to the training corpus.
    dwell_range:
        Range of per-phase self-transition probabilities; 0.96-0.992
        gives mean dwell of ~25-125 intervals (250k-1.25M
        instructions), matching the phase persistence the paper's t+2
        prediction horizon relies on even at the coarsest 100k gating
        granularity.
    """
    rng = rng_mod.stream(seed, "app", name)
    low, high = n_phases_range
    n_phases = int(rng.integers(low, high + 1))
    archetypes = _sample_archetypes(families_weights, n_phases, rng)
    instances = []
    for arch in archetypes:
        inst = arch.sample(rng)
        if ood_shift > 0.0:
            inst = _shift_instance(inst, ood_shift, rng)
        instances.append(inst)
    n = len(instances)
    # Row-stochastic transitions with strong self-loops.
    trans = np.zeros((n, n))
    for i in range(n):
        self_p = float(rng.uniform(*dwell_range))
        if n == 1:
            trans[i, i] = 1.0
            continue
        off = rng.dirichlet(np.full(n - 1, 1.0)) * (1.0 - self_p)
        trans[i, :] = np.insert(off, i, self_p)
    initial = rng.dirichlet(np.full(n, 2.0))
    return ApplicationSpec(
        name=name,
        category=category,
        phases=tuple(instances),
        transitions=trans,
        initial=initial,
        seed=rng_mod.derive_seed(seed, "app-seed", name),
    )


def _shift_instance(inst: PhaseInstance, shift: float,
                    rng: np.random.Generator) -> PhaseInstance:
    """Apply out-of-distribution physics shift to a phase instance."""
    values = dataclasses.asdict(inst)
    name = values.pop("name")
    family = values.pop("family")
    for key, value in values.items():
        factor = float(np.exp(rng.normal(0.0, shift)))
        values[key] = value * factor
    # Restore structural invariants.
    values["ilp"] = max(1.0, values["ilp"])
    values["mlp"] = max(1.0, values["mlp"])
    for key in ("frac_load", "frac_store", "frac_branch", "frac_fp",
                "uopcache_hit_rate", "sq_pressure", "dirty_frac"):
        values[key] = min(max(values[key], 0.0), 1.0)
    mix = (values["frac_load"] + values["frac_store"]
           + values["frac_branch"] + values["frac_fp"])
    if mix > 0.95:
        scale = 0.95 / mix
        for key in ("frac_load", "frac_store", "frac_branch", "frac_fp"):
            values[key] *= scale
    values["l2_mpki"] = min(values["l2_mpki"], values["l1d_mpki"])
    values["l3_mpki"] = min(values["l3_mpki"], values["l2_mpki"])
    return PhaseInstance(name=name, family=family, **values)


def generate_trace(app: ApplicationSpec, input_id: int = 0,
                   trace_id: int = 0, n_intervals: int = 500) -> TraceSpec:
    """Convenience: one trace of an application on one input."""
    return app.workload(input_id).trace(n_intervals, trace_id)
