"""Bit-identity properties of the vectorized batch-simulation kernels.

Three layers each ship a batched implementation, and every one must be
*bit-identical* to its reference:

* the SoA cycle-model scoreboard vs the per-uop reference loop;
* ``IntervalModel.simulate_batch``: a pair computed alone vs inside a
  mixed batch (including batches that mix LRU hits and misses, whose
  snapshots mix SimCache hits and misses), plus reference values
  recorded from the former per-pair implementation;
* the batched ``AdaptiveCPU.run_many`` closed loop vs per-trace
  ``run`` (one concatenated inference call vs many small ones).
"""

import dataclasses
import pathlib

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.core.adaptive_cpu import AdaptiveCPU
from repro.core.pipeline import train_dual_predictor
from repro.data.builders import dataset_from_traces
from repro.exec.parallel import ParallelMap
from repro.exec.simcache import SimCache
from repro.ml.forest import RandomForestClassifier
from repro.ml.mlp import MLPClassifier
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.core_model import ClusteredCoreModel
from repro.uarch.interval_model import IntervalModel
from repro.uarch.isa import (
    MEM_DRAM,
    MEM_L1,
    MEM_L2,
    MEM_L3,
    UopStream,
    UopType,
    synthesize_uops,
)
from repro.uarch.modes import Mode
from repro.workloads.generator import generate_application
from repro.workloads.phases import PHASE_LIBRARY, sample_phase_instance


def _assert_same_result(a, b, context=""):
    for field in dataclasses.fields(a):
        va = getattr(a, field.name)
        vb = getattr(b, field.name)
        assert va == vb, (context, field.name, va, vb)


def _stream(types, src1=None, src2=None, mem_level=None,
            mispredicted=None):
    """Hand-built UopStream with benign defaults."""
    types = np.asarray(types, dtype=np.int8)
    n = types.shape[0]
    none = np.full(n, -1, dtype=np.int64)
    levels = np.where(types == UopType.LOAD, MEM_L1, -1).astype(np.int64)
    return UopStream(
        types=types,
        src1=none if src1 is None else np.asarray(src1, dtype=np.int64),
        src2=none if src2 is None else np.asarray(src2, dtype=np.int64),
        mem_level=(levels if mem_level is None
                   else np.asarray(mem_level, dtype=np.int64)),
        mispredicted=(np.zeros(n, dtype=bool) if mispredicted is None
                      else np.asarray(mispredicted, dtype=bool)),
    )


def _assert_kernels_agree(stream, mode, context=""):
    """SoA kernel and reference loop on one stream; returns the SoA run."""
    core = ClusteredCoreModel(mode=mode)
    soa = core._execute_soa(stream)
    _assert_same_result(soa, core._execute_reference(stream), context)
    return soa


class TestCycleKernelIdentity:
    """SoA scoreboard == reference loop, field for field."""

    @pytest.mark.parametrize("mode", list(Mode))
    def test_archetype_streams(self, mode):
        for i, arch in enumerate(PHASE_LIBRARY[::6]):
            rng = np.random.default_rng(100 + i)
            phase = sample_phase_instance(arch.name, rng)
            stream = synthesize_uops(phase, 6000, seed=17 + i)
            _assert_kernels_agree(stream, mode, context=(arch.name, mode))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_branch_heavy_stream(self, mode):
        rng = rng_mod.stream(5, "branch-heavy")
        n = 4000
        types = rng.choice(
            [UopType.ALU, UopType.BRANCH], size=n,
            p=[0.4, 0.6]).astype(np.int8)
        mispred = rng.random(n) < 0.5  # pathological misprediction rate
        stream = _stream(types, mispredicted=mispred)
        soa = _assert_kernels_agree(stream, mode,
                                    context=("branch-heavy", mode))
        assert soa.branch_mispredicts > 0

    @pytest.mark.parametrize("mode", list(Mode))
    def test_store_burst_stream(self, mode):
        # Long runs of stores slam the store queue and drain logic.
        types = np.tile(
            np.concatenate([np.full(48, UopType.STORE),
                            np.full(4, UopType.ALU)]), 60)
        stream = _stream(types)
        _assert_kernels_agree(stream, mode, context=("store-burst", mode))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_bypass_heavy_stream(self, mode):
        # Tight dependency chains keep values in the bypass window and
        # force steering to chase producers across clusters.
        rng = rng_mod.stream(6, "bypass-heavy")
        n = 4000
        types = rng.choice(
            [UopType.ALU, UopType.MUL, UopType.FP], size=n,
            p=[0.5, 0.25, 0.25]).astype(np.int8)
        idx = np.arange(n)
        src1 = np.maximum(idx - 1, -1)
        src2 = np.where(idx >= 2, idx - 2, -1)
        stream = _stream(types, src1=src1, src2=src2)
        _assert_kernels_agree(stream, mode, context=("bypass-heavy", mode))

    def test_memory_level_mix(self):
        # Loads at every hierarchy level, including DRAM MSHR pressure.
        rng = rng_mod.stream(7, "mem-mix")
        n = 3000
        types = rng.choice(
            [UopType.LOAD, UopType.ALU], size=n, p=[0.6, 0.4]
        ).astype(np.int8)
        levels = np.where(
            types == UopType.LOAD,
            rng.choice([MEM_L1, MEM_L2, MEM_L3, MEM_DRAM], size=n,
                       p=[0.4, 0.3, 0.2, 0.1]),
            -1)
        stream = _stream(types, mem_level=levels)
        for mode in Mode:
            _assert_kernels_agree(stream, mode, context=("mem-mix", mode))

    def test_subclass_hooks_fall_back_to_reference(self):
        class Hooked(ClusteredCoreModel):
            def branch_outcome(self, i, stream):
                return True

        rng = np.random.default_rng(3)
        phase = sample_phase_instance(PHASE_LIBRARY[0].name, rng)
        stream = synthesize_uops(phase, 800, seed=3)
        hooked = Hooked()
        # The SoA decode assumes trace-annotated outcomes; a subclass
        # overriding a hook must transparently use the reference loop.
        annotated = ClusteredCoreModel().execute(stream)
        _assert_same_result(hooked.execute(stream),
                            hooked._execute_reference(stream))
        assert hooked.execute(stream).branch_mispredicts \
            != annotated.branch_mispredicts


def _traces(n, base_seed, intervals=70):
    fams = [{"pointer_chase": 0.5, "compute_fp": 0.5},
            {"bandwidth": 1.0},
            {"branchy": 0.6, "store_burst": 0.4}]
    out = []
    for i in range(n):
        app = generate_application(f"bk{base_seed}_{i}", "test",
                                   fams[i % len(fams)],
                                   seed=base_seed + i)
        out.append(app.workload(0).trace(intervals, 0))
    return out


def _assert_same_interval(a, b, context=""):
    assert a.trace_name == b.trace_name, context
    assert a.mode is b.mode, context
    assert a.interval_instructions == b.interval_instructions, context
    for field in ("ipc", "cycles", "signals"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), \
            (context, field)


#: Per-pair ``ipc``/``cycles``/``signals`` of ``_traces(3, 600,
#: intervals=12)`` in both modes, recorded from the former per-pair
#: (unbatched) implementation of ``IntervalModel.simulate``.
REFERENCE = pathlib.Path(__file__).parent / "data" / "interval_reference.npz"


class TestSimulateBatchIdentity:
    """A pair's result never depends on the batch that computed it."""

    def test_batch_matches_loop(self):
        # Mixed interval counts (two stacked groups) and both modes.
        traces = _traces(3, 300) + _traces(2, 310, intervals=45)
        batch = IntervalModel().simulate_batch(traces)
        assert len(batch) == 2 * len(traces)
        for trace in traces:
            for mode in Mode:
                key = (trace.name, trace.seed, trace.n_intervals, mode)
                _assert_same_interval(
                    batch[key], IntervalModel().simulate(trace, mode),
                    context=(trace.name, mode))

    def test_matches_recorded_reference(self):
        reference = np.load(REFERENCE)
        model = IntervalModel()
        for i, trace in enumerate(_traces(3, 600, intervals=12)):
            for mode in Mode:
                result = model.simulate(trace, mode)
                for field in ("ipc", "cycles", "signals"):
                    # rtol, not equality: SIMD exp may differ in the
                    # last bit across CPUs.
                    np.testing.assert_allclose(
                        getattr(result, field),
                        reference[f"{i}_{mode.value}_{field}"],
                        rtol=1e-12, atol=0.0, err_msg=f"{i} {mode} {field}")

    def test_mixed_cache_states(self, tmp_path):
        traces = _traces(5, 320)
        ids = [0, 3, 7, 40]
        cache = SimCache(tmp_path / "sc")
        model = IntervalModel()
        # Trace 0 is in the LRU; trace 1's low-power snapshot is only on
        # disk (written through a collector whose model has its own LRU).
        model.simulate(traces[0], Mode.HIGH_PERF)
        TelemetryCollector(simcache=cache).snapshot(traces[1],
                                                    Mode.LOW_POWER, ids)
        batch = model.simulate_batch(traces)
        cached = TelemetryCollector(model=model, simcache=cache)
        clean = IntervalModel()
        plain = TelemetryCollector(model=clean)
        for trace in traces:
            for mode in Mode:
                key = (trace.name, trace.seed, trace.n_intervals, mode)
                _assert_same_interval(
                    batch[key], clean.simulate(trace, mode),
                    context=(trace.name, mode, "mixed"))
                got = cached.snapshot(trace, mode, ids, result=batch[key])
                want = plain.snapshot(trace, mode, ids)
                for field in ("counts", "normalized", "cycles", "ipc"):
                    assert np.array_equal(getattr(got, field),
                                          getattr(want, field)), (
                        trace.name, mode, field)

    def test_simulate_both_uses_identical_results(self):
        trace = _traces(1, 340)[0]
        both = IntervalModel().simulate_both(trace)
        clean = IntervalModel()
        for mode in Mode:
            _assert_same_interval(both[mode], clean.simulate(trace, mode),
                                  context=("both", mode))

    def test_mode_subset(self):
        trace = _traces(1, 350)[0]
        model = IntervalModel()
        batch = model.simulate_batch([trace], modes=[Mode.LOW_POWER])
        assert len(batch) == 1
        key = (trace.name, trace.seed, trace.n_intervals, Mode.LOW_POWER)
        _assert_same_interval(batch[key],
                              IntervalModel().simulate(trace,
                                                       Mode.LOW_POWER))


class TestBatchedClosedLoop:
    """run_many's concatenated inference == per-trace run."""

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        traces = _traces(5, 400, intervals=80)
        cache = SimCache(tmp_path_factory.mktemp("bk-loop"))
        collector = TelemetryCollector(simcache=cache)
        datasets = dataset_from_traces(
            traces[:3], list(range(10)), collector=collector,
            granularity_factor=2)
        return traces, collector, datasets

    @pytest.mark.parametrize("est", ["mlp", "rf"])
    def test_run_many_matches_run(self, setup, est):
        traces, collector, datasets = setup
        factories = {
            "mlp": lambda mode: MLPClassifier(hidden_layers=(8,),
                                              epochs=10, seed=5),
            "rf": lambda mode: RandomForestClassifier(n_trees=3,
                                                      max_depth=4,
                                                      seed=5),
        }
        predictor = train_dual_predictor(est, factories[est], datasets,
                                         2, seed=9)
        cpu = AdaptiveCPU(predictor, collector=collector)
        scalar = [cpu.run(t) for t in traces]
        for pmap in (ParallelMap(backend="serial"),
                     ParallelMap(backend="thread", n_workers=2,
                                 chunk_size=2)):
            batched = cpu.run_many(traces, pmap=pmap)
            for a, b in zip(scalar, batched):
                for field in dataclasses.fields(a):
                    va = getattr(a, field.name)
                    vb = getattr(b, field.name)
                    if isinstance(va, np.ndarray):
                        assert np.array_equal(va, vb), \
                            (est, pmap.backend, field.name)
                    else:
                        assert va == vb, (est, pmap.backend, field.name)
