"""Tests for application/workload/trace generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import rng as rng_mod
from repro.data.builders import hdtr_traces
from repro.errors import ConfigurationError
from repro.workloads.generator import (
    PHYSICS_FIELDS,
    PhaseSequence,
    generate_application,
    generate_trace,
    phase_chain,
    physics_matrix,
)
from repro.workloads.spec2017 import spec2017_traces


def make_app(seed=1, **kwargs):
    return generate_application(
        name="app", category="test",
        families_weights={"pointer_chase": 0.5, "compute_int": 0.5},
        seed=seed, **kwargs)


class TestGenerateApplication:
    def test_deterministic(self):
        a, b = make_app(), make_app()
        assert a.phases == b.phases
        assert np.array_equal(a.transitions, b.transitions)

    def test_different_seeds_differ(self):
        assert make_app(1).phases != make_app(2).phases

    def test_transitions_row_stochastic(self):
        app = make_app()
        assert np.allclose(app.transitions.sum(axis=1), 1.0)

    def test_phase_count_in_range(self):
        for seed in range(12):
            app = make_app(seed, n_phases_range=(3, 7))
            assert 3 <= app.n_phases <= 7

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_application("a", "c", {"nope": 1.0}, seed=1)

    def test_dwell_range_respected(self):
        app = make_app(dwell_range=(0.98, 0.99))
        self_probs = np.diag(app.transitions)
        assert np.all(self_probs >= 0.98 - 1e-9)
        assert np.all(self_probs <= 0.99 + 1e-9)

    def test_ood_shift_changes_physics(self):
        plain = make_app(5, ood_shift=0.0)
        shifted = make_app(5, ood_shift=0.3)
        assert plain.phases != shifted.phases


class TestTraces:
    def test_trace_deterministic(self):
        app = make_app()
        t1 = app.workload(0).trace(100, 0)
        t2 = app.workload(0).trace(100, 0)
        assert np.array_equal(t1.phase_seq, t2.phase_seq)
        assert t1.seed == t2.seed

    def test_trace_ids_differ(self):
        app = make_app()
        t1 = app.workload(0).trace(200, 0)
        t2 = app.workload(0).trace(200, 1)
        assert not np.array_equal(t1.phase_seq, t2.phase_seq)

    def test_inputs_shift_phase_mixture(self):
        app = make_app()
        mix = []
        for input_id in range(2):
            trace = app.workload(input_id).trace(2000, 0)
            mix.append(np.bincount(trace.phase_seq,
                                   minlength=app.n_phases) / 2000)
        assert not np.allclose(mix[0], mix[1], atol=0.02)

    def test_phase_indices_valid(self):
        app = make_app()
        trace = app.workload(1).trace(300, 0)
        assert trace.phase_seq.min() >= 0
        assert trace.phase_seq.max() < app.n_phases

    def test_instructions_property(self):
        trace = generate_trace(make_app(), n_intervals=50)
        assert trace.instructions == 50 * trace.interval_instructions

    def test_zero_intervals_rejected(self):
        with pytest.raises(ConfigurationError):
            make_app().workload(0).trace(0, 0)

    def test_phases_persist(self):
        # Mean dwell should be tens of intervals per the generator doc.
        app = make_app()
        trace = app.workload(0).trace(3000, 0)
        seq = PhaseSequence.from_trace(trace)
        assert seq.mean_dwell > 8.0

    def test_phase_names_align_with_seq(self):
        app = make_app()
        trace = app.workload(0).trace(20, 0)
        names = trace.phase_names()
        for idx, name in zip(trace.phase_seq, names):
            assert app.phases[idx].name == name


class TestPhysicsMatrix:
    def test_field_order(self):
        assert PHYSICS_FIELDS[0] == "ilp"
        assert "sq_pressure" in PHYSICS_FIELDS

    def test_matrix_shape_and_values(self):
        app = make_app()
        mat = physics_matrix(app.phases)
        assert mat.shape == (app.n_phases, len(PHYSICS_FIELDS))
        assert mat[0, 0] == pytest.approx(app.phases[0].ilp)

    def test_trace_physics_indexes_phases(self):
        app = make_app()
        trace = app.workload(0).trace(40, 0)
        phys = trace.physics()
        assert phys.shape == (40, len(PHYSICS_FIELDS))
        table = physics_matrix(app.phases)
        assert np.array_equal(phys, table[trace.phase_seq])


class TestPhaseSequence:
    def test_run_length_encoding_roundtrip(self):
        app = make_app()
        trace = app.workload(0).trace(500, 0)
        seq = PhaseSequence.from_trace(trace)
        rebuilt = np.repeat(seq.indices, seq.lengths)
        assert np.array_equal(rebuilt, trace.phase_seq)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 400), seed=st.integers(0, 1000))
    def test_lengths_sum_to_trace_length(self, n, seed):
        app = make_app(seed % 5)
        trace = app.workload(seed % 3).trace(n, seed % 4)
        seq = PhaseSequence.from_trace(trace)
        assert int(seq.lengths.sum()) == n


def _searchsorted_chain(cdf, state, draws):
    """The chain walk as it was first written: one scalar
    ``np.searchsorted`` per interval (the oracle for ``phase_chain``)."""
    seq = np.empty(len(draws), dtype=np.int64)
    for t in range(len(draws)):
        seq[t] = state
        state = int(np.searchsorted(cdf[state], draws[t]))
        state = min(state, cdf.shape[0] - 1)
    return seq


def _reference_phase_seq(trace):
    """Re-draw ``trace``'s phase sequence through the oracle walk,
    consuming its RNG stream in the same order as ``WorkloadSpec.trace``."""
    workload = trace.workload
    trans, initial = workload._input_transitions()
    rng = rng_mod.stream(workload.app.seed, "trace", workload.input_id,
                         trace.trace_id)
    state = int(rng.choice(workload.app.n_phases, p=initial))
    return _searchsorted_chain(np.cumsum(trans, axis=1), state,
                               rng.random(trace.n_intervals))


class TestPhaseChain:
    @pytest.mark.parametrize("corpus", ["hdtr", "spec2017"])
    def test_corpus_matches_searchsorted_walk(self, corpus):
        traces = (hdtr_traces(7) if corpus == "hdtr"
                  else spec2017_traces(7))
        assert len(traces) > 100
        for trace in traces:
            workload = trace.workload
            assert trace.phase_seq.dtype == np.int64
            assert np.array_equal(trace.phase_seq,
                                  _reference_phase_seq(trace)), trace.name
            assert trace.seed == rng_mod.derive_seed(
                workload.app.seed, "trace-noise", workload.input_id,
                trace.trace_id)

    def test_draw_on_a_cdf_value_takes_the_left_index(self):
        cdf = np.cumsum(np.array([[0.25, 0.25, 0.5],
                                  [0.5, 0.0, 0.5],
                                  [0.0, 0.5, 0.5]]), axis=1)
        # Every draw equals a cumulative value of some row, including
        # the repeated 0.5 of row 1 and the exact 1.0 row ends.
        draws = np.array([0.25, 0.5, 0.5, 1.0, 0.0, 0.5, 1.0, 0.25,
                          0.0, 1.0])
        for state in range(3):
            walked = phase_chain(cdf, state, draws)
            assert np.array_equal(walked,
                                  _searchsorted_chain(cdf, state, draws))
        assert phase_chain(cdf, 1, np.array([0.5, 0.0]))[1] == 0

    def test_row_below_one_clamps_to_the_last_phase(self):
        cdf = np.cumsum(np.array([[0.3, 0.3, 0.3999999],
                                  [0.1, 0.2, 0.6999999],
                                  [0.5, 0.25, 0.2499999]]), axis=1)
        assert cdf[:, -1].max() < 1.0
        draws = np.array([0.9999999999, 0.99999995, 0.3, 0.99999999,
                          1.0 - 1e-12, 0.6])
        for state in range(3):
            walked = phase_chain(cdf, state, draws)
            assert walked.max() == 2
            assert np.array_equal(walked,
                                  _searchsorted_chain(cdf, state, draws))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 300))
    def test_random_rows_match_searchsorted_walk(self, seed, n):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 8))
        cdf = np.cumsum(rng.dirichlet(np.ones(k), size=k), axis=1)
        draws = rng.random(n)
        state = int(rng.integers(0, k))
        assert np.array_equal(phase_chain(cdf, state, draws),
                              _searchsorted_chain(cdf, state, draws))
