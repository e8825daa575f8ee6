"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure from the
paper's evaluation. The expensive shared state — the scaled HDTR
training corpus, the held-out SPEC2017-like suite, and the trained
model zoo — is built once per session here.

Scale knobs: ``REPRO_SCALE`` grows the datasets toward paper scale;
outputs land in ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.config import active_exec_config
from repro.core.pipeline import build_standard_models
from repro.data.builders import hdtr_traces
from repro.eval.runner import evaluate_predictor
from repro.exec.simcache import SimCache
from repro.telemetry.collector import TelemetryCollector
from repro.workloads.spec2017 import spec2017_traces

#: Seed offset separating the held-out suite from training generation.
TEST_SEED_OFFSET = 92


@pytest.fixture(scope="session")
def seed():
    return active_exec_config().seed


@pytest.fixture(scope="session")
def simcache(tmp_path_factory):
    """One on-disk snapshot and dataset cache shared by every benchmark.

    ``REPRO_SIMCACHE_DIR`` (when set) names a persistent directory so
    warm re-runs skip snapshot materialisation and dataset assembly;
    otherwise a session-scoped temp dir still lets the benchmarks of
    one run share each other's work.
    """
    root = os.environ.get("REPRO_SIMCACHE_DIR")
    if root:
        return SimCache(Path(root))
    return SimCache(tmp_path_factory.mktemp("simcache"))


@pytest.fixture(scope="session")
def collector(simcache):
    return TelemetryCollector(simcache=simcache)


@pytest.fixture(scope="session")
def train_traces(seed):
    return hdtr_traces(seed)


@pytest.fixture(scope="session")
def test_traces(seed):
    return spec2017_traces(seed + TEST_SEED_OFFSET,
                           intervals_per_trace=240,
                           traces_per_workload=1)


@pytest.fixture(scope="session")
def standard_models(seed, collector, train_traces):
    """The full Section-7 model zoo, trained once per session."""
    return build_standard_models(train_traces, seed=seed,
                                 collector=collector)


@pytest.fixture(scope="session")
def suite_evals(standard_models, test_traces, collector):
    """Deployment evaluations per model, computed lazily and cached."""
    cache: dict[str, object] = {}

    def get(name: str):
        if name not in cache:
            cache[name] = evaluate_predictor(
                standard_models[name], test_traces, collector=collector)
        return cache[name]

    return get
