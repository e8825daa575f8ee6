"""One cache-cold run of the paper pipeline, in a fresh interpreter.

Run by ``perfbench/offline.py`` as
``python -m perfbench.offline_child '<json options>'`` with ``src`` on
``PYTHONPATH``. A fresh interpreter per run is what makes every run
cache-cold: no interval-model LRU, pool or arena survives from the
previous one. Prints one JSON line with the run's timings, outputs
and (when traced) per-layer metrics.
"""

import time

from repro.core import pipeline
from repro.data import builders
from repro.eval import runner
from repro.exec import close_pools, configure
from repro.workloads.spec2017 import spec2017_traces

IMPORTED = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from perfbench import probes  # noqa: E402
from perfbench.spans import RECORDER  # noqa: E402

#: The experiment seed ``repro evaluate`` uses. The corpus is fixed so
#: PPW and RSV are reference numbers: any change in them is a fidelity
#: change, not a different input.
CORPUS_SEED = 7
#: 131 HDTR apps x 8 workloads = 1,048 training traces; their 2,096
#: (trace, mode) pairs are twice the interval LRU's 1,024 entries.
WORKLOADS_PER_APP = 8
TRAIN_INTERVALS = 100
HELDOUT_INTERVALS = 200


def held_out(seed: int) -> list:
    """The SPEC-like held-out suite, applications in a seeded order.

    Evaluation aggregates per application in name order, so the order
    in which whole applications arrive changes scheduling and cache
    traffic but not PPW or RSV.
    """
    traces = spec2017_traces(CORPUS_SEED + 92,
                             intervals_per_trace=HELDOUT_INTERVALS,
                             traces_per_workload=1)
    by_app: dict[str, list] = {}
    for trace in traces:
        by_app.setdefault(trace.app.name, []).append(trace)
    apps = sorted(by_app)
    random.Random(seed).shuffle(apps)
    return [t for app in apps for t in by_app[app]]


def dataset_digest(built: list[dict]) -> str:
    h = hashlib.sha256()
    for datasets in built:
        for mode in sorted(datasets, key=lambda m: m.value):
            h.update(datasets[mode].x.tobytes())
            h.update(datasets[mode].y.tobytes())
    return h.hexdigest()


def main(opts: dict) -> dict:
    setup_s = IMPORTED - opts["spawn"]
    configure(backend=opts["backend"], n_workers=opts["workers"])
    if opts["trace"]:
        probes.install()
    built: list[dict] = []
    original = pipeline.dataset_from_traces

    def capture(*args, **kwargs):
        out = original(*args, **kwargs)
        built.append(out)
        return out

    pipeline.dataset_from_traces = capture
    before = probes.registry_snapshot()
    with tempfile.TemporaryDirectory(dir=opts["tmp"]) as span_dir:
        if opts["trace"]:
            RECORDER.enable(span_dir)
        with RECORDER.span("workloads.generate"):
            train = builders.hdtr_traces(
                CORPUS_SEED, workloads_per_app=WORKLOADS_PER_APP,
                intervals_per_trace=TRAIN_INTERVALS)
            test = held_out(opts["seed"])
        start = time.perf_counter()
        models = pipeline.build_standard_models(
            train, seed=CORPUS_SEED, include=["best_rf"])
        train_s = time.perf_counter() - start
        start = time.perf_counter()
        suite = runner.evaluate_predictor(models["best_rf"], test)
        deploy_s = time.perf_counter() - start
        close_pools()
        spans = RECORDER.spans + RECORDER.collect_flushed()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    layers = {}
    if opts["trace"]:
        layers = probes.layer_metrics(spans)
        layers.update(probes.registry_metrics(
            before, probes.registry_snapshot()))
    return {
        "setup_s": setup_s,
        "train_s": train_s,
        "deploy_s": deploy_s,
        "ppw_gain_pct": suite.mean_ppw_gain * 100,
        "rsv_pct": suite.mean_rsv * 100,
        "peak_rss_mb": peak_kb / 1024,
        "dataset_digest": dataset_digest(built),
        "train_traces": len(train),
        "test_traces": len(test),
        "test_order": [t.name for t in test],
        "layers": layers,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
