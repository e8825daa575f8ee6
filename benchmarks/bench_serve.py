"""Latency/throughput benchmark for the adaptation-serving daemon.

Measures the serving layer's four headline properties and writes a
machine-readable ``BENCH_serve.json`` at the repo root:

* **resident_vs_cold** — per-request adapt latency against a resident
  daemon vs one full cold CLI invocation (``repro request --oneshot``:
  fresh interpreter, corpus synthesis, predictor training, one
  answer). The daemon must be at least 10x faster at p50.
* **closed_loop** — sustained mixed load: N client threads, each
  issuing back-to-back adapt/decide requests; p50/p95/p99 per op and
  aggregate throughput.
* **open_loop** — bursty load: Poisson arrivals at a fixed offered
  rate; latency is measured from the *scheduled* arrival (queue wait
  included), plus how many requests admission control shed.
* **concurrency** — decide throughput from 1 client and from 8
  concurrent clients on one daemon, where each request runs on its
  own connection thread. The gate is that 8 clients get at least the
  1-client throughput: nothing is amortised across requests any more,
  so what it guards is that concurrency never costs throughput
  (lock contention, a serialising hand-off).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py

``--smoke`` is the CI mode: a small corpus, a short mixed load, a
generous p99 budget, response bit-identity against direct in-process
:class:`~repro.core.adaptive_cpu.AdaptiveCPU` calls, and the
``BENCH_serve.json`` staleness guard — exits non-zero on any failure.

``--concurrency-smoke`` runs the concurrency gate at CI scale (1 vs
4 clients) and exits non-zero when the concurrent throughput falls
below the single-client one. It writes no file.

``--chaos-smoke`` is the resilience CI mode: a deterministic
serve-fault plan (conn_drop, slow_peer, corrupt_frame, batch_hang —
an executor hang) is
injected under a retrying keyed client and every response must be
digest-identical to the fault-free direct run with no request lost;
then a supervised ``daemon_crash`` run (subprocess, checkpoint
fast-restart) must recover mid-stream with identical digests, a warm
restart at least 5x faster than the cold start, and no leaked worker
processes. It writes nothing by default; ``--chaos-smoke --output BENCH_serve.json`` records
its ``resilience`` section.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.obs.metrics import METRICS
from repro.serve import (ServeClient, adapt_payload, decide_payload,
                         wait_until_ready)
from repro.serve.server import AdaptationServer, build_server
from repro.uarch.modes import Mode

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The keys every ``BENCH_serve.json`` section must carry, exactly —
#: the same staleness contract ``BENCH_perf.json`` enforces: when a
#: recorded section's keys diverge from this table the file predates
#: the current benchmark and must be regenerated.
SECTION_KEYS: dict[str, frozenset] = {
    "resident_vs_cold": frozenset({
        "requests", "resident_p50_ms", "resident_p95_ms",
        "cold_oneshot_s", "cold_trials", "speedup"}),
    "closed_loop": frozenset({
        "clients", "requests", "throughput_rps", "adapt_p50_ms",
        "adapt_p95_ms", "adapt_p99_ms", "decide_p50_ms",
        "decide_p95_ms", "decide_p99_ms"}),
    "open_loop": frozenset({
        "arrival_rate_rps", "duration_s", "offered", "completed",
        "shed", "p50_ms", "p95_ms", "p99_ms"}),
    "concurrency": frozenset({
        "clients", "requests_per_client", "rounds",
        "single_throughput_rps", "concurrent_throughput_rps",
        "speedup"}),
    "resilience": frozenset({
        "chaos_requests", "injected", "watchdog_trips",
        "breaker_trips", "dedup_hits", "crash_requests", "restarts",
        "cold_init_ms", "warm_init_ms", "restart_speedup"}),
}


def _merge_bench_doc(output: Path | None, sections: dict) -> Path:
    output = output or (REPO_ROOT / "BENCH_serve.json")
    doc = {"schema": 1}
    if output.exists():
        doc = json.loads(output.read_text())
    # Sections of benchmarks that no longer exist are dropped.
    doc = {k: v for k, v in doc.items()
           if k == "schema" or k in SECTION_KEYS}
    doc.update(sections)
    output.write_text(json.dumps(doc, indent=2) + "\n")
    return output


def check_recorded_sections(path: Path) -> list[str]:
    """Key-diffs between a recorded ``BENCH_serve.json`` and this file."""
    problems = []
    if not path.exists():
        return problems
    doc = json.loads(path.read_text())
    for section in sorted(set(doc) - set(SECTION_KEYS) - {"schema"}):
        problems.append(
            f"section {section!r} is no longer measured — regenerate "
            f"BENCH_serve.json"
        )
    for section, keys in SECTION_KEYS.items():
        recorded = doc.get(section)
        if recorded is None:
            continue
        got = frozenset(recorded)
        if got != keys:
            problems.append(
                f"section {section!r}: recorded keys {sorted(got)} != "
                f"expected {sorted(keys)} — regenerate BENCH_serve.json"
            )
    return problems


def _pctl(latencies_s: list[float], q: float) -> float:
    """Percentile in milliseconds."""
    return float(np.percentile(np.asarray(latencies_s), q) * 1e3)


def _sock_path() -> str:
    return os.path.join(tempfile.mkdtemp(prefix="repro_serve_"),
                        "serve.sock")


def _start(predictor: str, corpus: dict, **knobs) -> AdaptationServer:
    server = build_server(_sock_path(), predictor_kind=predictor,
                          **corpus, **knobs)
    server.start()
    return server


def _stop(server: AdaptationServer) -> None:
    server.request_stop()
    server.serve_forever()


def _decide_window(server: AdaptationServer, rows: int = 16,
                   seed: int = 5) -> list[list[float]]:
    width = len(server.cpu.predictor.counter_ids)
    return np.random.default_rng(seed).random((rows, width)).tolist()


# ---------------------------------------------------------------------
# Sections.
# ---------------------------------------------------------------------
def bench_resident_vs_cold(server: AdaptationServer, requests: int,
                           corpus: dict, cold_trials: int) -> dict:
    """Resident per-request adapt latency vs one cold CLI invocation."""
    latencies = []
    with ServeClient(server.address) as client:
        client.adapt(0)  # warm the interval-model LRU, as a daemon is
        for i in range(requests):
            start = time.perf_counter()
            client.adapt(i % len(server.traces))
            latencies.append(time.perf_counter() - start)
    cold_best = float("inf")
    cmd = [sys.executable, "-m", "repro", "request", "--oneshot",
           "--predictor", "forest", "--trace-index", "0",
           "--apps", str(corpus["n_apps"]),
           "--workloads-per-app", str(corpus["workloads_per_app"]),
           "--intervals", str(corpus["intervals"])]
    env = {**os.environ,
           "PYTHONPATH": str(REPO_ROOT / "src")}
    for _ in range(cold_trials):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True,
                              text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(
                f"cold oneshot failed:\n{proc.stderr[-2000:]}"
            )
        cold_best = min(cold_best, elapsed)
    p50 = _pctl(latencies, 50)
    speedup = cold_best * 1e3 / p50
    print(f"resident adapt p50 {p50:.2f}ms vs cold oneshot "
          f"{cold_best:.2f}s ({speedup:.0f}x)")
    return {
        "requests": requests,
        "resident_p50_ms": round(p50, 3),
        "resident_p95_ms": round(_pctl(latencies, 95), 3),
        "cold_oneshot_s": round(cold_best, 3),
        "cold_trials": cold_trials,
        "speedup": round(speedup, 1),
    }


def bench_closed_loop(server: AdaptationServer, clients: int,
                      requests_per_client: int) -> dict:
    """Sustained mixed adapt/decide load from N closed-loop clients."""
    window = _decide_window(server)
    n_traces = len(server.traces)
    adapt_lat: list[float] = []
    decide_lat: list[float] = []
    lock = threading.Lock()

    def worker(cid: int) -> None:
        with ServeClient(server.address, tenant=f"t{cid % 4}") as c:
            for i in range(requests_per_client):
                start = time.perf_counter()
                # Deterministic 1-in-4 adapt / 3-in-4 decide mix.
                if (cid + i) % 4 == 0:
                    c.adapt((cid + i) % n_traces, budget_ms=100.0)
                    bucket = adapt_lat
                else:
                    c.decide(Mode.LOW_POWER.value, window,
                             budget_ms=50.0)
                    bucket = decide_lat
                elapsed = time.perf_counter() - start
                with lock:
                    bucket.append(elapsed)

    threads = [threading.Thread(target=worker, args=(cid,))
               for cid in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    total = clients * requests_per_client
    print(f"closed loop: {total} reqs / {clients} clients in "
          f"{wall:.2f}s ({total / wall:.0f} rps)")
    return {
        "clients": clients,
        "requests": total,
        "throughput_rps": round(total / wall, 1),
        "adapt_p50_ms": round(_pctl(adapt_lat, 50), 3),
        "adapt_p95_ms": round(_pctl(adapt_lat, 95), 3),
        "adapt_p99_ms": round(_pctl(adapt_lat, 99), 3),
        "decide_p50_ms": round(_pctl(decide_lat, 50), 3),
        "decide_p95_ms": round(_pctl(decide_lat, 95), 3),
        "decide_p99_ms": round(_pctl(decide_lat, 99), 3),
    }


def bench_open_loop(server: AdaptationServer, rate_rps: float,
                    duration_s: float, workers: int = 16,
                    seed: int = 17) -> dict:
    """Bursty Poisson arrivals at a fixed offered rate.

    Latency is measured from each request's *scheduled* arrival time,
    so a backlog shows up as latency (the open-loop property closed
    loops hide). ``shed`` counts typed busy responses.
    """
    from repro.errors import BusyError

    rng = np.random.default_rng(seed)
    arrivals = []
    t = 0.0
    while t < duration_s:
        t += float(rng.exponential(1.0 / rate_rps))
        if t < duration_s:
            arrivals.append(t)
    window = _decide_window(server)
    n_traces = len(server.traces)
    latencies: list[float] = []
    shed = [0]
    lock = threading.Lock()
    queue: list[tuple[float, int]] = [(a, i)
                                      for i, a in enumerate(arrivals)]
    queue.reverse()  # pop() from the front of the schedule
    epoch = time.perf_counter()

    def worker() -> None:
        with ServeClient(server.address) as c:
            while True:
                with lock:
                    if not queue:
                        return
                    scheduled, i = queue.pop()
                delay = (epoch + scheduled) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    if i % 4 == 0:
                        c.adapt(i % n_traces)
                    else:
                        c.decide(Mode.LOW_POWER.value, window)
                except BusyError:
                    with lock:
                        shed[0] += 1
                    continue
                done = time.perf_counter()
                with lock:
                    latencies.append(done - (epoch + scheduled))

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    print(f"open loop: offered {len(arrivals)} @ {rate_rps:.0f} rps, "
          f"completed {len(latencies)}, shed {shed[0]}, "
          f"p99 {_pctl(latencies, 99):.1f}ms")
    return {
        "arrival_rate_rps": rate_rps,
        "duration_s": duration_s,
        "offered": len(arrivals),
        "completed": len(latencies),
        "shed": shed[0],
        "p50_ms": round(_pctl(latencies, 50), 3),
        "p95_ms": round(_pctl(latencies, 95), 3),
        "p99_ms": round(_pctl(latencies, 99), 3),
    }


def bench_concurrency(corpus: dict, clients: int,
                      requests_per_client: int, rounds: int = 5) -> dict:
    """Decide throughput from 1 client vs ``clients`` concurrent ones.

    The daemon runs in its own process, as deployed: in-process, the
    load generator's threads would share the daemon's GIL and the
    section would time the harness. Each request runs on its own
    connection thread, so there is no batching to amortise per-call
    cost; the gate on this section (concurrent >= single) guards
    throughput under concurrency: contention between connection
    threads, or a lock or hand-off that serialised them, shows up as
    concurrent clients getting less done than one. The two trials
    alternate for ``rounds`` rounds and each side reports its median,
    because host speed drifts between seconds on a shared machine.
    """
    workdir = tempfile.mkdtemp(prefix="repro_conc_")
    sock = os.path.join(workdir, "serve.sock")
    cmd = [sys.executable, "-m", "repro", "serve", "--socket", sock,
           "--predictor", "forest",
           "--apps", str(corpus["n_apps"]),
           "--workloads-per-app", str(corpus["workloads_per_app"]),
           "--intervals", str(corpus["intervals"])]
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)

    def trial(n_clients: int, window: np.ndarray) -> float:
        def worker() -> None:
            with ServeClient(sock) as c:
                for _ in range(requests_per_client):
                    c.decide(Mode.LOW_POWER.value, window)

        threads = [threading.Thread(target=worker)
                   for _ in range(n_clients)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        return n_clients * requests_per_client / wall

    try:
        wait_until_ready(sock, timeout_s=120.0)
        with ServeClient(sock) as c:
            width = c.stats()["n_counters"]
            window = np.random.default_rng(5).random((16, width))
            c.decide(Mode.LOW_POWER.value, window)  # warm
        singles, concurrents = [], []
        for _ in range(rounds):
            singles.append(trial(1, window))
            concurrents.append(trial(clients, window))
        with ServeClient(sock) as c:
            c.shutdown()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    single = float(np.median(singles))
    concurrent = float(np.median(concurrents))
    speedup = concurrent / single
    print(f"concurrency: 1 client {single:.0f} rps, {clients} clients "
          f"{concurrent:.0f} rps ({speedup:.2f}x, medians of {rounds})")
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "rounds": rounds,
        "single_throughput_rps": round(single, 1),
        "concurrent_throughput_rps": round(concurrent, 1),
        "speedup": round(speedup, 3),
    }


def concurrency_failures(section: dict) -> list[str]:
    """The concurrency gate: concurrent clients must not lose
    throughput against a single client."""
    if section["speedup"] >= 1.0:
        return []
    return [f"{section['clients']} concurrent clients got "
            f"{section['concurrent_throughput_rps']} rps, below the "
            f"single-client {section['single_throughput_rps']} rps"]


# ---------------------------------------------------------------------
# Bit-identity: the daemon's answers vs direct in-process calls.
# ---------------------------------------------------------------------
def check_bit_identity(server: AdaptationServer) -> None:
    """Daemon responses must equal the direct-call projections exactly."""
    window = _decide_window(server, rows=9, seed=29)
    with ServeClient(server.address) as client:
        for index in range(min(4, len(server.traces))):
            served = client.adapt(index)["result"]
            direct = adapt_payload(server.cpu.run(server.traces[index]))
            assert served == direct, (
                f"adapt response diverged from direct run for trace "
                f"{index}: {served} != {direct}"
            )
        for mode in Mode:
            served = client.decide(mode.value, window)
            probs = server.cpu.predictor.predict_proba(
                np.asarray(window, dtype=np.float64), mode)
            threshold = server.cpu.predictor.model_for(
                mode).decision_threshold
            direct = decide_payload(probs, threshold)
            for key in ("probs", "decisions", "digest"):
                assert np.array_equal(served[key], direct[key]), (
                    f"decide {key} diverged in mode {mode.value}"
                )
    print("bit-identity: daemon == direct AdaptiveCPU (ok)")


# ---------------------------------------------------------------------
# Chaos: serve faults under a retrying client, digest-checked.
# ---------------------------------------------------------------------
def _serve_counter_deltas(before: dict) -> dict:
    """Deltas of the chaos-relevant counters since ``before``."""
    interesting = ("serve.watchdog_trips", "serve.breaker_trips",
                   "serve.dedup_hits",
                   *(f"faults.injected.{k}"
                     for k in ("conn_drop", "slow_peer",
                               "corrupt_frame", "batch_hang")))
    return {name: METRICS.count(name) - before.get(name, 0)
            for name in interesting}


def chaos_in_process(corpus: dict, requests: int = 24,
                     fault_seed: int = 3) -> dict:
    """Serve-site faults against an in-process daemon.

    Every fault on the ladder short of process death: dropped and
    corrupted response frames, mid-frame stalls, and executor hangs
    long enough to trip the watchdog (``hang_s`` > batch timeout). A
    keyed retrying client must land *every* request with a digest
    identical to the fault-free direct run — nothing silently lost,
    nothing silently wrong.
    """
    from repro.exec import faults

    server = _start("forest", corpus, batch_timeout_s=0.3)
    try:
        # Fault-free reference digests, computed via direct calls on
        # the very same CPU before any fault plan is active.
        n_traces = len(server.traces)
        expected = [adapt_payload(server.cpu.run(t))["digest"]
                    for t in server.traces]
        before = {name: METRICS.count(name)
                  for name in _serve_counter_deltas({}).keys()}
        plan = faults.FaultPlan(seed=fault_seed, conn_drop=0.25,
                                corrupt_frame=0.25, slow_peer=0.1,
                                batch_hang=0.2, hang_s=0.6)
        with faults.inject(plan):
            with ServeClient(server.address, retries=8,
                             seed=fault_seed) as client:
                for i in range(requests):
                    response = client.adapt(i % n_traces)
                    got = response["result"]["digest"]
                    want = expected[i % n_traces]
                    assert got == want, (
                        f"request {i}: digest diverged under faults "
                        f"({got} != {want})"
                    )
        deltas = _serve_counter_deltas(before)
    finally:
        _stop(server)
    injected = {k: deltas[f"faults.injected.{k}"]
                for k in ("conn_drop", "slow_peer", "corrupt_frame",
                          "batch_hang")}
    missing = [k for k in ("conn_drop", "corrupt_frame", "batch_hang")
               if injected[k] == 0]
    if missing:
        raise RuntimeError(
            f"chaos plan injected none of {missing} across "
            f"{requests} requests — the run exercised nothing; "
            f"raise the rates or change fault_seed"
        )
    print(f"chaos in-process: {requests} requests all "
          f"digest-identical under {injected} "
          f"(watchdog {deltas['serve.watchdog_trips']}, dedup "
          f"{deltas['serve.dedup_hits']})")
    return {
        "chaos_requests": requests,
        "injected": injected,
        "watchdog_trips": deltas["serve.watchdog_trips"],
        "breaker_trips": deltas["serve.breaker_trips"],
        "dedup_hits": deltas["serve.dedup_hits"],
    }


def _crash_seed(rate: float, lo: int = 3, hi: int = 8) -> int:
    """A fault seed whose first ``daemon_crash`` firing at the adapt
    dispatch site lands mid-stream (occurrence in [lo, hi))."""
    from repro.exec.faults import FaultPlan

    for seed in range(1000):
        plan = FaultPlan(seed=seed, daemon_crash=rate)
        fires = [occ for occ in range(hi)
                 if plan.fires("daemon_crash", "serve.dispatch/adapt",
                               occ)]
        if fires and fires[0] >= lo:
            return seed
    raise RuntimeError("no crash seed found")  # unreachable in practice


def chaos_supervised_crash(corpus: dict, requests: int = 12) -> dict:
    """``daemon_crash`` against a supervised subprocess daemon.

    The daemon (checkpoint-enabled, under ``--supervise``) is killed
    by an injected ``os._exit`` mid-stream; the supervising parent
    re-execs it, the replacement warm-starts from the checkpoint, and
    the retrying client's stream completes with digests identical to
    the fault-free in-process run. The warm restart must reach ready
    at least 5x faster than the cold start.
    """
    import re

    from repro.core.adaptive_cpu import AdaptiveCPU
    from repro.serve import quick_forest_predictor, serving_corpus

    seed = 7  # pinned REPRO_SEED for the child, mirrored here
    traces = serving_corpus(corpus["n_apps"],
                            corpus["workloads_per_app"],
                            corpus["intervals"], seed)
    expected = [adapt_payload(AdaptiveCPU(
        quick_forest_predictor(traces)).run(t))["digest"]
        for t in traces]

    workdir = tempfile.mkdtemp(prefix="repro_chaos_")
    sock = os.path.join(workdir, "serve.sock")
    ckpt = os.path.join(workdir, "ckpt.bin")
    fault_seed = _crash_seed(rate=0.2)
    env = {**os.environ,
           "PYTHONPATH": str(REPO_ROOT / "src"),
           "REPRO_SEED": str(seed),
           "REPRO_FAULT_SPEC": f"seed={fault_seed},daemon_crash=0.2"}
    cmd = [sys.executable, "-m", "repro", "serve", "--socket", sock,
           "--predictor", "forest",
           "--apps", str(corpus["n_apps"]),
           "--workloads-per-app", str(corpus["workloads_per_app"]),
           "--intervals", str(corpus["intervals"]),
           "--checkpoint", ckpt, "--supervise", "--serve-restarts", "3"]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        wait_until_ready(sock, timeout_s=120.0)
        with ServeClient(sock, retries=10, seed=fault_seed) as client:
            for i in range(requests):
                response = client.adapt(i % len(traces))
                got = response["result"]["digest"]
                want = expected[i % len(traces)]
                assert got == want, (
                    f"request {i}: digest diverged across the "
                    f"supervised restart ({got} != {want})"
                )
            client.shutdown()
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    inits = re.findall(r"init ([0-9.]+)ms (cold|warm)", out)
    restarts = len(re.findall(r"restarting \(", out))
    cold = [float(ms) for ms, kind in inits if kind == "cold"]
    warm = [float(ms) for ms, kind in inits if kind == "warm"]
    if proc.returncode != 0:
        raise RuntimeError(
            f"supervised daemon exited {proc.returncode}:\n{out[-2000:]}"
        )
    if not restarts or not cold or not warm:
        raise RuntimeError(
            f"supervised run never crashed+warm-restarted "
            f"(restarts={restarts}, inits={inits}):\n{out[-2000:]}"
        )
    speedup = cold[0] / warm[0]
    print(f"chaos supervised: {requests} requests across {restarts} "
          f"crash(es); init cold {cold[0]:.1f}ms -> warm "
          f"{warm[0]:.1f}ms ({speedup:.0f}x)")
    return {
        "crash_requests": requests,
        "restarts": restarts,
        "cold_init_ms": cold[0],
        "warm_init_ms": warm[0],
        "restart_speedup": round(speedup, 1),
    }


def run_chaos(args: argparse.Namespace) -> int:
    """Resilience CI mode: fault ladder + supervised crash restart."""
    corpus = {"n_apps": 4, "workloads_per_app": 1, "intervals": 64}
    section: dict = {}
    section.update(chaos_in_process(corpus))
    section.update(chaos_supervised_crash(corpus))

    failures = []
    if section["restart_speedup"] < 5.0:
        failures.append(
            f"warm restart only {section['restart_speedup']}x faster "
            f"than cold init (need >= 5x)"
        )
    import multiprocessing
    leaked = multiprocessing.active_children()
    if leaked:
        failures.append(f"{len(leaked)} worker process(es) leaked")
    if args.output is not None:
        out = _merge_bench_doc(args.output, {"resilience": section})
        print(f"wrote {out}")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("serve chaos smoke ok")
    return 1 if failures else 0


# ---------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------
def run_full(args: argparse.Namespace) -> int:
    corpus = {"n_apps": args.apps,
              "workloads_per_app": args.workloads_per_app,
              "intervals": args.intervals}
    sections: dict = {}
    server = _start("forest", corpus)
    try:
        check_bit_identity(server)
        sections["resident_vs_cold"] = bench_resident_vs_cold(
            server, requests=40, corpus=corpus, cold_trials=2)
        sections["closed_loop"] = bench_closed_loop(
            server, clients=8, requests_per_client=40)
        sections["open_loop"] = bench_open_loop(
            server, rate_rps=150.0, duration_s=4.0)
    finally:
        _stop(server)
    sections["concurrency"] = bench_concurrency(
        corpus, clients=8, requests_per_client=60)

    failures = concurrency_failures(sections["concurrency"])
    if sections["resident_vs_cold"]["speedup"] < 10.0:
        failures.append(
            f"resident p50 only "
            f"{sections['resident_vs_cold']['speedup']}x faster than "
            f"cold start (need >= 10x)"
        )
    out = _merge_bench_doc(args.output, sections)
    print(f"wrote {out}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def run_smoke(args: argparse.Namespace) -> int:
    """CI smoke: staleness guard, mixed load under a p99 budget,
    bit-identity, clean shutdown."""
    problems = check_recorded_sections(
        args.output or (REPO_ROOT / "BENCH_serve.json"))
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    corpus = {"n_apps": 4, "workloads_per_app": 1, "intervals": 64}
    server = _start("forest", corpus)
    try:
        check_bit_identity(server)
        closed = bench_closed_loop(server, clients=4,
                                   requests_per_client=10)
        budget_ms = args.p99_budget_ms
        for key in ("adapt_p99_ms", "decide_p99_ms"):
            if closed[key] > budget_ms:
                print(f"FAIL: {key} {closed[key]}ms exceeds the "
                      f"{budget_ms}ms smoke budget")
                return 1
    finally:
        _stop(server)
    import multiprocessing
    leaked = multiprocessing.active_children()
    if leaked:
        print(f"FAIL: {len(leaked)} worker process(es) leaked")
        return 1
    print("serve smoke ok")
    return 0


def run_concurrency_smoke(args: argparse.Namespace) -> int:
    """CI mode of the concurrency gate: 1 vs 4 clients."""
    corpus = {"n_apps": 4, "workloads_per_app": 1, "intervals": 64}
    section = bench_concurrency(corpus, clients=4, requests_per_client=60)
    failures = concurrency_failures(section)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("serve concurrency smoke ok")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: short mixed load, generous p99 "
                             "budget, bit-identity, staleness guard")
    parser.add_argument("--chaos-smoke", action="store_true",
                        help="resilience CI mode: injected serve "
                             "faults + supervised crash restart, "
                             "digest-checked; records the resilience "
                             "section only in an explicit --output")
    parser.add_argument("--concurrency-smoke", action="store_true",
                        help="CI mode of the concurrency gate: decide "
                             "throughput at 1 vs 4 clients; writes no "
                             "file")
    parser.add_argument("--apps", type=int, default=8)
    parser.add_argument("--workloads-per-app", type=int, default=2)
    parser.add_argument("--intervals", type=int, default=96)
    parser.add_argument("--p99-budget-ms", type=float, default=2000.0,
                        help="smoke-mode p99 latency budget")
    parser.add_argument("--output", type=Path, default=None,
                        help="bench JSON path "
                             "(default: BENCH_serve.json)")
    args = parser.parse_args()
    if args.chaos_smoke:
        return run_chaos(args)
    if args.concurrency_smoke:
        return run_concurrency_smoke(args)
    if args.smoke:
        return run_smoke(args)
    return run_full(args)


if __name__ == "__main__":
    sys.exit(main())
