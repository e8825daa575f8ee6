"""Workload ``serve_mixed``: the resident daemon under mixed traffic.

``repro serve`` (default forest predictor, 16-trace corpus) runs in
its own process. This process is the load generator: ``nproc``
closed-loop connections, one thread each, because the callers of a
real daemon (per-core controllers) each wait for their reply. Each
connection sends 1 adapt : 3 decide, and warms up untimed before the
timed phase starts.

Requests are built and parsed with the program's public client-side
API (``serve.api`` request/response types, ``serve.protocol`` frame
encode/decode), so the generator can time the codec on its own side.
After the timed phase the daemon is shut down through its
``shutdown`` op and checked for leaks, and every response digest is
compared with the same input run in-process.
"""

from __future__ import annotations

import bisect
import os
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.adaptive_cpu import AdaptiveCPU
from repro.errors import ProtocolError, ServeError
from repro.exec import ParallelMap
from repro.serve import (AdaptRequest, AdaptResponse, DecideRequest,
                         DecideResponse, ServeClient, adapt_payload,
                         decide_payload, encode_frame,
                         quick_forest_predictor, recv_frame, serving_corpus,
                         wait_until_ready)
from repro.uarch.modes import Mode

from perfbench import common, probes
from perfbench.spans import RECORDER

#: The seed ``repro serve`` uses when none is given (the experiment
#: seed); passed explicitly so the in-process reference matches.
CORPUS_SEED = 7
CONNECTIONS = os.cpu_count() or 1
#: Daemon start-ups per run; ``setup_s`` is their median.
SETUP_SPAWNS = 5
#: Equal slices of the timed phase. Latency and throughput come from
#: the requests of the KEPT_SLICES slices in which the hypervisor took
#: the least CPU time from this machine (steal, from /proc/stat). Steal
#: arrives in bursts of a few seconds and depends on other guests, not
#: on the program, so a burst in part of a run does not move its
#: figures.
SLICES = 80
KEPT_SLICES = 20
WARMUP_S = 1.0
WINDOW_ROWS = 16
ADAPT_SHARE = 0.25
#: Requests generated at a time for one connection.
CHUNK = 1024
READY_TIMEOUT_S = 60.0
#: How often start-up checks that the daemon process is still alive.
READY_CHECK_S = 0.5
STOP_TIMEOUT_S = 30.0
#: Requests replayed in-process to time the execute layer.
REPLAY_REQUESTS = 512

MODES = (Mode.HIGH_PERF, Mode.LOW_POWER)
_LEN = struct.Struct(">I")


# ---------------------------------------------------------------------
# The daemon process.
# ---------------------------------------------------------------------
def _proc_status(pid: int, field: str) -> str | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _alive(pid: int) -> bool:
    state = _proc_status(pid, "State")
    return state is not None and not state.startswith("Z")


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            pass
    return out


class Daemon:
    """One ``repro serve`` process on a fresh socket path."""

    def __init__(self, tmp: Path, tag: str) -> None:
        # Relative to the checkout root (the working directory of both
        # sides): AF_UNIX paths are limited to 107 bytes.
        self.address = os.path.relpath(tmp / f"{tag}.sock", common.ROOT)
        self.log = open(tmp / f"{tag}.log", "wb")
        start = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             self.address, "--seed", str(CORPUS_SEED)],
            cwd=common.ROOT, env=common.child_env(), stdout=self.log,
            stderr=subprocess.STDOUT)
        try:
            self._wait_ready(start)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - start

    def _wait_ready(self, start: float) -> None:
        # Polls ping in short rounds, so a daemon that dies during
        # start-up fails the run at once instead of at the timeout.
        while True:
            try:
                wait_until_ready(self.address, READY_CHECK_S, poll_s=0.002)
                return
            except ServeError:
                if self.proc.poll() is not None:
                    raise ServeError(f"daemon exited with "
                                     f"{self.proc.returncode} before "
                                     f"answering ping") from None
                if time.monotonic() - start > READY_TIMEOUT_S:
                    raise

    def peak_rss_mb(self) -> float:
        """Highest VmHWM of the daemon and its children."""
        peak = 0
        for pid in [self.proc.pid] + _children(self.proc.pid):
            value = _proc_status(pid, "VmHWM")
            if value is not None:
                peak = max(peak, int(value.split()[0]))
        return peak / 1024

    def stop(self) -> list[str]:
        """Shut down through the ``shutdown`` op; list hygiene faults."""
        children = _children(self.proc.pid)
        problems: list[str] = []
        try:
            with ServeClient(self.address, timeout_s=STOP_TIMEOUT_S) as c:
                c.shutdown()
        except (OSError, ProtocolError, ServeError) as exc:
            problems.append(f"shutdown op failed: {exc}")
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
            if code != 0:
                problems.append(f"daemon exited with code {code}")
        except subprocess.TimeoutExpired:
            problems.append("daemon did not exit after shutdown")
            self.kill()
        if os.path.exists(self.address):
            problems.append("socket path not unlinked")
        for pid in children:
            if _alive(pid):
                problems.append(f"child process {pid} survived")
                os.kill(pid, 9)
        self.log.close()
        return problems

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


# ---------------------------------------------------------------------
# Inputs and the in-process reference.
# ---------------------------------------------------------------------
class Reference:
    """The daemon's corpus and predictor, rebuilt in this process."""

    def __init__(self) -> None:
        self.traces = serving_corpus(seed=CORPUS_SEED)
        self.cpu = AdaptiveCPU(quick_forest_predictor(self.traces))
        predictor = self.cpu.predictor
        self.predictor = predictor
        #: (mode, row, counter): the corpus's normalized telemetry at
        #: the predictor's counter width, every trace stacked.
        self.telemetry = np.stack([
            np.concatenate([
                self.cpu.collector.snapshot(
                    t, mode, predictor.counter_ids).normalized
                for t in self.traces])
            for mode in MODES])
        self.serial = ParallelMap(backend="serial")

    def decide_digests(self, windows: np.ndarray,
                       modes: np.ndarray) -> list[str]:
        out = [""] * len(windows)
        for m, mode in enumerate(MODES):
            pos = np.flatnonzero(modes == m)
            if not pos.size:
                continue
            stacked = windows[pos].reshape(-1, windows.shape[2])
            probs = self.predictor.predict_proba(stacked, mode)
            threshold = self.predictor.model_for(mode).decision_threshold
            for j, p in enumerate(pos):
                out[p] = decide_payload(
                    probs[j * WINDOW_ROWS:(j + 1) * WINDOW_ROWS],
                    threshold)["digest"]
        return out

    def adapt_digests(self) -> list[str]:
        return [adapt_payload(r)["digest"]
                for r in self.cpu.run_many(self.traces, pmap=self.serial)]


class Inputs:
    """The seeded request stream of one connection.

    Each decide window is 16 rows, each row an interval drawn at a
    seeded position in the corpus telemetry of the request's mode, so
    no two requests carry the same window.
    """

    def __init__(self, seed: int, conn: int, telemetry: np.ndarray,
                 n_traces: int) -> None:
        self.rng = np.random.default_rng([seed, conn])
        self.telemetry = telemetry
        self.n_traces = n_traces
        self.adapt = np.zeros(0, dtype=bool)
        self.modes = np.zeros(0, dtype=np.int64)
        self.indices = np.zeros(0, dtype=np.int64)
        self.windows = np.zeros((0, WINDOW_ROWS, telemetry.shape[2]))
        self._extend()

    def lead_with_adapts(self) -> None:
        """Make the first requests one adapt per corpus trace, in order:
        the first adapt of a trace simulates it, and that belongs in the
        warm-up, not in the timed phase."""
        self.adapt[:self.n_traces] = True
        self.indices[:self.n_traces] = np.arange(self.n_traces)

    def _extend(self) -> None:
        rng = self.rng
        adapt = rng.random(CHUNK) < ADAPT_SHARE
        modes = rng.integers(0, len(MODES), CHUNK)
        rows = rng.integers(0, self.telemetry.shape[1],
                            (CHUNK, WINDOW_ROWS))
        indices = rng.integers(0, self.n_traces, CHUNK)
        self.adapt = np.concatenate([self.adapt, adapt])
        self.modes = np.concatenate([self.modes, modes])
        self.indices = np.concatenate([self.indices, indices])
        self.windows = np.concatenate(
            [self.windows, self.telemetry[modes[:, None], rows]])

    def wire(self, k: int, tenant: str) -> dict:
        while k >= len(self.adapt):
            self._extend()
        if self.adapt[k]:
            request = AdaptRequest(trace_index=int(self.indices[k]),
                                   tenant=tenant)
        else:
            request = DecideRequest(mode=MODES[self.modes[k]].value,
                                    window=self.windows[k].tolist(),
                                    tenant=tenant)
        wire = request.to_wire()
        wire["id"] = k
        return wire


# ---------------------------------------------------------------------
# Closed-loop connections.
# ---------------------------------------------------------------------
class _Frame:
    """A received frame, readable through ``recv_frame``."""

    def __init__(self, data: bytes) -> None:
        self._view = memoryview(data)

    def recv(self, n: int) -> bytes:
        chunk, self._view = self._view[:n], self._view[n:]
        return bytes(chunk)


class Record(NamedTuple):
    """One request as the generator saw it."""

    conn: int
    k: int  # index into the connection's input stream
    adapt: bool
    phase: str  # "warmup" or "timed"
    latency_s: float
    status: str  # "ok" or the daemon's error kind
    digest: str
    ppw_gain: float  # of an adapt response; 0 for decide
    end_s: float  # perf_counter at the parsed reply
    traced: bool


class Connection:
    """One closed-loop client: send a request, wait for its reply."""

    def __init__(self, address: str, conn: int, inputs: Inputs) -> None:
        self.conn = conn
        self.tenant = f"t{conn}"
        self.inputs = inputs
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(STOP_TIMEOUT_S)
        self.sock.connect(address)
        self.records: list[Record] = []
        self.next_k = 0

    def _read(self, n: int) -> bytes:
        parts = []
        while n:
            chunk = self.sock.recv(n)
            if not chunk:
                raise ProtocolError("daemon closed the connection")
            parts.append(chunk)
            n -= len(chunk)
        return b"".join(parts)

    def request(self, phase: str) -> None:
        k = self.next_k
        self.next_k += 1
        # In a traced run every other request is traced, so traced and
        # untraced requests share one window of time.
        if RECORDER.enabled and k % 2 == 0:
            with RECORDER.paused():
                self._request(k, phase, traced=False)
        else:
            self._request(k, phase, traced=RECORDER.enabled)

    def _request(self, k: int, phase: str, traced: bool) -> None:
        is_adapt = False
        start = time.perf_counter()
        with RECORDER.span("serve.request", request=f"{self.conn}-{k}"):
            with RECORDER.span("serve.codec"):
                wire = self.inputs.wire(k, self.tenant)
                is_adapt = wire["op"] == "adapt"
                frame = encode_frame(wire)
            with RECORDER.span("serve.wait"):
                self.sock.sendall(frame)
                header = self._read(_LEN.size)
                body = self._read(_LEN.unpack(header)[0])
            with RECORDER.span("serve.codec"):
                response = recv_frame(_Frame(header + body))
                ppw_gain = 0.0
                if response.get("ok"):
                    status = "ok"
                    if is_adapt:
                        result = AdaptResponse.from_wire(response).result
                        digest, ppw_gain = result["digest"], result["ppw_gain"]
                    else:
                        digest = DecideResponse.from_wire(response).digest
                else:
                    status = response.get("error", "error")
                    digest = ""
        end = time.perf_counter()
        self.records.append(Record(self.conn, k, is_adapt, phase,
                                   end - start, status, digest, ppw_gain,
                                   end, traced))

    def close(self) -> None:
        self.sock.close()


def _drive(conns: list[Connection], seconds: float,
           trace: bool) -> list[tuple[float, int, int]]:
    """Warm up, then run the timed phase. Returns, at each slice
    boundary, the time and the host's (steal, total) CPU times."""
    window: dict[str, float] = {}
    cpu: list[tuple[float, int, int]] = []
    barrier = threading.Barrier(len(conns) + 1)
    errors: list[BaseException] = []

    def worker(conn: Connection) -> None:
        try:
            if conn.conn == 0:
                for _ in range(conn.inputs.n_traces):
                    conn.request("warmup")
            warm_end = time.perf_counter() + WARMUP_S
            while time.perf_counter() < warm_end:
                conn.request("warmup")
            barrier.wait()
            barrier.wait()
            while time.perf_counter() < window["end"]:
                conn.request("timed")
        except Exception as exc:  # re-raised by the main thread
            errors.append(exc)
            barrier.abort()

    conns[0].inputs.lead_with_adapts()
    threads = [threading.Thread(target=worker, args=(c,), daemon=True)
               for c in conns]
    for t in threads:
        t.start()
    try:
        barrier.wait()
        window["start"] = time.perf_counter()
        window["end"] = window["start"] + seconds
        cpu.append((window["start"], *common.cpu_times()))
        RECORDER.enabled = trace
        barrier.wait()
        for i in range(1, SLICES + 1):
            time.sleep(max(0.0, window["start"] + i * seconds / SLICES
                           - time.perf_counter()))
            cpu.append((time.perf_counter(), *common.cpu_times()))
    except threading.BrokenBarrierError:
        pass
    for t in threads:
        t.join(timeout=seconds + STOP_TIMEOUT_S)
    if errors:
        raise errors[0]
    if any(t.is_alive() for t in threads):
        raise ServeError("load generator thread did not finish")
    return cpu


# ---------------------------------------------------------------------
# The workload.
# ---------------------------------------------------------------------
def _median_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def _replay(ref: Reference, conns: list[Connection],
            batch: int) -> dict[str, float]:
    """Time the daemon's execute step in-process on recorded requests."""
    out: dict[str, float] = {}
    decides = [(c, r.k) for c in conns for r in c.records
               if r.phase == "timed" and not r.adapt][:REPLAY_REQUESTS]
    adapts = [int(c.inputs.indices[r.k]) for c in conns
              for r in c.records
              if r.phase == "timed" and r.adapt][:REPLAY_REQUESTS]
    times = []
    for lo in range(0, len(decides), batch):
        group = decides[lo:lo + batch]
        start = time.perf_counter()
        for m, mode in enumerate(MODES):
            windows = [c.inputs.windows[k] for c, k in group
                       if c.inputs.modes[k] == m]
            if windows:
                probs = ref.predictor.predict_proba(
                    np.concatenate(windows), mode)
                threshold = ref.predictor.model_for(mode).decision_threshold
                for j in range(len(windows)):
                    decide_payload(probs[j * WINDOW_ROWS:
                                         (j + 1) * WINDOW_ROWS], threshold)
        times.append(time.perf_counter() - start)
    out["serve.decide.execute_us"] = _median_us(times)
    times = []
    for lo in range(0, len(adapts), batch):
        group = [ref.traces[i] for i in adapts[lo:lo + batch]]
        start = time.perf_counter()
        for result in ref.cpu.run_many(group, pmap=ref.serial):
            adapt_payload(result)
        times.append(time.perf_counter() - start)
    out["serve.adapt.execute_us"] = _median_us(times)
    return out


def _quiet_slices(timed: list, cpu: list[tuple[float, int, int]]
                  ) -> tuple[list, float, list[int], list[float]]:
    """The successful timed requests that ended in the ``KEPT_SLICES``
    slices with the least steal, those slices' total duration, the
    kept slice indices, and every slice's steal share."""
    bounds = [c[0] for c in cpu]
    shares = [(s1 - s0) / (t1 - t0) if t1 > t0 else 0.0
              for (_, s0, t0), (_, s1, t1) in zip(cpu, cpu[1:])]
    kept = sorted(sorted(range(len(shares)),
                         key=shares.__getitem__)[:KEPT_SLICES])
    keep = set(kept)
    rows = [r for r in timed if r.status == "ok"
            and bisect.bisect_right(bounds, r.end_s) - 1 in keep]
    return rows, sum(bounds[i + 1] - bounds[i] for i in kept), kept, shares


def run(seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    tmp_dir = Path(tmp)
    if trace:
        probes.install()
    ref = Reference()
    problems: list[str] = []
    setups = []
    for i in range(SETUP_SPAWNS):
        daemon = Daemon(tmp_dir, f"daemon{i}")
        setups.append(daemon.setup_s)
        if i < SETUP_SPAWNS - 1:
            problems += daemon.stop()
    conns: list[Connection] = []
    try:
        with ServeClient(daemon.address) as admin:
            health = admin.health()
            stats_before = admin.stats()
        conns = [Connection(daemon.address, c,
                            Inputs(seed, c, ref.telemetry, len(ref.traces)))
                 for c in range(CONNECTIONS)]
        cpu = _drive(conns, seconds, trace)
        RECORDER.enabled = False
        with ServeClient(daemon.address) as admin:
            stats_after = admin.stats()
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        for conn in conns:
            conn.close()
        problems += daemon.stop()

    # Correctness, after the timed phase: every response digest against
    # the same input run in-process.
    adapt_ref = ref.adapt_digests()
    mismatches = 0
    for conn in conns:
        ok = [r for r in conn.records if r.status == "ok"]
        decide = [r for r in ok if not r.adapt]
        ks = np.array([r.k for r in decide], dtype=np.int64)
        expected = ref.decide_digests(conn.inputs.windows[ks],
                                      conn.inputs.modes[ks])
        mismatches += sum(r.digest != e for r, e in zip(decide, expected))
        mismatches += sum(r.digest != adapt_ref[conn.inputs.indices[r.k]]
                          for r in ok if r.adapt)
    records = [r for c in conns for r in c.records]
    timed = [r for r in records if r.phase == "timed"]
    not_ok = sum(r.status != "ok" for r in records)
    shed = sum(r.status == "busy" for r in records)
    failed = not_ok + mismatches + len(problems)

    # The operation is one request, decide or adapt. The quality of
    # what the daemon serves is the mean PPW gain of the warm-up's
    # adapts, one per corpus trace.
    quiet, quiet_s, kept, steal = _quiet_slices(timed, cpu)
    lead = [r for r in conns[0].records[:len(ref.traces)]
            if r.adapt and r.status == "ok"]
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": common.percentile_ms(
            [r.latency_s for r in quiet], 50),
        "throughput_per_s": len(quiet) / quiet_s,
        "ppw_gain_pct": (statistics.mean(r.ppw_gain for r in lead) * 100
                         if lead else 0.0),
        "peak_rss_mb": peak_rss_mb,
    }

    def hist(stats: dict) -> tuple[int, float]:
        h = stats.get("batch_size") or {}
        return h.get("count", 0), h.get("total", 0.0)

    (n0, t0), (n1, t1) = hist(stats_before), hist(stats_after)
    batches = stats_after["batches"] - stats_before["batches"]
    batch_mean = (t1 - t0) / (n1 - n0) if n1 > n0 else 0.0
    layers = {
        "serve.batch_size_mean": batch_mean,
        "serve.flush_wait_share": ((stats_after["flush_wait"]
                                    - stats_before["flush_wait"]) / batches
                                   if batches else 0.0),
        "serve.shed": stats_after["shed"] - stats_before["shed"],
        "serve.daemon_init_s": health["init_s"],
        "ops.succeeded": len(records) - not_ok - mismatches,
    }
    for op, adapt in (("decide", False), ("adapt", True)):
        lat = [r.latency_s for r in quiet
               if r.adapt == adapt and not r.traced]
        for q in (50, 95):
            layers[f"serve.{op}.p{q}_ms"] = common.percentile_ms(lat, q)
    if trace:
        layers.update(_trace_layers(ref, conns, timed,
                                    max(1, round(batch_mean))))
    return {
        "attempted": len(records),
        "failed": failed,
        "values": values,
        "layers": layers,
        "details": {
            "timed_requests": len(timed),
            "warmup_requests": len(records) - len(timed),
            "shed": shed,
            "digest_mismatches": mismatches,
            "hygiene_problems": problems,
            "setup_runs_s": setups,
            "slice_steal_share": steal,
            "kept_slices": kept,
            "connections": CONNECTIONS,
        },
    }


def _trace_layers(ref: Reference, conns: list[Connection], timed: list,
                  batch: int) -> dict[str, float]:
    by_request: dict[str, float] = {}
    for s in RECORDER.spans:
        if s["name"] == "serve.codec" and s["request"] is not None:
            by_request[s["request"]] = (by_request.get(s["request"], 0.0)
                                        + s["end"] - s["start"])
    ok = [r for r in timed if r.status == "ok"]
    codec_by_op: dict[bool, list[float]] = {False: [], True: []}
    for r in ok:
        key = f"{r.conn}-{r.k}"
        if r.traced and key in by_request:
            codec_by_op[r.adapt].append(by_request[key])
    out: dict[str, float] = {}
    before = probes.registry_snapshot()
    mark = len(RECORDER.spans)
    RECORDER.enabled = True
    out.update(_replay(ref, conns, batch))
    RECORDER.enabled = False
    out.update(probes.layer_metrics(RECORDER.spans[mark:]))
    out.update(probes.registry_metrics(before, probes.registry_snapshot()))
    for op, adapt in (("decide", False), ("adapt", True)):
        codec = _median_us(codec_by_op[adapt])
        out[f"serve.{op}.codec_us"] = codec
        lat = [r.latency_s for r in ok if r.adapt == adapt and r.traced]
        if lat:
            out[f"serve.{op}.unattributed_us"] = (
                statistics.median(lat) * 1e6 - codec
                - out[f"serve.{op}.execute_us"])
    # Traced and untraced requests alternate in the same window. Only
    # the generator's own spans are on (the daemon runs untraced), so
    # this is the overhead of the client-side probes.
    untraced = [r.latency_s for r in ok if not r.traced]
    traced = [r.latency_s for r in ok if r.traced]
    if untraced and traced:
        out["obs.trace_overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(untraced))
    return out
