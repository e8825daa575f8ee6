"""Tests for the observability layer (``repro.obs``).

The contract: metrics and spans *observe* — they never change results.
Worker-side observations ship home through the chunk-result sidecar,
so a parallel run's merged registry matches a serial run's registry
exactly, and spans recorded inside process-pool workers appear in the
parent's trace with their worker pids intact. Disabled, the tracer
costs one branch and allocates nothing.
"""

import json
import multiprocessing
import time

import pytest

from repro.config import ExecConfig
from repro.errors import DatasetError
from repro.exec import ParallelMap, close_pools
from repro.exec import parallel as parallel_mod
from repro.obs import (METRICS, Metrics, from_chrome_trace, render_report,
                       to_chrome_trace, tracer)
from repro.obs.export import export_trace_file
from repro.obs.tracer import validate_trace


def _double(i):
    return i * 2


def _bump_and_double(i):
    METRICS.incr("obs_test.work")
    return i * 2


def _spanned_double(i):
    with tracer.span("obs_test.item", item=i):
        return i * 2


@pytest.fixture(autouse=True)
def _quiet_tracer():
    """Every test starts and ends with the tracer off and drained."""
    tracer.disable()
    tracer.reset()
    yield
    tracer.disable()
    tracer.reset()


# ---------------------------------------------------------------------
# Metrics registry.
# ---------------------------------------------------------------------
class TestMetrics:
    def test_counters_gauges_histograms(self):
        m = Metrics()
        m.incr("c", 3)
        m.incr("c")
        m.gauge_add("g", 2)
        m.gauge_add("g", -1)
        m.observe("h", 10.0)
        m.observe("h", 30.0)
        assert m.count("c") == 4
        assert m.gauge("g") == 1
        snap = m.snapshot()
        assert snap["gauges"]["g"] == 1
        h = snap["histograms"]["h"]
        assert (h["count"], h["min"], h["max"]) == (2, 10.0, 30.0)
        assert h["mean"] == 20.0

    def test_delta_contains_only_changes_since_mark(self):
        m = Metrics()
        m.incr("before")
        mark = m.mark()
        m.incr("after", 2)
        m.observe("h", 5.0)
        with m.stage("s"):
            pass
        delta = m.delta(mark)
        assert delta["counters"] == {"after": 2}
        assert "before" not in delta["counters"]
        assert delta["hists"]["h"]["count"] == 1
        assert delta["stages"]["s"]["calls"] == 1

    def test_merge_folds_a_foreign_delta(self):
        m = Metrics()
        delta = {
            "pid": -1,  # never equals os.getpid()
            "stages": {"s": {"calls": 2, "wall_s": 1.0, "busy_s": 0.5,
                             "workers": 1, "capacity_s": 1.0}},
            "counters": {"c": 7},
            "hists": {"h": {"count": 2, "total": 6.0, "min": 1.0,
                            "max": 5.0}},
        }
        assert m.merge(delta) is True
        assert m.count("c") == 7
        assert m.snapshot()["stages"]["s"]["calls"] == 2
        assert m.snapshot()["histograms"]["h"]["max"] == 5.0

    def test_merge_refuses_same_pid_delta(self):
        """A thread 'worker' shares the registry; merging its delta
        would double-count every observation."""
        import os
        m = Metrics()
        m.incr("c")
        delta = m.delta(m.mark())
        delta["pid"] = os.getpid()
        delta["counters"] = {"c": 1}
        assert m.merge(delta) is False
        assert m.count("c") == 1

    def test_worker_merge_equals_serial_bit_for_bit(self):
        """The headline invariant: counters bumped inside process-pool
        workers arrive in the parent exactly as a serial run would
        have recorded them."""
        close_pools()
        items = list(range(12))
        serial_before = METRICS.count("obs_test.work")
        serial = ParallelMap(backend="serial").map(
            _bump_and_double, items, stage="obs_serial")
        serial_delta = METRICS.count("obs_test.work") - serial_before

        par_before = METRICS.count("obs_test.work")
        merges_before = METRICS.count("obs.worker_merges")
        par = ParallelMap(backend="process", n_workers=2,
                          chunk_size=3).map(
            _bump_and_double, items, stage="obs_process")
        par_delta = METRICS.count("obs_test.work") - par_before

        assert par == serial
        assert par_delta == serial_delta == len(items)
        assert METRICS.count("obs.worker_merges") > merges_before
        close_pools()

    def test_report_mentions_gauges_and_histograms(self):
        m = Metrics()
        m.gauge_add("g", 1)
        m.observe("h", 2.0)
        text = m.report()
        assert "gauges:" in text and "histograms:" in text


# ---------------------------------------------------------------------
# Tracer.
# ---------------------------------------------------------------------
class TestTracerDisabled:
    def test_disabled_span_is_the_shared_singleton(self):
        assert not tracer.enabled()
        a = tracer.span("x", foo=1)
        b = tracer.span("y")
        assert a is b  # zero-allocation fast path

    def test_disabled_records_nothing(self):
        with tracer.span("x"):
            with tracer.span("y"):
                pass
        assert tracer.spans_snapshot() == []

    def test_disabled_trace_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        out = tmp_path / "t.json"
        with tracer.trace("run", path=str(out)):
            pass
        assert not out.exists()


class TestTracerEnabled:
    def test_span_nesting_links_parents(self):
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = {s["name"]: s for s in tracer.spans_snapshot()}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None

    def test_thread_backend_spans_nest_per_thread(self):
        close_pools()
        tracer.enable()
        pmap = ParallelMap(backend="thread", n_workers=2, chunk_size=2)
        out = pmap.map(_spanned_double, range(8), stage="obs_tspan")
        assert out == [i * 2 for i in range(8)]
        spans = tracer.spans_snapshot()
        items = [s for s in spans if s["name"] == "obs_test.item"]
        chunks = {s["id"]: s for s in spans if s["name"] == "exec.chunk"}
        assert len(items) == 8
        # Every item span hangs off the exec.chunk span of its thread.
        assert all(s["parent"] in chunks for s in items)
        close_pools()

    def test_attrs_and_set(self):
        tracer.enable()
        with tracer.span("s", a=1) as sp:
            sp.set(b=2)
        [span] = tracer.spans_snapshot()
        assert span["attrs"] == {"a": 1, "b": 2}

    def test_trace_writes_valid_document(self, tmp_path, monkeypatch):
        out = tmp_path / "trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(out))
        with tracer.trace("unit.run"):
            with tracer.span("step", k=1):
                pass
        doc = json.loads(out.read_text())
        assert validate_trace(doc) == []
        assert doc["run"] == "unit.run"
        assert {s["name"] for s in doc["spans"]} == {"unit.run", "step"}
        assert tracer.last_trace_path() == str(out)

    def test_validate_rejects_corrupt_documents(self):
        assert validate_trace([]) != []
        assert any("schema" in p for p in validate_trace({"schema": 99}))
        doc = {"schema": 1, "run": "r", "pid": 1, "started_unix": 0.0,
               "duration_s": 0.0, "dropped_spans": 0, "metrics": {},
               "spans": [{"name": "s", "id": "1:1", "parent": "1:999",
                          "pid": 1, "tid": 1, "start_s": 0.0,
                          "dur_s": -1.0, "attrs": {}}]}
        problems = validate_trace(doc)
        assert any("negative duration" in p for p in problems)
        assert any("does not resolve" in p for p in problems)

    def test_worker_spans_absorbed_with_worker_pid(self, tmp_path,
                                                   monkeypatch):
        """Spans opened inside process-pool workers ride the sidecar
        home and land in the parent's buffer under the worker's pid."""
        import os
        close_pools()  # fresh pools must fork with REPRO_TRACE set
        out = tmp_path / "t.json"
        monkeypatch.setenv("REPRO_TRACE", str(out))
        tracer.refresh()
        pmap = ParallelMap(backend="process", n_workers=2, chunk_size=2)
        result = pmap.map(_spanned_double, range(8), stage="obs_pspan")
        assert result == [i * 2 for i in range(8)]
        items = [s for s in tracer.spans_snapshot()
                 if s["name"] == "obs_test.item"]
        assert len(items) == 8
        worker_pids = {s["pid"] for s in items}
        assert os.getpid() not in worker_pids
        # ids are "<pid>:<seq>", so worker ids can never collide with
        # parent ids even though both counters start at 1.
        assert all(s["id"].startswith(f"{s['pid']}:") for s in items)
        close_pools()


class TestSpanSampling:
    """Above half-capacity the tracer keeps every Nth span instead of
    truncating the head; the policy is counter-based so it never
    consumes randomness or changes results."""

    def test_tail_kept_by_deterministic_sampling(self, monkeypatch):
        monkeypatch.setattr(tracer, "MAX_SPANS", 40)
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "4")
        tracer.refresh()
        tracer.enable()
        for i in range(200):
            with tracer.span("s", i=i):
                pass
        # 20 verbatim below half-full, then every 4th of the next 80
        # admissions (20 kept, 60 sampled out) fills the buffer; the
        # final 100 hit the hard cap.
        assert len(tracer.spans_snapshot()) == 40
        stats = tracer.sample_stats()
        assert stats["sample_rate"] == 4
        assert stats["sampled_out"] == 60
        assert stats["dropped"] == 100
        monkeypatch.delenv("REPRO_TRACE_SAMPLE")
        tracer.refresh()

    def test_rate_one_restores_drop_at_cap(self, monkeypatch):
        monkeypatch.setattr(tracer, "MAX_SPANS", 40)
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "1")
        tracer.refresh()
        tracer.enable()
        for i in range(60):
            with tracer.span("s", i=i):
                pass
        assert len(tracer.spans_snapshot()) == 40
        stats = tracer.sample_stats()
        assert stats["sampled_out"] == 0
        assert stats["dropped"] == 20
        monkeypatch.delenv("REPRO_TRACE_SAMPLE")
        tracer.refresh()

    def test_trace_doc_records_sampling_fields(self, tmp_path,
                                               monkeypatch):
        out = tmp_path / "t.json"
        monkeypatch.setenv("REPRO_TRACE", str(out))
        with tracer.trace("unit.sample"):
            pass
        doc = json.loads(out.read_text())
        assert validate_trace(doc) == []
        assert doc["sampled_spans"] == 0
        assert doc["sample_rate"] == ExecConfig().trace_sample


class TestTracedRunsAreBitIdentical:
    def test_traced_equals_untraced(self, tmp_path, monkeypatch):
        close_pools()
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        tracer.refresh()
        plain = ParallelMap(backend="process", n_workers=2,
                            chunk_size=3).map(
            _double, range(10), stage="obs_plain")
        close_pools()
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.json"))
        tracer.refresh()
        with tracer.trace("bit.identity"):
            traced = ParallelMap(backend="process", n_workers=2,
                                 chunk_size=3).map(
                _double, range(10), stage="obs_traced")
        assert traced == plain
        close_pools()


# ---------------------------------------------------------------------
# Pool hygiene: the pools_open gauge and the degradation ladder.
# ---------------------------------------------------------------------
class TestPoolGauge:
    def test_ladder_leaks_no_pool(self, monkeypatch):
        """A process pool rebuilt once and then degraded to threads
        must be fully drained by close_pools: the pools_open gauge
        returns to zero and no child processes survive."""
        close_pools()
        assert METRICS.gauge("parallel.pools_open") == 0
        monkeypatch.setenv("REPRO_FAULT_SPEC", "seed=0,crash=1.0")
        pmap = ParallelMap(backend="process", n_workers=2,
                           chunk_size=3, retries=2)
        degrades = METRICS.count("parallel.degrade_thread")
        assert pmap.map(_double, range(10),
                        stage="obs_ladder") == [i * 2 for i in range(10)]
        assert METRICS.count("parallel.degrade_thread") == degrades + 1
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        close_pools()
        assert METRICS.gauge("parallel.pools_open") == 0
        assert not parallel_mod._POOLS
        assert not parallel_mod._DISCARDED_POOLS
        # Children from earlier tests' poisoned pools (e.g. the shm
        # hang test's fault-injected workers) can still be mid-exit;
        # give the reaper a bounded moment instead of racing it.
        deadline = time.perf_counter() + 10.0
        while (multiprocessing.active_children()
               and time.perf_counter() < deadline):
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_close_pools_is_idempotent(self):
        close_pools()
        baseline = METRICS.gauge("parallel.pools_open")
        assert baseline == 0
        close_pools()  # second close must not decrement anything
        assert METRICS.gauge("parallel.pools_open") == 0


# ---------------------------------------------------------------------
# Chrome trace export.
# ---------------------------------------------------------------------
class TestChromeExport:
    def _doc(self, tmp_path, monkeypatch):
        out = tmp_path / "trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(out))
        with tracer.trace("export.run"):
            with tracer.span("outer", k=1):
                with tracer.span("inner", label="x"):
                    pass
        return out, json.loads(out.read_text())

    def test_round_trip_is_lossless(self, tmp_path, monkeypatch):
        _, doc = self._doc(tmp_path, monkeypatch)
        chrome = to_chrome_trace(doc)
        assert chrome["displayTimeUnit"] == "ms"
        assert chrome["otherData"]["run"] == "export.run"
        meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        assert meta and all(e["name"] == "process_name" for e in meta)
        spans = from_chrome_trace(chrome)
        assert len(spans) == len(doc["spans"])
        for got, want in zip(spans, doc["spans"]):
            for field in ("name", "id", "parent", "pid", "tid", "attrs"):
                assert got[field] == want[field], field
            # Timestamps pass through a seconds -> µs -> seconds
            # conversion; everything else must survive exactly.
            assert got["start_s"] == pytest.approx(want["start_s"],
                                                   abs=1e-9)
            assert got["dur_s"] == pytest.approx(want["dur_s"], abs=1e-9)

    def test_invalid_document_rejected(self):
        with pytest.raises(DatasetError, match="not a valid obs trace"):
            to_chrome_trace({"schema": 99})

    def test_export_trace_file(self, tmp_path, monkeypatch):
        src, doc = self._doc(tmp_path, monkeypatch)
        dst = tmp_path / "trace.chrome.json"
        info = export_trace_file(str(src), str(dst))
        assert info["run"] == "export.run"
        assert info["spans"] == len(doc["spans"])
        chrome = json.loads(dst.read_text())
        assert len(chrome["traceEvents"]) == info["events"]
        assert ({s["name"] for s in from_chrome_trace(chrome)}
                == {s["name"] for s in doc["spans"]})


# ---------------------------------------------------------------------
# Report.
# ---------------------------------------------------------------------
class TestRenderReport:
    def test_report_renders_all_sections(self):
        m = Metrics()
        with m.stage("stage_a"):
            pass
        m.incr("stage_a.items", 100)
        m.incr("simcache.hit", 3)
        m.incr("simcache.miss", 1)
        m.incr("train.payload_tasks", 2)
        m.incr("train.payload_bytes", 1024)
        m.incr("parallel.pool_create", 1)
        m.gauge_add("parallel.pools_open", 1)
        m.incr("parallel.retries", 2)
        m.observe("adaptive_infer.batch_rows", 512)
        m.incr("obs.worker_merges", 4)
        m.incr("serve.requests", 5)
        for _ in range(3):
            m.add_time("serve.decide.execute", 0.0003)
        m.incr("adaptive_prepare.resident_hit", 7)
        m.incr("adaptive_prepare.resident_miss", 2)
        m.gauge_set("adaptive_prepare.resident_entries", 2)
        text = render_report(m)
        assert "per-stage profile" in text
        assert "stage_a" in text
        assert "75.0%" in text  # simcache hit ratio
        assert "512 B/task" in text
        assert "open now 1" in text
        assert "parallel.retries" in text
        assert "batch shapes" in text
        assert "worker metric deltas merged: 4" in text
        assert "serving: 5 requests, 3 executed, 0 shed" in text
        assert "decide stages (mean)" in text
        assert "execute 300us" in text
        assert ("resident prepared-run memo: 7 hits / 2 misses, "
                "2 entries") in text

    def test_empty_registry_reports_nothing_recorded(self):
        assert "(nothing recorded)" in render_report(Metrics())
