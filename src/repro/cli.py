"""Command-line interface.

``python -m repro <command>`` exposes the library's main entry points
without writing code:

* ``demo`` — train Best RF on a small corpus and deploy it (the
  quickstart, numerically).
* ``budget`` — print the microcontroller ops-budget table (Table 3
  left).
* ``counters`` — run PF Counter Selection and print the chosen set
  (Table 4).
* ``residency`` — ideal low-power residency per held-out benchmark
  (Figure 7).
* ``evaluate`` — train a chosen model and report its deployment
  metrics (one Figure-8 row).
* ``catalog`` — summarise the 936-counter telemetry catalog.
* ``obs export-trace`` — convert a ``REPRO_TRACE`` JSON file to Chrome
  ``about:tracing`` format.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.config import (KNOB, ExecConfig, active_exec_config,
                          add_knob_flags)
from repro.errors import ConfigurationError


#: Knob-flag groups every subcommand carries, and ``serve``'s.
COMMON_GROUPS = ("exec", "obs")
SERVE_GROUPS = COMMON_GROUPS + ("serve", "online")


def _add_common(parser: argparse.ArgumentParser,
                groups: tuple[str, ...] = COMMON_GROUPS) -> None:
    seed = KNOB["seed"]
    parser.add_argument("--seed", type=int, default=None,
                        help=f"experiment seed (default: {seed.env} or "
                             f"{seed.default})")
    add_knob_flags(parser, groups)
    parser.add_argument("--exec-report", action="store_true",
                        help="print stage timings, cache hit rates, payload "
                             "bytes, worker utilisation and resilience "
                             "counters at exit")
    parser.add_argument("--obs-report", action="store_true",
                        help="print the observability report at exit: "
                             "per-stage wall time and throughput, cache "
                             "hit ratios, arena payload bytes, worker-pool "
                             "health and merged worker-side counters")


def _seed(args: argparse.Namespace) -> int:
    return args.seed if args.seed is not None else active_exec_config().seed


def cmd_demo(args: argparse.Namespace) -> int:
    from repro import quick_demo
    result = quick_demo(seed=_seed(args))
    for key, value in result.items():
        print(f"{key:20s} {value * 100:6.2f}%")
    return 0


def cmd_budget(args: argparse.Namespace) -> int:
    from repro.firmware import Microcontroller
    uc = Microcontroller()
    print(f"{'granularity':>12s} {'max uC ops':>11s} {'budget':>7s}")
    for row in uc.budget_table():
        print(f"{row.granularity:12d} {row.max_ops:11d} "
              f"{row.ops_budget:7d}")
    return 0


def cmd_counters(args: argparse.Namespace) -> int:
    from repro.core.pipeline import select_counters
    from repro.data.builders import hdtr_traces
    from repro.telemetry.collector import TelemetryCollector
    from repro.telemetry.counters import default_catalog
    from repro.workloads.categories import hdtr_corpus
    seed = _seed(args)
    collector = TelemetryCollector()
    apps = hdtr_corpus(seed)[::4]
    traces = hdtr_traces(seed, apps=apps, workloads_per_app=1,
                         intervals_per_trace=80)
    selected = select_counters(traces, collector, r=args.r)
    catalog = default_catalog()
    for rank, counter_id in enumerate(selected, start=1):
        print(f"{rank:3d}. {catalog[counter_id].name}")
    return 0


def cmd_residency(args: argparse.Namespace) -> int:
    import numpy as np
    from repro.core.labels import gating_labels
    from repro.telemetry.collector import TelemetryCollector
    from repro.workloads.spec2017 import spec2017_traces
    seed = _seed(args)
    collector = TelemetryCollector()
    traces = spec2017_traces(seed + 92, intervals_per_trace=160,
                             traces_per_workload=1)
    by_app: dict[str, list[float]] = {}
    for trace in traces:
        labels = gating_labels(trace, model=collector.model)
        by_app.setdefault(trace.app.name, []).append(labels.residency)
    means = []
    for app, values in sorted(by_app.items()):
        mean = float(np.mean(values))
        means.append(mean)
        print(f"{app:22s} {mean * 100:5.1f}%")
    print(f"{'AVERAGE':22s} {float(np.mean(means)) * 100:5.1f}%  "
          "(paper: 45.7%)")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.pipeline import build_standard_models
    from repro.data.builders import hdtr_traces
    from repro.eval.runner import evaluate_predictor
    from repro.telemetry.collector import TelemetryCollector
    from repro.workloads.categories import hdtr_corpus
    from repro.workloads.spec2017 import spec2017_traces
    seed = _seed(args)
    collector = TelemetryCollector()
    stride = 1 if args.full else 3
    apps = hdtr_corpus(seed)[::stride]
    train = hdtr_traces(seed, apps=apps, workloads_per_app=2,
                        intervals_per_trace=120)
    models = build_standard_models(train, seed=seed, collector=collector,
                                   include=[args.model],
                                   selection_traces=40)
    test = spec2017_traces(seed + 92, intervals_per_trace=200,
                           traces_per_workload=1)
    if not args.full:
        test = test[::2]
    suite = evaluate_predictor(models[args.model], test,
                               collector=collector)
    print(f"model          {args.model}")
    print(f"granularity    {suite.granularity} instructions")
    print(f"ppw_gain       {suite.mean_ppw_gain * 100:6.2f}%")
    print(f"rsv            {suite.mean_rsv * 100:6.2f}%")
    print(f"pgos           {suite.mean_pgos * 100:6.2f}%")
    print(f"residency      {suite.mean_residency * 100:6.2f}%")
    print(f"avg_perf       {suite.mean_avg_performance * 100:6.2f}%")
    worst = max(suite.per_benchmark, key=lambda b: b.rsv)
    print(f"worst_rsv_app  {worst.app_name} ({worst.rsv * 100:.1f}%)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if getattr(args, "supervise", False):
        # Process-level supervision: this parent stays tiny and
        # re-execs the daemon (same command minus --supervise) when it
        # dies uncleanly, within the configured restart budget. The
        # already-applied env config flows to the child, so checkpoint
        # and serve knobs survive the re-exec.
        from repro.serve.supervisor import run_supervised
        child = [sys.executable, "-m", "repro"] + [
            a for a in getattr(args, "_argv", sys.argv[1:])
            if a != "--supervise"]
        return run_supervised(child, active_exec_config().serve_restarts)
    from repro.serve import build_server
    server = build_server(
        args.socket, predictor_kind=args.predictor,
        n_apps=args.apps, workloads_per_app=args.workloads_per_app,
        intervals=args.intervals, seed=_seed(args))
    server.install_signal_handlers()
    server.start()
    warm = (server.checkpoint_info or {}).get("loaded", False)
    online = ""
    if server.online_enabled:
        online = (f", online gen {server.registry.generation} "
                  f"ring {server.ring.capacity}")
    print(f"serving {len(server.traces)} traces with "
          f"{server.cpu.predictor.name} on {server.address} "
          f"(in flight<={server.queue_bound} per op, "
          f"init {server.init_s * 1e3:.1f}ms "
          f"{'warm' if warm else 'cold'}{online})", flush=True)
    server.serve_forever()
    return 0


def cmd_online_status(args: argparse.Namespace) -> int:
    """Continual-adaptation surface of a running daemon's health op."""
    import json
    from repro.serve import ServeClient
    with ServeClient(args.socket) as client:
        health = client.health_status()
    doc = {
        "model_generation": health.model_generation,
        "ready": health.ready,
        "online": health.online,
    }
    print(json.dumps(doc, indent=2))
    return 0 if health.online is not None else 1


def cmd_request(args: argparse.Namespace) -> int:
    import json
    if args.oneshot:
        # Cold-start reference: answer one adapt request in-process,
        # paying the full corpus + predictor startup per invocation —
        # the bill the resident daemon amortises away.
        from repro.core.adaptive_cpu import AdaptiveCPU
        from repro.serve import const_predictor, quick_forest_predictor
        from repro.serve import serving_corpus
        from repro.serve.protocol import adapt_payload
        traces = serving_corpus(args.apps, args.workloads_per_app,
                                args.intervals, _seed(args))
        predictor = (const_predictor() if args.predictor == "const"
                     else quick_forest_predictor(traces))
        cpu = AdaptiveCPU(predictor)
        result = adapt_payload(cpu.run(traces[args.trace_index]))
        print(json.dumps({"ok": True, "op": "adapt",
                          "result": result}, indent=2))
        return 0
    from repro.serve import ServeClient
    with ServeClient(args.socket, tenant=args.tenant) as client:
        if args.op == "ping":
            response: dict = {"ok": client.ping(), "op": "ping"}
        elif args.op == "stats":
            response = {"ok": True, "op": "stats",
                        "stats": client.stats()}
        elif args.op == "health":
            response = {"ok": True, "op": "health",
                        "health": client.health()}
        elif args.op == "shutdown":
            response = client.shutdown()
        else:
            response = client.adapt(args.trace_index,
                                    budget_ms=args.budget_ms)
    print(json.dumps(response, indent=2))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.summary import write_report
    path = write_report(path=args.output)
    print(f"wrote {path}")
    return 0


def cmd_obs_export_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import export_trace_file
    out = args.output
    if out is None:
        base = args.trace_file
        out = (base[:-5] if base.endswith(".json") else base) \
            + ".chrome.json"
    info = export_trace_file(args.trace_file, out)
    print(f"run {info['run']}: {info['spans']} spans -> "
          f"{info['events']} events in {info['out']}")
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    from repro.telemetry.counters import default_catalog
    catalog = default_catalog()
    kinds: dict[str, int] = {}
    for counter in catalog.counters:
        kinds[counter.kind_name] = kinds.get(counter.kind_name, 0) + 1
    print(f"counters: {len(catalog)}")
    for kind, count in sorted(kinds.items()):
        print(f"  {kind:8s} {count}")
    print("Table-4 set:", ", ".join(
        catalog[c].name for c in catalog.table4_ids))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Predictive cluster gating reproduction "
                    "(Tarsa et al., ISCA 2019)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="train+deploy Best RF quickly")
    _add_common(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("budget", help="microcontroller ops budgets")
    _add_common(p)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("counters", help="run PF counter selection")
    _add_common(p)
    p.add_argument("-r", type=int, default=12,
                   help="number of counters to select")
    p.set_defaults(func=cmd_counters)

    p = sub.add_parser("residency", help="ideal low-power residency")
    _add_common(p)
    p.set_defaults(func=cmd_residency)

    p = sub.add_parser("evaluate", help="train and evaluate one model")
    _add_common(p)
    p.add_argument("--model", default="best_rf",
                   choices=["best_rf", "best_mlp", "charstar", "srch",
                            "srch_coarse"])
    p.add_argument("--full", action="store_true",
                   help="use the full scaled corpus (slower)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("catalog", help="summarise the counter catalog")
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("obs", help="observability utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "export-trace",
        help="convert a REPRO_TRACE JSON file to Chrome about:tracing "
             "format (load in chrome://tracing or ui.perfetto.dev)")
    _add_common(p)
    p.add_argument("trace_file", help="input obs trace JSON file")
    p.add_argument("--output", default=None,
                   help="output path (default: <input>.chrome.json)")
    p.set_defaults(func=cmd_obs_export_trace)

    p = sub.add_parser(
        "serve",
        help="run the persistent adaptation-serving daemon")
    _add_common(p, SERVE_GROUPS)
    p.add_argument("--socket", default="repro_serve.sock",
                   help="unix socket path to listen on "
                        "(default: repro_serve.sock)")
    p.add_argument("--predictor", default="forest",
                   choices=["forest", "const"],
                   help="serving model: quick-trained dual random "
                        "forest or fixed-probability stub")
    p.add_argument("--apps", type=int, default=8,
                   help="applications in the serving corpus")
    p.add_argument("--workloads-per-app", type=int, default=2,
                   help="workloads per application")
    p.add_argument("--intervals", type=int, default=96,
                   help="telemetry intervals per trace")
    p.add_argument("--supervise", action="store_true",
                   help="run under a supervising parent that re-execs "
                        "the daemon on unclean death, within the "
                        "restart budget")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "online",
        help="continual-adaptation utilities")
    online_sub = p.add_subparsers(dest="online_command", required=True)
    p = online_sub.add_parser(
        "status",
        help="model generation, ring/drift/learner state of a "
             "running daemon")
    _add_common(p)
    p.add_argument("--socket", default="repro_serve.sock",
                   help="unix socket path of the daemon")
    p.set_defaults(func=cmd_online_status)

    p = sub.add_parser(
        "request",
        help="send one request to a running serve daemon")
    _add_common(p)
    p.add_argument("--socket", default="repro_serve.sock",
                   help="unix socket path of the daemon")
    p.add_argument("--op", default="adapt",
                   choices=["adapt", "ping", "stats", "health",
                            "shutdown"])
    p.add_argument("--trace-index", type=int, default=0,
                   help="corpus trace to adapt (op=adapt)")
    p.add_argument("--tenant", default="default",
                   help="tenant name for SLA accounting")
    p.add_argument("--budget-ms", type=float, default=None,
                   help="per-request latency budget in ms")
    p.add_argument("--oneshot", action="store_true",
                   help="answer one adapt request fully in-process "
                        "(no daemon): the cold-start reference the "
                        "serving benchmark compares against")
    p.add_argument("--predictor", default="forest",
                   choices=["forest", "const"],
                   help="predictor for --oneshot")
    p.add_argument("--apps", type=int, default=8,
                   help="corpus applications for --oneshot")
    p.add_argument("--workloads-per-app", type=int, default=2,
                   help="corpus workloads per app for --oneshot")
    p.add_argument("--intervals", type=int, default=96,
                   help="corpus intervals per trace for --oneshot")
    p.set_defaults(func=cmd_request)

    p = sub.add_parser("report",
                       help="assemble benchmark outputs into REPORT.md")
    _add_common(p)
    p.add_argument("--output", default=None,
                   help="output path (default: benchmarks/REPORT.md)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The raw invocation, for commands that re-exec themselves
    # (serve --supervise rebuilds the child command from it).
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return _run(args)
    except ConfigurationError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    config = ExecConfig.from_cli(args)
    if config.fault_spec is not None:
        from repro.exec.faults import FaultPlan
        FaultPlan.parse(config.fault_spec)  # fail fast on a bad spec
    # Through the environment (not just install_exec_config) so
    # process-pool workers inherit every knob too.
    config.apply_env()
    if (args.exec_backend is not None or args.exec_workers is not None
            or args.exec_chunk is not None
            or args.exec_retries is not None
            or args.exec_timeout is not None):
        from repro.exec import configure
        configure(backend=config.backend, n_workers=config.workers,
                  chunk_size=config.chunk, retries=config.retries,
                  timeout=config.timeout)
    from repro import obs
    with obs.tracer.trace(f"repro.{args.command}"):
        status = args.func(args)
    if args.exec_report:
        print(obs.METRICS.report())
    if args.obs_report:
        print(obs.render_report())
    return status


if __name__ == "__main__":
    sys.exit(main())
