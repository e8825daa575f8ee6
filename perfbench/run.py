"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload offline_pipeline --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout. Prints a details line (environment,
per-run samples, check results) and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``. Exits non-zero, without a result, when the program
under ``src/`` is missing or a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from perfbench.layers import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    from perfbench import common, layers
    common.TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=common.TMP_ROOT)
    steal0, total0 = common.cpu_times()
    try:
        if args.workload == layers.OFFLINE:
            from perfbench import offline
            out = offline.run(args.seed, args.seconds, bool(args.trace), tmp)
        else:
            from perfbench import serving
            out = serving.run(args.seed, args.seconds, bool(args.trace),
                              tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            common.TMP_ROOT.rmdir()
        except OSError:
            pass
    steal1, total1 = common.cpu_times()
    steal_share = (steal1 - steal0) / (total1 - total0) if total1 > total0 \
        else 0.0
    metrics = (layers.per_layer(out["layers"]) if args.trace
               else layers.end_to_end(out["values"]))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace,
                      "environment": common.environment(),
                      "cpu_steal_share": steal_share,
                      "details": out["details"]}))
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
