"""Layered cold/warm/serve benchmark of the reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --report --runs 5 --seconds 30

A workload run prints, as its last stdout line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` untraced (``--trace 0``), or its per-layer
metrics traced (``--trace 1``).  ``--report`` is the steadiness report
(see ``steady.py``).  See ``README.md`` for what each workload loads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import sys

from corpus import ROOT, SRC

BENCHMARK_PATH = ROOT / "BENCHMARK.json"


def workloads():
    from grid import grid_cold, grid_warm
    from serve_closed import serve_closed

    return {"grid-cold": grid_cold, "grid-warm": grid_warm,
            "serve-closed": serve_closed}


def declared(trace: bool):
    """``name -> unit`` of the metrics a run must print, in file order."""
    with open(BENCHMARK_PATH, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in document["per_layer" if trace else "end_to_end"]}


def metrics_block(values, trace: bool):
    """The ``metrics`` object: every declared metric with its unit.

    A per-layer metric the workload does not produce is a layer the
    workload bypasses, and reads 0.  A name the workload produces that
    is not declared is a bug, and raises.
    """
    units = declared(trace)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"undeclared metrics: {unknown}")
    missing = sorted(set(units) - set(values))
    if missing and not trace:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in units.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns the result object to print."""
    outcome = workloads()[name](seed, seconds, trace)
    for error in outcome.errors:
        print(f"perfbench: {name}: {error}", file=sys.stderr)
    values = outcome.per_layer if trace else outcome.end_to_end
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics_block(values, trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="steadiness report over repeated runs")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload and mode for --report")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no sources at {SRC / 'repro'}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    if not args.report and args.workload is None:
        parser.error("--workload is required unless --report is given")
    sys.path.insert(0, str(SRC))
    # Byte-compile once up front, so no measured cold start pays for it.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    if args.report:
        from steady import report

        return report(args.runs, args.seconds,
                      [args.workload] if args.workload else sorted(workloads()))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
