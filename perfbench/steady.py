"""Steadiness report: is the benchmark steady enough to gate a change?

``python3 perfbench/run.py --report --runs N --seconds S`` runs every
workload as two independent sets of *N* untraced runs (seeds 1..N each
time, every run in a fresh process, as a gate would run them) and *N*
traced runs.  For every end-to-end metric it prints each set's median,
quartiles and spread (interquartile distance over the median) next to
the metric's bound, and flags a spread wider than the bound or a second
median worse than the first by more than the bound.  It then prints the
tracing overhead (traced over untraced ``wall_s``) and checks that the
exact counts read the same in every traced run that should agree.
Exits 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from typing import Dict, List

from corpus import HERE, ROOT
from run import BENCHMARK_PATH
from stats import spread

#: Per-layer counts that depend only on the code, never on the host.
#: The grid workloads sweep the same 56 cells whatever the seed, so
#: there they must agree across seeds too.
EXACT = ("sim.cycles", "sim.instructions", "sim.switches",
         "jit.entries_compiled", "jit.source_kb")


def _run(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _values(results: List[Dict], name: str) -> List[float]:
    return [result["metrics"][name]["value"] for result in results]


def report(runs: int, seconds: float, workloads: List[str]) -> int:
    with open(BENCHMARK_PATH, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    metrics = document["end_to_end"]
    flagged = 0
    for workload in workloads:
        sets = []
        for _ in range(2):
            sets.append([_run(workload, seed, seconds, 0)
                         for seed in range(1, runs + 1)])
        traced = [_run(workload, seed, seconds, 1)
                  for seed in range(1, runs + 1)]
        failed = sum(r["failed"] for r in sets[0] + sets[1] + traced)
        attempted = sum(r["attempted"] for r in sets[0] + sets[1] + traced)
        print(f"\n== {workload}: {runs} runs x 2 sets + {runs} traced, "
              f"{seconds:g} s each; {failed} of {attempted} operations failed")
        flagged += failed > 0
        print(f"{'metric':<14} {'unit':<7} {'set':<3} {'median':>11} "
              f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  flag")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for index, results in enumerate(sets, 1):
                values = _values(results, name)
                q1, _q2, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                medians.append(median)
                width = spread(values)
                flag = ""
                if width > bound and name != "setup_s":
                    flag = "WIDE"
                    flagged += 1
                elif width > bound / 3 and name != "setup_s":
                    flag = "over a third of bound"
                print(f"{name:<14} {metric['unit']:<7} {index:<3} {median:>11.5g} "
                      f"{q1:>11.5g} {q3:>11.5g} {width:>7.4f} {bound:>6.3f}  {flag}")
            first, second = medians
            worse = (second - first) / first
            if metric["better"] == "higher":
                worse = -worse
            drift_flag = "DRIFT" if worse > bound else ""
            flagged += bool(drift_flag)
            print(f"{'':<14} {'':<7} second median worse by {worse:+.4f} "
                  f"(bound {bound:.3f})  {drift_flag}")
        untraced = statistics.median(_values(sets[0] + sets[1], "wall_s"))
        traced_wall = statistics.median(_values(traced, "trace.wall_s"))
        print(f"tracing overhead: traced wall_s {traced_wall:.5g} s vs "
              f"untraced {untraced:.5g} s ({traced_wall / untraced - 1:+.2%})")
        shares = _values(traced, "trace.accounted_share")
        print(f"layer self times account for {min(shares):.3f}.."
              f"{max(shares):.3f} of traced wall")
        # Serve layers are per-job stage times in ms; grid layers are
        # seconds per 56-spec unit.
        unit = "ms" if workload == "serve-closed" else "s"
        ranked = sorted(
            (m["name"] for m in document["per_layer"]
             if m["unit"] == unit and m["name"].count(".") < 2
             and not m["name"].startswith(("trace.", "host.", "client.latency"))),
            key=lambda n: -statistics.median(_values(traced, n)))
        print("largest layers (median): " + ", ".join(
            f"{n}={statistics.median(_values(traced, n)):.4g} {unit}"
            for n in ranked[:4]))
        for name in EXACT:
            values = _values(traced, name)
            if workload.startswith("grid") and len(set(values)) != 1:
                print(f"EXACT COUNT DIFFERS: {name} {values}")
                flagged += 1
        print("exact counts: " + ", ".join(
            f"{name}={sorted(set(_values(traced, name)))}" for name in EXACT))
    print(f"\n{flagged} flag(s)")
    return 1 if flagged else 0
