"""One grid-cold unit: a fresh interpreter that imports ``repro`` and
sweeps the 56-cell grid once on the ``auto`` backend with no disk cache.

Started by ``grid.py`` as ``python3 perfbench/cold_child.py --seed N
[--trace] [--source] [--import-only]`` with ``src`` on ``PYTHONPATH``;
prints one JSON object on stdout.  Timestamps are ``time.perf_counter``
readings, which share the system-wide monotonic clock with the parent on
Linux, so the parent can measure spawn-to-import.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from corpus import grid_specs, load_reference, result_counts
from outcome import Outcome
from timing import timed_sweep


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--source", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    import_start = time.perf_counter()
    import repro  # noqa: F401 - timed: the import is the set-up
    import_end = time.perf_counter()
    out = {"import_start": import_start, "import_end": import_end}
    if args.import_only:
        print(json.dumps(out))
        return 0

    from grid import grid_programs
    from layers import LayerTimer, jit_entries, source_kb
    from repro.obs.runlog import peak_rss_kb

    specs = grid_specs(args.seed)
    calibration: list = []
    timer = LayerTimer() if args.trace else None
    started = time.perf_counter()
    with timer if timer is not None else contextlib.nullcontext():
        results, sweep_s = timed_sweep(specs, "auto", calibration)

    reference = load_reference()
    outcome = Outcome()
    totals = [0, 0, 0]
    for spec, result in zip(specs, results):
        payload = result.to_dict()
        if outcome.check(reference, spec, payload):
            totals = [a + b for a, b in zip(totals, result_counts(payload))]
    programs = grid_programs(specs)
    out.update(
        sweep_s=sweep_s,
        # Calibration samples taken inside the sweep are not unit time.
        sweep_end=started + sweep_s,
        calibration=calibration,
        attempted=outcome.attempted,
        failed=outcome.failed,
        errors=outcome.errors,
        sim=dict(zip(("sim.cycles", "sim.instructions", "sim.switches"), totals)),
        entries=jit_entries(programs),
        peak_rss_kb=peak_rss_kb(),
    )
    if args.source:
        out["source_kb"] = source_kb(programs)
    if timer is not None:
        out["layers"] = dict(timer.seconds)
        out["instructions"] = dict(timer.instructions)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
