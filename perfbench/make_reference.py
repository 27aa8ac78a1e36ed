"""Regenerate ``reference.json``: the SimStats digest of every grid cell
and every serve-universe spec, simulated on the interpreter backend.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

The reference pins the simulator against itself (the interpreter is the
reference semantics of :mod:`repro.jit`); it is not a validation of the
model against hardware.  Regenerate it only when a change is meant to
alter simulated results.
"""

from __future__ import annotations

import json
import sys

from corpus import (
    APPS, HEAVY_LATENCIES, MODELS, REFERENCE_PATH, SYNTH_KERNELS, grid_specs,
    heavy_spec, light_spec, result_counts, result_digest, spec_id,
)


def main() -> int:
    import repro

    specs = grid_specs(0)
    specs += [heavy_spec(a, m, lat) for lat in HEAVY_LATENCIES
              for a in APPS for m in MODELS]
    specs += [light_spec(k, m) for k in range(SYNTH_KERNELS) for m in MODELS]
    results = repro.sweep(specs, backend="interpreter", workers=2)
    table = {}
    for spec, result in zip(specs, results):
        payload = result.to_dict()
        table[spec_id(spec)] = [result_digest(payload), *result_counts(payload)]
    document = {
        "about": "SimStats digests from the interpreter backend; "
                 "regenerate with perfbench/make_reference.py",
        "results": dict(sorted(table.items())),
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {len(table)} entries to {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
