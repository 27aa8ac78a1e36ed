"""Seeded inputs, and the shipped reference every result is checked against.

Nothing here imports :mod:`repro`: the grid-cold child process imports
this module before it starts the import clock, so loading it must cost
nothing that belongs to the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"

#: The paper's seven applications (Table 1) and eight switch models
#: (Figure 1 taxonomy); ``tests/test_perfbench.py`` pins them against
#: ``repro.list_apps()`` / ``repro.list_models()``.
APPS = ("sieve", "blkmat", "sor", "ugray", "water", "locus", "mp3d")
MODELS = (
    "ideal", "switch-every-cycle", "switch-on-load", "switch-on-use",
    "explicit-switch", "switch-on-miss", "switch-on-use-miss",
    "conditional-switch",
)

#: Grid shape: the paper's 7 x 8 grid at the small scale, P=2, level 4.
GRID_SHAPE = {"processors": 2, "level": 4, "scale": "small"}

#: Serve universe.  Light jobs are ``synth:<k>:quick`` kernels on 4
#: threads; heavy jobs are small-scale paper cells at one of a few
#: latencies (the latency keeps each heavy job a distinct cache key).
SYNTH_KERNELS = 640
LIGHT_SHAPE = {"processors": 2, "level": 2, "scale": "small"}
HEAVY_LATENCIES = (100, 150, 200, 250)
#: Per seed: kernels whose 8 model variants are written to the cache
#: during setup, then kernels whose variants are requested as misses.
PRECACHED_KERNELS = 96
LIGHT_KERNELS = 512
#: Mix pattern repeated for the whole run: per block of 25 jobs, 1
#: heavy, 5 pre-cached, 19 light (4% / 20% / 76%).  Latency orders the
#: classes pre-cached <= light < heavy, so the p50 (50%) and p90 (90%)
#: both sit inside the light class, away from the 20% and 96% class
#: boundaries.
MIX_BLOCK = ("heavy",) + ("cached",) * 5 + ("light",) * 19


def grid_specs(seed: int) -> List[Dict]:
    """The 56 grid cells as keyword specs, in a seed-permuted order."""
    cells = [
        {"app": app, "model": model, **GRID_SHAPE}
        for app in APPS
        for model in MODELS
    ]
    random.Random(f"grid:{seed}").shuffle(cells)
    return cells


def light_spec(kernel: int, model: str) -> Dict:
    return {"app": f"synth:{kernel}:quick", "model": model, **LIGHT_SHAPE}


def heavy_spec(app: str, model: str, latency: int) -> Dict:
    return {"app": app, "model": model, "latency": latency, **GRID_SHAPE}


def serve_corpus(seed: int) -> Tuple[List[Dict], List[Tuple[str, Dict]]]:
    """``(precached, jobs)`` for one seed.

    *precached* is the list of specs written to the server's cache
    before load starts; *jobs* is the full ordered job sequence as
    ``(class, spec)`` pairs.  Clients consume it from the front, so the
    jobs a run completes are always a prefix of it.  Every spec in both
    lists is distinct, so a light or heavy job is always a cache miss
    and a pre-cached job is always a disk read.
    """
    rng = random.Random(f"serve:{seed}")
    kernels = list(range(SYNTH_KERNELS))
    rng.shuffle(kernels)
    cached_kernels = kernels[:PRECACHED_KERNELS]
    light_kernels = kernels[PRECACHED_KERNELS:PRECACHED_KERNELS + LIGHT_KERNELS]
    precached = [light_spec(k, m) for k in cached_kernels for m in MODELS]
    light = [light_spec(k, m) for k in light_kernels for m in MODELS]
    rng.shuffle(precached)
    rng.shuffle(light)
    # Heavy jobs come in rounds of all 56 cells, one latency per round,
    # so every run sees the same cells whatever the seed; the seed picks
    # the order within a round and the order of the latencies.
    latencies = list(HEAVY_LATENCIES)
    rng.shuffle(latencies)
    heavy = []
    for latency in latencies:
        cells = [(app, model) for app in APPS for model in MODELS]
        rng.shuffle(cells)
        heavy.extend(heavy_spec(app, model, latency) for app, model in cells)
    pools = {"heavy": iter(heavy), "cached": iter(list(precached)),
             "light": iter(light)}
    jobs: List[Tuple[str, Dict]] = []
    while True:
        for kind in MIX_BLOCK:
            spec = next(pools[kind], None)
            if spec is None:
                return precached, jobs
            jobs.append((kind, spec))


def spec_id(spec: Dict) -> str:
    """The reference-file key of a keyword spec."""
    parts = [spec["app"], spec["model"]]
    if "latency" in spec:
        parts.append(f"L{spec['latency']}")
    return "/".join(parts)


def result_digest(result: Dict) -> str:
    """Digest of one result's simulated outcome: ``wall_cycles`` plus the
    full SimStats dictionary, canonicalised through JSON so an
    in-process ``to_dict()`` and a decoded HTTP payload hash alike."""
    canonical = json.loads(json.dumps(
        {"wall_cycles": result["wall_cycles"], "stats": result["stats"]}
    ))
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def result_counts(result: Dict) -> Tuple[int, int, int]:
    """``(cycles, instructions, switches)`` of one result dictionary."""
    stats = result["stats"]
    return result["wall_cycles"], stats["instructions"], stats["switches"]


def load_reference() -> Dict[str, List]:
    """``spec id -> [digest, cycles, instructions, switches]``."""
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["results"]


def expected_counts(reference: Dict[str, List], specs) -> Dict[str, int]:
    """Reference-derived ``sim.*`` totals over *specs*."""
    totals = {"sim.cycles": 0, "sim.instructions": 0, "sim.switches": 0}
    for spec in specs:
        _digest, cycles, instructions, switches = reference[spec_id(spec)]
        totals["sim.cycles"] += cycles
        totals["sim.instructions"] += instructions
        totals["sim.switches"] += switches
    return totals
