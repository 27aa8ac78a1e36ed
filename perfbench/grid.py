"""The two grid workloads: ``grid-cold`` and ``grid-warm``.

Both sweep the paper's 7 x 8 grid (``corpus.grid_specs``) through the
public ``repro.sweep`` with ``workers=1`` and no disk cache, and check
every result against the shipped reference.  Host times are rescaled
against the calibration workload sampled between cells (``timing.py``).
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from corpus import (
    APPS, GRID_SHAPE, HERE, MODELS, SRC, expected_counts,
    grid_specs, load_reference, result_counts, result_digest,
)
from outcome import Outcome
from timing import calibration_seconds, rescaled, timed_sweep

GRID_CELLS = len(APPS) * len(MODELS)
BACKENDS = ("interpreter", "compiled")
#: Cold starts per run that only import, so ``setup_s`` is a median
#: over several set-ups in every run.
SETUP_REPEATS = 3


def inner_seconds(seconds: Dict[str, float]) -> float:
    """Seconds the timers attribute to a layer below the engine."""
    return sum(seconds.get(name, 0.0) for name in (
        "build", "codegen", "run", "to_dict", "cache_get", "cache_put",
        "predict"))


def layer_metrics(seconds: Dict[str, float], instructions: Dict[str, int],
                  wall: float, units: int,
                  per_backend_units: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics from :class:`layers.LayerTimer` totals taken
    over *units* whole-grid sweeps lasting *wall* host seconds in all;
    times are seconds per sweep."""
    out = {
        "build_s": seconds.get("build", 0.0) / units,
        "jit.codegen_s": seconds.get("codegen", 0.0) / units,
        "machine.run_s": seconds.get("run", 0.0) / units,
        "engine.to_dict_s": seconds.get("to_dict", 0.0) / units,
        "engine.overhead_s": (wall - inner_seconds(seconds)) / units,
    }
    for backend in BACKENDS:
        count = instructions.get(backend, 0)
        out[f"machine.ns_per_instr.{backend}"] = (
            1e9 * seconds.get(f"run.{backend}", 0.0) / count if count else 0.0
        )
        runs = per_backend_units.get(backend, 0)
        for model in MODELS:
            out[f"machine.run_s.{model}.{backend}"] = (
                seconds.get(f"run.{model}.{backend}", 0.0) / runs if runs else 0.0
            )
    return out


def grid_programs(specs) -> List:
    """The lowered programs the engine built for *specs* in this process
    (hits in its per-process build cache, keyed exactly as it keys them)."""
    from repro.engine import executor

    threads = GRID_SHAPE["processors"] * GRID_SHAPE["level"]
    return [
        executor._build(spec["app"], threads, spec["model"], spec["scale"], False)[1]
        for spec in specs
    ]


def child_env() -> Dict[str, str]:
    """The environment for a child process that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn_cold(seed: int, *flags: str) -> Dict:
    """Run one ``cold_child.py`` to completion; returns its report plus
    ``spawned`` (the parent's clock just before the spawn)."""
    command = [sys.executable, str(HERE / "cold_child.py"), "--seed", str(seed),
               *flags]
    spawned = time.perf_counter()
    done = subprocess.run(command, env=child_env(), capture_output=True,
                          text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(
            f"cold child exited {done.returncode}: {done.stderr.strip()[-800:]}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["spawned"] = spawned
    return report


def grid_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    """Fresh processes, each sweeping the grid once cold on ``auto``."""
    outcome = Outcome()
    calibration: List[float] = []
    setups = []
    for _ in range(SETUP_REPEATS):
        calibration += calibration_seconds()
        report = _spawn_cold(seed, "--import-only")
        setups.append(report["import_end"] - report["spawned"])
    reports: List[Dict] = []
    started = time.perf_counter()
    while not reports or time.perf_counter() - started < seconds:
        flags = []
        if trace:
            flags.append("--trace")
            if not reports:
                flags.append("--source")
        reports.append(_spawn_cold(seed, *flags))
    expected = expected_counts(load_reference(), grid_specs(seed))
    for report in reports:
        setups.append(report["import_end"] - report["spawned"])
        calibration += report["calibration"]
        outcome.attempted += report["attempted"]
        outcome.failed += report["failed"]
        outcome.errors.extend(report["errors"])
        outcome.exact(report["sim"], expected)
        outcome.exact({"jit.entries_compiled": report["entries"]},
                      {"jit.entries_compiled": reports[0]["entries"]})
    wall = statistics.median(
        rescaled(report["sweep_s"], report["calibration"]) for report in reports)
    outcome.end_to_end = {
        "setup_s": rescaled(statistics.median(setups), calibration),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(
            report["peak_rss_kb"] for report in reports) / 1024,
    }
    if trace:
        seconds_total: Dict[str, float] = {}
        instructions: Dict[str, int] = {}
        for report in reports:
            for name, value in report["layers"].items():
                seconds_total[name] = seconds_total.get(name, 0.0) + value
            for name, value in report["instructions"].items():
                instructions[name] = instructions.get(name, 0) + value
        units = len(reports)
        layers = layer_metrics(
            seconds_total, instructions,
            sum(report["sweep_s"] for report in reports), units,
            {"compiled": units})
        imports = [report["import_end"] - report["import_start"]
                   for report in reports]
        # A unit runs from the spawn to the end of its sweep; what the
        # layers leave of it is interpreter start-up before the import.
        unit_walls = sum(report["sweep_end"] - report["spawned"]
                         for report in reports)
        layers.update({
            "import_s": statistics.median(imports),
            "jit.entries_compiled": reports[0]["entries"],
            "jit.source_kb": reports[0]["source_kb"],
            "host.calibration_ms": 1e3 * statistics.mean(calibration),
            "trace.wall_s": wall,
            "trace.accounted_share":
                (inner_seconds(seconds_total) + sum(imports)) / unit_walls,
            **expected,
        })
        outcome.per_layer = layers
    return outcome


def grid_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    """One process: fill every cache, then alternate whole-grid passes
    on the interpreter and the compiled backend."""
    from layers import LayerTimer, jit_entries

    outcome = Outcome()
    setup_calibration = calibration_seconds()
    started = time.perf_counter()
    import repro  # noqa: F401 - timed: the import is part of the set-up
    from repro.obs.runlog import peak_rss_kb

    import_s = time.perf_counter() - started
    specs = grid_specs(seed)
    reference = load_reference()
    expected = expected_counts(reference, specs)

    def verify(results) -> List[str]:
        digests = []
        totals = {"sim.cycles": 0, "sim.instructions": 0, "sim.switches": 0}
        for spec, result in zip(specs, results):
            payload = result.to_dict()
            digests.append(result_digest(payload))
            if outcome.check(reference, spec, payload):
                for name, value in zip(totals, result_counts(payload)):
                    totals[name] += value
        outcome.exact(totals, expected)
        return digests

    setup_s = import_s
    for backend in BACKENDS:
        results, elapsed = timed_sweep(specs, backend, setup_calibration)
        setup_s += elapsed
        verify(results)
    programs = grid_programs(specs)
    entries_after_setup = jit_entries(programs)

    timer = LayerTimer() if trace else None
    passes: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    calibration: List[float] = []
    pass_seconds = 0.0
    started = time.perf_counter()
    while not passes["compiled"] or time.perf_counter() - started < seconds:
        digests = {}
        for backend in BACKENDS:
            samples: List[float] = []
            with timer if timer is not None else contextlib.nullcontext():
                results, elapsed = timed_sweep(specs, backend, samples)
            pass_seconds += elapsed
            passes[backend].append(rescaled(elapsed, samples))
            calibration += samples
            digests[backend] = verify(results)
        outcome.attempted += GRID_CELLS
        for spec, one, other in zip(specs, *digests.values()):
            if one != other:
                outcome.fail(f"{spec['app']}/{spec['model']}: backends disagree")
    outcome.exact({"jit.entries_compiled": jit_entries(programs)},
                  {"jit.entries_compiled": entries_after_setup})
    # A pass on each backend, each at its median in the run.
    wall = statistics.mean(statistics.median(passes[b]) for b in BACKENDS)
    outcome.end_to_end = {
        "setup_s": rescaled(setup_s, setup_calibration),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_kb() / 1024,
    }
    if trace:
        count = sum(len(runs) for runs in passes.values())
        layers = layer_metrics(timer.seconds, timer.instructions, pass_seconds,
                               count, {b: len(passes[b]) for b in BACKENDS})
        layers.update({
            "import_s": import_s,
            "host.calibration_ms": 1e3 * statistics.mean(calibration),
            "trace.wall_s": wall,
            "trace.accounted_share": inner_seconds(timer.seconds) / pass_seconds,
            **expected,
        })
        outcome.per_layer = layers
    return outcome
