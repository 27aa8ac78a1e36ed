"""Traced runs: wall-clock timers around calls into each layer.

:class:`LayerTimer` wraps the public entry points of the layers a grid
sweep passes through, from the benchmark's side, and restores them on
exit; the program itself carries no new tracing.  Self times are
disjoint by construction: codegen happens lazily inside
``Simulator.run`` and is taken out of the event-loop time through the
``repro.jit.compile_seconds_for`` delta, and build, ``to_dict`` and the
result cache are never called from inside each other.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List


class LayerTimer:
    """Install with ``with LayerTimer() as layers:``; read the totals
    from :attr:`seconds` (per layer) and :attr:`instructions` (per
    backend) afterwards."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.instructions: Dict[str, int] = defaultdict(int)
        self._restore: List = []

    def _patch(self, owner, name: str, wrapper) -> None:
        original = getattr(owner, name)
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def _timed(self, layer: str):
        def wrap(original):
            def timed(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.seconds[layer] += time.perf_counter() - started
            return timed
        return wrap

    def __enter__(self) -> "LayerTimer":
        from repro import lint
        from repro.engine import cache, executor
        from repro.jit import compile_seconds_for
        from repro.machine import simulator

        def wrap_run(original):
            def run(sim):
                before = compile_seconds_for(sim.program)
                started = time.perf_counter()
                result = original(sim)
                elapsed = time.perf_counter() - started
                codegen = compile_seconds_for(sim.program) - before
                loop = elapsed - codegen
                self.seconds["codegen"] += codegen
                self.seconds["run"] += loop
                self.seconds[f"run.{sim.config.model.value}.{sim.backend}"] += loop
                self.seconds[f"run.{sim.backend}"] += loop
                self.instructions[sim.backend] += result.stats.instructions
                return result
            return run

        self._patch(executor, "_build", self._timed("build"))
        self._patch(simulator.Simulator, "run", wrap_run)
        self._patch(simulator.SimulationResult, "to_dict", self._timed("to_dict"))
        self._patch(cache.ResultCache, "get", self._timed("cache_get"))
        self._patch(cache.ResultCache, "put", self._timed("cache_put"))
        self._patch(lint, "predict_spec_cached", self._timed("predict"))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def source_kb(programs) -> float:
    """Generated source of every compiled entry of *programs*, in kB.

    Re-emits each entry through ``CompiledProgram.source_for``, so call
    it outside timed regions.
    """
    total = 0
    for program in programs:
        for variant in (getattr(program, "_jit_variants", None) or {}).values():
            for pc, fn in enumerate(variant.funcs):
                if fn is not None:
                    total += len(variant.source_for(pc).encode("utf-8"))
    return round(total / 1024, 3)


def jit_entries(programs) -> int:
    """Compiled entries over *programs* (cheap: no source re-emission)."""
    return sum(
        variant.compiled_blocks
        for program in programs
        for variant in (getattr(program, "_jit_variants", None) or {}).values()
    )
