"""The compiled backend's processor: block dispatch over generated code.

:class:`CompiledProcessor` is a drop-in :class:`~repro.machine.processor.
Processor` whose ``_burst`` dispatches pre-compiled block functions
(:mod:`repro.jit.codegen`) instead of interpreting instruction by
instruction.  Everything around the hot loop — event entry points,
round-robin scheduling, the NACK/retry protocol — is inherited, and the
burst ends in the interpreter's own ``_end_burst``, so the two backends
produce bit-identical :class:`~repro.machine.stats.SimStats` and tracer
event streams.  Switch-every-cycle never reaches this class: its
one-instruction bursts give block dispatch nothing to amortize, so the
simulator runs that model on the interpreter.
"""

from __future__ import annotations

from typing import List, Optional

from repro.machine.cache import Cache
from repro.machine.processor import Processor
from repro.machine.thread import ThreadContext
from repro.jit.codegen import CONTINUE, compiled_for


class CompiledProcessor(Processor):
    """One multithreaded processor executing compiled block functions."""

    def __init__(
        self,
        sim,
        pid: int,
        threads: List[ThreadContext],
        cache: Optional[Cache],
    ):
        super().__init__(sim, pid, threads, cache)
        self._compiled = compiled_for(
            sim.program,
            model=self.model,
            traced=sim.tracer is not None,
            oracle_on=self.oracle is not None,
            cached=cache is not None,
            faulted=sim._fault_plan is not None,
        )
        self._funcs = self._compiled.funcs

    def _burst(self, thread: ThreadContext, now: int):
        """Dispatch block functions until a burst-ending outcome.

        The block functions carry the per-instruction semantics; this
        loop carries the burst state and hands it to ``_end_burst``.
        """
        funcs = self._funcs
        t = now
        deadline = now + self.burst_limit
        pc = thread.pc
        run0 = thread.run_cycles - now  # run length = run0 + t at any point
        n_instr = 0
        while True:
            fn = funcs[pc]
            if fn is None:
                fn = self._compiled.ensure(pc)
            outcome, t, pc, n, resume, flush = fn(self, thread, t, deadline, run0)
            n_instr += n
            if outcome != CONTINUE:
                break
        return self._end_burst(
            thread, now, t, pc, n_instr, run0, outcome, resume, flush
        )
