"""Whole-program compiler passes and per-model code preparation."""

from __future__ import annotations

from typing import Tuple

from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.machine.models import SwitchModel
from repro.compiler.cfg import build_blocks, reassemble
from repro.compiler.grouping import group_block, GroupingReport


def group_program(program: Program, name_suffix: str = "+grouped") -> Program:
    """Run the Section 5.1 post-processor over every basic block."""
    grouped, _report = _group_with_report(program, name_suffix)
    return grouped


def grouping_report(program: Program) -> GroupingReport:
    """Static grouping statistics without keeping the transformed code."""
    _grouped, report = _group_with_report(program, "+grouped")
    return report


def _group_with_report(
    program: Program, name_suffix: str
) -> Tuple[Program, GroupingReport]:
    report = GroupingReport()
    blocks = build_blocks(program)
    for block in blocks:
        block.instructions = group_block(block.instructions, report)
    return reassemble(blocks, program.name + name_suffix), report


#: Suffix appended by :func:`strip_switches`.  Program names are cosmetic
#: and feed no cache key (``tests/test_compiler_grouping.py`` pins the
#: spec and config keys to prove it).
STRIPPED_SUFFIX = "-noswitch"


def strip_switches(program: Program) -> Program:
    """Remove every SWITCH instruction (for the split-phase use models,
    which wait at the first *use* instead of at an explicit switch)."""
    blocks = build_blocks(program)
    for block in blocks:
        block.instructions = [
            ins for ins in block.instructions if ins.op is not Op.SWITCH
        ]
    return reassemble(blocks, program.name + STRIPPED_SUFFIX)


def prepare_for_model(
    program: Program, model: SwitchModel, lint: bool = False
) -> Program:
    """Produce the code a given machine model would run.

    * switch-on-load / switch-on-miss / ideal / switch-every-cycle run
      the original code;
    * explicit-switch and conditional-switch run grouped code;
    * the use models run grouped code with the SWITCH opcodes stripped
      (grouping still clusters the loads ahead of their uses).

    With ``lint=True`` the result is statically verified against the
    paper's invariants (:mod:`repro.lint`) before it is returned;
    error-severity diagnostics raise :class:`repro.lint.LintError`.
    """
    if not model.wants_grouped_code:
        prepared = program
    else:
        grouped = group_program(program)
        if not model.wants_switch_instructions:
            prepared = strip_switches(grouped)
        else:
            prepared = grouped
    if lint:
        from repro.lint import lint_pair  # local import: lint imports us

        lint_pair(program, prepared, model).raise_on_error()
    return prepared
