"""The object-code post-processor of Section 5.1.

The paper's authors could not change their C compiler, so they wrote a
post-processor that finds basic blocks in the object file, performs
dependence analysis within each block, reorganises instructions to group
shared loads together, and inserts a single explicit SWITCH instruction
after each group.  This package is that post-processor, operating on
:class:`~repro.isa.program.Program` objects:

* :mod:`repro.compiler.cfg` — basic-block discovery and reassembly;
* :mod:`repro.compiler.dependence` — intra-block dependence DAGs with the
  paper's pessimistic memory aliasing (every shared store may conflict
  with every shared load);
* :mod:`repro.compiler.grouping` — the load-grouping list scheduler;
* :mod:`repro.compiler.passes` — whole-program passes and per-model code
  preparation;
* :mod:`repro.compiler.interblock` — the one-line-cache estimator of
  Section 5.2 for grouping opportunities beyond basic blocks.
"""

from repro.compiler.cfg import BasicBlock, build_blocks, reassemble
from repro.compiler.dependence import block_dependences, MemClass
from repro.compiler.grouping import group_block, GroupingReport
from repro.compiler.passes import (
    group_program,
    strip_switches,
    prepare_for_model,
    grouping_report,
    STRIPPED_SUFFIX,
)
from repro.compiler.interblock import (
    InterblockEstimate,
    oracle_config,
    estimate,
)

__all__ = [
    "BasicBlock",
    "build_blocks",
    "reassemble",
    "block_dependences",
    "MemClass",
    "group_block",
    "GroupingReport",
    "group_program",
    "strip_switches",
    "prepare_for_model",
    "grouping_report",
    "STRIPPED_SUFFIX",
    "InterblockEstimate",
    "oracle_config",
    "estimate",
]
