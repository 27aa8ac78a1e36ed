"""What one benchmark run reports."""

from __future__ import annotations

from typing import Dict, List

from corpus import result_digest, spec_id


class Outcome:
    """Operation counts, failures and metric values of one run.

    Every output check and every exact-count comparison is one attempted
    operation.  A digest mismatch, an exception, a rejected request or a
    guarded count that differs from its expected value is a failed one:
    the program's simulated output changed, which a host-speed change
    must never do.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def exact(self, actual: Dict[str, int], expected: Dict[str, int]) -> None:
        """Exact-count guard: one operation per compared count."""
        for name, value in expected.items():
            if actual.get(name) != value:
                self.fail(f"{name}: {actual.get(name)} != expected {value}")
            else:
                self.attempted += 1

    def check(self, reference: Dict[str, List], spec: Dict,
              result: Dict) -> bool:
        """Output check: one operation, failed unless *result*'s digest
        equals the shipped reference entry for *spec*."""
        key = spec_id(spec)
        expected = reference.get(key)
        if expected is None:
            self.fail(f"{key}: no reference entry")
            return False
        if result_digest(result) != expected[0]:
            self.fail(f"{key}: digest {result_digest(result)} != {expected[0]}")
            return False
        self.attempted += 1
        return True
