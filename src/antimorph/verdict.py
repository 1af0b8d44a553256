"""Report values shared by every constructive verifier.

A report PASSes iff all of its checks pass; failing checks always carry a
concrete witness. Notes record observations that are informational rather
than pass/fail (for example, instance-specific law defects).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: object = None


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    inputs: tuple = ()            # ordered (key, value) pairs
    checks: tuple = ()            # Check values
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)

    def check_map(self) -> dict:
        return {c.name: c for c in self.checks}


def check(name: str, passed: bool, witness=None) -> Check:
    return Check(name, bool(passed), witness if not passed else None)
