"""Report values shared by every constructive verifier.

A report PASSes iff all of its checks pass; failing checks always carry a
concrete witness, and `check` refuses one that does not. Notes record
observations that are informational rather than pass/fail (for example,
instance-specific law defects).
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
    """The result of one check; a PASS keeps no witness. A FAIL without a
    witness would name no input, so it is an engine bug: RuntimeError."""
    if not passed and witness is None:
        raise RuntimeError(f"check {name} failed without a witness; "
                           "this is an engine bug")
    return Check(name, bool(passed), witness if not passed else None)
