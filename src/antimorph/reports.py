"""Machine-readable run records.

The record stream is line-delimited JSON with a fixed field order; the text
rendering is derived from it, so the records are the single source of truth.
Records deliberately carry no timing or timestamps: identical configuration
must produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ParseError
from .verdict import TheoremReport


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    inputs: tuple          # ordered (key, value) pairs
    status: str            # PASS | FAIL
    witness: str | None = None
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


@dataclass(frozen=True)
class ReportBundle:
    config: tuple          # ordered (key, value) pairs
    records: tuple

    @property
    def passed_count(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def failed_count(self) -> int:
        return len(self.records) - self.passed_count

    @property
    def all_passed(self) -> bool:
        return self.failed_count == 0


def records_from_report(report: TheoremReport) -> list:
    """Flatten a verifier report into one record per check."""
    out = []
    for c in report.checks:
        out.append(CheckRecord(
            check_id=f"{report.theorem}/{c.name}",
            inputs=tuple(report.inputs),
            status="PASS" if c.passed else "FAIL",
            witness=None if c.passed else repr(c.witness),
            notes=tuple(report.notes) if c is report.checks[0] else (),
        ))
    return out


def emit_records(bundle: ReportBundle) -> str:
    lines = [json.dumps({"kind": "config", "fields": list(map(list, bundle.config))})]
    for r in bundle.records:
        lines.append(json.dumps({
            "kind": "check",
            "id": r.check_id,
            "inputs": list(map(list, r.inputs)),
            "status": r.status,
            "witness": r.witness,
            "notes": list(r.notes),
        }))
    lines.append(json.dumps({
        "kind": "summary",
        "passed": bundle.passed_count,
        "failed": bundle.failed_count,
    }))
    return "\n".join(lines) + "\n"


def parse_records(text: str) -> ReportBundle:
    config = ()
    records = []
    summary = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise ParseError(f"bad record on line {lineno}", lineno)
        kind = obj.get("kind")
        if kind == "config":
            config = tuple((k, v) for k, v in obj["fields"])
        elif kind == "check":
            records.append(CheckRecord(
                check_id=obj["id"],
                inputs=tuple((k, v) for k, v in obj["inputs"]),
                status=obj["status"],
                witness=obj["witness"],
                notes=tuple(obj.get("notes", ())),
            ))
        elif kind == "summary":
            summary = (obj["passed"], obj["failed"])
        else:
            raise ParseError(f"unknown record kind on line {lineno}", lineno)
    bundle = ReportBundle(config, tuple(records))
    if summary is not None and summary != (bundle.passed_count,
                                           bundle.failed_count):
        raise ParseError("summary does not match the records")
    return bundle


def render_text(bundle: ReportBundle) -> str:
    out = ["config: " + ", ".join(f"{k}={v}" for k, v in bundle.config)]
    for r in bundle.records:
        line = f"[{r.status}] {r.check_id}"
        if r.inputs:
            line += "  (" + ", ".join(f"{k}={v}" for k, v in r.inputs) + ")"
        out.append(line)
        if r.witness:
            out.append(f"        witness: {r.witness}")
        for note in r.notes:
            out.append(f"        note: {note}")
    out.append(f"summary: {bundle.passed_count} passed, "
               f"{bundle.failed_count} failed")
    return "\n".join(out) + "\n"
