"""The cold full report with every layer traced, run as its own process.

    python3 perfbench/traced_report.py SPANS_FILE

Imports antimorph, installs the tracer, runs `cli.main(["--format",
"records", "report"])` with its output captured, writes the spans to
SPANS_FILE and prints one JSON line: exit code, the stream's sha256 and
check count, span count, and the per-layer metrics. Each section builder of
`suite.run` starts a new query id.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from antimorph import cli

from tracing import SECTIONS, Tracer, layer_metrics
from workloads import count_checks


def main(argv: list) -> int:
    tracer = Tracer(units=[f"suite.{s}" for s in SECTIONS])
    tracer.install()
    tracer.begin_query("report")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "records", "report"])
    tracer.uninstall()
    stream = out.getvalue().encode("utf-8")
    tracer.write(Path(argv[0]))
    print(json.dumps({
        "exit": code,
        "sha256": hashlib.sha256(stream).hexdigest(),
        "checks": count_checks(stream),
        "spans": tracer.span_count(),
        "metrics": layer_metrics(tracer.summary()),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
