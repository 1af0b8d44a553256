"""One cold full report with host-speed sampling, run as its own process.

    python3 perfbench/report_child.py SAMPLES_FILE

Runs `python -m antimorph.cli --format records report` in this process, the
way `-m` does, with its record stream going to standard output untouched,
while a `hostspeed.Sampler` times the reference chunk. On the way out it
writes the chunk timings and the seconds spent sampling to SAMPLES_FILE as
JSON; the report's exit code is this process's exit code.
"""

from __future__ import annotations

import json
import runpy
import sys

import hostspeed


def main() -> None:
    samples_path = sys.argv[1]
    sys.argv = [sys.argv[0], "--format", "records", "report"]
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        runpy.run_module("antimorph.cli", run_name="__main__", alter_sys=True)
    finally:
        sampler.stop()
        with open(samples_path, "w") as fh:
            json.dump({"samples": sampler.samples, "spent": sampler.spent}, fh)


if __name__ == "__main__":
    main()
