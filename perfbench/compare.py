"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result lines as run.py appends them to
.perfbench_out/results.jsonl. Runs are grouped by workload and trace mode;
for each metric the table gives both medians, the relative change, and the
base's quartile spread. Runs whose kernel backend differs are different
programs, so the comparison is refused (exit 2) when the backends of the
two files are not one and the same.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values: list) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def grouped(runs: list) -> dict:
    out: dict = {}
    for run in runs:
        key = (run["env"]["workload"], run["env"]["trace"])
        for name, metric in run["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return out


def main(argv: list) -> int:
    base, new = load(argv[0]), load(argv[1])
    backends = {run["env"]["backend"] for run in base + new}
    if len(backends) != 1:
        sys.stderr.write(f"refusing to compare runs of different backends: {sorted(backends)}\n")
        return 2
    base_groups, new_groups = grouped(base), grouped(new)
    print(f"{'workload':<16} {'metric':<44} {'base':>12} {'new':>12} {'change':>8} {'spread':>7}")
    for key in sorted(set(base_groups) & set(new_groups)):
        for name, values in base_groups[key].items():
            if name not in new_groups[key]:
                continue
            b = statistics.median(values)
            n = statistics.median(new_groups[key][name])
            change = (n - b) / b if b else float("nan")
            print(f"{key[0]:<16} {name:<44} {b:>12.6g} {n:>12.6g} {change:>+8.1%} "
                  f"{spread(values):>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
