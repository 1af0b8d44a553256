"""Tests of the benchmark itself, including negative controls that show each
correctness check can fail.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import make_pins  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from antimorph import cli, kernels  # noqa: E402
from antimorph.groups import generating_set, is_normal  # noqa: E402

PINS = json.loads((HERE / "pins.json").read_text())
SHARES = PINS["generating_set_sizes"]


def pins_with(section: str, changes: dict) -> dict:
    pins = copy.deepcopy(PINS)
    pins[section].update(changes)
    return pins


def run_benchmark(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


# -- inputs and pins ---------------------------------------------------------------


def test_same_seed_gives_same_inputs():
    def tables(seed):
        return [{k: g.cayley for k, (g, _) in groups.items()}
                for groups in inputs.section_groups(seed, 0, SHARES)]

    assert tables(7) == tables(7)
    assert tables(7) != tables(8)


def test_relabelings_have_the_requested_generating_set_size():
    rng = random.Random(0)
    for name, (g, cls) in inputs.section_groups(1, 0, SHARES)[0].items():
        for size in SHARES[cls]:
            relabeled = inputs.relabel(g, rng, name, int(size))
            assert len(generating_set(relabeled)) == int(size)


def test_pinned_size_shares_match_every_relabeling():
    reps = make_pins.representatives()
    for cls in ("z4", "z6", "s3"):
        g = reps[cls]
        counts = {}
        for label in itertools.permutations(range(g.order)):
            size = inputs.greedy_size(g, list(label))
            counts[size] = counts.get(size, 0) + 1
        total = sum(counts.values())
        assert {str(k): v / total for k, v in counts.items()} == pytest.approx(SHARES[cls])


def test_strata_keep_every_size_within_one_of_its_share():
    rng = random.Random(0)
    assert sorted(inputs.strata({"1": 2 / 3, "2": 1 / 3}, 3, rng)) == [1, 1, 2]
    seen = set()
    for _ in range(200):
        picks = inputs.strata(SHARES["q8"], 2, rng)
        assert picks.count(3) <= 1
        seen.add(tuple(sorted(picks)))
    assert seen == {(2, 2), (2, 3)}


def test_pinned_counts_agree_with_the_scan_oracle():
    reps = make_pins.representatives()
    for a, b in (("s3", "z6"), ("z4", "d4"), ("q8", "z2"), ("d6", "z3")):
        count = make_pins.generator_count(reps[a], reps[b])
        assert count == PINS["hom_counts"][f"{a}->{b}"]
        if reps[b].order ** reps[a].order <= make_pins.SCAN_LIMIT:
            assert make_pins.scan_count(reps[a], reps[b]) == count


def test_tail_is_the_highest_ladder_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 101))) == ("p90", 90)
    assert run.tail(list(range(1, 1001))) == ("p99", 990)
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)


def test_host_factor_uses_the_chunks_inside_the_interval_or_the_last_ones():
    sampler = hostspeed.Sampler()
    sampler.times = [float(t) for t in range(20)]
    sampler.samples = [hostspeed.NOMINAL_S] * 10 + [2 * hostspeed.NOMINAL_S] * 10
    assert sampler.factor(0, 9) == 1.0
    assert sampler.factor(10, 19) == 0.5
    # mean speed: half the time at full speed, half at half speed
    assert sampler.factor(5, 14) == pytest.approx(0.75)
    # [9.5, 9.6] holds no chunk: the last MIN_SAMPLES before 9.6 are 1..9
    assert sampler.factor(9.5, 9.6) == 1.0


def test_sampling_time_is_kept_off_the_work_clock():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0 = sampler.clock()
        taken = len(sampler.samples)
        sampler.take()
        elapsed = sampler.clock() - t0
    finally:
        sampler.stop()
    assert len(sampler.samples) == taken + 1 == hostspeed.MIN_SAMPLES + 1
    assert elapsed < sampler.samples[-1]


# -- negative controls -------------------------------------------------------------


def test_wrong_pinned_digest_fails_the_run(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    pins = pins_with("report", {"sha256": "0" * 64})
    (tmp_path / "perfbench" / "pins.json").write_text(json.dumps(pins))
    code, lines = run_benchmark("--workload", "full-report", "--seed", "1",
                                "--seconds", "0", cwd=tmp_path)
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_wrong_pinned_count_fails_group_sections(tmp_path):
    workload = workloads.GroupSections(ROOT, tmp_path, 3, pins_with("hom_counts", {"s3->s3": 11}))
    result = workload.run_pass(0)
    assert any("star monoid of gs3" in f for f in result.failures)
    checked, failures = workload.final_checks()
    assert checked == 2 * 100 and any("Hom(gs3, gs3)" in f for f in failures)


def test_cli_queries_pass_is_correct_and_non_normal_query_fails(tmp_path):
    workload = workloads.CliQueries(ROOT, tmp_path, 5, PINS)
    try:
        corpus = workload.corpus
        g = corpus.groups["cs3"][0]
        non_normal = next(s for s in inputs.subgroups(g) if not is_normal(g, s))
        whole = inputs.subgroups(g)[-1]
        argv = ["--corpus", str(corpus.directory), "--format", "records", "verify",
                "third-anti-iso", "--group", "cs3", "--subgroup", inputs.members(whole),
                "--normal", inputs.members(non_normal)]
        corpus.queries.append((argv, 0, "verify", None))
        result = workload.run_pass(0)
    finally:
        workload.close()
    assert result.attempted == len(corpus.queries)
    assert len(result.failures) == 1 and "exit 2, expected 0" in result.failures[0]


def test_wrong_pinned_count_fails_cli_queries(tmp_path):
    pins = pins_with("hom_counts", {k: v + 1 for k, v in PINS["hom_counts"].items()})
    workload = workloads.CliQueries(ROOT, tmp_path, 5, pins)
    try:
        result = workload.run_pass(0)
    finally:
        workload.close()
    enums = sum(1 for q in workload.corpus.queries if q[2] == "enum")
    assert len(result.failures) == enums > 0


# -- tracing and running without the program ------------------------------------


def test_tracer_patches_every_importer_and_restores_them():
    original = cli.enumerate_morphisms
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.enumerate_morphisms is not original
        assert cli.enumerate_morphisms.__wrapped__ is original
        assert kernels.compose_classify_pairs.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert cli.enumerate_morphisms is original


def test_benchmark_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_benchmark("--workload", "cli-queries", "--seed", "1",
                                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
