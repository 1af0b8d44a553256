"""The three workloads: their set-up, one timed pass, and its correctness checks.

A pass is the workload's fixed unit of work:

* full-report: one cold `python -m antimorph.cli --format records report`
  process, checked against the pinned digest, record count and exit code.
* group-sections: the five morphism-level section builders of `suite` on
  each of the seeded group sets of `inputs.section_groups`; every verdict must PASS and
  every star-monoid size must equal the pinned endomorphism count of its
  isomorphism class.
* cli-queries: a shuffled stream of `cli.main(argv)` calls against a seeded
  `--corpus` directory; every verify must PASS, every enumeration must print
  the pinned hom count, and every query must return its expected exit code.

Each pass after the first draws fresh relabelings (seed, pass index), so no
input repeats across passes and a memo cannot carry results between them.

Timings are work seconds: the seconds spent timing `hostspeed`'s reference
chunk are left out. Each timing comes with the host-speed factor that
converts it to seconds at the nominal host speed (see hostspeed.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from antimorph import cli, corpus, suite
from antimorph.maps import STRAIGHT
from antimorph.morphisms import enumerate_morphisms
from antimorph.reports import parse_records, records_from_report

import hostspeed
from inputs import QueryCorpus, section_groups

HERE = Path(__file__).resolve().parent

SECTION_BUILDERS = (
    "variance_table_reports", "correspondence_reports", "reconstruction_reports",
    "star_monoid_reports", "morphism_property_reports",
)


@dataclass
class PassResult:
    seconds: float                                   # work time of the whole pass
    op_seconds: list = field(default_factory=list)   # one entry per operation
    factor: float = 1.0                              # host-speed factor of the pass
    op_factors: list = field(default_factory=list)   # one per operation
    attempted: int = 0
    failures: list = field(default_factory=list)     # one message per failed operation
    peak_rss_kb: int = 0                             # child processes only


def build_corpora() -> None:
    corpus.group_corpus()
    corpus.ring_corpus()
    corpus.category_corpus()


class Workload:
    name = ""
    # a hostspeed.Sampler while end-to-end timing runs in this process
    sampler = None
    in_process = True

    def clock(self) -> float:
        return self.sampler.clock() if self.sampler else time.perf_counter()

    def factor(self, t0: float, t1: float) -> float:
        return self.sampler.factor(t0, t1) if self.sampler else 1.0

    def prepare(self, index: int) -> None:
        """(Re)build the inputs of pass `index`; set-up builds pass 0's."""

    def run_pass(self, index: int, tracer=None) -> PassResult:
        raise NotImplementedError

    def final_checks(self) -> tuple:
        """(checks made, failure messages) for checks made once per run."""
        return 0, []

    def close(self) -> None:
        """Remove whatever set-up wrote to disk."""


# -- full-report ----------------------------------------------------------------


class FullReport(Workload):
    name = "full-report"
    in_process = False  # the report child samples host speed itself

    def __init__(self, root: Path, work: Path, seed: int, pins: dict):
        self.root, self.work, self.seed, self.pins = root, work, seed, pins
        build_corpora()

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def run_child(self, argv: list):
        """Run one child process; return (wall s, exit code, stdout, stderr, max RSS KB)."""
        self.work.mkdir(parents=True, exist_ok=True)
        err_path = self.work / f"stderr-{os.getpid()}.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.child_env(),
                                    stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")
        err_path.unlink()
        return seconds, proc.returncode, out, stderr, usage.ru_maxrss

    def run_pass(self, index: int, tracer=None) -> PassResult:
        samples_path = self.work / f"samples-{os.getpid()}.json"
        seconds, code, out, stderr, rss = self.run_child(
            [sys.executable, str(HERE / "report_child.py"), str(samples_path)])
        try:
            sampled = json.loads(samples_path.read_text())
            samples_path.unlink()
        except (OSError, ValueError):
            sampled = {"samples": [hostspeed.NOMINAL_S], "spent": 0.0}
        seconds -= sampled["spent"]
        factor = hostspeed.factor_of(sampled["samples"])
        result = PassResult(seconds, [seconds], factor=factor, op_factors=[factor],
                            attempted=1, peak_rss_kb=rss)
        problem = check_report(out, code, self.pins["report"])
        if problem:
            result.failures.append(f"report: {problem} {stderr[-200:]}".strip())
        return result


def check_report(stream: bytes, code: int, pin: dict) -> str:
    """Empty when the record stream matches the pinned answer."""
    return check_report_summary(hashlib.sha256(stream).hexdigest(), count_checks(stream),
                                code, pin)


def count_checks(stream: bytes) -> int:
    return sum(1 for line in stream.splitlines() if line.startswith(b'{"kind": "check"'))


def check_report_summary(digest: str, checks: int, code: int, pin: dict) -> str:
    problems = []
    if code != pin["exit"]:
        problems.append(f"exit {code} != {pin['exit']}")
    if digest != pin["sha256"]:
        problems.append(f"sha256 {digest} != {pin['sha256']}")
    if checks != pin["records"]:
        problems.append(f"{checks} checks != {pin['records']}")
    return "; ".join(problems)


# -- group-sections -------------------------------------------------------------


class GroupSections(Workload):
    name = "group-sections"

    def __init__(self, root: Path, work: Path, seed: int, pins: dict):
        self.seed, self.pins = seed, pins
        build_corpora()
        self.prepare(0)

    def prepare(self, index: int) -> None:
        self.group_sets = section_groups(self.seed, index, self.pins["generating_set_sizes"])

    def run_pass(self, index: int, tracer=None) -> PassResult:
        result = PassResult(0.0)
        t_pass = self.clock()
        for round_index, group_set in enumerate(self.group_sets):
            groups = {name: g for name, (g, _) in group_set.items()}
            classes = {name: cls for name, (_, cls) in group_set.items()}
            t_round = self.clock()
            for builder in SECTION_BUILDERS:
                label = f"{builder} round {round_index}"
                if tracer is not None:
                    tracer.begin_query(label)
                result.attempted += 1
                try:
                    reports = getattr(suite, builder)(groups)
                except Exception as exc:  # any raise counts as a failed operation
                    result.failures.append(f"{label}: raised {exc!r}")
                    continue
                problem = self.check_section(builder, reports, classes)
                if problem:
                    result.failures.append(f"{label}: {problem}")
            # an operation's latency is one round: the five builders on one group set
            t_end = self.clock()
            result.op_seconds.append(t_end - t_round)
            result.op_factors.append(self.factor(t_round, t_end))
        t_end = self.clock()
        result.seconds, result.factor = t_end - t_pass, self.factor(t_pass, t_end)
        return result

    def final_checks(self) -> tuple:
        """|Hom(A, B)| for every ordered pair of each of pass 0's group sets."""
        checked, failures = 0, []
        for groups in section_groups(self.seed, 0, self.pins["generating_set_sizes"]):
            for a, (ga, ca) in groups.items():
                for b, (gb, cb) in groups.items():
                    checked += 1
                    count = len(enumerate_morphisms(ga, gb, STRAIGHT))
                    want = self.pins["hom_counts"][f"{ca}->{cb}"]
                    if count != want:
                        failures.append(f"|Hom({a}, {b})| = {count}, pinned {want}")
        return checked, failures

    def check_section(self, builder: str, reports: list, classes: dict) -> str:
        for rep in reports:
            for record in records_from_report(rep):
                if record.status != "PASS":
                    return f"{record.check_id} is {record.status}"
        if builder == "star_monoid_reports":
            for rep in reports:
                name = rep.theorem.split("/", 1)[1]
                want = self.pins["hom_counts"][f"{classes[name]}->{classes[name]}"]
                size = int(dict(rep.inputs)["size"])
                if size != want:
                    return f"star monoid of {name} has {size} maps, pinned {want}"
        return ""


# -- cli-queries ----------------------------------------------------------------


class CliQueries(Workload):
    name = "cli-queries"

    def __init__(self, root: Path, work: Path, seed: int, pins: dict):
        self.work, self.seed, self.pins = work, seed, pins
        build_corpora()
        self.corpus = self.make_corpus(0)

    def make_corpus(self, index: int) -> QueryCorpus:
        return QueryCorpus(self.seed, index, self.work / f"corpus-{os.getpid()}-{index}",
                           self.pins)

    def prepare(self, index: int) -> None:
        self.corpus.remove()
        self.corpus = self.make_corpus(index)

    def close(self) -> None:
        self.corpus.remove()

    def run_pass(self, index: int, tracer=None) -> PassResult:
        result = PassResult(0.0)
        t_pass = self.clock()
        for argv, expected, kind, key in self.corpus.queries:
            label = " ".join(argv[4:])  # argv without its --corpus/--format prefix
            if tracer is not None:
                tracer.begin_query(label)
            result.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            t0 = self.clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # argparse exits on bad argv
                code, problem = None, f"raised {exc!r}"
            else:
                problem = ""
            t1 = self.clock()
            result.op_seconds.append(t1 - t0)
            result.op_factors.append(self.factor(t0, t1))
            if not problem:
                problem = self.check_query(kind, key, expected, code, out.getvalue())
            if problem:
                result.failures.append(f"{label}: {problem} {err.getvalue()[-200:]}".strip())
        t_end = self.clock()
        result.seconds, result.factor = t_end - t_pass, self.factor(t_pass, t_end)
        return result

    def check_query(self, kind: str, key, expected: int, code: int, out: str) -> str:
        if code != expected:
            return f"exit {code}, expected {expected}"
        if kind == "enum":
            last = out.rstrip("\n").rsplit("\n", 1)[-1]
            want = self.pins["hom_counts"][f"{key[0]}->{key[1]}"]
            if last != f"# total {want}":
                return f"printed {last!r}, pinned {want} for {key[0]}->{key[1]}"
        elif kind in ("validate", "verify"):
            bundle = parse_records(out)
            if not bundle.records or not bundle.all_passed:
                return f"{bundle.failed_count} FAIL of {len(bundle.records)} checks"
        return ""


WORKLOADS = {w.name: w for w in (FullReport, GroupSections, CliQueries)}
