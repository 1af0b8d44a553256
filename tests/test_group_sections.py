"""Variance-xor and reconstruction decide a composite by membership in the
kept Hom/An tables, and scan only a miss. These tests pin that the scans
happen exactly where they must, and that the records equal those of the
per-pair algorithms the sections replaced, which are kept here as oracles.
"""

import itertools
import random

import pytest

from antimorph import kernels, morphisms, suite
from antimorph.corpus import group_corpus
from antimorph.groups import validate_group
from antimorph.maps import STRAIGHT, VARIANCES
from antimorph.reports import ReportBundle, emit_records, records_from_report
from antimorph.verdict import TheoremReport, check


def _shape(a, c):
    return (a.order, c.order, kernels.flatten(a.cayley), kernels.flatten(c.cayley))


def _counting(monkeypatch, module, name):
    """Patches module.name with a wrapper that lists each call's arguments."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_the_bundled_corpus_needs_no_law_scan(monkeypatch):
    # Every composite of the corpus lands in the kept set its law names:
    # variance-xor classifies none, and reconstruction neither buckets pairs
    # nor scans a composite.
    groups = group_corpus()
    classified = _counting(monkeypatch, kernels, "_classify")
    bucketed = _counting(monkeypatch, suite, "factor_pairs")
    scanned = _counting(monkeypatch, morphisms, "law_witness")
    assert all(r.passed for r in suite.variance_table_reports(groups))
    assert all(r.passed for r in suite.reconstruction_reports(groups))
    assert (classified, bucketed, scanned) == ([], [], [])


def test_a_lawful_table_missing_from_an_anti_set_is_scanned_and_passes(
        monkeypatch):
    # Mutant kept tables: An(S3, S3) loses its last table t. A composite on
    # t that needs the anti law misses the set; the scan finds it lawful,
    # once for the call, and every triple still PASSes.
    groups = group_corpus()
    s3 = groups["s3"]
    real = suite.hom_an_tables
    t = real(s3, s3)[1][-1]

    def dropping(a, b, bound=suite.DEFAULT_BOUND):
        homs, antis = real(a, b, bound)
        return (homs, antis[:-1]) if a is s3 and b is s3 else (homs, antis)

    monkeypatch.setattr(suite, "hom_an_tables", dropping)
    classified = _counting(monkeypatch, kernels, "_classify")
    assert all(r.passed for r in suite.variance_table_reports(groups))
    assert classified == [(t, *_shape(s3, s3))]


# -- the per-pair algorithms the sections replaced ---------------------------------


def _oracle_variance_xor(groups, bound=suite.DEFAULT_BOUND):
    """Every pair of every variance block, block by block, each composite
    classified once per (A, C); the witness is the first pair in
    (vf, vg, f, g) order whose composite lacks its block's law bit."""
    names = sorted(groups)
    sets = {(a, b): suite.hom_an_tables(groups[a], groups[b], bound)
            for a in names for b in names}
    codes = {}
    out = []
    for a, b, c in itertools.product(names, repeat=3):
        shape = _shape(groups[a], groups[c])
        memo = codes.setdefault((a, c), {})
        witness = None
        for (kf, vf), (kg, vg) in itertools.product(enumerate(VARIANCES), repeat=2):
            need = kernels.ANTI_BIT if vf != vg else kernels.HOM_BIT
            for f, g in itertools.product(sets[(a, b)][kf], sets[(b, c)][kg]):
                comp = tuple(g[x] for x in f)
                if comp not in memo:
                    memo[comp] = kernels._classify(comp, *shape)
                if not memo[comp] & need:
                    witness = (vf, vg, f, g, memo[comp])
                    break
            if witness:
                break
        out.append(TheoremReport(
            theorem=f"variance-xor/{a}-{b}-{c}",
            inputs=(("triple", f"{a},{b},{c}"),),
            checks=(check("composites-obey-xor-law", witness is None,
                          witness=witness),),
        ))
    return out


def _oracle_reconstruction(groups, bound=suite.DEFAULT_BOUND):
    """Every pair of An(A, A) x An(A, C) bucketed by its composite, each
    distinct composite law-checked against Hom(A, C) in order of first
    appearance, and the checks read off the buckets in composite order."""
    names = sorted(groups)
    out = []
    for a, c in itertools.product(names, repeat=2):
        ga, gc = groups[a], groups[c]
        an_aa = suite.hom_an_tables(ga, ga, bound)[1]
        homs, an_ac = suite.hom_an_tables(ga, gc, bound)
        hom_set = set(homs)
        via_rev = kernels.reader(suite.reverse_morphism(ga).images)
        not_rebuilt = suite._first_moved(homs, hom_set, set(an_ac), via_rev, ga, gc)
        buckets = {}
        for f, g in itertools.product(an_aa, an_ac):
            buckets.setdefault(tuple(g[x] for x in f), []).append((f, g))
        for comp in buckets:
            morphisms.checked_composite(comp, hom_set, ga, gc, STRAIGHT)
        keys = [pair for comp in sorted(buckets) for pair in buckets[comp]]
        repeated = next((p for i, p in enumerate(keys) if p in keys[:i]), None)
        stray = min(set(buckets) - hom_set, default=None)
        unfactored = min(hom_set - set(buckets), default=None)
        n_pairs = len(an_aa) * len(an_ac)
        out.append(TheoremReport(
            theorem=f"reconstruction/{a}-{c}",
            inputs=(("pair", f"{a},{c}"),),
            checks=(
                check("straight-equals-twin-after-reverse",
                      not_rebuilt is None, witness=not_rebuilt),
                check("classes-cover-all-pairs", len(keys) == n_pairs,
                      witness=(len(keys), n_pairs)),
                check("classes-disjoint", repeated is None, witness=repeated),
                check("composites-are-straight", stray is None, witness=stray),
                check("every-straight-map-factors", unfactored is None,
                      witness=unfactored),
            ),
        ))
    return out


def _records(reports):
    return emit_records(ReportBundle((), tuple(
        r for rep in reports for r in records_from_report(rep))))


def _relabeled_groups():
    """Five bundled groups, each renamed by a seeded permutation."""
    rng = random.Random(31)
    out = {}
    for name in ("z2", "z4", "z2xz2", "s3", "d4"):
        g = group_corpus()[name]
        p = list(g.elements())
        rng.shuffle(p)
        table = [[0] * g.order for _ in g.elements()]
        for x, y in itertools.product(g.elements(), repeat=2):
            table[p[x]][p[y]] = p[g.mul(x, y)]
        out[name] = validate_group(table, name=name)
    return out


def _install(monkeypatch, mutant, groups):
    """Kept-table mutants in which every listed table still passes its law:
    every An(A, C) loses its last table (`dropped`); every Hom(A, C) lists
    its first table again last and every An(A, C) its last table again
    first (`repeated`); every list is reversed (`reversed`); or every list
    is reversed, An(S3, S3) loses its last table, and the law scan of
    S3 -> S3 maps takes the anti bit off that table, the one miss
    (`wrong-on-one-miss`)."""
    real, real_classify = suite.hom_an_tables, kernels._classify
    s3 = groups["s3"]
    dropped = real(s3, s3)[1][-1]

    def mutated(a, b, bound=suite.DEFAULT_BOUND):
        homs, antis = real(a, b, bound)
        if mutant == "dropped":
            return homs, antis[:-1]
        if mutant == "repeated":
            return homs + homs[:1], antis[-1:] + antis
        homs, antis = homs[::-1], antis[::-1]
        if mutant == "wrong-on-one-miss" and a is s3 and b is s3:
            antis = antis[1:]
        return homs, antis

    def wrong(images, n, m, cay_a, cay_c):
        code = real_classify(images, n, m, cay_a, cay_c)
        if tuple(images) == dropped and (n, m, cay_a, cay_c) == _shape(s3, s3):
            code &= ~kernels.ANTI_BIT
        return code

    monkeypatch.setattr(suite, "hom_an_tables", mutated)
    if mutant == "wrong-on-one-miss":
        monkeypatch.setattr(kernels, "_classify", wrong)


@pytest.mark.parametrize("mutant", ["dropped", "repeated", "reversed",
                                    "wrong-on-one-miss"])
@pytest.mark.parametrize("corpus", ["bundled", "relabeled"])
def test_the_sections_match_the_per_pair_algorithms(monkeypatch, mutant, corpus):
    groups = group_corpus() if corpus == "bundled" else _relabeled_groups()
    _install(monkeypatch, mutant, groups)
    for section, oracle in ((suite.variance_table_reports, _oracle_variance_xor),
                            (suite.reconstruction_reports, _oracle_reconstruction)):
        reports = section(groups)
        assert _records(reports) == _records(oracle(groups)), section.__name__
        if mutant == "wrong-on-one-miss" and section is suite.variance_table_reports:
            assert not all(r.passed for r in reports)
        if mutant == "repeated" and section is suite.reconstruction_reports:
            assert not any(r.passed for r in reports)
