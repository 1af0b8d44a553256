import gc
import itertools
import random

import pytest

from antimorph import kernels, suite
from antimorph.corpus import group_corpus, ring_corpus
from antimorph.groups import subgroup_closure
from antimorph.maps import ANTI, VARIANCES
from antimorph.morphisms import enumerate_morphisms
from antimorph.rings import all_ideals, all_subrings
from antimorph.suite import star_monoid_reports, variance_table_reports

from corpus_builders import cyclic, symmetric3


def flat(g):
    return kernels.flatten(g.cayley)


def test_reader_keeps_a_tuple_for_every_index_count():
    t = ("a", "b", "c")
    for indices in ((), (1,), (2, 0), (0, 0, 2)):
        assert kernels.reader(indices)(t) == tuple(t[i] for i in indices)


def test_scan_finds_exactly_the_morphisms():
    z2 = cyclic(2)
    homs, antis = kernels.scan_morphism_space(2, 2, flat(z2), flat(z2))
    assert homs == [(0, 0), (0, 1)]
    assert antis == [(0, 0), (0, 1)]


def test_scan_on_s3():
    s3 = symmetric3()
    homs, antis = kernels.scan_morphism_space(6, 6, flat(s3), flat(s3))
    assert len(homs) == 10 and len(antis) == 10
    # maps with commuting image satisfy both laws: the trivial map and the
    # three maps onto order-2 subgroups
    both = set(homs) & set(antis)
    assert len(both) == 4
    for t in both:
        image = set(t)
        assert all(s3.mul(x, y) == s3.mul(y, x) for x in image for y in image)


def _plain_odometer(n, m, cay_a, cay_b):
    """The specification of the scan: classify each of the m**n maps in turn."""
    homs, antis = [], []
    for f in itertools.product(range(m), repeat=n):
        code = kernels._classify(f, n, m, cay_a, cay_b)
        if code & kernels.HOM_BIT:
            homs.append(f)
        if code & kernels.ANTI_BIT:
            antis.append(f)
    return homs, antis


def _relabeled(g, rng):
    """g's flat table under a seeded relabeling that puts the identity last."""
    n = g.order
    p = list(range(n))
    rng.shuffle(p)
    last = p.index(n - 1)
    p[g.identity], p[last] = p[last], p[g.identity]
    cay = flat(g)
    out = [0] * (n * n)
    for x, y in itertools.product(range(n), repeat=2):
        out[p[x] * n + p[y]] = p[cay[x * n + y]]
    return out


def test_pruned_scan_equals_the_plain_odometer():
    # Lists compared with ==, so the odometer order is checked too. Inputs:
    # every ordered pair of bundled groups of order <= 6 and a seeded
    # relabeling of each; seeded random tables, mostly neither associative
    # nor unital, where one law can die while the other lives, or both die
    # only at the last digits; and empty sides. The relabeling puts the
    # identity last. Then inversion on S3 breaks the product-preserving law
    # only on pairs of non-identity elements, which are all decided before
    # the last digit, so the scan must carry that law's death down the path.
    rng = random.Random(17)
    small = [g for _, g in sorted(group_corpus().items()) if g.order <= 6]
    tables = [(g.order, flat(g)) for g in small] + \
        [(g.order, _relabeled(g, rng)) for g in small]
    cases = list(itertools.product(tables, repeat=2))
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        cases.append(((n, [rng.randrange(n) for _ in range(n * n)]),
                      (m, [rng.randrange(m) for _ in range(m * m)])))
    cases += [((0, []), (0, [])), ((0, []), (3, flat(cyclic(3)))),
              ((3, flat(cyclic(3))), (0, []))]
    hom_only = anti_only = False
    for (n, cay_a), (m, cay_b) in cases:
        got = kernels.scan_morphism_space(n, m, cay_a, cay_b)
        assert got == _plain_odometer(n, m, cay_a, cay_b), (n, m, cay_a, cay_b)
        homs, antis = map(set, got)
        hom_only = hom_only or bool(homs - antis)
        anti_only = anti_only or bool(antis - homs)
    assert hom_only and anti_only
    assert kernels.scan_morphism_space(0, 0, [], []) == ([()], [()])
    assert kernels.scan_morphism_space(3, 0, flat(cyclic(3)), []) == ([], [])


def test_associativity_witness():
    s3 = symmetric3()
    assert kernels.associativity_witness(s3.cayley) is None
    broken = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]  # Z3 with 1*1 changed to 0
    w = kernels.associativity_witness(broken)
    assert w is not None
    x, y, z = w

    def mul(a, b):
        return broken[a][b]

    assert mul(mul(x, y), z) != mul(x, mul(y, z))


def _first_unassociative_triple(rows):
    n = len(rows)
    for x, y, z in itertools.product(range(n), repeat=3):
        if rows[rows[x][y]][z] != rows[x][rows[y][z]]:
            return (x, y, z)
    return None


def test_row_form_associativity_matches_the_triple_loop():
    rng = random.Random(5)
    groups = list(group_corpus().values())
    witnesses = []
    for _ in range(300):
        if rng.random() < 0.5:
            n = rng.randint(1, 6)
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        else:  # a group table with one entry changed: later, rarer failures
            g = rng.choice(groups)
            n = g.order
            rows = [list(row) for row in g.cayley]
            x, y = rng.randrange(n), rng.randrange(n)
            rows[x][y] = rng.randrange(n)
        w = kernels.associativity_witness(rows)
        assert w == _first_unassociative_triple(rows), rows
        witnesses.append(w)
    assert None in witnesses
    assert any(w is not None and w[0] > 0 for w in witnesses)


def test_classify_table_codes():
    s3 = symmetric3()
    assert kernels._classify(list(range(6)), 6, 6, flat(s3), flat(s3)) == \
        kernels.HOM_BIT
    assert kernels._classify(list(s3.inverses), 6, 6, flat(s3), flat(s3)) == \
        kernels.ANTI_BIT
    z4 = cyclic(4)
    assert kernels._classify([0, 1, 2, 3], 4, 4, flat(z4), flat(z4)) == \
        kernels.HOM_BIT | kernels.ANTI_BIT


def test_scan_leaves_no_reference_cycle():
    # With the collector off, whatever a scan leaves in a cycle stays
    # unreachable until gc.collect() finds it.
    s3 = flat(symmetric3())
    gc.collect()
    gc.disable()
    try:
        homs, antis = kernels.scan_morphism_space(6, 6, s3, s3)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(homs) == len(antis) == 10


def test_selected_backend_exports():
    assert kernels.BACKEND == "pure"
    z2 = cyclic(2)
    homs, antis = kernels.scan_morphism_space(2, 2, flat(z2), flat(z2))
    assert len(homs) == 2


def _pair_tables():
    # maps z4 -> z2 and z2 -> z4, with repeats, so that many of the 20 pairs
    # share a composite z4 -> z4
    left = [(0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 0, 1), (0, 0, 0, 0)]
    right = [(0, 0), (0, 2), (0, 2), (0, 1), (1, 0)]
    return flat(cyclic(4)), left, right


def _composites(left, right):
    """g∘f for every f in left and g in right, in (f, g) order."""
    return [tuple(g[x] for x in f) for f in left for g in right]


def test_compose_classify_pairs_matches_per_pair_oracle():
    # The returned set is exactly the pairs' composites, and the memo holds
    # the per-pair oracle's code for every pair, on z4 and s3 tables.
    cay, left, right = _pair_tables()
    s3 = symmetric3()
    homs, antis = kernels.scan_morphism_space(6, 6, flat(s3), flat(s3))
    for n, cay, left, right in ((4, cay, left, right),
                                (6, flat(s3), homs + antis, homs + antis)):
        codes = {}
        composites = kernels.compose_classify_pairs(n, n, cay, cay, left, right,
                                                    codes)
        pairs = _composites(left, right)
        assert composites == set(pairs) == set(codes)
        assert [codes[gf] for gf in pairs] == \
            [kernels._classify(gf, n, n, cay, cay) for gf in pairs]
        assert len(set(codes.values())) > 1


def test_compose_classify_pairs_classifies_each_distinct_composite_once(monkeypatch):
    cay, left, right = _pair_tables()
    seen = []
    real = kernels._classify

    def counting(images, *rest):
        seen.append(tuple(images))
        return real(images, *rest)

    monkeypatch.setattr(kernels, "_classify", counting)
    codes = {}
    composites = kernels.compose_classify_pairs(4, 4, cay, cay, left, right, codes)
    pairs = _composites(left, right)
    assert len(pairs) == 20
    assert sorted(seen) == sorted(composites) == sorted(set(pairs))
    assert len(seen) == len(composites) < len(pairs)
    # a composite already in the caller's memo is not classified again
    assert kernels.compose_classify_pairs(4, 4, cay, cay, left, right,
                                          codes) == composites
    assert len(seen) == len(composites)
    # only the composites missing from the memo are: here all but one
    kept = next(iter(composites))
    kernels.compose_classify_pairs(4, 4, cay, cay, left, right,
                                   {kept: codes[kept]})
    assert len(seen) == 2 * len(composites) - 1 and kept not in seen[len(composites):]
    # a fresh memo classifies every composite again
    kernels.compose_classify_pairs(4, 4, cay, cay, left, right, {})
    assert len(seen) == 3 * len(composites) - 1


def _block_misses(sets, a, b, c):
    """Naive: each composite g∘f of a pair (f, g) in a variance block
    (vf, vg) of the triple (A, B, C) that is not in the kept set its block's
    law names: Hom(A, C) when vf == vg, An(A, C) otherwise. `sets` maps a
    pair of names to its (hom tables, anti tables)."""
    return {comp
            for (kf, vf), (kg, vg) in itertools.product(enumerate(VARIANCES),
                                                        repeat=2)
            for comp in _composites(sets[(a, b)][kf], sets[(b, c)][kg])
            if comp not in sets[(a, c)][0 if vf == vg else 1]}


def _losing_last_anti(real):
    """A mutant `hom_an_tables` whose every An(A, C) loses its last table."""
    def dropping(a, b, bound=suite.DEFAULT_BOUND):
        homs, antis = real(a, b, bound)
        return homs, antis[:-1]
    return dropping


def test_variance_table_reports_classifies_each_composite_once_per_source_and_target(
        monkeypatch):
    # Mutant kept tables: every An(A, C) loses its last table, so a
    # composite on it in a block that needs the anti law misses the lawful
    # sets. One call classifies each such miss exactly once per (A, C) and
    # takes every member without a scan; a second call classifies each miss
    # again. (A, C) is named by its two tables.
    groups = {k: group_corpus()[k] for k in ("z2", "z4", "z2xz2", "s3")}
    dropping = _losing_last_anti(suite.hom_an_tables)
    seen = []
    real = kernels._classify

    def counting(images, n, m, cay_a, cay_c):
        seen.append((tuple(cay_a), tuple(cay_c), tuple(images)))
        return real(images, n, m, cay_a, cay_c)

    monkeypatch.setattr(suite, "hom_an_tables", dropping)
    monkeypatch.setattr(kernels, "_classify", counting)
    sets = {(a, b): dropping(groups[a], groups[b])
            for a, b in itertools.product(groups, repeat=2)}
    expected = {(tuple(flat(groups[a])), tuple(flat(groups[c])), gf)
                for a, b, c in itertools.product(groups, repeat=3)
                for gf in _block_misses(sets, a, b, c)}
    assert expected
    assert all(r.passed for r in variance_table_reports(groups))
    assert len(seen) == len(set(seen)) and set(seen) == expected
    variance_table_reports(groups)
    assert sorted(seen) == sorted(2 * list(expected))


def _xor_failures_without(monkeypatch, bit):
    """Mutants on the bundled corpus: the kept Hom(Z3, Z3) (for the hom
    bit) or An(Z3, Z3) (for the anti bit) loses the identity table of Z3,
    and the law scan of a map Z3 -> Z3 takes `bit` off that table's code.
    A pair composing to it in a block that needs `bit` misses the lawful
    sets, and its scan must FAIL the triple. Checks that exactly the triples
    with such a pair FAIL, each with the first one of a naive (vf, vg, f, g)
    block scan as witness and the mutant's code; returns the witnesses."""
    groups = group_corpus()
    z3, target = groups["z3"], (0, 1, 2)
    cay_z3 = flat(z3)
    real, real_classify = suite.hom_an_tables, kernels._classify
    k = 0 if bit == kernels.HOM_BIT else 1

    def dropping(a, b, bound=suite.DEFAULT_BOUND):
        sets = list(real(a, b, bound))
        if a is z3 and b is z3:
            sets[k] = tuple(t for t in sets[k] if t != target)
        return tuple(sets)

    def mutant(images, n, m, cay_a, cay_c):
        code = real_classify(images, n, m, cay_a, cay_c)
        if tuple(images) == target and cay_a == cay_c == cay_z3:
            code &= ~bit
        return code

    monkeypatch.setattr(suite, "hom_an_tables", dropping)
    monkeypatch.setattr(kernels, "_classify", mutant)
    reports = variance_table_reports(groups)
    tables = {(a, b, v): dropping(groups[a], groups[b])[i]
              for a, b in itertools.product(groups, repeat=2)
              for i, v in enumerate(VARIANCES)}

    def naive_first(a, b, c):
        if a != "z3" or c != "z3":
            return None
        return next(((vf, vg, p, q)
                     for vf, vg in itertools.product(VARIANCES, repeat=2)
                     if (vf != vg) == (bit == kernels.ANTI_BIT)
                     for p in tables[(a, b, vf)] for q in tables[(b, c, vg)]
                     if tuple(q[x] for x in p) == target), None)

    witnesses = {}
    for rep in reports:
        naive = naive_first(*dict(rep.inputs)["triple"].split(","))
        law = rep.check_map()["composites-obey-xor-law"]
        assert law.passed == (naive is None), rep.theorem
        if naive is not None:
            *pair, code = law.witness
            assert tuple(pair) == naive
            assert code == real_classify(target, 3, 3, cay_z3, cay_z3) & ~bit
            witnesses[rep.theorem] = law.witness
    assert "variance-xor/z3-z3-z3" in witnesses and len(witnesses) < len(reports)
    return witnesses


def test_variance_xor_fails_when_one_composite_loses_its_anti_bit(monkeypatch):
    # Only mixed-variance pairs need the anti bit; the identity of the
    # abelian Z3 keeps its hom bit.
    witnesses = _xor_failures_without(monkeypatch, kernels.ANTI_BIT)
    for vf, vg, f, g, code in witnesses.values():
        assert vf != vg and code == kernels.HOM_BIT


def test_variance_table_reports_composes_each_distinct_pair_once_per_triple(
        monkeypatch):
    # One `composite_set` call per (left tag, right tag) group of a triple:
    # on the bundled corpus the calls of triple (A, B, C) pass every pair of
    # Hom(A, B) ∪ An(A, B) and Hom(B, C) ∪ An(B, C) exactly once, so their
    # |left| * |right| sum to the product of the two union sizes. With every
    # An(A, C) short of its last table, a triple classifies exactly its
    # block misses that no earlier triple through (A, C) classified.
    groups = group_corpus()
    names = sorted(groups)
    dropping = _losing_last_anti(suite.hom_an_tables)
    real_set, real_classify = kernels.composite_set, kernels._classify
    real_report = suite.TheoremReport
    events = []

    def recording(left, right):
        events.append(("compose", (left, right)))
        return real_set(left, right)

    def classifying(images, *rest):
        events.append(("classify", tuple(images)))
        return real_classify(images, *rest)

    def reporting(**fields):
        events.append(("report", fields["theorem"]))
        return real_report(**fields)

    monkeypatch.setattr(suite, "hom_an_tables", dropping)
    monkeypatch.setattr(kernels, "composite_set", recording)
    monkeypatch.setattr(kernels, "_classify", classifying)
    monkeypatch.setattr(suite, "TheoremReport", reporting)
    assert all(r.passed for r in variance_table_reports(groups))
    sets = {(a, b): dropping(groups[a], groups[b])
            for a, b in itertools.product(names, repeat=2)}
    unions = {pair: set().union(*tables) for pair, tables in sets.items()}
    # a triple's events end at the building of its report
    runs, run = [], []
    for kind, value in events:
        if kind == "report":
            runs.append(run)
            run = []
        else:
            run.append((kind, value))
    triples = list(itertools.product(names, repeat=3))
    assert len(runs) == len(triples) and not run
    classified = {}
    for (a, b, c), run in zip(triples, runs):
        calls = [value for kind, value in run if kind == "compose"]
        assert len(calls) <= 9
        assert sum(len(left) * len(right) for left, right in calls) == \
            len(unions[(a, b)]) * len(unions[(b, c)]), (a, b, c)
        pairs = {(f, g) for left, right in calls for f in left for g in right}
        assert pairs == set(itertools.product(unions[(a, b)], unions[(b, c)]))
        new = [value for kind, value in run if kind == "classify"]
        before = classified.setdefault((a, c), set())
        assert len(new) == len(set(new))
        assert set(new) == _block_misses(sets, a, b, c) - before, (a, b, c)
        before.update(new)
    assert any(classified.values())


def test_variance_xor_fails_when_one_composite_loses_its_hom_bit(monkeypatch):
    # Each map out of Z3 has a cyclic image, so it lies in Hom and An, and
    # same-variance pairs through any B can compose to the identity; only
    # they need its hom bit.
    witnesses = _xor_failures_without(monkeypatch, kernels.HOM_BIT)
    for vf, vg, f, g, code in witnesses.values():
        assert vf == vg and code == kernels.ANTI_BIT


def _raw_star(g):
    return lambda p, q: tuple(p[q[g.inv(x)]] for x in g.elements())


# the two reports that check the star monoid of An(S3, S3), each with its
# names for the laws (closure, reverse map as two-sided identity,
# associativity)
STAR_REPORTS = {
    "star-monoid": (lambda g: star_monoid_reports({g.name: g})[0],
                    ("closed", "reverse-is-identity", "associative")),
    "endomorphism-monoid": (suite.endomorphism_monoid_report,
                            ("star-closed", "reverse-is-two-sided-identity",
                             "star-associative")),
}


def _star_law_witnesses(report, tables, star, rev):
    """The report's three star-law checks, and the naive first counterexample
    to each law on the raw tables: (p, q) whose star leaves them, p that rev
    does not fix on both sides, (p, q, r) that does not associate."""
    build, names = STAR_REPORTS[report]
    checks = build(group_corpus()["s3"]).check_map()
    naive = (
        next(((p, q) for p in tables for q in tables
              if star(p, q) not in set(tables)), None),
        next((p for p in tables if star(p, rev) != p or star(rev, p) != p), None),
        next(((p, q, r) for p, q, r in itertools.product(tables, repeat=3)
              if star(star(p, q), r) != star(p, star(q, r))), None),
    )
    return [checks[name] for name in names], naive


@pytest.mark.parametrize("report", sorted(STAR_REPORTS))
def test_star_monoid_names_the_first_pair_that_leaves_the_set(install_enumerator,
                                                             report):
    # Mutant kept tables: An(S3, S3) loses its last map, so stars that land
    # on it leave the set. The witness is the first such (p, q).
    s3 = group_corpus()["s3"]
    real = suite.hom_an_tables

    def dropping(a, b, bound=suite.DEFAULT_BOUND):
        homs, antis = real(a, b, bound)
        return homs, antis[:-1]

    install_enumerator(suite, dropping)
    tables = list(dropping(s3, s3)[1])
    (closed, ident, assoc), naive = _star_law_witnesses(
        report, tables, _raw_star(s3), s3.inverses)
    assert not closed.passed and closed.witness == naive[0]
    assert ident.passed and naive[1] is None
    assert assoc.passed and naive[2] is None  # the raw triple loop still runs


@pytest.mark.parametrize("report", sorted(STAR_REPORTS))
def test_star_monoid_names_the_first_map_the_reverse_map_moves(install_enumerator,
                                                              report):
    # Mutant kept tables: An(S3, S3) also lists two maps that rev ★ - moves,
    # as they send the 3-cycle 4 = 3^-1 to 3: the identity map with 4 sent
    # to 3, and the constant map onto 3. The witness is the first of them.
    s3 = group_corpus()["s3"]
    assert s3.inv(3) == 4
    bad = ((0, 1, 2, 3, 3, 5), (3,) * s3.order)
    real = suite.hom_an_tables

    def adding(a, b, bound=suite.DEFAULT_BOUND):
        homs, antis = real(a, b, bound)
        return homs, tuple(sorted(antis + bad))

    install_enumerator(suite, adding)
    tables = list(adding(s3, s3)[1])
    checks, naive = _star_law_witnesses(report, tables, _raw_star(s3), s3.inverses)
    assert naive[1] == bad[0]
    # every law fails, each with its first counterexample
    assert None not in naive
    assert [c.witness for c in checks] == list(naive)
    assert not any(c.passed for c in checks)


def test_product_table_matches_a_double_loop():
    # compositions on End(S3), and stars on An(S3, S3) through q∘rev; then
    # both sets with their last map dropped, which are not closed
    s3 = group_corpus()["s3"]
    rev = s3.inverses
    for variance in VARIANCES:
        full = [m.images for m in enumerate_morphisms(s3, s3, variance)]
        for tables, closed in ((full, True), (full[:-1], False)):
            through = tables if variance != ANTI else \
                [tuple(q[rev[x]] for x in s3.elements()) for q in tables]
            products = [[tuple(p[k] for k in t) for t in through] for p in tables]
            first = next(((i, j) for i, row in enumerate(products)
                          for j, pq in enumerate(row) if pq not in tables), None)
            assert (first is None) == closed
            assert kernels.product_table(tables, through) == (
                ([[tables.index(pq) for pq in row] for row in products], None)
                if closed else (None, first))


# -- closures -------------------------------------------------------------------
# The naive twins below are the closure loops the kernel replaced: the
# subgroup closure under products with the generators and inverses, the
# subring and ideal closures with negation, and the lattice walk that closes
# every candidate s ∪ {x} from scratch.


def _naive_subgroup(g, gens):
    members = {g.identity}
    frontier = [g.identity]
    gens = sorted(set(gens))
    for x in gens:
        if x not in members:
            members.add(x)
            frontier.append(x)
    while frontier:
        x = frontier.pop()
        for y in gens:
            for z in (g.mul(x, y), g.mul(y, x), g.inv(x)):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return tuple(sorted(members))


def _naive_subring(r, gens):
    members = {r.zero, r.one} | set(gens)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in list(members):
            for z in (r.add_(x, y), r.add_(y, x), r.mul_(x, y), r.mul_(y, x),
                      r.neg(x)):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return tuple(sorted(members))


def _naive_ideal(r, gens, side):
    members = {r.zero}
    frontier = list(set(gens) - members)
    members |= set(gens)
    while frontier:
        x = frontier.pop()
        candidates = [r.neg(x)]
        candidates.extend(r.add_(x, y) for y in list(members))
        if side in ("left", "two-sided"):
            candidates.extend(r.mul_(y, x) for y in r.elements())
        if side in ("right", "two-sided"):
            candidates.extend(r.mul_(x, y) for y in r.elements())
        for z in candidates:
            if z not in members:
                members.add(z)
                frontier.append(z)
    return tuple(sorted(members))


def _naive_closed_sets(r, close):
    found = {close(())}
    frontier = list(found)
    while frontier:
        s = frontier.pop()
        for x in r.elements():
            if x not in s:
                t = close(set(s) | {x})
                if t not in found:
                    found.add(t)
                    frontier.append(t)
    return tuple(sorted(found))


def _ideal_maps(r, side):
    """a ↦ x*a (the rows of mul) and a ↦ a*x (its columns) for every x."""
    rows, columns = r.mul, tuple(zip(*r.mul))
    return {"left": rows, "right": columns, "two-sided": rows + columns}[side]


def _assert_plan_valid(ops, maps, known, plan):
    """Each entry is the table value of operands known before it, and new."""
    known = set(known)
    for z, k, i, j in plan:
        assert i in known and (j is None or j in known), (z, k, i, j)
        assert z == (ops[k][i][j] if k < len(ops) else maps[k - len(ops)][i])
        assert z not in known
        known.add(z)
    return known


def _ring_closures(r):
    """(ops, maps, bottom, naive closure) for subrings and for the ideals of
    each side."""
    yield (r.add, r.mul), (), (r.zero, r.one), lambda gens: _naive_subring(r, gens)
    for side in ("left", "right", "two-sided"):
        yield ((r.add,), _ideal_maps(r, side), (r.zero,),
               lambda gens, side=side: _naive_ideal(r, gens, side))


def test_closure_matches_the_naive_loops_on_every_seed_pair():
    # Every (x, y) of every bundled group and ring: the closure of the
    # bottom and {x, y} from nothing, and the closed set of {x} extended by
    # y, which is how the lattice walk uses the kernel.
    cases = [((g.cayley,), (), (g.identity,), lambda gens, g=g: _naive_subgroup(g, gens))
             for g in group_corpus().values()]
    for r in ring_corpus().values():
        cases.extend(_ring_closures(r))
    for ops, maps, bottom, naive in cases:
        for x, y in itertools.product(range(len(ops[0])), repeat=2):
            expected = naive((x, y))
            members, plan = kernels.closure(ops, maps, (), bottom + (x, y))
            assert members == expected, (bottom, x, y)
            _assert_plan_valid(ops, maps, set(bottom) | {x, y}, plan)
            half = naive((x,))
            members, plan = kernels.closure(ops, maps, half, (y,))
            assert members == expected, (bottom, x, y)
            assert _assert_plan_valid(ops, maps, set(half) | {y}, plan) == set(members)
    for g in group_corpus().values():
        for x, y in itertools.product(g.elements(), repeat=2):
            assert subgroup_closure(g, (x, y)).members == _naive_subgroup(g, (x, y))


def _naive_fixpoint(ops, maps, gens):
    """Close gens under every pair and every map until nothing is added."""
    members = set(gens)
    while True:
        grown = members | {op[x][y] for op in ops for x in members for y in members} \
            | {t[x] for t in maps for x in members}
        if grown == members:
            return tuple(sorted(members))
        members = grown


def test_closure_is_the_least_closed_superset_on_random_tables():
    # Seeded random tables, neither associative nor commutative, so no
    # product of one order follows from the other: the closure of a random
    # seed set, and that closure extended by one more element.
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randint(1, 7)
        ops = [[[rng.randrange(n) for _ in range(n)] for _ in range(n)]
               for _ in range(rng.randint(1, 2))]
        maps = [[rng.randrange(n) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        seed = rng.sample(range(n), rng.randint(0, min(n, 2)))
        closed, plan = kernels.closure(ops, maps, (), seed)
        assert closed == _naive_fixpoint(ops, maps, seed), (ops, maps, seed)
        _assert_plan_valid(ops, maps, seed, plan)
        x = rng.randrange(n)
        members, plan = kernels.closure(ops, maps, closed, (x,))
        assert members == _naive_fixpoint(ops, maps, closed + (x,))
        _assert_plan_valid(ops, maps, set(closed) | {x}, plan)


def test_closed_sets_match_the_naive_walk_on_every_bundled_ring():
    for r in ring_corpus().values():
        expected = [_naive_closed_sets(r, naive) for *_, naive in _ring_closures(r)]
        walked = [kernels.closed_sets(ops, maps, bottom)
                  for ops, maps, bottom, _ in _ring_closures(r)]
        assert walked == expected, r
        assert [all_subrings(r)] + [all_ideals(r, side) for side in
                                    ("left", "right", "two-sided")] == expected


def test_generating_plans_are_valid_on_every_bundled_group_and_ring():
    # Per stage: each entry is the table value of operands known before it,
    # and the members are the closure of the earlier members and the
    # stage's generator (of the base, for the first stage).
    cases = [((g.cayley,), (g.identity,)) for g in group_corpus().values()]
    cases += [((r.add, r.mul), base) for r in ring_corpus().values()
              for base in ((r.zero, r.one), (r.zero,))]
    for ops, base in cases:
        gens, stages = kernels.generating_plan(ops, base)
        assert len(stages) == len(gens) + 1
        members, new = (), base
        for k, (plan, stage_members, before) in enumerate(stages):
            assert before == set(members)
            known = _assert_plan_valid(ops, (), set(members) | set(new), plan)
            assert tuple(sorted(known)) == stage_members
            assert stage_members == kernels.closure(ops, (), members, new)[0]
            members = stage_members
            if k < len(gens):
                assert gens[k] == min(set(range(len(ops[0]))) - set(members))
                new = (gens[k],)
        assert members == tuple(range(len(ops[0])))
