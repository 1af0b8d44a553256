"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Tolerances and time budgets are pinned here and
nowhere else.
"""

import hashlib
import itertools
import time
from collections import Counter

from antimorph import kernels, morphisms
from antimorph.corpus import category_corpus, group_corpus, ring_corpus
from antimorph.formats import emit_group
from antimorph.groups import Subgroup, direct_product, is_normal, is_subgroup
from antimorph.kernels import BACKEND
from antimorph.maps import ANTI, STRAIGHT, Morphism
from antimorph.morphisms import (
    DEFAULT_BOUND,
    brute_force_tables,
    enumerate_morphisms,
    find_isomorphism,
    hom_an_tables,
    kernel,
)
from antimorph.reports import ReportBundle, emit_records
from antimorph.suite import (
    SECTIONS,
    Registry,
    RunConfig,
    adjunction_reports,
    audit_reports,
    automorphism_algebra_report,
    category_reports,
    correspondence_reports,
    endomorphism_monoid_report,
    reconstruction_reports,
    run,
    semilinear_reports,
    star_monoid_reports,
    theorem_instance_reports,
    variance_table_reports,
)
from antimorph.theorems import (
    verify_anti_factorization,
    verify_second_anti_iso,
    verify_third_anti_iso,
)

from corpus_builders import cyclic

GROUPS = group_corpus()
RINGS = ring_corpus()

# sha256 of the default `antimorph --format records report` output (2149 records)
GOLDEN_DIGEST = "30227f4c3ab12dce1094a8f03187ca1d51d784e3219554b0da2569813c13eb1a"


def _gate(num, desc, reports, elapsed=None, budget=None):
    bad = [(r.theorem, c.name, c.witness)
           for r in reports for c in r.failures()]
    ok = not bad and (budget is None or elapsed < budget)
    stamp = f" ({elapsed:.1f}s < {budget}s)" if budget is not None else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{stamp}")
    assert not bad, bad[:5]
    if budget is not None:
        assert elapsed < budget, f"{elapsed:.1f}s exceeded the {budget}s budget"


def test_criterion_1_variance_law_table():
    t0 = time.time()
    reports = variance_table_reports(GROUPS)
    elapsed = time.time() - t0
    assert len(reports) == len(GROUPS) ** 3  # exhaustive over corpus triples
    _gate(1, f"variance XOR law over all corpus triples [{BACKEND} backend]",
          reports, elapsed, 60)


def test_criterion_2_correspondence_counts():
    reports = correspondence_reports(GROUPS)
    small = [r for r in reports
             if any(c.name == "matches-map-space-scan" for c in r.checks)]
    assert len(small) == 36  # six groups of order <= 6, all ordered pairs
    _gate(2, "straight/anti counts agree, cross-checked by full map scans",
          reports)


def test_criterion_3_s3_endomorphism_monoid():
    t0 = time.time()
    rep = endomorphism_monoid_report(GROUPS["s3"])
    monoids = star_monoid_reports(GROUPS)
    elapsed = time.time() - t0
    n_hom = len(enumerate_morphisms(GROUPS["s3"], GROUPS["s3"], STRAIGHT))
    n_anti = len(enumerate_morphisms(GROUPS["s3"], GROUPS["s3"], ANTI))
    bh, ba = brute_force_tables(GROUPS["s3"], GROUPS["s3"])
    assert n_hom == n_anti == len(bh) == len(ba) == 10
    assert len(monoids) == len(GROUPS)  # every corpus group has order <= 8
    _gate(3, "ten endomorphisms either way and a genuine star monoid "
             "(all corpus groups exhaustively)", [rep] + monoids, elapsed, 0.4)


def test_criterion_4_reconstruction_and_factorization_classes():
    t0 = time.time()
    reports = reconstruction_reports(GROUPS)
    elapsed = time.time() - t0
    _gate(4, "every straight map is its twin after the reverse map; "
             "classes partition all anti pairs", reports, elapsed, 0.2)


def test_criterion_5_named_theorem_instances():
    t0 = time.time()
    reports = theorem_instance_reports()
    elapsed = time.time() - t0
    names = [r.theorem for r in reports]
    for expected in ("anti-factorization", "anti-homomorphism",
                     "second-anti-isomorphism", "third-anti-isomorphism",
                     "subring-transport"):
        assert any(n == expected for n in names), expected
    assert sum(1 for n in names if n == "third-anti-isomorphism") == 2
    assert sum(1 for n in names if n == "anti-factorization") == 2  # group+ring
    _gate(5, "factorization and isomorphism theorems on the declared "
             "group and ring instances", reports, elapsed, 120)


def test_criterion_6_automorphism_algebra():
    rep = automorphism_algebra_report(GROUPS["s3"])
    _gate(6, "order-six isomorphism groups, order-twelve union with a normal "
             "index-two straight part", [rep])


def test_criterion_7_pointwise_audit_contract():
    reports = audit_reports()
    _gate(7, "pointwise closure audit passes on the two-element quotient ring "
             "and reports witnesses on the triangular matrix ring", reports)


def test_criterion_8_semilinear_instance():
    t0 = time.time()
    reports = semilinear_reports(seed=2024, count=50)
    elapsed = time.time() - t0
    assert sum(1 for r in reports
               if r.theorem == "quotient-image-twisted-iso") >= 50
    assert any(r.theorem == "twisted-hom-grid" for r in reports)
    _gate(8, "fifty seeded twisted maps over F4: twist rule, factor sequence, "
             "rank-nullity, generalized verifiers, hom-grid naturality",
          reports, elapsed, 8)


def test_criterion_9_category_engine():
    t0 = time.time()
    cats = category_corpus()
    reports = category_reports(cats) + adjunction_reports(cats)
    elapsed = time.time() - t0
    names = [r.theorem for r in reports]
    assert "functor-count/arrow" in names
    assert "anti-product-uniqueness" in names
    assert "equip-forget-adjunctions" in names
    assert "equip-forget-adjunctions-additive" in names
    _gate(9, "equip/forget round trips, anti-category equivalences, "
             "anti-products, and both adjunctions with naturality",
          reports, elapsed, 1.2)


def test_criterion_10_byte_identical_reports():
    config = RunConfig(selection=("correspondence/", "pointwise-audit/",
                                  "category-roundtrip/", "twist-xor"))
    first = emit_records(run(config))
    second = emit_records(run(config))
    ok = first == second and len(first) > 0
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 10: identical config gives "
          f"byte-identical records ({len(first)} bytes)")
    assert ok


def test_criterion_10_full_run_determinism():
    full = RunConfig()
    first = emit_records(run(full))
    second = emit_records(run(full))
    digest = hashlib.sha256(first.encode("utf-8")).hexdigest()
    ok = first == second and digest == GOLDEN_DIGEST
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 10 (full suite): "
          f"byte-identical across reruns and golden digest ({len(first)} bytes, "
          f"sha256 {digest[:16]})")
    assert first == second
    assert digest == GOLDEN_DIGEST


def test_section_table_is_complete_and_disjoint():
    # Each table entry, selected by its own heads, runs its section alone and
    # keeps all of its records; in table order they rebuild the golden stream.
    # A head the table misses loses records; a head two sections share
    # duplicates them.
    records = []
    for heads, _ in SECTIONS:
        records.extend(run(RunConfig(selection=heads)).records)
    stream = emit_records(ReportBundle(RunConfig().as_fields(), tuple(records)))
    digest = hashlib.sha256(stream.encode("utf-8")).hexdigest()
    assert len(records) == 2149
    assert digest == GOLDEN_DIGEST


# records of the five group sweeps over the 14 groups of order <= 8: one
# variance check per triple; three star-monoid checks, four map-property
# checks per group; five reconstruction checks per pair; two correspondence
# checks per pair plus the map-space scan on the 64 pairs of order <= 6
GROUP_SWEEP_RECORDS = {"variance-xor/": 14 ** 3, "correspondence/": 2 * 14 ** 2 + 64,
                       "star-monoid/": 3 * 14, "reconstruction/": 5 * 14 ** 2,
                       "anti-map-properties/": 4 * 14}


def _groups_of_order_at_most_8(corpus_dir):
    """All 14 groups of order <= 8 (OEIS A000001), by name: the bundled corpus
    plus the six it lacks, which are written to `corpus_dir` as a --corpus
    directory."""
    z2 = cyclic(2)
    klein = direct_product(z2, z2)[0]
    extra = [cyclic(1), cyclic(5), cyclic(7), cyclic(8),
             direct_product(z2, cyclic(4))[0], direct_product(klein, z2)[0]]
    for g in extra:
        (corpus_dir / f"{g.name}.grp").write_text(emit_group(g))
    groups = Registry((str(corpus_dir),)).groups
    assert Counter(g.order for g in groups.values()) == \
        {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5}
    for g, h in itertools.combinations(groups.values(), 2):
        if g.order == h.order:
            assert find_isomorphism(g, h) is None, (g, h)
    return groups


def test_group_sweeps_over_every_group_of_order_at_most_8(tmp_path):
    # All 14 groups of order <= 8 run through the report's five group
    # sweeps, and every record must PASS.
    _groups_of_order_at_most_8(tmp_path)
    t0 = time.time()
    bundle = run(RunConfig(corpus_paths=(str(tmp_path),),
                           selection=tuple(GROUP_SWEEP_RECORDS)))
    elapsed = time.time() - t0
    failed = [r.check_id for r in bundle.records if r.status != "PASS"]
    print(f"[{'PASS' if not failed else 'FAIL'}] five group sweeps over the 14 "
          f"groups of order <= 8: {len(bundle.records)} records ({elapsed:.1f}s)")
    assert not failed, failed[:5]
    counts = Counter(r.check_id.split("/", 1)[0] + "/" for r in bundle.records)
    assert counts == GROUP_SWEEP_RECORDS


def test_enumerators_match_the_oracle_on_every_group_of_order_at_most_8(tmp_path):
    # Hom and An from the generator-image enumerator against the map-space
    # scan, on all 196 ordered pairs, 8 -> 8 included (8**8 maps each).
    groups = _groups_of_order_at_most_8(tmp_path)
    pairs = list(itertools.product(groups.values(), repeat=2))
    assert len(pairs) == 196
    for a, b in pairs:
        bh, ba = brute_force_tables(a, b)
        assert [m.images for m in enumerate_morphisms(a, b, STRAIGHT)] == bh, (a, b)
        assert [m.images for m in enumerate_morphisms(a, b, ANTI)] == ba, (a, b)


def test_hom_an_tables_equals_both_enumerations_on_every_group_of_order_at_most_8(
        tmp_path):
    # The kept sets, which the two enumerations read, against a fresh
    # search and its reading through the inverses of A, order and variance
    # tags included, on all 196 ordered pairs.
    groups = _groups_of_order_at_most_8(tmp_path)
    for a, b in itertools.product(groups.values(), repeat=2):
        homs = tuple(sorted(set(morphisms._hom_tables(a, b, DEFAULT_BOUND))))
        antis = tuple(sorted(map(kernels.reader(a.inverses), homs)))
        assert hom_an_tables(a, b) == (homs, antis), (a, b)
        expected = (tuple(Morphism(a, b, t, STRAIGHT) for t in homs),
                    tuple(Morphism(a, b, t, ANTI) for t in antis))
        assert (enumerate_morphisms(a, b, STRAIGHT),
                enumerate_morphisms(a, b, ANTI)) == expected, (a, b)


# subgroup counts of the 14 groups of order <= 8
SUBGROUP_COUNTS = {"z1": 1, "z2": 2, "z3": 2, "z4": 3, "z2xz2": 5, "z5": 2, "z6": 4,
                   "s3": 6, "z7": 2, "z8": 4, "z2xz4": 8, "z2xz2xz2": 16, "d4": 10,
                   "q8": 6}


def test_subgroup_lattices_match_a_subset_scan_on_every_group_of_order_at_most_8(
        tmp_path):
    # The lattice walk from the trivial subgroup against every subset of
    # the group tested with is_subgroup.
    groups = _groups_of_order_at_most_8(tmp_path)
    counts = {}
    for name, g in groups.items():
        lattice = kernels.closed_sets((g.cayley,), (), (g.identity,))
        scanned = tuple(s for k in range(g.order + 1)
                        for s in itertools.combinations(g.elements(), k)
                        if is_subgroup(g, s))
        assert lattice == tuple(sorted(scanned)), name
        counts[name] = len(lattice)
    assert counts == SUBGROUP_COUNTS


def _failures(reports):
    return [(r.theorem, r.inputs, c.name, c.witness)
            for r in reports for c in r.failures()]


def _subgroup_lattices(groups):
    """Each group's subgroups from the lattice walk, and the normal ones."""
    out = {}
    for name, g in groups.items():
        subs = [Subgroup(g, s) for s in
                kernels.closed_sets((g.cayley,), (), (g.identity,))]
        out[name] = (subs, [s for s in subs if is_normal(g, s)])
    return out


def test_third_anti_iso_on_every_subgroup_pair_of_order_at_most_8(tmp_path):
    # AN/N anti-isomorphic to A/(A∩N) for every subgroup A and normal N of
    # each of the 14 groups of order <= 8, every pair included.
    groups = _groups_of_order_at_most_8(tmp_path)
    reports = [verify_third_anti_iso(groups[name], a, n)
               for name, (subs, normal) in _subgroup_lattices(groups).items()
               for a in subs for n in normal]
    assert len(reports) == 517
    assert not _failures(reports), _failures(reports)[:5]


def test_second_anti_iso_on_every_normal_chain_of_order_at_most_8(tmp_path):
    # A/B anti-isomorphic to (A/C)/(B/C) for every normal C inside a normal
    # B of each of the 14 groups of order <= 8, every pair included.
    groups = _groups_of_order_at_most_8(tmp_path)
    reports = [verify_second_anti_iso(groups[name], b, c)
               for name, (_, normal) in _subgroup_lattices(groups).items()
               for b in normal for c in normal
               if set(c.members) <= set(b.members)]
    assert len(reports) == 184
    assert not _failures(reports), _failures(reports)[:5]


def test_anti_factorization_on_every_normal_subgroup_and_anti_map_of_order_at_most_8(
        tmp_path):
    # The unique anti map G/N -> H through which φ factors, for every normal
    # N of each of the 14 groups G of order <= 8 and every anti map
    # φ: G -> H into any of them with N inside its kernel.
    groups = _groups_of_order_at_most_8(tmp_path)
    lattices = _subgroup_lattices(groups)
    reports = []
    for (name, g), h in itertools.product(groups.items(), groups.values()):
        for phi in enumerate_morphisms(g, h, ANTI):
            ker = set(kernel(phi).members)
            reports += [verify_anti_factorization(g, n, phi)
                        for n in lattices[name][1] if ker.issuperset(n.members)]
    assert len(reports) == 4722
    assert not _failures(reports), _failures(reports)[:5]
