"""The standard verification run over the bundled and --corpus structures.

Each result of the report is built by exactly one function here: `run` reaches
the sections through the `SECTIONS` table, the CLI calls the same builders, and
`bundle` turns reports into records for both, so a CLI query prints exactly the
report's records for its instance.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import kernels
from .corpus import (
    IDEAL_MEMBERS,
    SUBGROUP_GENS,
    group_corpus,
    named_ideal,
    named_subgroup,
    ring_corpus,
    category_corpus,
)
from .categories import (
    FiniteCategory,
    adjunction_report,
    anti_category,
    anti_functor,
    anti_id,
    anti_product_uniqueness,
    associated_category,
    caf,
    category_violation,
    check_anti_universal,
    check_antiproduct_preservation,
    check_equivalence,
    check_factorable,
    enumerate_functors,
    fca,
    find_products,
    identity_functor,
    is_iso,
    lift_functor,
    preadditive_one_object,
    preadditive_two_object,
)
from .errors import ParseError
from .formats import MapFile, load_path, parse_text, resolve_map
from .groups import FiniteGroup, Subgroup, is_subgroup
from .maps import ANTI, STRAIGHT, VARIANCES, Morphism
from .morphisms import (
    BOTH,
    DEFAULT_BOUND,
    automorphism_algebra_report,
    brute_force_tables,
    checked_composite,
    classify,
    corresponding_anti,
    enumerate_morphisms,
    factor_pairs,
    hom_an_tables,
    law_witness,
    natural_an_map,
    pointwise_ring_audit,
    reverse_morphism,
)
from .reports import ReportBundle, records_from_report
from .rings import TWO_SIDED, FiniteRing, RingIdeal, ideal_witness, quotient_ring
from .semilinear import (
    FieldFq2,
    bifunctor_grid_report,
    generalized_suite,
    random_map,
    verify_mono_epi,
    verify_twist_xor,
)
from .theorems import (
    sign_morphism,
    verify_abelian_collapse,
    verify_anti_factorization,
    verify_anti_hom_theorem,
    verify_groups_vs_star_category,
    verify_second_anti_iso,
    verify_subring_and_transport,
    verify_third_anti_iso,
)
from .verdict import TheoremReport, check

BRUTE_FORCE_ORDER_LIMIT = 6
STAR_MONOID_ORDER_LIMIT = 8


@dataclass(frozen=True)
class RunConfig:
    corpus_paths: tuple = ()
    bound: int = DEFAULT_BOUND
    seed: int = 2024
    selection: tuple = ()      # check-id prefixes; empty selects everything

    def as_fields(self) -> tuple:
        return (("corpus", ",".join(self.corpus_paths) or "bundled"),
                ("bound", self.bound),
                ("seed", self.seed),
                ("selection", ",".join(self.selection) or "all"))


class Registry:
    """Bundled corpus plus any structures loaded from --corpus directories."""

    def __init__(self, corpus_dirs=()):
        self.groups = dict(group_corpus())
        self.rings = dict(ring_corpus())
        self.categories = dict(category_corpus())
        self.maps = {}
        for d in corpus_dirs:
            self.load_dir(Path(d))

    def load_dir(self, directory: Path):
        for path in sorted(p for p in directory.iterdir() if p.is_file()):
            value = load_path(path)
            if isinstance(value, FiniteGroup):
                self.groups[value.name] = value
            elif isinstance(value, FiniteRing):
                self.rings[value.name] = value
            elif isinstance(value, FiniteCategory):
                self.categories[value.name] = value
            elif isinstance(value, MapFile):
                self.maps[value.name] = value

    def structure(self, name: str):
        if name.startswith("group:"):
            return self.group(name[6:])
        if name.startswith("ring:"):
            return self.ring(name[5:])
        for pool in (self.groups, self.rings, self.categories):
            if name in pool:
                return pool[name]
        raise ParseError(f"unknown structure {name!r}")

    def group(self, name: str) -> FiniteGroup:
        if name not in self.groups:
            raise ParseError(f"unknown group {name!r}")
        return self.groups[name]

    def ring(self, name: str) -> FiniteRing:
        if name not in self.rings:
            raise ParseError(f"unknown ring {name!r}")
        return self.rings[name]

    def category(self, name: str):
        if name not in self.categories:
            raise ParseError(f"unknown category {name!r}")
        return self.categories[name]

    def subgroup(self, g: FiniteGroup, spec: str) -> Subgroup:
        if (g.name, spec) in SUBGROUP_GENS:
            return named_subgroup(g.name, spec)
        members = _index_list(spec, g.order)
        if not is_subgroup(g, members):
            raise ParseError(f"{spec!r} is not a subgroup of {g.name}")
        return Subgroup(g, tuple(sorted(members)))

    def ideal(self, r: FiniteRing, spec: str) -> RingIdeal:
        if (r.name, spec) in IDEAL_MEMBERS:
            return named_ideal(r.name, spec)
        members = _index_list(spec, r.order)
        w = ideal_witness(r, members, TWO_SIDED)
        if w is not None:
            raise ParseError(f"{spec!r} is not a two-sided ideal of {r.name}: {w}")
        return RingIdeal(r, tuple(sorted(members)), TWO_SIDED)

    def morphism(self, spec: str) -> Morphism:
        path = Path(spec)
        if path.exists():
            value = load_path(path)
        elif spec in self.maps:
            value = self.maps[spec]
        else:
            data = resources.files("antimorph").joinpath("data", spec)
            if data.is_file():
                value = parse_text(data.read_text())
            else:
                raise ParseError(f"map {spec!r} not found")
        if not isinstance(value, MapFile):
            raise ParseError(f"{spec!r} is not a map file")
        pools = dict(self.groups)
        pools.update({f"ring:{k}": v for k, v in self.rings.items()})
        pools.update({k: v for k, v in self.rings.items() if k not in pools})
        return resolve_map(value, pools)


def _index_list(spec: str, order: int):
    try:
        members = tuple(int(p) for p in spec.replace(",", " ").split())
    except ValueError:
        raise ParseError(f"expected element indices, got {spec!r}")
    seen = set()
    for m in members:
        if not 0 <= m < order:
            raise ParseError(f"element index {m} outside 0..{order - 1}")
        if m in seen:
            raise ParseError(f"element index {m} repeated")
        seen.add(m)
    return members


# -- morphism-level reports -----------------------------------------------------


def variance_table_reports(groups: dict, bound: int = DEFAULT_BOUND) -> list:
    """XOR law for every composable pair from the enumerated sets, per triple.

    A table of Hom(A, B) ∪ An(A, B) is tagged with the variances it carries,
    and `kernels.composite_set` forms the composites of one (left tag, right
    tag) group, so each distinct pair (f, g) is composed once per triple.
    The pair lies in block (vf, vg) exactly when vf is in f's tag and vg in
    g's, so its composite needs the law bit of each such block. A composite
    in the kept tables those bits name, Hom(A, C), An(A, C) or both, has
    passed the laws and is accepted on membership. Only a miss is
    classified, once per (A, C) per call; only when a miss lacks a bit are
    the blocks searched pair by pair for the witness, the first failing
    pair in (vf, vg, f, g) order.
    """
    names = sorted(groups)
    flat = {a: kernels.flatten(groups[a].cayley) for a in names}
    sets = {(a, b): hom_an_tables(groups[a], groups[b], bound)
            for a in names for b in names}
    tagged = {pair: _tag_groups(blocks) for pair, blocks in sets.items()}
    lawful = {pair: {kernels.HOM_BIT: set(homs), kernels.ANTI_BIT: set(antis),
                     kernels.HOM_BIT | kernels.ANTI_BIT: set(homs) & set(antis)}
              for pair, (homs, antis) in sets.items()}
    memos = {}
    out = []
    for a, b, c in itertools.product(names, repeat=3):
        shape = (groups[a].order, groups[c].order, flat[a], flat[c])
        codes = memos.setdefault((a, c), {})
        witness = None
        for (tf, fs), (tg, gs) in itertools.product(tagged[(a, b)],
                                                    tagged[(b, c)]):
            need = 0
            for vf, vg in itertools.product(tf, tg):
                need |= kernels.ANTI_BIT if vf != vg else kernels.HOM_BIT
            misses = kernels.composite_set(fs, gs) - lawful[(a, c)][need]
            kernels.classify_new(misses, *shape, codes)
            if any(codes[comp] & need != need for comp in misses):
                witness = _first_xor_failure(shape, sets[(a, b)],
                                             sets[(b, c)], codes)
                break
        out.append(TheoremReport(
            theorem=f"variance-xor/{a}-{b}-{c}",
            inputs=(("triple", f"{a},{b},{c}"),),
            checks=(check("composites-obey-xor-law", witness is None,
                          witness=witness),),
        ))
    return out


def _tag_groups(blocks):
    """The distinct tables of the variance blocks, grouped by the tuple of
    variances each one carries: at most three groups, in first-seen order."""
    tags = {}
    for v, tables in zip(VARIANCES, blocks):
        for t in tables:
            tags.setdefault(t, []).append(v)
    groups = {}
    for t, tag in tags.items():
        groups.setdefault(tuple(tag), []).append(t)
    return list(groups.items())


def _first_xor_failure(shape, left, right, codes):
    """The first (vf, vg, f, g, code) in variance-block order whose
    composite g∘f lacks the law bit of its block (vf, vg), or None; `shape`
    is the kernel's (n_a, n_c, cay_a, cay_c)."""
    for (kf, vf), (kg, vg) in itertools.product(enumerate(VARIANCES), repeat=2):
        need = kernels.ANTI_BIT if vf != vg else kernels.HOM_BIT
        composites = kernels.compose_classify_pairs(
            *shape, left[kf], right[kg], codes)
        if all(codes[comp] & need for comp in composites):
            continue
        return next((vf, vg, f, g, codes[comp])
                    for f in left[kf]
                    for g, comp in zip(right[kg],
                                       map(kernels.reader(f), right[kg]))
                    if not codes[comp] & need)
    return None


def correspondence_reports(groups: dict, bound: int = DEFAULT_BOUND) -> list:
    """Straight and anti sets are equinumerous and f ↦ f∘rev is involutive;
    small pairs are cross-checked against the map-space scan."""
    names = sorted(groups)
    out = []
    for a in names:
        ga = groups[a]
        via_rev = kernels.reader(reverse_morphism(ga).images)
        for b in names:
            gb = groups[b]
            homs, antis = hom_an_tables(ga, gb, bound)
            checks = [check("sets-equinumerous", len(homs) == len(antis),
                            witness=(len(homs), len(antis)))]
            moved = _first_moved(homs, set(homs), set(antis), via_rev, ga, gb)
            checks.append(check("correspondence-involutive", moved is None,
                                witness=moved))
            if ga.order <= BRUTE_FORCE_ORDER_LIMIT and \
                    gb.order <= BRUTE_FORCE_ORDER_LIMIT:
                bh, ba = brute_force_tables(ga, gb)
                stray = _first_stray(
                    [(STRAIGHT, t) for t in homs] + [(ANTI, t) for t in antis],
                    [(STRAIGHT, t) for t in bh] + [(ANTI, t) for t in ba])
                checks.append(check("matches-map-space-scan", stray is None,
                                    witness=stray))
            out.append(TheoremReport(
                theorem=f"correspondence/{a}-{b}",
                inputs=(("pair", f"{a},{b}"),),
                checks=tuple(checks),
            ))
    return out


def _first_moved(homs, hom_set, anti_set, via_rev, a, b):
    """The first table f of `homs` that its round trip (f∘rev)∘rev does not
    give back, or None. Each twin f∘rev must lie in An(A, B) and each round
    trip in Hom(A, B): both are law-checked by membership in those sets, with
    the law scan only on a miss (`checked_composite`)."""
    for f in homs:
        twin = checked_composite(via_rev(f), anti_set, a, b, ANTI)
        if checked_composite(via_rev(twin), hom_set, a, b, STRAIGHT) != f:
            return f
    return None


def _first_stray(enumerated, scanned):
    """The least entry listed more often on one side of the two lists, or
    None when they hold the same entries equally often."""
    enumerated, scanned = Counter(enumerated), Counter(scanned)
    return min((enumerated - scanned) + (scanned - enumerated), default=None)


def endomorphism_monoid_report(g, bound: int = DEFAULT_BOUND) -> TheoremReport:
    """Endomorphism counts against the oracle scan, and the star monoid laws."""
    homs, antis = hom_an_tables(g, g, bound)
    bh, ba = brute_force_tables(g, g)
    closure_w, identity_w, assoc_w = _star_laws(antis, g.inverses)
    straight_w = _first_stray(homs, bh)
    anti_w = _first_stray(antis, ba)
    checks = (
        check("straight-count-matches-scan", straight_w is None, witness=straight_w),
        check("anti-count-matches-scan", anti_w is None, witness=anti_w),
        check("counts-equal", len(homs) == len(antis),
              witness=(len(homs), len(antis))),
        check("star-closed", closure_w is None, witness=closure_w),
        check("star-associative", assoc_w is None, witness=assoc_w),
        check("reverse-is-two-sided-identity", identity_w is None,
              witness=identity_w),
    )
    return TheoremReport(
        theorem=f"endomorphism-monoid/{g.name}",
        inputs=(("group", g.name), ("size", str(len(antis)))),
        checks=checks,
    )


def star_monoid_reports(groups: dict, bound: int = DEFAULT_BOUND) -> list:
    """Star composition is an associative monoid on An(G,G), exhaustively,
    for every group up to the order limit (raw tables, no revalidation)."""
    out = []
    for name in sorted(groups):
        g = groups[name]
        if g.order > STAR_MONOID_ORDER_LIMIT:
            continue
        tables = hom_an_tables(g, g, bound)[1]
        closed_w, ident_w, assoc_w = _star_laws(tables, g.inverses)
        out.append(TheoremReport(
            theorem=f"star-monoid/{name}",
            inputs=(("group", name), ("size", str(len(tables)))),
            checks=(
                check("closed", closed_w is None, witness=closed_w),
                check("reverse-is-identity", ident_w is None, witness=ident_w),
                check("associative", assoc_w is None, witness=assoc_w),
            ),
        ))
    return out


def _star_laws(tables, rev):
    """The first counterexample (images) to each monoid law of p ★ q =
    (p∘q)∘rev on the maps `tables`, or None: (p, q) whose star leaves them,
    p that rev does not fix on both sides, (p, q, r) that does not associate.

    Closure is checked while `kernels.product_table` builds the star index
    table (p read through q∘rev); a closed set has its associativity checked
    on that table, a set that is not closed on the raw tables.
    """
    def star(p, q):
        return tuple([p[q[v]] for v in rev])

    q_after_rev = kernels.reader(rev)
    rows, leaving = kernels.product_table(tables, [q_after_rev(q) for q in tables])
    closed_w = None if leaving is None else tuple(tables[i] for i in leaving)
    ident_w = next((p for p in tables if star(p, rev) != p or star(rev, p) != p),
                   None)
    if rows is not None:
        assoc_w = kernels.associativity_witness(rows)
        if assoc_w is not None:
            assoc_w = tuple(tables[i] for i in assoc_w)
    else:
        assoc_w = next(((p, q, r) for p, q, r in itertools.product(tables, repeat=3)
                        if star(star(p, q), r) != star(p, star(q, r))), None)
    return closed_w, ident_w, assoc_w


def reconstruction_reports(groups: dict, bound: int = DEFAULT_BOUND) -> list:
    """Every straight map is its twin composed with the reverse map, and the
    factorization classes through the source partition all anti pairs.

    When the composites of An(A, A) x An(A, C) all lie in the kept Hom(A, C)
    and neither list repeats a table, each of the |An(A, A)|·|An(A, C)|
    pairs is in exactly one class by construction, and no composite needs a
    law scan. Only otherwise does `factor_pairs` bucket the pairs and scan
    each composite outside Hom(A, C).
    """
    names = sorted(groups)
    out = []
    for a in names:
        ga = groups[a]
        an_aa = hom_an_tables(ga, ga, bound)[1]
        via_rev = kernels.reader(reverse_morphism(ga).images)
        for c in names:
            gc = groups[c]
            homs, an_ac = hom_an_tables(ga, gc, bound)
            hom_set = set(homs)
            not_rebuilt = _first_moved(homs, hom_set, set(an_ac), via_rev, ga, gc)
            n_pairs = len(an_aa) * len(an_ac)
            composites = kernels.composite_set(an_aa, an_ac)
            total_pairs, repeated = n_pairs, None
            if not composites <= hom_set or len(set(an_aa)) < len(an_aa) or \
                    len(set(an_ac)) < len(an_ac):
                classes = factor_pairs(ga, gc, an_aa, an_ac, hom_set)
                keys = [pair for _, pairs in classes for pair in pairs]
                total_pairs, repeated = len(keys), _first_repeat(keys)
            stray = min(composites - hom_set, default=None)
            unfactored = min(hom_set - composites, default=None)
            out.append(TheoremReport(
                theorem=f"reconstruction/{a}-{c}",
                inputs=(("pair", f"{a},{c}"),),
                checks=(
                    check("straight-equals-twin-after-reverse",
                          not_rebuilt is None, witness=not_rebuilt),
                    check("classes-cover-all-pairs", total_pairs == n_pairs,
                          witness=(total_pairs, n_pairs)),
                    check("classes-disjoint", repeated is None, witness=repeated),
                    check("composites-are-straight", stray is None, witness=stray),
                    check("every-straight-map-factors", unfactored is None,
                          witness=unfactored),
                ),
            ))
    return out


def _first_repeat(keys):
    """The first entry of `keys` that an earlier entry equals, or None."""
    seen = set()
    for key in keys:
        if key in seen:
            return key
        seen.add(key)
    return None


def morphism_property_reports(groups: dict, bound: int = DEFAULT_BOUND) -> list:
    """Unit, inverse, and power preservation plus anti-inverse closure. Each
    witness is the first failing anti map's images, with the failing x (and
    n), or with its inverse table and that table's `law_witness`."""
    out = []
    for name in sorted(groups):
        g = groups[name]
        antis = hom_an_tables(g, g, bound)[1]
        e, inv = g.identity, g.inverses
        powers = [[g.power(x, n) for n in range(g.exponent + 1)] for x in g.elements()]
        unit_w = next(((t, e) for t in antis if t[e] != e), None)
        inv_w = next(((t, x) for t in antis for x in g.elements()
                      if t[inv[x]] != inv[t[x]]), None)
        pow_w = next(((t, x, n) for t in antis for x in g.elements()
                      for n in range(g.exponent + 1)
                      if t[powers[x][n]] != powers[t[x]][n]), None)
        anti_inverse_w = None
        for t in antis:
            if len(set(t)) != g.order:
                continue
            inverse = [0] * g.order
            for x in g.elements():
                inverse[t[x]] = x
            w = law_witness(tuple(inverse), g, g, ANTI)
            if w is not None:
                anti_inverse_w = (t, tuple(inverse), w)
                break
        out.append(TheoremReport(
            theorem=f"anti-map-properties/{name}",
            inputs=(("group", name),),
            checks=(
                check("preserves-unit", unit_w is None, witness=unit_w),
                check("preserves-inverses", inv_w is None, witness=inv_w),
                check("preserves-powers", pow_w is None, witness=pow_w),
                check("bijective-anti-has-anti-inverse", anti_inverse_w is None,
                      witness=anti_inverse_w),
            ),
        ))
    return out


# -- audits ----------------------------------------------------------------------


def audit_reports(bound: int = DEFAULT_BOUND) -> list:
    rings = ring_corpus()
    z4 = rings["z4"]
    z2, _ = quotient_ring(z4, named_ideal("z4", "even"))
    t2 = rings["t2f2"]
    out = []
    sides, corr_w = pointwise_ring_audit(z2, z2, bound)
    # a set forms a unital ring exactly when its zero, sum, product and unit
    # witnesses are all None; the first one set is the check's witness
    straight_w, anti_w = (next((w for w in ws if w is not None), None)
                          for _, _, ws in sides)
    out.append(TheoremReport(
        theorem="pointwise-audit/z2",
        inputs=(("ring", "z4/even"),),
        checks=(
            check("straight-set-forms-unital-ring", straight_w is None,
                  witness=straight_w),
            check("anti-set-forms-unital-ring", anti_w is None, witness=anti_w),
            check("correspondence-is-bijection", corr_w is None, witness=corr_w),
        ),
    ))
    sides, _ = pointwise_ring_audit(t2, t2, bound)
    # a set is not closed when its sum or its product witness is set
    (straight_open, straight_size), (anti_open, anti_size) = (
        ((add_w, mul_w) != (None, None), size)
        for _, size, (_, add_w, mul_w, _) in sides)
    out.append(TheoremReport(
        theorem="pointwise-audit/t2f2",
        inputs=(("ring", "t2f2"),),
        checks=(
            check("closure-failure-detected", straight_open,
                  witness=(STRAIGHT, straight_size)),
            check("failure-carries-witness", straight_open,
                  witness=(STRAIGHT, straight_size)),
            check("anti-closure-failure-detected", anti_open,
                  witness=(ANTI, anti_size)),
        ),
        notes=("the pointwise closure claim fails here; the audit records "
               "witnesses instead of asserting it",),
    ))
    out.append(natural_map_report(z4, "even", named_ideal("z4", "even"), bound))
    return out


def pointwise_audit_report(a, b, bound: int = DEFAULT_BOUND) -> TheoremReport:
    """Whether pointwise + and * close on the morphism sets A -> B, per variance."""
    sides, _ = pointwise_ring_audit(a, b, bound)
    return TheoremReport(
        theorem=f"pointwise-audit/{a.name}-{b.name}",
        inputs=(("source", a.name), ("target", b.name),
                *((f"{variance}-size", str(size)) for variance, size, _ in sides)),
        checks=tuple(
            check(f"{variance}-{name}", w is None, witness=w)
            for variance, _, witnesses in sides
            for name, w in zip(("zero-map-present", "sum-closed",
                                "product-closed", "has-unit"), witnesses)),
        notes=("FAIL lines report that the pointwise ring claim does not "
               "hold for this instance; the witnesses reproduce it",),
    )


def natural_map_report(r, name: str, ideal, bound=DEFAULT_BOUND) -> TheoremReport:
    """The natural map into An(R, R/I) for the ideal I of R named `name`."""
    return TheoremReport(
        theorem=f"natural-map/{r.name}-{name}",
        inputs=(("ring", r.name), ("ideal", ",".join(map(str, ideal.members)))),
        checks=tuple(
            check(check_name, w is None, witness=w)
            for check_name, w in zip(
                ("defined-on-whole-domain", "lands-in-anti-set",
                 "respects-pointwise-sum", "respects-pointwise-product"),
                natural_an_map(r, ideal, bound))),
    )


# -- semilinear reports -------------------------------------------------------------


def semilinear_reports(seed: int = 2024, count: int = 50) -> list:
    import random

    field = FieldFq2.of_order(4)
    rng = random.Random(seed + 2)
    return [*generalized_suite(field, count=count, seed=seed),
            bifunctor_grid_report(field, dims=(1, 2)),
            verify_twist_xor(field, count, seed + 1),
            *(verify_mono_epi(random_map(field, rows, cols, ANTI, rng))
              for rows, cols in ((2, 2), (1, 2), (2, 1)))]


# -- category reports ----------------------------------------------------------------


def category_reports(cats: dict) -> list:
    out = []
    for name, c in sorted(cats.items()):
        fc = caf(c)
        ac = anti_category(fc)
        assoc = associated_category(fc)
        # the first morphism breaking each law, with what it gave
        law_w = iso_w = None
        for k in range(len(c.objects), len(c.cells)):
            mid = c.cells[k]
            twin = fc.cell(anti_id(mid))
            twice = fc.through_reverse(fc.through_reverse(k))
            back = fc.through_reverse(twin)
            if law_w is None and (twice != k or back != k):
                law_w = (mid, fc.cells[twice], fc.cells[back])
            iso, anti_iso = is_iso(c, k), is_iso(fc, twin)
            if iso_w is None and iso != anti_iso:
                iso_w = (mid, iso, anti_iso)
        ac_w, assoc_w = category_violation(ac), category_violation(assoc)
        forgot = fca(fc)
        forget_w = forgot.table_difference(c)
        equip_w = caf(forgot).table_difference(fc)
        sizes = (len(assoc.morphisms), 2 * len(c.morphisms))
        out.append(TheoremReport(
            theorem=f"category-roundtrip/{name}",
            inputs=(("category", name),),
            checks=(
                check("forget-equip-identity", forget_w is None,
                      witness=forget_w),
                check("equip-forget-identity", equip_w is None,
                      witness=equip_w),
                check("anti-category-is-category", ac_w is None, witness=ac_w),
                check("associated-category-is-category", assoc_w is None,
                      witness=assoc_w),
                check("hom-union-size", sizes[0] == sizes[1], witness=sizes),
                check("straight-factors-through-reverse", law_w is None,
                      witness=law_w),
                check("iso-iff-anti-iso", iso_w is None, witness=iso_w),
            ),
        ))
        out.append(equivalence_report(name, fc, ac))
    bundled = category_corpus()
    meet = bundled["meet"]
    fc_meet = caf(meet)
    products = find_products(meet, ("x", "y"))
    out.append(TheoremReport(
        theorem="products/meet",
        inputs=(("category", "meet"), ("family", "x,y")),
        checks=(
            check("meet-is-the-product",
                  [p[0] for p in products] == ["m"], witness=products),
        ),
    ))
    for apex, proj in products:
        out.append(check_anti_universal(fc_meet, apex, proj, ("x", "y")))
    out.append(anti_product_uniqueness(fc_meet, ("x", "y")))
    lifted_id = lift_functor(identity_functor(meet), fc_meet, fc_meet)
    out.append(check_factorable(lifted_id, fc_meet, fc_meet, "id"))
    out.append(check_antiproduct_preservation(lifted_id, fc_meet, fc_meet,
                                              ("x", "y"), "id"))
    arrow_endos = enumerate_functors(bundled["arrow"], bundled["arrow"])
    out.append(TheoremReport(
        theorem="functor-count/arrow",
        inputs=(("category", "arrow"),),
        checks=(check("exactly-three-endofunctors", len(arrow_endos) == 3,
                      witness=len(arrow_endos)),),
    ))
    return out


def equivalence_report(name: str, fc, ac) -> TheoremReport:
    """The anti functor of the equipped category `fc` is an equivalence from
    its base to its anti-category `ac`."""
    equiv = check_equivalence(anti_functor(fc), fc.base, ac)
    return TheoremReport(
        theorem=f"anti-category-equivalence/{name}",
        inputs=(("category", name),),
        checks=equiv.checks,
    )


def products_report(c, family: tuple) -> list:
    """The product presentations of `family` in C, the anti-universal property
    of each, and anti-product uniqueness when there is one."""
    for name in family:
        if name not in c.objects:
            raise ParseError(f"unknown object {name!r} in category {c.name}")
    fc = caf(c)
    products = find_products(c, family)
    reports = [TheoremReport(
        theorem=f"products/{c.name}",
        inputs=(("family", ",".join(family)),),
        checks=(check("product-found", bool(products),
                      witness="no product presentation"),),
    )]
    for apex, proj in products:
        reports.append(check_anti_universal(fc, apex, proj, family))
    if products:
        reports.append(anti_product_uniqueness(fc, family))
    return reports


def adjunction_reports(cats: dict) -> list:
    """The equip/forget adjunctions over `cats` and over two preadditive toys."""
    return [adjunction_report(cats),
            adjunction_report({"pad1": preadditive_one_object(),
                               "pad2": preadditive_two_object()},
                              additive=True)]


# -- theorem instance reports -----------------------------------------------------------


def theorem_instance_reports(bound: int = DEFAULT_BOUND) -> list:
    groups = group_corpus()
    rings = ring_corpus()
    s3, z2g, d4 = groups["s3"], groups["z2"], groups["d4"]
    out = []
    sign = sign_morphism(s3, z2g)
    out.append(verify_anti_factorization(
        s3, named_subgroup("s3", "a3"), corresponding_anti(sign), bound))
    for phi in enumerate_morphisms(s3, s3, ANTI, bound):
        out.append(verify_anti_hom_theorem(phi, bound))
    out.append(verify_second_anti_iso(
        d4, named_subgroup("d4", "rot"), named_subgroup("d4", "rot2"), bound))
    out.append(verify_third_anti_iso(
        s3, named_subgroup("s3", "s12"), named_subgroup("s3", "a3"), bound))
    out.append(verify_third_anti_iso(
        d4, named_subgroup("d4", "ref"), named_subgroup("d4", "rot2"), bound))
    z4 = rings["z4"]
    even = named_ideal("z4", "even")
    _, proj = quotient_ring(z4, even)
    out.append(verify_anti_factorization(z4, even, corresponding_anti(proj),
                                         bound))
    t2 = rings["t2f2"]
    out.append(verify_anti_hom_theorem(reverse_morphism(t2), bound))
    out.append(verify_subring_and_transport(reverse_morphism(t2)))
    out.append(verify_subring_and_transport(reverse_morphism(rings["m2f2"])))
    out.append(verify_abelian_collapse(reverse_morphism(s3)))
    out.append(verify_abelian_collapse(reverse_morphism(groups["z4"])))
    q8 = groups["q8"]
    both_bijective = [t for t in hom_an_tables(q8, q8, bound)[1]
                      if len(set(t)) == q8.order and classify(t, q8, q8) == BOTH]
    out.append(TheoremReport(
        theorem="no-bijective-both-on-nonabelian",
        inputs=(("group", "q8"),),
        checks=(check("no-such-map-exists", not both_bijective, witness=both_bijective),),
    ))
    out.append(automorphism_algebra_report(s3, bound))
    out.append(automorphism_algebra_report(groups["z2"], bound))
    out.append(verify_groups_vs_star_category(
        {k: groups[k] for k in ("z2", "z3", "s3")}, bound))
    return out


# -- the full run -------------------------------------------------------------------------

# (check-id heads, section) in report order. A section runs when a selection
# prefix and one of its heads are prefixes of one another. Each lambda looks
# its section function up in the module globals when it runs, so a wrapper
# installed on the module attribute sees the call.
SECTIONS = (
    (("variance-xor/",),
     lambda reg, config: variance_table_reports(reg.groups, config.bound)),
    (("correspondence/",),
     lambda reg, config: correspondence_reports(reg.groups, config.bound)),
    (("endomorphism-monoid/",),
     lambda reg, config: [endomorphism_monoid_report(group_corpus()["s3"],
                                                     config.bound)]),
    (("star-monoid/",),
     lambda reg, config: star_monoid_reports(reg.groups, config.bound)),
    (("reconstruction/",),
     lambda reg, config: reconstruction_reports(reg.groups, config.bound)),
    (("anti-map-properties/",),
     lambda reg, config: morphism_property_reports(reg.groups, config.bound)),
    (("anti-factorization/", "anti-homomorphism/", "second-anti-isomorphism/",
      "third-anti-isomorphism/", "subring-transport/", "abelian-collapse/",
      "no-bijective-both-on-nonabelian/", "automorphism-algebra/",
      "groups-equivalent-to-star-groups/"),
     lambda reg, config: theorem_instance_reports(config.bound)),
    (("pointwise-audit/", "natural-map/"),
     lambda reg, config: audit_reports(config.bound)),
    (("quotient-image-twisted-iso/", "nested-quotient-twisted-iso/",
      "twisted-factorization/", "twisted-hom-grid/", "twist-xor-matrix-law/",
      "twisted-mono-epi/"),
     lambda reg, config: semilinear_reports(config.seed)),
    (("category-roundtrip/", "anti-category-equivalence/", "products/",
      "anti-universal-properties/", "anti-product-uniqueness/",
      "factorable-functor/", "anti-product-preservation/", "functor-count/"),
     lambda reg, config: category_reports(reg.categories)),
    (("equip-forget-adjunctions/", "equip-forget-adjunctions-additive/"),
     lambda reg, config: adjunction_reports(reg.categories)),
)


def _selected(heads: tuple, selection: tuple) -> bool:
    return not selection or any(h.startswith(p) or p.startswith(h)
                                for p in selection for h in heads)


def bundle(config: RunConfig, reports) -> ReportBundle:
    """One record per check of `reports`, keeping those the selection names."""
    records = []
    for rep in reports:
        records.extend(records_from_report(rep))
    if config.selection:
        records = [r for r in records
                   if any(r.check_id.startswith(p) for p in config.selection)]
    return ReportBundle(config.as_fields(), tuple(records))


def run(config: RunConfig) -> ReportBundle:
    reg = Registry(config.corpus_paths)
    return bundle(config, (rep for heads, section in SECTIONS
                           if _selected(heads, config.selection)
                           for rep in section(reg, config)))
