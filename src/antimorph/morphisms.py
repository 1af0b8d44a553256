"""The anti-morphism calculus shared by groups and rings.

Classification, variance-tracked composition, *-composition, reverse
morphisms, kernels and images, enumeration, isomorphism search,
factorization classes, the straight/anti correspondences, the
automorphism-algebra report, and the pointwise and natural-map ring audits,
which return their witnesses for `suite` to pair with check names.

Every enumeration goes through one staged generator-image extension search
over a tuple of operation tables with some images fixed: a group's Cayley
table with its identity fixed, or a ring's addition and multiplication with
zero fixed, and the unit too for unital maps. Anti-morphisms of groups are
the homomorphisms read through the inverses of the source; those of rings
are the morphisms into the opposite ring. `hom_an_tables` keeps the sorted
tables of a group pair while both groups live, so it and
`enumerate_morphisms` search each pair once.
A composite that breaks its law is an engine bug and raises RuntimeError
(`checked_composite`); one found in a set of law-checked tables, such as
the kept Hom/An tables, is taken on membership without a law scan.
"""

from __future__ import annotations

import itertools
import weakref

from . import kernels
from .errors import BoundExceeded, LawViolation, NoInvolution, NotComposable
from .groups import FiniteGroup, Subgroup, normality_witness, validate_group
from .maps import ANTI, STRAIGHT, VARIANCES, Morphism, variance_xor
from .rings import TWO_SIDED, FiniteRing, RingIdeal, opposite, quotient_ring
from .verdict import TheoremReport, check

HOM_ONLY = "HomOnly"
ANTI_ONLY = "AntiOnly"
BOTH = "Both"
NEITHER = "Neither"

DEFAULT_BOUND = 10 ** 6
ISO_SEARCH_LIMIT = 12


def is_group(s) -> bool:
    return isinstance(s, FiniteGroup)


# -- law checking -------------------------------------------------------------


def law_witness(images, a, b, variance: str):
    """First pair breaking the variance law (None when the law holds).

    For rings the law bundles additivity, unit preservation, and the
    (straight or reversed) multiplicative rule.
    """
    if is_group(a):
        # Row by row on the Cayley tables: row x of the law compares
        # f(x*y) with f(x)*f(y) (or f(y)*f(x)) for every y at once.
        rows_b = b.cayley if variance == STRAIGHT else tuple(zip(*b.cayley))
        via_f = kernels.reader(images)
        for x, row_x in enumerate(a.cayley):
            got = via_f(rows_b[images[x]])
            want = kernels.reader(row_x)(images)
            if got != want:
                return (x, next(y for y, (fxy, fx_fy) in enumerate(zip(want, got))
                                if fxy != fx_fy))
        return None
    if images[a.one] != b.one:
        return ("one", a.one)
    return _ring_pair_witness(images, a, b, variance)


def _ring_pair_witness(images, a, b, variance: str):
    """First ("add", x, y) or ("mul", x, y) where a ring map breaks additivity
    or the (straight or reversed) product rule; the unit is not checked.

    Row by row, as for groups: row x compares f(x+y) with f(x)+f(y), and
    f(xy) with f(x)f(y) (or f(y)f(x)), for every y at once. At the first
    y where either differs, the sum is named before the product.
    """
    via_f = kernels.reader(images)
    mul_b = b.mul if variance == STRAIGHT else tuple(zip(*b.mul))
    for x, (sums, prods) in enumerate(zip(a.add, a.mul)):
        fx = images[x]
        add_got, add_want = via_f(b.add[fx]), kernels.reader(sums)(images)
        mul_got, mul_want = via_f(mul_b[fx]), kernels.reader(prods)(images)
        if add_got != add_want or mul_got != mul_want:
            y = next(y for y in a.elements() if add_got[y] != add_want[y]
                     or mul_got[y] != mul_want[y])
            return ("add" if add_got[y] != add_want[y] else "mul", x, y)
    return None


def satisfies_law(images, a, b, variance: str) -> bool:
    return law_witness(images, a, b, variance) is None


def classify(images, a, b) -> str:
    """Exhaustive law check of a raw map; Both occurs where the laws coincide."""
    hom = satisfies_law(images, a, b, STRAIGHT)
    anti = satisfies_law(images, a, b, ANTI)
    if hom and anti:
        return BOTH
    if hom:
        return HOM_ONLY
    if anti:
        return ANTI_ONLY
    return NEITHER


def make_morphism(source, target, images, variance: str, name: str = "") -> Morphism:
    """Construct a morphism, refusing maps that break their declared law."""
    images = tuple(images)
    if len(images) != source.order:
        raise LawViolation(f"map table has {len(images)} entries, expected {source.order}")
    if any(not (0 <= v < target.order) for v in images):
        raise LawViolation("map table entry out of range")
    w = law_witness(images, source, target, variance)
    if w is not None:
        raise LawViolation(f"declared {variance} law fails at {w}", witness=w)
    return Morphism(source, target, images, variance, name)


# -- composition --------------------------------------------------------------


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f; variance is the XOR of the variances, re-validated."""
    if f.target != g.source:
        raise NotComposable(f"target of {f!r} differs from source of {g!r}")
    images = tuple(g.images[v] for v in f.images)
    variance = variance_xor(g.variance, f.variance)
    checked_composite(images, (), f.source, g.target, variance)
    return Morphism(f.source, g.target, images, variance)


def checked_composite(images, lawful, a, b, variance: str):
    """A composite table A -> B that must keep the variance law, returned as
    it is. A table in `lawful`, a set of tables that already passed that law,
    is taken on membership; any other is scanned by `law_witness`, and one
    that breaks the law raises the engine-bug RuntimeError."""
    if images not in lawful:
        w = law_witness(images, a, b, variance)
        if w is not None:
            raise RuntimeError(
                f"composite broke its {variance} law at {w}; this is an engine bug")
    return images


def reverse_morphism(a) -> Morphism:
    """The order-reversing unit: inversion on a group, the stored involution on a ring."""
    if is_group(a):
        return Morphism(a, a, a.inverses, ANTI, name="rev")
    if a.involution is None:
        raise NoInvolution(f"{a!r} carries no involution")
    return Morphism(a, a, a.involution, ANTI, name="rev")


def star_compose(g: Morphism, f: Morphism) -> Morphism:
    """(g∘f)∘rev: composes two anti-morphisms into an anti-morphism."""
    if not (g.is_anti and f.is_anti):
        raise NotComposable("star composition takes two anti-morphisms")
    return compose(compose(g, f), reverse_morphism(f.source))


def corresponding_anti(f: Morphism) -> Morphism:
    """f ↦ f∘rev, the order-reversing twin of a straight morphism."""
    if f.is_anti:
        raise NotComposable("expected a straight morphism")
    return compose(f, reverse_morphism(f.source))


# -- kernels and images ------------------------------------------------------


def kernel(m: Morphism):
    """Normal subgroup (groups) or two-sided ideal (rings) of elements sent to 1/0."""
    if is_group(m.source):
        members = tuple(sorted(x for x in m.source.elements()
                               if m.images[x] == m.target.identity))
        return Subgroup(m.source, members)
    members = tuple(sorted(x for x in m.source.elements()
                           if m.images[x] == m.target.zero))
    return RingIdeal(m.source, members, TWO_SIDED)


def image(m: Morphism):
    """Subgroup of the target (groups) or subring member tuple (rings)."""
    members = tuple(sorted(set(m.images)))
    if is_group(m.target):
        return Subgroup(m.target, members)
    return members


# -- enumeration ---------------------------------------------------------------


def enumerate_morphisms(a, b, variance: str, bound: int = DEFAULT_BOUND):
    """Complete, duplicate-free, canonically sorted morphism set.

    A group pair's tables are kept by `hom_an_tables`. Straight ring
    morphisms come from the generator-image extension search, anti ones as
    the morphisms into the opposite ring.
    """
    if is_group(a):
        tables = hom_an_tables(a, b, bound)[VARIANCES.index(variance)]
    else:
        tables = sorted(set(_hom_tables(a, b if variance == STRAIGHT else opposite(b),
                                        bound)))
    return tuple(Morphism(a, b, t, variance) for t in tables)


# source -> target -> {bound: (hom tables, anti tables)}, both sorted. The
# values are tuples of ints and refer to neither group, so an entry lives
# exactly as long as its two groups, and content-equal groups share it.
_HOM_AN_TABLES = weakref.WeakKeyDictionary()


def hom_an_tables(a, b, bound: int = DEFAULT_BOUND):
    """(Hom(A, B), An(A, B)) of two groups as sorted image tables: one
    search, whose tables are kept while both groups live and reused for the
    same bound. The anti tables are the straight ones read through the
    inverses of A. Every table has passed its law, so a composite can be
    law-checked by membership (`checked_composite`)."""
    by_target = _HOM_AN_TABLES.get(a)
    if by_target is None:
        by_target = _HOM_AN_TABLES[a] = weakref.WeakKeyDictionary()
    by_bound = by_target.setdefault(b, {})
    tables = by_bound.get(bound)
    if tables is None:
        homs = tuple(sorted(set(_hom_tables(a, b, bound))))
        antis = tuple(sorted(map(kernels.reader(a.inverses), homs)))
        tables = by_bound[bound] = (homs, antis)
    return tables


def brute_force_tables(a: FiniteGroup, b: FiniteGroup):
    """Oracle: every one of the |B|**|A| maps is decided by the map-space
    scan, which shares no code with the enumerator; returns (hom, anti)
    table lists in odometer order."""
    homs, antis = kernels.scan_morphism_space(
        a.order, b.order, kernels.flatten(a.cayley), kernels.flatten(b.cayley))
    return homs, antis


def find_isomorphism(g: FiniteGroup, h: FiniteGroup):
    """Exhaustive isomorphism search over generator images; None if not isomorphic.

    Returns the first bijective homomorphism in generator-assignment order.
    Refuses above order 12 rather than guessing heuristically.
    """
    if g.order != h.order:
        return None
    if g.order > ISO_SEARCH_LIMIT:
        raise BoundExceeded(
            f"isomorphism search limited to order {ISO_SEARCH_LIMIT}, got {g.order}")
    table = next((t for t in _hom_tables(g, h, DEFAULT_BOUND)
                  if len(set(t)) == g.order), None)
    return None if table is None else Morphism(g, h, table, STRAIGHT)


def nonunital_morphism_tables(a: FiniteRing, b: FiniteRing, variance: str,
                              bound: int = DEFAULT_BOUND):
    """Maps preserving + and (reversing) * with no unit constraint.

    This is the set the pointwise audit ranges over: dropping the unit
    constraint is what lets the zero map (the additive identity of the
    pointwise operations) belong to the set at all.
    """
    target = b if variance == STRAIGHT else opposite(b)
    return sorted(set(_hom_tables(a, target, bound, unital=False)))


def _hom_tables(a, b, bound: int, unital: bool = True):
    """Iterator over the straight morphism tables A -> B in
    generator-assignment order.

    A group is searched over its one table with the identity fixed; a ring
    over + and * with zero fixed, and the unit too when `unital`.
    """
    if is_group(a):
        return _extension_tables((a.cayley,), (b.cayley,),
                                 {a.identity: b.identity}, bound)
    fixed = {a.zero: b.zero, a.one: b.one} if unital else {a.zero: b.zero}
    return _extension_tables((a.add, a.mul), (b.add, b.mul), fixed, bound)


def _extension_tables(ops_a, ops_b, fixed: dict, bound: int):
    """Iterator over every map f with f(x op y) = f(x) op f(y) for each
    operation table of A and its partner table of B, and f(x) = fixed[x]
    on the fixed elements; in generator-assignment order.

    The search goes depth first over the generator images, one stage per
    generator. Each stage ends on a subset of A closed under the operations,
    and the law is checked there on the pairs no earlier stage checked; an
    assignment prefix that breaks it breaks it in every extension, so its
    subtree is skipped. The last stage ends on A, so every table yielded
    keeps the law. The bound is checked on the call, the tables are found
    as the iterator is read.
    """
    gens, plans = kernels.generating_plan(ops_a, fixed)
    targets = range(len(ops_b[0]))
    if len(targets) ** len(gens) > bound:
        raise BoundExceeded(
            f"{len(targets)}**{len(gens)} candidate extensions exceed bound {bound}")
    stages = [([(z, ops_b[k], i, j) for z, k, i, j in plan],
               _stage_rows(ops_a, ops_b, members, before))
              for plan, members, before in plans]
    f = [None] * len(ops_a[0])
    for x, v in fixed.items():
        f[x] = v
    if not _extend_lawfully(f, stages[0]):
        return iter(())
    return _descend(0, gens, stages, f, targets)


def _descend(k, gens, stages, f, targets):
    """Try every image of gens[k] on top of the lawful prefix in f, and go
    on with each that keeps the law through stage k + 1."""
    if k == len(gens):
        yield tuple(f)
        return
    for v in targets:
        f[gens[k]] = v
        if _extend_lawfully(f, stages[k + 1]):
            yield from _descend(k + 1, gens, stages, f, targets)


def _extend_lawfully(f, stage) -> bool:
    """Extend f over one stage's closure, then check the law on the stage's
    new pairs row by row: f(x op y) against f(x) op f(y) for every y at once."""
    plan, rows = stage
    for z, op, i, j in plan:
        f[z] = op[f[i]][f[j]]
    for x, ys, laws in rows:
        via_fys = kernels.reader(ys(f))
        fx = f[x]
        for products, op in laws:
            if products(f) != via_fys(op[fx]):
                return False
    return True


def _stage_rows(ops_a, ops_b, members, before):
    """(x, ys, laws) for each x of a closed subset of A: the reader of f(y)
    over the y of the subset that make a pair (x, y) not inside `before`,
    and per operation the reader of f(x op y) with the table of B."""
    rows = []
    for x in members:
        ys = [y for y in members if x not in before or y not in before]
        if ys:
            rows.append((x, kernels.reader(ys),
                         tuple((kernels.reader([op_a[x][y] for y in ys]), op_b)
                               for op_a, op_b in zip(ops_a, ops_b))))
    return rows


# -- factorization classes -----------------------------------------------------


def factor_pairs(a, c, an_ab, an_bc, hom_ac):
    """The factorization classes of the pairs (f, g) of anti tables in
    an_ab x an_bc, one (composite, pairs) per composite g∘f, sorted by
    composite.

    Every pair's composite is built and bucketed; each distinct composite
    goes to `checked_composite` once, in order of first appearance, against
    the straight tables `hom_ac` of A -> C. So a composite that breaks the
    straight law raises the RuntimeError that `compose` would raise at its
    first pair. With both sets sorted, each class lists its pairs in (f, g)
    order.
    """
    buckets: dict[tuple, list] = {}
    for f in an_ab:
        for g, comp in zip(an_bc, map(kernels.reader(f), an_bc)):
            buckets.setdefault(comp, []).append((f, g))
    for images in buckets:
        checked_composite(images, hom_ac, a, c, STRAIGHT)
    return tuple((images, tuple(buckets[images])) for images in sorted(buckets))


# -- automorphism algebra --------------------------------------------------------


def automorphism_algebra_report(g: FiniteGroup, bound: int = DEFAULT_BOUND) -> TheoremReport:
    """Build (Hom.Is, ∘) and (An.Is, *) with the connecting isomorphism,
    plus the union group under usual composition, and check them.

    Each group is the closure-checked product table of its family, so a
    composite is checked by membership in the enumerated set, which holds
    exactly the lawful maps. A family that is not closed gets no group and
    names the first pair whose product leaves it; an empty family gets no
    group and names itself. The checks that need both groups then FAIL
    with that witness.
    """
    autos, antis = (tuple(t for t in tables if len(set(t)) == g.order)
                    for tables in hom_an_tables(g, g, bound))
    auto_set, anti_set = set(autos), set(antis)
    union = sorted(auto_set | anti_set)
    # f ★ h is f read through h∘rev, and f ↦ f∘rev is the twin map
    after_rev = kernels.reader(g.inverses)
    straight, straight_w = _closed_group(autos, autos, "homis")
    star, star_w = _closed_group(antis, [after_rev(t) for t in antis], "anis")
    union_group, union_w = _closed_group(union, union, "unionis")
    union_order = union_group.order if union_group else None

    twin_w = iso_w = straight_w or star_w
    if twin_w is None:
        anti_index = {t: i for i, t in enumerate(antis)}
        twin = tuple(anti_index.get(after_rev(t)) for t in autos)
        twin_w = _twin_witness(autos, twin, straight, star)
        if find_isomorphism(straight, star) is None:
            iso_w = (straight.order, star.order)
    # (x, h) images with x∘h∘x^-1 outside Hom.Is, or the union's witness
    normal_w = union_w
    if union_group is not None:
        normal_w = normality_witness(union_group, Subgroup(union_group, tuple(
            i for i, t in enumerate(union) if t in auto_set)))
        if normal_w is not None:
            normal_w = tuple(union[i] for i in normal_w)
    checks = [
        check("families-equinumerous", len(autos) == len(antis),
              witness=(len(autos), len(antis))),
        check("twin-map-is-group-iso", twin_w is None, witness=twin_w),
        check("groups-abstractly-isomorphic", iso_w is None, witness=iso_w),
        check("union-is-group", union_group is not None, witness=union_w),
        check("straight-family-normal-in-union", normal_w is None,
              witness=normal_w),
    ]
    if g.abelian:
        # the least table in one family only, else the orders that differ
        apart = min(auto_set ^ anti_set, default=None)
        if apart is None and union_order != len(auto_set):
            apart = (union_order, len(auto_set))
        checks.append(check("abelian-families-coincide", apart is None,
                            witness=apart))
    else:
        shared = min(auto_set & anti_set, default=None)
        checks.append(check("nonabelian-families-disjoint", shared is None,
                            witness=shared))
        checks.append(check("union-has-index-two", union_order == 2 * len(autos),
                            witness=(union_order, 2 * len(autos))))
    return TheoremReport(
        theorem=f"automorphism-algebra/{g.name}",
        inputs=(("group", g.name),),
        checks=tuple(checks),
    )


def _closed_group(tables, through, name: str):
    """The group whose product is tables[i] read through through[j], and
    None; or None and the first pair (images) whose product is not among
    the tables, or the family's name and its empty member list when it has
    no members and so no identity."""
    if not tables:
        return None, (name, ())
    rows, leaving = kernels.product_table(tables, through)
    if rows is None:
        return None, tuple(tables[k] for k in leaving)
    return validate_group(rows, name=name), None


def _twin_witness(autos, twin, straight, star):
    """The first pair of automorphisms (images) on which f ↦ f∘rev, the star
    group index `twin[i]` of autos[i] (None outside it), is not a
    homomorphism into the star group, else its index table if it is not
    injective; None when it is a group isomorphism."""
    for i, j in itertools.product(range(straight.order), repeat=2):
        if None in (twin[i], twin[j]) or \
                star.mul(twin[i], twin[j]) != twin[straight.mul(i, j)]:
            return (autos[i], autos[j])
    return None if len(set(twin)) == straight.order else twin


# -- pointwise ring audit ---------------------------------------------------------


def pointwise_ring_audit(a: FiniteRing, b: FiniteRing, bound: int = DEFAULT_BOUND):
    """Audit whether pointwise + and * close on the morphism sets A -> B:
    ((straight side, anti side), correspondence witness).

    Each side is `_closure_audit`'s (variance, size, witnesses). The
    correspondence witness is the first straight table whose σ-image is not
    an anti table, else (straight size, anti size) when σ misses some, or
    ("no-involution", source) when A has no involution σ; None when σ is a
    bijection between the sets. Each variance's nonunital set is enumerated
    once and serves both its side and the correspondence. The claim under
    audit is reported, never asserted: non-commutative (and most
    commutative) targets fail with explicit witnesses.
    """
    hom_tables = nonunital_morphism_tables(a, b, STRAIGHT, bound)
    anti_tables = nonunital_morphism_tables(a, b, ANTI, bound)
    corr_witness = ("no-involution", a.name)
    if a.involution is not None:
        # σ is a bijection of A, so it maps distinct tables to distinct tables
        sigma = kernels.reader(a.involution)
        anti_set = set(anti_tables)
        corr_witness = next((t for t in hom_tables if sigma(t) not in anti_set), None)
        if corr_witness is None and len(hom_tables) != len(anti_tables):
            corr_witness = (len(hom_tables), len(anti_tables))
    return ((_closure_audit(a, b, STRAIGHT, hom_tables),
             _closure_audit(a, b, ANTI, anti_tables)), corr_witness)


def _closure_audit(a, b, variance, tables):
    """(variance, size, (zero, sum, product, unit witnesses)) of one set of
    tables; each witness is None when its law holds.

    The zero witness is the zero map when the set lacks it; the sum and
    product witnesses are the first (t1, t2, t1 op t2) leaving the set; the
    unit witness is ((e, first table e fails to fix), ...) over every
    candidate e, or (variance, ()) for an empty set.
    """
    in_set = set(tables)
    zero_map = (b.zero,) * a.order
    add_witness = None
    mul_witness = None

    def pointwise(op, t1, t2):
        return tuple([op[u][v] for u, v in zip(t1, t2)])

    for t1 in tables:
        for t2 in tables:
            if add_witness is None:
                s = pointwise(b.add, t1, t2)
                if s not in in_set:
                    add_witness = (t1, t2, s)
            if mul_witness is None:
                p = pointwise(b.mul, t1, t2)
                if p not in in_set:
                    mul_witness = (t1, t2, p)

    def first_unfixed(e):
        return next((t for t in tables if pointwise(b.mul, e, t) != t
                     or pointwise(b.mul, t, e) != t), None)

    unfixed = [(e, first_unfixed(e)) for e in tables]
    unit_witness = None
    if not tables:
        unit_witness = (variance, ())
    elif all(t is not None for _, t in unfixed):
        unit_witness = tuple(unfixed)
    zero_witness = None if zero_map in in_set else zero_map
    return variance, len(tables), (zero_witness, add_witness, mul_witness, unit_witness)


def natural_an_map(r: FiniteRing, ideal: RingIdeal, bound: int = DEFAULT_BOUND):
    """Audit f ↦ π∘f from An(R,R) to An(R,R/I), π the projection onto R/I;
    the pointwise sum and product are checked on the maps it is defined on.

    Returns its four first counterexamples, named by images, each None when
    its law holds: f whose π∘f is not a total map R -> R/I; (f, π∘f) with
    π∘f not in An(R, R/I); (f1, f2) with π∘(f1+f2) != π∘f1 + π∘f2; and
    (f1, f2) with π∘(f1·f2) != π∘f1 · π∘f2.
    """
    q, proj = quotient_ring(r, ideal)
    pi = proj.images
    domain = [f.images for f in enumerate_morphisms(r, r, ANTI, bound)]
    target_tables = {m.images for m in enumerate_morphisms(r, q, ANTI, bound)}
    pairs = [(f, tuple(pi[v] for v in f)) for f in domain]  # (f, π∘f)
    defined = [(f, phi) for f, phi in pairs
               if len(phi) == r.order and set(phi) <= set(q.elements())]

    def first_break(op_r, op_q):
        return next(((f1, f2) for (f1, phi1), (f2, phi2)
                     in itertools.product(defined, repeat=2)
                     if tuple(pi[op_r(u, v)] for u, v in zip(f1, f2))
                     != tuple(map(op_q, phi1, phi2))), None)

    return (next((f for f, phi in pairs if (f, phi) not in defined), None),
            next((pair for pair in pairs if pair[1] not in target_tables), None),
            first_break(r.add_, q.add_),
            first_break(r.mul_, q.mul_))
