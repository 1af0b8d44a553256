import gc
import itertools
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimorph.corpus import group_corpus, named_ideal, ring_corpus
from antimorph.errors import BoundExceeded, LawViolation, NoInvolution, NotComposable
from antimorph import kernels, morphisms, suite
from antimorph.maps import ANTI, STRAIGHT, VARIANCES, Morphism
from antimorph.morphisms import (
    ANTI_ONLY,
    BOTH,
    HOM_ONLY,
    NEITHER,
    automorphism_algebra,
    brute_force_tables,
    classify,
    compose,
    corresponding_anti,
    corresponding_hom,
    enumerate_morphisms,
    find_isomorphism,
    image,
    kernel,
    law_witness,
    make_morphism,
    natural_an_map,
    nonunital_morphism_tables,
    pointwise_ring_audit,
    reverse_morphism,
    star_compose,
)
from antimorph.groups import (
    direct_product,
    generating_set,
    subgroup_closure,
    validate_group,
)
from antimorph.rings import opposite, quotient_ring
from antimorph.theorems import sign_morphism

from corpus_builders import cyclic, symmetric3, zmod


def _factorization_classes(a, b, c):
    """All composable anti-pairs A -> B -> C, partitioned by their composite."""
    return morphisms.factor_pairs(a, b, c,
                                  morphisms.enumerate_morphisms(a, b, ANTI),
                                  morphisms.enumerate_morphisms(b, c, ANTI))


def test_identity_classifies_both_on_abelian():
    z4 = cyclic(4)
    assert classify(tuple(z4.elements()), z4, z4) == BOTH


def test_inversion_on_s3_is_anti_only():
    s3 = symmetric3()
    assert classify(s3.inverses, s3, s3) == ANTI_ONLY


def test_swap_on_z2_is_neither():
    z2 = cyclic(2)
    assert classify((1, 0), z2, z2) == NEITHER


def test_make_morphism_rejects_law_breakers():
    z2 = cyclic(2)
    with pytest.raises(LawViolation):
        make_morphism(z2, z2, (1, 0), STRAIGHT)


def test_reverse_morphism_facts():
    z2 = cyclic(2)
    assert reverse_morphism(z2).images == (0, 1)
    s3 = symmetric3()
    rev = reverse_morphism(s3)
    assert rev.variance == ANTI
    assert classify(rev.images, s3, s3) == ANTI_ONLY
    assert compose(rev, rev).images == tuple(s3.elements())
    t2 = ring_corpus()["t2f2"]
    assert reverse_morphism(t2).images == t2.involution
    bare = opposite(t2)
    with pytest.raises(NoInvolution):
        reverse_morphism(bare)


def test_reverse_commutes_with_straight_group_maps():
    groups = group_corpus()
    for a_name, b_name in (("s3", "z2"), ("d4", "z2"), ("s3", "s3")):
        a, b = groups[a_name], groups[b_name]
        rev_a, rev_b = reverse_morphism(a), reverse_morphism(b)
        for f in enumerate_morphisms(a, b, STRAIGHT):
            assert compose(f, rev_a).images == compose(rev_b, f).images


def test_compose_variance_and_law_revalidation():
    s3 = symmetric3()
    z2 = cyclic(2)
    inv = reverse_morphism(s3)
    sign = sign_morphism(s3, z2)
    assert compose(inv, inv).variance == STRAIGHT
    mixed = compose(sign, inv)
    assert mixed.variance == ANTI
    assert mixed.images == sign.images  # parity is inversion-invariant
    with pytest.raises(NotComposable):
        compose(sign, sign)


def test_composing_inclusion_with_conjugation_stays_straight():
    s3 = symmetric3()
    a3 = subgroup_closure(s3, (3,))
    from antimorph.groups import subgroup_as_group

    a3_grp, incl = subgroup_as_group(s3, a3)
    t = 1  # a transposition
    conj = Morphism(s3, s3,
                    tuple(s3.mul(s3.mul(t, x), s3.inv(t)) for x in s3.elements()),
                    STRAIGHT)
    out = compose(conj, incl)
    assert out.variance == STRAIGHT


def test_star_composition_monoid_on_s3():
    s3 = symmetric3()
    antis = enumerate_morphisms(s3, s3, ANTI)
    rev = reverse_morphism(s3)
    inv_star = star_compose(rev, rev)
    assert inv_star.images == rev.images
    table = {m.images for m in antis}
    for f in antis:
        assert star_compose(f, rev).images == f.images
        assert star_compose(rev, f).images == f.images
        for g in antis:
            assert star_compose(g, f).images in table
    for f, g, h in itertools.product(antis, repeat=3):
        assert star_compose(star_compose(f, g), h).images == \
            star_compose(f, star_compose(g, h)).images


def test_correspondence_is_involutive_bijection():
    s3 = symmetric3()
    homs = enumerate_morphisms(s3, s3, STRAIGHT)
    twins = {corresponding_anti(f).images for f in homs}
    assert len(twins) == len(homs)
    for f in homs:
        assert corresponding_hom(corresponding_anti(f)).images == f.images
    z2 = cyclic(2)
    ident = Morphism(z2, z2, (0, 1), STRAIGHT)
    twin = corresponding_anti(ident)
    assert twin.variance == ANTI and twin.images == (0, 1)


CORRESPONDENCE_GROUPS = ("s3", "z2xz2", "z4")


def _correspondence_checks():
    """Checks of the correspondence reports on three groups, by pair "a-b"."""
    groups = group_corpus()
    reports = suite.correspondence_reports(
        {name: groups[name] for name in CORRESPONDENCE_GROUPS})
    return {r.theorem.split("/", 1)[1]: r.check_map() for r in reports}


def _first_stray(enumerated, scanned):
    """Naive: the least entry listed more often on one side."""
    return next((p for p in sorted(set(enumerated) | set(scanned))
                 if enumerated.count(p) != scanned.count(p)), None)


@pytest.mark.parametrize("dropped", ["hom_and_an", "brute_force_tables"])
def test_map_space_scan_check_names_the_first_stray_table(monkeypatch, dropped):
    # Mutant: the enumerator, or the oracle, loses its last straight map. The
    # counts then differ, but the witness names the table itself.
    groups = group_corpus()
    s3, z4 = groups["s3"], groups["z4"]
    real_enum, real_scan = suite.hom_and_an, suite.brute_force_tables

    def dropping_enum(a, b, bound=suite.DEFAULT_BOUND):
        homs, antis = real_enum(a, b, bound)
        return homs[:-1], antis

    def dropping_scan(a, b):
        homs, antis = real_scan(a, b)
        return homs[:-1], antis

    mutant = dropping_enum if dropped == "hom_and_an" else dropping_scan
    monkeypatch.setattr(suite, dropped, mutant)
    enumerated = [(v, m.images)
                  for v, ms in zip(VARIANCES, suite.hom_and_an(s3, z4)) for m in ms]
    homs, antis = suite.brute_force_tables(s3, z4)
    scanned = [(STRAIGHT, t) for t in homs] + [(ANTI, t) for t in antis]
    naive = _first_stray(enumerated, scanned)
    assert naive is not None and naive[0] == STRAIGHT
    checks = _correspondence_checks()
    check = checks["s3-z4"]["matches-map-space-scan"]
    assert not check.passed and check.witness == naive
    assert checks["s3-z4"]["correspondence-involutive"].passed


@pytest.mark.parametrize("variance", VARIANCES)
def test_endomorphism_scan_checks_name_the_first_stray_table(monkeypatch, variance):
    # Mutant: the enumerator lists its first map again in place of its last.
    # The counts still agree, and only the witness shows which table differs.
    s3 = group_corpus()["s3"]
    real = suite.hom_and_an

    def repeating(a, b, bound=suite.DEFAULT_BOUND):
        return tuple(ms[:-1] + ms[:1] if v == variance else ms
                     for v, ms in zip(VARIANCES, real(a, b, bound)))

    monkeypatch.setattr(suite, "hom_and_an", repeating)
    checks = suite.endomorphism_monoid_report(s3).check_map()
    listed = [m.images for m in repeating(s3, s3)[VARIANCES.index(variance)]]
    homs, antis = brute_force_tables(s3, s3)
    scanned = homs if variance == STRAIGHT else antis
    assert len(listed) == len(scanned)
    naive = _first_stray(listed, scanned)
    assert naive is not None
    mutated, kept = (("straight-count-matches-scan", "anti-count-matches-scan")
                     if variance == STRAIGHT else
                     ("anti-count-matches-scan", "straight-count-matches-scan"))
    assert not checks[mutated].passed and checks[mutated].witness == naive
    assert checks[kept].passed and checks["counts-equal"].passed


def _reconstruction_checks(names):
    """Checks of the reconstruction reports on the named corpus groups, by
    pair "a-c"."""
    groups = {k: group_corpus()[k] for k in names}
    return {dict(r.inputs)["pair"].replace(",", "-"): r.check_map()
            for r in suite.reconstruction_reports(groups)}


def test_reconstruction_names_the_first_map_its_twin_does_not_rebuild(monkeypatch):
    # Mutant: the reverse map is the identity, which is anti on abelian
    # groups, so the rebuild of f is its twin f∘inv, which differs from f
    # unless f sends every element and its inverse alike.
    names = ("z2", "z3", "z4")
    groups = group_corpus()
    monkeypatch.setattr(suite, "reverse_morphism",
                        lambda g: Morphism(g, g, tuple(g.elements()), ANTI))
    checks = _reconstruction_checks(names)
    failed = 0
    for a, c in itertools.product(names, repeat=2):
        ga = groups[a]
        naive = next((f.images for f in enumerate_morphisms(ga, groups[c], STRAIGHT)
                      if tuple(f.images[ga.inv(x)] for x in ga.elements())
                      != f.images), None)
        rebuilt = checks[f"{a}-{c}"]["straight-equals-twin-after-reverse"]
        assert rebuilt.passed == (naive is None) and rebuilt.witness == naive
        failed += naive is not None
    assert 0 < failed < len(names) ** 2
    assert checks["z3-z3"]["straight-equals-twin-after-reverse"].witness == (0, 1, 2)


def test_reconstruction_names_the_first_pair_listed_twice(monkeypatch):
    # Mutant: the last class also lists the first pair of every class, last
    # class first, so the first pair seen twice is the last class's own
    # first pair, which is not the least pair listed twice.
    real = suite.factor_pairs
    firsts = {}

    def repeating(a, b, c, an_ab, an_bc):
        classes = real(a, b, c, an_ab, an_bc)
        *rest, last = classes
        extra = tuple(cl.pairs[0] for cl in reversed(classes))
        f, g = last.pairs[0]
        firsts[(a.name, c.name)] = (f.images, g.images), min(
            (p.images, q.images) for p, q in extra)
        return (*rest, replace(last, pairs=last.pairs + extra))

    monkeypatch.setattr(suite, "factor_pairs", repeating)
    checks = _reconstruction_checks(("z2", "z3", "s3"))
    assert any(first != least for first, least in firsts.values())
    for (a, c), (first, _) in firsts.items():
        disjoint = checks[f"{a}-{c}"]["classes-disjoint"]
        assert not disjoint.passed and disjoint.witness == first


def test_reconstruction_names_the_least_stray_composite_and_unfactored_map(
        monkeypatch):
    # Mutant: every class composite is translated by k, which does not fix
    # the identity, so no composite is straight and no straight map is a
    # composite. The witnesses are the least translated map and the least
    # straight map.
    names = ("z2", "z3", "s3")
    groups = group_corpus()
    real = suite.factor_pairs

    def shift(c):
        k = next(x for x in c.elements() if x != c.identity)
        return lambda t: tuple(c.mul(k, v) for v in t)

    def translated(a, b, c, an_ab, an_bc):
        return tuple(replace(cl, composite=Morphism(
            a, c, shift(c)(cl.composite.images), STRAIGHT))
            for cl in real(a, b, c, an_ab, an_bc))

    monkeypatch.setattr(suite, "factor_pairs", translated)
    checks = _reconstruction_checks(names)
    moved_order = False
    for a, c in itertools.product(names, repeat=2):
        homs = [f.images for f in enumerate_morphisms(groups[a], groups[c], STRAIGHT)]
        shifted = [shift(groups[c])(t) for t in homs]
        moved_order |= shifted != sorted(shifted)
        pair = checks[f"{a}-{c}"]
        assert not pair["composites-are-straight"].passed
        assert pair["composites-are-straight"].witness == min(shifted)
        assert not pair["every-straight-map-factors"].passed
        assert pair["every-straight-map-factors"].witness == homs[0]
    assert moved_order


def test_correspondence_involutive_names_the_first_moved_map(monkeypatch):
    # Mutant: the round trip sends the last element to the identity, which
    # moves every straight map whose last image is not the identity.
    groups = group_corpus()
    real = suite.corresponding_hom

    def breaking(f):
        g = real(f)
        images = g.images[:-1] + (g.target.identity,)
        return Morphism(g.source, g.target, images, g.variance)

    monkeypatch.setattr(suite, "corresponding_hom", breaking)
    checks = _correspondence_checks()
    for a, b in itertools.product(CORRESPONDENCE_GROUPS, repeat=2):
        naive = next((f.images
                      for f in enumerate_morphisms(groups[a], groups[b], STRAIGHT)
                      if breaking(corresponding_anti(f)).images != f.images), None)
        involutive = checks[f"{a}-{b}"]["correspondence-involutive"]
        assert involutive.passed == (naive is None)
        assert involutive.witness == naive
        assert checks[f"{a}-{b}"]["matches-map-space-scan"].passed
    assert not checks["s3-s3"]["correspondence-involutive"].passed


def test_kernel_image_cokernel():
    s3 = symmetric3()
    z2 = cyclic(2)
    sign = sign_morphism(s3, z2)
    assert kernel(sign).members == (0, 3, 4)
    assert image(sign).members == (0, 1)
    from antimorph.groups import normality_witness, quotient, subgroup_as_group, subgroup_closure

    # the cokernel target/image exists only when the image is normal
    t_grp, incl = subgroup_as_group(s3, subgroup_closure(s3, (1,)))
    assert normality_witness(s3, image(incl)) is not None
    assert normality_witness(z2, image(sign)) is None
    assert quotient(z2, image(sign))[0].order == 1


def test_injective_anti_iff_trivial_kernel():
    s3 = symmetric3()
    for m in enumerate_morphisms(s3, s3, ANTI):
        assert m.is_injective() == (kernel(m).members == (s3.identity,))


def test_enumerate_counts_and_bound():
    z2 = cyclic(2)
    homs = enumerate_morphisms(z2, z2, STRAIGHT)
    assert [m.images for m in homs] == [(0, 0), (0, 1)]
    s3 = symmetric3()
    assert len(enumerate_morphisms(s3, s3, STRAIGHT)) == 10
    assert len(enumerate_morphisms(s3, s3, ANTI)) == 10
    with pytest.raises(BoundExceeded):
        enumerate_morphisms(s3, s3, STRAIGHT, bound=10)


def _groups_of_order_at_most_8():
    z2 = cyclic(2)
    klein = direct_product(z2, z2)[0]
    return list(group_corpus().values()) + [
        cyclic(1), cyclic(5), cyclic(7), cyclic(8),
        direct_product(z2, cyclic(4))[0], direct_product(klein, z2)[0]]


def test_search_bound_counts_generating_set_candidates():
    # The benchmark's strata count |B|**|gens| candidates by
    # `generating_set`, so the search must extend over that many generators.
    rng = random.Random(24)
    groups = _groups_of_order_at_most_8()
    assert len(groups) == 14
    for g in groups + [_relabeled(g, rng) for g in groups for _ in range(20)]:
        size = len(generating_set(g))
        with pytest.raises(BoundExceeded, match=rf"^2\*\*{size} candidate"):
            enumerate_morphisms(g, cyclic(2), STRAIGHT, bound=2 ** size - 1)


def test_search_leaves_no_reference_cycle():
    # With the collector off, whatever a search leaves in a cycle stays
    # unreachable until gc.collect() finds it.
    d4, s3, m2 = group_corpus()["d4"], symmetric3(), ring_corpus()["m2f2"]
    gc.collect()
    gc.disable()
    try:
        homs, antis = morphisms.hom_and_an(d4, s3)
        ring_antis = enumerate_morphisms(m2, m2, ANTI)
        # an isomorphism search stops reading the search at its first find
        iso = find_isomorphism(d4, d4)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert ([m.images for m in homs], [m.images for m in antis]) == \
        brute_force_tables(d4, s3)
    # M2(F2) is simple, so its anti endomorphisms are the transpose after
    # each of its six inner automorphisms
    assert len(ring_antis) == 6
    assert reverse_morphism(m2).images in {m.images for m in ring_antis}
    assert iso is not None and iso.is_bijective()


def _identity_last(g, rng, name=""):
    """A seeded relabeling of g with its identity renamed |G| - 1, so it
    equals no bundled group, whose identities are 0."""
    p = list(g.elements())
    rng.shuffle(p)
    last = p.index(g.order - 1)
    p[g.identity], p[last] = p[last], p[g.identity]
    return replace(_relabeled_by(g, p), name=name)


@pytest.fixture
def counted_searches(monkeypatch):
    """The (source, target) of every `_hom_tables` search from here on."""
    calls = []
    real = morphisms._hom_tables

    def counting(a, b, *rest, **kwargs):
        calls.append((a, b))
        return real(a, b, *rest, **kwargs)

    monkeypatch.setattr(morphisms, "_hom_tables", counting)
    return calls


def test_a_kept_search_is_reused_only_for_its_own_bound(counted_searches):
    # A hit needs the same bound: a bound below |B|**|gens| searches again,
    # and so still raises, right after a kept search under the default.
    rng = random.Random(29)
    a = _identity_last(group_corpus()["d4"], rng)
    b = _identity_last(symmetric3(), rng)
    first = morphisms.hom_and_an(a, b)
    assert morphisms.hom_and_an(a, b) == first
    assert enumerate_morphisms(a, b, ANTI) == first[1]
    assert len(counted_searches) == 1
    tight = b.order ** len(generating_set(a)) - 1
    with pytest.raises(BoundExceeded):
        morphisms.hom_and_an(a, b, bound=tight)
    with pytest.raises(BoundExceeded):
        enumerate_morphisms(a, b, STRAIGHT, bound=tight)
    assert len(counted_searches) == 3
    # a wider bound is a search of its own, with the same sets
    assert morphisms.hom_and_an(a, b, bound=2 * morphisms.DEFAULT_BOUND) == first
    assert len(counted_searches) == 4


def test_kept_tables_die_with_their_groups():
    # With the collector off, only reference counts free anything: the
    # group is gone the moment its last reference goes, and its entry with it.
    rng = random.Random(30)
    gc.collect()
    gc.disable()
    try:
        g = _identity_last(symmetric3(), rng)
        h = _identity_last(group_corpus()["q8"], rng)
        kept = len(morphisms._GROUP_TABLES)
        homs, antis = morphisms.hom_and_an(g, h)
        assert len(homs) == len(antis) == 2
        morphisms.hom_and_an(h, g)
        assert len(morphisms._GROUP_TABLES) == kept + 2
        g_ref = weakref.ref(g)
        del g, homs, antis
        assert g_ref() is None
        assert len(morphisms._GROUP_TABLES) == kept + 1
        del h
        assert len(morphisms._GROUP_TABLES) == kept
    finally:
        gc.enable()


def test_content_equal_groups_share_one_search(counted_searches):
    # Two validations of one table under different names are equal groups:
    # the second reads the first one's tables, but its maps are its own.
    rng = random.Random(31)
    a = _identity_last(symmetric3(), rng, name="left")
    b = _identity_last(group_corpus()["z2xz2"], rng, name="right")
    twin_a, twin_b = replace(a, name="twin-left"), replace(b, name="twin-right")
    assert (twin_a, twin_b) == (a, b) and twin_a is not a
    sets = morphisms.hom_and_an(a, b)
    twin_sets = morphisms.hom_and_an(twin_a, twin_b)
    assert len(counted_searches) == 1
    assert [[m.images for m in ms] for ms in twin_sets] == \
        [[m.images for m in ms] for ms in sets]
    for ms, twins in zip(sets, twin_sets):
        assert all(m.source is a and m.target is b for m in ms)
        assert all(m.source is twin_a and m.target is twin_b for m in twins)


def test_group_sections_search_each_pair_once(counted_searches):
    # One set of relabeled groups, as a benchmark round draws them: the
    # five group sections search each of the 100 ordered pairs once, where
    # searching per section made 319 searches.
    rng = random.Random(32)
    z2 = cyclic(2)
    products = [direct_product(z2, cyclic(3))[0], direct_product(z2, symmetric3())[0]]
    bases = [g for _, g in sorted(group_corpus().items())] + products
    groups = {f"g{i}": _identity_last(g, rng, name=f"g{i}") for i, g in enumerate(bases)}
    assert len(set(groups.values())) == len(groups) == 10
    assert not any(g in morphisms._GROUP_TABLES for g in groups.values())
    for builder in ("variance_table_reports", "correspondence_reports",
                    "reconstruction_reports", "star_monoid_reports",
                    "morphism_property_reports"):
        reports = getattr(suite, builder)(groups)
        assert reports and all(r.passed for r in reports), builder
    assert len(counted_searches) == 100
    assert len(set(counted_searches)) == 100


def test_brute_force_agrees_with_enumeration():
    s3 = symmetric3()
    bh, ba = brute_force_tables(s3, s3)
    assert len(bh) == len(ba) == 10
    assert sorted(m.images for m in enumerate_morphisms(s3, s3, STRAIGHT)) == sorted(bh)
    assert sorted(m.images for m in enumerate_morphisms(s3, s3, ANTI)) == sorted(ba)


def test_ring_enumeration_matches_opposite_route():
    t2 = ring_corpus()["t2f2"]
    antis = enumerate_morphisms(t2, t2, ANTI)
    via_op = enumerate_morphisms(t2, opposite(t2), STRAIGHT)
    assert sorted(m.images for m in antis) == sorted(m.images for m in via_op)
    sigma = reverse_morphism(t2)
    assert sigma.images in {m.images for m in antis}


def test_factorization_classes_on_z2():
    z2 = cyclic(2)
    classes = _factorization_classes(z2, z2, z2)
    assert len(classes) == 2
    assert sum(len(c.pairs) for c in classes) == 4
    for cls in classes:
        assert classify(cls.composite.images, z2, z2) in (HOM_ONLY, BOTH)


def test_factorization_through_trivial_group():
    z2 = cyclic(2)
    triv = cyclic(1)
    classes = _factorization_classes(z2, triv, z2)
    assert len(classes) == 1
    assert classes[0].composite.images == (0, 0)


def test_law_of_factorization_assigns_nonempty_class():
    s3 = symmetric3()
    classes = {cls.composite.images: cls
               for cls in _factorization_classes(s3, s3, s3)}
    for f in enumerate_morphisms(s3, s3, STRAIGHT):
        cls = classes[f.images]
        assert cls.pairs
        for left, right in cls.pairs:
            assert compose(right, left).images == f.images


def test_automorphism_algebra_s3():
    alg = automorphism_algebra(symmetric3())
    assert len(alg.autos) == 6
    assert alg.union_group.order == 12
    assert not {m.images for m in alg.autos} & {m.images for m in alg.anti_autos}
    assert alg.normal_witness is None


def test_union_is_group_fails_when_the_union_loses_a_member(monkeypatch):
    # Drop the last map of the union of both families, so composing does not
    # stay inside it: the report names the first pair that leaves the union,
    # the checks that need the union group FAIL too, and the run completes.
    from antimorph.suite import RunConfig, run

    real = morphisms._closed_group

    def drop_last(tables, through, name):
        if name == "unionis" and len(tables) > 1:  # not Z2's one-map union
            tables, through = tables[:-1], through[:-1]
        return real(tables, through, name)

    monkeypatch.setattr(morphisms, "_closed_group", drop_last)
    records = run(RunConfig(selection=("automorphism-algebra/s3/",))).records
    found = {r.check_id.rsplit("/", 1)[1]: r for r in records}
    assert not found["union-is-group"].passed
    # the dropped map (0, 5, 2, 4, 3, 1) is the composite of this pair
    assert found["union-is-group"].witness == \
        "((0, 1, 2, 4, 3, 5), (0, 5, 2, 3, 4, 1))"
    assert not found["straight-family-normal-in-union"].passed
    assert not found["union-has-index-two"].passed
    assert found["union-has-index-two"].witness == "(None, 12)"
    assert found["families-equinumerous"].passed
    assert found["twin-map-is-group-iso"].passed


@pytest.mark.parametrize("variance", VARIANCES)
def test_group_checks_fail_when_a_family_loses_a_member(install_enumerator, variance):
    # Mutant enumerator: Aut(S3) (straight) or its anti-automorphisms lose
    # their last member, so that family is not closed under its product
    # (composition, or the star product p ★ q = p∘q∘rev). The checks that
    # need both groups FAIL with the first pair whose product leaves the
    # family, and the run completes.
    from antimorph.suite import RunConfig, run

    real = morphisms.enumerate_morphisms

    def dropping(a, b, v, bound=morphisms.DEFAULT_BOUND):
        out = real(a, b, v, bound)
        if a.name != "s3" or v != variance:
            return out
        last = max(i for i, m in enumerate(out) if m.is_bijective())
        return out[:last] + out[last + 1:]

    install_enumerator(morphisms, dropping)
    records = run(RunConfig(selection=("automorphism-algebra/s3/",))).records
    found = {r.check_id.rsplit("/", 1)[1]: r for r in records}
    s3 = group_corpus()["s3"]
    family = [m.images for m in dropping(s3, s3, variance) if m.is_bijective()]
    rev = s3.inverses if variance == ANTI else tuple(s3.elements())
    first = next((p, q) for p in family for q in family
                 if tuple(p[q[x]] for x in rev) not in family)
    for name in ("twin-map-is-group-iso", "groups-abstractly-isomorphic"):
        assert not found[name].passed
        assert found[name].witness == repr(first)
    assert found["families-equinumerous"].witness == "(5, 6)" \
        if variance == STRAIGHT else "(6, 5)"
    assert not found["union-is-group"].passed


def test_group_checks_fail_when_z2_loses_its_only_automorphism(install_enumerator):
    # Mutant enumerator: Z2's straight family is empty. An empty family has no
    # identity, so before it was guarded `validate_group` raised NoIdentity,
    # which ends a CLI run with exit 2; now the checks that need the group
    # FAIL with a witness naming the family, and the run completes.
    from antimorph.suite import RunConfig, run

    real = morphisms.enumerate_morphisms

    def emptied(a, b, v, bound=morphisms.DEFAULT_BOUND):
        out = real(a, b, v, bound)
        if a.name != "z2" or v != STRAIGHT:
            return out
        return tuple(m for m in out if not m.is_bijective())

    install_enumerator(morphisms, emptied)
    records = run(RunConfig(selection=("automorphism-algebra/z2/",))).records
    found = {r.check_id.rsplit("/", 1)[1]: r for r in records}
    for name in ("twin-map-is-group-iso", "groups-abstractly-isomorphic"):
        assert not found[name].passed
        assert found[name].witness == "('homis', ())"
    assert found["families-equinumerous"].witness == "(0, 1)"
    assert not found["abelian-families-coincide"].passed
    assert found["union-is-group"].passed


def _bijective(maps):
    return sorted(m.images for m in maps if m.is_bijective())


def test_straight_family_normal_in_union_names_a_conjugate_outside_it(
        install_enumerator):
    # Mutant enumerator: of Aut(Z2xZ2) = GL2(F2) only the identity and one
    # involution stay straight. They form a subgroup of the union, which the
    # full anti family keeps a group, but not a normal one: the check names
    # the first (x, h) in table order with x∘h∘x^-1 outside the family.
    g = group_corpus()["z2xz2"]
    real = morphisms.enumerate_morphisms
    identity = tuple(g.elements())

    def keeping_two(a, b, v, bound=morphisms.DEFAULT_BOUND):
        out = real(a, b, v, bound)
        if a.name != "z2xz2" or b.name != "z2xz2" or v != STRAIGHT:
            return out
        flip = next(t for t in _bijective(out)
                    if t != identity and all(t[y] == x for x, y in enumerate(t)))
        return tuple(m for m in out
                     if not m.is_bijective() or m.images in (identity, flip))

    install_enumerator(morphisms, keeping_two)
    checks = suite.automorphism_algebra_report(g).check_map()
    autos = _bijective(keeping_two(g, g, STRAIGHT))
    union = sorted(set(autos).union(_bijective(real(g, g, ANTI))))
    assert len(autos) == 2 and len(union) == 6

    def inverse(x):
        return tuple(sorted(range(len(x)), key=x.__getitem__))

    first = next((x, h) for x in union for h in autos
                 if tuple(x[h[y]] for y in inverse(x)) not in autos)
    assert checks["union-is-group"].passed
    assert not checks["straight-family-normal-in-union"].passed
    assert checks["straight-family-normal-in-union"].witness == first


def test_nonabelian_families_disjoint_names_the_least_shared_table(
        install_enumerator):
    # Mutant enumerator: two automorphisms of S3, the larger one first, are
    # appended to its anti family. The check names the least table that
    # both families hold.
    s3 = group_corpus()["s3"]
    real = morphisms.enumerate_morphisms
    autos = _bijective(real(s3, s3, STRAIGHT))
    added = (autos[-1], autos[1])

    def adding(a, b, v, bound=morphisms.DEFAULT_BOUND):
        out = real(a, b, v, bound)
        if a.name == b.name == "s3" and v == ANTI:
            out = out + tuple(Morphism(a, b, t, ANTI) for t in added)
        return out

    install_enumerator(morphisms, adding)
    checks = suite.automorphism_algebra_report(s3).check_map()
    antis = _bijective(adding(s3, s3, ANTI))
    shared = [t for t in autos if t in antis]
    assert shared == [autos[1], autos[-1]]
    assert not checks["nonabelian-families-disjoint"].passed
    assert checks["nonabelian-families-disjoint"].witness == autos[1]


@pytest.mark.parametrize("dropped", ["anti-loses-two", "both-lose-one"])
def test_abelian_families_coincide_names_a_table_in_one_family_only(
        install_enumerator, dropped):
    # Mutant enumerators on Aut(Z2xZ2), where both families are GL2(F2).
    # The anti family loses its two largest tables: the check names the
    # least table in one family only (the union is still Aut(Z2xZ2), so a
    # check of union order and overlap alone would PASS). Both families
    # lose their largest table: they coincide, but the five maps are not
    # closed, so the check names (union order, family size) = (None, 5).
    g = group_corpus()["z2xz2"]
    real = morphisms.enumerate_morphisms
    tables = _bijective(real(g, g, STRAIGHT))
    drop = {"anti-loses-two": {ANTI: tables[-2:]},
            "both-lose-one": {STRAIGHT: tables[-1:], ANTI: tables[-1:]}}[dropped]

    def dropping(a, b, v, bound=morphisms.DEFAULT_BOUND):
        out = real(a, b, v, bound)
        if a.name != "z2xz2" or b.name != "z2xz2":
            return out
        return tuple(m for m in out if m.images not in drop.get(v, ()))

    install_enumerator(morphisms, dropping)
    check = suite.automorphism_algebra_report(g).check_map()[
        "abelian-families-coincide"]
    autos, antis = (_bijective(dropping(g, g, v)) for v in VARIANCES)
    one_only = [t for t in sorted(set(autos + antis))
                if (t in autos) != (t in antis)]
    assert not check.passed
    if dropped == "anti-loses-two":
        assert one_only == tables[-2:]
        assert check.witness == tables[-2]
    else:
        assert one_only == [] and autos == antis == tables[:-1]
        assert check.witness == (None, 5)


def test_pointwise_audit_contract():
    z4 = zmod(4)
    z2, _ = quotient_ring(z4, named_ideal("z4", "even"))
    good = pointwise_ring_audit(z2, z2)
    assert good.straight.forms_unital_ring
    assert good.anti.forms_unital_ring
    assert good.correspondence_is_ring_iso
    bad = pointwise_ring_audit(ring_corpus()["t2f2"], ring_corpus()["t2f2"])
    assert not bad.straight.add_closed
    assert bad.straight.add_witness is not None
    t1, t2_, s = bad.straight.add_witness
    assert s not in set(nonunital_morphism_tables(
        ring_corpus()["t2f2"], ring_corpus()["t2f2"], STRAIGHT))
    # even the commutative four-element ring fails closure
    mid = pointwise_ring_audit(z4, z4)
    assert not mid.straight.add_closed


def test_pointwise_audit_enumerates_each_nonunital_set_once(monkeypatch):
    # One enumeration per variance serves both the closure audit and the
    # correspondence check, and a second audit enumerates again.
    calls = []
    real = morphisms.nonunital_morphism_tables
    real_search = morphisms._extension_tables

    def counting(a, b, variance, bound=morphisms.DEFAULT_BOUND):
        calls.append(variance)
        return real(a, b, variance, bound)

    def counting_search(*args, **kwargs):
        calls.append("search")
        return real_search(*args, **kwargs)

    monkeypatch.setattr(morphisms, "nonunital_morphism_tables", counting)
    monkeypatch.setattr(morphisms, "_extension_tables", counting_search)
    rings = ring_corpus()
    audit = pointwise_ring_audit(rings["t2f2"], rings["m2f2"])
    assert audit.correspondence_is_ring_iso is True
    assert sorted(calls) == sorted([STRAIGHT, ANTI, "search", "search"])
    pointwise_ring_audit(rings["t2f2"], rings["m2f2"])
    assert len(calls) == 8


def _pointwise_checks(a, b):
    return suite.pointwise_audit_report(a, b).check_map()


@pytest.mark.parametrize("variance", VARIANCES)
def test_zero_map_present_names_the_missing_zero_map(monkeypatch, variance):
    # Mutant enumerator: the variance's set loses the zero map.
    real = morphisms.nonunital_morphism_tables
    z4, z2xz2 = zmod(4), ring_corpus()["z2xz2"]
    zero_map = (z2xz2.zero,) * z4.order

    def dropped(a, b, v, bound=morphisms.DEFAULT_BOUND):
        return [t for t in real(a, b, v, bound) if v != variance or t != zero_map]

    assert _pointwise_checks(z4, z2xz2)[f"{variance}-zero-map-present"].passed
    monkeypatch.setattr(morphisms, "nonunital_morphism_tables", dropped)
    found = _pointwise_checks(z4, z2xz2)
    assert not found[f"{variance}-zero-map-present"].passed
    assert found[f"{variance}-zero-map-present"].witness == zero_map
    other = ANTI if variance == STRAIGHT else STRAIGHT
    assert found[f"{other}-zero-map-present"].passed


def _fixes(b, e, t):
    return all(b.mul_(u, v) == v and b.mul_(v, u) == v for u, v in zip(e, t))


def _naive_unit_witness(b, tables):
    """Each candidate unit in table order with the first table it fails to fix."""
    return tuple((e, next(t for t in tables if not _fixes(b, e, t))) for e in tables)


@pytest.mark.parametrize("variance", VARIANCES)
def test_has_unit_names_the_first_table_each_candidate_fails_to_fix(monkeypatch, variance):
    # Mutant enumerator: the variance's set loses its pointwise unit, so
    # each remaining candidate is named with the first table it fails to fix.
    real = morphisms.nonunital_morphism_tables
    z4, z2xz2 = zmod(4), ring_corpus()["z2xz2"]
    tables = real(z4, z2xz2, variance)
    (unit,) = [e for e in tables if all(_fixes(z2xz2, e, t) for t in tables)]
    rest = [t for t in tables if t != unit]

    def dropped(a, b, v, bound=morphisms.DEFAULT_BOUND):
        return rest if v == variance else real(a, b, v, bound)

    assert _pointwise_checks(z4, z2xz2)[f"{variance}-has-unit"].passed
    monkeypatch.setattr(morphisms, "nonunital_morphism_tables", dropped)
    found = _pointwise_checks(z4, z2xz2)
    assert not found[f"{variance}-has-unit"].passed
    assert found[f"{variance}-has-unit"].witness == _naive_unit_witness(z2xz2, rest)
    assert len(rest) == len(tables) - 1 > 1


@pytest.mark.parametrize("variance", VARIANCES)
def test_an_empty_pointwise_set_fails_naming_itself(monkeypatch, variance):
    real = morphisms.nonunital_morphism_tables
    z4, z2xz2 = zmod(4), ring_corpus()["z2xz2"]

    def emptied(a, b, v, bound=morphisms.DEFAULT_BOUND):
        return [] if v == variance else real(a, b, v, bound)

    monkeypatch.setattr(morphisms, "nonunital_morphism_tables", emptied)
    found = _pointwise_checks(z4, z2xz2)
    assert found[f"{variance}-has-unit"].witness == (variance, ())
    assert found[f"{variance}-zero-map-present"].witness == (z2xz2.zero,) * z4.order


def _audit_checks(monkeypatch, mutant):
    """The checks of `suite.audit_reports` by name, with the nonunital sets
    of the audited rings replaced by `mutant(a, v, tables)`."""
    real = morphisms.nonunital_morphism_tables

    def patched(a, b, v, bound=morphisms.DEFAULT_BOUND):
        return mutant(a, v, real(a, b, v, bound))

    monkeypatch.setattr(morphisms, "nonunital_morphism_tables", patched)
    return {c.name: c for r in suite.audit_reports() for c in r.checks}


@pytest.mark.parametrize("variance", VARIANCES)
def test_forms_unital_ring_names_the_first_broken_ring_law(monkeypatch, variance):
    # Mutant enumerator: the variance's set of maps Z2 -> Z2 loses the zero
    # map, so the set has no zero; the check names the missing zero map.
    def dropped(a, v, tables):
        return [t for t in tables if a.order != 2 or v != variance or t != (0, 0)]

    found = _audit_checks(monkeypatch, dropped)
    check = found[f"{variance}-set-forms-unital-ring"]
    assert not check.passed and check.witness == (0, 0)
    other = ANTI if variance == STRAIGHT else STRAIGHT
    assert found[f"{other}-set-forms-unital-ring"].passed


@pytest.mark.parametrize("mutant, witness", [
    # the anti set loses the identity map, the σ-image of itself
    (lambda tables: tables[:1], (0, 1)),
    # the anti set gains the constant map onto 1, which no σ-image is
    (lambda tables: tables + [(1, 1)], (2, 3)),
])
def test_correspondence_is_bijection_names_a_missed_table_or_the_sizes(
        monkeypatch, mutant, witness):
    def changed(a, v, tables):
        return mutant(tables) if a.order == 2 and v == ANTI else tables

    check = _audit_checks(monkeypatch, changed)["correspondence-is-bijection"]
    assert not check.passed and check.witness == witness


@pytest.mark.parametrize("variance", VARIANCES)
def test_t2f2_closure_checks_name_the_closed_set_size(monkeypatch, variance):
    # Mutant enumerator: the variance's set of maps T2 -> T2 keeps only the
    # zero map, which is closed under the pointwise sum and product.
    def zero_only(a, v, tables):
        return tables[:1] if a.order == 8 and v == variance else tables

    found = _audit_checks(monkeypatch, zero_only)
    names = (("closure-failure-detected", "failure-carries-witness")
             if variance == STRAIGHT else ("anti-closure-failure-detected",))
    for name in ("closure-failure-detected", "failure-carries-witness",
                 "anti-closure-failure-detected"):
        assert found[name].passed == (name not in names), name
        if name in names:
            assert found[name].witness == (variance, 1)


def test_natural_map_on_z4():
    z4 = zmod(4)
    nat = natural_an_map(z4, named_ideal("z4", "even"))
    assert nat.domain_size == 1
    assert (nat.undefined, nat.outside, nat.sum_breaks, nat.product_breaks) \
        == (None, None, None, None)


@pytest.mark.parametrize("pi, failing", [
    ((0, 1, 0, 2), {"defined-on-whole-domain", "lands-in-anti-set"}),
    ((0, 1, 1, 1), {"lands-in-anti-set", "respects-pointwise-sum",
                    "respects-pointwise-product"}),
])
def test_natural_map_checks_fail_under_a_wrong_projection(monkeypatch, pi, failing):
    # Mutant projection Z4 -> Z4/even: one entry out of range, so pi∘f is not
    # a map into Z2; or a map into Z2 that breaks + and *. Each failing check
    # names its first counterexample by images: the map f, or the pair (f, f).
    from antimorph.suite import natural_map_report

    z4 = zmod(4)
    ideal = named_ideal("z4", "even")
    real = morphisms.quotient_ring

    def wrong(r, i):
        q, proj = real(r, i)
        return q, Morphism(r, q, pi, STRAIGHT)

    monkeypatch.setattr(morphisms, "quotient_ring", wrong)
    found = natural_map_report(z4, "even", ideal).check_map()
    assert {name for name, c in found.items() if not c.passed} == failing
    (f,) = [m.images for m in enumerate_morphisms(z4, z4, ANTI)]
    witnesses = {
        "defined-on-whole-domain": f,
        "lands-in-anti-set": (f, tuple(pi[v] for v in f)),
        "respects-pointwise-sum": (f, f),
        "respects-pointwise-product": (f, f),
    }
    for name in failing:
        assert found[name].witness == witnesses[name]


def _naive_law_witness(images, a, b, variance):
    """The law checked one product at a time with `groups.mul`."""
    for x in a.elements():
        for y in a.elements():
            fx, fy = images[x], images[y]
            got = b.mul(fx, fy) if variance == STRAIGHT else b.mul(fy, fx)
            if got != images[a.mul(x, y)]:
                return (x, y)
    return None


def _relabeled_by(g, p):
    """G with each element x renamed p[x]."""
    table = [[0] * g.order for _ in g.elements()]
    for x in g.elements():
        for y in g.elements():
            table[p[x]][p[y]] = p[g.mul(x, y)]
    return validate_group(table, name=g.name)


def _relabeled(g, rng):
    p = list(g.elements())
    rng.shuffle(p)
    return _relabeled_by(g, p)


def test_find_isomorphism_matches_a_brute_force_scan():
    # Every bundled group of order <= 6 and a seeded relabeling of each, in
    # every ordered pair of equal order: the search finds an isomorphism
    # exactly when the full map scan holds a bijective homomorphism, and
    # what it finds is one of them.
    rng = random.Random(5)
    small = [g for _, g in sorted(group_corpus().items()) if g.order <= 6]
    groups = small + [_relabeled(g, rng) for g in small]
    outcomes = set()
    for g, h in itertools.product(groups, repeat=2):
        if g.order != h.order:
            continue
        bijective = {t for t in brute_force_tables(g, h)[0] if len(set(t)) == g.order}
        iso = find_isomorphism(g, h)
        outcomes.add(iso is None)
        if iso is None:
            assert not bijective, (g, h)
        else:
            assert iso.images in bijective, (g, h)
            assert (iso.source, iso.target, iso.variance) == (g, h, STRAIGHT)
    assert outcomes == {True, False}


def _naive_ring_maps(a, b):
    """(straight, anti): every map A -> B that is additive and keeps, or
    reverses, the product, with no unit constraint, found by trying them all."""
    pairs = [(x, y) for x in a.elements() for y in a.elements()]
    straight, anti = set(), set()
    for f in itertools.product(b.elements(), repeat=a.order):
        if any(f[a.add_(x, y)] != b.add_(f[x], f[y]) for x, y in pairs):
            continue
        if all(f[a.mul_(x, y)] == b.mul_(f[x], f[y]) for x, y in pairs):
            straight.add(f)
        if all(f[a.mul_(x, y)] == b.mul_(f[y], f[x]) for x, y in pairs):
            anti.add(f)
    return straight, anti


def _scanned_ring_maps(a, b):
    """(straight, anti) as `_naive_ring_maps` gives them, from the map-space
    scan of the two addition tables, filtered by the product law."""
    additive, _ = kernels.scan_morphism_space(
        a.order, b.order, kernels.flatten(a.add), kernels.flatten(b.add))
    pairs = [(x, y) for x in a.elements() for y in a.elements()]
    straight = {f for f in additive
                if all(f[a.mul_(x, y)] == b.mul_(f[x], f[y]) for x, y in pairs)}
    anti = {f for f in additive
            if all(f[a.mul_(x, y)] == b.mul_(f[y], f[x]) for x, y in pairs)}
    return straight, anti


def test_ring_enumeration_matches_a_brute_force_scan():
    # Every ordered pair of bundled rings but m2f2 -> m2f2 (whose scan alone
    # takes seconds): the 18 with at most 65,536 maps against trying them
    # all, the other 6 against the map-space scan of the addition tables.
    rings = ring_corpus()
    pairs = [(a, b) for _, a in sorted(rings.items()) for _, b in sorted(rings.items())
             if not a.name == b.name == "m2f2"]
    assert len(pairs) == 24
    scanned = set()
    for a, b in pairs:
        if b.order ** a.order <= 65536:
            oracle = _naive_ring_maps(a, b)
        else:
            oracle = _scanned_ring_maps(a, b)
            scanned.add((a.name, b.name))
        for variance, tables in zip(VARIANCES, oracle):
            assert nonunital_morphism_tables(a, b, variance) == sorted(tables), \
                (a, b, variance)
            unital = sorted(t for t in tables if t[a.one] == b.one)
            assert [m.images for m in enumerate_morphisms(a, b, variance)] == unital, \
                (a, b, variance)
    assert len(scanned) == 6
    assert {("t2f2", "m2f2"), ("m2f2", "t2f2"), ("t2f2", "t2f2")} <= scanned


def test_scanned_ring_maps_agree_with_trying_them_all():
    # The second oracle against the first on pairs both can afford.
    rings = ring_corpus()
    for a, b in ((rings["z4"], rings["t2f2"]), (rings["f4"], rings["z2xz2"]),
                 (rings["t2f2"], rings["f4"])):
        assert _scanned_ring_maps(a, b) == _naive_ring_maps(a, b)


def _naive_ring_law_witness(images, a, b, variance):
    """The ring law checked one (x, y) at a time: the unit, then the sum
    before the product at each pair."""
    if images[a.one] != b.one:
        return ("one", a.one)
    for x in a.elements():
        for y in a.elements():
            fx, fy = images[x], images[y]
            if images[a.add_(x, y)] != b.add_(fx, fy):
                return ("add", x, y)
            got = b.mul_(fx, fy) if variance == STRAIGHT else b.mul_(fy, fx)
            if images[a.mul_(x, y)] != got:
                return ("mul", x, y)
    return None


def test_ring_law_witness_matches_a_naive_oracle_on_every_map():
    # Every map z4 -> z2xz2 and f4 -> t2f2, in both variances. Between them
    # the first witnesses are of every kind, and some maps keep the law.
    rings = ring_corpus()
    kinds = set()
    for a, b in ((rings["z4"], rings["z2xz2"]), (rings["f4"], rings["t2f2"])):
        for images in itertools.product(b.elements(), repeat=a.order):
            for variance in VARIANCES:
                w = law_witness(images, a, b, variance)
                assert w == _naive_ring_law_witness(images, a, b, variance), \
                    (a, b, images, variance)
                kinds.add(None if w is None else w[0])
    assert kinds == {None, "one", "add", "mul"}


def test_law_witness_matches_a_naive_oracle_on_every_z3_to_s3_map():
    z3, s3 = cyclic(3), symmetric3()
    witnesses = set()
    for images in itertools.product(s3.elements(), repeat=3):
        for variance in VARIANCES:
            w = law_witness(images, z3, s3, variance)
            assert w == _naive_law_witness(images, z3, s3, variance)
            witnesses.add(w)
    assert None in witnesses and len(witnesses) > 3


def test_law_witness_matches_a_naive_oracle_on_relabeled_groups():
    rng = random.Random(11)
    groups = group_corpus()
    names = sorted(groups)
    outcomes = []
    for _ in range(300):
        a = _relabeled(groups[rng.choice(names)], rng)
        b = _relabeled(groups[rng.choice(names)], rng)
        variance = rng.choice(VARIANCES)
        kind = rng.choice(("lawful", "one-entry-off", "random"))
        if kind == "random":
            images = [rng.randrange(b.order) for _ in a.elements()]
        else:
            images = list(rng.choice(enumerate_morphisms(a, b, variance)).images)
            if kind == "one-entry-off" and b.order > 1:
                x = rng.randrange(a.order)
                images[x] = (images[x] + rng.randrange(1, b.order)) % b.order
        images = tuple(images)
        w = law_witness(images, a, b, variance)
        assert w == _naive_law_witness(images, a, b, variance), (a, b, variance, images)
        outcomes.append(w)
    # the maps reach lawful ones and failures past the first row
    assert None in outcomes
    assert any(w is not None and w[0] > 0 for w in outcomes)


def test_factorization_classes_validates_each_distinct_composite_once(monkeypatch):
    seen = []
    real = morphisms.law_witness

    def counting(images, *rest):
        seen.append(tuple(images))
        return real(images, *rest)

    monkeypatch.setattr(morphisms, "law_witness", counting)
    s3, d4 = symmetric3(), group_corpus()["d4"]
    an_ss = enumerate_morphisms(s3, s3, ANTI)
    an_sd = enumerate_morphisms(s3, d4, ANTI)
    composites = [tuple(g.images[v] for v in f.images) for f in an_ss for g in an_sd]
    classes = _factorization_classes(s3, s3, d4)
    assert sum(len(cl.pairs) for cl in classes) == len(composites)
    # once each, in order of first appearance
    assert seen == list(dict.fromkeys(composites))
    assert len(seen) == len(classes) < len(composites)
    # a second call validates again: nothing is kept between calls
    _factorization_classes(s3, s3, d4)
    assert len(seen) == 2 * len(classes)


def test_factorization_classes_raises_on_a_non_anti_map_in_an_anti_set(monkeypatch):
    # Mutant enumerator: An(S3, S3) also lists the identity map, which is
    # straight only, so some composites break the straight law.
    s3 = symmetric3()
    identity = Morphism(s3, s3, tuple(s3.elements()), ANTI)
    real = morphisms.enumerate_morphisms

    def mutant(a, b, variance, bound=morphisms.DEFAULT_BOUND):
        out = real(a, b, variance, bound)
        if variance == ANTI and a is s3 and b is s3:
            out = tuple(sorted(out + (identity,), key=lambda m: m.images))
        return out

    monkeypatch.setattr(morphisms, "enumerate_morphisms", mutant)
    expected = None
    for f, g in itertools.product(mutant(s3, s3, ANTI), repeat=2):
        try:
            compose(g, f)
        except RuntimeError as exc:
            expected = exc
            break
    assert expected is not None
    with pytest.raises(RuntimeError) as raised:
        _factorization_classes(s3, s3, s3)
    assert str(raised.value) == str(expected)


# -- property tests ------------------------------------------------------------

CORPUS = sorted(group_corpus())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CORPUS), st.sampled_from(CORPUS), st.data())
def test_variance_xor_is_respected(a_name, b_name, data):
    groups = group_corpus()
    a, b = groups[a_name], groups[b_name]
    fs = enumerate_morphisms(a, b, data.draw(st.sampled_from((STRAIGHT, ANTI))))
    gs = enumerate_morphisms(b, a, data.draw(st.sampled_from((STRAIGHT, ANTI))))
    if not fs or not gs:
        return
    f = data.draw(st.sampled_from(fs))
    g = data.draw(st.sampled_from(gs))
    out = compose(g, f)
    want_anti = (f.variance == ANTI) != (g.variance == ANTI)
    cls = classify(out.images, a, a)
    assert cls in ((ANTI_ONLY, BOTH) if want_anti else (HOM_ONLY, BOTH))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CORPUS))
def test_anti_maps_preserve_units_inverses_powers(name):
    g = group_corpus()[name]
    for m in enumerate_morphisms(g, g, ANTI):
        assert m.images[g.identity] == g.identity
        for x in g.elements():
            assert m.images[g.inv(x)] == g.inv(m.images[x])
            assert m.images[g.mul(x, x)] == g.mul(m.images[x], m.images[x])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CORPUS), st.sampled_from(CORPUS))
def test_hom_and_anti_sets_equinumerous(a_name, b_name):
    groups = group_corpus()
    a, b = groups[a_name], groups[b_name]
    assert len(enumerate_morphisms(a, b, STRAIGHT)) == \
        len(enumerate_morphisms(a, b, ANTI))


SMALL = sorted(name for name, g in group_corpus().items() if g.order <= 6)


def _assert_enumeration_matches_brute_force(a, relabeled, b):
    """Both variances of A -> B, with A relabeled, equal the map-space scan,
    and relabeling keeps the counts."""
    bh, ba = brute_force_tables(relabeled, b)
    homs = enumerate_morphisms(relabeled, b, STRAIGHT)
    antis = enumerate_morphisms(relabeled, b, ANTI)
    assert [m.images for m in homs] == sorted(bh)
    assert [m.images for m in antis] == sorted(ba)
    assert len(homs) == len(enumerate_morphisms(a, b, STRAIGHT))
    assert len(antis) == len(enumerate_morphisms(a, b, ANTI))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL), st.sampled_from(SMALL), st.data())
def test_enumeration_matches_brute_force_on_relabeled_groups(a_name, b_name, data):
    groups = group_corpus()
    a, b = groups[a_name], groups[b_name]
    p = data.draw(st.permutations(range(a.order)))
    _assert_enumeration_matches_brute_force(a, _relabeled_by(a, p), b)


def test_enumeration_matches_brute_force_on_relabeled_products():
    # Z2xZ3 and Z2xS3 from `direct_product` against every small bundled
    # group and each other, in both directions; the source is relabeled by
    # a seeded permutation.
    rng = random.Random(7)
    z2 = cyclic(2)
    products = [direct_product(z2, cyclic(3))[0], direct_product(z2, symmetric3())[0]]
    groups = group_corpus()
    others = [groups[name] for name in SMALL] + products
    for prod in products:
        for other in others:
            for a, b in ((prod, other), (other, prod)):
                _assert_enumeration_matches_brute_force(a, _relabeled(a, rng), b)


# Per anti-map-properties check on S3: two maps that break it, listed after
# An(S3, S3), and the witness the check must give, naming the first. S3's
# identity is 0, its involutions 1, 2 and 5, and 4 = 3^-1.
_PROPERTY_BREAKERS = {
    # constant maps onto a 3-cycle and onto an involution
    "preserves-unit": (((3,) * 6, (1,) * 6), lambda bad: (bad, 0)),
    # the identity fixed, everything else sent to a 3-cycle, which is not
    # its own inverse: f(1^-1) = 3 but f(1)^-1 = 4
    "preserves-inverses": (((0, 3, 3, 3, 3, 3), (0, 4, 4, 4, 4, 4)),
                           lambda bad: (bad, 1)),
    # both 3-cycles sent to one involution: inverses are kept, but
    # f(3^2) = f(4) = 1 while f(3)^2 = 0
    "preserves-powers": (((0, 1, 2, 1, 1, 5), (0, 1, 2, 2, 2, 5)),
                         lambda bad: (bad, 3, 2)),
    # bijections swapping a 3-cycle with an involution: each is its own
    # inverse and breaks the anti law
    "bijective-anti-has-anti-inverse": (
        ((0, 3, 2, 1, 4, 5), (0, 1, 3, 2, 4, 5)),
        lambda bad: (bad, bad, law_witness(bad, group_corpus()["s3"],
                                           group_corpus()["s3"], ANTI))),
}


@pytest.mark.parametrize("name", sorted(_PROPERTY_BREAKERS))
def test_anti_map_property_names_its_first_failing_map(install_enumerator, name):
    s3 = group_corpus()["s3"]
    tables, expected = _PROPERTY_BREAKERS[name]
    real = suite.enumerate_morphisms

    def adding(a, b, variance, bound=suite.DEFAULT_BOUND):
        out = real(a, b, variance, bound)
        if variance == ANTI:
            out = out + tuple(Morphism(a, b, t, ANTI) for t in tables)
        return out

    install_enumerator(suite, adding)
    checks = suite.morphism_property_reports({"s3": s3})[0].check_map()
    assert not checks[name].passed
    assert checks[name].witness == expected(tables[0])
    assert law_witness(tables[0], s3, s3, ANTI) is not None

