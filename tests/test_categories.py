import itertools
import random

import pytest

import antimorph.categories as categories_module
import antimorph.suite as suite_module
from antimorph.categories import (
    FactorizationCategory,
    FiniteCategory,
    adjunction_report,
    anti_category,
    anti_functor,
    anti_id,
    anti_product_uniqueness,
    associated_category,
    build_category,
    caf,
    check_anti_universal,
    check_antiproduct_preservation,
    check_equivalence,
    check_factorable,
    enumerate_functors,
    factorable_witness,
    fca,
    find_products,
    functor_is_additive,
    functor_witness,
    identity_functor,
    lift_functor,
    preadditive_one_object,
    preadditive_two_object,
    validate_factorization,
)
from antimorph.corpus import category_corpus
from antimorph.errors import (
    AxiomViolation,
    BadIdentity,
    BoundExceeded,
    NotAssociative,
    NotComposable,
)

from corpus_builders import poset_category

CATS = category_corpus()


def _factorable(cats, n1, n2, additive=False) -> list:
    """The factorable functors n1 -> n2 the adjunction reads: the lifts
    that exist."""
    return categories_module._adjunction(cats, additive).factorable((n1, n2))


def _functor(c, d, images: dict) -> tuple:
    """The index tuple of the functor sending each object and morphism id of c
    to the id `images` gives it in d."""
    return tuple(d.obj_cell(images[o]) for o in c.objects) + \
        tuple(d.cell(images[m.mid]) for m in c.morphisms)


def test_arrow_category_is_valid():
    arrow = CATS["arrow"]
    assert len(arrow.morphisms) == 3
    assert arrow.hom("a", "b") == ("a_b",)


def test_missing_composite_rejected():
    with pytest.raises(NotComposable):
        build_category("broken", ("a", "b"),
                       [("ia", "a", "a"), ("ib", "b", "b"),
                        ("f", "a", "b"), ("g", "b", "a")],
                       {"a": "ia", "b": "ib"}, {})


def test_bad_identity_rejected():
    with pytest.raises(BadIdentity):
        build_category("broken", ("a",), [("f", "a", "a"), ("ia", "a", "a")],
                       {"a": "f"},
                       {("f", "f"): "ia", ("f", "ia"): "f", ("ia", "f"): "f",
                        ("ia", "ia"): "ia"})


def test_validation_accepts_exactly_the_associative_three_element_monoids():
    # Every table on {e, a, b} with e the identity, as a one-object
    # category: validation must accept exactly the associative ones, which
    # a triple loop over the full table finds; there are 11.
    pairs = [(x, y) for x in "ab" for y in "ab"]
    accepted = 0
    for values in itertools.product("eab", repeat=len(pairs)):
        full = {**dict(zip(pairs, values)), **{(x, "e"): x for x in "eab"},
                **{("e", x): x for x in "eab"}}
        associative = all(full[(full[(x, y)], z)] == full[(x, full[(y, z)])]
                          for x, y, z in itertools.product("eab", repeat=3))
        try:
            build_category("m3", ("o",), [(x, "o", "o") for x in "eab"],
                           {"o": "e"}, dict(zip(pairs, values)))
        except NotAssociative:
            assert not associative, values
        else:
            assert associative, values
            accepted += 1
    assert accepted == 11


def test_caf_builds_a_valid_factorization_category():
    for name, cat in CATS.items():
        fc = caf(cat)
        assert validate_factorization(fc)
        for a in fc.objects:
            for b in fc.objects:
                assert len(fc.an(a, b)) == len(cat.hom(a, b))


def test_caf_fca_round_trips_table_identical():
    for cat in CATS.values():
        fc = caf(cat)
        assert fca(fc).table_difference(cat) is None
        assert caf(fca(fc)).table_difference(fc) is None


def test_wrong_variance_composite_is_axiom_violation():
    arrow = CATS["arrow"]
    fc = caf(arrow)
    broken_mixed = dict(fc.mixed)
    # declare an anti∘straight composite to be straight
    broken_mixed[(anti_id("a_b"), "a_a")] = "a_b"
    broken = FactorizationCategory(fc.base, fc.an_morphisms, fc.reverse,
                                   broken_mixed)
    with pytest.raises(AxiomViolation) as exc:
        validate_factorization(broken)
    assert exc.value.axiom == 2


def test_anti_category_shape_and_identities():
    arrow = CATS["arrow"]
    fc = caf(arrow)
    ac = anti_category(fc)
    assert set(ac.objects) == set(arrow.objects)
    assert len(ac.morphisms) == len(arrow.morphisms)
    assert ac.identities["a"] == anti_id("a_a")


def test_associated_category_hom_sizes():
    for cat in CATS.values():
        fc = caf(cat)
        assoc = associated_category(fc)
        for a in cat.objects:
            for b in cat.objects:
                assert len(assoc.hom(a, b)) == \
                    len(cat.hom(a, b)) + len(fc.an(a, b))


def test_anti_functor_is_equivalence():
    for cat in CATS.values():
        fc = caf(cat)
        rep = check_equivalence(anti_functor(fc), cat, anti_category(fc))
        assert rep.passed, (cat.name, rep.failures())


def test_constant_functor_is_not_essentially_surjective():
    arrow = CATS["arrow"]
    const = _functor(arrow, arrow, {"a": "a", "b": "a", "a_a": "a_a",
                                    "b_b": "a_a", "a_b": "a_a"})
    rep = check_equivalence(const, arrow, arrow)
    found = rep.check_map()["essentially-surjective"]
    assert not found.passed
    assert found.witness == "b"


def test_identity_functor_is_equivalence():
    arrow = CATS["arrow"]
    rep = check_equivalence(identity_functor(arrow), arrow, arrow)
    assert rep.passed


def test_three_endofunctors_of_the_arrow_category():
    assert len(enumerate_functors(CATS["arrow"], CATS["arrow"])) == 3


def test_functor_enumeration_bound():
    big = poset_category("big", tuple("abcd"),
                         {(x, y) for x in "abcd" for y in "abcd" if x <= y})
    with pytest.raises(BoundExceeded):
        enumerate_functors(big, big)


def test_factorable_lift_counts_match_plain_functors():
    arrow = CATS["arrow"]
    fc = caf(arrow)
    plain = enumerate_functors(arrow, arrow)
    lifted = _factorable({"arrow": arrow}, "arrow", "arrow")
    assert len(plain) == len(lifted)
    for ff in lifted:
        rep = check_factorable(ff, fc, fc, "lift")
        assert rep.passed


def test_factorable_violation_detected():
    arrow = CATS["arrow"]
    fc = caf(arrow)
    good = lift_functor(identity_functor(arrow), fc, fc)
    bad = list(good)
    bad[fc.cell(anti_id("a_b"))] = fc.cell(anti_id("a_a"))  # wrongly typed image
    bad = tuple(bad)
    assert factorable_witness(bad, fc, fc) == ("an-typing", "a_b*")
    rep = check_factorable(bad, fc, fc, "bad")
    assert not rep.passed
    assert rep.check_map()["an-maps-are-induced"].witness == {"a_b*": ("a_a*", "a_b*")}
    assert rep.check_map()["mixed-compositions-preserved"].witness == \
        ("an-typing", "a_b*")


def test_meet_products_and_anti_universal():
    meet = CATS["meet"]
    fc = caf(meet)
    products = find_products(meet, ("x", "y"))
    assert [p[0] for p in products] == ["m"]
    for apex, proj in products:
        assert check_anti_universal(fc, apex, proj, ("x", "y")).passed
    assert anti_product_uniqueness(fc, ("x", "y")).passed


def test_monoid_category_has_no_products():
    assert find_products(CATS["monoid"], ("o", "o")) == []


def test_duplicated_meet_comparison_isos():
    """Two product presentations on isomorphic apexes get unique comparisons."""
    objects = ("m", "n", "x", "y")
    mors = [("im", "m", "m"), ("in", "n", "n"), ("ix", "x", "x"),
            ("iy", "y", "y"),
            ("mx", "m", "x"), ("my", "m", "y"),
            ("nx", "n", "x"), ("ny", "n", "y"),
            ("mn", "m", "n"), ("nm", "n", "m")]
    compose = {
        ("nm", "mn"): "im", ("mn", "nm"): "in",
        ("nx", "mn"): "mx", ("ny", "mn"): "my",
        ("mx", "nm"): "nx", ("my", "nm"): "ny",
    }
    cat = build_category("dupmeet", objects, mors,
                         {"m": "im", "n": "in", "x": "ix", "y": "iy"}, compose)
    products = find_products(cat, ("x", "y"))
    assert {p[0] for p in products} == {"m", "n"}
    fc = caf(cat)
    rep = anti_product_uniqueness(fc, ("x", "y"))
    assert rep.passed, rep.failures()
    assert len(rep.checks) == 8  # 2x2 presentation pairs, two statements each


def test_antiproduct_preservation_by_identity():
    meet = CATS["meet"]
    fc = caf(meet)
    ff = lift_functor(identity_functor(meet), fc, fc)
    rep = check_antiproduct_preservation(ff, fc, fc, ("x", "y"), "id")
    assert rep.inputs == (("functor", "id"), ("family", "x,y"))
    assert rep.passed


def test_adjunction_reports():
    rep = adjunction_report(dict(CATS))
    assert rep.passed, rep.failures()
    names = {c.name for c in rep.checks}
    assert "naturality-equip-direction" in names
    assert "naturality-forget-direction" in names


def test_additive_adjunction_on_preadditive_toys():
    rep = adjunction_report({"pad1": preadditive_one_object(),
                             "pad2": preadditive_two_object()}, additive=True)
    assert rep.passed, rep.failures()


def test_preadditive_anti_category_keeps_group_law():
    p2 = preadditive_two_object()
    fc = caf(p2)
    assert fc.an_additive is not None
    ac = anti_category(fc)
    # the anti category's composition, star composition, distributes over
    # the inherited addition
    data = fc.an_additive[("u", "v")]

    def star(g, f):
        return ac.cells[ac.composite(ac.cell(g), ac.cell(f))]

    for (m1, m2), s in data.table.items():
        for g in fc.an("v", "v"):
            assert star(g, s) == data.table[(star(g, m1), star(g, m2))]


def test_factorable_composition_associates_with_underlying():
    arrow = CATS["arrow"]
    fc = caf(arrow)
    width = len(arrow.cells)
    lifted = _factorable({"arrow": arrow}, "arrow", "arrow")
    for f in lifted:
        for g in lifted:
            comp = tuple(g[i] for i in f)
            assert factorable_witness(comp, fc, fc) is None
            plain = comp[:width]
            assert functor_witness(plain, arrow, arrow) is None
            assert plain == tuple(g[:width][i] for i in f[:width])


# -- negative controls: each adjunction check can fail, with a witness --------

MONOID_ONLY = {"monoid": CATS["monoid"]}


def _check(rep, name):
    return rep.check_map()[name]


def _lose_the_last_lift(monkeypatch, cats, additive=False):
    """lift_functor has no lift for the last functor of each pair of `cats`."""
    last = {(c1.name, c2.name): enumerate_functors(c1, c2, additive=additive)[-1]
            for c1, c2 in itertools.product(cats.values(), repeat=2)}
    real = categories_module.lift_functor

    def lose(f, fc_src, fc_dst):
        if last[(fc_src.name, fc_dst.name)] == f:
            return None
        return real(f, fc_src, fc_dst)

    monkeypatch.setattr(categories_module, "lift_functor", lose)


def test_bijection_fails_when_a_lift_is_lost(monkeypatch):
    _lose_the_last_lift(monkeypatch, MONOID_ONLY)
    found = _check(adjunction_report(MONOID_ONLY), "bijection-monoid-to-monoid")
    assert not found.passed
    assert found.witness == (2, 1)


def test_equip_naturality_fails_for_a_lawful_but_wrong_lift(monkeypatch):
    # On the Z2 monoid, swapping e* and s* under the identity functor still
    # preserves every mixed composition, but it moves the reverse morphism
    # e*, so it is not a factorable functor and lift_functor refuses it. The
    # mutant hands it out anyway: the lifts stop composing like their
    # underlying functors.
    real = categories_module.lift_functor
    identity = identity_functor(CATS["monoid"])

    def swapped(f, fc_src, fc_dst):
        ff = real(f, fc_src, fc_dst)
        if fc_src.name == "monoid" and f == identity:
            ff = f + (ff[-1], ff[-2])
            assert factorable_witness(ff, fc_src, fc_dst) == ("reverse", "o")
        return ff

    monkeypatch.setattr(categories_module, "lift_functor", swapped)
    rep = adjunction_report(MONOID_ONLY)
    assert _check(rep, "bijection-monoid-to-monoid").passed
    found = _check(rep, "naturality-equip-direction")
    assert not found.passed
    # the first square: h the lift of the trivial functor, f trivial, g the
    # identity, whose lift is the swapped one
    trivial = (("o", "o"), ("e", "e"), ("s", "e"))
    assert found.witness == (
        "monoid", "monoid", "monoid", "monoid",
        trivial + (("e*", "e*"), ("s*", "e*")),
        trivial,
        (("o", "o"), ("e", "e"), ("s", "s")))
    assert _check(rep, "naturality-forget-direction").passed


def test_forget_naturality_fails_when_a_lift_changes_the_functor(monkeypatch):
    # Lifting the trivial endofunctor (s -> e) of the Z2 monoid to the lift of
    # the identity: forgetting no longer undoes equipping.
    real = categories_module.lift_functor
    monoid = CATS["monoid"]
    trivial = _functor(monoid, monoid, {"o": "o", "e": "e", "s": "e"})

    def wrong_lift(f, fc_src, fc_dst):
        if fc_src.name == "monoid" and f == trivial:
            f = identity_functor(monoid)
        return real(f, fc_src, fc_dst)

    monkeypatch.setattr(categories_module, "lift_functor", wrong_lift)
    found = _check(adjunction_report(MONOID_ONLY), "naturality-forget-direction")
    assert not found.passed
    # the first square: h trivial, whose lift forgets to the identity, and f,
    # g the lift of the identity
    identity_lift = (("o", "o"), ("e", "e"), ("s", "s"), ("e*", "e*"), ("s*", "s*"))
    assert found.witness == ("monoid", "monoid", "monoid", "monoid",
                             (("o", "o"), ("e", "e"), ("s", "e")),
                             identity_lift, identity_lift)



# -- the pair reduction against the triple scans -----------------------------
# `adjunction_report` decides each naturality direction on pairs and runs the
# triple scan only when a pair property fails. The scans are the oracle: on
# the corpora both directions pass without them, and under each mutant below
# the report says exactly what the scan says on the same sets.

PREADDITIVE = {"pad1": preadditive_one_object(), "pad2": preadditive_two_object()}
CORPORA = [(dict(CATS), False), (PREADDITIVE, True)]


def _compose(g, f) -> tuple:
    return tuple(g[i] for i in f)


def _p1_failures(adj) -> list:
    """Each (k, h), k a functor and h factorable, with L(k∘forget h) not
    L(k)∘h. The report does not read this P1: once every lift keeps its
    functor, it is P2 at (forget h, k)."""
    out = []
    for nb2, nb, na2 in itertools.product(sorted(adj.cats), repeat=3):
        for h in adj.factorable((nb2, nb)):
            plain_h = h[:adj.width[nb2]]
            for k, k_lift in adj.lifts[(nb, na2)].items():
                if k_lift is None or adj.lifts[(nb2, na2)].get(
                        _compose(k, plain_h)) != _compose(k_lift, h):
                    out.append((k, h))
    return out


def _p2_failures(adj) -> list:
    """Each composable (f, g) of functors whose g∘f is not an enumerated
    functor or has a lift other than L(g)∘L(f)."""
    out = []
    for nb, na, na2 in itertools.product(sorted(adj.cats), repeat=3):
        for f, f_lift in adj.lifts[(nb, na)].items():
            for g, g_lift in adj.lifts[(na, na2)].items():
                if f_lift is None or g_lift is None or adj.lifts[(nb, na2)].get(
                        _compose(g, f)) != _compose(g_lift, f_lift):
                    out.append((f, g))
    return out


@pytest.mark.parametrize("cats, additive", CORPORA, ids=["bundled", "preadditive"])
def test_both_naturality_directions_are_decided_by_pairs(monkeypatch, cats,
                                                         additive):
    adj = categories_module._adjunction(cats, additive)
    assert _p1_failures(adj) == [] and _p2_failures(adj) == []
    assert categories_module._equip_holds_by_pairs(adj)
    assert categories_module._forget_holds_by_lifts(adj)
    assert categories_module._equip_witness(adj) is None
    assert categories_module._forget_witness(adj) is None

    def scan(adj):
        raise AssertionError("a triple scan ran")

    monkeypatch.setattr(categories_module, "_equip_witness", scan)
    monkeypatch.setattr(categories_module, "_forget_witness", scan)
    rep = adjunction_report(cats, additive=additive)
    assert rep.passed, rep.failures()


def _naturality_as_scanned(cats) -> tuple:
    """The sets the report builds under the active mutant, after asserting
    that both naturality checks carry the verdict and witness of the triple
    scans on them."""
    adj = categories_module._adjunction(cats, False)
    checks = adjunction_report(cats).check_map()
    for name, scan in (("naturality-equip-direction", categories_module._equip_witness),
                       ("naturality-forget-direction", categories_module._forget_witness)):
        w = scan(adj)
        assert checks[name].passed == (w is None)
        assert checks[name].witness == w
    return adj, checks


def _lift_mutant(monkeypatch, src: str, functor: tuple, make):
    """lift_functor hands out make(true lift) for one functor of `src`."""
    real = categories_module.lift_functor

    def mutant(f, fc_src, fc_dst):
        ff = real(f, fc_src, fc_dst)
        return make(ff) if fc_src.name == src and f == functor else ff

    monkeypatch.setattr(categories_module, "lift_functor", mutant)


TRIVIAL_MONOID = (0, 1, 1)  # o -> o, e -> e, s -> e


def test_a_functor_without_a_lift_falls_back_to_both_scans(monkeypatch):
    _lift_mutant(monkeypatch, "monoid", TRIVIAL_MONOID, lambda ff: None)
    adj, checks = _naturality_as_scanned(MONOID_ONLY)
    assert not categories_module._equip_holds_by_pairs(adj)
    assert not categories_module._forget_holds_by_lifts(adj)
    unliftable = ("unliftable", "monoid", "monoid",
                  (("o", "o"), ("e", "e"), ("s", "e")))
    assert checks["naturality-equip-direction"].witness == unliftable
    assert checks["naturality-forget-direction"].witness == unliftable


def test_a_composite_missing_from_the_functors_falls_back_to_the_scan(monkeypatch):
    # arrow -> monoid loses its first functor, which is a composite through
    # every other category; every other pair keeps its functors
    real = categories_module.enumerate_functors
    dropped = real(CATS["arrow"], CATS["monoid"])[0]

    def drop(c, d, additive=False):
        out = real(c, d, additive=additive)
        return out[1:] if (c.name, d.name) == ("arrow", "monoid") else out

    monkeypatch.setattr(categories_module, "enumerate_functors", drop)
    cats = dict(CATS)
    adj, checks = _naturality_as_scanned(cats)
    missing = {_compose(g, f) for f, g in _p2_failures(adj)}
    assert missing == {dropped}
    assert not categories_module._equip_holds_by_pairs(adj)
    assert not checks["naturality-equip-direction"].passed


def _equip_holds(adj) -> bool:
    """The report's equip test: every lift keeps its functor, and P2."""
    return categories_module._forget_holds_by_lifts(adj) and \
        categories_module._equip_holds_by_pairs(adj)


def test_p2_broken_for_one_pair_falls_back_to_the_scan(monkeypatch):
    # the trivial functor t's lift sends e* to s*, so L(t∘t) = L(t) is not
    # L(t)∘L(t). The lift keeps t as its plain cells, so the forget test
    # holds and only P2 sees the square; P1 at (t, L(t)) is the same square.
    wrong_lift = (0, 1, 1, 4, 3)
    _lift_mutant(monkeypatch, "monoid", TRIVIAL_MONOID, lambda ff: wrong_lift)
    adj, checks = _naturality_as_scanned(MONOID_ONLY)
    assert categories_module._forget_holds_by_lifts(adj)
    assert _p2_failures(adj) == [(TRIVIAL_MONOID, TRIVIAL_MONOID)]
    assert _p1_failures(adj) == [(TRIVIAL_MONOID, wrong_lift)]
    assert not categories_module._equip_holds_by_pairs(adj)
    assert not checks["naturality-equip-direction"].passed
    assert checks["naturality-forget-direction"].passed


def test_p2_alone_does_not_decide_equip_when_a_lift_changes_its_functor(
        monkeypatch):
    # The trivial functor t lifts to (o, e, s, e*, e*): idempotent, so every
    # lift still composes like its functor and P2 holds. But its plain cells
    # are the identity's, so P1 fails at (identity, L(t)): L(identity) is not
    # L(identity)∘L(t). The report must not take P2 alone for a pass.
    odd_lift = (0, 1, 2, 3, 3)
    _lift_mutant(monkeypatch, "monoid", TRIVIAL_MONOID, lambda ff: odd_lift)
    adj, checks = _naturality_as_scanned(MONOID_ONLY)
    assert _p2_failures(adj) == []
    assert categories_module._equip_holds_by_pairs(adj)
    assert not categories_module._forget_holds_by_lifts(adj)
    assert (identity_functor(CATS["monoid"]), odd_lift) in _p1_failures(adj)
    assert not checks["naturality-equip-direction"].passed
    assert not checks["naturality-forget-direction"].passed


def test_p2_needs_the_composite_lift_to_exist(monkeypatch):
    # On arrow and monoid: the functor f: arrow -> monoid sending a_b to s,
    # then the constant g: monoid -> arrow at b, which has no lift. Their
    # composite, the constant endofunctor at b, is not enumerated, so its
    # lookup is None too; P2 must still fail on the missing L(g)∘L(f), since
    # the scan names g.
    const_b, trivial = (1, 4, 4), TRIVIAL_MONOID
    lost = {("arrow", "arrow", (0, 0, 2, 2, 2)), ("arrow", "arrow", (1, 1, 4, 4, 4)),
            ("arrow", "monoid", (0, 0, 1, 1, 1)), ("monoid", "arrow", (0, 2, 2))}
    real_functors = categories_module.enumerate_functors
    real_lift = categories_module.lift_functor

    def functors(c, d, additive=False):
        return [f for f in real_functors(c, d, additive=additive)
                if (c.name, d.name, f) not in lost]

    def lift(f, fc_src, fc_dst):
        if fc_src.name == "monoid" and f in (const_b, trivial):
            return None
        return real_lift(f, fc_src, fc_dst)

    monkeypatch.setattr(categories_module, "enumerate_functors", functors)
    monkeypatch.setattr(categories_module, "lift_functor", lift)
    adj, checks = _naturality_as_scanned({"arrow": CATS["arrow"],
                                          "monoid": CATS["monoid"]})
    assert not categories_module._equip_holds_by_pairs(adj)
    assert checks["naturality-equip-direction"].witness == (
        "unliftable", "monoid", "arrow", (("o", "b"), ("e", "b_b"), ("s", "b_b")))


def test_a_pair_test_that_holds_leaves_its_scan_nothing_to_find(monkeypatch):
    # Seeded mutants of the two primitives the lift table is built from, on
    # two categories: functors dropped, and lifts lost or moved by one anti
    # cell. Whenever a direction's test holds, its triple scan finds nothing
    # on the same table, and when both hold so does P1.
    rng = random.Random(33)
    cats = {"arrow": CATS["arrow"], "monoid": CATS["monoid"]}
    base = categories_module._adjunction(cats, False)
    functors = [(key, f) for key, fs in sorted(base.lifts.items()) for f in fs]
    real_functors = categories_module.enumerate_functors
    real_lift = categories_module.lift_functor
    mutant = {}

    def functors_of(c, d, additive=False):
        return [f for f in real_functors(c, d, additive=additive)
                if ((c.name, d.name), f) not in mutant["lost"]]

    def lift_of(f, fc_src, fc_dst):
        return mutant["lifts"].get(((fc_src.name, fc_dst.name), f),
                                   real_lift(f, fc_src, fc_dst))

    monkeypatch.setattr(categories_module, "enumerate_functors", functors_of)
    monkeypatch.setattr(categories_module, "lift_functor", lift_of)
    held = found = 0
    for _ in range(400):
        lifts = {}
        for key, f in rng.sample(functors, rng.randint(0, 2)):
            ff, width = base.lifts[key][f], base.width[key[0]]
            pos = rng.randrange(width, len(ff))
            anti = rng.randrange(base.width[key[1]], len(base.equipped[key[1]].cells))
            lifts[(key, f)] = None if rng.random() < 0.3 \
                else ff[:pos] + (anti,) + ff[pos + 1:]
        mutant.update(lost=set(rng.sample(functors, rng.randint(0, 1))),
                      lifts=lifts)
        adj = categories_module._adjunction(cats, False)
        for holds, scan in ((_equip_holds, categories_module._equip_witness),
                            (categories_module._forget_holds_by_lifts,
                             categories_module._forget_witness)):
            w = scan(adj)
            found += w is not None
            if holds(adj):
                assert w is None, (mutant, w)
        if _equip_holds(adj):
            held += 1
            assert _p1_failures(adj) == [], mutant
    assert held == 122 and found


def test_every_bijection_fails_when_a_lift_is_lost(monkeypatch):
    for (cats, additive), count in zip(CORPORA, (16, 4)):
        with monkeypatch.context() as patch:
            _lose_the_last_lift(patch, cats, additive)
            found = [c for c in adjunction_report(cats, additive=additive).checks
                     if c.name.startswith("bijection-")]
        assert len(found) == count
        for c in found:
            n = c.witness[0]
            assert not c.passed and c.witness == (n, n - 1), c


def test_every_round_trip_identity_fails_under_a_backwards_forget(monkeypatch):
    real = categories_module.fca

    def backwards(fc):
        cat = real(fc)
        return FiniteCategory(cat.name, cat.objects, cat.morphisms[::-1],
                              cat.identities, cat.compose, cat.additive)

    monkeypatch.setattr(categories_module, "fca", backwards)
    for cats, additive in CORPORA:
        checks = adjunction_report(cats, additive=additive).check_map()
        for name, c in cats.items():
            for kind in ("forget-equip-identity", "equip-forget-identity"):
                found = checks[f"{kind}-{name}"]
                assert not found.passed
                assert found.witness == ("morphisms", c.morphisms[::-1],
                                         c.morphisms)


def test_a_narrow_category_selection_runs_no_adjunction(monkeypatch):
    def refuse(cats, additive=False):
        raise AssertionError("the adjunction ran")

    monkeypatch.setattr(categories_module, "adjunction_report", refuse)
    monkeypatch.setattr(suite_module, "adjunction_report", refuse)
    prefix = "anti-category-equivalence/meet/"
    records = suite_module.run(suite_module.RunConfig(selection=(prefix,))).records
    assert records and all(r.check_id.startswith(prefix) for r in records)
    with pytest.raises(AssertionError, match="the adjunction ran"):
        suite_module.run(suite_module.RunConfig(
            selection=("equip-forget-adjunctions/",)))


# -- each rewritten check names its first counterexample --------------------


def _constant(c, d, obj: str) -> tuple:
    return tuple(d.obj_cell(obj) for _ in c.objects) + \
        tuple(d.cell(d.identities[obj]) for _ in c.morphisms)


def test_equivalence_checks_name_their_first_counterexample():
    # The constant functor at a on chain3 a <= b <= c misses every pair into
    # a lower object, (b, a), (c, a) and (c, b), and reaches neither b nor c.
    chain = CATS["chain3"]
    checks = check_equivalence(_constant(chain, chain, "a"), chain, chain).check_map()
    assert checks["is-functor"].passed
    assert checks["fully-faithful"].witness == ("b", "a")
    assert checks["essentially-surjective"].witness == "b"


def test_anti_universal_properties_name_their_first_cone():
    # a is not a product of (c, c) in chain3: the anti-cones from b and from c
    # have no mediator into a; the first is the one from b.
    fc = caf(CATS["chain3"])
    checks = check_anti_universal(fc, "a", ("a_c", "a_c"), ("c", "c")).check_map()
    assert checks["unique-anti-mediator-through-projections"].witness == \
        ("b", ("b_c*", "b_c*"), ())
    assert checks["unique-straight-mediator-through-anti-projections"].witness == \
        ("b", ("b_c*", "b_c*"), ())


def test_antiproduct_preservation_names_its_first_cone():
    # Squashing meet onto a <= c of chain3 (m to a, x and y to c) sends the
    # product m of x, y to a, which is no product of c with c.
    meet, chain = CATS["meet"], CATS["chain3"]
    squash = _functor(meet, chain, {"m": "a", "x": "c", "y": "c",
                                    "m_m": "a_a", "m_x": "a_c", "m_y": "a_c",
                                    "x_x": "c_c", "y_y": "c_c"})
    fc_meet, fc_chain = caf(meet), caf(chain)
    ff = lift_functor(squash, fc_meet, fc_chain)
    rep = check_antiproduct_preservation(ff, fc_meet, fc_chain, ("x", "y"),
                                         "squash")
    found = rep.check_map()["image-anti-product-m"]
    assert not found.passed
    assert found.witness == ("m", "b", ("b_c*", "b_c*"), ())


def _roundtrip(cat):
    reps = suite_module.category_reports({cat.name: cat})
    return next(r for r in reps if r.theorem == f"category-roundtrip/{cat.name}")


def test_iso_iff_anti_iso_names_its_first_morphism(monkeypatch):
    real = suite_module.is_iso

    def flipped(cat, k):
        return real(cat, k) != (cat.cells[k] in ("a_c*", "b_b*"))

    monkeypatch.setattr(suite_module, "is_iso", flipped)
    found = _roundtrip(CATS["chain3"]).check_map()["iso-iff-anti-iso"]
    assert not found.passed
    assert found.witness == ("a_c", False, True)


@pytest.mark.parametrize("builder, name", [
    ("anti_category", "anti-category-is-category"),
    ("associated_category", "associated-category-is-category"),
])
def test_derived_category_check_names_its_first_violation(monkeypatch, builder,
                                                          name):
    # The derived category of the Z2 monoid sends identity∘(first other
    # morphism) to the identity: the check FAILs with that violation and the
    # run goes on.
    real = getattr(suite_module, builder)

    def broken(fc):
        cat = real(fc)
        if fc.name != "monoid":
            return cat
        e = cat.identities["o"]
        m = next(m.mid for m in cat.morphisms if m.mid != e)
        return FiniteCategory(cat.name, cat.objects, cat.morphisms,
                              cat.identities, {**cat.compose, (e, m): e})

    monkeypatch.setattr(suite_module, builder, broken)
    records = suite_module.run(
        suite_module.RunConfig(selection=("category-roundtrip/monoid/",))).records
    found = {r.check_id.rsplit("/", 1)[1]: r for r in records}
    e, m = ("e*", "s*") if builder == "anti_category" else ("e", "s")
    assert not found[name].passed
    assert found[name].witness == repr(BadIdentity(f"{e}∘{m} is {e}"))
    assert all(r.passed for k, r in found.items() if k != name)


def test_straight_factors_through_reverse_names_its_first_morphism(monkeypatch):
    # a_b* and a_c* are read as a_a*, so a_a*∘rev gives back a_a, not them
    real = suite_module.anti_id
    monkeypatch.setattr(suite_module, "anti_id",
                        lambda mid: real("a_a") if mid in ("a_b", "a_c") else real(mid))
    found = _roundtrip(CATS["chain3"]).check_map()["straight-factors-through-reverse"]
    assert not found.passed
    assert found.witness == ("a_b", "a_b", "a_a")


@pytest.mark.parametrize("module", [suite_module, categories_module],
                         ids=["category-roundtrip", "equip-forget-adjunctions"])
def test_round_trip_identities_name_the_first_differing_table(monkeypatch,
                                                              module):
    # The mutant forget lists the monoid's morphisms backwards: the same
    # category, but its morphism table is not the one it was equipped from.
    real = categories_module.fca

    def backwards(fc):
        cat = real(fc)
        return FiniteCategory(cat.name, cat.objects, cat.morphisms[::-1],
                              cat.identities, cat.compose, cat.additive)

    monkeypatch.setattr(module, "fca", backwards)
    monoid = CATS["monoid"]
    if module is suite_module:
        checks = _roundtrip(monoid).check_map()
        suffix = ""
    else:
        checks = adjunction_report(MONOID_ONLY).check_map()
        suffix = "-monoid"
    forget = checks["forget-equip-identity" + suffix]
    equip = checks["equip-forget-identity" + suffix]
    assert not forget.passed
    assert forget.witness == ("morphisms", monoid.morphisms[::-1],
                              monoid.morphisms)
    assert not equip.passed
    assert equip.witness == ("morphisms", monoid.morphisms[::-1],
                             monoid.morphisms)



def _category_check(theorem: str, name: str):
    """The check `name` of the category section's report `theorem`."""
    reps = suite_module.category_reports(dict(CATS))
    return next(r for r in reps if r.theorem == theorem).check_map()[name]


def test_exactly_three_endofunctors_fails_when_a_functor_is_lost(monkeypatch):
    real = suite_module.enumerate_functors
    monkeypatch.setattr(suite_module, "enumerate_functors",
                        lambda c, d, additive=False: real(c, d, additive)[:-1])
    found = _category_check("functor-count/arrow", "exactly-three-endofunctors")
    assert not found.passed and found.witness == 2


def test_meet_is_the_product_fails_when_no_product_is_found(monkeypatch):
    monkeypatch.setattr(suite_module, "find_products", lambda cat, family: [])
    found = _category_check("products/meet", "meet-is-the-product")
    assert not found.passed and found.witness == []


def test_hom_union_size_fails_when_the_associated_category_loses_a_morphism(
        monkeypatch):
    real = suite_module.associated_category

    def short(fc):
        cat = real(fc)
        return FiniteCategory(cat.name, cat.objects, cat.morphisms[:-1],
                              cat.identities, cat.compose, cat.additive)

    monkeypatch.setattr(suite_module, "associated_category", short)
    for name, sizes in (("arrow", (5, 6)), ("chain3", (11, 12)),
                        ("meet", (9, 10)), ("monoid", (3, 4))):
        found = _roundtrip(CATS[name]).check_map()["hom-union-size"]
        assert not found.passed and found.witness == sizes, name


# -- brute-force oracles for both enumerators ----------------------------------

RAW_SPACE_LIMIT = 10 ** 4


def _raw_space(c, d) -> int:
    return len(d.objects) ** len(c.objects) * len(d.morphisms) ** len(c.morphisms)


def _every_untyped_functor(c, d, additive=False) -> set:
    """Every assignment of objects to objects and morphisms to morphisms,
    typed or not, that functor_witness accepts."""
    objects = range(len(d.objects))
    arrows = range(len(d.objects), len(d.cells))
    out = set()
    for f in itertools.product(*([objects] * len(c.objects)
                                 + [arrows] * len(c.morphisms))):
        if functor_witness(f, c, d) is None and \
                (not additive or functor_is_additive(f, c, d)):
            out.add(f)
    return out


def test_enumerate_functors_matches_every_untyped_assignment():
    pads = {"pad1": preadditive_one_object(), "pad2": preadditive_two_object()}
    cases = [(c, d, False) for c, d in itertools.product(CATS.values(), repeat=2)]
    cases += [(c, d, True) for c, d in itertools.product(pads.values(), repeat=2)]
    cases = [case for case in cases if _raw_space(case[0], case[1]) <= RAW_SPACE_LIMIT]
    assert sum(1 for _, _, additive in cases if not additive) == 12
    assert sum(_raw_space(c, d) for c, d, additive in cases if not additive) == 11262
    for c, d, additive in cases:
        found = enumerate_functors(c, d, additive=additive)
        assert found == sorted(set(found)), (c.name, d.name)
        assert set(found) == _every_untyped_functor(c, d, additive), (c.name, d.name)


def _every_lift(fc_src, fc_dst) -> set:
    """Each functor with every choice of anti images in An(F a, F b), kept
    when factorable_witness accepts it."""
    out = set()
    for f in enumerate_functors(fc_src.base, fc_dst.base):
        slots = []
        for m in fc_src.an_morphisms:
            slots.append([fc_dst.cell(a) for a in fc_dst.an(
                fc_dst.cells[f[fc_src.obj_cell(m.src)]],
                fc_dst.cells[f[fc_src.obj_cell(m.dst)]])])
        for images in itertools.product(*slots):
            ff = f + images
            if factorable_witness(ff, fc_src, fc_dst) is None:
                out.add(ff)
    return out


def test_the_factorable_functors_match_a_direct_search():
    adj = categories_module._adjunction(CATS, False)
    assert len(adj.lifts) == 16
    for (n1, n2) in adj.lifts:
        found = adj.factorable((n1, n2))
        assert len(set(found)) == len(found)
        assert set(found) == _every_lift(adj.equipped[n1], adj.equipped[n2]), (n1, n2)
