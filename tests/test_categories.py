import pytest

import antimorph.categories as categories_module
from antimorph.categories import (
    AdditiveHom,
    FactorizationCategory,
    FiniteCategory,
    FunctorData,
    Mor,
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
    compose_factorable,
    enumerate_factorable_functors,
    enumerate_functors,
    fca,
    find_products,
    identity_functor,
    make_factorable,
    merge_generator,
    poset_category,
    preadditive_one_object,
    preadditive_two_object,
    validate_category,
    validate_factorization,
)
from antimorph.corpus import category_corpus
from antimorph.errors import AxiomViolation, BadIdentity, BoundExceeded, NotComposable

CATS = category_corpus()


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
        assert fca(fc).same_tables(cat)
        assert caf(fca(fc)).same_tables(fc)


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
    const = FunctorData({"a": "a", "b": "a"},
                        {"a_a": "a_a", "b_b": "a_a", "a_b": "a_a"})
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
    lifted = enumerate_factorable_functors(fc, fc)
    assert len(plain) == len(lifted)
    for ff in lifted:
        rep = check_factorable(ff, fc, fc)
        assert rep.passed


def test_factorable_violation_detected():
    arrow = CATS["arrow"]
    fc = caf(arrow)
    good = make_factorable(identity_functor(arrow), fc, fc)
    bad_an = dict(good.an_map)
    bad_an[anti_id("a_b")] = anti_id("a_a")  # wrongly typed image
    from antimorph.categories import FactorableFunctorData, factorable_witness

    bad = FactorableFunctorData(good.obj_map, good.mor_map, bad_an)
    w = factorable_witness(bad, fc, fc)
    assert w is not None
    rep = check_factorable(bad, fc, fc)
    assert not rep.passed


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
    ff = make_factorable(identity_functor(meet), fc, fc)
    rep = check_antiproduct_preservation(ff, fc, fc, ("x", "y"))
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
    # star composition distributes over the inherited addition
    data = fc.an_additive[("u", "v")]
    for (m1, m2), s in data.table.items():
        for g in fc.an("v", "v"):
            lhs = fc.star(g, s)
            rhs = data.table[(fc.star(g, m1), fc.star(g, m2))]
            assert lhs == rhs


def test_merge_generator_matches_canonical_structure():
    chain = CATS["chain3"]
    twin = FiniteCategory(
        "twin", chain.objects,
        tuple(Mor(m.mid + "!", m.src, m.dst) for m in chain.morphisms),
        {o: mid + "!" for o, mid in chain.identities.items()},
        {(g + "!", f + "!"): h + "!" for (g, f), h in chain.compose.items()})
    validate_category(twin)
    dictionary = {m.mid + "!": m.mid for m in chain.morphisms}
    merged = merge_generator(chain, twin, dictionary)
    canonical = caf(chain)
    rename = {m.mid + "!": anti_id(m.mid) for m in chain.morphisms}
    assert all(rename[merged.an_morphisms[i].mid] == canonical.an_morphisms[i].mid
               for i in range(len(chain.morphisms)))
    for (g, f), h in merged.mixed.items():
        key = (rename.get(g, g), rename.get(f, f))
        assert canonical.mixed[key] == rename.get(h, h)


def test_factorable_composition_associates_with_underlying():
    arrow = CATS["arrow"]
    fc = caf(arrow)
    lifted = enumerate_factorable_functors(fc, fc)
    for f in lifted:
        for g in lifted:
            comp = compose_factorable(g, f)
            plain = FunctorData(comp.obj_map, comp.mor_map)
            from antimorph.categories import compose_functors, functor_witness

            assert functor_witness(plain, arrow, arrow) is None
            assert plain.key() == compose_functors(g.underlying(),
                                                   f.underlying()).key()


# -- negative controls: each adjunction check can fail, with a witness --------

MONOID_ONLY = {"monoid": CATS["monoid"]}


def _check(rep, name):
    return rep.check_map()[name]


def test_bijection_fails_when_a_lift_is_lost(monkeypatch):
    real = categories_module.enumerate_factorable_functors

    def drop_one(fc_src, fc_dst, additive=False):
        return real(fc_src, fc_dst, additive=additive)[:-1]

    monkeypatch.setattr(categories_module, "enumerate_factorable_functors",
                        drop_one)
    found = _check(adjunction_report(MONOID_ONLY), "bijection-monoid-to-monoid")
    assert not found.passed
    assert found.witness == (2, 1)


def test_equip_naturality_fails_for_a_lawful_but_wrong_lift(monkeypatch):
    # On the Z2 monoid, swapping e* and s* under the identity functor is still
    # a factorable functor, but not the induced one: the lifts stop composing
    # like their underlying functors.
    real = categories_module.induced_an_map

    def swapped(f, fc_src, fc_dst):
        out = real(f, fc_src, fc_dst)
        if fc_src.name == "monoid" and f.mor_map == {"e": "e", "s": "s"}:
            out = {"e*": out["s*"], "s*": out["e*"]}
        return out

    monkeypatch.setattr(categories_module, "induced_an_map", swapped)
    rep = adjunction_report(MONOID_ONLY)
    found = _check(rep, "naturality-equip-direction")
    assert not found.passed
    assert found.witness is not None
    assert _check(rep, "naturality-forget-direction").passed


def test_forget_naturality_fails_when_a_lift_changes_the_functor(monkeypatch):
    # Lifting the trivial endofunctor (s -> e) of the Z2 monoid to the lift of
    # the identity: forgetting no longer undoes equipping.
    real = categories_module.make_factorable
    monoid = CATS["monoid"]

    def wrong_lift(f, fc_src, fc_dst):
        if fc_src.name == "monoid" and f.mor_map == {"e": "e", "s": "e"}:
            f = identity_functor(monoid)
        return real(f, fc_src, fc_dst)

    monkeypatch.setattr(categories_module, "make_factorable", wrong_lift)
    found = _check(adjunction_report(MONOID_ONLY), "naturality-forget-direction")
    assert not found.passed
    assert found.witness is not None
