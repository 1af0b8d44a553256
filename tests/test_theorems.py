import pytest

import antimorph.theorems as theorems_module

from antimorph.corpus import group_corpus, named_ideal, named_subgroup, ring_corpus
from antimorph.errors import PreconditionFailed
from antimorph.groups import Subgroup, quotient, subgroup_closure
from antimorph.maps import ANTI, STRAIGHT, Morphism
from antimorph.morphisms import (
    classify,
    corresponding_anti,
    enumerate_morphisms,
    reverse_morphism,
)
from antimorph.rings import quotient_ring
from antimorph.theorems import (
    sign_morphism,
    verify_abelian_collapse,
    verify_anti_factorization,
    verify_anti_hom_theorem,
    verify_groups_vs_star_category,
    verify_second_anti_iso,
    verify_subring_and_transport,
    verify_third_anti_iso,
)

GROUPS = group_corpus()
RINGS = ring_corpus()


def test_anti_factorization_on_parity_map():
    s3, z2 = GROUPS["s3"], GROUPS["z2"]
    phi = corresponding_anti(sign_morphism(s3, z2))
    rep = verify_anti_factorization(s3, named_subgroup("s3", "a3"), phi)
    assert rep.passed
    assert rep.uniqueness_method == "enumeration"


def test_anti_factorization_by_trivial_subgroup():
    s3 = GROUPS["s3"]
    phi = reverse_morphism(s3)
    rep = verify_anti_factorization(s3, Subgroup(s3, (s3.identity,)), phi)
    assert rep.passed


def test_anti_factorization_precondition():
    s3, z2 = GROUPS["s3"], GROUPS["z2"]
    phi = corresponding_anti(sign_morphism(s3, z2))  # kernel = a3
    with pytest.raises(PreconditionFailed) as exc:
        verify_anti_factorization(s3, subgroup_closure(s3, (1,)), phi)
    assert exc.value.witness == 1


def test_anti_hom_theorem_all_s3_endos():
    s3 = GROUPS["s3"]
    for phi in enumerate_morphisms(s3, s3, ANTI):
        rep = verify_anti_hom_theorem(phi)
        assert rep.passed, rep.failures()


def test_anti_hom_theorem_injective_case():
    z4 = GROUPS["z4"]
    rep = verify_anti_hom_theorem(reverse_morphism(z4))
    names = [c.name for c in rep.checks]
    assert "injective-source-iso-image" in names
    assert rep.passed


def test_second_anti_iso_on_dihedral_chain():
    d4 = GROUPS["d4"]
    rep = verify_second_anti_iso(d4, named_subgroup("d4", "rot"),
                                 named_subgroup("d4", "rot2"))
    assert rep.passed


def test_second_anti_iso_degenerate_chains():
    d4 = GROUPS["d4"]
    rot = named_subgroup("d4", "rot")
    rep = verify_second_anti_iso(d4, rot, rot)
    assert rep.passed
    trivial = Subgroup(d4, (d4.identity,))
    rep2 = verify_second_anti_iso(d4, rot, trivial)
    assert rep2.passed


def test_second_anti_iso_precondition():
    d4 = GROUPS["d4"]
    with pytest.raises(PreconditionFailed):
        verify_second_anti_iso(d4, named_subgroup("d4", "rot2"),
                               named_subgroup("d4", "rot"))


def test_third_anti_iso_instances():
    s3 = GROUPS["s3"]
    rep = verify_third_anti_iso(s3, named_subgroup("s3", "s12"),
                                named_subgroup("s3", "a3"))
    assert rep.passed
    assert rep.notes
    d4 = GROUPS["d4"]
    rep2 = verify_third_anti_iso(d4, named_subgroup("d4", "ref"),
                                 named_subgroup("d4", "rot2"))
    assert rep2.passed


def test_third_anti_iso_subgroup_inside_normal():
    s3 = GROUPS["s3"]
    a3 = named_subgroup("s3", "a3")
    inside = Subgroup(s3, (0, 3, 4))
    rep = verify_third_anti_iso(s3, inside, a3)
    assert rep.passed


def test_third_anti_iso_precondition():
    s3 = GROUPS["s3"]
    not_normal = subgroup_closure(s3, (1,))
    with pytest.raises(PreconditionFailed):
        verify_third_anti_iso(s3, named_subgroup("s3", "a3"), not_normal)


def test_ring_anti_factorization_and_hom_theorem():
    z4 = RINGS["z4"]
    even = named_ideal("z4", "even")
    _, proj = quotient_ring(z4, even)
    rep = verify_anti_factorization(z4, even, corresponding_anti(proj))
    assert rep.passed
    t2 = RINGS["t2f2"]
    rep2 = verify_anti_hom_theorem(reverse_morphism(t2))
    assert rep2.passed
    kernel_check = rep2.check_map()
    assert kernel_check["bijective"].passed


def test_abelian_collapse_cases():
    s3, z4, q8 = GROUPS["s3"], GROUPS["z4"], GROUPS["q8"]
    assert verify_abelian_collapse(reverse_morphism(z4)).passed
    assert verify_abelian_collapse(reverse_morphism(s3)).passed
    for m in enumerate_morphisms(q8, q8, ANTI):
        if m.is_bijective():
            assert classify(m.images, q8, q8) != "Both"


def test_subring_transport_on_involutions():
    for name in ("t2f2", "m2f2"):
        rep = verify_subring_and_transport(reverse_morphism(RINGS[name]))
        assert rep.passed, rep.failures()


def test_groups_vs_star_category_equivalence():
    rep = verify_groups_vs_star_category(
        {k: GROUPS[k] for k in ("z2", "z3", "s3")})
    assert rep.passed


def test_an_is_subgroup_fails_when_the_product_set_is_wrong(monkeypatch):
    # With A = <(1 2)> and N trivial, AN is A itself; a subgroup_product that
    # answers the whole group gives a subgroup, but not the set {a*n}.
    s3 = GROUPS["s3"]
    monkeypatch.setattr(theorems_module, "subgroup_product",
                        lambda g, a, n: Subgroup(g, tuple(g.elements())))
    rep = verify_third_anti_iso(s3, named_subgroup("s3", "s12"),
                                Subgroup(s3, (s3.identity,)))
    found = rep.check_map()["an-is-subgroup"]
    assert not found.passed
    assert found.witness == tuple(s3.elements())


def _first_conflict(surjection, values):
    """The first (x, slot) whose value differs from that of the least element
    in its slot, found by scanning each slot's preimages afresh."""
    for x, slot in enumerate(surjection):
        least = min(y for y, s in enumerate(surjection) if s == slot)
        if values[x] != values[least]:
            return (x, slot)
    return None


def _first_anti_law_break(images, a, b):
    for x in a.elements():
        for y in a.elements():
            if images[a.mul(x, y)] != b.mul(images[y], images[x]):
                return (x, y)
    return None


def test_anti_factorization_through_map_fails_under_a_relabeled_quotient(monkeypatch):
    # S3 by its trivial subgroup, with the labels of two transpositions
    # swapped and the 3-cycles kept: the projection is still a bijection, so
    # the through map is well defined, but the relabeling is no automorphism
    # and the through map breaks the anti law.
    s3 = GROUPS["s3"]
    swap = {1: 2, 2: 1}
    real_quotient = theorems_module.quotient

    def relabeled_quotient(g, n):
        q, proj = real_quotient(g, n)
        return q, Morphism(g, q, tuple(swap.get(v, v) for v in proj.images), STRAIGHT)

    monkeypatch.setattr(theorems_module, "quotient", relabeled_quotient)
    phi = reverse_morphism(s3)
    trivial = Subgroup(s3, (s3.identity,))
    rep = verify_anti_factorization(s3, trivial, phi)
    q, proj = relabeled_quotient(s3, trivial)
    psi = tuple(phi.images[min(x for x in s3.elements() if proj.images[x] == s)]
                for s in q.elements())
    checks = rep.check_map()
    assert checks["well-defined"].passed
    found = checks["through-map-is-anti"]
    assert not found.passed
    assert found.witness == _first_anti_law_break(psi, q, s3) is not None


def test_anti_hom_well_defined_fails_when_the_kernel_is_too_big(monkeypatch):
    # The reverse map of S3 is injective; a kernel that answers A3 makes the
    # canonical map collapse cosets on which phi differs.
    s3 = GROUPS["s3"]
    a3 = named_subgroup("s3", "a3")
    monkeypatch.setattr(theorems_module, "kernel", lambda m: a3)
    phi = reverse_morphism(s3)
    rep = verify_anti_hom_theorem(phi)
    _, proj = quotient(s3, a3)
    found = rep.check_map()["well-defined"]
    assert not found.passed
    assert found.witness == _first_conflict(proj.images, phi.images) is not None


def test_second_anti_iso_sigma_fails_when_a_mod_c_is_too_coarse(monkeypatch):
    # With C trivial inside B = rot2, a quotient by C that answers A/rot
    # merges elements the anti projection onto A/rot2 keeps apart.
    d4 = GROUPS["d4"]
    rot, rot2 = named_subgroup("d4", "rot"), named_subgroup("d4", "rot2")
    trivial = Subgroup(d4, (d4.identity,))
    real_quotient = theorems_module.quotient
    monkeypatch.setattr(theorems_module, "quotient",
                        lambda g, n: real_quotient(g, rot if n is trivial else n))
    rep = verify_second_anti_iso(d4, rot2, trivial)
    _, pi = quotient(d4, rot)
    _, rho = quotient(d4, rot2)
    rho_star = [rho.images[d4.inv(x)] for x in d4.elements()]
    found = rep.check_map()["sigma-well-defined"]
    assert not found.passed
    assert found.witness == _first_conflict(pi.images, rho_star) is not None


def test_third_anti_iso_xi_fails_when_the_meet_is_too_big(monkeypatch):
    # An intersection that answers A itself makes A/(A∩N) trivial, so xi
    # cannot be defined through it and has no inverse to check.
    s3 = GROUPS["s3"]
    s12, a3 = named_subgroup("s3", "s12"), named_subgroup("s3", "a3")
    monkeypatch.setattr(theorems_module, "subgroup_intersection", lambda a, b: a)
    rep = verify_third_anti_iso(s3, s12, a3)
    # AN is all of S3 and S3/A3 is abelian, so phi is the projection on A
    _, proj = quotient(s3, a3)
    phi = tuple(proj.images[x] for x in s12.members)
    checks = rep.check_map()
    found = checks["xi-well-defined"]
    assert not found.passed
    assert found.witness == _first_conflict((0,) * len(phi), phi) is not None
    missing = checks["statement-direction-is-anti"]
    assert not missing.passed
    assert missing.witness == "xi-proof is not bijective: no xi-statement"
