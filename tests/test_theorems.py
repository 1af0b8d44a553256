import pytest

import antimorph.theorems as theorems_module

from antimorph.categories import (
    Mor,
    anti_category,
    anti_functor,
    associated_category,
    category_violation,
    check_equivalence,
    validate_factorization,
)
from antimorph.corpus import group_corpus, named_ideal, named_subgroup, ring_corpus
from antimorph.errors import AxiomViolation, PreconditionFailed
from antimorph.groups import Subgroup, quotient, subgroup_closure, validate_group
from antimorph.maps import ANTI, STRAIGHT, Morphism
from antimorph.morphisms import (
    classify,
    corresponding_anti,
    enumerate_morphisms,
    hom_an_tables,
    reverse_morphism,
)
from antimorph.rings import opposite, quotient_ring
from antimorph.theorems import (
    concrete_factorization,
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



def test_subring_transport_walks_each_lattice_once_per_ring(monkeypatch):
    # An endomorphism walks one subring and one left-ideal lattice; the
    # identity map onto the opposite ring, a different ring, walks two each.
    calls = []
    for name in ("all_subrings", "all_ideals"):
        real = getattr(theorems_module, name)
        monkeypatch.setattr(theorems_module, name,
                            lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    m2 = RINGS["m2f2"]
    assert verify_subring_and_transport(reverse_morphism(m2)).passed
    assert calls == ["all_subrings", "all_ideals"]
    calls.clear()
    to_opposite = Morphism(m2, opposite(m2), tuple(m2.elements()), ANTI)
    assert verify_subring_and_transport(to_opposite).passed
    assert calls == ["all_subrings"] * 2 + ["all_ideals"] * 2

def test_groups_vs_star_category_equivalence():
    rep = verify_groups_vs_star_category(
        {k: GROUPS[k] for k in ("z2", "z3", "s3")})
    assert rep.passed


def _swap_first_two_s3_endos(fc, f):
    # hom:0:0 is the trivial endomorphism of S3 and hom:0:1 one onto an
    # order-2 subgroup; both stay in Hom(s3, s3), so only composition breaks
    k = fc.cell("hom:0:0")
    f[k], f[k + 1] = f[k + 1], f[k]


def _collapse_first_s3_endo(fc, f):
    f[fc.cell("hom:0:0")] = f[fc.cell("hom:0:1")]


def _every_object_to_z2(fc, f):
    f[:len(fc.objects)] = [fc.obj_cell("z2")] * len(fc.objects)


@pytest.mark.parametrize("mutate, witnesses", [
    (_swap_first_two_s3_endos,
     {"is-functor": ("composition", ("hom:0:0", "hom:0:1")),
      "fully-faithful": None, "essentially-surjective": None}),
    (_collapse_first_s3_endo,
     {"is-functor": ("composition", ("hom:0:0", "hom:3:1")),
      "fully-faithful": ("s3", "s3"), "essentially-surjective": None}),
    (_every_object_to_z2,
     {"is-functor": ("typing", "hom:0:0"),
      "fully-faithful": ("s3", "s3"), "essentially-surjective": "s3"}),
])
def test_groups_vs_star_checks_fail_under_a_mutant_functor(monkeypatch, mutate,
                                                           witnesses):
    # Objects come in name order (s3, z2, z3), so pair 3 is (z2, s3). A
    # check FAILs exactly when the mutant gives it a witness. The trivial
    # map after the order-2 one is trivial, but the swapped images compose
    # to the order-2 map's twin. Collapsed onto the order-2 map, the trivial
    # map still composes right within End(S3), whose composites with it are
    # all trivial or that map, and breaks first after a map out of Z2; the
    # hom set it collapses is not bijective. S3 is not isomorphic to Z2.
    real = theorems_module.anti_functor

    def mutant(fc):
        f = list(real(fc))
        mutate(fc, f)
        return tuple(f)

    monkeypatch.setattr(theorems_module, "anti_functor", mutant)
    rep = verify_groups_vs_star_category({k: GROUPS[k] for k in ("z2", "z3", "s3")})
    assert {c.name: c.witness for c in rep.checks} == witnesses
    assert {c.name for c in rep.checks if not c.passed} == \
        {name for name, w in witnesses.items() if w is not None}


# -- concrete factorization categories -------------------------------------------------


def _concrete(structures, sets_of):
    return concrete_factorization("fam", structures, {
        (a, b): sets_of(structures[a], structures[b])
        for a in structures for b in structures})


def test_group_family_is_a_factorization_category():
    groups = {k: GROUPS[k] for k in ("z2", "z3", "z4", "z2xz2", "s3")}
    fc = _concrete(groups, hom_an_tables)
    assert (len(fc.base.morphisms), len(fc.an_morphisms)) == (91, 91)
    assert validate_factorization(fc) is fc
    assert category_violation(anti_category(fc)) is None
    assert category_violation(associated_category(fc)) is None


def _ring_sets(a, b):
    return tuple(tuple(m.images for m in enumerate_morphisms(a, b, v))
                 for v in (STRAIGHT, ANTI))


def test_star_ring_family_is_a_factorization_category():
    # the *-maps, f∘inv = inv∘f, of the five bundled rings
    def star_sets(a, b):
        return tuple(tuple(t for t in tables
                           if all(t[a.involution[x]] == b.involution[t[x]]
                                  for x in a.elements()))
                     for tables in _ring_sets(a, b))

    fc = _concrete(RINGS, star_sets)
    assert (len(fc.base.morphisms), len(fc.an_morphisms)) == (23, 23)
    assert validate_factorization(fc) is fc
    assert check_equivalence(anti_functor(fc), fc.base, anti_category(fc)).passed


def test_ring_family_without_the_star_condition_breaks_axiom_3():
    # Objects come in name order, f4 then m2f2, so pair 1 is (f4, m2f2); its
    # first hom does not commute with the involutions.
    fc = _concrete(RINGS, _ring_sets)
    assert Mor("hom:1:0", "f4", "m2f2") in fc.base.morphisms
    with pytest.raises(AxiomViolation) as exc:
        validate_factorization(fc)
    assert exc.value.axiom == 3
    assert str(exc.value) == "hom:1:0∘rev != rev∘hom:1:0"
    assert exc.value.witness == ("hom:1:0", "an:1:1", "an:1:0")


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


# -- diagram-commutes and normality witnesses ----------------------------------------


def _first_disagreement(surjection, values):
    """The first (x, value of the least element in x's slot, value of x) at
    which the two differ: where a map defined through the surjection by least
    preimages fails to recompose to `values`."""
    for x, slot in enumerate(surjection):
        least = min(y for y, s in enumerate(surjection) if s == slot)
        if values[x] != values[least]:
            return (x, values[least], values[x])
    return None


def _first_unconjugated(g, members):
    """The first (x, h) with x*h*x^-1 outside `members`, by the group table."""
    for x in g.elements():
        x_inv = next(y for y in g.elements() if g.mul(x, y) == g.identity)
        for h in members:
            if g.mul(g.mul(x, h), x_inv) not in members:
                return (x, h)
    return None


def _swapped_labels(g, p):
    """G with the labels of elements p[0] and p[1] exchanged, which for S3's
    1 and 3 (a transposition and a 3-cycle) is no automorphism."""
    rename = {p[0]: p[1], p[1]: p[0]}
    table = [[0] * g.order for _ in g.elements()]
    for x in g.elements():
        for y in g.elements():
            table[rename.get(x, x)][rename.get(y, y)] = rename.get(g.mul(x, y),
                                                                    g.mul(x, y))
    return validate_group(table, name=g.name)


def test_anti_factorization_diagram_fails_when_the_kernel_is_too_big(monkeypatch):
    # The reverse map of S3 is injective; a kernel that answers A3 lets the
    # precondition pass, and the through map sends each coset of A3 where
    # its least member goes.
    s3, a3 = GROUPS["s3"], named_subgroup("s3", "a3")
    monkeypatch.setattr(theorems_module, "kernel", lambda m: a3)
    phi = reverse_morphism(s3)
    rep = verify_anti_factorization(s3, a3, phi)
    _, proj = quotient(s3, a3)
    found = rep.check_map()["diagram-commutes"]
    assert not found.passed
    assert found.witness == _first_disagreement(proj.images, phi.images) is not None


def test_anti_hom_diagram_fails_when_the_kernel_is_too_big(monkeypatch):
    s3, a3 = GROUPS["s3"], named_subgroup("s3", "a3")
    monkeypatch.setattr(theorems_module, "kernel", lambda m: a3)
    phi = reverse_morphism(s3)
    rep = verify_anti_hom_theorem(phi)
    _, proj = quotient(s3, a3)
    found = rep.check_map()["diagram-commutes"]
    assert not found.passed
    assert found.witness == _first_disagreement(proj.images, phi.images) is not None


def test_second_anti_iso_diagram_fails_when_a_mod_b_is_too_coarse(monkeypatch):
    # With B = rot2 and C trivial, a quotient by B that answers A/rot makes
    # xi read (A/C)/(B/C) through cosets on which it is not constant.
    d4 = GROUPS["d4"]
    rot, rot2 = named_subgroup("d4", "rot"), named_subgroup("d4", "rot2")
    trivial = Subgroup(d4, (d4.identity,))
    real_quotient = theorems_module.quotient
    monkeypatch.setattr(theorems_module, "quotient",
                        lambda g, n: real_quotient(g, rot if n is rot2 else n))
    rep = verify_second_anti_iso(d4, rot2, trivial)
    _, rho = quotient(d4, rot)
    rho_star = [rho.images[d4.inv(x)] for x in d4.elements()]
    q1, pi = quotient(d4, trivial)
    _, tau = quotient(q1, Subgroup(q1, tuple(sorted(pi.images[x]
                                                     for x in rot2.members))))
    rhs = [tau.images[pi.images[x]] for x in d4.elements()]
    found = rep.check_map()["diagram-commutes"]
    assert not found.passed
    assert found.witness == _first_disagreement(rho_star, rhs) is not None


def test_third_anti_iso_diagram_fails_when_the_meet_is_too_big(monkeypatch):
    # A/(A∩N) collapses to one element, so xi sends everything where the
    # identity goes while phi, the projection of A onto S3/A3, does not.
    s3 = GROUPS["s3"]
    s12, a3 = named_subgroup("s3", "s12"), named_subgroup("s3", "a3")
    monkeypatch.setattr(theorems_module, "subgroup_intersection", lambda a, b: a)
    rep = verify_third_anti_iso(s3, s12, a3)
    _, proj = quotient(s3, a3)
    phi = tuple(proj.images[x] for x in s12.members)
    found = rep.check_map()["diagram-commutes"]
    assert not found.passed
    assert found.witness == _first_disagreement((0,) * len(phi), phi) is not None


def test_c_normal_in_b_fails_under_a_relabeled_b(monkeypatch):
    # B is all of S3 and C = A3; B re-indexed with a 3-cycle and a
    # transposition swapped puts A3's positions on a set that is not normal.
    s3 = GROUPS["s3"]
    real = theorems_module.subgroup_as_group
    monkeypatch.setattr(theorems_module, "subgroup_as_group",
                        lambda g, s: (_swapped_labels(real(g, s)[0], (1, 3)), None))
    rep = verify_second_anti_iso(s3, Subgroup(s3, tuple(s3.elements())),
                                 named_subgroup("s3", "a3"))
    found = rep.check_map()["c-normal-in-b"]
    assert not found.passed
    assert found.witness == _first_unconjugated(_swapped_labels(s3, (1, 3)),
                                                (0, 3, 4)) is not None


def test_bc_normal_in_quotient_fails_under_a_relabeled_projection(monkeypatch):
    # B = A3 and C trivial: a projection onto A/C with 1 and 3 swapped sends
    # B to {0, 1, 4}, which is not normal. The verifier takes no quotient by
    # it: the report ends with the checks that do not need (A/C)/(B/C).
    s3 = GROUPS["s3"]
    trivial = Subgroup(s3, (s3.identity,))
    real_quotient = theorems_module.quotient

    def mutant(g, n):
        q, proj = real_quotient(g, n)
        if n is trivial:
            swap = {1: 3, 3: 1}
            proj = Morphism(g, q, tuple(swap.get(v, v) for v in proj.images),
                            STRAIGHT)
        return q, proj

    monkeypatch.setattr(theorems_module, "quotient", mutant)
    rep = verify_second_anti_iso(s3, named_subgroup("s3", "a3"), trivial)
    q1, _ = quotient(s3, trivial)
    found = rep.check_map()["bc-normal-in-quotient"]
    assert not found.passed
    assert found.witness == _first_unconjugated(q1, (0, 1, 4)) is not None
    assert [c.name for c in rep.checks] == [
        "c-normal-in-b", "bc-normal-in-quotient", "sigma-well-defined",
        "sigma-is-anti", "sigma-kernel-is-bc"]


@pytest.mark.parametrize("name", ["n-normal-in-an", "meet-normal-in-a"])
def test_third_anti_iso_normality_fails_under_relabeled_subgroups(monkeypatch, name):
    # A is all of S3 and N = A3, so AN and A re-index S3; with a 3-cycle and
    # a transposition swapped, N and A∩N = A3 sit on a set that is not
    # normal. The verifier takes no quotient by either, so the report ends
    # with the three checks that need neither.
    s3 = GROUPS["s3"]
    real_as_group = theorems_module.subgroup_as_group
    monkeypatch.setattr(theorems_module, "subgroup_as_group",
                        lambda g, s: (_swapped_labels(real_as_group(g, s)[0], (1, 3)),
                                      None))
    rep = verify_third_anti_iso(s3, Subgroup(s3, tuple(s3.elements())),
                                named_subgroup("s3", "a3"))
    found = rep.check_map()[name]
    assert not found.passed
    assert found.witness == _first_unconjugated(_swapped_labels(s3, (1, 3)),
                                                (0, 3, 4)) is not None
    assert [c.name for c in rep.checks] == [
        "an-is-subgroup", "n-normal-in-an", "meet-normal-in-a"]
    # no xi was built, so the note on its two directions is not made
    assert rep.notes == ()


# -- bijectivity, surjectivity and isomorphism witnesses -------------------------------


def _first_non_bijective(images, size):
    """Naive twin of the bijectivity witnesses: the least y whose image an
    earlier x shares, with the least such x; else the least value below
    `size` that no element takes; None for a bijection."""
    for y in range(len(images)):
        for x in range(y):
            if images[x] == images[y]:
                return ("collision", x, y)
    missed = [v for v in range(size) if v not in images]
    return ("missed", missed[0]) if missed else None


def _least_preimage_values(surjection, values, size):
    """The map through a surjection that gives each slot the value of its
    least preimage, as the verifiers define their canonical maps."""
    return [values[min(x for x, s in enumerate(surjection) if s == slot)]
            for slot in range(size)]


@pytest.mark.parametrize("kernel_of, phi_of, kind", [
    # the parity map onto Z2 with a trivial kernel: six cosets, two values
    (lambda s3: Subgroup(s3, (s3.identity,)),
     lambda s3: corresponding_anti(sign_morphism(s3, GROUPS["z2"])), "collision"),
    # the injective reverse map with kernel A3: two cosets, six values
    (lambda s3: named_subgroup("s3", "a3"), reverse_morphism, "missed"),
])
def test_anti_hom_bijective_names_a_collision_or_a_missed_element(
        monkeypatch, kernel_of, phi_of, kind):
    s3 = GROUPS["s3"]
    ker = kernel_of(s3)
    monkeypatch.setattr(theorems_module, "kernel", lambda m: ker)
    phi = phi_of(s3)
    found = verify_anti_hom_theorem(phi).check_map()["bijective"]
    q, proj = quotient(s3, ker)
    image = sorted(set(phi.images))
    values = [image.index(v) for v in phi.images]
    xi = _least_preimage_values(proj.images, values, q.order)
    assert not found.passed
    assert found.witness == _first_non_bijective(xi, len(image))
    assert found.witness[0] == kind


def test_second_anti_iso_xi_bijective_names_a_missed_element(monkeypatch):
    # A quotient by B = rot2 that answers A/rot leaves xi two elements for
    # the four of (A/C)/(B/C).
    d4 = GROUPS["d4"]
    rot, rot2 = named_subgroup("d4", "rot"), named_subgroup("d4", "rot2")
    trivial = Subgroup(d4, (d4.identity,))
    real_quotient = theorems_module.quotient
    monkeypatch.setattr(theorems_module, "quotient",
                        lambda g, n: real_quotient(g, rot if n is rot2 else n))
    found = verify_second_anti_iso(d4, rot2, trivial).check_map()["xi-bijective"]
    q2, rho = quotient(d4, rot)
    rho_star = [rho.images[d4.inv(x)] for x in d4.elements()]
    q1, pi = quotient(d4, trivial)
    q3, tau = quotient(q1, Subgroup(q1, tuple(sorted(pi.images[x] for x in rot2.members))))
    rhs = [tau.images[pi.images[x]] for x in d4.elements()]
    xi = _least_preimage_values(rho_star, rhs, q2.order)
    assert not found.passed
    assert found.witness == _first_non_bijective(xi, q3.order) == ("missed", 1)


def test_third_anti_iso_phi_and_xi_name_a_missed_element(monkeypatch):
    # With A = <(1 2)> and N trivial, a product AN that answers all of S3
    # makes phi: A -> AN/N and xi: A/(A∩N) -> AN/N two elements into six.
    s3 = GROUPS["s3"]
    s12, trivial = named_subgroup("s3", "s12"), Subgroup(s3, (s3.identity,))
    monkeypatch.setattr(theorems_module, "subgroup_product",
                        lambda g, a, n: Subgroup(g, tuple(g.elements())))
    checks = verify_third_anti_iso(s3, s12, trivial).check_map()
    q, pi = quotient(s3, trivial)
    phi = [pi.images[s3.inv(x)] for x in s12.members]
    for name in ("phi-surjective", "xi-bijective"):
        assert not checks[name].passed
        assert checks[name].witness == _first_non_bijective(phi, q.order) == ("missed", 2)


def test_third_anti_iso_xi_bijective_names_a_missed_element(monkeypatch):
    # An intersection that answers A makes A/(A∩N) one element for AN/N's two
    s3 = GROUPS["s3"]
    s12, a3 = named_subgroup("s3", "s12"), named_subgroup("s3", "a3")
    monkeypatch.setattr(theorems_module, "subgroup_intersection", lambda a, b: a)
    found = verify_third_anti_iso(s3, s12, a3).check_map()["xi-bijective"]
    _, proj = quotient(s3, a3)
    phi = [proj.images[x] for x in s12.members]
    assert not found.passed
    xi = _least_preimage_values((0,) * len(phi), phi, 1)
    assert found.witness == _first_non_bijective(xi, 2) == ("missed", 1)


def test_iso_checks_name_both_groups_and_their_orders(monkeypatch):
    # The reverse map of Z4 is bijective and, Z4 being abelian, satisfies
    # both laws; each mutant puts Z2xZ2, of the same order, where Z4 belongs.
    z4, klein = GROUPS["z4"], GROUPS["z2xz2"]
    phi = reverse_morphism(z4)
    real_as_group, real_quotient = theorems_module.subgroup_as_group, theorems_module.quotient
    with monkeypatch.context() as m:
        m.setattr(theorems_module, "subgroup_as_group",
                  lambda g, s: (klein, real_as_group(g, s)[1]))
        checks = verify_anti_hom_theorem(phi).check_map()
    assert checks["surjective-target-iso-quotient"].passed
    found = checks["injective-source-iso-image"]
    assert not found.passed and found.witness == (("z4", 4), ("z2xz2", 4))
    with monkeypatch.context() as m:
        m.setattr(theorems_module, "quotient", lambda g, n: (klein, real_quotient(g, n)[1]))
        checks = verify_anti_hom_theorem(phi).check_map()
    assert checks["injective-source-iso-image"].passed
    found = checks["surjective-target-iso-quotient"]
    assert not found.passed and found.witness == (("z4", 4), ("z2xz2", 4))
    # no isomorphism found: the abelian collapse names both groups, their
    # orders and that both are abelian
    monkeypatch.setattr(theorems_module, "find_isomorphism", lambda a, b: None)
    found = verify_abelian_collapse(phi).check_map()["bijective-both-forces-abelian-isomorphic"]
    assert not found.passed and found.witness == (("z4", 4, True), ("z4", 4, True))


def test_the_seven_witnessed_checks_pass_with_null_witnesses():
    s3, z4 = GROUPS["s3"], GROUPS["z4"]
    reports = [
        verify_anti_hom_theorem(reverse_morphism(z4)),
        verify_second_anti_iso(GROUPS["d4"], named_subgroup("d4", "rot"),
                               named_subgroup("d4", "rot2")),
        verify_third_anti_iso(s3, named_subgroup("s3", "s12"), named_subgroup("s3", "a3")),
        verify_abelian_collapse(reverse_morphism(z4)),
    ]
    names = {"bijective", "xi-bijective", "phi-surjective", "injective-source-iso-image",
             "surjective-target-iso-quotient", "bijective-both-forces-abelian-isomorphic"}
    seen = [c for rep in reports for c in rep.checks if c.name in names]
    assert {c.name for c in seen} == names
    assert all(c.passed and c.witness is None for c in seen)
