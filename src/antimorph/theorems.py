"""Constructive verifiers for the named factorization and isomorphism
statements on groups and rings, and the factorization category of their maps.

Each verifier builds the canonical map from the corresponding proof, then
checks well-definedness, the variance law, commutativity of the diagram,
bijectivity where claimed, and uniqueness by enumerating every competing
morphism of the same signature.
"""

from __future__ import annotations

import itertools

from . import kernels
from .categories import (
    FactorizationCategory,
    FiniteCategory,
    Mor,
    anti_category,
    anti_functor,
    check_equivalence,
    validate_category,
)
from .errors import PreconditionFailed
from .groups import (
    FiniteGroup,
    Subgroup,
    is_normal,
    is_subgroup,
    normality_witness,
    quotient,
    subgroup_as_group,
    subgroup_closure,
    subgroup_intersection,
    subgroup_product,
)
from .maps import ANTI, STRAIGHT, Morphism
from .morphisms import (
    BOTH,
    DEFAULT_BOUND,
    classify,
    compose,
    enumerate_morphisms,
    find_isomorphism,
    hom_an_tables,
    image,
    kernel,
    law_witness,
    reverse_morphism,
)
from .rings import (
    FiniteRing,
    all_ideals,
    all_subrings,
    ideal_witness,
    is_subring,
    quotient_ring,
    subring_as_ring,
)
from .verdict import TheoremReport, check


def _through(surjection, values, size: int):
    """The map induced on the `size` slots of a surjection (an image tuple)
    by the per-element `values`: each slot takes the value of its least
    preimage. Returns the images and the first (x, slot), in element order,
    whose value differs from its slot's, or None when the map is well defined."""
    images = [None] * size
    conflict = None
    for x, (slot, v) in enumerate(zip(surjection, values)):
        if images[slot] is None:
            images[slot] = v
        elif conflict is None and images[slot] != v:
            conflict = (x, slot)
    return tuple(images), conflict


def _anti_solutions(src, dst, pre, rhs, bound: int) -> list:
    """The tables of all anti-morphisms ell: src -> dst with ell ∘ pre = rhs,
    where `pre` and `rhs` are image tuples."""
    through_pre = kernels.reader(pre)
    return [ell.images for ell in enumerate_morphisms(src, dst, ANTI, bound)
            if through_pre(ell.images) == rhs]


def _witnessed(name: str, w):
    """The check that passes when its witness `w` is None."""
    return check(name, w is None, witness=w)


def _missed(m: Morphism):
    """("missed", v) for the least element v of m's target that m does not
    take; None when m is surjective."""
    taken = set(m.images)
    return next((("missed", v) for v in range(m.target.order) if v not in taken), None)


def _bijection_witness(m: Morphism):
    """None when m is bijective. Else its first ("collision", x, y): x < y
    with equal images, y least; or, when m is injective, `_missed(m)`."""
    first = {}
    for y, v in enumerate(m.images):
        if v in first:
            return "collision", first[v], y
        first[v] = y
    return _missed(m)


def _iso_check(name: str, a, b):
    """`name` passes when the groups a and b are isomorphic; its witness
    names both with their orders."""
    return check(name, find_isomorphism(a, b) is not None,
                 witness=((a.name, a.order), (b.name, b.order)))


def _anti_check(name: str, images, a, b):
    return _witnessed(name, law_witness(images, a, b, ANTI))


def _commutes_check(composite, images):
    """`diagram-commutes`, witnessed by the first (x, composite, map) that differ."""
    return _witnessed("diagram-commutes", next(
        ((x, c, m) for x, (c, m) in enumerate(zip(composite, images)) if c != m), None))


# -- factorization through a quotient -----------------------------------------


def verify_anti_factorization(structure, sub, phi: Morphism,
                              bound: int = DEFAULT_BOUND) -> TheoremReport:
    """Unique anti-morphism through the quotient, for groups and rings alike."""
    if not phi.is_anti:
        raise PreconditionFailed("phi must be an anti-morphism")
    ker = kernel(phi)
    members = sub.members
    outside = [x for x in members if x not in ker.members]
    if outside:
        raise PreconditionFailed(
            f"kernel does not contain the subgroup/ideal: element {outside[0]}",
            witness=outside[0])
    if isinstance(structure, FiniteGroup):
        q, proj = quotient(structure, sub)
    else:
        q, proj = quotient_ring(structure, sub)
    psi_images, conflict = _through(proj.images, phi.images, q.order)
    solutions = _anti_solutions(q, phi.target, proj.images, phi.images, bound)
    checks = (
        _witnessed("well-defined", conflict),
        _anti_check("through-map-is-anti", psi_images, q, phi.target),
        _commutes_check(tuple(psi_images[v] for v in proj.images), phi.images),
        check("unique", solutions == [psi_images], witness=solutions),
    )
    return TheoremReport(
        theorem="anti-factorization",
        inputs=(("structure", structure.name), ("sub", str(members)),
                ("map", repr(phi))),
        checks=checks,
    )


# -- quotient by the kernel is the image ----------------------------------------


def verify_anti_hom_theorem(phi: Morphism, bound: int = DEFAULT_BOUND) -> TheoremReport:
    """Canonical anti-isomorphism source/kernel -> image, with corollaries."""
    if not phi.is_anti:
        raise PreconditionFailed("phi must be an anti-morphism")
    src, dst = phi.source, phi.target
    ker = kernel(phi)
    group_world = isinstance(src, FiniteGroup)
    if group_world:
        q, proj = quotient(src, ker)
        im_members = image(phi).members
        im_struct, incl = subgroup_as_group(dst, image(phi))
    else:
        q, proj = quotient_ring(src, ker)
        im_members = image(phi)
        im_struct, incl = subring_as_ring(dst, im_members)
    # phi with its values renumbered as elements of the image; the
    # inclusion is injective, so ell∘proj = these iff incl∘ell∘proj = phi
    pos = {x: i for i, x in enumerate(im_members)}
    values = tuple(pos[v] for v in phi.images)
    xi_images, conflict = _through(proj.images, values, q.order)
    xi = Morphism(q, im_struct, xi_images, ANTI)
    recomposed = tuple(incl.images[xi_images[proj.images[x]]]
                       for x in range(src.order))
    solutions = _anti_solutions(q, im_struct, proj.images, values, bound)
    checks = [
        _witnessed("well-defined", conflict),
        _anti_check("canonical-map-is-anti", xi_images, q, im_struct),
        _witnessed("bijective", _bijection_witness(xi)),
        _commutes_check(recomposed, phi.images),
        check("unique", solutions == [xi_images], witness=solutions),
    ]
    if group_world and phi.is_injective():
        checks.append(_iso_check("injective-source-iso-image", src, im_struct))
    if group_world and phi.is_surjective():
        checks.append(_iso_check("surjective-target-iso-quotient", dst, q))
    return TheoremReport(
        theorem="anti-homomorphism",
        inputs=(("map", repr(phi)),),
        checks=tuple(checks),
    )


# -- nested normal subgroups ------------------------------------------------------


def verify_second_anti_iso(a: FiniteGroup, b: Subgroup, c: Subgroup,
                           bound: int = DEFAULT_BOUND) -> TheoremReport:
    """A/B is anti-isomorphic to (A/C)/(B/C) for normal C inside normal B."""
    if not is_normal(a, b):
        raise PreconditionFailed("B is not normal", witness=normality_witness(a, b))
    if not is_normal(a, c):
        raise PreconditionFailed("C is not normal", witness=normality_witness(a, c))
    outside = [x for x in c.members if x not in b.members]
    if outside:
        raise PreconditionFailed("C is not inside B", witness=outside[0])

    b_grp, _ = subgroup_as_group(a, b)
    c_in_b = Subgroup(b_grp, tuple(sorted(b.members.index(x) for x in c.members)))
    q1, pi = quotient(a, c)                       # A/C
    q2, rho = quotient(a, b)                      # A/B
    rho_star = compose(rho, reverse_morphism(a))  # anti projection
    bc_members = tuple(sorted({pi.images[x] for x in b.members}))
    bc = Subgroup(q1, bc_members)                 # B/C inside A/C
    bc_witness = normality_witness(q1, bc)

    # sigma: A/C -> A/B through the anti projection
    sigma_images, sigma_conflict = _through(pi.images, rho_star.images, q1.order)
    ker_sigma = kernel(Morphism(q1, q2, sigma_images, ANTI))
    checks = [
        _witnessed("c-normal-in-b", normality_witness(b_grp, c_in_b)),
        _witnessed("bc-normal-in-quotient", bc_witness),
        _witnessed("sigma-well-defined", sigma_conflict),
        _anti_check("sigma-is-anti", sigma_images, q1, q2),
        check("sigma-kernel-is-bc", ker_sigma.members == bc_members,
              witness=(ker_sigma.members, bc_members)),
    ]
    # xi lands in (A/C)/(B/C), which exists only when B/C is normal
    if bc_witness is None:
        q3, tau = quotient(q1, bc)
        # xi: A/B -> (A/C)/(B/C), defined through the surjection rho_star
        rhs = compose(tau, pi)
        xi_images, xi_conflict = _through(rho_star.images, rhs.images, q2.order)
        xi = Morphism(q2, q3, xi_images, ANTI)
        solutions = _anti_solutions(q2, q3, rho_star.images, rhs.images, bound)
        checks += [
            _witnessed("xi-well-defined", xi_conflict),
            _anti_check("xi-is-anti", xi_images, q2, q3),
            _witnessed("xi-bijective", _bijection_witness(xi)),
            _commutes_check(tuple(xi.images[v] for v in rho_star.images), rhs.images),
            check("unique", solutions == [xi_images], witness=solutions),
        ]
    return TheoremReport(
        theorem="second-anti-isomorphism",
        inputs=(("group", a.name), ("b", str(b.members)), ("c", str(c.members))),
        checks=tuple(checks),
    )


# -- subgroup times normal subgroup ------------------------------------------------


def verify_third_anti_iso(g: FiniteGroup, a: Subgroup, n: Subgroup,
                          bound: int = DEFAULT_BOUND) -> TheoremReport:
    """AN/N is anti-isomorphic to A/(A∩N).

    The statement's arrow runs AN/N -> A/(A∩N) while its proof constructs the
    inverse direction; both maps are built and checked, and the direction
    discrepancy is noted.
    """
    if not is_normal(g, n):
        raise PreconditionFailed("N is not normal", witness=normality_witness(g, n))
    an = subgroup_product(g, a, n)
    an_is_subgroup = is_subgroup(g, an.members) and an.members == tuple(
        sorted({g.mul(x, y) for x in a.members for y in n.members}))
    an_grp, _ = subgroup_as_group(g, an)
    pos_an = {x: i for i, x in enumerate(an.members)}
    n_in_an = Subgroup(an_grp, tuple(sorted(pos_an[x] for x in n.members)))
    a_grp, _ = subgroup_as_group(g, a)
    pos_a = {x: i for i, x in enumerate(a.members)}
    meet_in_a = Subgroup(a_grp, tuple(sorted(
        pos_a[x] for x in subgroup_intersection(a, n).members)))
    n_witness = normality_witness(an_grp, n_in_an)
    meet_witness = normality_witness(a_grp, meet_in_a)
    checks = [
        check("an-is-subgroup", an_is_subgroup, witness=an.members),
        _witnessed("n-normal-in-an", n_witness),
        _witnessed("meet-normal-in-a", meet_witness),
    ]
    # phi lands in AN/N, and xi also starts from A/(A∩N): each quotient
    # exists only when its subgroup is normal
    if n_witness is None:
        q_an, pi = quotient(an_grp, n_in_an)              # AN/N
        pi_star = compose(pi, reverse_morphism(an_grp))   # anti projection
        iota = Morphism(a_grp, an_grp, tuple(pos_an[x] for x in a.members), STRAIGHT)
        phi = compose(pi_star, iota)                      # anti: A -> AN/N
        ker_phi = kernel(phi)
        checks += [
            _anti_check("phi-is-anti", phi.images, a_grp, q_an),
            _witnessed("phi-surjective", _missed(phi)),
            check("kernel-is-meet", ker_phi.members == meet_in_a.members,
                  witness=(ker_phi.members, meet_in_a.members)),
        ]
        if meet_witness is None:
            q_a, rho = quotient(a_grp, meet_in_a)         # A/(A∩N)
            xi_images, xi_conflict = _through(rho.images, phi.images, q_a.order)
            xi_proof = Morphism(q_a, q_an, xi_images, ANTI)
            solutions = _anti_solutions(q_a, q_an, rho.images, phi.images, bound)
            checks += [
                _witnessed("xi-well-defined", xi_conflict),
                _anti_check("xi-is-anti", xi_images, q_a, q_an),
                _witnessed("xi-bijective", _bijection_witness(xi_proof)),
                _commutes_check(tuple(xi_images[v] for v in rho.images), phi.images),
                _statement_direction_check(xi_proof),
                check("unique", solutions == [xi_images], witness=solutions),
            ]
    return TheoremReport(
        theorem="third-anti-isomorphism",
        inputs=(("group", g.name), ("a", str(a.members)), ("n", str(n.members))),
        checks=tuple(checks),
        notes=("statement arrow runs AN/N -> A/(A∩N); the proof constructs "
               "A/(A∩N) -> AN/N; the verifier checks both directions",)
        if n_witness is None and meet_witness is None else (),
    )


def _statement_direction_check(xi_proof: Morphism):
    """The statement's arrow AN/N -> A/(A∩N) is the inverse of the proof's."""
    if not xi_proof.is_bijective():
        return check("statement-direction-is-anti", False,
                     witness="xi-proof is not bijective: no xi-statement")
    inverse_images = [None] * xi_proof.target.order
    for i, v in enumerate(xi_proof.images):
        inverse_images[v] = i
    return _anti_check("statement-direction-is-anti", tuple(inverse_images),
                       xi_proof.target, xi_proof.source)


# -- commutative collapse -----------------------------------------------------------


def verify_abelian_collapse(phi: Morphism) -> TheoremReport:
    """How the two laws interact with commutativity, on one instance."""
    if not phi.is_anti:
        raise PreconditionFailed("phi must be an anti-morphism")
    a, b = phi.source, phi.target
    cls = classify(phi.images, a, b)
    checks = [
        check("abelian-source-or-target-forces-both",
              (not (a.abelian or b.abelian)) or cls == BOTH,
              witness=cls),
    ]
    if phi.is_injective():
        checks.append(check("injective-hom-iff-abelian-source",
                            (cls == BOTH) == a.abelian, witness=cls))
    if phi.is_surjective():
        checks.append(check("surjective-hom-iff-abelian-target",
                            (cls == BOTH) == b.abelian, witness=cls))
    if phi.is_bijective() and cls == BOTH:
        iso = find_isomorphism(a, b)
        checks.append(check("bijective-both-forces-abelian-isomorphic",
                            a.abelian and b.abelian and iso is not None,
                            witness=((a.name, a.order, a.abelian),
                                     (b.name, b.order, b.abelian))))
    return TheoremReport(
        theorem="abelian-collapse",
        inputs=(("map", repr(phi)),),
        checks=tuple(checks),
    )


# -- subring and ideal transport ------------------------------------------------------


def verify_subring_and_transport(phi: Morphism) -> TheoremReport:
    """Anti ring morphisms carry subrings to subrings; anti-epimorphisms carry
    left ideals to right ideals, in both image and preimage directions."""
    if not phi.is_anti or not isinstance(phi.source, FiniteRing):
        raise PreconditionFailed("phi must be an anti ring morphism")
    a, b = phi.source, phi.target
    # an endomorphism walks each lattice once
    subrings_a = all_subrings(a)
    subrings_b = subrings_a if a == b else all_subrings(b)
    checks = []
    for s in subrings_a:
        im = tuple(sorted({phi.images[x] for x in s}))
        checks.append(check(f"image-subring-{s}", is_subring(b, im), witness=im))
    for s in subrings_b:
        pre = tuple(sorted(x for x in a.elements() if phi.images[x] in s))
        checks.append(check(f"preimage-subring-{s}", is_subring(a, pre), witness=pre))
    if phi.is_surjective():
        lefts_a = all_ideals(a, "left")
        lefts_b = lefts_a if a == b else all_ideals(b, "left")
        for ideal in lefts_a:
            im = tuple(sorted({phi.images[x] for x in ideal}))
            w = ideal_witness(b, im, "right")
            checks.append(check(f"image-left-ideal-{ideal}", w is None, witness=(im, w)))
        for ideal in lefts_b:
            pre = tuple(sorted(x for x in a.elements() if phi.images[x] in ideal))
            w = ideal_witness(a, pre, "right")
            checks.append(check(f"preimage-left-ideal-{ideal}", w is None,
                                witness=(pre, w)))
    return TheoremReport(
        theorem="subring-transport",
        inputs=(("map", repr(phi)),),
        checks=tuple(checks),
    )


# -- concrete factorization categories -----------------------------------------------


def concrete_factorization(name: str, structures: dict,
                           sets: dict) -> FactorizationCategory:
    """The factorization category of the tables sets[(a, b)] = (Hom(a, b),
    An(a, b)) between `structures` (name -> group or ring): straight maps as
    the base, anti maps as `an_morphisms`, identity tables as identities and
    `reverse_morphism` as each object's reverse. g∘f is the composed image
    table, its variance the XOR; a composite outside the sets is an engine
    error. Objects come in name order, and the i-th map of the p-th pair in
    that order is `hom:p:i` or `an:p:i`, whatever the names."""
    objects = tuple(sorted(structures))
    # (a, b) -> per variance, straight then anti, image table -> id
    ids = {key: tuple({t: f"{tag}:{p}:{i}" for i, t in enumerate(tables)}
                      for tag, tables in zip(("hom", "an"), sets[key]))
           for p, key in enumerate(itertools.product(objects, repeat=2))}

    def mid(v, a, b, images):
        if images not in ids[(a, b)][v]:
            raise RuntimeError(f"{name} has no {(STRAIGHT, ANTI)[v]} map {images} "
                               f"from {a} to {b}; this is an engine bug")
        return ids[(a, b)][v][images]

    base, mixed = {}, {}
    for a, b, c in itertools.product(objects, repeat=3):
        for vf, fs in enumerate(ids[(a, b)]):
            for f_images, f_id in fs.items():
                through_f = kernels.reader(f_images)
                for vg, gs in enumerate(ids[(b, c)]):
                    table = mixed if vf or vg else base
                    for g_images, g_id in gs.items():
                        table[(g_id, f_id)] = mid(vf ^ vg, a, c, through_f(g_images))
    straight, anti = (tuple(Mor(m, *key) for key, per in ids.items()
                            for m in per[v].values()) for v in (0, 1))
    identities = {a: mid(0, a, a, tuple(structures[a].elements())) for a in objects}
    reverse = {a: mid(1, a, a, reverse_morphism(structures[a]).images) for a in objects}
    return FactorizationCategory(
        FiniteCategory(name, objects, straight, identities, base), anti, reverse, mixed)


def verify_groups_vs_star_category(groups: dict,
                                   bound: int = DEFAULT_BOUND) -> TheoremReport:
    """Builds the factorization category of the given groups under their
    morphisms and anti-morphisms, then checks that sending f to f∘rev is an
    equivalence from its base to its anti category (star composition)."""
    fc = concrete_factorization("grp", groups, {
        (a, b): hom_an_tables(groups[a], groups[b], bound)
        for a, b in itertools.product(sorted(groups), repeat=2)})
    rep = check_equivalence(anti_functor(fc), validate_category(fc.base),
                            validate_category(anti_category(fc)))
    return TheoremReport(
        theorem="groups-equivalent-to-star-groups",
        inputs=(("objects", "+".join(fc.objects)),),
        checks=rep.checks,
    )


# -- convenience entry points ----------------------------------------------------------


def sign_morphism(s3: FiniteGroup, z2: FiniteGroup) -> Morphism:
    """The parity map from the order-6 symmetric group onto the order-2 group."""
    a3 = subgroup_closure(s3, (3,))
    images = tuple(z2.identity if x in a3 else 1 - z2.identity
                   for x in s3.elements())
    return Morphism(s3, z2, images, STRAIGHT, name="sign")
