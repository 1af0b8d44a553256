import pytest

from antimorph.corpus import group_corpus, named_subgroup
from antimorph.errors import BoundExceeded, MissingInverse, NoIdentity, NotAssociative, NotClosed, NotNormal
from antimorph.groups import (
    Subgroup,
    direct_product,
    generating_set,
    is_normal,
    normality_witness,
    quotient,
    subgroup_as_group,
    subgroup_closure,
    subgroup_product,
    validate_group,
)
from antimorph.morphisms import find_isomorphism

from corpus_builders import cyclic, dihedral4, quaternion8, symmetric3


def test_order_two_table_is_the_cyclic_group():
    g = validate_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.identity == 0
    assert g.abelian


def test_no_identity_rejected():
    with pytest.raises(NoIdentity):
        validate_group([[0, 1], [0, 1]])


def test_bad_entries_rejected_with_witness():
    with pytest.raises(NotClosed) as exc:
        validate_group([[0, 5], [1, 0]])
    assert exc.value.witness == (0, 1)


def test_ragged_rows_rejected():
    with pytest.raises(NotClosed):
        validate_group([[0, 1], [1]])


def test_missing_inverse_rejected():
    # commutative monoid ({0,1}, max) has an identity but 1 has no inverse
    with pytest.raises(MissingInverse) as exc:
        validate_group([[0, 1], [1, 1]])
    assert exc.value.witness == 1


def test_nonassociative_table_rejected_with_triple():
    # subtraction mod 3 has identity-ish column structure but fails associativity
    table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises((NotAssociative, NoIdentity, MissingInverse)):
        validate_group(table)


def test_s3_is_valid_and_nonabelian():
    s3 = symmetric3()
    assert s3.order == 6
    assert not s3.abelian
    assert any(s3.mul(a, b) != s3.mul(b, a)
               for a in s3.elements() for b in s3.elements())


def test_corpus_identity_and_inverses():
    for name, g in group_corpus().items():
        for x in g.elements():
            assert g.mul(x, g.inv(x)) == g.identity
            assert g.mul(g.identity, x) == x


def test_three_cycle_closure_is_normal_index_two():
    s3 = symmetric3()
    a3 = subgroup_closure(s3, (3,))
    assert a3.members == (0, 3, 4)
    assert is_normal(s3, a3)


def test_empty_closure_is_trivial():
    s3 = symmetric3()
    assert subgroup_closure(s3, ()).members == (0,)


def test_transposition_subgroup_not_normal_with_witness():
    s3 = symmetric3()
    t = subgroup_closure(s3, (1,))
    assert t.order == 2
    w = normality_witness(s3, t)
    assert w is not None
    x, h = w
    assert s3.mul(s3.mul(x, h), s3.inv(x)) not in t


def test_quotient_by_alternating_subgroup():
    s3 = symmetric3()
    a3 = subgroup_closure(s3, (3,))
    q, proj = quotient(s3, a3)
    assert q.order == 2
    assert proj.is_surjective()
    assert tuple(sorted(x for x in s3.elements()
                        if proj.images[x] == q.identity)) == a3.members


def test_quotient_by_whole_group_is_trivial():
    s3 = symmetric3()
    whole = Subgroup(s3, tuple(s3.elements()))
    q, _ = quotient(s3, whole)
    assert q.order == 1


def test_quotient_of_cyclic_four():
    z4 = cyclic(4)
    n = subgroup_closure(z4, (2,))
    q, proj = quotient(z4, n)
    assert q.order == 2
    assert proj.images == (0, 1, 0, 1)


def test_quotient_requires_normality():
    s3 = symmetric3()
    t = subgroup_closure(s3, (1,))
    with pytest.raises(NotNormal):
        quotient(s3, t)


def test_direct_product_shapes():
    z2 = cyclic(2)
    p, p1, p2 = direct_product(z2, z2)
    assert p.order == 4 and p.abelian
    s3 = symmetric3()
    big, q1, q2 = direct_product(s3, z2)
    assert big.order == 12 and not big.abelian
    assert q1.is_surjective() and q2.is_surjective()
    trivial = cyclic(1)
    same, pr, _ = direct_product(s3, trivial)
    assert find_isomorphism(same, s3) is not None


def test_subgroup_product_cases():
    s3 = symmetric3()
    a = subgroup_closure(s3, (1,))
    a3 = subgroup_closure(s3, (3,))
    assert subgroup_product(s3, a, a3).members == tuple(s3.elements())
    sub = subgroup_closure(s3, (3,))
    inside = Subgroup(s3, (0,))
    assert subgroup_product(s3, inside, a3).members == a3.members
    assert subgroup_product(s3, sub, a3).members == a3.members


def test_lagrange_on_all_normal_subgroups():
    for g in group_corpus().values():
        seen = set()
        for x in g.elements():
            s = subgroup_closure(g, (x,))
            if s.members in seen:
                continue
            seen.add(s.members)
            if is_normal(g, s):
                q, _ = quotient(g, s)
                assert q.order * s.order == g.order


def test_quotient_by_trivial_is_isomorphic():
    for g in group_corpus().values():
        if g.order > 8:
            continue
        q, proj = quotient(g, Subgroup(g, (g.identity,)))
        assert find_isomorphism(q, g) is not None


def test_projection_section_is_identity_on_quotient():
    s3 = symmetric3()
    a3 = subgroup_closure(s3, (3,))
    q, proj = quotient(s3, a3)
    section = {}
    for x in s3.elements():
        section.setdefault(proj.images[x], x)
    for i in range(q.order):
        assert proj.images[section[i]] == i


def test_iso_search_refuses_large_groups():
    z2 = cyclic(2)
    big, _, _ = direct_product(symmetric3(), quaternion8())
    with pytest.raises(BoundExceeded):
        find_isomorphism(big, big)
    assert find_isomorphism(z2, cyclic(3)) is None


def test_generating_sets_generate():
    for g in group_corpus().values():
        gens = generating_set(g)
        assert subgroup_closure(g, gens).order == g.order


def test_subgroup_as_group_inclusion():
    d4 = dihedral4()
    rot = named_subgroup("d4", "rot")
    sub, incl = subgroup_as_group(d4, rot)
    assert sub.order == 4
    for i in range(sub.order):
        for j in range(sub.order):
            assert incl.images[sub.mul(i, j)] == d4.mul(incl.images[i],
                                                        incl.images[j])
