import pytest

from antimorph.corpus import named_ideal, ring_corpus
from antimorph.errors import AddNotAbelianGroup, BadInvolution, MulNotMonoid, NotDistributive, NotIdeal
from antimorph.rings import (
    RingIdeal,
    all_ideals,
    all_subrings,
    ideal_witness,
    is_subring,
    opposite,
    quotient_ring,
    subring_as_ring,
    validate_ring,
)

from corpus_builders import t2f2_ring, zmod


def test_zmod4_is_a_commutative_ring():
    z4 = zmod(4)
    assert z4.order == 4 and z4.commutative
    assert z4.zero == 0 and z4.one == 1


def test_t2f2_is_noncommutative_with_involution():
    t2 = t2f2_ring()
    assert not t2.commutative
    assert t2.involution is not None
    sigma = t2.involution
    for x in t2.elements():
        assert sigma[sigma[x]] == x
        for y in t2.elements():
            assert sigma[t2.mul_(x, y)] == t2.mul_(sigma[y], sigma[x])


def test_negation_is_not_an_involution_of_z4():
    z4 = zmod(4)
    negation = tuple(z4.neg(x) for x in z4.elements())
    with pytest.raises(BadInvolution):
        validate_ring(z4.add, z4.mul, negation)


def test_identity_map_fails_as_involution_on_noncommutative_ring():
    t2 = t2f2_ring()
    with pytest.raises(BadInvolution) as exc:
        validate_ring(t2.add, t2.mul, tuple(t2.elements()))
    x, y = exc.value.witness
    assert t2.mul_(x, y) != t2.mul_(y, x)


def test_add_table_must_be_abelian_group():
    with pytest.raises(AddNotAbelianGroup):
        validate_ring([[0, 1], [0, 1]], [[0, 0], [0, 1]])


def test_mul_table_needs_identity():
    with pytest.raises(MulNotMonoid):
        validate_ring([[0, 1], [1, 0]], [[0, 0], [0, 0]])


def test_distributivity_checked():
    # xor addition with a valid monoid (min) that does not distribute
    add = [[0, 1], [1, 0]]
    mul = [[0, 0], [0, 1]]
    ok = validate_ring(add, mul)  # boolean ring F2 is fine
    assert ok.one == 1
    bad_mul = [[1, 1], [1, 1]]
    with pytest.raises((MulNotMonoid, NotDistributive)):
        validate_ring(add, bad_mul)


def test_involution_classifies_by_commutativity():
    from antimorph.morphisms import ANTI_ONLY, BOTH, classify

    for r in ring_corpus().values():
        expected = BOTH if r.commutative else ANTI_ONLY
        assert classify(r.involution, r, r) == expected


def test_opposite_ring_facts():
    z4 = zmod(4)
    assert opposite(z4).mul == z4.mul
    t2 = t2f2_ring()
    op = opposite(t2)
    assert op.mul != t2.mul
    assert opposite(op).mul == t2.mul
    for x in t2.elements():
        for y in t2.elements():
            assert op.mul_(x, y) == t2.mul_(y, x)
    assert op.involution is None


def test_opposite_of_every_corpus_ring_validates():
    for r in ring_corpus().values():
        op = opposite(r)
        validate_ring(op.add, op.mul)


def test_even_ideal_of_z4_and_quotient():
    z4 = zmod(4)
    assert ideal_witness(z4, (0, 2), "two-sided") is None
    q, proj = quotient_ring(z4, named_ideal("z4", "even"))
    assert q.order == 2
    assert proj.images == (0, 1, 0, 1)
    assert q.commutative


def test_strict_upper_ideal_of_t2f2():
    t2 = t2f2_ring()
    strict = named_ideal("t2f2", "strict")
    assert strict.members == (0, 2)
    assert ideal_witness(t2, strict.members, "two-sided") is None
    q, _ = quotient_ring(t2, strict)
    assert q.order == 4


def test_zero_ideal_quotient_is_the_ring():
    t2 = t2f2_ring()
    q, proj = quotient_ring(t2, named_ideal("t2f2", "zero"))
    assert q.order == t2.order
    assert proj.is_bijective()


def test_quotient_rejects_non_ideals():
    z4 = zmod(4)
    with pytest.raises(NotIdeal):
        quotient_ring(z4, RingIdeal(z4, (0, 1), "two-sided"))


def test_quotient_kernel_is_the_ideal():
    z4 = zmod(4)
    ideal = named_ideal("z4", "even")
    q, proj = quotient_ring(z4, ideal)
    kernel = tuple(sorted(x for x in z4.elements()
                          if proj.images[x] == q.zero))
    assert kernel == ideal.members


def test_subring_lattices():
    t2 = t2f2_ring()
    subs = all_subrings(t2)
    assert all(is_subring(t2, s) for s in subs)
    assert tuple(sorted(t2.elements())) in subs
    lefts = all_ideals(t2, "left")
    rights = all_ideals(t2, "right")
    twos = all_ideals(t2, "two-sided")
    assert (0, 2) in twos
    assert all(i in lefts for i in twos)
    assert all(i in rights for i in twos)


def test_subring_as_ring_roundtrip():
    t2 = t2f2_ring()
    for members in all_subrings(t2):
        sub, incl = subring_as_ring(t2, members)
        assert incl.images == tuple(sorted(members))
        for i in range(sub.order):
            for j in range(sub.order):
                assert incl.images[sub.mul_(i, j)] == \
                    t2.mul_(incl.images[i], incl.images[j])
