from antimorph import kernels
from antimorph.corpus import cyclic, symmetric3


def flat(g):
    return kernels.flatten(g.cayley)


def test_scan_finds_exactly_the_morphisms():
    z2 = cyclic(2)
    homs, antis = kernels.scan_morphism_space(2, 2, flat(z2), flat(z2))
    assert homs == [(0, 0), (0, 1)]
    assert antis == [(0, 0), (0, 1)]


def test_scan_on_s3():
    s3 = symmetric3()
    homs, antis = kernels.scan_morphism_space(6, 6, flat(s3), flat(s3))
    assert len(homs) == 10 and len(antis) == 10
    # maps with commuting image satisfy both laws: the trivial map and the
    # three maps onto order-2 subgroups
    both = set(homs) & set(antis)
    assert len(both) == 4
    for t in both:
        image = set(t)
        assert all(s3.mul(x, y) == s3.mul(y, x) for x in image for y in image)


def test_associativity_witness():
    s3 = symmetric3()
    assert kernels.associativity_witness(6, flat(s3)) is None
    broken = [0, 1, 2, 1, 0, 0, 2, 0, 1]  # Z3 with 1*1 changed to 0
    w = kernels.associativity_witness(3, broken)
    assert w is not None
    x, y, z = w

    def mul(a, b):
        return broken[a * 3 + b]

    assert mul(mul(x, y), z) != mul(x, mul(y, z))


def test_classify_table_codes():
    s3 = symmetric3()
    assert kernels._classify(list(range(6)), 6, 6, flat(s3), flat(s3)) == \
        kernels.HOM_BIT
    assert kernels._classify(list(s3.inverses), 6, 6, flat(s3), flat(s3)) == \
        kernels.ANTI_BIT
    z4 = cyclic(4)
    assert kernels._classify([0, 1, 2, 3], 4, 4, flat(z4), flat(z4)) == \
        kernels.HOM_BIT | kernels.ANTI_BIT


def test_selected_backend_exports():
    assert kernels.BACKEND == "pure"
    z2 = cyclic(2)
    homs, antis = kernels.scan_morphism_space(2, 2, flat(z2), flat(z2))
    assert len(homs) == 2
