"""Independent builders of the bundled corpus, kept on the test side.

The package reads its corpus from the files under `antimorph/data`; these
builders construct the same structures from their definitions (cyclic
tables, permutation products, matrix arithmetic over F2, partial orders).
`test_formats.test_bundled_files_match_builders` compares every bundled file
with its builder, and other tests use them for groups and rings outside the
corpus, such as `cyclic(5)`.
"""

from __future__ import annotations

import itertools

from antimorph.categories import FiniteCategory, build_category
from antimorph.groups import FiniteGroup, direct_product, validate_group
from antimorph.rings import FiniteRing, validate_ring

# -- groups -------------------------------------------------------------------


def cyclic(n: int, name: str = "") -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_group(table, name or f"z{n}")


def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def _group_from_perms(gens, name):
    """Close a permutation set under products; BFS discovery order fixes indices."""
    deg = len(gens[0])
    e = tuple(range(deg))
    elems = [e]
    seen = {e: 0}
    queue = [e]
    while queue:
        nxt = []
        for p in queue:
            for g in gens:
                z = _perm_mul(p, g)
                if z not in seen:
                    seen[z] = len(elems)
                    elems.append(z)
                    nxt.append(z)
        queue = nxt
    table = [[seen[_perm_mul(p, q)] for q in elems] for p in elems]
    return validate_group(table, name)


def symmetric3() -> FiniteGroup:
    """S3 with elements indexed by lexicographic order of their mapping tuples."""
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[_perm_mul(p, q)] for q in perms] for p in perms]
    return validate_group(table, "s3")


def dihedral4() -> FiniteGroup:
    rot = (1, 2, 3, 0)
    ref = (0, 3, 2, 1)
    return _group_from_perms([rot, ref], "d4")


def quaternion8() -> FiniteGroup:
    """Q8 with index 2*basis + sign: 0:+1 1:-1 2:+i 3:-i 4:+j 5:-j 6:+k 7:-k."""
    bmul = {
        (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
        (1, 0): (1, 0), (2, 0): (2, 0), (3, 0): (3, 0),
        (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
        (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
        (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
    }
    n = 8
    table = [[0] * n for _ in range(n)]
    for b1, s1 in itertools.product(range(4), range(2)):
        for b2, s2 in itertools.product(range(4), range(2)):
            b, s = bmul[(b1, b2)]
            table[2 * b1 + s1][2 * b2 + s2] = 2 * b + (s1 ^ s2 ^ s)
    return validate_group(table, "q8")


def klein4() -> FiniteGroup:
    g, _, _ = direct_product(cyclic(2), cyclic(2))
    return validate_group(g.cayley, "z2xz2")


# -- rings --------------------------------------------------------------------


def zmod(n: int, name: str = "") -> FiniteRing:
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return validate_ring(add, mul, involution=tuple(range(n)), name=name or f"z{n}")


def _t2_pack(a, b, c):
    return a * 4 + b * 2 + c


def t2f2_ring() -> FiniteRing:
    """Upper-triangular 2x2 matrices over F2 with the diagonal-swap involution."""
    n = 8
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    sigma = [0] * n
    for a1, b1, c1 in itertools.product(range(2), repeat=3):
        i = _t2_pack(a1, b1, c1)
        sigma[i] = _t2_pack(c1, b1, a1)
        for a2, b2, c2 in itertools.product(range(2), repeat=3):
            j = _t2_pack(a2, b2, c2)
            add[i][j] = _t2_pack(a1 ^ a2, b1 ^ b2, c1 ^ c2)
            mul[i][j] = _t2_pack(a1 & a2, (a1 & b2) ^ (b1 & c2), c1 & c2)
    return validate_ring(add, mul, involution=sigma, name="t2f2")


def _m2_pack(a, b, c, d):
    return a * 8 + b * 4 + c * 2 + d


def m2f2_ring() -> FiniteRing:
    """Full 2x2 matrix ring over F2 with the transpose involution."""
    n = 16
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    sigma = [0] * n
    for m1 in itertools.product(range(2), repeat=4):
        a1, b1, c1, d1 = m1
        i = _m2_pack(*m1)
        sigma[i] = _m2_pack(a1, c1, b1, d1)
        for m2 in itertools.product(range(2), repeat=4):
            a2, b2, c2, d2 = m2
            j = _m2_pack(*m2)
            add[i][j] = _m2_pack(a1 ^ a2, b1 ^ b2, c1 ^ c2, d1 ^ d2)
            mul[i][j] = _m2_pack((a1 & a2) ^ (b1 & c2), (a1 & b2) ^ (b1 & d2),
                                 (c1 & a2) ^ (d1 & c2), (c1 & b2) ^ (d1 & d2))
    return validate_ring(add, mul, involution=sigma, name="m2f2")


def z2xz2_ring() -> FiniteRing:
    """Product ring Z2 x Z2 with the coordinate-swap involution."""
    n = 4
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    sigma = [0] * n
    for a1, b1 in itertools.product(range(2), repeat=2):
        i = a1 * 2 + b1
        sigma[i] = b1 * 2 + a1
        for a2, b2 in itertools.product(range(2), repeat=2):
            j = a2 * 2 + b2
            add[i][j] = (a1 ^ a2) * 2 + (b1 ^ b2)
            mul[i][j] = (a1 & a2) * 2 + (b1 & b2)
    return validate_ring(add, mul, involution=sigma, name="z2xz2")


# -- categories ---------------------------------------------------------------


def poset_category(name: str, objects, relation) -> FiniteCategory:
    """Thin category of a partial order; `relation` lists the (a, b) pairs
    with a <= b (reflexive pairs are implied)."""
    leq = set(relation) | {(o, o) for o in objects}
    morphisms = [(f"{a}_{b}", a, b) for a in objects for b in objects
                 if (a, b) in leq]
    identities = {o: f"{o}_{o}" for o in objects}
    compose = {}
    for (a, b) in leq:
        for (b2, c) in leq:
            if b2 == b:
                compose[(f"{b}_{c}", f"{a}_{b}")] = f"{a}_{c}"
    return build_category(name, objects, morphisms, identities, compose)


def monoid_z2_category() -> FiniteCategory:
    """One object whose endomorphisms form the order-2 group."""
    morphisms = [("e", "o", "o"), ("s", "o", "o")]
    compose = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return build_category("monoid", ("o",), morphisms, {"o": "e"}, compose)


# What each bundled file must hold, keyed by file name. f4.rng is checked
# against `semilinear.FieldFq2` instead.
GROUP_BUILDERS = {
    "z2": lambda: cyclic(2),
    "z3": lambda: cyclic(3),
    "z4": lambda: cyclic(4),
    "z6": lambda: cyclic(6),
    "s3": symmetric3,
    "d4": dihedral4,
    "q8": quaternion8,
    "z2xz2": klein4,
}

RING_BUILDERS = {
    "z4": lambda: zmod(4),
    "z2xz2": z2xz2_ring,
    "t2f2": t2f2_ring,
    "m2f2": m2f2_ring,
}

CATEGORY_BUILDERS = {
    "arrow": lambda: poset_category("arrow", ("a", "b"), {("a", "b")}),
    "chain3": lambda: poset_category("chain3", ("a", "b", "c"),
                                     {("a", "b"), ("b", "c"), ("a", "c")}),
    # three objects x, y and their meet m
    "meet": lambda: poset_category("meet", ("m", "x", "y"),
                                   {("m", "x"), ("m", "y")}),
    "monoid": monoid_z2_category,
}
