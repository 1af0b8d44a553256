"""Finite groups as validated Cayley tables.

Elements are dense indices 0..n-1. Index 0 need not be the identity: the
identity is discovered during validation, which keeps the file format a bare
table. All values are immutable after validation and all operations are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from . import kernels
from .errors import (
    MissingInverse,
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotNormal,
)
from .maps import STRAIGHT, Morphism


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    cayley: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]
    name: str = field(default="", compare=False)

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def abelian(self) -> bool:
        c = self.cayley
        return all(c[a][b] == c[b][a] for a in range(self.order) for b in range(self.order))

    def element_order(self, x: int) -> int:
        k, acc = 1, x
        while acc != self.identity:
            acc = self.mul(acc, x)
            k += 1
        return k

    @cached_property
    def exponent(self) -> int:
        out = 1
        for x in self.elements():
            k = self.element_order(x)
            out = out * k // _gcd(out, k)
        return out

    def power(self, x: int, n: int) -> int:
        if n < 0:
            return self.power(self.inv(x), -n)
        acc = self.identity
        for _ in range(n):
            acc = self.mul(acc, x)
        return acc

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or 'anon'}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]  # sorted

    def __contains__(self, x: int) -> bool:
        return x in self._member_set

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    @property
    def order(self) -> int:
        return len(self.members)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def validate_group(table, name: str = "") -> FiniteGroup:
    """Check closure, identity, associativity, and inverses; reject non-groups."""
    n = len(table)
    if n == 0:
        raise NoIdentity("empty table has no identity")
    rows = []
    for i, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise NotClosed(f"row {i} has length {len(row)}, expected {n}", witness=i)
        for j, v in enumerate(row):
            if not (0 <= v < n):
                raise NotClosed(f"entry ({i},{j}) = {v} out of range", witness=(i, j))
        rows.append(row)
    cayley = tuple(rows)

    identity = None
    for e in range(n):
        if all(cayley[e][x] == x and cayley[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")

    witness = kernels.associativity_witness(cayley)
    if witness is not None:
        x, y, z = witness
        raise NotAssociative(f"(x*y)*z != x*(y*z) at ({x},{y},{z})", witness=witness)

    inverses = []
    for x in range(n):
        inv = None
        for y in range(n):
            if cayley[x][y] == identity and cayley[y][x] == identity:
                inv = y
                break
        if inv is None:
            raise MissingInverse(f"element {x} has no inverse", witness=x)
        inverses.append(inv)

    return FiniteGroup(n, cayley, identity, tuple(inverses), name)


def subgroup_closure(g: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup containing gens (identity always included). A
    finite set closed under the product is closed under inverses too."""
    return Subgroup(g, kernels.closure((g.cayley,), (), (g.identity,), gens)[0])


def is_subgroup(g: FiniteGroup, members) -> bool:
    s = set(members)
    if g.identity not in s:
        return False
    return all(g.mul(a, b) in s for a in s for b in s) and all(g.inv(a) in s for a in s)


def is_normal(g: FiniteGroup, s: Subgroup) -> bool:
    return normality_witness(g, s) is None


def normality_witness(g: FiniteGroup, s: Subgroup):
    """A pair (x, h) with x*h*x^-1 outside s, or None when s is normal."""
    for x in g.elements():
        xi = g.inv(x)
        for h in s.members:
            if g.mul(g.mul(x, h), xi) not in s:
                return (x, h)
    return None


def _coset(g: FiniteGroup, x: int, members) -> tuple[int, ...]:
    return tuple(sorted(g.mul(x, h) for h in members))


def quotient(g: FiniteGroup, n: Subgroup):
    """Quotient group by a normal subgroup, with the natural projection.

    Cosets are labelled by their least member, in ascending order, so the
    quotient table is reproducible.
    """
    w = normality_witness(g, n)
    if w is not None:
        raise NotNormal(f"conjugate of {w[1]} by {w[0]} leaves the subgroup", witness=w)
    cosets = {}
    for x in g.elements():
        c = _coset(g, x, n.members)
        cosets.setdefault(c, c[0])
    reps = sorted(cosets.values())
    index_of = {}
    for x in g.elements():
        index_of[x] = reps.index(min(_coset(g, x, n.members)))
    table = [[0] * len(reps) for _ in reps]
    for i, r in enumerate(reps):
        for j, s in enumerate(reps):
            table[i][j] = index_of[g.mul(r, s)]
    q = validate_group(table, name=f"{g.name}/{len(n.members)}" if g.name else "")
    proj = Morphism(g, q, tuple(index_of[x] for x in g.elements()), STRAIGHT,
                    name=f"pi:{g.name or 'G'}")
    return q, proj


def direct_product(g: FiniteGroup, h: FiniteGroup):
    """Componentwise product; element (a, b) has index a*|H| + b."""
    n, m = g.order, h.order
    table = [[0] * (n * m) for _ in range(n * m)]
    for a1, b1 in itertools.product(range(n), range(m)):
        for a2, b2 in itertools.product(range(n), range(m)):
            table[a1 * m + b1][a2 * m + b2] = g.mul(a1, a2) * m + h.mul(b1, b2)
    p = validate_group(table, name=f"{g.name}x{h.name}" if g.name and h.name else "")
    p1 = Morphism(p, g, tuple(x // m for x in range(n * m)), STRAIGHT, name="p1")
    p2 = Morphism(p, h, tuple(x % m for x in range(n * m)), STRAIGHT, name="p2")
    return p, p1, p2


def subgroup_product(g: FiniteGroup, a: Subgroup, n: Subgroup) -> Subgroup:
    """The set {a*n}; closure is guaranteed when n is normal, but verified."""
    w = normality_witness(g, n)
    if w is not None:
        raise NotNormal(f"conjugate of {w[1]} by {w[0]} leaves the subgroup", witness=w)
    members = sorted({g.mul(x, y) for x in a.members for y in n.members})
    if not is_subgroup(g, members):
        raise RuntimeError(f"product set {members} of a subgroup and a normal "
                           "subgroup is not closed; this is an engine bug")
    return Subgroup(g, tuple(members))


def subgroup_intersection(a: Subgroup, b: Subgroup) -> Subgroup:
    return Subgroup(a.parent, tuple(sorted(set(a.members) & set(b.members))))


def subgroup_as_group(g: FiniteGroup, s: Subgroup):
    """Re-index a subgroup as a standalone group plus its inclusion map."""
    members = list(s.members)
    pos = {x: i for i, x in enumerate(members)}
    table = [[pos[g.mul(x, y)] for y in members] for x in members]
    sub = validate_group(table, name=f"{g.name}<{len(members)}>" if g.name else "")
    incl = Morphism(sub, g, tuple(members), STRAIGHT, name="incl")
    return sub, incl


def generating_set(g: FiniteGroup) -> tuple[int, ...]:
    """Deterministic small generating set: greedily add the least uncovered
    element. These are the generators the Hom/An search extends over."""
    return tuple(kernels.generating_plan((g.cayley,), (g.identity,))[0])
