"""Finite unital rings as paired addition/multiplication tables.

Involutions (additive, product-reversing, self-inverse, unit-fixing
self-maps) are opt-in per ring: not every ring is anti-isomorphic to itself,
so operations that need a reverse map demand a stored involution and fail
cleanly otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import kernels
from .errors import (
    AddNotAbelianGroup,
    BadInvolution,
    MulNotMonoid,
    NotDistributive,
    NotIdeal,
)
from .groups import FiniteGroup, validate_group
from .maps import STRAIGHT, Morphism

LEFT = "left"
RIGHT = "right"
TWO_SIDED = "two-sided"


@dataclass(frozen=True)
class FiniteRing:
    order: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int
    involution: tuple[int, ...] | None = None
    name: str = field(default="", compare=False)

    def add_(self, a: int, b: int) -> int:
        return self.add[a][b]

    def mul_(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def neg(self, a: int) -> int:
        return self.additive_group.inv(a)

    def sub(self, a: int, b: int) -> int:
        return self.add_(a, self.neg(b))

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def additive_group(self) -> FiniteGroup:
        return validate_group(self.add, name=f"({self.name},+)" if self.name else "")

    @cached_property
    def commutative(self) -> bool:
        return all(self.mul[a][b] == self.mul[b][a]
                   for a in range(self.order) for b in range(self.order))

    def __repr__(self) -> str:
        return f"FiniteRing({self.name or 'anon'}, order={self.order})"


@dataclass(frozen=True)
class RingIdeal:
    parent: FiniteRing
    members: tuple[int, ...]  # sorted
    side: str = TWO_SIDED

    def __contains__(self, x: int) -> bool:
        return x in self._member_set

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    @property
    def order(self) -> int:
        return len(self.members)


def validate_ring(add, mul, involution=None, name: str = "") -> FiniteRing:
    """Exhaustively check the ring axioms (and the involution, if supplied)."""
    n = len(add)
    if len(mul) != n:
        raise MulNotMonoid(f"mul table order {len(mul)} != add table order {n}")
    try:
        add_group = validate_group(add, name="(+)")
    except Exception as exc:  # noqa: BLE001 - rewrap with the ring error name
        raise AddNotAbelianGroup(f"addition is not a group: {exc}",
                                 witness=getattr(exc, "witness", None)) from exc
    if not add_group.abelian:
        w = next((a, b) for a in range(n) for b in range(n)
                 if add[a][b] != add[b][a])
        raise AddNotAbelianGroup(f"addition not commutative at {w}", witness=w)
    zero = add_group.identity

    mul = tuple(tuple(row) for row in mul)
    for i, row in enumerate(mul):
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise MulNotMonoid(f"mul row {i} malformed", witness=i)
    w = kernels.associativity_witness(mul)
    if w is not None:
        raise MulNotMonoid(f"multiplication not associative at {w}", witness=w)
    one = None
    for e in range(n):
        if all(mul[e][x] == x and mul[x][e] == x for x in range(n)):
            one = e
            break
    if one is None:
        raise MulNotMonoid("no two-sided multiplicative identity")

    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
                    raise NotDistributive(
                        f"x*(y+z) != x*y+x*z at ({x},{y},{z})", witness=(x, y, z, LEFT))
                if mul[add[y][z]][x] != add[mul[y][x]][mul[z][x]]:
                    raise NotDistributive(
                        f"(y+z)*x != y*x+z*x at ({x},{y},{z})", witness=(x, y, z, RIGHT))

    add_t = tuple(tuple(row) for row in add)
    if involution is not None:
        involution = tuple(involution)
        _check_involution(n, add_t, mul, one, involution)

    return FiniteRing(n, add_t, mul, zero, one, involution, name)


def _check_involution(n, add, mul, one, sigma):
    if len(sigma) != n or any(not (0 <= v < n) for v in sigma):
        raise BadInvolution("involution table malformed")
    if len(set(sigma)) != n:
        raise BadInvolution("involution not bijective")
    for x in range(n):
        if sigma[sigma[x]] != x:
            raise BadInvolution(f"sigma(sigma({x})) != {x}", witness=x)
    if sigma[one] != one:
        raise BadInvolution("involution does not fix the multiplicative identity",
                            witness=one)
    for x in range(n):
        for y in range(n):
            if sigma[add[x][y]] != add[sigma[x]][sigma[y]]:
                raise BadInvolution(f"sigma not additive at ({x},{y})", witness=(x, y))
            if sigma[mul[x][y]] != mul[sigma[y]][sigma[x]]:
                raise BadInvolution(
                    f"sigma(x*y) != sigma(y)*sigma(x) at ({x},{y})", witness=(x, y))


def opposite(r: FiniteRing, name: str = "") -> FiniteRing:
    """Same addition, reversed multiplication; any involution is dropped."""
    mul = tuple(tuple(r.mul[j][i] for j in range(r.order)) for i in range(r.order))
    return FiniteRing(r.order, r.add, mul, r.zero, r.one, None,
                      name or (f"{r.name}^op" if r.name else ""))


def ideal_witness(r: FiniteRing, members, side: str = TWO_SIDED):
    """None when members is an ideal of the declared side; otherwise a witness."""
    s = set(members)
    if r.zero not in s:
        return ("zero", r.zero)
    for a in s:
        if r.neg(a) not in s:
            return ("neg", a)
        for b in s:
            if r.add_(a, b) not in s:
                return ("add", a, b)
    for a in s:
        for x in r.elements():
            if side in (LEFT, TWO_SIDED) and r.mul_(x, a) not in s:
                return ("left-absorb", x, a)
            if side in (RIGHT, TWO_SIDED) and r.mul_(a, x) not in s:
                return ("right-absorb", a, x)
    return None


def is_subring(r: FiniteRing, members) -> bool:
    s = set(members)
    if r.zero not in s or r.one not in s:
        return False
    return all(r.add_(a, b) in s and r.mul_(a, b) in s for a in s for b in s) \
        and all(r.neg(a) in s for a in s)


def quotient_ring(r: FiniteRing, ideal: RingIdeal):
    """Quotient by a two-sided ideal, with the natural projection."""
    w = ideal_witness(r, ideal.members, TWO_SIDED)
    if w is not None:
        raise NotIdeal(f"not a two-sided ideal: {w}", witness=w)
    members = ideal.members
    coset_of = {}
    for x in r.elements():
        coset_of[x] = min(r.add_(x, h) for h in members)
    reps = sorted(set(coset_of.values()))
    idx = {rep: i for i, rep in enumerate(reps)}
    add = [[idx[coset_of[r.add_(a, b)]] for b in reps] for a in reps]
    mul = [[idx[coset_of[r.mul_(a, b)]] for b in reps] for a in reps]
    involution = None
    if r.involution is not None:
        stable = {coset_of[r.involution[x]] for x in members} == {coset_of[r.zero]}
        if stable:
            involution = tuple(idx[coset_of[r.involution[rep]]] for rep in reps)
    q = validate_ring(add, mul, involution,
                      name=f"{r.name}/{len(members)}" if r.name else "")
    proj = Morphism(r, q, tuple(idx[coset_of[x]] for x in r.elements()), STRAIGHT,
                    name=f"pi:{r.name or 'R'}")
    return q, proj


def subring_as_ring(r: FiniteRing, members):
    """Re-index a unital subring as a standalone ring plus its inclusion map."""
    members = sorted(members)
    pos = {x: i for i, x in enumerate(members)}
    add = [[pos[r.add_(x, y)] for y in members] for x in members]
    mul = [[pos[r.mul_(x, y)] for y in members] for x in members]
    sub = validate_ring(add, mul, name=f"{r.name}<{len(members)}>" if r.name else "")
    incl = Morphism(sub, r, tuple(members), STRAIGHT, name="incl")
    return sub, incl


def all_subrings(r: FiniteRing) -> tuple[tuple[int, ...], ...]:
    """Every unital subring: the sets with 0 and 1 closed under + and *
    (in a finite ring, closed under + means closed under negation too)."""
    return kernels.closed_sets((r.add, r.mul), (), (r.zero, r.one))


def all_ideals(r: FiniteRing, side: str) -> tuple[tuple[int, ...], ...]:
    """Every ideal of the declared side: the sets with 0 closed under + and
    under a ↦ x*a (left) or a ↦ a*x (right) for every x, which are the rows
    and the columns of the multiplication table."""
    rows, columns = r.mul, tuple(zip(*r.mul))
    maps = {LEFT: rows, RIGHT: columns, TWO_SIDED: rows + columns}[side]
    return kernels.closed_sets((r.add,), maps, (r.zero,))
