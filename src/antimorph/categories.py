"""Finite categories as explicit composition tables, factorization structure,
the anti-category and associated category, factorable functors, products and
anti-products, and the equip/forget adjunction checks.

Anti-morphisms of an abstract finite category are formal tagged copies: there
is no set-map law for them to violate, which is exactly what makes the
canonical factorial structure unique by construction. Concreteness lives in
the group, ring, and semilinear modules.

Every category numbers its cells once, when it is built: its objects, then its
morphisms, and for a factorization category then its anti morphisms. A functor
is the tuple of the target cells its source's objects and morphisms go to; a
factorable functor appends the images of the anti morphisms, so its first
cells are its underlying functor. Composition g∘f is `tuple(g[i] for i in f)`.
Ids name cells in files, witnesses and report inputs only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    AxiomViolation,
    BadIdentity,
    BoundExceeded,
    NotAssociative,
    NotComposable,
)
from .kernels import reader
from .verdict import TheoremReport, check

FUNCTOR_OBJECT_LIMIT = 3
FUNCTOR_MORPHISM_LIMIT = 8
FUNCTOR_CANDIDATE_LIMIT = 10 ** 6


@dataclass(frozen=True)
class Mor:
    mid: str
    src: str
    dst: str


@dataclass(frozen=True)
class AdditiveHom:
    zero: str
    table: dict  # (mid, mid) -> mid


@dataclass(frozen=True, eq=True)
class FiniteCategory:
    name: str
    objects: tuple
    morphisms: tuple          # Mor records
    identities: dict          # object -> mid
    compose: dict             # (gid, fid) -> hid, g after f
    additive: dict | None = None   # (src, dst) -> AdditiveHom

    def __post_init__(self):
        # cached derived tables; the dataclass fields stay as given
        vars(self).update(_number(self.objects, self.morphisms, self.compose,
                                  self.identities))

    def mor(self, mid: str) -> Mor:
        return self.morphisms[self._arrow_cell[mid] - len(self.objects)]

    def cell(self, mid: str) -> int:
        return self._arrow_cell[mid]

    def obj_cell(self, obj: str) -> int:
        return self._object_cell[obj]

    def hom(self, a: str, b: str) -> tuple:
        return tuple(m.mid for m in self.morphisms if m.src == a and m.dst == b)

    def composable(self, gid: str, fid: str) -> bool:
        return self.mor(fid).dst == self.mor(gid).src

    def compose_ids(self, gid: str, fid: str) -> str:
        if not self.composable(gid, fid):
            raise NotComposable(f"{gid} after {fid}")
        return self.compose[(gid, fid)]

    def same_tables(self, other: "FiniteCategory") -> bool:
        return (self.objects == other.objects
                and self.morphisms == other.morphisms
                and self.identities == other.identities
                and self.compose == other.compose
                and self.additive == other.additive)

    def __repr__(self) -> str:
        return f"FiniteCategory({self.name}, {len(self.objects)} objects, " \
               f"{len(self.morphisms)} morphisms)"


def _number(objects, morphisms, compose, identities) -> dict:
    """The cell attributes of a category: its objects, then `morphisms`,
    numbered densely, with `compose` and the typing tabulated over the cells.
    Runs before validation, so ids that do not resolve become -1 and missing
    composites stay -1 in the table."""
    n = len(objects)
    object_cell = {o: i for i, o in enumerate(objects)}
    arrow_cell = {m.mid: n + j for j, m in enumerate(morphisms)}
    size = n + len(morphisms)
    src = tuple(range(n)) + tuple(object_cell.get(m.src, -1) for m in morphisms)
    dst = tuple(range(n)) + tuple(object_cell.get(m.dst, -1) for m in morphisms)
    table = [-1] * (size * size)
    for (g, f), h in compose.items():
        if g in arrow_cell and f in arrow_cell:
            table[arrow_cell[g] * size + arrow_cell[f]] = arrow_cell.get(h, -1)
    homs = {}
    for k in range(n, size):
        homs.setdefault((src[k], dst[k]), []).append(k)
    return {
        "cells": tuple(objects) + tuple(m.mid for m in morphisms),
        "_object_cell": object_cell,
        "_arrow_cell": arrow_cell,
        "_src": src,
        "_dst": dst,
        "_table": table,
        "_homs": {key: tuple(ks) for key, ks in homs.items()},
        "_ident": tuple(arrow_cell.get(identities.get(o), -1) for o in objects),
        # composable (g, f, g∘f) cells, g outer, both in morphism order
        "_triples": tuple((g, f, table[g * size + f])
                          for g in range(n, size) for f in range(n, size)
                          if dst[f] == src[g]),
    }


def build_category(name, objects, morphisms, identities, compose,
                   additive=None) -> FiniteCategory:
    """Assemble and validate; identity compositions are filled in automatically."""
    mors = tuple(Mor(*m) if not isinstance(m, Mor) else m for m in morphisms)
    table = dict(compose)
    for m in mors:
        table.setdefault((identities[m.dst], m.mid), m.mid)
        table.setdefault((m.mid, identities[m.src]), m.mid)
    cat = FiniteCategory(name, tuple(objects), mors, dict(identities), table,
                         additive)
    validate_category(cat)
    return cat


def validate_category(cat: FiniteCategory) -> FiniteCategory:
    """Exhaustive identity, totality, typing, associativity, and additivity checks."""
    for obj in cat.objects:
        if obj not in cat.identities:
            raise BadIdentity(f"object {obj} has no identity")
        mid = cat.identities[obj]
        m = cat.mor(mid)
        if (m.src, m.dst) != (obj, obj):
            raise BadIdentity(f"identity {mid} of {obj} is not an endomorphism")
    for m in cat.morphisms:
        if m.src not in cat.objects or m.dst not in cat.objects:
            raise BadIdentity(f"morphism {m.mid} references unknown objects")
    for g in cat.morphisms:
        for f in cat.morphisms:
            if f.dst != g.src:
                continue
            key = (g.mid, f.mid)
            if key not in cat.compose:
                raise NotComposable(f"composite {g.mid}∘{f.mid} missing")
            h = cat.mor(cat.compose[key])
            if (h.src, h.dst) != (f.src, g.dst):
                raise NotComposable(f"composite {g.mid}∘{f.mid} badly typed")
    for obj in cat.objects:
        e = cat.identities[obj]
        for m in cat.morphisms:
            if m.src == obj and cat.compose[(m.mid, e)] != m.mid:
                raise BadIdentity(f"{m.mid}∘{e} != {m.mid}", witness=(m.mid, e))
            if m.dst == obj and cat.compose[(e, m.mid)] != m.mid:
                raise BadIdentity(f"{e}∘{m.mid} != {m.mid}", witness=(e, m.mid))
    w = _associativity_witness(cat.morphisms, cat.compose)
    if w is not None:
        raise NotAssociative(f"composition not associative at {w}", witness=w)
    if cat.additive is not None:
        _validate_additive(cat)
    return cat


def _associativity_witness(morphisms, table):
    for h in morphisms:
        for g in morphisms:
            if g.src != h.dst:
                continue
            gh = table[(g.mid, h.mid)]
            for f in morphisms:
                if f.src != g.dst:
                    continue
                if table[(table[(f.mid, g.mid)], h.mid)] != table[(f.mid, gh)]:
                    return (f.mid, g.mid, h.mid)
    return None


def _validate_additive(cat: FiniteCategory):
    from .groups import validate_group

    for (a, b), data in cat.additive.items():
        mids = cat.hom(a, b)
        pos = {m: i for i, m in enumerate(mids)}
        table = [[pos[data.table[(m1, m2)]] for m2 in mids] for m1 in mids]
        g = validate_group(table, name=f"hom({a},{b})")
        if not g.abelian:
            raise BadIdentity(f"hom({a},{b}) addition is not commutative")
        if g.identity != pos[data.zero]:
            raise BadIdentity(f"declared zero of hom({a},{b}) is not the identity")
    for (a, b), data in cat.additive.items():
        for (b2, c), data2 in cat.additive.items():
            if b2 != b:
                continue
            for f1 in cat.hom(a, b):
                for f2 in cat.hom(a, b):
                    s = data.table[(f1, f2)]
                    for g in cat.hom(b, c):
                        lhs = cat.compose[(g, s)]
                        rhs = cat.additive[(a, c)].table[
                            (cat.compose[(g, f1)], cat.compose[(g, f2)])]
                        if lhs != rhs:
                            raise BadIdentity(
                                f"composition not linear at {g}∘({f1}+{f2})",
                                witness=(g, f1, f2))
            for g1 in cat.hom(b, c):
                for g2 in cat.hom(b, c):
                    s = data2.table[(g1, g2)]
                    for f in cat.hom(a, b):
                        lhs = cat.compose[(s, f)]
                        rhs = cat.additive[(a, c)].table[
                            (cat.compose[(g1, f)], cat.compose[(g2, f)])]
                        if lhs != rhs:
                            raise BadIdentity(
                                f"composition not linear at ({g1}+{g2})∘{f}",
                                witness=(g1, g2, f))


# -- factorization structure ------------------------------------------------------


@dataclass(frozen=True)
class FactorizationCategory:
    base: FiniteCategory
    an_morphisms: tuple       # Mor records, ids disjoint from the base
    reverse: dict             # object -> anti mid
    mixed: dict               # (gid, fid) -> hid for pairs touching an anti id
    an_additive: dict | None = None   # (src, dst) -> AdditiveHom on anti sets

    def __post_init__(self):
        # the cells of the associated category: the base's cells come first
        cells = _number(self.objects, self.base.morphisms + self.an_morphisms,
                        {**self.base.compose, **self.mixed}, self.base.identities)
        start, size = len(self.base.cells), len(cells["cells"])
        table, src = cells["_table"], cells["_src"]
        rev = tuple(cells["_arrow_cell"].get(self.reverse.get(o), -1)
                    for o in self.objects)
        # each anti morphism's straight twin m∘rev, with its source object
        twins = tuple((table[k * size + rev[src[k]]]
                       if src[k] >= 0 and rev[src[k]] >= 0 else -1, src[k])
                      for k in range(start, size))
        vars(self).update(
            cells, _rev=rev, _an_straight=twins,
            _mixed_triples=tuple(t for t in cells["_triples"]
                                 if t[0] >= start or t[1] >= start))

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def objects(self) -> tuple:
        return self.base.objects

    def is_anti(self, mid: str) -> bool:
        return self._arrow_cell.get(mid, -1) >= len(self.base.cells)

    def cell(self, mid: str) -> int:
        return self._arrow_cell[mid]

    def obj_cell(self, obj: str) -> int:
        return self._object_cell[obj]

    def mor(self, mid: str) -> Mor:
        k = self._arrow_cell[mid] - len(self.base.cells)
        return self.an_morphisms[k] if k >= 0 else self.base.mor(mid)

    def an(self, a: str, b: str) -> tuple:
        return tuple(m.mid for m in self.an_morphisms if m.src == a and m.dst == b)

    def hom(self, a: str, b: str) -> tuple:
        return self.base.hom(a, b)

    def all_morphisms(self) -> tuple:
        return self.base.morphisms + self.an_morphisms

    def compose_ids(self, gid: str, fid: str) -> str:
        if self.is_anti(gid) or self.is_anti(fid):
            key = (gid, fid)
            if key not in self.mixed:
                raise NotComposable(f"{gid} after {fid}")
            return self.mixed[key]
        return self.base.compose_ids(gid, fid)

    def star(self, gid: str, fid: str) -> str:
        """Star composition of two anti ids: (g∘f)∘reverse."""
        if not (self.is_anti(gid) and self.is_anti(fid)):
            raise NotComposable("star composition takes two anti ids")
        src = self.mor(fid).src
        return self.compose_ids(self.compose_ids(gid, fid), self.reverse[src])

    def same_tables(self, other: "FactorizationCategory") -> bool:
        return (self.base.same_tables(other.base)
                and self.an_morphisms == other.an_morphisms
                and self.reverse == other.reverse
                and self.mixed == other.mixed
                and self.an_additive == other.an_additive)


def validate_factorization(fc: FactorizationCategory) -> FactorizationCategory:
    """Check the factorial-structure axioms exhaustively.

    Axiom numbering in violations: 1 anti-sets well formed, 2 mixed laws total
    with the XOR variance, 3 reverse morphisms present and compatible,
    4 associativity of all compositions; the reverse-commutation identity
    f∘rev_A = rev_B∘f is checked as part of axiom 3.
    """
    validate_category(fc.base)
    base_ids = {m.mid for m in fc.base.morphisms}
    for m in fc.an_morphisms:
        if m.mid in base_ids:
            raise AxiomViolation(f"anti id {m.mid} collides with the base", 1,
                                 witness=m.mid)
        if m.src not in fc.objects or m.dst not in fc.objects:
            raise AxiomViolation(f"anti morphism {m.mid} badly typed", 1,
                                 witness=m.mid)
    everything = fc.all_morphisms()
    for g in everything:
        for f in everything:
            if f.dst != g.src:
                continue
            if not (fc.is_anti(g.mid) or fc.is_anti(f.mid)):
                continue
            key = (g.mid, f.mid)
            if key not in fc.mixed:
                raise AxiomViolation(f"mixed composite {g.mid}∘{f.mid} missing", 2,
                                     witness=key)
            h = fc.mor(fc.mixed[key])
            if (h.src, h.dst) != (f.src, g.dst):
                raise AxiomViolation(f"mixed composite {g.mid}∘{f.mid} badly typed",
                                     2, witness=key)
            want_anti = fc.is_anti(g.mid) != fc.is_anti(f.mid)
            if fc.is_anti(h.mid) != want_anti:
                raise AxiomViolation(
                    f"composite {g.mid}∘{f.mid} has the wrong variance", 2,
                    witness=key)
    for obj in fc.objects:
        if obj not in fc.reverse:
            raise AxiomViolation(f"object {obj} has no reverse morphism", 3,
                                 witness=obj)
        rid = fc.reverse[obj]
        m = fc.mor(rid)
        if not fc.is_anti(rid) or (m.src, m.dst) != (obj, obj):
            raise AxiomViolation(f"reverse morphism of {obj} malformed", 3,
                                 witness=rid)
    for f in fc.base.morphisms:
        lhs = fc.compose_ids(f.mid, fc.reverse[f.src])
        rhs = fc.compose_ids(fc.reverse[f.dst], f.mid)
        if lhs != rhs:
            raise AxiomViolation(
                f"{f.mid}∘rev != rev∘{f.mid}", 3, witness=(f.mid, lhs, rhs))
    compose_all = dict(fc.base.compose)
    compose_all.update(fc.mixed)
    w = _associativity_witness(everything, compose_all)
    if w is not None:
        raise AxiomViolation(f"composition not associative at {w}", 4, witness=w)
    if fc.an_additive is not None:
        _validate_an_additive(fc)
    return fc


def _validate_an_additive(fc: FactorizationCategory):
    from .groups import validate_group

    for (a, b), data in fc.an_additive.items():
        mids = fc.an(a, b)
        pos = {m: i for i, m in enumerate(mids)}
        table = [[pos[data.table[(m1, m2)]] for m2 in mids] for m1 in mids]
        g = validate_group(table, name=f"an({a},{b})")
        if not g.abelian:
            raise BadIdentity(f"an({a},{b}) addition is not commutative")


# -- the canonical structure: equip and forget ---------------------------------------


def anti_id(mid: str) -> str:
    return mid + "*"


def caf(cat: FiniteCategory) -> FactorizationCategory:
    """Equip a category with its canonical factorial structure.

    Anti-morphisms are formal starred copies of the straight ones and mixed
    composition works by variance XOR over the underlying composition.
    """
    an_mors = tuple(Mor(anti_id(m.mid), m.src, m.dst) for m in cat.morphisms)
    reverse = {obj: anti_id(cat.identities[obj]) for obj in cat.objects}
    mixed = {}
    for g in cat.morphisms:
        for f in cat.morphisms:
            if f.dst != g.src:
                continue
            h = cat.compose[(g.mid, f.mid)]
            mixed[(anti_id(g.mid), anti_id(f.mid))] = h
            mixed[(anti_id(g.mid), f.mid)] = anti_id(h)
            mixed[(g.mid, anti_id(f.mid))] = anti_id(h)
    an_additive = None
    if cat.additive is not None:
        an_additive = {}
        for (a, b), data in cat.additive.items():
            table = {(anti_id(m1), anti_id(m2)): anti_id(v)
                     for (m1, m2), v in data.table.items()}
            an_additive[(a, b)] = AdditiveHom(anti_id(data.zero), table)
    fc = FactorizationCategory(cat, an_mors, reverse, mixed, an_additive)
    return validate_factorization(fc)


def fca(fc: FactorizationCategory) -> FiniteCategory:
    """Forget the factorial structure."""
    return fc.base


# -- derived categories ---------------------------------------------------------------


def anti_category(fc: FactorizationCategory) -> FiniteCategory:
    """Same objects, anti-morphisms as morphisms, star composition, reverse
    morphisms as identities."""
    compose = {}
    for g in fc.an_morphisms:
        for f in fc.an_morphisms:
            if f.dst == g.src:
                compose[(g.mid, f.mid)] = fc.star(g.mid, f.mid)
    cat = FiniteCategory(fc.name + "^an", fc.objects, fc.an_morphisms,
                         dict(fc.reverse), compose)
    return validate_category(cat)


def associated_category(fc: FactorizationCategory) -> FiniteCategory:
    """Straight and anti arrows together under the mixed composition."""
    compose = dict(fc.base.compose)
    compose.update(fc.mixed)
    cat = FiniteCategory(fc.name + "~", fc.objects, fc.all_morphisms(),
                         dict(fc.base.identities), compose)
    return validate_category(cat)


# -- functors --------------------------------------------------------------------------


def functor_witness(f: tuple, c: FiniteCategory, d: FiniteCategory):
    """None when the index tuple f is a functor c -> d; otherwise the first
    broken condition, named by c's ids."""
    n, size = len(c.objects), len(c.cells)
    if len(f) != size:
        return ("arity", len(f))
    dn, dsize = len(d.objects), len(d.cells)
    for i in range(n):
        if not 0 <= f[i] < dn:
            return ("object", c.cells[i])
    c_src, c_dst, d_src, d_dst = c._src, c._dst, d._src, d._dst
    for k in range(n, size):
        img = f[k]
        if not dn <= img < dsize:
            return ("morphism", c.cells[k])
        if d_src[img] != f[c_src[k]] or d_dst[img] != f[c_dst[k]]:
            return ("typing", c.cells[k])
    for i in range(n):
        if f[c._ident[i]] != d._ident[f[i]]:
            return ("identity", c.cells[i])
    table = d._table
    for g, m, h in c._triples:
        if f[h] != table[f[g] * dsize + f[m]]:
            return ("composition", (c.cells[g], c.cells[m]))
    return None


def functor_is_additive(f: tuple, c: FiniteCategory, d: FiniteCategory) -> bool:
    if c.additive is None or d.additive is None:
        return False

    def image(mid):
        return d.cells[f[c.cell(mid)]]

    for (a, b), data in c.additive.items():
        target = d.additive.get((d.cells[f[c.obj_cell(a)]],
                                 d.cells[f[c.obj_cell(b)]]))
        if target is None:
            return False
        for (m1, m2), s in data.table.items():
            if image(s) != target.table[(image(m1), image(m2))]:
                return False
    return True


def identity_functor(c: FiniteCategory) -> tuple:
    return tuple(range(len(c.cells)))


def enumerate_functors(c: FiniteCategory, d: FiniteCategory,
                       additive: bool = False) -> list:
    """All functors c -> d (additive ones only, when asked), in lexicographic
    order of their index tuples."""
    if len(c.objects) > FUNCTOR_OBJECT_LIMIT or len(c.morphisms) > FUNCTOR_MORPHISM_LIMIT:
        raise BoundExceeded("functor enumeration refuses categories this large")
    if len(d.objects) > FUNCTOR_OBJECT_LIMIT or len(d.morphisms) > FUNCTOR_MORPHISM_LIMIT:
        raise BoundExceeded("functor enumeration refuses categories this large")
    n, size = len(c.objects), len(c.cells)
    # the identities follow from the object images; every other morphism
    # ranges over the hom set its typing allows
    identities = set(c._ident)
    free = [k for k in range(n, size) if k not in identities]
    out = []
    for obj_images in itertools.product(range(len(d.objects)), repeat=n):
        slots = [d._homs.get((obj_images[c._src[k]], obj_images[c._dst[k]]), ())
                 for k in free]
        if not all(slots):
            continue
        total = 1
        for options in slots:
            total *= len(options)
        if total > FUNCTOR_CANDIDATE_LIMIT:
            raise BoundExceeded("functor candidate space too large")
        cand = list(obj_images) + [0] * (size - n)
        for i, o in enumerate(obj_images):
            cand[c._ident[i]] = d._ident[o]
        for images in itertools.product(*slots):
            for k, img in zip(free, images):
                cand[k] = img
            f = tuple(cand)
            if functor_witness(f, c, d) is not None:
                continue
            if additive and not functor_is_additive(f, c, d):
                continue
            out.append(f)
    return out


def induced_an_map(f: tuple, fc_src: FactorizationCategory,
                   fc_dst: FactorizationCategory) -> tuple:
    """The images of fc_src's anti morphisms induced through the straight
    correspondence: m goes to f(m∘rev)∘rev."""
    table, size, rev = fc_dst._table, len(fc_dst.cells), fc_dst._rev
    return tuple(table[f[twin] * size + rev[f[obj]]]
                 for twin, obj in fc_src._an_straight)


def factorable_witness(ff: tuple, fc_src: FactorizationCategory,
                       fc_dst: FactorizationCategory):
    """None when ff is a factorable functor: a functor on the underlying
    categories whose anti images are typed anti morphisms, which sends each
    reverse morphism to the reverse morphism of the image object, and which
    preserves every mixed composition. Otherwise the first broken condition.

    Without the reverse condition lifts would not be unique: arrow -> monoid
    has factorable maps that send rev_a to s* and still preserve every mixed
    composite.
    """
    width, size = len(fc_src.base.cells), len(fc_src.cells)
    if len(ff) != size:
        return ("arity", len(ff))
    base_w = functor_witness(ff[:width], fc_src.base, fc_dst.base)
    if base_w is not None:
        return ("underlying", base_w)
    start, dsize = len(fc_dst.base.cells), len(fc_dst.cells)
    src, dst, d_src, d_dst = fc_src._src, fc_src._dst, fc_dst._src, fc_dst._dst
    for k in range(width, size):
        img = ff[k]
        if not start <= img < dsize or d_src[img] != ff[src[k]] \
                or d_dst[img] != ff[dst[k]]:
            return ("an-typing", fc_src.cells[k])
    src_rev, dst_rev = fc_src._rev, fc_dst._rev
    for i in range(len(fc_src.objects)):
        if ff[src_rev[i]] != dst_rev[ff[i]]:
            return ("reverse", fc_src.cells[i])
    table = fc_dst._table
    for g, m, h in fc_src._mixed_triples:
        if ff[h] != table[ff[g] * dsize + ff[m]]:
            return ("mixed-composition", (fc_src.cells[g], fc_src.cells[m]))
    return None


def lift_functor(f: tuple, fc_src: FactorizationCategory,
                 fc_dst: FactorizationCategory):
    """f followed by its induced anti images, when that is a factorable
    functor; None otherwise."""
    ff = f + induced_an_map(f, fc_src, fc_dst)
    return ff if factorable_witness(ff, fc_src, fc_dst) is None else None


def enumerate_factorable_functors(fc_src: FactorizationCategory,
                                  fc_dst: FactorizationCategory,
                                  additive: bool = False) -> list:
    """The lifts of the functors between the underlying categories, in their
    order; a functor without a lawful lift contributes nothing."""
    out = []
    for f in enumerate_functors(fc_src.base, fc_dst.base, additive=additive):
        ff = lift_functor(f, fc_src, fc_dst)
        if ff is not None:
            out.append(ff)
    return out


def check_factorable(ff: tuple, fc_src: FactorizationCategory,
                     fc_dst: FactorizationCategory, name: str) -> TheoremReport:
    """Verify the declared anti images are the induced ones and preserve all
    mixed compositions."""
    width = len(fc_src.base.cells)
    induced = induced_an_map(ff, fc_src, fc_dst)
    wrong = {fc_src.cells[width + i]: (fc_dst.cells[v], fc_dst.cells[u])
             for i, (v, u) in enumerate(zip(ff[width:], induced)) if v != u}
    w = factorable_witness(ff, fc_src, fc_dst)
    checks = (
        check("an-maps-are-induced", not wrong, witness=wrong),
        check("mixed-compositions-preserved", w is None, witness=w),
    )
    return TheoremReport(
        theorem="factorable-functor",
        inputs=(("functor", name), ("source", fc_src.name),
                ("target", fc_dst.name)),
        checks=checks,
    )


# -- equivalences ------------------------------------------------------------------------


def check_equivalence(f: tuple, c: FiniteCategory,
                      d: FiniteCategory) -> TheoremReport:
    """Fully faithful and essentially surjective, exhaustively; each failing
    check names its first counterexample."""
    n = len(c.objects)
    w = functor_witness(f, c, d)

    def unfaithful_pairs():
        for a in range(n):
            for b in range(n):
                images = [f[m] for m in c._homs.get((a, b), ())]
                target = d._homs.get((f[a], f[b]), ())
                if len(set(images)) != len(images) or set(images) != set(target):
                    yield (c.cells[a], c.cells[b])

    ff_w = next(unfaithful_pairs(), None)
    image_objects = {d.cells[o] for o in f[:n] if 0 <= o < len(d.objects)}
    es_w = next((t for t in d.objects
                 if not any(_is_iso(d, m) for s in image_objects
                            for m in d.hom(t, s))), None)
    return TheoremReport(
        theorem="equivalence",
        inputs=(("source", c.name), ("target", d.name)),
        checks=(check("is-functor", w is None, witness=w),
                check("fully-faithful", ff_w is None, witness=ff_w),
                check("essentially-surjective", es_w is None, witness=es_w)),
    )


def anti_functor(fc: FactorizationCategory) -> tuple:
    """base -> anti-category; objects fixed, f goes to its starred twin f∘rev.
    The anti category numbers the anti morphisms right after the objects."""
    n, nb = len(fc.objects), len(fc.base.morphisms)
    table, size, rev = fc._table, len(fc.cells), fc._rev
    return tuple(range(n)) + tuple(table[k * size + rev[fc._src[k]]] - nb
                                   for k in range(n, n + nb))


# -- products and anti-products ------------------------------------------------------------


def find_products(cat: FiniteCategory, family) -> list:
    """All product presentations (apex, projection tuple) of a family of objects."""
    out = []
    for apex in cat.objects:
        for proj in itertools.product(*(cat.hom(apex, x) for x in family)):
            if _is_product(cat, apex, proj, family):
                out.append((apex, proj))
    return out


def _is_product(cat, apex, proj, family) -> bool:
    for y in cat.objects:
        for cone in itertools.product(*(cat.hom(y, x) for x in family)):
            mediators = [f for f in cat.hom(y, apex)
                         if all(cat.compose[(p, f)] == c
                                for p, c in zip(proj, cone))]
            if len(mediators) != 1:
                return False
    return True


def check_anti_universal(fc: FactorizationCategory, apex, proj,
                         family) -> TheoremReport:
    """Both one-sided universal properties of a product against anti-cones;
    a failing property names its first anti-cone without a unique mediator."""
    anti_proj = tuple(fc.compose_ids(p, fc.reverse[apex]) for p in proj)

    def cones_without_unique_mediator(mediators_from, projections):
        for y in fc.objects:
            for cone in itertools.product(*(fc.an(y, x) for x in family)):
                mediators = tuple(f for f in mediators_from(y, apex)
                                  if all(fc.compose_ids(p, f) == c
                                         for p, c in zip(projections, cone)))
                if len(mediators) != 1:
                    yield (y, cone, mediators)

    w1 = next(cones_without_unique_mediator(fc.an, proj), None)
    w2 = next(cones_without_unique_mediator(fc.hom, anti_proj), None)
    checks = (
        check("unique-anti-mediator-through-projections", w1 is None, witness=w1),
        check("unique-straight-mediator-through-anti-projections", w2 is None,
              witness=w2),
    )
    return TheoremReport(
        theorem="anti-universal-properties",
        inputs=(("apex", apex), ("family", ",".join(family))),
        checks=checks,
    )


def anti_product_uniqueness(fc: FactorizationCategory, family) -> TheoremReport:
    """Comparison maps between presentations: a unique anti-isomorphism links
    two products; a unique straight isomorphism links two anti-products."""
    presentations = find_products(fc.base, family)
    checks = []
    for (x, p), (x2, p2) in itertools.product(presentations, repeat=2):
        p_star = tuple(fc.compose_ids(pi, fc.reverse[x]) for pi in p)
        candidates = [g for g in fc.an(x, x2)
                      if all(fc.compose_ids(p2[i], g) == p_star[i]
                             for i in range(len(family)))
                      and _is_anti_iso(fc, g)]
        checks.append(check(f"products-{x}-{x2}-unique-anti-iso",
                            len(candidates) == 1, witness=tuple(candidates)))
        p2_star = tuple(fc.compose_ids(pi, fc.reverse[x2]) for pi in p2)
        straight_candidates = [g for g in fc.hom(x, x2)
                               if all(fc.compose_ids(p2_star[i], g) == p_star[i]
                                      for i in range(len(family)))
                               and _is_iso(fc.base, g)]
        checks.append(check(f"anti-products-{x}-{x2}-unique-iso",
                            len(straight_candidates) == 1,
                            witness=tuple(straight_candidates)))
    return TheoremReport(
        theorem="anti-product-uniqueness",
        inputs=(("category", fc.name), ("family", ",".join(family)),
                ("presentations", str(len(presentations)))),
        checks=tuple(checks),
    )


def _is_iso(cat: FiniteCategory, fid: str) -> bool:
    m = cat.mor(fid)
    return any(cat.compose[(gid, fid)] == cat.identities[m.src]
               and cat.compose[(fid, gid)] == cat.identities[m.dst]
               for gid in cat.hom(m.dst, m.src))


def _is_anti_iso(fc: FactorizationCategory, fid: str) -> bool:
    m = fc.mor(fid)
    return any(fc.compose_ids(gid, fid) == fc.base.identities[m.src]
               and fc.compose_ids(fid, gid) == fc.base.identities[m.dst]
               for gid in fc.an(m.dst, m.src))


def check_antiproduct_preservation(ff: tuple, fc_src: FactorizationCategory,
                                   fc_dst: FactorizationCategory, family,
                                   name: str) -> TheoremReport:
    """Images of anti-product presentations satisfy the anti-universal
    property; a failing presentation names its first anti-cone without a
    unique mediator."""
    def image(cell):
        return fc_dst.cells[ff[cell]]

    checks = []
    for apex, proj in find_products(fc_src.base, family):
        image_family = tuple(image(fc_src.obj_cell(x)) for x in family)
        image_apex = image(fc_src.obj_cell(apex))
        image_anti_proj = tuple(
            image(fc_src.cell(fc_src.compose_ids(p, fc_src.reverse[apex])))
            for p in proj)

        def counterexamples():
            for y in fc_dst.objects:
                for cone in itertools.product(*(fc_dst.an(y, x)
                                                for x in image_family)):
                    mediators = tuple(
                        f for f in fc_dst.hom(y, image_apex)
                        if all(fc_dst.compose_ids(p, f) == c
                               for p, c in zip(image_anti_proj, cone)))
                    if len(mediators) != 1:
                        yield (apex, y, cone, mediators)

        w = next(counterexamples(), None)
        checks.append(check(f"image-anti-product-{apex}", w is None, witness=w))
    return TheoremReport(
        theorem="anti-product-preservation",
        inputs=(("functor", name), ("family", ",".join(family))),
        checks=tuple(checks),
    )


# -- the equip/forget adjunctions --------------------------------------------------------


def adjunction_report(cats: dict, additive: bool = False) -> TheoremReport:
    """Both adjunction bijections with all naturality squares over a corpus.

    cats maps names to plain categories; the factorization side of each check
    is their canonical structure. Equipping and forgetting are verified to be
    mutually inverse on both objects and functors, and the square
    equip(g∘f∘forget(h)) = equip(g)∘equip(f)∘h is checked for every
    composable triple drawn from the corpus functor sets (and its mirror for
    the forgetful direction).

    Each functor's lift comes from `lift_functor` once and is kept under the
    functor it was made from (None when it has none), so a lift whose plain
    cells are not its functor breaks the forget square; the other side of
    each bijection is `enumerate_factorable_functors`. A failing naturality
    check names its first counterexample: the categories, then each functor
    as (id, image id) pairs.
    """
    equipped = {name: caf(c) for name, c in cats.items()}
    width = {name: len(c.cells) for name, c in cats.items()}
    checks = []
    functor_sets = {}
    factorable_sets = {}
    lifts = {}
    for (n1, c1), (n2, c2) in itertools.product(cats.items(), repeat=2):
        functor_sets[(n1, n2)] = enumerate_functors(c1, c2, additive=additive)
        factorable_sets[(n1, n2)] = enumerate_factorable_functors(
            equipped[n1], equipped[n2], additive=additive)
        lifts[(n1, n2)] = {f: lift_functor(f, equipped[n1], equipped[n2])
                           for f in functor_sets[(n1, n2)]}
    # round trips are table-identities
    for name, c in cats.items():
        checks.append(check(f"forget-equip-identity-{name}",
                            fca(caf(c)).same_tables(c)))
        checks.append(check(f"equip-forget-identity-{name}",
                            caf(fca(equipped[name])).same_tables(equipped[name])))
    # bijections: every functor lifts to exactly one factorable functor
    for key in sorted(functor_sets):
        underlying = {ff[:width[key[0]]] for ff in factorable_sets[key]}
        checks.append(check(f"bijection-{key[0]}-to-{key[1]}",
                            underlying == set(functor_sets[key])
                            and len(factorable_sets[key]) == len(functor_sets[key]),
                            witness=(len(functor_sets[key]),
                                     len(factorable_sets[key]))))

    # witnesses write a functor, or a lift, as its (id, image id) pairs
    def plain(f, n1, n2):
        return tuple(zip(cats[n1].cells, (cats[n2].cells[v] for v in f)))

    def lifted(ff, n1, n2):
        return tuple(zip(equipped[n1].cells, (equipped[n2].cells[v] for v in ff)))

    def unliftable(f, n1, n2):
        return ("unliftable", n1, n2, plain(f, n1, n2))

    # g∘f and its lift depend on (nb, na, na2) only, so they are built once;
    # the lift is None when f or g has none
    names = sorted(cats)
    composites = {}
    for nb, na, na2 in itertools.product(names, repeat=3):
        f_lifts, g_lifts = lifts[(nb, na)], lifts[(na, na2)]
        pairs = []
        for f in functor_sets[(nb, na)]:
            f_lift, through_f = f_lifts[f], reader(f)
            for g in functor_sets[(na, na2)]:
                g_lift = g_lifts[g]
                pairs.append((f, g, through_f(g),
                              None if f_lift is None or g_lift is None
                              else reader(f_lift)(g_lift)))
        composites[(nb, na, na2)] = pairs

    def equip_counterexamples():
        for nb2, nb, na, na2 in itertools.product(names, repeat=4):
            outer_lifts = lifts[(nb2, na2)]
            pairs = composites[(nb, na, na2)]
            for h in factorable_sets[(nb2, nb)]:
                through_h, through_h_plain = reader(h), reader(h[:width[nb2]])
                for f, g, gf, gf_lift in pairs:
                    if gf_lift is None:
                        yield unliftable(f, nb, na) if lifts[(nb, na)][f] is None \
                            else unliftable(g, na, na2)
                    elif outer_lifts.get(through_h_plain(gf)) != through_h(gf_lift):
                        yield (nb2, nb, na, na2, lifted(h, nb2, nb),
                               plain(f, nb, na), plain(g, na, na2))

    def forget_counterexamples():
        for nb2, nb, na, na2 in itertools.product(names, repeat=4):
            # forget(g∘f∘equip(h)) against forget(g∘f)∘h, read off the
            # plain cells of equip(h)
            hs = []
            for h in functor_sets[(nb2, nb)]:
                h_lift = lifts[(nb2, nb)][h]
                hs.append((h, reader(h), None if h_lift is None
                           else reader(h_lift[:width[nb2]])))
            for f in factorable_sets[(nb, na)]:
                for g in factorable_sets[(na, na2)]:
                    gf = reader(f)(g)
                    for h, through_h, through_h_lift in hs:
                        if through_h_lift is None:
                            yield unliftable(h, nb2, nb)
                        elif through_h_lift(gf) != through_h(gf):
                            yield (nb2, nb, na, na2, plain(h, nb2, nb),
                                   lifted(f, nb, na), lifted(g, na, na2))

    equip_w = next(equip_counterexamples(), None)
    forget_w = next(forget_counterexamples(), None)
    checks.append(check("naturality-equip-direction", equip_w is None,
                        witness=equip_w))
    checks.append(check("naturality-forget-direction", forget_w is None,
                        witness=forget_w))
    return TheoremReport(
        theorem="equip-forget-adjunctions" + ("-additive" if additive else ""),
        inputs=(("corpus", "+".join(sorted(cats))),),
        checks=tuple(checks),
    )


# -- bundled categories ----------------------------------------------------------------


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


def arrow_category() -> FiniteCategory:
    return poset_category("arrow", ("a", "b"), {("a", "b")})


def chain3_category() -> FiniteCategory:
    return poset_category("chain3", ("a", "b", "c"),
                          {("a", "b"), ("b", "c"), ("a", "c")})


def meet_semilattice_category() -> FiniteCategory:
    """Three objects x, y and their meet m, as a thin category."""
    return poset_category("meet", ("m", "x", "y"), {("m", "x"), ("m", "y")})


def monoid_z2_category() -> FiniteCategory:
    """One object whose endomorphisms form the order-2 group."""
    morphisms = [("e", "o", "o"), ("s", "o", "o")]
    compose = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return build_category("monoid", ("o",), morphisms, {"o": "e"}, compose)


def preadditive_one_object() -> FiniteCategory:
    """One object with endomorphism ring Z2: hom = {zero, one}."""
    morphisms = [("z", "o", "o"), ("u", "o", "o")]
    compose = {("z", "z"): "z", ("z", "u"): "z", ("u", "z"): "z", ("u", "u"): "u"}
    additive = {("o", "o"): AdditiveHom("z", {("z", "z"): "z", ("z", "u"): "u",
                                              ("u", "z"): "u", ("u", "u"): "z"})}
    return build_category("pad1", ("o",), morphisms, {"o": "u"}, compose,
                          additive=additive)


def preadditive_two_object() -> FiniteCategory:
    """Two objects with one nonzero arrow between them, Z2 hom-groups."""
    morphisms = [("zu", "u", "u"), ("iu", "u", "u"),
                 ("zv", "v", "v"), ("iv", "v", "v"),
                 ("zt", "u", "v"), ("t", "u", "v"),
                 ("zb", "v", "u")]
    identities = {"u": "iu", "v": "iv"}
    compose = {}
    table = {("u", "u"): ["zu", "iu"], ("v", "v"): ["zv", "iv"],
             ("u", "v"): ["zt", "t"], ("v", "u"): ["zb"]}

    def value(pair, bit):
        return table[pair][bit]

    def bit_of(mid):
        for pair, mids in table.items():
            if mid in mids:
                return mids.index(mid), pair
        raise KeyError(mid)

    for g in morphisms:
        for f in morphisms:
            gid, gsrc, gdst = g
            fid, fsrc, fdst = f
            if fdst != gsrc:
                continue
            gb, _ = bit_of(gid)
            fb, _ = bit_of(fid)
            compose[(gid, fid)] = value((fsrc, gdst), gb & fb)
    additive = {}
    for pair, mids in table.items():
        if len(mids) == 2:
            z, u = mids
            additive[pair] = AdditiveHom(z, {(z, z): z, (z, u): u,
                                             (u, z): u, (u, u): z})
        else:
            z = mids[0]
            additive[pair] = AdditiveHom(z, {(z, z): z})
    return build_category("pad2", ("u", "v"), morphisms, identities, compose,
                          additive=additive)
