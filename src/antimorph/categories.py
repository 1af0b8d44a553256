"""Finite categories as explicit composition tables, factorization structure,
the anti-category and associated category, factorable functors, products and
anti-products, and the equip/forget adjunction checks.

Anti-morphisms of an abstract finite category are formal tagged copies: there
is no set-map law for them to violate, which is exactly what makes the
canonical factorial structure unique by construction. Real group and ring
maps arrive through `theorems.concrete_factorization`.

Every category numbers its cells once, when it is built: its objects, then its
morphisms, and for a factorization category then its anti morphisms. A functor
is the tuple of the target cells its source's objects and morphisms go to; a
factorable functor appends the images of the anti morphisms, so its first
cells are its underlying functor. Composition g∘f is `tuple(g[i] for i in f)`.
Ids name cells in files, witnesses and report inputs only.

Once built, a category is read through its cells alone: validation, the iso
and mediator searches, and the derived categories all use the composition
table. The `compose`, `identities`, `mixed` and `reverse` dicts are the
constructor input, the form `formats` writes, and what `table_difference`
compares.
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


class _Cells:
    """Lookups on the numbered cells that `_number` attaches to a category."""

    def cell(self, mid: str) -> int:
        return self._arrow_cell[mid]

    def obj_cell(self, obj: str) -> int:
        return self._object_cell[obj]

    def composite(self, g: int, f: int) -> int:
        """The cell of g∘f; -1 when the table has none."""
        return self._table[g * len(self.cells) + f]


@dataclass(frozen=True, eq=True)
class FiniteCategory(_Cells):
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

    def hom(self, a: str, b: str) -> tuple:
        return tuple(m.mid for m in self.morphisms if m.src == a and m.dst == b)

    def table_difference(self, other: "FiniteCategory"):
        """The first table field on which `other` differs, as (field, own
        value, other's value); None when every table agrees."""
        return _first_difference(self, other, (
            "objects", "morphisms", "identities", "compose", "additive"))

    def __repr__(self) -> str:
        return f"FiniteCategory({self.name}, {len(self.objects)} objects, " \
               f"{len(self.morphisms)} morphisms)"


def _first_difference(a, b, fields):
    for name in fields:
        mine, theirs = getattr(a, name), getattr(b, name)
        if mine != theirs:
            return (name, mine, theirs)
    return None


def _number(objects, morphisms, compose, identities) -> dict:
    """The cell attributes of a category: its objects, then `morphisms`,
    numbered densely, with `compose` and the typing tabulated over the cells.
    Runs before validation, so ids that do not resolve become -1, missing
    composites stay -1 in the table, and `compose` entries whose pair names
    an unknown morphism are listed in `_stray`."""
    n = len(objects)
    object_cell = {o: i for i, o in enumerate(objects)}
    arrow_cell = {m.mid: n + j for j, m in enumerate(morphisms)}
    size = n + len(morphisms)
    src = tuple(range(n)) + tuple(object_cell.get(m.src, -1) for m in morphisms)
    dst = tuple(range(n)) + tuple(object_cell.get(m.dst, -1) for m in morphisms)
    table = [-1] * (size * size)
    stray = [(g, f) for g, f in compose if g not in arrow_cell or f not in arrow_cell]
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
        "_stray": tuple(stray),
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
        table.setdefault((identities.get(m.dst), m.mid), m.mid)
        table.setdefault((m.mid, identities.get(m.src)), m.mid)
    cat = FiniteCategory(name, tuple(objects), mors, dict(identities), table,
                         additive)
    validate_category(cat)
    return cat


def category_violation(cat):
    """The first category law the cell table of `cat` breaks, as an error
    naming ids; None when it is a category. Checked in order: ids unique,
    typing resolved, identities present and typed, no composite of a pair
    naming an unknown morphism, a correctly typed composite for every
    composable pair, the identity laws, associativity.
    A factorization category is checked on its associated cells."""
    n, size, names = len(cat.objects), len(cat.cells), cat.cells
    src, dst, table = cat._src, cat._dst, cat._table
    for k, mid in enumerate(names):
        if (cat._object_cell if k < n else cat._arrow_cell)[mid] != k:
            return BadIdentity(f"id {mid} is used twice", witness=mid)
    for k in range(n, size):
        if src[k] < 0 or dst[k] < 0:
            return BadIdentity(f"morphism {names[k]} references unknown objects",
                               witness=names[k])
    for i, e in enumerate(cat._ident):
        if e < 0:
            return BadIdentity(f"object {names[i]} has no identity",
                               witness=names[i])
        if (src[e], dst[e]) != (i, i):
            return BadIdentity(f"identity {names[e]} of {names[i]} is not an "
                               f"endomorphism", witness=names[e])
    if cat._stray:
        g, f = cat._stray[0]
        return NotComposable(f"composite {g}∘{f} names an unknown morphism",
                             witness=(g, f))
    for g, f, h in cat._triples:
        if h < 0 or (src[h], dst[h]) != (src[f], dst[g]):
            problem = "missing or unknown" if h < 0 else "badly typed"
            return NotComposable(f"composite {names[g]}∘{names[f]} {problem}",
                                 witness=(names[g], names[f]))
    identities = set(cat._ident)
    for g, f, h in cat._triples:
        if (f in identities and h != g) or (g in identities and h != f):
            return BadIdentity(f"{names[g]}∘{names[f]} is {names[h]}",
                               witness=(names[g], names[f]))
    after = {}
    for e, g, eg in cat._triples:
        after.setdefault(g, []).append((e, eg))
    for g, f, gf in cat._triples:
        for e, eg in after.get(g, ()):
            if table[e * size + gf] != table[eg * size + f]:
                w = (names[e], names[g], names[f])
                return NotAssociative(f"composition not associative at {w}",
                                      witness=w)
    return None


def validate_category(cat: FiniteCategory) -> FiniteCategory:
    """Raise the first violation of the category laws, then of additivity."""
    w = category_violation(cat)
    if w is not None:
        raise w
    if cat.additive is not None:
        _validate_additive(cat, cat.additive, cat._homs, "hom")
    return cat


def _validate_additive(cat, additive: dict, sets: dict, kind: str):
    """Each (a, b) -> AdditiveHom of `additive` must make the cells
    `sets[(a, b)]` an abelian group whose identity is the declared zero, and
    composition in `cat` must be bilinear wherever these sets are closed
    under it: for the hom sets of a category that is everywhere, for the
    anti sets of a factorization category nowhere, as two anti morphisms
    compose to a straight one."""
    from .groups import validate_group

    names, size, table = cat.cells, len(cat.cells), cat._table
    plus = {}
    family = {}
    for (a, b), data in additive.items():
        label = f"{kind}({a},{b})"
        members = sets.get((cat._object_cell.get(a, -1),
                            cat._object_cell.get(b, -1)), ())
        pos = {k: i for i, k in enumerate(members)}
        for m1 in members:
            for m2 in members:
                s = cat._arrow_cell.get(data.table.get((names[m1], names[m2])), -1)
                if s not in pos:
                    raise BadIdentity(f"{label} has no sum {names[m1]}+{names[m2]}",
                                      witness=(names[m1], names[m2]))
                plus[m1, m2] = s
            family[m1] = members
        g = validate_group([[pos[plus[m1, m2]] for m2 in members]
                            for m1 in members], name=label)
        if not g.abelian:
            raise BadIdentity(f"{label} addition is not commutative")
        if members[g.identity] != cat._arrow_cell.get(data.zero):
            raise BadIdentity(f"declared zero of {label} is not the identity")
    for g, f, gf in cat._triples:
        if g not in family or f not in family or gf not in family:
            continue
        for f2 in family[f]:
            if table[g * size + plus[f, f2]] != plus[gf, table[g * size + f2]]:
                w = (names[g], names[f], names[f2])
                raise BadIdentity(f"composition not linear at {w[0]}∘({w[1]}+{w[2]})",
                                  witness=w)
        for g2 in family[g]:
            if table[plus[g, g2] * size + f] != plus[gf, table[g2 * size + f]]:
                w = (names[g], names[g2], names[f])
                raise BadIdentity(f"composition not linear at ({w[0]}+{w[1]})∘{w[2]}",
                                  witness=w)


# -- factorization structure ------------------------------------------------------


@dataclass(frozen=True)
class FactorizationCategory(_Cells):
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
            _an_homs={key: tuple(k for k in ks if k >= start)
                      for key, ks in cells["_homs"].items()},
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

    def an(self, a: str, b: str) -> tuple:
        return tuple(m.mid for m in self.an_morphisms if m.src == a and m.dst == b)

    def through_reverse(self, k: int) -> int:
        """The cell of k∘rev, rev the reverse morphism at the source of k."""
        return self.composite(k, self._rev[self._src[k]])

    def table_difference(self, other: "FactorizationCategory"):
        """The first table field on which `other` differs, its base's first;
        None when every table agrees."""
        return self.base.table_difference(other.base) or _first_difference(
            self, other, ("an_morphisms", "reverse", "mixed", "an_additive"))


def validate_factorization(fc: FactorizationCategory) -> FactorizationCategory:
    """Check the factorial-structure axioms exhaustively.

    Axiom numbering in violations: 1 anti-sets well formed, 2 mixed laws total
    with the XOR variance, 3 reverse morphisms present and compatible,
    4 the associated cells form a category (associativity of all
    compositions); the reverse-commutation identity f∘rev_A = rev_B∘f is
    checked as part of axiom 3.
    """
    validate_category(fc.base)
    n, start, names = len(fc.objects), len(fc.base.cells), fc.cells
    src, dst, rev = fc._src, fc._dst, fc._rev
    for k in range(start, len(names)):
        if names[k] in fc.base._arrow_cell or fc._arrow_cell[names[k]] != k:
            raise AxiomViolation(f"anti id {names[k]} collides with another id",
                                 1, witness=names[k])
        if src[k] < 0 or dst[k] < 0:
            raise AxiomViolation(f"anti morphism {names[k]} badly typed", 1,
                                 witness=names[k])
    for g, f, h in fc._mixed_triples:
        key = (names[g], names[f])
        if h < 0 or (src[h], dst[h]) != (src[f], dst[g]):
            problem = "missing or unknown" if h < 0 else "badly typed"
            raise AxiomViolation(f"mixed composite {key[0]}∘{key[1]} {problem}",
                                 2, witness=key)
        if (h >= start) != ((g >= start) != (f >= start)):
            raise AxiomViolation(
                f"composite {key[0]}∘{key[1]} has the wrong variance", 2,
                witness=key)
    for i, r in enumerate(rev):
        if r < 0:
            raise AxiomViolation(f"object {names[i]} has no reverse morphism", 3,
                                 witness=names[i])
        if r < start or (src[r], dst[r]) != (i, i):
            raise AxiomViolation(f"reverse morphism of {names[i]} malformed", 3,
                                 witness=names[r])
    for k in range(n, start):
        lhs, rhs = fc.through_reverse(k), fc.composite(rev[dst[k]], k)
        if lhs != rhs:
            raise AxiomViolation(f"{names[k]}∘rev != rev∘{names[k]}", 3,
                                 witness=(names[k], names[lhs], names[rhs]))
    w = category_violation(fc)
    if w is not None:
        raise AxiomViolation(str(w), 4, witness=w.witness)
    if fc.an_additive is not None:
        _validate_additive(fc, fc.an_additive, fc._an_homs, "an")
    return fc


# -- the canonical structure: equip and forget ---------------------------------------


def anti_id(mid: str) -> str:
    return mid + "*"


def caf(cat: FiniteCategory) -> FactorizationCategory:
    """Equip a category with its canonical factorial structure.

    Anti-morphisms are formal starred copies of the straight ones and mixed
    composition works by variance XOR over the underlying composition.
    """
    names = cat.cells
    an_mors = tuple(Mor(anti_id(m.mid), m.src, m.dst) for m in cat.morphisms)
    reverse = {obj: anti_id(names[e]) for obj, e in zip(cat.objects, cat._ident)}
    mixed = {}
    for g, f, h in cat._triples:
        g_id, f_id, h_id = names[g], names[f], names[h]
        mixed[(anti_id(g_id), anti_id(f_id))] = h_id
        mixed[(anti_id(g_id), f_id)] = anti_id(h_id)
        mixed[(g_id, anti_id(f_id))] = anti_id(h_id)
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
# Both are read off the cells of a factorization category and left
# unvalidated, so a caller can report the first law they break.


def anti_category(fc: FactorizationCategory) -> FiniteCategory:
    """Same objects, anti-morphisms as morphisms, star composition
    (g∘f)∘rev, reverse morphisms as identities."""
    names, start = fc.cells, len(fc.base.cells)
    compose = {(names[g], names[f]): names[fc.through_reverse(gf)]
               for g, f, gf in fc._mixed_triples if g >= start and f >= start}
    return FiniteCategory(fc.name + "^an", fc.objects, fc.an_morphisms,
                          dict(zip(fc.objects, (names[r] for r in fc._rev))),
                          compose)


def associated_category(fc: FactorizationCategory) -> FiniteCategory:
    """Straight and anti arrows together under the mixed composition."""
    names = fc.cells
    return FiniteCategory(fc.name + "~", fc.objects,
                          fc.base.morphisms + fc.an_morphisms,
                          dict(zip(fc.objects, (names[e] for e in fc._ident))),
                          {(names[g], names[f]): names[h]
                           for g, f, h in fc._triples})


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


def is_iso(cat, k: int) -> bool:
    """Whether cell k has a two-sided inverse. On a factorization category's
    associated cells this is the anti-isomorphism test for an anti k, since
    a straight arrow composed with an anti one is anti, never an identity."""
    table, size, ident = cat._table, len(cat.cells), cat._ident
    a, b = cat._src[k], cat._dst[k]
    return any(table[j * size + k] == ident[a] and table[k * size + j] == ident[b]
               for j in cat._homs.get((b, a), ()))


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
    image_objects = {o for o in f[:n] if 0 <= o < len(d.objects)}
    es_w = next((d.cells[t] for t in range(len(d.objects))
                 if not any(is_iso(d, m) for s in image_objects
                            for m in d._homs.get((t, s), ()))), None)
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
    return tuple(range(n)) + tuple(fc.through_reverse(k) - nb
                                   for k in range(n, n + nb))


# -- products and anti-products ------------------------------------------------------------


def _mediators(cat, candidates, proj, cone) -> tuple:
    """The cells f among `candidates` with p∘f = c for each projection p and
    cone leg c."""
    table, size = cat._table, len(cat.cells)
    return tuple(f for f in candidates
                 if all(table[p * size + f] == c for p, c in zip(proj, cone)))


def _unmediated_cones(cat, apex, proj, family, cones, mediators):
    """Each (y, cone, mediators), named by ids, for a cone from y drawn from
    the `cones` sets into `family` that has not exactly one mediator from
    the `mediators` set (y, apex) through `proj`. Objects and arrows are
    cells; both sets map (a, b) to cells."""
    names = cat.cells
    for y in range(len(cat.objects)):
        for cone in itertools.product(*(cones.get((y, x), ()) for x in family)):
            found = _mediators(cat, mediators.get((y, apex), ()), proj, cone)
            if len(found) != 1:
                yield (names[y], tuple(names[c] for c in cone),
                       tuple(names[f] for f in found))


def find_products(cat: FiniteCategory, family) -> list:
    """All product presentations (apex, projection tuple) of a family of objects."""
    fam = [cat.obj_cell(x) for x in family]
    homs, names = cat._homs, cat.cells
    return [(names[apex], tuple(names[p] for p in proj))
            for apex in range(len(cat.objects))
            for proj in itertools.product(*(homs.get((apex, x), ()) for x in fam))
            if next(_unmediated_cones(cat, apex, proj, fam, homs, homs), None)
            is None]


def check_anti_universal(fc: FactorizationCategory, apex, proj,
                         family) -> TheoremReport:
    """Both one-sided universal properties of a product against anti-cones;
    a failing property names its first anti-cone without a unique mediator."""
    a, fam = fc.obj_cell(apex), [fc.obj_cell(x) for x in family]
    proj_cells = [fc.cell(p) for p in proj]
    anti_proj = [fc.through_reverse(p) for p in proj_cells]
    straight, an = fc.base._homs, fc._an_homs
    w1 = next(_unmediated_cones(fc, a, proj_cells, fam, an, an), None)
    w2 = next(_unmediated_cones(fc, a, anti_proj, fam, an, straight), None)
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
    names = fc.cells
    checks = []
    for (x, p), (x2, p2) in itertools.product(presentations, repeat=2):
        key = (fc.obj_cell(x), fc.obj_cell(x2))
        p_star = [fc.through_reverse(fc.cell(pi)) for pi in p]
        p2_cells = [fc.cell(pi) for pi in p2]
        # anti comparisons through the projections, straight ones through
        # the anti projections, each an isomorphism onto p_star
        for label, sets, through in (
                (f"products-{x}-{x2}-unique-anti-iso", fc._an_homs, p2_cells),
                (f"anti-products-{x}-{x2}-unique-iso", fc.base._homs,
                 [fc.through_reverse(k) for k in p2_cells])):
            candidates = tuple(names[g] for g in _mediators(
                fc, sets.get(key, ()), through, p_star) if is_iso(fc, g))
            checks.append(check(label, len(candidates) == 1, witness=candidates))
    return TheoremReport(
        theorem="anti-product-uniqueness",
        inputs=(("category", fc.name), ("family", ",".join(family)),
                ("presentations", str(len(presentations)))),
        checks=tuple(checks),
    )


def check_antiproduct_preservation(ff: tuple, fc_src: FactorizationCategory,
                                   fc_dst: FactorizationCategory, family,
                                   name: str) -> TheoremReport:
    """Images of anti-product presentations satisfy the anti-universal
    property; a failing presentation names its first anti-cone without a
    unique mediator."""
    checks = []
    for apex, proj in find_products(fc_src.base, family):
        w = next(_unmediated_cones(
            fc_dst, ff[fc_src.obj_cell(apex)],
            [ff[fc_src.through_reverse(fc_src.cell(p))] for p in proj],
            [ff[fc_src.obj_cell(x)] for x in family],
            fc_dst._an_homs, fc_dst.base._homs), None)
        checks.append(check(f"image-anti-product-{apex}", w is None,
                            witness=w and (apex,) + w))
    return TheoremReport(
        theorem="anti-product-preservation",
        inputs=(("functor", name), ("family", ",".join(family))),
        checks=tuple(checks),
    )


# -- the equip/forget adjunctions --------------------------------------------------------


@dataclass(frozen=True)
class _Adjunction:
    """What `adjunction_report` builds once per corpus: the canonical
    structure and cell count of each category; per pair of categories the
    lift table, each functor in `enumerate_functors` order mapped to its
    `lift_functor` lift (None when it has none); and per (nb, na, na2) the
    composable (f, g, g∘f, L(g)∘L(f)), the last None when f or g has no lift.
    """

    cats: dict
    equipped: dict
    width: dict
    lifts: dict
    composites: dict

    def factorable(self, key) -> list:
        """The factorable functors of a pair: the lifts that exist."""
        return [ff for ff in self.lifts[key].values() if ff is not None]

    # witnesses write a functor, or a lift, as its (id, image id) pairs
    def plain(self, f, n1, n2):
        return tuple(zip(self.cats[n1].cells,
                         (self.cats[n2].cells[v] for v in f)))

    def lifted(self, ff, n1, n2):
        return tuple(zip(self.equipped[n1].cells,
                         (self.equipped[n2].cells[v] for v in ff)))

    def unliftable(self, f, n1, n2):
        return ("unliftable", n1, n2, self.plain(f, n1, n2))


def _adjunction(cats: dict, additive: bool) -> _Adjunction:
    equipped = {name: caf(c) for name, c in cats.items()}
    lifts = {(n1, n2): {f: lift_functor(f, equipped[n1], equipped[n2])
                        for f in enumerate_functors(c1, c2, additive=additive)}
             for (n1, c1), (n2, c2) in itertools.product(cats.items(), repeat=2)}
    # g∘f and its lift depend on (nb, na, na2) only, so they are built once
    composites = {}
    for nb, na, na2 in itertools.product(sorted(cats), repeat=3):
        composites[(nb, na, na2)] = pairs = []
        for f, f_lift in lifts[(nb, na)].items():
            through_f = reader(f)
            through_f_lift = None if f_lift is None else reader(f_lift)
            for g, g_lift in lifts[(na, na2)].items():
                pairs.append((f, g, through_f(g),
                              None if through_f_lift is None or g_lift is None
                              else through_f_lift(g_lift)))
    return _Adjunction(cats, equipped,
                       {name: len(c.cells) for name, c in cats.items()},
                       lifts, composites)


def _equip_witness(adj: _Adjunction):
    """The first failing square L(g∘f∘forget h) = L(g)∘L(f)∘h over every
    composable triple, h factorable and f, g functors, or None."""
    names, lifts, width = sorted(adj.cats), adj.lifts, adj.width
    for nb2, nb, na, na2 in itertools.product(names, repeat=4):
        outer_lifts = lifts[(nb2, na2)]
        pairs = adj.composites[(nb, na, na2)]
        for h in adj.factorable((nb2, nb)):
            through_h, through_h_plain = reader(h), reader(h[:width[nb2]])
            for f, g, gf, gf_lift in pairs:
                if gf_lift is None:
                    return adj.unliftable(f, nb, na) if lifts[(nb, na)][f] is None \
                        else adj.unliftable(g, na, na2)
                if outer_lifts.get(through_h_plain(gf)) != through_h(gf_lift):
                    return (nb2, nb, na, na2, adj.lifted(h, nb2, nb),
                            adj.plain(f, nb, na), adj.plain(g, na, na2))
    return None


def _forget_witness(adj: _Adjunction):
    """The first failing square forget(g∘f∘equip(h)) = forget(g∘f)∘h over
    every composable triple, h a functor and f, g factorable, or None. The
    left side reads g∘f through the plain cells of equip(h)."""
    names, lifts, width = sorted(adj.cats), adj.lifts, adj.width
    for nb2, nb, na, na2 in itertools.product(names, repeat=4):
        hs = [(h, reader(h), None if h_lift is None else reader(h_lift[:width[nb2]]))
              for h, h_lift in lifts[(nb2, nb)].items()]
        gs = adj.factorable((na, na2))
        for f in adj.factorable((nb, na)):
            for g in gs:
                gf = reader(f)(g)
                for h, through_h, through_h_lift in hs:
                    if through_h_lift is None:
                        return adj.unliftable(h, nb2, nb)
                    if through_h_lift(gf) != through_h(gf):
                        return (nb2, nb, na, na2, adj.plain(h, nb2, nb),
                                adj.lifted(f, nb, na), adj.lifted(g, na, na2))
    return None


def _equip_holds_by_pairs(adj: _Adjunction) -> bool:
    """Whether P2 holds: for each composable (f, g), g∘f is a functor and
    L(g∘f) = L(g)∘L(f).

    With `_forget_holds_by_lifts` this puts every equip square in place.
    Each factorable h is then L(forget h), so L(k∘forget h) = L(k)∘h is P2
    at (forget h, k), and the square of (h, f, g) is that at k = g∘f
    followed by P2 at (f, g) (the README gives the argument).
    """
    return all(gf_lift is not None and adj.lifts[(nb, na2)].get(gf) == gf_lift
               for (nb, _, na2), pairs in adj.composites.items()
               for _, _, gf, gf_lift in pairs)


def _forget_holds_by_lifts(adj: _Adjunction) -> bool:
    """Whether every functor's lift exists and has the functor as its plain
    cells; then both sides of each forget square read g∘f through h."""
    return all(ff is not None and ff[:adj.width[key[0]]] == f
               for key, key_lifts in adj.lifts.items()
               for f, ff in key_lifts.items())


def adjunction_report(cats: dict, additive: bool = False) -> TheoremReport:
    """Both adjunction bijections with all naturality squares over a corpus.

    cats maps names to plain categories; the factorization side of each check
    is their canonical structure. Equipping and forgetting are verified to be
    mutually inverse on both objects and functors, and the square
    equip(g∘f∘forget(h)) = equip(g)∘equip(f)∘h is decided for every
    composable triple drawn from the corpus functor sets (and its mirror for
    the forgetful direction).

    Each functor is enumerated and lifted once, with `lift_functor`, into one
    table that keeps the lift under the functor it was made from (None when
    it has none). The factorable functors of a pair are the lifts that
    exist, so each bijection compares a pair's functors with their lifts,
    and a lift whose plain cells are not its functor breaks the forget
    square.

    Each naturality direction is first decided without triples: when the
    lift property of `_forget_holds_by_lifts` holds (and, for equip, the
    pair property of `_equip_holds_by_pairs`), every triple square holds,
    so the check passes. This is an exact reduction, not a bounded-down
    check. Otherwise the triple scan `_equip_witness` (or `_forget_witness`)
    runs and decides the check: a failing one names its first counterexample
    in scan order, the categories, then each functor as (id, image id) pairs.
    """
    adj = _adjunction(cats, additive)
    checks = []
    # round trips are table-identities
    for name, c in cats.items():
        forgot = fca(adj.equipped[name])
        forget_w = forgot.table_difference(c)
        equip_w = caf(forgot).table_difference(adj.equipped[name])
        checks.append(check(f"forget-equip-identity-{name}", forget_w is None,
                            witness=forget_w))
        checks.append(check(f"equip-forget-identity-{name}", equip_w is None,
                            witness=equip_w))
    # bijections: every functor lifts to exactly one factorable functor
    for key in sorted(adj.lifts):
        functors, factorable = adj.lifts[key], adj.factorable(key)
        underlying = {ff[:adj.width[key[0]]] for ff in factorable}
        checks.append(check(f"bijection-{key[0]}-to-{key[1]}",
                            underlying == functors.keys()
                            and len(factorable) == len(functors),
                            witness=(len(functors), len(factorable))))
    lifts_hold = _forget_holds_by_lifts(adj)
    equip_w = None if lifts_hold and _equip_holds_by_pairs(adj) else _equip_witness(adj)
    forget_w = None if lifts_hold else _forget_witness(adj)
    checks.append(check("naturality-equip-direction", equip_w is None,
                        witness=equip_w))
    checks.append(check("naturality-forget-direction", forget_w is None,
                        witness=forget_w))
    return TheoremReport(
        theorem="equip-forget-adjunctions" + ("-additive" if additive else ""),
        inputs=(("corpus", "+".join(sorted(cats))),),
        checks=tuple(checks),
    )


# -- preadditive examples ----------------------------------------------------------


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
