"""Finite categories as explicit composition tables, factorization structure,
the anti-category and associated category, factorable functors, products and
anti-products, and the equip/forget adjunction checks.

Anti-morphisms of an abstract finite category are formal tagged copies: there
is no set-map law for them to violate, which is exactly what makes the
canonical factorial structure unique by construction. Concreteness lives in
the group, ring, and semilinear modules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    AxiomViolation,
    BadIdentity,
    BoundExceeded,
    NotAssociative,
    NotComposable,
)
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
        object.__setattr__(self, "_by_id", {m.mid: m for m in self.morphisms})

    def mor(self, mid: str) -> Mor:
        return self._by_id[mid]

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
        object.__setattr__(self, "_an_by_id", {m.mid: m for m in self.an_morphisms})

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def objects(self) -> tuple:
        return self.base.objects

    def is_anti(self, mid: str) -> bool:
        return mid in self._an_by_id

    def mor(self, mid: str) -> Mor:
        if mid in self._an_by_id:
            return self._an_by_id[mid]
        return self.base.mor(mid)

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


def merge_generator(cat: FiniteCategory, twin: FiniteCategory,
                    dictionary: dict) -> FactorizationCategory:
    """Equip `cat` using an equivalent same-object category as the anti part.

    `dictionary` maps each twin morphism id to the base morphism id it
    corresponds to under the equivalence; mixed compositions are transported
    through it. The canonical construction is the special case where the twin
    is the starred copy.
    """
    if set(twin.objects) != set(cat.objects):
        raise AxiomViolation("generator categories must share objects", 1)
    inverse = {v: k for k, v in dictionary.items()}
    if len(inverse) != len(dictionary):
        raise AxiomViolation("generator dictionary must be a bijection", 1)
    an_mors = tuple(Mor(m.mid, m.src, m.dst) for m in twin.morphisms)
    reverse = {obj: twin.identities[obj] for obj in twin.objects}
    mixed = {}
    for g in twin.morphisms:
        for f in twin.morphisms:
            if f.dst == g.src:
                mixed[(g.mid, f.mid)] = cat.compose[(dictionary[g.mid],
                                                     dictionary[f.mid])]
    for g in twin.morphisms:
        for f in cat.morphisms:
            if f.dst == g.src:
                mixed[(g.mid, f.mid)] = inverse[cat.compose[(dictionary[g.mid],
                                                             f.mid)]]
    for g in cat.morphisms:
        for f in twin.morphisms:
            if f.dst == g.src:
                mixed[(g.mid, f.mid)] = inverse[cat.compose[(g.mid,
                                                             dictionary[f.mid])]]
    fc = FactorizationCategory(cat, an_mors, reverse, mixed)
    return validate_factorization(fc)


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


@dataclass(frozen=True)
class FunctorData:
    obj_map: dict
    mor_map: dict
    name: str = field(default="", compare=False)

    def key(self):
        return (tuple(sorted(self.obj_map.items())),
                tuple(sorted(self.mor_map.items())))


@dataclass(frozen=True)
class FactorableFunctorData:
    obj_map: dict
    mor_map: dict
    an_map: dict
    name: str = field(default="", compare=False)

    def underlying(self) -> FunctorData:
        return FunctorData(self.obj_map, self.mor_map)


def functor_witness(f: FunctorData, c: FiniteCategory, d: FiniteCategory):
    """None when f is a functor; otherwise the first broken condition."""
    for obj in c.objects:
        if f.obj_map.get(obj) not in d.objects:
            return ("object", obj)
    for m in c.morphisms:
        img = f.mor_map.get(m.mid)
        if img is None:
            return ("missing", m.mid)
        im = d.mor(img)
        if (im.src, im.dst) != (f.obj_map[m.src], f.obj_map[m.dst]):
            return ("typing", m.mid)
    for obj in c.objects:
        if f.mor_map[c.identities[obj]] != d.identities[f.obj_map[obj]]:
            return ("identity", obj)
    for g in c.morphisms:
        for m in c.morphisms:
            if m.dst != g.src:
                continue
            lhs = f.mor_map[c.compose[(g.mid, m.mid)]]
            rhs = d.compose[(f.mor_map[g.mid], f.mor_map[m.mid])]
            if lhs != rhs:
                return ("composition", (g.mid, m.mid))
    return None


def functor_is_additive(f: FunctorData, c: FiniteCategory, d: FiniteCategory) -> bool:
    if c.additive is None or d.additive is None:
        return False
    for (a, b), data in c.additive.items():
        target = d.additive.get((f.obj_map[a], f.obj_map[b]))
        if target is None:
            return False
        for (m1, m2), s in data.table.items():
            if f.mor_map[s] != target.table[(f.mor_map[m1], f.mor_map[m2])]:
                return False
    return True


def identity_functor(c: FiniteCategory) -> FunctorData:
    return FunctorData({o: o for o in c.objects},
                       {m.mid: m.mid for m in c.morphisms}, name="id")


def compose_functors(g: FunctorData, f: FunctorData) -> FunctorData:
    return FunctorData({o: g.obj_map[v] for o, v in f.obj_map.items()},
                       {m: g.mor_map[v] for m, v in f.mor_map.items()})


def enumerate_functors(c: FiniteCategory, d: FiniteCategory,
                       additive: bool = False):
    """All functors c -> d (additive ones only, when asked), canonically sorted."""
    if len(c.objects) > FUNCTOR_OBJECT_LIMIT or len(c.morphisms) > FUNCTOR_MORPHISM_LIMIT:
        raise BoundExceeded("functor enumeration refuses categories this large")
    if len(d.objects) > FUNCTOR_OBJECT_LIMIT or len(d.morphisms) > FUNCTOR_MORPHISM_LIMIT:
        raise BoundExceeded("functor enumeration refuses categories this large")
    non_identity = [m for m in c.morphisms
                    if m.mid not in set(c.identities.values())]
    out = []
    for obj_images in itertools.product(d.objects, repeat=len(c.objects)):
        obj_map = dict(zip(c.objects, obj_images))
        slots = []
        feasible = True
        for m in non_identity:
            options = d.hom(obj_map[m.src], obj_map[m.dst])
            if not options:
                feasible = False
                break
            slots.append(options)
        if not feasible:
            continue
        total = 1
        for s in slots:
            total *= len(s)
        if total > FUNCTOR_CANDIDATE_LIMIT:
            raise BoundExceeded("functor candidate space too large")
        for images in itertools.product(*slots):
            mor_map = {c.identities[o]: d.identities[obj_map[o]]
                       for o in c.objects}
            mor_map.update({m.mid: img for m, img in zip(non_identity, images)})
            cand = FunctorData(obj_map, mor_map)
            if functor_witness(cand, c, d) is not None:
                continue
            if additive and not functor_is_additive(cand, c, d):
                continue
            out.append(cand)
    return sorted(out, key=lambda f: f.key())


def induced_an_map(f: FunctorData, fc_src: FactorizationCategory,
                   fc_dst: FactorizationCategory) -> dict:
    """The anti-morphism maps induced through the straight correspondence."""
    out = {}
    for m in fc_src.an_morphisms:
        straight = fc_src.compose_ids(m.mid, fc_src.reverse[m.src])
        image = f.mor_map[straight]
        out[m.mid] = fc_dst.compose_ids(image, fc_dst.reverse[f.obj_map[m.src]])
    return out


def factorable_witness(ff: FactorableFunctorData, fc_src: FactorizationCategory,
                       fc_dst: FactorizationCategory):
    """None when ff preserves every mixed composition; a witness pair otherwise."""
    base_w = functor_witness(ff.underlying(), fc_src.base, fc_dst.base)
    if base_w is not None:
        return ("underlying", base_w)
    total_map = dict(ff.mor_map)
    total_map.update(ff.an_map)
    for m in fc_src.an_morphisms:
        img = ff.an_map.get(m.mid)
        if img is None or not fc_dst.is_anti(img):
            return ("an-typing", m.mid)
        im = fc_dst.mor(img)
        if (im.src, im.dst) != (ff.obj_map[m.src], ff.obj_map[m.dst]):
            return ("an-typing", m.mid)
    for g in fc_src.all_morphisms():
        for f in fc_src.all_morphisms():
            if f.dst != g.src:
                continue
            if not (fc_src.is_anti(g.mid) or fc_src.is_anti(f.mid)):
                continue
            lhs = total_map[fc_src.compose_ids(g.mid, f.mid)]
            rhs = fc_dst.compose_ids(total_map[g.mid], total_map[f.mid])
            if lhs != rhs:
                return ("mixed-composition", (g.mid, f.mid))
    return None


def make_factorable(f: FunctorData, fc_src: FactorizationCategory,
                    fc_dst: FactorizationCategory) -> FactorableFunctorData | None:
    """Lift a functor of the underlying categories, when the lift is lawful."""
    ff = FactorableFunctorData(f.obj_map, f.mor_map,
                               induced_an_map(f, fc_src, fc_dst), name=f.name)
    return ff if factorable_witness(ff, fc_src, fc_dst) is None else None


def enumerate_factorable_functors(fc_src: FactorizationCategory,
                                  fc_dst: FactorizationCategory,
                                  additive: bool = False):
    out = []
    for f in enumerate_functors(fc_src.base, fc_dst.base, additive=additive):
        ff = make_factorable(f, fc_src, fc_dst)
        if ff is not None:
            out.append(ff)
    return out


def check_factorable(ff: FactorableFunctorData, fc_src, fc_dst) -> TheoremReport:
    """Verify the declared anti-maps are the induced ones and preserve all
    mixed compositions."""
    induced = induced_an_map(ff.underlying(), fc_src, fc_dst)
    w = factorable_witness(ff, fc_src, fc_dst)
    checks = (
        check("an-maps-are-induced", ff.an_map == induced,
              witness={k: (v, induced.get(k)) for k, v in ff.an_map.items()
                       if induced.get(k) != v}),
        check("mixed-compositions-preserved", w is None, witness=w),
    )
    return TheoremReport(
        theorem="factorable-functor",
        inputs=(("functor", ff.name or "anon"), ("source", fc_src.name),
                ("target", fc_dst.name)),
        checks=checks,
    )


# -- equivalences ------------------------------------------------------------------------


def check_equivalence(f: FunctorData, c: FiniteCategory,
                      d: FiniteCategory) -> TheoremReport:
    """Fully faithful and essentially surjective, exhaustively."""
    w = functor_witness(f, c, d)
    checks = [check("is-functor", w is None, witness=w)]
    ff_ok, ff_w = True, None
    for a in c.objects:
        for b in c.objects:
            src_homs = c.hom(a, b)
            images = [f.mor_map[m] for m in src_homs]
            target = d.hom(f.obj_map[a], f.obj_map[b])
            if len(set(images)) != len(src_homs) or set(images) != set(target):
                ff_ok, ff_w = False, (a, b)
    checks.append(check("fully-faithful", ff_ok, witness=ff_w))
    es_ok, es_w = True, None
    image_objects = set(f.obj_map.values())
    for obj in d.objects:
        if not any(_isomorphic_objects(d, obj, t) for t in image_objects):
            es_ok, es_w = False, obj
    checks.append(check("essentially-surjective", es_ok, witness=es_w))
    return TheoremReport(
        theorem="equivalence",
        inputs=(("functor", f.name or "anon"), ("source", c.name),
                ("target", d.name)),
        checks=tuple(checks),
    )


def _isomorphic_objects(cat: FiniteCategory, a: str, b: str) -> bool:
    for fid in cat.hom(a, b):
        for gid in cat.hom(b, a):
            if cat.compose[(gid, fid)] == cat.identities[a] and \
                    cat.compose[(fid, gid)] == cat.identities[b]:
                return True
    return False


def anti_functor(fc: FactorizationCategory) -> FunctorData:
    """base -> anti-category; objects fixed, f goes to its starred twin."""
    return FunctorData({o: o for o in fc.objects},
                       {m.mid: fc.compose_ids(m.mid, fc.reverse[m.src])
                        for m in fc.base.morphisms},
                       name="to-anti")


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
    """Both one-sided universal properties of a product against anti-cones."""
    prop1_ok, w1 = True, None
    prop2_ok, w2 = True, None
    anti_proj = tuple(fc.compose_ids(p, fc.reverse[apex]) for p in proj)
    for y in fc.objects:
        for cone in itertools.product(*(fc.an(y, x) for x in family)):
            mediators = [f for f in fc.an(y, apex)
                         if all(fc.compose_ids(p, f) == c
                                for p, c in zip(proj, cone))]
            if len(mediators) != 1:
                prop1_ok, w1 = False, (y, cone, tuple(mediators))
            straight_mediators = [f for f in fc.hom(y, apex)
                                  if all(fc.compose_ids(p, f) == c
                                         for p, c in zip(anti_proj, cone))]
            if len(straight_mediators) != 1:
                prop2_ok, w2 = False, (y, cone, tuple(straight_mediators))
    checks = (
        check("unique-anti-mediator-through-projections", prop1_ok, witness=w1),
        check("unique-straight-mediator-through-anti-projections", prop2_ok,
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


def check_antiproduct_preservation(ff: FactorableFunctorData,
                                   fc_src: FactorizationCategory,
                                   fc_dst: FactorizationCategory,
                                   family) -> TheoremReport:
    """Images of anti-product presentations satisfy the anti-universal property."""
    checks = []
    for apex, proj in find_products(fc_src.base, family):
        image_family = tuple(ff.obj_map[x] for x in family)
        image_apex = ff.obj_map[apex]
        anti_proj = tuple(fc_src.compose_ids(p, fc_src.reverse[apex]) for p in proj)
        image_anti_proj = tuple(ff.an_map[p] for p in anti_proj)
        ok, w = True, None
        for y in fc_dst.objects:
            for cone in itertools.product(*(fc_dst.an(y, x) for x in image_family)):
                mediators = [f for f in fc_dst.hom(y, image_apex)
                             if all(fc_dst.compose_ids(image_anti_proj[i], f) == cone[i]
                                    for i in range(len(image_family)))]
                if len(mediators) != 1:
                    ok, w = False, (apex, y, cone)
        checks.append(check(f"image-anti-product-{apex}", ok, witness=w))
    return TheoremReport(
        theorem="anti-product-preservation",
        inputs=(("functor", ff.name or "anon"), ("family", ",".join(family))),
        checks=tuple(checks),
    )


# -- the equip/forget adjunctions --------------------------------------------------------


def compose_factorable(g: FactorableFunctorData,
                       f: FactorableFunctorData) -> FactorableFunctorData:
    return FactorableFunctorData(
        {o: g.obj_map[v] for o, v in f.obj_map.items()},
        {m: g.mor_map[v] for m, v in f.mor_map.items()},
        {m: g.an_map[v] for m, v in f.an_map.items()})


def adjunction_report(cats: dict, additive: bool = False) -> TheoremReport:
    """Both adjunction bijections with all naturality squares over a corpus.

    cats maps names to plain categories; the factorization side of each check
    is their canonical structure. Equipping and forgetting are verified to be
    mutually inverse on both objects and functors, and the square
    equip(g∘f∘forget(h)) = equip(g)∘equip(f)∘h is checked for every
    composable triple drawn from the corpus functor sets (and its mirror for
    the forgetful direction).

    Within the call each category's objects, morphisms and anti morphisms
    are numbered in that order, so a functor is the tuple of the indices its
    objects and morphisms go to, a factorable functor is that tuple followed
    by the images of the anti morphisms, and g∘f is `tuple(g[i] for i in f)`.
    Each lift is computed once, by `enumerate_factorable_functors`, and looked
    up by its underlying tuple afterwards.
    """
    equipped = {name: caf(c) for name, c in cats.items()}
    index = {name: _cell_index(fc) for name, fc in equipped.items()}
    # length of a plain functor's tuple, by source category
    width = {name: len(c.objects) + len(c.morphisms) for name, c in cats.items()}
    checks = []
    functor_sets = {}
    factorable_sets = {}
    lifts = {}
    for (n1, c1), (n2, c2) in itertools.product(cats.items(), repeat=2):
        src, dst = equipped[n1], equipped[n2]
        functor_sets[(n1, n2)] = [
            _functor_cells(f, src, index[n2])
            for f in enumerate_functors(c1, c2, additive=additive)]
        factorable_sets[(n1, n2)] = [
            _functor_cells(ff, src, index[n2])
            for ff in enumerate_factorable_functors(src, dst, additive=additive)]
        lifts[(n1, n2)] = {ff[:width[n1]]: ff for ff in factorable_sets[(n1, n2)]}
    # round trips are table-identities
    for name, c in cats.items():
        checks.append(check(f"forget-equip-identity-{name}",
                            fca(caf(c)).same_tables(c)))
        checks.append(check(f"equip-forget-identity-{name}",
                            caf(fca(equipped[name])).same_tables(equipped[name])))
    # bijections: every functor lifts to exactly one factorable functor
    for key in sorted(functor_sets):
        plain = set(functor_sets[key])
        lifted = {ff[:width[key[0]]] for ff in factorable_sets[key]}
        checks.append(check(f"bijection-{key[0]}-to-{key[1]}",
                            plain == lifted
                            and len(factorable_sets[key]) == len(functor_sets[key]),
                            witness=(len(functor_sets[key]),
                                     len(factorable_sets[key]))))
    # naturality: equipping commutes with composition against corpus triples;
    # g∘f and its lift depend on (nb, na, na2) only, so they are built once
    names = sorted(cats)
    composites = {}
    for nb, na, na2 in itertools.product(names, repeat=3):
        pairs, missing = [], None
        f_lifts, g_lifts = lifts[(nb, na)], lifts[(na, na2)]
        for f in functor_sets[(nb, na)]:
            f_lift = f_lifts.get(f)
            if f_lift is None:
                missing = ("unliftable", nb, na)
                continue
            for g in functor_sets[(na, na2)]:
                g_lift = g_lifts.get(g)
                if g_lift is None:
                    missing = ("unliftable", na, na2)
                    continue
                pairs.append((tuple(g[i] for i in f),
                              tuple(g_lift[i] for i in f_lift)))
        composites[(nb, na, na2)] = pairs, missing
    equip_ok, equip_w = True, None
    forget_ok, forget_w = True, None
    for nb2, nb, na, na2 in itertools.product(names, repeat=4):
        outer_lifts = lifts[(nb2, na2)]
        pairs, missing = composites[(nb, na, na2)]
        for h in factorable_sets[(nb2, nb)]:
            if missing is not None:
                equip_ok, equip_w = False, missing
            h_plain = h[:width[nb2]]
            for gf, gf_lift in pairs:
                lhs = outer_lifts.get(tuple(gf[i] for i in h_plain))
                if lhs != tuple(gf_lift[i] for i in h):
                    equip_ok, equip_w = False, (nb2, nb, na, na2)
        h_lifts = lifts[(nb2, nb)]
        for f in factorable_sets[(nb, na)]:
            for g in factorable_sets[(na, na2)]:
                gf = tuple(g[i] for i in f)
                for h in functor_sets[(nb2, nb)]:
                    h_lift = h_lifts.get(h)
                    if h_lift is None:
                        forget_ok, forget_w = False, ("unliftable", nb2, nb)
                        continue
                    lhs = tuple(gf[i] for i in h_lift)[:width[nb2]]
                    rhs = tuple(g[i] for i in tuple(f[i] for i in h))
                    if lhs != rhs:
                        forget_ok, forget_w = False, (nb2, nb, na, na2)
    checks.append(check("naturality-equip-direction", equip_ok, witness=equip_w))
    checks.append(check("naturality-forget-direction", forget_ok, witness=forget_w))
    return TheoremReport(
        theorem="equip-forget-adjunctions" + ("-additive" if additive else ""),
        inputs=(("corpus", "+".join(sorted(cats))),),
        checks=tuple(checks),
    )


def _cell_index(fc: FactorizationCategory) -> tuple:
    """Dense indices of objects, then morphisms, then anti morphisms."""
    objects = {o: i for i, o in enumerate(fc.objects)}
    mors = fc.base.morphisms + fc.an_morphisms
    arrows = {m.mid: len(objects) + i for i, m in enumerate(mors)}
    return objects, arrows


def _functor_cells(f, fc_src: FactorizationCategory, target: tuple) -> tuple:
    """A functor, or with its anti map a factorable functor, as the tuple of
    target indices of the source's objects, morphisms and anti morphisms."""
    objects, arrows = target
    cells = [objects[f.obj_map[o]] for o in fc_src.objects]
    cells += [arrows[f.mor_map[m.mid]] for m in fc_src.base.morphisms]
    if isinstance(f, FactorableFunctorData):
        cells += [arrows[f.an_map[m.mid]] for m in fc_src.an_morphisms]
    return tuple(cells)


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
