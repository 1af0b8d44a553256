"""Text formats for groups, rings, maps, categories, and twisted matrices.

The first token of a file names its kind. Parsers reject ragged tables and
report the offending line number; emitters produce canonical, byte-stable
text. The bundled corpus under `antimorph/data` is a set of such files, and
`corpus` reads it through `parse_text`, as the CLI reads `--corpus` input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .categories import AdditiveHom, FactorizationCategory, FiniteCategory, Mor, build_category, validate_factorization
from .errors import ParseError
from .groups import FiniteGroup, validate_group
from .maps import VARIANCES, Morphism
from .rings import FiniteRing, validate_ring
from .semilinear import FieldFq2, SemilinearMap, matrix


@dataclass(frozen=True)
class MapFile:
    """A morphism file before its endpoint names are resolved."""

    name: str
    src: str
    dst: str
    variance: str
    images: tuple


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _int_row(line: str, lineno: int, expected: int) -> tuple:
    parts = line.split()
    try:
        row = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"non-integer table entry on line {lineno}", lineno)
    if len(row) != expected:
        raise ParseError(
            f"expected {expected} entries on line {lineno}, found {len(row)}",
            lineno)
    return row


def _int_field(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad {what} on line {lineno}", lineno)


def detect_kind(text: str) -> str:
    for _, line in _lines(text):
        return line.split()[0]
    raise ParseError("empty file")


def parse_text(text: str):
    kind = detect_kind(text)
    parser = {
        "group": parse_group,
        "ring": parse_ring,
        "map": parse_map,
        "category": parse_category,
        "factorization": parse_factorization,
        "semilinear": parse_semilinear,
    }.get(kind)
    if parser is None:
        raise ParseError(f"unknown structure kind {kind!r}")
    return parser(text)


def load_path(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


# -- groups ------------------------------------------------------------------


def parse_group(text: str) -> FiniteGroup:
    it = _lines(text)
    lineno, header = next(it)
    parts = header.split()
    if len(parts) != 4 or parts[0] != "group" or parts[2] != "order":
        raise ParseError(f"bad group header on line {lineno}", lineno)
    name = parts[1]
    order = _int_field(parts[3], "order", lineno)
    rows = []
    for lineno, line in it:
        rows.append(_int_row(line, lineno, order))
    if len(rows) != order:
        raise ParseError(f"expected {order} rows, found {len(rows)}")
    return validate_group(rows, name)


def emit_group(g: FiniteGroup) -> str:
    out = [f"group {g.name or 'anon'} order {g.order}"]
    out.extend(" ".join(str(v) for v in row) for row in g.cayley)
    return "\n".join(out) + "\n"


# -- rings -------------------------------------------------------------------


def parse_ring(text: str) -> FiniteRing:
    it = list(_lines(text))
    lineno, header = it[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "ring" or parts[2] != "order":
        raise ParseError(f"bad ring header on line {lineno}", lineno)
    name = parts[1]
    order = _int_field(parts[3], "order", lineno)
    sections: dict[str, list] = {}
    current = None
    for lineno, line in it[1:]:
        if line.endswith(":") and not line[0].isdigit():
            current = line[:-1]
            if current not in ("add", "mul", "involution"):
                raise ParseError(f"unknown section {current!r} on line {lineno}",
                                 lineno)
            sections[current] = []
            continue
        if current is None:
            raise ParseError(f"table row outside any section on line {lineno}",
                             lineno)
        sections[current].append(_int_row(line, lineno, order))
    for needed in ("add", "mul"):
        if needed not in sections:
            raise ParseError(f"ring file missing {needed!r} block")
        if len(sections[needed]) != order:
            raise ParseError(f"{needed!r} block must have {order} rows")
    involution = None
    if "involution" in sections:
        if len(sections["involution"]) != 1:
            raise ParseError("involution block must be a single row")
        involution = sections["involution"][0]
    return validate_ring(sections["add"], sections["mul"], involution, name)


# -- maps --------------------------------------------------------------------


def parse_map(text: str) -> MapFile:
    it = list(_lines(text))
    lineno, header = it[0]
    parts = header.split()
    if (len(parts) != 8 or parts[0] != "map" or parts[2] != "from"
            or parts[4] != "to" or parts[6] != "variance"):
        raise ParseError(f"bad map header on line {lineno}", lineno)
    if parts[7] not in VARIANCES:
        raise ParseError(f"unknown variance {parts[7]!r} on line {lineno}", lineno)
    if len(it) != 2:
        raise ParseError("map file needs exactly one image row")
    lineno2, row_line = it[1]
    row = _int_row(row_line, lineno2, len(row_line.split()))
    return MapFile(parts[1], parts[3], parts[5], parts[7], row)


def emit_map(m: Morphism) -> str:
    head = (f"map {m.name or 'anon'} from {m.source.name or 'src'} "
            f"to {m.target.name or 'dst'} variance {m.variance}")
    return head + "\n" + " ".join(str(v) for v in m.images) + "\n"


def resolve_map(mf: MapFile, registry: dict) -> Morphism:
    from .morphisms import make_morphism

    if mf.src not in registry:
        raise ParseError(f"unknown source structure {mf.src!r}")
    if mf.dst not in registry:
        raise ParseError(f"unknown target structure {mf.dst!r}")
    return make_morphism(registry[mf.src], registry[mf.dst], mf.images,
                         mf.variance, mf.name)


# -- categories ----------------------------------------------------------------


def _parse_category_body(it, kind: str):
    objects = None
    morphisms = []
    identities = {}
    compose = {}
    an_morphisms = []
    reverse = {}
    additive: dict = {}
    an_additive: dict = {}
    for lineno, line in it:
        parts = line.split()
        if parts[0] == "objects:":
            objects = tuple(parts[1:])
        elif parts[0] == "id" and len(parts) == 4 and parts[2] == "=":
            identities[parts[1]] = parts[3]
        elif parts[0] in ("hom", "an") and ":" in line:
            head, _, tail = line.partition(":")
            if len(head.split()) != 3:
                raise ParseError(f"expected '{parts[0]} SRC DST:' on line "
                                 f"{lineno}: {line!r}", lineno)
            _, a, b = head.split()
            (morphisms if parts[0] == "hom" else an_morphisms).extend(
                (mid, a, b) for mid in tail.split())
        elif parts[0] == "reverse" and len(parts) == 4 and parts[2] == "=":
            reverse[parts[1]] = parts[3]
        elif parts[0] == "compose" and len(parts) == 5 and parts[3] == "=":
            compose[(parts[1], parts[2])] = parts[4]
        elif parts[0] == "zero" and len(parts) == 4:
            store = an_additive if parts[3] in {m[0] for m in an_morphisms} \
                else additive
            store.setdefault((parts[1], parts[2]), {"zero": parts[3], "table": {}})
        elif parts[0] == "sum" and len(parts) == 7 and parts[5] == "=":
            key = (parts[1], parts[2])
            store = an_additive if key in an_additive else additive
            if key not in store:
                raise ParseError(f"sum before zero for {key} on line {lineno}",
                                 lineno)
            store[key]["table"][(parts[3], parts[4])] = parts[6]
        else:
            raise ParseError(f"unrecognized {kind} line {lineno}: {line!r}", lineno)
    if objects is None:
        raise ParseError(f"{kind} file has no objects line")
    return objects, morphisms, identities, compose, an_morphisms, reverse, \
        additive, an_additive


def parse_category(text: str) -> FiniteCategory:
    it = list(_lines(text))
    lineno, header = it[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "category":
        raise ParseError(f"bad category header on line {lineno}", lineno)
    objects, morphisms, identities, compose, an_mors, reverse, additive, _ = \
        _parse_category_body(it[1:], "category")
    if an_mors or reverse:
        raise ParseError("category file contains factorization lines")
    add = {k: AdditiveHom(v["zero"], v["table"]) for k, v in additive.items()} \
        or None
    return build_category(parts[1], objects, morphisms, identities, compose,
                          additive=add)


def parse_factorization(text: str) -> FactorizationCategory:
    it = list(_lines(text))
    lineno, header = it[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "factorization":
        raise ParseError(f"bad factorization header on line {lineno}", lineno)
    objects, morphisms, identities, compose, an_mors, reverse, additive, \
        an_additive = _parse_category_body(it[1:], "factorization")
    anti_ids = {m[0] for m in an_mors}
    base_compose = {k: v for k, v in compose.items()
                    if k[0] not in anti_ids and k[1] not in anti_ids}
    mixed = {k: v for k, v in compose.items()
             if k[0] in anti_ids or k[1] in anti_ids}
    add = {k: AdditiveHom(v["zero"], v["table"]) for k, v in additive.items()} \
        or None
    base = build_category(parts[1], objects, morphisms, identities, base_compose,
                          additive=add)
    an_records = tuple(Mor(*m) for m in an_mors)
    for m in an_records:
        mixed.setdefault((identities.get(m.dst), m.mid), m.mid)
        mixed.setdefault((m.mid, identities.get(m.src)), m.mid)
    an_add = {k: AdditiveHom(v["zero"], v["table"])
              for k, v in an_additive.items()} or None
    fc = FactorizationCategory(base, an_records, reverse, mixed, an_add)
    return validate_factorization(fc)


def _emit_category_lines(cat: FiniteCategory, kind: str = "category") -> list:
    out = [f"{kind} {cat.name}", "objects: " + " ".join(cat.objects)]
    for obj in cat.objects:
        out.append(f"id {obj} = {cat.identities[obj]}")
    for a in cat.objects:
        for b in cat.objects:
            mids = cat.hom(a, b)
            if mids:
                out.append(f"hom {a} {b}: " + " ".join(mids))
    return out


def _emit_compose_lines(out, compose, identities):
    ids = set(identities.values())
    for (g, f), h in sorted(compose.items()):
        if g in ids or f in ids:
            continue
        out.append(f"compose {g} {f} = {h}")


def emit_category_text(cat: FiniteCategory) -> str:
    out = _emit_category_lines(cat)
    _emit_compose_lines(out, cat.compose, cat.identities)
    if cat.additive:
        for (a, b), data in sorted(cat.additive.items()):
            out.append(f"zero {a} {b} {data.zero}")
            for (m1, m2), v in sorted(data.table.items()):
                out.append(f"sum {a} {b} {m1} {m2} = {v}")
    return "\n".join(out) + "\n"


def emit_factorization_text(fc: FactorizationCategory) -> str:
    out = _emit_category_lines(fc.base, kind="factorization")
    for a in fc.objects:
        for b in fc.objects:
            mids = fc.an(a, b)
            if mids:
                out.append(f"an {a} {b}: " + " ".join(mids))
    for obj in fc.objects:
        out.append(f"reverse {obj} = {fc.reverse[obj]}")
    _emit_compose_lines(out, fc.base.compose, fc.base.identities)
    identity_ids = set(fc.base.identities.values())
    for (g, f), h in sorted(fc.mixed.items()):
        if (fc.is_anti(g) and f in identity_ids and h == g) or \
                (fc.is_anti(f) and g in identity_ids and h == f):
            continue
        out.append(f"compose {g} {f} = {h}")
    return "\n".join(out) + "\n"


# -- twisted matrices ------------------------------------------------------------


def parse_semilinear(text: str) -> SemilinearMap:
    it = list(_lines(text))
    lineno, header = it[0]
    parts = header.split()
    if (len(parts) != 10 or parts[0] != "semilinear" or parts[2] != "over"
            or parts[4] != "rows" or parts[6] != "cols" or parts[8] != "twist"):
        raise ParseError(f"bad semilinear header on line {lineno}", lineno)
    if parts[3] != "F4":
        raise ParseError(f"unsupported field {parts[3]!r} (only F4 files)", lineno)
    if parts[9] not in VARIANCES:
        raise ParseError(f"unknown twist {parts[9]!r}", lineno)
    rows = _int_field(parts[5], "row count", lineno)
    cols = _int_field(parts[7], "column count", lineno)
    field = FieldFq2.of_order(4)
    entries = []
    for lineno2, line in it[1:]:
        symbols = line.split()
        if len(symbols) != cols:
            raise ParseError(
                f"expected {cols} entries on line {lineno2}, found {len(symbols)}",
                lineno2)
        try:
            entries.append(tuple(field.index_of(s) for s in symbols))
        except ValueError:
            raise ParseError(f"unknown field symbol on line {lineno2}", lineno2)
    if len(entries) != rows:
        raise ParseError(f"expected {rows} rows, found {len(entries)}")
    return matrix(field, entries, parts[9], parts[1])
