from importlib import resources
from pathlib import Path

import pytest

from antimorph import formats as F
from antimorph.categories import caf
from antimorph.corpus import category_corpus, group_corpus, ring_corpus
from antimorph.errors import ParseError
from antimorph.morphisms import corresponding_anti
from antimorph.semilinear import FieldFq2, matrix
from antimorph.theorems import sign_morphism

from corpus_builders import CATEGORY_BUILDERS, GROUP_BUILDERS, RING_BUILDERS

DATA = resources.files("antimorph").joinpath("data")


def test_group_round_trip_all_corpus():
    for g in group_corpus().values():
        again = F.parse_group(F.emit_group(g))
        assert again.cayley == g.cayley
        assert again.name == g.name


def _ring_text(r) -> str:
    out = [f"ring {r.name or 'anon'} order {r.order}", "add:"]
    out.extend(" ".join(str(v) for v in row) for row in r.add)
    out.append("mul:")
    out.extend(" ".join(str(v) for v in row) for row in r.mul)
    if r.involution is not None:
        out.append("involution:")
        out.append(" ".join(str(v) for v in r.involution))
    return "\n".join(out) + "\n"


def test_ring_round_trip_all_corpus():
    for r in ring_corpus().values():
        again = F.parse_ring(_ring_text(r))
        assert (again.add, again.mul, again.involution) == \
            (r.add, r.mul, r.involution)


def test_category_and_factorization_round_trips():
    for c in category_corpus().values():
        assert F.parse_text(F.emit_category_text(c)).table_difference(c) is None
        fc = caf(c)
        assert F.parse_text(F.emit_factorization_text(fc)).table_difference(fc) is None


def _header_name(text: str) -> str:
    return text.split()[1]


def test_bundled_files_match_builders():
    groups, rings, cats = group_corpus(), ring_corpus(), category_corpus()
    assert list(groups) == list(GROUP_BUILDERS)
    assert sorted(rings) == sorted([*RING_BUILDERS, "f4"])
    assert list(cats) == list(CATEGORY_BUILDERS)
    for suffix, corpus in (("grp", groups), ("rng", rings), ("cat", cats)):
        for name, value in corpus.items():
            text = DATA.joinpath(f"{name}.{suffix}").read_text()
            assert _header_name(text) == name == value.name
    for name, build in GROUP_BUILDERS.items():
        expected = build()
        assert (groups[name].cayley, name) == (expected.cayley, expected.name)
    for name, build in RING_BUILDERS.items():
        r, expected = rings[name], build()
        assert (r.add, r.mul, r.involution, name) == \
            (expected.add, expected.mul, expected.involution, expected.name)
    f4, field = rings["f4"], FieldFq2.of_order(4)
    assert (f4.add, f4.mul, f4.involution) == (field.add, field.mul, field.frob)
    for name, build in CATEGORY_BUILDERS.items():
        expected = build()
        assert expected.name == name
        assert cats[name].table_difference(expected) is None
    fct_text = DATA.joinpath("meet.fct").read_text()
    assert _header_name(fct_text) == "meet"
    assert F.parse_text(fct_text).table_difference(caf(cats["meet"])) is None


def test_bundled_parity_map_resolves():
    groups = group_corpus()
    mf = F.parse_text(DATA.joinpath("signstar.map").read_text())
    resolved = F.resolve_map(mf, dict(groups))
    expected = corresponding_anti(sign_morphism(groups["s3"], groups["z2"]))
    assert resolved.images == expected.images
    assert resolved.variance == "anti"


def test_truncated_group_table_rejected():
    text = "group broken order 3\n0 1 2\n1 2 0\n"
    with pytest.raises(ParseError):
        F.parse_text(text)


def test_ragged_row_rejected_with_line_number():
    text = "group broken order 2\n0 1\n1\n"
    with pytest.raises(ParseError) as exc:
        F.parse_text(text)
    assert exc.value.line == 3


def test_ring_without_mul_block_rejected():
    text = "ring broken order 2\nadd:\n0 1\n1 0\n"
    with pytest.raises(ParseError):
        F.parse_text(text)


def test_unknown_header_rejected():
    with pytest.raises(ParseError):
        F.parse_text("widget w order 2\n0 1\n1 0\n")


def test_map_header_errors():
    with pytest.raises(ParseError):
        F.parse_map("map f from a to b variance sideways\n0 1\n")


def test_semilinear_round_trip_and_symbols():
    f4 = FieldFq2.of_order(4)
    m = matrix(f4, [(0, 1), (2, 3)], "anti", "probe")
    head = (f"semilinear {m.name} over F4 rows {m.rows} "
            f"cols {m.cols} twist {m.twist}")
    body = [" ".join(f4.name_of(v) for v in row) for row in m.entries]
    text = "\n".join([head] + body) + "\n"
    assert "w2" in text and "twist anti" in text
    again = F.parse_text(text)
    assert again.entries == m.entries and again.twist == m.twist
    with pytest.raises(ParseError):
        F.parse_text(text.replace("w2", "q"))


def test_semilinear_bundled_sample():
    sample = F.parse_text(DATA.joinpath("sample.mat").read_text())
    assert sample.rows == 2 and sample.cols == 3 and sample.is_anti
