import hashlib
import io
import json
import sys
from importlib import resources

import pytest

from antimorph import cli, morphisms, suite, theorems
from antimorph.cli import main
from antimorph.corpus import IDEAL_MEMBERS, group_corpus, ring_corpus
from antimorph.maps import ANTI, STRAIGHT, Morphism
from antimorph.reports import emit_records, parse_records
from antimorph.suite import RunConfig, bundle, run
from antimorph.verdict import Check, check

DATA = resources.files("antimorph").joinpath("data")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_anti_factorization_bundled_map(capsys):
    code, out, _ = run_cli(capsys, "verify", "anti-factorization",
                           "--group", "s3", "--normal", "a3",
                           "--map", "signstar.map")
    assert code == 0
    assert "anti-factorization/unique" in out
    assert "FAIL" not in out


def test_verify_with_records_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "records",
                           "verify", "anti-hom", "--map", "signstar.map")
    assert code == 0
    bundle = parse_records(out)
    assert bundle.all_passed
    assert any(r.check_id.startswith("anti-homomorphism/") for r in bundle.records)


def test_verify_second_and_third(capsys):
    code, _, _ = run_cli(capsys, "verify", "second-anti-iso", "--group", "d4",
                         "--sub-b", "rot", "--sub-c", "rot2")
    assert code == 0
    code, _, _ = run_cli(capsys, "verify", "third-anti-iso", "--group", "s3",
                         "--subgroup", "s12", "--normal", "a3")
    assert code == 0


def test_verify_with_explicit_member_list(capsys):
    code, _, _ = run_cli(capsys, "verify", "third-anti-iso", "--group", "s3",
                         "--subgroup", "0,1", "--normal", "0,3,4")
    assert code == 0


def test_enum_subcommands(capsys):
    code, out, _ = run_cli(capsys, "enum-homs", "--source", "s3",
                           "--target", "s3")
    assert code == 0
    assert "# total 10" in out
    code, out, _ = run_cli(capsys, "enum-antihoms", "--source", "z2",
                           "--target", "z2")
    assert code == 0
    assert "# total 2" in out
    assert "variance anti" in out


def test_validate_subcommand(tmp_path, capsys):
    good = tmp_path / "k4.grp"
    good.write_text("group k4 order 2\n0 1\n1 0\n")
    bad = tmp_path / "broken.grp"
    bad.write_text("group broken order 2\n0 1\n0 1\n")
    code, out, _ = run_cli(capsys, "validate", str(good), str(bad))
    assert code == 1
    assert "[PASS]" in out and "[FAIL]" in out


def test_corpus_directory_loading(tmp_path, capsys):
    (tmp_path / "k9.grp").write_text(
        "group k9 order 3\n0 1 2\n1 2 0\n2 0 1\n")
    code, out, _ = run_cli(capsys, "--corpus", str(tmp_path),
                           "enum-homs", "--source", "k9", "--target", "k9")
    assert code == 0
    assert "# total 3" in out


def test_corpus_directory_reaches_the_report(tmp_path):
    (tmp_path / "k9.grp").write_text(
        "group k9 order 3\n0 1 2\n1 2 0\n2 0 1\n")
    bundle = run(RunConfig(corpus_paths=(str(tmp_path),),
                           selection=("correspondence/",)))
    assert ("corpus", str(tmp_path)) in bundle.config
    k9 = [r for r in bundle.records
          if r.check_id.startswith("correspondence/k9-k9/")]
    assert k9 and all(r.passed for r in k9)


def test_config_line_takes_the_options_given_and_defaults_for_the_rest(capsys):
    argv = ("verify", "anti-hom", "--map", "signstar.map")
    code, out, _ = run_cli(capsys, "--format", "records", *argv)
    assert code == 0
    assert parse_records(out).config == RunConfig().as_fields()
    code, out, _ = run_cli(capsys, "--format", "records", "--seed", "7", *argv)
    assert code == 0
    assert parse_records(out).config == RunConfig(seed=7).as_fields()
    code, out, _ = run_cli(capsys, "--format", "records", *argv, "--bound", "5000")
    assert code == 0
    assert parse_records(out).config == RunConfig(bound=5000).as_fields()


@pytest.mark.parametrize("argv, selection", [
    (("audit", "natural-an-map", "--ring", "z4", "--ideal", "even"),
     "natural-map/z4-even/"),
    (("cat", "equiv", "--category", "meet"), "anti-category-equivalence/meet/"),
    (("cat", "adjunction"), "equip-forget-adjunctions"),
])
def test_cli_query_is_a_slice_of_the_report(capsys, argv, selection):
    """A CLI query prints exactly the report's records for its instance.

    `cat products` and `audit pointwise-ring` are not report slices, though
    `suite` builds them too: the report pins meet's product apex and audits
    two fixed rings with claims about the whole instance, while the CLI
    reports whatever family or ring pair it is given, check by check.
    """
    code, out, _ = run_cli(capsys, "--format", "records", *argv)
    assert code == 0
    want = run(RunConfig(selection=(selection,))).records
    assert want and parse_records(out).records == want


def test_cat_subcommands(capsys):
    code, out, _ = run_cli(capsys, "cat", "caf", "--category", "arrow")
    assert code == 0 and out.startswith("factorization arrow")
    code, out, _ = run_cli(capsys, "cat", "anti", "--category", "arrow")
    assert code == 0 and out.startswith("category arrow^an")
    code, out, _ = run_cli(capsys, "cat", "equiv", "--category", "meet")
    assert code == 0
    code, out, _ = run_cli(capsys, "cat", "products", "--category", "meet",
                           "--family", "x,y")
    assert code == 0
    assert "anti-product-uniqueness" in out


def test_cat_fca_of_file(tmp_path, capsys):
    code, fct_text, _ = run_cli(capsys, "cat", "caf", "--category", "chain3")
    assert code == 0
    path = tmp_path / "chain3.fct"
    path.write_text(fct_text)
    code, out, _ = run_cli(capsys, "cat", "fca", "--input", str(path))
    assert code == 0
    assert out.startswith("category chain3")


def test_audit_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "audit", "natural-an-map", "--ring", "z4",
                           "--ideal", "even")
    assert code == 0
    code, out, _ = run_cli(capsys, "audit", "pointwise-ring", "--ring", "t2f2")
    assert code == 1  # the pointwise claim fails here, and the audit says so
    assert "witness" in out


def test_audit_outputs_the_golden_report_does_not_cover_are_pinned(capsys):
    # Every ordered pair of bundled rings through `audit pointwise-ring` and
    # every named ideal through `audit natural-an-map`, stdout and exit codes;
    # then the automorphism algebra of every bundled group except q8, whose
    # 24 automorphisms are over the isomorphism search limit.
    rings = ring_corpus()
    calls = [("audit", "pointwise-ring", "--ring", a, "--target", b)
             for a in rings for b in rings]
    calls += [("audit", "natural-an-map", "--ring", r, "--ideal", i)
              for r, i in sorted(IDEAL_MEMBERS)]
    codes, outs = [], []
    for argv in calls:
        code, out, _ = run_cli(capsys, "--format", "records", *argv)
        codes.append(str(code))
        outs.append(out)
    assert "".join(codes) == "10011010010111101111000010000"
    assert _sha256("".join(outs)) == \
        "8b9086fea85796968d3b3d522159d5b6aab22e1e16569dc93a48f0a42b844f0c"
    algebra = bundle(RunConfig(), [suite.automorphism_algebra_report(g)
                                   for name, g in group_corpus().items()
                                   if name != "q8"])
    assert sum(r.passed for r in algebra.records) == len(algebra.records) == 44
    assert _sha256(emit_records(algebra)) == \
        "d0181361f2a2a3a176f6a228e82a68320c7356e736d0bdbdbca34e4167fc2864"


def test_unknown_name_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "anti-hom", "--map", "nosuch.map")
    assert code == 2
    assert "error:" in err
    code, out, err = run_cli(capsys, "cat", "products", "--category", "meet",
                             "--family", "x,nope")
    assert code == 2
    assert "unknown object 'nope'" in err and "[FAIL]" not in out
    code, _, err = run_cli(capsys, "enum-homs", "--source", "group:nosuch",
                           "--target", "s3")
    assert code == 2
    assert "unknown group 'nosuch'" in err
    for argv, option in (
            (("verify", "third-anti-iso", "--group", "s3", "--subgroup", "s12"),
             "--normal"),
            (("verify", "anti-factorization", "--group", "s3",
              "--map", "signstar.map"), "--normal"),
            (("audit", "natural-an-map", "--ring", "z4"), "--ideal")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"missing option {option}" in err
    for argv, index in (
            (("verify", "third-anti-iso", "--group", "s3",
              "--subgroup", "0,99", "--normal", "a3"), 99),
            (("audit", "natural-an-map", "--ring", "z4", "--ideal", "0,9"), 9),
            (("audit", "natural-an-map", "--ring", "z4", "--ideal=0,-2"), -2)):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"element index {index} outside" in err
    for argv, index in (
            (("verify", "third-anti-iso", "--group", "s3",
              "--subgroup", "0,1,1", "--normal", "a3"), 1),
            (("audit", "natural-an-map", "--ring", "z4", "--ideal", "0,2,2"), 2)):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"element index {index} repeated" in err


def test_internal_error_exits_3_with_traceback(capsys, monkeypatch):
    def broken(args, config, variance):
        raise KeyError("engine bug")

    monkeypatch.setattr(cli, "cmd_enum", broken)
    code, _, err = run_cli(capsys, "enum-homs", "--source", "s3",
                           "--target", "s3")
    assert code == 3
    assert "Traceback" in err and "engine bug" in err


def test_malformed_file_does_not_crash(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("group bad order 2\n0 1\n")
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1


MALFORMED = {
    "unknown-composite.cat": "category bad\nobjects: o\nid o = e\n"
                             "hom o o: e s\ncompose s s = zzz\n",
    "unknown-identity.cat": "category bad\nobjects: a\nid a = q\nhom a a: e\n",
    "unknown-mixed-composite.fct": "factorization bad\nobjects: o\nid o = e\n"
                                   "hom o o: e\nan o o: r\nreverse o = r\n"
                                   "compose r r = nope\n",
    "missing-sum.cat": "category bad\nobjects: o\nid o = u\nhom o o: z u\n"
                       "compose z z = z\nzero o o z\nsum o o z z = z\n"
                       "sum o o z u = u\nsum o o u z = u\n",
    "duplicate-morphism.cat": "category bad\nobjects: a\nid a = e\nhom a a: e e\n",
    "duplicate-object.cat": "category bad\nobjects: a a\nid a = e\nhom a a: e\n",
    "hom-line-without-target.cat": "category bad\nobjects: a\nid a = a_a\n"
                                   "hom a: a_a\n",
    "stray-composite.cat": "category monoid\nobjects: o\nid o = e\nhom o o: e s\n"
                           "compose s s = e\ncompose ss s = s\n",
    # non-integer header fields and image entries
    "ring-order.rng": "ring r order x\nadd:\n0\nmul:\n0\n",
    "map-image.map": "map f from z2 to z2 variance straight\n0 x\n",
    "semilinear-rows.mat": "semilinear m over F4 rows x cols 1 twist anti\n0\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_category_is_bad_input(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_text(MALFORMED[name])
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1 and "[FAIL]" in out
    code, out, err = run_cli(capsys, "--corpus", str(tmp_path), "report")
    assert code == 2
    assert err.startswith("error: ") and out == ""


def test_category_without_objects_reaches_the_report(tmp_path, capsys):
    # its one functor is empty, which the adjunction reads through an empty
    # index list
    path = tmp_path / "c.cat"
    path.write_text("category c\nobjects:\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and "[PASS]" in out
    code, out, err = run_cli(capsys, "--corpus", str(tmp_path), "--format", "records",
                             "report")
    assert code == 0 and err == ""
    records = parse_records(out).records
    assert any(r.check_id.startswith("anti-category-equivalence/c/") for r in records)
    assert all(r.passed for r in records)


def test_groups_vs_star_ids_are_unique_whatever_the_names(tmp_path, capsys):
    # ids built from names alone would read (p, q>r) and (p>q, r) both as
    # p>q>r; four trivial groups hold no other pitfall
    for i, name in enumerate(("p", "q>r", "p>q", "r")):
        (tmp_path / f"g{i}.grp").write_text(f"group {name} order 1\n0\n")
    code, out, err = run_cli(capsys, "--corpus", str(tmp_path), "--format", "records",
                             "verify", "groups-vs-star", "--objects", "p,q>r,p>q,r")
    assert code == 0 and err == ""
    bundle = parse_records(out)
    assert [r.check_id for r in bundle.records] == [
        f"groups-equivalent-to-star-groups/{name}" for name in
        ("is-functor", "fully-faithful", "essentially-surjective")]
    assert bundle.all_passed


def test_groups_vs_star_map_outside_its_sets_is_an_engine_error(monkeypatch, capsys):
    # a Hom/An search that loses Z2's trivial endomorphism leaves the
    # trivial anti map composed with itself nowhere to go
    real = theorems.hom_an_tables
    monkeypatch.setattr(theorems, "hom_an_tables",
                        lambda a, b, bound: (real(a, b, bound)[0][1:],
                                             real(a, b, bound)[1]))
    code, _, err = run_cli(capsys, "verify", "groups-vs-star", "--objects", "z2")
    assert code == 3
    assert "RuntimeError" in err and "engine bug" in err


def test_composite_breaking_its_law_is_an_engine_error(monkeypatch, capsys):
    # a projection S3 -> S3/1 with the labels 1 and 3 swapped is no
    # homomorphism, so composing it with the reverse map breaks the anti law
    real = theorems.quotient

    def swapped(g, n):
        q, proj = real(g, n)
        if n.order == 1:
            swap = {1: 3, 3: 1}
            proj = Morphism(g, q, tuple(swap.get(v, v) for v in proj.images), STRAIGHT)
        return q, proj

    monkeypatch.setattr(theorems, "quotient", swapped)
    code, out, err = run_cli(capsys, "verify", "second-anti-iso", "--group", "s3",
                             "--sub-b", "triv", "--sub-c", "triv")
    assert code == 3 and out == ""
    assert "RuntimeError" in err and "this is an engine bug" in err


def test_twin_outside_the_anti_set_in_a_corpus_report_is_an_engine_error(
        tmp_path, monkeypatch, capsys):
    # the reverse map of every group is the identity, so the twin of a map
    # with a non-abelian image, such as the corpus copy of S3 onto itself,
    # breaks the anti law
    (tmp_path / "d3.grp").write_text(
        (DATA / "s3.grp").read_text().replace("group s3", "group d3"))
    monkeypatch.setattr(suite, "reverse_morphism",
                        lambda g: Morphism(g, g, tuple(g.elements()), ANTI))
    code, out, err = run_cli(capsys, "--corpus", str(tmp_path), "report")
    assert code == 3 and out == ""
    assert "RuntimeError: composite broke its anti law" in err


def test_a_fail_without_a_witness_is_an_engine_error(monkeypatch, capsys):
    assert check("c", True) == Check("c", True, None)
    assert check("c", False, witness=()) == Check("c", False, ())
    with pytest.raises(RuntimeError, match="check c failed without a witness"):
        check("c", False)
    # a union that is no group and names no pair leaving it: the report's
    # `union-is-group` FAILs without a witness, and the run exits 3
    real = morphisms._closed_group
    monkeypatch.setattr(morphisms, "_closed_group", lambda tables, through, name: (
        (None, None) if name == "unionis" else real(tables, through, name)))
    code, _, err = run_cli(capsys, "--format", "records", "report")
    assert code == 3
    assert "RuntimeError: check union-is-group failed without a witness" in err


# sha256 of `cat caf|anti|assoc --category NAME`, fixed when these texts were
# still built from the dicts, so deriving them from cells cannot change them
CATEGORY_TEXT_SHA256 = {
    ("arrow", "caf"): "66f684b2ef53622d1907def707a417bf79862fd08f05a4839416aeca5eed6f84",
    ("arrow", "anti"): "586dae6cef2609934983644202715116cfde1aded2d60e1eac4437cd94c57c0d",
    ("arrow", "assoc"): "fc81db291cc56c1aaca903ea5c907751a483325d25753db28ac99410b543d960",
    ("chain3", "caf"): "a720d59835fb044a38c297cf73a7bf3b6eb19d766458536816eff1d761930a46",
    ("chain3", "anti"): "d7fb02c14521566fabc6321e6118050e7e7ba7b7ffd5eab5de32c749132a0a04",
    ("chain3", "assoc"): "6cd9e07b92c113377af1fbf38dd5ec44b8d70a3be158951acd50829f34a55efd",
    ("meet", "caf"): "6f00ea7e083c32b8883a314d298c4f03b5c738bee291c3277ca4b5ad99d4b68b",
    ("meet", "anti"): "a7aaf85ad6d1fb4c95dfa43dd56667918c9825ee06215919e14f2b4465fd9377",
    ("meet", "assoc"): "90872e422a28a68807d0a2ae51100039d47f9ef01371973673e8f380744aa6b8",
    ("monoid", "caf"): "2cf284b144ca70e95ff643db20efede0f0a30cd182042ee7d60ece86ad1f5967",
    ("monoid", "anti"): "c3adf0abe5a36940ad90c1ae7b9893d8def9f7315b44fc73440123fa2d355be3",
    ("monoid", "assoc"): "972c28cda9b1cf7c4e509bd0cec161fac215a7875a8ffa07b59301d7320cc7a9",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("category, op", sorted(CATEGORY_TEXT_SHA256))
def test_category_text_is_pinned(capsys, category, op):
    code, out, _ = run_cli(capsys, "cat", op, "--category", category)
    assert code == 0
    assert _sha256(out) == CATEGORY_TEXT_SHA256[(category, op)]


def test_category_text_round_trip_is_pinned(tmp_path, capsys):
    path = tmp_path / "chain3.fct"
    path.write_text(run_cli(capsys, "cat", "caf", "--category", "chain3")[1])
    code, out, _ = run_cli(capsys, "cat", "fca", "--input", str(path))
    assert code == 0
    assert _sha256(out) == \
        "c8be838497133c39d0b7803843df4e29176e51520c26426912f7b67bfced8c2a"


def test_report_records_are_deterministic(capsys):
    args = ["--format", "records", "verify", "groups-vs-star",
            "--objects", "z2,s3"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    for line in out1.strip().splitlines():
        json.loads(line)


class _ShortWriter(io.RawIOBase):
    """A raw stream that takes at most 1,000 bytes per write, as a pipe may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        taken = bytes(b[:1000])
        self.data += taken
        return len(taken)


@pytest.mark.parametrize("argv", [
    ("--format", "records", "cat", "adjunction"),
    ("enum-antihoms", "--source", "d4", "--target", "d4"),
])
def test_partial_writes_deliver_the_whole_stream(monkeypatch, argv):
    plain = io.StringIO()
    monkeypatch.setattr(sys, "stdout", plain)
    assert main(list(argv)) == 0
    expected = plain.getvalue()
    raw = _ShortWriter()
    monkeypatch.setattr(sys, "stdout",
                        io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    assert main(list(argv)) == 0
    assert len(expected.encode("utf-8")) > 1000
    assert raw.data.decode("utf-8") == expected
