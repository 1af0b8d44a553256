"""Command-line front end for the verification workbench.

Exit codes: 0 when every emitted check passed, 1 when any check failed,
2 for unusable input (parse errors, unknown names, missing options, broken
structures), 3 for an internal error, whose traceback goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .categories import (
    anti_category,
    associated_category,
    caf,
    fca,
    validate_category,
)
from .errors import AlgebraError, ParseError
from .formats import emit_category_text, emit_factorization_text, emit_map, load_path
from .maps import ANTI, STRAIGHT
from .morphisms import enumerate_morphisms
from .reports import CheckRecord, ReportBundle, emit_records, render_text
from .suite import (
    Registry,
    RunConfig,
    adjunction_reports,
    bundle,
    equivalence_report,
    natural_map_report,
    pointwise_audit_report,
    products_report,
    run,
)
from .theorems import (
    verify_abelian_collapse,
    verify_anti_factorization,
    verify_anti_hom_theorem,
    verify_groups_vs_star_category,
    verify_second_anti_iso,
    verify_subring_and_transport,
    verify_third_anti_iso,
)


def _required(args, option: str):
    value = getattr(args, option)
    if value is None:
        raise ParseError(f"missing option --{option.replace('_', '-')}")
    return value


def _write(text: str) -> None:
    """Write all of `text` to standard output.

    Under `PYTHONUNBUFFERED` the binary layer of `sys.stdout` is a raw file,
    and a text-level write keeps only what one write(2) took: a signal
    arriving while the pipe is full cuts the stream short with no error. So
    the encoded bytes go to the binary layer until every one is taken.
    Streams without a binary layer (`io.StringIO`) take the text as is.
    """
    out = sys.stdout
    binary = getattr(out, "buffer", None)
    if binary is None:
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[binary.write(data) or 0:]


def _emit(result: ReportBundle, fmt: str) -> int:
    _write(emit_records(result) if fmt == "records" else render_text(result))
    return 0 if result.all_passed else 1


def cmd_validate(args, config: RunConfig) -> int:
    records = []
    for spec in args.paths:
        try:
            load_path(Path(spec))
            records.append(CheckRecord(f"validate/{spec}", (), "PASS"))
        except (AlgebraError, OSError) as exc:
            records.append(CheckRecord(f"validate/{spec}", (), "FAIL",
                                       witness=str(exc)))
    return _emit(ReportBundle(config.as_fields(), tuple(records)), args.format)


def cmd_enum(args, config: RunConfig, variance: str) -> int:
    reg = Registry(config.corpus_paths)
    src = reg.structure(args.source)
    dst = reg.structure(args.target)
    morphisms = enumerate_morphisms(src, dst, variance, config.bound)
    _write("".join(emit_map(m.renamed(f"m{i}")) for i, m in enumerate(morphisms))
           + f"# total {len(morphisms)}\n")
    return 0


def cmd_verify(args, config: RunConfig) -> int:
    reg = Registry(config.corpus_paths)
    tid = args.theorem
    if tid == "anti-factorization":
        phi = reg.morphism(_required(args, "map"))
        if args.group:
            g = reg.group(args.group)
            rep = verify_anti_factorization(
                g, reg.subgroup(g, _required(args, "normal")), phi, config.bound)
        else:
            r = reg.ring(_required(args, "ring"))
            rep = verify_anti_factorization(
                r, reg.ideal(r, _required(args, "ideal")), phi, config.bound)
    elif tid == "anti-hom":
        rep = verify_anti_hom_theorem(reg.morphism(_required(args, "map")),
                                      config.bound)
    elif tid == "second-anti-iso":
        g = reg.group(_required(args, "group"))
        rep = verify_second_anti_iso(
            g, reg.subgroup(g, _required(args, "sub_b")),
            reg.subgroup(g, _required(args, "sub_c")), config.bound)
    elif tid == "third-anti-iso":
        g = reg.group(_required(args, "group"))
        rep = verify_third_anti_iso(
            g, reg.subgroup(g, _required(args, "subgroup")),
            reg.subgroup(g, _required(args, "normal")), config.bound)
    elif tid == "abelian-collapse":
        rep = verify_abelian_collapse(reg.morphism(_required(args, "map")))
    elif tid == "subring-transport":
        rep = verify_subring_and_transport(reg.morphism(_required(args, "map")))
    elif tid == "groups-vs-star":
        names = (args.objects or "z2,z3,s3").split(",")
        rep = verify_groups_vs_star_category(
            {n: reg.group(n) for n in names}, config.bound)
    else:
        raise ParseError(f"unknown theorem {tid!r}")
    return _emit(bundle(config, [rep]), args.format)


def cmd_cat(args, config: RunConfig) -> int:
    reg = Registry(config.corpus_paths)
    op = args.operation
    if op == "caf":
        _write(emit_factorization_text(caf(reg.category(args.category))))
        return 0
    if op == "fca":
        if args.input:
            fcat = load_path(Path(args.input))
        else:
            fcat = caf(reg.category(args.category))
        _write(emit_category_text(fca(fcat)))
        return 0
    if op in ("anti", "assoc"):
        derive = anti_category if op == "anti" else associated_category
        _write(emit_category_text(validate_category(
            derive(caf(reg.category(args.category))))))
        return 0
    if op == "equiv":
        fcat = caf(reg.category(args.category))
        rep = equivalence_report(args.category, fcat, anti_category(fcat))
        return _emit(bundle(config, [rep]), args.format)
    if op == "products":
        family = tuple((args.family or "x,y").split(","))
        return _emit(bundle(config, products_report(reg.category(args.category),
                                                    family)), args.format)
    if op == "adjunction":
        return _emit(bundle(config, adjunction_reports(reg.categories)),
                     args.format)
    raise ParseError(f"unknown category operation {op!r}")


def cmd_audit(args, config: RunConfig) -> int:
    reg = Registry(config.corpus_paths)
    if args.which == "pointwise-ring":
        a = reg.ring(args.ring)
        b = reg.ring(args.target) if args.target else a
        rep = pointwise_audit_report(a, b, config.bound)
        return _emit(bundle(config, [rep]), args.format)
    if args.which == "natural-an-map":
        r = reg.ring(args.ring)
        spec = _required(args, "ideal")
        rep = natural_map_report(r, spec, reg.ideal(r, spec), config.bound)
        return _emit(bundle(config, [rep]), args.format)
    raise ParseError(f"unknown audit {args.which!r}")


def cmd_report(args, config: RunConfig) -> int:
    return _emit(run(config), args.format)


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--corpus", action="append",
                        default=argparse.SUPPRESS,
                        help="directory of extra structure files (repeatable)")
    common.add_argument("--bound", type=int, default=argparse.SUPPRESS,
                        help="enumeration candidate bound")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for the twisted-map instance generator")
    common.add_argument("--format", choices=("text", "records"),
                        default=argparse.SUPPRESS,
                        help="report output format")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="antimorph",
        description="finite-algebra workbench for anti-homomorphisms",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="parse and validate structure files")
    p.add_argument("paths", nargs="+")

    for name in ("enum-homs", "enum-antihoms"):
        p = sub.add_parser(name, parents=[common],
                           help=f"enumerate {name.split('-')[1]}")
        p.add_argument("--source", required=True)
        p.add_argument("--target", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run one theorem verifier")
    p.add_argument("theorem", choices=(
        "anti-factorization", "anti-hom", "second-anti-iso", "third-anti-iso",
        "abelian-collapse", "subring-transport", "groups-vs-star"))
    p.add_argument("--group")
    p.add_argument("--ring")
    p.add_argument("--normal")
    p.add_argument("--ideal")
    p.add_argument("--subgroup")
    p.add_argument("--sub-b", dest="sub_b")
    p.add_argument("--sub-c", dest="sub_c")
    p.add_argument("--map")
    p.add_argument("--objects")

    p = sub.add_parser("cat", parents=[common],
                       help="category engine operations")
    p.add_argument("operation", choices=(
        "caf", "fca", "anti", "assoc", "equiv", "products", "adjunction"))
    p.add_argument("--category")
    p.add_argument("--input")
    p.add_argument("--family")

    p = sub.add_parser("audit", parents=[common], help="closure audits")
    p.add_argument("which", choices=("pointwise-ring", "natural-an-map"))
    p.add_argument("--ring", required=True)
    p.add_argument("--target")
    p.add_argument("--ideal")

    sub.add_parser("report", parents=[common],
                   help="run the full standard verification suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.format = getattr(args, "format", "text")
    # options left out are absent from `args`, so RunConfig's defaults apply
    config = RunConfig(corpus_paths=tuple(getattr(args, "corpus", ())),
                       **{key: getattr(args, key) for key in ("bound", "seed")
                          if hasattr(args, key)})
    try:
        if args.command == "validate":
            return cmd_validate(args, config)
        if args.command == "enum-homs":
            return cmd_enum(args, config, STRAIGHT)
        if args.command == "enum-antihoms":
            return cmd_enum(args, config, ANTI)
        if args.command == "verify":
            return cmd_verify(args, config)
        if args.command == "cat":
            return cmd_cat(args, config)
        if args.command == "audit":
            return cmd_audit(args, config)
        if args.command == "report":
            return cmd_report(args, config)
        parser.error(f"unknown command {args.command!r}")
    except (AlgebraError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
