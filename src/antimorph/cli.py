"""Command-line front end for the verification workbench.

Exit codes: 0 when every emitted check passed, 1 when any check failed,
2 for unusable input (parse errors, unknown names, broken structures).
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .corpus import (
    SUBGROUP_GENS,
    IDEAL_MEMBERS,
    category_corpus,
    group_corpus,
    named_ideal,
    named_subgroup,
    ring_corpus,
)
from .categories import (
    adjunction_report,
    anti_category,
    anti_functor,
    anti_product_uniqueness,
    associated_category,
    caf,
    check_anti_universal,
    check_equivalence,
    fca,
    find_products,
    preadditive_one_object,
    preadditive_two_object,
)
from .errors import AlgebraError, ParseError
from .formats import (
    MapFile,
    emit_category_text,
    emit_factorization_text,
    emit_map,
    load_path,
    resolve_map,
)
from .groups import FiniteGroup, Subgroup, is_subgroup
from .maps import ANTI, STRAIGHT, Morphism
from .morphisms import (
    enumerate_morphisms,
    natural_an_map,
    pointwise_ring_audit,
)
from .reports import CheckRecord, ReportBundle, emit_records, records_from_report, render_text
from .rings import FiniteRing, RingIdeal, TWO_SIDED, ideal_witness
from .suite import RunConfig, run
from .theorems import (
    verify_abelian_collapse,
    verify_anti_factorization,
    verify_anti_hom_theorem,
    verify_groups_vs_star_category,
    verify_second_anti_iso,
    verify_subring_and_transport,
    verify_third_anti_iso,
)
from .verdict import TheoremReport, check


class Registry:
    """Bundled corpus plus any structures loaded from --corpus directories."""

    def __init__(self, corpus_dirs=()):
        self.groups = dict(group_corpus())
        self.rings = dict(ring_corpus())
        self.categories = dict(category_corpus())
        self.factorizations = {}
        self.maps = {}
        self.semilinear = {}
        for d in corpus_dirs:
            self.load_dir(Path(d))

    def load_dir(self, directory: Path):
        from .categories import FactorizationCategory, FiniteCategory
        from .semilinear import SemilinearMap

        for path in sorted(p for p in directory.iterdir() if p.is_file()):
            value = load_path(path)
            if isinstance(value, FiniteGroup):
                self.groups[value.name] = value
            elif isinstance(value, FiniteRing):
                self.rings[value.name] = value
            elif isinstance(value, FiniteCategory):
                self.categories[value.name] = value
            elif isinstance(value, FactorizationCategory):
                self.factorizations[value.name] = value
            elif isinstance(value, MapFile):
                self.maps[value.name] = value
            elif isinstance(value, SemilinearMap):
                self.semilinear[value.name] = value

    def structure(self, name: str):
        if name.startswith("group:"):
            return self.groups[name[6:]]
        if name.startswith("ring:"):
            return self.rings[name[5:]]
        for pool in (self.groups, self.rings, self.categories):
            if name in pool:
                return pool[name]
        raise ParseError(f"unknown structure {name!r}")

    def group(self, name: str) -> FiniteGroup:
        if name not in self.groups:
            raise ParseError(f"unknown group {name!r}")
        return self.groups[name]

    def ring(self, name: str) -> FiniteRing:
        if name not in self.rings:
            raise ParseError(f"unknown ring {name!r}")
        return self.rings[name]

    def category(self, name: str):
        if name not in self.categories:
            raise ParseError(f"unknown category {name!r}")
        return self.categories[name]

    def subgroup(self, g: FiniteGroup, spec: str) -> Subgroup:
        if (g.name, spec) in SUBGROUP_GENS:
            return named_subgroup(g.name, spec)
        members = _index_list(spec)
        if not is_subgroup(g, members):
            raise ParseError(f"{spec!r} is not a subgroup of {g.name}")
        return Subgroup(g, tuple(sorted(members)))

    def ideal(self, r: FiniteRing, spec: str) -> RingIdeal:
        if (r.name, spec) in IDEAL_MEMBERS:
            return named_ideal(r.name, spec)
        members = _index_list(spec)
        w = ideal_witness(r, members, TWO_SIDED)
        if w is not None:
            raise ParseError(f"{spec!r} is not a two-sided ideal of {r.name}: {w}")
        return RingIdeal(r, tuple(sorted(members)), TWO_SIDED)

    def morphism(self, spec: str) -> Morphism:
        path = Path(spec)
        if path.exists():
            value = load_path(path)
        elif spec in self.maps:
            value = self.maps[spec]
        else:
            data = resources.files("antimorph").joinpath("data", spec)
            if data.is_file():
                from .formats import parse_text

                value = parse_text(data.read_text())
            else:
                raise ParseError(f"map {spec!r} not found")
        if not isinstance(value, MapFile):
            raise ParseError(f"{spec!r} is not a map file")
        pools = dict(self.groups)
        pools.update({f"ring:{k}": v for k, v in self.rings.items()})
        pools.update({k: v for k, v in self.rings.items() if k not in pools})
        return resolve_map(value, pools)


def _index_list(spec: str):
    try:
        return tuple(int(p) for p in spec.replace(",", " ").split())
    except ValueError:
        raise ParseError(f"expected element indices, got {spec!r}")


def _emit(bundle: ReportBundle, fmt: str) -> int:
    sys.stdout.write(emit_records(bundle) if fmt == "records"
                     else render_text(bundle))
    return 0 if bundle.all_passed else 1


def _bundle(config: RunConfig, reports) -> ReportBundle:
    records = []
    for rep in reports:
        records.extend(records_from_report(rep))
    return ReportBundle(config.as_fields(), tuple(records))


def cmd_validate(args, config: RunConfig) -> int:
    records = []
    for spec in args.paths:
        try:
            value = load_path(Path(spec))
            records.append(CheckRecord(f"validate/{spec}", (), "PASS"))
            _ = value
        except (AlgebraError, OSError) as exc:
            records.append(CheckRecord(f"validate/{spec}", (), "FAIL",
                                       witness=str(exc)))
    return _emit(ReportBundle(config.as_fields(), tuple(records)), args.format)


def cmd_enum(args, config: RunConfig, variance: str) -> int:
    reg = Registry(config.corpus_paths)
    src = reg.structure(args.source)
    dst = reg.structure(args.target)
    morphisms = enumerate_morphisms(src, dst, variance, config.bound)
    for i, m in enumerate(morphisms):
        sys.stdout.write(emit_map(m.renamed(f"m{i}")))
    sys.stdout.write(f"# total {len(morphisms)}\n")
    return 0


def cmd_verify(args, config: RunConfig) -> int:
    reg = Registry(config.corpus_paths)
    tid = args.theorem
    if tid == "anti-factorization":
        phi = reg.morphism(args.map)
        if args.group:
            g = reg.group(args.group)
            rep = verify_anti_factorization(g, reg.subgroup(g, args.normal),
                                            phi, config.bound)
        else:
            r = reg.ring(args.ring)
            rep = verify_anti_factorization(r, reg.ideal(r, args.ideal),
                                            phi, config.bound)
    elif tid == "anti-hom":
        rep = verify_anti_hom_theorem(reg.morphism(args.map), config.bound)
    elif tid == "second-anti-iso":
        g = reg.group(args.group)
        rep = verify_second_anti_iso(g, reg.subgroup(g, args.sub_b),
                                     reg.subgroup(g, args.sub_c), config.bound)
    elif tid == "third-anti-iso":
        g = reg.group(args.group)
        rep = verify_third_anti_iso(g, reg.subgroup(g, args.subgroup),
                                    reg.subgroup(g, args.normal), config.bound)
    elif tid == "abelian-collapse":
        rep = verify_abelian_collapse(reg.morphism(args.map))
    elif tid == "subring-transport":
        rep = verify_subring_and_transport(reg.morphism(args.map))
    elif tid == "groups-vs-star":
        names = (args.objects or "z2,z3,s3").split(",")
        rep = verify_groups_vs_star_category(
            {n: reg.group(n) for n in names}, config.bound)
    else:
        raise ParseError(f"unknown theorem {tid!r}")
    return _emit(_bundle(config, [rep]), args.format)


def cmd_cat(args, config: RunConfig) -> int:
    reg = Registry(config.corpus_paths)
    op = args.operation
    if op == "caf":
        sys.stdout.write(emit_factorization_text(caf(reg.category(args.category))))
        return 0
    if op == "fca":
        if args.input:
            fcat = load_path(Path(args.input))
        else:
            fcat = caf(reg.category(args.category))
        sys.stdout.write(emit_category_text(fca(fcat)))
        return 0
    if op == "anti":
        sys.stdout.write(emit_category_text(
            anti_category(caf(reg.category(args.category)))))
        return 0
    if op == "assoc":
        sys.stdout.write(emit_category_text(
            associated_category(caf(reg.category(args.category)))))
        return 0
    if op == "equiv":
        c = reg.category(args.category)
        fc = caf(c)
        rep = check_equivalence(anti_functor(fc), c, anti_category(fc))
        return _emit(_bundle(config, [rep]), args.format)
    if op == "products":
        c = reg.category(args.category)
        family = tuple((args.family or "x,y").split(","))
        for name in family:
            if name not in c.objects:
                raise ParseError(f"unknown object {name!r} in category {c.name}")
        fc = caf(c)
        products = find_products(c, family)
        reports = [TheoremReport(
            theorem=f"products/{c.name}",
            inputs=(("family", ",".join(family)),),
            checks=(check("product-found", bool(products),
                          witness="no product presentation"),),
        )]
        for apex, proj in products:
            reports.append(check_anti_universal(fc, apex, proj, family))
        if products:
            reports.append(anti_product_uniqueness(fc, family))
        return _emit(_bundle(config, reports), args.format)
    if op == "adjunction":
        reports = [adjunction_report(dict(category_corpus())),
                   adjunction_report({"pad1": preadditive_one_object(),
                                      "pad2": preadditive_two_object()},
                                     additive=True)]
        return _emit(_bundle(config, reports), args.format)
    raise ParseError(f"unknown category operation {op!r}")


def cmd_audit(args, config: RunConfig) -> int:
    reg = Registry(config.corpus_paths)
    if args.which == "pointwise-ring":
        a = reg.ring(args.ring)
        b = reg.ring(args.target) if args.target else a
        audit = pointwise_ring_audit(a, b, config.bound)
        checks = []
        for side in (audit.straight, audit.anti):
            tag = side.variance
            checks.append(check(f"{tag}-zero-map-present", side.has_zero_map))
            checks.append(check(f"{tag}-sum-closed", side.add_closed,
                                witness=side.add_witness))
            checks.append(check(f"{tag}-product-closed", side.mul_closed,
                                witness=side.mul_witness))
            checks.append(check(f"{tag}-has-unit", side.has_mul_identity))
        rep = TheoremReport(
            theorem=f"pointwise-audit/{a.name}-{b.name}",
            inputs=(("source", a.name), ("target", b.name),
                    ("straight-size", str(audit.straight.size)),
                    ("anti-size", str(audit.anti.size))),
            checks=tuple(checks),
            notes=("FAIL lines report that the pointwise ring claim does not "
                   "hold for this instance; the witnesses reproduce it",),
        )
        return _emit(_bundle(config, [rep]), args.format)
    if args.which == "natural-an-map":
        r = reg.ring(args.ring)
        ideal = reg.ideal(r, args.ideal)
        nat = natural_an_map(r, ideal, config.bound)
        rep = TheoremReport(
            theorem=f"natural-map/{r.name}",
            inputs=(("ring", r.name), ("ideal", ",".join(map(str, ideal.members)))),
            checks=(
                check("defined-on-whole-domain", nat.well_defined),
                check("lands-in-anti-set", nat.lands_in_anti_set,
                      witness=nat.witness),
                check("respects-pointwise-sum", nat.additive),
                check("respects-pointwise-product", nat.multiplicative),
            ),
        )
        return _emit(_bundle(config, [rep]), args.format)
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
    args.corpus = getattr(args, "corpus", None) or []
    args.bound = getattr(args, "bound", 10 ** 6)
    args.seed = getattr(args, "seed", 2024)
    args.format = getattr(args, "format", "text")
    config = RunConfig(corpus_paths=tuple(args.corpus), bound=args.bound,
                       seed=args.seed, output_format=args.format)
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
    except (AlgebraError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
