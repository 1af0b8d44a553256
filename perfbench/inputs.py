"""Seeded inputs for the group-sections and cli-queries workloads.

Every group is a random relabeling of a bundled corpus group or of a direct
product of two of them, built through antimorph's own constructors. A
relabeling keeps the isomorphism class, so the hom counts pinned per class
in `pins.json` hold for every seed, while the identity's index, the
generating set and the order of every enumeration change with the seed.

Enumeration tries |B|^|generators| candidates, and the size of antimorph's
greedy generating set depends on the labeling, so one labeling of a group
can cost several times another. Relabelings are therefore stratified by
that size: `pins.json` holds, per isomorphism class, the share of uniform
relabelings whose greedy generating set has each size, and the relabelings
of one group within a pass take the sizes in those shares (systematic
sampling). Every size, the worst ones too, keeps its share of the work, and
a pass does not hang on one lucky or unlucky draw.
"""

from __future__ import annotations

import random
from pathlib import Path

from antimorph.corpus import group_corpus
from antimorph.formats import emit_group
from antimorph.groups import (
    Subgroup,
    direct_product,
    is_normal,
    quotient,
    subgroup_closure,
    validate_group,
)

# corpus name -> isomorphism class
CORPUS_CLASSES = {
    "z2": "z2", "z3": "z3", "z4": "z4", "z6": "z6", "s3": "s3",
    "d4": "d4", "q8": "q8", "z2xz2": "v4",
}

# class -> the factor pairs whose direct product lands in it (order <= 12).
# (Z2)^3 is left out: its 512 anti-endomorphisms make the star-monoid
# section a 512^3 scan.
PRODUCT_CLASSES = {
    "z6": (("z2", "z3"), ("z3", "z2")),
    "d6": (("z2", "s3"), ("s3", "z2")),
    "z12": (("z3", "z4"), ("z4", "z3")),
    "z2xz4": (("z2", "z4"), ("z4", "z2")),
    "z2xz6": (("z2", "z6"), ("z6", "z2"), ("z3", "z2xz2"), ("z2xz2", "z3")),
    "z3xz3": (("z3", "z3"),),
}

# group-sections: the 8 corpus groups plus one product of each class here,
# relabeled SECTION_ROUNDS times per pass
SECTION_PRODUCTS = ("z6", "d6")
SECTION_ROUNDS = 2
# cli-queries: the corpus groups plus these products
QUERY_PRODUCTS = ("z6", "d6", "z12", "z2xz4", "z2xz6", "z3xz3")

RINGS = ("z4", "f4", "z2xz2", "t2f2", "m2f2")


def generated(g, gens) -> set:
    """The elements of the subgroup of g generated by `gens`."""
    seen = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = g.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def greedy_size(g, label: list) -> int:
    """The size of antimorph's `generating_set` for g renumbered by `label`
    (element -> new index): it takes the uncovered element of least index
    until the generated subgroup is all of g."""
    gens, covered = [], {g.identity}
    for x in sorted(g.elements(), key=label.__getitem__):
        if x not in covered:
            gens.append(x)
            covered = generated(g, gens)
    return len(gens)


def relabel(g, rng: random.Random, name: str, size: int):
    """g renumbered by a permutation drawn uniformly from those under which
    its greedy generating set has `size` elements."""
    label = list(range(g.order))
    rng.shuffle(label)
    while greedy_size(g, label) != size:
        rng.shuffle(label)
    table = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            table[label[a]][label[b]] = label[g.cayley[a][b]]
    return validate_group(table, name)


def strata(shares: dict, rounds: int, rng: random.Random) -> list:
    """Greedy generating-set sizes for `rounds` relabelings of one group, in
    random order. `shares` maps each size to its share of uniform
    relabelings; systematic sampling makes each size appear shares * rounds
    times on average, and never more than one time off that."""
    offset = rng.random()
    sizes = sorted(shares, key=int)
    picks = []
    for j in range(rounds):
        u, cumulative = (j + offset) / rounds, 0.0
        for size in sizes:
            cumulative += shares[size]
            if u < cumulative:
                break
        picks.append(int(size))
    rng.shuffle(picks)
    return picks


def group_sets(rng: random.Random, products, prefix: str, shares: dict,
               rounds: int) -> list:
    """`rounds` dicts name -> (group, isomorphism class), each holding a
    relabeling of every corpus group, then of one product of each class in
    `products`. `shares` is `pins.json`'s "generating_set_sizes"."""
    corpus = group_corpus()
    slots = [(f"{prefix}{base}", corpus[base], cls) for base, cls in CORPUS_CLASSES.items()]
    for cls in products:
        left, right = rng.choice(PRODUCT_CLASSES[cls])
        product, _, _ = direct_product(corpus[left], corpus[right])
        slots.append((f"{prefix}{left}{right}", product, cls))
    out = [{} for _ in range(rounds)]
    for name, g, cls in slots:
        for r, size in enumerate(strata(shares[cls], rounds, rng)):
            out[r][name] = (relabel(g, rng, name, size), cls)
    return out


def section_groups(seed: int, pass_index: int, shares: dict) -> list:
    rng = random.Random(f"group-sections/{seed}/{pass_index}")
    return group_sets(rng, SECTION_PRODUCTS, "g", shares, SECTION_ROUNDS)


def subgroups(g) -> list:
    """Every subgroup generated by at most two elements, sorted."""
    found = {subgroup_closure(g, (x, y)).members
             for x in g.elements() for y in g.elements() if x <= y}
    return [Subgroup(g, members) for members in sorted(found)]


def members(sub) -> str:
    return ",".join(str(x) for x in sub.members)


class QueryCorpus:
    """A generated --corpus directory and a shuffled query stream over it.

    Each query is (argv, expected exit code, kind, detail); `detail` holds
    the pinned-count key for enumerations.
    """

    def __init__(self, seed: int, pass_index: int, directory: Path, pins: dict):
        self.directory = directory
        rng = random.Random(f"cli-queries/{seed}/{pass_index}")
        self.groups = group_sets(rng, QUERY_PRODUCTS, "c", pins["generating_set_sizes"], 1)[0]
        directory.mkdir(parents=True, exist_ok=True)
        files = []
        for name, (g, _) in self.groups.items():
            files.append(self._write(f"{name}.grp", emit_group(g)))
        corpus_arg = ["--corpus", str(directory), "--format", "records"]
        queries = []

        # 250 queries: the three slowest of a pass are audits (about 190, 120
        # and 32 ms here), and with 2.5 queries a pass beyond the p99 the tail
        # falls midway into the third of them, not on the step between two.
        names = sorted(self.groups)
        for _ in range(15):
            picked = rng.sample(files, rng.randint(1, 3))
            queries.append((corpus_arg + ["validate", *map(str, picked)], 0, "validate", None))

        pairs = [(a, b) for a in names for b in names]
        for command in ("enum-homs", "enum-antihoms"):
            for a, b in rng.sample(pairs, 60):
                key = (self.groups[a][1], self.groups[b][1])
                queries.append((corpus_arg + [command, "--source", a, "--target", b],
                                0, "enum", key))

        subs = {name: subgroups(g) for name, (g, _) in self.groups.items()}
        normal = {name: [s for s in subs[name] if is_normal(self.groups[name][0], s)]
                  for name in names}
        third = [(name, a, n) for name in names for a in subs[name] for n in normal[name]]
        for name, a, n in rng.sample(third, 35):
            queries.append((corpus_arg + ["verify", "third-anti-iso", "--group", name,
                                          "--subgroup", members(a), "--normal", members(n)],
                            0, "verify", None))
        second = [(name, b, c) for name in names for b in normal[name] for c in normal[name]
                  if set(c.members) <= set(b.members)]
        for name, b, c in rng.sample(second, 35):
            queries.append((corpus_arg + ["verify", "second-anti-iso", "--group", name,
                                          "--sub-b", members(b), "--sub-c", members(c)],
                            0, "verify", None))

        factorizations = [(name, n) for name in names for n in normal[name]]
        for k, (name, n) in enumerate(rng.sample(factorizations, 20)):
            g = self.groups[name][0]
            q, proj = quotient(g, n)
            qname = f"q{k}{name}"
            self._write(f"{qname}.grp", emit_group(validate_group(q.cayley, qname)))
            images = [proj.images[g.inv(x)] for x in g.elements()]
            self._write(f"m{k}.map", f"map m{k} from {name} to {qname} variance anti\n"
                        + " ".join(map(str, images)) + "\n")
            inside = [m for m in normal[name] if set(m.members) <= set(n.members)]
            m = rng.choice(inside)
            queries.append((corpus_arg + ["verify", "anti-factorization", "--group", name,
                                          "--normal", members(m), "--map", f"m{k}"],
                            0, "verify", None))

        for a in RINGS:
            for b in RINGS:
                queries.append((corpus_arg + ["audit", "pointwise-ring", "--ring", a,
                                              "--target", b],
                                pins["audit_exit"][f"{a}->{b}"], "audit", None))
        rng.shuffle(queries)
        self.queries = queries

    def _write(self, filename: str, text: str) -> Path:
        path = self.directory / filename
        path.write_text(text)
        return path

    def remove(self) -> None:
        for path in self.directory.iterdir():
            path.unlink()
        self.directory.rmdir()
