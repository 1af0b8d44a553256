"""Regenerate `pins.json`, the known answers the benchmark checks against.

    python3 perfbench/make_pins.py

Hom counts |Hom(A, B)| are pinned per pair of isomorphism classes. Each
count comes from the full map-space scan (`kernels.scan_morphism_space`)
when |B|^|A| is at most SCAN_LIMIT; above that, from an independent
generator-image search written here. Abelian pairs are cross-checked
against prod gcd(m_i, n_j), and both oracles must agree wherever both run.
The audit exit codes are the ones the pointwise-ring audit is designed to
return (1 where the pointwise ring claim fails on that pair).

"generating_set_sizes" gives, per isomorphism class, the exact share of
uniform relabelings under which antimorph's greedy generating set has each
size. Under a uniform relabeling each greedy pick is uniform over the
elements not yet covered, so the shares follow by recursion over the
subgroups the picks generate.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from antimorph import cli, kernels  # noqa: E402
from antimorph.corpus import group_corpus  # noqa: E402
from antimorph.groups import direct_product  # noqa: E402

from inputs import CORPUS_CLASSES, PRODUCT_CLASSES, RINGS, generated  # noqa: E402

SCAN_LIMIT = 2 ** 21
REPORT_DIGEST = "30227f4c3ab12dce1094a8f03187ca1d51d784e3219554b0da2569813c13eb1a"
REPORT_RECORDS = 2149

# cyclic invariant factors of the abelian classes
ABELIAN = {"z2": (2,), "z3": (3,), "z4": (4,), "z6": (6,), "v4": (2, 2),
           "z12": (12,), "z2xz4": (2, 4), "z2xz6": (2, 6), "z3xz3": (3, 3)}


def representatives() -> dict:
    corpus = group_corpus()
    reps = {cls: corpus[name] for name, cls in CORPUS_CLASSES.items()}
    for cls, factors in PRODUCT_CLASSES.items():
        left, right = factors[0]
        reps[cls] = direct_product(corpus[left], corpus[right])[0]
    return reps


def scan_count(a, b) -> int:
    homs, _ = kernels.scan_morphism_space(
        a.order, b.order, kernels.flatten(a.cayley), kernels.flatten(b.cayley))
    return len(homs)


def generator_count(a, b) -> int:
    """Assign images to a generating set found by closure, extend along
    words, and keep the assignments whose extension is multiplicative."""
    gens, closed = [], {a.identity}
    for x in a.elements():
        if x not in closed:
            gens.append(x)
            closed = generated(a, gens)
    count = 0
    for images in itertools.product(b.elements(), repeat=len(gens)):
        f = {a.identity: b.identity}
        frontier = [a.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g, img in zip(gens, images):
                    y = a.mul(x, g)
                    if y not in f:
                        f[y] = b.mul(f[x], img)
                        nxt.append(y)
            frontier = nxt
        if all(f[a.mul(x, y)] == b.mul(f[x], f[y]) for x in a.elements() for y in a.elements()):
            count += 1
    return count


def size_shares(g) -> dict:
    """size -> share of uniform relabelings of g whose greedy generating set
    has that many elements."""
    @functools.lru_cache(maxsize=None)
    def shares(covered: frozenset) -> dict:
        if len(covered) == g.order:
            return {0: 1.0}
        rest = [x for x in g.elements() if x not in covered]
        out: dict = {}
        for x in rest:
            for size, share in shares(frozenset(generated(g, [*covered, x]))).items():
                out[size + 1] = out.get(size + 1, 0.0) + share / len(rest)
        return out

    return dict(sorted(shares(frozenset([g.identity])).items()))


def hom_counts() -> dict:
    reps = representatives()
    out = {}
    for (ca, a), (cb, b) in itertools.product(sorted(reps.items()), repeat=2):
        counts = {"generators": generator_count(a, b)}
        if b.order ** a.order <= SCAN_LIMIT:
            counts["scan"] = scan_count(a, b)
        if ca in ABELIAN and cb in ABELIAN:
            counts["gcd"] = math.prod(math.gcd(m, n) for m in ABELIAN[ca] for n in ABELIAN[cb])
        if len(set(counts.values())) != 1:
            raise SystemExit(f"oracles disagree on {ca}->{cb}: {counts}")
        out[f"{ca}->{cb}"] = counts["generators"]
    return out


def audit_codes() -> dict:
    out = {}
    for a, b in itertools.product(RINGS, repeat=2):
        with contextlib.redirect_stdout(io.StringIO()):
            out[f"{a}->{b}"] = cli.main(["audit", "pointwise-ring", "--ring", a, "--target", b])
    return out


def main() -> None:
    pins = {
        "report": {"sha256": REPORT_DIGEST, "records": REPORT_RECORDS, "exit": 0},
        "hom_counts": hom_counts(),
        "audit_exit": audit_codes(),
        "generating_set_sizes": {cls: size_shares(g)
                                 for cls, g in sorted(representatives().items())},
    }
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
