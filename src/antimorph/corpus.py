"""Bundled desk-scale corpus: the groups, rings, and categories every
verification suite runs against.

The corpus is the `*.grp`, `*.rng` and `*.cat` files under `antimorph/data`.
Each is read through `formats.parse_text`, the parser `--corpus` input goes
through, so every structure is validated on load. The tests compare each
file with an independent builder.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .formats import parse_text
from .groups import FiniteGroup, Subgroup, subgroup_closure
from .rings import TWO_SIDED, FiniteRing, RingIdeal


def _load(suffix: str, names: tuple) -> dict:
    """The bundled `NAME.suffix` files, parsed, in the order of `names`."""
    data = resources.files("antimorph").joinpath("data")
    return {name: parse_text(data.joinpath(f"{name}.{suffix}").read_text("utf-8"))
            for name in names}


# -- groups -------------------------------------------------------------------


@lru_cache(maxsize=1)
def group_corpus() -> dict[str, FiniteGroup]:
    return _load("grp", ("z2", "z3", "z4", "z6", "s3", "d4", "q8", "z2xz2"))


# Named subgroups used by the theorem instances, given by generators.
SUBGROUP_GENS = {
    ("s3", "a3"): (3,),       # the 3-cycles
    ("s3", "s12"): (1,),      # transposition fixing point 0
    ("s3", "s01"): (2,),
    ("s3", "s02"): (5,),
    ("s3", "triv"): (),
    ("d4", "rot"): (1,),      # <r>, order 4
    ("d4", "rot2"): (3,),     # <r^2>, the center
    ("d4", "ref"): (2,),      # <s>, order 2
    ("d4", "triv"): (),
    ("q8", "center"): (1,),   # {1, -1}
    ("z4", "even"): (2,),     # {0, 2}
}


def named_subgroup(group_name: str, sub_name: str) -> Subgroup:
    g = group_corpus()[group_name]
    return subgroup_closure(g, SUBGROUP_GENS[(group_name, sub_name)])


# -- rings --------------------------------------------------------------------


@lru_cache(maxsize=1)
def ring_corpus() -> dict[str, FiniteRing]:
    return _load("rng", ("z4", "f4", "z2xz2", "t2f2", "m2f2"))


# Named ideals used by the theorem instances.
IDEAL_MEMBERS = {
    ("z4", "even"): (0, 2),
    ("z4", "zero"): (0,),
    ("t2f2", "strict"): (0, 2),  # strictly upper-triangular matrices
    ("t2f2", "zero"): (0,),
}


def named_ideal(ring_name: str, ideal_name: str) -> RingIdeal:
    r = ring_corpus()[ring_name]
    return RingIdeal(r, IDEAL_MEMBERS[(ring_name, ideal_name)], TWO_SIDED)


# -- categories ---------------------------------------------------------------


@lru_cache(maxsize=1)
def category_corpus():
    return _load("cat", ("arrow", "chain3", "meet", "monoid"))
