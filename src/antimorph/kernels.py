"""The hot table loops: map-space scan, batch classification, associativity.

Tables are flat row-major lists of element indices.

Classification codes: bit 1 set when the map satisfies the product-preserving
law, bit 2 set when it satisfies the product-reversing law.
"""

from __future__ import annotations

BACKEND = "pure"

HOM_BIT = 1
ANTI_BIT = 2


def flatten(table):
    """Row-major flattening of a square table."""
    return [v for row in table for v in row]


def _classify(images, n, m, cay_a, cay_b):
    """Classify one map A -> B given flat Cayley tables; returns the law bitmask."""
    code = HOM_BIT | ANTI_BIT
    for x in range(n):
        fx = images[x]
        row = x * n
        for y in range(n):
            z = images[cay_a[row + y]]
            fy = images[y]
            if code & HOM_BIT and cay_b[fx * m + fy] != z:
                code &= ~HOM_BIT
            if code & ANTI_BIT and cay_b[fy * m + fx] != z:
                code &= ~ANTI_BIT
            if not code:
                return 0
    return code


def scan_morphism_space(n, m, cay_a, cay_b):
    """Brute force over all m**n maps; returns (hom_tables, anti_tables).

    Output tables are tuples in odometer (lexicographic) order. A map
    satisfying both laws appears in both lists.
    """
    homs = []
    antis = []
    f = [0] * n
    if n == 0:
        return [()], [()]
    while True:
        code = _classify(f, n, m, cay_a, cay_b)
        if code & HOM_BIT:
            homs.append(tuple(f))
        if code & ANTI_BIT:
            antis.append(tuple(f))
        i = n - 1
        while i >= 0:
            f[i] += 1
            if f[i] < m:
                break
            f[i] = 0
            i -= 1
        if i < 0:
            return homs, antis


def associativity_witness(n, table):
    """First (x, y, z) with (x*y)*z != x*(y*z), or None."""
    for x in range(n):
        row_x = x * n
        for y in range(n):
            xy = table[row_x + y]
            row_xy = xy * n
            row_y = y * n
            for z in range(n):
                if table[row_xy + z] != table[row_x + table[row_y + z]]:
                    return (x, y, z)
    return None


def compose_classify_pairs(n_a, n_c, cay_a, cay_c, left_tables, right_tables):
    """Classify g∘f for every f in left_tables (A->B) and g in right_tables (B->C).

    Returns a flat list of law bitmasks indexed by i * len(right_tables) + j.
    Every pair's composite is built; each distinct composite is classified
    once, and the memo lives only for this call.
    """
    out = []
    codes = {}
    for f in left_tables:
        for g in right_tables:
            comp = tuple([g[fx] for fx in f])
            code = codes.get(comp)
            if code is None:
                code = codes[comp] = _classify(comp, n_a, n_c, cay_a, cay_c)
            out.append(code)
    return out
