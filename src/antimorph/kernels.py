"""The hot table loops: map-space scan, batch classification, product
tables of maps, closures and generating plans, associativity.

Cayley tables are flat row-major lists of element indices, except for
`closure`, `closed_sets`, `generating_plan` and `associativity_witness`,
which read a table as its rows. A map is the tuple of its images.

Classification codes: bit 1 set when the map satisfies the product-preserving
law, bit 2 set when it satisfies the product-reversing law.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

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
    """Every one of the m**n maps is decided; returns (hom_tables, anti_tables).

    Output tables are tuples in odometer (lexicographic) order. A map
    satisfying both laws appears in both lists.

    The odometer runs depth first over f(0), f(1), ..., f(n-1), as one loop
    over the depth k, so a scan leaves no reference cycle behind. Each pair
    (x, y, x*y) is checked once, when the largest of its three elements is
    assigned, against each law still alive on the path. A prefix on which
    both laws have failed decides every map that extends it, so its subtree
    is not entered. Only the two tables are read: no identity, inverse or
    generating set, so any two binary operations can be scanned.
    """
    if n == 0:
        return [()], [()]
    buckets = [[] for _ in range(n)]
    for x, y in itertools.product(range(n), repeat=2):
        z = cay_a[x * n + y]
        buckets[max(x, y, z)].append((x, y, z))
    homs = []
    antis = []
    f = [0] * n
    f[0] = -1
    laws = [(True, True)] * n   # laws[k]: (hom, anti) still alive on f[:k]
    last = n - 1
    k = 0
    while k >= 0:
        v = f[k] + 1
        if v == m:
            k -= 1
            continue
        f[k] = v
        h, a = laws[k]
        for x, y, z in buckets[k]:
            fx, fy, fz = f[x], f[y], f[z]
            if h and cay_b[fx * m + fy] != fz:
                h = False
            if a and cay_b[fy * m + fx] != fz:
                a = False
            if not (h or a):
                break
        else:
            if k == last:
                if h:
                    homs.append(tuple(f))
                if a:
                    antis.append(tuple(f))
            else:
                k += 1
                laws[k] = (h, a)
                f[k] = -1
    return homs, antis


def reader(indices):
    """The function t ↦ tuple(t[i] for i in indices), run in C.

    `operator.itemgetter` returns a bare value for a single index and takes
    no empty index list, so those get plain functions that keep the tuple.
    """
    if not indices:
        return lambda t: ()
    if len(indices) == 1:
        (i,) = indices
        return lambda t: (t[i],)
    return itemgetter(*indices)


def product_table(tables, through):
    """The closure-checked operation table of a set of maps given as tables.

    Returns (rows, None) with rows[i][j] the index of tables[i] read through
    through[j]; or (None, (i, j)) for the first pair in row-major order whose
    product is not among the tables. With `through` the tables themselves
    the operation is composition, tables[i]∘tables[j].
    """
    index = {t: k for k, t in enumerate(tables)}
    readers = [reader(t) for t in through]
    rows = []
    for i, p in enumerate(tables):
        row = [index.get(via(p)) for via in readers]
        if None in row:
            return None, (i, row.index(None))
        rows.append(row)
    return rows, None


def closure(ops, maps, closed, new):
    """The least superset of the closed set `closed` and of `new` that is
    closed under each binary table in `ops` and each unary table in `maps`.

    Semi-naive: each element found is combined, in both orders, only with
    itself and the elements known before it: pairs within `closed`, or
    pairs met in an earlier round, are not formed again.
    Returns (members, plan): the sorted tuple of members, and one
    (z, k, x, y) per derived element in the order found, its operands known
    before it: z = ops[k][x][y], or for k >= len(ops), z = maps[k -
    len(ops)][x] with y None. The elements of `new` are not listed.
    """
    known, done, plan = set(closed), list(closed), []
    queue = [x for x in dict.fromkeys(new) if x not in known]
    known.update(queue)

    def derive(z, k, x, y):
        known.add(z)
        queue.append(z)
        plan.append((z, k, x, y))

    for x in queue:                 # the queue grows as elements are found
        done.append(x)
        for k, op in enumerate(ops):
            row_x = op[x]
            for y in done:
                if row_x[y] not in known:
                    derive(row_x[y], k, x, y)
                if op[y][x] not in known:
                    derive(op[y][x], k, y, x)
        for k, t in enumerate(maps, len(ops)):
            if t[x] not in known:
                derive(t[x], k, x, None)
    return tuple(sorted(known)), plan


def closed_sets(ops, maps, bottom):
    """Every set containing `bottom` and closed under `ops` and `maps`, as
    a sorted tuple of sorted tuples. Each closed set found is extended by
    every element outside it (the cyclic extension method); this reaches
    every closed set T, as the closure of a smaller one in T and one more
    element of T."""
    least = closure(ops, maps, (), bottom)[0]
    found = {least}
    frontier = [least]
    while frontier:
        s = frontier.pop()
        inside = set(s)
        for x in range(len(ops[0])):
            if x not in inside:
                t = closure(ops, maps, s, (x,))[0]
                if t not in found:
                    found.add(t)
                    frontier.append(t)
    return tuple(sorted(found))


def generating_plan(ops, base):
    """Greedy generators of an algebra A under its operation tables, and one
    (plan, members, before) stage for the base and for each generator.

    Each generator is the least element not in the closure of the base and
    the generators before it. A stage is one `closure` call: its plan lists
    (z, k, i, j) with z = ops[k][i][j] in evaluation order; `members` is the
    sorted closed subset known after the stage and `before` the set known
    before it. Stage k + 1 begins with gens[k], which its plan does not list.
    """
    n = len(ops[0])
    gens, stages = [], []
    members, before, new = (), set(), base
    while True:
        members, plan = closure(ops, (), members, new)
        stages.append((plan, members, before))
        if len(members) == n:
            return gens, stages
        before = set(members)
        gens.append(min(x for x in range(n) if x not in before))
        new = (gens[-1],)


def associativity_witness(rows):
    """First (x, y, z) in lexicographic order with (x*y)*z != x*(y*z), or None.

    `rows[x][y]` is x*y, every entry in range(len(rows)). The check goes row
    by row: for each (x, y), the row of x*y must equal the row of y read
    through the row of x, since (x*y)*z is rows[x*y][z] and x*(y*z) is
    rows[x][rows[y][z]]. Every triple is still compared.
    """
    rows = [tuple(row) for row in rows]
    through = [reader(row) for row in rows]
    for x, row_x in enumerate(rows):
        for y, xy in enumerate(row_x):
            if rows[xy] != through[y](row_x):
                row_y = rows[y]
                for z, v in enumerate(rows[xy]):
                    if v != row_x[row_y[z]]:
                        return (x, y, z)
    return None


def composite_set(left_tables, right_tables):
    """The set of composites g∘f for f in left_tables (A->B) and g in
    right_tables (B->C), each g read through f in C."""
    composites = set()
    for f in left_tables:
        composites.update(map(reader(f), right_tables))  # g∘f for every g
    return composites


def classify_new(tables, n_a, n_c, cay_a, cay_c, codes):
    """Adds to the memo `codes` the law bitmask of each table not in it."""
    for t in tables.difference(codes):
        codes[t] = _classify(t, n_a, n_c, cay_a, cay_c)


def compose_classify_pairs(n_a, n_c, cay_a, cay_c, left_tables, right_tables,
                           codes):
    """`composite_set(left_tables, right_tables)`, each composite with its
    law bitmask in `codes`, the caller's memo: a composite is classified
    once for as long as the caller keeps the memo."""
    composites = composite_set(left_tables, right_tables)
    classify_new(composites, n_a, n_c, cay_a, cay_c, codes)
    return composites
