"""Vector spaces over F_{q^2} with Frobenius-twisted (semilinear) maps.

A map is a matrix plus a twist tag: straight maps act by v -> M v, twisted
(anti) maps by v -> M conj(v) where conj is the entrywise Frobenius x -> x^q.
Twists XOR under composition and the matrix rule conjugates the right
factor's matrix when the left factor is twisted.

The conjugation map is basis-dependent (the standard basis is fixed) and,
unlike group inversion, does not commute with arbitrary straight maps; the
verifiers therefore place conjugations where they cancel, so every diagram
equation below is checked as an exact equality of maps.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import xor

from .errors import AlgebraError, BoundExceeded, NotComposable, PreconditionFailed
from .maps import ANTI, STRAIGHT
from .verdict import TheoremReport, check

_IRREDUCIBLE = {2: (1, 1), 3: (0, 1)}  # t^2 + a*t + b over F_p


@dataclass(frozen=True)
class FieldFq2:
    """Arithmetic tables for F_{p^2}; index c1*p + c0 encodes c1*t + c0."""

    p: int
    order: int
    add: tuple
    mul: tuple
    neg: tuple
    inv: tuple           # multiplicative inverse; entry for 0 is 0
    frob: tuple          # x -> x^p
    names: tuple

    @classmethod
    @lru_cache(maxsize=None)
    def of_order(cls, n: int) -> "FieldFq2":
        p = {4: 2, 9: 3}.get(n)
        if p is None:
            raise AlgebraError(f"only orders 4 and 9 are supported, got {n}")
        a, b = _IRREDUCIBLE[p]

        def mul_poly(x, y):
            x1, x0 = divmod(x, p)
            y1, y0 = divmod(y, p)
            # (x1 t + x0)(y1 t + y0) with t^2 = -(a t + b)
            c2 = x1 * y1
            c1 = x1 * y0 + x0 * y1
            c0 = x0 * y0
            c1 = (c1 - c2 * a) % p
            c0 = (c0 - c2 * b) % p
            return c1 * p + c0

        def add_poly(x, y):
            x1, x0 = divmod(x, p)
            y1, y0 = divmod(y, p)
            return ((x1 + y1) % p) * p + (x0 + y0) % p

        add = tuple(tuple(add_poly(x, y) for y in range(n)) for x in range(n))
        mul = tuple(tuple(mul_poly(x, y) for y in range(n)) for x in range(n))
        neg = tuple(((-divmod(x, p)[0]) % p) * p + (-divmod(x, p)[1]) % p
                    for x in range(n))
        inv = [0] * n
        for x in range(1, n):
            inv[x] = next(y for y in range(1, n) if mul[x][y] == 1)
        frob = [0] * n
        for x in range(n):
            acc = x
            for _ in range(p - 1):
                acc = mul[acc][x]
            frob[x] = acc
        if n == 4:
            names = ("0", "1", "w", "w2")
        else:
            names = tuple(_linear_name(x, p) for x in range(n))
        f = cls(p, n, add, mul, neg, tuple(inv), tuple(frob), names)
        f._self_check()
        return f

    def _self_check(self) -> None:
        """Raise the engine-bug RuntimeError when the tables break a law of
        the Frobenius that the twisted maps rely on."""
        n, frob, mul = self.order, self.frob, self.mul
        laws = (
            ("frobenius must square to id", all(frob[frob[x]] == x for x in range(n))),
            ("frobenius must fix exactly the prime field",
             {x for x in range(n) if frob[x] == x} == set(range(self.p))),
            ("frobenius must be multiplicative",
             all(mul[frob[x]][frob[y]] == frob[mul[x][y]] for x in range(n) for y in range(n))),
        )
        broken = next((law for law, holds in laws if not holds), None)
        if broken is not None:
            raise RuntimeError(f"{self!r}: {broken}; this is an engine bug")

    def add_(self, a, b):
        return self.add[a][b]

    def mul_(self, a, b):
        return self.mul[a][b]

    def sub(self, a, b):
        return self.add[a][self.neg[b]]

    def conj(self, a):
        return self.frob[a]

    def name_of(self, a) -> str:
        return self.names[a]

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def __repr__(self) -> str:
        return f"FieldFq2(order={self.order})"


def _linear_name(x: int, p: int) -> str:
    c1, c0 = divmod(x, p)
    if c1 == 0:
        return str(c0)
    head = "w" if c1 == 1 else f"{c1}w"
    return head if c0 == 0 else f"{head}+{c0}"


# -- packed rows ---------------------------------------------------------------

# The largest table built: a scale table of `_row_tables` has q·q^width
# entries (rows of up to 7 entries over F4 and 4 over F9), an image table of
# `_image_table` q^rows (maps of up to 8 rows over F4 and 5 over F9).
_ROW_TABLE_LIMIT = 1 << 16


def _encode_row(q: int, row) -> int:
    """A row as a base-q integer, its first entry the most significant digit."""
    code = 0
    for x in row:
        code = code * q + x
    return code


@lru_cache(maxsize=None)
def _row_tables(order: int, width: int):
    """The packed-row tables of one (field order, row width), built on first
    use: `rows[code]` is the row's entries, `conj[code]` the code of its
    entrywise Frobenius, and `scale[a][code]` the code of a times the row.

    Keyed by the order, not the field: hashing the frozen field walks all of
    its tables. No table holds more than q·q^width entries, so rows are added
    by `_row_adder`, not through a pair table.
    """
    if order ** (width + 1) > _ROW_TABLE_LIMIT:
        raise BoundExceeded(f"rows of {width} entries over F{order} are too wide to pack")
    field = FieldFq2.of_order(order)
    rows = tuple(itertools.product(range(order), repeat=width))
    conj = tuple([_encode_row(order, [field.frob[x] for x in row]) for row in rows])
    scale = tuple(tuple([_encode_row(order, [times[x] for x in row]) for row in rows])
                  for times in field.mul)
    return rows, conj, scale


def _row_adder(field: FieldFq2):
    """The sum of two packed rows: `^` in characteristic 2, where an F_4
    digit is two bits, else a loop over the digits."""
    return xor if field.p == 2 else partial(_add_rows, field)


def _add_rows(field: FieldFq2, x: int, y: int) -> int:
    q, add = field.order, field.add
    total, place = 0, 1
    while x or y:
        x, dx = divmod(x, q)
        y, dy = divmod(y, q)
        total += add[dx][dy] * place
        place *= q
    return total


def _image_table(field: FieldFq2, cols: int, codes: tuple) -> tuple:
    """The Four Russians table of a matrix given by its row codes: `table[c]`
    is the code of (the left row with code c) times the matrix, for every one
    of the q^rows left rows (Arlazarov et al. 1970; M4RM in Albrecht, Bard &
    Hart, ACM TOMS 2010).

    Built a digit at a time: the table of the first k rows, read with one
    more low digit, adds that digit's multiple of row k to each entry.
    """
    q = field.order
    if q ** len(codes) > _ROW_TABLE_LIMIT:
        raise BoundExceeded(f"maps of {len(codes)} rows over F{q} are too tall to tabulate")
    scale = _row_tables(q, cols)[2]
    plus = _row_adder(field)
    table = [0]
    for code in codes:
        multiples = [times[code] for times in scale]
        table = [plus(acc, m) for acc in table for m in multiples]
    return tuple(table)


# -- maps ----------------------------------------------------------------------


class SemilinearMap:
    """A rows x cols matrix over `field` with a twist tag; a value object.

    The stored form is `codes`, one base-q integer per row (`_encode_row`).
    `entries`, the matrix as a tuple of row tuples, is a view: the
    constructor keeps the entries it is given, and a map built from codes
    decodes them on first read. Treated as immutable: no code assigns to a
    map after construction. The class is slotted rather than a frozen
    dataclass because every product is a fresh map; the twisted hom grid,
    which compares hundreds of thousands of pairs, builds no map per pair:
    it reads whole hom sets through the rules `_product_table` and
    `_sum_rule`, as the wrappers do one map at a time. Besides the
    entries view, the slots filled later cache pure functions of the codes:
    `conj_codes` and the two image tables of `image_table`. Equality and
    hashing ignore `name` and the caches.
    """

    __slots__ = ("field", "rows", "cols", "codes", "twist", "name", "_entries", "_conj",
                 "_image", "_conj_image")

    def __init__(self, field: FieldFq2, rows: int, cols: int, entries: tuple,
                 twist: str = STRAIGHT, name: str = ""):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.codes = tuple([_encode_row(field.order, row) for row in entries])
        self.twist = twist
        self.name = name
        self._entries = entries    # rows x cols, tuple of row tuples
        self._conj = self._image = self._conj_image = None

    def _key(self) -> tuple:
        return (self.field.order, self.rows, self.cols, self.codes, self.twist)

    def __eq__(self, other):
        if other.__class__ is not SemilinearMap:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def entries(self) -> tuple:
        entries = self._entries
        if entries is None:
            rows = _row_tables(self.field.order, self.cols)[0]
            entries = self._entries = tuple([rows[c] for c in self.codes])
        return entries

    @property
    def is_anti(self) -> bool:
        return self.twist == ANTI

    def apply(self, v) -> tuple:
        k = self.field
        if self.is_anti:
            v = tuple(k.conj(x) for x in v)
        out = []
        for row in self.entries:
            acc = 0
            for j in range(self.cols):
                acc = k.add_(acc, k.mul_(row[j], v[j]))
            out.append(acc)
        return tuple(out)

    def conj_codes(self) -> tuple:
        """The row codes of the entrywise Frobenius, computed once per map."""
        conj = self._conj
        if conj is None:
            table = _row_tables(self.field.order, self.cols)[1]
            conj = self._conj = tuple([table[c] for c in self.codes])
        return conj

    def image_table(self, conjugated: bool = False) -> tuple:
        """`table[c]` is the row code of (the left row with code c) times this
        matrix, or times its conjugate; each table is built at most once per
        map."""
        if conjugated:
            if self._conj_image is None:
                self._conj_image = _image_table(self.field, self.cols, self.conj_codes())
            return self._conj_image
        if self._image is None:
            self._image = _image_table(self.field, self.cols, self.codes)
        return self._image

    def conj_entries(self) -> tuple:
        """The entrywise Frobenius of the matrix, decoded from `conj_codes`."""
        rows = _row_tables(self.field.order, self.cols)[0]
        return tuple([rows[c] for c in self.conj_codes()])

    def __repr__(self) -> str:
        label = self.name or "map"
        return f"{label}[{self.twist}]{self.rows}x{self.cols}"


def _packed(field, rows, cols, codes, twist, entries=None) -> SemilinearMap:
    """A map from its row codes; `entries`, when known, fills the view."""
    m = object.__new__(SemilinearMap)
    m.field = field
    m.rows = rows
    m.cols = cols
    m.codes = codes
    m.twist = twist
    m.name = ""
    m._entries = entries
    m._conj = m._image = m._conj_image = None
    return m


def matrix(field, entries, twist=STRAIGHT, name="") -> SemilinearMap:
    entries = tuple(tuple(row) for row in entries)
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    for row in entries:
        if len(row) != cols:
            raise AlgebraError("ragged matrix")
        for v in row:
            if not (0 <= v < field.order):
                raise AlgebraError(f"entry {v} outside the field")
    return SemilinearMap(field, rows, cols, entries, twist, name)


def zero_map(field, rows, cols, twist=STRAIGHT) -> SemilinearMap:
    return SemilinearMap(field, rows, cols,
                         tuple(tuple(0 for _ in range(cols)) for _ in range(rows)), twist)


def _identity(n: int) -> tuple:
    """The n x n identity matrix; its rows are the unit vectors of F^n."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def identity_map(field, n, twist=STRAIGHT) -> SemilinearMap:
    return SemilinearMap(field, n, n, _identity(n), twist)


def reverse_map(field, n) -> SemilinearMap:
    """The coordinate-conjugation map: identity matrix with the anti twist."""
    return identity_map(field, n, ANTI)


def mat_mul(field, a, b, cols):
    """Plain matrix product of entry tables (no twist bookkeeping); `b` has
    `cols` columns, which it cannot say itself when it has no rows. The
    entry-level reference that the packed `compose_semilinear` is checked
    against."""
    inner = len(b)
    if a and len(a[0]) != inner:
        raise NotComposable("inner dimensions differ")
    add, mul = field.add, field.mul
    b_cols = tuple(zip(*b)) if inner else ((),) * cols
    out = []
    for a_row in a:
        row = []
        for b_col in b_cols:
            acc = 0
            for x, y in zip(a_row, b_col):
                acc = add[acc][mul[x][y]]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def compose_semilinear(g: SemilinearMap, f: SemilinearMap) -> SemilinearMap:
    """g after f; twists XOR; the right matrix is conjugated when g is twisted."""
    if f.field is not g.field or f.rows != g.cols:
        raise NotComposable(f"cannot compose {g!r} after {f!r}")
    table, twist = _product_table(g.twist, f)
    return _packed(g.field, g.rows, f.cols, tuple([table[c] for c in g.codes]), twist)


def _product_table(g_twist: str, f: SemilinearMap) -> tuple:
    """The composition rule a row at a time: (table, twist) such that, for
    every left factor g of twist `g_twist` that composes with f, row i of g∘f
    is `table[c]` for c the code of g's row i, and g∘f has `twist`.

    The table is f's image table, the conjugated one when g is twisted; the
    twist is the XOR of the two.
    """
    # the slot reads spare the hot path a method call; a table is never empty
    if g_twist == ANTI:
        return f._conj_image or f.image_table(True), STRAIGHT if f.twist == ANTI else ANTI
    return f._image or f.image_table(), f.twist


def add_semilinear(f: SemilinearMap, g: SemilinearMap) -> SemilinearMap:
    if f.field is not g.field or f.rows != g.rows or f.cols != g.cols \
            or f.twist != g.twist:
        raise NotComposable("can only add maps of equal field, shape and twist")
    plus, twist = _sum_rule(f.field, f.twist)
    return _packed(f.field, f.rows, f.cols, tuple(map(plus, f.codes, g.codes)), twist)


def _sum_rule(field: FieldFq2, twist: str) -> tuple:
    """The addition rule a row at a time: (plus, twist) such that, for any
    two maps of twist `twist` and one shape over `field`, row i of their sum
    is `plus(x, y)` for x and y the codes of their rows i, and the sum has
    `twist`."""
    return _row_adder(field), twist


def star_compose_semilinear(g: SemilinearMap, f: SemilinearMap) -> SemilinearMap:
    """(g∘f)∘conj on the source; see the module note on its law defects here."""
    if not (g.is_anti and f.is_anti):
        raise NotComposable("star composition takes two twisted maps")
    return compose_semilinear(compose_semilinear(g, f), reverse_map(f.field, f.cols))


def corresponding_twisted(f: SemilinearMap) -> SemilinearMap:
    """f ↦ f∘conj: same matrix, twist flipped to anti."""
    return _packed(f.field, f.rows, f.cols, f.codes, ANTI, f._entries)


def random_map(field, rows, cols, twist, rng: random.Random) -> SemilinearMap:
    if rng.random() < 0.5 and rows and cols:
        r = rng.randrange(0, min(rows, cols) + 1)  # planted rank
        a = [[rng.randrange(field.order) for _ in range(r)] for _ in range(rows)]
        b = [[rng.randrange(field.order) for _ in range(cols)] for _ in range(r)]
        ent = mat_mul(field, tuple(map(tuple, a)), tuple(map(tuple, b)), cols)
    else:
        ent = tuple(tuple(rng.randrange(field.order) for _ in range(cols))
                    for _ in range(rows))
    return SemilinearMap(field, rows, cols, ent, twist)


# -- row reduction ---------------------------------------------------------------


def rref(field, m):
    """Reduced row echelon form and pivot columns."""
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = field.inv[rows[r][c]]
        rows[r] = [field.mul_(scale, v) for v in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [field.sub(rows[i][j], field.mul_(factor, rows[r][j]))
                           for j in range(nc)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank_of(f: SemilinearMap) -> int:
    return len(rref(f.field, f.entries)[1]) if f.rows and f.cols else 0


def kernel_basis(f: SemilinearMap):
    """Echelonized basis of the matrix nullspace (the kernel of the
    corresponding straight map)."""
    field = f.field
    n = f.cols
    red, pivots = rref(field, f.entries)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = field.neg[red[r][fc]]
        basis.append(tuple(v))
    return span_basis(field, basis)


def image_basis(f: SemilinearMap):
    """Echelonized basis of the column space."""
    return span_basis(f.field, zip(*f.entries))


def span_basis(field, vectors):
    """Canonical (reduced-echelon) basis of a span."""
    vectors = [v for v in vectors if any(x != 0 for x in v)]
    if not vectors:
        return ()
    red, pivots = rref(field, vectors)
    return tuple(red[i] for i in range(len(pivots)))


def in_span(field, basis, v) -> bool:
    return len(span_basis(field, list(basis) + [v])) == len(basis)


def solve(field, a, b, cols):
    """One solution X of A X = B, or None when the system has none.

    One `rref` of [A | B]. A pivot in the B block is a row 0 = nonzero, so
    there is no solution. Otherwise row p of X is the B part of the pivot
    row of column p, and the free unknowns are 0: when A has full column
    rank this is the unique solution. `cols` is A's number of columns,
    which an A with no rows cannot tell.
    """
    red, pivots = rref(field, [a_row + b_row for a_row, b_row in zip(a, b)])
    if pivots and pivots[-1] >= cols:
        return None
    x = [(0,) * (len(b[0]) if b else 0)] * cols
    for row, p in zip(red, pivots):
        x[p] = row[cols:]
    return tuple(x)


def invert_matrix(field, m):
    """The inverse of the square matrix m, or None when m is singular:
    A X = I has a solution exactly when m is invertible, and a singular m
    leaves a pivot in the identity block."""
    return solve(field, m, _identity(len(m)), len(m))


# -- quotients -------------------------------------------------------------------


def quotient_space(field, n, subspace_basis):
    """F^n modulo a subspace, with explicit coordinates: (projection,
    section), a straight surjection F^n -> F^(n-k) and a straight right
    inverse of it.

    The complement is spanned by the unit vectors e_j, j going up, that lie
    outside the span of the subspace and the e_i chosen before them. That
    holds exactly when no subspace vector has its last nonzero entry at j,
    so the chosen j are those outside the pivots of the basis read with its
    columns reversed: one elimination. The section sends the quotient's
    coordinates to the complement; the projection is the complement part
    of the inverse basis change [complement | subspace basis].
    """
    basis = span_basis(field, subspace_basis)
    k = len(basis)
    ends = {n - 1 - c for c in rref(field, [v[::-1] for v in basis])[1]}
    keep = [j for j in range(n) if j not in ends]
    unit = _identity(n)
    inv = invert_matrix(field, tuple(zip(*(unit[j] for j in keep), *basis)))
    sect_entries = tuple(tuple(row[j] for j in keep) for row in unit)
    proj = SemilinearMap(field, n - k, n, inv[:n - k], STRAIGHT)
    sect = SemilinearMap(field, n, n - k, sect_entries, STRAIGHT)
    return proj, sect


# -- canonical factorization -------------------------------------------------------


def factor_sequence(f: SemilinearMap):
    """Split f as injection ∘ middle ∘ surjection, read off one echelon form.

    This is the rank factorization f = C·R of the matrix (Piziak & Odell,
    Math. Magazine 72(3), 1999): R, the nonzero rows of f's reduced echelon
    form, is the surjection, and C, f's pivot columns, is the injection. The
    middle is the rank-sized identity carrying f's twist; the outer maps are
    straight. For a twisted f the surjection is conj(R), whose kernel is
    the set of vectors f actually kills (the conjugate of the matrix
    nullspace); the twisted middle conjugates it back, so the composite is
    C·R with f's twist. Nothing here checks that product: a broken
    factorization is the FAIL of `composite-equals-map`, with its witness.
    """
    field = f.field
    red, pivots = rref(field, f.entries)
    r = len(pivots)
    proj = SemilinearMap(field, r, f.cols, red[:r], STRAIGHT)
    if f.is_anti:
        proj = SemilinearMap(field, r, f.cols, proj.conj_entries(), STRAIGHT)
    mid = identity_map(field, r, f.twist)
    j_entries = tuple(tuple(row[p] for p in pivots) for row in f.entries)
    incl = SemilinearMap(field, f.rows, r, j_entries, STRAIGHT)
    return proj, mid, incl


# -- verifiers ----------------------------------------------------------------------


def verify_quotient_image_iso(f: SemilinearMap) -> TheoremReport:
    """source/kernel is twisted-isomorphic to the image, through the map itself."""
    proj, mid, incl = factor_sequence(f)
    r = mid.rows
    composite = compose_semilinear(incl, compose_semilinear(mid, proj))
    proj_rank = rank_of(proj)
    incl_kernel = kernel_basis(incl)
    nullity, rank = len(kernel_basis(f)), rank_of(f)
    checks = [
        check("rank-nullity", f.cols == nullity + rank, witness=(f.cols, nullity, rank)),
        check("middle-twist", mid.twist == f.twist, witness=(mid.twist, f.twist)),
        check("middle-invertible", invert_matrix(f.field, mid.entries) is not None
              if r else True, witness=mid.entries),
        check("composite-equals-map", composite == f,
              witness=((composite.entries, composite.twist), (f.entries, f.twist))),
        check("projection-surjective", proj_rank == r, witness=(proj_rank, r)),
        check("inclusion-injective", not incl_kernel,
              witness=incl_kernel[0] if incl_kernel else None),
    ]
    # uniqueness by coordinates: any middle map making the triangle commute is
    # forced to incl \ (f ∘ section) for every section of the projection;
    # the witness is the first forced middle that differs from the actual one,
    # None when no middle makes the triangle commute. Sections and the solve
    # need a surjective projection and an injective inclusion, so the check
    # is made only when both hold.
    if proj_rank == r and not incl_kernel:
        moved = None
        if r:
            sect = _right_inverse(f.field, proj)
            shifted = _shift_section(f.field, sect, set_kernel_basis(f))
            for section in (sect,) if shifted is None else (sect, shifted):
                forced = solve(f.field, incl.entries,
                               compose_semilinear(f, section).entries, r)
                if forced is None or SemilinearMap(f.field, r, r, forced, f.twist) != mid:
                    moved = ((forced, f.twist), (mid.entries, mid.twist))
                    break
        checks.append(check("middle-determined-by-coordinates", moved is None,
                            witness=moved))
    return TheoremReport(
        theorem="quotient-image-twisted-iso",
        inputs=(("shape", f"{f.rows}x{f.cols}"), ("twist", f.twist)),
        checks=tuple(checks),
    )


def _shift_section(field, sect: SemilinearMap, kernel_vectors):
    """A second section differing from sect by a map into the kernel, or None."""
    if not kernel_vectors or sect.cols == 0:
        return None
    # the map sending every basis vector to the first kernel vector
    shift = tuple((x,) * sect.cols for x in kernel_vectors[0])
    return add_semilinear(sect, SemilinearMap(field, sect.rows, sect.cols, shift, STRAIGHT))


def set_kernel_basis(f: SemilinearMap):
    """Reduced echelon basis of {v : f(v) = 0} for the map's action: the
    matrix nullspace, conjugated entrywise for a twisted map. Conjugation
    fixes 0 and 1, so the conjugate of a reduced basis is the reduced basis
    of the conjugated span."""
    kern = kernel_basis(f)
    if not f.is_anti:
        return kern
    frob = f.field.frob
    return tuple(tuple(frob[x] for x in v) for v in kern)


def verify_twisted_factorization(f: SemilinearMap, mu: SemilinearMap) -> TheoremReport:
    """Unique twisted map through the quotient by an injected subspace killed by f."""
    field = f.field
    if mu.rows != f.cols or mu.is_anti:
        raise PreconditionFailed("mu must be a straight map into the source")
    if len(kernel_basis(mu)) != 0:
        raise PreconditionFailed("mu is not injective")
    comp = compose_semilinear(f, mu)
    if any(v != 0 for row in comp.entries for v in row):
        raise PreconditionFailed("f does not kill the injected subspace",
                                 witness=comp.entries)
    sub = image_basis(mu)
    pi, sect = quotient_space(field, f.cols, sub)
    psi = compose_semilinear(f, sect)  # candidate through-map, twist = f.twist
    recomposed = compose_semilinear(psi, pi)
    killed = kernel_basis(pi)
    # both bases are reduced, so the spans are equal exactly when the bases
    # are; else the first basis vector of either span outside the other
    outside = None if killed == sub else next(
        v for basis, other in ((killed, sub), (sub, killed))
        for v in basis if not in_span(field, other, v))
    checks = [
        check("through-map-twist", psi.twist == f.twist, witness=(psi.twist, f.twist)),
        check("through-map-composite", recomposed == f,
              witness=(recomposed.entries, f.entries)),
        check("projection-kernel-is-subspace", outside is None, witness=outside),
    ]
    # uniqueness: any candidate with candidate∘pi = f is forced to f∘section,
    # independently of which section is used
    shifted = _shift_section(field, sect, sub)
    moved = None
    if shifted is not None:
        via_shifted = compose_semilinear(f, shifted)
        if via_shifted != psi:
            moved = (via_shifted.entries, psi.entries)
    checks.append(check("uniqueness-via-section", moved is None, witness=moved))
    return TheoremReport(
        theorem="twisted-factorization",
        inputs=(("shape", f"{f.rows}x{f.cols}"), ("twist", f.twist),
                ("subspace-dim", str(len(sub)))),
        checks=tuple(checks),
    )


def verify_nested_quotient_iso(field, a_basis, b_basis, c_basis,
                               ambient: int) -> TheoremReport:
    """(A/C)/(B/C) is twisted-isomorphic to A/B for nested subspaces C ⊆ B ⊆ A."""
    a_basis = span_basis(field, a_basis)
    b_basis = span_basis(field, b_basis)
    c_basis = span_basis(field, c_basis)
    for v in c_basis:
        if not in_span(field, b_basis, v):
            raise PreconditionFailed("chain not nested: C is not inside B", witness=v)
    for v in b_basis:
        if not in_span(field, a_basis, v):
            raise PreconditionFailed("chain not nested: B is not inside A", witness=v)

    # work in coordinates on A
    dim_a = len(a_basis)
    b_in_a = [_coords_in_basis(field, a_basis, v) for v in b_basis]
    c_in_a = [_coords_in_basis(field, a_basis, v) for v in c_basis]

    pi_c = quotient_space(field, dim_a, c_in_a)[0]        # A -> A/C
    bc_basis = span_basis(field, [pi_c.apply(v) for v in b_in_a])
    tau = quotient_space(field, pi_c.rows, bc_basis)[0]   # A/C -> (A/C)/(B/C)
    rho = quotient_space(field, dim_a, b_in_a)[0]         # A -> A/B

    tp = compose_semilinear(tau, pi_c)                    # A -> (A/C)/(B/C)
    theta = compose_semilinear(rho, _right_inverse(field, tp))
    theta_tp = compose_semilinear(theta, tp)
    theta_inv_entries = invert_matrix(field, theta.entries)

    checks = [
        check("intermediate-dims",
              tau.rows == rho.rows,
              witness=(tau.rows, rho.rows)),
        check("straight-comparison-commutes", theta_tp == rho,
              witness=((theta_tp.entries, theta_tp.twist), (rho.entries, rho.twist))),
        check("straight-comparison-invertible", theta_inv_entries is not None,
              witness=theta.entries),
    ]
    if theta_inv_entries is not None:
        # twisted projection onto A/B (conjugation on the target side) and the
        # twisted comparison (conjugation on the source side): the two
        # conjugations cancel, so the square commutes exactly.
        rho_star = compose_semilinear(reverse_map(field, rho.rows), rho)
        xi = compose_semilinear(
            SemilinearMap(field, tau.rows, rho.rows, theta_inv_entries, STRAIGHT),
            reverse_map(field, rho.rows))
        square = compose_semilinear(xi, rho_star)
        checks.append(check("twisted-comparison-is-twisted", xi.is_anti, witness=xi.twist))
        checks.append(check("twisted-square-commutes", square == tp,
                            witness=(square.entries, tp.entries)))
        determined = compose_semilinear(tp, _right_inverse_of_action(field, rho_star))
        checks.append(check("uniqueness-via-surjectivity", determined == xi,
                            witness=((determined.entries, determined.twist),
                                     (xi.entries, xi.twist))))
    return TheoremReport(
        theorem="nested-quotient-twisted-iso",
        inputs=(("dims", f"{len(c_basis)}<={len(b_basis)}<={dim_a}<=F^{ambient}"),),
        checks=tuple(checks),
    )


def _coords_in_basis(field, basis, v):
    """The coordinates of v, which lies in the span, in a basis."""
    x = solve(field, tuple(zip(*basis)), tuple((val,) for val in v), len(basis))
    return tuple(row[0] for row in x)


def _right_inverse(field, f: SemilinearMap) -> SemilinearMap:
    """A straight right inverse of a surjective straight map."""
    sol = solve(field, f.entries, _identity(f.rows), f.cols)
    if sol is None:
        raise AlgebraError("inconsistent linear system")
    return SemilinearMap(field, f.cols, f.rows, sol, STRAIGHT)


def _right_inverse_of_action(field, f: SemilinearMap) -> SemilinearMap:
    """For a surjective map (either twist), a map s with f∘s = identity."""
    if not f.is_anti:
        return _right_inverse(field, f)
    straight = SemilinearMap(field, f.rows, f.cols, f.entries, STRAIGHT)
    s = _right_inverse(field, straight)
    return SemilinearMap(field, s.rows, s.cols, s.conj_entries(), ANTI)


def verify_mono_epi(f: SemilinearMap, max_dim: int = 2) -> TheoremReport:
    """Injectivity matches left-cancellation and surjectivity right-cancellation,
    tested against every straight map from/to spaces of dimension <= max_dim."""
    field = f.field
    if f.rows > max_dim or f.cols > max_dim:
        raise BoundExceeded(f"hom-set enumeration capped at dimension {max_dim}")
    injective = len(kernel_basis(f)) == 0
    surjective = rank_of(f) == f.rows
    mono_w = epi_w = None
    for dz in range(0, max_dim + 1):
        # each side stops at its first dz with a collision
        if mono_w is None:
            mono_w = _first_collision(dz, _all_matrices(field, f.cols, dz), lambda e: (
                compose_semilinear(f, SemilinearMap(field, f.cols, dz, e, STRAIGHT))))
        if epi_w is None:
            epi_w = _first_collision(dz, _all_matrices(field, dz, f.rows), lambda e: (
                compose_semilinear(SemilinearMap(field, dz, f.rows, e, STRAIGHT), f)))
    mono, epi = mono_w is None, epi_w is None
    checks = (
        check("mono-iff-injective", mono == injective, witness=mono_w),
        check("epi-iff-surjective", epi == surjective, witness=epi_w),
    )
    return TheoremReport(
        theorem="twisted-mono-epi",
        inputs=(("shape", f"{f.rows}x{f.cols}"), ("twist", f.twist)),
        checks=checks,
    )


def verify_twist_xor(field, count: int, seed: int) -> TheoremReport:
    """For `count` seeded pairs of twisted maps f, g, g∘f is straight with
    matrix G·conj(F) and acts as g after f on every vector. A failure names
    its first instance: (g, f) entries for a wrong twist or matrix, which is
    checked first, then (g, f, v) for a vector v acted on wrongly."""
    rng, w = random.Random(seed), None
    for _ in range(count):
        rows, mid, cols = (rng.randrange(0, 4) for _ in range(3))
        f = random_map(field, mid, cols, ANTI, rng)
        g = random_map(field, rows, mid, ANTI, rng)
        comp = compose_semilinear(g, f)
        if comp.twist != STRAIGHT \
                or comp.entries != mat_mul(field, g.entries, f.conj_entries(), cols):
            w = (g.entries, f.entries)
        else:
            w = next(((g.entries, f.entries, v)
                      for v in itertools.product(range(field.order), repeat=cols)
                      if comp.apply(v) != g.apply(f.apply(v))), None)
        if w is not None:
            break
    return TheoremReport(
        theorem="twist-xor-matrix-law",
        inputs=(("instances", str(count)), ("seed", str(seed))),
        checks=(check("composites-match-conjugated-product", w is None,
                      witness=w),),
    )


def _first_collision(dz, matrices, product):
    """The first (dz, v1, v2), v1 before v2 in the order of `matrices`, with
    product(v1) == product(v2); None when the products are pairwise distinct.

    Each product is computed once. The first pair starts at the least index
    whose product recurs, which is that product's first index, and ends at
    the product's second index.
    """
    matrices = list(matrices)
    first, second = {}, {}
    for j, e in enumerate(matrices):
        p = product(e)
        if p in first:
            second.setdefault(p, j)
        else:
            first[p] = j
    if not second:
        return None
    p = min(second, key=first.__getitem__)
    return dz, matrices[first[p]], matrices[second[p]]


def _all_matrices(field, rows, cols):
    if rows == 0 or cols == 0:
        yield tuple(tuple() for _ in range(rows))
        return
    cells = rows * cols
    for flat in itertools.product(range(field.order), repeat=cells):
        yield tuple(tuple(flat[i * cols + j] for j in range(cols))
                    for i in range(rows))


def bifunctor_grid_report(field, dims=(1, 2)) -> TheoremReport:
    """Straight/twisted hom-set comparison over a grid of spaces.

    Checks the counting identity, the additive-group isomorphism of the
    correspondence, and exact naturality: post-composition commutes with the
    source-side correspondence, pre-composition with the target-side one.
    The conjugation map is not central here, so the two one-sided star
    identities differ by a Frobenius twist; that defect is recorded as a note
    with a witness instead of being asserted away.

    Every (f, h) and (a, b) pair is decided exactly, none sampled. Row i of
    h∘f is row i of h read through `_product_table`'s table, row i of a + b
    is `_sum_rule`'s sum of the rows i, and `_all_matrices` lists a shape in
    the lexicographic order of its row codes. So the results for every h, or
    every b, are the Cartesian product of one list per row, whose first
    mismatch `_first_mismatch` reads off the lists: that index names
    the witness. `dims` are positive at every caller; an h of zero rows
    would hide any difference.
    """
    checks = []
    notes = []
    q2 = field.order
    # every straight map of each shape with its source-side twisted
    # counterpart, built once and shared by the checks below
    shapes = {(r, c): [(m, corresponding_twisted(m))
                       for m in (SemilinearMap(field, r, c, e, STRAIGHT)
                                 for e in _all_matrices(field, r, c))]
              for r in dims for c in dims}
    for dx in dims:
        for dy in dims:
            n_homs = len(shapes[(dy, dx)])
            n_expected = q2 ** (dx * dy)
            checks.append(check(f"count-{dx}x{dy}", n_homs == n_expected,
                                witness=(n_homs, n_expected)))
    # additive iso of the correspondence on the largest square, all pairs
    d = max(dims)
    every_row = range(q2 ** d)
    plus, _ = _sum_rule(field, STRAIGHT)
    plus_twisted, twisted = _sum_rule(field, ANTI)
    add_w = None
    for a, _ in shapes[(d, d)]:
        i = _first_mismatch([[plus(x, c) for c in every_row] for x in a.codes], ANTI,
                            [[plus_twisted(x, c) for c in every_row] for x in a.codes], twisted)
        if i is not None:
            add_w = (a.entries, _nth_matrix(field, d, d, i))
            break
    checks.append(check("correspondence-additive", add_w is None, witness=add_w))
    # naturality on all grid squares: post-composition against the
    # source-side correspondence f ↦ f∘conj, pre-composition against the
    # target-side one h ↦ conj∘h, whose matrix is the conjugate of h's. All
    # rows of h share one list, so the first failing h has dims[0] rows, zero
    # but the last, which holds the list's first mismatch j: index j.
    post_w = pre_w = None
    for dx in dims:
        conj = _row_tables(q2, dx)[1]
        for dy in dims:
            conj_rows = _row_tables(q2, dy)[1]
            for f, f_twisted in shapes[(dy, dx)]:
                table = _product_table(STRAIGHT, f)[0]
                if post_w is None:
                    post, twist = _product_table(STRAIGHT, f_twisted)
                    j = _first_mismatch([table], ANTI, [post], twist)
                    if j is not None:
                        post_w = (f.entries, _nth_matrix(field, dims[0], dy, j))
                if pre_w is None:
                    pre, twist = _product_table(ANTI, f)
                    j = _first_mismatch([[conj[c] for c in table]], ANTI,
                                        [[pre[c] for c in conj_rows]], twist)
                    if j is not None:
                        pre_w = (f.entries, _nth_matrix(field, dims[0], dy, j))
    checks.append(check("naturality-postcompose", post_w is None, witness=post_w))
    checks.append(check("naturality-precompose", pre_w is None, witness=pre_w))
    # right identity of the source-side star composition is exact
    rev = reverse_map(field, dims[0])
    rid_w = _first_moved(field, dims[0], lambda f: star_compose_semilinear(f, rev))
    checks.append(check("star-right-identity", rid_w is None, witness=rid_w))
    # the left identity picks up a conjugation: record the defect
    wit = _first_moved(field, dims[0], lambda f: star_compose_semilinear(rev, f))
    if wit is not None:
        notes.append(f"left star identity conjugates the matrix here: {wit}")
    return TheoremReport(
        theorem="twisted-hom-grid",
        inputs=(("dims", "x".join(str(d) for d in dims)),),
        checks=tuple(checks),
        notes=tuple(notes),
    )


def _first_mismatch(lefts, left_twist, rights, right_twist):
    """The index of the first tuple, in lexicographic order, at which the
    Cartesian products of `lefts` and `rights`, d lists of row codes of
    length B a side, differ, each side with one twist; None when they agree.

    A twist mismatch fails the first tuple. Otherwise zeroing the other rows
    of a differing tuple gives one no later that still differs. So the first
    is zero but for one row i, which holds that row's first mismatch j_i,
    and its index is the least j_i·B^(d−1−i).
    """
    if left_twist != right_twist:
        return 0
    base, d = len(lefts[0]), len(lefts)
    firsts = [next(j for j, (x, y) in enumerate(zip(xs, ys)) if x != y) * base ** (d - 1 - i)
              for i, (xs, ys) in enumerate(zip(lefts, rights)) if xs != ys]
    return min(firsts, default=None)


def _nth_matrix(field, rows, cols, i):
    """The i-th matrix of `_all_matrices(field, rows, cols)`."""
    return next(itertools.islice(_all_matrices(field, rows, cols), i, None))


def _first_moved(field, d, star):
    """The first twisted d x d matrix f, in enumeration order, with star(f) != f,
    paired with star(f)'s matrix; None when star fixes every one."""
    for fe in _all_matrices(field, d, d):
        f = SemilinearMap(field, d, d, fe, ANTI)
        moved = star(f)
        if moved != f:
            return fe, moved.entries
    return None


def generalized_suite(field=None, count: int = 50, seed: int = 2024,
                      max_dim: int = 4):
    """Seeded instance suite for the quotient/image, factorization, and nested
    quotient verifiers; returns the list of reports."""
    field = field or FieldFq2.of_order(4)
    rng = random.Random(seed)
    reports = []
    for _ in range(count):
        rows = rng.randrange(1, max_dim + 1)
        cols = rng.randrange(1, max_dim + 1)
        twist = ANTI if rng.random() < 0.7 else STRAIGHT
        f = random_map(field, rows, cols, twist, rng)
        reports.append(verify_quotient_image_iso(f))
        kern = set_kernel_basis(f)
        if kern:
            take = rng.randrange(1, len(kern) + 1)
            mu_entries = tuple(tuple(kern[b][i] for b in range(take))
                               for i in range(cols))
            mu = SemilinearMap(field, cols, take, mu_entries, STRAIGHT)
            reports.append(verify_twisted_factorization(f, mu))
        amb = rng.randrange(2, max_dim + 1)
        vecs = [tuple(rng.randrange(field.order) for _ in range(amb))
                for _ in range(amb)]
        a_basis = span_basis(field, vecs)
        if len(a_basis) >= 1:
            nb = rng.randrange(0, len(a_basis) + 1)
            b_basis = span_basis(field, a_basis[:nb])
            nc = rng.randrange(0, len(b_basis) + 1)
            c_basis = span_basis(field, b_basis[:nc])
            reports.append(verify_nested_quotient_iso(field, a_basis, b_basis,
                                                      c_basis, amb))
    return reports
