import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antimorph.semilinear as semilinear_module
from antimorph.errors import AlgebraError, BoundExceeded, NotComposable, PreconditionFailed
from antimorph.maps import ANTI, STRAIGHT
from antimorph.semilinear import (
    FieldFq2,
    SemilinearMap,
    add_semilinear,
    bifunctor_grid_report,
    compose_semilinear,
    corresponding_twisted,
    factor_sequence,
    generalized_suite,
    identity_map,
    image_basis,
    in_span,
    invert_matrix,
    kernel_basis,
    mat_mul,
    matrix,
    quotient_space,
    random_map,
    rank_of,
    reverse_map,
    set_kernel_basis,
    solve,
    span_basis,
    star_compose_semilinear,
    verify_mono_epi,
    verify_nested_quotient_iso,
    verify_quotient_image_iso,
    verify_twist_xor,
    verify_twisted_factorization,
    zero_map,
)

F4 = FieldFq2.of_order(4)


def test_f4_field_structure():
    assert F4.names == ("0", "1", "w", "w2")
    w = 2
    assert F4.mul_(w, w) == 3          # w^2 = w + 1
    assert F4.frob == (0, 1, 3, 2)     # conjugation swaps w and w2
    assert all(F4.mul_(x, F4.inv[x]) == 1 for x in range(1, 4))


def test_f9_field_structure():
    f9 = FieldFq2.of_order(9)
    fixed = [x for x in range(9) if f9.frob[x] == x]
    assert fixed == [0, 1, 2]
    assert FieldFq2.of_order(9) is f9  # cached


@pytest.mark.parametrize("order", [4, 9])
def test_field_self_check_raises_on_broken_tables(order):
    # a Frobenius that fixes every element: the check is a raise, so it
    # also runs under `python -O`
    field = FieldFq2.of_order(order)
    broken = dataclasses.replace(field, frob=tuple(range(order)))
    with pytest.raises(RuntimeError, match="fix exactly the prime field"):
        broken._self_check()


def test_unsupported_field_order():
    with pytest.raises(AlgebraError):
        FieldFq2.of_order(25)


def test_twisted_action_semilinearity():
    rng = random.Random(1)
    f = random_map(F4, 3, 3, ANTI, rng)
    for lam in range(4):
        for v in itertools.product(range(4), repeat=3):
            lv = tuple(F4.mul_(lam, x) for x in v)
            lhs = f.apply(lv)
            rhs = tuple(F4.mul_(F4.conj(lam), y) for y in f.apply(v))
            assert lhs == rhs


def test_zero_map_kernel_is_everything():
    z = zero_map(F4, 3, 3, STRAIGHT)
    assert len(kernel_basis(z)) == 3
    assert image_basis(z) == ()
    assert rank_of(z) == 0


def test_reverse_map_is_a_bijection_with_trivial_kernel():
    rev = reverse_map(F4, 2)
    assert kernel_basis(rev) == ()
    assert rev.apply((2, 1)) == (3, 1)
    assert compose_semilinear(rev, rev).twist == STRAIGHT
    assert compose_semilinear(rev, rev) == identity_map(F4, 2)


def test_composition_twist_rule():
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(0, 4)
        b = rng.randrange(0, 4)
        c = rng.randrange(0, 4)
        f = random_map(F4, b, c, rng.choice((ANTI, STRAIGHT)), rng)
        g = random_map(F4, a, b, rng.choice((ANTI, STRAIGHT)), rng)
        comp = compose_semilinear(g, f)
        assert comp.twist == (ANTI if (f.is_anti != g.is_anti) else STRAIGHT)
        for v in itertools.product(range(4), repeat=c):
            assert comp.apply(v) == g.apply(f.apply(v))


def test_rank_nullity_on_seeded_maps():
    rng = random.Random(3)
    for _ in range(100):
        rows, cols = rng.randrange(0, 5), rng.randrange(0, 5)
        f = random_map(F4, rows, cols, rng.choice((ANTI, STRAIGHT)), rng)
        assert cols == rank_of(f) + len(kernel_basis(f))


def test_factor_sequence_rebuilds_map_exactly():
    rng = random.Random(11)
    for _ in range(120):
        rows, cols = rng.randrange(0, 5), rng.randrange(0, 5)
        f = random_map(F4, rows, cols, rng.choice((ANTI, STRAIGHT)), rng)
        proj, mid, incl = factor_sequence(f)
        assert mid.rows == mid.cols == rank_of(f)
        assert mid.twist == f.twist
        assert compose_semilinear(incl, compose_semilinear(mid, proj)) == f


def test_factor_sequence_of_zero_and_bijective_maps():
    z = zero_map(F4, 2, 3, ANTI)
    proj, mid, incl = factor_sequence(z)
    assert mid.rows == 0 and mid.cols == 0
    e = identity_map(F4, 2, ANTI)
    proj, mid, incl = factor_sequence(e)
    assert mid.rows == 2
    assert invert_matrix(F4, mid.entries) is not None


def test_set_kernel_is_the_action_kernel():
    rng = random.Random(5)
    for _ in range(40):
        f = random_map(F4, 2, 3, ANTI, rng)
        basis = set_kernel_basis(f)
        for v in basis:
            assert all(x == 0 for x in f.apply(v))
        killed = [v for v in itertools.product(range(4), repeat=3)
                  if all(x == 0 for x in f.apply(v))]
        assert len(killed) == 4 ** len(basis)


def test_quotient_space_projection_and_section():
    proj, sect = quotient_space(F4, 3, [(1, 0, 0)])
    assert proj.rows == 2
    ps = compose_semilinear(proj, sect)
    assert ps == identity_map(F4, 2)
    assert kernel_basis(proj) == span_basis(F4, [(1, 0, 0)])


@pytest.mark.parametrize("order", [4, 9])
def test_solve_matches_a_scan_of_every_solution(order):
    # every A with rows, cols <= 2 over F4 and rows·cols <= 2 over F9, and
    # every right-hand column b: solve finds an X exactly when the scan of
    # every X does, and the X it returns solves the system
    field = FieldFq2.of_order(order)
    every = semilinear_module._all_matrices
    shapes = [(r, c) for r in range(3) for c in range(3) if order == 4 or r * c <= 2]
    for rows, cols in shapes:
        every_x = list(every(field, cols, 1))
        for a in every(field, rows, cols):
            reached = {mat_mul(field, a, x, 1) for x in every_x}
            for b in every(field, rows, 1):
                x = solve(field, a, b, cols)
                assert (x is not None) == (b in reached), (a, b)
                if x is not None:
                    assert len(x) == cols and mat_mul(field, a, x, 1) == b


@pytest.mark.parametrize("order", [4, 9])
def test_invert_matrix_on_every_2x2_matrix(order):
    field = FieldFq2.of_order(order)
    one = identity_map(field, 2).entries
    for m in semilinear_module._all_matrices(field, 2, 2):
        (a, b), (c, d) = m
        det = field.sub(field.mul_(a, d), field.mul_(b, c))
        inv = invert_matrix(field, m)
        assert (inv is None) == (det == 0), m
        if inv is not None:
            assert mat_mul(field, m, inv, 2) == mat_mul(field, inv, m, 2) == one


def _subspaces(field, n):
    """Every subspace of F^n once, as its reduced echelon basis: a pivot set,
    and any entries right of each pivot outside the pivot columns."""
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(i, j) for i, p in enumerate(pivots)
                    for j in range(p + 1, n) if j not in pivots]
            for values in itertools.product(range(field.order), repeat=len(free)):
                rows = [[int(j == p) for j in range(n)] for p in pivots]
                for (i, j), x in zip(free, values):
                    rows[i][j] = x
                yield tuple(map(tuple, rows))


def _greedy_quotient(field, n, basis):
    """(projection, section) entries of F^n modulo span(basis) through the
    greedy complement: e_j, j going up, when it lies outside the span of
    the basis and the e_i chosen before it."""
    complement, current = [], list(basis)
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        if not in_span(field, span_basis(field, current), e):
            complement.append(e)
            current.append(e)
    full = complement + list(basis)   # the columns of the basis change
    inv = invert_matrix(field, tuple(tuple(v[r] for v in full) for r in range(n)))
    section = tuple(tuple(e[i] for e in complement) for i in range(n))
    return inv[:len(complement)], section


@pytest.mark.parametrize("order, max_n", [(4, 3), (9, 2)])
def test_quotient_space_takes_the_greedy_complement(order, max_n):
    field = FieldFq2.of_order(order)
    # the number of subspaces of F^n, summed over their dimensions
    counts = {4: (1, 2, 7, 44), 9: (1, 2, 12)}[order]
    for n in range(max_n + 1):
        subspaces = list(_subspaces(field, n))
        assert len(set(subspaces)) == len(subspaces) == counts[n]
        for basis in subspaces:
            assert span_basis(field, basis) == basis
            proj, sect = quotient_space(field, n, basis)
            assert (proj.entries, sect.entries) == \
                _greedy_quotient(field, n, basis), basis


def test_coimage_cokernel_dims():
    rng = random.Random(9)
    f = random_map(F4, 3, 4, ANTI, rng)
    coimage = quotient_space(F4, f.cols, kernel_basis(f))[0]
    cokernel = quotient_space(F4, f.rows, image_basis(f))[0]
    assert coimage.rows == rank_of(f)
    assert cokernel.rows == 3 - rank_of(f)


def _small_maps(field, dims, skip=()):
    """Every map with rows and cols in `dims` over `field`, shapes in `skip`
    left out, in both twists."""
    for rows, cols in itertools.product(dims, repeat=2):
        if (rows, cols) not in skip:
            for e in semilinear_module._all_matrices(field, rows, cols):
                for twist in (STRAIGHT, ANTI):
                    yield SemilinearMap(field, rows, cols, e, twist)


@pytest.mark.parametrize("order", [4, 9])
def test_factor_sequence_projection_is_the_quotient_by_the_nullspace(order):
    # the oracle: F^cols modulo the matrix nullspace, through quotient_space,
    # conjugated for a twisted map
    field = FieldFq2.of_order(order)
    for f in _small_maps(field, range(3)):
        proj = quotient_space(field, f.cols, kernel_basis(f))[0]
        if f.is_anti:
            proj = SemilinearMap(field, proj.rows, proj.cols, proj.conj_entries(), STRAIGHT)
        assert factor_sequence(f)[0] == proj, (f.entries, f.twist)


@pytest.mark.parametrize("order", [4, 9])
def test_set_kernel_basis_is_the_reduced_basis_of_the_conjugated_nullspace(order):
    field = FieldFq2.of_order(order)
    for f in _small_maps(field, range(3)):
        kern = kernel_basis(f)
        if f.is_anti:
            kern = span_basis(field, [tuple(field.conj(x) for x in v) for v in kern])
        assert set_kernel_basis(f) == kern, (f.entries, f.twist)


def test_quotient_image_iso_on_every_map_of_at_most_two_rows_and_columns():
    # all of F4 and F9 without its 2x2 maps, both twists
    instances = [*_small_maps(F4, (1, 2)),
                 *_small_maps(FieldFq2.of_order(9), (1, 2), skip={(2, 2)})]
    assert len(instances) == 926
    failed = []
    for f in instances:
        rep = verify_quotient_image_iso(f)
        if not rep.passed:
            failed.append((f.entries, f.twist, rep.failures()))
    assert not failed


def test_quotient_image_iso_verifier():
    rng = random.Random(13)
    for _ in range(30):
        f = random_map(F4, rng.randrange(1, 5), rng.randrange(1, 5),
                       rng.choice((ANTI, STRAIGHT)), rng)
        rep = verify_quotient_image_iso(f)
        assert rep.passed, rep.failures()


def test_twisted_factorization_and_preconditions():
    rng = random.Random(17)
    found = 0
    while found < 20:
        f = random_map(F4, 2, 3, ANTI, rng)
        kern = set_kernel_basis(f)
        if not kern:
            continue
        found += 1
        mu_entries = tuple(tuple(kern[b][i] for b in range(len(kern)))
                           for i in range(3))
        mu = SemilinearMap(F4, 3, len(kern), mu_entries, STRAIGHT)
        rep = verify_twisted_factorization(f, mu)
        assert rep.passed, rep.failures()
    f = matrix(F4, [(1, 0), (0, 1)], ANTI)
    bad_mu = matrix(F4, [(1,), (0,)], STRAIGHT)
    with pytest.raises(PreconditionFailed):
        verify_twisted_factorization(f, bad_mu)  # f kills nothing
    squash = matrix(F4, [(0, 0), (0, 0)], STRAIGHT)
    with pytest.raises(PreconditionFailed):
        verify_twisted_factorization(f, squash)  # not injective


def test_nested_quotient_iso_and_preconditions():
    a = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    b = [(1, 0, 0), (0, 1, 0)]
    c = [(1, 0, 0)]
    rep = verify_nested_quotient_iso(F4, a, b, c, 3)
    assert rep.passed, rep.failures()
    rep_collapse = verify_nested_quotient_iso(F4, a, b, b, 3)
    assert rep_collapse.passed
    with pytest.raises(PreconditionFailed):
        verify_nested_quotient_iso(F4, b, b, a, 3)


def test_mono_epi_characterization():
    invertible = matrix(F4, [(1, 0), (0, 1)], ANTI)
    rep = verify_mono_epi(invertible)
    assert rep.passed
    rank1 = matrix(F4, [(1, 0), (0, 0)], ANTI)
    rep2 = verify_mono_epi(rank1)
    assert rep2.passed  # the equivalence holds: both sides are false
    assert len(kernel_basis(rank1)) == 1
    with pytest.raises(BoundExceeded):
        verify_mono_epi(zero_map(F4, 3, 3, ANTI))


def _first_collision_naive(f, max_dim=2):
    """The first (dz, v1, v2) with v1 < v2 and f∘v1 == f∘v2, and the first
    with v1∘f == v2∘f, by a scan of every pair: the naive twin of
    verify_mono_epi's two scans."""
    def scan(shape, product):
        return next(((dz, v1, v2) for dz in range(max_dim + 1)
                     for v1 in _matrices(*shape(dz)) for v2 in _matrices(*shape(dz))
                     if v1 < v2 and product(dz, v1) == product(dz, v2)), None)

    mono = scan(lambda dz: (f.cols, dz),
                lambda dz, v: compose_semilinear(f, SemilinearMap(F4, f.cols, dz, v)))
    epi = scan(lambda dz: (dz, f.rows),
               lambda dz, v: compose_semilinear(SemilinearMap(F4, dz, f.rows, v), f))
    return mono, epi


def test_mono_epi_witnesses_are_the_first_collisions(monkeypatch):
    # Each side stops at its first collision, which the naive scan finds
    # too. A witness shows only on a FAIL, so the mutant claims every map
    # injective and surjective: then each side with a collision FAILs and
    # names it.
    monkeypatch.setattr(semilinear_module, "kernel_basis", lambda f: ())
    monkeypatch.setattr(semilinear_module, "rank_of", lambda f: f.rows)
    rank1 = matrix(F4, [(1, 0), (0, 0)])
    checks = verify_mono_epi(rank1).check_map()
    assert checks["mono-iff-injective"].witness == (1, ((0,), (0,)), ((0,), (1,)))
    assert (checks["mono-iff-injective"].witness, checks["epi-iff-surjective"].witness) \
        == _first_collision_naive(rank1)
    # every map of one row or one column, both twists
    for rows, cols in ((1, 1), (1, 2), (2, 1)):
        for e in _matrices(rows, cols):
            for twist in (STRAIGHT, ANTI):
                f = SemilinearMap(F4, rows, cols, e, twist)
                checks = verify_mono_epi(f).check_map()
                assert (checks["mono-iff-injective"].witness,
                        checks["epi-iff-surjective"].witness) == _first_collision_naive(f)


def test_hom_twisted_counts():
    rep = bifunctor_grid_report(F4, dims=(1, 2))
    assert rep.passed, rep.failures()
    names = [c.name for c in rep.checks]
    assert "count-2x2" in names and "naturality-postcompose" in names
    assert rep.notes  # the conjugation defect of the left star identity


def test_star_right_identity_and_left_twist():
    f = matrix(F4, [(2,)], ANTI)  # the w scalar
    rev = reverse_map(F4, 1)
    assert star_compose_semilinear(f, rev) == f
    left = star_compose_semilinear(rev, f)
    assert left.entries == ((3,),)  # conjugated: w becomes w2


def test_addition_respects_the_correspondence():
    rng = random.Random(23)
    for _ in range(30):
        a = random_map(F4, 2, 2, STRAIGHT, rng)
        b = random_map(F4, 2, 2, STRAIGHT, rng)
        lhs = corresponding_twisted(add_semilinear(a, b))
        rhs = add_semilinear(corresponding_twisted(a), corresponding_twisted(b))
        assert lhs == rhs
        twin = corresponding_twisted(a)
        assert SemilinearMap(F4, 2, 2, twin.entries, STRAIGHT) == a


def test_generalized_suite_is_green():
    reports = generalized_suite(F4, count=15, seed=99)
    assert reports
    for rep in reports:
        assert rep.passed, (rep.theorem, rep.failures())


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.randoms(use_true_random=False))
def test_twist_xor_matrix_rule_property(a, b, c, pyrandom):
    rng = random.Random(pyrandom.randint(0, 10 ** 9))
    f = random_map(F4, b, c, ANTI, rng)
    g = random_map(F4, a, b, ANTI, rng)
    comp = compose_semilinear(g, f)
    assert comp.twist == STRAIGHT
    assert comp.entries == mat_mul(F4, g.entries, f.conj_entries(), c)
    # `apply` never calls mat_mul, so this holds mat_mul to an outside oracle
    for v in itertools.product(range(F4.order), repeat=c):
        assert comp.apply(v) == g.apply(f.apply(v))


def test_twist_xor_names_its_first_failing_instance(monkeypatch):
    # Mutant: a twisted left factor reads f's plain image table, so g∘f
    # skips the conjugation of f. Replaying the seeded instances, 15 of the
    # 50 fail, instance 5 first and instance 48 last; the check must name
    # instance 5.
    real = semilinear_module._product_table

    def unconjugated(g_twist, f):
        table, twist = real(g_twist, f)
        return (real(STRAIGHT, f)[0] if g_twist == ANTI else table), twist

    monkeypatch.setattr(semilinear_module, "_product_table", unconjugated)
    rng = random.Random(2025)
    failing = []
    for i in range(50):
        rows, mid, cols = (rng.randrange(0, 4) for _ in range(3))
        f = random_map(F4, mid, cols, ANTI, rng)
        g = random_map(F4, rows, mid, ANTI, rng)
        if compose_semilinear(g, f).entries != mat_mul(F4, g.entries,
                                                       f.conj_entries(), cols):
            failing.append((i, (g.entries, f.entries)))
    assert len(failing) == 15 and failing[0][0] == 5 and failing[-1][0] == 48
    check = verify_twist_xor(F4, 50, 2025).check_map()[
        "composites-match-conjugated-product"]
    assert not check.passed
    assert check.witness == failing[0][1] == (
        ((2, 2, 0), (1, 2, 2), (1, 0, 2)), ((3, 0, 2), (1, 2, 1), (2, 1, 2)))


def _triple_sum(field, a, b, rows, inner, cols):
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = 0
            for k in range(inner):
                acc = field.add_(acc, field.mul_(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _entry_pairs(field, rows, inner, cols, rng):
    """Every pair of entry tables when there are at most 256, else 25 seeded."""
    def table(flat, r, c):
        return tuple(tuple(flat[i * c:(i + 1) * c]) for i in range(r))

    cells = rows * inner + inner * cols
    if field.order ** cells <= 256:
        flats = itertools.product(range(field.order), repeat=cells)
    else:
        flats = ([rng.randrange(field.order) for _ in range(cells)]
                 for _ in range(25))
    for flat in flats:
        yield table(flat[:rows * inner], rows, inner), \
            table(flat[rows * inner:], inner, cols)


@pytest.mark.parametrize("order", [4, 9])
def test_mat_mul_matches_a_plain_triple_sum(order):
    # mat_mul is the entry-level reference; compose_semilinear and
    # add_semilinear work on packed row codes and are held to the same sums
    field = FieldFq2.of_order(order)
    rng = random.Random(order)
    one = identity_map(field, 1)
    for width in range(5 if order == 4 else 4):
        every_row = list(itertools.product(range(order), repeat=width))
        codes = [SemilinearMap(field, 1, width, (row,)).codes[0] for row in every_row]
        assert sorted(codes) == list(range(order ** width))
        for row in every_row:
            m = SemilinearMap(field, 1, width, (row,), ANTI)
            # a map built from codes decodes its entries on first read
            assert compose_semilinear(one, m).entries == (row,)
            assert m.conj_entries() == (tuple(field.conj(v) for v in row),)
    too_wide = 8 if order == 4 else 5   # q·q^width > 2^16: no table is built
    with pytest.raises(BoundExceeded):
        compose_semilinear(one, SemilinearMap(field, 1, too_wide, ((0,) * too_wide,)))
    too_tall = 9 if order == 4 else 6   # q^rows > 2^16: no image table is built
    for height in (too_tall - 1, too_tall):
        ones_row = SemilinearMap(field, 1, height, ((1,) * height,))
        ones_col = SemilinearMap(field, height, 1, ((1,),) * height)
        if height < too_tall:   # the tallest table: a sum of `height` ones
            assert compose_semilinear(ones_row, ones_col).entries == ((height % field.p,),)
        else:
            with pytest.raises(BoundExceeded, match="too tall"):
                compose_semilinear(ones_row, ones_col)
    for rows, inner, cols in itertools.product((1, 2, 3), (0, 1, 2, 3), (1, 2, 3)):
        for a, b in _entry_pairs(field, rows, inner, cols, rng):
            expected = _triple_sum(field, a, b, rows, inner, cols)
            assert mat_mul(field, a, b, cols) == expected
            conj_b = tuple(tuple(field.conj(v) for v in row) for row in b)
            conj_expected = _triple_sum(field, a, conj_b, rows, inner, cols)
            for g_twist, f_twist in itertools.product((STRAIGHT, ANTI), repeat=2):
                g = SemilinearMap(field, rows, inner, a, g_twist)
                f = SemilinearMap(field, inner, cols, b, f_twist)
                comp = compose_semilinear(g, f)
                want = conj_expected if g.is_anti else expected
                assert comp.entries == want
                built = SemilinearMap(field, rows, cols, want, comp.twist)
                assert built == comp and hash(built) == hash(comp)
            total = add_semilinear(SemilinearMap(field, rows, cols, expected),
                                   SemilinearMap(field, rows, cols, conj_expected))
            assert total.entries == tuple(
                tuple(field.add_(x, y) for x, y in zip(row, conj_row))
                for row, conj_row in zip(expected, conj_expected))


@pytest.mark.parametrize("order", [4, 9])
def test_code_level_cores_match_the_map_products(order):
    # compose_semilinear, add_semilinear and the hom grid read each row
    # through _product_table and _sum_rule; each rule gives, row by row, the
    # (codes, twist) of the map its wrapper builds, and of the entry-level
    # product with f conjugated when g is twisted, or the entrywise sum
    field = FieldFq2.of_order(order)
    rng = random.Random(order)

    def codes_of(entries):
        return tuple(semilinear_module._encode_row(order, row) for row in entries)

    for rows, inner, cols in itertools.product(range(3), repeat=3):
        for a, b in _entry_pairs(field, rows, inner, cols, rng):
            conj_b = tuple(tuple(field.conj(v) for v in row) for row in b)
            for g_twist, f_twist in itertools.product((STRAIGHT, ANTI), repeat=2):
                g = SemilinearMap(field, rows, inner, a, g_twist)
                f = SemilinearMap(field, inner, cols, b, f_twist)
                table, twist = semilinear_module._product_table(g_twist, f)
                rule = (tuple(table[c] for c in g.codes), twist)
                comp = compose_semilinear(g, f)
                assert rule == (comp.codes, comp.twist)
                product = mat_mul(field, a, conj_b if g_twist == ANTI else b, cols)
                assert rule == (codes_of(product), STRAIGHT if g_twist == f_twist else ANTI)
    # every pair of 2x1 maps: two rows, each one digit
    every = [tuple((x,) for x in col) for col in itertools.product(range(order), repeat=2)]
    for twist in (STRAIGHT, ANTI):
        plus, sum_twist = semilinear_module._sum_rule(field, twist)
        for x, y in itertools.product(every, repeat=2):
            f = SemilinearMap(field, 2, 1, x, twist)
            g = SemilinearMap(field, 2, 1, y, twist)
            rule = (tuple(map(plus, f.codes, g.codes)), sum_twist)
            total = add_semilinear(f, g)
            assert rule == (total.codes, total.twist)
            sums = tuple(tuple(map(field.add_, xr, yr)) for xr, yr in zip(x, y))
            assert rule == (codes_of(sums), twist)


def _grid_shapes(order):
    """The (rows, cols) shapes of the grid's maps over F_order: dims (1, 2)
    over F4, as in the report, and (1,) over F9."""
    dims = (1, 2) if order == 4 else (1,)
    return dims, list(itertools.product(dims, repeat=2))


@pytest.mark.parametrize("order", [4, 9])
def test_cartesian_powers_match_the_per_pair_products(order):
    # The row rule behind the grid: the products of f with every h of dz
    # rows, in _all_matrices order, are the Cartesian power of one table.
    # The grid compares the table alone and reads its witness index in that
    # order, so the power must list the products in exactly that order.
    field = FieldFq2.of_order(order)
    dims, shapes = _grid_shapes(order)
    every = semilinear_module._all_matrices
    for (dy, dx), dz in itertools.product(shapes, dims):
        for g_twist in (STRAIGHT, ANTI):
            lefts = [SemilinearMap(field, dz, dy, e, g_twist) for e in every(field, dz, dy)]
            for fe in every(field, dy, dx):
                for f_twist in (STRAIGHT, ANTI):
                    f = SemilinearMap(field, dy, dx, fe, f_twist)
                    table, twist = semilinear_module._product_table(g_twist, f)
                    products = [compose_semilinear(h, f) for h in lefts]
                    assert list(itertools.product(table, repeat=dz)) == \
                        [p.codes for p in products]
                    assert {p.twist for p in products} == {twist}


@pytest.mark.parametrize("order", [4, 9])
def test_per_row_sum_lists_match_the_per_pair_sums(order):
    # a + b for every b of a's shape is the product of one list per row of a
    field = FieldFq2.of_order(order)
    _, shapes = _grid_shapes(order)
    every = semilinear_module._all_matrices
    for (rows, cols), twist in itertools.product(shapes, (STRAIGHT, ANTI)):
        plus, sum_twist = semilinear_module._sum_rule(field, twist)
        maps = [SemilinearMap(field, rows, cols, e, twist) for e in every(field, rows, cols)]
        for a in maps:
            per_row = [[plus(x, c) for c in range(order ** cols)] for x in a.codes]
            sums = [add_semilinear(a, b) for b in maps]
            assert list(itertools.product(*per_row)) == [s.codes for s in sums]
            assert {s.twist for s in sums} == {sum_twist}


@pytest.mark.parametrize("order", [4, 9])
def test_image_tables_do_not_leak_between_twists(order):
    # one right factor composed after a straight and then a twisted left
    # factor, and in the reverse order: each product reads its own table
    field = FieldFq2.of_order(order)
    rng = random.Random(order)
    rows, cols = 2, 2
    for inner in range(5 if order == 4 else 4):
        a = [[rng.randrange(order) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randrange(order) for _ in range(cols)] for _ in range(inner)]
        if inner:
            # a nonzero left entry over a right entry outside the prime field,
            # so the two tables give different products
            a[0][0], b[0][0] = 1, order - 1
        a, b = tuple(map(tuple, a)), tuple(map(tuple, b))
        conj_b = tuple(tuple(field.conj(v) for v in row) for row in b)
        straight = _triple_sum(field, a, b, rows, inner, cols)
        twisted = _triple_sum(field, a, conj_b, rows, inner, cols)
        assert inner == 0 or straight != twisted
        for f_twist, lefts in itertools.product(
                (STRAIGHT, ANTI), ((STRAIGHT, ANTI), (ANTI, STRAIGHT))):
            f = SemilinearMap(field, inner, cols, b, f_twist)
            for g_twist in lefts + lefts:
                comp = compose_semilinear(SemilinearMap(field, rows, inner, a, g_twist), f)
                assert comp.entries == (twisted if g_twist == ANTI else straight)


def test_each_image_table_is_built_once_per_map_and_conjugation(monkeypatch):
    real = semilinear_module._image_table
    built = []

    def counting(field, cols, codes):
        built.append(codes)
        return real(field, cols, codes)

    monkeypatch.setattr(semilinear_module, "_image_table", counting)
    f = SemilinearMap(F4, 2, 2, ((1, 2), (3, 0)), ANTI)
    assert f.conj_codes() != f.codes
    for g_twist in (STRAIGHT, ANTI, STRAIGHT, ANTI):
        for ge in _matrices(1, 2):
            compose_semilinear(SemilinearMap(F4, 1, 2, ge, g_twist), f)
    assert built == [f.codes, f.conj_codes()]
    # reading the tables again builds nothing
    assert f.image_table() is f.image_table()
    assert f.image_table(True) is f.image_table(True)
    assert len(built) == 2


def test_add_semilinear_refuses_maps_over_different_fields():
    # 3 is a valid F4 code and 8 a valid F9 code; neither order may be
    # read as an entry of the other field
    f4_map = SemilinearMap(F4, 1, 1, ((3,),))
    f9_map = SemilinearMap(FieldFq2.of_order(9), 1, 1, ((8,),))
    for f, g in ((f4_map, f9_map), (f9_map, f4_map)):
        with pytest.raises(NotComposable):
            add_semilinear(f, g)
        with pytest.raises(NotComposable):
            compose_semilinear(f, g)


def test_semilinear_map_value_contract():
    a = SemilinearMap(F4, 2, 1, ((2,), (3,)), ANTI, name="a")
    b = SemilinearMap(F4, 2, 1, ((2,), (3,)), ANTI, name="b")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != SemilinearMap(F4, 2, 1, ((2,), (3,)), STRAIGHT)
    assert a != SemilinearMap(F4, 2, 1, ((2,), (1,)), ANTI)
    assert a != SemilinearMap(FieldFq2.of_order(9), 2, 1, ((2,), (3,)), ANTI)
    assert a != (F4, 2, 1, ((2,), (3,)), ANTI)
    assert repr(a) == "a[anti]2x1"
    assert repr(SemilinearMap(F4, 1, 3, ((0, 1, 2),))) == "map[straight]1x3"
    assert a.conj_entries() == ((3,), (2,))
    assert a.conj_codes() is a.conj_codes()  # the conjugate is computed once
    assert a.entries == ((2,), (3,))
    # the image tables are caches: equality and hashing ignore them
    for g_twist in (STRAIGHT, ANTI):
        compose_semilinear(SemilinearMap(F4, 1, 2, ((1, 1),), g_twist), a)
    assert a._image is not None and a._conj_image is not None
    assert b._image is None and b._conj_image is None
    assert a == b and hash(a) == hash(b)


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_kernel_of_twisted_map_is_a_subspace(pyrandom):
    rng = random.Random(pyrandom.randint(0, 10 ** 9))
    f = random_map(F4, rng.randrange(1, 4), rng.randrange(1, 4), ANTI, rng)
    basis = kernel_basis(f)
    for v in basis:
        for lam in range(4):
            scaled = tuple(F4.mul_(lam, x) for x in v)
            assert in_span(F4, basis, scaled)


# -- negative controls: the grid's checks can fail ---------------------------


def _grid_checks(dims=(1, 2)):
    return bifunctor_grid_report(F4, dims=dims).check_map()


def _matrices(rows, cols):
    """Every rows x cols matrix over F4, in the grid's enumeration order."""
    return [tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows))
            for flat in itertools.product(range(4), repeat=rows * cols)]


def _conj(entries):
    return tuple(tuple(F4.conj(v) for v in row) for row in entries)


def _first_naturality_failure(dims, holds):
    """The first (f, h) entry pair, in the grid's order, on which `holds`
    is False: naive twin of the grid's naturality loops."""
    for dx, dy, dz in itertools.product(dims, repeat=3):
        for fe in _matrices(dy, dx):
            for he in _matrices(dz, dy):
                if not holds(SemilinearMap(F4, dy, dx, fe), SemilinearMap(F4, dz, dy, he)):
                    return fe, he
    return None


# The grid and the wrappers read each row through the same rules,
# _product_table and _sum_rule, so the mutants below replace a rule; the
# naive twins reach the same mutant through the wrappers, one pair at a time.


def test_postcompose_naturality_fails_on_a_flipped_twist(monkeypatch):
    real = semilinear_module._product_table

    def flipped(g_twist, f):
        table, twist = real(g_twist, f)
        if g_twist == STRAIGHT and f.is_anti and (f.rows, f.cols) == (1, 1) \
                and f.entries != ((0,),):
            return table, STRAIGHT
        return table, twist

    def holds(f, h):
        hf = compose_semilinear(h, f)
        return SemilinearMap(F4, hf.rows, hf.cols, hf.entries, ANTI) == \
            compose_semilinear(h, SemilinearMap(F4, f.rows, f.cols, f.entries, ANTI))

    monkeypatch.setattr(semilinear_module, "_product_table", flipped)
    checks = _grid_checks(dims=(1,))
    assert not checks["naturality-postcompose"].passed
    assert checks["naturality-postcompose"].witness == \
        _first_naturality_failure((1,), holds) == (((1,),), ((0,),))
    assert checks["naturality-precompose"].passed


def test_precompose_naturality_fails_without_the_conjugation(monkeypatch):
    real = semilinear_module._product_table

    def unconjugated(g_twist, f):
        if g_twist == ANTI and (f.rows, f.cols) == (1, 1):
            # the twisted product read through f's unconjugated image table
            return real(STRAIGHT, f)[0], STRAIGHT if f.is_anti else ANTI
        return real(g_twist, f)

    def holds(f, h):
        hf = compose_semilinear(h, f)
        return SemilinearMap(F4, hf.rows, hf.cols, _conj(hf.entries), ANTI) == \
            compose_semilinear(SemilinearMap(F4, h.rows, h.cols, _conj(h.entries), ANTI), f)

    monkeypatch.setattr(semilinear_module, "_product_table", unconjugated)
    checks = _grid_checks(dims=(1,))
    assert not checks["naturality-precompose"].passed
    # f must differ from its conjugate and h must not vanish
    assert checks["naturality-precompose"].witness == \
        _first_naturality_failure((1,), holds) == (((2,),), ((1,),))
    assert checks["naturality-postcompose"].passed


def _break_row_13_of_twisted_2x2_factors(monkeypatch):
    """Patch the product rule so that only products through a twisted 2x2
    right factor break, and only in rows of code 13, (w2, 1); returns the
    naive naturality predicate for post-composition."""
    real = semilinear_module._product_table

    def broken(g_twist, f):
        table, twist = real(g_twist, f)
        if g_twist == STRAIGHT and f.is_anti and (f.rows, f.cols) == (2, 2):
            table = tuple(t ^ 1 if c == 13 else t for c, t in enumerate(table))
        return table, twist

    def holds(f, h):
        hf = compose_semilinear(h, f)
        return SemilinearMap(F4, hf.rows, hf.cols, hf.entries, ANTI) == \
            compose_semilinear(h, SemilinearMap(F4, f.rows, f.cols, f.entries, ANTI))

    monkeypatch.setattr(semilinear_module, "_product_table", broken)
    return holds


def test_naturality_witness_fails_late_in_a_two_row_left_factor(monkeypatch):
    # The first failing h has a zero first row and code 13 second: index 13
    # of the two-row product, whose mismatch lies in the second row. Reading
    # the index with the rows swapped would name ((w2, 1), (0, 0)) instead.
    holds = _break_row_13_of_twisted_2x2_factors(monkeypatch)
    checks = _grid_checks(dims=(2,))
    assert not checks["naturality-postcompose"].passed
    assert checks["naturality-postcompose"].witness == \
        _first_naturality_failure((2,), holds) == (((0, 0), (0, 0)), ((0, 0), (3, 1)))
    assert checks["naturality-precompose"].passed


def test_naturality_witness_takes_the_fewest_left_factor_rows(monkeypatch):
    # The same mutant on the report's grid: every h of 1 or 2 rows through a
    # broken f fails, and the grid's order meets the one-row h first.
    holds = _break_row_13_of_twisted_2x2_factors(monkeypatch)
    checks = _grid_checks(dims=(1, 2))
    assert not checks["naturality-postcompose"].passed
    assert checks["naturality-postcompose"].witness == \
        _first_naturality_failure((1, 2), holds) == (((0, 0), (0, 0)), ((3, 1),))
    assert checks["naturality-precompose"].passed


def _first_product_scan(lefts, left_twist, rights, right_twist):
    """Naive: the index of the first tuple of the Cartesian products of the
    row lists on which the two sides differ, twist included."""
    pairs = zip(itertools.product(*lefts), itertools.product(*rights))
    return next((i for i, (x, y) in enumerate(pairs)
                 if x != y or left_twist != right_twist), None)


def test_first_mismatch_reads_the_products_first_difference_off_the_rows():
    # Seeded row lists of 1 to 3 rows; some rows changed at a few positions,
    # and some twists flipped. The grid reads its witness indices this way.
    rng = random.Random(36)
    seen = {"agree": 0, "twist": 0, "later-row-first": 0}
    for _ in range(600):
        rows, base = rng.randrange(1, 4), rng.randrange(1, 6)
        lefts = [[rng.randrange(4) for _ in range(base)] for _ in range(rows)]
        rights = [list(xs) for xs in lefts]
        for i in rng.sample(range(rows), rng.randrange(rows + 1)):
            for j in rng.sample(range(base), rng.randrange(1, base + 1)):
                rights[i][j] ^= rng.randrange(1, 4)
        twists = (ANTI, rng.choice((ANTI, ANTI, ANTI, STRAIGHT)))
        got = semilinear_module._first_mismatch(lefts, twists[0], rights, twists[1])
        assert got == _first_product_scan(lefts, twists[0], rights, twists[1])
        # the first differing row's own first difference, as an index
        first_row = next(((i, j) for i in range(rows) for j in range(base)
                          if lefts[i][j] != rights[i][j]), None)
        seen["agree"] += got is None
        seen["twist"] += twists[0] != twists[1]
        seen["later-row-first"] += twists[0] == twists[1] and first_row is not None \
            and got < first_row[1] * base ** (rows - 1 - first_row[0])
    assert all(seen.values()), seen


def test_correspondence_additivity_is_checked_on_every_pair(monkeypatch):
    # Broken only for twisted sums of two rows that both start with w2 (a
    # 2-entry row code's leading base-4 digit is the row's first entry), so
    # a check that sampled b, or stopped at a's first row, would miss it.
    real = semilinear_module._sum_rule

    def broken(field, twist):
        plus, out = real(field, twist)
        if twist == ANTI:
            return (lambda x, y: x if x // 4 == y // 4 == 3 else plus(x, y)), out
        return plus, out

    def map2(entries, twist=STRAIGHT):
        return SemilinearMap(F4, 2, 2, entries, twist)

    monkeypatch.setattr(semilinear_module, "_sum_rule", broken)
    check = _grid_checks()["correspondence-additive"]
    assert not check.passed
    mats = _matrices(2, 2)
    first = next((a, b) for a in mats for b in mats
                 if map2(add_semilinear(map2(a), map2(b)).entries, ANTI)
                 != add_semilinear(map2(a, ANTI), map2(b, ANTI)))
    assert check.witness == first == (((0, 0), (3, 0)), ((0, 0), (3, 0)))


def test_counts_fail_when_each_shape_loses_its_last_matrix(monkeypatch):
    # Only a miscounting enumeration can break a count; the other checks
    # still run over the shortened hom sets and pass.
    real = semilinear_module._all_matrices
    monkeypatch.setattr(semilinear_module, "_all_matrices",
                        lambda field, rows, cols: list(real(field, rows, cols))[:-1])
    checks = _grid_checks()
    counts = {name: (c.passed, c.witness) for name, c in checks.items()
              if name.startswith("count-")}
    assert counts == {"count-1x1": (False, (3, 4)), "count-1x2": (False, (15, 16)),
                      "count-2x1": (False, (15, 16)), "count-2x2": (False, (255, 256))}
    assert [name for name, c in checks.items() if c.passed] == [
        "correspondence-additive", "naturality-postcompose", "naturality-precompose",
        "star-right-identity"]


def test_star_right_identity_names_its_first_counterexample(monkeypatch):
    # Mutant star product that conjugates its result, as the left identity
    # does: the right identity then moves exactly the matrices holding w or w2.
    real = semilinear_module.star_compose_semilinear

    def conjugating(g, f):
        out = real(g, f)
        return SemilinearMap(F4, out.rows, out.cols, _conj(out.entries), out.twist)

    monkeypatch.setattr(semilinear_module, "star_compose_semilinear", conjugating)
    check = _grid_checks(dims=(1,))["star-right-identity"]
    assert not check.passed
    rev = reverse_map(F4, 1)
    first = next((fe, conjugating(SemilinearMap(F4, 1, 1, fe, ANTI), rev).entries)
                 for fe in _matrices(1, 1)
                 if conjugating(SemilinearMap(F4, 1, 1, fe, ANTI), rev)
                 != SemilinearMap(F4, 1, 1, fe, ANTI))
    assert check.witness == first == (((2,),), ((3,),))


def _factorization_checks():
    """The checks of the twisted factorization of (1 0) through the quotient
    of F4^2 by its killed line, spanned by (0, 1)."""
    f = matrix(F4, [(1, 0)], STRAIGHT)
    mu = matrix(F4, [(0,), (1,)], STRAIGHT)
    return verify_twisted_factorization(f, mu).check_map()


def test_twisted_factorization_passes_with_null_witnesses():
    checks = _factorization_checks()
    assert all(c.passed and c.witness is None for c in checks.values())


def test_through_map_twist_names_both_twists(monkeypatch):
    # Mutant: every product with a 1x2 left factor has its twist flipped,
    # so the through-map comes out twisted while f is straight
    real = semilinear_module.compose_semilinear

    def flipped(g, f):
        out = real(g, f)
        if (g.rows, g.cols) == (1, 2):
            return SemilinearMap(F4, out.rows, out.cols, out.entries,
                                 STRAIGHT if out.is_anti else ANTI)
        return out

    monkeypatch.setattr(semilinear_module, "compose_semilinear", flipped)
    check = _factorization_checks()["through-map-twist"]
    assert not check.passed and check.witness == (ANTI, STRAIGHT)


@pytest.mark.parametrize("reported, outside", [(((1, 0),), (1, 0)), ((), (0, 1))])
def test_projection_kernel_names_a_vector_outside_the_other_span(
        monkeypatch, reported, outside):
    # Mutant: the quotient builds its projection and section for a misreported
    # span, so the projection kills that span. The witness is the first basis
    # vector of the killed span outside the injected one, else the first
    # injected basis vector outside the killed span.
    real = semilinear_module.quotient_space
    monkeypatch.setattr(semilinear_module, "quotient_space",
                        lambda field, n, basis: real(field, n, reported))
    check = _factorization_checks()["projection-kernel-is-subspace"]
    assert not check.passed and check.witness == outside


def test_uniqueness_via_section_names_both_composites(monkeypatch):
    # Mutant: the second section is shifted by (1, 0), which f does not
    # kill, so f after it differs from the through-map
    real = semilinear_module._shift_section

    def off_kernel(field, sect, kernel_vectors):
        return real(field, sect, [(1, 0)])

    monkeypatch.setattr(semilinear_module, "_shift_section", off_kernel)
    check = _factorization_checks()["uniqueness-via-section"]
    f = matrix(F4, [(1, 0)], STRAIGHT)
    section = quotient_space(F4, 2, [(0, 1)])[1]
    naive = (compose_semilinear(f, off_kernel(F4, section, ())).entries,
             compose_semilinear(f, section).entries)
    assert not check.passed and check.witness == naive == (((0,),), ((1,),))


# -- negative controls: the quotient and nested-quotient checks can fail -----

TWISTED_2X2 = matrix(F4, [(1, 2), (0, 1)], ANTI)   # invertible, so rank 2


def _scaled(entries, a):
    return tuple(tuple(F4.mul_(a, v) for v in row) for row in entries)


def _quotient_checks(monkeypatch, change):
    """The checks of verify_quotient_image_iso(TWISTED_2X2) with the
    factorization's (proj, mid, incl) replaced by change(proj, mid, incl)."""
    real = semilinear_module.factor_sequence
    monkeypatch.setattr(semilinear_module, "factor_sequence", lambda f: change(*real(f)))
    return verify_quotient_image_iso(TWISTED_2X2).check_map()


def _with_entries(m, entries, twist=None):
    return SemilinearMap(F4, m.rows, m.cols, entries, twist or m.twist)


def test_quotient_image_iso_passes_with_null_witnesses():
    checks = verify_quotient_image_iso(TWISTED_2X2).check_map()
    assert all(c.passed and c.witness is None for c in checks.values())


def test_middle_twist_names_both_twists(monkeypatch):
    checks = _quotient_checks(monkeypatch, lambda p, m, i: (
        p, _with_entries(m, m.entries, STRAIGHT), i))
    check = checks["middle-twist"]
    assert not check.passed and check.witness == (STRAIGHT, ANTI)


def test_middle_invertible_names_the_middle_matrix(monkeypatch):
    checks = _quotient_checks(monkeypatch, lambda p, m, i: (
        p, _with_entries(m, ((0, 0), (0, 0))), i))
    check = checks["middle-invertible"]
    assert not check.passed and check.witness == ((0, 0), (0, 0))


def test_composite_names_both_maps(monkeypatch):
    # the inclusion scaled by w makes the composite w times the map
    checks = _quotient_checks(monkeypatch, lambda p, m, i: (
        p, m, _with_entries(i, _scaled(i.entries, 2))))
    check = checks["composite-equals-map"]
    f = TWISTED_2X2
    assert not check.passed
    assert check.witness == ((_scaled(f.entries, 2), ANTI), (f.entries, ANTI)) \
        == ((((2, 3), (0, 2)), ANTI), (((1, 2), (0, 1)), ANTI))


def test_a_broken_factor_sequence_fails_the_composite_check(monkeypatch):
    # Mutant: the identity is w times itself, so the middle of the factor
    # sequence is too and the composite is w times the map. That is a FAIL
    # of composite-equals-map with both maps, not an error.
    real = semilinear_module.identity_map
    monkeypatch.setattr(semilinear_module, "identity_map",
                        lambda field, n, twist=STRAIGHT: SemilinearMap(
                            field, n, n, _scaled(real(field, n).entries, 2), twist))
    check = verify_quotient_image_iso(TWISTED_2X2).check_map()["composite-equals-map"]
    assert not check.passed
    assert check.witness == ((((2, 3), (0, 2)), "anti"), (((1, 2), (0, 1)), "anti"))


def _f4_dim(vectors, n):
    """The dimension of the span of `vectors` in F4^n, by counting its
    elements: the naive twin of an elimination."""
    span = {(0,) * n}
    for v in vectors:
        span = {tuple(F4.add_(x, F4.mul_(a, y)) for x, y in zip(s, v))
                for s in span for a in range(4)}
    return (len(span).bit_length() - 1) // 2


def test_rank_nullity_names_the_columns_and_both_counts(monkeypatch):
    # Mutant: kernel_basis drops its last vector, so the nullity reads one
    # low. The naive twin counts the nullspace and the image of the matrix.
    f = matrix(F4, [(1, 2)], ANTI)
    real = semilinear_module.kernel_basis
    monkeypatch.setattr(semilinear_module, "kernel_basis", lambda g: real(g)[:-1])
    check = verify_quotient_image_iso(f).check_map()["rank-nullity"]
    straight = SemilinearMap(F4, f.rows, f.cols, f.entries, STRAIGHT)
    every_v = list(itertools.product(range(4), repeat=f.cols))
    nullity = _f4_dim([v for v in every_v if not any(straight.apply(v))], f.cols)
    rank = _f4_dim([straight.apply(v) for v in every_v], f.rows)
    assert not check.passed
    assert check.witness == (f.cols, nullity - 1, rank) == (2, 0, 1)


def test_projection_surjective_names_its_rank_and_the_middle_rank(monkeypatch):
    checks = _quotient_checks(monkeypatch, lambda p, m, i: (
        _with_entries(p, (p.entries[0], (0,) * p.cols)), m, i))
    check = checks["projection-surjective"]
    assert not check.passed and check.witness == (1, 2)
    # the uniqueness solve needs both, so it is not made
    assert "middle-determined-by-coordinates" not in checks


def test_inclusion_injective_names_a_killed_vector(monkeypatch):
    checks = _quotient_checks(monkeypatch, lambda p, m, i: (
        p, m, _with_entries(i, tuple((row[0], 0) for row in i.entries))))
    check = checks["inclusion-injective"]
    assert not check.passed and check.witness == (0, 1)
    # the uniqueness solve needs both, so it is not made
    assert "middle-determined-by-coordinates" not in checks


def test_middle_determined_names_the_forced_and_actual_middles(monkeypatch):
    # the middle scaled by w is still twisted and invertible, but the
    # coordinates force the middle factor_sequence builds
    real_mid = factor_sequence(TWISTED_2X2)[1]
    checks = _quotient_checks(monkeypatch, lambda p, m, i: (
        p, _with_entries(m, _scaled(m.entries, 2)), i))
    check = checks["middle-determined-by-coordinates"]
    assert checks["middle-twist"].passed and checks["middle-invertible"].passed
    assert not check.passed
    assert check.witness == ((real_mid.entries, ANTI), (_scaled(real_mid.entries, 2), ANTI)) \
        == ((((1, 0), (0, 1)), ANTI), (((2, 0), (0, 2)), ANTI))


def test_middle_determined_names_no_middle_when_none_exists(monkeypatch):
    # the inclusion swapped for an injective map onto another plane, which
    # misses f's image: no middle makes the triangle commute, so the forced
    # middle is None
    f = matrix(F4, [(1, 0), (0, 1), (0, 0)], ANTI)
    real = semilinear_module.factor_sequence

    def moved_inclusion(g):
        proj, mid, incl = real(g)
        return proj, mid, _with_entries(incl, ((1, 0), (0, 0), (0, 1)))

    monkeypatch.setattr(semilinear_module, "factor_sequence", moved_inclusion)
    checks = verify_quotient_image_iso(f).check_map()
    assert checks["inclusion-injective"].passed and checks["projection-surjective"].passed
    check = checks["middle-determined-by-coordinates"]
    assert not check.passed and check.witness == ((None, ANTI), (((1, 0), (0, 1)), ANTI))


NESTED = ([(1, 0), (0, 1)], [(1, 0)], [], 2)   # C = 0 inside B = <e1> inside A = F^2


def _nested_checks(monkeypatch, name, mutant):
    monkeypatch.setattr(semilinear_module, name, mutant)
    return verify_nested_quotient_iso(F4, *NESTED).check_map()


def test_nested_quotient_iso_passes_with_null_witnesses():
    checks = verify_nested_quotient_iso(F4, *NESTED).check_map()
    assert all(c.passed and c.witness is None for c in checks.values())


def test_intermediate_dims_names_both_quotient_dims(monkeypatch):
    # Mutant: `apply` sends every vector to 0, so B/C is read as 0 in A/C
    # and (A/C)/(B/C) is all of A/C. The naive twin counts the spans.
    monkeypatch.setattr(SemilinearMap, "apply", lambda m, v: (0,) * m.rows)
    check = verify_nested_quotient_iso(F4, *NESTED).check_map()["intermediate-dims"]
    a, b, c, n = NESTED
    quotient_a_c = _f4_dim(a, n) - _f4_dim(c, n)
    b_over_c = _f4_dim([(0,) * quotient_a_c for _ in b], quotient_a_c)
    assert not check.passed
    assert check.witness == (quotient_a_c - b_over_c, _f4_dim(a, n) - _f4_dim(b, n)) == (2, 1)


def test_straight_comparison_commutes_names_both_maps(monkeypatch):
    # every right inverse scaled by w: the comparison becomes w times itself
    real = semilinear_module._right_inverse
    checks = _nested_checks(monkeypatch, "_right_inverse", lambda field, f: _with_entries(
        real(field, f), _scaled(real(field, f).entries, 2)))
    rho = quotient_space(F4, 2, [(1, 0)])[0]
    check = checks["straight-comparison-commutes"]
    assert not check.passed
    assert check.witness == ((_scaled(rho.entries, 2), STRAIGHT), (rho.entries, STRAIGHT)) \
        == ((((0, 2),), STRAIGHT), (((0, 1),), STRAIGHT))


def test_straight_comparison_invertible_names_the_comparison(monkeypatch):
    checks = _nested_checks(monkeypatch, "_right_inverse", lambda field, f: zero_map(
        field, f.cols, f.rows))
    check = checks["straight-comparison-invertible"]
    assert not check.passed and check.witness == ((0,),)


def test_twisted_comparison_names_its_twist(monkeypatch):
    # a straight "reverse" map leaves the comparison straight
    checks = _nested_checks(monkeypatch, "reverse_map", identity_map)
    check = checks["twisted-comparison-is-twisted"]
    assert not check.passed and check.witness == STRAIGHT
    assert checks["twisted-square-commutes"].passed


def test_uniqueness_via_surjectivity_names_both_maps(monkeypatch):
    # the right inverse of the twisted projection scaled by w, so the map it
    # determines is w times the twisted comparison
    real = semilinear_module._right_inverse_of_action
    checks = _nested_checks(monkeypatch, "_right_inverse_of_action",
                            lambda field, f: _with_entries(
                                real(field, f), _scaled(real(field, f).entries, 2)))
    check = checks["uniqueness-via-surjectivity"]
    assert not check.passed
    assert check.witness == ((((2,),), ANTI), (((1,),), ANTI))
