import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from skewdd import series
from skewdd.domains import FieldElem, RingElem, get_domain
from skewdd.errors import PrecisionError, SingularError, SkewError
from skewdd.series import (SeriesMatrix, TruncatedSeries, _lanes, det2,
                           disagreement, matrix_invert, relaxed_product,
                           scale_column, scale_right, sum_products)
from skewdd.textio import format_series, parse_series

from conftest import DOMAIN_SPECS, assert_same_matrix, rand_ring_elem
from reference import (reference_disagreement, reference_inverse,
                       reference_right_divide, reference_sum_products)


def rand_series(dom, rng, val_range=(-3, 3), length=4, prec_extra=(0, 3)):
    v = rng.randint(*val_range)
    coeffs = [dom.felem(rng.randint(-5, 5),
                        rng.randint(-5, 5) if dom.is_quad else 0)
              for _ in range(length)]
    kt = v + length + rng.randint(*prec_extra)
    return TruncatedSeries(dom, v, coeffs, kt)


def test_twist_law_examples(root2, zz, gauss):
    x = TruncatedSeries.x_power(root2, 1)
    w = TruncatedSeries.const(root2, root2.felem(0, 1))
    assert x * w == TruncatedSeries.from_coeff_map(root2, [(1, root2.felem(0, -1))])
    f = parse_series(zz, "2+1*x^1")
    g = parse_series(zz, "2*x^-1")
    assert f * g == parse_series(zz, "4*x^-1+2")
    i_x = TruncatedSeries.from_coeff_map(gauss, [(1, gauss.felem(0, 1))])
    assert i_x * i_x == TruncatedSeries.x_power(gauss, 2)


def test_twist_law_random(any_domain):
    rng = random.Random(31)
    for _ in range(60):
        d = rand_ring_elem(any_domain, rng).to_field()
        for i in range(-4, 5):
            xi = TruncatedSeries.x_power(any_domain, i)
            dconst = TruncatedSeries.const(any_domain, d)
            expect = TruncatedSeries.from_coeff_map(
                any_domain, [(i, any_domain.sigma_pow(d, i))])
            assert xi * dconst == expect


def test_mul_associative_distributive(any_domain):
    rng = random.Random(32)
    for _ in range(60):
        f = rand_series(any_domain, rng)
        g = rand_series(any_domain, rng)
        h = rand_series(any_domain, rng)
        assert (f * g) * h == f * (g * h)
        left = f * (g + h)
        right = f * g + f * h
        # distributivity holds on the common known window
        assert (left - right).is_known_zero


def test_precision_law_exact(any_domain):
    rng = random.Random(33)
    for _ in range(80):
        f = rand_series(any_domain, rng)
        g = rand_series(any_domain, rng)
        p = f * g
        want = min(f.val + g.known_to, g.val + f.known_to)
        assert p.known_to == want
        with pytest.raises(PrecisionError):
            p.coeff(p.known_to)


def test_invert_unit_examples(zz, gauss):
    f = parse_series(zz, "1-1*x^1")
    assert format_series(f.invert(5)) == "1+1*x^1+1*x^2+1*x^3+1*x^4+O(x^5)"
    g = parse_series(gauss, "1-1*w*x^1")
    inv = g.invert(4)
    assert inv == parse_series(gauss, "1+1*w*x^1+1*x^2+1*w*x^3+O(x^4)")
    h = parse_series(zz, "2+1*x^1")
    hq = h.invert(3)
    assert format_series(hq) == "1/2+(-1/4)*x^1+1/8*x^2+O(x^3)"


def test_invert_unit_roundtrip(any_domain):
    rng = random.Random(34)
    one = TruncatedSeries.const(any_domain, any_domain.fone)
    for _ in range(50):
        f = rand_series(any_domain, rng)
        if f.is_known_zero or not f.lowest():
            continue
        inv = f.invert()
        assert ((f * inv) - one).is_known_zero
        assert inv.val == -f.val


def test_invert_zero_and_exact(zz):
    with pytest.raises(SkewError):
        TruncatedSeries.zero(zz, 5).invert()
    exact = parse_series(zz, "1+1*x^1")
    with pytest.raises(PrecisionError):
        exact.invert()  # exact input needs an explicit precision
    assert exact.invert(6).known_to == 6


def test_lowest_valuation_shift_examples(zz):
    f = parse_series(zz, "3*x^-2+1*x^1")
    assert f.lowest() == zz.felem(3) and f.valuation() == -2
    assert f.shift(2) == parse_series(zz, "3+1*x^3")
    s = parse_series(zz, "1+1*x^1")
    assert s.shift(2) == parse_series(zz, "1*x^2+1*x^3")
    with pytest.raises(PrecisionError):
        TruncatedSeries.zero(zz, 4).lowest()
    assert TruncatedSeries.zero(zz).lowest() == zz.fzero


def test_cancellation_renormalizes_valuation(zz):
    f = parse_series(zz, "1+2*x^1+O(x^5)")
    g = parse_series(zz, "-1+3*x^1+O(x^5)")
    s = f + g
    assert s.valuation() == 1 and s.lowest() == zz.felem(5)


def test_product_window_is_found_on_the_combined_parts(z5):
    """(w + x) * w + 1 * 5 = w x over Z[sqrt(-5)]: at order 0 the Karatsuba
    sums are (5, 1, 6), yet the value 5 + 1 * w^2 is zero, so the product
    starts at order 1."""
    w = TruncatedSeries.const(z5, z5.felem(0, 1))
    x = TruncatedSeries.x_power(z5, 1)
    one, five = (TruncatedSeries.const(z5, c) for c in (1, 5))
    got = sum_products(z5, [(w + x, w), (one, five)])
    assert (got.val, got.coeffs) == (1, (z5.felem(0, 1),))


def test_from_coeff_map_adds_repeated_orders(z5):
    one_w = z5.felem(0, 1)
    items = [(2, z5.felem(3)), (0, z5.felem(1, 2)), (2, one_w),
             (1, z5.felem(4)), (0, z5.felem(-1, -2)), (3, z5.elem(0, 7))]
    f = TruncatedSeries.from_coeff_map(z5, items, 6)
    # order 0 cancels, so the valuation moves up to 1
    assert f.val == 1 and f.known_to == 6
    assert f.coeffs == (z5.felem(4), z5.felem(3, 1), z5.felem(0, 7))
    assert f == parse_series(z5, "4*x^1+(3+1*w)*x^2+7*w*x^3+O(x^6)")
    cancelled = TruncatedSeries.from_coeff_map(
        z5, [(4, one_w), (4, -one_w)])
    assert cancelled.is_exact_zero


def test_matrix_examples(zz):
    n = SeriesMatrix(zz, [
        [TruncatedSeries.const(zz, zz.fone), TruncatedSeries.x_power(zz, 1)],
        [TruncatedSeries.zero(zz), TruncatedSeries.const(zz, zz.fone)],
    ])
    inv = n.invert(3)
    assert inv.rows[0][1] == TruncatedSeries(zz, 1, [zz.felem(-1)], 3)
    # invertible over the series ring (determinant -x), but its lowest
    # coefficient matrix [[2, 4], [1, 2]] is singular, so it is refused
    m = SeriesMatrix(zz, [
        [parse_series(zz, "2+1*x^1"), parse_series(zz, "4+3*x^1")],
        [TruncatedSeries.const(zz, zz.fone), TruncatedSeries.const(zz, zz.felem(2))],
    ])
    with pytest.raises(SingularError, match="lowest coefficient matrix"):
        matrix_invert(m, 6)


@pytest.mark.parametrize("v", [0, 1])
def test_exact_constant_inverse(any_domain, v):
    """c x^v for an exact constant c, 1x1 and 2x2, inverted at prec 5: no
    a_(v+j) is nonzero, so each b_t past order 0 is zero and the inverse
    is x^-v c^-1, known through order 5."""
    dom = any_domain
    c = dom.felem(2, 1 if dom.is_quad else 0)
    for entries in ([[c]], [[c, dom.fone], [dom.fone, dom.fone]]):
        a = SeriesMatrix.from_const(dom, entries).shift(v)
        inv = matrix_invert(a, 5)
        n = len(entries)
        assert inv.known_to == 5
        assert all(len(s.coeffs) <= 1 and s.val == -v
                   for row in inv.rows for s in row if s.coeffs)
        ident = SeriesMatrix.identity(dom, n)
        for prod in (a @ inv, inv @ a):
            assert disagreement(prod, ident) == (None, 5 + v)


def unit_lowest_series(dom, rng, v, length):
    """Random series of valuation v, known through v + length."""
    f = rand_series(dom, rng, (v, v), length, (0, 0))
    while f.val != v:
        f = rand_series(dom, rng, (v, v), length, (0, 0))
    return f


def diag(f, g):
    zero = TruncatedSeries.zero(f.dom, f.known_to)
    return SeriesMatrix(f.dom, [[f, zero], [zero, g]])


def test_matrix_recursion_two_sided(any_domain):
    """The coefficient recursion at valuation -1, 0, 1, twists included."""
    rng = random.Random(38)
    dom = any_domain
    ident = SeriesMatrix.identity(dom)
    checked = 0
    while checked < 15:
        v = rng.choice((-1, 0, 1))
        rows = [[rand_series(dom, rng, (v, v), rng.randint(1, 5))
                 for _ in range(2)] for _ in range(2)]
        a = SeriesMatrix(dom, rows)
        if not det2(a.coeff_matrix(a.min_val)):
            continue
        checked += 1
        v = a.min_val
        inv = a.invert()
        assert inv.known_to == a.known_to - 2 * v
        for prod in (a @ inv, inv @ a):
            diff = prod - ident
            assert all(s.is_known_zero for row in diff.rows for s in row)
            assert diff.known_to >= a.known_to - v


def test_diagonal_inverse_is_entrywise(any_domain):
    """A 2x2 diagonal matrix inverts entry by entry, as 1x1 cases."""
    rng = random.Random(39)
    dom = any_domain
    for _ in range(15):
        v = rng.choice((-1, 0, 1))
        length = rng.randint(1, 5)
        f = unit_lowest_series(dom, rng, v, length)
        g = unit_lowest_series(dom, rng, v, length)
        assert diag(f, g).invert() == diag(f.invert(), g.invert())


def test_matrix_identity_random(any_domain):
    rng = random.Random(36)
    ident = SeriesMatrix.identity(any_domain)
    for _ in range(20):
        b = SeriesMatrix(any_domain, [[rand_series(any_domain, rng) for _ in range(2)]
                                      for _ in range(2)])
        diff = ident @ b - b
        assert all(s.is_known_zero for row in diff.rows for s in row)


def test_singular_matrix_rejected(zz):
    m = SeriesMatrix(zz, [
        [TruncatedSeries.const(zz, zz.felem(2), 6), TruncatedSeries.const(zz, zz.felem(4), 6)],
        [TruncatedSeries.const(zz, zz.fone, 6), TruncatedSeries.const(zz, zz.felem(2), 6)],
    ])
    with pytest.raises(SingularError):
        matrix_invert(m, 6)


def test_ring_flag_propagation(zz):
    f = parse_series(zz, "2+1*x^1")
    q = f.invert(4)  # not integral
    assert f.ring and not q.ring
    # the product happens to be exactly 1, and the embedding of integral
    # values back into the ring is free
    assert (f * q).ring


def test_building_a_series_reads_no_integrality(zz, z5, monkeypatch):
    """The ring flag is computed when read, not on every construction."""
    f = parse_series(zz, "2+1*x^1")
    g = parse_series(z5, "(1+1*w)+2*x^1")

    def refuse(self):
        raise AssertionError("is_integral read")

    monkeypatch.setattr(FieldElem, "is_integral", property(refuse))
    f * f.invert(4)
    g * g
    TruncatedSeries(zz, 0, [zz.felem(1, 0, 2)], 3)
    with pytest.raises(AssertionError, match="is_integral read"):
        f.ring


# ------------------------------------------------ product kernel vs. naive
def naive_sum_products(dom, pairs):
    """Sum of f * g over pairs, one FieldElem product per term."""
    kt = None
    terms = {}
    for f, g in pairs:
        if f.is_exact_zero or g.is_exact_zero:
            continue
        for bound, val in ((g.known_to, f.val), (f.known_to, g.val)):
            if bound is not None:
                kt = bound + val if kt is None else min(kt, bound + val)
        for j, fc in enumerate(f.coeffs):
            i = f.val + j
            for k, gc in enumerate(g.coeffs):
                m = i + g.val + k
                terms[m] = terms.get(m, dom.fzero) + fc * dom.sigma_pow(gc, i)
    return TruncatedSeries.from_coeff_map(
        dom, [(m, c) for m, c in terms.items() if kt is None or m < kt], kt)


@st.composite
def kernel_series(draw, dom):
    """Exact, truncated, known-zero or exact-zero series, valuation -2..2,
    with coefficients over unrelated denominators."""
    kind = draw(st.sampled_from(["exact", "truncated", "known-zero",
                                 "exact-zero"]))
    val = draw(st.integers(-2, 2))
    if kind == "exact-zero":
        return TruncatedSeries.zero(dom)
    if kind == "known-zero":
        return TruncatedSeries.zero(dom, val)
    part = st.integers(-40, 40)
    coeffs = draw(st.lists(st.builds(
        dom.felem, part, part if dom.is_quad else st.just(0),
        st.sampled_from([1, 1, 2, 3, 5, 7, 9, 11, 12, 35])),
        min_size=1, max_size=5))
    if kind == "exact":
        return TruncatedSeries(dom, val, coeffs)
    return TruncatedSeries(dom, val, coeffs,
                           val + len(coeffs) + draw(st.integers(0, 3)))


def assert_same_series(got, want):
    assert (got.val, got.coeffs, got.known_to) \
        == (want.val, want.coeffs, want.known_to)


KERNEL_SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@KERNEL_SETTINGS
@given(data=st.data())
def test_mul_matches_naive(any_domain, data):
    f = data.draw(kernel_series(any_domain))
    g = data.draw(kernel_series(any_domain))
    assert_same_series(f * g, naive_sum_products(any_domain, [(f, g)]))


@KERNEL_SETTINGS
@given(data=st.data())
def test_matmul_matches_naive(any_domain, data):
    dom = any_domain
    a = [[data.draw(kernel_series(dom)) for _ in range(2)] for _ in range(2)]
    b = [[data.draw(kernel_series(dom)) for _ in range(2)] for _ in range(2)]
    prod = SeriesMatrix(dom, a) @ SeriesMatrix(dom, b)
    for i in range(2):
        for j in range(2):
            assert_same_series(prod.rows[i][j], naive_sum_products(
                dom, [(a[i][t], b[t][j]) for t in range(2)]))


@KERNEL_SETTINGS
@given(data=st.data())
def test_twisted_product_is_associative(any_domain, data):
    """(f * g) * h = f * (g * h) with the same window and precision; odd
    valuations make the twist act on the conj domains."""
    f, g, h = (data.draw(kernel_series(any_domain)) for _ in range(3))
    assert_same_series((f * g) * h, f * (g * h))


@KERNEL_SETTINGS
@given(data=st.data())
def test_sum_products_matches_naive(any_domain, data):
    dom = any_domain
    pairs = data.draw(st.lists(st.tuples(kernel_series(dom),
                                         kernel_series(dom)), max_size=4))
    assert_same_series(sum_products(dom, pairs),
                       naive_sum_products(dom, pairs))


def constants(dom):
    """0, 1, -1, w (over Q(w)) or a random element over a denominator."""
    part = st.integers(-40, 40)
    special = [dom.fzero, dom.fone, -dom.fone]
    if dom.is_quad:
        special.append(dom.omega.to_field())
    return st.one_of(st.sampled_from(special), st.builds(
        dom.felem, part, part if dom.is_quad else st.just(0),
        st.sampled_from([1, 2, 3, 7, 12])))


@KERNEL_SETTINGS
@given(data=st.data())
def test_scaling_matches_the_product_with_a_constant(any_domain, data):
    """scale_right(f, c) is f * const(c), and scale_column(m, c) is
    m @ diag(1, c), through the product kernel, in val, coeffs and
    known_to; odd valuations make the twist act on the conj domains."""
    dom = any_domain
    c = data.draw(constants(dom))
    f = data.draw(kernel_series(dom))
    assert_same_series(scale_right(f, c),
                       sum_products(dom, [(f, TruncatedSeries.const(dom, c))]))
    m = SeriesMatrix(dom, [[data.draw(kernel_series(dom)) for _ in range(2)]
                           for _ in range(2)])
    want = m @ SeriesMatrix.from_const(dom, [[1, 0], [0, c]])
    for got_row, want_row in zip(scale_column(m, c).rows, want.rows):
        for got, ref in zip(got_row, want_row):
            assert_same_series(got, ref)


# --------------------------------------- inversion recursion vs. per term
@st.composite
def invertible_matrices(draw, dom, n):
    """(a, prec): an n x n matrix whose lowest coefficient matrix is
    invertible, with valuations -2..2, coefficients over unrelated
    denominators, exact entries (then prec is explicit) or truncated
    ones (then prec may be None)."""
    v = draw(st.integers(-2, 2))
    part = st.integers(-40, 40)
    coeff = st.builds(dom.felem, part, part if dom.is_quad else st.just(0),
                      st.sampled_from([1, 1, 2, 3, 5, 7, 9, 11, 12, 35]))
    # an entry's valuation is v or, when its lowest coefficient is
    # drawn as 0, higher
    lowest = st.one_of(st.just(dom.fzero), coeff) if n > 1 else coeff
    exact = draw(st.booleans())
    known_to = None if exact else v + draw(st.integers(1, 7))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            coeffs = [draw(lowest)] + draw(st.lists(coeff, max_size=5))
            if known_to is not None:
                coeffs = coeffs[:known_to - v]
            row.append(TruncatedSeries(dom, v, coeffs, known_to))
        rows.append(row)
    a = SeriesMatrix(dom, rows)
    assume(any(s.coeffs for r in a.rows for s in r))
    m = a.coeff_matrix(a.min_val)
    assume(n == 1 or det2(m))
    prec = draw(st.integers(-3, 9) if exact
                else st.one_of(st.none(), st.integers(-3, 9)))
    return a, prec


@KERNEL_SETTINGS
@given(data=st.data())
@pytest.mark.parametrize("n", [1, 2])
def test_invert_matches_per_term_recursion(any_domain, n, data):
    a, prec = data.draw(invertible_matrices(any_domain, n))
    got = matrix_invert(a, prec)
    for got_row, want_row in zip(got.rows, reference_inverse(a, prec)):
        for g, w in zip(got_row, want_row):
            assert_same_series(g, w)


# ------------------------------------ relaxed recursion vs. per-term sums
@st.composite
def relaxed_inputs(draw, dom, left=False):
    """(shape, known, offset, rs): shape (r, k, m) is 1x1 * 1x1, 2x2 * 2x2
    or 1x2 * 2x2; known holds the r x k matrices L_1, L_2, ..., from none
    to more than the orders asked, often ending in all-zero matrices; rs
    holds the k x m matrices R_t that the caller's step returns, one per
    order asked (when left, L_j is k x m and R_t is r x k); entries have
    denominators 1..35 and may be zero; the offset is -2..2."""
    r, k, m = draw(st.sampled_from([(1, 1, 1), (2, 2, 2), (1, 2, 2)]))
    l_shape, r_shape = ((k, m), (r, k)) if left else ((r, k), (k, m))
    part = st.integers(-40, 40)
    entry = st.one_of(st.just(dom.fzero), st.builds(
        dom.felem, part, part if dom.is_quad else st.just(0),
        st.integers(1, 35)))

    def matrix(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    nterms = draw(st.integers(0, 7))
    known = [matrix(*l_shape)
             for _ in range(draw(st.integers(0, nterms + 1)))]
    known += [[[dom.fzero] * l_shape[1] for _ in range(l_shape[0])]
              for _ in range(draw(st.integers(0, 3)))]
    rs = [matrix(*r_shape) for _ in range(nterms)]
    return (r, k, m), known, draw(st.integers(-2, 2)), rs


def known_pairs(known):
    """(pairs, den): the matrices of known as integer pairs (a, b), entry
    (a + b*w) / den over one common denominator, as relaxed_product
    takes them."""
    den, lanes = _lanes([c for m in known for row in m for c in row], True)
    parts = iter(zip(*lanes))
    return [[[next(parts) for _ in row] for row in m] for m in known], den


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_relaxed_product_matches_per_term_sums(any_domain, data):
    """Every S_t the recursion hands its step equals the per-term FieldElem
    sum of L_j sigma^(offset+j)(R_(t-j)), with L_j = 0 past the end of
    known; odd offsets and orders make the twist act on the conj
    domains, and R_t over growing denominators makes the stored columns
    rescale. s is None at t = 0, and at every t when each L_j is zero
    (known empty or only zero matrices), which reads as S_t = 0."""
    dom = any_domain
    (r, k, m), known, offset, rs = data.draw(relaxed_inputs(dom))
    seen = []

    def step(t, den, s):
        seen.append((t, den, s))
        return rs[t]

    pairs, den = known_pairs(known)
    assert relaxed_product(dom, pairs, offset, len(rs), step, den=den) == rs
    assert [t for t, _, _ in seen] == list(range(len(rs)))
    for t, den, s in seen:
        terms = range(1, min(t, len(known)) + 1)
        want = [[sum((known[j - 1][p][i]
                      * dom.sigma_pow(rs[t - j][i][q], offset + j)
                      for j in terms for i in range(k)), dom.fzero)
                 for q in range(m)] for p in range(r)]
        if s is None:
            assert not t or not any(c for mat in known for row in mat
                                    for c in row)
            assert not any(c for row in want for c in row)
            continue
        got = [[FieldElem(dom, RingElem(dom, a, b), den) for a, b in row]
               for row in s]
        assert got == want


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_relaxed_product_left_matches_per_term_sums(any_domain, data):
    """With the unknown on the left, every S_t equals the per-term FieldElem
    sum of R_(t-j) sigma^(offset+t-j)(L_j): the R_t are stored once and
    the L_j once per parity, so odd offsets and orders on the conj
    domains check the twist of each L_j by its own order."""
    dom = any_domain
    (r, k, m), known, offset, rs = data.draw(relaxed_inputs(dom, left=True))
    seen = []

    def step(t, den, s):
        seen.append((t, den, s))
        return rs[t]

    pairs, den = known_pairs(known)
    assert relaxed_product(dom, pairs, offset, len(rs), step, left=True,
                           den=den) == rs
    assert [t for t, _, _ in seen] == list(range(len(rs)))
    for t, den, s in seen:
        terms = range(1, min(t, len(known)) + 1)
        want = [[sum((rs[t - j][p][i]
                      * dom.sigma_pow(known[j - 1][i][q], offset + t - j)
                      for j in terms for i in range(k)), dom.fzero)
                 for q in range(m)] for p in range(r)]
        if s is None:
            assert not t or not any(c for mat in known for row in mat
                                    for c in row)
            assert not any(c for row in want for c in row)
            continue
        got = [[FieldElem(dom, RingElem(dom, a, b), den) for a, b in row]
               for row in s]
        assert got == want


# --------------------------------- one-pass right division vs. per term
@st.composite
def dividends(draw, dom, rows, n):
    """An exact rows x n matrix b: entries of valuation -3..3 with up to
    four coefficients over unrelated denominators, or exact zeros (a
    whole row of them stays an exact-zero row of b * a^-1)."""
    part = st.integers(-40, 40)
    coeff = st.builds(dom.felem, part, part if dom.is_quad else st.just(0),
                      st.sampled_from([1, 1, 2, 3, 7, 12]))
    entry = st.one_of(
        st.just(TruncatedSeries.zero(dom)),
        st.builds(lambda v, cs: TruncatedSeries(dom, v, cs),
                  st.integers(-3, 3), st.lists(coeff, min_size=1,
                                               max_size=4)))
    return SeriesMatrix(dom, [[draw(entry) for _ in range(n)]
                              for _ in range(rows)])


@KERNEL_SETTINGS
@given(data=st.data())
@pytest.mark.parametrize("n", [1, 2])
def test_right_divide_matches_the_product_with_the_inverse(any_domain, n,
                                                          data):
    """right_divide(b, a, prec) is b @ a^-1 with a^-1 from the per-term
    recursion: the same coefficients and known_to in every entry, as the
    min rule gives the product (each row known through the inverse's
    bound plus the row's least valuation in b). It also equals the
    unfolded recurrence, which multiplies b_(o+v+t) - S_t by
    sigma^(o+t)(a_v^-1) at every order, where right_divide folds a_v^-1
    into K_j = a_(v+j) sigma^j(a_v^-1) and b'_t once."""
    a, prec = data.draw(invertible_matrices(any_domain, n))
    b = data.draw(dividends(any_domain, data.draw(st.integers(1, 2)), n))
    inv = SeriesMatrix(any_domain, reference_inverse(a, prec))
    got = series.right_divide(b, a, prec)
    assert_same_matrix(got, b @ inv)
    assert_same_matrix(got, reference_right_divide(b, a, prec))


@pytest.mark.parametrize("spec", [s for s in DOMAIN_SPECS
                                  if s.sigma == "conj"],
                         ids=lambda s: f"{s.kind}:{s.d}:{s.sigma}")
def test_odd_valuations_on_conj_domains(spec):
    """On the conj domains, 2x2 matrices of odd valuation -1, 1 or 3, with
    right-hand sides of odd and even valuations: matrix_invert equals
    the per-term recursion, and right_divide equals the product with
    it and the unfolded recurrence. The single stored copy of the
    unknown is twisted by its own order, and K_j by sigma^j, so an odd
    valuation is where a parity slip would show."""
    dom = get_domain(spec)
    rng = random.Random(23)
    checked = 0
    while checked < 12:
        v = rng.choice((-1, 1, 3))
        kt = None if rng.random() < 0.5 else v + rng.randint(2, 6)
        a = SeriesMatrix(dom, [[rand_series(dom, rng, (v, v),
                                            rng.randint(1, 4), (1, 3))
                                for _ in range(2)] for _ in range(2)])
        if kt is None:
            a = a.map(lambda s: TruncatedSeries(dom, s.val, s.coeffs))
        if a.min_val != v or not det2(a.coeff_matrix(v)):
            continue
        checked += 1
        prec = rng.randint(2, 9)
        inv = SeriesMatrix(dom, reference_inverse(a, prec))
        assert matrix_invert(a, prec) == inv
        b = SeriesMatrix(dom, [[TruncatedSeries(
            dom, rng.randint(-2, 3), [dom.felem(rng.randint(-9, 9),
                                                rng.randint(-9, 9), 2)
                                      for _ in range(rng.randint(1, 3))])
            for _ in range(2)] for _ in range(2)])
        got = series.right_divide(b, a, prec)
        assert_same_matrix(got, b @ inv)
        assert_same_matrix(got, reference_right_divide(b, a, prec))


def test_right_divide_refuses_an_inexact_dividend(zz):
    a = SeriesMatrix.identity(zz)
    b = SeriesMatrix.identity(zz, known_to=4)
    with pytest.raises(SkewError, match="exact"):
        series.right_divide(b, a, 4)


# ------------------------------- shorter-factor walk vs. per-order kernel
@st.composite
def walk_factors(draw, dom):
    """(f, g) with 1..40 coefficients each, g often only 1..4 long and
    the lengths often equal in cost (nf = step * ng), valuations -3..3 so
    that f.val is odd or even, some zero coefficients, unrelated
    denominators, and either factor exact, truncated (its known_to then
    may cut the product in the middle), known-zero or exact-zero."""
    step = dom.sigma_order
    nf, ng = draw(st.one_of(
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.integers(1, 4)),
        st.integers(1, 40 // step).map(lambda n: (step * n, n))))
    part = st.integers(-40, 40)
    coeff = st.one_of(st.just(dom.fzero), st.builds(
        dom.felem, part, part if dom.is_quad else st.just(0),
        st.sampled_from([1, 1, 2, 3, 5, 7, 9, 11, 12, 35])))

    def factor(length):
        kind = draw(st.sampled_from(["exact"] * 3 + ["truncated"] * 3
                                    + ["known-zero", "exact-zero"]))
        val = draw(st.integers(-3, 3))
        if kind == "exact-zero":
            return TruncatedSeries.zero(dom)
        if kind == "known-zero":
            return TruncatedSeries.zero(dom, val)
        coeffs = [dom.felem(draw(st.integers(1, 9)))] \
            + [draw(coeff) for _ in range(length - 1)]
        if kind == "exact":
            return TruncatedSeries(dom, val, coeffs)
        return TruncatedSeries(dom, val, coeffs,
                               val + length + draw(st.integers(0, 3)))

    return factor(nf), factor(ng)


def lanes_below_top(dom, pairs, kept=None):
    """The factor lengths sum_products may read into lanes, in call order:
    each factor of a pair with nonzero terms, cut at the room that the
    pair has below the output's top order. Given kept, the ids of the
    series whose lane form is kept, a kept factor is not read, and a
    factor read whole is added to kept."""
    live = [(f, g) for f, g in pairs if f.coeffs and g.coeffs]
    if not live:
        return []
    hi = max(f.val + g.val + len(f.coeffs) + len(g.coeffs) - 1
             for f, g in live)
    kt = reference_sum_products(dom, pairs).known_to
    if kt is not None:
        hi = min(hi, kt)
    reads = []
    for f, g in live:
        room = hi - f.val - g.val
        if room <= 0:
            continue
        for h in (f, g):
            if kept is None:
                reads.append(min(len(h.coeffs), room))
            elif id(h) not in kept:
                reads.append(min(len(h.coeffs), room))
                if room >= len(h.coeffs):
                    kept.add(id(h))
    return reads


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_shorter_factor_walk_matches_per_order_kernel(any_domain, data,
                                                      monkeypatch):
    """Both walks of sum_products against the per-order kernel, on single
    pairs and on sums of 2-3 pairs at different offsets f.val + g.val;
    the kernel reads no coefficient past its pair's room below the top
    order."""
    dom = any_domain
    pairs = [data.draw(walk_factors(dom))
             for _ in range(data.draw(st.integers(1, 3)))]
    reads = []

    def recording(coeffs, quad):
        reads.append(len(coeffs))
        return _lanes(coeffs, quad)

    monkeypatch.setattr(series, "_lanes", recording)
    got = sum_products(dom, pairs)
    monkeypatch.setattr(series, "_lanes", _lanes)
    assert_same_series(got, reference_sum_products(dom, pairs))
    assert reads == lanes_below_top(dom, pairs)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_kept_lanes_are_read_once_and_sliced(any_domain, data, monkeypatch):
    """Factors whose lane form is already kept, some of them used in two
    pairs or twice in one call: their cuts are sliced from the lanes of
    the whole window, over its denominator, and the products still match
    the per-order kernel. A series is read whole at most once, and a
    second product of the same pairs reads only the cuts of factors that
    were never read whole."""
    dom = any_domain
    pairs = [data.draw(walk_factors(dom))
             for _ in range(data.draw(st.integers(1, 3)))]
    if data.draw(st.booleans()):
        pairs.append(pairs[0][::-1])
    kept = set()
    for h in {id(h): h for pair in pairs for h in pair}.values():
        if h.coeffs and data.draw(st.booleans()):
            h.lanes_below(len(h.coeffs))
            kept.add(id(h))
    reads = []

    def recording(coeffs, quad):
        reads.append(len(coeffs))
        return _lanes(coeffs, quad)

    monkeypatch.setattr(series, "_lanes", recording)
    got = sum_products(dom, pairs)
    first = reads[:]
    again = sum_products(dom, pairs)
    monkeypatch.setattr(series, "_lanes", _lanes)
    want = reference_sum_products(dom, pairs)
    assert_same_series(got, want)
    assert_same_series(again, want)
    assert first == lanes_below_top(dom, pairs, kept)
    assert reads[len(first):] == lanes_below_top(dom, pairs, kept)


def fraction_series(dom, rng, val, length, den, known_to=None):
    """length coefficients over den, the first one 1/den so that den is
    the lane denominator; None known_to means exact."""
    coeffs = [dom.felem(1, 0, den)] + [
        dom.felem(rng.randint(-99, 99),
                  rng.randint(-99, 99) if dom.is_quad else 0, den)
        for _ in range(length - 1)]
    return TruncatedSeries(dom, val, coeffs, known_to)


# (f.val, g.val): even, and odd on either side or both
KERNEL_VALS = [(0, 0), (-1, 0), (0, 3), (1, -3)]


@pytest.mark.parametrize("fv, gv", KERNEL_VALS)
@pytest.mark.parametrize("walk", ["f", "g"])
def test_rescaled_walks_match_per_order_kernel(any_domain, walk, fv, gv):
    """Sums of two pairs over the denominators 3 and 5, so each pair is
    rescaled to 15: with f short and g long (f is walked and rescaled),
    and with f long and g short (g is walked and its twisted lanes are
    rescaled), at even and odd valuations, exact and cut by known_to."""
    dom = any_domain
    step = dom.sigma_order
    rng = random.Random(f"{walk}{fv}{gv}")
    lengths = [(2, 12), (3, 10)] if walk == "f" else [(12, 2), (13, 3)]
    for nf, ng in lengths:
        assert (nf <= step * ng) == (walk == "f")
    for cut in (None, "f", "g"):
        pairs = []
        for (nf, ng), den in zip(lengths, (3, 5)):
            f = fraction_series(dom, rng, fv, nf, den)
            g = fraction_series(dom, rng, gv, ng, 1)
            if cut == "f":   # cuts the product in the middle of g's walk
                f = fraction_series(dom, rng, fv, nf, den, fv + nf)
            elif cut == "g":
                g = fraction_series(dom, rng, gv, ng, 1, gv + ng + 1)
            pairs.append((f, g))
        got = sum_products(dom, pairs)
        want = reference_sum_products(dom, pairs)
        assert_same_series(got, want)
        assert got.coeffs and 15 in {c.den for c in got.coeffs}
        if cut is not None:
            assert got.known_to is not None
        # the same sum again reads the kept lanes, which rescaling left as
        # they were
        assert_same_series(sum_products(dom, pairs), want)


@pytest.mark.parametrize("fv", [0, 1])
def test_identity_products_cancel_to_the_exact_constant(any_domain, fv):
    """u @ u^-1 and u^-1 @ u for u a product of elementary matrices with
    long fractional entries: each entry sums two products whose terms
    cancel to the exact zero above order 0, through both walks, and
    equals the per-order kernel and the identity exactly (val, coeffs
    and known_to None)."""
    dom = any_domain
    rng = random.Random(fv)
    one = TruncatedSeries.const(dom, dom.fone)
    zero = TruncatedSeries.zero(dom)
    u = u_inv = SeriesMatrix.identity(dom)
    for k, (length, den) in enumerate([(2, 3), (9, 5), (3, 7), (11, 1)]):
        e = fraction_series(dom, rng, fv, length, den)
        if k % 2:
            m, m_inv = [[one, e], [zero, one]], [[one, -e], [zero, one]]
        else:
            m, m_inv = [[one, zero], [e, one]], [[one, zero], [-e, one]]
        u = u @ SeriesMatrix(dom, m)
        u_inv = SeriesMatrix(dom, m_inv) @ u_inv
    for left, right in ((u, u_inv), (u_inv, u)):
        for i in range(2):
            for j in range(2):
                pairs = [(left.rows[i][t], right.rows[t][j]) for t in range(2)]
                got = sum_products(dom, pairs)
                assert_same_series(got, reference_sum_products(dom, pairs))
                assert_same_series(got, one if i == j else zero)


def test_kept_lanes_leave_equality_and_hash_alone(any_domain):
    dom = any_domain
    a = TruncatedSeries(dom, -1, [dom.felem(3, 0, 2), dom.fzero,
                                  dom.felem(-1, 1 if dom.is_quad else 0, 5)],
                        4)
    b = TruncatedSeries(dom, -1, a.coeffs, 4)
    assert a.lanes_below(3) is a.lanes_below(5)   # read once, kept
    assert a == b and hash(a) == hash(b)
    den, plain, conj = a.lanes_below(1)   # a cut, sliced
    assert den == 10 and plain[0] == [15]
    assert (conj is plain) == (not dom.conj_sigma)


def test_shifted_copy_shares_the_kept_lanes(any_domain):
    """The lane form depends on the coefficients alone, so a shift hands
    the kept form on, and products of shifted factors (odd shifts change
    the parity under conjugation) still match the per-order kernel."""
    dom = any_domain
    rng = random.Random(47)
    fs = [rand_series(dom, rng, length=5) for _ in range(4)]
    form = fs[0].lanes_below(len(fs[0].coeffs))
    assert fs[0].shift(3).lanes_below(10) is form
    assert fs[0].shift(-1).shift(2).lanes_below(10) is form
    for f in fs:
        f.lanes_below(len(f.coeffs))
    for m in (-2, -1, 1, 4):
        pairs = [(fs[0].shift(m), fs[1]), (fs[2], fs[3].shift(-m)),
                 (fs[1].shift(m), fs[2].shift(1))]
        assert_same_series(sum_products(dom, pairs),
                           reference_sum_products(dom, pairs))


def test_leading_zeros_strip_in_linear_time(zz):
    """2 * MAX_ORDER leading zeros cost one pass, not one list.pop(0) each
    (quadratic: seconds at this length)."""
    import time

    from skewdd.textio import MAX_ORDER

    coeffs = [zz.fzero] * (2 * MAX_ORDER) + [zz.fone, zz.fzero]
    start = time.perf_counter()
    f = TruncatedSeries(zz, -5, coeffs)
    elapsed = time.perf_counter() - start
    assert (f.val, f.coeffs) == (2 * MAX_ORDER - 5, (zz.fone,))
    assert elapsed < 0.2


# ------------------------------------ disagreement vs. the difference series
@st.composite
def nearly_equal_entries(draw, dom):
    """(a, b): b repeats a's coefficients, changed at up to two orders and
    possibly extended, and each side is exact or cut at its own known_to,
    so a difference may lie only beyond one side's known_to; now and then
    b is unrelated to a."""
    part = st.integers(-3, 3)
    coeff = st.builds(dom.felem, part, part if dom.is_quad else st.just(0),
                      st.sampled_from([1, 2, 3]))
    val = draw(st.integers(-2, 2))
    coeffs = draw(st.lists(coeff, max_size=8))
    other = coeffs + draw(st.lists(coeff, max_size=3))
    for k in draw(st.lists(st.integers(0, 10), max_size=2)):
        if k < len(other):
            other[k] = draw(coeff)

    def side(cs, v):
        if draw(st.booleans()):
            return TruncatedSeries(dom, v, cs)
        kt = v + draw(st.integers(0, len(cs) + 2))
        return TruncatedSeries(dom, v, cs[:kt - v], kt)

    a = side(coeffs, val)
    if draw(st.integers(0, 4)) == 0:
        return a, side(other, draw(st.integers(-2, 2)))
    return a, side(other, val)


@KERNEL_SETTINGS
@given(data=st.data())
def test_disagreement_matches_difference_series(any_domain, data):
    dom = any_domain
    r, c = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    entries = [[data.draw(nearly_equal_entries(dom)) for _ in range(c)]
               for _ in range(r)]
    left = SeriesMatrix(dom, [[a for a, _ in row] for row in entries])
    right = SeriesMatrix(dom, [[b for _, b in row] for row in entries])
    assert disagreement(left, right) == reference_disagreement(left, right)


def test_disagreement_refuses_unequal_shapes(zz):
    """Matrices of different shapes are refused, not compared on their
    common part, where these would agree."""
    one = TruncatedSeries.const(zz, 1)
    square = SeriesMatrix(zz, [[one, one], [one, one]])
    for other in (SeriesMatrix(zz, [[one, one]]),
                  SeriesMatrix(zz, [[one], [one]]),
                  SeriesMatrix(zz, [[one, one, one], [one, one, one]])):
        for left, right in ((square, other), (other, square)):
            with pytest.raises(SkewError, match="cannot compare"):
                disagreement(left, right)
