"""Shared fixtures and random-instance builders for the test suite."""

from __future__ import annotations

import random

import pytest

from skewdd import completion, ideals
from skewdd.domains import DomainSpec, get_domain
from skewdd.series import (SeriesMatrix, TruncatedSeries, det2,
                           matrix_invert, scale_column)

# the five domain instances exercised throughout: Z, both automorphisms on
# Z[sqrt(-5)], the Gaussian integers and the real quadratic Z[sqrt(2)]
DOMAIN_SPECS = [
    DomainSpec("int"),
    DomainSpec("quad", -5, "id"),
    DomainSpec("quad", -5, "conj"),
    DomainSpec("quad", -1, "conj"),
    DomainSpec("quad", 2, "conj"),
]


@pytest.fixture(params=DOMAIN_SPECS, ids=lambda s: f"{s.kind}:{s.d}:{s.sigma}")
def any_domain(request):
    return get_domain(request.param)


@pytest.fixture
def zz():
    return get_domain(DomainSpec("int"))


@pytest.fixture
def z5():
    return get_domain(DomainSpec("quad", -5, "id"))


@pytest.fixture
def z5c():
    return get_domain(DomainSpec("quad", -5, "conj"))


@pytest.fixture
def gauss():
    return get_domain(DomainSpec("quad", -1, "conj"))


@pytest.fixture
def root2():
    return get_domain(DomainSpec("quad", 2, "conj"))


def rand_ring_elem(dom, rng, lo=-9, hi=9, nonzero=False):
    while True:
        e = dom.elem(rng.randint(lo, hi),
                     rng.randint(lo, hi) if dom.is_quad else 0)
        if e or not nonzero:
            return e


def rand_ideal(dom, rng):
    """Random nonzero integral ideal from two small elements."""
    while True:
        e1 = rand_ring_elem(dom, rng)
        e2 = rand_ring_elem(dom, rng)
        lat = ideals.from_ring_generators(dom, [e1, e2])
        if not lat.is_zero:
            return lat


def rand_frac_ideal(dom, rng):
    u = rand_ideal(dom, rng)
    return ideals.FracIdeal(dom, u.a, u.b, u.c, rng.randint(1, 12))


def rand_elem_of(frac, rng, lo=-2, hi=2):
    g1, g2 = frac.gens()
    return g1 * rng.randint(lo, hi) + g2 * rng.randint(lo, hi)


def rand_shaped_series(dom, shape_frac, rng, val_lo=-1, val_hi=1, length=3,
                       twist=True):
    """Series whose order-i coefficient lies in sigma^i(shape)."""
    v = rng.randint(val_lo, val_hi)
    items = []
    for k in range(length):
        i = v + k
        base = shape_frac.sigma(i) if twist else shape_frac
        e = rand_elem_of(base, rng)
        if e:
            items.append((i, e))
    return TruncatedSeries.from_coeff_map(dom, items)


def random_unimodular_row(dom, j_ideal, rng, factors=6):
    """First row of a product of random shaped elementary matrices.

    Returns (ShapedRow, witness column); unimodular by construction,
    since the witness is the matching column of the exact inverse.
    """
    jf = j_ideal
    jinv = jf.inverse()
    u_mat = SeriesMatrix.identity(dom)
    u_inv = SeriesMatrix.identity(dom)
    one = TruncatedSeries.const(dom, dom.fone)
    zero = TruncatedSeries.zero(dom)
    for _ in range(rng.randint(1, factors)):
        if rng.random() < 0.5:
            e = rand_shaped_series(dom, jinv, rng, twist=True)
            elem = SeriesMatrix(dom, [[one, e], [zero, one]])
            elem_inv = SeriesMatrix(dom, [[one, -e], [zero, one]])
        else:
            f = rand_shaped_series(dom, jf, rng, val_lo=0, twist=False)
            elem = SeriesMatrix(dom, [[one, zero], [f, one]])
            elem_inv = SeriesMatrix(dom, [[one, zero], [-f, one]])
        u_mat = u_mat @ elem
        u_inv = elem_inv @ u_inv
    row = SeriesMatrix(dom, [u_mat.rows[0]])
    k = min(s.val for s in row.rows[0] if s.coeffs)
    x_k = TruncatedSeries.x_power(dom, -k)
    row = row.map(lambda s: x_k * s)
    wit = SeriesMatrix(dom, [[u_inv.rows[0][0]], [u_inv.rows[1][0]]]).shift(k)
    shaped = completion.ShapedRow(row, j_ideal, ideals.unit_ideal(dom))
    return shaped, wit


def completion_test_ideal(dom):
    """The standing example ideal for each completion test domain."""
    if not dom.is_quad:
        return ideals.unit_ideal(dom)
    if dom.d == -5:
        return ideals.from_ring_generators(dom, [dom.elem(2), dom.elem(1, 1)])
    if dom.d == -1:
        return ideals.from_ring_generators(dom, [dom.elem(1, 1)])
    if dom.d == 2:
        return ideals.from_ring_generators(dom, [dom.elem(7), dom.elem(3, 1)])
    return ideals.unit_ideal(dom)


def seed_51_rows(dom, depths):
    """(shaped, witness, n) for the rows of random_unimodular_row at seed
    51 (20 draws on the domain's standing ideal) whose depth n is in
    depths; every depth asked for occurs."""
    rng = random.Random(51)
    j_lat = completion_test_ideal(dom)
    rows = []
    for _ in range(20):
        shaped, t = random_unimodular_row(dom, j_lat, rng)
        n, _ = completion.check_unimodular(shaped, t)
        if n in depths:
            rows.append((shaped, t, n))
    assert {n for *_, n in rows} == set(depths)
    return rows


def truncated(mat, known_to):
    """mat with every entry cut to known_to."""
    return mat.map(lambda s: TruncatedSeries(
        s.dom, s.val, s.coeffs[:max(known_to - s.val, 0)], known_to))


def random_unit_series(dom, prec, rng):
    """Series with unit lowest coefficient, known through order prec."""
    coeffs = [dom.felem(rng.choice([1, -1]))]
    for _ in range(prec):
        coeffs.append(dom.felem(rng.randint(-3, 3),
                                rng.randint(-3, 3) if dom.is_quad else 0))
    return TruncatedSeries(dom, 0, coeffs, prec + 1)


def two_pass_final_inverse(cert):
    """A completion's final inverse by the inverse-then-product route:
    scale_column(T x^-n, d^-1) @ matrix_invert(S, prec + n + 2), with
    d = det(H_n) and S = H x^-n diag(1, d^-1)."""
    n = cert.n
    det_inv = det2(cert.H.coeff_matrix(n)).inverse()
    s_inv = matrix_invert(scale_column(cert.H.shift(-n), det_inv),
                          cert.prec + n + 2)
    return scale_column(cert.T.shift(-n), det_inv) @ s_inv


def assert_same_matrix(got, want):
    """Entrywise: the same valuation, coefficients and known_to."""
    assert [[(s.val, s.coeffs, s.known_to) for s in row] for row in got.rows] \
        == [[(s.val, s.coeffs, s.known_to) for s in row] for row in want.rows]


def corrected_row_text(dom):
    """J and the text of a row over dom with lowest coefficients
    generating J and tails in J, so extend needs no repair, whose s_n is
    nonzero at several orders."""
    if dom.is_quad:
        return (ideals.from_ring_generators(dom, [dom.elem(2), dom.elem(1, 1)]),
                ["2+(1+1*w)*x^1+2*x^3", "1+1*w+2*x^1+(1+1*w)*x^2"])
    return (ideals.from_ring_generators(dom, [dom.elem(2)]),
            ["2+4*x^1+2*x^3", "2+2*x^1+6*x^2"])
