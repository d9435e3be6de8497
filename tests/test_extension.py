import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewdd import extension, ideals
from skewdd.errors import (ConstIdealUnderestimate, MembershipError,
                           PrecisionError, SkewError)
from skewdd.extension import (
    ExtensionCertificate,
    extend,
    extend_with_repair,
    normalize_generators,
    verify_extension_certificate,
)
from skewdd.ideals import from_ring_generators, unit_ideal
from skewdd.series import SeriesMatrix, TruncatedSeries, mul
from skewdd.textio import (certificate_from_json, certificate_to_json,
                           parse_series, series_from_json)

from conftest import (corrected_row_text, rand_ideal, rand_ring_elem,
                      random_unit_series)
from reference import reference_extend


def count_windows(monkeypatch):
    """Record the top order of every order window built from now on."""
    built = []
    grow = extension._OrderWindow.grow

    def counting(window):
        grow(window)
        built.append(window.top)

    monkeypatch.setattr(extension._OrderWindow, "grow", counting)
    return built


def window_of(gens):
    """An empty order window over the normalized generators."""
    norm = extension._normalized_ring_gens(gens)
    return extension._OrderWindow(norm[0].dom, norm, -1)


def test_normalize_generators_examples(zz, z5):
    ng, t = normalize_generators(from_ring_generators(zz, [zz.elem(2)]),
                                 window_of([parse_series(zz, "2+1*x^1")]), 0)
    assert t == 0
    assert ng.rows[0][0] == parse_series(zz, "2+1*x^1")
    assert ng.rows[0][1] == parse_series(zz, "2+1*x^1")
    # valuation is normalized away before the window is built
    assert normalize_generators(
        from_ring_generators(zz, [zz.elem(2)]),
        window_of([parse_series(zz, "2*x^3+1*x^4")]), 0) == (ng, 0)
    p2 = from_ring_generators(z5, [z5.elem(2), z5.elem(1, 1)])
    gens = [parse_series(z5, "2"), parse_series(z5, "1+1*w")]
    ng, t = normalize_generators(p2, window_of(gens), 0)
    assert t == 0
    assert ng.rows[0][0].lowest() == z5.felem(2)
    assert ng.rows[0][1].lowest() == z5.felem(1, 1)
    # unit-ideal target realized through the recorded cancellation
    ng, t = normalize_generators(unit_ideal(zz), window_of(
        [parse_series(zz, "2+1*x^1"), parse_series(zz, "2")]), 8)
    assert t == 1
    assert ng.rows[0][0].lowest() == zz.fone
    # ... but not when the search must stop at window 0
    with pytest.raises(MembershipError):
        normalize_generators(unit_ideal(zz), window_of(
            [parse_series(zz, "2+1*x^1"), parse_series(zz, "2")]), 0)


def test_normalize_generators_pinned_rows(zz, z5, z5c):
    """Exact rows, known_to included: the rows enter the certificate, so
    any change to the window construction must leave them unchanged."""
    p2 = from_ring_generators(z5, [z5.elem(2), z5.elem(1, 1)])
    cases = [
        (zz, from_ring_generators(zz, [zz.elem(2)]), ["2+1*x^1"],
         [(0, ["2", "1"], None), (0, ["2", "1"], None)]),
        (z5, p2, ["2", "1+1*w"],
         [(0, ["2"], None), (0, ["1+1*w"], None)]),
        (zz, unit_ideal(zz), ["2+1*x^1", "2"],
         [(0, ["1"], None), (0, ["1"], None)]),
        (z5, unit_ideal(z5), ["2+1*x^1", "1+1*w"],
         [(0, ["1", "1*w"], None), (0, ["1*w", "-5"], None)]),
        (z5c, unit_ideal(z5c), ["2+1*x^1", "1+1*w"],
         [(0, ["1", "1*w"], None), (0, ["1*w", "5"], None)]),
        # realizable only at the last known order
        (zz, unit_ideal(zz), ["2+1*x^1+O(x^2)", "2"],
         [(0, ["1"], 1), (0, ["1"], 1)]),
        (zz, unit_ideal(zz), ["2+1*x^1+3*x^2+O(x^5)", "2+2*x^1"],
         [(0, ["1", "-3"], 4), (0, ["1", "-3"], 4)]),
        (z5c, unit_ideal(z5c), ["2+1*w*x^1+3*x^2+O(x^6)", "1+1*w+2*x^1"],
         [(0, ["1", "-7-3*w", "3*w"], 5), (0, ["1*w", "-15+7*w", "-15"], 5)]),
    ]
    for dom, target, gens, rows in cases:
        # the known orders, not top, end the truncated cases' search
        got, _ = normalize_generators(
            target, window_of([parse_series(dom, s) for s in gens]), 8)
        want = SeriesMatrix(dom, [[
            series_from_json(dom, {"val": val, "coeffs": coeffs, "prec": kt})
            for val, coeffs, kt in rows]])
        assert got == want


def test_normalize_unrealizable_target(zz, monkeypatch):
    built = count_windows(monkeypatch)
    with pytest.raises(MembershipError):
        normalize_generators(unit_ideal(zz),
                             window_of([parse_series(zz, "2+2*x^1")]), 4)
    # exact generators: the search ends at window order top
    assert built == [0, 1, 2, 3, 4]


def test_give_up_names_the_last_level_ideal(zz):
    """A search that gives up names the level ideal of its last window,
    (2) for 2 + 2x through window 4, built once, when it gives up."""
    with pytest.raises(MembershipError) as err:
        normalize_generators(unit_ideal(zz),
                             window_of([parse_series(zz, "2+2*x^1")]), 4)
    assert err.value.lattice == from_ring_generators(zz, [zz.elem(2)])
    assert err.value.element == unit_ideal(zz).two_generators()


def test_extend_pid_example(zz):
    j2 = from_ring_generators(zz, [zz.elem(2)])
    g = SeriesMatrix(zz, [[parse_series(zz, "2+1*x^1"),
                           parse_series(zz, "2+1*x^1")]])
    cert = extend(j2, g, 6)
    assert cert.q == TruncatedSeries.from_coeff_map(
        zz, [(0, zz.fone), (1, zz.felem(1, den=2))], 7)
    ident = SeriesMatrix.identity(zz)
    assert all((cert.A.rows[i][j] - ident.rows[i][j]).is_known_zero
               for i in range(2) for j in range(2))
    assert verify_extension_certificate(cert).ok


def test_extend_exact_multiple_example(z5):
    p2 = from_ring_generators(z5, [z5.elem(2), z5.elem(1, 1)])
    g = SeriesMatrix(z5, [[parse_series(z5, "2+2*x^1"),
                           parse_series(z5, "1+1*w+(1+1*w)*x^1")]])
    cert = extend(p2, g, 6)
    assert cert.q == TruncatedSeries.from_coeff_map(
        z5, [(0, z5.fone), (1, z5.fone)], 7)
    assert verify_extension_certificate(cert).ok


def test_extend_underestimate_example(z5):
    p2 = from_ring_generators(z5, [z5.elem(2), z5.elem(1, 1)])
    g = SeriesMatrix(z5, [[parse_series(z5, "2+1*x^1"),
                           parse_series(z5, "1+1*w")]])
    with pytest.raises(ConstIdealUnderestimate) as exc:
        extend(p2, g, 6)
    assert exc.value.order == 1
    assert exc.value.witness == z5.elem(1, 1)
    assert exc.value.enlarged.is_unit


def test_extend_precision_deficit(zz):
    j2 = from_ring_generators(zz, [zz.elem(2)])
    short = TruncatedSeries(zz, 0, [zz.felem(2), zz.fone], 3)
    g = SeriesMatrix(zz, [[short, short]])
    with pytest.raises(PrecisionError) as exc:
        extend(j2, g, 6)
    assert exc.value.deficit == 4


def test_repair_loop(z5):
    cert, repairs = extend_with_repair(
        [parse_series(z5, "2+1*x^1"), parse_series(z5, "1+1*w")], 8)
    assert repairs == 1
    assert cert.ideal.is_unit
    assert verify_extension_certificate(cert).ok


def test_verify_detects_tampering(zz):
    j2 = from_ring_generators(zz, [zz.elem(2)])
    g = SeriesMatrix(zz, [[parse_series(zz, "2+1*x^1"),
                           parse_series(zz, "2+1*x^1")]])
    cert = extend(j2, g, 6)
    bumped = cert.A.rows[0][0] + TruncatedSeries.x_power(zz, 1)
    bad = ExtensionCertificate(
        cert.domain, cert.ideal, cert.g0, cert.g,
        SeriesMatrix(zz, [[bumped, cert.A.rows[0][1]], list(cert.A.rows[1])]),
        cert.q, cert.prec, cert.audit)
    rep = verify_extension_certificate(bad)
    assert not rep.ok and rep.first_bad_order == 1


def test_verify_monotone_in_precision(zz):
    j2 = from_ring_generators(zz, [zz.elem(2)])
    g = SeriesMatrix(zz, [[parse_series(zz, "2+1*x^1"),
                           parse_series(zz, "2+1*x^1")]])
    cert = extend(j2, g, 8)
    lower = ExtensionCertificate(
        cert.domain, cert.ideal, cert.g0, cert.g, cert.A, cert.q, 5, cert.audit)
    assert verify_extension_certificate(lower).ok


def test_extend_prec_zero_is_trivial(zz):
    j2 = from_ring_generators(zz, [zz.elem(2)])
    g = SeriesMatrix(zz, [[parse_series(zz, "2+1*x^1"),
                           parse_series(zz, "2+1*x^1")]])
    cert = extend(j2, g, 0)
    assert cert.prec == 0 and cert.q.lowest() == zz.fone
    assert verify_extension_certificate(cert).ok


def test_extend_on_constant_generators(any_domain):
    """Exact constant generators have g_i = 0 for every i >= 1, so no
    order has a term: A stays the identity and q stays 1 through prec."""
    rng = random.Random(7)
    for _ in range(3):
        j_lat = rand_ideal(any_domain, rng)
        row = SeriesMatrix(any_domain, [[TruncatedSeries.const(any_domain, a)
                                         for a in j_lat.two_generators()]])
        cert = extend(j_lat, row, 5)
        assert cert.A == SeriesMatrix.identity(any_domain, 2, 6)
        assert cert.q == TruncatedSeries.const(any_domain, 1, 6)
        assert verify_extension_certificate(cert).ok


def test_verify_rejects_overclaimed_precision(zz):
    j2 = from_ring_generators(zz, [zz.elem(2)])
    short = TruncatedSeries(zz, 0, [zz.felem(2), zz.fone], 5)
    g = SeriesMatrix(zz, [[short, short]])
    cert = extend(j2, g, 4)
    # claim more orders than the data carries
    inflated = ExtensionCertificate(
        cert.domain, cert.ideal, cert.g0, cert.g, cert.A, cert.q, 9, cert.audit)
    rep = verify_extension_certificate(inflated)
    assert not rep.ok


def test_verify_precision_threshold(zz):
    """Data known below order 5 verifies q*g0 = g*A below order 5. An
    extension claim covers orders 0..prec, so 4 is the largest claim that
    passes and 5 the smallest that fails (verified bound <= prec)."""
    j2 = from_ring_generators(zz, [zz.elem(2)])
    short = TruncatedSeries(zz, 0, [zz.felem(2), zz.fone], 5)
    cert = extend(j2, SeriesMatrix(zz, [[short, short]]), 4)
    assert verify_extension_certificate(dataclasses.replace(cert, prec=4)).ok
    rep = verify_extension_certificate(dataclasses.replace(cert, prec=5))
    failed = [c for c in rep.checks if not c["ok"]]
    assert [c["name"] for c in failed] == ["defining identity q*g0 = g*A"]
    assert "verified only below order 5" in failed[0]["detail"]


def test_extend_roundtrip_json(z5):
    cert, _ = extend_with_repair(
        [parse_series(z5, "2+1*x^1"), parse_series(z5, "1+1*w")], 6)
    obj = certificate_to_json(cert)
    again = certificate_from_json(obj)
    assert verify_extension_certificate(again).ok
    assert certificate_to_json(again) == obj


def test_inverse_of_q_recovers_the_constant_row(any_domain):
    """q.invert() maps the certified generators back onto g0, whose
    entries lie in the ideal (coefficientwise membership re-check)."""
    rng = random.Random(44)
    for _ in range(5):
        j_lat = rand_ideal(any_domain, rng)
        row = row_with_ideal_tails(any_domain, j_lat, rng, 8)
        cert = extend(j_lat, row, 8)
        q_inv = cert.q.invert()
        ga = cert.g @ cert.A
        for j, a_j in enumerate(cert.g0):
            back = mul(q_inv, ga.rows[0][j])
            diff = back - TruncatedSeries.const(any_domain, a_j.to_field())
            assert diff.is_known_zero
            for coef in back.coeffs:
                assert cert.ideal.contains(coef)


def test_extend_randomized(any_domain):
    rng = random.Random(41)
    dom = any_domain
    for _ in range(20):
        j_lat = rand_ideal(dom, rng)
        g1, g2 = j_lat.two_generators()
        unit = random_unit_series(dom, 12, rng)
        row = SeriesMatrix(dom, [[mul(unit, TruncatedSeries.const(dom, g1.to_field())),
                                  mul(unit, TruncatedSeries.const(dom, g2.to_field()))]])
        cert = extend(j_lat, row, 12)
        assert verify_extension_certificate(cert).ok


def row_with_ideal_tails(dom, j_lat, rng, prec):
    """Row with lowest coefficients two_generators(J) and independent
    random tails whose coefficients stay inside J.

    The generated right ideal then sits inside J*R while its lowest
    coefficients generate J, so the constant ideal is exactly J, yet the
    correction matrices A_n are generically nontrivial.
    """
    g1, g2 = j_lat.two_generators()
    entries = []
    for lead in (g1, g2):
        items = [(0, lead.to_field())]
        for i in range(1, prec + 1):
            e = g1 * rng.randint(-2, 2) + g2 * rng.randint(-2, 2)
            if e:
                items.append((i, e.to_field()))
        entries.append(TruncatedSeries.from_coeff_map(dom, items, prec + 1))
    return SeriesMatrix(dom, [entries])


def test_extend_with_nontrivial_corrections(any_domain):
    rng = random.Random(43)
    saw_nontrivial = False
    for _ in range(10):
        j_lat = rand_ideal(any_domain, rng)
        row = row_with_ideal_tails(any_domain, j_lat, rng, 10)
        cert = extend(j_lat, row, 10)
        assert verify_extension_certificate(cert).ok
        if any(cert.A.coeff_matrix(i) != SeriesMatrix.identity(any_domain).coeff_matrix(0)
               and any(any(bool(e) for e in r) for r in cert.A.coeff_matrix(i))
               for i in range(1, 11)):
            saw_nontrivial = True
    assert saw_nontrivial


def test_vanishing_columns_feed_the_constant_ideal(z5c):
    """Columns satisfying the vanishing hypothesis through order n-1 push
    their order-n combination into the constant ideal.

    The columns s_i = A_i sigma^i(g0perp * q), q in J^(-1), satisfy the
    hypothesis by the certificate identity, so g * s has valuation >= n,
    and whenever the valuation is exactly n the lowest coefficient must
    lie in the certificate's constant ideal.
    """
    dom = z5c
    rng = random.Random(42)
    j_lat = ideals.from_ring_generators(dom, [dom.elem(2), dom.elem(1, 1)])
    hits = 0
    for _ in range(6):
        row = row_with_ideal_tails(dom, j_lat, rng, 10)
        cert = extend(j_lat, row, 10)
        jinv = cert.ideal.inverse()
        a1, a2 = cert.g0
        g0perp = [a2.to_field(), (-a1).to_field()]
        for _ in range(10):
            qg1, qg2 = jinv.gens()
            q = qg1 * rng.randint(-2, 2) + qg2 * rng.randint(-2, 2)
            if not q:
                continue
            n = rng.randint(1, 5)
            entries = []
            for r in range(2):
                items = []
                for i in range(n):
                    a_i = cert.A.coeff_matrix(i)
                    val = a_i[r][0] * dom.sigma_pow(g0perp[0] * q, i) \
                        + a_i[r][1] * dom.sigma_pow(g0perp[1] * q, i)
                    items.append((i, val))
                entries.append([TruncatedSeries.from_coeff_map(dom, items)])
            s_col = SeriesMatrix(dom, entries)
            prod = (cert.g @ s_col).rows[0][0]
            if prod.is_known_zero:
                continue
            assert prod.valuation() >= n
            if prod.valuation() == n:
                assert cert.ideal.contains(prod.lowest())
                hits += 1
    assert hits > 10


def row_with_free_tails(dom, j_lat, rng, prec):
    """Row with lowest coefficients two_generators(J) and random tails in
    D, not only in J, so that extend may find J too small."""
    entries = []
    for lead in j_lat.two_generators():
        items = [(0, lead.to_field())]
        items += [(i, rand_ring_elem(dom, rng, -3, 3).to_field())
                  for i in range(1, prec + 1)]
        entries.append(TruncatedSeries.from_coeff_map(dom, items, prec + 1))
    return SeriesMatrix(dom, [entries])


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32), prec=st.integers(0, 12),
       free=st.booleans())
def test_extend_matches_per_term_loop(any_domain, seed, prec, free):
    """extend's A, q and audit equal the per-term loop's on rows with tails
    in J; on rows with free tails, where J may be too small, both raise
    ConstIdealUnderestimate at the same order with the same s_n."""
    rng = random.Random(seed)
    j_lat = rand_ideal(any_domain, rng)
    make_row = row_with_free_tails if free else row_with_ideal_tails
    row = make_row(any_domain, j_lat, rng, prec)
    try:
        want = reference_extend(j_lat, row, prec)
    except ConstIdealUnderestimate as err:
        with pytest.raises(ConstIdealUnderestimate) as got:
            extend(j_lat, row, prec)
        assert (got.value.order, got.value.witness, got.value.enlarged) \
            == (err.order, err.witness, err.enlarged)
        return
    cert = extend(j_lat, row, prec)
    assert (cert.A, cert.q, cert.audit) == want


def corrected_row(dom):
    """J and the row of corrected_row_text, parsed."""
    j_lat, gens = corrected_row_text(dom)
    return j_lat, SeriesMatrix(dom, [[parse_series(dom, s) for s in gens]])


@pytest.mark.parametrize("pick", [0, 1, -1])
def test_a_wrong_solution_fails_the_induction_invariant(any_domain,
                                                        monkeypatch, pick):
    """One solved c_jk off by 1 at one order makes extend's own invariant
    check fail at that order; no certificate comes back."""
    j_lat, row = corrected_row(any_domain)
    solved = [a["n"] for a in extend(j_lat, row, 6).audit if a["s_n"] != "0"]
    assert len(solved) >= 2
    order = solved[pick]
    solve = ideals.PreparedBasis.solve
    calls = []

    def off_by_one(self, target):
        c = solve(self, target)
        calls.append(target)
        if len(calls) == solved.index(order) + 1:
            c[0] = (c[0][0] + 1, c[0][1])
        return c

    monkeypatch.setattr(ideals.PreparedBasis, "solve", off_by_one)
    with pytest.raises(SkewError,
                       match=f"^induction invariant failed at order {order}$"):
        extend(j_lat, row, 6)


def test_order_loop_refuses_a_fractional_partial_sum(zz, monkeypatch):
    """g and A are integral, so relaxed_product hands every order's
    partial sum over denominator 1; any other denominator is an internal
    error, not a value to solve with."""
    j_lat, row = corrected_row(zz)
    relaxed = extension.relaxed_product

    def doubling(dom, known, offset, nterms, step, *args):
        return relaxed(dom, known, offset, nterms,
                       lambda t, den, s: step(t, 2 * den, s), *args)

    monkeypatch.setattr(extension, "relaxed_product", doubling)
    with pytest.raises(SkewError, match="^internal error: .*denominator 2"):
        extend(j_lat, row, 4)
