import dataclasses
import random

import pytest

from skewdd import extension, ideals
from skewdd.errors import ConstIdealUnderestimate, MembershipError, PrecisionError
from skewdd.extension import (
    ExtensionCertificate,
    constant_ideal_bounded,
    extend,
    extend_with_repair,
    normalize_generators,
    verify_extension_certificate,
)
from skewdd.ideals import from_ring_generators, unit_ideal
from skewdd.series import SeriesMatrix, TruncatedSeries, mul
from skewdd.textio import parse_series, series_from_json

from conftest import rand_ideal, random_unit_series


def count_windows(monkeypatch):
    """Record the top order of every order window built from now on."""
    built = []
    window = extension._OrderWindow

    def counting(dom, gens, top):
        built.append(top)
        return window(dom, gens, top)

    monkeypatch.setattr(extension, "_OrderWindow", counting)
    return built


def test_constant_ideal_examples(zz, z5, monkeypatch):
    built = count_windows(monkeypatch)
    assert constant_ideal_bounded([parse_series(zz, "2+1*x^1")]).a == 2
    # (2) at orders 0..3 is four equal levels in a row: stop there
    assert built == [0, 1, 2, 3]
    assert constant_ideal_bounded(
        [parse_series(zz, "2+1*x^1"), parse_series(zz, "2")]).a == 1
    got = constant_ideal_bounded(
        [parse_series(z5, "2+1*x^1"), parse_series(z5, "1+1*w")])
    assert got.is_unit_ideal


def test_constant_ideal_precision(zz):
    short = TruncatedSeries(zz, 0, [zz.felem(2), zz.fone], 2)
    with pytest.raises(PrecisionError):
        constant_ideal_bounded([short])


def test_constant_ideal_shifted_generators(zz):
    # valuation is normalized away before the table is built
    f = parse_series(zz, "2*x^3+1*x^4")
    assert constant_ideal_bounded([f]).a == 2


def test_normalize_generators_examples(zz, z5):
    ng = normalize_generators(from_ring_generators(zz, [zz.elem(2)]),
                              [parse_series(zz, "2+1*x^1")])
    assert ng.rows[0][0] == parse_series(zz, "2+1*x^1")
    assert ng.rows[0][1] == parse_series(zz, "2+1*x^1")
    p2 = from_ring_generators(z5, [z5.elem(2), z5.elem(1, 1)])
    gens = [parse_series(z5, "2"), parse_series(z5, "1+1*w")]
    ng = normalize_generators(p2, gens)
    assert ng.rows[0][0].lowest() == z5.felem(2)
    assert ng.rows[0][1].lowest() == z5.felem(1, 1)
    # unit-ideal target realized through the recorded cancellation
    ng = normalize_generators(unit_ideal(zz),
                              [parse_series(zz, "2+1*x^1"), parse_series(zz, "2")])
    assert ng.rows[0][0].lowest() == zz.fone


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
        got = normalize_generators(target, [parse_series(dom, s) for s in gens])
        want = SeriesMatrix(dom, [[
            series_from_json(dom, {"val": val, "coeffs": coeffs, "prec": kt})
            for val, coeffs, kt in rows]])
        assert got == want


def test_normalize_unrealizable_target(zz, monkeypatch):
    built = count_windows(monkeypatch)
    with pytest.raises(MembershipError):
        normalize_generators(unit_ideal(zz), [parse_series(zz, "2+2*x^1")])
    # exact generators: give up once the level (2) has repeated four times
    assert built == [0, 1, 2, 3, 4]


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
    assert exc.value.enlarged.is_unit_ideal


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
    assert cert.ideal.is_unit_ideal
    assert verify_extension_certificate(cert).ok


def test_verify_detects_tampering(zz):
    j2 = from_ring_generators(zz, [zz.elem(2)])
    g = SeriesMatrix(zz, [[parse_series(zz, "2+1*x^1"),
                           parse_series(zz, "2+1*x^1")]])
    cert = extend(j2, g, 6)
    bumped = cert.A.rows[0][0] + TruncatedSeries.x_power(zz, 1)
    bad = ExtensionCertificate(
        cert.spec, cert.ideal, cert.g0, cert.g,
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
        cert.spec, cert.ideal, cert.g0, cert.g, cert.A, cert.q, 5, cert.audit)
    assert verify_extension_certificate(lower).ok


def test_extend_prec_zero_is_trivial(zz):
    j2 = from_ring_generators(zz, [zz.elem(2)])
    g = SeriesMatrix(zz, [[parse_series(zz, "2+1*x^1"),
                           parse_series(zz, "2+1*x^1")]])
    cert = extend(j2, g, 0)
    assert cert.prec == 0 and cert.q.lowest() == zz.fone
    assert verify_extension_certificate(cert).ok


def test_verify_rejects_overclaimed_precision(zz):
    j2 = from_ring_generators(zz, [zz.elem(2)])
    short = TruncatedSeries(zz, 0, [zz.felem(2), zz.fone], 5)
    g = SeriesMatrix(zz, [[short, short]])
    cert = extend(j2, g, 4)
    # claim more orders than the data carries
    inflated = ExtensionCertificate(
        cert.spec, cert.ideal, cert.g0, cert.g, cert.A, cert.q, 9, cert.audit)
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
    again = ExtensionCertificate.from_json(cert.to_json())
    assert verify_extension_certificate(again).ok
    assert again.to_json() == cert.to_json()


def test_inverse_of_q_recovers_the_constant_row(any_domain):
    """invert_unit(q) maps the certified generators back onto g0, whose
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
    their order-n combination into the constant-ideal lower bound.

    The columns s_i = A_i sigma^i(g0perp * q), q in J^(-1), satisfy the
    hypothesis by the certificate identity, so g * s has valuation >= n,
    and whenever the valuation is exactly n the lowest coefficient must
    pass the membership check against constant_ideal_bounded.
    """
    dom = z5c
    rng = random.Random(42)
    j_lat = ideals.from_ring_generators(dom, [dom.elem(2), dom.elem(1, 1)])
    hits = 0
    for _ in range(6):
        row = row_with_ideal_tails(dom, j_lat, rng, 10)
        cert = extend(j_lat, row, 10)
        const_lower = constant_ideal_bounded(list(row.rows[0]))
        jinv = cert.ideal.to_frac().inverse()
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
                assert const_lower.contains(prod.lowest())
                hits += 1
    assert hits > 10
