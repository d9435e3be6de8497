"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and budget is asserted, nothing is deferred.
"""

import hashlib
import random
import time

import pytest

from skewdd import completion, extension, ideals, structure
from skewdd.classgroup import enumerate_reduced_forms, class_group
from skewdd.cli import main as cli_main
from skewdd.domains import DomainSpec, get_domain
from skewdd.errors import ConstIdealUnderestimate, SigmaClassObstruction
from skewdd.ideals import from_ring_generators, unit_frac, unit_ideal
from skewdd.series import SeriesMatrix, TruncatedSeries, mul
from skewdd.textio import parse_series

from conftest import (
    DOMAIN_SPECS,
    completion_test_ideal,
    rand_frac_ideal,
    rand_ring_elem,
    random_unimodular_row,
    random_unit_series,
)
from test_classgroup import oracle_reduced_forms
from test_completion import hand_certificate

ALL_DOMAINS = [get_domain(s) for s in DOMAIN_SPECS]


def _announce(name, detail, elapsed, budget):
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS: {name} ({detail}, {elapsed:.2f}s < {budget}s)")


def test_criterion_class_numbers():
    t0 = time.monotonic()
    for disc, h, forms in [(-20, 2, [(1, 0, 5), (2, 2, 3)]),
                           (-4, 1, None), (-8, 1, None), (-3, 1, None)]:
        t1 = time.monotonic()
        got = enumerate_reduced_forms(disc)
        assert got == oracle_reduced_forms(disc)
        assert len(got) == h
        if forms is not None:
            assert got == forms
        assert time.monotonic() - t1 < 1.0
    dom = get_domain(DomainSpec("quad", -5, "id"))
    assert class_group(dom).h == 2
    _announce("class numbers", "discs -20, -4, -8, -3 against the "
              "independent enumeration oracle", time.monotonic() - t0, 4.0)


def test_criterion_ideal_algebra():
    t0 = time.monotonic()
    per_domain = 1000
    for dom in ALL_DOMAINS:
        rng = random.Random(101)
        for k in range(per_domain):
            u = rand_frac_ideal(dom, rng)
            assert u.mul(u.inverse()) == unit_frac(dom)
            v = rand_frac_ideal(dom, rng)
            assert u.mul(v).norm() == u.norm() * v.norm()
            if k % 5 == 0:
                g1, g2 = u.lat.two_generators()
                e = (g1 * rand_ring_elem(dom, rng)
                     + g2 * rand_ring_elem(dom, rng)).to_field()
                coeffs = ideals.express_in_generators(
                    e, [g1.to_field(), g2.to_field()])
                total = dom.fzero
                for g, c in zip((g1, g2), coeffs):
                    total = total + g.to_field() * c.to_field()
                assert total == e
                c = ideals.express_in_product(
                    (g1 * g2).to_field(), (g1.to_field(), g2.to_field()),
                    (g1.to_field(), g2.to_field()))
                total = dom.fzero
                gens = (g1.to_field(), g2.to_field())
                for j in range(2):
                    for kk in range(2):
                        total = total + c[j][kk].to_field() * gens[j] * gens[kk]
                assert total == (g1 * g2).to_field()
    _announce("ideal algebra suite",
              f"{per_domain} random fractional ideals x "
              f"{len(ALL_DOMAINS)} domains, exact inverses, norms and "
              "expression round-trips", time.monotonic() - t0, 30.0)


def _rand_series(dom, rng):
    v = rng.randint(-3, 3)
    coeffs = [dom.felem(rng.randint(-5, 5),
                        rng.randint(-5, 5) if dom.is_quad else 0)
              for _ in range(4)]
    return TruncatedSeries(dom, v, coeffs, v + 4 + rng.randint(0, 3))


def test_criterion_skew_series():
    t0 = time.monotonic()
    triples = 1000
    for dom in ALL_DOMAINS:
        rng = random.Random(102)
        for _ in range(50):
            d = rand_ring_elem(dom, rng).to_field()
            for i in range(-4, 5):
                xi = TruncatedSeries.x_power(dom, i)
                assert xi * TruncatedSeries.const(dom, d) == \
                    TruncatedSeries.from_coeff_map(
                        dom, [(i, dom.sigma_pow(d, i))])
        for _ in range(triples // len(ALL_DOMAINS)):
            f, g, h = (_rand_series(dom, rng) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert ((f * (g + h)) - (f * g + f * h)).is_known_zero
            p = f * g
            assert p.known_to == min(f.val + g.known_to, g.val + f.known_to)
        one = TruncatedSeries.const(dom, dom.fone)
        for _ in range(40):
            f = _rand_series(dom, rng)
            if f.is_known_zero:
                continue
            assert ((f * f.invert()) - one).is_known_zero
    _announce("skew series suite",
              "twist law, associativity/distributivity on random triples, "
              "inversion round-trips, exact precision law",
              time.monotonic() - t0, 30.0)


def test_criterion_extension_engine():
    t0 = time.monotonic()
    runs = 100
    for dom in ALL_DOMAINS:
        rng = random.Random(103)
        for _ in range(runs):
            while True:
                e1 = rand_ring_elem(dom, rng)
                e2 = rand_ring_elem(dom, rng)
                lat = from_ring_generators(dom, [e1, e2])
                if not lat.is_zero:
                    break
            g1, g2 = lat.two_generators()
            unit = random_unit_series(dom, 12, rng)
            row = SeriesMatrix(dom, [
                [mul(unit, TruncatedSeries.const(dom, g1.to_field())),
                 mul(unit, TruncatedSeries.const(dom, g2.to_field()))]])
            cert = extension.extend(lat, row, 12)
            assert cert.prec == 12
            assert extension.verify_extension_certificate(cert).ok
    # the designed repair case: exactly one underestimate, enlarging to (1)
    z5 = get_domain(DomainSpec("quad", -5, "id"))
    p2 = from_ring_generators(z5, [z5.elem(2), z5.elem(1, 1)])
    g = SeriesMatrix(z5, [[parse_series(z5, "2+1*x^1"),
                           parse_series(z5, "1+1*w")]])
    with pytest.raises(ConstIdealUnderestimate) as exc:
        extension.extend(p2, g, 8)
    assert exc.value.enlarged.is_unit_ideal
    cert, repairs = extension.extend_with_repair(
        [parse_series(z5, "2+1*x^1"), parse_series(z5, "1+1*w")], 8)
    assert repairs == 1 and cert.ideal.is_unit_ideal
    _announce("extension engine",
              f"{runs} randomized rows x {len(ALL_DOMAINS)} domains at "
              "prec 12, plus the designed repair case",
              time.monotonic() - t0, 120.0)


def test_criterion_completion_engine():
    t0 = time.monotonic()
    zz = get_domain(DomainSpec("int"))
    row = SeriesMatrix(zz, [[parse_series(zz, "2+1*x^1"),
                             parse_series(zz, "4+3*x^1")]])
    shaped = completion.ShapedRow(row, unit_ideal(zz), unit_ideal(zz))
    t_col = SeriesMatrix(zz, [[parse_series(zz, "(-2)*x^-1")],
                              [parse_series(zz, "1*x^-1")]])
    cert = completion.complete_unimodular_row(shaped, t_col, 8,
                                              random.Random(0))
    assert completion.verify_completion(cert).ok
    assert completion.verify_completion(hand_certificate(zz)).ok
    runs = 100
    for dom in ALL_DOMAINS:
        rng = random.Random(104)
        j_lat = completion_test_ideal(dom)
        for _ in range(runs):
            shaped, t = random_unimodular_row(dom, j_lat, rng)
            try:
                cert = completion.complete_unimodular_row(
                    shaped, t, 8, random.Random(0))
            except SigmaClassObstruction as err:
                raise AssertionError(
                    f"obstruction on a supported instance: {err}") from err
            assert completion.verify_completion(cert).ok
    _announce("completion engine",
              f"the hand row and its classical completion, plus {runs} "
              f"random elementary-product rows x {len(ALL_DOMAINS)} domains "
              "with no obstruction", time.monotonic() - t0, 180.0)


def test_criterion_stable_rank_witness():
    t0 = time.monotonic()
    zz = get_domain(DomainSpec("int"))
    z5 = get_domain(DomainSpec("quad", -5, "id"))
    cases = [(zz, zz.elem(a)) for a in (2, 3, 5)] + [(z5, z5.elem(1, 1))]
    for dom, a in cases:
        wit = structure.stable_rank_witness(dom, a, samples=500,
                                            rng=random.Random(9))
        assert wit.identity_ok
        assert sum(wit.cases.values()) == 500
    _announce("stable-rank witness",
              "exact identity for a in {2,3,5} over Z and 1+w over "
              "Z[sqrt(-5)], 500 sampled reductions each",
              time.monotonic() - t0, 10.0)


def test_criterion_k0_report():
    t0 = time.monotonic()
    for spec in (DomainSpec("quad", -5, "id"), DomainSpec("quad", -5, "conj")):
        dom = get_domain(spec)
        rep = structure.k0_report(dom, samples=50, rng=random.Random(1))
        assert rep.h == 2 and rep.sigma_trivial
        assert "G(R) = G(D) = Z/2" in rep.k0_text
        assert "Z + Z/2" in rep.k0_text
        assert rep.witness_ideal is not None
        assert completion.extended_ideal_iso(
            rep.witness_ideal, unit_ideal(dom)) is None
    for spec in (DomainSpec("int"), DomainSpec("quad", -1, "conj")):
        dom = get_domain(spec)
        rep = structure.k0_report(dom, samples=50, rng=random.Random(1))
        assert rep.h == 1
        assert "K0(R) = Z" in rep.k0_text
    _announce("K0 report",
              "Z[sqrt(-5)] reports Z + Z/2 with a machine nonprincipality "
              "witness; Z and Z[i] report Z", time.monotonic() - t0, 30.0)


def test_criterion_determinism(tmp_path):
    t0 = time.monotonic()
    digests = []
    for name in ("one", "two"):
        ext_path = tmp_path / f"ext-{name}.json"
        code = cli_main(["extend", "--domain", "quad:-5:conj",
                         "--gens", '["2+1*x^1","1+1*w"]', "--prec", "10",
                         "--seed", "3", "--out", str(ext_path)])
        assert code == 0
        digests.append(hashlib.sha256(ext_path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    import json
    from skewdd.textio import series_to_json
    zz = get_domain(DomainSpec("int"))
    row_path = tmp_path / "row.json"
    wit_path = tmp_path / "wit.json"
    row_path.write_text(json.dumps([
        series_to_json(parse_series(zz, "2+1*x^1")),
        series_to_json(parse_series(zz, "4+3*x^1"))]))
    wit_path.write_text(json.dumps([
        series_to_json(parse_series(zz, "(-2)*x^-1")),
        series_to_json(parse_series(zz, "1*x^-1"))]))
    digests = []
    for name in ("one", "two"):
        cpl_path = tmp_path / f"cpl-{name}.json"
        code = cli_main(["complete-row", "--domain", "int",
                         "--ideal", '{"hnf":[1]}', "--row", str(row_path),
                         "--witness", str(wit_path), "--prec", "8",
                         "--seed", "3", "--out", str(cpl_path)])
        assert code == 0
        digests.append(hashlib.sha256(cpl_path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    _announce("determinism",
              "fixed seed gives byte-identical extension and completion "
              "certificates (sha256 compare)", time.monotonic() - t0, 30.0)
