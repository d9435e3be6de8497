import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewdd import ideals, structure
from skewdd.domains import DomainSpec, _is_squarefree, get_domain
from skewdd.errors import NotTwoSided, SkewError, UnsupportedDomain
from skewdd.ideals import FracIdeal, from_ring_generators
from skewdd.series import TruncatedSeries


def test_simplicity_gauss_example(gauss):
    cand = from_ring_generators(gauss, [gauss.elem(1, 1)])
    verdict = structure.simplicity_probe(gauss, [cand])
    assert verdict.simple is False
    assert verdict.witness == cand
    # the witness is re-checked: sigma fixes it
    assert verdict.witness.sigma(1) == verdict.witness


def test_simplicity_sqrt2_examples(root2):
    ramified = from_ring_generators(root2, [root2.elem(0, 1)])
    assert structure.simplicity_probe(root2, [ramified]).simple is False
    p7 = from_ring_generators(root2, [root2.elem(7), root2.elem(3, 1)])
    verdict = structure.simplicity_probe(root2, [p7])
    assert verdict.simple is None
    assert verdict.checked == [p7]


def test_simplicity_identity_sigma(zz, z5):
    assert structure.simplicity_probe(zz).simple is False
    assert structure.simplicity_probe(z5).simple is False


def test_default_candidates_are_ramified(any_domain):
    for cand in structure.default_simplicity_candidates(any_domain):
        assert not cand.is_zero and not cand.is_unit
        if any_domain.is_quad:
            # ramified primes are sigma-fixed
            assert cand.conj() == cand


def sieved_ramified_primes(disc: int):
    """The primes up to disc that divide disc, by a sieve of Eratosthenes
    over 2..disc."""
    sieve = [True] * (disc + 1)
    out = []
    for p in range(2, disc + 1):
        if sieve[p]:
            if disc % p == 0:
                out.append(p)
            for q in range(p * p, disc + 1, p):
                sieve[q] = False
    return out


def test_candidates_match_the_sieve(monkeypatch):
    """Trial division finds the same ramified primes as the sieve, so the
    candidate lists are equal for every squarefree 2 <= |d| < 400."""
    doms = [get_domain(DomainSpec("quad", d, sigma))
            for d in range(-399, 400) if abs(d) >= 2 and _is_squarefree(d)
            for sigma in ("id", "conj")]
    got = [structure.default_simplicity_candidates(dom) for dom in doms]
    monkeypatch.setattr(structure, "_prime_factors", sieved_ramified_primes)
    assert got == [structure.default_simplicity_candidates(dom)
                   for dom in doms]


def test_asano_inverse_examples(gauss, zz, root2):
    c = from_ring_generators(gauss, [gauss.elem(1, 1)])
    inv = structure.asano_inverse(c)
    assert c.mul(inv).is_unit
    assert inv == FracIdeal(gauss, c.a, c.b, c.c, 2)
    six = FracIdeal(zz, 6)
    assert structure.asano_inverse(six) == FracIdeal(zz, 1, den=6)
    p7 = from_ring_generators(root2, [root2.elem(7), root2.elem(3, 1)])
    with pytest.raises(NotTwoSided):
        structure.asano_inverse(p7)


def test_stable_rank_witness_examples(zz, z5):
    for a_val in (2, 3, 5):
        wit = structure.stable_rank_witness(zz, zz.elem(a_val))
        assert wit.identity_ok
        assert wit.b == zz.elem(1 + a_val)
        assert wit.lowest_ideal == FracIdeal(zz, a_val)
        assert [c.as_ring() for c in wit.cases.values()] == [
            zz.elem(a_val * a_val), zz.elem(a_val + a_val * a_val),
            zz.elem(a_val)]
    wit = structure.stable_rank_witness(z5, z5.elem(1, 1))
    assert wit.identity_ok
    assert wit.b == z5.one + z5.elem(1, 1)


def test_stable_rank_witness_rejects_units(zz):
    with pytest.raises(SkewError):
        structure.stable_rank_witness(zz, zz.elem(1))
    with pytest.raises(SkewError):
        structure.stable_rank_witness(zz, zz.elem(0))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_stable_rank_case_formula(any_domain, data):
    """No reduction (a + x) + (a^2 + b x) r is a unit: for r of valuation
    -3..3 with coefficients in D, its lowest coefficient is the case
    formula, lies in aD and is not a unit of D (a = 2, the report's
    choice)."""
    dom = any_domain
    a = dom.elem(2)
    wit = structure.stable_rank_witness(dom, a)
    assert wit.lowest_ideal == from_ring_generators(dom, [a])
    part = st.integers(-4, 4)
    elem = st.builds(dom.elem, part, part if dom.is_quad else st.just(0))
    k = data.draw(st.integers(-3, 3))
    r_k = data.draw(elem.filter(bool))
    coeffs = [r_k] + data.draw(st.lists(elem, max_size=3))
    r = TruncatedSeries(dom, k, [c.to_field() for c in coeffs], k + 5)
    a_plus_x = TruncatedSeries.from_coeff_map(dom, [(0, a), (1, dom.one)])
    second = TruncatedSeries.from_coeff_map(dom, [(0, a * a), (1, wit.b)])
    low = (a_plus_x + second * r).lowest()
    if k < 0:
        want = a * a * r_k
    elif k == 0:
        want = a * (dom.one + a * r_k)
    else:
        want = a
    assert low == want.to_field()
    assert low and wit.lowest_ideal.contains(low)
    assert not low.as_ring().is_unit()


def test_k0_report_z5(z5, z5c):
    for dom in (z5, z5c):
        rep = structure.k0_report(dom)
        assert rep.h == 2
        assert rep.sigma_trivial
        assert "Z/2" in rep.k0_text
        assert rep.witness_ideal is not None
        assert (rep.witness_ideal.a, rep.witness_ideal.b,
                rep.witness_ideal.c) == (2, 1, 1)


def test_k0_report_trivial_groups(zz, gauss):
    for dom in (zz, gauss):
        rep = structure.k0_report(dom)
        assert rep.h == 1
        assert "K0(R) = Z" in rep.k0_text
        assert rep.witness_ideal is None


def test_k0_report_unsupported(root2):
    with pytest.raises(UnsupportedDomain):
        structure.k0_report(root2)


def test_k0_report_nontrivial_sigma_action():
    d23 = get_domain(DomainSpec("quad", -23, "conj"))
    rep = structure.k0_report(d23)
    assert not rep.sigma_trivial
    assert "not identified" in rep.k0_text


def test_report_json_shape(z5):
    rep = structure.k0_report(z5)
    payload = rep.to_json()
    assert payload["class_number"] == 2
    assert payload["sigma_acts_trivially"] is True
    assert payload["simplicity"]["verdict"] == "non_simple"
    sr = payload["stable_rank_witness"]
    assert sr["identity_ok"] is True
    assert "samples" not in sr
    assert sr["lowest_ideal"] == {"hnf": [2, 0, 2]}
    assert {label: case["lowest"] for label, case in sr["cases"].items()} \
        == {"k<0": "4", "k=0": "6", "k>0": "2"}
    text = rep.to_text()
    assert "class number h = 2" in text
