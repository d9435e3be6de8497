import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewdd import ideals, structure
from skewdd.domains import DomainSpec, _is_squarefree, get_domain
from skewdd.errors import NotTwoSided, SkewError, UnsupportedDomain
from skewdd.ideals import FracIdeal, from_ring_generators
from skewdd.series import TruncatedSeries


def reference_candidates(dom):
    """The candidate list the old simplicity search walked, with the
    sieve in place of its trial division: ramified primes (divisors of
    the discriminant) over quadratic orders, (2) and (3) over the
    integers. Its first entry was the reported witness."""
    if not dom.is_quad:
        return [FracIdeal(dom, 2), FracIdeal(dom, 3)]
    out = []
    disc = abs(dom.disc)
    for p in sieved_ramified_primes(disc):
        if p == 2 and not dom.omega_t:
            gen2 = dom.omega if dom.d % 4 == 2 else dom.one + dom.omega
            cand = from_ring_generators(dom, [dom.elem(2), gen2])
        else:
            root = dom.omega if not dom.omega_t else dom.elem(-1, 2)
            cand = from_ring_generators(dom, [dom.elem(p), root])
        if not cand.is_zero and not cand.is_unit:
            out.append(cand)
    return out


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


SMALL_DOMAINS = [get_domain(DomainSpec("quad", d, sigma))
                 for d in range(-399, 400) if abs(d) >= 2 and _is_squarefree(d)
                 for sigma in ("id", "conj")]


def test_simplicity_gauss_example(gauss):
    witness = structure.simplicity_witness(gauss)
    assert witness == from_ring_generators(gauss, [gauss.elem(1, 1)])
    assert witness.sigma(1) == witness


def test_simplicity_sqrt2_examples(root2):
    ramified = from_ring_generators(root2, [root2.elem(0, 1)])
    assert structure.simplicity_witness(root2) == ramified


def test_simplicity_identity_sigma(zz, z5):
    assert structure.simplicity_witness(zz) == FracIdeal(zz, 2)
    assert structure.simplicity_witness(z5) == FracIdeal(z5, 2, 1, 1)


def test_default_candidates_are_ramified(any_domain):
    """The witness is the old search's first candidate, and is proper and
    sigma-fixed, as every old candidate was."""
    witness = structure.simplicity_witness(any_domain)
    cands = reference_candidates(any_domain)
    assert witness == cands[0]
    for cand in cands:
        assert not cand.is_zero and not cand.is_unit
        assert cand.sigma(1) == cand


def test_witness_matches_the_reference_search(zz):
    """For int and every squarefree 2 <= |d| < 400 under both sigma, the
    witness is the reference's first candidate, sigma-fixed, and a
    ramified prime: P*P = (p) for the least prime p below it."""
    assert structure.simplicity_witness(zz) == reference_candidates(zz)[0]
    for dom in SMALL_DOMAINS:
        witness = structure.simplicity_witness(dom)
        assert witness == reference_candidates(dom)[0]
        assert witness.sigma(1) == witness
        p = sieved_ramified_primes(abs(dom.disc))[0]
        assert witness.mul(witness) == FracIdeal(dom, p, 0, p)


def test_candidates_match_the_sieve(monkeypatch):
    """Trial division finds the same least ramified prime as the sieve,
    so the witnesses are equal for every squarefree 2 <= |d| < 400."""
    got = [structure.simplicity_witness(dom) for dom in SMALL_DOMAINS]
    monkeypatch.setattr(structure, "_least_prime_factor",
                        lambda n: sieved_ramified_primes(n)[0])
    assert got == [structure.simplicity_witness(dom)
                   for dom in SMALL_DOMAINS]


def test_simplicity_witness_checks_its_claims(monkeypatch, gauss, z5c):
    """Forced onto a prime that does not ramify, the witness is refused:
    (3, 2i - 1) is the unit ideal, and conjugation moves (3, 2w - 1), a
    prime above 3 in Z[sqrt(-5)]."""
    monkeypatch.setattr(structure, "_least_prime_factor", lambda n: 3)
    with pytest.raises(SkewError, match="proper"):
        structure.simplicity_witness(gauss)
    with pytest.raises(SkewError, match="sigma does not fix"):
        structure.simplicity_witness(z5c)


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
    assert payload["simplicity"] == {"verdict": "non_simple",
                                     "witness": {"hnf": [2, 1, 1]}}
    sr = payload["stable_rank_witness"]
    assert sr["identity_ok"] is True
    assert "samples" not in sr
    assert sr["lowest_ideal"] == {"hnf": [2, 0, 2]}
    assert {label: case["lowest"] for label, case in sr["cases"].items()} \
        == {"k<0": "4", "k=0": "6", "k>0": "2"}
    text = rep.to_text()
    assert "class number h = 2" in text
