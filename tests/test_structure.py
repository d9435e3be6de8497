import random

import pytest

from skewdd import ideals, structure
from skewdd.domains import DomainSpec, get_domain
from skewdd.errors import NotTwoSided, SkewError, UnsupportedDomain
from skewdd.ideals import FracIdeal, from_ring_generators


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
        wit = structure.stable_rank_witness(zz, zz.elem(a_val), samples=100,
                                            rng=random.Random(1))
        assert wit.identity_ok
        assert wit.b == zz.elem(1 + a_val)
    wit = structure.stable_rank_witness(z5, z5.elem(1, 1), samples=100,
                                        rng=random.Random(1))
    assert wit.identity_ok
    assert wit.b == z5.one + z5.elem(1, 1)


def test_stable_rank_witness_rejects_units(zz):
    with pytest.raises(SkewError):
        structure.stable_rank_witness(zz, zz.elem(1))
    with pytest.raises(SkewError):
        structure.stable_rank_witness(zz, zz.elem(0))


def test_stable_rank_cases_cover_split(zz):
    wit = structure.stable_rank_witness(zz, zz.elem(2), samples=300,
                                        rng=random.Random(2))
    assert all(wit.cases[k] > 0 for k in ("k<0", "k=0", "k>0"))
    assert sum(wit.cases.values()) == 300


def test_k0_report_z5(z5, z5c):
    for dom in (z5, z5c):
        rep = structure.k0_report(dom, samples=50)
        assert rep.h == 2
        assert rep.sigma_trivial
        assert "Z/2" in rep.k0_text
        assert rep.witness_ideal is not None
        assert (rep.witness_ideal.a, rep.witness_ideal.b,
                rep.witness_ideal.c) == (2, 1, 1)


def test_k0_report_trivial_groups(zz, gauss):
    for dom in (zz, gauss):
        rep = structure.k0_report(dom, samples=50)
        assert rep.h == 1
        assert "K0(R) = Z" in rep.k0_text
        assert rep.witness_ideal is None


def test_k0_report_unsupported(root2):
    with pytest.raises(UnsupportedDomain):
        structure.k0_report(root2)


def test_k0_report_nontrivial_sigma_action():
    d23 = get_domain(DomainSpec("quad", -23, "conj"))
    rep = structure.k0_report(d23, samples=20)
    assert not rep.sigma_trivial
    assert "not identified" in rep.k0_text


def test_report_json_shape(z5):
    rep = structure.k0_report(z5, samples=20)
    payload = rep.to_json()
    assert payload["class_number"] == 2
    assert payload["sigma_acts_trivially"] is True
    assert payload["simplicity"]["verdict"] == "non_simple"
    assert payload["stable_rank_witness"]["identity_ok"] is True
    text = rep.to_text()
    assert "class number h = 2" in text
