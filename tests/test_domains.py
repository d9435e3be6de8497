import operator
import random
from fractions import Fraction

import pytest

from skewdd.domains import DomainSpec, get_domain
from skewdd.errors import SkewError

from conftest import rand_ring_elem


def test_domain_spec_validation():
    DomainSpec("int")
    DomainSpec("quad", -5, "conj")
    with pytest.raises(ValueError):
        DomainSpec("quad", 12, "id")  # not squarefree
    with pytest.raises(ValueError):
        DomainSpec("quad", 1, "id")
    with pytest.raises(ValueError):
        DomainSpec("int", sigma="conj")
    with pytest.raises(ValueError):
        DomainSpec("quad", 8, "id")


def test_omega_convention():
    d13 = get_domain(DomainSpec("quad", 13, "id"))
    assert d13.omega_t == 1 and d13.omega_c == 3 and d13.disc == 13
    dm5 = get_domain(DomainSpec("quad", -5, "id"))
    assert dm5.omega_t == 0 and dm5.omega_c == -5 and dm5.disc == -20


def test_sigma_apply_examples(root2, zz):
    w = root2.felem(0, 1)
    assert root2.sigma_pow(w, 1) == root2.felem(0, -1)
    assert root2.sigma_pow(w, 2) == w
    seven = zz.felem(7)
    assert zz.sigma_pow(seven, -3) == seven


def test_norm_examples(z5, root2, zz):
    assert z5.felem(1, 1).norm() == 6
    assert root2.felem(1, 1).norm() == -1
    assert zz.felem(-4).norm() == -4


def test_unit_and_division_examples(root2, z5, gauss):
    assert root2.elem(1, 1).is_unit()
    assert not z5.elem(1, 1).is_unit()
    assert gauss.felem(1, -1) / gauss.felem(1, 1) == gauss.felem(0, -1)
    with pytest.raises(ZeroDivisionError):
        gauss.felem(1) / gauss.felem(0)


def test_conjugation_is_an_involution(any_domain):
    rng = random.Random(3)
    for _ in range(50):
        e = rand_ring_elem(any_domain, rng)
        assert e.conj().conj() == e
        # conjugation respects the ring operations
        f = rand_ring_elem(any_domain, rng)
        assert (e * f).conj() == e.conj() * f.conj()
        assert (e + f).conj() == e.conj() + f.conj()


def test_sigma_power_is_multiplicative(any_domain):
    rng = random.Random(4)
    sig = any_domain.sigma_pow
    for _ in range(100):
        e = rand_ring_elem(any_domain, rng).to_field()
        f = rand_ring_elem(any_domain, rng).to_field()
        for i in range(-4, 5):
            assert sig(e * f, i) == sig(e, i) * sig(f, i)
            assert sig(e + f, i) == sig(e, i) + sig(f, i)


def test_norm_is_multiplicative(any_domain):
    rng = random.Random(5)
    for _ in range(100):
        e = rand_ring_elem(any_domain, rng).to_field()
        f = rand_ring_elem(any_domain, rng).to_field()
        assert (e * f).norm() == e.norm() * f.norm()


def test_field_elem_lowest_terms(z5):
    e = z5.felem(Fraction(2, 4), Fraction(6, 4))
    assert e.den == 2 and e.num.a == 1 and e.num.b == 3
    assert (e * 2).den == 1


def test_complex_embedding_spot_check(any_domain):
    # both embeddings of the field: the tautological one and its composite
    # with conjugation
    embeddings = [lambda v: v.complex_value(),
                  lambda v: v.conj().complex_value()]
    rng = random.Random(6)
    for _ in range(50):
        e = rand_ring_elem(any_domain, rng).to_field()
        f = rand_ring_elem(any_domain, rng, nonzero=True).to_field()
        for emb in embeddings:
            for got, want in (
                (emb(e + f), emb(e) + emb(f)),
                (emb(e * f), emb(e) * emb(f)),
                (emb(e / f), emb(e) / emb(f)),
            ):
                assert abs(got - want) < 1e-9


def test_exact_division_roundtrip(any_domain):
    rng = random.Random(7)
    for _ in range(100):
        e = rand_ring_elem(any_domain, rng).to_field()
        f = rand_ring_elem(any_domain, rng, nonzero=True).to_field()
        assert (e / f) * f == e


@pytest.mark.parametrize("op", [operator.eq, operator.add, operator.mul])
def test_elements_of_two_domains_never_meet(z5, z5c, root2, zz, op):
    """==, + and * across two domains raise SkewError, for ring and field
    elements, integral or not, from either side, a field element meeting
    a ring element of another domain included."""
    pairs = [(z5.elem(1, 1), z5c.elem(1, 1)), (zz.elem(3), z5.elem(3)),
             (z5.felem(1, 1), z5c.felem(1, 1)),
             (z5.felem(1, 1, 2), root2.felem(1, 1, 2)),
             (zz.fone, z5.fone),
             (z5.felem(1, 1), z5c.elem(1, 1)), (zz.fone, z5.one)]
    for x, y in pairs:
        for left, right in ((x, y), (y, x)):
            with pytest.raises(SkewError, match="mixed domains"):
                op(left, right)


def test_ring_and_field_elements_of_one_domain_agree(any_domain):
    """A ring element equals its field element from either side, and the
    two hash alike; e / 2 equals e only for e = 0, from either side."""
    dom = any_domain
    rng = random.Random(8)
    assert dom.one == dom.fone and dom.fone == dom.one
    assert dom.zero == dom.fzero and dom.fzero == dom.zero
    for _ in range(50):
        e = rand_ring_elem(dom, rng)
        f = e.to_field()
        assert e == f and f == e and not e != f
        assert hash(e) == hash(f) and len({e, f}) == 1
        half = dom.felem(e.a, e.b, 2)
        assert (half == e) is (e == half) is (not e)
    assert dom.one != "1" and dom.one != 1.0 + 0.5
