import random

import pytest

from skewdd import classgroup, ideals
from skewdd.classgroup import (
    class_group,
    class_of,
    compose_forms,
    enumerate_reduced_forms,
    ideal_of_form,
    reduce_form,
    sigma_acts_trivially,
    _class_group_of_disc,
)
from skewdd.domains import DomainSpec, _is_squarefree, get_domain
from skewdd.errors import UnsupportedDomain

from conftest import rand_frac_ideal, rand_ideal
from reference import reference_class_of, reference_invariant_factors


def oracle_reduced_forms(disc):
    """Independent brute-force enumeration: scan b first, factor 4ac."""
    assert disc < 0
    out = set()
    b = disc % 2
    while b * b <= -disc // 3:
        prod = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= prod:
            if prod % a == 0:
                c = prod // a
                from math import gcd
                if gcd(gcd(a, b), c) == 1:
                    if b >= 0 or (abs(b) != a and a != c):
                        if abs(b) <= a <= c:
                            out.add((a, b, c))
                            if 0 < b and b < a and a < c:
                                out.add((a, -b, c))
            a += 1
        b += 2
    return sorted(out)


@pytest.mark.parametrize("disc,h", [(-20, 2), (-4, 1), (-8, 1), (-3, 1),
                                    (-23, 3), (-84, 4), (-47, 5)])
def test_enumeration_matches_oracle(disc, h):
    forms = enumerate_reduced_forms(disc)
    assert forms == oracle_reduced_forms(disc)
    assert len(forms) == h


def test_disc_minus_20_forms():
    assert enumerate_reduced_forms(-20) == [(1, 0, 5), (2, 2, 3)]


@pytest.mark.parametrize("disc", [-20, -4, -8, -3, -23, -84, -47, -71, -95])
def test_group_axioms_exhaustive(disc):
    cg = _class_group_of_disc(disc)
    assert cg.h <= 20
    n = cg.h
    e = cg.identity
    for i in range(n):
        assert cg.compose(e, i) == i and cg.compose(i, e) == i
        assert cg.compose(i, cg.inverse(i)) == e
        for j in range(n):
            assert cg.compose(i, j) == cg.compose(j, i)
            for k in range(n):
                assert cg.compose(cg.compose(i, j), k) \
                    == cg.compose(i, cg.compose(j, k))


def test_structure_texts():
    assert _class_group_of_disc(-20).structure_text() == "Z/2"
    assert _class_group_of_disc(-4).structure_text() == "trivial"
    assert _class_group_of_disc(-84).structure_text() == "Z/2 x Z/2"
    assert _class_group_of_disc(-23).structure_text() == "Z/3"


def test_form_reduction_invariants():
    rng = random.Random(21)
    for _ in range(200):
        a = rng.randint(1, 30)
        b = rng.randint(-30, 30)
        # choose c so the discriminant is negative
        c = rng.randint((b * b) // (4 * a) + 1, (b * b) // (4 * a) + 40)
        disc = b * b - 4 * a * c
        ra, rb, rc = reduce_form((a, b, c))
        assert rb * rb - 4 * ra * rc == disc
        assert abs(rb) <= ra <= rc
        if abs(rb) == ra or ra == rc:
            assert rb >= 0


def test_class_of_is_multiplicative(z5):
    cg = class_group(z5)
    rng = random.Random(22)
    for _ in range(25):
        u = rand_ideal(z5, rng)
        v = rand_ideal(z5, rng)
        iu, iv = class_of(z5, u), class_of(z5, v)
        assert class_of(z5, u.mul(v)) == cg.compose(iu, iv)


def test_class_of_examples(z5):
    cg = class_group(z5)
    p2 = ideals.from_generators(z5, [z5.felem(2), z5.felem(1, 1)])
    assert class_of(z5, p2) != cg.identity
    assert class_of(z5, p2.mul(p2)) == cg.identity
    assert class_of(z5, ideals.unit_ideal(z5)) == cg.identity


def test_form_ideal_dictionary(z5):
    cg = class_group(z5)
    for i, form in enumerate(cg.forms):
        lat = ideal_of_form(z5, form)
        assert lat.index == form[0]
        assert class_of(z5, lat) == i


def test_trivial_class_group_for_integers(zz):
    cg = class_group(zz)
    assert cg.h == 1 and class_of(zz, ideals.from_generators(zz, [zz.felem(5)])) == 0


def test_trivial_group_composes_and_inverts(zz):
    cg = class_group(zz)
    assert cg.compose(0, 0) == cg.inverse(0) == cg.identity == 0


def test_sigma_acts_trivially(z5c, gauss, zz):
    assert sigma_acts_trivially(z5c)
    assert sigma_acts_trivially(gauss)
    assert sigma_acts_trivially(zz)
    # h(-23) = 3: conjugation sends a class to its inverse, which differs
    d23 = get_domain(DomainSpec("quad", -23, "conj"))
    assert not sigma_acts_trivially(d23)


def sigma_acts_trivially_per_class(dom):
    """Whether conj(a) is isomorphic to a, by one principal generator
    search per class representative."""
    for form in class_group(dom).forms:
        rep = ideal_of_form(dom, form)
        if ideals.ideal_classes_isomorphic(rep.sigma(1), rep) is None:
            return False
    return True


def test_sigma_acts_trivially_matches_per_class_search():
    """The invariant-factor test agrees with the per-class search on every
    squarefree -400 < d < 0."""
    seen = {True: 0, False: 0}
    for d in range(-399, 0):
        if not _is_squarefree(d):
            continue
        dom = get_domain(DomainSpec("quad", d, "conj"))
        want = sigma_acts_trivially_per_class(dom)
        assert sigma_acts_trivially(dom) is want
        seen[want] += 1
    assert seen == {True: 49, False: 194}


def test_real_quadratic_unsupported(root2):
    with pytest.raises(UnsupportedDomain):
        class_group(root2)


@pytest.mark.parametrize("disc,h", [
    # classical table values for fundamental discriminants
    (-3, 1), (-4, 1), (-7, 1), (-8, 1), (-11, 1), (-19, 1), (-43, 1),
    (-67, 1), (-163, 1),
    (-15, 2), (-20, 2), (-24, 2), (-35, 2), (-40, 2), (-51, 2), (-52, 2),
    (-23, 3), (-31, 3), (-59, 3),
    (-39, 4), (-55, 4), (-56, 4), (-68, 4),
    (-47, 5), (-79, 5), (-103, 5),
    (-87, 6), (-71, 7), (-95, 8), (-199, 9), (-119, 10),
])
def test_known_class_numbers(disc, h):
    assert len(enumerate_reduced_forms(disc)) == h


def test_cyclic_versus_noncyclic_structure():
    # both groups have order 4; the invariant factors tell them apart
    assert _class_group_of_disc(-68).invariants == (4,)        # d = -17
    assert _class_group_of_disc(-84).invariants == (2, 2)      # d = -21


def test_compose_matches_ideal_products(z5):
    cg = class_group(z5)
    for i, fi in enumerate(cg.forms):
        for j, fj in enumerate(cg.forms):
            u = ideal_of_form(z5, fi)
            v = ideal_of_form(z5, fj)
            assert class_of(z5, u.mul(v)) == cg.forms.index(compose_forms(fi, fj))


def test_invariant_factors_match_the_table_reference():
    """Prime-power counts give the invariant factors of the composition
    table's quotient recursion on every discriminant -2999 <= disc <= -3."""
    ranks = {}
    for disc in range(-3, -3000, -1):
        if disc % 4 not in (0, 1):
            continue
        cg = _class_group_of_disc.__wrapped__(disc)
        assert cg.invariants == reference_invariant_factors(disc), disc
        ranks[len(cg.invariants)] = ranks.get(len(cg.invariants), 0) + 1
    assert sum(ranks.values()) == 1499 and ranks[3] == 59


@pytest.mark.parametrize("d", [-23, -47, -14, -161])
def test_class_of_matches_the_principal_search(d):
    """Integral, non-primitive and fractional ideals of groups where a
    class and its inverse differ."""
    dom = get_domain(DomainSpec("quad", d, "id"))
    cg = class_group(dom)
    assert any(cg.inverse(i) != i for i in range(cg.h))
    rng = random.Random(d)
    seen = set()
    for _ in range(30):
        u = rand_ideal(dom, rng)
        k = rng.randint(2, 6)
        for v in (u, ideals.FracIdeal(dom, u.a * k, u.b * k, u.c * k),
                  rand_frac_ideal(dom, rng)):
            i = class_of(dom, v)
            assert i == reference_class_of(dom, v)
            seen.add(i)
    assert len(seen) > 2


@pytest.mark.parametrize("d", [-23, -47, -14, -161])
def test_class_of_tells_a_class_from_its_inverse(d):
    dom = get_domain(DomainSpec("quad", d, "id"))
    cg = class_group(dom)
    for i, form in enumerate(cg.forms):
        lat = ideal_of_form(dom, form)
        assert class_of(dom, lat) == i
        assert class_of(dom, lat.conj()) == cg.inverse(i)


def test_class_group_costs_about_h_log_h_compositions(monkeypatch):
    """Building the group of quad:-1000003:id (h = 105) composes forms a
    bounded number of times; a full table alone needs h^2 = 11,025."""
    calls = []

    def counting(f1, f2):
        calls.append(1)
        return compose_forms(f1, f2)

    monkeypatch.setattr(classgroup, "compose_forms", counting)
    _class_group_of_disc.cache_clear()
    cg = class_group(get_domain(DomainSpec("quad", -1000003, "id")))
    assert cg.h == 105 and cg.invariants == (105,)
    assert len(calls) <= 2100
