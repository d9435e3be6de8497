import ast
import random
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewdd import ideals
from skewdd.domains import DomainSpec, RingElem, get_domain
from skewdd.errors import (
    BoundExceeded,
    MembershipError,
    SkewError,
    UnsupportedDomain,
    ZeroIdealError,
)
from skewdd.ideals import (
    FracIdeal,
    from_generators,
    from_ring_generators,
    unit_ideal,
)
from skewdd.textio import ideal_lattice_from_json

from conftest import DOMAIN_SPECS, rand_frac_ideal, rand_ideal, rand_ring_elem
from reference import reference_echelon

SRC = Path(ideals.__file__).parent


def test_from_generators_examples(z5, zz):
    p2 = from_generators(z5, [z5.felem(2), z5.felem(1, 1)])
    assert (p2.a, p2.b, p2.c) == (2, 1, 1) and p2.den == 1
    g = from_generators(zz, [zz.felem(4), zz.felem(10)])
    assert g.a == 2
    three = from_generators(z5, [z5.felem(3)])
    assert (three.a, three.b, three.c) == (3, 0, 3)


def test_from_generators_idempotent(any_domain):
    rng = random.Random(11)
    for _ in range(30):
        u = rand_frac_ideal(any_domain, rng)
        again = from_generators(any_domain, list(u.gens()))
        assert again == u


def test_zero_ideal_flagged(z5):
    z = from_generators(z5, [z5.felem(0)])
    assert z.is_zero
    with pytest.raises(ZeroIdealError):
        z.inverse()
    with pytest.raises(ZeroIdealError):
        ideals.principal_generator(z)


def test_product_inverse_sum_examples(z5, zz):
    p2 = from_generators(z5, [z5.felem(2), z5.felem(1, 1)])
    sq = p2.mul(p2)
    assert (sq.a, sq.b, sq.c) == (2, 0, 2)  # the ideal (2)
    inv = p2.inverse()
    assert inv == FracIdeal(z5, p2.a, p2.b, p2.c, 2)
    assert p2.mul(inv) == unit_ideal(z5)
    four = from_generators(zz, [zz.felem(4)])
    ten = from_generators(zz, [zz.felem(10)])
    assert four.add(ten).a == 2


def test_contains_examples(z5, zz):
    p2 = from_generators(z5, [z5.felem(2), z5.felem(1, 1)])
    assert p2.contains(z5.felem(1, 1))
    assert not p2.contains(z5.felem(3))
    two = from_generators(zz, [zz.felem(2)])
    assert not two.contains(zz.felem(7))


def test_express_in_generators_examples(z5, zz):
    coeffs = ideals.PreparedBasis([zz.felem(4), zz.felem(10)]).express(
        zz.felem(6))
    assert 4 * coeffs[0].a + 10 * coeffs[1].a == 6
    gens = [z5.felem(2), z5.felem(1, 1)]
    coeffs = ideals.PreparedBasis(gens).express(z5.felem(1, -1))
    total = z5.fzero
    for g, c in zip(gens, coeffs):
        total = total + g * c.to_field()
    assert total == z5.felem(1, -1)
    coeffs = ideals.PreparedBasis(gens).express(gens[0])
    total = z5.fzero
    for g, c in zip(gens, coeffs):
        total = total + g * c.to_field()
    assert total == gens[0]


def test_express_membership_error(z5):
    gens = [z5.felem(2), z5.felem(1, 1)]
    with pytest.raises(MembershipError):
        ideals.PreparedBasis(gens).express(z5.felem(3))


def test_express_roundtrip_random(any_domain):
    rng = random.Random(12)
    for _ in range(100):
        u = rand_ideal(any_domain, rng)
        g1, g2 = u.two_generators()
        gens = [g1.to_field(), g2.to_field()]
        e = (g1 * rand_ring_elem(any_domain, rng)
             + g2 * rand_ring_elem(any_domain, rng)).to_field()
        coeffs = ideals.PreparedBasis(gens).express(e)
        total = any_domain.fzero
        for g, c in zip(gens, coeffs):
            total = total + g * c.to_field()
        assert total == e


def test_express_in_product_examples(z5, zz):
    gens = (z5.felem(2), z5.felem(1, 1))
    c = ideals.PreparedBasis([x * y for x in gens for y in gens]).express(
        z5.felem(2))
    c = [c[:2], c[2:]]
    total = z5.fzero
    for j in range(2):
        for k in range(2):
            total = total + c[j][k].to_field() * gens[j] * gens[k]
    assert total == z5.felem(2)
    ugens = (zz.felem(2), zz.felem(2))
    vgens = (zz.felem(3), zz.felem(3))
    c = ideals.PreparedBasis([x * y for x in ugens for y in vgens]).express(
        zz.felem(6))
    c = [c[:2], c[2:]]
    total = zz.fzero
    for j in range(2):
        for k in range(2):
            total = total + c[j][k].to_field() * ugens[j] * vgens[k]
    assert total == zz.felem(6)
    ugens = (z5.felem(1), z5.felem(1))
    vgens = (z5.felem(2), z5.felem(1, 1))
    c = ideals.PreparedBasis([x * y for x in ugens for y in vgens]).express(
        z5.felem(1, 1))
    c = [c[:2], c[2:]]
    total = z5.fzero
    for j in range(2):
        for k in range(2):
            total = total + c[j][k].to_field() * ugens[j] * vgens[k]
    assert total == z5.felem(1, 1)


def test_two_generators_examples(z5, zz):
    p2 = from_ring_generators(z5, [z5.elem(2), z5.elem(1, 1)])
    g1, g2 = p2.two_generators()
    assert g1 == z5.elem(2) and g2 == z5.elem(1, 1)
    six = FracIdeal(zz, 6)
    assert six.two_generators() == (zz.elem(6), zz.elem(6))
    three = from_ring_generators(z5, [z5.elem(3)])
    assert three.two_generators() == (z5.elem(3), z5.elem(0, 3))


def test_one_and_half_generator(z5, zz):
    p2 = from_ring_generators(z5, [z5.elem(2), z5.elem(1, 1)])
    b = ideals.one_and_half_generator(p2, z5.elem(2))
    assert from_ring_generators(z5, [z5.elem(2), b]) == p2
    six = FracIdeal(zz, 6)
    b = ideals.one_and_half_generator(six, zz.elem(6))
    assert from_ring_generators(zz, [zz.elem(6), b]) == six
    two = from_ring_generators(z5, [z5.elem(2)])
    b = ideals.one_and_half_generator(two, z5.elem(2))
    assert from_ring_generators(z5, [z5.elem(2), b]) == two


def test_one_and_half_generator_random(any_domain):
    rng = random.Random(13)
    for _ in range(40):
        u = rand_ideal(any_domain, rng)
        g1, g2 = u.two_generators()
        a = g1 * rng.randint(1, 3) + g2 * rng.randint(0, 3)
        if not a:
            continue
        b = ideals.one_and_half_generator(u, a)
        assert from_ring_generators(any_domain, [a, b]) == u


def test_one_and_half_generator_past_the_natural_candidates(monkeypatch):
    """Seeded (u, a) with a = (g1*i + g2*j)*m, m in {6, 30, 210}, on which
    g2, g1, g1 + g2 and g1 - g2 all fail: the shell scan still answers,
    with b in u and (a, b) = u, and within 24 HNF checks per answer."""
    calls, checks = [0], []

    def counting(dom, gens, den=1):
        calls[0] += 1
        return from_ring_generators(dom, gens, den)

    monkeypatch.setattr(ideals, "from_ring_generators", counting)
    rng = random.Random(5)
    for d in (-1, -5, -23, 2, 3, 10, 13):
        dom = get_domain(DomainSpec("quad", d, "id"))
        for _ in range(150):
            u = rand_ideal(dom, rng)
            g1, g2 = u.two_generators()
            a = (g1 * rng.randint(-3, 3) + g2 * rng.randint(-3, 3)) \
                * rng.choice((6, 30, 210))
            if not a or any(from_ring_generators(dom, [a, b]) == u
                            for b in (g2, g1, g1 + g2, g1 - g2) if b):
                continue
            calls[0] = 0
            b = ideals.one_and_half_generator(u, a)
            checks.append(calls[0])
            assert u.contains(b)
            assert from_ring_generators(dom, [a, b]) == u
    assert len(checks) >= 100
    assert max(checks) <= 24


def test_one_and_half_generator_rejects_bad_input(z5):
    p2 = from_ring_generators(z5, [z5.elem(2), z5.elem(1, 1)])
    with pytest.raises(SkewError, match="integral"):
        ideals.one_and_half_generator(FracIdeal(z5, 2, 1, 1, 3), z5.elem(2))
    with pytest.raises(MembershipError):
        ideals.one_and_half_generator(p2, z5.elem(3))
    with pytest.raises(SkewError):
        ideals.one_and_half_generator(p2, z5.zero)


def test_no_module_imports_random():
    """Nothing in the package is sampled: no module imports random."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "random" for name in names), \
                path.name


def test_principal_generator_examples(z5, root2):
    p2 = from_generators(z5, [z5.felem(2), z5.felem(1, 1)])
    assert ideals.principal_generator(p2) is None
    gen = ideals.principal_generator(p2.mul(p2))
    assert from_generators(z5, [gen]) == p2.mul(p2)
    p7 = from_generators(root2, [root2.felem(7), root2.felem(3, 1)])
    target = p7.mul(p7.sigma(1).inverse())
    gen = ideals.principal_generator(target)
    assert from_generators(root2, [gen]) == target
    # any generator differs from the reference value (11+6*sqrt2)/7 by
    # a unit of the real quadratic order
    ratio = gen / root2.felem(11, 6, den=7)
    assert ratio.is_integral and ratio.as_ring().is_unit()


@pytest.mark.parametrize("d, sigma, hnf, den, first", [
    (2, "conj", [7, 3, 1], 1, "3+1*w"),
    (2, "conj", [2, 0, 1], 1, "2+1*w"),
    (2, "conj", [2, 0, 1], 3, "2/3+1/3*w"),
    (7, "conj", [2, 1, 1], 2, "3/2+1/2*w"),
    (-3, "id", [3, 1, 1], 1, "1+1*w"),
    (-1, "conj", [2, 1, 1], 3, "1/3+1/3*w"),
    (-23, "id", [3, 0, 3], 2, "3/2"),
])
def test_principal_generator_first_hit(d, sigma, hnf, den, first):
    # the scan visits y upwards, the target +index before -index and the
    # root +s before -s; the first hit is part of every certificate that
    # needs a principal generator
    dom = get_domain(DomainSpec("quad", d, sigma))
    gen = ideals.principal_generator(FracIdeal(dom, *hnf, den=den))
    assert repr(gen) == first


def unfiltered_sqrt(n):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def test_perfect_sqrt_residue_filter_keeps_every_square():
    for n in range(-3, 10**6):
        assert ideals._perfect_sqrt(n) == unfiltered_sqrt(n), n
    rng = random.Random(61)
    for _ in range(3000):
        r = rng.getrandbits(rng.randint(20, 300))
        for n in (r * r, r * r + 1, r * r - 1, r * r + 2 * r, r):
            assert ideals._perfect_sqrt(n) == unfiltered_sqrt(n), n


def test_principal_generator_scan_unchanged_by_the_filter(monkeypatch):
    """On real-quadratic ideals whose scans run to y in the thousands, the
    filtered scan returns the first hit of the unfiltered one."""
    rng = random.Random(67)
    sample = []
    for d in (2, 3):
        dom = get_domain(DomainSpec("quad", d, "conj"))
        sample += [from_ring_generators(dom, [dom.elem(
            rng.randint(-3000, 3000), rng.randint(1, 3000))])
            for _ in range(25)]
        sample += [rand_ideal(dom, rng) for _ in range(15)]
    scan = ideals.principal_generator.__wrapped__   # past the memo
    filtered = [scan(u) for u in sample]
    monkeypatch.setattr(ideals, "_perfect_sqrt", unfiltered_sqrt)
    assert [scan(u) for u in sample] == filtered
    assert all(from_generators(u.dom, [g]) == u
               for u, g in zip(sample, filtered))


def test_principal_generator_real_bound(root2):
    # an artificially tiny bound forces the undecided error: the generator
    # 3 + sqrt(2) of p7 needs the coefficient y = 1
    p7 = from_generators(root2, [root2.felem(7), root2.felem(3, 1)])
    with pytest.raises(BoundExceeded):
        ideals.principal_generator(p7, coeff_bound=0)


def test_principal_generator_answer_ignores_earlier_calls(root2):
    """A generator found under a large bound is remembered for that bound
    only: the same ideal under a small bound is undecided again."""
    p7 = from_generators(root2, [root2.felem(7), root2.felem(3, 1)])
    gen = ideals.principal_generator(p7, coeff_bound=1000)
    assert from_generators(root2, [gen]) == p7
    for _ in range(2):
        with pytest.raises(BoundExceeded):
            ideals.principal_generator(p7, coeff_bound=0)
    assert ideals.principal_generator(p7, coeff_bound=1000) == gen


def test_ideal_classes_isomorphic_examples(z5, zz):
    p2 = from_generators(z5, [z5.felem(2), z5.felem(1, 1)])
    p3 = from_generators(z5, [z5.felem(3), z5.felem(1, 1)])
    q0 = ideals.ideal_classes_isomorphic(p2, p3)
    assert q0 is not None and p2.scale(q0) == p3
    assert ideals.ideal_classes_isomorphic(p2, unit_ideal(z5)) is None
    two = from_generators(zz, [zz.felem(2)])
    three = from_generators(zz, [zz.felem(3)])
    q0 = ideals.ideal_classes_isomorphic(two, three)
    assert two.scale(q0) == three


def test_real_quadratic_class_queries_unsupported(root2):
    u = from_generators(root2, [root2.felem(7), root2.felem(3, 1)])
    with pytest.raises(UnsupportedDomain):
        ideals.ideal_classes_isomorphic(u, unit_ideal(root2))


def test_inverse_and_norm_random(any_domain):
    rng = random.Random(14)
    for _ in range(150):
        u = rand_frac_ideal(any_domain, rng)
        assert u.mul(u.inverse()) == unit_ideal(any_domain)
        v = rand_frac_ideal(any_domain, rng)
        assert u.mul(v).norm() == u.norm() * v.norm()


def test_hnf_closure_rejects_non_ideals(z5):
    with pytest.raises(Exception):
        FracIdeal(z5, 2, 0, 1)  # Z*2 + Z*w is not an ideal of Z[sqrt(-5)]


def test_ideal_sum_and_contains_random(any_domain):
    rng = random.Random(15)
    for _ in range(60):
        u = rand_ideal(any_domain, rng)
        v = rand_ideal(any_domain, rng)
        s = u.add(v)
        for g in (*u.two_generators(), *v.two_generators()):
            assert s.contains(g)
        prod = u.mul(v)
        for gu in u.two_generators():
            for gv in v.two_generators():
                assert prod.contains(gu * gv)
        assert unit_ideal(any_domain).contains(any_domain.one)


# the five test domains all have tr(w) = 0; -15 and 5 (1 mod 4) do not
@pytest.mark.parametrize("spec", DOMAIN_SPECS + [
    DomainSpec("quad", -15, "conj"), DomainSpec("quad", 5, "conj")],
    ids=lambda s: f"{s.kind}:{s.d}:{s.sigma}")
def test_conj_is_the_ideal_of_conjugated_generators(spec):
    dom = get_domain(spec)
    rng = random.Random(16)
    for _ in range(60):
        u = rand_frac_ideal(dom, rng)
        assert u.conj() == from_generators(dom, [g.conj() for g in u.gens()])
        assert u.sigma(1).sigma(1) == u and u.sigma(2) == u


def test_ideal_loader_spellings(z5):
    p2 = from_ring_generators(z5, [z5.elem(2), z5.elem(1, 1)])
    for obj in ({"hnf": [2, 1, 1]}, {"hnf": [2, 1, 1], "den": 1},
                {"gens": ["2", "1+1*w"]}):
        assert ideal_lattice_from_json(z5, obj) == p2
    for obj in ({"hnf": [2, 3, 1]}, {"hnf": [2, 0, 2], "den": 2},
                {"hnf": [1, 0, 1], "den": 2}, {"gens": ["1/2"]},
                # one spelling only, and no undeclared key
                {"hnf": [2, 1, 1], "gens": ["2", "1+1*w"]},
                {"gens": ["2", "1+1*w"], "den": 1},
                {"hnf": [2, 1, 1], "extra": 1}):
        with pytest.raises(ValueError):
            ideal_lattice_from_json(z5, obj)


PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def generator_lists(dom):
    """One to three field elements, not all zero."""
    part = st.integers(-12, 12)
    elem = st.builds(dom.felem, part, part if dom.is_quad else st.just(0),
                     st.sampled_from([1, 2, 3, 4, 6, 12]))
    return st.lists(elem, min_size=1, max_size=3).filter(any)


def ring_elems(dom):
    part = st.integers(-4, 4)
    return st.builds(dom.elem, part, part if dom.is_quad else st.just(0))


def same_ideal_generators(data, dom, gens):
    """gens shuffled, signs flipped, plus D-combinations of them."""
    out = [g * data.draw(st.sampled_from([1, -1]))
           for g in data.draw(st.permutations(gens))]
    for _ in range(data.draw(st.integers(0, 2))):
        out.append(sum((g * data.draw(ring_elems(dom)).to_field()
                        for g in gens), dom.fzero))
    return out


def fields(u):
    return (u.a, u.b, u.c, u.den)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_equal_ideals_have_equal_fields(any_domain, data):
    dom = any_domain
    gens = data.draw(generator_lists(dom))
    u = from_generators(dom, gens)
    v = from_generators(dom, same_ideal_generators(data, dom, gens))
    assert fields(u) == fields(v)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_equal_fields_iff_mutual_containment(any_domain, data):
    dom = any_domain
    gens = data.draw(generator_lists(dom))
    other = (same_ideal_generators(data, dom, gens) if data.draw(st.booleans())
             else data.draw(generator_lists(dom)))
    u, v = from_generators(dom, gens), from_generators(dom, other)
    mutual = (all(v.contains(g) for g in gens)
              and all(u.contains(g) for g in other))
    assert (fields(u) == fields(v)) == mutual


@PROPERTY_SETTINGS
@given(data=st.data())
def test_ideal_times_inverse_is_the_unit_ideal(any_domain, data):
    u = from_generators(any_domain, data.draw(generator_lists(any_domain)))
    assert u.mul(u.inverse()) == unit_ideal(any_domain)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_integral_ideal_json_round_trip(any_domain, data):
    u = from_generators(any_domain, data.draw(generator_lists(any_domain)))
    if not u.is_integral:
        u = u.mul(from_generators(any_domain, [any_domain.felem(u.den)]))
    assert u.is_integral
    assert ideal_lattice_from_json(any_domain, u.to_json()) == u


@PROPERTY_SETTINGS
@given(data=st.data())
def test_express_in_generators_round_trip(any_domain, data):
    """Every element e of the ideal that gens generate, drawn over its
    Z-basis, is sum gens_j * c_j with c_j in D as returned."""
    dom = any_domain
    gens = data.draw(generator_lists(dom))
    b1, b2 = from_generators(dom, gens).gens()
    e = b1 * data.draw(st.integers(-9, 9)) + b2 * data.draw(st.integers(-9, 9))
    coeffs = ideals.PreparedBasis(gens).express(e)
    assert all(isinstance(c, RingElem) for c in coeffs)
    assert sum((g * c.to_field() for g, c in zip(gens, coeffs)),
               dom.fzero) == e


@PROPERTY_SETTINGS
@given(data=st.data())
def test_prepared_basis_answers_as_express_in_generators(any_domain, data):
    """One PreparedBasis, echeloned once, writes each of several targets
    as a fresh PreparedBasis per target does: the same coefficients on
    members, its solve on their scaled coordinates included, and on
    non-members, those whose denominator the generators cannot produce
    included, the same MembershipError naming the same module."""
    dom = any_domain
    gens = data.draw(generator_lists(dom))
    basis = ideals.PreparedBasis(gens)
    module = from_generators(dom, gens)
    b1, b2 = module.gens()
    part = st.integers(-12, 12)
    anything = st.builds(dom.felem, part, part if dom.is_quad else st.just(0),
                         st.sampled_from([1, 2, 5, 7, 12, 24]))
    for _ in range(4):
        if data.draw(st.booleans()):
            e = b1 * data.draw(part) + b2 * data.draw(part)
        else:
            e = data.draw(anything)
        if module.contains(e):
            want = ideals.PreparedBasis(gens).express(e)
            assert basis.express(e) == want
            k = basis.scale // e.den
            assert basis.solve((e.num.a * k, e.num.b * k)) \
                == [(c.a, c.b) for c in want]
            continue
        with pytest.raises(MembershipError) as one_shot:
            ideals.PreparedBasis(gens).express(e)
        with pytest.raises(MembershipError) as prepared:
            basis.express(e)
        assert (prepared.value.element, prepared.value.lattice) \
            == (one_shot.value.element, one_shot.value.lattice) == (e, module)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_ideal_product_matches_the_generator_path(any_domain, data):
    """FracIdeal.mul, which echelons the four products of the two Z-bases,
    equals from_ring_generators of those products over the product of the
    denominators, which also spans their w-multiples; fractional and unit
    ideals included."""
    dom = any_domain

    def ideal():
        if not data.draw(st.integers(0, 3)):
            return unit_ideal(dom)
        return from_generators(dom, data.draw(generator_lists(dom)))

    u, v = ideal(), ideal()
    u1, u2 = u.two_generators()
    v1, v2 = v.two_generators()
    want = from_ring_generators(dom, [u1 * v1, u1 * v2, u2 * v1, u2 * v2],
                                u.den * v.den)
    assert fields(u.mul(v)) == fields(want)


ECHELON_ENTRIES = st.one_of(st.just(0), st.integers(-9, 9),
                            st.integers(-10 ** 6, 10 ** 6))


@st.composite
def echelon_inputs(draw):
    """0-14 rows of 1-8 columns: random rows with zeros and negative
    entries, all-zero rows, repeats and integer combinations of earlier
    rows, and some columns set to zero throughout."""
    ncols = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combine"])
                    if rows else st.just("random"))
        if kind == "random":
            rows.append(draw(st.lists(ECHELON_ENTRIES, min_size=ncols,
                                      max_size=ncols)))
        elif kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum(c * row[t] for c, row in zip(coeffs, rows))
                         for t in range(ncols)])
    for col in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1)):
        for row in rows:
            row[col] = 0
    return rows


@st.composite
def window_shaped_inputs(draw):
    """Rows shaped like an order window: for each of 1-3 base vectors of
    1 or 2 entries per order block, its copies shifted by 0..top blocks."""
    blocks = draw(st.sampled_from([1, 2]))
    top = draw(st.integers(0, 8 // blocks - 1))
    width = blocks * (top + 1)
    rows = []
    for _ in range(draw(st.integers(1, min(3, 14 // (top + 1))))):
        base = draw(st.lists(st.integers(-4, 4), min_size=width,
                             max_size=width))
        rows.extend([0] * (blocks * s) + base[:width - blocks * s]
                    for s in range(top + 1))
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.one_of(echelon_inputs(), window_shaped_inputs()),
       data=st.data())
def test_echelon_replays_the_reference_transform(rows, data):
    """echelon gives the reference's ech and pivots, and replaying its
    operation record gives every row of the reference transform, kernel
    rows included, and z * U for any z; U * rows is ech."""
    ech, pivots, ops = ideals.echelon(rows)
    want_ech, want_pivots, want_u = reference_echelon(rows)
    assert ech == want_ech
    assert pivots == want_pivots
    k = len(rows)
    u = [ideals.combine_transform(ops, [int(i == j) for j in range(k)])
         for i in range(k)]
    assert u == want_u
    z = data.draw(st.lists(st.integers(-50, 50), min_size=k, max_size=k))
    assert ideals.combine_transform(ops, z) == [
        sum(z[i] * u[i][j] for i in range(k)) for j in range(k)]
    assert [[sum(u[i][j] * rows[j][t] for j in range(k))
             for t in range(len(rows[0]))] for i in range(k)] == ech
