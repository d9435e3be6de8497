"""Ideal class groups of imaginary quadratic orders via reduced forms.

Classes are represented by reduced positive definite binary quadratic
forms (A, B, C) of the field discriminant, with Gaussian composition
for the group law (Cohen, GTM 138, sections 5.2-5.4). The form <-> ideal
dictionary used throughout maps (A, B, C) to the ideal with Z-basis
(A, (-B + sqrt(disc))/2). A group is its sorted reduced forms and their
invariant factors; no composition table is built.

- Invariant factors: for each p^a exactly dividing h, the p-part
  Z/p^e1 + Z/p^e2 + ... has p^r_k times as many classes killed by p^k
  as by p^(k-1), where r_k is the number of e_i >= k. Raising every
  form to the p-th power up to a times, by square-and-multiply, counts
  them: about h*log2(h) compositions in all, in integer arithmetic.
- class_of: an ideal is a rational multiple of its primitive part
  Z*A + Z*(b + w), the ideal of the form (A, -2b - omega_t, C) (the
  inverse of ideal_of_form); reducing that form names its class.

Real quadratic class groups are refused (UnsupportedDomain); the rest of
the package only ever needs principal generator searches there.

Groups are built once per discriminant behind a synchronized memo
(functools.lru_cache) and are immutable afterwards, so every query is
read-only and thread-safe.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, isqrt, prod

from .domains import Domain
from .errors import SkewError, UnsupportedDomain, ZeroIdealError
from .ideals import FracIdeal, xgcd


def solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """Solve a*x = b (mod m); returns (x0, step) parametrising solutions."""
    g, d, _ = xgcd(a, m)
    if b % g:
        raise SkewError("linear congruence has no solution")
    return (b // g * d) % m, m // g


def reduce_form(form):
    a, b, c = form
    r = (a - b) // (2 * a)  # normalize: -a < b <= a
    b, c = b + 2 * r * a, a * r * r + b * r + c
    while a > c or (a == c and b < 0):
        s = (c + b) // (2 * c)
        a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
    if a == -b:
        b = -b
    return (a, b, c)


def principal_form(disc: int):
    k = disc % 2
    return (1, k, (k * k - disc) // 4)


def compose_forms(f1, f2):
    """Gaussian composition followed by reduction."""
    a, b, c = f1
    alpha, beta, gamma = f2
    if a > alpha:
        a, b, c, alpha, beta, gamma = alpha, beta, gamma, a, b, c
    g = (b + beta) // 2
    h = -(b - beta) // 2
    w = gcd(gcd(a, alpha), g)
    s, t, u = a // w, alpha // w, g // w
    mu, nu = solve_linmod(t * u, h * u + s * c, s * t)
    lam = solve_linmod(t * nu, h - t * mu, s)[0]
    k = mu + nu * lam
    ell = (k * t - h) // s
    m = (t * u * k - h * u - c * s) // (s * t)
    return reduce_form((s * t, w * u - (k * t + ell * s), k * ell - w * m))


def enumerate_reduced_forms(disc: int) -> list:
    """All reduced primitive forms of a negative discriminant."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise SkewError(f"{disc} is not a negative discriminant")
    forms = []
    amax = isqrt(-disc // 3)
    for a in range(1, amax + 1):
        # only b of the discriminant's parity: b*b - disc is then 4ac
        for b in range(-a + 1 + (a - 1 + disc) % 2, a + 1, 2):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c > a or (c == a and b >= 0):
                if gcd(gcd(a, b), c) == 1:
                    forms.append((a, b, c))
    return sorted(forms)


@dataclass(frozen=True)
class ClassGroup:
    """Finite abelian group of form classes: the sorted reduced forms."""

    disc: int | None
    forms: tuple
    identity: int
    invariants: tuple

    @property
    def h(self) -> int:
        return len(self.forms)

    def index(self, form) -> int:
        """Position of a reduced form among the sorted forms."""
        i = bisect_left(self.forms, form)
        if self.forms[i:i + 1] != (form,):
            raise SkewError(f"{form} is not a reduced form of {self.disc}")
        return i

    def compose(self, i: int, j: int) -> int:
        if self.disc is None:
            return self.identity
        return self.index(compose_forms(self.forms[i], self.forms[j]))

    def inverse(self, i: int) -> int:
        if self.disc is None:
            return self.identity
        a, b, c = self.forms[i]
        return self.index(reduce_form((a, -b, c)))

    def structure_text(self) -> str:
        return " x ".join(f"Z/{d}" for d in self.invariants) or "trivial"

    def to_json(self) -> dict:
        return {"disc": self.disc, "forms": [list(f) for f in self.forms],
                "h": self.h, "structure": self.structure_text()}


def _prime_powers(n: int) -> list:
    """(p, a) for each prime power p^a exactly dividing n >= 1."""
    out, p = [], 2
    while n > 1:
        if p * p > n:
            p = n
        a = 0
        while n % p == 0:
            n, a = n // p, a + 1
        if a:
            out.append((p, a))
        p += 1
    return out


def _power(form, n: int):
    """form^n for n >= 1, by left-to-right square-and-multiply."""
    out = form
    for bit in bin(n)[3:]:
        out = compose_forms(out, out)
        if bit == "1":
            out = compose_forms(out, form)
    return out


def _invariant_factors(forms, unit) -> tuple:
    """Invariant factors, largest first: killed[k] counts the forms whose
    p^k-th power is the unit, and killed[k] / killed[k-1] = p^r_k."""
    factors = []
    for p, a in _prime_powers(len(forms)):
        first = [0] * (a + 1)  # forms first killed by p^k
        for f in forms:
            k = 0
            while f != unit and k < a:
                f, k = _power(f, p), k + 1
            if f == unit:
                first[k] += 1
        killed = list(accumulate(first))
        ranks = []
        for lo, hi in zip(killed, killed[1:]):
            r = 0
            while lo * p ** r < hi:
                r += 1
            if lo * p ** r != hi:
                raise SkewError("invariant factor computation failed")
            ranks.append(r)
        exps = [sum(r >= i for r in ranks) for i in range(1, max(ranks) + 1)]
        factors += [1] * (len(exps) - len(factors))
        for i, e in enumerate(exps):
            factors[i] *= p ** e
    if prod(factors) != len(forms):
        raise SkewError("invariant factor computation failed")
    return tuple(factors)


@functools.lru_cache(maxsize=None)
def _class_group_of_disc(disc: int) -> ClassGroup:
    forms = tuple(enumerate_reduced_forms(disc))
    unit = principal_form(disc)  # reduced already: A = 1 >= |B|
    if any(compose_forms(unit, f) != f for f in forms):
        raise SkewError("composition identity check failed")
    return ClassGroup(disc, forms, forms.index(unit),
                      _invariant_factors(forms, unit))


_TRIVIAL = ClassGroup(None, ((1, 0, 0),), 0, ())


def class_group(dom: Domain) -> ClassGroup:
    """Class group of the domain; imaginary quadratic or Z only."""
    if not dom.is_quad:
        return _TRIVIAL
    if dom.d > 0:
        raise UnsupportedDomain("real quadratic class groups are not computed")
    return _class_group_of_disc(dom.disc)


def ideal_of_form(dom: Domain, form) -> FracIdeal:
    """Ideal with Z-basis (A, (-B + sqrt(disc))/2) for the form (A, B, C)."""
    a, b, _ = form
    return FracIdeal(dom, a, (-(b + dom.omega_t) // 2) % a, 1)


def class_of(dom: Domain, u: FracIdeal) -> int:
    """Index of the reduced form representing the class of u: that of
    (A, -2b - omega_t, C), whose ideal_of_form is u's primitive part
    Z*A + Z*(b + w), a rational multiple of u."""
    if u.is_zero:
        raise ZeroIdealError("zero ideal has no class")
    cg = class_group(dom)
    if cg.disc is None:
        return 0
    a, b = u.a // u.c, -2 * (u.b // u.c) - dom.omega_t
    return cg.index(reduce_form((a, b, (b * b - cg.disc) // (4 * a))))


def sigma_acts_trivially(dom: Domain) -> bool:
    """Whether sigma(a) is isomorphic to a for every ideal a.

    For sigma = conj this holds exactly when the class group is
    2-torsion, that is, when every invariant factor is 2: a * conj(a) =
    N(a) D is principal, so conj maps the class of a to its inverse.
    """
    if not dom.conj_sigma:
        return True
    return all(d == 2 for d in class_group(dom).invariants)
