"""Ideal class groups of imaginary quadratic orders via reduced forms.

Classes are represented by reduced positive definite binary quadratic
forms (A, B, C) of the field discriminant, with Gaussian composition
for the group law. The form <-> ideal dictionary used throughout maps
(A, B, C) to the ideal with Z-basis (A, (-B + sqrt(disc))/2).

Real quadratic class groups are refused (UnsupportedDomain); the rest of
the package only ever needs principal generator searches there.

Groups are built once per discriminant behind a synchronized memo
(functools.lru_cache) and are immutable afterwards, so every query is
read-only and thread-safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd, isqrt

from .domains import Domain
from .errors import SkewError, UnsupportedDomain, ZeroIdealError
from .ideals import (
    FracIdeal,
    ideal_classes_isomorphic,
    xgcd,
)


def solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """Solve a*x = b (mod m); returns (x0, step) parametrising solutions."""
    g, d, _ = xgcd(a, m)
    if b % g:
        raise SkewError("linear congruence has no solution")
    return (b // g * d) % m, m // g


def normalize_form(form):
    a, b, c = form
    r = (a - b) // (2 * a)
    return (a, b + 2 * r * a, a * r * r + b * r + c)


def reduce_form(form):
    a, b, c = normalize_form(form)
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
    j = w
    s = a // w
    t = alpha // w
    u = g // w
    mu, nu = solve_linmod(t * u, h * u + s * c, s * t)
    lam = solve_linmod(t * nu, h - t * mu, s)[0]
    k = mu + nu * lam
    ell = (k * t - h) // s
    m = (t * u * k - h * u - c * s) // (s * t)
    big_a = s * t
    big_b = j * u - (k * t + ell * s)
    big_c = k * ell - j * m
    return reduce_form((big_a, big_b, big_c))


def enumerate_reduced_forms(disc: int) -> list:
    """All reduced primitive forms of a negative discriminant."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise SkewError(f"{disc} is not a negative discriminant")
    forms = []
    amax = isqrt(-disc // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b - disc) % 2:
                continue
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            forms.append((a, b, c))
    return sorted(forms)


@dataclass(frozen=True)
class ClassGroup:
    """Finite abelian group of form classes with its composition table."""

    disc: int | None
    forms: tuple
    table: tuple
    identity: int
    invariants: tuple

    @property
    def h(self) -> int:
        return len(self.forms)

    def compose(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        a, b, c = self.forms[i]
        return self.forms.index(reduce_form((a, -b, c)))

    def structure_text(self) -> str:
        if not self.invariants:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariants)

    def to_json(self) -> dict:
        return {
            "disc": self.disc,
            "forms": [list(f) for f in self.forms],
            "h": self.h,
            "structure": self.structure_text(),
        }


def _invariant_factors(table, identity) -> tuple:
    """Invariant factor decomposition of an abelian group table."""
    n = len(table)
    if n == 1:
        return ()

    def order(i):
        k, x = 1, i
        while x != identity:
            x = table[x][i]
            k += 1
        return k

    g = max(range(n), key=order)
    d1 = order(g)
    # cosets of <g>
    sub = []
    x = identity
    while True:
        sub.append(x)
        x = table[x][g]
        if x == identity:
            break
    coset_of = {}
    reps = []
    for i in range(n):
        if i in coset_of:
            continue
        members = sorted(table[i][s] for s in sub)
        rep = members[0]
        reps.append(rep)
        for mbr in members:
            coset_of[mbr] = rep
    idx = {rep: k for k, rep in enumerate(reps)}
    qtable = tuple(
        tuple(idx[coset_of[table[r1][r2]]] for r2 in reps) for r1 in reps
    )
    rest = _invariant_factors(qtable, idx[coset_of[identity]])
    for d in rest:
        if d1 % d:
            raise SkewError("invariant factor computation failed")
    return (d1,) + tuple(rest)


@functools.lru_cache(maxsize=None)
def _class_group_of_disc(disc: int) -> ClassGroup:
    forms = tuple(enumerate_reduced_forms(disc))
    index = {f: i for i, f in enumerate(forms)}
    table = tuple(
        tuple(index[compose_forms(f1, f2)] for f2 in forms) for f1 in forms
    )
    identity = index[reduce_form(principal_form(disc))]
    # group sanity: identity row/column, closed inverses
    for i, f in enumerate(forms):
        if table[identity][i] != i or table[i][identity] != i:
            raise SkewError("composition identity check failed")
    invs = _invariant_factors(table, identity)
    return ClassGroup(disc, forms, table, identity, invs)


_TRIVIAL = ClassGroup(None, ((1, 0, 0),), ((0,),), 0, ())


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
    if dom.omega_t:
        bcoef = (-(b + 1) // 2) % a
    else:
        bcoef = (-b // 2) % a
    return FracIdeal(dom, a, bcoef, 1)


def class_of(dom: Domain, u: FracIdeal) -> int:
    """Index of the reduced form representing the class of u."""
    if u.is_zero:
        raise ZeroIdealError("zero ideal has no class")
    cg = class_group(dom)
    if cg.disc is None:
        return 0
    for i, form in enumerate(cg.forms):
        rep = ideal_of_form(dom, form)
        if ideal_classes_isomorphic(u, rep) is not None:
            return i
    raise SkewError("ideal matched no form class")


def sigma_acts_trivially(dom: Domain) -> bool:
    """Whether sigma(a) is isomorphic to a for every ideal a.

    For sigma = conj this holds exactly when the class group is
    2-torsion, that is, when every invariant factor is 2: a * conj(a) =
    N(a) D is principal, so conj maps the class of a to its inverse.
    """
    if not dom.conj_sigma:
        return True
    return all(d == 2 for d in class_group(dom).invariants)
