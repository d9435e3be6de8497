"""Fractional ideals of the supported domains in one canonical form.

A fractional ideal of Z[w] is one FracIdeal: the Hermite normal form
(a, b + c*w) of an integral lattice, with a, c >= 1, c | a, c | b,
0 <= b < a, over one positive denominator that shares no factor with
the lattice content; over Z the lattice is a single nonnegative
generator. Canonicalisation at construction makes equality, hashing,
membership and index queries O(1) afterwards, and conjugation is a
closed form on the fields.

All heavy lifting reduces to integer row echelon forms of small
matrices. An echelon form records its row operations instead of carrying
a transformation matrix, and explicit coefficients replay that record on
just the combination they need. PreparedBasis is the one solver of "is e
in this module, and with which coefficients": it keeps one such echelon
for many targets.

Nothing here is sampled. The second-generator scan of
one_and_half_generator is complete, since the index [u : aD] bounds it;
the imaginary-quadratic principal scan covers its whole solution box.
Only the real-quadratic principal scan stops at a bound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .domains import Domain, FieldElem, RingElem
from .errors import (
    BoundExceeded,
    MembershipError,
    SkewError,
    UnsupportedDomain,
    ZeroIdealError,
)

# default coordinate bound of the real-quadratic principal generator scan
PRINCIPAL_BOUND = 100_000
# entries kept by each process-wide memo (principal generators here, shape
# tables in completion); the least recently used entry goes first
MEMO_SIZE = 512


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def echelon(rows: list[list[int]]):
    """Integer row echelon form with positive pivots, columns left to right.

    Returns (ech, pivots, ops). ech is the full list of transformed rows
    (zero rows at the bottom), pivots the list of pivot column indices
    for the leading rows, and ops the row operations in the order they
    were applied; combine_transform reads any combination of the rows of
    the unimodular U with U * input = ech off that record, so U itself
    is never built. Entries above each pivot are reduced into [0, pivot).
    Rows from the pivot slot down are zero left of the current column,
    so each operation touches only the columns from it onward.
    """
    m = [list(r) for r in rows]
    k = len(m)
    ncols = len(m[0]) if k else 0
    ops = []
    pivots = []
    r = 0
    for col in range(ncols):
        if r >= k:
            break
        for i in range(r + 1, k):
            b = m[i][col]
            if not b:
                continue
            a = m[r][col]
            if not a:
                m[r], m[i] = m[i], m[r]
                ops.append((r, i))
                continue
            g, x, y = xgcd(a, b)
            u, v = -(b // g), a // g
            top, low = m[r], m[i]
            for t in range(col, ncols):
                p, q = top[t], low[t]
                top[t] = x * p + y * q
                low[t] = u * p + v * q
            ops.append((r, i, x, y, u, v))
        row = m[r]
        piv = row[col]
        if not piv:
            continue
        if piv < 0:
            for t in range(col, ncols):
                row[t] = -row[t]
            piv = -piv
            ops.append((r,))
        for j in range(r):
            q = m[j][col] // piv
            if q:
                above = m[j]
                for t in range(col, ncols):
                    above[t] -= q * row[t]
                ops.append((j, r, q))
        pivots.append(col)
        r += 1
    return m, pivots, ops


def combine_transform(ops, v: list[int]) -> list[int]:
    """v * U for the unimodular U with U * rows = ech, where
    (ech, _, ops) = echelon(rows).

    U is the product of the recorded operations, so v * U replays them
    last to first, each transposed and on the at most two entries of v
    it mixes: (i, j) swaps rows i and j, (i,) negates row i, (j, r, q)
    subtracts q * row r from row j, and (i, j, a, b, c, d) replaces
    (row i, row j) by (a*row i + b*row j, c*row i + d*row j). The unit
    vector e_i gives row i of U, the input combination that is echelon
    row i (a kernel vector when that row is zero).
    """
    w = list(v)
    for op in reversed(ops):
        if len(op) == 6:
            i, j, a, b, c, d = op
            wi, wj = w[i], w[j]
            w[i] = a * wi + c * wj
            w[j] = b * wi + d * wj
        elif len(op) == 3:
            j, r, q = op
            w[r] -= q * w[j]
        elif len(op) == 2:
            i, j = op
            w[i], w[j] = w[j], w[i]
        else:
            w[op[0]] = -w[op[0]]
    return w


class FracIdeal:
    """Fractional ideal (Z*a + Z*(b + c*w)) / den in canonical form.

    The numerator lattice is in Hermite normal form: a, c >= 1, c | a,
    c | b and 0 <= b < a (over Z the single generator a >= 0, b = c = 0).
    Since c divides a and b it is the lattice content, and den >= 1
    shares no factor with it (with a over Z). The zero ideal is (0) with
    den 1, and an ideal is integral when den == 1. Equal ideals have
    equal fields.
    """

    __slots__ = ("dom", "a", "b", "c", "den")

    def __init__(self, dom: Domain, a: int, b: int = 0, c: int = 0,
                 den: int = 1):
        if den <= 0:
            raise SkewError("denominator must be positive")
        self.dom = dom
        if not dom.is_quad:
            if b or c:
                raise SkewError("integer-domain ideal has a single generator")
            a = abs(a)
            g = gcd(a, den)
            self.a, self.b, self.c, self.den = a // g, 0, 0, den // g
            return
        if a == 0 and b == 0 and c == 0:
            self.a = self.b = self.c = 0
            self.den = 1
            return
        if a <= 0 or c <= 0:
            raise SkewError(f"invalid HNF triple ({a}, {b}, {c})")
        b %= a
        if a % c or b % c:
            raise SkewError(f"({a}, {b}, {c}) is not an ideal lattice (c divides)")
        g = gcd(c, den)
        self.a, self.b, self.c, self.den = a // g, b // g, c // g, den // g
        # closure under w: w*a and w*(b+c*w) must lie in the lattice
        for gen in self.two_generators():
            if not self._holds(gen * dom.omega):
                raise SkewError(f"({a}, {b}, {c}) is not closed under w")

    @property
    def is_zero(self) -> bool:
        return self.a == 0

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    @property
    def is_unit(self) -> bool:
        return self.den == 1 and self.index == 1

    is_unit_ideal = is_unit  # kept for bench/test_bench.py, which calls it

    def to_frac(self) -> "FracIdeal":
        """The ideal itself; kept for bench/test_bench.py, which calls it."""
        return self

    @property
    def index(self) -> int:
        """Index [D : den * self] of the numerator lattice; 0 for (0)."""
        return self.a * self.c if self.dom.is_quad else self.a

    def __repr__(self):
        lat = f"hnf({self.a},{self.b},{self.c})" if self.dom.is_quad \
            else f"({self.a})"
        return lat if self.den == 1 else f"{lat}/{self.den}"

    def __eq__(self, other):
        return (
            isinstance(other, FracIdeal)
            and self.dom is other.dom
            and (self.a, self.b, self.c, self.den)
            == (other.a, other.b, other.c, other.den)
        )

    def __hash__(self):
        return hash((id(self.dom), self.a, self.b, self.c, self.den))

    def norm(self) -> Fraction:
        """Multiplicative norm; equals the index for integral ideals."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.index, self.den ** (2 if self.dom.is_quad else 1))

    def _holds(self, e: RingElem) -> bool:
        """Whether e lies in the numerator lattice den * self."""
        if self.is_zero:
            return not e
        if not self.dom.is_quad:
            return e.a % self.a == 0
        if e.b % self.c:
            return False
        return (e.a - e.b // self.c * self.b) % self.a == 0

    def contains(self, e) -> bool:
        """Membership of a RingElem or a FieldElem."""
        if isinstance(e, FieldElem):
            # e * den is integral exactly when e's denominator divides den
            if self.den % e.den:
                return False
            k, e = self.den // e.den, e.num
        elif isinstance(e, RingElem):
            k = self.den
        else:
            raise TypeError(type(e))
        return self._holds(e if k == 1 else RingElem(self.dom, e.a * k, e.b * k))

    def two_generators(self) -> tuple[RingElem, RingElem]:
        """Generators (a, b + c*w) of den * self, so of self when integral;
        over Z the degenerate pair (m, m)."""
        if self.is_zero:
            raise ZeroIdealError("zero ideal has no generators")
        g1 = RingElem(self.dom, self.a, 0)
        if not self.dom.is_quad:
            return g1, g1
        return g1, RingElem(self.dom, self.b, self.c)

    def gens(self) -> tuple[FieldElem, FieldElem]:
        return tuple(FieldElem(self.dom, g, self.den)
                     for g in self.two_generators())

    def mul(self, other: "FracIdeal") -> "FracIdeal":
        if self.is_unit:
            return other
        if other.is_unit:
            return self
        if self.is_zero or other.is_zero:
            return zero_ideal(self.dom)
        den = self.den * other.den
        if not self.dom.is_quad:
            return FracIdeal(self.dom, self.a * other.a, den=den)
        # the four products of the two Z-bases span the product over Z,
        # so no w-multiples are needed
        u1, u2 = self.two_generators()
        v1, v2 = other.two_generators()
        return _lattice_ideal(self.dom, [[p.b, p.a] for p in (
            u1 * v1, u1 * v2, u2 * v1, u2 * v2)], den)

    def add(self, other: "FracIdeal") -> "FracIdeal":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        den = lcm(self.den, other.den)
        return from_ring_generators(
            self.dom, [g * (den // u.den) for u in (self, other)
                       for g in u.two_generators()], den)

    def inverse(self) -> "FracIdeal":
        if self.is_zero:
            raise ZeroIdealError("inverse of the zero ideal")
        # L * conj(L) = [D : L] * D in the maximal order, so
        # (L / den)^-1 = den * conj(L) / [D : L]
        if self.dom.is_quad:
            bar = self.conj()
            inv = FracIdeal(self.dom, bar.a * self.den, bar.b * self.den,
                            bar.c * self.den, self.index)
        else:
            inv = FracIdeal(self.dom, self.den, den=self.a)
        check = self.mul(inv)
        if not check.is_unit:
            raise SkewError(f"inverse verification failed for {self!r}")
        return inv

    def scale(self, e: FieldElem) -> "FracIdeal":
        """Product with the principal fractional ideal (e)."""
        return self.mul(from_generators(self.dom, [e]))

    def conj(self) -> "FracIdeal":
        """The conjugate ideal (a, -b - c*tr(w), c) / den, no HNF build:
        conj(b + c*w) = b + c*tr(w) - c*w, negated to keep c positive."""
        if not self.dom.is_quad or self.is_zero:
            return self
        return FracIdeal(self.dom, self.a, -self.b - self.c * self.dom.omega_t,
                         self.c, self.den)

    def sigma(self, i: int = 1) -> "FracIdeal":
        if self.dom.conj_sigma and i % 2:
            return self.conj()
        return self

    def to_json(self) -> dict:
        out = {"hnf": [self.a, self.b, self.c] if self.dom.is_quad
               else [self.a]}
        if self.den != 1:
            out["den"] = self.den
        return out


def unit_ideal(dom: Domain) -> FracIdeal:
    return FracIdeal(dom, 1, 0, 1 if dom.is_quad else 0)


def zero_ideal(dom: Domain) -> FracIdeal:
    return FracIdeal(dom, 0)


def from_ring_generators(dom: Domain, gens: list[RingElem], den: int = 1
                         ) -> FracIdeal:
    """The D-module spanned by ring elements, divided by den, in HNF."""
    gens = [g for g in gens if g]
    if not gens:
        return zero_ideal(dom)
    if not dom.is_quad:
        m = 0
        for g in gens:
            m = gcd(m, g.a)
        return FracIdeal(dom, m, den=den)
    return _lattice_ideal(dom, _coefficient_rows(dom, gens), den)


def _lattice_ideal(dom: Domain, rows: list[list[int]], den: int) -> FracIdeal:
    """The ideal whose numerator lattice the coordinate rows (b, a) of
    elements a + b*w span over Z, divided by den, in HNF."""
    ech, pivots, _ = echelon(rows)
    if pivots != [0, 1]:
        raise SkewError("generators do not span a rank-2 lattice")
    c, b = ech[0][0], ech[0][1]
    a = ech[1][1]
    return FracIdeal(dom, a, b, c, den)


def from_generators(dom: Domain, gens: list) -> FracIdeal:
    """D-module generated by field elements, as a fractional ideal."""
    scale, ring_gens = _over_common_denominator(gens)
    return from_ring_generators(dom, ring_gens, scale)


def _over_common_denominator(gens: list) -> tuple[int, list[RingElem]]:
    """The common denominator scale of ring or field elements, and
    scale * g as a ring element for each g (zeros included)."""
    felems = [g.to_field() if isinstance(g, RingElem) else g for g in gens]
    scale = 1
    for g in felems:
        scale = lcm(scale, g.den)
    return scale, [g.num * (scale // g.den) for g in felems]


def _coefficient_rows(dom: Domain, gens: list[RingElem]):
    """Integer coordinate rows (b, a) of each generator a + b*w and of its
    w-multiple; (a) over the integers."""
    if not dom.is_quad:
        return [[g.a] for g in gens]
    rows = []
    for g in gens:
        wg = g * dom.omega
        rows.append([g.b, g.a])
        rows.append([wg.b, wg.a])
    return rows


class PreparedBasis:
    """Generators of a D-module prepared once for many solves.

    Holds the common denominator scale of the generators and the echelon
    form (ech, pivots, ops) of the integer coordinate rows of scale * g_j
    and scale * g_j * w. solve writes one scaled element, as an integer
    pair, over the generators, express one field element; the echelon is
    not repeated per target.
    """

    __slots__ = ("dom", "gens", "scale", "ech", "pivots", "ops")

    def __init__(self, gens: list):
        if not gens or all(not g for g in gens):
            raise SkewError("need at least one nonzero generator")
        self.dom = gens[0].dom
        self.gens = gens
        self.scale, ring_gens = _over_common_denominator(gens)
        self.ech, self.pivots, self.ops = echelon(
            _coefficient_rows(self.dom, ring_gens))

    def solve(self, e: tuple[int, int]) -> list[tuple[int, int]]:
        """Integer pairs (u_j, v_j) per generator (v_j = 0 over Z) with
        scale * e = sum scale * g_j * (u_j + v_j * w) for the element
        e = a + b*w given as the pair (a, b) of its scaled coordinates.
        Raises MembershipError(e, None) when there are none."""
        quad = self.dom.is_quad
        t = [e[1], e[0]] if quad else [e[0]]
        z = [0] * len(self.ech)
        for idx, col in enumerate(self.pivots):
            row = self.ech[idx]
            q, rem = divmod(t[col], row[col])
            if rem:  # t[col] != 0 stays, so any(t) below raises
                break
            z[idx] = q
            if q:
                for j in range(len(t)):
                    t[j] -= q * row[j]
        if any(t):
            raise MembershipError(e, None, "no integral solution")
        w = combine_transform(self.ops, z)
        return list(zip(w[::2], w[1::2])) if quad else [(u, 0) for u in w]

    def express(self, e: FieldElem) -> list[RingElem]:
        """Coefficients u_j in D with e = sum gens_j * u_j; raises
        MembershipError(e, module) when e is outside the module."""
        # module elements are integral over scale: a larger denominator
        # puts e outside it
        k, rem = divmod(self.scale, e.den)
        try:
            if rem:
                raise MembershipError(e, None)
            pairs = self.solve((e.num.a * k, e.num.b * k))
        except MembershipError:
            raise MembershipError(e, from_generators(self.dom, self.gens)
                                  ) from None
        return [RingElem(self.dom, u, v) for u, v in pairs]


def _shells_up_to_sign(n: int):
    """Integer pairs (x, y) on the square shells max(|x|, |y|) = 1 .. n,
    one of each pair +-(x, y): shell 1 as (0, 1), (1, 0), (1, 1), (1, -1),
    then each shell r as its top edge (x, r) and the inside of its right
    edge (r, y)."""
    yield from ((0, 1), (1, 0), (1, 1), (1, -1))
    for r in range(2, n + 1):
        for x in range(-r, r + 1):
            yield x, r
        for y in range(1 - r, r):
            yield r, y


def one_and_half_generator(u: FracIdeal, a: RingElem) -> RingElem:
    """Some b in u with (a, b) = u, given a nonzero a in an integral u.

    Candidates are b = x*g1 + y*g2 on the HNF generators, up to sign,
    since (a, -b) = (a, b): first g2, g1, g1 + g2 and g1 - g2, then the
    square shells max(|x|, |y|) = r for r = 2 .. n, n = [u : aD]. Each is
    confirmed by HNF equality. The scan is complete: (a, b) depends only
    on b mod aD, n*u lies in aD, so the shells up to n meet every class
    of u/aD, and some class generates u together with a (Cohen, GTM 138,
    section 4.7). Running out of candidates is therefore an internal
    error.
    """
    if u.is_zero:
        raise ZeroIdealError("zero ideal")
    if not u.is_integral:
        raise SkewError("need an integral ideal")
    if not a:
        raise SkewError("need a nonzero element")
    if not u.contains(a):
        raise MembershipError(a, u)
    g1, g2 = u.two_generators()
    for x, y in _shells_up_to_sign(abs(a.norm()) // u.index):
        b = g1 * x + g2 * y
        if b and from_ring_generators(u.dom, [a, b]) == u:
            return b
    raise SkewError("internal error: the complete shell scan found no "
                    "second generator")


def _norm_form(u: FracIdeal) -> tuple[int, int, int]:
    """Quadratic form N(x*g1 + y*g2) = A x^2 + B xy + C y^2 on the HNF basis."""
    g1, g2 = u.two_generators()
    a1 = g1.a
    return a1 * a1, a1 * g2.trace(), g2.norm()


def _square_residues(m: int) -> bytes:
    """Byte r is 1 when r is a square modulo m."""
    table = bytearray(m)
    for i in range(m):
        table[i * i % m] = 1
    return bytes(table)


# every square is a square modulo 64, 63 and 65; together these moduli
# pass about 1.5% of non-squares on to isqrt
_SQUARE_64, _SQUARE_63, _SQUARE_65 = map(_square_residues, (64, 63, 65))


def _perfect_sqrt(n: int) -> int | None:
    """The square root of n if n is a perfect square, else None."""
    if n < 0 or not (_SQUARE_64[n & 63] and _SQUARE_63[n % 63]
                     and _SQUARE_65[n % 65]):
        return None
    r = isqrt(n)
    return r if r * r == n else None


@lru_cache(maxsize=MEMO_SIZE)
def principal_generator(u: FracIdeal, coeff_bound: int = PRINCIPAL_BOUND):
    """A generator of u when u is principal.

    Z: always principal. Quadratic: solutions of N(x*g1 + y*g2) = +-index
    on the HNF basis are scanned along y, solving exactly for x. Imaginary
    quadratic: the norm form is positive definite, its finite solution box
    is scanned completely, and None is a proof of nonprincipality. Real
    quadratic: y runs up to coeff_bound and BoundExceeded signals an
    undecided search.

    The answer is a function of (u, coeff_bound) alone and is remembered
    for the last MEMO_SIZE of them. BoundExceeded is raised, never
    remembered, so a call's outcome does not depend on earlier calls.
    """
    if u.is_zero:
        raise ZeroIdealError("zero ideal")
    dom = u.dom
    if not dom.is_quad:
        return FieldElem(dom, RingElem(dom, u.a, 0), u.den)
    n = u.index
    if n == 1:
        return FieldElem(dom, dom.one, u.den)
    g1, g2 = u.two_generators()
    big_a, big_b, big_c = _norm_form(u)
    # 4A*Q(x,y) = (2Ax + By)^2 - disc*y^2, so Q = target solves for x when
    # disc*y^2 + 4A*target is a square
    disc = big_b * big_b - 4 * big_a * big_c
    definite = dom.d < 0
    if definite:
        ybound, targets = isqrt(4 * big_a * n // -disc) + 1, (n,)
    else:
        ybound, targets = coeff_bound, (n, -n)
    for y in range(0, ybound + 1):
        for target in targets:
            s = _perfect_sqrt(disc * y * y + 4 * big_a * target)
            if s is None:
                continue
            for sgn in ((s, -s) if s else (0,)):
                num = -big_b * y + sgn
                if num % (2 * big_a) or (num == 0 and y == 0):
                    continue
                cand = FieldElem(dom, g1 * (num // (2 * big_a)) + g2 * y,
                                 u.den)
                if definite or from_generators(dom, [cand]) == u:
                    return cand
    if definite:
        return None
    raise BoundExceeded(coeff_bound, f"principal search undecided for {u!r}")


def ideal_classes_isomorphic(u: FracIdeal, v: FracIdeal):
    """q0 with q0 * u = v when u and v are in the same class, else None.

    Decidable over Z and imaginary quadratic domains; real quadratic
    class queries are refused rather than answered heuristically.
    """
    dom = u.dom
    if dom.is_quad and dom.d > 0:
        raise UnsupportedDomain("real quadratic class queries are not decided")
    if u.is_zero or v.is_zero:
        raise ZeroIdealError("class query on the zero ideal")
    q0 = principal_generator(v.mul(u.inverse()), PRINCIPAL_BOUND)
    if q0 is None:
        return None
    if u.scale(q0) != v:
        raise SkewError("generator verification failed")
    return q0


def extended_ideal_iso(j_ideal: FracIdeal, l_ideal: FracIdeal):
    """(q0, k) with q0 * sigma^k(J) = L over the sigma orbit, or None.

    Decides whether the extended ideals J*R and L*R are isomorphic at the
    level the theory reduces it to: some twist of J lands in the class
    of L.
    """
    for k in range(j_ideal.dom.sigma_order):
        q0 = ideal_classes_isomorphic(j_ideal.sigma(k), l_ideal)
        if q0 is not None:
            return q0, k
    return None
