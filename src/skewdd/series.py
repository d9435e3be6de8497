"""Truncated skew Laurent series and small matrices of them.

A series sum_{i >= val} a_i x^i over the fraction field is stored with
its true valuation, the coefficients of its known window and an explicit
exclusive bound known_to on the orders it is known at (None means the
series is exact, e.g. a polynomial). Multiplication twists coefficients
by the domain automorphism: x^i a = sigma^i(a) x^i.

The precision contract is the min rule: a product is known exactly
through min(val(f) + known_to(g), val(g) + known_to(f)) and never
beyond; no operation ever claims an order it cannot compute. Values are
immutable and operations pure.

A constant factor is a scaling, not a product: scale_right(f, c) sets
order i to f_i * sigma^i(c), and scale_column(m, c) is m @ diag(1, c).
Every product of two series goes through one kernel, sum_products: a
sum of twisted products (mul is its one-pair case, and each entry of a
matrix product one call). It reads each factor into integer lanes
(a_i, b_i) over one positive common denominator, with coefficient
(a_i + b_i*w) / den (over Z there is no b lane), plus the Karatsuba
lane a_i + b_i and, when sigma is conjugation, the same lanes of the
conjugated coefficients. A series reads its whole window into lanes at
most once and keeps them (the coefficients stay FieldElems, and equality
and hashing ignore the kept lanes); a factor cut shorter is sliced from
the kept lanes, or read alone and not kept if none are. The kernel
convolves the lanes with plain int arithmetic by walking the shorter
factor: each of its coefficients adds one scaled copy of the other
factor's lanes into an accumulator slice, in one list comprehension, so
a pair costs O(min(nf, step*ng)) Python steps rather than one dot
product per output order. A pair whose denominators fall short of the
common one rescales whichever side holds fewer integers. Elements are
built only inside the product's nonzero window, found from both ends on
the combined integer parts: one FieldElem, so one gcd, per order from
the first to the last nonzero one.

Order-by-order products share one relaxed recursion, relaxed_product
(van der Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput.
34, 2002): order t of L * R or of R * L, where the caller finds R_t
only once order t of the sum is known. The known factor L arrives as
integer pairs over one denominator and is kept as lanes once per
parity, each coefficient matrix's entries last to first; each R_t
enters lanes once, when it is found, in the order found. A known lane
times an unknown lane read backwards, sum(map(mul, K, reversed(U))),
then pairs L_j with R_(t-j) and stops at the shorter side, so no lane
is sliced per order, and an order costs three integer dot products per
entry, each as long as L up to its last nonzero L_j: the cost per order
follows the degree of the known factor, so a degree-d matrix divides
with O(d) terms per order. Its callers are right_divide, which solves
X * a = b for b * a^-1 with the unknown on the left (the final
conversion of a completion is one such solve, and matrix_invert
divides the identity; a series inverts as the 1x1 case), and
extension.extend, with the unknown on the right. right_divide folds
a_v^-1, the inverse of a's lowest coefficient matrix, into the known
factor and the right-hand side once, on integer pairs, so each order is
the dot products and one normalisation per output coefficient. A 2x2
matrix whose lowest coefficient matrix is singular is refused with
SingularError, even when it is invertible over the series ring.
"""

from __future__ import annotations

from math import lcm
from operator import mul as mul_int

from .domains import Domain, FieldElem, RingElem, pair_mul
from .errors import PrecisionError, SingularError, SkewError


def _kt_min(*kts):
    vals = [k for k in kts if k is not None]
    return min(vals) if vals else None


def _kt_add(kt, shift: int):
    return None if kt is None else kt + shift


class TruncatedSeries:
    """Immutable truncated series; see the module docstring."""

    __slots__ = ("dom", "val", "coeffs", "known_to", "_form")

    def __init__(self, dom: Domain, val: int, coeffs, known_to=None):
        coeffs = tuple(coeffs)
        # strip leading and trailing zero coefficients; implicit zeros are
        # recovered from val and known_to
        lo, hi = 0, len(coeffs)
        while lo < hi and not coeffs[lo]:
            lo += 1
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        coeffs = coeffs[lo:hi]
        val += lo
        if known_to is not None and coeffs and val + len(coeffs) > known_to:
            raise SkewError("coefficients extend past known_to")
        if not coeffs:
            val = known_to if known_to is not None else 0
        self.dom = dom
        self.val = val
        self.coeffs = coeffs
        self.known_to = known_to
        self._form = None   # the kept lane form, see lanes_below

    # ---------------------------------------------------------- constructors
    @staticmethod
    def const(dom: Domain, c, known_to=None) -> "TruncatedSeries":
        if isinstance(c, RingElem):
            c = c.to_field()
        if isinstance(c, int):
            c = FieldElem(dom, RingElem(dom, c, 0), 1)
        return TruncatedSeries(dom, 0, [c], known_to)

    @staticmethod
    def x_power(dom: Domain, m: int, known_to=None) -> "TruncatedSeries":
        return TruncatedSeries(dom, m, [dom.fone], known_to)

    @staticmethod
    def zero(dom: Domain, known_to=None) -> "TruncatedSeries":
        return TruncatedSeries(dom, 0, [], known_to)

    @staticmethod
    def from_coeff_map(dom: Domain, items, known_to=None) -> "TruncatedSeries":
        """Build from (order, coefficient) pairs; pairs at one order add up."""
        items = [(i, c) for i, c in items if c]
        if not items:
            return TruncatedSeries.zero(dom, known_to)
        lo = min(i for i, _ in items)
        hi = max(i for i, _ in items)
        coeffs = [dom.fzero] * (hi - lo + 1)
        for i, c in items:
            if isinstance(c, RingElem):
                c = c.to_field()
            slot = coeffs[i - lo]
            coeffs[i - lo] = slot + c if slot else c
        return TruncatedSeries(dom, lo, coeffs, known_to)

    # -------------------------------------------------------------- queries
    @property
    def ring(self) -> bool:
        """Every known coefficient lies in D, so the series lies in R."""
        return all(c.is_integral for c in self.coeffs)

    @property
    def is_known_zero(self) -> bool:
        """Zero at every known order (possibly trivially, if nothing is known)."""
        return not self.coeffs

    @property
    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.known_to is None

    def coeff(self, i: int) -> FieldElem:
        """Coefficient of x^i; PrecisionError past the known window."""
        if self.known_to is not None and i >= self.known_to:
            raise PrecisionError(f"coefficient {i} is beyond known_to={self.known_to}")
        j = i - self.val
        if j < 0 or j >= len(self.coeffs):
            return self.dom.fzero
        return self.coeffs[j]

    def known_orders(self):
        """Orders of the stored (possibly zero) coefficient window."""
        return range(self.val, self.val + len(self.coeffs))

    def valuation(self) -> int:
        if not self.coeffs:
            if self.known_to is None:
                raise SkewError("the zero series has no valuation")
            raise PrecisionError(
                f"series is zero through order {self.known_to}; valuation unknown"
            )
        return self.val

    def lowest(self) -> FieldElem:
        """Lowest known coefficient; 0 for the exact zero series."""
        if not self.coeffs:
            if self.known_to is None:
                return self.dom.fzero
            raise PrecisionError("no nonzero coefficient known")
        return self.coeffs[0]

    def __repr__(self):
        from .textio import format_series
        return format_series(self)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.dom is other.dom
            and self.val == other.val
            and self.coeffs == other.coeffs
            and self.known_to == other.known_to
        )

    def __hash__(self):
        return hash((id(self.dom), self.val, self.coeffs, self.known_to))

    # ------------------------------------------------------------ arithmetic
    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            if other.dom is not self.dom:
                raise SkewError("mixed domains")
            return other
        if isinstance(other, (int, FieldElem, RingElem)):
            return TruncatedSeries.const(self.dom, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        kt = _kt_min(self.known_to, o.known_to)
        items = []
        for s in (self, o):
            for j, c in enumerate(s.coeffs):
                i = s.val + j
                if kt is None or i < kt:
                    items.append((i, c))
        return TruncatedSeries.from_coeff_map(self.dom, items, kt)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.dom, self.val, [-c for c in self.coeffs],
                               self.known_to)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return mul(self, o)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return mul(o, self)

    def shift(self, m: int) -> "TruncatedSeries":
        """Right multiplication by x^m: coefficients unchanged, orders shift.

        The copy shares the kept lane form, a function of the coefficients
        alone."""
        if not self.coeffs:
            return TruncatedSeries(self.dom, 0, [], _kt_add(self.known_to, m))
        out = TruncatedSeries(self.dom, self.val + m, self.coeffs,
                              _kt_add(self.known_to, m))
        out._form = self._form
        return out

    def map_coeffs(self, fn) -> "TruncatedSeries":
        """Apply fn to every stored coefficient, orders unchanged."""
        return TruncatedSeries(self.dom, self.val,
                               [fn(c) for c in self.coeffs], self.known_to)

    def invert(self, prec: int | None = None) -> "TruncatedSeries":
        """Two-sided inverse: the 1x1 case of matrix_invert."""
        return matrix_invert(SeriesMatrix(self.dom, [[self]]), prec).rows[0][0]

    def lanes_below(self, room: int):
        """(den, plain, conj): the lane form of the coefficients below
        order val + room, see _lane_form.

        The whole window is read once and kept; a shorter cut is sliced
        from the kept form, or read alone (and not kept) if there is none.
        """
        form = self._form
        if room < len(self.coeffs):
            if form is None:
                return _lane_form(self.dom, self.coeffs[:room])
            den, plain, conj = form
            cut = [lane[:room] for lane in plain]
            return den, cut, (cut if conj is plain
                              else [lane[:room] for lane in conj])
        if form is None:
            form = self._form = _lane_form(self.dom, self.coeffs)
        return form


def mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Twisted Cauchy product; precision follows the min rule."""
    return sum_products(f.dom, [(f, g)])


def scale_right(f: TruncatedSeries, c: FieldElem) -> TruncatedSeries:
    """f * c for a constant c: order i becomes f_i * sigma^i(c).

    The value of mul(f, const(c)) without a convolution: f itself when
    c = 1, the exact zero when c = 0, and otherwise f's window with
    known_to unchanged (an exact constant bounds nothing, and a nonzero
    c keeps every nonzero coefficient nonzero).
    """
    if not c:
        return TruncatedSeries.zero(f.dom)
    if c == f.dom.fone or not f.coeffs:
        return f
    at = (c, f.dom.sigma_pow(c, 1))
    return TruncatedSeries(f.dom, f.val, [
        a * at[(f.val + j) % 2] if a else a for j, a in enumerate(f.coeffs)],
        f.known_to)


def scale_column(m: "SeriesMatrix", c: FieldElem) -> "SeriesMatrix":
    """m @ diag(1, c): the second column scaled on the right by c."""
    return SeriesMatrix(m.dom, [[a, scale_right(b, c)] for a, b in m.rows])


def _lanes(coeffs, quad: bool):
    """(den, [a, b]) with coeffs[i] = (a[i] + b[i]*w) / den for one
    positive common denominator den; (den, [a]) over Z."""
    den = 1
    for c in coeffs:
        if den % c.den:
            den = lcm(den, c.den)
    lanes = [[c.num.a * (den // c.den) for c in coeffs]]
    if quad:
        lanes.append([c.num.b * (den // c.den) for c in coeffs])
    return den, lanes


def _with_sum(lanes):
    """Over Q(w), add the lane a + b for the Karatsuba cross term."""
    if len(lanes) == 1:
        return lanes
    return [*lanes, [x + y for x, y in zip(*lanes)]]


def _lane_form(dom: Domain, coeffs):
    """(den, plain, conj): plain holds the lanes of coeffs with the
    Karatsuba lane a + b (over Q(w)), conj the same for the conjugated
    coefficients when sigma is conjugation and plain itself otherwise."""
    den, lanes = _lanes(coeffs, dom.is_quad)
    plain = _with_sum(lanes)
    if not dom.conj_sigma:
        return den, plain, plain
    return den, plain, _with_sum(_conj_lanes(lanes, dom.omega_t))


def _conj_lanes(lanes, omega_t):
    """The lanes [a, b] of the conjugates: conj(a + b*w) = (a + b*omega_t)
    - b*w."""
    a, b = lanes
    return [[u + v * omega_t for u, v in zip(a, b)], [-v for v in b]]


def sum_products(dom: Domain, pairs) -> TruncatedSeries:
    """Sum of the twisted products f * g over pairs, known through the
    least of their min-rule bounds (an exact-zero factor contributes
    nothing and bounds nothing).

    One pass over the pairs finds the output's bound, its lowest and top
    orders and the pairs with terms. Each factor is cut at the room left
    below the output's top order and read into integer lanes
    (lanes_below), and every pair is scaled to the common denominator of
    all the products (an lcm only when the running one is not already a
    multiple). A pair then walks whichever factor needs fewer
    scaled-vector adds: nf for f, or step * ng for g (step 2 when sigma
    is conjugation, else 1). g has step distinct twisted forms, so the
    walked side is also the one with fewer integers, and it alone is
    rescaled when the pair's denominator falls short. Walking
    f adds f_j times g's lanes, conjugated when sigma^(val(f)+j) twists
    them, into the accumulator; walking g adds sigma^e(g_i) times f's
    lanes of parity e into every step-th order. Each add is one list
    comprehension over an accumulator slice; zero scalars are skipped.

    The sums are then combined into each order's integer parts (over
    Q(w), a + b*omega_c and c - a - b + b*omega_t from the Karatsuba sums
    a, b, c, which need not vanish at a zero order; over Z the sum
    itself). The first and the last order with a nonzero part are found
    from the two ends, and elements are built only between them, each
    normalised once.
    """
    kt = lo = hi = None
    live = []
    for f, g in pairs:
        fc, gc, fk, gk = f.coeffs, g.coeffs, f.known_to, g.known_to
        if not (fc or fk is not None) or not (gc or gk is not None):
            continue   # an exact-zero factor
        if gk is not None and (kt is None or f.val + gk < kt):
            kt = f.val + gk
        if fk is not None and (kt is None or g.val + fk < kt):
            kt = g.val + fk
        if fc and gc:
            live.append((f, g))
            v = f.val + g.val
            top = v + len(fc) + len(gc) - 1
            if lo is None:
                lo, hi = v, top
            else:
                lo, hi = min(lo, v), max(hi, top)
    if not live:
        return TruncatedSeries.zero(dom, kt)
    if kt is not None and kt < hi:
        hi = kt
    quad = dom.is_quad
    step = 2 if dom.conj_sigma else 1
    factors = []
    den = 1
    for f, g in live:
        room = hi - f.val - g.val   # orders of f * g below hi
        if room > 0:
            fform, gform = f.lanes_below(room), g.lanes_below(room)
            factors.append((f.val, g.val, room, fform, gform))
            d = fform[0] * gform[0]
            if den % d:
                den = lcm(den, d)
    # per order: sum a_f a_g and, over Q(w), sum b_f b_g and
    # sum (a_f + b_f)(a_g + b_g), which give the w part (Karatsuba)
    sums = [[0] * (hi - lo) for _ in range(3 if quad else 1)]
    for fv, gv, room, (fd, fl, _), (gd, *twisted) in factors:
        # twisted: g's lanes as seen by the even and the odd orders of f
        nf, ng = len(fl[0]), len(twisted[0][0])
        walk_f = nf <= step * ng   # g has step distinct twisted forms
        scale = den // (fd * gd)
        if scale != 1:   # rescale the side walked, which has fewer integers
            if walk_f:
                fl = [[x * scale for x in lane] for lane in fl]
            else:   # one form per parity, shared when sigma = id
                twisted = [[[y * scale for y in lane] for lane in side]
                           for side in twisted[:step]] * (2 // step)
        # f_j sigma^(fv+j)(g_i) lands in accumulator slot base + j + i
        base = fv + gv - lo
        if walk_f:   # walk f: add f_j * g into slots base + j ...
            for j in range(nf):
                s = base + j
                e = s + min(ng, room - j)
                g_twisted = twisted[(fv + j) % 2]
                for acc, f_lane, g_lane in zip(sums, fl, g_twisted):
                    c = f_lane[j]
                    if c:
                        acc[s:e] = [x + c * y
                                    for x, y in zip(acc[s:e], g_lane)]
        else:   # walk g: add sigma^par(g_i) * f's parity-par coefficients
            for par in range(step):
                j0 = (par - fv) % step   # first j with fv + j of parity par
                f_par = [lane[j0::step] for lane in fl]
                for i in range(ng):
                    count = len(range(j0, min(nf, room - i), step))
                    if not count:
                        continue
                    s = base + j0 + i
                    e = s + step * count
                    for acc, f_lane, g_lane in zip(sums, f_par, twisted[par]):
                        c = g_lane[i]
                        if c:
                            acc[s:e:step] = [x + c * y for x, y in
                                             zip(acc[s:e:step], f_lane)]
    if quad:
        # w^2 = omega_c + omega_t * w
        aa, bb, cc = sums
        wc, wt = dom.omega_c, dom.omega_t
        xs = [a + b * wc for a, b in zip(aa, bb)]
        ys = [c - a - b + b * wt for a, b, c in zip(aa, bb, cc)]
    else:
        xs = sums[0]
        ys = None
    # the window from the first to the last order with a nonzero part
    n = len(xs)
    first = 0
    while first < n and not (xs[first] or ys and ys[first]):
        first += 1
    if first == n:
        return TruncatedSeries.zero(dom, kt)
    last = n - 1
    while not (xs[last] or ys and ys[last]):
        last -= 1
    fzero = dom.fzero
    xs = xs[first:last + 1]
    if ys is None:
        coeffs = [FieldElem(dom, RingElem(dom, x, 0), den) if x else fzero
                  for x in xs]
    else:
        coeffs = [FieldElem(dom, RingElem(dom, x, y), den) if x or y
                  else fzero for x, y in zip(xs, ys[first:last + 1])]
    return TruncatedSeries(dom, lo + first, coeffs, kt)


class SeriesMatrix:
    """Fixed shape (1x1, 1x2, 2x1 or 2x2) matrix of truncated series."""

    __slots__ = ("dom", "rows")

    def __init__(self, dom: Domain, rows):
        rows = tuple(tuple(r) for r in rows)
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise SkewError("ragged matrix")
        for r in rows:
            for s in r:
                if s.dom is not dom:
                    raise SkewError("mixed domains")
        self.dom = dom
        self.rows = rows

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    @property
    def known_to(self):
        return _kt_min(*(s.known_to for r in self.rows for s in r))

    def __repr__(self):
        body = "; ".join(", ".join(repr(s) for s in r) for r in self.rows)
        return f"[{body}]"

    def __eq__(self, other):
        return isinstance(other, SeriesMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    @staticmethod
    def from_const(dom: Domain, entries, known_to=None) -> "SeriesMatrix":
        return SeriesMatrix(dom, [
            [TruncatedSeries.const(dom, e, known_to) for e in row]
            for row in entries
        ])

    @staticmethod
    def identity(dom: Domain, n: int = 2, known_to=None) -> "SeriesMatrix":
        return SeriesMatrix.from_const(
            dom, [[1 if i == j else 0 for j in range(n)] for i in range(n)],
            known_to)

    def coeff_matrix(self, i: int) -> list[list[FieldElem]]:
        return [[s.coeff(i) for s in r] for r in self.rows]

    def map(self, fn) -> "SeriesMatrix":
        return SeriesMatrix(self.dom, [[fn(s) for s in r] for r in self.rows])

    def __add__(self, other):
        if not isinstance(other, SeriesMatrix) or other.shape != self.shape:
            return NotImplemented
        return SeriesMatrix(self.dom, [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)
        ])

    def __neg__(self):
        return self.map(lambda s: -s)

    def __sub__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return self + (-other)

    def __matmul__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        r, k = self.shape
        k2, c = other.shape
        if k != k2:
            raise SkewError(f"shape mismatch {self.shape} @ {other.shape}")
        out = []
        for i in range(r):
            row = []
            for j in range(c):
                row.append(sum_products(self.dom, [
                    (self.rows[i][t], other.rows[t][j]) for t in range(k)]))
            out.append(row)
        return SeriesMatrix(self.dom, out)

    def shift(self, m: int) -> "SeriesMatrix":
        return self.map(lambda s: s.shift(m))

    @property
    def min_val(self) -> int:
        vals = [s.val for r in self.rows for s in r if s.coeffs]
        if not vals:
            raise SkewError("matrix has no known nonzero entry")
        return min(vals)

    def invert(self, prec: int | None = None) -> "SeriesMatrix":
        return matrix_invert(self, prec)


def disagreement(left: SeriesMatrix, right: SeriesMatrix):
    """(first_bad_order, verified_bound) of left - right, entrywise.

    first_bad_order is the lowest order at which a known coefficient
    differs (None when none does); verified_bound is the common exclusive
    order below which the agreeing entries are known to agree (None when
    they agree exactly). Callers compare it with their own claimed bound.
    Matrices of different shapes are refused (SkewError).

    Coefficients are compared in place, with no difference series built:
    a FieldElem is canonical (positive den, gcd 1), so equal values have
    equal parts.
    """
    if left.shape != right.shape:
        raise SkewError(f"cannot compare a {left.shape} matrix with a "
                        f"{right.shape} one")
    bad = None
    bound = None
    for ra, rb in zip(left.rows, right.rows):
        for a, b in zip(ra, rb):
            kt = _kt_min(a.known_to, b.known_to)
            order = _first_difference(a, b, kt)
            if order is not None:
                bad = order if bad is None else min(bad, order)
            elif kt is not None:
                bound = kt if bound is None else min(bound, kt)
    return bad, bound


def _first_difference(a: TruncatedSeries, b: TruncatedSeries, kt):
    """Lowest order below kt (None: no bound) at which a and b differ."""
    windows = [s.known_orders() for s in (a, b) if s.coeffs]
    if not windows:
        return None
    stop = max(w.stop for w in windows)
    if kt is not None:
        stop = min(stop, kt)
    for i in range(min(w.start for w in windows), stop):
        if a.coeff(i) != b.coeff(i):
            return i
    return None


def det2(m) -> FieldElem:
    """Determinant of a 2x2 matrix of field elements."""
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _const_inverse(m):
    """Inverse of a 1x1 or 2x2 matrix of field elements as (den, rows of
    (a, b) pairs) over one positive denominator; None if singular."""
    dom = m[0][0].dom
    den, lanes = _lanes([c for r in m for c in r], dom.is_quad)
    flat = list(zip(*lanes)) if dom.is_quad else [(x, 0) for x in lanes[0]]
    if len(m) == 1:  # a lowest coefficient, hence nonzero
        adj, det = [[(1, 0)]], flat[0]
    else:
        (p, q), (r, s) = flat[:2], flat[2:]
        det = tuple(x - y for x, y in zip(pair_mul(dom, p, s),
                                          pair_mul(dom, q, r)))
        if det == (0, 0):
            return None
        adj = [[s, (-q[0], -q[1])], [(-r[0], -r[1]), p]]
    # 1/det = u/norm: u is the conjugate over Q(w), 1 over Z
    if dom.is_quad:
        u = (det[0] + det[1] * dom.omega_t, -det[1])
        norm = pair_mul(dom, det, u)[0]
    else:
        u, norm = (1, 0), det[0]
    if norm < 0:
        u, norm = (-u[0], -u[1]), -norm
    u = (u[0] * den, u[1] * den)
    return norm, [[pair_mul(dom, e, u) for e in r] for r in adj]


def _pair_matmul(dom: Domain, m, n):
    """m @ n for matrices of integer pairs (a, b) = a + b*w, with the
    w^2 rule of pair_mul written out in the inner sum."""
    wc, wt = dom.omega_c, dom.omega_t
    out = []
    for row in m:
        out_row = []
        for col in zip(*n):
            x = y = 0
            for (a, b), (c, d) in zip(row, col):
                bd = b * d
                x += a * c + bd * wc
                y += a * d + b * c + bd * wt
            out_row.append((x, y))
        out.append(out_row)
    return out


def matrix_invert(a: SeriesMatrix, prec: int | None = None) -> SeriesMatrix:
    """Two-sided inverse of a 1x1 or 2x2 series matrix: right_divide of
    the identity by a, known through min(known_to(a) - 2v, prec) for the
    least valuation v of an entry (an exact a needs an explicit prec).

    A singular lowest coefficient matrix raises SingularError, also for
    a 2x2 matrix that is invertible over the series ring, such as
    [[2 + x, 4 + 3x], [1, 2]] over Z (determinant -x).
    """
    return right_divide(SeriesMatrix.identity(a.dom, len(a.rows)), a, prec)


def right_divide(b: SeriesMatrix, a: SeriesMatrix,
                 prec: int | None = None) -> SeriesMatrix:
    """b * a^-1 for an exact b and a 1x1 or 2x2 matrix a, solved in one
    relaxed pass from X * a = b, with no inverse of a formed.

    Let v be the least valuation of an entry of a. The lowest coefficient
    matrix a_v must be invertible over the field. With o the least
    valuation of an entry of b, minus v, X = sum_t X_t x^(o+t) and order
    o + v + t of X * a = b gives

        X_t = (b_(o+v+t) - S_t) sigma^(o+t)(a_v^-1),
        S_t = sum_(j=1..t) X_(t-j) sigma^(o+t-j)(a_(v+j)).

    As sigma^(o+t) = sigma^(o+t-j) sigma^j, a_v^-1 folds into the known
    factor once, before the pass:

        X_t = b'_t - sum_(j=1..t) X_(t-j) sigma^(o+t-j)(K_j),
        K_j = a_(v+j) sigma^j(a_v^-1),  b'_t = b_(o+v+t) sigma^(o+t)(a_v^-1),

    with K_j and b'_t formed on integer pairs, not as elements.
    relaxed_product runs the recursion with the unknown on the left and
    L_j = -K_j up to the highest stored order of a (the orders past it
    are zero), so an order costs O(d) terms for a of degree d, whatever
    prec, and X_t is b'_t plus the sum it hands over: no product by
    a_v^-1 is left to any order.

    Row i of X is known through min(known_to(a) - 2v, prec) plus the
    least valuation in row i of b: what the min rule gives the product b
    @ matrix_invert(a, prec), as an exact b bounds nothing. A row of X
    reads only the same row of b and of the earlier X_t, so past its
    bound a row is left zero; every stored coefficient is normalised
    once. A singular a_v raises SingularError.
    """
    r, c = a.shape
    if r != c:
        raise SkewError("only square matrices invert")
    if r > 2:
        raise SkewError("only 1x1 and 2x2 supported")
    if b.shape[1] != r:
        raise SkewError(f"shape mismatch {b.shape} / {a.shape}")
    if b.known_to is not None:
        raise SkewError("only an exact matrix is divided")
    dom = a.dom
    v = a.min_val
    inv_a0 = _const_inverse(a.coeff_matrix(v))
    if inv_a0 is None:
        raise SingularError(
            f"the lowest coefficient matrix (order {v}) is singular; only "
            "matrices whose lowest coefficient matrix is invertible are "
            "inverted")
    out_kt = _kt_min(_kt_add(a.known_to, -2 * v), prec)
    if out_kt is None:
        raise PrecisionError(
            "inverting an exact series needs an explicit prec")
    # per row of b: its least valuation (None for a zero row, which
    # stays exactly zero) and the orders of X that row needs
    lows = [min((s.val for s in row if s.coeffs), default=None)
            for row in b.rows]
    o = min((low for low in lows if low is not None), default=0) - v
    counts = [0 if low is None else max(out_kt + low - o, 0) for low in lows]
    nterms = max(counts)
    # a row of X needs a_(v+j) for j < out_kt + v past its own start
    # (earlier orders of the row are zero), and a_(v+j) = 0 past the
    # highest stored order, which lies below known_to
    top = max(s.val + len(s.coeffs) - 1 for r in a.rows for s in r if s.coeffs)
    depth = min(out_kt + v - 1, top - v)
    i_den, inv = inv_a0
    # sigma^e(a_v^-1) by the parity of e, as pairs over i_den
    invs = [inv]
    if dom.conj_sigma:
        invs.append([[(x + y * dom.omega_t, -y) for x, y in row]
                     for row in inv])
    # -K_j = -a_(v+j) sigma^j(a_v^-1), j = 1..depth, as integer pairs
    # over a_den * i_den, with a_(v+1), ..., a_(v+depth) read over a_den
    a_den, lanes = _lanes([e for j in range(v + 1, v + depth + 1)
                           for row in a.coeff_matrix(j) for e in row], True)
    flat = [(-x, -y) for x, y in zip(*lanes)]
    rows = [flat[i:i + r] for i in range(0, len(flat), r)]
    known = [_pair_matmul(dom, rows[(j - 1) * r:j * r], invs[j % len(invs)])
             for j in range(1, depth + 1)]
    # b'_t[p]: row p of b'_t where b_(o+v+t) is nonzero in that row and
    # read, as (den, pairs)
    b_at = {}
    for p, row in enumerate(b.rows):
        for q, f in enumerate(row):
            for j, e in enumerate(f.coeffs):
                t = f.val + j - o - v
                if e and t < counts[p]:
                    b_at.setdefault((t, p), [dom.fzero] * r)[q] = e
    for (t, p), coeffs in b_at.items():
        den, lanes = _lanes(coeffs, True)
        b_at[t, p] = den * i_den, _pair_matmul(dom, [list(zip(*lanes))],
                                               invs[(o + t) % len(invs)])[0]
    fzero = dom.fzero
    zeros = [fzero] * r
    no_sum = [(0, 0)] * r

    def step(t, den, s):
        xt = []
        for p, count in enumerate(counts):
            if t >= count:
                xt.append(zeros)
                continue
            # b'_t - sum_j X_(t-j) sigma^(o+t-j)(K_j), row p, over d
            d, row = (den, s[p]) if s else (1, no_sum)
            if (t, p) in b_at:
                b_den, b_row = b_at[t, p]
                g = lcm(d, b_den)
                f, fb = g // d, g // b_den
                d, row = g, [(x * f + bx * fb, y * f + by * fb)
                             for (x, y), (bx, by) in zip(row, b_row)]
            xt.append([FieldElem(dom, RingElem(dom, x, y), d) if x or y
                       else fzero for x, y in row])
        return xt

    xs = relaxed_product(dom, known, o, nterms, step, left=True,
                         den=a_den * i_den)
    return SeriesMatrix(dom, [
        [TruncatedSeries(dom, o, [x[p][q] for x in xs[:count]],
                         None if low is None else out_kt + low)
         for q in range(r)]
        for p, (count, low) in enumerate(zip(counts, lows))])


def relaxed_product(dom: Domain, known, offset: int, nterms: int, step,
                    left: bool = False, den: int = 1):
    """[R_0, ..., R_(nterms-1)], each R_t the matrix of FieldElems that
    step returns once order t of L * R (or of R * L, when left) is known.

    known holds the coefficient matrices L_1, L_2, ... as integer pairs
    (a, b), entry (a + b*w) / den for one positive den (b = 0 over Z),
    and L_j = 0 past its end; offset is the order of the left factor's
    first coefficient (L_0, or R_0 when left). Order t calls step(t,
    den_t, s), where s holds

        S_t = sum_(j=1..t) L_j sigma^(offset+j)(R_(t-j))       (L * R)
        S_t = sum_(j=1..t) R_(t-j) sigma^(offset+t-j)(L_j)     (R * L)

    as rows of integer pairs, entry (a + b*w) / den_t. s is None when no
    term enters: at t = 0, and at every t when each L_j is zero. A step
    keys its start on t == 0 and reads None at t > 0 as S_t = 0.

    Both sides run one loop: order t is the inner sum of K_j U_(t-j),
    j = 1..t, with the unknown U_i stored once, as it is found, and the
    known K_j once per parity of e = offset + t. As sigma^2 = 1,

        L * R: K_j = sigma^e(L_j),        U_i = sigma^i(R_i),
               S_t = sigma^e(inner), since
               L_j sigma^(offset+j)(R_(t-j))
                   = sigma^e(sigma^e(L_j) sigma^(t-j)(R_(t-j)));
        R * L: K_j = sigma^(e+j)(L_j)^T,  U_i = R_i^T,
               S_t = inner^T, as the entries commute.

    Trailing zero matrices of known are dropped first, so each order
    costs as much as L up to its last nonzero L_j, not as much as t.
    Row p of K_1, K_2, ... is kept as lanes, each matrix's entries last
    to first, and column q of U_0, U_1, ... as lanes in the order found,
    over the lcm of their denominators (rescaled when that lcm grows).
    Read backwards, the U lanes then meet the K lanes term by term: entry
    (p, q) of the inner sum is sum(map(mul, K, reversed(U))) over each
    Karatsuba lane a, b and a + b, which stops at the shorter side, so
    no lane is sliced or copied per order; w^2 = omega_c + omega_t * w
    is applied once. Each R_t enters the U lanes once, from the integer
    parts of its entries.
    """
    quad, wc, wt = dom.is_quad, dom.omega_c, dom.omega_t
    conj = dom.conj_sigma
    known = list(known)
    while known and not any(x or y for row in known[-1] for x, y in row):
        known.pop()   # L_j = 0 past the last nonzero L_j costs nothing
    depth = len(known)
    if left:
        known = [list(zip(*m)) for m in known]
    # ks[e][p]: the lanes of row p of K_1, K_2, ... for the parity e
    ks = []
    for e in range(dom.sigma_order if depth else 0):
        rows = []
        for p in range(len(known[0])):
            xs, ys = [], []
            for j, m in enumerate(known, 1):
                twist = conj and (e + j if left else e) % 2
                for x, y in reversed(m[p]):
                    if twist:
                        x, y = x + y * wt, -y
                    xs.append(x)
                    ys.append(y)
            rows.append(_with_sum([xs, ys] if quad else [xs]))
        ks.append(rows)

    def inner(k, u):
        aa = sum(map(mul_int, k[0], reversed(u[0])))
        if not quad:
            return aa, 0
        bb = sum(map(mul_int, k[1], reversed(u[1])))
        ab = sum(map(mul_int, k[2], reversed(u[2]))) - aa - bb
        return aa + bb * wc, ab + bb * wt

    us = []   # us[q]: the lanes of column q of U_0, U_1, ...
    r_den = 1
    out = []
    for t in range(nterms):
        s = None
        if depth and t:
            e = (offset + t) % len(ks)
            if left:
                s = [[inner(k, u) for k in ks[e]] for u in us]
            else:
                s = [[inner(k, u) for u in us] for k in ks[e]]
                if conj and e:
                    s = [[(x + y * wt, -y) for x, y in row] for row in s]
        rt = step(t, den * r_den, s)
        out.append(rt)
        if not depth or t + 1 == nterms:   # no later order reads R_t
            continue
        u_t = rt if left else list(zip(*rt))
        if not us:
            us = [[[] for _ in ks[0][0]] for _ in u_t]
        twist = conj and not left and t % 2
        for lanes, row in zip(us, u_t):
            for c in row:
                if r_den % c.den:   # rescale the lanes to the new lcm
                    f = lcm(r_den, c.den) // r_den
                    for side in us:
                        for lane in side:
                            lane[:] = [x * f for x in lane]
                    r_den *= f
                f = r_den // c.den
                num = c.num
                x = num.a * f
                if quad:
                    y = num.b * f
                    if twist:
                        x, y = x + y * wt, -y
                    lanes[1].append(y)
                    lanes[2].append(x + y)
                lanes[0].append(x)
    return out
