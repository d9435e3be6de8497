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
"""

from __future__ import annotations

from .domains import Domain, FieldElem, RingElem
from .errors import PrecisionError, SingularError, SkewError


def _kt_min(*kts):
    vals = [k for k in kts if k is not None]
    return min(vals) if vals else None


def _kt_add(kt, shift: int):
    return None if kt is None else kt + shift


class TruncatedSeries:
    """Immutable truncated series; see the module docstring."""

    __slots__ = ("dom", "val", "coeffs", "known_to", "ring")

    def __init__(self, dom: Domain, val: int, coeffs, known_to=None,
                 ring: bool | None = None):
        coeffs = list(coeffs)
        # strip leading and trailing zero coefficients; implicit zeros are
        # recovered from val and known_to
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            val += 1
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if known_to is not None and coeffs and val + len(coeffs) > known_to:
            raise SkewError("coefficients extend past known_to")
        if not coeffs:
            val = known_to if known_to is not None else 0
        self.dom = dom
        self.val = val
        self.coeffs = tuple(coeffs)
        self.known_to = known_to
        if ring is None:
            ring = all(c.is_integral for c in coeffs)
        else:
            ring = ring and all(c.is_integral for c in coeffs)
        self.ring = ring

    # ---------------------------------------------------------- constructors
    @staticmethod
    def const(dom: Domain, c, known_to=None) -> "TruncatedSeries":
        if isinstance(c, RingElem):
            c = c.to_field()
        if isinstance(c, int):
            c = dom.felem(c)
        return TruncatedSeries(dom, 0, [c], known_to)

    @staticmethod
    def x_power(dom: Domain, m: int, known_to=None) -> "TruncatedSeries":
        return TruncatedSeries(dom, m, [dom.fone], known_to)

    @staticmethod
    def zero(dom: Domain, known_to=None) -> "TruncatedSeries":
        return TruncatedSeries(dom, 0, [], known_to)

    @staticmethod
    def from_coeff_map(dom: Domain, items, known_to=None) -> "TruncatedSeries":
        """Build from (order, coefficient) pairs."""
        items = [(i, c) for i, c in items if c]
        if not items:
            return TruncatedSeries.zero(dom, known_to)
        lo = min(i for i, _ in items)
        hi = max(i for i, _ in items)
        coeffs = [dom.fzero] * (hi - lo + 1)
        for i, c in items:
            if isinstance(c, RingElem):
                c = c.to_field()
            coeffs[i - lo] = coeffs[i - lo] + c
        return TruncatedSeries(dom, lo, coeffs, known_to)

    # -------------------------------------------------------------- queries
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
        """Right multiplication by x^m: coefficients unchanged, orders shift."""
        if not self.coeffs:
            return TruncatedSeries(self.dom, 0, [], _kt_add(self.known_to, m))
        return TruncatedSeries(self.dom, self.val + m, self.coeffs,
                               _kt_add(self.known_to, m))

    def twist_shift(self, m: int) -> "TruncatedSeries":
        """Left multiplication by x^m: sigma^m on coefficients, orders shift."""
        dom = self.dom
        coeffs = [dom.sigma_pow(c, m) for c in self.coeffs]
        if not coeffs:
            return TruncatedSeries(dom, 0, [], _kt_add(self.known_to, m))
        return TruncatedSeries(dom, self.val + m, coeffs,
                               _kt_add(self.known_to, m))

    def truncate(self, known_to: int) -> "TruncatedSeries":
        kt = _kt_min(self.known_to, known_to)
        coeffs = [c for j, c in enumerate(self.coeffs) if self.val + j < kt]
        return TruncatedSeries(self.dom, self.val, coeffs, kt)

    def map_coeffs(self, fn) -> "TruncatedSeries":
        """Apply fn to every stored coefficient, orders unchanged."""
        return TruncatedSeries(self.dom, self.val,
                               [fn(c) for c in self.coeffs], self.known_to)

    def left_normal_form(self) -> list[FieldElem]:
        """Coefficients b_i with f = sum x^i b_i, i.e. b_i = sigma^(-i)(a_i)."""
        return [self.dom.sigma_pow(c, self.val + j)
                for j, c in enumerate(self.coeffs)]

    def invert(self, prec: int | None = None, ring_mode: bool = False
               ) -> "TruncatedSeries":
        return invert_unit(self, prec, ring_mode)


def mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Twisted Cauchy product; precision follows the min rule."""
    dom = f.dom
    if f.is_exact_zero or g.is_exact_zero:
        return TruncatedSeries.zero(dom)
    kt = _kt_min(_kt_add(g.known_to, f.val), _kt_add(f.known_to, g.val))
    if not f.coeffs or not g.coeffs:
        return TruncatedSeries.zero(dom, kt)
    acc: dict[int, FieldElem] = {}
    for j, fc in enumerate(f.coeffs):
        i = f.val + j
        for k, gc in enumerate(g.coeffs):
            m = i + g.val + k
            if kt is not None and m >= kt:
                break
            term = fc * dom.sigma_pow(gc, i)
            prev = acc.get(m)
            acc[m] = term if prev is None else prev + term
    return TruncatedSeries.from_coeff_map(dom, acc.items(), kt)


def invert_unit(f: TruncatedSeries, prec: int | None = None,
                ring_mode: bool = False) -> TruncatedSeries:
    """Two-sided inverse of a series with invertible lowest coefficient.

    The output is known through known_to(f) - 2*val(f); for exact input
    the caller must say how many orders to produce via prec.
    """
    dom = f.dom
    if not f.coeffs:
        raise SkewError("cannot invert a series with no known nonzero part")
    v = f.val
    a0 = f.coeffs[0]
    if ring_mode:
        if not f.ring:
            raise SkewError("ring-mode inversion of a non-integral series")
        if not a0.as_ring().is_unit():
            raise SkewError(f"lowest coefficient {a0!r} is not a unit of the ring")
    intrinsic = _kt_add(f.known_to, -2 * v)
    out_kt = _kt_min(intrinsic, prec)
    if out_kt is None:
        raise PrecisionError("inverting an exact series needs an explicit prec")
    inv_a0 = a0.inverse()
    out: list[FieldElem] = []
    nterms = out_kt + v  # output orders -v .. out_kt - 1
    if nterms <= 0:
        return TruncatedSeries.zero(dom, out_kt)
    for t in range(nterms):
        acc = dom.fzero
        for j in range(1, len(f.coeffs)):
            if j > t:
                break
            fc = f.coeffs[j]
            if not fc:
                continue
            acc = acc + fc * dom.sigma_pow(out[t - j], v + j)
        delta = dom.fone if t == 0 else dom.fzero
        out.append(dom.sigma_pow((delta - acc) * inv_a0, v))
    return TruncatedSeries(dom, -v, out, out_kt)


class SeriesMatrix:
    """Fixed shape (1x2, 2x1 or 2x2) matrix of truncated series."""

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
                acc = TruncatedSeries.zero(self.dom)
                for t in range(k):
                    acc = acc + mul(self.rows[i][t], other.rows[t][j])
                row.append(acc)
            out.append(row)
        return SeriesMatrix(self.dom, out)

    def shift(self, m: int) -> "SeriesMatrix":
        return self.map(lambda s: s.shift(m))

    def twist_shift(self, m: int) -> "SeriesMatrix":
        return self.map(lambda s: s.twist_shift(m))

    def truncate(self, known_to: int) -> "SeriesMatrix":
        return self.map(lambda s: s.truncate(known_to))

    @property
    def min_val(self) -> int:
        vals = [s.val for r in self.rows for s in r if s.coeffs]
        if not vals:
            raise SkewError("matrix has no known nonzero entry")
        return min(vals)

    def invert(self, prec: int | None = None, ring_mode: bool = False
               ) -> "SeriesMatrix":
        return matrix_invert(self, prec, ring_mode)


def disagreement(left: SeriesMatrix, right: SeriesMatrix):
    """(first_bad_order, verified_bound) of left - right, entrywise.

    first_bad_order is the lowest order at which a known coefficient
    differs (None when none does); verified_bound is the common exclusive
    order below which the agreeing entries are known to agree (None when
    they agree exactly). Callers compare it with their own claimed bound.
    """
    bad = None
    bound = None
    for ra, rb in zip(left.rows, right.rows):
        for a, b in zip(ra, rb):
            diff = a - b
            if diff.coeffs:
                bad = diff.val if bad is None else min(bad, diff.val)
            elif diff.known_to is not None:
                bound = diff.known_to if bound is None \
                    else min(bound, diff.known_to)
    return bad, bound


def _const_inverse_2x2(m: list[list[FieldElem]]):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if not det:
        return None
    inv_det = det.inverse()
    return [
        [m[1][1] * inv_det, -m[0][1] * inv_det],
        [-m[1][0] * inv_det, m[0][0] * inv_det],
    ], det


def matrix_invert(a: SeriesMatrix, prec: int | None = None,
                  ring_mode: bool = False) -> SeriesMatrix:
    """Two-sided inverse of a series matrix.

    When the lowest coefficient matrix is invertible over the field the
    inverse is built by block coefficient recursion; otherwise a row
    elimination over the series division ring is used (the lowest matrix
    of a row-reduced form must then have invertible diagonal series).
    In ring mode the computed inverse must be integral coefficientwise.
    """
    r, c = a.shape
    if r != c:
        raise SkewError("only square matrices invert")
    if r == 1:
        return SeriesMatrix(a.dom, [[a.rows[0][0].invert(prec, ring_mode)]])
    if r != 2:
        raise SkewError("only 1x1 and 2x2 supported")
    dom = a.dom
    v = a.min_val
    a0 = a.coeff_matrix(v)
    inv_pair = _const_inverse_2x2(a0)
    if inv_pair is not None:
        inv_a0, det0 = inv_pair
        if ring_mode:
            if not all(e.is_integral for row in a0 for e in row) or \
                    not det0.is_integral or not det0.as_ring().is_unit():
                raise SingularError(
                    "lowest matrix determinant is not a unit of the ring")
        out = _invert_by_recursion(a, v, inv_a0, prec)
    else:
        # elimination loses orders to valuation drops; widen and retry
        slack = 4
        out = None
        for _ in range(4):
            out = _invert_by_elimination(a, None if prec is None else prec + slack)
            if prec is None or out.known_to is None or out.known_to >= prec:
                break
            slack *= 2
        if prec is not None and out.known_to is not None and out.known_to > prec:
            out = out.truncate(prec)
        if ring_mode:
            if not all(s.ring for row in out.rows for s in row):
                raise SingularError("matrix is not invertible over the ring")
    return out


def _invert_by_recursion(a: SeriesMatrix, v: int, inv_a0, prec):
    dom = a.dom
    intrinsic = _kt_add(a.known_to, -2 * v)
    out_kt = _kt_min(intrinsic, prec)
    if out_kt is None:
        raise PrecisionError("inverting an exact matrix needs an explicit prec")
    nterms = out_kt + v
    coeff_cache = {}

    def acoeff(i):
        if i not in coeff_cache:
            coeff_cache[i] = a.coeff_matrix(i)
        return coeff_cache[i]

    def msub(x, y):
        return [[xa - ya for xa, ya in zip(rx, ry)] for rx, ry in zip(x, y)]

    def mmul(x, y):
        return [[sum((x[i][t] * y[t][j] for t in range(2)), dom.fzero)
                 for j in range(2)] for i in range(2)]

    def msig(x, i):
        return [[dom.sigma_pow(e, i) for e in row] for row in x]

    zero2 = [[dom.fzero] * 2 for _ in range(2)]
    ident = [[dom.fone, dom.fzero], [dom.fzero, dom.fone]]
    bs: list = []
    hi = a.known_to
    max_a = (hi - 1) if hi is not None else v + nterms
    for t in range(max(nterms, 0)):
        acc = zero2
        for i in range(v + 1, min(v + t, max_a) + 1):
            ai = acoeff(i)
            bj = bs[t - (i - v)]
            acc = [[acc[p][q] + sum((ai[p][s] * dom.sigma_pow(bj[s][q], i)
                                     for s in range(2)), dom.fzero)
                    for q in range(2)] for p in range(2)]
        delta = ident if t == 0 else zero2
        rhs = msub(delta, acc)
        bs.append(msig(mmul(inv_a0, rhs), v))
    entries = [[None, None], [None, None]]
    for p in range(2):
        for q in range(2):
            items = [(-v + t, bs[t][p][q]) for t in range(len(bs))]
            entries[p][q] = TruncatedSeries.from_coeff_map(dom, items, out_kt)
    return SeriesMatrix(dom, entries)


def _invert_by_elimination(a: SeriesMatrix, prec):
    dom = a.dom
    rows = [list(a.rows[0]), list(a.rows[1])]
    eye = SeriesMatrix.identity(dom)
    e_rows = [list(eye.rows[0]), list(eye.rows[1])]

    def pick_pivot(col):
        cands = [i for i in (0, 1) if rows[i][col].coeffs]
        if not cands:
            raise SingularError("zero column")
        return min(cands, key=lambda i: rows[i][col].val)

    p = pick_pivot(0)
    if p != 0:
        rows[0], rows[1] = rows[1], rows[0]
        e_rows[0], e_rows[1] = e_rows[1], e_rows[0]
    if rows[1][0].coeffs:
        factor = mul(rows[1][0], rows[0][0].invert(prec))
        rows[1] = [rows[1][j] - mul(factor, rows[0][j]) for j in range(2)]
        e_rows[1] = [e_rows[1][j] - mul(factor, e_rows[0][j]) for j in range(2)]
    pser, rser, qser = rows[0][0], rows[0][1], rows[1][1]
    if not qser.coeffs:
        raise SingularError("matrix is singular to working precision")
    p_inv = pser.invert(prec)
    q_inv = qser.invert(prec)
    tri_inv = SeriesMatrix(dom, [
        [p_inv, -mul(mul(p_inv, rser), q_inv)],
        [TruncatedSeries.zero(dom), q_inv],
    ])
    return tri_inv @ SeriesMatrix(dom, e_rows)
