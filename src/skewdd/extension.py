"""Certified isomorphism between a right ideal and an extended ideal.

Given generators of a right ideal I of the skew Laurent series ring,
this module computes the constant ideal J (the ideal of lowest
coefficients), normalizes the generators to a two-element row g with
lowest coefficients generating J, and then builds a certificate
(A, q) satisfying

    q * g0 = g * A     coefficientwise through the certified order,

where g0 is the row of lowest coefficients, A is an integral 2x2 series
matrix with A_0 = Id, and q is a unit-lowest-term series over the
fraction field. Multiplication by q then carries the extended ideal
(g0 entries) * R onto I, which is what the certificate witnesses.
extend builds (A, q) one order at a time on series.relaxed_product,
the recursion that also runs series division and inversion. At order n
the obstruction s_n is written in J * sigma^n(J), which the four
products a_j sigma^n(a_k) of the lowest coefficients span. Both
supported automorphisms square to the identity, so that spanning set
depends only on n mod 2: extend echelons it once per parity
(ideals.PreparedBasis) and solves every order against it, on integer
pairs.

The repair loop starts J at the ideal of lowest coefficients. When J is
too small, the inductive step fails a membership test at some order n
and reports the strictly larger J + s_n * sigma^n(J)^(-1), still inside
the constant ideal (ConstIdealUnderestimate); the lattice index drops
each round, so at most log2(index) repairs happen. Each round
normalize_generators rebuilds the row g from the first window of right
combinations, at orders 0, 1, ..., whose coefficient ideal holds J;
that ideal only grows with the order. Each window order is tested
against one ideals.PreparedBasis of its leading coefficients. One
window serves every round of an extend_with_repair call and grows in
place, and each round resumes the search at the order where the last
one stopped. That loses nothing: J only grows, and a window whose
ideal holds the enlarged J' also holds J, so no order below t, the
first that realized J, realizes J'. The search stops at a proven
order, not at a guess: if g came from window t, the enlarged J is
realized by window n + 2t. For
r = g * (A mod x^n) and tau in J^(-1), the element
z = r_1 (a_2 tau) - r_2 (a_1 tau) has integral multipliers, vanishes
below n and has order-n coefficient s_n * sigma^n(tau). g's multipliers
on the generators span x^-t..x^t and those of A mod x^n span
x^0..x^(n-1), so z * x^t lies in window n + 2t with its leading
coefficient at order n + t, and window t <= n + 2t already realized J.
"""

from __future__ import annotations

from .domains import Domain, FieldElem, RingElem, get_domain, pair_mul
from .errors import (
    ConstIdealUnderestimate,
    MembershipError,
    PrecisionError,
    SkewError,
)
from .ideals import (FracIdeal, PreparedBasis, combine_transform, echelon,
                     from_ring_generators)
from .reporting import VerifyReport
from .series import (SeriesMatrix, TruncatedSeries, relaxed_product,
                     scale_right, sum_products)
from .textio import ExtensionCertificate, format_parts


def _normalized_ring_gens(gens: list[TruncatedSeries]) -> list[TruncatedSeries]:
    out = []
    for g in gens:
        if g.is_known_zero:
            if g.is_exact_zero:
                continue
            raise PrecisionError("generator has no known nonzero coefficient")
        if not g.ring:
            raise SkewError("ideal generators must have integral coefficients")
        out.append(g.shift(-g.valuation()))
    if not out:
        raise SkewError("need at least one nonzero generator")
    return out


class _OrderWindow:
    """Echelonized coefficient table of right combinations up to order top.

    Rows are the coefficient vectors (orders 0..top, untwisted coordinates)
    of gens[j] * c * x^s for every generator, every shift s <= top and
    c in {1, w}. Order m of that product is g_(m-s) * sigma^(m-s)(c), so
    the row for shift s is the row for shift 0 behind s zero blocks.
    Echelon rows with pivot in order block t are elements of the ideal
    vanishing below t; their leading coefficients at block t generate the
    order-t lower bound for the constant ideal. The window keeps the
    echelon's operation record, not a transform, and row_series replays
    it for just the row it reads.

    One window serves a whole repair loop: it grows in place, one order
    at a time, so each product g_i * sigma^i(c) is formed once. At its
    top order it holds leaders, (row index, order block, leading
    RingElem) per pivot row, one PreparedBasis of their elements, and
    rows, the leader rows already read. None of it depends on the ideal
    being searched for. top = -1 builds an empty window.
    """

    def __init__(self, dom: Domain, gens: list[TruncatedSeries], top: int):
        self.dom = dom
        self.gens = gens
        self.blocks = 2 if dom.is_quad else 1
        self.consts = [dom.one, dom.omega] if dom.is_quad else [dom.one]
        # the shift-0 vectors, per generator and c
        self.vectors = [[[] for _ in self.consts] for _ in gens]
        self.top = -1
        for _ in range(top + 1):
            self.grow()

    def grow(self):
        """Raise top by one: each shift-0 vector gains a block, the table
        is rebuilt and echeloned again from the same integers, and the
        new order's leaders are prepared once for every later solve."""
        self.top = top = self.top + 1
        dom, blocks = self.dom, self.blocks
        twists = [(e.a, e.b) for e in (dom.sigma_pow(c, top)
                                       for c in self.consts)]
        rows, seeds = [], []
        for j, (g, vecs) in enumerate(zip(self.gens, self.vectors)):
            gt = g.coeff(top).as_ring()
            for c, vec in zip(twists, vecs):
                a, b = pair_mul(dom, (gt.a, gt.b), c)
                vec.extend([b, a] if dom.is_quad else [a])
            for s in range(top + 1):
                for c, vec in zip(self.consts, vecs):
                    rows.append([0] * (blocks * s)
                                + vec[:blocks * (top + 1 - s)])
                    seeds.append((j, s, c))
        self.seeds = seeds
        self.ech, self.pivots, self.ops = echelon(rows)
        self.leaders = []
        for idx, col in enumerate(self.pivots):
            t = col // blocks
            row = self.ech[idx][t * blocks:(t + 1) * blocks]
            self.leaders.append((idx, t, RingElem(dom, *row[::-1])))
        self.basis = PreparedBasis([e for (_, _, e) in self.leaders])
        self.rows = {}

    def level_ideal(self, t: int) -> FracIdeal:
        """The ideal of the leading coefficients at orders 0..t <= top:
        the constant-ideal lower bound that window t realizes."""
        gens = [e for (_, blk, e) in self.leaders if blk <= t]
        return from_ring_generators(self.dom, gens)

    def row_series(self, idx: int) -> TruncatedSeries:
        """The ideal element sum_j gens[j] * r_j whose coefficients are
        echelon row idx, with the right factors r_j read off row idx of
        the echelon transform, replayed from the operation record."""
        unit = [0] * len(self.seeds)
        unit[idx] = 1
        items = [[] for _ in self.gens]
        for k, coef in enumerate(combine_transform(self.ops, unit)):
            if coef:
                j, s, c = self.seeds[k]
                items[j].append((s, c * coef))
        return sum_products(self.dom, [
            (g, TruncatedSeries.from_coeff_map(self.dom, its))
            for g, its in zip(self.gens, items)])


def normalize_generators(j_ideal: FracIdeal, window: _OrderWindow, top: int
                         ) -> tuple[SeriesMatrix, int]:
    """Row (f1, f2) of right combinations of window.gens with lowest
    coefficients two_generators(j_ideal), each at valuation 0, and the
    first window order t <= top whose level ideal holds both targets.

    The search resumes at window.top, growing the window one order at a
    time; the PreparedBasis of each order's leaders tests both targets
    and, at the order that holds them, gives their coefficients. Within
    one repair loop J only grows, so no order below the one that
    realized an earlier J realizes this one. MembershipError, naming the
    last window's level ideal, when no window through top realizes the
    targets, or the known orders run out first.
    """
    dom = window.dom
    targets = j_ideal.two_generators()
    # a generator known through order k - 1 allows windows 0..k - 1
    last = min([top, *(g.known_to - 1 for g in window.gens
                       if g.known_to is not None)])
    for t in range(max(window.top, 0), last + 1):
        if t > window.top:
            window.grow()
        try:
            coeffs = [window.basis.solve((a.a, a.b)) for a in targets]
            break
        except MembershipError:
            pass
    else:
        raise MembershipError(targets, window.level_ideal(window.top),
                              "targets not realizable within precision"
                              if last < top else
                              f"targets not realizable by window order {top}")
    # each leader row read is replayed and multiplied out once per window
    rows = window.rows
    for k, (idx, blk, _) in enumerate(window.leaders):
        if idx not in rows and any(any(us[k]) for us in coeffs):
            rows[idx] = window.row_series(idx).shift(-blk)
    entries = []
    for target, us in zip(targets, coeffs):
        acc = sum_products(dom, [
            (rows[idx], TruncatedSeries.const(dom, RingElem(dom, *u)))
            for (idx, _, _), u in zip(window.leaders, us) if any(u)])
        if acc.is_known_zero or acc.valuation() != 0 or acc.lowest() != target.to_field():
            raise SkewError("normalized generator lost its lowest coefficient")
        entries.append(acc)
    return SeriesMatrix(dom, [entries]), t


def extend(j_ideal: FracIdeal, g: SeriesMatrix, prec: int
           ) -> ExtensionCertificate:
    """Inductive construction of the certificate (A, q) for given J and g.

    Order n of g * A is srow_n + g_0 A_n, where relaxed_product, given
    the g_i as integer pairs, hands srow_n = sum_(i=1..n) g_i
    sigma^i(A_(n-i)) as integer pairs (g and A are integral, so over
    denominator 1). The obstruction
    s_n = srow_n,1 sigma^n(a2) - srow_n,2 sigma^n(a1) is written inside
    J * sigma^n(J) to produce A_n, and q_n is read off (with both row
    components cross checked). A failed membership aborts with
    ConstIdealUnderestimate carrying the strictly larger lower bound
    J + s_n * sigma^n(J)^(-1).

    J * sigma^n(J) is spanned by the four products a_j sigma^n(a_k), and
    sigma^n = sigma^(n mod sigma_order) since sigma squares to the
    identity, so the basis s_n is solved in depends only on the parity
    of n. Each parity's basis is echeloned once, when an order of that
    parity first has s_n != 0, and lives for this call only; the order
    loop itself runs on integer pairs, and an order with s_n = 0 solves
    nothing.
    """
    dom = g.dom
    if g.shape != (1, 2):
        raise SkewError("generator row must be 1x2")
    f1, f2 = g.rows[0]
    for f in (f1, f2):
        if f.is_known_zero or f.valuation() != 0:
            raise SkewError("generator row entries must have valuation 0")
        if not f.ring:
            raise SkewError("generator row must be integral")
    kt = g.known_to
    if kt is not None and kt < prec + 1:
        raise PrecisionError(
            f"need coefficients through order {prec}", deficit=prec + 1 - kt)
    a1 = f1.coeff(0).as_ring()
    a2 = f2.coeff(0).as_ring()
    if from_ring_generators(dom, [a1, a2]) != j_ideal:
        raise SkewError("lowest coefficients do not generate the given ideal")

    g0 = [(a1.a, a1.b), (a2.a, a2.b)]
    # per parity p: sigma^p(a1) and sigma^p(a2) as pairs, and
    # sigma^p(a1)^(-1) as (pair, positive denominator)
    sig, inv = [], []
    for p in range(dom.sigma_order):
        s1, s2 = dom.sigma_pow(a1, p), dom.sigma_pow(a2, p)
        sig.append(((s1.a, s1.b), (s2.a, s2.b)))
        i1 = s1.to_field().inverse()
        inv.append(((i1.num.a, i1.num.b), i1.den))
    # per parity: the products a_j sigma^p(a_k), prepared on first use
    bases = [None] * dom.sigma_order

    q_coeffs: list[FieldElem] = [dom.fone]
    audit = []

    def step(n: int, den: int, s) -> list[list[FieldElem]]:
        if den != 1:
            raise SkewError("internal error: extend's partial sum srow_n "
                            f"has denominator {den}, not 1")
        if not n:
            return [[dom.fone, dom.fzero], [dom.fzero, dom.fone]]
        p = n % len(sig)
        sa1, sa2 = sig[p]
        # srow = sum_{i=1..n} g_i sigma^i(A_{n-i}), integral; None is 0
        r1, r2 = s[0] if s is not None else ((0, 0), (0, 0))
        (x1, y1), (x2, y2) = pair_mul(dom, r1, sa2), pair_mul(dom, r2, sa1)
        sn = (x1 - x2, y1 - y2)
        if sn[0] or sn[1]:
            basis = bases[p]
            if basis is None:
                basis = bases[p] = PreparedBasis(
                    [x * dom.sigma_pow(y, p) for x in (a1, a2)
                     for y in (a1, a2)])
            # the products are integral, so the basis scale is 1; c_jk
            # as pairs, (j, k) in row-major order
            try:
                cs = basis.solve(sn)
            except MembershipError:
                s_n = RingElem(dom, *sn)
                inv_sig_j = j_ideal.sigma(n).inverse()
                enlarged = j_ideal.add(inv_sig_j.scale(s_n.to_field()))
                if not enlarged.is_integral:
                    raise SkewError("enlarged constant ideal is not integral")
                raise ConstIdealUnderestimate(enlarged, n, s_n) from None
            c_text = [[format_parts(*e) for e in cs[:2]],
                      [format_parts(*e) for e in cs[2:]]]
            a_n = [[(-cs[1][0], -cs[1][1]), cs[0]],
                   [(-cs[3][0], -cs[3][1]), cs[2]]]
            # w = srow + g0 A_n, column by column
            w = []
            for r, e1, e2 in zip((r1, r2), *a_n):
                u1, v1 = pair_mul(dom, g0[0], e1)
                u2, v2 = pair_mul(dom, g0[1], e2)
                w.append((r[0] + u1 + u2, r[1] + v1 + v2))
            out = [[FieldElem(dom, RingElem(dom, *e)) for e in row]
                   for row in a_n]
        else:
            w = (r1, r2)
            c_text = [["0", "0"], ["0", "0"]]
            out = [[dom.fzero, dom.fzero], [dom.fzero, dom.fzero]]
        if pair_mul(dom, w[0], sa2) != pair_mul(dom, w[1], sa1):
            raise SkewError(f"induction invariant failed at order {n}")
        i1, i1_den = inv[p]
        q_n = FieldElem(dom, RingElem(dom, *pair_mul(dom, w[0], i1)), i1_den)
        # sigma^n(a2) != 0: a2 is the lowest coefficient of f2
        if pair_mul(dom, (q_n.num.a, q_n.num.b), sa2) \
                != (w[1][0] * q_n.den, w[1][1] * q_n.den):
            raise SkewError(f"q cross-check failed at order {n}")
        q_coeffs.append(q_n)
        audit.append({"n": n, "s_n": format_parts(*sn), "c": c_text})
        return out

    a_mats = relaxed_product(dom, [[[(c.num.a, c.num.b)
                                     for c in (f1.coeff(i), f2.coeff(i))]]
                                   for i in range(1, prec + 1)],
                             0, prec + 1, step)
    a_series = SeriesMatrix(dom, [
        [TruncatedSeries(dom, 0, [m[r][col] for m in a_mats], prec + 1)
         for col in range(2)] for r in range(2)])
    q = TruncatedSeries(dom, 0, q_coeffs, prec + 1)
    cert = ExtensionCertificate(dom.spec, j_ideal, (a1, a2), g, a_series, q,
                                prec, audit)
    verify_extension_certificate(cert).require_ok()
    return cert


def verify_extension_certificate(cert: ExtensionCertificate) -> VerifyReport:
    """Independent recomputation of every certificate invariant."""
    dom = get_domain(cert.domain)
    rep = VerifyReport()
    a1, a2 = cert.g0
    rep.add("lowest coefficients generate the ideal",
            from_ring_generators(dom, [a1, a2]) == cert.ideal)
    ok_low = True
    for f, a in zip(cert.g.rows[0], (a1, a2)):
        ok_low = ok_low and not f.is_known_zero and f.valuation() == 0 \
            and f.lowest() == a.to_field()
    rep.add("generator row has valuation 0 with lowest coefficients g0", ok_low)
    a0 = cert.A.coeff_matrix(0)
    rep.add("A starts at the identity matrix",
            a0[0][0] == dom.fone and a0[1][1] == dom.fone
            and not a0[0][1] and not a0[1][0])
    rep.add("A is integral",
            all(s.ring for row in cert.A.rows for s in row))
    rep.add("q has lowest coefficient 1 at order 0",
            not cert.q.is_known_zero and cert.q.valuation() == 0
            and cert.q.lowest() == dom.fone)
    lhs = [scale_right(cert.q, a.to_field()) for a in (a1, a2)]
    # the claim covers orders through prec
    rep.agree("defining identity q*g0 = g*A", SeriesMatrix(dom, [lhs]),
              cert.g @ cert.A, cert.prec + 1)
    # q maps the extended ideal into R, so q*g0 must be integral; its
    # higher coefficients are generally NOT in the ideal (only lowest ones)
    member_ok = True
    for left in lhs:
        for j, coef in enumerate(left.coeffs):
            if left.val + j > cert.prec:
                break
            if not coef.is_integral:
                member_ok = False
    rep.add("q*g0 has integral coefficients", member_ok)
    return rep


def extend_with_repair(gens: list[TruncatedSeries], prec: int):
    """Driver loop: start from the lowest-coefficient ideal and repair.

    Returns (certificate, repairs) where repairs counts the
    ConstIdealUnderestimate rounds taken. Window 0 realizes the lowest
    coefficients' ideal, and a repair at order n of a row read from
    window t is realized by window n + 2t (module docstring).
    """
    norm = _normalized_ring_gens(gens)
    dom = norm[0].dom
    j_ideal = from_ring_generators(dom, [g.lowest().as_ring() for g in norm])
    # one order window for every round: J only grows from round to round
    window = _OrderWindow(dom, norm, -1)
    # two generators are already a row whose lowest coefficients generate J
    if len(norm) == 2:
        row, t = SeriesMatrix(dom, [list(norm)]), 0
    else:
        row, t = normalize_generators(j_ideal, window, 0)
    repairs = 0
    while True:
        try:
            return extend(j_ideal, row, prec), repairs
        except ConstIdealUnderestimate as err:
            if err.enlarged == j_ideal:
                raise SkewError("repair loop failed to enlarge the ideal")
            j_ideal = err.enlarged
            repairs += 1
            row, t = normalize_generators(j_ideal, window, err.order + 2 * t)
