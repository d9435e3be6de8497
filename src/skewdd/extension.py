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

One order-window loop (`_levels`) serves both the constant-ideal
bound and the generator normalization: it rebuilds the window of right
combinations at orders 0, 1, ... and reads off the coefficient ideal at
each order. The constant-ideal computation is a verified lower bound: it
stops when that ideal is stable for STALL_DEPTH = 4 consecutive orders
(exact for polynomial generators whose cancellations resolve within the
window). When a candidate J is too small, the inductive step fails a
membership test and reports the strictly larger lower bound to restart
with (ConstIdealUnderestimate); drivers loop on that error, and the
lattice index drops each round, so at most log2(index) restarts happen.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import Domain, DomainSpec, FieldElem, RingElem
from .errors import (
    ConstIdealUnderestimate,
    MembershipError,
    PrecisionError,
    SkewError,
)
from . import ideals
from .ideals import IdealLattice, echelon, from_ring_generators
from .reporting import VerifyReport
from .series import SeriesMatrix, TruncatedSeries, disagreement, mul
from . import textio

STALL_DEPTH = 4


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
    """Echelonized coefficient table of right combinations up to order T.

    Rows are the coefficient vectors (orders 0..T, untwisted coordinates)
    of gens[j] * c * x^s for every generator, every shift s <= T and
    c in {1, w}. Echelon rows with pivot in order block t are elements of
    the ideal vanishing below t; their leading coefficients at block t
    generate the order-t lower bound for the constant ideal.
    """

    def __init__(self, dom: Domain, gens: list[TruncatedSeries], top: int):
        self.dom = dom
        self.gens = gens
        blocks = 2 if dom.is_quad else 1
        consts = [dom.one, dom.omega] if dom.is_quad else [dom.one]
        rows, seeds = [], []
        for j, g in enumerate(gens):
            for s in range(top + 1):
                for c in consts:
                    vec = []
                    for m in range(top + 1):
                        if m - s < 0:
                            coef = dom.fzero
                        else:
                            coef = g.coeff(m - s) * dom.sigma_pow(
                                c.to_field(), m - s)
                        ce = coef.as_ring()
                        vec.extend([ce.b, ce.a] if dom.is_quad else [ce.a])
                    rows.append(vec)
                    seeds.append((j, s, c))
        self.blocks = blocks
        self.seeds = seeds
        self.ech, self.pivots, self.transform = echelon(rows, want_transform=True)

    def leaders(self):
        """(row_index, order_block, leading RingElem) per pivot row."""
        out = []
        for idx, col in enumerate(self.pivots):
            t = col // self.blocks
            base = t * self.blocks
            if self.dom.is_quad:
                elem = RingElem(self.dom, self.ech[idx][base + 1],
                                self.ech[idx][base])
            else:
                elem = RingElem(self.dom, self.ech[idx][base])
            out.append((idx, t, elem))
        return out

    def level_ideal(self, t: int) -> IdealLattice:
        gens = [e for (_, blk, e) in self.leaders() if blk <= t]
        return from_ring_generators(self.dom, gens)

    def row_series(self, idx: int) -> TruncatedSeries:
        """The ideal element sum_j gens[j] * r_j whose coefficients are
        echelon row idx, with the right factors r_j read off the transform."""
        combos = [TruncatedSeries.zero(self.dom) for _ in self.gens]
        for k, coef in enumerate(self.transform[idx]):
            if not coef:
                continue
            j, s, c = self.seeds[k]
            term = TruncatedSeries(self.dom, s, [(c * coef).to_field()])
            combos[j] = combos[j] + term
        acc = TruncatedSeries.zero(self.dom)
        for g, r in zip(self.gens, combos):
            acc = acc + mul(g, r)
        return acc


def _max_window(gens: list[TruncatedSeries]) -> int | None:
    """Highest usable order window (None when all generators are exact)."""
    best = None
    for g in gens:
        if g.known_to is not None:
            avail = g.known_to - 1  # coefficients known at orders 0..known_to-1
            best = avail if best is None else min(best, avail)
    return best


def _levels(norm: list[TruncatedSeries]):
    """(window, level ideal) at orders t = 0, 1, ..., stopping after the
    highest usable order window when the generators are truncated."""
    limit = _max_window(norm)
    t = 0
    while limit is None or t <= limit:
        window = _OrderWindow(norm[0].dom, norm, t)
        yield window, window.level_ideal(t)
        t += 1


def constant_ideal_bounded(gens: list[TruncatedSeries]) -> IdealLattice:
    """Lower bound for the constant ideal of the right ideal sum(gens_j R).

    Stops when the order-by-order coefficient ideal is unchanged for
    STALL_DEPTH consecutive orders or hits the unit ideal; raises
    PrecisionError when the generators run out of known orders first.
    """
    norm = _normalized_ring_gens(gens)
    limit = _max_window(norm)
    if limit is not None and limit < STALL_DEPTH:
        raise PrecisionError(
            f"need at least {STALL_DEPTH} known orders per generator",
            deficit=STALL_DEPTH - limit)
    current, run = None, 0
    for _, level in _levels(norm):
        if level == current:
            run += 1
        else:
            current, run = level, 1
        if run >= STALL_DEPTH or current.is_unit_ideal:
            return current
    raise PrecisionError(
        "constant ideal did not stabilize within known orders",
        deficit=STALL_DEPTH - run)


def normalize_generators(j_ideal: IdealLattice, gens: list[TruncatedSeries],
                         ) -> SeriesMatrix:
    """Row (f1, f2) of right combinations with lowest coefficients
    two_generators(j_ideal), each at valuation 0.

    MembershipError when the combination table never realizes the target
    ideal (the supplied j_ideal overestimates the achievable constants):
    for exact generators once the level ideal has stalled for STALL_DEPTH
    orders, for truncated ones once the known orders run out.
    """
    norm = _normalized_ring_gens(gens)
    dom = norm[0].dom
    targets = j_ideal.two_generators()
    exact = _max_window(norm) is None
    level, stable = None, 0
    for window, lv in _levels(norm):
        if all(lv.contains(a) for a in targets):
            break
        stable = stable + 1 if lv == level else 0
        level = lv
        if exact and stable >= STALL_DEPTH:
            raise MembershipError(targets, lv,
                                  "targets not realizable from the generators")
    else:
        raise MembershipError(targets, level,
                              "targets not realizable within precision")
    leaders = window.leaders()
    leader_elems = [e.to_field() for (_, _, e) in leaders]
    entries = []
    for target in targets:
        coeffs = ideals.express_in_generators(target.to_field(), leader_elems)
        acc = TruncatedSeries.zero(dom)
        for (idx, blk, _), u in zip(leaders, coeffs):
            if u:
                acc = acc + window.row_series(idx).shift(-blk) * u.to_field()
        if acc.is_known_zero or acc.valuation() != 0 or acc.lowest() != target.to_field():
            raise SkewError("normalized generator lost its lowest coefficient")
        entries.append(acc)
    return SeriesMatrix(dom, [entries])


@dataclass
class ExtensionCertificate:
    """Witness data for I isomorphic to (constant ideal) * R."""

    spec: DomainSpec
    ideal: IdealLattice
    g0: tuple
    g: SeriesMatrix
    A: SeriesMatrix
    q: TruncatedSeries
    prec: int
    audit: list

    def to_json(self) -> dict:
        return {
            "schema": "extension-cert/v1",
            "domain": self.spec.to_json(),
            "ideal": self.ideal.to_json(),
            "g0": [textio.format_ring_elem(a) for a in self.g0],
            "g": [textio.series_to_json(s) for s in self.g.rows[0]],
            "A": textio.matrix_to_json(self.A),
            "q": textio.series_to_json(self.q),
            "prec": self.prec,
            "audit": self.audit,
        }

    @staticmethod
    def from_json(obj: dict) -> "ExtensionCertificate":
        from .domains import get_domain

        spec = DomainSpec.from_json(obj["domain"])
        dom = get_domain(spec)
        ideal = textio.ideal_lattice_from_json(dom, obj["ideal"])
        g0 = tuple(textio.parse_field_elem(dom, s).as_ring() for s in obj["g0"])
        g = SeriesMatrix(dom, [[textio.series_from_json(dom, s)
                                for s in obj["g"]]])
        a_mat = textio.matrix_from_json(dom, obj["A"])
        q = textio.series_from_json(dom, obj["q"])
        return ExtensionCertificate(spec, ideal, g0, g, a_mat, q,
                                    int(obj["prec"]), obj.get("audit", []))


def extend(j_ideal: IdealLattice, g: SeriesMatrix, prec: int
           ) -> ExtensionCertificate:
    """Inductive construction of the certificate (A, q) for given J and g.

    At each order n the obstruction s_n is written inside J * sigma^n(J)
    to produce A_n, and q_n is read off (with both row components cross
    checked). A failed membership aborts with ConstIdealUnderestimate
    carrying the strictly larger lower bound J + s_n * sigma^n(J)^(-1).
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
    j_frac = j_ideal.to_frac()

    def grow(i: int) -> list[RingElem]:
        return [f1.coeff(i).as_ring(), f2.coeff(i).as_ring()]

    a_mats: list[list[list[RingElem]]] = [
        [[dom.one, dom.zero], [dom.zero, dom.one]]
    ]
    q_coeffs: list[FieldElem] = [dom.fone]
    audit = []
    for n in range(1, prec + 1):
        sig_a1 = dom.sigma_pow_ring(a1, n)
        sig_a2 = dom.sigma_pow_ring(a2, n)
        # srow = sum_{i=1..n} g_i sigma^i(A_{n-i})
        srow = [dom.zero, dom.zero]
        for i in range(1, n + 1):
            gi = grow(i)
            am = a_mats[n - i]
            for col in range(2):
                srow[col] = srow[col] + (
                    gi[0] * dom.sigma_pow_ring(am[0][col], i)
                    + gi[1] * dom.sigma_pow_ring(am[1][col], i)
                )
        s_n = srow[0] * sig_a2 - srow[1] * sig_a1
        if s_n:
            try:
                c = ideals.express_in_product(
                    s_n.to_field(), (a1.to_field(), a2.to_field()),
                    (sig_a1.to_field(), sig_a2.to_field()))
            except MembershipError:
                inv_sig_j = j_ideal.sigma(n).to_frac().inverse()
                enlarged = j_frac.add(inv_sig_j.scale(s_n.to_field()))
                if not enlarged.is_integral:
                    raise SkewError("enlarged constant ideal is not integral")
                raise ConstIdealUnderestimate(enlarged.lat, n, s_n) from None
            a_n = [[-c[0][1], c[0][0]], [-c[1][1], c[1][0]]]
        else:
            c = [[dom.zero, dom.zero], [dom.zero, dom.zero]]
            a_n = [[dom.zero, dom.zero], [dom.zero, dom.zero]]
        a_mats.append(a_n)
        w = [
            srow[col] + a1 * a_n[0][col] + a2 * a_n[1][col]
            for col in range(2)
        ]
        if w[0] * sig_a2 != w[1] * sig_a1:
            raise SkewError(f"induction invariant failed at order {n}")
        q_n = w[0].to_field() / sig_a1.to_field()
        if sig_a2 and q_n * sig_a2.to_field() != w[1].to_field():
            raise SkewError(f"q cross-check failed at order {n}")
        q_coeffs.append(q_n)
        audit.append({
            "n": n,
            "s_n": textio.format_ring_elem(s_n),
            "c": [[textio.format_ring_elem(c[j][k]) for k in range(2)]
                  for j in range(2)],
        })
    a_entries = [[None, None], [None, None]]
    for r in range(2):
        for col in range(2):
            items = [(i, a_mats[i][r][col].to_field())
                     for i in range(prec + 1)]
            a_entries[r][col] = TruncatedSeries.from_coeff_map(
                dom, items, prec + 1)
    a_series = SeriesMatrix(dom, a_entries)
    q = TruncatedSeries.from_coeff_map(
        dom, [(i, q_coeffs[i]) for i in range(prec + 1)], prec + 1)
    cert = ExtensionCertificate(dom.spec, j_ideal, (a1, a2), g, a_series, q,
                                prec, audit)
    verify_extension_certificate(cert).require_ok()
    return cert


def verify_extension_certificate(cert: ExtensionCertificate) -> VerifyReport:
    """Independent recomputation of every certificate invariant."""
    from .domains import get_domain

    dom = get_domain(cert.spec)
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
    lhs = [mul(cert.q, TruncatedSeries.const(dom, a)) for a in (a1, a2)]
    first_bad, verified = disagreement(SeriesMatrix(dom, [lhs]),
                                       cert.g @ cert.A)
    # the claim covers orders through prec: a bound of prec + 1 is needed
    if first_bad is not None:
        rep.add("defining identity q*g0 = g*A", False,
                "first differing order", first_bad)
    elif verified is not None and verified < cert.prec + 1:
        rep.add("defining identity q*g0 = g*A", False,
                f"verified only below order {verified}, certificate claims {cert.prec}")
    else:
        rep.add("defining identity q*g0 = g*A", True)
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
    ConstIdealUnderestimate rounds taken.
    """
    norm = _normalized_ring_gens(gens)
    dom = norm[0].dom
    j_ideal = from_ring_generators(dom, [g.lowest().as_ring() for g in norm])
    repairs = 0
    while True:
        # each repair strictly enlarges J, so before the first one the
        # lowest coefficients of two generators already generate J
        if len(norm) == 2 and repairs == 0:
            row = SeriesMatrix(dom, [list(norm)])
        else:
            row = normalize_generators(j_ideal, norm)
        try:
            return extend(j_ideal, row, prec), repairs
        except ConstIdealUnderestimate as err:
            if err.enlarged == j_ideal:
                raise SkewError("repair loop failed to enlarge the ideal")
            j_ideal = err.enlarged
            repairs += 1
