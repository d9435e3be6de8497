"""Unimodular row completion over the idealized matrix ring.

For a nonzero ideal J of D and I = J * R, rows live in [R, I^(-1)] and
columns in [R, I]; a row is unimodular when some column multiplies it to
1. This module turns such a row into an explicitly invertible matrix
over the idealized ring [[R, I^(-1)], [I, I*I^(-1)]], in certified steps:

  check_unimodular   normalizes the witness to a * t = x^n and proves it,
  reduce_row         peels one order by one determinant-1 change of
                     basis: a level-n row for a shape ideal A becomes
                     a level-(n-1) row for B = s*A + q*J*A^(-1),
  base_case_invert   solves the order-0 case with a determinant-1
                     constant matrix,
  lift_invertibility pushes invertibility data back up one level,
  complete_unimodular_row
                     runs the chain, converts the top-level data
                     into an invertible matrix with its two-sided
                     inverse, solved in one relaxed pass
                     (series.right_divide), and checks the conversion
                     once with verify_final_conversion.

Every intermediate coefficient is checked against its declared
fractional-ideal shape and reductions consume exactly one known order.
Each step carries a * t = x^n down one level exactly, so it checks only
the order-0 coefficient it consumes, and checks its level's data (b, T,
H) with _level_checks, the function verify_completion runs on the
certificate's top level; the row and witness lines repeat checks the
caller's ShapedRow and check_unimodular made. So the engine's final self-check is only
verify_final_conversion, whose identity products cross-check
series.right_divide.

The final inverse is the left solution X of X * S = T', where
final * T' = S follows from [row; b] * T = H: X = T' S^-1 is a right
inverse of final, and over the skew field of Laurent series a one-sided
inverse of a square matrix is two-sided (complete_unimodular_row).

What depends only on a level's pair (J, A) is computed once per pair:
shape_table hands every row, step and verifier of that pair one shared
ShapeTable (its shape ideals and the base case's matrix T0), and the
principal generators lambda and mu come from the memo of
ideals.principal_generator. Both memos hold immutable values and keep
the last ideals.MEMO_SIZE keys; every per-row check still runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partialmethod

from .domains import Domain, FieldElem, get_domain
from .errors import (
    BoundExceeded,
    MembershipError,
    NotUnimodular,
    PrecisionError,
    SigmaClassObstruction,
    SkewError,
)
from . import ideals
from .ideals import FracIdeal, unit_ideal
from .reporting import VerifyReport
from .series import (SeriesMatrix, TruncatedSeries, det2, disagreement,
                     right_divide, scale_column, scale_right)
from . import textio
from .textio import CompletionCertificate


class ShapeTable:
    """Coefficient shape ideals of the idealized matrix ring for (J, A).

    One rule gives every shape: entry (r, c) of a matrix at order i lies
    in left[r] * sigma^i(right[c]), with (left, right) per matrix in RULE:

        row       (1)            (A^-1, J^-1*A)
        b row     (J)            (A^-1, J^-1*A)
        T         (A, J*A^-1)    (1, J^-1)
        H         (1, J)         (1, J^-1)
        witness   (A, J*A^-1)    (1)

    sigma^i depends only on i mod 2, and one parity serves both when sigma
    is the identity. J and A are inverted once, each right-hand factor is
    twisted once per parity, and no product of the same two ideals is
    formed twice. The steps read ainv, j_ainv = J*A^-1, twist_ratio and
    the base case's matrix t0, formed on first use.

    Every value of a table, t0 included, is fixed by (J, A), so one
    table serves every caller: obtain it from shape_table, which builds
    one per (J, A).
    """

    RULE = {"row": (("1",), ("1/A", "A/J")),
            "b_row": (("J",), ("1/A", "A/J")),
            "t_mat": (("A", "J/A"), ("1", "1/J")),
            "h_mat": (("1", "J"), ("1", "1/J")),
            "witness_col": (("A", "J/A"), ("1",))}

    def __init__(self, dom: Domain, jf: FracIdeal, af: FracIdeal):
        self.dom, self.j_ideal, self.a_ideal = dom, jf, af
        jinv, self.ainv = jf.inverse(), af.inverse()
        one = unit_ideal(dom)
        products = {}

        def times(x, y):
            key = frozenset((x, y))
            if key not in products:
                products[key] = x.mul(y)
            return products[key]

        self.j_ainv, a_j = times(jf, self.ainv), times(jinv, af)
        named = {"1": one, "J": jf, "A": af, "1/J": jinv,
                 "1/A": self.ainv, "J/A": self.j_ainv, "A/J": a_j}
        # J * J^-1 = 1, J * J^-1*A = A and J*A^-1 * J^-1 = A^-1
        for x, y, xy in ((jf, jinv, one), (jf, a_j, af),
                         (self.j_ainv, jinv, self.ainv)):
            products[frozenset((x, y))] = xy
        self._at = []
        for p in range(dom.sigma_order):
            twisted = {r: named[r].sigma(p) for r in ("1/A", "A/J", "1/J")}
            twisted["1"] = one
            self._at.append({
                kind: tuple(tuple(times(named[l], twisted[r]) for r in right)
                            for l in left)
                for kind, (left, right) in self.RULE.items()})

    def shape(self, kind: str, i: int):
        return self._at[i % len(self._at)][kind]

    row = partialmethod(shape, "row")
    b_row = partialmethod(shape, "b_row")
    t_mat = partialmethod(shape, "t_mat")
    h_mat = partialmethod(shape, "h_mat")
    witness_col = partialmethod(shape, "witness_col")

    def twist_ratio(self, i: int) -> FracIdeal:
        """J * sigma^i(J^-1), the H shape at (1, 1)."""
        return self.h_mat(i)[1][1]

    @cached_property
    def t0(self) -> tuple:
        """The base case's constant matrix T0 = [[a', b], [-s*q, p]].

        s and b are the first HNF generators of J and A, a' completes s*b
        to a generating pair of A (verified search), and the Bezout
        identity a'*p + s*b*q = 1 is solved with p, q in A^(-1), so
        det(T0) = 1, checked here once per (J, A).
        """
        s_r = self.j_ideal.two_generators()[0]
        b_r = self.a_ideal.two_generators()[0]
        sb = s_r * b_r
        aprime = ideals.one_and_half_generator(self.a_ideal, sb).to_field()
        sb = sb.to_field()
        u_prime, v_prime = _bezout_two_fractional(
            self.dom, self.ainv.scale(aprime), self.ainv.scale(sb))
        t0 = ((aprime, b_r.to_field()),
              (-(s_r.to_field() * (v_prime / sb)), u_prime / aprime))
        if det2(t0) != self.dom.fone:
            raise SkewError("base-case matrix does not have determinant 1")
        return t0


@lru_cache(maxsize=ideals.MEMO_SIZE)
def shape_table(dom: Domain, jf: FracIdeal, af: FracIdeal) -> ShapeTable:
    """The one ShapeTable of (J, A), shared by every caller.

    Ideals are canonical, so equal pairs are one key; the table is built
    once while it stays among the last ideals.MEMO_SIZE pairs asked for.
    """
    return ShapeTable(dom, jf, af)


def _shape_violation(mat: SeriesMatrix, shape_of):
    """First (row, col, order) whose coefficient escapes its shape ideal.

    A shape depends only on the parity of the order, so each entry's
    ideal is looked up once per parity.
    """
    tables = (shape_of(0), shape_of(1))
    for r, row in enumerate(mat.rows):
        for c, series in enumerate(row):
            at = (tables[0][r][c], tables[1][r][c])
            for j, coef in enumerate(series.coeffs):
                order = series.val + j
                if coef and not at[order % 2].contains(coef):
                    return (r, c, order)
    return None


def _require_shape(mat: SeriesMatrix, shape_of, what: str):
    bad = _shape_violation(mat, shape_of)
    if bad is not None:
        r, c, order = bad
        raise MembershipError(
            mat.rows[r][c].coeff(order), shape_of(order)[r][c],
            f"{what} entry ({r},{c}) coefficient at order {order} "
            f"escapes its shape ideal")


def _add_shape_check(rep: VerifyReport, name: str, mat: SeriesMatrix,
                     shape_of) -> None:
    bad = _shape_violation(mat, shape_of)
    rep.add(name, bad is None, "" if bad is None else f"entry {bad[:2]}",
            None if bad is None else bad[2])


class ShapedRow:
    """Row in [sigma^i(A^-1), sigma^i(J^-1 A)] with valuation 0.

    Shape membership of every known coefficient is checked at
    construction, so a ShapedRow is valid by existence. shapes is the
    shared ShapeTable of (j_ideal, a_ideal).
    """

    __slots__ = ("dom", "row", "j_ideal", "a_ideal", "shapes")

    def __init__(self, row: SeriesMatrix, j_ideal: FracIdeal,
                 a_ideal: FracIdeal):
        if row.shape != (1, 2):
            raise SkewError("shaped row must be 1x2")
        if j_ideal.is_zero or a_ideal.is_zero:
            raise SkewError("shape ideals must be nonzero")
        vals = [s.val for s in row.rows[0] if s.coeffs]
        if not vals:
            raise SkewError("row has no known nonzero coefficient")
        if min(vals) != 0 or any(s.coeffs and s.val < 0 for s in row.rows[0]):
            raise SkewError("shaped row must have valuation exactly 0")
        self.dom = row.dom
        self.row = row
        self.j_ideal = j_ideal
        self.a_ideal = a_ideal
        self.shapes = shape_table(row.dom, j_ideal, a_ideal)
        _require_shape(row, self.shapes.row, "row")


@dataclass
class ReductionContext:
    """What the lift of one reduce_row step needs: the parent row, the
    step's basis P and cobasis C, the reduced shape ideal B and lambda."""

    parent: ShapedRow
    basis: SeriesMatrix
    cobasis: SeriesMatrix
    b_ideal: FracIdeal
    lam: FieldElem


@dataclass
class InvertibilityData:
    """Level-n invertibility witness (b, T, H) of a row."""

    n: int
    b: SeriesMatrix
    T: SeriesMatrix
    H: SeriesMatrix


def _stack(row: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    return SeriesMatrix(row.dom, [row.rows[0], b.rows[0]])


def _bezout_two_fractional(dom: Domain, w1: FracIdeal | None,
                           w2: FracIdeal | None):
    """(u', v') with u' in w1, v' in w2, u' + v' = 1; None is the zero ideal."""
    g1, g2 = (w.gens() if w is not None and not w.is_zero else ()
              for w in (w1, w2))
    coeffs = ideals.PreparedBasis([*g1, *g2]).express(dom.fone)
    c1, c2 = coeffs[:len(g1)], coeffs[len(g1):]
    return (sum((g * c.to_field() for g, c in zip(g1, c1)), dom.fzero),
            sum((g * c.to_field() for g, c in zip(g2, c2)), dom.fzero))


def _principal_or_obstruction(ideal: FracIdeal, what: str,
                              bound: int = ideals.PRINCIPAL_BOUND
                              ) -> FieldElem:
    """Generator of a principal fractional ideal, or SigmaClassObstruction."""
    if ideal.is_unit:
        return ideal.dom.fone
    try:
        gen = ideals.principal_generator(ideal, bound)
    except BoundExceeded as err:
        raise SigmaClassObstruction(
            ideal, f"{what}: principal search exhausted ({err})") from None
    if gen is None:
        raise SigmaClassObstruction(ideal, f"{what}: ideal is not principal")
    return gen


def _level_checks(shapes: ShapeTable, n: int, b: SeriesMatrix,
                  T: SeriesMatrix, prod: SeriesMatrix,
                  H: SeriesMatrix | None = None) -> VerifyReport:
    """The checks of level-n invertibility data (b, T, H) of a row of
    shapes' (J, A), with prod = [row; b] * T: the b, T and H shapes,
    [a; b] * T reproduces H, prod vanishes below order n and det(H_n)
    generates J * sigma^n(J^-1). A step passes no H, as its H is prod
    itself; a certificate's H is checked against prod.
    """
    rep = VerifyReport()
    _add_shape_check(rep, "b row shape membership", b, shapes.b_row)
    _add_shape_check(rep, "T shape membership", T, shapes.t_mat)
    _add_shape_check(rep, "H shape membership", prod if H is None else H,
                     shapes.h_mat)
    if H is not None:
        rep.agree("[a; b] * T reproduces H", prod, H)
    rep.add("product vanishes below order n",
            all(not s.coeffs or s.val >= n for row in prod.rows for s in row))
    try:
        det = det2(prod.coeff_matrix(n))
        rep.add("det(H_n) generates J * sigma^n(J^-1)",
                bool(det) and ideals.from_generators(shapes.dom, [det])
                == shapes.twist_ratio(n))
    except PrecisionError:
        rep.add("det(H_n) generates J * sigma^n(J^-1)", False,
                "order n not known")
    return rep


def check_unimodular(shaped: ShapedRow, t: SeriesMatrix
                     ) -> tuple[int, SeriesMatrix]:
    """Shift the witness to t' = t * x^n, n >= 0 least with no entry
    below order 0, and prove a * t' = x^n at every order both sides
    know: the engine's one proof, which each reduce_row step carries."""
    if t.shape != (2, 1):
        raise SkewError("witness must be a 2x1 column")
    _require_shape(t, shaped.shapes.witness_col, "witness")
    vals = [s.val for col in t.rows for s in col if s.coeffs]
    n = max(0, -min(vals)) if vals else 0
    t2 = t.shift(n)
    bad, _ = disagreement(shaped.row @ t2, SeriesMatrix(
        shaped.dom, [[TruncatedSeries.x_power(shaped.dom, n)]]))
    if bad is not None:
        raise NotUnimodular(f"row * witness differs from x^{n} at order {bad}")
    return n, t2


def reduce_row(shaped: ShapedRow, witness: SeriesMatrix,
               bound: int = ideals.PRINCIPAL_BOUND
               ) -> tuple[ShapedRow, SeriesMatrix, ReductionContext]:
    """One reduction step: level n with respect to A becomes level n-1
    with respect to B = s*A + q*J*A^(-1), consuming one known order.

    The step is one change of basis. P = [[s, q], [-v, u]] has rows a0,
    the row's order-0 coefficient, and abar0, with det P = s*u + q*v = 1;
    C = [[u, q], [v, -s]] gives P*C = diag(1, -1). Then (alpha, abar) =
    row*C and (tbar, -tlow) = P*witness. Returns the reduced row, its
    witness and the context (parent, P, C, B, lambda) the matching lift
    needs. As C*diag(1, -1)*P = 1, alpha*tbar + abar*tlow = row * witness
    = x^n, so the reduced pair's product is exactly x^(n-1). The step
    checks only the order it consumes: the witness starts at order 0 or
    later and a0 * t0 = 0, so the reduced witness does too.
    """
    dom = shaped.dom
    shapes = shaped.shapes
    s_e, q_e = shaped.row.coeff_matrix(0)[0]
    (t1,), (t2,) = witness.rows
    if min(t1.val, t2.val) < 0 or s_e * t1.coeff(0) + q_e * t2.coeff(0):
        raise SkewError("reduce_row needs level n >= 1")
    af = shaped.a_ideal
    b_ideal = ideals.zero_ideal(dom)
    if s_e:
        b_ideal = b_ideal.add(af.scale(s_e))
    if q_e:
        b_ideal = b_ideal.add(shapes.j_ainv.scale(q_e))
    if not b_ideal.is_integral or b_ideal.is_zero:
        raise SkewError("reduction ideal B is not a nonzero integral ideal")
    # the reduced row's table: B^-1, J*B^-1 and sigma(J^-1*B) come from it
    b_shapes = shape_table(dom, shaped.j_ideal, b_ideal)
    w1 = af.mul(b_shapes.ainv).scale(s_e) if s_e else None
    w2 = shapes.j_ainv.mul(b_shapes.ainv).scale(q_e) if q_e else None
    u_prime, v_prime = _bezout_two_fractional(dom, w1, w2)
    u = u_prime / s_e if s_e else dom.fzero
    v = v_prime / q_e if q_e else dom.fzero
    basis = SeriesMatrix.from_const(dom, [[s_e, q_e], [-v, u]])
    if det2(basis.coeff_matrix(0)) != dom.fone:
        raise SkewError("Bezout step failed")
    lam_ideal = b_shapes.j_ainv.mul(b_shapes.row(1)[0][1])
    lam = _principal_or_obstruction(lam_ideal, "reduction scaling constant",
                                    bound)
    cobasis = SeriesMatrix.from_const(dom, [[u, q_e], [v, -s_e]])
    alpha, abar = (shaped.row @ cobasis).rows[0]
    ent2 = scale_right(abar.shift(-1), lam.inverse())
    (tbar,), (neg_tlow,) = (basis @ witness).rows
    wit_new = SeriesMatrix(dom, [[tbar.shift(-1)], [(-neg_tlow).map_coeffs(
        lambda c: lam * dom.sigma_pow(c, 1))]])
    reduced = ShapedRow(SeriesMatrix(dom, [[alpha, ent2]]), shaped.j_ideal,
                        b_ideal)
    _require_shape(wit_new, reduced.shapes.witness_col, "reduced witness")
    return reduced, wit_new, ReductionContext(shaped, basis, cobasis,
                                              b_ideal, lam)


def base_case_invert(shaped: ShapedRow, witness: SeriesMatrix
                     ) -> InvertibilityData:
    """Level-0 invertibility: the constant matrix T0 of the row's (J, A)
    (ShapeTable.t0, of determinant 1) with b = (-t0[1], t0[0]). The chain
    carries row * witness = x^0; as det([a0; b0]) = a0 * t0, the check
    det(H_0) = 1 is exactly its order-0 coefficient a0 * t0 = 1.
    """
    dom = shaped.dom
    t0_col = (witness.rows[0][0].coeff(0), witness.rows[1][0].coeff(0))
    b_row = SeriesMatrix.from_const(dom, [[-t0_col[1], t0_col[0]]])
    t_series = SeriesMatrix.from_const(dom, shaped.shapes.t0)
    h_series = _stack(shaped.row, b_row) @ t_series
    if det2(h_series.coeff_matrix(0)) != dom.fone:
        raise NotUnimodular("base case needs a0 * t0 = 1")
    _level_checks(shaped.shapes, 0, b_row, t_series, h_series).require_ok()
    return InvertibilityData(0, b_row, t_series, h_series)


def lift_invertibility(child: InvertibilityData, ctx: ReductionContext,
                       bound: int = ideals.PRINCIPAL_BOUND
                       ) -> InvertibilityData:
    """Level-n invertibility of ctx.parent from the child's (b~, T~):
    b = (b~1, -lambda*b~2*x)*P and T = C*([T~1; twisted T~2*x^-1]*M)*x."""
    parent = ctx.parent
    dom = parent.dom
    lam = ctx.lam
    mu = _principal_or_obstruction(parent.shapes.twist_ratio(1),
                                   "lift scaling constant", bound)
    btil1, btil2 = child.b.rows[0]
    bbar = scale_right(btil2, lam).shift(1)
    b_row = SeriesMatrix(dom, [[btil1, -bbar]]) @ ctx.basis
    trow1, trow2 = child.T.rows
    lam_inv = lam.inverse()
    twisted = [s.map_coeffs(lambda c: dom.sigma_pow(c * lam_inv, 1)).shift(-1)
               for s in trow2]
    t_series = ctx.cobasis @ scale_column(SeriesMatrix(dom, [trow1, twisted]),
                                          mu).shift(1)
    h_series = _stack(parent.row, b_row) @ t_series
    n = child.n + 1
    h_n = h_series.coeff_matrix(n)
    child_h = child.H.coeff_matrix(n - 1)
    m_tw = [[dom.sigma_pow(e, n - 1) for e in row]
            for row in [[dom.fone, dom.fzero], [dom.fzero, mu]]]
    expected = [[sum((child_h[r][k] * m_tw[k][c] for k in range(2)),
                     dom.fzero) for c in range(2)] for r in range(2)]
    if h_n != expected:
        raise SkewError("lifted leading matrix mismatch")
    _level_checks(parent.shapes, n, b_row, t_series, h_series).require_ok()
    return InvertibilityData(n, b_row, t_series, h_series)


def complete_unimodular_row(shaped: ShapedRow, t: SeriesMatrix, prec: int,
                            bound: int = ideals.PRINCIPAL_BOUND
                            ) -> CompletionCertificate:
    """Full pipeline: n reductions, base case, n lifts, final conversion.

    The final conversion requires the top shape ideal to be the whole
    domain (rows over [R, I^(-1)]). With d = det(H_n),
    S = H x^-n diag(1, d^-1) and T' = T x^-n diag(1, d^-1), the lifted
    identity [row; b] * T = H gives final * T' = S, and S_0 has
    determinant 1. final_inv is the solution X of X * S = T', found
    order by order in one relaxed pass (series.right_divide) with no
    inverse of S formed: X = T' S^-1, so final * X = S S^-1 = 1. A
    one-sided inverse of a square matrix over the skew field of Laurent
    series is two-sided, so X is final's two-sided inverse. Row i of X
    is known through min(known_to(S), prec + n + 2) plus the least
    valuation in row i of T', as the min rule gives the product
    T' @ S^-1.

    That rule sets the precision needed. T starts at order 0, so H is
    known no further than the row, S = H x^-n through known_to(row) - n,
    and a row of T' whose least valuation is -n makes X, and with it the
    identity products that verify_completion checks through prec, known
    through known_to(row) - 2n. The row must therefore be known through
    order prec + 2n, and the witness through prec (each reduction reads
    one more order of it). Fewer known orders fail fast with
    PrecisionError carrying the exact deficit; prec below 1 (or above
    textio.MAX_ORDER) is refused with ValueError.

    The certificate is returned only after verify_final_conversion
    passes; a failed check raises SkewError naming the failed checks.
    The top step ran _level_checks, the very function verify_completion
    runs on the certificate's (b, T, H), so the engine's final
    self-check is only verify_final_conversion.
    """
    textio.certified_prec(prec, 1)
    dom = shaped.dom
    n, t2 = check_unimodular(shaped, t)
    # t2 = t x^n, so the witness through prec is t2 through prec + n
    deficit = max((need - known for known, need in (
        (shaped.row.known_to, prec + 2 * n), (t2.known_to, prec + n))
        if known is not None), default=0)
    if deficit > 0:
        raise PrecisionError(
            f"need the row known through order {prec + 2 * n} and the "
            f"witness through order {prec} (reduction depth {n}): "
            f"deficit {deficit}", deficit=deficit)
    chain = []   # the context of each reduced level
    cur_row, cur_wit = shaped, t2
    for _ in range(n):
        cur_row, cur_wit, ctx = reduce_row(cur_row, cur_wit, bound)
        chain.append(ctx)
    data = base_case_invert(cur_row, cur_wit)
    for ctx in reversed(chain):
        data = lift_invertibility(data, ctx, bound)
    if not shaped.a_ideal.is_unit:
        raise SkewError("final conversion needs the unit shape ideal")
    # S = H x^-n diag(1, det(H_n)^-1) has a determinant-1 lowest
    # coefficient matrix, and final * T' = S for T' = T x^-n diag(1,
    # det(H_n)^-1)
    det_inv = det2(data.H.coeff_matrix(n)).inverse()
    final = _stack(shaped.row, data.b)
    final_inv = right_divide(scale_column(data.T.shift(-n), det_inv),
                             scale_column(data.H.shift(-n), det_inv),
                             prec + n + 2)
    cert = CompletionCertificate(
        dom.spec, shaped.j_ideal, shaped.a_ideal, shaped.row, t2, n,
        data.b, data.T, data.H, final, final_inv, prec)
    verify_final_conversion(cert).require_ok()
    return cert


def verify_completion(cert: CompletionCertificate) -> VerifyReport:
    """Recompute every product, shape membership and determinant claim:
    the row and witness lines, the top level's _level_checks, then
    verify_final_conversion's four."""
    dom = get_domain(cert.domain)
    rep = VerifyReport()
    try:
        shaped = ShapedRow(cert.row, cert.ideal, cert.a_ideal)
        rep.add("row shape membership", True)
    except (SkewError, MembershipError) as err:
        rep.add("row shape membership", False, str(err))
        return rep
    _add_shape_check(rep, "witness shape membership", cert.witness,
                     shaped.shapes.witness_col)
    rep.agree("row * witness = x^n", cert.row @ cert.witness, SeriesMatrix(
        dom, [[TruncatedSeries.x_power(dom, cert.n)]]), cert.n + 1)
    rep.checks += _level_checks(shaped.shapes, cert.n, cert.b, cert.T,
                                _stack(cert.row, cert.b) @ cert.T,
                                cert.H).checks
    rep.checks += verify_final_conversion(cert).checks
    return rep


def verify_final_conversion(cert: CompletionCertificate) -> VerifyReport:
    """The last four checks of verify_completion: final stacks the row
    over b, final_inv has the H shape, and both products of final and
    final_inv are the identity below order prec.

    J and A must be nonzero, as in any certificate whose row passes its
    shape check; complete_unimodular_row runs only these checks.
    """
    dom = get_domain(cert.domain)
    rep = VerifyReport()
    rep.add("final matrix stacks the row over b",
            cert.final.rows[0] == cert.row.rows[0]
            and cert.final.rows[1] == cert.b.rows[0])
    _add_shape_check(rep, "final inverse shape membership", cert.final_inv,
                     shape_table(dom, cert.ideal, cert.a_ideal).h_mat)
    ident = SeriesMatrix.identity(dom)
    rep.agree("final * final_inv = Id", cert.final @ cert.final_inv, ident,
              cert.prec)
    rep.agree("final_inv * final = Id", cert.final_inv @ cert.final, ident,
              cert.prec)
    return rep

