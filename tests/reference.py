"""Test-only references: the simple, slow form of each optimised routine.

Each function here computes what a routine of the package computes, the
way that routine did before it was optimised, or by the definition it
implements. Tests compare the two on generated inputs; nothing in the
package imports this module.

- reference_inverse: a matrix inverse by the coefficient recursion in
  per-term FieldElem arithmetic (series.matrix_invert).
- reference_right_divide: series.right_divide by the unfolded
  recurrence, with a_v^-1 applied at every order, in per-term FieldElem
  arithmetic.
- reference_sum_products: series.sum_products by one integer dot product
  per output order, parity and lane.
- reference_disagreement: series.disagreement through the difference
  series.
- reference_shape_violation: completion._shape_violation with one shape
  lookup per coefficient.
- reference_extend: extension.extend's order loop by per-term RingElem
  products.
- reference_echelon: ideals.echelon with its full transform.
- reference_parse_series: textio.parse_series by splitting the text into
  top-level terms first and matching each term twice.
- reference_invariant_factors: classgroup's invariant factors from the
  full composition table, by splitting off the cyclic subgroup of a
  largest order and recursing on the quotient table.
- reference_class_of: classgroup.class_of by one principal generator
  search per reduced form.
"""

import re
from math import lcm
from operator import mul

from skewdd import ideals
from skewdd.classgroup import (class_group, compose_forms,
                               enumerate_reduced_forms, ideal_of_form,
                               principal_form)
from skewdd.domains import FieldElem, RingElem
from skewdd.errors import ConstIdealUnderestimate, MembershipError, SkewError
from skewdd.series import (SeriesMatrix, TruncatedSeries, _kt_add, _kt_min,
                           _lanes, _with_sum, det2)
from skewdd.textio import _order, format_ring_elem, parse_field_elem


def _lowest_inverse(a):
    """The inverse of a's lowest coefficient matrix, by the adjugate."""
    m = a.coeff_matrix(a.min_val)
    if len(m) == 1:
        return [[m[0][0].inverse()]]
    inv_det = det2(m).inverse()
    return [[m[1][1] * inv_det, -m[0][1] * inv_det],
            [-m[1][0] * inv_det, m[0][0] * inv_det]]


def reference_inverse(a, prec):
    """The inverse by the coefficient recursion in per-term FieldElem
    arithmetic: one field product and one field sum per term."""
    dom = a.dom
    sig = dom.sigma_pow
    v = a.min_val
    inv_a0 = _lowest_inverse(a)
    out_kt = prec
    if a.known_to is not None:
        out_kt = a.known_to - 2 * v if prec is None \
            else min(prec, a.known_to - 2 * v)
    nterms = max(out_kt + v, 0)
    idx = range(len(inv_a0))
    depth = nterms - 1
    if a.known_to is not None:
        depth = min(depth, a.known_to - 1 - v)
    higher = [a.coeff_matrix(v + j) for j in range(1, depth + 1)]
    bs = []
    for t in range(nterms):
        rhs = [[dom.fone if t == 0 and p == q else dom.fzero for q in idx]
               for p in idx]
        for j in range(1, min(t, depth) + 1):
            aj, bj = higher[j - 1], bs[t - j]
            for s in idx:
                for q in idx:
                    e = sig(bj[s][q], v + j)
                    for p in idx:
                        rhs[p][q] = rhs[p][q] - aj[p][s] * e
        bs.append([[sig(sum((inv_a0[p][s] * rhs[s][q] for s in idx),
                            dom.fzero), v)
                    for q in idx] for p in idx])
    return [[TruncatedSeries(dom, -v, [b[p][q] for b in bs], out_kt)
             for q in idx] for p in idx]


def reference_right_divide(b, a, prec):
    """series.right_divide by the unfolded recurrence in per-term
    FieldElem arithmetic, row by row of the exact b:

        X_t = (b_(o+v+t) - sum_(j=1..t) X_(t-j) sigma^(o+t-j)(a_(v+j)))
              sigma^(o+t)(a_v^-1),

    X = sum_t X_t x^(o+t), v the least valuation in a and o + v the
    least in b. Row p of X is known through min(known_to(a) - 2v, prec)
    plus the least valuation in row p of b, and a zero row of b gives an
    exact zero row. A term with a zero entry of X is skipped, so no
    coefficient of a past that bound is read."""
    dom = a.dom
    sig = dom.sigma_pow
    v = a.min_val
    inv_a0 = _lowest_inverse(a)
    idx = range(len(inv_a0))
    out_kt = _kt_min(_kt_add(a.known_to, -2 * v), prec)
    lows = [min((s.val for s in row if s.coeffs), default=None)
            for row in b.rows]
    o = min((low for low in lows if low is not None), default=0) - v
    rows = []
    for row, low in zip(b.rows, lows):
        if low is None:
            rows.append([TruncatedSeries.zero(dom) for _ in idx])
            continue
        xs = []
        for t in range(max(out_kt + low - o, 0)):
            rhs = [row[q].coeff(o + v + t) for q in idx]
            for j in range(1, t + 1):
                for i, x in enumerate(xs[t - j]):
                    if x:
                        for q in idx:
                            rhs[q] = rhs[q] - x * sig(
                                a.rows[i][q].coeff(v + j), o + t - j)
            xs.append([sum((rhs[i] * sig(inv_a0[i][q], o + t) for i in idx),
                           dom.fzero) for q in idx])
        rows.append([TruncatedSeries(dom, o, [x[q] for x in xs], out_kt + low)
                     for q in idx])
    return SeriesMatrix(dom, rows)


def reference_sum_products(dom, pairs):
    """series.sum_products by the per-order method: the same lanes, common
    denominator and output build, with one integer dot product of f's
    lanes and g's reversed lanes per output order, parity and lane."""
    kt = None
    live = []
    for f, g in pairs:
        if f.is_exact_zero or g.is_exact_zero:
            continue
        kt = _kt_min(kt, _kt_add(g.known_to, f.val),
                     _kt_add(f.known_to, g.val))
        if f.coeffs and g.coeffs:
            live.append((f, g))
    if not live:
        return TruncatedSeries.zero(dom, kt)
    lo = min(f.val + g.val for f, g in live)
    hi = max(f.val + g.val + len(f.coeffs) + len(g.coeffs) - 1
             for f, g in live)
    if kt is not None:
        hi = min(hi, kt)
    quad = dom.is_quad
    step = 2 if dom.conj_sigma else 1
    factors = [(_lanes(f.coeffs, quad), _lanes(g.coeffs, quad))
               for f, g in live]
    den = 1
    for (fd, _), (gd, _) in factors:
        den = lcm(den, fd * gd)
    sums = [[0] * (hi - lo) for _ in range(3 if quad else 1)]
    for (f, g), ((fd, fl), (gd, gl)) in zip(live, factors):
        scale = den // (fd * gd)
        if scale != 1:
            fl = [[x * scale for x in lane] for lane in fl]
        fl = _with_sum(fl)
        plain = [lane[::-1] for lane in _with_sum(gl)]
        twisted = [plain, plain]
        if dom.conj_sigma:
            ga, gb = gl
            conj = [[u + v * dom.omega_t for u, v in zip(ga, gb)],
                    [-v for v in gb]]
            twisted[1] = [lane[::-1] for lane in _with_sum(conj)]
        nf, ng = len(f.coeffs), len(g.coeffs)
        base = f.val + g.val
        for m in range(base, min(hi, base + nf + ng - 1)):
            s = m - base
            j0 = max(0, s - ng + 1)
            j1 = min(s, nf - 1) + 1
            for js in range(j0, min(j0 + step, j1)):
                kr = ng - 1 - s + js
                for acc, x, y in zip(sums, fl, twisted[(f.val + js) % 2]):
                    acc[m - lo] += sum(map(mul, x[js:j1:step],
                                           y[kr::step]))
    if quad:
        aa, bb, cc = sums
        nums = [RingElem(dom, a + b * dom.omega_c,
                         c - a - b + b * dom.omega_t)
                for a, b, c in zip(aa, bb, cc)]
    else:
        nums = [RingElem(dom, a) for a in sums[0]]
    return TruncatedSeries(dom, lo, [FieldElem(dom, n, den) if n else dom.fzero
                                     for n in nums], kt)


def reference_disagreement(left, right):
    """series.disagreement through the difference series: left - right is
    built entry by entry."""
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


def reference_shape_violation(mat, shape_of):
    """First (row, col, order) escaping its shape, one lookup per
    coefficient."""
    for r, row in enumerate(mat.rows):
        for c, series in enumerate(row):
            for j, coef in enumerate(series.coeffs):
                order = series.val + j
                if coef and not shape_of(order)[r][c].contains(coef):
                    return (r, c, order)
    return None


def reference_extend(j_ideal, g, prec):
    """extend's order loop with srow_n = sum_(i=1..n) g_i sigma^i(A_(n-i))
    rebuilt from scratch at every order by per-term RingElem products.
    Returns (A, q, audit) without the verifier call; raises
    ConstIdealUnderestimate where extend does."""
    dom = g.dom
    f1, f2 = g.rows[0]
    a1 = f1.coeff(0).as_ring()
    a2 = f2.coeff(0).as_ring()
    a_mats = [[[dom.one, dom.zero], [dom.zero, dom.one]]]
    q_coeffs = [dom.fone]
    audit = []
    for n in range(1, prec + 1):
        sig_a1 = dom.sigma_pow(a1, n)
        sig_a2 = dom.sigma_pow(a2, n)
        srow = [dom.zero, dom.zero]
        for i in range(1, n + 1):
            gi = [f1.coeff(i).as_ring(), f2.coeff(i).as_ring()]
            am = a_mats[n - i]
            for col in range(2):
                srow[col] = srow[col] + (
                    gi[0] * dom.sigma_pow(am[0][col], i)
                    + gi[1] * dom.sigma_pow(am[1][col], i))
        s_n = srow[0] * sig_a2 - srow[1] * sig_a1
        if s_n:
            try:
                c = ideals.PreparedBasis(
                    [x * y for x in (a1.to_field(), a2.to_field())
                     for y in (sig_a1.to_field(), sig_a2.to_field())]
                ).express(s_n.to_field())
                c = [c[:2], c[2:]]
            except MembershipError:
                enlarged = j_ideal.add(
                    j_ideal.sigma(n).inverse().scale(s_n.to_field()))
                raise ConstIdealUnderestimate(enlarged, n, s_n) from None
            a_n = [[-c[0][1], c[0][0]], [-c[1][1], c[1][0]]]
        else:
            c = [[dom.zero, dom.zero], [dom.zero, dom.zero]]
            a_n = [[dom.zero, dom.zero], [dom.zero, dom.zero]]
        a_mats.append(a_n)
        w = [srow[col] + a1 * a_n[0][col] + a2 * a_n[1][col]
             for col in range(2)]
        q_coeffs.append(w[0].to_field() / sig_a1.to_field())
        audit.append({
            "n": n,
            "s_n": format_ring_elem(s_n),
            "c": [[format_ring_elem(c[j][k]) for k in range(2)]
                  for j in range(2)],
        })
    a_series = SeriesMatrix(dom, [[TruncatedSeries.from_coeff_map(
        dom, [(i, a_mats[i][r][col].to_field()) for i in range(prec + 1)],
        prec + 1) for col in range(2)] for r in range(2)])
    q = TruncatedSeries.from_coeff_map(
        dom, [(i, q_coeffs[i]) for i in range(prec + 1)], prec + 1)
    return a_series, q, audit


def reference_echelon(rows):
    """ideals.echelon as it was before it recorded its operations: every
    row operation runs on whole rows and on the full k x k transform U
    with U * rows = ech, which is returned in place of the record."""
    m = [list(r) for r in rows]
    k = len(m)
    ncols = len(m[0]) if k else 0
    u = [[int(i == j) for j in range(k)] for i in range(k)]

    def rowop(i, j, ci, cj, di, dj):
        # (row_i, row_j) <- (ci*row_i + cj*row_j, di*row_i + dj*row_j)
        for t in range(ncols):
            a, b = m[i][t], m[j][t]
            m[i][t] = ci * a + cj * b
            m[j][t] = di * a + dj * b
        for t in range(k):
            a, b = u[i][t], u[j][t]
            u[i][t] = ci * a + cj * b
            u[j][t] = di * a + dj * b

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def negate(i):
        m[i] = [-v for v in m[i]]
        u[i] = [-v for v in u[i]]

    pivots = []
    r = 0
    for col in range(ncols):
        if r >= k:
            break
        for i in range(r + 1, k):
            if m[i][col] == 0:
                continue
            if m[r][col] == 0:
                swap(r, i)
                continue
            a, b = m[r][col], m[i][col]
            g, x, y = ideals.xgcd(a, b)
            rowop(r, i, x, y, -(b // g), a // g)
        if m[r][col] == 0:
            continue
        if m[r][col] < 0:
            negate(r)
        piv = m[r][col]
        for j in range(r):
            q = m[j][col] // piv
            if q:
                for t in range(ncols):
                    m[j][t] -= q * m[r][t]
                for t in range(k):
                    u[j][t] -= q * u[r][t]
        pivots.append(col)
        r += 1
    return m, pivots, u


_O_RE = re.compile(r"^O\(x(?:\^(-?[0-9]+))?\)$")
_X_RE = re.compile(r"^(.*?)\*?x(?:\^(-?[0-9]+))?$")


def reference_parse_series(dom, text):
    """textio.parse_series as it was before it read the text in one pass:
    the text is split at every sign outside parentheses and not after
    ^, then each term is tried as the O-term and then as a coefficient
    times a power of x, each with its own regex."""
    if not isinstance(text, str):
        raise ValueError(f"series must be a string, not {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty series")
    if s == "0":
        return TruncatedSeries.zero(dom)
    if s[0] not in "+-":
        s = "+" + s
    # split into signed top-level terms (parens protect coefficient sums)
    terms = []
    depth = 0
    start = 0
    for k, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and k > start and s[k - 1] != "^":
            terms.append(s[start:k])
            start = k
    terms.append(s[start:])
    known_to = None
    items = []
    for tok in terms:
        sign = -1 if tok[0] == "-" else 1
        body = tok[1:]
        mo = _O_RE.match(body)
        if mo:
            if sign < 0:
                raise ValueError("negative O-term")
            if known_to is not None:
                raise ValueError(f"series {text!r} has two O-terms")
            known_to = _order(int(mo.group(1) or 1), "O-term order")
            continue
        mx = _X_RE.match(body)
        if mx and not body.endswith("w"):
            coef_s, exp_s = mx.group(1), mx.group(2)
            exp = _order(int(exp_s), "exponent") if exp_s is not None else 1
            coef_s = coef_s or "1"
        else:
            coef_s, exp = body, 0
        if coef_s.startswith("(") and coef_s.endswith(")"):
            coef_s = coef_s[1:-1]
        coef = parse_field_elem(dom, coef_s)
        if sign < 0:
            coef = -coef
        items.append((exp, coef))
    if known_to is not None and any(i >= known_to for i, c in items if c):
        raise ValueError(
            f"series {text!r} has terms at or past its O(x^{known_to}) bound")
    return TruncatedSeries.from_coeff_map(dom, items, known_to)


def _table_invariant_factors(table, identity):
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
    rest = _table_invariant_factors(qtable, idx[coset_of[identity]])
    for d in rest:
        if d1 % d:
            raise SkewError("invariant factor computation failed")
    return (d1,) + tuple(rest)


def reference_invariant_factors(disc):
    """The invariant factors of the reduced forms of disc, largest first,
    from the h x h composition table: split off the cyclic subgroup of
    an element of largest order and recurse on the quotient table."""
    forms = tuple(enumerate_reduced_forms(disc))
    index = {f: i for i, f in enumerate(forms)}
    table = tuple(
        tuple(index[compose_forms(f1, f2)] for f2 in forms) for f1 in forms
    )
    return _table_invariant_factors(table, index[principal_form(disc)])


def reference_class_of(dom, u):
    """The index of the reduced form whose ideal is isomorphic to u, by
    one principal generator search per form."""
    for i, form in enumerate(class_group(dom).forms):
        if ideals.ideal_classes_isomorphic(u, ideal_of_form(dom, form)) \
                is not None:
            return i
    raise SkewError("ideal matched no form class")
