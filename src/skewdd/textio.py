"""Text and JSON forms for elements, series, ideals and domains.

Element syntax: `a`, `a+b*w`, `a-b*w` with rational parts `p/q`; the
generator of the quadratic order is always spelled `w`. Series syntax:
`2+1*x^1+(1+1*w)*x^3+O(x^8)`, with negative exponents allowed and the
O-term giving the exclusive precision bound; structured coefficients are
parenthesized. All JSON emitted by the package is canonical: sorted
keys, compact separators, integers and strings only.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .domains import Domain, DomainSpec, FieldElem, RingElem


def json_int(value, what: str) -> int:
    """A JSON integer read from a certificate or an input file.

    Anything else, a bool, a float (1.5, or 1e999 which parses as inf) or
    a string included, raises ValueError instead of being cast.
    """
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, not {value!r}")
    return value


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_ring_elem(e: RingElem) -> str:
    return format_field_elem(e.to_field())


def format_field_elem(e: FieldElem) -> str:
    ra = Fraction(e.num.a, e.den)
    rb = Fraction(e.num.b, e.den)
    if not rb:
        return _frac_str(ra)
    wpart = f"{_frac_str(abs(rb))}*w"
    if not ra:
        return wpart if rb > 0 else f"-{wpart}"
    sign = "+" if rb > 0 else "-"
    return f"{_frac_str(ra)}{sign}{wpart}"


_TERM_RE = re.compile(r"[+-][^+-]+")


def _rational(body: str, text: str) -> Fraction:
    try:
        return Fraction(body)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in element {text!r}") from None


def parse_field_elem(dom: Domain, text: str) -> FieldElem:
    if not isinstance(text, str):
        raise ValueError(f"element must be a string, not {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty element")
    if s[0] not in "+-":
        s = "+" + s
    pos = 0
    ra, rb = Fraction(0), Fraction(0)
    for m in _TERM_RE.finditer(s):
        if m.start() != pos:
            raise ValueError(f"cannot parse element {text!r}")
        pos = m.end()
        tok = m.group(0)
        sign = -1 if tok[0] == "-" else 1
        body = tok[1:]
        if body.endswith("w"):
            body = body[:-1].rstrip("*")
            coef = _rational(body, text) if body else Fraction(1)
            rb += sign * coef
        else:
            ra += sign * _rational(body, text)
    if pos != len(s):
        raise ValueError(f"cannot parse element {text!r}")
    if rb and not dom.is_quad:
        raise ValueError("w is not an element of the integer domain")
    return dom.felem(ra, rb)


def format_series(f) -> str:
    if f.is_exact_zero:
        return "0"
    pieces = []
    for j, c in enumerate(f.coeffs):
        if not c:
            continue
        i = f.val + j
        cs = format_field_elem(c)
        structured = ("w" in cs) or ("+" in cs[1:]) or ("-" in cs[1:])
        if i == 0:
            pieces.append(f"({cs})" if structured and pieces else cs)
        else:
            if structured or cs.startswith("-"):
                cs = f"({cs})"
            pieces.append(f"{cs}*x^{i}")
    if f.known_to is not None:
        pieces.append(f"O(x^{f.known_to})")
    if not pieces:
        return "0"
    return "+".join(pieces).replace("+-", "-")


_O_RE = re.compile(r"^O\(x\^?(-?\d+)\)$")
_X_RE = re.compile(r"^(.*?)\*?x(?:\^(-?\d+))?$")


def parse_series(dom: Domain, text: str):
    from .series import TruncatedSeries

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
            known_to = int(mo.group(1))
            continue
        mx = _X_RE.match(body)
        if mx and not body.endswith("w"):
            coef_s, exp_s = mx.group(1), mx.group(2)
            exp = int(exp_s) if exp_s is not None else 1
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


def series_to_json(f) -> dict:
    return {
        "val": f.val if f.coeffs else 0,
        "coeffs": [format_field_elem(c) for c in f.coeffs],
        "prec": f.known_to,
    }


def series_from_json(dom: Domain, obj: dict):
    """A series object; its prec is null or absent for an exact series."""
    from .series import TruncatedSeries

    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
        raise ValueError(f"a series is an object with a coeffs array, "
                         f"not {obj!r}")
    coeffs = [parse_field_elem(dom, s) for s in obj["coeffs"]]
    prec = obj.get("prec")
    if prec is not None:
        prec = json_int(prec, "series prec")
    return TruncatedSeries(dom, json_int(obj.get("val"), "series val"),
                           coeffs, prec)


def matrix_to_json(m) -> list:
    return [[series_to_json(s) for s in row] for row in m.rows]


def matrix_from_json(dom: Domain, obj: list):
    from .series import SeriesMatrix

    return SeriesMatrix(dom, [[series_from_json(dom, s) for s in row]
                              for row in obj])


def frac_ideal_from_json(dom: Domain, obj: dict):
    from . import ideals

    key = "gens" if isinstance(obj, dict) and "gens" in obj else "hnf"
    if not isinstance(obj, dict) or not isinstance(obj.get(key), list):
        raise ValueError(f"an ideal is an object with a gens or an hnf "
                         f"array, not {obj!r}")
    if key == "gens":
        gens = [parse_field_elem(dom, s) for s in obj["gens"]]
        return ideals.from_generators(dom, gens)
    hnf = [json_int(e, "hnf entry") for e in obj["hnf"]]
    den = json_int(obj.get("den", 1), "ideal den")
    if dom.is_quad:
        if len(hnf) != 3:
            raise ValueError("quadratic ideal takes an [a, b, c] triple")
    elif len(hnf) != 1:
        raise ValueError("integer ideal takes a single generator [m]")
    return ideals.FracIdeal(ideals.IdealLattice(dom, *hnf), den)


def ideal_lattice_from_json(dom: Domain, obj: dict):
    frac = frac_ideal_from_json(dom, obj)
    if not frac.is_integral:
        raise ValueError("expected an integral ideal")
    return frac.lat


def parse_domain(text: str) -> DomainSpec:
    s = text.strip()
    if s == "int":
        return DomainSpec("int")
    parts = s.split(":")
    if len(parts) == 3 and parts[0] == "quad":
        return DomainSpec("quad", int(parts[1]), parts[2])
    if s.startswith("{"):
        return DomainSpec.from_json(json.loads(s))
    raise ValueError(f"cannot parse domain {text!r} (want int or quad:d:id|conj)")


def format_domain(spec: DomainSpec) -> str:
    if spec.kind == "int":
        return "int"
    return f"quad:{spec.d}:{spec.sigma}"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
