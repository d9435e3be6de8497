"""Text and JSON forms for elements, series, ideals, domains and
certificates.

Element syntax: a sum of signed terms, each an optional `p` or `p/q` in
ASCII digits then an optional `*w` (`w` alone is `1*w`; the `*` may be
left out), read with integer arithmetic only; the generator of the
quadratic order is always spelled `w`. Elements are written `a`, `a+b*w`
or `a-b*w` with each part in lowest terms (`-3/4+5/6*w`, `1*w`).
parse_field_elem reads text in exactly those written forms (`a`, `b*w`
or `a+-b*w`, each part `p` or `p/q`) with one regex match; any other
text goes to the term loop, parse_terms, which reads every form and
words every refusal. Both give the same element.

Series syntax: `2+1*x^1+(1+1*w)*x^3+O(x^8)`, with negative exponents
allowed and at most one O-term, the exclusive precision bound, written
like a term's power of x: `O(x)` is `O(x^1)`, and `O(x5)` is refused as
`2*x5` is. Structured coefficients are parenthesized. Every order read
(an exponent, an O-term, a JSON `val`, last stored order or `prec`) must
lie within +-MAX_ORDER. All JSON emitted by the package is canonical:
sorted keys, compact separators, integers and strings only. Domain,
ideal, series and certificate objects are closed (closed_object), and
each certificate schema is declared once (CERTIFICATES), with its reader
and writer derived from that declaration.
"""

from __future__ import annotations

import dataclasses
import json
import re
from math import gcd

from .domains import Domain, DomainSpec, FieldElem, RingElem, get_domain
from .errors import SkewError

# largest |order| accepted on input, so that no series text or JSON can
# ask for a coefficient list longer than about 2 * MAX_ORDER
MAX_ORDER = 2 ** 16


# longest quotation of an input that a refusal message carries
QUOTE_CHARS = 60


def quote_input(value) -> str:
    """repr(value) for a refusal message, clipped to QUOTE_CHARS characters
    with the input's length added, so that a huge input gives a short
    message; a short input is quoted whole, as repr gives it."""
    text = repr(value)
    if len(text) <= QUOTE_CHARS:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:QUOTE_CHARS]}... ({size} characters)"


def json_int(value, what: str) -> int:
    """A JSON integer read from a certificate or an input file.

    Anything else, a bool, a float (1.5, or 1e999 which parses as inf) or
    a string included, raises ValueError instead of being cast.
    """
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, not "
                         f"{quote_input(value)}")
    return value


def certified_prec(value: int, least: int, what: str = "prec") -> int:
    """A certified precision or reduction depth in least..MAX_ORDER (a
    memory cap, not a time cap)."""
    if not least <= value <= MAX_ORDER:
        raise ValueError(f"{what} must be in {least}..{MAX_ORDER}, not {value}")
    return value


def _order(value: int, what: str) -> int:
    if not -MAX_ORDER <= value <= MAX_ORDER:
        raise ValueError(f"{what} {value} is outside the supported orders "
                         f"-{MAX_ORDER}..{MAX_ORDER}")
    return value


def _ratio(p: int, q: int) -> str:
    """p/q in lowest terms, for q > 0."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def format_ring_elem(e: RingElem) -> str:
    return format_parts(e.a, e.b)


def format_field_elem(e: FieldElem) -> str:
    return format_parts(e.num.a, e.num.b, e.den)


def format_parts(a: int, b: int, den: int = 1) -> str:
    """The text of (a + b*w) / den, den > 0."""
    if not b:
        return _ratio(a, den)
    wpart = f"{_ratio(abs(b), den)}*w"
    if not a:
        return wpart if b > 0 else f"-{wpart}"
    return f"{_ratio(a, den)}{'+' if b > 0 else '-'}{wpart}"


# exactly the forms format_field_elem writes: a, b*w or a+-b*w, each
# part p or p/q with q > 0
_CANONICAL_RE = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?"
                           r"(?:(\*w)|([+-][0-9]+)(?:/(0*[1-9][0-9]*))?\*w)?")
_TERM_RE = re.compile(r"([+-])(?:([0-9]+)(?:/([0-9]+))?)?(\*?w)?")


def parse_field_elem(dom: Domain, text: str, sign: int = 1) -> FieldElem:
    """The element text spells, times sign (1 or -1): a series term folds
    its sign into its coefficient here."""
    if not isinstance(text, str):
        raise ValueError(f"element must be a string, not {quote_input(text)}")
    m = _CANONICAL_RE.fullmatch(text)
    if m is not None:
        p, q, w_only, r, s = m.groups()
    if m is None or ((w_only or r) and not dom.is_quad):
        # the term loop reads every other form and refuses a stray w
        e = parse_terms(dom, text)
        return e if sign > 0 else -e
    a, den = int(p), int(q or 1)
    if w_only:
        a, b = 0, a
    elif r is None:
        b = 0
    else:
        b, b_den = int(r), int(s or 1)
        if b_den != den:
            a, b, den = a * b_den, b * den, den * b_den
    if sign < 0:
        a, b = -a, -b
    return FieldElem(dom, RingElem(dom, a, b), den)


def parse_terms(dom: Domain, text: str) -> FieldElem:
    """parse_field_elem's term loop, which reads any element text."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty element")
    if s[0] not in "+-":
        s = "+" + s
    # (a + b*w) / den, with den the product of the term denominators
    # that do not already divide it
    a = b = 0
    den = 1
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or not (m.group(2) or m.group(4)):
            raise ValueError(f"cannot parse element {quote_input(text)}")
        pos = m.end()
        sign, p, q, w = m.groups()
        p, q = int(p or 1), int(q or 1)
        if not q:
            raise ValueError(
                f"zero denominator in element {quote_input(text)}")
        if den % q:
            a, b, p, den = a * q, b * q, p * den, den * q
        else:
            p *= den // q
        if sign == "-":
            p = -p
        if w:
            b += p
        else:
            a += p
    if b and not dom.is_quad:
        raise ValueError("w is not an element of the integer domain")
    return FieldElem(dom, RingElem(dom, a, b), den)


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


# one signed term of series text: the O-term, or a coefficient (in
# parentheses, or bare and then free of signs; empty means 1 before an x)
# with an optional x, *x or x^k. A line break may end an x-term or the
# O-term, and a term ends at the next sign or at the end of the text.
_SERIES_TERM_RE = re.compile(r"""
    ([+-])
    (?: (O) \( x (?: \^ (-?[0-9]+) )? \) \n?
      | (?: \( ([^()]*) \) | ([0-9/*w]*?) )
        (?: (\*?x) (?: \^ (-?[0-9]+) )? \n? )?
    )
    (?= [+-] | \Z )""", re.VERBOSE)


def parse_series(dom: Domain, text: str):
    """A series from text, read term by term, left to right, in one pass.

    Terms at one order add up, spaces are ignored, and an x without a
    power is x^1. ValueError for anything else.
    """
    from .series import TruncatedSeries

    if not isinstance(text, str):
        raise ValueError(f"series must be a string, not {quote_input(text)}")
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty series")
    if s == "0":
        return TruncatedSeries.zero(dom)
    if s[0] not in "+-":
        s = "+" + s
    match = _SERIES_TERM_RE.match
    known_to = None
    items = []
    pos, end = 0, len(s)
    while pos < end:
        m = match(s, pos)
        if m is None:
            raise ValueError(f"cannot parse the series term {s[pos:pos + 40]!r}")
        pos = m.end()
        sign, o_term, o_exp, inner, bare, x, exp = m.groups()
        if o_term:
            if sign == "-":
                raise ValueError("negative O-term")
            if known_to is not None:
                raise ValueError(
                    f"series {quote_input(text)} has two O-terms")
            known_to = _order(int(o_exp or 1), "O-term order")
            continue
        sign = 1 if sign == "+" else -1
        if inner is not None or bare:
            coef = parse_field_elem(dom, bare or inner, sign)
        elif x:
            coef = dom.fone if sign > 0 else -dom.fone
        else:
            raise ValueError("empty element")
        items.append((_order(int(exp), "exponent") if exp is not None
                      else 1 if x else 0, coef))
    if known_to is not None and any(c for i, c in items if i >= known_to):
        raise ValueError(
            f"series {quote_input(text)} has terms at or past its "
            f"O(x^{known_to}) bound")
    return TruncatedSeries.from_coeff_map(dom, items, known_to)


def series_to_json(f) -> dict:
    return {
        "val": f.val if f.coeffs else 0,
        "coeffs": [format_field_elem(c) for c in f.coeffs],
        "prec": f.known_to,
    }


def closed_object(obj, what: str, required, optional=()) -> None:
    """ValueError, naming the first key missing or unknown, unless obj is
    a JSON object holding every required key and no key outside required
    and optional."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {quote_input(obj)}")
    for key in obj:
        if key not in required and key not in optional:
            raise ValueError(f"unknown field {quote_input(key)} in {what}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing field {key!r} in {what}")


def series_from_json(dom: Domain, obj: dict):
    """A series object; its prec is null or absent for an exact series."""
    from .series import TruncatedSeries

    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
        raise ValueError(f"a series is an object with a coeffs array, "
                         f"not {quote_input(obj)}")
    closed_object(obj, "series", ("val", "coeffs"), ("prec",))
    val = _order(json_int(obj.get("val"), "series val"), "series val")
    coeffs = [parse_field_elem(dom, s) for s in obj["coeffs"]]
    if coeffs:
        _order(val + len(coeffs) - 1, "last stored order")
    prec = obj.get("prec")
    if prec is not None:
        prec = _order(json_int(prec, "series prec"), "series prec")
        if any(c for c in coeffs[max(0, prec - val):]):
            raise ValueError(f"series {quote_input(obj)} has a nonzero "
                             f"coefficient at or past its prec {prec}")
    return TruncatedSeries(dom, val, coeffs, prec)


def matrix_to_json(m) -> list:
    return [[series_to_json(s) for s in row] for row in m.rows]


def matrix_from_json(dom: Domain, obj: list, shape: tuple[int, int]):
    """A rows x cols array of series objects; any other shape is refused."""
    from .series import SeriesMatrix

    rows, cols = shape
    if not (isinstance(obj, list) and len(obj) == rows and all(
            isinstance(row, list) and len(row) == cols for row in obj)):
        raise ValueError(f"expected a {rows}x{cols} matrix of series")
    return SeriesMatrix(dom, [[series_from_json(dom, s) for s in row]
                              for row in obj])


def ideal_lattice_from_json(dom: Domain, obj: dict):
    """An integral ideal from {"gens": [elements]} or its canonical
    {"hnf": [a, b, c]} (0 <= b < a; [m] over Z), so that each ideal has
    one hnf spelling; a "den" is accepted only beside hnf and only when
    it is 1. An object spelling both gens and hnf is refused."""
    from . import ideals

    key = "gens" if isinstance(obj, dict) and "gens" in obj else "hnf"
    if not isinstance(obj, dict) or not isinstance(obj.get(key), list):
        raise ValueError(f"an ideal is an object with a gens or an hnf "
                         f"array, not {quote_input(obj)}")
    closed_object(obj, f"{key} ideal", (key,), () if key == "gens" else ("den",))
    if key == "gens":
        ideal = ideals.from_generators(
            dom, [parse_field_elem(dom, s) for s in obj["gens"]])
    else:
        hnf = [json_int(e, "hnf entry") for e in obj["hnf"]]
        den = json_int(obj.get("den", 1), "ideal den")
        if len(hnf) != (3 if dom.is_quad else 1):
            raise ValueError("quadratic ideal takes an [a, b, c] triple"
                             if dom.is_quad else
                             "integer ideal takes a single generator [m]")
        try:
            ideal = ideals.FracIdeal(dom, *hnf, den=den)
        except SkewError as err:
            raise ValueError(f"ideal {quote_input(obj)}: {err}") from None
        if ideal.to_json()["hnf"] != hnf or ideal.den != den:
            raise ValueError(f"ideal {quote_input(obj)} is not in canonical "
                             f"form: it is {quote_input(ideal.to_json())}")
    if not ideal.is_integral:
        raise ValueError("expected an integral ideal")
    return ideal


def parse_domain(text: str) -> DomainSpec:
    s = text.strip()
    if s == "int":
        return DomainSpec("int")
    parts = s.split(":")
    if len(parts) == 3 and parts[0] == "quad":
        return DomainSpec("quad", int(parts[1]), parts[2])
    if s.startswith("{"):
        return DomainSpec.from_json(json.loads(s))
    raise ValueError(f"cannot parse domain {quote_input(text)} "
                     f"(want int or quad:d:id|conj)")


def format_domain(spec: DomainSpec) -> str:
    if spec.kind == "int":
        return "int"
    return f"quad:{spec.d}:{spec.sigma}"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _declare(schema: str, name: str, doc: str, verifier: str, **kinds):
    """The dataclass of one certificate schema, with its declaration as
    class attributes: SCHEMA, the "schema" value; VERIFIER, its verifier
    as "engine.name"; and KINDS, the kind of each JSON key but "schema",
    which is also the name of a dataclass field, in field order.

    Kinds: "domain" (read first, as the rest is read over it), "ideal",
    "pair" (an array of two ring elements), "row" (a flat 1x2 series
    row), a (rows, cols) series matrix, "series", ("int", least) for an
    integer in least..MAX_ORDER, and "audit" (read, never checked; absent
    means []).
    """
    return dataclasses.make_dataclass(name, list(kinds), namespace={
        "__doc__": doc, "__module__": __name__,
        "SCHEMA": schema, "VERIFIER": verifier, "KINDS": kinds})


ExtensionCertificate = _declare(
    "extension-cert/v1", "ExtensionCertificate",
    "Witness data for I isomorphic to (constant ideal) * R.",
    "extension.verify_extension_certificate",
    domain="domain", ideal="ideal", g0="pair", g="row", A=(2, 2),
    q="series", prec=("int", 0), audit="audit")
CompletionCertificate = _declare(
    "completion-cert/v1", "CompletionCertificate",
    "Row, witness, completion data and the final invertible matrix.",
    "completion.verify_completion",
    domain="domain", ideal="ideal", a_ideal="ideal", row=(1, 2),
    witness=(2, 1), n=("int", 0), b=(1, 2), T=(2, 2), H=(2, 2),
    final=(2, 2), final_inv=(2, 2), prec=("int", 1))
CERTIFICATES = {cls.SCHEMA: cls
                for cls in (ExtensionCertificate, CompletionCertificate)}


def certificate_schema(obj) -> str:
    """The declared schema a certificate object names; ValueError if obj
    is not a JSON object or names no declared schema."""
    if not isinstance(obj, dict):
        raise ValueError("a certificate file holds a JSON object, not a "
                         + type(obj).__name__)
    schema = obj.get("schema")
    if not isinstance(schema, str) or schema not in CERTIFICATES:
        raise ValueError(f"unknown certificate schema {quote_input(schema)}")
    return schema


def certificate_from_json(obj):
    """The certificate in a JSON object, read by its schema's declaration."""
    cls = CERTIFICATES[certificate_schema(obj)]
    closed_object(obj, "certificate", ["schema", *(
        key for key, kind in cls.KINDS.items() if kind != "audit")], cls.KINDS)
    values = {}
    for key, kind in cls.KINDS.items():
        value = obj.get(key, [])
        match kind:
            case "domain":
                value = DomainSpec.from_json(value)
                dom = get_domain(value)
            case "ideal":
                value = ideal_lattice_from_json(dom, value)
            case "pair":
                if not isinstance(value, list) or len(value) != 2:
                    raise ValueError(f"{key} must be an array of two element "
                                     f"strings, not {quote_input(value)}")
                value = tuple(parse_field_elem(dom, s).as_ring() for s in value)
            case "row":
                value = matrix_from_json(dom, [value], (1, 2))
            case (int(), int()):
                value = matrix_from_json(dom, value, kind)
            case "series":
                value = series_from_json(dom, value)
            case ("int", least):
                value = certified_prec(json_int(value, key), least, key)
        values[key] = value
    return cls(**values)


def certificate_to_json(cert) -> dict:
    """The JSON object of a certificate, written by its declaration."""
    out = {"schema": cert.SCHEMA}
    for key, kind in cert.KINDS.items():
        value = getattr(cert, key)
        match kind:
            case "domain" | "ideal":
                value = value.to_json()
            case "pair":
                value = [format_ring_elem(a) for a in value]
            case "row":
                value = matrix_to_json(value)[0]
            case (int(), int()):
                value = matrix_to_json(value)
            case "series":
                value = series_to_json(value)
        out[key] = value
    return out
