"""Command-line interface: certificates in, certificates out.

Exit codes: 0 success / verification passed, 2 usage or unsupported
domain, 3 verification failure (including a malformed certificate and
an engine's failed self-check) or invalid input data, 4 search
obstruction (missing principal generator, exhausted bound), 5 precision
deficit. All emitted JSON is canonical (sorted keys, no floats), so
fixed flags and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .domains import get_domain
from .errors import (
    BoundExceeded,
    MembershipError,
    NotUnimodular,
    PrecisionError,
    SigmaClassObstruction,
    SkewError,
    UnsupportedDomain,
)
from . import completion, extension, ideals, structure
from .classgroup import class_group, sigma_acts_trivially
from .series import SeriesMatrix, TruncatedSeries
from . import textio


def _write_out(payload: dict, out: str | None):
    text = textio.canonical_json(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_classgroup(args) -> int:
    dom = get_domain(textio.parse_domain(args.domain))
    cg = class_group(dom)
    trivial = sigma_acts_trivially(dom)
    forms = ",".join(f"({a},{b},{c})" for a, b, c in cg.forms) \
        if cg.disc is not None else "(1)"
    print(f"h={cg.h}, forms=[{forms}], sigma_trivial={str(trivial).lower()}")
    if args.out:
        payload = cg.to_json()
        payload["sigma_trivial"] = trivial
        _write_out(payload, args.out)
    return 0


def cmd_extend(args) -> int:
    dom = get_domain(textio.parse_domain(args.domain))
    gen_strings = json.loads(args.gens)
    if not isinstance(gen_strings, list) or not gen_strings:
        raise ValueError("--gens takes a nonempty JSON array of series")
    gens = [textio.parse_series(dom, s) for s in gen_strings]
    cert, repairs = extension.extend_with_repair(gens, args.prec)
    print(f"constant ideal: {cert.ideal!r}")
    print(f"repairs: {repairs}")
    _write_out(cert.to_json(), args.out)
    return 0


def cmd_complete_row(args) -> int:
    dom = get_domain(textio.parse_domain(args.domain))
    j_ideal = textio.ideal_lattice_from_json(dom, json.loads(args.ideal))
    row_obj = _load_json(args.row)
    if isinstance(row_obj, dict):
        row_obj = row_obj["row"]
    wit_obj = _load_json(args.witness)
    if isinstance(wit_obj, dict):
        wit_obj = wit_obj["witness"]
    row = SeriesMatrix(dom, [[textio.series_from_json(dom, s)
                              for s in row_obj]])
    wit = SeriesMatrix(dom, [[textio.series_from_json(dom, s)]
                             for s in wit_obj])
    shaped = completion.ShapedRow(row, j_ideal, ideals.unit_ideal(dom))
    rng = random.Random(args.seed)
    cert = completion.complete_unimodular_row(shaped, wit, args.prec, rng,
                                              bound=args.bound)
    print(f"reduction depth n = {cert.n}")
    _write_out(cert.to_json(), args.out)
    return 0


def cmd_verify(args) -> int:
    obj = _load_json(args.path)
    if not isinstance(obj, dict):
        raise ValueError("a certificate file holds a JSON object, not a "
                         + type(obj).__name__)
    schema = obj.get("schema")
    if schema == "extension-cert/v1":
        load = extension.ExtensionCertificate.from_json
        check = extension.verify_extension_certificate
    elif schema == "completion-cert/v1":
        load = completion.CompletionCertificate.from_json
        check = completion.verify_completion
    else:
        raise ValueError(f"unknown certificate schema {schema!r}")
    try:
        report = check(load(obj))
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError,
            SkewError) as err:
        print(f"verification failure: malformed {schema} certificate "
              f"({type(err).__name__}: {err})", file=sys.stderr)
        return 3
    for line in report.lines():
        print(line)
    return 0 if report.ok else 3


def cmd_report(args) -> int:
    dom = get_domain(textio.parse_domain(args.domain))
    rng = random.Random(args.seed)
    rep = structure.k0_report(dom, samples=args.samples, rng=rng)
    print(rep.to_text())
    if args.out:
        _write_out(rep.to_json(), args.out)
    else:
        sys.stdout.write(textio.canonical_json(rep.to_json()))
    return 0


def _check(label: str, ok: bool):
    print(f"  [{'ok' if ok else 'FAIL'}] {label}")
    if not ok:
        raise SkewError(f"demo check failed: {label}")


def demo_hilbert() -> None:
    print("twisted Laurent series over Z[sqrt(2)] with conjugation")
    dom = get_domain(textio.parse_domain("quad:2:conj"))
    x = TruncatedSeries.x_power(dom, 1)
    w = TruncatedSeries.const(dom, dom.felem(0, 1))
    left = x * w
    right = w * x
    print(f"  x*w = {left!r}  but  w*x = {right!r}")
    _check("multiplication is twisted: x*w = -w*x", left == -right)
    f = w + x
    finv = f.invert(8)
    print(f"  (w+x)^-1 = {finv!r}")
    _check("every nonzero series inverts over the fraction field: "
           "(w+x)*(w+x)^-1 = 1",
           ((f * finv) - TruncatedSeries.const(dom, dom.fone)).is_known_zero)
    g = TruncatedSeries.const(dom, dom.felem(1, 1)) + x
    ginv = g.invert(8, ring_mode=True)
    _check("a unit lowest coefficient (1+w, norm -1) inverts inside R",
           ginv.ring and ((g * ginv)
                          - TruncatedSeries.const(dom, dom.fone)).is_known_zero)


def demo_zsqrt5() -> None:
    print("ideal classes and the extension engine over Z[sqrt(-5)]")
    dom = get_domain(textio.parse_domain("quad:-5:id"))
    cg = class_group(dom)
    print(f"  h = {cg.h}, reduced forms {cg.forms}")
    _check("class number 2 with forms (1,0,5), (2,2,3)",
           cg.h == 2 and set(cg.forms) == {(1, 0, 5), (2, 2, 3)})
    p2 = ideals.from_ring_generators(dom, [dom.elem(2), dom.elem(1, 1)])
    _check("the prime above 2 is not principal",
           ideals.principal_generator(p2.to_frac()) is None)
    _check("its extension is not isomorphic to R (twisted class test)",
           completion.extended_ideal_iso(p2, ideals.unit_ideal(dom)) is None)
    gens = [textio.parse_series(dom, "2+1*x^1"),
            textio.parse_series(dom, "1+1*w")]
    cert, repairs = extension.extend_with_repair(gens, 8)
    print(f"  extend([2+x, 1+w]) repaired the constant ideal {repairs} time(s)"
          f" and settled on {cert.ideal!r}")
    _check("the designed repair case settles on the unit ideal after "
           "exactly one repair",
           repairs == 1 and cert.ideal.is_unit_ideal)
    print("  [ok] the engine verified the emitted certificate")


def demo_gauss_conj() -> None:
    print("Gaussian integers with conjugation")
    dom = get_domain(textio.parse_domain("quad:-1:conj"))
    c = ideals.from_ring_generators(dom, [dom.elem(1, 1)])
    verdict = structure.simplicity_probe(dom, [c])
    _check("(1+i) is sigma-fixed, so R has a proper two-sided ideal",
           verdict.simple is False)
    inv = structure.asano_inverse(c)
    print(f"  two-sided inverse of (1+i)R is generated by {inv!r}")
    _check("the inverse multiplies back to the unit ideal",
           c.to_frac().mul(inv).is_unit)
    cg = class_group(dom)
    _check("class number 1, so K0(R) = Z", cg.h == 1)


def demo_stable_rank() -> None:
    print("a length-2 unimodular row that no elementary reduction shortens")
    dom = get_domain(textio.parse_domain("int"))
    wit = structure.stable_rank_witness(dom, dom.elem(2), samples=500,
                                        rng=random.Random(0))
    print("  row (2+x, 4+3x): (2+x)*2 - (4+3x) = -x, a unit")
    _check("unimodularity identity holds exactly", wit.identity_ok)
    _check("500 sampled reductions all leave a non-unit lowest coefficient",
           wit.samples == 500)
    row = SeriesMatrix(dom, [[textio.parse_series(dom, "2+1*x^1"),
                              textio.parse_series(dom, "4+3*x^1")]])
    shaped = completion.ShapedRow(row, ideals.unit_ideal(dom),
                                  ideals.unit_ideal(dom))
    t = SeriesMatrix(dom, [[textio.parse_series(dom, "(-2)*x^-1")],
                           [textio.parse_series(dom, "1*x^-1")]])
    cert = completion.complete_unimodular_row(shaped, t, 8, random.Random(0))
    print("  yet the row completes to an invertible 2x2 matrix:")
    print(f"    {cert.final!r}")
    print("  [ok] the engine verified the completion certificate")


DEMOS = {
    "hilbert": demo_hilbert,
    "zsqrt-5": demo_zsqrt5,
    "gauss-conj": demo_gauss_conj,
    "stable-rank": demo_stable_rank,
}


def cmd_demo(args) -> int:
    DEMOS[args.name]()
    print("demo complete, all printed claims verified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewdd",
        description="certificate-producing arithmetic for skew Laurent "
                    "series rings over Z and quadratic orders")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, domain=True):
        if domain:
            p.add_argument("--domain", required=True,
                           help="int or quad:d:id|conj")
        p.add_argument("--prec", type=int, default=12,
                       help="certified series orders (default 12)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized searches (default 0)")
        p.add_argument("--bound", type=int, default=100_000,
                       help="search bound for generator hunts")
        p.add_argument("--out", help="output path for the JSON artifact")

    p = sub.add_parser("classgroup", help="reduced forms and class number")
    add_common(p)
    p.set_defaults(fn=cmd_classgroup)

    p = sub.add_parser("extend",
                       help="certify a right ideal isomorphic to an "
                            "extended ideal")
    add_common(p)
    p.add_argument("--gens", required=True,
                   help="JSON array of series generating the right ideal")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("complete-row",
                       help="complete a unimodular shaped row to an "
                            "invertible matrix")
    add_common(p)
    p.add_argument("--ideal", required=True,
                   help='ideal JSON, e.g. {"hnf":[2,1,1]} or {"gens":[...]}')
    p.add_argument("--row", required=True, help="path to the row JSON file")
    p.add_argument("--witness", required=True,
                   help="path to the witness column JSON file")
    p.set_defaults(fn=cmd_complete_row)

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="structure report for a domain")
    add_common(p)
    p.add_argument("--samples", type=int, default=100,
                   help="stable-rank sample count (default 100)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("demo", help="narrated, self-verifying walkthroughs")
    p.add_argument("name", choices=sorted(DEMOS))
    p.set_defaults(fn=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ValueError, UnsupportedDomain, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (NotUnimodular, MembershipError) as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 3
    except (SigmaClassObstruction, BoundExceeded) as err:
        print(f"obstruction: {err}", file=sys.stderr)
        return 4
    except PrecisionError as err:
        print(f"precision deficit: {err}", file=sys.stderr)
        return 5
    except SkewError as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
