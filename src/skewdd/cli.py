"""Command-line interface: certificates in, certificates out.

Exit codes: 0 success / verification passed, 2 usage or unsupported
domain, 3 verification failure (including a malformed certificate and
an engine's failed self-check) or invalid input data, 4 obstruction
(missing principal generator, or the real-quadratic principal scan
exhausted --bound), 5 precision deficit. All emitted JSON is canonical
(sorted keys, no floats), so fixed flags give byte-identical files.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys

from .domains import get_domain
from .errors import (
    MembershipError,
    NotUnimodular,
    PrecisionError,
    SigmaClassObstruction,
    SkewError,
    UnsupportedDomain,
)
from . import ideals, textio
from .series import SeriesMatrix, TruncatedSeries


def _lazy(name: str):
    """The submodule skewdd.<name>, registered in sys.modules now and
    executed on its first attribute access, so that a command compiles
    and runs only the engines it touches."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


completion, extension, structure, classgroup = map(
    _lazy, ("completion", "extension", "structure", "classgroup"))


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
    cg = classgroup.class_group(dom)
    trivial = classgroup.sigma_acts_trivially(dom)
    forms = ",".join(f"({a},{b},{c})" for a, b, c in cg.forms) \
        if cg.disc is not None else "(1)"
    print(f"h={cg.h}, forms=[{forms}], sigma_trivial={str(trivial).lower()}")
    if args.out:
        payload = cg.to_json()
        payload["sigma_trivial"] = trivial
        _write_out(payload, args.out)
    return 0


def cmd_extend(args) -> int:
    textio.certified_prec(args.prec, 0, "--prec")
    dom = get_domain(textio.parse_domain(args.domain))
    gen_strings = json.loads(args.gens)
    if not isinstance(gen_strings, list) or not gen_strings:
        raise ValueError("--gens takes a nonempty JSON array of series")
    gens = [textio.parse_series(dom, s) for s in gen_strings]
    cert, repairs = extension.extend_with_repair(gens, args.prec)
    print(f"constant ideal: {cert.ideal!r}")
    print(f"repairs: {repairs}")
    _write_out(textio.certificate_to_json(cert), args.out)
    return 0


def _load_series_list(dom, path: str, key: str) -> list:
    """Series from a file holding an array of them, or {key: array}."""
    obj = _load_json(path)
    if isinstance(obj, dict):
        textio.closed_object(obj, path, [key])
        obj = obj[key]
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{path} holds neither a nonempty JSON array of "
                         f"series nor an object with a {key!r} array")
    return [textio.series_from_json(dom, s) for s in obj]


def cmd_complete_row(args) -> int:
    textio.certified_prec(args.prec, 1, "--prec")
    if args.bound < 0:
        raise ValueError(f"--bound must be at least 0, not {args.bound}")
    dom = get_domain(textio.parse_domain(args.domain))
    j_ideal = textio.ideal_lattice_from_json(dom, json.loads(args.ideal))
    row = SeriesMatrix(dom, [_load_series_list(dom, args.row, "row")])
    wit = SeriesMatrix(dom, [[s] for s in
                             _load_series_list(dom, args.witness, "witness")])
    shaped = completion.ShapedRow(row, j_ideal, ideals.unit_ideal(dom))
    cert = completion.complete_unimodular_row(shaped, wit, args.prec,
                                              bound=args.bound)
    print(f"reduction depth n = {cert.n}")
    _write_out(textio.certificate_to_json(cert), args.out)
    return 0


def cmd_verify(args) -> int:
    obj = _load_json(args.path)
    schema = textio.certificate_schema(obj)
    engine, _, name = textio.CERTIFICATES[schema].VERIFIER.partition(".")
    # the engine module, lazy since import, runs here on its first use
    check = getattr(importlib.import_module(f".{engine}", __package__), name)
    try:
        report = check(textio.certificate_from_json(obj))
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
    rep = structure.k0_report(dom)
    print(rep.to_text())
    _write_out(rep.to_json(), args.out)
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
    ginv = g.invert(8)
    _check("a unit lowest coefficient (1+w, norm -1) inverts inside R",
           ginv.ring and ((g * ginv)
                          - TruncatedSeries.const(dom, dom.fone)).is_known_zero)


def demo_zsqrt5() -> None:
    print("ideal classes and the extension engine over Z[sqrt(-5)]")
    dom = get_domain(textio.parse_domain("quad:-5:id"))
    cg = classgroup.class_group(dom)
    print(f"  h = {cg.h}, reduced forms {cg.forms}")
    _check("class number 2 with forms (1,0,5), (2,2,3)",
           cg.h == 2 and set(cg.forms) == {(1, 0, 5), (2, 2, 3)})
    p2 = ideals.from_ring_generators(dom, [dom.elem(2), dom.elem(1, 1)])
    _check("the prime above 2 is not principal",
           ideals.principal_generator(p2, ideals.PRINCIPAL_BOUND) is None)
    _check("its extension is not isomorphic to R (twisted class test)",
           ideals.extended_ideal_iso(p2, ideals.unit_ideal(dom)) is None)
    gens = [textio.parse_series(dom, "2+1*x^1"),
            textio.parse_series(dom, "1+1*w")]
    cert, repairs = extension.extend_with_repair(gens, 8)
    print(f"  extend([2+x, 1+w]) repaired the constant ideal {repairs} time(s)"
          f" and settled on {cert.ideal!r}")
    _check("the designed repair case settles on the unit ideal after "
           "exactly one repair",
           repairs == 1 and cert.ideal.is_unit)
    print("  [ok] the engine verified the emitted certificate")


def demo_gauss_conj() -> None:
    print("Gaussian integers with conjugation")
    dom = get_domain(textio.parse_domain("quad:-1:conj"))
    c = ideals.from_ring_generators(dom, [dom.elem(1, 1)])
    _check("(1+i) is sigma-fixed, so R has a proper two-sided ideal",
           structure.simplicity_witness(dom) == c)
    inv = structure.asano_inverse(c)
    print(f"  two-sided inverse of (1+i)R is generated by {inv!r}")
    _check("the inverse multiplies back to the unit ideal",
           c.mul(inv).is_unit)
    cg = classgroup.class_group(dom)
    _check("class number 1, so K0(R) = Z", cg.h == 1)


def demo_stable_rank() -> None:
    print("a length-2 unimodular row that no elementary reduction shortens")
    dom = get_domain(textio.parse_domain("int"))
    wit = structure.stable_rank_witness(dom, dom.elem(2))
    print("  row (2+x, 4+3x): (2+x)*2 - (4+3x) = -x, a unit")
    _check("unimodularity identity holds exactly", wit.identity_ok)
    lows = ", ".join(map(textio.format_field_elem, wit.cases.values()))
    _check("no reduction (2+x) + (4+3x)r is a unit: its lowest coefficient "
           "4r_k, 2(1+2r_0) or 2 (valuation k < 0, = 0, > 0) lies in the "
           f"proper ideal 2Z ({lows} at r = x^-1, 1, x)",
           not wit.lowest_ideal.is_unit
           and all(c and wit.lowest_ideal.contains(c)
                   for c in wit.cases.values()))
    row = SeriesMatrix(dom, [[textio.parse_series(dom, "2+1*x^1"),
                              textio.parse_series(dom, "4+3*x^1")]])
    shaped = completion.ShapedRow(row, ideals.unit_ideal(dom),
                                  ideals.unit_ideal(dom))
    t = SeriesMatrix(dom, [[textio.parse_series(dom, "(-2)*x^-1")],
                           [textio.parse_series(dom, "1*x^-1")]])
    cert = completion.complete_unimodular_row(shaped, t, 8)
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
    shared = {
        "--domain": dict(required=True, help="int or quad:d:id|conj"),
        "--prec": dict(type=int, default=12,
                       help=f"certified series orders, at most "
                            f"{textio.MAX_ORDER} (default 12)"),
        "--bound": dict(type=int, default=ideals.PRINCIPAL_BOUND,
                        help="coordinate bound of the real-quadratic "
                             "principal generator scan, the only bounded "
                             "search"),
        "--out": dict(help="output path for the JSON artifact"),
    }

    def command(name, fn, text, *flags):
        p = sub.add_parser(name, help=text)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(fn=fn)
        return p

    command("classgroup", cmd_classgroup, "reduced forms and class number",
            "--domain", "--out")
    p = command("extend", cmd_extend,
                "certify a right ideal isomorphic to an extended ideal",
                "--domain", "--prec", "--out")
    p.add_argument("--gens", required=True,
                   help="JSON array of series generating the right ideal")
    p = command("complete-row", cmd_complete_row,
                "complete a unimodular shaped row to an invertible matrix",
                "--domain", "--prec", "--bound", "--out")
    p.add_argument("--ideal", required=True,
                   help='ideal JSON, e.g. {"hnf":[2,1,1]} or {"gens":[...]}')
    p.add_argument("--row", required=True, help="path to the row JSON file")
    p.add_argument("--witness", required=True,
                   help="path to the witness column JSON file")
    p = command("verify", cmd_verify, "re-check a certificate file")
    p.add_argument("path")
    command("report", cmd_report, "structure report for a domain",
            "--domain", "--out")
    p = command("demo", cmd_demo, "narrated, self-verifying walkthroughs")
    p.add_argument("name", choices=sorted(DEMOS))
    return parser


# built once per process: main() may run many times in one interpreter
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        return args.fn(args)
    except (ValueError, UnsupportedDomain, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (NotUnimodular, MembershipError) as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 3
    except SigmaClassObstruction as err:
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
