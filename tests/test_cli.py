import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewdd import cli, completion, extension
from skewdd.cli import main
from skewdd.reporting import VerifyReport
from skewdd.series import SeriesMatrix, TruncatedSeries
from skewdd.textio import (MAX_ORDER, canonical_json, parse_series,
                           series_to_json)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SRC = str(Path(cli.__file__).resolve().parent.parent)


def fresh(*args):
    """`python *args` in a new interpreter that imports skewdd from this
    source tree. Only a new interpreter shows a fault in a module's first
    load: in this one, earlier tests have loaded every module."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def classic_row_argv(tmp_path, zz):
    """complete-row arguments for the row (2+x, 4+3x) over Z at prec 8."""
    row_path = tmp_path / "row.json"
    wit_path = tmp_path / "t.json"
    row_path.write_text(json.dumps([
        series_to_json(parse_series(zz, "2+1*x^1")),
        series_to_json(parse_series(zz, "4+3*x^1")),
    ]))
    wit_path.write_text(json.dumps([
        series_to_json(parse_series(zz, "(-2)*x^-1")),
        series_to_json(parse_series(zz, "1*x^-1")),
    ]))
    return ["complete-row", "--domain", "int", "--ideal", '{"hnf":[1]}',
            "--row", str(row_path), "--witness", str(wit_path),
            "--prec", "8"]


def test_classgroup_command(capsys):
    code, out, _ = run(capsys, "classgroup", "--domain", "quad:-5:conj")
    assert code == 0
    assert out.strip() == "h=2, forms=[(1,0,5),(2,2,3)], sigma_trivial=true"


def test_classgroup_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "cg.json"
    code, out, _ = run(capsys, "classgroup", "--domain", "quad:-5:conj",
                       "--out", str(out_path))
    assert code == 0
    assert out.splitlines() == [
        "h=2, forms=[(1,0,5),(2,2,3)], sigma_trivial=true",
        f"wrote {out_path}"]
    text = out_path.read_text()
    payload = json.loads(text)
    assert text == canonical_json(payload)
    assert payload == {"disc": -20, "forms": [[1, 0, 5], [2, 2, 3]], "h": 2,
                       "sigma_trivial": True, "structure": "Z/2"}


def test_classgroup_real_quadratic_refused(capsys):
    code, _, err = run(capsys, "classgroup", "--domain", "quad:2:conj")
    assert code == 2
    assert "real quadratic" in err


def test_extend_command_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "extend", "--domain", "int",
                       "--gens", '["2+1*x^1"]', "--prec", "8",
                       "--out", str(out_path))
    assert code == 0
    assert "constant ideal: (2)" in out
    assert "repairs: 0" in out
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0
    assert "FAIL" not in out


def test_extend_repair_case(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "extend", "--domain", "quad:-5:id",
                       "--gens", '["2+1*x^1","1+1*w"]', "--prec", "8",
                       "--out", str(out_path))
    assert code == 0
    assert "repairs: 1" in out
    obj = json.loads(out_path.read_text())
    assert obj["ideal"] == {"hnf": [1, 0, 1]}


@pytest.mark.parametrize("gens", ['["2","2+1*x^5"]',
                                  '["2+1*x^1","2+1*x^7+1*x^1"]'])
def test_extend_exact_generators_with_a_unit_difference(tmp_path, capsys,
                                                        gens):
    """The two generators differ by a power of x, so they generate R; the
    lowest coefficients stay in (2) far beyond four orders."""
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "extend", "--domain", "int", "--gens", gens,
                       "--prec", "12", "--out", str(out_path))
    assert code == 0
    assert "constant ideal: (1)" in out
    assert "repairs: 1" in out
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0
    assert "FAIL" not in out


def test_extend_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extend", "--domain", "int"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["classgroup", "--domain", "int", "--prec", "3"],
    ["classgroup", "--domain", "int", "--seed", "3"],
    ["classgroup", "--domain", "int", "--bound", "3"],
    ["extend", "--domain", "int", "--gens", '["2+1*x^1"]', "--seed", "3"],
    ["extend", "--domain", "int", "--gens", '["2+1*x^1"]', "--bound", "3"],
    ["report", "--domain", "int", "--prec", "3"],
    ["report", "--domain", "int", "--bound", "3"],
    ["report", "--domain", "int", "--seed", "1"],
    ["report", "--domain", "int", "--samples", "20"],
    ["complete-row", "--domain", "int", "--ideal", '{"hnf":[1]}',
     "--row", "row.json", "--witness", "t.json", "--seed", "3"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_unread_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_main_does_not_rebuild_the_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("build_parser called again")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, out, _ = run(capsys, "classgroup", "--domain", "quad:-5:conj")
    assert code == 0 and out.startswith("h=2")


def test_verify_tampered_exits_3(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    run(capsys, "extend", "--domain", "int", "--gens", '["2+1*x^1"]',
        "--prec", "6", "--out", str(out_path))
    obj = json.loads(out_path.read_text())
    obj["A"][0][0]["coeffs"].append("7")
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(bad_path))
    assert code == 3
    assert "FAIL" in out


def test_verify_truncated_witness_exits_3(tmp_path, capsys, zz):
    """row * witness = x^n needs the product known past order n: the
    classic row's certificate (n = 1) with its witness replaced by two
    zero series known below order 1 agrees with x^1 wherever it is known,
    and proves nothing."""
    out_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, *classic_row_argv(tmp_path, zz),
                     "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["n"] == 1
    obj["witness"] = [[{"val": 0, "coeffs": [], "prec": 1}]] * 2
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(bad_path))
    assert code == 3
    assert "FAIL: row * witness = x^n" in out


def test_verify_checks_row_witness_past_order_n(tmp_path, capsys, zz):
    """row * witness = x^n is checked at every order both sides know, not
    only through order n: the classic row's certificate (n = 1) with 7x^3
    added to the first witness entry has product x + 14x^3 + 7x^4, which
    is integral and agrees with x^1 through order 2."""
    out_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, *classic_row_argv(tmp_path, zz),
                     "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["n"] == 1
    obj["witness"][0] = [series_to_json(parse_series(zz, "-2+7*x^3"))]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(bad_path))
    assert code == 3
    assert "FAIL: row * witness = x^n at order 3" in out.splitlines()


def test_verify_padded_witness_exits_3_in_time(tmp_path, capsys, zz):
    """A certificate whose witness entries are padded with zeros in front
    to 2 * MAX_ORDER stored coefficients (val -MAX_ORDER, so the nonzero
    ones move up to the top orders) is refused in linear time: the zeros
    are stripped in one pass, not one list.pop(0) at a time."""
    import time

    out_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, *classic_row_argv(tmp_path, zz),
                     "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    for (entry,) in obj["witness"]:
        assert entry["prec"] is None
        entry["coeffs"] = (["0"] * (2 * MAX_ORDER - len(entry["coeffs"]))
                           + entry["coeffs"])
        entry["val"] = -MAX_ORDER
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(bad_path))
    elapsed = time.perf_counter() - start
    assert code == 3
    assert "FAIL: row * witness = x^n" in out
    assert elapsed < 2.0


def _bump(obj, key, by):
    obj[key] = obj[key] + by


# tamper name -> (certificate, edit): "extension" is the quad:-5:id repair
# case at prec 6, "completion" the classic row over Z at prec 8
MALFORMED = {
    "drop q": ("extension", lambda obj: obj.pop("q")),
    "one generator": ("extension", lambda obj: obj.update(g=obj["g"][:1])),
    "one row of A": ("extension", lambda obj: obj.update(A=obj["A"][:1])),
    "zero denominator":
        ("extension", lambda obj: obj["q"]["coeffs"].__setitem__(0, "1/0")),
    "domain not an object":
        ("extension", lambda obj: obj.update(domain="int")),
    "numeric g0": ("extension", lambda obj: obj.update(g0=[1, 2])),
    "non-numeric prec": ("extension", lambda obj: obj.update(prec="abc")),
    "non-numeric val": ("extension", lambda obj: obj["q"].update(val="a")),
    "unparsable coefficient":
        ("extension", lambda obj: obj["q"]["coeffs"].__setitem__(0, "zz")),
    "two-entry hnf":
        ("extension", lambda obj: obj["ideal"].update(hnf=[1, 0])),
    "non-integral ideal": ("extension", lambda obj: obj.update(
        ideal={"hnf": [1, 0, 1], "den": 2})),
    "non-squarefree d":
        ("extension", lambda obj: obj["domain"].update(d=4)),
    "unknown domain kind":
        ("extension", lambda obj: obj["domain"].update(kind="quadratic")),
    "three-entry g0": ("extension", lambda obj: obj["g0"].append("1")),
    # numbers that are not JSON integers are refused, never truncated
    "float prec": ("extension", lambda obj: obj.update(prec=1.5)),
    "prec truncating to itself":
        ("extension", lambda obj: _bump(obj, "prec", 0.9)),
    "float hnf entry":
        ("extension", lambda obj: _bump(obj["ideal"]["hnf"], 0, 0.5)),
    "float den": ("extension", lambda obj: obj["ideal"].update(den=1.0)),
    "float domain d":
        ("extension", lambda obj: obj["domain"].update(d=-5.5)),
    "float val": ("extension", lambda obj: _bump(obj["q"], "val", 0.0)),
    "infinite series prec":
        ("extension", lambda obj: obj["q"].update(prec=float("inf"))),
    "coefficient past its prec":
        ("extension", lambda obj: obj["q"].update(prec=obj["q"]["val"])),
    "boolean n": ("completion", lambda obj: obj.update(n=True)),
    # a reduction depth is an order count: 0..MAX_ORDER
    "negative n": ("completion", lambda obj: obj.update(n=-1)),
    "huge n": ("completion", lambda obj: obj.update(n=10 ** 9)),
    "float completion prec":
        ("completion", lambda obj: _bump(obj, "prec", 0.5)),
    # a certified order range must be nonempty: extension prec >= 0,
    # completion prec >= 1
    "negative extension prec": ("extension", lambda obj: obj.update(prec=-1)),
    "zero completion prec": ("completion", lambda obj: obj.update(prec=0)),
    "negative completion prec":
        ("completion", lambda obj: obj.update(prec=-3)),
    # and bounded above like every other order
    "extension prec past the order bound":
        ("extension", lambda obj: obj.update(prec=MAX_ORDER + 1)),
    "completion prec past the order bound":
        ("completion", lambda obj: obj.update(prec=MAX_ORDER + 1)),
    # the integers take neither d nor an automorphism
    "int domain with d and conj": ("completion", lambda obj: obj.update(
        domain={"kind": "int", "d": 3, "sigma": "conj"})),
    "int domain with d":
        ("completion", lambda obj: obj["domain"].update(d=3)),
    # element text is integer digits only; series orders stay within
    # +-MAX_ORDER
    "decimal coefficient":
        ("completion", lambda obj: obj["row"][0][0]["coeffs"].__setitem__(
            0, "2.0")),
    "witness val past the order bound":
        ("completion", lambda obj: obj["witness"][0][0].update(
            val=MAX_ORDER + 1)),
    # an ideal has one hnf spelling: b reduced below a, den prime to the
    # lattice content
    "hnf b past a":
        ("extension", lambda obj: obj["ideal"]["hnf"].__setitem__(1, 65537)),
    "hnf with a reducible den": ("extension", lambda obj: obj.update(
        ideal={"hnf": [2, 0, 2], "den": 2})),
    # |d| is capped, so the squarefree test cannot run for minutes
    "d past the cap": ("extension", lambda obj: obj["domain"].update(
        d=1000000000000000003)),
    # every object is closed: an undeclared key at any level is refused,
    # and an ideal has one spelling
    "unknown top-level key": ("extension", lambda obj: obj.update(bogus=1)),
    "unknown domain key":
        ("extension", lambda obj: obj["domain"].update(extra=1)),
    "unknown ideal key":
        ("extension", lambda obj: obj["ideal"].update(extra=1)),
    "unknown series key": ("extension", lambda obj: obj["g"][0].update(extra=1)),
    "ideal with two spellings": ("extension", lambda obj: obj.update(
        ideal={"hnf": [999, 5, 1], "gens": ["1", "1*w"]})),
}

# tamper name -> what its one stderr line must name
MALFORMED_MESSAGES = {
    "drop q": "missing field 'q'",
    "unknown top-level key": "unknown field 'bogus'",
    "unknown domain key": "unknown field 'extra' in domain",
    "unknown ideal key": "unknown field 'extra' in hnf ideal",
    "unknown series key": "unknown field 'extra' in series",
    "ideal with two spellings": "unknown field 'hnf' in gens ideal",
}


@pytest.mark.parametrize("tamper", list(MALFORMED))
def test_verify_malformed_certificate_exits_3(tmp_path, capsys, zz, tamper):
    kind, edit = MALFORMED[tamper]
    out_path = tmp_path / "cert.json"
    if kind == "extension":
        argv = ["extend", "--domain", "quad:-5:id",
                "--gens", '["2+1*x^1","1+1*w"]', "--prec", "6"]
    else:
        argv = classic_row_argv(tmp_path, zz)
    code, _, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    edit(obj)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", str(bad_path))
    assert code == 3
    assert err.startswith("verification failure: malformed")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert MALFORMED_MESSAGES.get(tamper, "") in err


@pytest.mark.parametrize("case", [
    "gens not strings", "ideal not an object", "row file without row",
    "witness entry not an object", "coefficient 1/0", "extend prec -1",
    "int domain with d", "int domain with conj", "complete-row prec 0",
    "complete-row prec -3", f"complete-row prec {MAX_ORDER + 1}",
    f"extend prec {MAX_ORDER + 1}", "extend prec 100000000",
    "exponent past the order bound", "two O-terms", "decimal coefficient",
    "ideal b past a", "ideal with a reducible den", "d past the cap",
    "row coefficient past its prec", "O-term without a caret",
    "ideal with two spellings", "ideal with den beside gens",
    "ideal with an unknown key", "domain with an unknown key",
    "row series with an unknown key", "row wrapper with an unknown key"])
def test_malformed_cli_input_exits_2(tmp_path, capsys, zz, case):
    gens = ["--gens", '["2+1*x^1"]']
    if case == "gens not strings":
        argv = ["extend", "--domain", "int", "--gens", "[1]"]
    elif case == "exponent past the order bound":
        argv = ["extend", "--domain", "int",
                "--gens", f'["1+1*x^{MAX_ORDER + 1}"]']
    elif case == "two O-terms":
        argv = ["extend", "--domain", "int", "--gens", '["1+O(x^5)+O(x^3)"]']
    elif case == "O-term without a caret":
        argv = ["extend", "--domain", "int", "--gens",
                '["2+1*x^1+O(x5)","3+O(x^5)"]', "--prec", "3"]
    elif case == "decimal coefficient":
        argv = ["extend", "--domain", "int", "--gens", '["2.0+1*x^1"]']
    elif case == "coefficient 1/0":
        argv = ["extend", "--domain", "int", "--gens", '["1/0"]']
    elif case.startswith("extend prec"):
        argv = ["extend", "--domain", "int", *gens, "--prec", case.split()[-1]]
    elif case == "int domain with d":
        argv = ["extend", "--domain", '{"kind": "int", "d": 3}', *gens]
    elif case == "int domain with conj":
        argv = ["extend", "--domain", '{"kind": "int", "sigma": "conj"}', *gens]
    elif case == "d past the cap":
        argv = ["classgroup", "--domain", "quad:1000000000000000003:id"]
    elif case == "domain with an unknown key":
        argv = ["extend", "--domain", '{"kind": "int", "extra": 1}', *gens]
    else:
        argv = classic_row_argv(tmp_path, zz)
        if case == "ideal not an object":
            argv[argv.index("--ideal") + 1] = "[1]"
        elif case == "row file without row":
            (tmp_path / "row.json").write_text('{"foo": 1}')
        elif case == "row wrapper with an unknown key":
            row = json.loads((tmp_path / "row.json").read_text())
            (tmp_path / "row.json").write_text(
                json.dumps({"row": row, "junk": 1}))
        elif case.startswith("row "):
            row = json.loads((tmp_path / "row.json").read_text())
            row[0] = ({"val": 0, "coeffs": ["2", "1"], "prec": 1}
                      if case == "row coefficient past its prec"
                      else {**row[0], "extra": 1})
            (tmp_path / "row.json").write_text(json.dumps(row))
        elif case.startswith("complete-row prec"):
            argv[argv.index("--prec") + 1] = case.split()[-1]
        elif case.startswith("ideal "):
            argv[argv.index("--domain") + 1] = "quad:-5:id"
            argv[argv.index("--ideal") + 1] = {
                "ideal b past a": '{"hnf":[2,65537,1]}',
                "ideal with a reducible den": '{"hnf":[2,0,2],"den":2}',
                "ideal with two spellings":
                    '{"hnf":[2,1,1],"gens":["2","1+1*w"]}',
                "ideal with den beside gens": '{"gens":["2","1+1*w"],"den":1}',
                "ideal with an unknown key": '{"hnf":[2,1,1],"extra":1}',
            }[case]
        else:
            (tmp_path / "t.json").write_text("[1, 2]")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_row_and_witness_files_may_wrap_their_array(tmp_path, capsys, zz):
    """{"row": [...]} and {"witness": [...]} give the bytes of the bare
    arrays."""
    argv = classic_row_argv(tmp_path, zz)
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "bare.json"))
    assert code == 0
    for key in ("row", "witness"):
        path = Path(argv[argv.index(f"--{key}") + 1])
        path.write_text(json.dumps({key: json.loads(path.read_text())}))
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "wrapped.json"))
    assert code == 0
    assert ((tmp_path / "wrapped.json").read_bytes()
            == (tmp_path / "bare.json").read_bytes())


@pytest.mark.parametrize("command", ["extend", "complete-row",
                                     "demo zsqrt-5", "demo stable-rank"])
def test_each_certificate_is_verified_once(tmp_path, capsys, monkeypatch, zz,
                                           command):
    """An extension is checked once by verify_extension_certificate; a
    completion once by verify_final_conversion, and verify_completion
    never runs inside the engine, whose steps make its other checks."""
    out = ["--out", str(tmp_path / "cert.json")]
    if command == "extend":
        # the repair case builds two candidates and emits one certificate
        module, names = extension, ["verify_extension_certificate"]
        argv = ["extend", "--domain", "quad:-5:id",
                "--gens", '["2+1*x^1","1+1*w"]', "--prec", "8", *out]
    elif command == "demo zsqrt-5":
        module, names = extension, ["verify_extension_certificate"]
        argv = command.split()
    else:
        module, names = completion, ["verify_final_conversion",
                                     "verify_completion"]
        argv = (command.split() if command.startswith("demo")
                else [*classic_row_argv(tmp_path, zz), *out])
    calls = {name: 0 for name in names}

    def counting(name, verifier):
        def check(cert):
            calls[name] += 1
            return verifier(cert)
        return check

    for name in names:
        monkeypatch.setattr(module, name,
                            counting(name, getattr(module, name)))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == dict(zip(names, [1, 0]))


def test_internal_verification_failure_exits_3(tmp_path, capsys, monkeypatch,
                                               zz):
    def failing(cert):
        rep = VerifyReport()
        rep.add("final * final_inv = Id", False, "", 3)
        return rep

    monkeypatch.setattr(completion, "verify_final_conversion", failing)
    code, _, err = run(capsys, *classic_row_argv(tmp_path, zz))
    assert code == 3
    assert err == ("verification failure: internal verification failed: "
                   "FAIL: final * final_inv = Id at order 3\n")


def plus_one_at(mat, r, c, order):
    """mat with 1 added to entry (r, c) at the given order."""
    rows = [list(row) for row in mat.rows]
    f = rows[r][c]
    coeffs = {i: f.coeff(i) for i in range(f.val, f.val + len(f.coeffs))}
    coeffs[order] = coeffs.get(order, mat.dom.fzero) + 1
    low = min(coeffs)
    rows[r][c] = TruncatedSeries(
        mat.dom, low, [coeffs.get(i, mat.dom.fzero)
                       for i in range(low, max(coeffs) + 1)], f.known_to)
    return SeriesMatrix(mat.dom, rows)


def assert_identity_check_refuses(tmp_path, capsys, zz):
    out_path = tmp_path / "cert.json"
    code, _, err = run(capsys, *classic_row_argv(tmp_path, zz),
                       "--out", str(out_path))
    assert code == 3
    assert not out_path.exists()
    assert err.startswith("verification failure: internal verification "
                          "failed: ")
    assert err.count("\n") == 1
    assert "FAIL: final * final_inv = Id at order " in err


def test_perturbed_final_inverse_exits_3(tmp_path, capsys, monkeypatch, zz):
    """One wrong coefficient of the relaxed solve is caught by the
    engine's own identity products, which nothing before them makes."""
    divide = completion.right_divide

    def wrong(b, a, prec):
        x = divide(b, a, prec)
        return plus_one_at(x, 0, 0, x.rows[0][0].val)

    monkeypatch.setattr(completion, "right_divide", wrong)
    assert_identity_check_refuses(tmp_path, capsys, zz)


def test_perturbed_top_level_h_exits_3(tmp_path, capsys, monkeypatch, zz):
    """H of the top step (the one lift of the depth-1 classic row) off by
    one at order n: final_inv is T H^-1 up to scaling, so the identity
    products catch it although the chain's checks are not rerun."""
    lift = completion.lift_invertibility

    def wrong(child, ctx, bound):
        data = lift(child, ctx, bound)
        return dataclasses.replace(data, H=plus_one_at(data.H, 0, 0, data.n))

    monkeypatch.setattr(completion, "lift_invertibility", wrong)
    assert_identity_check_refuses(tmp_path, capsys, zz)


def test_complete_row_command(tmp_path, capsys, zz):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, *classic_row_argv(tmp_path, zz),
                       "--out", str(out_path))
    assert code == 0
    assert "reduction depth n = 1" in out
    code, _, _ = run(capsys, "verify", str(out_path))
    assert code == 0


def test_complete_row_not_unimodular_exits_3(tmp_path, capsys, zz):
    row_path = tmp_path / "row.json"
    wit_path = tmp_path / "t.json"
    row_path.write_text(json.dumps([
        series_to_json(parse_series(zz, "2+1*x^1")),
        series_to_json(parse_series(zz, "4+3*x^1")),
    ]))
    wit_path.write_text(json.dumps([
        series_to_json(parse_series(zz, "1")),
        series_to_json(parse_series(zz, "1")),
    ]))
    code, _, err = run(capsys, "complete-row", "--domain", "int",
                       "--ideal", '{"hnf":[1]}', "--row", str(row_path),
                       "--witness", str(wit_path), "--prec", "6")
    assert code == 3


def test_report_command(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", "--domain", "quad:-5:id",
                       "--out", str(out_path))
    assert code == 0
    assert "class number h = 2" in out
    assert "the proper ideal aD = hnf(2,0,2)" in out
    payload = json.loads(out_path.read_text())
    assert payload["k0"].endswith("Z + Z/2")
    again = tmp_path / "again.json"
    code, _, _ = run(capsys, "report", "--domain", "quad:-5:id",
                     "--out", str(again))
    assert code == 0
    assert again.read_bytes() == out_path.read_bytes()


def test_report_without_out_prints_the_json(tmp_path, capsys):
    """Without --out, report prints its text and then the JSON that --out
    would write."""
    argv = ["report", "--domain", "quad:-5:id"]
    out_path = tmp_path / "report.json"
    code, to_file, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    code, printed, _ = run(capsys, *argv)
    assert code == 0
    text = to_file.removesuffix(f"wrote {out_path}\n")
    assert printed == text + out_path.read_text()
    assert json.loads(printed.splitlines()[-1])["k0"].endswith("Z + Z/2")


def test_demos_run_clean(capsys):
    for name in ("hilbert", "zsqrt-5", "gauss-conj", "stable-rank"):
        code, out, _ = run(capsys, "demo", name)
        assert code == 0, name
        assert "FAIL" not in out
        assert "demo complete" in out


def test_determinism_byte_identical(tmp_path, capsys):
    digests = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run(capsys, "extend", "--domain", "quad:-5:conj",
                         "--gens", '["2+1*x^1","1+1*w"]', "--prec", "10",
                         "--out", str(path))
        assert code == 0
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_canonical_json_is_sorted_and_compact():
    text = canonical_json({"b": 1, "a": [2, {"z": 3, "y": 4}]})
    assert text == '{"a":[2,{"y":4,"z":3}],"b":1}\n'


def test_precision_deficit_exits_5(capsys):
    code, _, err = run(capsys, "extend", "--domain", "int",
                       "--gens", '["2+1*x^1+O(x^3)"]', "--prec", "8")
    assert code == 5
    assert "precision deficit" in err


def test_row_short_of_prec_plus_2n_exits_5(tmp_path, capsys, any_domain):
    """The seed-51 rows at depths 1 and 2 cut to prec + 2n - 1 known
    orders exit 5 with a deficit of 1 (not 3 from the engine's own
    check); cut to prec + 2n they certify and verify."""
    from conftest import completion_test_ideal, seed_51_rows, truncated
    from skewdd.textio import format_domain

    dom, prec = any_domain, 8
    domain = format_domain(dom.spec)
    ideal = json.dumps(completion_test_ideal(dom).to_json())
    row_path, wit_path = tmp_path / "row.json", tmp_path / "t.json"
    out = tmp_path / "cert.json"
    for shaped, t, n in seed_51_rows(dom, {1, 2}):
        wit_path.write_text(json.dumps([series_to_json(col[0])
                                        for col in t.rows]))
        for short in (1, 0):
            row = truncated(shaped.row, prec + 2 * n - short)
            row_path.write_text(json.dumps([series_to_json(s)
                                            for s in row.rows[0]]))
            code, _, err = run(
                capsys, "complete-row", "--domain", domain, "--ideal", ideal,
                "--row", str(row_path), "--witness", str(wit_path),
                "--prec", str(prec), "--out", str(out))
            if short:
                assert code == 5, err
                assert "precision deficit" in err
                assert err.rstrip().endswith("deficit 1")
            else:
                assert code == 0, err
                assert run(capsys, "verify", str(out))[0] == 0


def test_search_obstruction_exits_4(tmp_path, capsys, root2):
    import random as _random

    from conftest import completion_test_ideal, random_unimodular_row
    rng = _random.Random(3)
    j_lat = completion_test_ideal(root2)
    while True:
        shaped, t = random_unimodular_row(root2, j_lat, rng)
        if min(s.val for col in t.rows for s in col if s.coeffs) < 0:
            break
    row_path = tmp_path / "row.json"
    wit_path = tmp_path / "t.json"
    row_path.write_text(json.dumps([series_to_json(s)
                                    for s in shaped.row.rows[0]]))
    wit_path.write_text(json.dumps([series_to_json(col[0])
                                    for col in t.rows]))
    argv = ["complete-row", "--domain", "quad:2:conj",
            "--ideal", json.dumps(j_lat.to_json()), "--row", str(row_path),
            "--witness", str(wit_path), "--prec", "6"]
    # the default bound finds every generator; what it found is
    # remembered, yet the same input at bound 0 still exits 4, and the
    # default bound exits 0 again afterwards
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv, "--bound", "0")
    assert code == 4
    assert "obstruction" in err
    assert run(capsys, *argv)[0] == 0


def test_negative_bound_is_a_usage_error(tmp_path, capsys, zz):
    code, out, err = run(capsys, *classic_row_argv(tmp_path, zz),
                         "--bound", "-7")
    assert code == 2
    assert out == ""
    assert err == "error: --bound must be at least 0, not -7\n"


def test_certificates_verify_in_fresh_process(tmp_path, zz):
    ext_path = tmp_path / "ext.json"
    assert fresh("-m", "skewdd.cli", "extend", "--domain", "quad:-5:conj",
                 "--gens", '["2+1*x^1","1+1*w"]', "--prec", "8",
                 "--out", str(ext_path)).returncode == 0
    cpl_path = tmp_path / "cpl.json"
    assert fresh("-m", "skewdd.cli", *classic_row_argv(tmp_path, zz),
                 "--out", str(cpl_path)).returncode == 0
    for path in (ext_path, cpl_path):
        check = fresh("-m", "skewdd.cli", "verify", str(path))
        assert check.returncode == 0
        assert "FAIL" not in check.stdout


@pytest.mark.parametrize("argv", [
    ["classgroup", "--domain", "quad:-5:id"],
    ["report", "--domain", "quad:-5:conj"],
    ["report", "--domain", "quad:2:conj"],   # refused: exit 2
    *(["demo", name] for name in sorted(cli.DEMOS)),
], ids=" ".join)
def test_fresh_process_matches_in_process(capsys, argv):
    """Each command gives the same exit code, stdout and stderr in a new
    interpreter, which loads each engine on the command's first use of
    it, as in this one, where earlier tests have loaded them all."""
    child = fresh("-m", "skewdd", *argv)
    code, out, err = run(capsys, *argv)
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err)
    if argv[-1] == "quad:2:conj":
        assert code == 2 and err.startswith("error: ")
        assert err.count("\n") == 1
    else:
        assert code == 0 and out


ENGINES = {"completion", "extension", "structure", "classgroup"}

# runs the commands given as a JSON list of argv lists, and after each
# prints which engines have executed; type() reads no module attribute,
# so looking does not load an engine
ENGINE_PROBE = """
import json, sys, types
from skewdd.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    ran = [name.split(".")[1] for name, mod in sys.modules.items()
           if name.startswith("skewdd.") and type(mod) is types.ModuleType]
    print("engines run:", json.dumps([code, sorted(ran)]))
"""


def engines_run(*runs):
    """(exit code, engines executed so far) after each run, in one new
    interpreter."""
    child = fresh("-c", ENGINE_PROBE, json.dumps(runs))
    assert child.returncode == 0, child.stderr
    prefix = "engines run: "
    return [(code, ENGINES.intersection(ran)) for code, ran in
            (json.loads(line.removeprefix(prefix))
             for line in child.stdout.splitlines()
             if line.startswith(prefix))]


def test_commands_execute_only_the_engines_they_use(tmp_path, zz):
    """complete-row and verify of its certificate never execute extension,
    structure or classgroup; extend and verify of its certificate never
    execute completion; report executes only structure and the
    classgroup engine it builds on."""
    cpl, ext = tmp_path / "cpl.json", tmp_path / "ext.json"
    assert engines_run(
        [*classic_row_argv(tmp_path, zz), "--out", str(cpl)],
        ["verify", str(cpl)],
    ) == [(0, {"completion"}), (0, {"completion"})]
    assert engines_run(["report", "--domain", "quad:-5:id"]) \
        == [(0, {"structure", "classgroup"})]
    assert engines_run(
        ["extend", "--domain", "quad:-5:conj", "--gens",
         '["2+1*x^1","1+1*w"]', "--prec", "8", "--out", str(ext)],
        ["verify", str(ext)],
    ) == [(0, {"extension"}), (0, {"extension"})]


def test_python_dash_m_skewdd_runs_the_command_line(tmp_path):
    """`python -m skewdd verify` on the pinned unit-difference certificate
    (tests/test_pins.py) exits 0, as the installed script does."""
    out = tmp_path / "cert.json"
    assert main(["extend", "--domain", "int", "--gens", '["2","2+1*x^5"]',
                 "--prec", "12", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a46e95689456bb6f3346e6d4e4f9531ac5c7becd5892e698c6f7c3b0ad99dc35")
    check = fresh("-m", "skewdd", "verify", str(out))
    assert check.returncode == 0, check.stderr
    assert "FAIL" not in check.stdout


def test_unknown_schema_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    # an unknown schema, and files that are not a JSON object at all
    for text in ('{"schema": "nonsense/v9"}', "[]", '"x"'):
        path.write_text(text)
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
