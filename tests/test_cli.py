import hashlib
import json

import pytest

from skewdd import completion, extension
from skewdd.cli import main
from skewdd.reporting import VerifyReport
from skewdd.textio import canonical_json, parse_series, series_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_extend_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extend", "--domain", "int"])
    assert exc.value.code == 2


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


MALFORMED = {
    "drop q": lambda obj: obj.pop("q"),
    "one generator": lambda obj: obj.update(g=obj["g"][:1]),
    "one row of A": lambda obj: obj.update(A=obj["A"][:1]),
    "zero denominator": lambda obj: obj["q"]["coeffs"].__setitem__(0, "1/0"),
    "domain not an object": lambda obj: obj.update(domain="int"),
    "numeric g0": lambda obj: obj.update(g0=[1, 2]),
    "non-numeric prec": lambda obj: obj.update(prec="abc"),
    "non-numeric val": lambda obj: obj["q"].update(val="a"),
    "unparsable coefficient": lambda obj: obj["q"]["coeffs"].__setitem__(0, "zz"),
    "two-entry hnf": lambda obj: obj["ideal"].update(hnf=[1, 0]),
    "non-integral ideal": lambda obj: obj.update(ideal={"hnf": [1, 0, 1], "den": 2}),
    "non-squarefree d": lambda obj: obj["domain"].update(d=4),
    "three-entry g0": lambda obj: obj["g0"].append("1"),
}


@pytest.mark.parametrize("tamper", list(MALFORMED))
def test_verify_malformed_certificate_exits_3(tmp_path, capsys, tamper):
    out_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "extend", "--domain", "quad:-5:id",
                     "--gens", '["2+1*x^1","1+1*w"]', "--prec", "6",
                     "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    MALFORMED[tamper](obj)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", str(bad_path))
    assert code == 3
    assert err.startswith("verification failure: malformed")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["extend", "complete-row",
                                     "demo zsqrt-5", "demo stable-rank"])
def test_each_certificate_is_verified_once(tmp_path, capsys, monkeypatch, zz,
                                           command):
    out = ["--out", str(tmp_path / "cert.json")]
    if command == "extend":
        # the repair case builds two candidates and emits one certificate
        module, name = extension, "verify_extension_certificate"
        argv = ["extend", "--domain", "quad:-5:id",
                "--gens", '["2+1*x^1","1+1*w"]', "--prec", "8", *out]
    elif command == "complete-row":
        module, name = completion, "verify_completion"
        argv = [*classic_row_argv(tmp_path, zz), *out]
    elif command == "demo zsqrt-5":
        module, name = extension, "verify_extension_certificate"
        argv = command.split()
    else:
        module, name = completion, "verify_completion"
        argv = command.split()
    verifier = getattr(module, name)
    calls = []

    def counting(cert):
        calls.append(cert)
        return verifier(cert)

    monkeypatch.setattr(module, name, counting)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_internal_verification_failure_exits_3(tmp_path, capsys, monkeypatch,
                                               zz):
    def failing(cert):
        rep = VerifyReport()
        rep.add("final * final_inv = Id", False, "", 3)
        return rep

    monkeypatch.setattr(completion, "verify_completion", failing)
    code, _, err = run(capsys, *classic_row_argv(tmp_path, zz))
    assert code == 3
    assert err == ("verification failure: internal verification failed: "
                   "FAIL: final * final_inv = Id at order 3\n")


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
                       "--seed", "1", "--samples", "20",
                       "--out", str(out_path))
    assert code == 0
    assert "class number h = 2" in out
    payload = json.loads(out_path.read_text())
    assert payload["k0"].endswith("Z + Z/2")


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
                         "--seed", "5", "--out", str(path))
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
    ideal_json = json.dumps(j_lat.to_json())
    code, _, err = run(capsys, "complete-row", "--domain", "quad:2:conj",
                       "--ideal", ideal_json, "--row", str(row_path),
                       "--witness", str(wit_path), "--prec", "6",
                       "--bound", "0")
    assert code == 4
    assert "obstruction" in err


def test_certificates_verify_in_fresh_process(tmp_path, zz):
    import subprocess
    import sys

    def fresh(args):
        return subprocess.run([sys.executable, "-m", "skewdd.cli", *args],
                              capture_output=True, text=True)

    ext_path = tmp_path / "ext.json"
    assert fresh(["extend", "--domain", "quad:-5:conj", "--gens",
                  '["2+1*x^1","1+1*w"]', "--prec", "8",
                  "--out", str(ext_path)]).returncode == 0
    cpl_path = tmp_path / "cpl.json"
    assert fresh([*classic_row_argv(tmp_path, zz),
                  "--out", str(cpl_path)]).returncode == 0
    for path in (ext_path, cpl_path):
        check = fresh(["verify", str(path)])
        assert check.returncode == 0
        assert "FAIL" not in check.stdout


def test_unknown_schema_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    # an unknown schema, and files that are not a JSON object at all
    for text in ('{"schema": "nonsense/v9"}', "[]", '"x"'):
        path.write_text(text)
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
