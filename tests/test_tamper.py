"""Tamper sweep: `skewdd verify` rejects every single-field edit of a
pinned certificate, with one stderr line at most and never a crash.

The certificates come from seed-0 jobs of the benchmark's own generator
(bench/gen.py and bench/run.py are imported, not changed): extend-window
job 1 over quad:-5:id and complete-p8 jobs 2 and 4 over quad:-5:conj and
quad:2:conj. One field at a time is replaced by each hostile value:
every top-level field but `audit` (which verify does not read), every
domain field, hnf entry and g0 entry, and the val, prec and first
coefficient of every series.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402

from skewdd import cli  # noqa: E402
from skewdd.textio import MAX_ORDER  # noqa: E402

HOSTILE = [1.5, True, "x", [], {}, MAX_ORDER + 1]


def _series_fields(obj, path):
    """Paths of val, prec and the first coefficient of each series in obj."""
    if isinstance(obj, dict) and "coeffs" in obj:
        yield path + ("val",)
        yield path + ("prec",)
        if obj["coeffs"]:
            yield path + ("coeffs", 0)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _series_fields(item, path + (i,))


def tamper_paths(cert):
    for key in cert:
        if key == "audit":
            continue
        yield (key,)
        if key == "domain":
            yield from ((key, k) for k in cert[key])
        elif key in ("ideal", "a_ideal"):
            yield from ((key, "hnf", i) for i in range(len(cert[key]["hnf"])))
        elif key == "g0":
            yield from ((key, i) for i in range(len(cert[key])))
        else:
            yield from _series_fields(cert[key], (key,))


def _replaced(cert, path, value):
    out = json.loads(json.dumps(cert))
    target = out
    for step in path[:-1]:
        target = target[step]
    original = target[path[-1]]
    target[path[-1]] = value
    return out, original


def _verify(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["verify", str(path)])
        except Exception as exc:  # a crash counts as exit 1
            return 1, f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


@pytest.mark.parametrize("workload, index, edits", [
    ("extend-window", 1, 210), ("complete-p8", 2, 510), ("complete-p8", 4, 510)])
def test_verify_rejects_every_single_field_edit(tmp_path, workload, index,
                                                edits):
    job = gen.make_job(workload, 0, index)
    res = run.run_job(cli.main, job, tmp_path)
    assert res.ok, res.detail
    cert = json.loads(res.data)
    bad_path = tmp_path / "tampered.json"
    unexpected, cases = [], 0
    for path in tamper_paths(cert):
        for value in HOSTILE:
            edited, original = _replaced(cert, path, value)
            if json.dumps(value) == json.dumps(original):
                continue
            cases += 1
            bad_path.write_text(json.dumps(edited))
            code, err = _verify(bad_path)
            want = 2 if path == ("schema",) else 3
            if code != want or err.count("\n") > 1:
                unexpected.append((path, value, code, err[:200]))
    assert cases == edits
    assert unexpected == []


def shape_edits(cert):
    """(field, edit, cert) with one matrix field's last row or column
    repeated or dropped. `g` is stored as one flat row, so only its
    columns change."""
    for key in ("g", "A", "row", "witness", "b", "T", "H", "final",
                "final_inv"):
        if key not in cert:
            continue
        m = cert[key]
        if key == "g":
            edits = {"added column": m + m[-1:], "dropped column": m[:-1]}
        else:
            edits = {"added row": m + m[-1:], "dropped row": m[:-1],
                     "added column": [row + row[-1:] for row in m],
                     "dropped column": [row[:-1] for row in m]}
        for edit, value in edits.items():
            yield key, edit, {**cert, key: value}


@pytest.mark.parametrize("workload, index, edits", [
    ("extend-window", 1, 6), ("complete-p8", 2, 28), ("complete-p8", 4, 28)])
def test_verify_rejects_every_reshaped_matrix(tmp_path, workload, index,
                                              edits):
    job = gen.make_job(workload, 0, index)
    res = run.run_job(cli.main, job, tmp_path)
    assert res.ok, res.detail
    bad_path = tmp_path / "reshaped.json"
    unexpected, cases = [], 0
    for key, edit, edited in shape_edits(json.loads(res.data)):
        cases += 1
        bad_path.write_text(json.dumps(edited))
        code, err = _verify(bad_path)
        if code != 3 or err.count("\n") != 1 or "malformed" not in err:
            unexpected.append((key, edit, code, err[:200]))
    assert cases == edits
    assert unexpected == []


def _certificate(tmp_path, argv):
    out = tmp_path / "cert.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_verify_rejects_matrices_compared_on_their_overlap(tmp_path):
    """Three forgeries the verifier once accepted, since its products
    were compared with their claims entry by entry on the common part
    only: A with a third column, and H without its last row or column."""
    ext = _certificate(tmp_path, [
        "extend", "--domain", "quad:-5:id", "--gens",
        '["2+1*x^1","1+1*w"]', "--prec", "6"])
    extra = {"val": 0, "coeffs": ["7"], "prec": None}
    forged = [{**ext, "A": [row + [extra] for row in ext["A"]]}]
    (tmp_path / "row.json").write_text(json.dumps(
        [{"val": 0, "coeffs": ["2", "1"], "prec": None},
         {"val": 0, "coeffs": ["4", "3"], "prec": None}]))
    (tmp_path / "t.json").write_text(json.dumps(
        [{"val": -1, "coeffs": ["-2"], "prec": None},
         {"val": -1, "coeffs": ["1"], "prec": None}]))
    comp = _certificate(tmp_path, [
        "complete-row", "--domain", "int", "--ideal", '{"hnf":[1]}',
        "--row", str(tmp_path / "row.json"),
        "--witness", str(tmp_path / "t.json"), "--prec", "8"])
    forged += [{**comp, "H": comp["H"][:-1]},
               {**comp, "H": [row[:-1] for row in comp["H"]]}]
    bad_path = tmp_path / "forged.json"
    for cert in forged:
        bad_path.write_text(json.dumps(cert))
        code, err = _verify(bad_path)
        assert code == 3 and "malformed" in err, err
