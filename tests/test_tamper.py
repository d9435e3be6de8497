"""Tamper sweep: `skewdd verify` rejects every single-field edit of a
pinned certificate, with one stderr line at most and never a crash.

The certificates come from seed-0 jobs of the benchmark's own generator
(bench/gen.py and bench/run.py are imported, not changed): extend-window
job 1 over quad:-5:id and complete-p8 jobs 2 and 4 over quad:-5:conj and
quad:2:conj. The fields swept are read from the schema's declaration
(skewdd.textio.CERTIFICATES). One field at a time is replaced by each
hostile value: every declared field but `audit` (which verify does not
read), every domain field, hnf entry and g0 entry, and the val, prec and
first coefficient of every series; g0 is also written as one string of
its entries and with three entries. Then an unknown key is added to one
object at a time: the top level, the domain, each ideal and each
series. The sweep is repeated after the clean certificate passed verify
in the same process, and an in-memory sweep nudges one coefficient of
one series at a time beside the series of a certificate that was just
verified, whose integer lanes are kept.
"""

import contextlib
import importlib
import io
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402

from skewdd import cli, textio  # noqa: E402
from skewdd.errors import SkewError  # noqa: E402
from skewdd.series import SeriesMatrix, TruncatedSeries  # noqa: E402
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


def _kinds(cert):
    """The declared kind of each field of a certificate object but audit."""
    return {key: kind for key, kind in
            textio.CERTIFICATES[cert["schema"]].KINDS.items()
            if kind != "audit"}


def _is_matrix(kind):
    return isinstance(kind, tuple) and isinstance(kind[0], int)


def tamper_paths(cert):
    yield ("schema",)
    for key, kind in _kinds(cert).items():
        yield (key,)
        if kind == "domain":
            yield from ((key, k) for k in cert[key])
        elif kind == "ideal":
            yield from ((key, "hnf", i) for i in range(len(cert[key]["hnf"])))
        elif kind == "pair":
            yield from ((key, i) for i in range(len(cert[key])))
        else:
            yield from _series_fields(cert[key], (key,))


def _objects(obj, path):
    """Paths of obj and of every JSON object inside it."""
    if isinstance(obj, dict):
        yield path
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for step, item in items:
        yield from _objects(item, path + (step,))


def object_paths(cert):
    """Paths of the top level, the domain, each ideal and each series."""
    yield ()
    for key in _kinds(cert):
        yield from _objects(cert[key], (key,))


# objects per certificate: 1 + domain + ideal + g (2) + A (4) + q, and
# 1 + domain + 2 ideals + 3 rows or columns (2 each) + 4 matrices (4 each)
UNKNOWN_KEY_EDITS = {"extension-cert/v1": 10, "completion-cert/v1": 26}


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


def hostile_values(cert, path):
    """HOSTILE, and for a pair field two more spellings: its entries
    joined into one string, and three entries."""
    if len(path) == 1 and _kinds(cert).get(path[0]) == "pair":
        pair = cert[path[0]]
        return [*HOSTILE, "".join(pair), pair + pair[:1]]
    return HOSTILE


def _single_field_sweep(tmp_path, cert):
    """(value edits, unknown-key edits, unexpected) of verify on each
    single-field edit of cert."""
    bad_path = tmp_path / "tampered.json"
    unexpected, cases = [], 0
    for path in tamper_paths(cert):
        for value in hostile_values(cert, path):
            edited, original = _replaced(cert, path, value)
            if json.dumps(value) == json.dumps(original):
                continue
            cases += 1
            bad_path.write_text(json.dumps(edited))
            code, err = _verify(bad_path)
            want = 2 if path == ("schema",) else 3
            if code != want or err.count("\n") > 1:
                unexpected.append((path, value, code, err[:200]))
    added = 0
    for path in object_paths(cert):
        edited = json.loads(json.dumps(cert))
        target = edited
        for step in path:
            target = target[step]
        target["unknown"] = 1
        added += 1
        bad_path.write_text(json.dumps(edited))
        code, err = _verify(bad_path)
        if code != 3 or err.count("\n") != 1 or "malformed" not in err:
            unexpected.append((path, "unknown key", code, err[:200]))
    return cases, added, unexpected


@pytest.mark.parametrize("workload, index, edits", [
    ("extend-window", 1, 212), ("complete-p8", 2, 510), ("complete-p8", 4, 510)])
def test_verify_rejects_every_single_field_edit(tmp_path, workload, index,
                                                edits):
    """`edits` hostile-value edits, then one unknown key per object."""
    job = gen.make_job(workload, 0, index)
    res = run.run_job(cli.main, job, tmp_path)
    assert res.ok, res.detail
    cert = json.loads(res.data)
    assert _single_field_sweep(tmp_path, cert) == (
        edits, UNKNOWN_KEY_EDITS[cert["schema"]], [])


@pytest.mark.parametrize("workload, index, edits", [
    ("extend-window", 1, 212), ("complete-p8", 2, 510)])
def test_edits_are_rejected_after_a_clean_verify(tmp_path, workload, index,
                                                 edits):
    """The verdict does not depend on what the process verified before:
    the same sweep, after the clean certificate passed verify in this
    process."""
    job = gen.make_job(workload, 0, index)
    res = run.run_job(cli.main, job, tmp_path)   # verifies the clean file
    assert res.ok, res.detail
    clean_path = tmp_path / "clean.json"
    clean_path.write_bytes(res.data)
    assert _verify(clean_path) == (0, "")
    cert = json.loads(res.data)
    assert _single_field_sweep(tmp_path, cert) == (
        edits, UNKNOWN_KEY_EDITS[cert["schema"]], [])


@pytest.mark.parametrize("g0", ["35", ["3", "5", "3"]],
                         ids=["one string", "three entries"])
def test_pair_is_an_array_of_two_strings(tmp_path, g0):
    """A g0 whose characters each parse, written as one string, and a g0
    of three entries are both malformed, naming g0."""
    cert = _certificate(tmp_path, ["extend", "--domain", "int", "--gens",
                                   '["3+1*x^1","5"]', "--prec", "4"])
    assert cert["g0"] == ["3", "5"]
    bad_path = tmp_path / "pair.json"
    bad_path.write_text(json.dumps({**cert, "g0": g0}))
    code, err = _verify(bad_path)
    assert code == 3 and err.count("\n") == 1, err
    assert err.startswith("verification failure: malformed") and "g0" in err


def _nudged(s):
    """s with its lowest stored coefficient plus 1; s itself if none."""
    if not s.coeffs:
        return s
    return TruncatedSeries(s.dom, s.val, (s.coeffs[0] + 1, *s.coeffs[1:]),
                           s.known_to)


def _nudged_entries(cert):
    """(field, entry, cert) with one series entry nudged; every other
    series is the object of cert itself."""
    for field in fields(cert):
        value = getattr(cert, field.name)
        if isinstance(value, TruncatedSeries):
            if value.coeffs:
                yield field.name, (), replace(cert, **{field.name:
                                                       _nudged(value)})
        elif isinstance(value, SeriesMatrix):
            for r, row in enumerate(value.rows):
                for c, s in enumerate(row):
                    if not s.coeffs:
                        continue
                    rows = [list(x) for x in value.rows]
                    rows[r][c] = _nudged(s)
                    yield field.name, (r, c), replace(cert, **{
                        field.name: SeriesMatrix(value.dom, rows)})


@pytest.mark.parametrize("workload, index, edits", [
    ("extend-window", 1, 5), ("complete-p8", 2, 19), ("complete-p32", 0, 18)])
def test_nudged_entry_fails_beside_series_already_verified(
        tmp_path, workload, index, edits):
    """One coefficient changed by 1 in one series of a certificate that
    has just been verified, every other series shared with it (so their
    integer lanes are already kept): each such certificate fails, and the
    clean one still passes after them."""
    job = gen.make_job(workload, 0, index)
    res = run.run_job(cli.main, job, tmp_path)
    assert res.ok, res.detail
    cert = textio.certificate_from_json(json.loads(res.data))
    engine, _, name = cert.VERIFIER.partition(".")
    check = getattr(importlib.import_module(f"skewdd.{engine}"), name)
    assert check(cert).ok
    passed, cases = [], 0
    for name, entry, edited in _nudged_entries(cert):
        cases += 1
        try:
            ok = check(edited).ok
        except (ArithmeticError, ValueError, SkewError):
            ok = False
        if ok:
            passed.append((name, entry))
    assert cases == edits
    assert passed == []
    assert check(cert).ok


def shape_edits(cert):
    """(field, edit, cert) with one matrix field's last row or column
    repeated or dropped. A "row" field (`g`) is stored as one flat row, so
    only its columns change."""
    for key, kind in _kinds(cert).items():
        if kind != "row" and not _is_matrix(kind):
            continue
        m = cert[key]
        if kind == "row":
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
