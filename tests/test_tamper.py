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
