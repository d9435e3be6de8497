"""Tests for the benchmark's own code.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# ------------------------------------------------------------------ percentiles
def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7.0], 90) == 7.0


def test_p90_needs_ten_samples_beyond_it():
    assert run.samples_beyond(100, 90) == 10
    assert run.tail_ok(100)
    assert not run.tail_ok(99)
    assert run.tail_ok(1000, 99) and not run.tail_ok(999, 99)
    assert run.MIN_JOBS >= 100 and run.tail_ok(run.MIN_JOBS)


def test_reference_leaves_the_collector_on():
    import gc

    assert run.reference_ms() > 0
    assert gc.isenabled()


# ------------------------------------------------------------------ self time
def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    recorded = [["p", 0.0, 10.0, -1, 0],
                ["c1", 2.0, 6.0, 0, 0],
                ["c2", 4.0, 8.0, 0, 0]]
    assert spans.self_times(recorded)[0] == pytest.approx(4.0)


def test_busy_counts_nested_same_name_once_and_calls_under():
    recorded = [
        ["mul", 0.0, 4.0, -1, 0],
        ["mul", 1.0, 2.0, 0, 0],
        ["echelon", 5.0, 6.0, -1, 0],
        ["window", 7.0, 10.0, -1, 0],
        ["ring_gens", 7.5, 9.0, 3, 0],
        ["echelon", 8.0, 8.5, 4, 0],
    ]
    an = spans.Analysis(recorded)
    assert an.busy("mul") == 4.0
    assert an.busy("echelon") == 1.5
    assert an.busy("mul", "echelon") == 5.5
    assert an.calls("echelon") == 2
    assert an.calls("echelon", under="window") == 1
    assert an.self_sum("window") == pytest.approx(1.5)


# ------------------------------------------------------------------ wrappers
class Widget:
    def grow(self, k):
        return k + 1

    twin = grow


def helper(x):
    return x * 2


def test_patch_wraps_every_binding_site_and_restores():
    import types

    home = types.ModuleType("home")
    home.helper = helper
    home.Widget = Widget
    user = types.ModuleType("user")
    user.helper = helper          # imported by name into another module
    modules = {"home": home, "user": user}
    rec = spans.Recorder()
    patch = spans.Patch(modules, {
        "home.helper": rec.wrapper("helper"),
        "home.Widget.grow": rec.wrapper("grow"),
    })
    with patch:
        assert home.helper(2) == 4 and user.helper(3) == 6
        assert Widget().grow(1) == 2 and Widget().twin(1) == 2
        assert home.helper is not helper
    assert [s[0] for s in rec.spans] == ["helper", "helper", "grow", "grow"]
    assert home.helper is helper and user.helper is helper
    assert vars(Widget)["grow"] is vars(Widget)["twin"]
    assert vars(Widget)["grow"].__name__ == "grow"
    Widget().grow(1)
    assert len(rec.spans) == 4


def test_patch_restores_after_an_exception():
    import types

    home = types.ModuleType("home")
    home.helper = helper
    counts = {}
    with pytest.raises(RuntimeError):
        with spans.Patch({"home": home}, {"home.helper": spans.counter(counts, "h")}):
            home.helper(1)
            raise RuntimeError
    assert home.helper is helper and counts == {"h": 1}


def test_span_records_parent_and_job():
    rec = spans.Recorder()
    inner = rec.wrapper("inner")(lambda: None)
    outer = rec.wrapper("outer")(lambda: inner())
    rec.job = 7
    outer()
    assert [(s[0], s[3], s[4]) for s in rec.spans] == [("outer", -1, 7),
                                                       ("inner", 0, 7)]
    assert rec.spans[0][1] <= rec.spans[1][1] <= rec.spans[1][2] <= rec.spans[0][2]


# ------------------------------------------------------------------ generator
@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = [gen.make_job(workload, 3, i) for i in range(6)]
    again = [gen.make_job(workload, 3, i) for i in range(6)]
    other = [gen.make_job(workload, 4, i) for i in range(6)]
    assert first == again
    assert first != other
    assert gen.make_job(workload, 3, 2, stream="warm") != first[2]
    wl = gen.WORKLOADS[workload]
    assert [j.domain for j in first] == [wl.domains[i % len(wl.domains)]
                                         for i in range(6)]


def test_generated_inputs_match_the_library():
    """The hard-coded ideal bases and the element text agree with skewdd."""
    from skewdd import ideals, textio
    from skewdd.domains import get_domain

    for name, dom in gen.DOMAINS.items():
        d = get_domain(textio.parse_domain(name))

        def felem(x):
            return d.felem(x[0], x[1])

        j = textio.ideal_lattice_from_json(d, {"hnf": list(dom.j_hnf)})
        assert ideals.from_generators(d, [felem(x) for x in dom.j]) == j.to_frac()
        for p in (0, 1):
            assert ideals.from_generators(d, [felem(x) for x in dom.jinv[p]]) \
                == j.to_frac().inverse().sigma(p)
        assert not ideals.from_generators(d, [felem(x) for x in dom.p]).is_unit
        for x in [(gen.F(3, 2), gen.F(-5, 2)), (gen.F(0), gen.F(-1)),
                  (gen.F(-7), gen.F(0)), (gen.F(0), gen.F(0))]:
            if x[1] and name == "int":
                continue
            assert gen.fmt_elem(x) == textio.format_field_elem(felem(x))


def test_generated_row_is_unimodular():
    from skewdd import textio
    from skewdd.domains import get_domain
    from skewdd.series import SeriesMatrix

    for i in range(5):
        job = gen.make_job("complete-p8", 11, i)
        d = get_domain(textio.parse_domain(job.domain))
        row = SeriesMatrix(d, [[textio.series_from_json(d, s)
                                for s in job.files["row.json"]]])
        wit = SeriesMatrix(d, [[textio.series_from_json(d, s)]
                               for s in job.files["witness.json"]])
        prod = (row @ wit).rows[0][0]
        assert prod.coeffs == (d.fone,) and prod.val == 0
        assert [textio.series_to_json(s) for s in row.rows[0]] \
            == job.files["row.json"]


def test_window_generators_escape_at_m():
    """Coefficients lie in P below m, and the window reaches (1) at m."""
    from skewdd import extension, ideals, textio
    from skewdd.domains import get_domain

    for k, name in enumerate(gen.ALL_DOMAINS):
        d = get_domain(textio.parse_domain(name))
        dom = gen.DOMAINS[name]
        p = ideals.from_ring_generators(
            d, [d.felem(*x).as_ring() for x in dom.p])
        for slot, m in enumerate(gen.ESCAPES):
            job = gen.make_job("extend-window", 3, k + slot * len(gen.ALL_DOMAINS))
            gens = [textio.parse_series(d, s) for s in json.loads(job.args[4])]
            assert all(g.valuation() == 0 for g in gens)
            assert all(p.contains(g.coeff(i).as_ring())
                       for g in gens for i in range(m))
            assert not extension._OrderWindow(d, gens, m - 1) \
                .level_ideal(m - 1).is_unit_ideal
            assert extension._OrderWindow(d, gens, m).level_ideal(m).is_unit_ideal


def test_runner_completes_a_job_and_checks_it(tmp_path):
    modules = run.load_program()
    job = gen.make_job("extend-window", 1, 0)
    res = run.run_job(modules["cli"].main, job, tmp_path)
    assert res.ok and res.detail == ""
    job = gen.make_job("complete-p8", 1, 1)
    res = run.run_job(modules["cli"].main, job, tmp_path)
    assert res.ok and res.detail == ""
    other = gen.make_job("complete-p8", 1, 2)
    assert run.check_certificate(other, res.data) != ""


def test_digest_gate_compares_with_the_pin(tmp_path):
    checked = run.Run("complete-p8", 0, 0.0, tmp_path, run.MIN_TRACE_JOBS)
    assert "incomplete" in checked.check_digest(run.MIN_TRACE_JOBS - 1)
    for index in range(run.MIN_TRACE_JOBS):
        checked.record(index, run.Result(0.0, 0.0, True, b"{}"))
    assert "MISMATCH" in checked.check_digest(run.MIN_TRACE_JOBS)
    assert len(checked.problems) == 2
    unpinned = run.Run("complete-p8", 12345, 0.0, tmp_path, run.MIN_JOBS)
    for index in range(run.MIN_JOBS):
        unpinned.record(index, run.Result(0.0, 0.0, True, b"{}"))
    assert "not pinned" in unpinned.check_digest(run.MIN_JOBS)
    assert unpinned.problems == []
