"""Certificate bytes of jobs 0..19 at seed 0 against bench/digests.json,
the functions a traced benchmark run wraps, the counts of one
benchmark job's final inverse (elements built, coefficient matrices read)
and its agreement with the inverse-then-product route on eighty jobs per
completion workload, the full verifier's verdict on the engine's own
certificates, the counts of a verifier's comparisons, identity
product and lane reads, the
row-by-witness products and series products of a completion job, the
shape tables and second-generator scans of forty completion jobs, the
echelon rows of one ideal product, the order-window rows that an
extension job replays from an echelon's operation record, the windows
that realize each repair, the echelons of extend's order loop, and one
extension certificate of exact generators.

Each workload's first twenty jobs run through ``skewdd.cli.main`` with
the benchmark's own input generator, job runner and digest check, so a
change that alters any certificate byte fails here, not only in a
benchmark run. bench/gen.py and bench/run.py are imported, not changed.
"""

import copy
import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from skewdd import (cli, completion, domains, extension, ideals,  # noqa: E402
                    reporting, series, textio)
from conftest import (assert_same_matrix, corrected_row_text,  # noqa: E402
                      two_pass_final_inverse)

PIN_JOBS = 20
# seed-0 extend-window job on quad:-5:id with escape order 4
ESCAPE_JOB = 11
# seed-0 complete-p32 job whose final 2x2 inverse has no zero coefficient
DENSE_INVERSE_JOB = 8


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_certificates_match_pinned_digests(tmp_path, workload):
    pinned = run.Run(workload, 0, 0.0, tmp_path, PIN_JOBS)
    for index in range(PIN_JOBS):
        pinned.record(index, run.run_job(cli.main, pinned.job(index),
                                         tmp_path))
    verdict = pinned.check_digest(PIN_JOBS)
    assert pinned.problems == []
    assert verdict.endswith("(matches pinned)")


def test_traced_benchmark_targets_resolve():
    """Every function a traced benchmark run wraps still exists and is
    bound somewhere, so a rename fails here and not only under --trace 1."""
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "skewdd" or name.startswith("skewdd.")}
    try:
        modules = run.load_program()
        for target in [*run.SPAN_TARGETS.values(),
                       *run.COUNT_TARGETS.values()]:
            original = spans.resolve(modules, target)
            assert spans.binding_sites(modules, original), target
    finally:
        # load_program imports the package afresh; give the other tests
        # back the modules they already hold
        for name in [n for n in sys.modules
                     if n == "skewdd" or n.startswith("skewdd.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def final_conversion_inputs(tmp_path, monkeypatch):
    """(T', S, prec) that the final conversion of the seed-0 complete-p32
    job DENSE_INVERSE_JOB hands right_divide."""
    seen = []
    divide = completion.right_divide

    def capture(b, a, prec=None):
        seen.append((b, a, prec))
        return divide(b, a, prec)

    monkeypatch.setattr(completion, "right_divide", capture)
    job = gen.make_job("complete-p32", 0, DENSE_INVERSE_JOB)
    assert run.run_job(cli.main, job, tmp_path).ok
    monkeypatch.undo()
    (inputs,) = seen
    return inputs


def test_final_inverse_builds_one_element_per_coefficient(tmp_path,
                                                          monkeypatch):
    """The one-pass final inverse of a complete-p32 job builds at most one
    FieldElem per stored output coefficient, and none for T', for S or
    for orders past a row's bound; a fall-back to per-term field
    arithmetic builds thousands. Counted, not timed."""
    b, a, prec = final_conversion_inputs(tmp_path, monkeypatch)
    built = 0
    init = domains.FieldElem.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(domains.FieldElem, "__init__", counting)
    final_inv = series.right_divide(b, a, prec)
    monkeypatch.undo()
    # every entry is stored from its valuation up to its bound
    assert all(s.val + len(s.coeffs) == s.known_to
               for row in final_inv.rows for s in row)
    stored = sum(len(s.coeffs) for row in final_inv.rows for s in row)
    assert built <= stored


def engine_certificates(tmp_path, monkeypatch, workload, seed):
    """The certificates of jobs 0..39 as the engine returns them, taken at
    its own final check, before any JSON."""
    certs, engine = [], []
    check = completion.verify_final_conversion

    def capture(cert):
        certs.append(cert)
        return check(cert)

    monkeypatch.setattr(completion, "verify_final_conversion", capture)
    for index in range(40):
        certs.clear()
        assert run.run_job(cli.main, gen.make_job(workload, seed, index),
                           tmp_path).ok
        engine.append(certs[0])   # then verify's own call
    monkeypatch.undo()
    return engine


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["complete-p8", "complete-p32"])
def test_final_inverse_matches_the_two_pass_route(tmp_path, monkeypatch,
                                                  workload, seed):
    """The final_inv of each seed-0/1 completion job 0..39 (seed-0
    complete-p32 job DENSE_INVERSE_JOB among them), as the engine builds
    it, equals T' @ matrix_invert(S, prec + n + 2): the same coefficients
    and known_to in every entry."""
    for cert in engine_certificates(tmp_path, monkeypatch, workload, seed):
        assert_same_matrix(cert.final_inv, two_pass_final_inverse(cert))
    assert DENSE_INVERSE_JOB < 40


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["complete-p8", "complete-p32"])
def test_engine_certificates_pass_the_full_verifier(tmp_path, monkeypatch,
                                                    workload, seed):
    """The engine checks only the final conversion; every certificate it
    returns for seed-1/2 completion jobs 0..39 still passes all thirteen
    checks of verify_completion."""
    for cert in engine_certificates(tmp_path, monkeypatch, workload, seed):
        report = completion.verify_completion(cert)
        assert report.ok and len(report.checks) == 13, list(report.lines())


def test_verifier_compares_products_without_building_elements(tmp_path,
                                                               monkeypatch):
    """verify_completion on a seed-0 complete-p32 certificate builds no
    FieldElem inside disagreement: the products are compared with x^n, H
    and the identity coefficient by coefficient, not through a difference
    series. Counted, not timed."""
    job = gen.make_job("complete-p32", 0, DENSE_INVERSE_JOB)
    res = run.run_job(cli.main, job, tmp_path)
    assert res.ok
    cert = textio.certificate_from_json(json.loads(res.data))
    inside = False
    calls = built = 0
    compare = reporting.disagreement
    init = domains.FieldElem.__init__

    def counting_compare(left, right):
        nonlocal inside, calls
        calls += 1
        inside = True
        try:
            return compare(left, right)
        finally:
            inside = False

    def counting_init(self, *args):
        nonlocal built
        built += inside
        init(self, *args)

    # the row * witness line and the identities compare in
    # VerifyReport.agree
    monkeypatch.setattr(reporting, "disagreement", counting_compare)
    monkeypatch.setattr(domains.FieldElem, "__init__", counting_init)
    report = completion.verify_completion(cert)
    monkeypatch.undo()
    assert report.ok
    assert calls == 4
    assert built == 0


def test_verifier_reads_each_series_into_lanes_once(tmp_path, monkeypatch):
    """verify_completion on the seed-1 complete-p32 job 0 certificate reads
    each stored series that it multiplies in full into integer lanes at
    most once, although final and final_inv enter two products each; a
    second verify of the same loaded certificate reads none of them.
    Counted, not timed."""
    res = run.run_job(cli.main, gen.make_job("complete-p32", 1, 0), tmp_path)
    assert res.ok
    cert = textio.certificate_from_json(json.loads(res.data))
    stored = {id(s.coeffs)
              for m in (cert.row, cert.witness, cert.b, cert.T, cert.H,
                        cert.final, cert.final_inv)
              for row in m.rows for s in row if s.coeffs}
    reads = []
    lanes = series._lanes

    def recording(coeffs, quad):
        reads.append(id(coeffs))
        return lanes(coeffs, quad)

    monkeypatch.setattr(series, "_lanes", recording)
    assert completion.verify_completion(cert).ok
    first = [r for r in reads if r in stored]
    reads.clear()
    assert completion.verify_completion(cert).ok
    monkeypatch.undo()
    assert len(first) >= 8   # final and final_inv at least
    assert len(first) == len(set(first))
    assert [r for r in reads if r in stored] == []


def test_final_inverse_reads_only_the_stored_orders(tmp_path, monkeypatch):
    """The one-pass final inverse of a complete-p32 job hands
    relaxed_product one coefficient matrix a_(v+j) of S per order from
    v + 1 through S's highest stored order, not one per output order: S
    is an exact polynomial of low degree, and the orders past it are
    zero. Counted, not timed."""
    b, a, prec = final_conversion_inputs(tmp_path, monkeypatch)
    depths = []
    relaxed = series.relaxed_product

    def recording(dom, known, *args, **kwargs):
        depths.append(len(known))
        return relaxed(dom, known, *args, **kwargs)

    monkeypatch.setattr(series, "relaxed_product", recording)
    series.right_divide(b, a, prec)
    monkeypatch.undo()
    top = max(s.val + len(s.coeffs) - 1 for row in a.rows for s in row
              if s.coeffs)
    assert a.known_to is None
    assert depths == [top - a.min_val]


def test_identity_product_builds_only_its_nonzero_window(tmp_path,
                                                         monkeypatch):
    """final @ final_inv of a seed-0 complete-p32 certificate is the
    identity: it builds at most two RingElems (one for the sum, one for
    its normalisation) per stored nonzero coefficient, not one per
    output order. Counted, not timed."""
    job = gen.make_job("complete-p32", 0, DENSE_INVERSE_JOB)
    res = run.run_job(cli.main, job, tmp_path)
    assert res.ok
    cert = textio.certificate_from_json(json.loads(res.data))
    built = 0
    init = domains.RingElem.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(domains.RingElem, "__init__", counting)
    prod = cert.final @ cert.final_inv
    monkeypatch.undo()
    stored = sum(len(s.coeffs) for row in prod.rows for s in row)
    assert stored == 2
    assert built <= 2 * stored


def test_row_witness_products_are_two_per_job(tmp_path, monkeypatch):
    """Each seed-0 complete-p32 job 0..39 (depths 0 to 4; complete-row,
    then verify) forms two 1x2 by 2x1 products at any depth:
    check_unimodular's and the verifier's row * witness. The steps carry
    the identity check_unimodular proved and read only order-0
    coefficients, and a level's change of basis goes through 2x2
    constant matrices, not through row-by-column products. Counted, not
    timed."""
    counts = []
    matmul = series.SeriesMatrix.__matmul__

    def counting(self, other):
        if self.shape == (1, 2) and getattr(other, "shape", None) == (2, 1):
            counts[-1] += 1
        return matmul(self, other)

    monkeypatch.setattr(series.SeriesMatrix, "__matmul__", counting)
    depths = set()
    for index in range(40):
        counts.append(0)
        res = run.run_job(cli.main, gen.make_job("complete-p32", 0, index),
                          tmp_path)
        assert res.ok
        depth = json.loads(res.data)["n"]
        depths.add(depth)
        assert counts[-1] == 2, (index, depth, counts[-1])
    assert {0, 1} <= depths and max(depths) >= 2


@pytest.mark.parametrize("index, depth, products", [(0, 0, 26), (34, 2, 54)])
def test_series_products_per_completion_job(tmp_path, monkeypatch, index,
                                            depth, products):
    """complete-row then verify on a seed-0 complete-p32 job forms
    26 + 14 * depth series products: a constant factor (the final
    conversion's diag(1, det(H_n)^-1), the lift's diag(1, mu), lambda and
    lambda^-1) is a scaling, not a product, the final inverse is
    solved in one relaxed pass, with no product T' @ S^-1, and the
    engine's own check forms only the two identity products, not
    [a; b] @ T or row @ witness again, and no step re-forms row @
    witness. Counted, not timed."""
    calls = 0
    kernel = series.sum_products

    def counting(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(series, "sum_products", counting)
    res = run.run_job(cli.main, gen.make_job("complete-p32", 0, index),
                      tmp_path)
    assert res.ok
    assert json.loads(res.data)["n"] == depth
    assert calls == products


def test_each_level_pair_is_built_once(tmp_path, monkeypatch):
    """With the memos cleared, seed-0 complete-p8 jobs 0..39 (complete-row,
    then verify) build one ShapeTable and run one 1.5-generator scan per
    distinct (J, A), however many rows, steps and verifier calls share
    the pair. Counted, not timed."""
    completion.shape_table.cache_clear()
    ideals.principal_generator.cache_clear()
    built, scans = [], []
    init = completion.ShapeTable.__init__
    scan = ideals.one_and_half_generator

    def building(self, dom, jf, af):
        built.append((jf, af))
        init(self, dom, jf, af)

    def scanning(u, a):
        scans.append(u)
        return scan(u, a)

    monkeypatch.setattr(completion.ShapeTable, "__init__", building)
    monkeypatch.setattr(ideals, "one_and_half_generator", scanning)
    for index in range(40):
        res = run.run_job(cli.main, gen.make_job("complete-p8", 0, index),
                          tmp_path)
        assert res.ok
    assert len(built) == len(set(built))
    assert 0 < len(scans) <= len(built)


def test_ideal_product_echelons_four_rows(monkeypatch):
    """A product of two quadratic ideals echelons the four products of
    their Z-bases, not those and their w-multiples. Counted, not timed."""
    dom = domains.get_domain(domains.DomainSpec("quad", -5, "id"))
    p2, p3 = (ideals.from_ring_generators(dom, [dom.elem(p), dom.elem(1, 1)])
              for p in (2, 3))
    rows = []
    echelon = ideals.echelon

    def recording(m, *args, **kwargs):
        rows.append(len(m))
        return echelon(m, *args, **kwargs)

    monkeypatch.setattr(ideals, "echelon", recording)
    product = p2.mul(p3)
    monkeypatch.undo()
    assert rows == [4]
    assert product == ideals.from_ring_generators(dom, [dom.elem(1, 1)])


def test_order_windows_replay_only_the_rows_they_read(tmp_path,
                                                      monkeypatch):
    """The seed-0 extend-window job with escape order 4 keeps one order
    window through its repair rounds. Each normalize_generators call
    replays no operation record of a window below the one it stops at,
    and that window's record once per row that row_series reads, on that
    leader row's unit vector; the only other replays are the solves
    against each window's prepared leaders. Counted, not timed."""
    calls, inside, windows = [], [], []
    normalize = extension.normalize_generators
    window = extension._OrderWindow
    combine = ideals.combine_transform
    grow, row_series = window.grow, window.row_series

    def normalizing(*args):
        calls.append({"grown": 0, "replays": [], "reads": []})
        inside.append(True)
        try:
            row, t = normalize(*args)
        finally:
            inside.pop()
        calls[-1]["window"] = t
        return row, t

    def building(self):
        grow(self)
        if inside:
            # the window grows in place; a copy keeps this order's table
            windows.append(copy.copy(self))
            calls[-1]["grown"] += 1

    def replaying(ops, v):
        if inside:
            calls[-1]["replays"].append((ops, list(v)))
        return combine(ops, v)

    def reading(self, idx):
        calls[-1]["reads"].append(idx)
        return row_series(self, idx)

    monkeypatch.setattr(extension, "normalize_generators", normalizing)
    monkeypatch.setattr(window, "grow", building)
    monkeypatch.setattr(extension, "combine_transform", replaying)
    monkeypatch.setattr(ideals, "combine_transform", replaying)
    monkeypatch.setattr(window, "row_series", reading)
    job = gen.make_job("extend-window", 0, ESCAPE_JOB)
    assert job.domain == "quad:-5:id"
    assert gen.ESCAPES[ESCAPE_JOB // len(gen.ALL_DOMAINS)] == 4
    assert run.run_job(cli.main, job, tmp_path).ok
    monkeypatch.undo()
    # the lowest coefficients' ideal at window 0, then one repair that
    # grows the same window through orders 1..4
    assert [(call["grown"], call["window"]) for call in calls] \
        == [(1, 0), (4, 4)]
    assert [w.top for w in windows] == [0, 1, 2, 3, 4]
    for call in calls:
        *below, final = windows[:call["window"] + 1]
        assert not [ops for ops, _ in call["replays"]
                    if any(ops is w.ops for w in below)]
        replayed = [v for ops, v in call["replays"] if ops is final.ops]
        assert replayed == [[int(k == idx) for k in range(len(final.seeds))]
                            for idx in call["reads"]]
        assert set(call["reads"]) <= {idx for idx, _, _ in final.leaders}
        assert len(set(call["reads"])) == len(call["reads"])
        assert len(call["replays"]) == len(replayed) + 2


@pytest.mark.parametrize("domain, windows", [("int", [0]),
                                             ("quad:-5:id", [0, 4])])
def test_window_search_solves_once_per_window(tmp_path, monkeypatch, domain,
                                              windows):
    """The seed-0 extend-window job with escape order 4 echelons each
    window order once, then that order's leaders, and nothing after its
    last window; each normalize_generators call does so only for the
    orders past the last call's window, as one window serves every
    repair round. It forms each product g_i * sigma^i(c), c in {1, w}
    (c = 1 over Z), once per job: gens x |c| x (final window + 1) in
    all. Over Z the job needs no repair, so its one call stops at window
    0; on quad:-5:id a repair grows the window through order 4. Counted,
    not timed."""
    index = gen.ALL_DOMAINS.index(domain) + 2 * len(gen.ALL_DOMAINS)
    assert gen.ESCAPES[2] == 4
    dom = domains.get_domain(textio.parse_domain(domain))
    calls, inside = [], []
    normalize = extension.normalize_generators
    echelon = ideals.echelon
    pair_mul = extension.pair_mul

    def normalizing(j_ideal, window, top):
        calls.append({"gens": len(window.gens), "echelons": [],
                      "products": 0})
        inside.append(True)
        try:
            row, t = normalize(j_ideal, window, top)
        finally:
            inside.pop()
        calls[-1]["window"] = t
        return row, t

    def recording(kind):
        def run_echelon(m, *args, **kwargs):
            if inside:
                calls[-1]["echelons"].append(kind)
            return echelon(m, *args, **kwargs)
        return run_echelon

    def multiplying(*args):
        if inside:
            calls[-1]["products"] += 1
        return pair_mul(*args)

    monkeypatch.setattr(extension, "normalize_generators", normalizing)
    monkeypatch.setattr(extension, "echelon", recording("window"))
    monkeypatch.setattr(ideals, "echelon", recording("leaders"))
    monkeypatch.setattr(extension, "pair_mul", multiplying)
    job = gen.make_job("extend-window", 0, index)
    assert job.domain == domain
    assert run.run_job(cli.main, job, tmp_path).ok
    monkeypatch.undo()
    assert [call["window"] for call in calls] == windows
    built = -1
    for call in calls:
        grown = call["window"] - built
        built = call["window"]
        assert call["echelons"] == ["window", "leaders"] * grown
        assert call["products"] \
            == call["gens"] * (2 if dom.is_quad else 1) * grown


def test_each_window_order_grows_once_per_job(tmp_path, monkeypatch):
    """extend_with_repair keeps one order window for all its repair
    rounds, so each seed-0 extend-window job 0..39 grows the window
    through each order at most once, in order: the escape-4 job on
    quad:-5:id grows orders 0..4, five windows over two rounds, where
    rebuilding the window every round grew six. Counted, not timed."""
    grown = []
    grow = extension._OrderWindow.grow

    def growing(self):
        grow(self)
        grown.append(self.top)

    monkeypatch.setattr(extension._OrderWindow, "grow", growing)
    for index in range(40):
        grown.clear()
        job = gen.make_job("extend-window", 0, index)
        assert run.run_job(cli.main, job, tmp_path).ok
        assert grown == list(range(len(grown)))
        if index == ESCAPE_JOB:
            assert grown == [0, 1, 2, 3, 4]
    monkeypatch.undo()


@pytest.mark.parametrize("seed", [0, 1])
def test_repairs_are_realized_by_the_proven_window(tmp_path, monkeypatch,
                                                   seed):
    """After a repair at order n of a row read from window t, the
    normalize_generators call of each seed-0/1 extend-window job 0..39
    gets top = n + 2t, and searched past that top, the first window
    that realizes the enlarged ideal is never beyond it. Counted, not
    timed."""
    events = []
    normalize = extension.normalize_generators
    extend = extension.extend

    def unbounded(j_ideal, window, top):
        row, t = normalize(j_ideal, window, 10 ** 6)
        events.append(("window", top, t))
        return row, t

    def recording(j_ideal, g, prec):
        try:
            return extend(j_ideal, g, prec)
        except extension.ConstIdealUnderestimate as err:
            events.append(("repair", err.order))
            raise

    monkeypatch.setattr(extension, "normalize_generators", unbounded)
    monkeypatch.setattr(extension, "extend", recording)
    slack = []
    for index in range(40):
        events.clear()
        job = gen.make_job("extend-window", seed, index)
        assert run.run_job(cli.main, job, tmp_path).ok
        # three generators: window 0 first, then one window per repair
        (kind, top, t), *rest = events
        assert (kind, top, t) == ("window", 0, 0)
        for (kind, n), (_, top, found) in zip(rest[::2], rest[1::2]):
            assert kind == "repair"
            assert top == n + 2 * t
            assert found <= top
            slack.append(top - found)
            t = found
        assert len(rest) == 2 * len(rest[::2])
    monkeypatch.undo()
    # 28 repairs at either seed; the bound is met with equality
    assert len(slack) == 28
    assert min(slack) == 0


# extend-window jobs (seed, index) whose repair resumes the window search
# above order 0
RESUMED_JOBS = [(0, 26), (0, 27), (0, 29), (0, 37),
                (1, 1), (1, 4), (1, 7), (1, 38)]


def test_resumed_window_search_matches_a_search_from_order_zero(
        tmp_path, monkeypatch):
    """Each normalize_generators call of the seed-0/1 extend-window jobs
    0..39 resumes at the order its window reached in the earlier rounds,
    solves against no order below it, and returns the t and row that a
    fresh window searched from order 0 returns. Eleven calls, in the
    RESUMED_JOBS, resume above order 0. Counted, not timed."""
    normalize = extension.normalize_generators
    grow, solve = extension._OrderWindow.grow, ideals.PreparedBasis.solve
    # id of each window basis -> (basis, its order); the basis is kept so
    # that its id is not reused
    order_of, solved, resumed, below = {}, [], [], []

    def growing(self):
        grow(self)
        order_of[id(self.basis)] = (self.basis, self.top)

    def solving(self, e):
        solved.append(id(self))
        return solve(self, e)

    def checking(j_ideal, window, top):
        entry = window.top
        solved.clear()
        row, t = normalize(j_ideal, window, top)
        orders = [order_of[k][1] for k in solved]
        below.extend(o for o in orders if o < entry)
        assert orders[0] == max(entry, 0) and t == window.top
        if entry > 0:
            resumed.append(job)
        fresh = extension._OrderWindow(window.dom, window.gens, -1)
        assert normalize(j_ideal, fresh, top) == (row, t)
        return row, t

    monkeypatch.setattr(extension._OrderWindow, "grow", growing)
    monkeypatch.setattr(ideals.PreparedBasis, "solve", solving)
    monkeypatch.setattr(extension, "normalize_generators", checking)
    for job in [(seed, index) for seed in (0, 1) for index in range(40)]:
        assert run.run_job(cli.main, gen.make_job("extend-window", *job),
                           tmp_path).ok
    monkeypatch.undo()
    assert below == []
    assert len(resumed) == 11 and sorted(set(resumed)) == RESUMED_JOBS


def test_resumed_window_search_certificates_match_pinned_digest(tmp_path):
    """The certificates of the RESUMED_JOBS, concatenated in that order,
    have the bytes the search from order 0 gave them."""
    digest = hashlib.sha256()
    for job in RESUMED_JOBS:
        res = run.run_job(cli.main, gen.make_job("extend-window", *job),
                          tmp_path)
        assert res.ok and not res.detail
        digest.update(res.data)
    assert digest.hexdigest() == (
        "c84c45e2905fb03ddb465aafd348a79f861975da35b6e5d14c81ad0224012145")


@pytest.mark.parametrize("domain", ["quad:-5:conj", "quad:-5:id", "int"])
def test_extend_echelons_once_per_parity(tmp_path, monkeypatch, domain):
    """extend on a row whose s_n is nonzero at every order makes the same
    number of ideals.echelon calls at --prec 8 and 24, and at most
    sigma_order of them inside its order loop: one basis of
    J * sigma^n(J) per parity of n. Counted, not timed."""
    dom = domains.get_domain(textio.parse_domain(domain))
    _, gens = corrected_row_text(dom)
    calls, in_loop = [], []
    echelon = ideals.echelon
    relaxed = extension.relaxed_product

    def counting(m, *args, **kwargs):
        calls[-1]["all"] += 1
        calls[-1]["loop"] += bool(in_loop)
        return echelon(m, *args, **kwargs)

    def looping(*args, **kwargs):
        in_loop.append(True)
        try:
            return relaxed(*args, **kwargs)
        finally:
            in_loop.pop()

    monkeypatch.setattr(ideals, "echelon", counting)
    monkeypatch.setattr(extension, "relaxed_product", looping)
    audits = []
    for prec in (8, 24):
        calls.append({"all": 0, "loop": 0})
        out = tmp_path / f"cert{prec}.json"
        assert cli.main(["extend", "--domain", domain, "--gens",
                         json.dumps(gens), "--prec", str(prec),
                         "--out", str(out)]) == 0
        audits.append(json.loads(out.read_text())["audit"])
    monkeypatch.undo()
    assert all(a["s_n"] != "0" for audit in audits for a in audit)
    assert [len(audit) for audit in audits] == [8, 24]
    assert calls[0] == calls[1]
    assert 0 < calls[0]["loop"] <= dom.sigma_order


def test_unit_difference_certificate_is_pinned(tmp_path):
    """(2 + x^5) - 2 = x^5 is a unit, so the right ideal (2, 2 + x^5) over
    Z is R: one repair at order 5, realized by window 5."""
    out = tmp_path / "cert.json"
    assert cli.main(["extend", "--domain", "int", "--gens",
                     '["2","2+1*x^5"]', "--prec", "12",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a46e95689456bb6f3346e6d4e4f9531ac5c7becd5892e698c6f7c3b0ad99dc35")
