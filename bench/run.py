"""Certificate benchmark: drives the ``skewdd`` CLI in process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload complete-p8 --seed 1 --seconds 30 --trace 0

One client, one thread, one process, closed loop: each job is an
``extend`` or ``complete-row`` call with ``--out`` to a temporary file,
then ``verify`` on that file, both through ``skewdd.cli.main`` with
their output captured. Both calls must exit 0 and the certificate must
belong to the job's input. The run keeps issuing jobs until
``--seconds`` have passed and at least MIN_JOBS jobs are done.

``--trace 0`` reports the end-to-end metrics, every timing scaled to
the speed of a host-speed reference timed between jobs (see measure).
``--trace 1`` reports the per-layer metrics: every job runs once plain
and once with span wrappers installed (see spans.py), alternating which
goes first, and a separate count-only pass over the first COUNT_JOBS
jobs counts element operations. The last line of standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "skewdd-bench"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"   # workloads and metric names and units

MIN_JOBS = 100          # p90 needs ten samples beyond it
MIN_TRACE_JOBS = 20     # also the jobs a traced run's digest covers
SETUP_REPEATS = 11
WARM_SEED = 0           # warm-up inputs do not depend on --seed
RECHECK_JOBS = 3        # re-run at the end; bytes must repeat
COUNT_JOBS = 5          # jobs in the count-only pass
HARD_LIMIT_S = 140.0    # stop issuing jobs past this, whatever MIN_JOBS says
# Host-speed reference: one fixed input generation, pure Python and
# independent of the program. The measuring host's speed drifts by up
# to half within seconds to minutes; timings are scaled to the speed at
# which the reference takes REF_MS, about that host at its fastest.
REF_JOB = ("complete-p8", 0, 14)
REF_MS = 1.6

# span name -> function wrapped at each of its binding sites
SPAN_TARGETS = {
    "cli.main": "cli.main",
    "completion.ShapedRow": "completion.ShapedRow.__init__",
    "completion.check_unimodular": "completion.check_unimodular",
    "completion.reduce_row": "completion.reduce_row",
    "completion.base_case_invert": "completion.base_case_invert",
    "completion.lift_invertibility": "completion.lift_invertibility",
    "completion.complete_unimodular_row": "completion.complete_unimodular_row",
    "completion.verify_completion": "completion.verify_completion",
    "series.mul": "series.mul",
    "series.matrix_invert": "series.matrix_invert",
    "ideals.echelon": "ideals.echelon",
    "ideals.from_ring_generators": "ideals.from_ring_generators",
    "ideals.principal_generator": "ideals.principal_generator",
    "ideals.one_and_half_generator": "ideals.one_and_half_generator",
    "extension.normalize_generators": "extension.normalize_generators",
    "extension.extend": "extension.extend",
    "extension.extend_with_repair": "extension.extend_with_repair",
    "extension.verify_extension_certificate":
        "extension.verify_extension_certificate",
    "textio.parse_series": "textio.parse_series",
    "textio.series_from_json": "textio.series_from_json",
    "textio.matrix_from_json": "textio.matrix_from_json",
    "textio.ideal_lattice_from_json": "textio.ideal_lattice_from_json",
    "textio.series_to_json": "textio.series_to_json",
    "textio.matrix_to_json": "textio.matrix_to_json",
    "textio.canonical_json": "textio.canonical_json",
}
SPAN_SIZES = {"ideals.echelon": lambda args: len(args[0])}
PARSE_SPANS = ("textio.parse_series", "textio.series_from_json",
               "textio.matrix_from_json", "textio.ideal_lattice_from_json")
EMIT_SPANS = ("textio.series_to_json", "textio.matrix_to_json",
              "textio.canonical_json")

# counter name -> function wrapped in the count-only pass
COUNT_TARGETS = {
    "domains.FieldElem.new.calls": "domains.FieldElem.__init__",
    "domains.FieldElem.mul.calls": "domains.FieldElem.__mul__",
    "domains.FieldElem.add.calls": "domains.FieldElem.__add__",
    "domains.RingElem.mul.calls": "domains.RingElem.__mul__",
}

class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad arguments)."""


# ------------------------------------------------------------------ statistics
def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of the values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(p / 100 * n))


def tail_ok(n: int, p: float = 90) -> bool:
    """A p-th percentile is reported only with at least ten samples beyond it."""
    return samples_beyond(n, p) >= 10


# ------------------------------------------------------------------ program
def load_program() -> dict:
    """Import skewdd afresh from this checkout; returns its submodules by short name."""
    for name in [n for n in sys.modules if n == "skewdd" or n.startswith("skewdd.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("skewdd.cli")
    where = Path(cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"skewdd was imported from {where}, not from {SRC}")
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("skewdd.")}


@dataclass
class Result:
    cert_s: float
    verify_s: float
    ok: bool
    data: bytes
    detail: str = ""


def _call(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed job, like exit code 1
            traceback.print_exc()
            code = 1
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue()


def check_certificate(job: gen.Job, data: bytes) -> str:
    """Why the certificate does not belong to the job, or ''."""
    try:
        cert = json.loads(data)
    except ValueError:
        return "certificate is not JSON"
    wanted = "completion-cert/v1" if job.files else "extension-cert/v1"
    if cert.get("schema") != wanted:
        return f"schema {cert.get('schema')!r}"
    if cert.get("prec") != job.prec:
        return f"prec {cert.get('prec')!r}"
    if gen.DOMAINS[job.domain].name != _domain_text(cert.get("domain", {})):
        return "domain"
    if job.files:
        if cert["row"] != [job.files["row.json"]]:
            return "row differs from the input row"
        n = cert["n"]
        shifted = [[{"val": s["val"] + n if s["coeffs"] else 0,
                     "coeffs": s["coeffs"], "prec": s["prec"]}]
                   for s in job.files["witness.json"]]
        if cert["witness"] != shifted:
            return "witness differs from the shifted input witness"
        if cert["ideal"] != {"hnf": list(gen.DOMAINS[job.domain].j_hnf)}:
            return "ideal differs from the input ideal"
    return ""


def _domain_text(spec: dict) -> str:
    if spec.get("kind") == "int":
        return "int"
    return f"quad:{spec.get('d')}:{spec.get('sigma')}"


def run_job(main, job: gen.Job, workdir: Path) -> Result:
    paths = {name: workdir / name for name in job.files}
    for name, obj in job.files.items():
        paths[name].write_text(json.dumps(obj), encoding="utf-8")
    out = workdir / "cert.json"
    out.unlink(missing_ok=True)
    argv = [str(paths.get(a, a)) for a in job.args] + ["--out", str(out)]
    cert_s, code, log = _call(main, argv)
    if code != 0 or not out.is_file():
        return Result(cert_s, 0.0, False, b"", f"exit {code}: {log[-300:]}")
    data = out.read_bytes()
    verify_s, vcode, vlog = _call(main, ["verify", str(out)])
    if vcode != 0 or "FAIL" in vlog:
        return Result(cert_s, verify_s, False, data,
                      f"verify exit {vcode}: {vlog[-300:]}")
    return Result(cert_s, verify_s, True, data, check_certificate(job, data))


def warm_jobs(workload: str) -> list:
    """One warm-up job per domain, the same whatever --seed says."""
    wl = gen.WORKLOADS[workload]
    return [gen.make_job(workload, WARM_SEED, k, stream="warm")
            for k in range(len(wl.domains))]


def set_up(warm: list, workdir: Path):
    """Import the package afresh and run the warm-up jobs.

    Returns the new modules and the seconds the set-up took.
    """
    start = perf_counter()
    modules = load_program()
    for job in warm:
        res = run_job(modules["cli"].main, job, workdir)
        if not res.ok or res.detail:
            raise BenchError(f"warm-up job on {job.domain} failed: "
                             f"{res.detail}")
    return modules, perf_counter() - start


# ------------------------------------------------------------------ certificates
_DIGITS = re.compile(r"\d+")


def _bits(digits: str) -> int:
    if len(digits) < 4000:  # int() refuses longer strings by default
        return int(digits).bit_length()
    return math.floor((len(digits) - 15) * math.log2(10)
                      + math.log2(int(digits[:15]))) + 1


def cert_stats(data: bytes):
    """(reduction depth or None, maximum coefficient height in bits)."""
    cert = json.loads(data)
    top = 0
    stack = [cert]
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            if "coeffs" in obj:
                for c in obj["coeffs"]:
                    for d in _DIGITS.findall(c):
                        top = max(top, _bits(d))
            else:
                stack.extend(obj.values())
        elif isinstance(obj, list):
            stack.extend(obj)
    return cert.get("n"), top


# ------------------------------------------------------------------ runs
class Run:
    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path,
                 digest_jobs: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.digest_jobs = digest_jobs   # jobs 0..digest_jobs-1 are digested
        self.gen_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.first: dict = {}   # job index -> certificate bytes
        self.digest = hashlib.sha256()

    def job(self, index: int) -> gen.Job:
        start = perf_counter()
        job = gen.make_job(self.workload, self.seed, index)
        self.gen_s += perf_counter() - start
        return job

    def record(self, index: int, res: Result) -> Result:
        """Count the result and check its bytes against the job's first run."""
        self.attempted += 1
        if not res.ok or res.detail:
            self.failed += 1
            self.problems.append(f"job {index}: {res.detail}")
        elif index not in self.first:
            self.first[index] = res.data
            if index < self.digest_jobs:
                self.digest.update(res.data)
        elif self.first[index] != res.data:
            self.failed += 1
            self.problems.append(f"job {index}: certificate bytes differ "
                                 "between two runs")
        return res

    def loop(self, body, min_jobs: int):
        """Call body(index) until the time is up and min_jobs are done."""
        start = perf_counter()
        index = 0
        while index < min_jobs or perf_counter() - start < self.seconds:
            if perf_counter() - start > HARD_LIMIT_S:
                self.problems.append(f"stopped after {index} jobs at the "
                                     f"{HARD_LIMIT_S:.0f} s limit")
                break
            body(index)
            index += 1
        return index

    def recheck(self, main):
        for index in range(min(RECHECK_JOBS, len(self.first))):
            self.record(index, run_job(main, self.job(index), self.workdir))

    def check_digest(self, jobs: int) -> str:
        """The digest of jobs 0..digest_jobs-1, checked against its pin if any.

        digests.json maps workload -> number of jobs digested -> seed.
        """
        head = f"certificate digest of jobs 0..{self.digest_jobs - 1}:"
        if jobs < self.digest_jobs:
            self.problems.append(f"only {jobs} jobs, fewer than "
                                 f"{self.digest_jobs}")
            return f"{head} incomplete"
        digest = self.digest.hexdigest()
        pinned = json.loads(DIGESTS.read_text())[self.workload]
        want = pinned.get(str(self.digest_jobs), {}).get(str(self.seed))
        if want is None:
            return f"{head} {digest} (seed not pinned)"
        if want != digest:
            self.problems.append(f"certificate digest {digest} differs from "
                                 f"the pinned {want}")
            return f"{head} {digest} MISMATCH, pinned {want}"
        return f"{head} {digest} (matches pinned)"


def reference_ms() -> float:
    """Milliseconds the host takes for the fixed reference work.

    The collector is off meanwhile, so that collections of the program's
    garbage are not charged to the reference, and an untimed first pass
    refills the caches the program's job has evicted.
    """
    gc.disable()
    try:
        gen.make_job(*REF_JOB, stream="ref")
        start = perf_counter()
        gen.make_job(*REF_JOB, stream="ref")
        return (perf_counter() - start) * 1000
    finally:
        gc.enable()


def measure(run: Run, warm: list) -> dict:
    """End-to-end metrics, every timing scaled to the reference speed.

    The reference is timed between every two steps (set-up or job); a
    step's time is scaled by REF_MS over the mean of the references
    just before and just after it.
    """
    raw: dict = {"setup": [], "cert": [], "verify": []}
    scaled: dict = {"setup": [], "cert": [], "verify": []}
    last_ref = reference_ms()

    def step(times: dict):
        nonlocal last_ref
        ref = reference_ms()
        factor = 2 * REF_MS / (last_ref + ref)
        last_ref = ref
        for key, seconds in times.items():
            raw[key].append(seconds)
            scaled[key].append(seconds * factor)

    modules, took = set_up(warm, run.workdir)
    step({"setup": took})
    main = modules["cli"].main
    start = perf_counter()

    def body(index):
        nonlocal main
        # Set-ups are spread evenly over the run, so that their median,
        # like the job timings, spans the drift in the host's speed.
        due = len(raw["setup"]) * run.seconds / SETUP_REPEATS
        if len(raw["setup"]) < SETUP_REPEATS and perf_counter() - start >= due:
            modules, took = set_up(warm, run.workdir)
            step({"setup": took})
            main = modules["cli"].main
            gc.collect()   # the replaced modules are cyclic garbage
        res = run.record(index, run_job(main, run.job(index), run.workdir))
        step({"cert": res.cert_s, "verify": res.verify_s})

    jobs = run.loop(body, MIN_JOBS)
    if not tail_ok(jobs):
        run.problems.append(f"p90 of {jobs} jobs has fewer than ten samples "
                            "beyond it")
    run.recheck(main)
    print(run.check_digest(jobs))

    def metrics(t: dict) -> dict:
        return {
            "setup_s": statistics.median(t["setup"]),
            "cert_p50_ms": statistics.median(t["cert"]) * 1000,
            "cert_p90_ms": percentile(t["cert"], 90) * 1000,
            "verify_p50_ms": statistics.median(t["verify"]) * 1000,
            "verify_p90_ms": percentile(t["verify"], 90) * 1000,
            "certs_per_s": jobs / (sum(t["cert"]) + sum(t["verify"])),
        }

    print("unscaled: " + ", ".join(f"{k} {v:.6g}"
                                   for k, v in metrics(raw).items()))
    return {**metrics(scaled), "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def measure_layers(run: Run, modules: dict) -> dict:
    rec = spans.Recorder()
    span_patch = spans.Patch(modules, {
        target: rec.wrapper(name, SPAN_SIZES.get(name))
        for name, target in SPAN_TARGETS.items()})
    plain_ms, traced_ms = [], []
    depths, heights, sizes = [], [], []

    def body(index):
        job = run.job(index)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            rec.job = index if traced else None
            if traced:
                span_patch.install()
            try:
                res = run_job(modules["cli"].main, job, run.workdir)
            finally:
                span_patch.restore()
            run.record(index, res)
            (traced_ms if traced else plain_ms).append(res.cert_s * 1000)
        if res.ok:
            depth, height = cert_stats(res.data)
            if depth is not None:
                depths.append(depth)
            heights.append(height)
            sizes.append(len(res.data))

    jobs = run.loop(body, MIN_TRACE_JOBS)
    print(run.check_digest(jobs))
    counts: dict = {}
    count_patch = spans.Patch(modules, {
        target: spans.counter(counts, name)
        for name, target in COUNT_TARGETS.items()})
    for index in range(COUNT_JOBS):
        job = run.job(index)
        with count_patch:
            res = run_job(modules["cli"].main, job, run.workdir)
        run.record(index, res)

    span_file = OUT_DIR / f"spans-{run.workload}-seed{run.seed}.jsonl"
    rec.write(span_file)
    print(f"{len(rec.spans)} spans from {jobs} traced jobs written to "
          f"{span_file.relative_to(ROOT)}")
    return layer_metrics(spans.Analysis(rec.spans), rec.sizes, jobs, {
        "depths": depths, "heights": heights, "sizes": sizes,
        "counts": counts, "plain_ms": plain_ms, "traced_ms": traced_ms,
        "extend_certs": jobs if gen.WORKLOADS[run.workload].command == "extend"
        else 0})


def layer_metrics(an: spans.Analysis, sizes: dict, jobs: int, extra: dict) -> dict:
    def ms(*names):
        return an.busy(*names) * 1000 / jobs

    def per_job(name, under=None):
        return an.calls(name, under) / jobs

    candidates = an.calls("ideals.from_ring_generators",
                          under="ideals.one_and_half_generator")
    depths = extra["depths"]
    echelon_rows = [size for idx, size in sizes.items()
                    if an.spans[idx][0] == "ideals.echelon"]
    out = {
        "completion.ShapedRow.ms": ms("completion.ShapedRow"),
        "completion.ShapedRow.calls": per_job("completion.ShapedRow"),
        "completion.reduce_row.ms": ms("completion.reduce_row"),
        "completion.reduce_row.calls": per_job("completion.reduce_row"),
        "completion.lift_invertibility.ms": ms("completion.lift_invertibility"),
        "completion.base_case_invert.ms": ms("completion.base_case_invert"),
        "completion.depth_mean": statistics.mean(depths) if depths else 0,
        "completion.depth_max": max(depths, default=0),
        "completion.final_conversion.self_ms":
            an.self_sum("completion.complete_unimodular_row") * 1000 / jobs,
        "completion.verify_completion.ms": ms("completion.verify_completion"),
        "completion.verify_completion.calls":
            per_job("completion.verify_completion"),
        "series.mul.ms": ms("series.mul"),
        "series.mul.calls": per_job("series.mul"),
        "series.matrix_invert.ms": ms("series.matrix_invert"),
        "series.matrix_invert.calls": per_job("series.matrix_invert"),
        "series.max_coeff_bits": max(extra["heights"], default=0),
        "ideals.echelon.ms": ms("ideals.echelon"),
        "ideals.echelon.calls": per_job("ideals.echelon"),
        "ideals.echelon.max_rows": max(echelon_rows, default=0),
        "ideals.from_ring_generators.ms": ms("ideals.from_ring_generators"),
        "ideals.from_ring_generators.calls":
            per_job("ideals.from_ring_generators"),
        "ideals.principal_generator.ms": ms("ideals.principal_generator"),
        "ideals.principal_generator.calls":
            per_job("ideals.principal_generator"),
        "ideals.one_and_half_generator.calls":
            per_job("ideals.one_and_half_generator"),
        "ideals.one_and_half_generator.candidates": candidates / jobs,
        "ideals.one_and_half_generator.hit_ratio":
            an.calls("ideals.one_and_half_generator") / candidates
            if candidates else 0,
        "extension.normalize_generators.ms": ms("extension.normalize_generators"),
        "extension.normalize_generators.calls":
            per_job("extension.normalize_generators"),
        "extension.window_echelon.calls":
            per_job("ideals.echelon", under="extension.normalize_generators"),
        "extension.extend.calls": per_job("extension.extend"),
        "extension.repairs":
            (an.calls("extension.extend") - extra["extend_certs"]) / jobs,
        "extension.verify_extension_certificate.ms":
            ms("extension.verify_extension_certificate"),
        "extension.verify_extension_certificate.calls":
            per_job("extension.verify_extension_certificate"),
        "textio.parse.ms": ms(*PARSE_SPANS),
        "textio.emit.ms": ms(*EMIT_SPANS),
        "textio.cert_bytes": statistics.mean(extra["sizes"]) if extra["sizes"] else 0,
        "cli.main.self_ms": an.self_sum("cli.main") * 1000 / jobs,
        "trace.overhead_ratio": statistics.median(extra["traced_ms"])
        / statistics.median(extra["plain_ms"]),
    }
    for name in COUNT_TARGETS:
        out[name] = extra["counts"].get(name, 0) / COUNT_JOBS
    return out


# ------------------------------------------------------------------ entry
def declared() -> dict:
    """BENCHMARK.json: why each workload exists, and every metric's name and unit."""
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skewdd" / "cli.py").is_file():
        print(f"error: no skewdd source tree at {SRC}", file=sys.stderr)
        return 2
    spec = declared()
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        warm = warm_jobs(args.workload)
        if args.trace:   # traced runs report no set-up time
            modules, _ = set_up(warm, workdir)
            run = Run(args.workload, args.seed, args.seconds, workdir,
                      MIN_TRACE_JOBS)
            values, table = measure_layers(run, modules), spec["per_layer"]
        else:
            run = Run(args.workload, args.seed, args.seconds, workdir, MIN_JOBS)
            values, table = measure(run, warm), spec["end_to_end"]
        if set(values) != {m["name"] for m in table}:
            raise BenchError(f"metrics computed, {sorted(values)}, differ "
                             f"from those in {BENCHMARK.name}")
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}: {why[args.workload]}")
    print(f"seed {args.seed}; input generation {run.gen_s:.3f} s "
          "(not in any metric)")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    print(f"fail_ratio {run.failed / max(run.attempted, 1)} "
          f"({run.failed} of {run.attempted})")
    metrics = {}
    for m in table:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:48s} {values[name]:14.6g} {unit}")
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
