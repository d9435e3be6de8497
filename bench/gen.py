"""Seeded inputs for the certificate benchmark.

Every input is computed here in plain Python, with elements of Q(w)
held as pairs of Fractions, so the rows and generators a seed produces
do not depend on the code being measured. Job ``i`` of a workload draws
from its own random stream keyed by (workload, seed, i): a job's inputs
do not depend on how many jobs a run reaches. Why each workload exists
is recorded once, in BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

F = Fraction
ZERO = (F(0), F(0))
ONE = (F(1), F(0))


@dataclass(frozen=True)
class Dom:
    """A test domain with its standing ideal J and extension ideal P.

    Lattices are given by Z-bases. ``jinv[p]`` is a basis of
    sigma^p(J^-1); ``omega_c``/``omega_t`` give w^2 = omega_c + omega_t*w.
    """

    name: str
    conj: bool
    omega_c: int
    omega_t: int
    j_hnf: tuple
    j: tuple
    jinv: tuple
    p: tuple


def _e(a, b=0):
    return (F(a), F(b))


DOMAINS = {
    "int": Dom("int", False, 0, 0, (1,), (_e(1),), ((_e(1),), (_e(1),)),
               (_e(2),)),
    # J = P = (2, 1+w), the prime above 2; J^-1 = (1, (1+w)/2)
    "quad:-5:id": Dom("quad:-5:id", False, -5, 0, (2, 1, 1),
                      (_e(2), _e(1, 1)),
                      ((_e(1), _e(F(1, 2), F(1, 2))),) * 2,
                      (_e(2), _e(1, 1))),
    "quad:-5:conj": Dom("quad:-5:conj", True, -5, 0, (2, 1, 1),
                        (_e(2), _e(1, 1)),
                        ((_e(1), _e(F(1, 2), F(1, 2))),) * 2,
                        (_e(2), _e(1, 1))),
    # J = P = (1+i)
    "quad:-1:conj": Dom("quad:-1:conj", True, -1, 0, (2, 1, 1),
                        (_e(2), _e(1, 1)),
                        ((_e(1), _e(F(1, 2), F(1, 2))),) * 2,
                        (_e(2), _e(1, 1))),
    # J = P = (7, 3+w), not fixed by conjugation
    "quad:2:conj": Dom("quad:2:conj", True, 2, 0, (7, 3, 1),
                       (_e(7), _e(3, 1)),
                       ((_e(1), _e(F(4, 7), F(1, 7))),
                        (_e(1), _e(F(3, 7), F(1, 7)))),
                       (_e(7), _e(3, 1))),
}

ALL_DOMAINS = tuple(DOMAINS)

# Job i runs on domain i mod (number of domains); within each domain the
# reduction depth or escape order cycles through these tuples, so every
# run has the same composition whatever its seed.
# Rows: (reduction depth, 2 meaning 2 or more; whether the first entry
# is a monomial). The depths are about the natural mix of random
# elementary products, 60% at depth 0. Rows with a monomial first entry
# complete and verify several times faster than the rest and are about
# half of all rows, which would put the medians on the gap between the
# two groups; fixing their share at a quarter keeps the medians inside
# the slower group.
ROW_KINDS = ((0, True),) * 4 + ((0, False),) * 8 + ((1, True),) \
    + ((1, False),) * 4 + ((2, False),) * 3
# Escape orders: from about 6 orders on, rare jobs have window echelon
# transforms that explode (thousands of digits, then exit 2); see
# README.md.
ESCAPES = tuple(range(2, 6))
# Search bound of the real-quadratic principal search. The CLI default,
# 10^5, leaves about one complete-p8 job in 7000 undecided (exit 4) on
# quad:2:conj; 10^6 decided that job in 0.3 s.
PRINCIPAL_BOUND = 10**7


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    prec: int
    domains: tuple


WORKLOADS = {
    "complete-p8": Workload("complete-p8", "complete-row", 8, ALL_DOMAINS),
    "complete-p32": Workload("complete-p32", "complete-row", 32,
                             ("quad:-5:conj", "quad:-1:conj")),
    "extend-window": Workload("extend-window", "extend", 16, ALL_DOMAINS),
}


# ------------------------------------------------------------ Q(w) arithmetic
def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def neg(x):
    return (-x[0], -x[1])


def mul(dom: Dom, x, y):
    bb = x[1] * y[1]
    return (x[0] * y[0] + bb * dom.omega_c,
            x[0] * y[1] + x[1] * y[0] + bb * dom.omega_t)


def sigma(dom: Dom, x, i: int):
    if dom.conj and i % 2:
        return (x[0] + x[1] * dom.omega_t, -x[1])
    return x


def scale(x, k: int):
    return (x[0] * k, x[1] * k)


# ------------------------------------- Laurent polynomials {order: coefficient}
def s_add(f, g):
    out = dict(f)
    for i, c in g.items():
        out[i] = add(out.get(i, ZERO), c)
    return {i: c for i, c in out.items() if c != ZERO}


def s_neg(f):
    return {i: neg(c) for i, c in f.items()}


def s_mul(dom: Dom, f, g):
    """Twisted product: (a x^i)(b x^j) = a sigma^i(b) x^(i+j)."""
    out = {}
    for i, a in f.items():
        for j, b in g.items():
            out[i + j] = add(out.get(i + j, ZERO), mul(dom, a, sigma(dom, b, i)))
    return {i: c for i, c in out.items() if c != ZERO}


def lattice_elem(basis, rng, lo=-2, hi=2):
    acc = ZERO
    for g in basis:
        acc = add(acc, scale(g, rng.randint(lo, hi)))
    return acc


# ------------------------------------------------------------------ text forms
def _frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fmt_elem(x) -> str:
    """The canonical element text the CLI itself writes."""
    a, b = x
    if not b:
        return _frac(a)
    wpart = f"{_frac(abs(b))}*w"
    if not a:
        return wpart if b > 0 else f"-{wpart}"
    return f"{_frac(a)}{'+' if b > 0 else '-'}{wpart}"


def series_json(f) -> dict:
    """JSON of an exact Laurent polynomial, as the CLI writes it."""
    if not f:
        return {"val": 0, "coeffs": [], "prec": None}
    lo, hi = min(f), max(f)
    return {"val": lo,
            "coeffs": [fmt_elem(f.get(i, ZERO)) for i in range(lo, hi + 1)],
            "prec": None}


def series_text(f, known_to: int) -> str:
    terms = [f"({fmt_elem(c)})" if i == 0 else f"({fmt_elem(c)})*x^{i}"
             for i, c in sorted(f.items())]
    return "+".join(terms + [f"O(x^{known_to})"])


# -------------------------------------------------------------------- jobs
@dataclass
class Job:
    """One CLI job. ``files`` maps file names to JSON the CLI reads."""

    workload: str
    index: int
    domain: str
    prec: int
    args: list
    files: dict


def _shaped_series(dom: Dom, rng, twisted: bool, val_lo: int, length=3):
    v = rng.randint(val_lo, 1)
    f = {}
    for i in range(v, v + length):
        c = lattice_elem(dom.jinv[i % 2] if twisted else dom.j, rng)
        if c != ZERO:
            f[i] = c
    return f


def unimodular_row(dom: Dom, rng, depth: int, monomial: bool, factors=6):
    """First row of a random product U of shaped elementary matrices.

    Returns (row, witness column); the witness is the first column of
    U^-1, so row * witness = 1 by construction. The row is normalised to
    valuation 0 by a left shift. Products are drawn until the witness
    needs ``depth`` reductions, counting every depth above 2 as 2, and
    the first row entry is a monomial exactly when ``monomial`` is true.
    """
    while True:
        # U = E1 E2 ... Ek, so row = (1, 0) E1 ... Ek and the witness is
        # Ek^-1 ... E1^-1 (1, 0)^T, built from E1 outwards
        row, wit = [{0: ONE}, {}], [{0: ONE}, {}]
        for _ in range(rng.randint(1, factors)):
            if rng.random() < 0.5:   # [[1, e], [0, 1]]
                e = _shaped_series(dom, rng, True, -1)
                row = [row[0], s_add(row[1], s_mul(dom, row[0], e))]
                wit = [s_add(wit[0], s_neg(s_mul(dom, e, wit[1]))), wit[1]]
            else:                    # [[1, 0], [f, 1]]
                f = _shaped_series(dom, rng, False, 0)
                row = [s_add(row[0], s_mul(dom, row[1], f)), row[1]]
                wit = [wit[0], s_add(wit[1], s_neg(s_mul(dom, f, wit[0])))]
        k = min(min(f) for f in row if f)
        wit = [{i + k: c for i, c in f.items()} for f in wit]
        row = [{i - k: sigma(dom, c, k) for i, c in f.items()} for f in row]
        if min(2, max(0, -min(min(f) for f in wit if f))) == depth \
                and monomial == (len(row[0]) == 1):
            return row, wit


def _small(dom: Dom, rng):
    """An arbitrary small ring element."""
    return _e(rng.randint(-3, 3), rng.randint(-3, 3) if dom.name != "int" else 0)


def window_generators(dom: Dom, rng, m: int):
    """Three generators whose right ideal escapes P at exactly order m.

    Returns (generators, known_to). h1 and h2 have coefficients in P
    below m and arbitrary small ones from m on; e = x^m (+-1 + ...) has
    a unit leading coefficient. The generators are h1, h2 and
    e + h1*c + h2*d for small random c and d, so every element of their
    right ideal has coefficients in P below m, and e = g3 - g1*c - g2*d
    lies in it: the order window reaches the unit ideal at order m,
    never earlier and never later.
    Drawing generators independently instead leaves the escape to chance,
    and rare jobs then need windows far beyond m, where the window
    transforms blow up (see README.md). The O-bound keeps the window
    search finite; exact polynomials would stall on the depth rule
    instead. The normalised row loses about m to m + 4 known orders to
    the window shift and the certificate needs 17 more at --prec 16, so
    m + 28 leaves a wide margin against exit 5 (precision deficit).
    """
    known_to = m + 28

    def low_in_p():
        f = {}
        while ZERO == f.get(0, ZERO):
            f[0] = lattice_elem(dom.p, rng)
        for i in range(1, known_to):
            c = lattice_elem(dom.p, rng) if i < m else _small(dom, rng)
            if c != ZERO:
                f[i] = c
        return f

    def factor():
        f = {}
        while ZERO == f.get(0, ZERO):
            f[0] = _small(dom, rng)
        f[1] = _small(dom, rng)
        return {i: c for i, c in f.items() if c != ZERO}

    h1, h2 = low_in_p(), low_in_p()
    e = {m: _e(rng.choice((-1, 1)))}
    for i in range(m + 1, known_to):
        c = _small(dom, rng)
        if c != ZERO:
            e[i] = c
    while True:
        g3 = s_add(e, s_add(s_mul(dom, h1, factor()), s_mul(dom, h2, factor())))
        if g3.get(0, ZERO) != ZERO:   # each generator starts at order 0
            break
    g3 = {i: c for i, c in g3.items() if i < known_to}
    return [h1, h2, g3], known_to


def make_job(workload: str, seed: int, index: int, stream: str = "job") -> Job:
    """Inputs of job ``index``; the warm-up jobs use stream ``"warm"``."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{stream}:{seed}:{index}")
    dom = DOMAINS[wl.domains[index % len(wl.domains)]]
    slot = index // len(wl.domains)
    prec = ["--prec", str(wl.prec)]
    if wl.command == "complete-row":
        row, wit = unimodular_row(dom, rng, *ROW_KINDS[slot % len(ROW_KINDS)])
        files = {"row.json": [series_json(f) for f in row],
                 "witness.json": [series_json(f) for f in wit]}
        ideal = json.dumps({"hnf": list(dom.j_hnf)})
        args = ["complete-row", "--domain", dom.name, "--ideal", ideal,
                "--row", "row.json", "--witness", "witness.json",
                "--bound", str(PRINCIPAL_BOUND)] + prec
    else:
        m = ESCAPES[slot % len(ESCAPES)]
        gens, known_to = window_generators(dom, rng, m)
        files = {}
        args = ["extend", "--domain", dom.name, "--gens",
                json.dumps([series_text(f, known_to) for f in gens])] + prec
    return Job(workload, index, dom.name, wl.prec, args, files)
