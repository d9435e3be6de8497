"""Executable witnesses for the structural facts about R = D((x; sigma)).

Everything here is a finite, machine-checked computation attached to a
verdict: a sigma-fixed ramified prime, whose extension is a proper
two-sided ideal (so R is not simple), two-sided inverses for
sigma-fixed extended ideals, the length-2 unimodular row that no
single elementary reduction can shorten (stable rank in the sense of
Bass, proved by a three-case split on the valuation of the multiplier,
each case checked exactly), and the K0 summary with its nonprincipality
witness. Nothing here is sampled: the same domain gives the same report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import Domain, RingElem
from .errors import NotTwoSided, SkewError, UnsupportedDomain
from . import ideals
from .ideals import FracIdeal, extended_ideal_iso, from_ring_generators
from .classgroup import class_group, sigma_acts_trivially
from .series import TruncatedSeries, mul, scale_right
from . import textio


def _least_prime_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def simplicity_witness(dom: Domain) -> FracIdeal:
    """A proper two-sided ideal of R, which is therefore never simple.

    Over Z the witness is (2). Over a quadratic order it is the prime P
    above the least prime factor p of |disc|: (2, w) or (2, 1 + w) when
    d = 2 or 3 mod 4 (then p = 2), else (p, sqrt d) = (p, 2w - 1). P is
    ramified (P*P = (p)), so P is its own conjugate and either sigma
    fixes it; then x*g = sigma(g)*x keeps each generator g inside P*R,
    and P*R is a two-sided ideal. Checked here: P is proper and nonzero,
    sigma(P) = P, and sigma(g) lies in P for both generators. SkewError
    if a check fails.
    """
    if not dom.is_quad:
        witness = FracIdeal(dom, 2)
    else:
        p = _least_prime_factor(abs(dom.disc))
        if p == 2:
            gen = dom.omega if dom.d % 4 == 2 else dom.one + dom.omega
        else:
            gen = dom.elem(-1, 2)
        witness = from_ring_generators(dom, [dom.elem(p), gen])
    if witness.is_zero or witness.is_unit:
        raise SkewError(f"{witness!r} is not a proper nonzero ideal")
    if witness.sigma(1) != witness or not all(
            witness.contains(dom.sigma_pow(g, 1))
            for g in witness.two_generators()):
        raise SkewError(f"sigma does not fix {witness!r}")
    return witness


def asano_inverse(j_ideal: FracIdeal) -> FracIdeal:
    """Two-sided inverse of the extended ideal of a sigma-fixed J.

    The product J * J^(-1) = D is verified by the inverse itself, which
    certifies (J R)(J^(-1) R) = R at the coefficient level.
    """
    if j_ideal.is_zero:
        raise SkewError("zero ideal")
    if j_ideal.sigma(1) != j_ideal:
        raise NotTwoSided(f"sigma moves {j_ideal!r}; its extension is "
                          "not a two-sided ideal")
    return j_ideal.inverse()


# the three cases of the lowest coefficient of (a + x) + (a^2 + b x) r for
# r of valuation k with lowest coefficient r_k: label, the k at which it is
# checked (with r = x^k), the formula, and its value at r_k = 1
_CASES = (
    ("k<0", -1, "a^2*r_k", lambda a: a * a),
    ("k=0", 0, "a*(1+a*r_0)", lambda a: a + a * a),
    ("k>0", 1, "a", lambda a: a),
)


@dataclass
class StableRankWitness:
    a: RingElem
    b: RingElem
    identity_ok: bool
    lowest_ideal: FracIdeal            # aD, a proper ideal
    cases: dict                        # label -> lowest coefficient at r = x^k

    def to_json(self) -> dict:
        return {
            "a": textio.format_ring_elem(self.a),
            "b": textio.format_ring_elem(self.b),
            "identity_ok": self.identity_ok,
            "lowest_ideal": self.lowest_ideal.to_json(),
            "cases": {
                label: {"formula": formula, "lowest":
                        textio.format_field_elem(self.cases[label])}
                for label, _, formula, _ in _CASES},
        }


def stable_rank_witness(dom: Domain, a: RingElem) -> StableRankWitness:
    """The row (a + x, a^2 + b x) with b = 1 + sigma(a), and the proof
    that no elementary reduction shortens it.

    The row is unimodular: (a + x) a - (a^2 + b x) = -x, a unit. Let r
    have valuation k and lowest coefficient r_k in D. The lowest
    coefficient of (a + x) + (a^2 + b x) r is a^2 r_k when k < 0,
    a (1 + a r_0) when k = 0 (nonzero, since 1 + a r_0 = 0 would make a a
    unit) and a when k > 0. Each is a nonzero element of aD, and aD is a
    proper ideal, so none is a unit of D. A series is a unit of R only if
    its lowest coefficient is a unit of D, so no r makes
    (a + x) + (a^2 + b x) r a unit.

    Checked here: the identity exactly, that aD is proper, and each case
    formula against one exact product at r = x^-1, 1 and x, whose lowest
    coefficient must be nonzero and lie in aD. SkewError if a check fails.
    """
    a_ideal = from_ring_generators(dom, [a])
    if a_ideal.is_zero or a_ideal.is_unit:
        raise SkewError("need a nonzero non-unit")
    b = dom.one + dom.sigma_pow(a, 1)
    af = a.to_field()
    a_plus_x = TruncatedSeries.from_coeff_map(dom, [(0, af), (1, dom.fone)])
    second = TruncatedSeries.from_coeff_map(
        dom, [(0, af * af), (1, b.to_field())])
    lhs = scale_right(a_plus_x, af) - second
    expected = TruncatedSeries.from_coeff_map(dom, [(1, -dom.fone)])
    identity_ok = (lhs - expected).is_exact_zero
    cases = {}
    for label, k, _, at_one in _CASES:
        r = TruncatedSeries.x_power(dom, k)
        low = (a_plus_x + mul(second, r)).lowest()
        if low != at_one(af):
            raise SkewError(f"lowest coefficient mismatch for {label}")
        if not low or not a_ideal.contains(low):
            raise SkewError(f"lowest coefficient for {label} is not a "
                            "nonzero element of aD")
        cases[label] = low
    return StableRankWitness(a, b, identity_ok, a_ideal, cases)


@dataclass
class StructureReport:
    dom: Domain
    h: int
    class_structure: str
    sigma_trivial: bool
    simplicity_witness: FracIdeal
    k0_text: str
    witness_ideal: FracIdeal | None
    stable_rank: StableRankWitness

    def to_json(self) -> dict:
        return {
            "domain": self.dom.spec.to_json(),
            "class_number": self.h,
            "class_group": self.class_structure,
            "sigma_acts_trivially": self.sigma_trivial,
            "simplicity": {"verdict": "non_simple",
                           "witness": self.simplicity_witness.to_json()},
            "k0": self.k0_text,
            "nonprincipal_witness":
                self.witness_ideal.to_json() if self.witness_ideal else None,
            "stable_rank_witness": self.stable_rank.to_json(),
        }

    def to_text(self) -> str:
        lines = [
            f"domain: {textio.format_domain(self.dom.spec)}",
            f"class number h = {self.h} (G(D) = {self.class_structure})",
            f"sigma acts trivially on G(D): {self.sigma_trivial}",
        ]
        lines.append(f"R is not simple; sigma-fixed witness ideal "
                     f"{self.simplicity_witness!r}")
        lines.append(self.k0_text)
        if self.witness_ideal is not None:
            lines.append(
                f"nonprincipality witness: {self.witness_ideal!r} extends to "
                "a non-free projective (no twisted class match with D)")
        sr = self.stable_rank
        lines.append(
            f"stable-rank witness row (a+x, a^2+bx) with a = "
            f"{textio.format_ring_elem(sr.a)}: (a+x)a - (a^2+bx) = -x "
            f"{'holds' if sr.identity_ok else 'FAILS'}")
        formulas = ", ".join(f"{formula} ({label})"
                             for label, _, formula, _ in _CASES)
        lows = ", ".join(map(textio.format_field_elem, sr.cases.values()))
        lines.append(
            f"  no reduction (a+x) + (a^2+bx)r is a unit: for r of valuation "
            f"k its lowest coefficient {formulas} is a nonzero element of "
            f"the proper ideal aD = {sr.lowest_ideal!r} ({lows} at r = "
            "x^-1, 1, x)")
        return "\n".join(lines)


def k0_report(dom: Domain) -> StructureReport:
    """Class data, simplicity witness, K0 conclusion and stable-rank
    proof."""
    cg = class_group(dom)  # UnsupportedDomain for real quadratic
    trivial = sigma_acts_trivially(dom)
    witness = None
    if cg.h > 1:
        from .classgroup import ideal_of_form

        nonprincipal = next(
            ideal_of_form(dom, f)
            for i, f in enumerate(cg.forms) if i != cg.identity)
        if extended_ideal_iso(nonprincipal, ideals.unit_ideal(dom)) is not None:
            raise SkewError("nonprincipal witness unexpectedly matched D")
        witness = nonprincipal
    if trivial:
        if cg.h == 1:
            k0_text = "G(R) is trivial and K0(R) = Z"
        else:
            k0_text = (f"G(R) = G(D) = {cg.structure_text()} and "
                       f"K0(R) = Z + {cg.structure_text()}")
    else:
        k0_text = ("sigma does not act trivially on G(D); "
                   "K0(R) is not identified with K0(D) here")
    sr = stable_rank_witness(dom, dom.elem(2))
    return StructureReport(
        dom, cg.h, cg.structure_text(), trivial,
        simplicity_witness(dom), k0_text, witness, sr)
