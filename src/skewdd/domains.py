"""Exact arithmetic in Z and quadratic orders, with their fraction fields.

A domain is either the rational integers or the maximal order O_d of a
quadratic field Q(sqrt(d)) for a squarefree d, written Z[w] with

    w = sqrt(d)        if d = 2, 3 (mod 4)
    w = (1+sqrt(d))/2  if d = 1 (mod 4).

The automorphism sigma is either the identity or the nontrivial field
automorphism (conjugation); both square to the identity, which the rest
of the package relies on when twisting coefficients by sigma^i.

Elements are immutable and all operations are pure, so values can be
shared freely between threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import SkewError

SIGMA_ID = "id"
SIGMA_CONJ = "conj"


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


@dataclass(frozen=True)
class DomainSpec:
    """Description of a supported coefficient domain.

    kind is "int" (rational integers, sigma forced to the identity) or
    "quad" (the order Z[w] of squarefree discriminantal d, with sigma
    either "id" or "conj").
    """

    kind: str
    d: int | None = None
    sigma: str = SIGMA_ID

    def __post_init__(self):
        if self.kind not in ("int", "quad"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.sigma not in (SIGMA_ID, SIGMA_CONJ):
            raise ValueError(f"unknown automorphism {self.sigma!r}")
        if self.kind == "int":
            if self.d is not None:
                raise ValueError("kind 'int' takes no d")
            if self.sigma != SIGMA_ID:
                raise ValueError("conjugation needs a quadratic domain")
        else:
            if self.d is None or self.d in (0, 1):
                raise ValueError("quadratic domain needs squarefree d not in {0, 1}")
            if not _is_squarefree(self.d):
                raise ValueError(f"d = {self.d} is not squarefree")

    def to_json(self) -> dict:
        if self.kind == "int":
            return {"kind": "int"}
        return {"kind": "quad", "d": self.d, "sigma": self.sigma}

    @staticmethod
    def from_json(obj: dict) -> "DomainSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"domain must be a JSON object, not {obj!r}")
        if obj.get("kind") == "int":
            return DomainSpec("int")
        return DomainSpec("quad", int(obj["d"]), obj.get("sigma", SIGMA_ID))


@functools.lru_cache(maxsize=None)
def get_domain(spec: DomainSpec) -> "Domain":
    return Domain(spec)


class Domain:
    """Runtime arithmetic context for a DomainSpec.

    Carries the multiplication rule for w (w^2 = omega_c + omega_t * w,
    where omega_t is also the trace of w) and interning of the common
    constants. Obtain instances through get_domain so that identity
    comparison between element domains is cheap.
    """

    __slots__ = ("spec", "is_quad", "d", "conj_sigma", "omega_c", "omega_t",
                 "disc", "zero", "one", "omega", "fzero", "fone")

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self.is_quad = spec.kind == "quad"
        self.d = spec.d
        self.conj_sigma = spec.sigma == SIGMA_CONJ
        if self.is_quad:
            if spec.d % 4 == 1:
                # w = (1+sqrt d)/2, w^2 = (d-1)/4 + w
                self.omega_c = (spec.d - 1) // 4
                self.omega_t = 1
                self.disc = spec.d
            else:
                self.omega_c = spec.d
                self.omega_t = 0
                self.disc = 4 * spec.d
        else:
            self.omega_c = 0
            self.omega_t = 0
            self.disc = 1
        self.zero = RingElem(self, 0, 0)
        self.one = RingElem(self, 1, 0)
        self.omega = RingElem(self, 0, 1) if self.is_quad else None
        self.fzero = FieldElem(self, self.zero, 1)
        self.fone = FieldElem(self, self.one, 1)

    def __repr__(self):
        if not self.is_quad:
            return "Domain(Z)"
        return f"Domain(Z[w], d={self.d}, sigma={self.spec.sigma})"

    def elem(self, a: int, b: int = 0) -> "RingElem":
        if b and not self.is_quad:
            raise ValueError("integer domain has no w component")
        return RingElem(self, a, b)

    def felem(self, a, b=0, den: int = 1) -> "FieldElem":
        """Build (a + b*w)/den, accepting ints or Fractions for a and b."""
        fa, fb = Fraction(a), Fraction(b)
        scale = fa.denominator * fb.denominator \
            // gcd(fa.denominator, fb.denominator)
        return FieldElem(self, RingElem(self, int(fa * scale), int(fb * scale)),
                         den * scale)

    # sigma^i action; both supported automorphisms square to the identity.
    def sigma_pow_ring(self, e: "RingElem", i: int) -> "RingElem":
        if self.conj_sigma and i % 2:
            return e.conj()
        return e

    def sigma_pow(self, e: "FieldElem", i: int) -> "FieldElem":
        if self.conj_sigma and i % 2:
            return e.conj()
        return e

    @property
    def sigma_order(self) -> int:
        """Order of sigma as a group element (1 or 2)."""
        return 2 if self.conj_sigma else 1


class RingElem:
    """Element a + b*w of the order (b = 0 over the integers)."""

    __slots__ = ("dom", "a", "b")

    def __init__(self, dom: Domain, a: int, b: int = 0):
        self.dom = dom
        self.a = a
        self.b = b

    def __repr__(self):
        from .textio import format_ring_elem
        return format_ring_elem(self)

    def _check(self, other) -> "RingElem":
        if isinstance(other, int):
            return RingElem(self.dom, other, 0)
        if isinstance(other, RingElem):
            if other.dom is not self.dom:
                raise SkewError("mixed domains")
            return other
        return None

    def __eq__(self, other):
        o = self._check(other)
        return o is not None and self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((id(self.dom), self.a, self.b))

    def __bool__(self):
        return bool(self.a or self.b)

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return RingElem(self.dom, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.dom, -self.a, -self.b)

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return RingElem(self.dom, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        d = self.dom
        bb = self.b * o.b
        return RingElem(
            d,
            self.a * o.a + bb * d.omega_c,
            self.a * o.b + self.b * o.a + bb * d.omega_t,
        )

    __rmul__ = __mul__

    def conj(self) -> "RingElem":
        # (a + b*w)-bar = a + b*tr(w) - b*w
        return RingElem(self.dom, self.a + self.b * self.dom.omega_t, -self.b)

    def norm(self) -> int:
        """Field norm; over Z the element itself (degree-one convention)."""
        if not self.dom.is_quad:
            return self.a
        return self.a * self.a + self.a * self.b * self.dom.omega_t \
            - self.b * self.b * self.dom.omega_c

    def is_unit(self) -> bool:
        return self.norm() in (1, -1)

    def content(self) -> int:
        return gcd(self.a, self.b)

    def trace(self) -> int:
        return 2 * self.a + self.b * self.dom.omega_t

    def to_field(self) -> "FieldElem":
        return FieldElem(self.dom, self, 1)

    def complex_value(self) -> complex:
        """Numeric embedding, for test-side spot checks only."""
        d = self.dom
        if not d.is_quad:
            return complex(self.a)
        root = complex(0, abs(d.d) ** 0.5) if d.d < 0 else complex(d.d ** 0.5)
        w = (1 + root) / 2 if d.omega_t else root
        return self.a + self.b * w


class FieldElem:
    """Element of the fraction field, stored as num / den in lowest terms.

    den is a positive rational integer and gcd(content(num), den) = 1,
    so the ring embeds as the den = 1 elements.
    """

    __slots__ = ("dom", "num", "den")

    def __init__(self, dom: Domain, num: RingElem, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(num.content(), den)
        if g > 1:
            num = RingElem(dom, num.a // g, num.b // g)
            den //= g
        self.dom = dom
        self.num = num
        self.den = den

    def __repr__(self):
        from .textio import format_field_elem
        return format_field_elem(self)

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.dom is not self.dom:
                raise SkewError("mixed domains")
            return other
        if isinstance(other, RingElem):
            return other.to_field()
        if isinstance(other, int):
            return FieldElem(self.dom, RingElem(self.dom, other, 0), 1)
        if isinstance(other, Fraction):
            return FieldElem(
                self.dom, RingElem(self.dom, other.numerator, 0), other.denominator
            )
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        return o is not None and self.den == o.den and self.num == o.num

    def __hash__(self):
        return hash((id(self.dom), self.num.a, self.num.b, self.den))

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.dom, self.num * o.den + o.num * self.den,
                         self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.dom, -self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.dom, self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        if not self.dom.is_quad:
            return FieldElem(self.dom, RingElem(self.dom, self.den, 0), self.num.a)
        n = self.num.norm()
        num = self.num.conj() * self.den
        if n < 0:
            num, n = -num, -n
        return FieldElem(self.dom, num, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def conj(self) -> "FieldElem":
        return FieldElem(self.dom, self.num.conj(), self.den)

    def norm(self) -> Fraction:
        """Field norm as a rational; multiplicative."""
        if not self.dom.is_quad:
            return Fraction(self.num.a, self.den)
        return Fraction(self.num.norm(), self.den * self.den)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def as_ring(self) -> RingElem:
        if self.den != 1:
            raise SkewError(f"{self!r} is not integral")
        return self.num

    def complex_value(self) -> complex:
        return self.num.complex_value() / self.den
