"""Skew Laurent series rings over Z and quadratic orders, with certificates.

The package is organized around one chain of machinery:

  domains     exact arithmetic in D and its fraction field K
  ideals      fractional ideals: one HNF lattice over one denominator
  classgroup  reduced binary quadratic forms and composition
  series      x-adically truncated twisted Laurent series and matrices
  extension   certificates identifying right ideals with extended ideals
  completion  unimodular row completion over the idealized matrix ring
  structure   simplicity, Asano inverses, stable rank and K0 reports
  cli         the `skewdd` command
"""

from .domains import Domain, DomainSpec, FieldElem, RingElem, get_domain
from .ideals import FracIdeal, from_generators
from .series import SeriesMatrix, TruncatedSeries

__all__ = [
    "Domain",
    "DomainSpec",
    "FieldElem",
    "RingElem",
    "get_domain",
    "FracIdeal",
    "from_generators",
    "SeriesMatrix",
    "TruncatedSeries",
]

__version__ = "0.1.0"
