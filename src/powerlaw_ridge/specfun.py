"""Gauss hypergeometric function on the family F(a, b; b+1; z) with z <= 0.

This is the only parameter family the trade-off formulas need: b = 1/alpha
lies in (0, 1) and c = b + 1.  The package evaluates a = 1 only; a = 2 stays
valid for other callers, the benchmark's accuracy probe among them.
scipy.special.hyp2f1 evaluates it; this module checks the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import scipy.special

from .errors import DomainError

# unused here; perfbench's tracer counts hyp2f1 arguments on each side of them
_SERIES_CUT = -0.5
_PFAFF_CUT = -2.0


@dataclass(frozen=True)
class HypergeometricArgs:
    """Arguments of F(a, b; c; z) restricted to the in-scope family."""

    a: float
    b: float
    c: float
    z: float

    def __post_init__(self) -> None:
        if self.a not in (1.0, 2.0):
            raise DomainError(f"first parameter must be 1 or 2, got {self.a}")
        if not 0.0 < self.b < 1.0:
            raise DomainError(f"second parameter must lie in (0, 1), got {self.b}")
        if abs(self.c - (self.b + 1.0)) > 1e-12:
            raise DomainError(f"third parameter must equal b + 1, got {self.c}")
        if self.z > 0.0:
            raise DomainError(f"argument must be <= 0, got {self.z}")
        if not math.isfinite(self.z):
            raise DomainError("argument must be finite")


def hyp2f1(args: HypergeometricArgs) -> float:
    """Evaluate F(a, b; b+1; z) for z <= 0 with scipy.special.hyp2f1.

    Worst relative error against mpmath at 40 digits over a in {1, 2},
    z in [-1e12, 0], scipy 1.17.1: 7.9e-12 for alpha = 1/b in [1.0001, 1.001),
    8.0e-13 in [1.001, 1.01), 6.6e-14 in [1.01, 1.1) and 8.3e-15 from 1.1 on.
    It grows like eps / (alpha - 1) and peaks near z = -2.
    """
    return float(scipy.special.hyp2f1(args.a, args.b, args.c, args.z))
