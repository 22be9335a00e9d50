"""Gauss hypergeometric function on the family F(a, b; b+1; z) with z <= 0.

This is the only parameter family the trade-off formulas need: a is 1 or 2,
b = 1/alpha lies in (0, 1), and c = b + 1.  Three evaluation regimes cover
all argument magnitudes:

* direct power series for -0.5 < z <= 0 (geometric in |z|),
* Pfaff transformation F(a,b;c;z) = (1-z)^(-a) F(a, c-b; c; z/(z-1)) for
  -2 < z <= -0.5, which maps the argument into [1/3, 2/3),
* a large-argument expansion for z <= -2, obtained by splitting the Euler
  integral at t = 1; it converges geometrically with ratio 1/|z|.  (The
  Pfaff series alone degrades as z/(z-1) -> 1, so huge |z| needs this.)

Because c = b + 1, the gamma prefactor of the integral representation
collapses to b, and the large-argument connection constants reduce to
pi/sin(pi*b) factors; no general gamma function is required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

_SERIES_REL_TOL = 1e-16
_MAX_TERMS = 10_000
# branch boundaries in z; both neighbours converge geometrically at the cut
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
    """Evaluate F(a, b; b+1; z) for z <= 0.

    Worst relative error against mpmath over a in {1, 2}, z in [-1e12, 0]:
    4e-9 at alpha = 1/b = 1.0001, 7e-13 at 1.01, 2e-14 from 1.1 and 1e-15
    from 1.5; the loss near alpha = 1 is in _large_argument.
    """
    if args.z == 0.0:
        return 1.0
    if args.z > _SERIES_CUT:
        return _gauss_series(args.a, args.b, args.b + 1.0, args.z)
    if args.z > _PFAFF_CUT:
        w = args.z / (args.z - 1.0)
        return (1.0 - args.z) ** (-args.a) * _gauss_series(
            args.a, 1.0, args.b + 1.0, w
        )
    return _large_argument(args.a, args.b, -args.z)


def _gauss_series(a: float, b: float, c: float, z: float) -> float:
    term = 1.0
    total = 1.0
    for m in range(_MAX_TERMS):
        term *= (a + m) * (b + m) / ((c + m) * (m + 1.0)) * z
        total += term
        if abs(term) <= _SERIES_REL_TOL * abs(total):
            return total
    raise ConvergenceError(
        f"hypergeometric series did not converge within {_MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


def _large_argument(a: float, b: float, big_z: float) -> float:
    # F(a, b; b+1; -Z) = b * (C_a * Z^(-b) - tail(Z)), Z = |z| > 1, where the
    # head comes from extending the Euler integral to [0, inf) and the tail
    # re-expands the remainder over [1, inf) in powers of 1/Z.  For a = 1 and
    # b -> 1 the head pi/sin(pi*b) * Z^(-b) and the first tail term
    # Z^(-1)/(1-b) both grow like 1/(1-b) and cancel, which costs digits for
    # alpha near 1.
    head_const = math.pi / math.sin(math.pi * b)
    if a == 2.0:
        head_const *= 1.0 - b
    head = head_const * big_z ** (-b)

    tail = 0.0
    start = 1 if a == 1.0 else 2
    sign = 1.0
    power = big_z ** (-start)
    for m in range(start, _MAX_TERMS):
        coeff = 1.0 if a == 1.0 else float(m - 1)
        term = sign * coeff * power / (m - b)
        tail += term
        value = b * (head - tail)
        if abs(term) <= _SERIES_REL_TOL * max(abs(value), 1e-300):
            return value
        sign = -sign
        power /= big_z
    raise ConvergenceError(
        f"large-argument expansion did not converge (a={a}, b={b}, z={-big_z})"
    )
