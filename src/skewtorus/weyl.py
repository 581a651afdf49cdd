"""Weyl-sum equidistribution checks for angle-valued polynomials.

weyl_average computes (1/N) sum_{n=1}^{N} e(p(n + k)) for a polynomial
p in the binomial basis, a sample count N, and a shift k that may be
astronomically large.  Two contracts shape the implementation:

Exact phases.  Substituting the declared basis values turns each
coefficient into an exact rational; over the common denominator D the
phase of p at successive arguments is advanced with an integer
difference table mod D (binomial-basis polynomials step by adding the
next-higher difference), so every phase handed to cos/sin is a single
correctly-rounded double of the true rational phase; huge shifts cost
one exact binomial evaluation up front and no precision.

Deterministic reduction.  Samples are accumulated in fixed chunks of
4096 with pairwise (tree) summation inside each chunk and across chunk
sums.  The tree shape depends only on N, never on scheduling, so
results are bit-identical run to run; a shifted start changes phases,
not the tree.

The limit predicted for N -> infinity: 0 whenever some nonconstant
coefficient has an irrational part, and likewise for degree-1 rational
(non-integer) polynomials; otherwise the orbit of phases is periodic
and the target is the exact average over one minimal period, summed on
the same integer phase stream as the averages.

Bounded work.  Periods above MAX_PERIOD, and more than MAX_SAMPLES
samples in one average or one report, raise ConfigurationError instead
of running for minutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Sequence

from .circle import Angle, BasisDecl, angle_to_unit
from .combinatorics import binomial_shift
from .dynamics import BasicSystem, CharacterIndex, PolyAngle, orbit_polynomial
from .errors import ConfigurationError

_CHUNK = 4096
_TWO_PI = 2.0 * math.pi

# Longest minimal period that equidistribution_target sums term by term.
# A term costs about 1 us at degree 2 and 12 us at degree 64 (the parse
# cap on k), so the exact period mean stays within seconds.
MAX_PERIOD = 1_000_000

# Most samples that one weyl_average, or one report over all its shifts,
# takes.  A sample costs about a microsecond at degree 2 and more at
# higher degree; the default config asks for 200,000 at 4 shifts.
MAX_SAMPLES = 10_000_000


def _coefficient_values(poly: PolyAngle, basis: BasisDecl) -> list[Fraction]:
    """Exact rational value of each coefficient under the declared basis."""
    vals = []
    for c in poly.coeffs:
        v = c.rat
        for sym, q in c.coeffs:
            v += q * basis.value_of(sym)
        vals.append(v)
    return vals


class _PhaseStream:
    """Integer difference table yielding phases of p(start), p(start+1), ...

    Row j holds D * (Delta^j p)(current) mod D; advancing adds row j+1
    into row j, the binomial-basis recurrence.
    """

    __slots__ = ("den", "table")

    def __init__(self, poly: PolyAngle, basis: BasisDecl, start: int) -> None:
        vals = _coefficient_values(poly, basis)
        den = 1
        for v in vals:
            den = lcm(den, v.denominator)
        ints = [int(v * den) for v in vals]
        # (Delta^j p)(start) is coefficient j of p shifted by start
        self.den = den
        self.table = [w % den for w in binomial_shift(ints, start)]

    def next_phase(self) -> float:
        w = self.table
        theta = w[0] / self.den
        for j in range(len(w) - 1):
            w[j] = (w[j] + w[j + 1]) % self.den
        return theta


def _pairwise(vals: Sequence[complex], lo: int, hi: int) -> complex:
    n = hi - lo
    if n <= 8:
        s = 0j
        for i in range(lo, hi):
            s += vals[i]
        return s
    mid = lo + n // 2
    return _pairwise(vals, lo, mid) + _pairwise(vals, mid, hi)


def weyl_average(
    poly: PolyAngle, N: int, shift: int, basis: BasisDecl
) -> complex:
    """(1/N) sum_{n=1}^{N} e(p(n + shift)), bit-deterministic."""
    if N < 1:
        raise ValueError(f"sample count must be >= 1, got {N}")
    if N > MAX_SAMPLES:
        raise ConfigurationError(f"N = {N} samples is over the cap of {MAX_SAMPLES}")
    stream = _PhaseStream(poly, basis, shift + 1)
    chunk: list[complex] = []
    sums: list[complex] = []
    for _ in range(N):
        t = _TWO_PI * stream.next_phase()
        chunk.append(complex(math.cos(t), math.sin(t)))
        if len(chunk) == _CHUNK:
            sums.append(_pairwise(chunk, 0, _CHUNK))
            chunk.clear()
    if chunk:
        sums.append(_pairwise(chunk, 0, len(chunk)))
    return _pairwise(sums, 0, len(sums)) / N


def minimal_period(poly: PolyAngle) -> int | None:
    """Least t >= 1 with p(n + t) == p(n) identically, None if aperiodic.

    Periodic exactly when every nonconstant coefficient is rational.
    The k-th difference P_k = sum_{j >= k} c_j binom(n, j - k) is then
    periodic too, and every period of P_k is a period of P_{k+1}.  For
    the least period t of P_{k+1}, P_k(n + t) - P_k(n) is the constant
    h = sum_{j > k} binom(t, j - k) c_j, so P_k has least period t times
    the order of h in Q/Z.  Starting from the constant P_d (period 1),
    d such steps on the integer residues Q * c_j mod Q, for Q the lcm of
    the nonconstant denominators, give the period of p = P_0.  Only h
    mod Q matters, and binom(t, r) mod Q depends on t mod Q * r! alone,
    so the binomials are taken at t mod Q * d! and stay small.
    """
    if any(c.coeffs for c in poly.coeffs[1:]):
        return None
    Q = 1
    for c in poly.coeffs[1:]:
        Q = lcm(Q, c.rat.denominator)
    # a[0] stands in for the constant term, which no difference reads
    a = [0] + [c.rat.numerator * (Q // c.rat.denominator) for c in poly.coeffs[1:]]
    modulus = Q * factorial(poly.degree)
    t = 1
    for k in range(poly.degree - 1, -1, -1):
        r, b, h = t % modulus, 1, 0
        for i in range(1, poly.degree - k + 1):
            b = b * (r - i + 1) // i  # binom(r, i)
            h += b * a[k + i]
        t *= Q // gcd(h, Q)
    return t


def equidistribution_target(poly: PolyAngle, basis: BasisDecl) -> complex:
    """Predicted limit of the Weyl averages as N grows.

    A periodic target is the mean of e(p(n)) over n = 1..t for the
    minimal period t, summed in order on the same integer phase stream
    as weyl_average, so each term is bit-identical to the pointwise
    projection angle_to_unit(p(n)).  Before the sum, two exact checks
    against the Angle algebra guard the integer paths: p.shift(t) == p,
    and the first term equals the projection of p(1).  A period over
    MAX_PERIOD raises ConfigurationError.
    """
    if poly.degree == 0:
        return angle_to_unit(poly.coeffs[0], basis)
    t = minimal_period(poly)
    if t is None or poly.degree == 1:
        # an irrational nonconstant coefficient, or a nonzero non-integer
        # rational rotation, averages out
        return 0j
    if t > MAX_PERIOD:
        raise ConfigurationError(
            f"minimal period {t} exceeds the cap of {MAX_PERIOD} terms "
            "for the exact period mean"
        )
    if poly.shift(t) != poly:
        raise AssertionError(f"residue period {t} does not fix {poly}")
    stream = _PhaseStream(poly, basis, 1)
    x = _TWO_PI * stream.next_phase()
    s = 0j + complex(math.cos(x), math.sin(x))
    if s != angle_to_unit(poly.evaluate(1), basis):
        raise AssertionError(f"phase stream disagrees with {poly} at n = 1")
    for _ in range(t - 1):
        x = _TWO_PI * stream.next_phase()
        s += complex(math.cos(x), math.sin(x))
    return s / t


@dataclass(frozen=True)
class WeylReport:
    """Averages at several shifts against the predicted target."""

    N: int
    shifts: tuple[int, ...]
    averages: tuple[complex, ...]
    target: complex
    tol: float

    @property
    def max_abs(self) -> float:
        return max(
            (abs(a - self.target) for a in self.averages), default=0.0
        )

    @property
    def passed(self) -> bool:
        return self.max_abs < self.tol

    def rows(self) -> list[dict]:
        out = []
        for k, a in zip(self.shifts, self.averages):
            out.append(
                {
                    "N": self.N,
                    "k": k,
                    "re": a.real,
                    "im": a.imag,
                    "abs": abs(a - self.target),
                }
            )
        return out

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "tol": self.tol,
            "target": {"re": self.target.real, "im": self.target.imag},
            "max_abs": self.max_abs,
            "pass": self.passed,
            "rows": self.rows(),
        }

    def to_csv(self) -> str:
        lines = ["N,k,re,im,abs"]
        for r in self.rows():
            lines.append(
                f"{r['N']},{r['k']},{r['re']!r},{r['im']!r},{r['abs']!r}"
            )
        return "\n".join(lines) + "\n"


def equidistribution_report(
    poly: PolyAngle,
    N: int,
    shifts: Sequence[int],
    tol: float,
    basis: BasisDecl,
) -> WeylReport:
    if not 0 < tol < math.inf:  # NaN fails too
        raise ConfigurationError(f"tolerance must be positive and finite, got {tol}")
    if N * len(shifts) > MAX_SAMPLES:
        raise ConfigurationError(
            f"N = {N} at {len(shifts)} shift(s) is {N * len(shifts)} samples, "
            f"over the cap of {MAX_SAMPLES}"
        )
    target = equidistribution_target(poly, basis)
    averages = tuple(weyl_average(poly, N, k, basis) for k in shifts)
    return WeylReport(N, tuple(shifts), averages, target, tol)


def unique_ergodicity_check(
    sys: BasicSystem,
    v: CharacterIndex,
    x: Sequence[Angle],
    N: int,
    shifts: Sequence[int],
    tol: float,
    basis: BasisDecl,
) -> WeylReport:
    """Weyl report for the character v along the orbit of x.

    For non-torsion x0 and nontrivial v the target is 0 (the headline
    unique-ergodicity regime); torsion x0 gives periodic orbits and an
    exact periodic mean, which the report checks just as strictly.
    """
    poly = orbit_polynomial(sys, v, x)
    return equidistribution_report(poly, N, shifts, tol, basis)
