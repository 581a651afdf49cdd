"""Weyl-sum equidistribution checks for angle-valued polynomials.

weyl_average computes (1/N) sum_{n=1}^{N} e(p(n + k)) for a polynomial
p in the binomial basis, a sample count N, and a shift k that may be
astronomically large.  Two contracts shape the implementation:

Exact phases.  Substituting the declared basis values turns each
coefficient into an exact rational over a common denominator D.  An
integer difference table, built once at the start shift, runs as a
chain of itertools.accumulate calls, so no Python code runs per sample:
each is one % D, then one correctly rounded division, one float multiply
by 2 pi and one cmath.rect.  For D up to 4096 those last three are done
once per residue, into a table of e(j / D) cached per denominator, and a
sample is one % D and one lookup.
Huge shifts cost one exact binomial shift up front and no precision.
The rows are not reduced inside the chain, so at high degree they grow
with the sample count (see MAX_SAMPLES).

Deterministic reduction.  Samples are accumulated in fixed chunks of
4096 with pairwise (tree) summation inside each chunk and across chunk
sums.  The tree shape depends only on N, never on scheduling, so
results are bit-identical run to run; a shifted start changes phases,
not the tree.  A plan cached per length lays the tree out as columns
and levels, which map(add, ...) sums without a Python loop per value.

The limit predicted for N -> infinity: 0 whenever some nonconstant
coefficient has an irrational part, and likewise for degree-1 rational
(non-integer) polynomials; otherwise the orbit of phases is periodic
and the target is the exact average over one minimal period, summed on
the same integer phase stream as the averages.

Bounded work.  Periods above MAX_PERIOD, more than MAX_SAMPLES samples
in one average or one report, and more than MAX_SHIFTS shifts in one
report raise ConfigurationError instead of running for minutes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, islice, repeat
from math import factorial, gcd, lcm
from operator import add, itemgetter, mod, mul, truediv
from typing import Iterable, Iterator, Sequence

from .circle import Angle, BasisDecl, angle_to_unit
from .combinatorics import binomial_shift
from .dynamics import BasicSystem, CharacterIndex, PolyAngle, orbit_polynomial
from .errors import ConfigurationError

_CHUNK = 4096
_TWO_PI = 2.0 * math.pi

# Longest minimal period that equidistribution_target sums term by term.
# A term costs about 0.19-0.25 us at degrees 2 and 3, 0.13-0.18 us there
# when D <= 4096 and its table is cached, and 2.1-2.6 us at degree 64 (the
# parse cap on k) on either path, so the exact period mean stays within
# seconds.
MAX_PERIOD = 1_000_000

# Most samples that one weyl_average, or one report over all its shifts,
# takes.  Over 3 * 10^5 samples a sample costs about 0.39-0.47 us at
# degrees 2 and 3 with the default basis (D near 10^40), 0.15-0.20 us there
# when D <= 4096 takes the table, and 2.8-3.4 us at degree 64 (2.3-2.6
# with the table), where the unreduced rows have grown (up to 0.9 and 7 us
# on a loaded host); the default config asks for 200,000 at 4 shifts.
MAX_SAMPLES = 10_000_000

# Most shifts in one report; the sample cap alone would admit 10^7 at N = 1.
# A shift costs its own set-up and a JSON row of about 67-100 bytes
# whatever N is.  At the cap and N = 1 a whole `weyl` run took 1.5 s for
# 1/7*C(n,2) and 2.2 s at degrees 2 and 3 with shifts near 10^18, writing
# 6.7-10 MB; at degree 64 a shift near 10^18 costs about 0.75 ms, so 74 s
# (2 vCPUs, Python 3.11).  The set-up grows with the digits of the shift.
MAX_SHIFTS = 100_000


def _coefficient_values(poly: PolyAngle, basis: BasisDecl) -> tuple[list[int], int]:
    """Exact value of each coefficient under the declared basis, as
    numerators over their least common denominator."""
    vals = []
    for c in poly.coeffs:
        n, d = basis.phase(c)
        g = gcd(n, d)
        vals.append((n // g, d // g))
    den = lcm(*[d for _, d in vals])
    return [n * (den // d) for n, d in vals], den


def _residues(poly: PolyAngle, basis: BasisDecl, start: int) -> tuple[Iterator[int], int]:
    """The residues D * p(start), D * p(start+1), ... mod D, and D."""
    ints, den = _coefficient_values(poly, basis)
    # (Delta^j p)(start) is coefficient j of p shifted by start
    *rows, top = [w % den for w in binomial_shift(ints, start)]
    chain = repeat(top)
    for row in reversed(rows):
        chain = accumulate(chain, initial=row)
    return map(mod, chain, repeat(den)), den


def _phases(poly: PolyAngle, basis: BasisDecl, start: int) -> Iterator[float]:
    """Phases of p(start), p(start+1), ... in [0, 1).

    Row j starts at D * (Delta^j p)(start) mod D.  Advancing adds row
    j+1 into row j (the binomial-basis recurrence), so each row is the
    running sum of the row above it, down from the constant top row.
    """
    residues, den = _residues(poly, basis, start)
    return map(truediv, residues, repeat(den))


def _project(residues: Iterable[int], den: int) -> Iterator[complex]:
    # rect(1.0, y) is (1.0 * cos y, 1.0 * sin y), or (1.0, 0.0) at y = 0: bit for
    # bit the complex(cos y, sin y) that angle_to_unit builds from y = 2 pi theta
    phases = map(truediv, residues, repeat(den))
    return map(cmath.rect, repeat(1.0), map(mul, repeat(_TWO_PI), phases))


# A table holds at most _CHUNK values (about 160 KB) and costs at most one
# chunk of projections to build; 32 of them cover the denominators that a
# report or a check suite cycles through.
@lru_cache(maxsize=32)
def _unit_table(den: int) -> tuple[complex, ...]:
    """e(j / den) for j = 0..den-1, each from _project as on the direct path."""
    return tuple(_project(range(den), den))


def _units(poly: PolyAngle, basis: BasisDecl, start: int) -> Iterator[complex]:
    residues, den = _residues(poly, basis, start)
    if den <= _CHUNK:  # a period visits at most den residues: look them up
        return map(_unit_table(den).__getitem__, residues)
    return _project(residues, den)


def _leaves(lo: int, size: int, depth: int) -> Iterator[tuple[int, int, int]]:
    """(start, size, depth) of each leaf under a node of the tree, in order."""
    if size <= 8:
        yield lo, size, depth
    else:
        half = size // 2
        yield from _leaves(lo, half, depth + 1)
        yield from _leaves(lo + half, size - half, depth + 1)


# A plan holds at most about 150 KB (n = 4095); 32 of them cover the
# lengths that a report or a check suite cycles through.
@lru_cache(maxsize=32)
def _tree_plan(n: int) -> tuple[tuple[itemgetter, ...], int]:
    """Columns and depth of the summation tree over n >= 1 values.

    The tree (_leaves): a node of at most 8 values is summed in order from
    0j, a larger one splits at n // 2.  Its leaves lie at two depths at most.
    Each leaf shallower than the deepest (and the single leaf of n <= 8)
    gets empty right siblings down to a common depth of at least 1, and
    every leaf is padded to the largest leaf size with the 0j at index n.
    A sum that starts from 0j has no -0.0 part, so adding 0j leaves it
    unchanged bit for bit and the padded perfect tree sums exactly as the
    original.  Column j takes value j of every leaf.
    """
    leaves = list(_leaves(0, n, 0))
    depth = max(1, max(d for _, _, d in leaves))
    slots: list[tuple[int, int]] = []
    for lo, size, d in leaves:
        slots += [(lo, size)] + [(n, 0)] * ((1 << (depth - d)) - 1)
    if n == 8 * len(slots):  # every leaf is full and none was padded
        return tuple(itemgetter(slice(j, n, 8)) for j in range(8)), depth
    index = list(range(n + 1))  # one int object per position, shared by the columns
    columns = tuple(
        itemgetter(*[index[lo + j] if j < size else index[n] for lo, size in slots])
        for j in range(max(size for _, size in slots))
    )
    return columns, depth


def _tree_sum(vals: list[complex]) -> complex:
    """Pairwise sum of a nonempty list on the tree of _tree_plan, using
    map over whole columns and levels; appends the 0j pad to vals."""
    columns, depth = _tree_plan(len(vals))
    vals.append(0j)
    acc: Iterable[complex] = repeat(0j)
    for take in columns:
        acc = map(add, acc, take(vals))
    level = list(acc)
    for _ in range(depth):
        level = list(map(add, level[0::2], level[1::2]))
    return level[0]


def weyl_average(
    poly: PolyAngle, N: int, shift: int, basis: BasisDecl
) -> complex:
    """(1/N) sum_{n=1}^{N} e(p(n + shift)), bit-deterministic."""
    if N < 1:
        raise ValueError(f"sample count must be >= 1, got {N}")
    if N > MAX_SAMPLES:
        raise ConfigurationError(f"N = {N} samples is over the cap of {MAX_SAMPLES}")
    units = islice(_units(poly, basis, shift + 1), N)
    sums: list[complex] = []
    while chunk := list(islice(units, _CHUNK)):
        sums.append(_tree_sum(chunk))
    return _tree_sum(sums) / N


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
    if any(c.cs for c in poly.coeffs[1:]):
        return None
    Q = lcm(*[c.den for c in poly.coeffs[1:]])
    # a[0] stands in for the constant term, which no difference reads
    a = [0] + [c.num * (Q // c.den) for c in poly.coeffs[1:]]
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
    units = _units(poly, basis, 1)
    first = next(units)
    if first != angle_to_unit(poly.evaluate(1), basis):
        raise AssertionError(f"phase stream disagrees with {poly} at n = 1")
    return reduce(add, islice(units, t - 1), first) / t


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
        return max(abs(a - self.target) for a in self.averages)

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
    if N < 1:
        raise ValueError(f"sample count must be >= 1, got {N}")
    if not shifts:
        raise ConfigurationError("at least one shift is required")
    if N * len(shifts) > MAX_SAMPLES:
        raise ConfigurationError(
            f"N = {N} at {len(shifts)} shift(s) is {N * len(shifts)} samples, "
            f"over the cap of {MAX_SAMPLES}"
        )
    if len(shifts) > MAX_SHIFTS:
        raise ConfigurationError(f"{len(shifts)} shifts are over the cap of {MAX_SHIFTS}")
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
