"""Oscillatory averages: exact phase streams, periods, predicted limits.

The oracle for periodic polynomials is a direct complex-exponential sum
over one period with cmath; the oracle for phase exactness evaluates the
polynomial symbolically and projects each value separately.  The
differential test holds the integer-residue period and target against
Angle arithmetic: PolyAngle.shift for periods, and the sequential sum of
angle_to_unit(p.evaluate(n)) for targets.  The oracle for the reduction
is the recursive tree _oracle_tree, compared bit for bit with the
column-and-level reducer on synthetic values.
"""

import cmath
import math
import random
import struct
from fractions import Fraction

import pytest

from skewtorus.circle import Angle, BasisDecl, ZERO, angle_to_unit
from skewtorus.dynamics import BasicSystem, CharacterIndex, PolyAngle
from skewtorus.errors import ConfigurationError
from skewtorus.weyl import (
    _CHUNK,
    MAX_PERIOD,
    MAX_SAMPLES,
    MAX_SHIFTS,
    WeylReport,
    _phases,
    _tree_sum,
    _unit_table,
    _units,
    equidistribution_report,
    equidistribution_target,
    minimal_period,
    unique_ergodicity_check,
    weyl_average,
)

F = Fraction

BASIS = BasisDecl.from_decimals(
    {
        "b1": "0.4142135623730950488016887242096980785697",
        "b2": "0.7320508075688772935274463415058723669428",
    }
)
B1 = Angle(0, {"b1": 1})


def quad(c: Fraction) -> PolyAngle:
    return PolyAngle([ZERO, ZERO, Angle(c)])


def test_minimal_period_frozen():
    assert minimal_period(quad(F(1, 3))) == 3
    assert minimal_period(quad(F(1, 5))) == 5
    assert minimal_period(PolyAngle([ZERO, Angle(F(1, 2))])) == 2
    assert minimal_period(PolyAngle([Angle(F(2, 7))])) == 1
    assert minimal_period(PolyAngle([ZERO, Angle(F(1, 2)), Angle(F(1, 2))])) == 4
    assert minimal_period(PolyAngle([ZERO, ZERO, B1])) is None
    # irrational constant term does not spoil periodicity
    assert minimal_period(PolyAngle([B1, Angle(F(1, 3))])) == 3


def test_minimal_period_is_a_true_period():
    for p in [quad(F(1, 3)), PolyAngle([Angle(F(1, 7)), Angle(F(1, 2)), Angle(F(2, 3))])]:
        t = minimal_period(p)
        assert p.shift(t) == p
        for s in range(1, t):
            assert p.shift(s) != p


def _prime_factors(n: int) -> set[int]:
    out, r = set(), 2
    while r * r <= n:
        while n % r == 0:
            out.add(r)
            n //= r
        r += 1
    return out | ({n} if n > 1 else set())


def _oracle_period(p: PolyAngle, t: int) -> bool:
    """t is the least period: periods form a subgroup tZ, so t is least
    iff p.shift(t) == p and no t/r for a prime r | t is a period."""
    return p.shift(t) == p and all(p.shift(t // r) != p for r in _prime_factors(t))


def _oracle_target(p: PolyAngle, t: int) -> complex:
    s = 0j
    for n in range(1, t + 1):
        s += angle_to_unit(p.evaluate(n), BASIS)
    return s / t


def _random_angle(rng: random.Random, dens: list[int]) -> Angle:
    return Angle(F(rng.randrange(60), rng.choice(dens)))


def test_period_and_target_match_the_angle_oracle():
    rng = random.Random("weyl-oracle")
    dens = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12]
    summed = longest = 0
    for i in range(1200):
        deg = rng.randint(2, 4) if i < 1000 else rng.randint(0, 4)
        const = _random_angle(rng, dens)
        if rng.random() < 0.3:  # irrational constant terms keep periodicity
            const = const + Angle(0, {"b1": F(rng.randint(1, 9), 7)})
        middle = [_random_angle(rng, dens) for _ in range(deg - 1)]
        top = []
        if deg:
            den = rng.choice(dens[1:])
            top = [Angle(F(rng.randrange(1, den), den))]  # keeps the degree
        if i >= 1100 and deg:  # an irrational nonconstant coefficient
            top = [top[0] + Angle(0, {"b2": F(rng.randint(1, 5), 3)})]
        p = PolyAngle([const, *middle, *top])
        assert p.degree == deg
        t = minimal_period(p)
        target = equidistribution_target(p, BASIS)
        if i >= 1100 and deg:
            assert t is None and target == 0j
            continue
        assert _oracle_period(p, t), (str(p), t)
        if deg == 0:
            assert repr(target) == repr(angle_to_unit(p.coeffs[0], BASIS))
        elif deg == 1:  # a rational rotation sums to 0 over its period
            assert target == 0j and abs(_oracle_target(p, t)) < 1e-12
        else:
            assert repr(target) == repr(_oracle_target(p, t)), str(p)
            summed += 1
            longest = max(longest, t)
    assert summed >= 1000 and longest > 1000


def test_period_cap_and_unbounded_periods():
    # every period is a multiple of the top denominator, so a prime one
    # past the cap is the period itself; the target refuses to sum it
    big = quad(F(1, 1_000_000_007))
    assert minimal_period(big) == 1_000_000_007
    with pytest.raises(ConfigurationError) as info:
        equidistribution_target(big, BASIS)
    assert f"minimal period 1000000007 exceeds the cap of {MAX_PERIOD}" in str(info.value)
    # a small top denominator with a long period from a lower coefficient
    mixed = PolyAngle([ZERO, Angle(F(1, 1_000_003)), Angle(F(1, 2))])
    assert minimal_period(mixed) == 4_000_012
    assert _oracle_period(mixed, 4_000_012)
    with pytest.raises(ConfigurationError):
        equidistribution_target(mixed, BASIS)
    # the divisors of Q * d! are no longer enumerated: C(n, 20) mod 2
    # has period 32 by Lucas' theorem
    high = PolyAngle([ZERO] * 20 + [Angle(F(1, 2))])
    assert minimal_period(high) == 32
    assert _oracle_period(high, 32)


def test_target_frozen_cube_root():
    # period 3 orbit 0, 1/3, 0 of the quadratic with coefficient 1/3:
    # values at n = 1, 2, 3 are 0, 1/3, 0
    want = (2 + cmath.exp(2j * cmath.pi / 3)) / 3
    got = equidistribution_target(quad(F(1, 3)), BASIS)
    assert abs(got - want) < 1e-15


def test_target_cases():
    assert equidistribution_target(PolyAngle([ZERO, ZERO, B1]), BASIS) == 0j
    assert equidistribution_target(PolyAngle([ZERO, Angle(F(1, 2))]), BASIS) == 0j
    const = PolyAngle([Angle(F(1, 4))])
    assert abs(equidistribution_target(const, BASIS) - 1j) < 1e-15

    # irrational constant on a periodic polynomial factors out of the mean
    mixed = PolyAngle([B1, ZERO, Angle(F(1, 3))])
    factored = angle_to_unit(B1, BASIS) * equidistribution_target(
        quad(F(1, 3)), BASIS
    )
    assert abs(equidistribution_target(mixed, BASIS) - factored) < 1e-14


def test_rational_average_is_exact_at_period_multiples():
    p = quad(F(1, 3))
    target = equidistribution_target(p, BASIS)
    for N in (3, 999, 3000):
        assert abs(weyl_average(p, N, 0, BASIS) - target) < 1e-10


def _oracle_tree(vals: list[complex]) -> complex:
    if len(vals) <= 8:
        s = 0j
        for v in vals:
            s += v
        return s
    mid = len(vals) // 2
    return _oracle_tree(vals[:mid]) + _oracle_tree(vals[mid:])


def _bits(z: complex) -> bytes:
    return struct.pack("dd", z.real, z.imag)


def test_tree_sum_builds_the_oracle_tree_bitwise():
    # every length up to 1100 (all leaf layouts of a partial chunk), the
    # chunk lengths around 4096 and 8192, and the longest chunk-sum list
    rng = random.Random("weyl-tree")
    longest_sums = -(-MAX_SAMPLES // 4096)

    def part() -> float:
        r = rng.random()
        if r < 0.2:
            return 0.0 if r < 0.1 else -0.0
        return rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-60, 60)

    for n in [*range(1, 1101), 4095, 4096, 4097, 8192, 8193, longest_sums - 1, longest_sums]:
        vals = [complex(part(), part()) for _ in range(n)]
        assert _bits(_tree_sum(list(vals))) == _bits(_oracle_tree(vals)), n


def test_projection_matches_both_forms_bitwise():
    # n = 1 puts the constant term first: phases 0, 1/2, 1/4, 2^-1074 and
    # 1 - 2^-53, where rect(1, 2 pi theta) must still equal the pointwise
    # complex(cos, sin) and the exp(2 pi i theta) it replaced
    two_pi_j = complex(0.0, 2.0 * math.pi)
    for c in [F(0), F(1, 2), F(1, 4), F(1, 2**1074), 1 - F(1, 2**53)]:
        p = PolyAngle([Angle(c), ZERO, Angle(F(1, 3))])
        pairs = zip(_phases(p, BASIS, 1), _units(p, BASIS, 1))
        for n, (theta, got) in zip(range(1, 7), pairs):
            assert _bits(got) == _bits(angle_to_unit(p.evaluate(n), BASIS)), (c, n)
            assert _bits(got) == _bits(cmath.exp(two_pi_j * theta)), (c, n)


def _oracle_average(units: list[complex], N: int) -> complex:
    """The documented reduction: pairwise trees over chunks of 4096,
    then a pairwise tree over the chunk sums."""
    sums = [_oracle_tree(units[lo : min(lo + 4096, N)]) for lo in range(0, N, 4096)]
    return _oracle_tree(sums) / N


def _oracle_coefficient(rng: random.Random, kind: str) -> Angle:
    rat = Angle(F(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**9)))
    irr = Angle(0, {rng.choice(["b1", "b2"]): F(rng.randint(-9, 9), rng.randint(1, 9))})
    return {"rational": rat, "irrational": irr, "mixed": rat + irr}[kind]


def test_phase_stream_matches_pointwise_projection():
    # oracle: evaluate the polynomial exactly, project each term alone
    p = PolyAngle([Angle(F(1, 7)), B1, Angle(F(3, 8), {"b2": F(-2, 5)})])
    for N, shift in [(50, 0), (33, 10**9), (20, -7)]:
        direct = sum(
            angle_to_unit(p.evaluate(n + shift), BASIS) for n in range(1, N + 1)
        )
        got = weyl_average(p, N, shift, BASIS)
        assert abs(got - direct / N) < 1e-13

    # bitwise: every N below is a prefix of one oracle stream per
    # (polynomial, shift).  The streams that cross chunk boundaries cost
    # 8193 exact evaluations each, so they run at degrees 0-3, one per
    # shift with the kinds in turn; every other pair checks N = 1 and 7.
    rng = random.Random("weyl-bitwise")
    shifts = (0, 17, -7, 10**12)
    kinds = ("rational", "irrational", "mixed")
    for deg in range(7):
        for kind in kinds:
            p = PolyAngle([_oracle_coefficient(rng, kind) for _ in range(deg + 1)])
            for j, shift in enumerate(shifts):
                long = deg == j and kind == kinds[deg % 3]
                Ns = (1, 7, 4095, 4096, 4097, 8193) if long else (1, 7)
                units = [
                    angle_to_unit(p.evaluate(n + shift), BASIS)
                    for n in range(1, Ns[-1] + 1)
                ]
                for N in Ns:
                    want = _oracle_average(units, N)
                    got = weyl_average(p, N, shift, BASIS)
                    assert repr(got) == repr(want), (str(p), N, shift)


def test_unit_table_entries_are_the_direct_projection_bitwise():
    # entry j is the projection of the phase j / D, as the direct path and
    # angle_to_unit compute it, for the smallest denominators and the largest
    for D in (1, 2, 7, 1001, _CHUNK):
        table = _unit_table(D)
        assert len(table) == D
        for j, got in enumerate(table):
            want = cmath.rect(1.0, 2.0 * math.pi * (j / D))
            assert _bits(got) == _bits(want), (D, j)
            assert _bits(got) == _bits(angle_to_unit(Angle(F(j, D)), BASIS)), (D, j)


def test_table_and_direct_paths_match_the_pointwise_oracle():
    # D = _CHUNK takes the table, D = _CHUNK + 1 the direct projection; the
    # top coefficient is a unit mod D, so D is the common denominator
    rng = random.Random("weyl-unit-table")
    for D in (_CHUNK, _CHUNK + 1):
        for deg in (2, 3):
            top = rng.randrange(1, D)
            while math.gcd(top, D) != 1:
                top = rng.randrange(1, D)
            coeffs = [Angle(F(rng.randrange(D), D)) for _ in range(deg)] + [Angle(F(top, D))]
            p = PolyAngle(coeffs)
            for shift in (0, -7, 10**12):
                units = [angle_to_unit(p.evaluate(n + shift), BASIS) for n in range(1, 8194)]
                for N in (1, 4095, 4097, 8193):
                    got = weyl_average(p, N, shift, BASIS)
                    assert repr(got) == repr(_oracle_average(units, N)), (D, deg, shift, N)


def test_unit_tables_are_cached_only_for_small_denominators():
    _unit_table.cache_clear()
    p = quad(F(1, _CHUNK + 1))
    weyl_average(p, 100, 0, BASIS)
    equidistribution_target(p, BASIS)
    assert _unit_table.cache_info().currsize == 0
    # each small denominator builds its table once; the cache keeps 32
    for D in range(2, 42):
        weyl_average(quad(F(1, D)), 10, 0, BASIS)
        weyl_average(quad(F(1, D)), 10, 5, BASIS)
        info = _unit_table.cache_info()
        assert info.currsize == min(D - 1, 32) <= info.maxsize == 32
        assert (info.misses, info.hits) == (D - 1, D - 1)


def test_bit_determinism_and_huge_shifts():
    p = PolyAngle([ZERO, ZERO, B1])
    a = weyl_average(p, 5000, 10**12, BASIS)
    b = weyl_average(p, 5000, 10**12, BASIS)
    assert a == b  # identical floats, not merely close

    # quadratic irrational averages are already small at modest N
    assert abs(weyl_average(p, 2000, 0, BASIS)) < 0.05


def test_shift_consistency_is_bitwise():
    p = PolyAngle([Angle(F(1, 6)), B1, Angle(0, {"b2": F(1, 3)})])
    assert weyl_average(p, 400, 123456789, BASIS) == weyl_average(
        p.shift(123456789), 400, 0, BASIS
    )


def test_report_round_trip_and_csv():
    p = quad(F(1, 3))
    rep = equidistribution_report(p, 999, [0, 1000], 1e-6, BASIS)
    assert isinstance(rep, WeylReport)
    assert rep.passed
    assert rep.max_abs < 1e-10

    d = rep.to_dict()
    assert d["N"] == 999
    assert d["pass"] is True
    assert [r["k"] for r in d["rows"]] == [0, 1000]
    assert all(abs(r["abs"]) < 1e-10 for r in d["rows"])

    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "N,k,re,im,abs"
    assert len(lines) == 3
    assert lines[1].startswith("999,0,")

    with pytest.raises(ConfigurationError):
        equidistribution_report(p, 10, [0], 0.0, BASIS)
    with pytest.raises(ValueError):
        weyl_average(p, 0, 0, BASIS)
    with pytest.raises(ConfigurationError, match="at least one shift is required"):
        equidistribution_report(p, 10, [], 0.1, BASIS)


def test_sample_count_is_capped():
    p = PolyAngle([ZERO, ZERO, B1])
    with pytest.raises(ConfigurationError, match=f"over the cap of {MAX_SAMPLES}"):
        weyl_average(p, MAX_SAMPLES + 1, 0, BASIS)
    # a report caps N times the shift count, before any sample is taken
    with pytest.raises(ConfigurationError) as info:
        equidistribution_report(p, MAX_SAMPLES // 2 + 1, [0, 1], 0.1, BASIS)
    assert f"is {2 * (MAX_SAMPLES // 2 + 1)} samples" in str(info.value)


def test_shift_count_is_capped():
    p = PolyAngle([ZERO, ZERO, Angle(F(1, 7))])
    shifts = list(range(MAX_SHIFTS))
    rep = equidistribution_report(p, 1, shifts, 0.5, BASIS)
    assert rep.shifts == tuple(shifts) and len(rep.averages) == MAX_SHIFTS
    assert rep.averages[:8] == tuple(weyl_average(p, 1, k, BASIS) for k in range(8))
    with pytest.raises(ConfigurationError) as info:
        equidistribution_report(p, 1, shifts + [0], 0.5, BASIS)
    assert str(info.value) == f"{MAX_SHIFTS + 1} shifts are over the cap of {MAX_SHIFTS}"


def test_failing_tolerance_is_reported_not_raised():
    p = PolyAngle([ZERO, ZERO, B1])
    rep = equidistribution_report(p, 50, [0], 1e-9, BASIS)
    assert not rep.passed
    assert rep.max_abs > 1e-9


def test_orbit_check_irrational_base():
    sys = BasicSystem(2, B1)
    rep = unique_ergodicity_check(
        sys, CharacterIndex.basis(2), (ZERO, ZERO), 4000, [0, 10**6], 0.05, BASIS
    )
    assert rep.target == 0j
    assert rep.passed


def test_orbit_check_torsion_base_frozen():
    # rotation by 1/5 from the origin: coordinate 2 runs through the
    # quadratic with coefficient 1/5, period 5, orbit values
    # 0, 1/5, 3/5, 1/5, 0 at n = 1..5
    sys = BasicSystem(2, Angle(F(1, 5)))
    want = (
        2
        + 2 * cmath.exp(2j * cmath.pi / 5)
        + cmath.exp(2j * cmath.pi * 3 / 5)
    ) / 5
    rep = unique_ergodicity_check(
        sys, CharacterIndex.basis(2), (ZERO, ZERO), 1000, [0], 1e-6, BASIS
    )
    assert abs(rep.target - want) < 1e-15
    assert rep.passed
    assert not sys.minimal_base
