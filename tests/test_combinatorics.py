"""Generalized binomials and Stirling numbers against independent oracles.

The oracle for binom builds the falling factorial as an exact Fraction
product and divides by k! at the end; the oracle for stirling1 expands
x(x-1)...(x-k+1) by polynomial convolution.  Frozen values below were
computed from those oracles by hand.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from skewtorus.circle import Angle
from skewtorus.combinatorics import binom, binomial_shift, falling_factorial, stirling1
from skewtorus.dynamics import PolyAngle


def binom_oracle(n: int, k: int) -> Fraction:
    prod = Fraction(1)
    for i in range(k):
        prod *= Fraction(n - i)
    return prod / factorial(k)


def stirling_row_oracle(k: int) -> list[int]:
    # coefficients of x(x-1)...(x-k+1) in the power basis, low to high
    coeffs = [1]
    for i in range(k):
        shifted = [0] + coeffs
        coeffs = [s - i * c for s, c in zip(shifted, coeffs + [0])]
    return coeffs + [0] * (k + 1 - len(coeffs))


# frozen by evaluating binom_oracle once; kept as literals on purpose
FROZEN_BINOM = {
    (-1, 3): -1,
    (-3, 2): 6,
    (-2, 4): 5,
    (7, 3): 35,
    (0, 0): 1,
    (3, 5): 0,
    (-1, 0): 1,
    (10, 10): 1,
    (-10, 1): -10,
}

# rows s(k, j) for j = 0..k, frozen from the expansion oracle
FROZEN_STIRLING = {
    0: [1],
    1: [0, 1],
    2: [0, -1, 1],
    3: [0, 2, -3, 1],
    4: [0, -6, 11, -6, 1],
    5: [0, 24, -50, 35, -10, 1],
}


def test_frozen_binomials():
    for (n, k), want in FROZEN_BINOM.items():
        assert binom(n, k) == want
        assert binom_oracle(n, k) == want


def test_binom_matches_oracle_on_grid():
    for n in range(-60, 61):
        for k in range(0, 13):
            got = binom(n, k)
            want = binom_oracle(n, k)
            assert want.denominator == 1
            assert got == want


def test_binom_is_always_integral():
    # product of k consecutive integers divisible by k!
    for n in range(-100, 101, 7):
        for k in range(0, 21):
            assert falling_factorial(n, k) % factorial(k) == 0


def test_frozen_stirling_rows():
    for k, row in FROZEN_STIRLING.items():
        assert [stirling1(k, j) for j in range(k + 1)] == row
        assert stirling_row_oracle(k) == row


def test_stirling_matches_expansion_oracle():
    for k in range(0, 10):
        want = stirling_row_oracle(k)
        assert [stirling1(k, j) for j in range(k + 1)] == want


def test_stirling_out_of_triangle_is_zero():
    assert stirling1(3, 5) == 0
    assert stirling1(0, 1) == 0


def test_falling_factorial_ties_the_two_together():
    for n in range(-30, 31):
        for k in range(0, 13):
            assert falling_factorial(n, k) == factorial(k) * binom(n, k)
            assert falling_factorial(n, k) == sum(
                stirling1(k, j) * n**j for j in range(k + 1)
            )


def test_pascal_identity():
    for n in range(-100, 101):
        for k in range(1, 21):
            assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_negation_identity():
    for n in range(-50, 1):
        for k in range(0, 13):
            assert binom(n, k) == (-1) ** k * binom(-n + k - 1, k)


def test_vandermonde_identity():
    for a in range(-12, 13, 3):
        for b in range(-12, 13, 3):
            for k in range(0, 9):
                assert binom(a + b, k) == sum(
                    binom(a, j) * binom(b, k - j) for j in range(k + 1)
                )


def test_binomial_shift_re_expands_at_n_plus_t():
    rng = random.Random(5)
    for _ in range(60):
        deg = rng.randint(0, 6)
        ints = [rng.choice([0, rng.randint(-50, 50)]) for _ in range(deg + 1)]
        angles = [
            Angle(
                Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                {"b1": Fraction(rng.randint(-5, 5), rng.randint(1, 7))},
            )
            for _ in range(deg + 1)
        ]
        poly = PolyAngle(angles)
        for t in [-(10**12), *range(-5, 6), 10**12]:
            shifted_ints = binomial_shift(ints, t)
            shifted = PolyAngle(binomial_shift(angles, t))
            for n in (-7, 0, 1, 4, 10**9):
                # over Z the identity holds exactly, not only mod 1
                assert sum(binom(n, i) * c for i, c in enumerate(shifted_ints)) == sum(
                    binom(n + t, j) * c for j, c in enumerate(ints)
                )
                assert shifted.evaluate(n) == poly.evaluate(n + t)


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        binom(5, -1)
    with pytest.raises(ValueError):
        falling_factorial(5, -2)
    with pytest.raises(ValueError):
        stirling1(-1, 0)
    with pytest.raises(ValueError):
        stirling1(2, -1)
