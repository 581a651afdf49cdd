"""Integer combinatorics: generalized binomials and signed Stirling numbers.

binom(n, k) extends the binomial coefficient to all integer n via the
falling factorial,

    binom(n, k) = n (n-1) ... (n-k+1) / k!,

which is always an exact integer (the product of k consecutive integers
is divisible by k!).  Signed Stirling numbers of the first kind s(k, j)
are the coefficients of the falling factorial in the power basis,

    n (n-1) ... (n-k+1) = sum_j s(k, j) n^j,

computed by the recurrence s(k+1, j) = s(k, j-1) - k s(k, j).
binomial_shift re-expands a polynomial in the basis binom(n, j) at n + t.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence


def binom(n: int, k: int) -> int:
    """Generalized binomial coefficient, defined for every integer n."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got k={k}")
    prod = 1
    for i in range(k):
        prod *= n - i
    return prod // factorial(k)


def binomial_shift(coeffs: Sequence, t: int) -> list:
    """Coefficients of p(n + t) for p(n) = sum_j binom(n, j) * coeffs[j].

    Entry i is sum_{j >= i} binom(t, j - i) * coeffs[j], over any Z-module
    (ints, angles); zero terms are skipped.  Each binom(t, k) is computed
    once, so d coefficients cost d binomials, not d^2 / 2.
    """
    bs = [binom(t, k) for k in range(len(coeffs))]
    out = []
    for i, val in enumerate(coeffs):  # the j = i term has binom(t, 0) = 1
        for j in range(i + 1, len(coeffs)):
            b = bs[j - i]
            if b and coeffs[j]:
                val = val + b * coeffs[j]
        out.append(val)
    return out


# rows of s(k, j) for j = 0..k; grown on demand, never truncated
_STIRLING_ROWS: list[list[int]] = [[1]]


def _stirling_row(k: int) -> list[int]:
    while len(_STIRLING_ROWS) <= k:
        prev = _STIRLING_ROWS[-1]
        i = len(_STIRLING_ROWS) - 1
        row = [0] * (i + 2)
        for j in range(i + 2):
            above = prev[j] if j <= i else 0
            left = prev[j - 1] if j >= 1 else 0
            row[j] = left - i * above
        _STIRLING_ROWS.append(row)
    return _STIRLING_ROWS[k]


def stirling1(k: int, j: int) -> int:
    """Signed Stirling number of the first kind s(k, j)."""
    if k < 0 or j < 0:
        raise ValueError(f"stirling1 undefined for negative arguments, got ({k}, {j})")
    if j > k:
        return 0
    return _stirling_row(k)[j]


def falling_factorial(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1); equals k! * binom(n, k)."""
    return factorial(k) * binom(n, k)
