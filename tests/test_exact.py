"""Arithmetic core checks against independent oracles."""

from fractions import Fraction
from itertools import combinations

import pytest

from combident.exact import (
    alternating_power_sum,
    binom_int,
    binom_rational,
    r_stirling2,
    stirling2,
)


def pascal_triangle(rows: int) -> list[list[int]]:
    """Independent oracle: build binomials purely by the addition recurrence."""
    tri = [[1]]
    for i in range(1, rows + 1):
        prev = tri[-1]
        row = [1] + [prev[j - 1] + prev[j] for j in range(1, i)] + [1]
        tri.append(row)
    return tri


def set_partitions(elements: tuple[int, ...]):
    """Enumerate all set partitions (oracle for Stirling counts)."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1 :]
        yield partition + [[first]]


class TestBinomInt:
    def test_empty_selection(self):
        assert binom_int(4, 0) == 1

    def test_lower_exceeds_upper(self):
        assert binom_int(2, 5) == 0

    def test_negative_lower(self):
        assert binom_int(3, -1) == 0

    def test_against_pascal_oracle(self):
        tri = pascal_triangle(64)
        for i in range(65):
            for j in range(i + 1):
                assert binom_int(i, j) == tri[i][j]

    def test_pascal_recurrence(self):
        for i in range(1, 65):
            for j in range(1, i + 1):
                assert binom_int(i, j) == binom_int(i - 1, j - 1) + binom_int(i - 1, j)

    def test_symmetry(self):
        for i in range(65):
            for j in range(i + 1):
                assert binom_int(i, j) == binom_int(i, i - j)

    def test_negative_upper_rejected(self):
        with pytest.raises(ValueError):
            binom_int(-1, 0)


class TestBinomRational:
    def test_half_integer_upper(self):
        # direct product: (5/2)(3/2)/2!
        assert binom_rational(Fraction(5, 2), 2) == Fraction(15, 8)

    def test_empty_product(self):
        for a in (Fraction(0), Fraction(-7, 3), Fraction(11, 2)):
            assert binom_rational(a, 0) == 1

    def test_agrees_with_binom_int(self):
        for i in range(20):
            for j in range(i + 3):
                assert binom_rational(i, j) == binom_int(i, j)

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError):
            binom_rational(Fraction(1, 2), -1)

    def test_upgrade_identity(self):
        # binom(u+1, v+1) == ((u+1)/(v+1)) * binom(u, v) on a rational grid
        uppers = [Fraction(p, q) for p in range(-6, 7) for q in (1, 2, 3)]
        for u in uppers:
            for v in range(0, 8):
                lhs = binom_rational(u + 1, v + 1)
                rhs = (u + 1) / (v + 1) * binom_rational(u, v)
                assert lhs == rhs


class TestStirling2:
    def test_enumeration_oracle(self):
        # count partitions of {1..m} into exactly k blocks by brute force
        for m in range(7):
            counts = {}
            for partition in set_partitions(tuple(range(1, m + 1))):
                counts[len(partition)] = counts.get(len(partition), 0) + 1
            for k in range(m + 3):
                assert stirling2(m, k) == counts.get(k, 1 if (m == 0 and k == 0) else 0)

    def test_four_two(self):
        assert stirling2(4, 2) == 7

    def test_diagonal(self):
        for m in range(20):
            assert stirling2(m, m) == 1

    def test_zero_above_diagonal(self):
        assert stirling2(3, 5) == 0
        for m in range(10):
            for k in range(m + 1, m + 5):
                assert stirling2(m, k) == 0

    def test_recurrence_vs_alternating_sum(self):
        for m in range(1, 31):
            for k in range(1, m + 1):
                assert stirling2(m, k) == k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)


class TestRStirling2:
    @staticmethod
    def brute_force(m: int, k: int, v: int) -> int:
        """Count partitions of an (m+v)-set into (k+v) blocks with the first v
        elements in distinct blocks."""
        distinguished = set(range(1, v + 1))
        total = 0
        for partition in set_partitions(tuple(range(1, m + v + 1))):
            if len(partition) != k + v:
                continue
            if all(len(distinguished.intersection(block)) <= 1 for block in partition):
                total += 1
        return total

    def test_defining_sum_small(self):
        assert r_stirling2(1, 1, 1) == 1

    def test_v_zero_reduction(self):
        for m in range(9):
            for k in range(m + 2):
                assert r_stirling2(m, k, 0) == stirling2(m, k)

    def test_restricted_partition_oracle(self):
        assert r_stirling2(2, 1, 1) == 3
        for m in range(4):
            for k in range(m + 2):
                for v in range(3):
                    assert r_stirling2(m, k, v) == self.brute_force(m, k, v)


class TestAlternatingPowerSum:
    def test_zero_count_collapses_to_power(self):
        # with no terms to alternate, the sum is just shift**power
        for v in range(11):
            for m in range(9):
                assert alternating_power_sum(0, v, m) == Fraction(v) ** m

    def test_matches_stirling_factorization(self):
        import math

        for u in range(7):
            for m in range(7):
                expected = stirling2(m, u) * math.factorial(u)
                expected = expected if u % 2 == 0 else -expected
                assert alternating_power_sum(u, 0, m) == expected

    def test_vanishes_beyond_power(self):
        for u in range(1, 9):
            for m in range(u):
                assert alternating_power_sum(u, 0, m) == 0

    def test_negative_shift_allowed(self):
        assert alternating_power_sum(1, -2, 1) == -2 - (-1)
