import math
from fractions import Fraction

import pytest

from satlab import (
    DomainError,
    count_cliques,
    count_indep_sets,
    count_matchings,
    falling_factorial,
    indep_lower_bound,
    indep_lower_bound_exact,
    m2_profile_formula,
    m2_profile_quadratic,
    make_split,
    matchings_in_split_exact,
    matchings_in_split_leading,
    sat_cliques_formula,
    sat_edges_formula,
)
from satlab.counting import _count_matchings_dp
from satlab.formulas import degree_profile_solution


class TestFallingFactorial:
    def test_identities_grid(self):
        for x in range(41):
            assert falling_factorial(x, 0) == 1
            for k in range(1, 41):
                value = falling_factorial(x, k)
                assert value == x * falling_factorial(max(x - 1, 0), k - 1) if x else value == 0
                if k > x:
                    assert value == 0

    def test_recurrence(self):
        for x in range(1, 41):
            for k in range(1, 41):
                assert falling_factorial(x, k) == x * falling_factorial(x - 1, k - 1)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            falling_factorial(-1, 2)
        with pytest.raises(DomainError):
            falling_factorial(3, -1)


class TestSatEdges:
    def test_examples(self):
        assert sat_edges_formula(5, 3) == 4
        assert sat_edges_formula(10, 4) == 17
        for s in range(2, 10):
            assert sat_edges_formula(s, s) == math.comb(s, 2) - 1

    def test_equals_split_edge_count(self):
        for s in range(2, 11):
            for n in range(s, 45, 3):
                assert sat_edges_formula(n, s) == make_split(n, s - 2).edge_count

    def test_domain(self):
        with pytest.raises(DomainError):
            sat_edges_formula(4, 5)
        with pytest.raises(DomainError):
            sat_edges_formula(3, 1)


class TestSatCliques:
    def test_r2_reduces_to_edges(self):
        for s in range(3, 11):
            for n in range(s, 40, 4):
                assert sat_cliques_formula(n, 2, s) == sat_edges_formula(n, s)

    def test_arithmetic_case(self):
        # (n-s+2)*C(s-2,r-1) + C(s-2,r) at n=8, r=3, s=5: 5*3 + 1
        assert sat_cliques_formula(8, 3, 5) == 16

    def test_equals_split_clique_count(self):
        for s in range(3, 11):
            for r in range(2, s):
                for n in range(s, 41, 4):
                    assert sat_cliques_formula(n, r, s) == count_cliques(
                        make_split(n, s - 2), r
                    )

    def test_domain(self):
        for bad in [(10, 1, 4), (10, 4, 4), (3, 2, 4)]:
            with pytest.raises(DomainError):
                sat_cliques_formula(*bad)


class TestMatchingsInSplitExact:
    def test_zero_beyond_clique_size(self):
        for s in range(3, 9):
            for n in range(s, 41, 5):
                for k in range(s - 1, s + 3):
                    assert matchings_in_split_exact(n, s, k) == 0

    def test_zero_iff_k_exceeds_clique_part(self):
        for s in range(3, 9):
            for n in range(2 * (s - 2), 41, 3):
                if n < s:
                    continue
                for k in range(9):
                    assert (matchings_in_split_exact(n, s, k) == 0) == (k > s - 2)

    def test_frozen_examples(self):
        assert matchings_in_split_exact(6, 4, 2) == 12
        # j=0: 12*15=180, j=1: 6*2*6=72, j=2: 3 -> 255
        assert matchings_in_split_exact(10, 6, 2) == 255

    def test_k0_and_k1(self):
        for s, n in [(3, 8), (5, 12)]:
            assert matchings_in_split_exact(n, s, 0) == 1
            assert matchings_in_split_exact(n, s, 1) == make_split(n, s - 2).edge_count

    def test_matches_counter_small_grid(self):
        # a denser sweep runs in the acceptance suite
        for s in range(3, 8):
            for n in range(s, 20, 3):
                for k in range(6):
                    assert matchings_in_split_exact(n, s, k) == count_matchings(
                        make_split(n, s - 2), k
                    )

    def test_domain(self):
        with pytest.raises(DomainError):
            matchings_in_split_exact(5, 2, 1)
        with pytest.raises(DomainError):
            matchings_in_split_exact(4, 5, 1)
        with pytest.raises(DomainError):
            matchings_in_split_exact(10, 4, -1)


class TestMatchingsInSplitLeading:
    def test_frozen_examples(self):
        assert matchings_in_split_leading(6, 4, 2) == 12 == matchings_in_split_exact(6, 4, 2)
        assert matchings_in_split_leading(10, 6, 2) == 180 < 255

    def test_never_exceeds_exact(self):
        for s in range(4, 10):
            for k in range(2, s - 1):
                for n in range(s, 50, 7):
                    assert matchings_in_split_leading(n, s, k) <= matchings_in_split_exact(n, s, k)

    def test_ratio_tends_to_one(self):
        for s, k in [(4, 2), (6, 2), (6, 4), (8, 3)]:
            for n in (50, 100, 200):
                exact = matchings_in_split_exact(n, s, k)
                leading = matchings_in_split_leading(n, s, k)
                ratio = Fraction(exact, leading)
                assert abs(ratio - 1) <= Fraction(10 * s * k, n)

    def test_domain(self):
        with pytest.raises(DomainError):
            matchings_in_split_leading(10, 4, 1)
        with pytest.raises(DomainError):
            matchings_in_split_leading(10, 4, 3)
        with pytest.raises(DomainError):
            matchings_in_split_leading(3, 4, 2)


class TestM2Profile:
    def test_split_point_matches_counter(self):
        for s in range(4, 9):
            for n in range(max(s, 2 * s - 4), 30, 3):
                m = sat_edges_formula(n, s)
                expected = _count_matchings_dp(make_split(n, s - 2), 2)
                assert m2_profile_formula(n, s, m) == expected

    def test_frozen_example(self):
        assert m2_profile_formula(10, 4, 17) == 56

    def test_quadratic_increasing_past_vertex(self):
        # finite differences of the raw quadratic from ceil(n+s-7/2) on
        for n, s in [(10, 4), (15, 5), (30, 6)]:
            start = n + s - 3
            for m in range(start, start + 40):
                assert m2_profile_quadratic(n, s, m + 1) > m2_profile_quadratic(n, s, m)

    def test_minimum_over_valid_m_at_split_edge_count(self):
        for n, s in [(10, 4), (13, 4), (16, 6)]:
            m_sat = sat_edges_formula(n, s)
            base = m2_profile_quadratic(n, s, m_sat)
            for m in range(m_sat, m_sat + 60):
                a, b = degree_profile_solution(n, s, m)
                if a.denominator == 1 and b.denominator == 1 and a >= 0 and b >= 0:
                    assert m2_profile_formula(n, s, m) >= base

    def test_profile_solution_at_split(self):
        # the split graph has n-s+2 vertices of degree s-2 and s-2 of degree n-1
        for n, s in [(10, 4), (20, 5)]:
            a, b = degree_profile_solution(n, s, sat_edges_formula(n, s))
            assert a == n - s + 2 and b == s - 2

    def test_rejects_unrealizable_profile_with_solved_values(self):
        with pytest.raises(DomainError) as exc:
            m2_profile_formula(10, 4, 18)
        assert "a=" in str(exc.value) and "b=" in str(exc.value)

    def test_accepts_complete_graph_profile(self):
        # m = C(10,2) solves to a=0, b=10: all vertices of degree n-1 (K_10)
        assert m2_profile_formula(10, 4, 45) == _count_matchings_dp(make_split(10, 10), 2)

    def test_rejects_negative_profile(self):
        # m = 3 solves to b = -2 degree-(n-1) vertices: unrealizable
        with pytest.raises(DomainError):
            m2_profile_formula(10, 4, 3)
        with pytest.raises(DomainError, match="edge count must be nonnegative"):
            m2_profile_formula(10, 4, -1)
        with pytest.raises(DomainError, match="need n >= s >= 2"):
            degree_profile_solution(3, 4, 3)


class TestIndepLowerBound:
    def test_l1_is_n(self):
        for n, tau in [(12, 3), (20, 5), (9, 8)]:
            assert indep_lower_bound(n, tau, 1) == n

    def test_arithmetic_cases(self):
        assert indep_lower_bound(12, 3, 2) == 48
        assert indep_lower_bound(12, 3, 3) == 64
        assert indep_lower_bound(20, 5, 2) == 160
        assert indep_lower_bound_exact(10, 9, 2) == Fraction(3600, 81)

    def test_exact_is_rational_no_rounding(self):
        exact = indep_lower_bound_exact(10, 3, 2)
        assert exact == 3 * Fraction(10, 3) ** 2 == Fraction(100, 3)
        assert indep_lower_bound(10, 3, 2) == 34

    def test_ceiling_consistent(self):
        for n in (9, 12, 20):
            for tau in (3, 5):
                for l in range(1, tau + 2):
                    exact = indep_lower_bound_exact(n, tau, l)
                    ceil = indep_lower_bound(n, tau, l)
                    assert ceil - 1 < exact <= ceil

    def test_domain(self):
        with pytest.raises(DomainError):
            indep_lower_bound(10, 3, 5)
        with pytest.raises(DomainError):
            indep_lower_bound(0, 3, 1)


class TestCrossFormulaConsistency:
    def test_indep_count_of_split_graph_vs_bound_shape(self):
        # sanity: exact independent-set counts on split graphs are the
        # closed form C(n-q, l), far above the tau-bound at l=1
        g = make_split(12, 2)
        assert count_indep_sets(g, 1) == 12 == indep_lower_bound(12, 3, 1) + 0
