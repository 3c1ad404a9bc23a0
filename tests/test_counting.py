import math

import pytest

from satlab import (
    Graph,
    MotifSpec,
    ParameterError,
    count_cliques,
    count_indep_sets,
    count_m2_via_degrees,
    count_matchings,
    count_motif,
    make_split,
    matching_number,
    matchings_in_split_exact,
    random_saturated,
    sat_cliques_formula,
)
from satlab.counting import _count_indep_sets_rec, _count_matchings_dp
from oracles import (
    all_labeled_graphs,
    edge_recursion_count_matchings,
    naive_count_cliques,
    naive_count_indep_sets,
    naive_count_matchings,
    random_graph,
    random_permutation,
)

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


class TestCountMatchings:
    def test_k4_has_three_m2(self):
        assert count_matchings(Graph.complete(4), 2) == 3

    def test_stars_have_no_m2(self):
        for n in (2, 5, 9, 40):
            assert count_matchings(make_split(n, 1), 2) == 0

    def test_empty_matching_counts_once(self):
        small = [g for n in range(4) for g in all_labeled_graphs(n)]
        for g in (*small, Graph.empty(5), Graph.complete(5), Graph.complete(6)):
            assert count_matchings(g, 0) == 1

    def test_k1_counts_edges(self):
        for seed in range(10):
            g = random_graph(9, seed)
            assert count_matchings(g, 1) == g.edge_count

    def test_split_6_2_k2(self):
        assert count_matchings(make_split(6, 2), 2) == 12

    def test_matches_naive_small_exhaustive(self):
        for g in all_labeled_graphs(4):
            for k in range(4):
                assert count_matchings(g, k) == naive_count_matchings(g, k)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_naive_random(self, seed):
        g = random_graph(8, seed, p=0.4 + 0.05 * (seed % 5))
        for k in range(5):
            assert count_matchings(g, k) == naive_count_matchings(g, k)

    @pytest.mark.parametrize("pivot", ["first", "last", "middle", "random"])
    def test_pivot_independence_of_edge_recursion(self, pivot):
        # the deletion recursion gives the same count for any pivot rule,
        # and matches the production counter
        for seed in range(6):
            g = random_graph(7, 50 + seed)
            for k in range(4):
                assert edge_recursion_count_matchings(g, k, pivot) == count_matchings(g, k)

    def test_negative_k_rejected(self):
        with pytest.raises(ParameterError):
            count_matchings(Graph.empty(3), -1)


class TestDegreeIdentity:
    def test_k4(self):
        assert count_m2_via_degrees(Graph.complete(4)) == 3

    def test_star_k14(self):
        g = make_split(5, 1)
        assert g.edge_count == 4
        assert sum(d * d for d in g.degree_sequence()) == 20
        assert count_m2_via_degrees(g) == 0

    def test_empty(self):
        assert count_m2_via_degrees(Graph.empty(7)) == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_counter_random(self, seed):
        g = random_graph(6 + seed % 30, seed, p=0.1 + 0.028 * (seed % 30))
        assert count_m2_via_degrees(g) == _count_matchings_dp(g, 2)


class TestClosedForms:
    """The k, l <= 3 closed forms against the general DP and recursion."""

    @pytest.mark.parametrize("s", [3, 4, 5])
    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_match_general_paths_on_saturated_samples(self, n, s):
        g = random_saturated(n, s, 7 * n + s)
        for k in (2, 3):
            assert count_matchings(g, k) == _count_matchings_dp(g, k)
        for l in (2, 3):
            assert count_indep_sets(g, l) == _count_indep_sets_rec(g, l)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95])
    def test_match_general_paths_across_densities(self, p):
        for i, n in enumerate((2, 7, 12, 25, 38, 50)):
            g = random_graph(n, 600 + i, p=p)
            for k in (2, 3):
                assert count_matchings(g, k) == _count_matchings_dp(g, k), (n, k)
            for l in (2, 3):
                assert count_indep_sets(g, l) == _count_indep_sets_rec(g, l), (n, l)

    def test_too_few_vertices(self):
        # on n vertices K_n has the most matchings and the empty graph the most independent sets
        for k in (1, 2, 3):
            for n in range(2 * k):
                assert count_matchings(Graph.complete(n), k) == 0
        # every labeled graph, through both closed forms (k = 2, 3) and the DP
        for n in range(6):
            for g in all_labeled_graphs(n):
                for k in range(max(2, n // 2 + 1), 7):
                    assert count_matchings(g, k) == naive_count_matchings(g, k) == 0, (n, k)
        for n in range(3):
            assert count_indep_sets(Graph.empty(n), 3) == 0
        assert count_indep_sets(Graph.empty(1), 2) == 0

    def test_empty_graph(self):
        for n in range(12):
            g = Graph.empty(n)
            for k in (1, 2, 3):
                assert count_matchings(g, k) == 0
            for l in (1, 2, 3):
                assert count_indep_sets(g, l) == math.comb(n, l)

    def test_complete_graph(self):
        for n in range(12):
            g = Graph.complete(n)
            for k in (1, 2, 3):
                # ordered pairings of 2k of the n vertices, up to edge order and orientation
                expected = math.perm(n, 2 * k) // (2**k * math.factorial(k)) if n >= 2 * k else 0
                assert count_matchings(g, k) == expected
            assert count_indep_sets(g, 1) == n
            assert count_indep_sets(g, 2) == count_indep_sets(g, 3) == 0

    def test_stars(self):
        for n in range(2, 30):
            g = make_split(n, 1)
            assert count_matchings(g, 1) == n - 1
            assert count_matchings(g, 2) == count_matchings(g, 3) == 0
            assert count_indep_sets(g, 2) == math.comb(n - 1, 2)
            assert count_indep_sets(g, 3) == math.comb(n - 1, 3)

    def test_split_graphs(self):
        # an edge has an end in the q-clique, so k > q disjoint edges need k clique vertices
        for q in range(4):
            for n in range(q, 30, 3):
                g = make_split(n, q)
                for k in (1, 2, 3):
                    if k > q:
                        assert count_matchings(g, k) == 0
                    assert count_matchings(g, k) == _count_matchings_dp(g, k)
                for l in (2, 3):
                    assert count_indep_sets(g, l) == math.comb(n - q, l)


class TestMatchingDpBeyondOneWord:
    """The k >= 4 DP above 64 vertices, on labelings whose degree order is not label order."""

    @pytest.mark.parametrize("k", [4, 5])
    @pytest.mark.parametrize("n", [65, 128, 512])
    def test_relabeled_split_graphs(self, n, k):
        # q = 5 puts k <= q, where the count is not zero
        for q in (1, 2, 3, 5):
            g = make_split(n, q).relabel(random_permutation(n, 31 * n + q))
            assert [v for v in range(n) if g.degree(v) == n - 1] != list(range(q))
            assert _count_matchings_dp(g, k) == matchings_in_split_exact(n, q + 2, k), q

    @pytest.mark.parametrize("k", [4, 5])
    def test_perfect_matching_and_empty_graph_on_512(self, k):
        g = Graph.from_edges(512, [(2 * i, 2 * i + 1) for i in range(256)])
        assert _count_matchings_dp(g, k) == math.comb(256, k)
        assert _count_matchings_dp(Graph.empty(512), k) == 0


class TestCountCliques:
    def test_k5_triangles(self):
        assert count_cliques(Graph.complete(5), 3) == 10

    def test_c5_triangle_free(self):
        assert count_cliques(C5, 3) == 0

    def test_r1_counts_vertices_r2_counts_edges(self):
        for seed in range(8):
            g = random_graph(9, seed + 7)
            assert count_cliques(g, 1) == g.n
            assert count_cliques(g, 2) == g.edge_count

    def test_split_graph_closed_form(self):
        for s in range(3, 9):
            for n in range(s, 25, 3):
                for r in range(2, s):
                    q = s - 2
                    expected = math.comb(q, r) + (n - q) * math.comb(q, r - 1)
                    assert count_cliques(make_split(n, q), r) == expected
                    assert expected == sat_cliques_formula(n, r, s)

    def test_matches_naive(self):
        for g in all_labeled_graphs(4):
            for r in range(1, 5):
                assert count_cliques(g, r) == naive_count_cliques(g, r)
        for seed in range(8):
            g = random_graph(9, seed, p=0.6)
            for r in range(1, 6):
                assert count_cliques(g, r) == naive_count_cliques(g, r)

    def test_r_zero_rejected(self):
        with pytest.raises(ParameterError):
            count_cliques(Graph.empty(2), 0)


class TestCountIndepSets:
    def test_c5_pairs(self):
        assert count_indep_sets(C5, 2) == 5 == math.comb(5, 2) - 5

    def test_empty_graph(self):
        for l in range(1, 6):
            assert count_indep_sets(Graph.empty(8), l) == math.comb(8, l)

    def test_split_graph_excludes_clique_part(self):
        for s, n in [(4, 10), (5, 12), (7, 20)]:
            for l in range(2, 6):
                assert count_indep_sets(make_split(n, s - 2), l) == math.comb(n - s + 2, l)

    def test_complement_duality(self):
        for seed in range(10):
            g = random_graph(9, 200 + seed)
            for l in range(1, 5):
                assert _count_indep_sets_rec(g, l) == count_cliques(g.complement(), l)

    def test_matches_naive(self):
        for seed in range(8):
            g = random_graph(9, seed, p=0.35)
            for l in range(1, 6):
                assert count_indep_sets(g, l) == naive_count_indep_sets(g, l)

    def test_l_zero_rejected(self):
        with pytest.raises(ParameterError):
            count_indep_sets(Graph.empty(2), 0)


class TestMatchingNumber:
    def test_basic_values(self):
        assert matching_number(make_split(9, 1)) == 1
        assert matching_number(Graph.complete(4)) == 2
        assert matching_number(Graph.empty(6)) == 0
        assert matching_number(C5) == 2

    def test_split_graphs(self):
        # every edge meets the clique part, so the matching number is
        # min(s-2, floor(n/2))
        for s in range(3, 9):
            for n in range(s, 30, 5):
                assert matching_number(make_split(n, s - 2)) == min(s - 2, n // 2)

    @pytest.mark.parametrize("seed", range(15))
    def test_zero_regime_dual_route(self, seed):
        g = random_graph(4 + seed % 7, 300 + seed, p=0.4)
        nu = matching_number(g)
        for k in range(nu + 3):
            assert (count_matchings(g, k) == 0) == (k > nu)


class TestIsomorphismInvariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_counts_survive_relabeling(self, seed):
        g = random_graph(9, 400 + seed)
        h = g.relabel(random_permutation(9, seed))
        for k in range(4):
            assert count_matchings(g, k) == count_matchings(h, k)
        for r in range(1, 5):
            assert count_cliques(g, r) == count_cliques(h, r)
            assert count_indep_sets(g, r) == count_indep_sets(h, r)


class TestMotifSpec:
    def test_dispatch(self):
        g = Graph.complete(4)
        assert count_motif(g, MotifSpec("matching", 2)) == 3
        assert count_motif(g, MotifSpec("clique", 3)) == 4
        assert count_motif(g, MotifSpec("indepset", 1)) == 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            MotifSpec("paths", 2)
        with pytest.raises(ParameterError):
            MotifSpec("matching", 0)

    def test_str(self):
        assert str(MotifSpec("clique", 3)) == "clique:3"
