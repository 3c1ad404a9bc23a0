import hashlib
import json
from functools import reduce
from itertools import combinations
from operator import and_

import pytest

from satlab import (
    Graph,
    ParameterError,
    check_saturation,
    contains_clique,
    count_cliques,
    creates_clique_on_addition,
    make_split,
    nonisomorphic_graphs,
    random_saturated,
)
from satlab.saturation import _witness
from oracles import (
    all_labeled_graphs,
    naive_contains_clique,
    naive_count_cliques,
    naive_is_saturated,
    random_graph,
    reference_saturation_report,
)

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def clique_draws(p):
    """Seeded G(n, p) on 9 and 10 vertices, small enough for the oracles."""
    return [random_graph(n, 9700 + 10 * n + seed, p) for n in (9, 10) for seed in range(6)]


def naive_creates(g, u, v, s):
    """Adding uv creates an s-clique: the oracle's count of s-cliques rises."""
    return naive_count_cliques(g.with_edge(u, v), s) > naive_count_cliques(g, s)


class TestContainsClique:
    def test_split_graphs_are_free(self):
        for s in range(3, 8):
            for n in range(s, 20, 3):
                assert not contains_clique(make_split(n, s - 2), s)

    def test_complete_graph(self):
        for s in range(1, 7):
            assert contains_clique(Graph.complete(s), s)
        with pytest.raises(ParameterError, match="at least 1"):
            contains_clique(Graph.complete(3), 0)

    def test_c5_triangle_free(self):
        assert not contains_clique(C5, 3)

    def test_consistent_with_counter(self):
        for seed in range(10):
            g = random_graph(8, seed, p=0.55)
            for s in range(1, 7):
                assert contains_clique(g, s) == (count_cliques(g, s) > 0)

    def test_matches_naive(self):
        for g in all_labeled_graphs(5):
            for s in (2, 3, 4):
                assert contains_clique(g, s) == naive_contains_clique(g, s)

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
    def test_matches_naive_up_to_six(self, p):
        # the flat size-2 and size-3 loops end every search, from the top
        # (s = 2, 3) and below one or more levels of recursion (s = 4..6);
        # dense draws hold K_5 and K_6, sparser ones only smaller cliques
        for g in clique_draws(p):
            for s in range(2, 7):
                assert contains_clique(g, s) == naive_contains_clique(g, s)


class TestCreatesClique:
    def test_split_independent_part_pairs(self):
        for s in (3, 4, 6):
            g = make_split(10, s - 2)
            for u in range(s - 2, 10):
                for v in range(u + 1, 10):
                    assert creates_clique_on_addition(g, u, v, s)

    def test_empty_graph_never_creates_triangle(self):
        g = Graph.empty(6)
        assert not creates_clique_on_addition(g, 0, 5, 3)

    def test_all_c5_chords_create_triangles(self):
        chords = [(0, 2), (1, 3), (2, 4), (3, 0), (4, 1)]
        for u, v in chords:
            assert creates_clique_on_addition(C5, u, v, 3)

    def test_matches_direct_addition(self):
        # G+uv contains K_s iff G already did or the addition creates one
        # through uv, so the fast common-neighborhood test is checkable
        # against literal augmentation
        for seed in range(10):
            g = random_graph(8, 70 + seed, p=0.45)
            for u, v in g.non_edges():
                for s in (3, 4, 5):
                    after = naive_contains_clique(g.with_edge(u, v), s)
                    before = naive_contains_clique(g, s)
                    assert after == (before or creates_clique_on_addition(g, u, v, s))

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
    def test_matches_naive_up_to_six(self, p):
        # a common neighborhood often holds no edge, so at s = 4 the flat
        # size-2 loop answers no as well as yes
        for g in clique_draws(p):
            for s in range(2, 7):
                for u, v in g.non_edges():
                    assert creates_clique_on_addition(g, u, v, s) == naive_creates(g, u, v, s)

    def test_existing_edge_rejected(self):
        with pytest.raises(ParameterError):
            creates_clique_on_addition(Graph.complete(3), 0, 1, 3)
        with pytest.raises(ParameterError):
            creates_clique_on_addition(Graph.empty(3), 1, 1, 3)
        with pytest.raises(ParameterError, match="outside 0..2"):
            creates_clique_on_addition(Graph.empty(3), 0, 3, 3)
        with pytest.raises(ParameterError, match="at least 2"):
            creates_clique_on_addition(Graph.empty(3), 0, 1, 1)


class TestCheckSaturation:
    def test_split_graphs_saturated(self):
        for s in range(3, 8):
            for n in range(s, 25, 4):
                report = check_saturation(make_split(n, s - 2), s)
                assert report.is_saturated and report.is_free and not report.vacuous

    def test_c5_saturated_for_triangles(self):
        assert check_saturation(C5, 3).is_saturated

    def test_p4_not_saturated_with_witness(self):
        report = check_saturation(P4, 3)
        assert report.is_free
        assert not report.is_saturated
        assert report.missing_edge_failures == ((0, 3),)

    def test_failures_sorted_lexicographically(self):
        report = check_saturation(Graph.empty(5), 3)
        assert list(report.missing_edge_failures) == sorted(report.missing_edge_failures)
        assert len(report.missing_edge_failures) == 10

    def test_complete_graph_below_s_vacuously_saturated(self):
        for s in (3, 4, 6):
            report = check_saturation(Graph.complete(s - 1), s)
            assert report.is_saturated and report.vacuous

    def test_incomplete_graph_below_s_not_saturated(self):
        report = check_saturation(Graph.empty(3), 4)
        assert report.vacuous and not report.is_saturated

    def test_s2_only_empty_graph_qualifies(self):
        assert check_saturation(Graph.empty(4), 2).is_saturated
        assert check_saturation(Graph.empty(4), 2).vacuous
        assert not check_saturation(P4, 2).is_saturated

    def test_s_below_two_rejected(self):
        with pytest.raises(ParameterError):
            check_saturation(Graph.empty(3), 1)

    def test_report_fields_consistent(self):
        for seed in range(10):
            g = random_graph(7, seed, p=0.4)
            for s in (3, 4):
                report = check_saturation(g, s)
                assert report.is_saturated == (
                    report.is_free and not report.missing_edge_failures
                )
                assert report.n == g.n and report.s == s

    @pytest.mark.parametrize("s", [3, 4])
    def test_equivalent_to_maximal_free_definition_exhaustive(self, s):
        # definition chase over every labeled graph on up to 6 vertices
        for n in range(7):
            for g in all_labeled_graphs(n):
                assert check_saturation(g, s).is_saturated == naive_is_saturated(g, s)

    def test_min_degree_necessary_condition(self):
        # saturated graphs on n >= s vertices have min degree >= s-2
        for seed in range(40):
            g = random_graph(7, 500 + seed, p=0.35)
            for s in (3, 4):
                report = check_saturation(g, s)
                if report.is_saturated and g.n >= s:
                    assert min(g.degree_sequence()) >= s - 2

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
    def test_witness_is_first_clique(self, p):
        # the sweep settles what the lexicographically first K_{s-2} of the
        # common neighborhood reaches; v itself is adjacent to all of it
        for g in clique_draws(p):
            full = (1 << g.n) - 1
            for u, v in g.non_edges():
                common = [w for w in range(g.n) if g.has_edge(u, w) and g.has_edge(v, w)]
                cand = g.rows[u] & g.rows[v]
                for size in range(5):
                    # combinations come out in lexicographic order
                    cliques = (
                        c for c in combinations(common, size)
                        if all(g.has_edge(a, b) for a, b in combinations(c, 2))
                    )
                    first = next(cliques, None)
                    expected = 0 if first is None else reduce(and_, (g.rows[w] for w in first), full)
                    assert _witness(g.rows, cand, size, full) == expected

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
    def test_failures_match_naive_up_to_six(self, p):
        # the sweep's flat witness loops, against the oracle alone
        for g in clique_draws(p):
            for s in range(2, 7):
                report = check_saturation(g, s)
                assert report.is_free == (not naive_contains_clique(g, s))
                expected = tuple((u, v) for u, v in g.non_edges() if not naive_creates(g, u, v, s))
                assert report.missing_edge_failures == expected

    def test_json_dict(self):
        d = check_saturation(P4, 3).to_json_dict()
        assert d["is_saturated"] is False
        assert d["missing_edge_failures"] == [[0, 3]]


class TestSweepMatchesPerNonEdgeDefinition:
    # check_saturation settles every non-edge a found clique covers at once;
    # the reference runs one creates_clique_on_addition per non-edge

    @pytest.mark.parametrize("s", range(2, 7))
    def test_every_class_up_to_seven_vertices(self, s):
        # n = 0, 1 and 2 included
        for n in range(8):
            for g in nonisomorphic_graphs(n):
                assert check_saturation(g, s).to_json_dict() == reference_saturation_report(g, s)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_seeded_random_graphs(self, p):
        # sparse draws fail on many non-edges, dense ones already hold K_s
        for n in (3, 8, 17, 32, 48, 64):
            for seed in range(2):
                g = random_graph(n, 9500 + 10 * n + seed, p)
                for s in range(2, 7):
                    assert check_saturation(g, s).to_json_dict() == reference_saturation_report(g, s)


def test_sampler_and_reports_pinned():
    # sampled rows, and the reports of each sample and of the sample less its
    # first edge (so failures are listed), as the per-non-edge loop gave them
    records = []
    for n in (1, 2, 5, 17, 32, 48, 64, 100):
        for s in (3, 4, 5, 6):
            for seed in (0, 1, 2):
                g = random_saturated(n, s, seed)
                cut = Graph.from_edges(n, list(g.edges())[1:])
                reports = [check_saturation(h, s).to_json_dict() for h in (g, cut)]
                records.append(json.dumps([g.rows, *reports]).encode() + b"\n")
    assert hashlib.sha256(b"".join(records)).hexdigest() == (
        "4bfad3623eade7baecce56f7799f40d88479376bb0f10706349c39df2547d0b3"
    )
