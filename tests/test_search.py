import hashlib
import json
import random
from itertools import combinations, permutations

import pytest

from satlab import (
    MAX_VERTICES,
    BudgetError,
    Graph,
    MotifSpec,
    ParameterError,
    SearchBudget,
    canonical_certificate,
    check_saturation,
    contains_clique,
    count_matchings,
    creates_clique_on_addition,
    enumerate_saturated,
    extremal_count,
    make_split,
    matchings_in_split_exact,
    nonisomorphic_graphs,
    probe_conjecture,
    random_saturated,
    sat_edges_formula,
)
from satlab.search import _shuffled_pairs
from oracles import (
    all_labeled_graphs,
    brute_certificate,
    naive_count_cliques,
    naive_count_indep_sets,
    naive_count_matchings,
    naive_is_saturated,
)

M2 = MotifSpec("matching", 2)


def brute_extremal(n, s, motif, mode):
    """Fully independent extremal scan: naive saturation filter over every
    labeled graph, brute-force iso dedup, naive counting."""
    counter = {
        "matching": naive_count_matchings,
        "clique": naive_count_cliques,
        "indepset": naive_count_indep_sets,
    }[motif.kind]
    per_class = {}
    for g in all_labeled_graphs(n):
        if naive_is_saturated(g, s):
            per_class.setdefault(brute_certificate(g), counter(g, motif.size))
    values = sorted(per_class.values())
    optimum = values[0] if mode == "min" else values[-1]
    return optimum, values


class TestEnumerateSaturated:
    def test_matches_brute_force_class_counts(self):
        # independent route: filter every labeled graph with the naive
        # definition checker, then dedup by explicit permutation matching
        for n in range(1, 6):
            for s in (3, 4):
                reps = []
                for g in all_labeled_graphs(n):
                    if not naive_is_saturated(g, s):
                        continue
                    if not any(
                        any(r.relabel(p) == g for p in permutations(range(n)))
                        for r in reps
                    ):
                        reps.append(g)
                assert len(list(enumerate_saturated(n, s))) == len(reps)

    def test_classes_n4_s3(self):
        reps = list(enumerate_saturated(4, 3))
        assert len(reps) == 2
        certs = {canonical_certificate(g) for g in reps}
        assert canonical_certificate(make_split(4, 1)) in certs  # star
        cycle4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert canonical_certificate(cycle4) in certs

    def test_single_vacuous_class_below_s(self):
        for s in (3, 4, 5, 6):
            reps = list(enumerate_saturated(s - 1, s))
            assert len(reps) == 1
            assert reps[0].edge_count == (s - 1) * (s - 2) // 2  # complete

    def test_every_yield_passes_check_and_edge_bound(self):
        for n in range(3, 7):
            for s in (3, 4):
                for g in enumerate_saturated(n, s):
                    report = check_saturation(g, s)
                    assert report.is_saturated
                    if n >= s:
                        assert g.edge_count >= sat_edges_formula(n, s)
                        assert min(g.degree_sequence()) >= s - 2

    def test_sorted_and_deduplicated_by_certificate(self):
        certs = [canonical_certificate(g) for g in enumerate_saturated(6, 3)]
        assert certs == sorted(set(certs))

    def test_split_graph_appears_exactly_once(self):
        for s in range(3, 7):
            for n in range(s, 8):
                split_cert = canonical_certificate(make_split(n, s - 2))
                certs = [canonical_certificate(g) for g in enumerate_saturated(n, s)]
                assert certs.count(split_cert) == 1

    def test_budget_errors(self):
        with pytest.raises(BudgetError):
            list(enumerate_saturated(9, 3))
        with pytest.raises(ParameterError):
            list(enumerate_saturated(0, 3))
        with pytest.raises(ParameterError):
            list(enumerate_saturated(4, 2))


class TestExtremalCount:
    def test_star_uniquely_minimizes_m2_at_n6(self):
        result = extremal_count(6, 3, M2, "min")
        assert result.optimum == 0
        assert result.unique
        assert result.extremal == (canonical_certificate(make_split(6, 1)),)

    def test_min_edges_n7_s3(self):
        result = extremal_count(7, 3, MotifSpec("clique", 2), "min")
        assert result.optimum == 6 == sat_edges_formula(7, 3)
        assert result.unique
        assert result.extremal == (canonical_certificate(make_split(7, 1)),)

    def test_zero_m3_with_split_among_extremal_n6_s4(self):
        result = extremal_count(6, 4, MotifSpec("matching", 3), "min")
        assert result.optimum == 0
        assert canonical_certificate(make_split(6, 2)) in result.extremal

    def test_histogram_consistency(self):
        result = extremal_count(6, 3, M2, "min")
        assert sum(result.histogram.values()) == result.classes
        assert result.optimum == min(result.histogram)
        assert result.unique == (len(result.extremal) == 1)
        assert result.histogram[result.optimum] == len(result.extremal)

    def test_max_mode_uses_max_key(self):
        result = extremal_count(6, 3, M2, "max")
        assert result.optimum == max(result.histogram)

    def test_min_bounded_by_split_count(self):
        for n in range(4, 8):
            for s in (3, 4):
                if n < s:
                    continue
                for k in (2, 3):
                    result = extremal_count(n, s, MotifSpec("matching", k), "min")
                    assert result.optimum <= count_matchings(make_split(n, s - 2), k)

    def test_time_limit_enforced(self):
        with pytest.raises(BudgetError):
            extremal_count(7, 3, M2, "min", SearchBudget(time_limit=1e-9))

    def test_time_limit_covers_enumeration(self):
        # a cold n = 7 enumeration alone takes 0.14-0.19 s on 2 vCPUs
        nonisomorphic_graphs.cache_clear()
        with pytest.raises(BudgetError):
            extremal_count(7, 3, M2, "min", SearchBudget(time_limit=0.05))

    def test_bad_mode_rejected(self):
        with pytest.raises(ParameterError):
            extremal_count(5, 3, M2, "median")

    @pytest.mark.parametrize(
        "n,s,motif,mode",
        [
            (5, 3, M2, "min"),
            (5, 3, MotifSpec("clique", 2), "min"),
            (5, 3, M2, "max"),
            (5, 4, MotifSpec("indepset", 2), "max"),
            (4, 3, MotifSpec("matching", 2), "max"),
        ],
    )
    def test_matches_fully_independent_brute_force_scan(self, n, s, motif, mode):
        expected_opt, expected_values = brute_extremal(n, s, motif, mode)
        result = extremal_count(n, s, motif, mode)
        assert result.optimum == expected_opt
        assert result.classes == len(expected_values)
        flattened = sorted(
            value for value, count in result.histogram.items() for _ in range(count)
        )
        assert flattened == expected_values
        assert len(result.extremal) == expected_values.count(expected_opt)


class TestRandomSaturated:
    @pytest.mark.parametrize("n,s", [(10, 3), (20, 4), (30, 5), (12, 6)])
    def test_output_is_saturated(self, n, s):
        for seed in (0, 1, 999):
            g = random_saturated(n, s, seed)
            assert check_saturation(g, s).is_saturated
            assert g.edge_count >= sat_edges_formula(n, s)

    def test_triangle_free_completion(self):
        g = random_saturated(25, 3, 4)
        assert not contains_clique(g, 3)
        for u, v in g.non_edges():
            assert creates_clique_on_addition(g, u, v, 3)

    def test_deterministic_per_seed(self):
        assert random_saturated(15, 4, 42) == random_saturated(15, 4, 42)

    def test_seeds_vary(self):
        outputs = {random_saturated(15, 4, seed) for seed in range(6)}
        assert len(outputs) > 1

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            random_saturated(0, 3, 1)
        with pytest.raises(ParameterError):
            random_saturated(5, 2, 1)

    def test_vertex_count_above_max_raises(self):
        # checked before the C(n,2) pairs are built and shuffled
        with pytest.raises(ParameterError, match="513 exceeds 512"):
            random_saturated(MAX_VERTICES + 1, 3, 1)

    @pytest.mark.parametrize("seed", [0, 1, -17, 2**31 - 1, 2**40 + 3, 2**70, "seed", b"seed"], ids=repr)
    def test_pair_order_is_random_shuffle(self, seed):
        # the inline Fisher-Yates makes shuffle's own draws; if a Python
        # release changes them, this fails before the row digests do
        for n in [*range(71), 128, 512]:
            pairs = list(combinations(range(n), 2))
            random.Random(seed).shuffle(pairs)
            assert _shuffled_pairs(n, seed) == pairs

    def test_rows_pinned_on_probe_and_large_seeds(self):
        # seeds test_sampler_and_reports_pinned does not reach: the benchmark
        # probe's draws, probe_conjecture's seed formula, negative, > 2^32 and
        # str seeds, and n up to 512
        rng = random.Random(1)
        probe_seeds = [rng.randrange(2**31) for _ in range(3)]
        odd_seeds = [-17, 2**40 + 3, "seed"]
        cases = []
        for n in (17, 32, 48, 64):
            conjecture_seeds = [seed * 1_000_003 + n * 1_009 + i for seed in (1, 7) for i in (0, 1)]
            cases += [(n, s, seed) for s in (3, 4, 5) for seed in probe_seeds + conjecture_seeds + odd_seeds]
        cases += [(n, s, seed) for n in (128, 256) for s in (3, 4, 5) for seed in odd_seeds]
        cases.append((512, 3, probe_seeds[0]))
        records = [
            json.dumps([n, s, repr(seed), random_saturated(n, s, seed).rows]).encode() + b"\n"
            for n, s, seed in cases
        ]
        assert hashlib.sha256(b"".join(records)).hexdigest() == (
            "df380b80c4d60d6f60895e55afa6f64b0a008467b2821671cd85b744042f06f4"
        )


class TestProbeConjecture:
    def test_split_column_matches_counter(self):
        rows = probe_conjecture(range(8, 12), 4, 2, samples=5, seed=1)
        for row in rows:
            assert row.split_count == count_matchings(make_split(row.n, 2), 2)
            assert row.sampled_min >= 0
            assert row.sampled_min_ge_split == (row.sampled_min >= row.split_count)

    def test_zero_split_column_beyond_clique_part(self):
        rows = probe_conjecture(range(8, 11), 4, 3, samples=3, seed=2)
        assert all(row.split_count == 0 for row in rows)

    def test_split_column_matches_closed_form_at_k4(self):
        rows = probe_conjecture(range(8, 12), 6, 4, samples=2, seed=5)
        assert [row.n for row in rows] == [8, 9, 10, 11]
        for row in rows:
            assert row.split_count == matchings_in_split_exact(row.n, 6, 4) > 0

    def test_sampled_min_dominates_exhaustive_min(self):
        rows = probe_conjecture([6, 7], 3, 2, samples=8, seed=3)
        for row in rows:
            exhaustive = extremal_count(row.n, 3, M2, "min").optimum
            assert row.sampled_min >= exhaustive

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            probe_conjecture([5], 4, 1, samples=2, seed=0)
        with pytest.raises(ParameterError):
            probe_conjecture([3], 4, 2, samples=2, seed=0)
        with pytest.raises(ParameterError):
            probe_conjecture([8], 4, 2, samples=0, seed=0)
        with pytest.raises(ParameterError, match="clique order must be at least 3"):
            probe_conjecture([8], 2, 2, samples=2, seed=0)
