"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is zero: all comparisons are exact
integers or exact rationals.

Criterion A8 checks the classical independent-set bound: every n-vertex
graph with at most tau*C(n/tau,2) edges, tau | n, has at least
C(tau,l)*(n/tau)^l independent l-sets (Turán's theorem in complement form
for l = 2, Bollobás 1976 for l >= 3).  The extremal graph is tau disjoint
copies of K_{n/tau}, which the test also checks.  At l = 2 the count of any
m-edge graph is C(n,2) - m, so the sampled points meet the bound with
equality.
"""

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb

import pytest

from satlab import (
    Graph,
    MotifSpec,
    canonical_certificate,
    count_indep_sets,
    count_m2_via_degrees,
    count_matchings,
    extremal_count,
    from_graph6,
    indep_lower_bound_exact,
    make_split,
    matchings_in_split_exact,
    nonisomorphic_graphs,
    sat_cliques_formula,
    sat_edges_formula,
    to_graph6,
)
from satlab.cli import main as cli_main
from satlab.counting import _count_matchings_dp
from oracles import (
    all_labeled_graphs,
    naive_count_matchings,
    pruned_count_matchings,
    random_graph,
    random_graph_with_m_edges,
)


def report(tag: str, started: float, detail: str = ""):
    print(f"[{tag}] PASS ({time.time() - started:.1f}s) {detail}".rstrip())


def test_a01_minimum_edge_count_exact_with_unique_split_extremal():
    """Enumerated min edge count equals (s-2)(n-s+2)+C(s-2,2), split unique."""
    t0 = time.time()
    for s, n_lo in ((3, 4), (4, 5)):
        for n in range(n_lo, 9):
            result = extremal_count(n, s, MotifSpec("clique", 2), "min")
            expected = sat_edges_formula(n, s)
            assert result.optimum == expected, (n, s, result.optimum, expected)
            split_cert = canonical_certificate(make_split(n, s - 2))
            assert result.extremal == (split_cert,), (n, s, result.extremal)
            assert result.unique
    report("A1", t0, "min |E| exact and split-unique for s=3 n=4..8, s=4 n=5..8")


def test_a02_star_is_unique_m2_minimizer_for_triangles():
    """For s=3, k=2, n=4..8: minimum M_2 count is 0, star uniquely extremal."""
    t0 = time.time()
    for n in range(4, 9):
        result = extremal_count(n, 3, MotifSpec("matching", 2), "min")
        assert result.optimum == 0, (n, result.optimum)
        star_cert = canonical_certificate(make_split(n, 1))
        assert result.extremal == (star_cert,), (n, result.extremal)
    report("A2", t0, "min N(M_2) = 0 with unique star extremal for n=4..8")


def test_a03_m2_minimum_bounded_by_split_for_k4():
    """For s=4, k=2, n=6..8: enumerated min <= split count; record equality."""
    t0 = time.time()
    records = []
    for n in range(6, 9):
        result = extremal_count(n, 4, MotifSpec("matching", 2), "min")
        split_value = count_matchings(make_split(n, 2), 2)
        assert result.optimum <= split_value, (n, result.optimum, split_value)
        split_unique = result.extremal == (canonical_certificate(make_split(n, 2)),)
        records.append(
            f"n={n}: min={result.optimum} split={split_value} "
            f"equal={result.optimum == split_value} unique_split={split_unique}"
        )
    report("A3", t0, "; ".join(records))


def test_a04_split_graphs_have_no_matchings_beyond_clique_part():
    """count_matchings(S_{n,s-2}, k) = 0 for k > s-2, s=3..8, n=s..40."""
    t0 = time.time()
    checked = 0
    for s in range(3, 9):
        for n in range(s, 41):
            g = make_split(n, s - 2)
            for k in (s - 1, s, s + 2, 2 * s):
                assert count_matchings(g, k) == 0, (n, s, k)
                checked += 1
    report("A4", t0, f"{checked} zero counts in the k > s-2 regime")


def test_a05_matching_counter_agrees_with_subset_enumeration():
    """Exhaustive n<=6 at k<=3, plus 500 seeded random graphs n<=10 at k<=5."""
    t0 = time.time()
    graphs = 0
    for n in range(7):
        for g in all_labeled_graphs(n):
            graphs += 1
            for k in range(4):
                assert count_matchings(g, k) == naive_count_matchings(g, k), (
                    to_graph6(g),
                    k,
                )
    for i in range(500):
        n = 8 + i % 3
        g = random_graph(n, seed=9_000 + i, p=0.2 + 0.06 * (i % 11))
        for k in range(4):
            assert count_matchings(g, k) == naive_count_matchings(g, k)
        for k in (4, 5):
            assert count_matchings(g, k) == pruned_count_matchings(g, k)
    report("A5", t0, f"{graphs} exhaustive graphs + 500 random graphs, all k agree")


def test_a06_degree_identity_matches_counter():
    """count_m2_via_degrees == the matching DP at k=2 on 1000 random graphs."""
    t0 = time.time()
    for i in range(1000):
        n = 2 + i % 49
        g = random_graph(n, seed=50_000 + i, p=0.05 + 0.09 * (i % 11))
        assert count_m2_via_degrees(g) == _count_matchings_dp(g, 2), to_graph6(g)
    report("A6", t0, "1000 random graphs up to n=50")


def test_a07_split_matching_closed_form_matches_counter_full_grid():
    """matchings_in_split_exact == counter for 3<=s<=10, 0<=k<=8, s<=n<=40."""
    t0 = time.time()
    checked = 0
    for s in range(3, 11):
        for n in range(s, 41):
            g = make_split(n, s - 2)
            for k in range(9):
                assert matchings_in_split_exact(n, s, k) == count_matchings(g, k), (
                    n,
                    s,
                    k,
                )
                checked += 1
    report("A7", t0, f"{checked} grid points")


def test_a08_independent_set_lower_bound_at_fixed_points():
    """Bound C(tau,l)*(n/tau)^l on 100 seeded graphs per point; zero violations.

    Each graph has tau*C(n/tau,2) edges, the most the bound allows; tau
    disjoint cliques K_{n/tau} meet the bound exactly.
    """
    t0 = time.time()
    violations = []
    for n, tau, l in ((12, 3, 2), (12, 3, 3), (20, 5, 2)):
        assert n % tau == 0, "hypothesis requires tau | n"
        part = n // tau
        m = tau * comb(part, 2)
        bound = indep_lower_bound_exact(n, tau, l)
        cliques = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // part == v // part]
        )
        assert cliques.edge_count == m
        assert Fraction(count_indep_sets(cliques, l)) == bound, (n, tau, l)
        for seed in range(100):
            g = random_graph_with_m_edges(n, m, seed=70_000 + seed)
            count = count_indep_sets(g, l)
            if Fraction(count) < bound:
                violations.append((n, tau, l, seed, count, str(bound)))
    if violations:
        print(
            f"[A8] FAIL ({time.time() - t0:.1f}s) {len(violations)} violations; "
            f"first: (n,tau,l,seed,count,bound)={violations[0]}; "
            "a graph with tau*C(n/tau,2) edges has fewer independent l-sets "
            "than the bound"
        )
    assert not violations, (
        f"{len(violations)} bound violations across the three parameter points; "
        f"first: {violations[0]}"
    )
    report("A8", t0, "bound holds on 300 graphs; tau disjoint K_{n/tau} attain it")


def test_a09_triangle_count_minimum_bounded_by_formula_for_k4():
    """For s=4, r=3, n=6..8: enumerated min <= (n-2); record equality."""
    t0 = time.time()
    records = []
    for n in range(6, 9):
        result = extremal_count(n, 4, MotifSpec("clique", 3), "min")
        formula = sat_cliques_formula(n, 3, 4)
        assert formula == n - 2
        assert result.optimum <= formula, (n, result.optimum, formula)
        records.append(f"n={n}: min={result.optimum} formula={formula} equal={result.optimum == formula}")
    report("A9", t0, "; ".join(records))


def test_a10_roundtrip_and_repeat_determinism():
    """graph6 round trips byte-exactly on every enumerated class; two runs
    of the same search print byte-identical output."""
    t0 = time.time()
    total = 0
    for n in range(9):
        for g in nonisomorphic_graphs(n):
            data = to_graph6(g)
            assert to_graph6(from_graph6(data)) == data
            total += 1
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["search", "--n", "7", "--s", "4", "--motif", "matching:2"])
        assert code == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    report("A10", t0, f"{total} round trips; repeated search output byte-identical")
