"""Property tests of the k, l <= 3 counts on Hypothesis-drawn graphs.

Derandomized, so every run draws the same examples.  The brute-force
subset enumerations are the references.
"""

from hypothesis import given

from satlab import count_indep_sets, count_matchings
from oracles import naive_count_indep_sets, naive_count_matchings
from strategies import PROPERTY, graphs


@PROPERTY
@given(graphs(12))
def test_small_counts_match_subset_enumeration(g):
    for k in range(4):
        assert count_matchings(g, k) == naive_count_matchings(g, k)
    for l in range(1, 4):
        assert count_indep_sets(g, l) == naive_count_indep_sets(g, l)
