"""Property test of the saturation report on Hypothesis-drawn graphs.

Derandomized, so every run draws the same examples.  One
``creates_clique_on_addition`` test per non-edge is the reference.
"""

from hypothesis import given, strategies as st

from satlab import check_saturation
from oracles import reference_saturation_report
from strategies import PROPERTY, graphs


@PROPERTY
@given(graphs(12), st.integers(2, 6))
def test_report_matches_per_non_edge_definition(g, s):
    assert check_saturation(g, s).to_json_dict() == reference_saturation_report(g, s)
