"""Hypothesis strategies shared by the property tests."""

from hypothesis import settings, strategies as st

from satlab import Graph

# derandomized, so every run draws the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def graphs(draw, max_n: int) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
