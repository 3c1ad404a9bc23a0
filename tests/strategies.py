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


@st.composite
def module_graphs(draw, max_n: int) -> Graph:
    """A graph built from modules of equal cliques, up to max_n vertices.

    Each step adds t disjoint K_c, or the complete multipartite graph with
    t parts of size c, and joins the new vertices to all the old ones, to
    none, or each new block to its own subset of them.  The last makes
    cells that look like modules inside but not from outside."""
    g = Graph.empty(0)
    while g.n < max_n:
        c = draw(st.integers(1, max_n - g.n))
        t = draw(st.integers(1, (max_n - g.n) // c))
        blocks = [range(g.n + b * c, g.n + (b + 1) * c) for b in range(t)]
        edges = set(g.edges())
        edges |= {(u, v) for block in blocks for u in block for v in block if u < v}
        new = range(g.n, g.n + t * c)
        if draw(st.booleans()):
            # complement the new part: swap its edges and non-edges
            edges ^= {(u, v) for v in new for u in new if u < v}
        link = draw(st.sampled_from(["none", "all", "blocks"]))
        for block in blocks:
            if link == "all":
                old = range(g.n)
            elif link == "blocks":
                old = draw(st.lists(st.integers(0, g.n - 1), max_size=g.n)) if g.n else []
            else:
                old = []
            edges |= {(u, v) for v in block for u in old}
        g = Graph.from_edges(g.n + t * c, sorted(edges))
        if draw(st.booleans()):
            break
    return g
