"""Property tests of canonical certificates and group orders on Hypothesis-drawn graphs.

Derandomized, so every run draws the same examples.
"""

from hypothesis import given, strategies as st

from satlab import Graph, automorphism_generators, automorphism_group_order, canonical_certificate
from oracles import brute_automorphism_count, brute_certificate, schreier_sims_order
from strategies import PROPERTY, graphs, module_graphs


@PROPERTY
@given(st.data())
def test_certificate_invariant_under_relabeling(data):
    g = data.draw(graphs(9))
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_certificate(g.relabel(perm)) == canonical_certificate(g)


@PROPERTY
@given(st.data())
def test_group_order_matches_schreier_sims_on_generators(data):
    g = data.draw(graphs(9))
    g = g.relabel(data.draw(st.permutations(range(g.n))))
    assert automorphism_group_order(g) == schreier_sims_order(g.n, automorphism_generators(g))


@PROPERTY
@given(st.data())
def test_certificates_equal_exactly_when_brute_force_tables_equal(data):
    # h is a relabelled copy of g with a few vertex pairs toggled, so the
    # draws hold both isomorphic and non-isomorphic pairs of equal order
    g = data.draw(graphs(6))
    perm = data.draw(st.permutations(range(g.n)))
    edges = {frozenset(e) for e in g.relabel(perm).edges()}
    if g.n >= 2:
        pairs = [frozenset((u, v)) for v in range(g.n) for u in range(v)]
        edges ^= set(data.draw(st.lists(st.sampled_from(pairs), max_size=2)))
    h = Graph.from_edges(g.n, [tuple(e) for e in edges])
    same = canonical_certificate(g) == canonical_certificate(h)
    assert same == (brute_certificate(g) == brute_certificate(h))


@PROPERTY
@given(st.data())
def test_module_graphs_certify_and_count_automorphisms(data):
    # joins and unions of equal-clique modules are where the search settles
    # nodes block by block, at the root or after a few individualizations;
    # the generators it adds there must generate the whole group
    g = data.draw(module_graphs(8))
    h = g.relabel(data.draw(st.permutations(range(g.n))))
    assert canonical_certificate(h) == canonical_certificate(g)
    order = brute_automorphism_count(h)
    assert automorphism_group_order(h) == order
    assert schreier_sims_order(h.n, automorphism_generators(h)) == order
