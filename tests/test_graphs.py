import math

import networkx as nx
import pytest

from satlab import (
    Graph,
    Graph6Error,
    ParameterError,
    are_isomorphic,
    from_graph6,
    join,
    make_split,
    to_graph6,
)
from oracles import all_labeled_graphs, random_graph


class TestGraphType:
    def test_rejects_loops(self):
        with pytest.raises(ParameterError):
            Graph(2, (0b01, 0b01))

    def test_rejects_asymmetry(self):
        with pytest.raises(ParameterError):
            Graph(2, (0b10, 0b00))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ParameterError):
            Graph(2, (0b100, 0b000))

    def test_rejects_oversize(self):
        with pytest.raises(ParameterError):
            Graph.empty(513)

    def test_degree_and_edge_count(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
        assert g.edge_count == 3
        assert sum(g.degree(v) for v in range(4)) == 2 * g.edge_count

    def test_zero_and_one_vertex_graphs_are_legal(self):
        assert Graph.empty(0).edge_count == 0
        assert Graph.empty(1).edge_count == 0
        assert list(Graph.empty(1).non_edges()) == []

    def test_complement_involution(self):
        for seed in range(5):
            g = random_graph(9, seed)
            assert g.complement().complement() == g

    def test_relabel_identity_and_inverse(self):
        g = random_graph(8, 3)
        perm = [3, 1, 4, 0, 5, 2, 7, 6]
        inv = [perm.index(v) for v in range(8)]
        assert g.relabel(perm).relabel(inv) == g
        with pytest.raises(ParameterError):
            g.relabel([0] * 8)


class TestMakeSplit:
    def test_star(self):
        g = make_split(5, 1)
        assert g.degree_sequence() == (4, 1, 1, 1, 1)
        assert g.edge_count == 4

    def test_edge_identity(self):
        g = make_split(6, 2)
        assert g.edge_count == 9 == math.comb(2, 2) + 2 * 4

    def test_full_clique_part(self):
        assert make_split(5, 5) == Graph.complete(5)

    def test_structure(self):
        g = make_split(8, 3)
        for u in range(3):
            for v in range(8):
                if u != v:
                    assert g.has_edge(u, v)
        for u in range(3, 8):
            for v in range(u + 1, 8):
                assert not g.has_edge(u, v)

    def test_edge_count_formula_grid(self):
        for n in range(0, 30, 3):
            for q in range(0, n + 1, 2):
                assert make_split(n, q).edge_count == math.comb(q, 2) + q * (n - q)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            make_split(4, 5)
        with pytest.raises(ParameterError):
            make_split(3, -1)


class TestJoin:
    def test_join_clique_with_empty_is_split(self):
        assert join(Graph.complete(2), Graph.empty(4)) == make_split(6, 2)

    def test_join_vertex_with_empty_is_star(self):
        g = join(Graph.empty(1), Graph.empty(5))
        assert are_isomorphic(g, make_split(6, 1))

    def test_join_k2_k2_is_k4(self):
        assert join(Graph.complete(2), Graph.complete(2)) == Graph.complete(4)

    def test_edge_count(self):
        g, h = random_graph(6, 1), random_graph(5, 2)
        assert join(g, h).edge_count == g.edge_count + h.edge_count + 30

    def test_size_overflow(self):
        with pytest.raises(ParameterError):
            join(Graph.empty(300), Graph.empty(300))


class TestGraph6:
    def test_empty_graph_is_question_mark(self):
        assert to_graph6(Graph.empty(0)) == b"?"
        assert from_graph6(b"?") == Graph.empty(0)

    def test_k2_hand_encoding(self):
        # n=2 -> 'A'; single bit x_{0,1}=1 padded to 100000 -> 32+63 = '_'
        assert to_graph6(Graph.complete(2)) == b"A_"
        assert from_graph6(b"A_") == Graph.complete(2)

    def test_roundtrip_exhaustive_small(self):
        for n in range(5):
            for g in all_labeled_graphs(n):
                assert from_graph6(to_graph6(g)) == g

    @pytest.mark.parametrize("n", [10, 62, 63, 100, 512])
    def test_roundtrip_sizes(self, n):
        g = random_graph(n, n, p=0.05)
        data = to_graph6(g)
        assert from_graph6(data) == g
        # header length switches at n=63
        payload_len = (n * (n - 1) // 2 + 5) // 6
        assert len(data) == payload_len + (1 if n <= 62 else 4)

    def test_roundtrip_split_graphs(self):
        for n, q in [(12, 3), (40, 6), (512, 6)]:
            g = make_split(n, q)
            assert from_graph6(to_graph6(g)) == g

    # every padding residue (C(n,2) mod 6 is 0, 1, 3 or 4) and both sides of
    # the header switch at n = 63
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 11, 62, 63, 100, 512])
    def test_encode_cross_checked_against_networkx(self, n):
        g = random_graph(n, n)
        nxg = nx.empty_graph(n)
        nxg.add_edges_from(g.edges())
        ours = to_graph6(g)
        assert ours == nx.to_graph6_bytes(nxg, header=False).strip()
        h = nx.from_graph6_bytes(ours)
        assert set(h.edges()) == set(g.edges())
        assert set(h.nodes()) == set(range(n))

    @pytest.mark.parametrize("seed", range(8))
    def test_decode_cross_checked_against_networkx(self, seed):
        g = random_graph(9, seed + 100)
        nxg = nx.empty_graph(9)
        nxg.add_edges_from(g.edges())
        data = nx.to_graph6_bytes(nxg, header=False).strip()
        assert from_graph6(data) == g

    def test_decode_errors_carry_offsets(self):
        with pytest.raises(Graph6Error):
            from_graph6(b"")
        with pytest.raises(Graph6Error) as exc:
            from_graph6(bytes([30]))  # header below printable range
        assert exc.value.offset == 0
        with pytest.raises(Graph6Error) as exc:
            from_graph6(b"D")  # n=5 but no payload
        assert exc.value.offset == 1
        with pytest.raises(Graph6Error):
            from_graph6(b"A_extra")  # too long
        with pytest.raises(Graph6Error) as exc:
            from_graph6(b"A" + bytes([63 + 0b011111]))  # nonzero padding bits
        assert exc.value.offset == 1
        with pytest.raises(Graph6Error):
            from_graph6(b"A" + bytes([140]))  # payload byte out of range
        with pytest.raises(Graph6Error):
            from_graph6(b"~??")  # truncated long-size header
        with pytest.raises(Graph6Error):
            from_graph6(b"~??A")  # long form used for n <= 62
        with pytest.raises(Graph6Error):
            from_graph6("héllo")  # not ASCII

    def test_decode_rejects_oversize(self):
        # long-form header declaring n=4032, above the 512-vertex cap
        with pytest.raises(Graph6Error):
            from_graph6(b"~?~?" + b"?" * 10)
