import hashlib
import math
import random

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
    nonisomorphic_graphs,
    random_saturated,
    to_graph6,
)
from satlab.graphs import _row_strings, _triangle_bits, _triangle_rows
from oracles import (
    all_labeled_graphs,
    random_graph,
    random_permutation,
    reference_triangle_bits,
    reference_triangle_key,
    reference_triangle_rows,
)


class TestGraphType:
    def test_rejects_loops(self):
        with pytest.raises(ParameterError):
            Graph(2, (0b01, 0b01))
        with pytest.raises(ParameterError, match="loop edge at vertex 1"):
            Graph.from_edges(3, [(0, 2), (1, 1)])
        with pytest.raises(ParameterError, match="cannot add a loop"):
            Graph.empty(3).with_edge(1, 1)

    def test_rejects_asymmetry(self):
        with pytest.raises(ParameterError):
            Graph(2, (0b10, 0b00))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ParameterError):
            Graph(2, (0b100, 0b000))

    def test_rejects_oversize(self):
        with pytest.raises(ParameterError):
            Graph.empty(513)

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ParameterError, match="expected 3 adjacency rows, got 2"):
            Graph(3, (0, 0))

    # the vertex count is checked before any row is built: -1 used to fail
    # on a negative shift in complete
    @pytest.mark.parametrize("n", [-1, 513])
    @pytest.mark.parametrize("build", [Graph.empty, Graph.complete, lambda n: Graph.from_edges(n, [])])
    def test_constructors_reject_vertex_count_outside_cap(self, build, n):
        with pytest.raises(ParameterError, match=f"vertex count {n} outside 0..512"):
            build(n)

    # empty and complete skip the row validation, so they must build exactly
    # the rows the validating constructor accepts
    @pytest.mark.parametrize("n", [0, 1, 2, 64, 512])
    def test_empty_and_complete_equal_validated_graphs(self, n):
        full = (1 << n) - 1
        assert Graph.complete(n) == Graph(n, tuple(full ^ (1 << v) for v in range(n)))
        assert Graph.empty(n) == Graph(n, (0,) * n)

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
        # against the relabeled edge list, across both sides of 64 bits and
        # up to the vertex cap, from no edges to all of them
        for n in (0, 1, 2, 8, 63, 64, 65, 128, 512):
            for p in (0, 0.1, 0.5, 1):
                g = random_graph(n, 3100 + n, p=p)
                perm = random_permutation(n, 3200 + n)
                expected = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
                assert g.relabel(perm) == expected, (n, p)
                assert g.relabel(range(n)) == g

    @pytest.mark.parametrize("u, v", [(0, 3), (0, -1), (-1, 0)])
    def test_with_edge_rejects_out_of_range_vertices(self, u, v):
        with pytest.raises(ParameterError, match="outside vertex range"):
            Graph.empty(3).with_edge(u, v)
        with pytest.raises(ParameterError, match="outside vertex range"):
            Graph.from_edges(3, [(0, 1), (u, v)])


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

    @pytest.mark.parametrize("n, q", [(0, 0), (1, 1), (40, 3), (512, 0), (512, 3), (512, 512)])
    def test_rows(self, n, q):
        # each clique vertex is adjacent to all others, each other vertex to the clique part
        full = (1 << n) - 1
        rows = tuple(full ^ (1 << v) if v < q else (1 << q) - 1 for v in range(n))
        assert make_split(n, q).rows == rows

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

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 11, 62, 63, 100, 512])
    def test_decode_cross_checked_against_networkx(self, n):
        for seed in range(3):
            g = random_graph(n, seed + 100 * n, p=(seed + 1) / 4)
            nxg = nx.empty_graph(n)
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
        with pytest.raises(Graph6Error, match="sizes above 258047") as exc:
            from_graph6(b"~~??????")  # the 8-byte size header
        assert exc.value.offset == 0
        with pytest.raises(Graph6Error, match="size byte 62 outside") as exc:
            from_graph6(b"~?>?")  # a long-form size byte below 63
        assert exc.value.offset == 2

    def test_decode_rejects_oversize(self):
        # long-form header declaring n=4032, above the 512-vertex cap
        with pytest.raises(Graph6Error):
            from_graph6(b"~?~?" + b"?" * 10)

    # n = 9: 36 payload bits, 6 bytes at offsets 1..6, no padding
    @pytest.mark.parametrize("bad", [62, 127])
    @pytest.mark.parametrize("offset", [1, 3, 6])
    def test_decode_payload_byte_out_of_range_offsets(self, bad, offset):
        data = bytearray(to_graph6(random_graph(9, 5)))
        data[offset] = bad
        with pytest.raises(Graph6Error) as exc:
            from_graph6(bytes(data))
        assert exc.value.offset == offset
        assert str(exc.value) == f"payload byte {bad} outside graph6 range (byte offset {offset})"

    # C(n,2) mod 6 is 1 at n = 2 and 62, 3 at n = 3 and 63, 4 at n = 5 and
    # 65: 5, 3 and 2 padding bits in the last byte, under both header forms
    @pytest.mark.parametrize("n", [2, 3, 5, 62, 63, 65])
    def test_decode_nonzero_padding_offset(self, n):
        data = bytearray(to_graph6(random_graph(n, n)))
        pad = -(n * (n - 1) // 2) % 6
        assert pad
        data[-1] += 1 << (pad - 1)  # the highest padding bit; the byte stays in range
        with pytest.raises(Graph6Error) as exc:
            from_graph6(bytes(data))
        assert exc.value.offset == len(data) - 1
        assert str(exc.value) == f"nonzero padding bits (byte offset {len(data) - 1})"

    def test_decode_outcomes_pinned(self):
        # rows or (message, offset) over a seeded corpus of mutated graph6
        # strings; the digest was taken with the per-bit reference decoder
        lines = []
        for data in _mutated_graph6_corpus(720, seed=2024):
            try:
                g = from_graph6(data)
            except Graph6Error as exc:
                lines.append(f"{data!r} error {exc} | {exc.offset}")
            else:
                lines.append(f"{data!r} ok {g.n} {[hex(r) for r in g.rows]}")
        errors = sum(" error " in line for line in lines)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (errors, digest) == (DECODE_ERRORS, DECODE_DIGEST)


DECODE_ERRORS = 494
DECODE_DIGEST = "e88c1485bc9fd40b2538400ecd459b5bb309f164232036ee75ff13c8f22f6339"


def _mutated_graph6_corpus(count: int, seed: int) -> list[bytes]:
    """Seeded graph6 strings: valid ones and single mutations of them.

    Sizes cover every padding residue and both header forms; mutations
    replace a byte (header or payload) with any value, set a payload byte
    to 62 or 127, flip one bit of the last group, truncate or extend.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.choice([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 17, 62, 63, 64, 100])
        data = bytearray(to_graph6(random_graph(n, rng.randrange(1 << 30), p=rng.random())))
        kind = i % 6
        if kind == 1:
            data[rng.randrange(len(data))] = rng.randrange(256)
        elif kind == 2 and len(data) > 1:
            data[rng.randrange(1, len(data))] = rng.choice([62, 127])
        elif kind == 3:
            data[-1] = ((data[-1] - 63) ^ (1 << rng.randrange(6))) + 63
        elif kind == 4:
            del data[rng.randrange(len(data)) :]
        elif kind == 5:
            data += bytes(rng.randrange(63, 127) for _ in range(rng.randint(1, 3)))
        out.append(bytes(data))
    return out


class TestUncheckedConstruction:
    """Graphs built without row checks must pass them anyway."""

    @staticmethod
    def _revalidates(g):
        assert Graph(g.n, g.rows) == g

    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_random_saturated(self, s):
        for n in range(32, 65, 8):
            self._revalidates(random_saturated(n, s, seed=n * s))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 63, 130])
    def test_from_graph6(self, n):
        for seed in range(3):
            self._revalidates(from_graph6(to_graph6(random_graph(n, seed, p=(seed + 1) / 4))))

    def test_derived_graphs(self):
        g, h = random_graph(9, 1), random_graph(6, 2)
        self._revalidates(g.relabel([4, 0, 8, 2, 6, 1, 3, 7, 5]))
        self._revalidates(g.complement())
        self._revalidates(g.with_edge(2, 7))
        self._revalidates(join(g, h))
        for n, q in [(0, 0), (1, 1), (7, 0), (7, 3), (7, 7)]:
            self._revalidates(make_split(n, q))

    def test_nonisomorphic_graphs(self):
        classes = nonisomorphic_graphs(6)
        assert len(classes) == 156
        for g in classes:
            self._revalidates(g)

    def test_vertex_cap_still_checked(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(513, [])
        with pytest.raises(ParameterError):
            make_split(513, 1)
        with pytest.raises(ParameterError):
            join(Graph.empty(256), Graph.empty(257))
        with pytest.raises(ParameterError):
            random_saturated(513, 3, seed=1)


class TestTriangleBits:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 31, 64, 128, 512])
    def test_matches_bitwise_reference_key(self, n):
        rng = random.Random(6100 + n)
        for trial in range(3):
            g = random_graph(n, rng.randrange(10**6), p=(0.1, 0.4, 0.8)[trial])
            strings = _row_strings(n, g.rows)
            for _ in range(2):
                lab = random_permutation(n, rng.randrange(10**6))
                bits = _triangle_bits(strings, lab)
                assert len(bits) == n * (n - 1) // 2
                assert set(bits) <= {"0", "1"}
                assert int(bits or "0", 2) == reference_triangle_key(g.rows, lab)
                # the prefix prune relies on prefix keys being leading characters
                for t in {0, 1, 2, n // 2, n - 1, rng.randint(0, n)}:
                    if 0 <= t <= n:
                        prefix = _triangle_bits(strings, lab[:t])
                        assert prefix == bits[: t * (t - 1) // 2]
                        assert int(prefix or "0", 2) == reference_triangle_key(g.rows, lab[:t])


STRIDE_SIZES = [0, 1, 2, 3, 5, 8, 31, 62, 63, 64, 100, 128, 512]


class TestTriangleStrides:
    """The strided-slice readers of the triangle against the per-character ones they replaced."""

    @pytest.mark.parametrize("n", STRIDE_SIZES)
    def test_row_strings_share_one_length(self, n):
        g = random_graph(n, 7100 + n, p=0.3)
        assert {len(row) for row in _row_strings(n, g.rows)} <= {n + 3}

    @pytest.mark.parametrize("n", STRIDE_SIZES)
    def test_triangle_bits_match_per_bit_reference(self, n):
        rng = random.Random(7200 + n)
        for p in (0.1, 0.5, 0.9):
            g = random_graph(n, rng.randrange(10**6), p=p)
            strings = _row_strings(n, g.rows)
            for lab in (list(range(n)), random_permutation(n, rng.randrange(10**6))):
                for t in {0, 1, 2, n // 2, n - 1, n}:
                    if 0 <= t <= n:
                        assert _triangle_bits(strings, lab[:t]) == reference_triangle_bits(strings, lab[:t])

    @pytest.mark.parametrize("n", STRIDE_SIZES)
    def test_triangle_rows_match_zip_transpose(self, n):
        rng = random.Random(7300 + n)
        nbits = n * (n - 1) // 2
        for p in (0.1, 0.5, 0.9):
            bits = "".join("1" if rng.random() < p else "0" for _ in range(nbits))
            assert _triangle_rows(n, bits) == reference_triangle_rows(n, bits)
        # and the two strided readers invert each other on the identity labeling
        g = random_graph(n, rng.randrange(10**6))
        assert _triangle_rows(n, _triangle_bits(_row_strings(n, g.rows), list(range(n)))) == list(g.rows)
