"""Bitset-backed simple graphs and the graph6 interchange format.

Vertices are the integers 0..n-1.  Adjacency is one Python int per vertex:
bit ``v`` of ``rows[u]`` is set exactly when uv is an edge.  Graphs are
immutable after construction; every operation returns a new object, so
instances are safe to share across threads.

The graph6 codec is bit-exact per the published format: an N(n) size
header followed by the upper-triangle bits in column-major order
(x_{0,1}, x_{0,2}, x_{1,2}, x_{0,3}, ...), zero-padded to 6-bit groups,
each group offset by 63 into printable ASCII.  Both directions go through
``binascii``'s base64 codec, which cuts bytes into 6-bit groups in the same
order: ``_pack_graph6`` packs the payload bits, given as a '0'/'1' string,
and ``from_graph6`` is its exact inverse.  The canonical search builds
those strings for each candidate labeling: ``_row_strings`` formats every
row once as a '0'/'1' string indexed by vertex, all of one length, and
``_triangle_bits`` reads the relabeled upper triangle from them in payload
order.  That pair, ``_triangle_bits`` and its inverse ``_triangle_rows``,
is the one way a labeling becomes payload bits or rows: ``to_graph6``
reads the triangle under the identity labeling, ``relabel`` reads it under
its labeling and decodes it, ``from_graph6`` decodes its payload bits, and
``canonical_form`` and the classes of ``canonical.nonisomorphic_graphs``
decode the search's best key.  Neither direction loops over bits in
Python.  By symmetry, column j of the triangle relabeled by lab,
x_{lab[i],lab[j]} for i < j, is character lab[j] of the rows
lab[0..j-1]: joined in label order into one string, those rows yield the
column as a single slice stepping by the row length.  The decoder's
``_triangle_rows`` zero-fills each column to n characters and joins them,
so the upper half of row v, x_{v,u} for u > v, is one slice stepping by
n.  This module keeps all knowledge of that bit order.

``Graph(n, rows)`` validates every row: no bits outside 0..n-1, no loops,
symmetric adjacency.  ``Graph._unchecked(n, rows)`` checks only n against
``MAX_VERTICES`` and the number of rows.  It is private to satlab and is
called only where the rows are valid by construction: ``empty`` and
``complete``, the graph6 decoder, ``with_edge`` (after its range check),
``complement``, ``relabel``, ``join``, ``search.random_saturated``,
``canonical.canonical_form`` and the decoded classes of
``canonical.nonisomorphic_graphs``.  Rows from anywhere else go through
``Graph``.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import Graph6Error, ParameterError

MAX_VERTICES = 512


def _check_vertex_count(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ParameterError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def _check_shape(n: int, rows: tuple[int, ...]) -> None:
    _check_vertex_count(n)
    if len(rows) != n:
        raise ParameterError(f"expected {n} adjacency rows, got {len(rows)}")


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices 0..n-1."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        _check_shape(self.n, self.rows)
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ParameterError(f"adjacency row {v} has bits outside 0..{self.n - 1}")
            if (row >> v) & 1:
                raise ParameterError(f"loop at vertex {v}")
        for v, row in enumerate(self.rows):
            r = row
            while r:
                low = r & -r
                u = low.bit_length() - 1
                r ^= low
                if not (self.rows[u] >> v) & 1:
                    raise ParameterError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def _unchecked(cls, n: int, rows: Iterable[int]) -> "Graph":
        """A graph from rows that are valid by construction.

        Checks n and the row count like the public constructor, but not the
        rows themselves (stray bits, loops, symmetry); see the module
        docstring for who may call it.
        """
        rows = tuple(rows)
        _check_shape(n, rows)
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    # -- construction -----------------------------------------------------

    # each constructor checks n before it builds n rows: a negative n would
    # otherwise fail on a negative shift, and one past the cap allocate first

    @classmethod
    def empty(cls, n: int) -> "Graph":
        _check_vertex_count(n)
        return cls._unchecked(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        _check_vertex_count(n)
        full = (1 << n) - 1
        return cls._unchecked(n, (full ^ (1 << v) for v in range(n)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_vertex_count(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ParameterError(f"loop edge at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    # -- queries ----------------------------------------------------------

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((r.bit_count() for r in self.rows), reverse=True))

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges uv with u < v, in lexicographic order."""
        for v, row in enumerate(self.rows):
            r = row >> (v + 1) << (v + 1)
            while r:
                low = r & -r
                r ^= low
                yield (v, low.bit_length() - 1)

    def non_edges(self) -> Iterator[tuple[int, int]]:
        """Missing edges uv with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not (self.rows[u] >> v) & 1:
                    yield (u, v)

    # -- derived graphs ---------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ParameterError(f"edge ({u},{v}) outside vertex range 0..{self.n - 1}")
        if u == v:
            raise ParameterError("cannot add a loop")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._unchecked(self.n, rows)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph._unchecked(self.n, (full ^ r ^ (1 << v) for v, r in enumerate(self.rows)))

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Relabel so that old vertex v becomes perm[v]."""
        p = tuple(perm)
        if sorted(p) != list(range(self.n)):
            raise ParameterError("relabeling is not a permutation of 0..n-1")
        # position perm[v] holds old vertex v
        lab = sorted(range(self.n), key=p.__getitem__)
        bits = _triangle_bits(_row_strings(self.n, self.rows), lab)
        return Graph._unchecked(self.n, _triangle_rows(self.n, bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def make_split(n: int, q: int) -> Graph:
    """Split graph S_{n,q}: the join of K_q and the empty graph on n-q vertices.

    Vertices 0..q-1 form the clique part and are adjacent to everything;
    vertices q..n-1 are pairwise non-adjacent.  The edge count is
    C(q,2) + q*(n-q).
    """
    if q < 0 or q > n:
        raise ParameterError(f"clique part size {q} outside 0..{n}")
    if n > MAX_VERTICES:
        raise ParameterError(f"vertex count {n} exceeds {MAX_VERTICES}")
    return join(Graph.complete(q), Graph.empty(n - q))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus all edges between the two parts."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ParameterError(f"join would have {n} > {MAX_VERTICES} vertices")
    h_mask = ((1 << h.n) - 1) << g.n
    g_mask = (1 << g.n) - 1
    rows = [r | h_mask for r in g.rows]
    rows += [(r << g.n) | g_mask for r in h.rows]
    return Graph._unchecked(n, rows)


# -- graph6 codec ----------------------------------------------------------


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    # 63 <= n <= 258047: marker byte then 18 bits in three 6-bit groups
    return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


def _decode_size(data: bytes) -> tuple[int, int]:
    """Return (n, header_length).  Rejects non-minimal encodings."""
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    b0 = data[0]
    if b0 == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("graph6 sizes above 258047 are not supported", 0)
        if len(data) < 4:
            raise Graph6Error("truncated graph6 size header", len(data))
        for i in (1, 2, 3):
            if not 63 <= data[i] <= 126:
                raise Graph6Error(f"size byte {data[i]} outside graph6 range", i)
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n <= 62:
            raise Graph6Error("non-minimal graph6 size header", 0)
        return n, 4
    if not 63 <= b0 <= 125:
        raise Graph6Error(f"invalid graph6 header byte {b0}", 0)
    return b0 - 63, 1


def _row_strings(n: int, rows: tuple[int, ...]) -> list[str]:
    """Each row as a '0'/'1' string indexed by vertex: s[u] is '1' exactly when uv is an edge.

    Every string has length n + 3: n bits, then the padding "1b0", which
    is never read as a bit but sets the stride ``_triangle_bits`` steps by.
    """
    # bin() of row | 1 << n, reversed, is n bits from bit 0 up, then "1b0"
    pad = 1 << n
    return [bin(row | pad)[::-1] for row in rows]


def _triangle_bits(row_strings: list[str], lab: list[int]) -> str:
    """The upper triangle of the graph relabeled so that position i holds vertex lab[i].

    A '0'/'1' string in graph6 payload order, column-major with x_{0,1}
    first, so a smaller string (of equal length) is a lexicographically
    smaller encoding and the bits of a label prefix lab[:t] are the leading
    C(t,2) characters.  Column j holds x_{lab[i],lab[j]} for i < j, which by
    symmetry is character lab[j] of row lab[i]: with the rows of lab joined
    in label order into one string of equal-length rows, that column is
    one slice stepping by the row length.
    """
    if not lab:
        return ""
    q = "".join(map(row_strings.__getitem__, lab))
    step = len(row_strings[lab[0]])
    return "".join([q[v : v + j * step : step] for j, v in enumerate(lab)])


def _triangle_rows(n: int, bits: str) -> list[int]:
    """Adjacency rows of the n-vertex graph whose upper triangle is bits (payload order).

    The inverse of ``_triangle_bits`` on the identity labeling.
    """
    # column j, x_{0,j} first, holds the low j bits of rows[j] in reverse.
    # Zero-filled to n characters, the columns joined make mat, with x_{u,v}
    # at mat[v*n + u] for u < v and zeros on and below the diagonal; row v
    # is its own column up to the diagonal, then x_{v,u} for u > v, which
    # is character v of every later column: one slice stepping by n
    mat = "".join([bits[j * (j - 1) // 2 : j * (j + 1) // 2].ljust(n, "0") for j in range(n)])
    return [int((mat[v * n : v * n + v + 1] + mat[v * n + n + v :: n])[::-1], 2) for v in range(n)]


# base64 cuts bytes into 6-bit groups most significant first, as graph6 does,
# but maps them through its alphabet where graph6 adds 63
_BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6_ALPHABET = bytes(range(63, 127))
_BASE64_TO_GRAPH6 = bytes.maketrans(_BASE64_ALPHABET, _GRAPH6_ALPHABET)
_GRAPH6_TO_BASE64 = bytes.maketrans(_GRAPH6_ALPHABET, _BASE64_ALPHABET)


def _pack_graph6(n: int, bits: str) -> bytes:
    """graph6 bytes of the n-vertex graph whose upper triangle is bits ('0'/'1', payload order)."""
    nbits = n * (n - 1) // 2
    groups = (nbits + 5) // 6
    blocks = (groups + 3) // 4
    # left-align the bits in whole 24-bit blocks (4 groups each); groups past
    # the last one that holds payload bits are cut off
    body = (int(bits or "0", 2) << (24 * blocks - nbits)).to_bytes(3 * blocks, "big")
    payload = binascii.b2a_base64(body, newline=False)[:groups]
    return _encode_size(n) + payload.translate(_BASE64_TO_GRAPH6)


def to_graph6(g: Graph) -> bytes:
    """Encode to graph6 bytes (no trailing newline, no '>>graph6<<' header)."""
    return _pack_graph6(g.n, _triangle_bits(_row_strings(g.n, g.rows), list(range(g.n))))


def from_graph6(data: bytes | str) -> Graph:
    """Decode graph6 bytes.  Raises Graph6Error with a byte offset on defects."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error("graph6 input is not ASCII", None) from exc
    n, pos = _decode_size(data)
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph size {n} exceeds the {MAX_VERTICES}-vertex cap", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"payload length {len(data) - pos} bytes, expected {nbytes} for n={n}",
            len(data),
        )
    payload = data[pos:]
    if payload.translate(None, _GRAPH6_ALPHABET):
        offset = next(i for i, byte in enumerate(payload) if not 63 <= byte <= 126)
        raise Graph6Error(f"payload byte {payload[offset]} outside graph6 range", pos + offset)
    # the inverse of _pack_graph6: back to base64, padded with zero groups
    # ("A") to whole 24-bit blocks, and read as one int whose leading nbits
    # bits are the payload bits
    b64 = payload.translate(_GRAPH6_TO_BASE64) + b"A" * (-nbytes % 4)
    slack = 6 * len(b64) - nbits
    body = int.from_bytes(binascii.a2b_base64(b64), "big")
    if body & ((1 << slack) - 1):
        raise Graph6Error("nonzero padding bits", len(data) - 1)
    return Graph._unchecked(n, _triangle_rows(n, format(body >> slack, f"0{nbits}b")))
