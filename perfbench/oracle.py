"""Reference computations the benchmark checks satlab's outputs against.

Nothing here imports satlab.  Graphs are adjacency sets, built either from
the benchmark's own edge lists or from graph6 bytes decoded by networkx, and
every count is a brute-force enumeration or a textbook identity.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import networkx as nx

def sets_from_edges(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def sets_from_graph6(data: bytes) -> list[set[int]]:
    """Decode graph6 bytes with networkx's codec."""
    g = nx.from_graph6_bytes(data.strip())
    return sets_from_edges(g.number_of_nodes(), g.edges())


def edges_of(adj: list[set[int]]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]


def to_graph6(adj: list[set[int]]) -> bytes:
    """graph6 bytes (no header, no newline): the size, then the upper
    triangle column by column, six bits to a byte offset by 63."""
    n = len(adj)
    out = bytearray([n + 63] if n <= 62 else [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    bits = [u in adj[v] for v in range(1, n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        out.append(63 + sum(bit << (5 - j) for j, bit in enumerate(bits[i : i + 6])))
    return bytes(out)


def to_graph6_networkx(adj: list[set[int]]) -> bytes:
    """The same bytes from networkx's encoder."""
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from(edges_of(adj))
    return nx.to_graph6_bytes(g, header=False).strip()


def isomorphic(a: list[set[int]], b: list[set[int]]) -> bool:
    ga, gb = nx.Graph(), nx.Graph()
    ga.add_nodes_from(range(len(a)))
    ga.add_edges_from(edges_of(a))
    gb.add_nodes_from(range(len(b)))
    gb.add_edges_from(edges_of(b))
    return nx.is_isomorphic(ga, gb)


def invariants(adj: list[set[int]]) -> tuple:
    degrees = sorted(len(nb) for nb in adj)
    return len(adj), sum(degrees) // 2, tuple(degrees)


def relabel(adj: list[set[int]], perm: list[int]) -> list[set[int]]:
    """Old vertex v becomes perm[v]."""
    out = [set() for _ in adj]
    for v, nb in enumerate(adj):
        out[perm[v]] = {perm[u] for u in nb}
    return out


# -- constructions ----------------------------------------------------------


def split_graph(n: int, q: int) -> list[set[int]]:
    """S_{n,q}: a q-clique joined to an independent set of n - q vertices."""
    return sets_from_edges(n, [(u, v) for u in range(q) for v in range(u + 1, n)])


def star(n: int) -> list[set[int]]:
    return split_graph(n, 1)


def perfect_matching(n: int) -> list[set[int]]:
    return sets_from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])


def disjoint_cliques(n: int, size: int) -> list[set[int]]:
    edges = []
    for base in range(0, n, size):
        block = range(base, min(base + size, n))
        edges += combinations(block, 2)
    return sets_from_edges(n, edges)


def gnp(n: int, p: float, rng: random.Random) -> list[set[int]]:
    return sets_from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def greedy_saturated(n: int, s: int, rng: random.Random) -> list[set[int]]:
    """A maximal K_s-free graph: visit pairs in random order, add each edge
    unless the endpoints' common neighbourhood already holds a K_{s-2}."""
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    rows = [0] * n
    for u, v in pairs:
        if not _has_clique_bits(rows, rows[u] & rows[v], s - 2):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return [{w for w in range(n) if (rows[v] >> w) & 1} for v in range(n)]


def _has_clique_bits(rows: list[int], cand: int, size: int) -> bool:
    """has_clique on bitmask rows; only the input generator uses it."""
    if size <= 0:
        return True
    while cand.bit_count() >= size:
        low = cand & -cand
        cand ^= low
        if _has_clique_bits(rows, cand & rows[low.bit_length() - 1], size - 1):
            return True
    return False


# -- properties and counts ---------------------------------------------------


def has_clique(adj: list[set[int]], cand: set[int], size: int) -> bool:
    """Does the vertex set cand contain a clique on size vertices?"""
    if size <= 0:
        return True
    if len(cand) < size:
        return False
    rest = set(cand)
    for v in sorted(cand):
        rest.discard(v)
        if has_clique(adj, rest & adj[v], size - 1):
            return True
        if len(rest) < size:
            return False
    return False


def saturation_failures(adj: list[set[int]], s: int) -> int:
    """Non-edges whose addition closes no K_s."""
    n = len(adj)
    return sum(
        1
        for u, v in combinations(range(n), 2)
        if v not in adj[u] and not has_clique(adj, adj[u] & adj[v], s - 2)
    )


def is_saturated(adj: list[set[int]], s: int) -> bool:
    """K_s-free, and every non-edge closes a K_s."""
    return not has_clique(adj, set(range(len(adj))), s) and saturation_failures(adj, s) == 0


def count_matchings_brute(adj: list[set[int]], k: int) -> int:
    return sum(
        1
        for choice in combinations(edges_of(adj), k)
        if len({v for e in choice for v in e}) == 2 * k
    )


def m2_by_degrees(adj: list[set[int]]) -> int:
    """Two-edge matchings: pairs of edges minus pairs sharing a vertex."""
    m = sum(len(nb) for nb in adj) // 2
    return comb(m, 2) - sum(comb(len(nb), 2) for nb in adj)


def m3_by_edges(adj: list[set[int]]) -> int:
    """Three-edge matchings: each is counted once per edge, with the other
    two edges a 2-matching of G - u - v."""
    m = sum(len(nb) for nb in adj) // 2
    total = 0
    for u, v in edges_of(adj):
        nu, nv = adj[u], adj[v]
        m_rest = m - len(nu) - len(nv) + 1
        pairs_sharing = 0
        for w, nb in enumerate(adj):
            if w != u and w != v:
                pairs_sharing += comb(len(nb) - (w in nu) - (w in nv), 2)
        total += comb(m_rest, 2) - pairs_sharing
    assert total % 3 == 0
    return total // 3


def sat_edges(n: int, s: int) -> int:
    """Edge count of S_{n,s-2}: (s-2)(n-s+2) + C(s-2,2)."""
    return (s - 2) * (n - s + 2) + comb(s - 2, 2)
