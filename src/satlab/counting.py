"""Exact counts of matchings, cliques, and independent sets.

Counts are Python ints, so they are exact at any magnitude; there is no
overflow path.  A copy is a set of k pairwise-disjoint edges (matching),
an r-subset of vertices inducing a complete graph (clique), or an
l-subset with no internal edge (independent set) — each counted once as a
subset, never per labeling.

Matchings with k = 2 or 3 edges and independent sets with l = 2 or 3
vertices take closed forms in the edge count m, the degrees d_v and the
triangle count t: one pass over the degrees and one bitset AND per edge.
M_3 and I_3 share that edge pass, ``_edge_sums``: it returns both sums M_3
needs, the degree products and the common neighborhoods that give t, and
I_3 reads t from the second.
Other sizes take the general paths below, which the tests also use as
references for the closed forms.

The general matching counter scans vertices in degree-ascending order
and, at each step, either leaves the current vertex unmatched or pairs it
with a remaining neighbor.  It scans the graph in place, carrying its
position in the degree order alongside the bitmask of remaining vertices.
Subproblems are keyed by that bitmask and memoized; on graphs whose
low-degree vertices have small joint neighborhoods (stars, split graphs,
sparse saturated graphs) the state space collapses and counts that would
be astronomically expensive to enumerate copy-by-copy come out in
milliseconds.  The general independent-set counter recurses over
non-neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import networkx as nx

from .errors import ParameterError
from .graphs import Graph

MOTIF_KINDS = ("matching", "clique", "indepset")


@dataclass(frozen=True)
class MotifSpec:
    """Which pattern to count: matching(k), clique(r), or indepset(l)."""

    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in MOTIF_KINDS:
            raise ParameterError(f"unknown motif kind {self.kind!r}")
        if self.size < 1:
            raise ParameterError("motif size must be at least 1")

    def __str__(self) -> str:
        return f"{self.kind}:{self.size}"


def count_motif(g: Graph, motif: MotifSpec) -> int:
    if motif.kind == "matching":
        return count_matchings(g, motif.size)
    if motif.kind == "clique":
        return count_cliques(g, motif.size)
    return count_indep_sets(g, motif.size)


def count_matchings(g: Graph, k: int) -> int:
    """Number of sets of k pairwise-disjoint edges."""
    if k < 0:
        raise ParameterError("matching size must be nonnegative")
    # the closed forms are exact at every n; the DP returns 1 at k = 0 and 0
    # when fewer than 2k vertices remain
    if k == 2:
        return count_m2_via_degrees(g)
    if k == 3:
        return _count_m3(g)
    return _count_matchings_dp(g, k)


def _count_matchings_dp(g: Graph, k: int) -> int:
    """k-matchings by the memoized degree-ordered vertex scan, any k >= 0."""
    n = g.n
    # position i of the scan is vertex order[i]: its bit and its row, in the
    # graph's own labels.  Every position before pos is already gone, so the
    # pivot is the first active one from pos on; active alone decides it, as
    # it decides the count, so pos stays out of the memo key
    order = sorted(range(n), key=lambda v: (g.rows[v].bit_count(), v))
    bits = [1 << v for v in order]
    rows = [g.rows[v] for v in order]

    memo: dict[int, int] = {}

    def rec(active: int, need: int, pos: int) -> int:
        if need == 0:
            return 1
        if active.bit_count() < 2 * need:
            return 0
        key = (active << 9) | need
        hit = memo.get(key)
        if hit is not None:
            return hit
        while not active & bits[pos]:
            pos += 1
        rest = active ^ bits[pos]
        nb = rows[pos] & rest
        pos += 1
        total = rec(rest, need, pos)
        while nb:
            low = nb & -nb
            nb ^= low
            total += rec(rest ^ low, need - 1, pos)
        memo[key] = total
        return total

    return rec((1 << n) - 1, k, 0)


def count_m2_via_degrees(g: Graph) -> int:
    """Two-edge matchings via the degree identity (m^2 + m - sum d(v)^2) / 2.

    Of the C(m,2) edge pairs, sum C(d_v,2) meet at a vertex (two distinct
    edges share at most one), and C(m,2) - sum C(d_v,2) rearranges to this.
    """
    m = g.edge_count
    dsq = sum(r.bit_count() ** 2 for r in g.rows)
    value = m * m + m - dsq
    assert value % 2 == 0 and value >= 0
    return value // 2


def _count_m3(g: Graph) -> int:
    """Three-edge matchings, C(m,3) - (m-2) sum C(d_v,2)
    + sum_{uv in E} (d_u-1)(d_v-1) + 2 sum C(d_v,3) - t.

    If j of an edge triple's three pairs meet, inclusion-exclusion gives
    C(m,3) - sum j + sum C(j,2) - sum C(j,3) over all triples: sum j =
    (m-2) sum C(d_v,2); sum C(j,2) counts a middle edge with two edges
    meeting it, sum_{uv in E} C(d_u+d_v-2, 2) = sum_{uv in E}
    (d_u-1)(d_v-1) + 3 sum C(d_v,3); sum C(j,3) counts the triples whose
    pairs all meet, the triangles and 3-stars, t + sum C(d_v,3).
    """
    deg = [r.bit_count() for r in g.rows]
    m = sum(deg) // 2
    edge_term, common = _edge_sums(g.rows, deg)
    paths = sum(comb(d, 2) for d in deg)
    stars = sum(comb(d, 3) for d in deg)
    value = comb(m, 3) - (m - 2) * paths + edge_term + 2 * stars - common // 3
    assert value >= 0
    return value


def _edge_sums(rows: tuple[int, ...], deg: list[int]) -> tuple[int, int]:
    """One pass over the edges: sum_{uv in E} (d_u-1)(d_v-1) and
    sum_{uv in E} |N(u) & N(v)|, which is 3t, as each triangle is seen
    from its three edges."""
    edge_term = 0
    common = 0
    for v, row in enumerate(rows):
        r = row >> (v + 1) << (v + 1)
        while r:
            low = r & -r
            r ^= low
            u = low.bit_length() - 1
            edge_term += (deg[v] - 1) * (deg[u] - 1)
            common += (row & rows[u]).bit_count()
    return edge_term, common


def count_cliques(g: Graph, r: int) -> int:
    """Number of r-vertex subsets inducing a complete graph."""
    if r < 1:
        raise ParameterError("clique size must be at least 1")
    rows = g.rows

    def rec(cand: int, need: int) -> int:
        if need == 0:
            return 1
        total = 0
        while cand:
            if cand.bit_count() < need:
                break
            low = cand & -cand
            cand ^= low
            total += rec(cand & rows[low.bit_length() - 1], need - 1)
        return total

    return rec((1 << g.n) - 1, r)


def count_indep_sets(g: Graph, l: int) -> int:
    """Number of l-vertex subsets with no internal edge."""
    if l < 1:
        raise ParameterError("independent set size must be at least 1")
    if l == 2:
        # every vertex pair is an edge or an independent pair
        return comb(g.n, 2) - g.edge_count
    if l == 3:
        return _count_i3(g)
    return _count_indep_sets_rec(g, l)


def _count_i3(g: Graph) -> int:
    """Independent triples (Goodman 1959): C(n,3) - sum d_v(n-1-d_v)/2 - t.

    A vertex triple spanning one or two edges has exactly two vertices
    with one neighbor and one non-neighbor in it, so sum d_v(n-1-d_v)
    counts those triples twice and no others; of the rest, t are triangles.
    """
    n = g.n
    deg = [r.bit_count() for r in g.rows]
    mixed = sum(d * (n - 1 - d) for d in deg)
    common = _edge_sums(g.rows, deg)[1]
    return comb(n, 3) - mixed // 2 - common // 3


def _count_indep_sets_rec(g: Graph, l: int) -> int:
    """Independent l-sets, any l >= 0, by recursion over non-neighborhoods.

    Counted directly rather than through the complement graph, so the
    complement-duality identity stays a real cross-check.
    """
    rows = g.rows

    def rec(cand: int, need: int) -> int:
        if need == 0:
            return 1
        total = 0
        while cand:
            if cand.bit_count() < need:
                break
            low = cand & -cand
            cand ^= low
            total += rec(cand & ~rows[low.bit_length() - 1], need - 1)
        return total

    return rec((1 << g.n) - 1, l)


def matching_number(g: Graph) -> int:
    """Size of a maximum matching (exact, via blossom augmentation)."""
    if g.edge_count == 0:
        return 0
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return len(nx.max_weight_matching(h, maxcardinality=True))
