"""Independent brute-force references for the test suite.

Everything here works from edge/vertex lists with itertools, deliberately
sharing no algorithmic machinery with the package: subset enumeration for
counts, definition-chasing for saturation, permutation search for
isomorphism.  Slow on purpose.  The four exceptions are former package
code, kept as references their replacements must reproduce exactly:
``reference_refine``, the all-cells refinement,
``reference_triangle_key``, the leaf key built one bit at a time,
``reference_saturation_report``, one clique search per non-edge, and
``schreier_sims_order``, the group order from the search's generators.
"""

from __future__ import annotations

import random
from itertools import combinations, count, permutations
from math import prod

from satlab import Graph, contains_clique, creates_clique_on_addition


def random_graph(n: int, seed: int, p: float = 0.5) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_graph_with_m_edges(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, rng.sample(pairs, m))


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices, one per upper-triangle bitmask."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        )


def naive_count_matchings(g: Graph, k: int) -> int:
    """Literal enumeration of k-subsets of the edge list."""
    if k == 0:
        return 1
    edges = list(g.edges())
    count = 0
    for subset in combinations(edges, k):
        used = set()
        ok = True
        for u, v in subset:
            if u in used or v in used:
                ok = False
                break
            used.add(u)
            used.add(v)
        if ok:
            count += 1
    return count


def pruned_count_matchings(g: Graph, k: int) -> int:
    """Same subset enumeration, skipping supersets of any clashing pair."""
    if k == 0:
        return 1
    edges = list(g.edges())

    def extend(start: int, used: int, left: int) -> int:
        if left == 0:
            return 1
        total = 0
        for i in range(start, len(edges) - left + 1):
            u, v = edges[i]
            mask = (1 << u) | (1 << v)
            if used & mask:
                continue
            total += extend(i + 1, used | mask, left - 1)
        return total

    return extend(0, 0, k)


def edge_recursion_count_matchings(g: Graph, k: int, pivot: str = "first") -> int:
    """Deletion recursion: N_k(G) = N_k(G - e) + N_{k-1}(G - u - v)."""
    rng = random.Random(12345)

    def pick(edges: tuple) -> int:
        if pivot == "first":
            return 0
        if pivot == "last":
            return len(edges) - 1
        if pivot == "middle":
            return len(edges) // 2
        return rng.randrange(len(edges))

    def rec(edges: tuple, need: int) -> int:
        if need == 0:
            return 1
        if len(edges) < need:
            return 0
        i = pick(edges)
        u, v = edges[i]
        without = edges[:i] + edges[i + 1 :]
        shrunk = tuple(e for e in without if u not in e and v not in e)
        return rec(without, need) + rec(shrunk, need - 1)

    return rec(tuple(g.edges()), k)


def naive_count_cliques(g: Graph, r: int) -> int:
    return sum(
        1
        for vs in combinations(range(g.n), r)
        if all(g.has_edge(u, v) for u, v in combinations(vs, 2))
    )


def naive_count_indep_sets(g: Graph, l: int) -> int:
    return sum(
        1
        for vs in combinations(range(g.n), l)
        if not any(g.has_edge(u, v) for u, v in combinations(vs, 2))
    )


def naive_contains_clique(g: Graph, s: int) -> bool:
    return any(
        all(g.has_edge(u, v) for u, v in combinations(vs, 2))
        for vs in combinations(range(g.n), s)
    )


def naive_is_saturated(g: Graph, s: int) -> bool:
    """Definition chase: K_s-free and every added edge creates a K_s."""
    if naive_contains_clique(g, s):
        return False
    for u, v in g.non_edges():
        if not naive_contains_clique(g.with_edge(u, v), s):
            return False
    return True


def brute_certificate(g: Graph) -> tuple:
    """Lexicographically smallest adjacency table over all n! relabelings."""
    best = None
    for perm in permutations(range(g.n)):
        table = tuple(
            1 if g.has_edge(perm[i], perm[j]) else 0
            for j in range(g.n)
            for i in range(j)
        )
        if best is None or table < best:
            best = table
    return best


def brute_automorphism_count(g: Graph) -> int:
    """Number of the n! vertex permutations that map the edge set onto itself."""
    pairs = list(g.edges())
    edges = {frozenset(e) for e in pairs}
    return sum(
        1
        for perm in permutations(range(g.n))
        if all(frozenset((perm[u], perm[v])) in edges for u, v in pairs)
    )


def reference_refine(
    rows: tuple[int, ...], cells: list[list[int]], splits: list | None = None
) -> list[list[int]]:
    """Equitable ordered partition, counting into every cell on every pass.

    The package's refinement as it was before it counted only into the
    cells the previous pass created: split each cell by its vertices'
    adjacency counts into all current cells, order the pieces by those
    count vectors, and repeat until no cell splits.  If splits is given,
    each split appends (pass number from 0, number of pieces) to it.
    """
    for pass_number in count():
        masks = [sum(1 << v for v in cell) for cell in cells]
        new_cells = []
        for cell in cells:
            buckets = {}
            for v in cell:
                key = tuple((rows[v] & m).bit_count() for m in masks)
                buckets.setdefault(key, []).append(v)
            new_cells += [buckets[key] for key in sorted(buckets)]
            if splits is not None and len(buckets) > 1:
                splits.append((pass_number, len(buckets)))
        if len(new_cells) == len(cells):
            return new_cells
        cells = new_cells


def reference_triangle_key(rows: tuple[int, ...], lab: list[int]) -> int:
    """The upper triangle of rows relabeled so that position i holds vertex lab[i].

    Bits run in graph6 payload order, column-major with x_{0,1} most
    significant; built one bit at a time.  The package's leaf key as it was
    before keys became '0'/'1' strings.
    """
    key = 0
    for j in range(1, len(lab)):
        col = rows[lab[j]]
        bits = 0
        for v in lab[:j]:
            bits = (bits << 1) | ((col >> v) & 1)
        key = (key << j) | bits
    return key


def reference_triangle_bits(row_strings: list[str], lab: list[int]) -> str:
    """The package's ``_triangle_bits`` as it was before it read columns as strided slices.

    One character per bit: column j reads row lab[j] at the labels lab[:j].
    """
    return "".join([row[u] for j, row in enumerate(map(row_strings.__getitem__, lab)) for u in lab[:j]])


def reference_triangle_rows(n: int, bits: str) -> list[int]:
    """The rows ``from_graph6`` built from the payload bits before the strided transpose.

    Zips the zero-filled columns into n tuples of n characters.
    """
    # column j, x_{0,j} first, holds the low j bits of rows[j] in reverse;
    # zero-filled to n and transposed, the columns give each row's upper half
    cols = [bits[j * (j - 1) // 2 : j * (j + 1) // 2] for j in range(n)]
    uppers = zip(*[col.ljust(n, "0") for col in cols])
    rows = [int((col + "".join(up)[v:])[::-1], 2) for v, (col, up) in enumerate(zip(cols, uppers))]
    return rows


def schreier_sims_order(n: int, gens: list[tuple[int, ...]]) -> int:
    """Order of the permutation group on range(n) generated by gens.

    Knuth's incremental Schreier–Sims ("Efficient representation of perm
    groups", Combinatorica 11, 1991), with base 0, 1, ..., n-1.  Level k
    holds generators strong[k] of G_k, the stabilizer of 0..k-1, and
    coset representatives reps[k][j] mapping k to j, so that
    |G| = prod_k |reps[k]|.  Permutations compose left to right:
    (a*b)[x] = b[a[x]].  Work items run from a stack: ("add", k, t) puts t
    into G_k unless it already sifts through levels k.., and ("rep", k, t)
    gives t's coset a representative or sifts the Schreier generator
    t * reps[k][t[k]]^-1 into level k+1.
    """
    identity = tuple(range(n))
    reps = [{k: (identity, identity)} for k in range(n)]
    strong: list[list[tuple[int, ...]]] = [[] for _ in range(n)]

    def sifts(k: int, t: tuple[int, ...]) -> bool:
        for level in range(k, n):
            j = t[level]
            if j != level:
                rep = reps[level].get(j)
                if rep is None:
                    return False
                inv = rep[1]
                t = tuple(inv[x] for x in t)
        return True

    work = [("add", 0, gen) for gen in reversed(gens)]
    while work:
        kind, k, t = work.pop()
        if kind == "add":
            if not sifts(k, t):
                strong[k].append(t)
                work += [("rep", k, tuple(t[x] for x in u)) for u, _ in reps[k].values()]
            continue
        j = t[k]
        rep = reps[k].get(j)
        if rep is None:
            inv = [0] * n
            for x, y in enumerate(t):
                inv[y] = x
            reps[k][j] = (t, tuple(inv))
            work += [("rep", k, tuple(s[x] for x in t)) for s in strong[k]]
        else:
            residue = tuple(rep[1][x] for x in t)
            if residue != identity:
                work.append(("add", k + 1, residue))
    return prod(len(level) for level in reps)


def random_cubic(n: int, seed: int) -> list[tuple[int, int]]:
    """Edges uv, u < v, of a connected simple cubic graph on n vertices (n even).

    The configuration model: shuffle three points per vertex and pair them
    up in order, redrawing until the pairs hold no loop, no repeated edge
    and one component.
    """
    rng = random.Random(seed)
    points = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) < 3 * n // 2 or any(u == v for u, v in edges):
            continue
        reached, stack = {0}, [0]
        while stack:
            u = stack.pop()
            for e in edges:
                if u in e:
                    w = e[0] + e[1] - u
                    if w not in reached:
                        reached.add(w)
                        stack.append(w)
        if len(reached) == n:
            return sorted(edges)


def cfi(base_edges: list[tuple[int, int]], twist_edge: tuple[int, int] | None) -> Graph:
    """The Cai–Fürer–Immerman graph of a base graph, untwisted or twisted on one edge.

    A base vertex v with edges E_v becomes one middle vertex per even-size
    subset S of E_v and two end vertices (v, e, 0) and (v, e, 1) per edge e
    in E_v; the middle vertex of S is joined to (v, e, 1) for e in S and to
    (v, e, 0) for the other e.  A base edge e = uv joins (u, e, i) to
    (v, e, i), or to (v, e, 1 - i) when e is the twisted edge.  On a
    connected base, twisting any one edge gives one graph up to
    isomorphism, and not the untwisted one (Cai, Fürer & Immerman 1992,
    Combinatorica 12).  On a cubic base on N vertices both are cubic graphs
    on 10N vertices, so colour refinement leaves each as one cell.
    Vertices are numbered in order of first use.
    """
    base_edges = [tuple(sorted(e)) for e in base_edges]
    twist = None if twist_edge is None else tuple(sorted(twist_edge))
    assert twist is None or twist in base_edges
    incident: dict[int, list[tuple[int, int]]] = {}
    for e in base_edges:
        for v in e:
            incident.setdefault(v, []).append(e)
    ids: dict[tuple, int] = {}

    def vertex(key: tuple) -> int:
        return ids.setdefault(key, len(ids))

    edges = []
    for v, es in sorted(incident.items()):
        for size in range(0, len(es) + 1, 2):
            for subset in combinations(es, size):
                middle = vertex(("middle", v, subset))
                edges += [(middle, vertex(("end", v, e, int(e in subset)))) for e in es]
    for e in base_edges:
        u, v = e
        for i in (0, 1):
            edges.append((vertex(("end", u, e, i)), vertex(("end", v, e, i ^ (e == twist)))))
    return Graph.from_edges(len(ids), edges)


def random_permutation(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def reference_saturation_report(g: Graph, s: int) -> dict:
    """``check_saturation(g, s).to_json_dict()`` by its definition: one
    ``creates_clique_on_addition`` test per non-edge, in lexicographic order."""
    is_free = not contains_clique(g, s)
    failures = [[u, v] for u, v in g.non_edges() if not creates_clique_on_addition(g, u, v, s)]
    return {
        "n": g.n,
        "s": s,
        "is_free": is_free,
        "missing_edge_failures": failures,
        "is_saturated": is_free and not failures,
        "vacuous": g.n < s or s == 2,
    }
