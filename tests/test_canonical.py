import hashlib
import random
from itertools import permutations
from math import comb, factorial

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from satlab import (
    Graph,
    ParameterError,
    are_isomorphic,
    automorphism_generators,
    automorphism_group_order,
    canonical_certificate,
    canonical_form,
    certificate_graph,
    from_graph6,
    join,
    make_split,
    nonisomorphic_graphs,
    to_graph6,
)
from satlab.canonical import _CanonicalSearch, _blocks, _refine, canonical_labeling
from oracles import (
    all_labeled_graphs,
    brute_automorphism_count,
    brute_certificate,
    cfi,
    random_cubic,
    random_graph,
    random_permutation,
    reference_refine,
)

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def perfect_matching(n: int) -> Graph:
    return Graph.from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])


def disjoint_cliques(n: int, c: int) -> Graph:
    """Cliques K_c on consecutive vertices; n mod c vertices are left over
    as a last, smaller clique."""
    blocks = [range(base, min(base + c, n)) for base in range(0, n, c)]
    return Graph.from_edges(n, [(u, v) for block in blocks for u in block for v in block if u < v])


def disjoint_triangles(n: int) -> Graph:
    return disjoint_cliques(n, 3)


def cocktail_party(n: int) -> Graph:
    """K_{2,...,2}: the complement of the perfect matching."""
    return perfect_matching(n).complement()


def disjoint_cycles(t: int, length: int) -> Graph:
    return Graph.from_edges(
        t * length, [(length * b + i, length * b + (i + 1) % length) for b in range(t) for i in range(length)]
    )


def networkx_canonical_graph6(g: Graph) -> bytes:
    """networkx's graph6 of g relabeled by its canonical labeling, made
    independently of the packed search key the certificate comes from."""
    pos = {v: i for i, v in enumerate(canonical_labeling(g))}
    nxg = nx.empty_graph(g.n)
    nxg.add_edges_from((pos[u], pos[v]) for u, v in g.edges())
    return nx.to_graph6_bytes(nxg, header=False).strip()


def test_certificate_invariant_under_explicit_relabeling():
    relabeled = C5.relabel([2, 4, 1, 3, 0])
    assert canonical_certificate(C5) == canonical_certificate(relabeled)


def test_path_and_triangle_differ():
    assert canonical_certificate(P3) != canonical_certificate(Graph.complete(3))
    assert not are_isomorphic(P3, Graph.complete(3))
    # equal n and m, degrees (2, 1, 1, 0) against (1, 1, 1, 1)
    assert not are_isomorphic(Graph.from_edges(4, [(0, 1), (1, 2)]), perfect_matching(4))


def test_unequal_vertex_or_edge_counts_are_not_isomorphic():
    # equal n, unequal m (P3 against K_3 is above)
    assert not are_isomorphic(C5, Graph.empty(5))
    # unequal n, with equal m and without
    assert not are_isomorphic(P3, Graph.from_edges(4, [(0, 1), (1, 2)]))
    assert not are_isomorphic(Graph.empty(3), Graph.empty(4))
    assert not are_isomorphic(Graph.empty(0), Graph.empty(1))


@pytest.mark.parametrize("n", range(2, 11))
def test_certificate_invariant_under_random_relabelings(n):
    for gseed in range(3):
        g = random_graph(n, 1000 * n + gseed)
        cert = canonical_certificate(g)
        for pseed in range(100):
            perm = random_permutation(n, 77 * n + pseed)
            assert canonical_certificate(g.relabel(perm)) == cert


def test_certificate_decodes_to_isomorphic_graph():
    for seed in range(10):
        g = random_graph(8, seed)
        cert = canonical_certificate(g)
        assert are_isomorphic(certificate_graph(cert), g)


def test_canonical_form_is_idempotent():
    graphs = [random_graph(7, seed + 40) for seed in range(10)]
    # both header forms of the certificate, and up to the vertex cap
    graphs += [random_graph(n, 4000 + n) for n in (0, 1, 2, 62, 63, 64, 128, 512)]
    for g in graphs:
        cf = canonical_form(g)
        assert canonical_form(cf) == cf
        assert to_graph6(cf) == canonical_certificate(g).data
        assert cf == certificate_graph(canonical_certificate(g))


def test_certificates_agree_with_brute_force_classification():
    # brute_certificate minimizes over all n! relabelings, sharing nothing
    # with the refinement search; both must partition graphs identically
    for n in range(1, 6):
        by_cert = {}
        by_brute = {}
        for i, g in enumerate(all_labeled_graphs(n)):
            by_cert.setdefault(canonical_certificate(g), set()).add(i)
            by_brute.setdefault(brute_certificate(g), set()).add(i)
        assert set(map(frozenset, by_cert.values())) == set(
            map(frozenset, by_brute.values())
        )


def test_certificates_partition_exactly_like_permutation_isomorphism():
    # n=4 exhaustive: group all labeled graphs by certificate and check the
    # groups coincide with brute-force isomorphism classes
    graphs = list(all_labeled_graphs(4))
    by_cert = {}
    for g in graphs:
        by_cert.setdefault(canonical_certificate(g), []).append(g)
    assert len(by_cert) == 11
    for members in by_cert.values():
        rep = members[0]
        for g in members[1:]:
            assert any(
                rep.relabel(p) == g for p in permutations(range(4))
            ), "certificate collision between non-isomorphic graphs"


PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)
CUBE = Graph.from_edges(
    8,
    [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
     (0, 4), (1, 5), (2, 6), (3, 7)],
)


@pytest.mark.parametrize(
    "graph,order",
    [
        (C5, 10),
        (Graph.complete(4), 24),
        (Graph.empty(6), 720),
        (P3, 2),
        (make_split(6, 2), 48),  # 2! * 4!
        (Graph.from_edges(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]), 72),
        (PETERSEN, 120),
        (CUBE, 48),
        (Graph.empty(20), factorial(20)),
        (make_split(20, 2), factorial(2) * factorial(18)),
        (perfect_matching(16), 2**8 * factorial(8)),
    ],
)
def test_automorphism_group_orders(graph, order):
    assert automorphism_group_order(graph) == order


def test_automorphism_group_order_matches_permutation_count():
    for n in range(1, 8):
        for seed in range(6):
            g = random_graph(n, 3100 * n + seed, p=(0.2, 0.5, 0.8)[seed % 3])
            assert automorphism_group_order(g) == brute_automorphism_count(g), (n, seed)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize(
    "family,cells",
    [
        (Graph.empty, 1),
        (Graph.complete, 1),
        (perfect_matching, 1),
        (lambda n: make_split(n, 2), 2),
        # whole triangles only, so the root is one cell
        (lambda n: disjoint_triangles(n - n % 3), 1),
        (cocktail_party, 1),
    ],
    ids=["empty", "complete", "matching", "split2", "triangles", "cocktail"],
)
def test_symmetric_graphs_certify_with_few_generators(family, cells, n):
    # these searches used to keep every automorphism they met and did not
    # finish at n = 64; the degree sequence determines each of these classes
    # but the disjoint triangles
    g = family(n)
    cert = canonical_certificate(g)
    assert canonical_certificate(g.relabel(random_permutation(g.n, 4100 + n))) == cert
    decoded = certificate_graph(cert)
    assert sorted(decoded.degree_sequence()) == sorted(g.degree_sequence())
    # each settles at the root: a cell of t blocks of c keeps t(c - 1)
    # transpositions and t - 1 block swaps, one fewer than its size
    assert len(automorphism_generators(g)) == g.n - cells


def test_certificate_invariance_on_vertex_transitive_graphs():
    for g in (PETERSEN, CUBE):
        cert = canonical_certificate(g)
        for seed in range(25):
            perm = random_permutation(g.n, 600 + seed)
            assert canonical_certificate(g.relabel(perm)) == cert


def test_nonisomorphic_graph_counts():
    known = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, expected in known.items():
        assert len(nonisomorphic_graphs(n)) == expected
    with pytest.raises(ParameterError, match="nonnegative"):
        nonisomorphic_graphs(-1)


def test_nonisomorphic_graphs_search_counts(monkeypatch):
    # canonical searches run by a cold enumeration, all levels up to n: one
    # per kept extension, none to pick the extensions
    searches = 0
    run = _CanonicalSearch.run

    def counting_run(self):
        nonlocal searches
        searches += 1
        return run(self)

    monkeypatch.setattr(_CanonicalSearch, "run", counting_run)
    counts = {}
    for n in range(1, 8):
        nonisomorphic_graphs.cache_clear()
        searches = 0
        nonisomorphic_graphs(n)
        counts[n] = searches
    assert counts == {1: 1, 2: 3, 3: 8, 4: 24, 5: 94, 6: 442, 7: 3132}


def test_class_orbit_sizes_count_every_labeled_graph():
    # a class with automorphism group A has n!/|A| labeled members, so the
    # orders of all classes on n vertices must account for 2^C(n,2) graphs
    for n in range(8):
        total = sum(factorial(n) // automorphism_group_order(g) for g in nonisomorphic_graphs(n))
        assert total == 2 ** comb(n, 2), n


def test_nonisomorphic_graphs_are_canonical_sorted_and_distinct():
    reps = nonisomorphic_graphs(6)
    certs = [canonical_certificate(g) for g in reps]
    assert certs == sorted(certs)
    assert len(set(certs)) == len(certs)
    for g in reps[:20]:
        assert canonical_form(g) == g


def test_split_graph_certificate_ignores_part_placement():
    # same split graph with the clique part labeled last instead of first
    g = make_split(7, 2)
    rev = g.relabel(list(reversed(range(7))))
    assert rev != g
    assert canonical_certificate(rev) == canonical_certificate(g)


def test_certificate_roundtrips_via_graph6():
    for n in range(0, 8):
        for g in [Graph.empty(n), Graph.complete(n)]:
            cert = canonical_certificate(g)
            assert to_graph6(certificate_graph(cert)) == cert.data
            assert from_graph6(cert.data).n == n


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 62, 63, 100, 512])
def test_certificate_is_networkx_graph6_of_canonical_relabeling(n):
    # networkx encodes the canonically relabeled graph independently of the
    # packed search key the certificate is made from
    g = random_graph(n, 5200 + n, p=0.3)
    assert canonical_certificate(g).data == networkx_canonical_graph6(g)


def _sha256(lines) -> str:
    return hashlib.sha256(b"\n".join(lines)).hexdigest()


def test_class_list_bytes_pinned():
    # graph6 of every class on 7 vertices, as the certificates were before
    # they were packed straight from the search key
    assert _sha256(to_graph6(g) for g in nonisomorphic_graphs(7)) == (
        "d16cb100e88e2559837f2637813bf19f1e58dce202c8f4b5ae408eef2eb79f9b"
    )


def test_certificate_bytes_pinned():
    # header switch at 63, padding residues, and symmetric graphs whose
    # searches jump back on automorphisms
    graphs = [random_graph(n, 9100 + n) for n in (0, 1, 2, 5, 31, 62, 63, 64, 100, 128)]
    graphs += [Graph.empty(63), Graph.complete(40), make_split(70, 3)]
    assert _sha256(canonical_certificate(g).data for g in graphs) == (
        "e1b60f53899b6ac4f269fce356915a39f114c3d9fdae00d979c5e9250b14d34e"
    )


# every cell of their root partition is a clique or a coclique of twins
UNIFORM_FAMILIES = [Graph.empty, Graph.complete] + [
    lambda n, q=q: make_split(n, q) for q in (1, 2, 3)
]
UNIFORM_IDS = ["empty", "complete", "split1", "split2", "split3"]
# the clique part of each family (none for empty and complete): |Aut| = q! * (n - q)!
UNIFORM_QS = [0, 0, 1, 2, 3]


def test_canonical_labeling_pinned():
    # the certificate corpus above plus relabelled empty, complete and split
    # graphs: pins the ordered partitions the search refines, not only keys
    graphs = [random_graph(n, 9100 + n) for n in (0, 1, 2, 5, 31, 62, 63, 64, 100, 128)]
    graphs += [Graph.empty(63), Graph.complete(40), make_split(70, 3)]
    for i, family in enumerate(UNIFORM_FAMILIES):
        for n in (9, 24, 40):
            for seed in range(2):
                perm = random_permutation(n, 9300 + 100 * i + 10 * n + seed)
                graphs.append(family(n).relabel(perm))
    labelings = (",".join(map(str, canonical_labeling(g))).encode() for g in graphs)
    assert _sha256(labelings) == (
        "19ae6fc639de55d526c37c545d164add9b34e0968ed5ba4b4e5218e94e44167c"
    )


def _structured_graph(rng: random.Random) -> Graph:
    """A relabelled graph with large equitable cells: copies of one small
    random graph plus a few vertices with random edges, sometimes
    complemented."""
    k, copies, extra = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)
    part = random_graph(k, rng.randrange(10**6), p=rng.random())
    n = k * copies + extra
    edges = [(c * k + u, c * k + v) for c in range(copies) for u, v in part.edges()]
    edges += [(u, v) for v in range(n) for u in range(v) if v >= k * copies and rng.random() < 0.5]
    g = Graph.from_edges(n, edges)
    if rng.random() < 0.3:
        g = g.complement()
    return g.relabel(random_permutation(n, rng.randrange(10**6)))


def _individualize_and_compare(g: Graph, rng: random.Random, splits: list | None = None) -> None:
    """Refine at the root, then individualize a random vertex of a random
    cell until the partition is discrete; after each step the refinement
    that counts into fresh cells only must return the same ordered cells as
    the one that counts into every cell, both when given [v] alone (as the
    search does) and [v] with the rest of its cell."""
    cells = [list(range(g.n))] if g.n else []
    ref = reference_refine(g.rows, cells, splits)
    assert _refine(g.rows, cells, cells) == ref
    while len(ref) < g.n:
        i = rng.choice([i for i, cell in enumerate(ref) if len(cell) > 1])
        v = rng.choice(ref[i])
        split = [[v], [w for w in ref[i] if w != v]]
        child = ref[:i] + split + ref[i + 1 :]
        ref = reference_refine(g.rows, child, splits)
        assert _refine(g.rows, child, split) == ref
        assert _refine(g.rows, child, [[v]]) == ref


@pytest.mark.parametrize("seed", range(12))
def test_incremental_refine_matches_all_cells_reference(seed):
    rng = random.Random(8800 + seed)
    for _ in range(12):
        if rng.random() < 0.5:
            g = _structured_graph(rng)
        else:
            n = rng.randint(0, 40)
            g = random_graph(n, rng.randrange(10**6), p=rng.choice([0.05, 0.1, 0.5, 0.9]))
        _individualize_and_compare(g, rng)


def _star_forest(rng: random.Random) -> Graph:
    """A relabelled disjoint union of stars with three to five distinct
    sizes, a few copies of each, and some random edges between centers.
    The leaves share a degree, so the root's first pass puts them in one
    cell, and the next pass splits that cell by the size of their star."""
    edges, n = [], 0
    centers = []
    for size in rng.sample(range(2, 9), rng.randint(3, 5)):
        for _ in range(rng.randint(1, 3)):
            centers.append(n)
            edges += [(n, n + leaf) for leaf in range(1, size + 1)]
            n += size + 1
    edges += [(u, v) for u in centers for v in centers if u < v and rng.random() < 0.2]
    g = Graph.from_edges(n, edges)
    return g.relabel(random_permutation(n, rng.randrange(10**6)))


@pytest.mark.parametrize("seed", range(4))
def test_refine_skipping_last_pieces_matches_reference_on_multiway_splits(seed):
    # a cell that splits into three or more pieces after the first pass
    # leaves two or more fresh pieces besides the skipped last one, so the
    # counts into that last piece must be derived correctly more than once
    rng = random.Random(9900 + seed)
    splits: list[tuple[int, int]] = []
    for _ in range(6):
        _individualize_and_compare(_star_forest(rng), rng, splits)
    assert any(pass_number > 0 and pieces >= 3 for pass_number, pieces in splits)


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("family,q", zip(UNIFORM_FAMILIES, UNIFORM_QS), ids=UNIFORM_IDS)
def test_uniform_partitions_settle_at_first_leaf(family, q, n):
    # the search settles these at the root's first leaf, so n = 512 finishes
    g = family(n)
    cert = canonical_certificate(g)
    assert canonical_certificate(g.relabel(random_permutation(n, 4300 + n))) == cert
    assert cert.data == networkx_canonical_graph6(g)
    gens = automorphism_generators(g)
    assert len(gens) <= n - 1
    for gen in gens[:: max(1, len(gens) // 16)]:
        assert g.relabel(list(gen)) == g
    assert automorphism_group_order(g) == factorial(q) * factorial(n - q)


@pytest.mark.parametrize("family,q", zip(UNIFORM_FAMILIES, UNIFORM_QS), ids=UNIFORM_IDS)
def test_uniform_partition_group_orders(family, q):
    # the transpositions inside each cell generate the whole group:
    # S_n, or S_q x S_{n-q} for the split graphs
    for n in range(q + 2, 11):
        order = factorial(n) if q == 0 else factorial(q) * factorial(n - q)
        assert automorphism_group_order(family(n)) == order, n


def _clique_union_order(n: int, c: int) -> int:
    # S_c wr S_t on the t = n // c cliques, times S_r on a leftover clique K_r
    return factorial(c) ** (n // c) * factorial(n // c) * factorial(n % c)


@pytest.mark.parametrize(
    "family,c,n",
    [
        pytest.param(family, c, n, id=f"{name}-{n}")
        for name, family, c, ns in [
            ("matching", perfect_matching, 2, (64, 96, 128, 512)),
            ("triangles", disjoint_triangles, 3, (64, 96, 128, 510)),
            ("k4", lambda n: disjoint_cliques(n, 4), 4, (128, 512)),
            # the complement of the perfect matching has the same group
            ("cocktail", cocktail_party, 2, (256,)),
        ]
        for n in ns
    ],
)
def test_regular_non_uniform_graphs_certify(family, c, n):
    # regular graphs whose root cell is neither a clique nor a coclique but
    # a module of equal cliques, or the complement of one, so the search
    # settles them at the root; n = 512 used to take seconds
    g = family(n)
    cert = canonical_certificate(g)
    assert canonical_certificate(g.relabel(random_permutation(n, 4500 + n))) == cert
    assert cert.data == networkx_canonical_graph6(g)
    for gen in automorphism_generators(g):
        assert g.relabel(list(gen)) == g
    assert automorphism_group_order(g) == _clique_union_order(n, c)
    if family is perfect_matching and n == 512:
        assert automorphism_group_order(g) == 2**256 * factorial(256)


def test_blocks_of_twin_cells_and_of_cells_led_by_twins():
    # a clique of closed twins and a coclique of open ones are one block,
    # the cell itself; when only the first two vertices of a cell are
    # twins, grouping by their kind of neighbourhood gives the blocks, or
    # None when the groups are not equal cliques
    split = make_split(7, 3)
    assert _blocks(split.rows, [0, 1, 2]) == ([[0, 1, 2]], [0, 1, 2])
    assert _blocks(split.rows, [3, 4, 5, 6]) == ([[3, 4, 5, 6]], [3, 4, 5, 6])
    pairs = [[0, 1], [2, 3], [4, 5]]
    assert _blocks(perfect_matching(6).rows, list(range(6))) == (pairs, [0, 2, 4, 5, 3, 1])
    assert _blocks(cocktail_party(6).rows, list(range(6))) == (pairs, [0, 1, 2, 3, 4, 5])
    triangle_and_square = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    assert _blocks(triangle_and_square.rows, list(range(7))) is None


def _count_descends(monkeypatch) -> list[int]:
    """Patch the search to count its nodes; the count is the list's one item."""
    calls = [0]
    descend = _CanonicalSearch._descend

    def counting(self, *args):
        calls[0] += 1
        return descend(self, *args)

    monkeypatch.setattr(_CanonicalSearch, "_descend", counting)
    return calls


@pytest.mark.parametrize(
    "family,n,nodes",
    [
        pytest.param(perfect_matching, 16, 1, id="matching-16"),
        pytest.param(disjoint_triangles, 18, 1, id="triangles-18"),
        pytest.param(perfect_matching, 128, 1, id="matching-128"),
        pytest.param(disjoint_triangles, 129, 1, id="triangles-129"),
        pytest.param(lambda n: disjoint_cliques(n, 4), 128, 1, id="k4-128"),
        pytest.param(cocktail_party, 128, 1, id="cocktail-128"),
        # components that are not cliques: no node settles, and the search
        # walks the tree it always did
        pytest.param(lambda n: disjoint_cycles(n // 5, 5), 255, 8006, id="c5-255"),
    ],
)
def test_canonical_search_node_counts(monkeypatch, family, n, nodes):
    g = family(n)
    calls = _count_descends(monkeypatch)
    canonical_certificate(g)
    assert calls[0] == nodes


def _refinement_first_leaf(g: Graph) -> list[int]:
    """The search's first leaf the long way round: individualize the first
    vertex of the first non-singleton cell and refine, until the partition
    is discrete."""
    cells = [list(range(g.n))] if g.n else []
    cells = _refine(g.rows, cells, cells)
    while len(cells) < g.n:
        i = next(i for i, cell in enumerate(cells) if len(cell) > 1)
        v = cells[i][0]
        cells = _refine(g.rows, cells[:i] + [[v], cells[i][1:]] + cells[i + 1 :], [[v]])
    return [cell[0] for cell in cells]


# graphs whose root cells are all modules of equal cliques: unions of
# cliques, complete multipartite graphs, and joins and unions of both with
# distinct degrees
MODULE_GRAPHS = {
    "matching": perfect_matching(10),
    "triangles": disjoint_cliques(12, 3),
    "k4": disjoint_cliques(12, 4),
    "cocktail": cocktail_party(10),
    "k3333": disjoint_cliques(12, 3).complement(),
    "k2s-k4s": join(perfect_matching(6).complement(), disjoint_cliques(8, 4).complement()).complement(),
    "k2s+k33": join(perfect_matching(6), disjoint_cliques(6, 3).complement()),
    "split": make_split(10, 3),
    "empty": Graph.empty(5),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", list(MODULE_GRAPHS))
def test_settled_root_takes_the_refinement_first_leaf(monkeypatch, name, seed):
    # the search writes the first leaf of a settled node out block by block;
    # it must be the leaf individualization and refinement reach, which is
    # the best one when every leaf has the same key
    g = MODULE_GRAPHS[name]
    g = g.relabel(random_permutation(g.n, 4700 + 10 * seed + len(name)))
    calls = _count_descends(monkeypatch)
    assert list(canonical_labeling(g)) == _refinement_first_leaf(g)
    assert calls[0] == 1


@pytest.mark.parametrize("complement", [False, True], ids=["corona", "complement"])
def test_cells_that_are_modules_only_inside_are_not_settled(complement):
    # K_4 with a pendant vertex at each vertex: the root cells are K_4 and
    # 4 K_1, each a module of equal cliques inside, but every vertex has its
    # own neighbour outside its cell, so the group is S_4, not S_4 x S_4
    g = Graph.from_edges(8, [(u, v) for v in range(4) for u in range(v)] + [(v, v + 4) for v in range(4)])
    if complement:
        g = g.complement()
    cert = canonical_certificate(g)
    for seed in range(4):
        h = g.relabel(random_permutation(8, 4900 + seed))
        assert canonical_certificate(h) == cert
        assert automorphism_group_order(h) == brute_automorphism_count(h) == 24


def test_perfect_matching_group_orders():
    # S_2 wr S_{n/2}: swap inside each edge, permute the edges
    for n in [*range(2, 11, 2), 128]:
        assert automorphism_group_order(perfect_matching(n)) == 2 ** (n // 2) * factorial(n // 2), n


# CFI graphs: colour refinement cannot tell the twisted graph from the
# untwisted one, so these are the first inputs on which the search itself
# must separate classes.  Each is 10 vertices per base vertex, all of degree 3
CFI_BASES = {
    "k4": (list(Graph.complete(4).edges()), 192),
    "cube": (list(CUBE.edges()), 1536),
    "petersen": (list(PETERSEN.edges()), 7680),
    **{f"cubic{n}-{seed}": (random_cubic(n, seed), None) for n, seed in [(12, 1), (14, 2), (16, 3)]},
}


@pytest.mark.parametrize("name", list(CFI_BASES))
def test_cfi_graphs(name):
    base, order = CFI_BASES[name]
    graphs = [cfi(base, None), cfi(base, base[0]), cfi(base, base[-1])]
    certs = [canonical_certificate(g) for g in graphs]
    untwisted, twisted, twisted_elsewhere = certs
    assert untwisted != twisted
    assert twisted == twisted_elsewhere
    for g, cert in zip(graphs, certs):
        for seed in range(2):
            assert canonical_certificate(g.relabel(random_permutation(g.n, 5300 + seed))) == cert
    # the twists along the base's cycle space, 2^(m - N + 1) of them, and a
    # lift of each automorphism of the base
    h = nx.Graph(base)
    base_order = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
    cycle_space = 2 ** (h.number_of_edges() - h.number_of_nodes() + 1)
    assert automorphism_group_order(graphs[0]) == cycle_space * base_order
    if order is not None:
        assert cycle_space * base_order == order
