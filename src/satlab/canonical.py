"""Canonical labelings, isomorphism testing, and isomorph-free enumeration.

The canonical form is computed by iterated neighborhood refinement: start
from the unit partition, split cells by adjacency counts until the
partition is equitable, then backtrack over the vertices of the first
non-singleton cell.  Each pass counts only into the cells the previous pass
created, all but the last piece of each split cell (the unit cell at the
root; [v] alone after individualizing v), since every older cell already
meets each cell in one count per vertex, and the count into a last piece
is the split cell's count minus those into its other pieces.  Leaving out
the last piece, rather than the largest as nauty does, keeps every split
and every piece order as counting into all pieces would.  Among all
discrete partitions reached, the one whose adjacency upper triangle
(column-major, as in graph6) is lexicographically smallest defines the
canonical labeling.  Pruning follows nauty (McKay 1981, "Practical graph
isomorphism"; McKay & Piperno 2014) and bliss (Junttila & Kaski 2007):

* Branches whose fixed prefix already compares greater than the incumbent
  are cut.
* Each leaf is compared with the first leaf and with the best one.  Equal
  encodings give an automorphism mapping that leaf's path onto this one.
  It fixes the common prefix of the two paths, so the rest of this leaf's
  branch below their last common node is the image of a branch already
  explored: the search unwinds straight back to that node.
* Every node on the current path keeps the orbits of the automorphisms
  found so far that fix its prefix, as a union-find built when it tries
  its second child; each new automorphism is merged into the nodes whose
  prefix it fixes.  A branch target that is not the minimum of its orbit
  is equivalent to one already explored and is skipped.
* A node is settled at its first leaf when every non-singleton cell is a
  module of equal cliques (compare component recursion in Junttila & Kaski
  2011, and modules in McConnell & Spinrad 1999): it induces t disjoint
  cliques K_c, or their complement, the complete multipartite graph with t
  parts of size c, and all its vertices have the same neighbours outside
  it.  In the equitable partition each pair of cells is then fully joined
  or not at all, so the automorphisms fixing the node's prefix are exactly
  the permutations that keep each cell in place and map its blocks (the
  cliques or the parts) onto blocks: S_c wr S_t on each cell.  That group
  carries any leaf below to any other, as individualizing a vertex and
  refining leaves a partition of the same kind, so all leaves below share
  one key.  The leaf taken is the search's own first one, written out
  block by block, so certificates and labelings are those of the full
  search.  Unless it jumps back, the adjacent transpositions inside each
  block and one swap of each pair of neighbouring blocks (the i-th vertex
  of one with the i-th of the other) are added as generators.  Twins are
  the case c = 1 or t = 1: this settles the empty and complete graphs and
  the split graphs S_{n,q} at the root, and the perfect matching, disjoint
  cliques and the cocktail party graph too.

None of this changes which leaf is best, only how many are visited.

The automorphism group's order is read off the first path, the one to the
first leaf, as in nauty.  A node is on it exactly when no leaf exists as it
starts.  When such a node with prefix P finishes, ``order`` gains the
length of its first child x's orbit in its union-find; where the path ends,
a settled node gives the product over its cells of (c!)^t * t!, the order
of S_c wr S_t (a discrete leaf gives 1).  With Aut_P the automorphisms
fixing P pointwise, orbit and stabilizer give |Aut_P| = |x^Aut_P| *
|Aut_{P,x}|, so the product is |Aut| once each of those union-finds holds
the orbits of all of Aut_P.  That holds, but by way of the best path, not
the first: the prefix prune can cut a sibling of x in x's orbit.

* When a first-path node starts, no leaf exists outside its subtree, so no
  jump leaves the subtree and every generator found in it fixes P: it is a
  fresh search of the graph coloured by the node's partition.  Let B be
  that search's final best key.
* From the node, follow the chain of children each of which is the first
  tried whose subtree holds a leaf with key B.  No chain node is cut or
  abandoned: its prefix key is a prefix of B, never above the best key's,
  and the earlier sibling that an orbit prune or a jump's generator would
  map onto it would hold such a leaf too.  So the chain is the best path,
  every node on it finishes, and no generator found below a chain node
  with prefix Q jumps above it: its union-find holds every generator found
  that fixes Q.
* Let b be the chain child of that node.  Every other w in b's orbit under
  Aut_Q is tried after b, once the best key is B, and its subtree holds a
  leaf with key B.  Either w is orbit-pruned, joined to b through earlier
  targets, or its search ends in a jump back to Q whose generator maps b
  onto w: at the latest its own chain reaches a leaf with key B, which
  matches the best leaf.  (A jump matching the first leaf maps the first
  child onto w, which makes that child b.)
* By induction up the chain, the generators found that fix Q include
  generators of Aut_{Q,b} and a transversal of b's orbit, so they generate
  Aut_Q.  The chain ends at a discrete leaf, where Aut_Q is trivial, or at
  a settled node, whose transpositions and block swaps generate Aut_Q.

A leaf's key is its upper triangle as a '0'/'1' string
(``graphs._triangle_bits``), read from row strings the search formats once,
so keys of one search have equal length and compare as strings: the
comparison stops at the first differing byte.  The row strings share one
length, so with the leaf's rows joined in label order each column of the
key is one strided slice (x_{lab[i],lab[j]} = x_{lab[j],lab[i]}), with no
Python loop per bit.  The prefix prune reads the best key's leading
characters: when a node's first t cells are singletons, every leaf below
starts with those t labels, whose key is the first C(t,2) characters of the
column-major leaf key, and a branch whose prefix key exceeds the best
key's first C(t,2) characters is cut.  A certificate is the best key packed
as graph6 bytes, the graph6 of the canonical form made without relabeling,
so it decodes back to a concrete representative and sorts in a stable,
platform-free way.  ``canonical_form`` and the classes of
``nonisomorphic_graphs`` decode the best key itself with
``graphs._triangle_rows``; keys of one length sort as their certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import ParameterError
from .graphs import Graph, _pack_graph6, _row_strings, _triangle_bits, _triangle_rows, from_graph6


@dataclass(frozen=True, order=True)
class CanonicalCertificate:
    """Bit-exact encoding of an isomorphism class (canonical graph6 bytes)."""

    data: bytes

    def __str__(self) -> str:
        return self.data.decode("ascii")


def _refine(
    rows: tuple[int, ...], cells: list[list[int]], fresh: list[list[int]]
) -> list[list[int]]:
    """Refine to an equitable ordered partition.

    Each pass splits every cell by the vector of its vertices' adjacency
    counts into the fresh cells, and orders the pieces by that vector.  It
    does so one fresh cell at a time: the pieces split by the count into the
    first fresh cell, in ascending order, each of them then by the count
    into the second, and so on, which is the lexicographic order of the
    vectors.  Every count is a plain int, and a cell stops once its pieces
    are singletons.  The
    caller passes as fresh the cells whose counts may differ inside a cell:
    the unit cell at the root, and [v] after individualizing v in an
    equitable partition.  A later pass counts into the pieces the previous
    pass created except the last piece of each split cell (Hopcroft's rule,
    keeping piece order rather than skipping the largest piece as nauty
    does).  Once a pass is done, all vertices of a cell have one count into
    each cell the pass started from, so a vertex's count into a last piece,
    or into the rest of v's cell, is that shared count minus its counts
    into the other pieces.  Every count left out is thus fixed by the
    vertex's cell and the counts made, so the vector splits and orders cells
    exactly as counts into every cell would, which keeps the resulting cell
    order invariant under relabeling.  Pieces keep their cell's vertex
    order, so cells that start ascending stay ascending.  A discrete
    partition ends the passes.
    """
    n = len(rows)
    while fresh and len(cells) < n:
        masks = []
        for cell in fresh:
            mask = 0
            for v in cell:
                mask |= 1 << v
            masks.append(mask)
        new_cells: list[list[int]] = []
        fresh = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            # sorting by the count vector is splitting by each count in turn
            pieces = [cell]
            for mask in masks:
                if len(pieces) == len(cell):
                    break
                split = []
                for piece in pieces:
                    if len(piece) > 1:
                        keys = [(rows[v] & mask).bit_count() for v in piece]
                        if keys.count(keys[0]) != len(keys):
                            buckets: dict = {}
                            for v, key in zip(piece, keys):
                                buckets.setdefault(key, []).append(v)
                            split += [buckets[key] for key in sorted(buckets)]
                            continue
                    split.append(piece)
                pieces = split
            new_cells += pieces
            fresh += pieces[:-1]
        cells = new_cells
    return cells


def _blocks(rows: tuple[int, ...], cell: list[int]) -> tuple[list[list[int]], list[int]] | None:
    """A cell's blocks and first-leaf order, if it is a module of equal cliques.

    Such a cell of an equitable partition induces t disjoint cliques K_c or
    their complement, the complete multipartite graph with t parts of size
    c, and its vertices share their outside neighbours.  The blocks are the
    cliques or the parts, each ascending, in the order of their first
    vertices.  Any other cell gives None.

    The first two vertices v, w pick the kind before any mask is built.
    diff, the difference of their open neighbourhoods if adjacent and of
    their closed ones if not, holds v and w, and nothing else exactly when
    they are twins; then they share a block, a clique if adjacent and a
    part if not.  Otherwise they lie in different parts if adjacent and in
    different cliques if not, and diff is those two blocks: 2c vertices,
    with c dividing |C| and t >= 2.  Grouping the cell by closed
    neighbourhood (cliques) or open neighbourhood (parts) then gives the
    blocks, and they are t blocks of c exactly when there are |C|/c groups
    with one outside part (c is read off v: the partition is equitable).  A
    clique of closed twins or a coclique of open ones is both kinds; there v
    and w are twins, and grouping by their shared neighbourhood gives one
    block, the cell itself, with the same group, generators and first leaf
    as |C| singletons.
    """
    v, w = cell[0], cell[1]
    rv, rw = rows[v], rows[w]
    pair = 1 << v | 1 << w
    adjacent = rv >> w & 1
    diff = rv ^ rw if adjacent else rv ^ rw ^ pair
    if diff == pair:
        union = adjacent
    else:
        union = not adjacent
        c = diff.bit_count() >> 1
        if len(cell) % c or 2 * c > len(cell):
            return None
    blocks: dict[int, list[int]] = {}
    for x in cell:
        blocks.setdefault(rows[x] | 1 << x if union else rows[x], []).append(x)
    mask = 0
    for x in cell:
        mask |= 1 << x
    inside = (rv & mask).bit_count()
    c = inside + 1 if union else len(cell) - inside
    outside = rv & ~mask
    if len(blocks) * c != len(cell) or any(key & ~mask != outside for key in blocks):
        return None
    found = list(blocks.values())
    if union:
        # individualizing a clique's first vertex puts the other cliques
        # before its own rest, so the first vertices lead and the rests
        # follow in reverse block order
        return found, [b[0] for b in found] + [x for b in reversed(found) for x in b[1:]]
    # individualizing a part's first vertex puts its own rest first
    return found, [x for b in found for x in b]


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _merge(parent: list[int], perm: tuple[int, ...]) -> None:
    """Join the orbits of perm into the union-find; each root is its orbit's minimum."""
    for a, b in enumerate(perm):
        if a != b:
            ra, rb = _find(parent, a), _find(parent, b)
            if ra < rb:
                parent[rb] = ra
            elif rb < ra:
                parent[ra] = rb


class _CanonicalSearch:
    def __init__(self, rows: tuple[int, ...], n: int):
        self.rows = rows
        self.n = n
        self.row_strings = _row_strings(n, rows)
        # the first and the best leaf so far, each as (key, labeling, path)
        self.first: tuple[str, list[int], list[int]] | None = None
        self.best: tuple[str, list[int], list[int]] | None = None
        self.generators: list[tuple[int, ...]] = []
        # |Aut|: one factor per node on the first path
        self.order = 1
        # orbits[d]: union-find over the generators fixing the first d
        # vertices of the current path, built when that node tries its
        # second child (None before)
        self.orbits: list[list[int] | None] = []

    def run(self) -> "_CanonicalSearch":
        cells = [list(range(self.n))] if self.n else []
        self._descend(cells, [], cells)
        return self

    def _descend(
        self, cells: list[list[int]], fixed: list[int], fresh: list[list[int]]
    ) -> int | None:
        """Search below the node that individualized fixed.

        Returns None, or the depth of the ancestor to resume at when the rest
        of this subtree is the image of an explored one under a new generator.
        """
        cells = _refine(self.rows, cells, fresh)
        branch_at = None
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                branch_at = i
                break
        if branch_at is None:
            return self._leaf([cell[0] for cell in cells], fixed)
        first = self.best is None
        if not first:
            # all leaves below share the labels of the leading singletons, so
            # their keys start with partial
            partial = _triangle_bits(self.row_strings, [cells[i][0] for i in range(branch_at)])
            if partial > self.best[0][: len(partial)]:
                return None
        modules = []
        for cell in cells[branch_at:]:
            if len(cell) > 1:
                found = _blocks(self.rows, cell)
                if found is None:
                    break
                modules.append(found)
        else:
            if first:
                # S_c wr S_t on each cell
                for blocks, _ in modules:
                    self.order *= factorial(len(blocks[0])) ** len(blocks) * factorial(len(blocks))
            return self._settle(cells, modules, fixed)
        depth = len(fixed)
        self.orbits.append(None)
        cell = cells[branch_at]
        # cells stay ascending, so targets are tried in ascending order
        for v in cell:
            if v != cell[0]:
                # generators fixing the path preserve the cell, so v is
                # equivalent to an explored target exactly when it is not
                # its orbit's minimum
                parent = self.orbits[depth]
                if parent is None:
                    parent = self.orbits[depth] = self._stabilizer_orbits(fixed)
                if _find(parent, v) != v:
                    continue
            # counts into the rest of the cell follow from those into [v]
            child = cells[:branch_at] + [[v], [w for w in cell if w != v]] + cells[branch_at + 1 :]
            resume = self._descend(child, fixed + [v], [[v]])
            if resume is not None and resume < depth:
                self.orbits.pop()
                return resume
        parent = self.orbits.pop()
        if first:
            # cell[0] is the cell's minimum, so the root of its orbit
            self.order *= sum(_find(parent, v) == cell[0] for v in cell)
        return None

    def _settle(
        self,
        cells: list[list[int]],
        modules: list[tuple[list[list[int]], list[int]]],
        fixed: list[int],
    ) -> int | None:
        """Settle a node whose cells are all modules of equal cliques at its first leaf.

        modules holds the blocks and first-leaf order of each non-singleton
        cell, in cell order.  Every permutation that keeps each cell in place
        and maps blocks onto blocks is an automorphism fixing the prefix, and
        it acts transitively on the leaves below, so they share one key and
        the first stands for them all.  Unless it jumps back, the adjacent
        transpositions inside each block and the swap of each pair of
        neighbouring blocks generate the stabilizer of the prefix; they join
        the orbits of every node on the path.  Later leaves leave this
        subtree before fixed ends, so fixed serves as the leaf's path.
        """
        lab: list[int] = []
        orders = iter(modules)
        for cell in cells:
            lab += cell if len(cell) == 1 else next(orders)[1]
        resume = self._leaf(lab, fixed)
        if resume is not None:
            return resume
        for blocks, _ in modules:
            swaps = [[pair] for block in blocks for pair in zip(block, block[1:])]
            swaps += [list(zip(a, b)) for a, b in zip(blocks, blocks[1:])]
            for pairs in swaps:
                perm = list(range(self.n))
                for a, b in pairs:
                    perm[a], perm[b] = b, a
                # it fixes the prefix of every node on the path
                self._keep(tuple(perm), len(self.orbits))
        return None

    def _keep(self, gen: tuple[int, ...], depth: int) -> None:
        """Keep a generator and join its orbits into the union-finds of the
        first depth nodes on the path, those whose prefix it fixes."""
        self.generators.append(gen)
        for parent in self.orbits[:depth]:
            if parent is not None:
                _merge(parent, gen)

    def _stabilizer_orbits(self, fixed: list[int]) -> list[int]:
        parent = list(range(self.n))
        for g in self.generators:
            if all(g[x] == x for x in fixed):
                _merge(parent, g)
        return parent

    def _leaf(self, lab: list[int], fixed: list[int]) -> int | None:
        """Compare the leaf reached by path fixed, labeled lab, with the
        first and the best leaf.  When its key equals one of theirs, keep
        the automorphism between the two and return the depth to resume at;
        otherwise return None, keeping the leaf as the best if it is smaller."""
        key = _triangle_bits(self.row_strings, lab)
        if self.best is None:
            self.first = self.best = key, lab, fixed
            return None
        if key == self.first[0]:
            _, match_lab, match_path = self.first
        elif key == self.best[0]:
            _, match_lab, match_path = self.best
        else:
            if key < self.best[0]:
                self.best = key, lab, fixed
            return None
        perm = [0] * self.n
        for u, w in zip(match_lab, lab):
            perm[u] = w
        # perm maps the matched path onto this one, so it fixes their common
        # prefix; below it this leaf's branch is the image of the matched one
        common = 0
        while match_path[common] == fixed[common]:
            common += 1
        self._keep(tuple(perm), common + 1)
        return common


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Canonical labeling as a tuple lab[position] = original vertex."""
    return tuple(_CanonicalSearch(g.rows, g.n).run().best[1])


def canonical_form(g: Graph) -> Graph:
    """The canonically relabeled copy of g (identical for isomorphic inputs),
    decoded from its search key."""
    return Graph._unchecked(g.n, _triangle_rows(g.n, _CanonicalSearch(g.rows, g.n).run().best[0]))


def canonical_certificate(g: Graph) -> CanonicalCertificate:
    """Permutation-invariant certificate; equal certificates mean isomorphic."""
    return CanonicalCertificate(_pack_graph6(g.n, _CanonicalSearch(g.rows, g.n).run().best[0]))


def certificate_graph(cert: CanonicalCertificate) -> Graph:
    """Decode a certificate back to its canonical representative."""
    return from_graph6(cert.data)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    # equal degree sequences have equal lengths n and equal sums 2m
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_certificate(g) == canonical_certificate(h)


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group, as discovered by the search.

    Each is g[v] = image of v.  One per leaf whose encoding equals the first
    or the best leaf's, after which the search unwinds past the branch it
    makes redundant; and, for each node settled because its cells are
    modules of equal cliques, the adjacent transpositions inside each block
    and one swap of each pair of neighbouring blocks (n - 1 for the empty
    and complete graphs and the perfect matching, n - 2 for a split graph).
    Together they generate the whole group.
    """
    return _CanonicalSearch(g.rows, g.n).run().generators


def automorphism_group_order(g: Graph) -> int:
    """Order of the automorphism group.

    The product the canonical search builds along its first path: the
    length of the first child's orbit at each node on it, times (c!)^t * t!
    for each cell of t blocks of size c of the settled node it may end at
    (see the module docstring for why that is the whole group).  The
    perfect matching on 512 vertices, 2^256 * 256!, settles at the root.
    The group is never listed.
    """
    return _CanonicalSearch(g.rows, g.n).run().order


@lru_cache(maxsize=None)
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, in certificate order.

    Built by extending each (n-1)-vertex class with a new vertex, attached
    to every neighborhood that gives the new vertex the child's maximum
    degree, then deduplicating by the canonical search's best key, which
    packs to the certificate.  Nothing is lost: any graph G is (G - v) + v
    for a vertex v of maximum degree, G - v is isomorphic to an (n-1)-vertex
    class, and that class extended by the image of v's neighborhood is a
    kept child isomorphic to G.
    Each class is decoded from its search key, so every returned graph is
    in canonical form.  A cold n = 8 takes 1.3-2.2 s on a 2-vCPU machine
    (32,887 canonical searches over all levels) and is the exhaustive
    search's cap (``EXHAUSTIVE_CAP``); n >= 9 is unmeasured.  The counts 1,
    1, 2, 4, 11, 34, 156, 1044, 12346 for n = 0..8 make a handy self-check.
    """
    if n < 0:
        raise ParameterError("vertex count must be nonnegative")
    if n == 0:
        return (Graph.empty(0),)
    keys: set[str] = set()
    for parent in nonisomorphic_graphs(n - 1):
        # at_degree[d]: the parent's vertices of degree d
        at_degree = [0] * n
        for v, r in enumerate(parent.rows):
            at_degree[r.bit_count()] |= 1 << v
        top = max(parent.degree_sequence(), default=0)
        for mask in range(1 << (n - 1)):
            # keep the new vertex at the child's maximum degree d: no parent
            # vertex is above d, nor reaches d + 1 by joining it
            d = mask.bit_count()
            if d < top or mask & at_degree[d]:
                continue
            rows = [r | ((mask >> v & 1) << (n - 1)) for v, r in enumerate(parent.rows)]
            rows.append(mask)
            keys.add(_CanonicalSearch(tuple(rows), n).run().best[0])
    # keys of one length sort as their graph6 certificates do
    return tuple(Graph._unchecked(n, _triangle_rows(n, key)) for key in sorted(keys))
