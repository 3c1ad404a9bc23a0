"""Clique-freeness and saturation checking.

A graph is K_s-saturated when it has no s-clique but gains one on the
addition of any missing edge; equivalently, it is maximal K_s-free.  No
augmented graph is ever built: adding uv creates an s-clique exactly when
the common neighborhood of u and v already contains a clique of size s-2.

``check_saturation`` sweeps each vertex u once.  It takes the lowest
non-neighbour v > u still open and searches N(u) & N(v) for one K_{s-2};
that clique also lies in N(u) & N(w) for every open w it is fully joined
to, so all those non-edges uw are settled by the one search.  Only when
no clique exists is uv a failure, and v alone is settled.  Failures come
out in lexicographic order.

The clique searches recurse one vertex at a time, so every search, from
the K_s test to the sampler's K_{s-2} test, ends in sizes 2 and 3.
Those two run as flat loops over the candidate bits, with no call.
``_has_clique`` and ``_witness`` stay two kernels because one kernel
serving both, even one that returns at once for existence callers, made
``check_saturation`` 2–7 % slower and the K_s test 1–6 % slower at s >= 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .graphs import Graph


def _has_clique(rows, cand: int, size: int) -> bool:
    """Does the candidate set contain a clique of the given size?

    Sizes 2 and 3 run as flat bit loops with no call: every larger search
    recurses down to them, so they carry most of the work.  The size-3 loops
    stop once too few candidates are left to finish a triangle; ``x & (x - 1)``
    is nonzero while x holds at least two."""
    if size <= 1:
        return size <= 0 or cand != 0
    if size == 2:
        while cand:
            low = cand & -cand
            cand ^= low
            if cand & rows[low.bit_length() - 1]:
                return True
        return False
    if size == 3:
        while cand.bit_count() >= 3:
            low = cand & -cand
            cand ^= low
            sub = cand & rows[low.bit_length() - 1]
            while sub & (sub - 1):
                low = sub & -sub
                sub ^= low
                if sub & rows[low.bit_length() - 1]:
                    return True
        return False
    while cand.bit_count() >= size:
        low = cand & -cand
        cand ^= low
        if _has_clique(rows, cand & rows[low.bit_length() - 1], size - 1):
            return True
    return False


def _witness(rows, cand: int, size: int, reach: int) -> int:
    """``reach`` restricted to the common neighborhood of the first clique
    of the given size found in the candidate set, or 0 if there is none.

    The first clique is the least in lexicographic order of its sorted
    vertices.  Sizes 2 and 3 run flat, as in ``_has_clique``.  Callers pass
    a ``reach`` holding a vertex adjacent to every candidate, so a found
    clique never yields 0."""
    if size <= 0:
        return reach
    if size == 1:
        return cand and reach & rows[(cand & -cand).bit_length() - 1]
    if size == 2:
        while cand:
            low = cand & -cand
            cand ^= low
            row = rows[low.bit_length() - 1]
            sub = cand & row
            if sub:
                return reach & row & rows[(sub & -sub).bit_length() - 1]
        return 0
    if size == 3:
        while cand.bit_count() >= 3:
            low = cand & -cand
            cand ^= low
            row = rows[low.bit_length() - 1]
            sub = cand & row
            while sub & (sub - 1):
                low = sub & -sub
                sub ^= low
                row2 = rows[low.bit_length() - 1]
                third = sub & row2
                if third:
                    return reach & row & row2 & rows[(third & -third).bit_length() - 1]
        return 0
    while cand.bit_count() >= size:
        low = cand & -cand
        cand ^= low
        row = rows[low.bit_length() - 1]
        found = _witness(rows, cand & row, size - 1, reach & row)
        if found:
            return found
    return 0


def contains_clique(g: Graph, s: int) -> bool:
    """True when some s-subset of vertices induces a complete graph."""
    if s < 1:
        raise ParameterError("clique order must be at least 1")
    return _has_clique(g.rows, (1 << g.n) - 1, s)


def creates_clique_on_addition(g: Graph, u: int, v: int, s: int) -> bool:
    """Would adding the missing edge uv create an s-clique?"""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ParameterError(f"vertex pair ({u},{v}) outside 0..{g.n - 1}")
    if u == v:
        raise ParameterError("endpoints must be distinct")
    if g.has_edge(u, v):
        raise ParameterError(f"({u},{v}) is already an edge")
    if s < 2:
        raise ParameterError("clique order must be at least 2")
    common = g.rows[u] & g.rows[v]
    return _has_clique(g.rows, common, s - 2)


@dataclass(frozen=True)
class SaturationReport:
    """Outcome of a saturation check.

    ``missing_edge_failures`` lists the non-edges (lexicographically
    sorted) whose addition does not create an s-clique.  ``vacuous`` marks
    the degenerate regimes n < s (no room for an s-clique, so only the
    complete graph qualifies) and s = 2 (only the empty graph qualifies).
    """

    n: int
    s: int
    is_free: bool
    missing_edge_failures: tuple[tuple[int, int], ...]
    is_saturated: bool
    vacuous: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "is_free": self.is_free,
            "missing_edge_failures": [list(e) for e in self.missing_edge_failures],
            "is_saturated": self.is_saturated,
            "vacuous": self.vacuous,
        }


def check_saturation(g: Graph, s: int) -> SaturationReport:
    """Full saturation report for K_s."""
    if s < 2:
        raise ParameterError("clique order must be at least 2")
    is_free = not contains_clique(g, s)
    rows = g.rows
    failures = []
    for u, row in enumerate(rows):
        open_ = ((1 << g.n) - (2 << u)) & ~row  # non-neighbours v > u
        while open_:
            low = open_ & -open_
            v = low.bit_length() - 1
            # v is adjacent to every candidate, so a found clique settles v too
            settled = _witness(rows, row & rows[v], s - 2, open_)
            if not settled:
                failures.append((u, v))
                settled = low
            open_ ^= settled
    return SaturationReport(
        n=g.n,
        s=s,
        is_free=is_free,
        missing_edge_failures=tuple(failures),
        is_saturated=is_free and not failures,
        vacuous=g.n < s or s == 2,
    )
