"""Exhaustive extremal search over saturated graphs, plus random sampling.

Exhaustive mode enumerates every isomorphism class on n <= 8 vertices,
keeps the K_s-saturated ones, and scans a motif count over them in
certificate order.  Beyond the exhaustive cap, ``random_saturated`` samples
maximal K_s-free graphs by seeded greedy completion and
``probe_conjecture`` compares sampled minima against the split-graph
count.  The completion visits the pairs in ``random.Random(seed).shuffle``
order of the lexicographic pair list, drawn inline as CPython's ``shuffle``
draws it; two digests in the tests pin the sampled rows.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from .canonical import CanonicalCertificate, nonisomorphic_graphs
from .counting import MotifSpec, _count_matchings_dp, count_matchings, count_motif
from .errors import BudgetError, ParameterError
from .graphs import MAX_VERTICES, Graph, make_split, to_graph6
from .saturation import _has_clique, check_saturation

EXHAUSTIVE_CAP = 8


@dataclass(frozen=True)
class SearchBudget:
    """Optional seconds limit for exhaustive search.

    The ``time_limit`` clock starts before enumeration but is read only
    between saturated classes, so enumeration itself is not interrupted.
    """

    time_limit: float | None = None

    def __post_init__(self):
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise ParameterError(f"time limit must be finite and positive, got {self.time_limit}")


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of one extremal scan over all saturated classes."""

    n: int
    s: int
    motif: MotifSpec
    mode: str
    optimum: int
    extremal: tuple[CanonicalCertificate, ...]
    unique: bool
    classes: int
    histogram: dict[int, int] = field(hash=False)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "motif": {"kind": self.motif.kind, "size": self.motif.size},
            "mode": self.mode,
            "optimum": str(self.optimum),
            "extremal": [str(c) for c in self.extremal],
            "unique": self.unique,
            "classes": self.classes,
            "histogram": {str(k): self.histogram[k] for k in sorted(self.histogram)},
        }


def enumerate_saturated(n: int, s: int) -> Iterator[Graph]:
    """One canonical representative per K_s-saturated class, certificate-sorted."""
    if s < 3:
        raise ParameterError("clique order must be at least 3 for exhaustive search")
    if n < 1:
        raise ParameterError("vertex count must be positive")
    if n > EXHAUSTIVE_CAP:
        raise BudgetError(f"n={n} exceeds the exhaustive cap {EXHAUSTIVE_CAP}")
    for g in nonisomorphic_graphs(n):
        if check_saturation(g, s).is_saturated:
            yield g


def extremal_count(
    n: int,
    s: int,
    motif: MotifSpec,
    mode: str = "min",
    budget: SearchBudget | None = None,
) -> ExtremalResult:
    """Scan the motif count over every saturated class and report the optimum."""
    if mode not in ("min", "max"):
        raise ParameterError(f"mode must be 'min' or 'max', got {mode!r}")
    budget = budget or SearchBudget()
    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit
    scored: list[tuple[int, CanonicalCertificate]] = []
    for g in enumerate_saturated(n, s):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetError(f"time limit of {budget.time_limit}s exceeded")
        # representatives come out of enumerate_saturated already canonical
        scored.append((count_motif(g, motif), CanonicalCertificate(to_graph6(g))))
    histogram = Counter(value for value, _ in scored)
    pick = min if mode == "min" else max
    optimum = pick(histogram)
    extremal = tuple(sorted(cert for value, cert in scored if value == optimum))
    return ExtremalResult(
        n=n,
        s=s,
        motif=motif,
        mode=mode,
        optimum=optimum,
        extremal=extremal,
        unique=len(extremal) == 1,
        classes=len(scored),
        histogram=dict(sorted(histogram.items())),
    )


def _shuffled_pairs(n: int, seed: int) -> list[tuple[int, int]]:
    """The pairs u < v of range(n), in ``random.Random(seed).shuffle`` order.

    Fisher–Yates with the draws CPython's ``shuffle`` makes through
    ``_randbelow_with_getrandbits`` (3.10 and 3.11): for each i from the
    last index down to 1, ``getrandbits((i + 1).bit_length())`` until the
    draw is at most i.  Made here without ``shuffle``'s call per draw.
    """
    pairs = list(combinations(range(n), 2))
    getrandbits = random.Random(seed).getrandbits
    for i in range(len(pairs) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    return pairs


def random_saturated(n: int, s: int, seed: int) -> Graph:
    """A maximal K_s-free (hence K_s-saturated) graph by greedy completion.

    Visits all vertex pairs in ``random.Random(seed).shuffle`` order of the
    lexicographic pair list, drawn as CPython's ``shuffle`` draws it, and
    inserts each edge unless its insertion would complete an s-clique, i.e.
    unless the current common neighborhood of the endpoints contains
    K_{s-2}.  At s = 3 any common neighbor is that K_1, so no clique
    search runs; at s >= 4 the size-(s-2) test does.  Deterministic for a
    given seed; two digests in the tests pin the rows, and a test pins the
    order against ``shuffle`` itself.
    """
    if n < 1:
        raise ParameterError("vertex count must be positive")
    if n > MAX_VERTICES:
        raise ParameterError(f"vertex count {n} exceeds {MAX_VERTICES}")
    if s < 3:
        raise ParameterError("clique order must be at least 3")
    rows = [0] * n
    for u, v in _shuffled_pairs(n, seed):
        cand = rows[u] & rows[v]
        if not cand or s > 3 and not _has_clique(rows, cand, s - 2):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph._unchecked(n, rows)


@dataclass(frozen=True)
class ProbeRow:
    """One row of a conjecture probe: sampled minimum vs split-graph count."""

    n: int
    s: int
    k: int
    samples: int
    sampled_min: int
    split_count: int
    sampled_min_ge_split: bool


def probe_conjecture(
    n_range: Iterable[int], s: int, k: int, samples: int, seed: int
) -> list[ProbeRow]:
    """Sampled minima of the k-matching count over saturated graphs, per n.

    The split-graph column is computed with the generic matching DP, not
    the closed form or the k <= 3 identities, so the table doubles as a
    cross-check.  The sampled minimum is only an upper-bound estimate of
    the true minimum; whether it still reaches the split value is
    recorded, not asserted, since the equality is an asymptotic statement.
    """
    if k < 2:
        raise ParameterError("matching size must be at least 2")
    if s < 3:
        raise ParameterError("clique order must be at least 3")
    if samples < 1:
        raise ParameterError("need at least one sample")
    out = []
    for n in n_range:
        if n < s:
            raise ParameterError(f"need n >= s in the probe range, got n={n}")
        counts = []
        for i in range(samples):
            g = random_saturated(n, s, seed * 1_000_003 + n * 1_009 + i)
            counts.append(count_matchings(g, k))
        sampled_min = min(counts)
        assert sampled_min >= 0
        split_count = _count_matchings_dp(make_split(n, s - 2), k)
        out.append(
            ProbeRow(
                n=n,
                s=s,
                k=k,
                samples=samples,
                sampled_min=sampled_min,
                split_count=split_count,
                sampled_min_ge_split=sampled_min >= split_count,
            )
        )
    return out
