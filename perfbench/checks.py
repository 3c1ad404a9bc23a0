"""Checks of satlab's outputs against the reference computations in oracle.

Each function takes a workload's inputs and the program's outputs as plain
data and returns a list of mismatches; an empty list means every output was
right.  They run after the timed phase and count in no metric.
"""

from __future__ import annotations

import json

from . import oracle


def rows_to_sets(n: int, rows: tuple[int, ...]) -> list[set[int]]:
    """Adjacency sets from satlab's bitset rows, decoded bit by bit."""
    return [{u for u in range(n) if (rows[v] >> u) & 1} for v in range(n)]


def check_probe(configs, outputs) -> list[str]:
    """configs: (n, s, seed); outputs: (rows, is_saturated, m2, m3)."""
    errors = []
    for (n, s, seed), out in zip(configs, outputs, strict=True):
        if out is None:
            continue
        rows, saturated, m2, m3 = out
        where = f"probe n={n} s={s} seed={seed}"
        g = rows_to_sets(n, rows) if len(rows) == n else None
        if g is None or any(u in g[v] for v in range(n) for u in g[v] if v not in g[u]):
            errors.append(f"{where}: the sample is not a simple graph on n vertices")
            continue
        if not saturated or not oracle.is_saturated(g, s):
            errors.append(f"{where}: the sample is not K_s-saturated")
        if m2 != oracle.m2_by_degrees(g):
            errors.append(f"{where}: 2-matchings {m2} != the degree identity")
        if m3 != oracle.m3_by_edges(g):
            errors.append(f"{where}: 3-matchings {m3} != sum over edges of M2(G-u-v)/3")
    return errors


def check_certify(graphs, certificates) -> list[str]:
    """graphs: (family, pair, adjacency sets); certificates: graph6 bytes."""
    errors = []
    by_pair: dict[int, set[bytes]] = {}
    by_cert: dict[bytes, set[tuple]] = {}
    for (family, pair, g), cert in zip(graphs, certificates, strict=True):
        if cert is None:
            continue
        by_pair.setdefault(pair, set()).add(cert)
        by_cert.setdefault(cert, set()).add(oracle.invariants(g))
        if not oracle.isomorphic(oracle.sets_from_graph6(cert), g):
            errors.append(f"certify {family} pair {pair}: certificate decodes to another graph")
    errors += [f"certify pair {p}: relabelled copies got different certificates" for p, c in by_pair.items() if len(c) > 1]
    errors += [f"certify: one certificate for inputs with different invariants ({c!r})" for c, inv in by_cert.items() if len(inv) > 1]
    return errors


def check_cli(commands, outputs) -> list[str]:
    """commands: (subcommand, argv, expected); outputs: (exit code, stdout).

    ``expected`` is computed by the benchmark: graph6 bytes for construct,
    one count per input graph for count, the saturation failures per input
    graph for check, the clique order for verify, n for search."""
    errors = []
    for (sub, argv, expected), out in zip(commands, outputs, strict=True):
        if out is None:
            continue
        code, stdout = out
        where = f"cli {' '.join(argv)}"
        lines = stdout.decode("ascii", "replace").splitlines()
        if code != 0:
            errors.append(f"{where}: exit code {code}")
        elif sub == "construct":
            if stdout.strip() != expected:
                errors.append(f"{where}: output differs from networkx's graph6 encoding")
        elif sub == "count":
            if [int(x) for x in lines] != expected:
                errors.append(f"{where}: counts {lines} != {expected}")
        elif sub == "check":
            reports = [json.loads(x) for x in lines]
            got = [len(r["missing_edge_failures"]) for r in reports]
            if got != expected or any(r["is_saturated"] != (f == 0) for r, f in zip(reports, expected)):
                errors.append(f"{where}: saturation failures {got} != {expected}")
        elif sub == "search":
            out = json.loads(stdout)
            star = oracle.star(expected)
            if out["optimum"] != "0" or len(out["extremal"]) != 1 or not oracle.isomorphic(
                oracle.sets_from_graph6(out["extremal"][0].encode("ascii")), star
            ):
                errors.append(f"{where}: optimum is not 0 with the star alone")
        elif sub == "verify":
            s = expected
            rows = [json.loads(x) for x in lines]
            if not rows or any(int(r["optimum"]) != oracle.sat_edges(r["n"], s) or not r["ok"] for r in rows):
                errors.append(f"{where}: a row disagrees with (s-2)(n-s+2)+C(s-2,2)")
    return errors
