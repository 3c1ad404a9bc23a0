"""Each check in perfbench.checks accepts right answers and rejects wrong ones.

    python3 -m pytest perfbench -q

Not part of the repository's test suite (pytest's testpaths is tests/).
Correct outputs come from satlab on small inputs; each test then spoils one.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import satlab as sl  # noqa: E402

from perfbench import checks, oracle  # noqa: E402


@pytest.fixture(scope="module")
def probe():
    configs = [(n, s, seed) for n, s, seed in [(12, 3, 1), (16, 4, 2), (20, 5, 3)]]
    outputs = []
    for n, s, seed in configs:
        g = sl.random_saturated(n, s, seed)
        outputs.append((g.rows, sl.check_saturation(g, s).is_saturated, sl.count_matchings(g, 2), sl.count_matchings(g, 3)))
    return configs, outputs


def test_probe_accepts_satlab(probe):
    assert checks.check_probe(*probe) == []


@pytest.mark.parametrize("field", [2, 3])
def test_probe_rejects_a_count_off_by_one(probe, field):
    configs, outputs = probe
    for i, out in enumerate(outputs):
        spoiled = list(outputs)
        spoiled[i] = tuple(v + 1 if j == field else v for j, v in enumerate(out))
        assert checks.check_probe(configs, spoiled)


def test_probe_rejects_a_sample_with_one_edge_removed(probe):
    configs, outputs = probe
    for i, (rows, saturated, m2, m3) in enumerate(outputs):
        g = checks.rows_to_sets(len(rows), rows)
        u, v = oracle.edges_of(g)[0]
        cut = list(rows)
        cut[u] &= ~(1 << v)
        cut[v] &= ~(1 << u)
        spoiled = list(outputs)
        spoiled[i] = (tuple(cut), saturated, m2, m3)
        assert any("not K_s-saturated" in e for e in checks.check_probe(configs, spoiled))


@pytest.fixture(scope="module")
def certify():
    rng = random.Random(5)
    bases = [oracle.greedy_saturated(20, 4, rng), oracle.gnp(24, 0.3, rng), oracle.split_graph(9, 2), oracle.perfect_matching(10)]
    graphs = []
    for pair, g in enumerate(bases):
        perm = list(range(len(g)))
        rng.shuffle(perm)
        graphs += [("t", pair, g), ("t", pair, oracle.relabel(g, perm))]
    certs = [sl.canonical_certificate(sl.from_graph6(oracle.to_graph6(g))).data for _, _, g in graphs]
    return graphs, certs


def test_certify_accepts_satlab(certify):
    assert checks.check_certify(*certify) == []


def test_certify_rejects_a_certificate_from_another_class(certify):
    graphs, certs = certify
    for i in range(len(certs)):
        spoiled = list(certs)
        spoiled[i] = certs[(i + 2) % len(certs)]
        assert checks.check_certify(graphs, spoiled)


def test_certify_rejects_equal_certificates_for_different_invariants(certify):
    graphs, certs = certify
    spoiled = [certs[0]] * len(certs)
    assert any("different invariants" in e for e in checks.check_certify(graphs, spoiled))


def _cli_case():
    g = oracle.greedy_saturated(12, 4, random.Random(1))
    g6 = oracle.to_graph6_networkx(oracle.split_graph(14, 2))
    commands = [
        ("construct", ["construct"], g6),
        ("count", ["count"], [oracle.m2_by_degrees(g)]),
        ("check", ["check"], [0]),
        ("search", ["search"], 6),
        ("verify", ["verify"], 4),
    ]
    star = sl.canonical_certificate(sl.make_split(6, 1))
    rows = [{"n": n, "optimum": str(oracle.sat_edges(n, 4)), "ok": True} for n in (4, 5, 6)]
    outputs = [
        (0, g6 + b"\n"),
        (0, f"{oracle.m2_by_degrees(g)}\n".encode()),
        (0, json.dumps({"missing_edge_failures": [], "is_saturated": True}).encode() + b"\n"),
        (0, json.dumps({"optimum": "0", "extremal": [str(star)]}).encode()),
        (0, b"".join(json.dumps(r).encode() + b"\n" for r in rows)),
    ]
    return commands, outputs


def test_cli_accepts_right_outputs():
    assert checks.check_cli(*_cli_case()) == []


@pytest.mark.parametrize(
    "index, output",
    [
        (0, (0, oracle.to_graph6_networkx(oracle.split_graph(14, 3)) + b"\n")),
        (1, None),  # filled in below: the count off by one
        (2, (0, json.dumps({"missing_edge_failures": [[0, 1]], "is_saturated": False}).encode())),
        (3, (0, json.dumps({"optimum": "1", "extremal": ["E?Bw"]}).encode())),
        (4, (0, json.dumps({"n": 4, "optimum": "6", "ok": True}).encode())),
        (4, (1, b"")),
    ],
)
def test_cli_rejects_a_wrong_output(index, output):
    commands, outputs = _cli_case()
    if output is None:
        output = (0, f"{int(outputs[1][1]) + 1}\n".encode())
    outputs[index] = output
    assert checks.check_cli(commands, outputs)


def test_cli_rejects_a_search_extremal_from_another_class():
    commands, outputs = _cli_case()
    other = sl.canonical_certificate(sl.make_split(6, 2))
    outputs[3] = (0, json.dumps({"optimum": "0", "extremal": [str(other)]}).encode())
    assert checks.check_cli(commands, outputs)


def test_oracle_counts_agree_with_brute_force():
    rng = random.Random(2)
    for _ in range(20):
        g = oracle.gnp(rng.randrange(4, 11), rng.random(), rng)
        assert oracle.m2_by_degrees(g) == oracle.count_matchings_brute(g, 2)
        assert oracle.m3_by_edges(g) == oracle.count_matchings_brute(g, 3)


def test_oracle_graph6_matches_networkx():
    rng = random.Random(3)
    for n in (0, 1, 2, 7, 62, 63, 100):
        g = oracle.gnp(n, 0.3, rng)
        assert oracle.to_graph6(g) == oracle.to_graph6_networkx(g)
        assert oracle.sets_from_graph6(oracle.to_graph6(g)) == g


def test_greedy_samples_are_saturated():
    rng = random.Random(4)
    for s in (3, 4, 5):
        assert oracle.is_saturated(oracle.greedy_saturated(30, s, rng), s)
