"""The three workloads: their seeded inputs, their ops and how outputs are read.

A workload builds every input in its constructor (set-up) and exposes one
round of ops as ``(family, callable)``.  The timed loop repeats that round,
so every run attempts whole rounds of identical ops.  ``record`` turns a raw
output into plain data for ``checks``.

``tail_pct`` is the op-time percentile reported as op_tail_ms.  With
``min_rounds`` rounds at least ten ops lie beyond it, and both it and the
median fall inside a group of ops of similar cost (README.md gives the
groups).  satlab functions are looked up on the package at call time, so a
traced run goes through the span wrappers.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import subprocess
import sys
from contextlib import nullcontext

import satlab as sl

from . import checks, oracle


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class Workload:
    """Defaults: raw outputs are plain data, the work runs in this process,
    and a traced run measures nothing outside the spans."""

    tracer = None  # set for a traced run

    def record(self, out):
        return out

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def trace_extras(self) -> dict:
        return {}


class Probe(Workload):
    """Seeded saturated samples at n in {32, 48, 64}, s in {3, 4, 5}.

    Samples per (n, s) pair are weighted so that the median falls in the
    middle of the (48, 3) group, whose cost is ~1.9 times the group below
    and ~2.4 times cheaper than the one above (twelve samples cost less and
    fourteen more), and p92 in the middle of the slowest group, (64, 5).
    A few samples of a group cost far more than the rest ((48, 3): 30 to
    56 ms), so the two groups the metrics rest on hold twelve and six
    samples, and their medians hang less on how many such samples a seed
    draws."""

    name = "probe"
    tail_pct = 0.92  # 38 ops a round; (64, 5) is the top 15.8 %
    min_rounds = 5
    SAMPLES = {(32, 3): 4, (32, 4): 4, (32, 5): 4, (48, 3): 12, (48, 4): 2, (48, 5): 2, (64, 3): 2, (64, 4): 2, (64, 5): 6}

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.configs = [(n, s, rng.randrange(2**31)) for (n, s), count in self.SAMPLES.items() for _ in range(count)]
        rng.shuffle(self.configs)
        self.ops = [(f"{n}/{s}", self._op(n, s, sample)) for n, s, sample in self.configs]

    @staticmethod
    def _op(n, s, seed):
        def op():
            g = sl.random_saturated(n, s, seed)
            report = sl.check_saturation(g, s)
            return g, report, sl.count_matchings(g, 2), sl.count_matchings(g, 3)

        return op

    def digest(self) -> str:
        return _digest(self.configs)

    def record(self, out):
        g, report, m2, m3 = out
        return g.rows, report.is_saturated, m2, m3

    def check(self, outputs) -> list[str]:
        return checks.check_probe(self.configs, outputs)


class Certify(Workload):
    """A graph6 stream through from_graph6 and canonical_certificate.  Each
    input comes with a seeded relabelled copy: 24 generic graphs (greedy
    saturated and G(n,p), n in {32, 64, 96, 128}) and 7 symmetric ones.

    Twenty-four ops cost less than the n = 96 generic graphs and twenty-six
    more, so the median falls among them.  The slowest group is the empty
    graph and the complete graph on 15 vertices with their copies: relabelling
    leaves both unchanged, so their search costs the same on every seed, and
    it is 2.4 times the next graph's.  p97 falls in its middle."""

    name = "certify"
    tail_pct = 0.97  # 62 ops a round: 1.86 rounds' worth of ops beyond, inside the top group
    min_rounds = 6

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        bases = []
        for n in (32, 64, 96, 128):
            bases += [("asym", oracle.greedy_saturated(n, s, rng)) for s in (3, 4, 5)]
            bases += [("asym", oracle.gnp(n, p, rng)) for p in (0.2, 0.35, 0.5)]
        # S_{14,s-2} for s = 3, 4, 5, a perfect matching, disjoint triangles,
        # the empty graph and K_15 (one clique): 40-240 ms each, far above
        # the generic graphs, whose certificates take 1-20 ms.
        symmetric = [oracle.split_graph(14, q) for q in (1, 2, 3)]
        symmetric += [oracle.perfect_matching(16), oracle.disjoint_cliques(18, 3)]
        symmetric += [oracle.sets_from_edges(15, []), oracle.disjoint_cliques(15, 15)]
        bases += [("sym", g) for g in symmetric]
        self.graphs = []
        for pair, (family, g) in enumerate(bases):
            perm = list(range(len(g)))
            rng.shuffle(perm)
            self.graphs += [(family, pair, g), (family, pair, oracle.relabel(g, perm))]
        rng.shuffle(self.graphs)
        self.stream = [oracle.to_graph6(g) for _, _, g in self.graphs]
        self.ops = [(family, self._op(data)) for (family, _, _), data in zip(self.graphs, self.stream)]

    @staticmethod
    def _op(data):
        return lambda: sl.canonical_certificate(sl.from_graph6(data))

    def digest(self) -> str:
        return _digest(self.stream)

    def record(self, out):
        return out.data

    def check(self, outputs) -> list[str]:
        return checks.check_certify(self.graphs, outputs)

    def trace_extras(self) -> dict:
        """Automorphism generators the search keeps, summed over one graph of
        each symmetric pair."""
        firsts = {}
        for (family, pair, _), data in zip(self.graphs, self.stream):
            if family == "sym":
                firsts.setdefault(pair, data)
        return {"canonical.generators_sym": sum(len(sl.automorphism_generators(sl.from_graph6(d))) for d in firsts.values())}


class Cli(Workload):
    """One round runs construct, check, count, search --n 6 and verify
    --n-range 4..6 as subprocesses, one at a time, in a seeded order."""

    name = "cli"
    tail_pct = 0.80  # 5 ops a round; search and verify are the slowest 40 %, p80 their middle
    min_rounds = 10

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.dirname(sl.__path__[0])), PYTHONHASHSEED="0")
        n, q = rng.randrange(10, 41), rng.randrange(1, 4)
        s, k = rng.randrange(3, 5), rng.randrange(2, 4)
        graphs = [oracle.greedy_saturated(rng.randrange(10, 17), s, rng) for _ in range(3)]
        self.workdir = workdir
        path = "graphs.g6"  # subprocesses run in workdir
        with open(os.path.join(workdir, path), "wb") as fh:
            fh.write(b">>graph6<<" + b"\n".join(oracle.to_graph6(g) for g in graphs) + b"\n")
        count = oracle.m2_by_degrees if k == 2 else oracle.m3_by_edges
        self.commands = [
            ("construct", ["construct", "--split", str(n), str(q)], oracle.to_graph6_networkx(oracle.split_graph(n, q))),
            ("check", ["check", "--s", str(s), path], [oracle.saturation_failures(g, s) for g in graphs]),
            ("count", ["count", "--motif", f"matching:{k}", path], [count(g) for g in graphs]),
            ("search", ["search", "--n", "6", "--s", "3", "--motif", "matching:2"], 6),
            ("verify", ["verify", "--theorem", "ehm", "--n-range", "4..6", "--s", str(s), "--format", "json"], s),
        ]
        rng.shuffle(self.commands)
        self.ops = [(sub, self._op(argv)) for sub, argv, _ in self.commands]
        self.peak_child_kb = 0

    def _op(self, argv):
        return lambda: self.run(argv)

    def run(self, argv: list[str]) -> tuple[int, bytes]:
        """Run ``satlab <argv>``; wait4 gives the peak memory of this child."""
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else nullcontext()
        with span:
            proc = subprocess.Popen(
                [sys.executable, "-m", "satlab.cli", *argv], cwd=self.workdir,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env,
            )
            with proc.stdout, proc.stderr:
                out = proc.stdout.read()
                proc.stderr.read()
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return proc.returncode, out

    def digest(self) -> str:
        return _digest(self.commands)

    def check(self, outputs) -> list[str]:
        return checks.check_cli(self.commands, outputs)

    def peak_rss_kb(self) -> int:
        return self.peak_child_kb

    def trace_extras(self) -> dict:
        """Median cumulative import times of satlab.cli and networkx over
        three -X importtime runs."""
        cli, nx_ = [], []
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import satlab.cli"],
                env=self.env, capture_output=True, text=True, check=True,
            )
            cumulative = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative[parts[2].strip()] = int(parts[1]) / 1000
            cli.append(cumulative["satlab.cli"])
            nx_.append(cumulative["networkx"])
        return {"cli.import_ms": sorted(cli)[1], "cli.import_networkx_ms": sorted(nx_)[1]}


WORKLOADS = {w.name: w for w in (Probe, Certify, Cli)}
