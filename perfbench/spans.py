"""Spans around the calls into satlab's layers, kept in memory.

``instrument`` replaces each public function of a layer module with a timing
wrapper wherever another module (or the ``satlab`` package namespace, through
which the benchmark calls) refers to it by name.  Calls a module makes to its
own functions stay unwrapped, so one span is one call across a layer boundary.
``Graph.relabel`` and ``Graph.__post_init__`` (validation) are wrapped on the
class, since other layers reach them as methods.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("graphs", "canonical", "saturation", "counting", "search")

# Which positional argument a span records: the k of a matching count.
ARG_POSITION = {"counting.count_matchings": 1}


class Tracer:
    """Spans as parallel arrays: name, argument, start, end, parent, op."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.arg = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int, arg: int = -1) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.arg.append(arg)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, arg: int = -1):
        idx = self.open(self.name_id(name), arg)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        pos = ARG_POSITION.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid, args[pos] if pos is not None and len(args) > pos else -1)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def write(self, path) -> None:
        """One line per span: id, parent, op, name, arg, start and end in µs."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\targ\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.arg[i]}\t{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )


def instrument(tracer: Tracer, package) -> None:
    """Route every cross-layer call to a public satlab function through a span."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    wrapped: dict[int, tuple[str, object]] = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (
                attr.startswith("_")
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != mod.__name__
                or inspect.isgeneratorfunction(obj)
            ):
                continue
            wrapped[id(obj)] = (layer, tracer.wrap(f"{layer}.{attr}", obj))
    for owner, namespace in [(layer, vars(mod)) for layer, mod in modules.items()] + [
        (None, vars(package))
    ]:
        for attr, obj in list(namespace.items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] != owner:
                namespace[attr] = hit[1]
    graph = modules["graphs"].Graph
    graph.relabel = tracer.wrap("graphs.relabel", graph.relabel)
    graph.__post_init__ = tracer.wrap("graphs.validate", graph.__post_init__)


CLI_SUBCOMMANDS = ("construct", "check", "count", "search", "verify")


def per_layer_metrics(tracer: Tracer, op_family: list[str], ops_per_round: int, extra: dict) -> dict:
    """Per-layer figures from the spans of one traced run.

    Medians are over spans.  A figure whose spans the workload never
    opens reads 0.  ``extra`` holds figures measured outside the spans."""
    names = tracer.names
    self_time = tracer.self_times()
    rounds = len(op_family) // ops_per_round
    by_name: dict[str, list[int]] = {}
    for i, nid in enumerate(tracer.name):
        by_name.setdefault(names[nid], []).append(i)

    def select(name, arg=None, family=None):
        return [
            i
            for i in by_name.get(name, ())
            if tracer.op[i] >= 0
            and (arg is None or tracer.arg[i] == arg)
            and (family is None or op_family[tracer.op[i]] == family)
        ]

    def median(values):
        return statistics.median(values) if values else 0.0

    def span_ms(name, arg=None, family=None, own=False):
        return median([(self_time[i] if own else tracer.end[i] - tracer.start[i]) * 1e3 for i in select(name, arg, family)])

    layer_self: dict[str, float] = {}
    for i, nid in enumerate(tracer.name):
        if tracer.op[i] >= 0:
            layer = names[nid].split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_time[i]

    metrics = {
        "search.random_saturated_ms": span_ms("search.random_saturated"),
        "saturation.check_ms": span_ms("saturation.check_saturation"),
        "counting.matchings_k2_ms": span_ms("counting.count_matchings", arg=2),
        "counting.matchings_k3_ms": span_ms("counting.count_matchings", arg=3),
        "graphs.from_graph6_ms": span_ms("graphs.from_graph6", family="asym"),
        "canonical.labeling_asym_ms": span_ms("canonical.canonical_certificate", family="asym", own=True),
        "graphs.relabel_ms": span_ms("graphs.relabel", family="asym"),
        "graphs.to_graph6_ms": span_ms("graphs.to_graph6", family="asym"),
        "canonical.labeling_sym_ms": span_ms("canonical.canonical_certificate", family="sym", own=True),
        "canonical.generators_sym": extra.get("canonical.generators_sym", 0),
        "cli.import_ms": extra.get("cli.import_ms", 0.0),
        "cli.import_networkx_ms": extra.get("cli.import_networkx_ms", 0.0),
    }
    metrics.update({f"cli.command_{sub}_ms": span_ms(f"cli.{sub}") for sub in CLI_SUBCOMMANDS})
    metrics.update(
        {f"self.{layer}_ms": layer_self.get(layer, 0.0) / rounds * 1e3 for layer in LAYERS + ("cli", "bench")}
    )
    return metrics
