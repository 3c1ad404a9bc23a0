"""Command-line front end.

Graphs travel as graph6, one per line; a leading ">>graph6<<" header is
tolerated and stripped.  Results go to stdout, diagnostics to stderr.

Exit codes:
  0  success (for ``check``: every input graph is saturated)
  1  an asserted verification row failed
  2  malformed input or bad parameters
  3  ``check`` found an unsaturated graph
  5  search budget exceeded (n above the exhaustive cap, or timeout)
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formulas
from .canonical import canonical_certificate
from .counting import MotifSpec, count_matchings, count_motif
from .errors import BudgetError, Graph6Error, ParameterError
from .graphs import Graph, from_graph6, make_split, to_graph6
from .saturation import check_saturation
from .search import SearchBudget, extremal_count

EXIT_OK = 0
EXIT_ASSERT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNSATURATED = 3
EXIT_BUDGET = 5

GRAPH6_HEADER = ">>graph6<<"


def _read_graphs(path: str | None) -> list[Graph]:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise Graph6Error(f"input is not ASCII: {exc}") from exc
    graphs = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith(GRAPH6_HEADER):
            line = line[len(GRAPH6_HEADER) :].strip()
        if not line:
            continue
        graphs.append(from_graph6(line))
    if not graphs:
        raise Graph6Error("no graphs in input")
    return graphs


def _parse_motif(text: str) -> MotifSpec:
    kind, sep, size = text.partition(":")
    if not sep:
        raise ParameterError(f"motif must look like matching:2, got {text!r}")
    try:
        return MotifSpec(kind, int(size))
    except ValueError as exc:
        raise ParameterError(f"bad motif {text!r}: {exc}") from exc


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ParameterError(f"range must look like 4..8, got {text!r}")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise ParameterError(f"bad range {text!r}") from exc
    if lo > hi:
        raise ParameterError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _dump(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def cmd_construct(args: argparse.Namespace) -> int:
    if args.split is not None:
        g = make_split(args.split[0], args.split[1])
    elif args.complete is not None:
        g = Graph.complete(args.complete)
    else:
        g = Graph.empty(args.empty)
    sys.stdout.write(to_graph6(g).decode("ascii") + "\n")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    reports = [check_saturation(g, args.s) for g in _read_graphs(args.input)]
    for report in reports:
        if args.format == "table":
            status = "saturated" if report.is_saturated else "NOT saturated"
            extra = " (vacuous)" if report.vacuous else ""
            sys.stdout.write(
                f"n={report.n} s={report.s} {status}{extra} "
                f"free={report.is_free} failures={len(report.missing_edge_failures)}\n"
            )
        else:
            _dump(report.to_json_dict())
    return EXIT_OK if all(r.is_saturated for r in reports) else EXIT_UNSATURATED


def cmd_count(args: argparse.Namespace) -> int:
    motif = _parse_motif(args.motif)
    for g in _read_graphs(args.input):
        sys.stdout.write(f"{count_motif(g, motif)}\n")
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    budget = SearchBudget(time_limit=args.time_limit)
    result = extremal_count(args.n, args.s, _parse_motif(args.motif), args.mode, budget)
    _dump(result.to_json_dict())
    return EXIT_OK


def _verify_rows(args: argparse.Namespace) -> list[dict]:
    rows = []
    for n in _parse_range(args.n_range):
        s = args.s
        split_cert = canonical_certificate(make_split(n, s - 2))
        if args.theorem == "ehm":
            motif = MotifSpec("clique", 2)
            reference = formulas.sat_edges_formula(n, s)
            asserted = True
        elif args.theorem == "cliques":
            if args.r is None:
                raise ParameterError("--r is required for --theorem cliques")
            motif = MotifSpec("clique", args.r)
            reference = formulas.sat_cliques_formula(n, args.r, s)
            asserted = False
        else:
            if args.k is None:
                raise ParameterError("--k is required for --theorem main")
            motif = MotifSpec("matching", args.k)
            reference = count_matchings(make_split(n, s - 2), args.k)
            asserted = s == 3 and args.k == 2
        result = extremal_count(n, s, motif, "min")
        equal = result.optimum == reference
        unique_split = result.extremal == (split_cert,)
        # every search space contains the split graph, so min <= reference
        membership_ok = result.optimum <= reference
        rows.append(
            {
                "n": n,
                "s": s,
                "motif": str(motif),
                "reference": str(reference),
                "optimum": str(result.optimum),
                "equal": equal,
                "unique_split_extremal": unique_split,
                "asserted": asserted,
                "ok": (equal and unique_split) if asserted else membership_ok,
            }
        )
    return rows


def cmd_verify(args: argparse.Namespace) -> int:
    rows = _verify_rows(args)
    if args.format == "json":
        for row in rows:
            _dump(row)
    else:
        header = f"{'n':>3} {'motif':>12} {'reference':>12} {'optimum':>12} {'equal':>6} {'unique':>7} {'asserted':>9}"
        sys.stdout.write(header + "\n")
        for row in rows:
            sys.stdout.write(
                f"{row['n']:>3} {row['motif']:>12} {row['reference']:>12} "
                f"{row['optimum']:>12} {str(row['equal']):>6} "
                f"{str(row['unique_split_extremal']):>7} {str(row['asserted']):>9}\n"
            )
    return EXIT_OK if all(row["ok"] for row in rows) else EXIT_ASSERT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satlab",
        description="Constructions, saturation checks, exact motif counts, and extremal search.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="emit a named construction as graph6")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--split", nargs=2, type=int, metavar=("N", "Q"))
    group.add_argument("--complete", type=int, metavar="N")
    group.add_argument("--empty", type=int, metavar="N")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="saturation report for each input graph")
    p.add_argument("--s", type=int, required=True, help="clique order of the target")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("input", nargs="?", help="graph6 file (default stdin)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("count", help="exact motif count for each input graph")
    p.add_argument("--motif", required=True, help="matching:K | clique:R | indepset:L")
    p.add_argument("input", nargs="?", help="graph6 file (default stdin)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("search", help="extremal motif count over all saturated classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--motif", required=True)
    p.add_argument("--mode", choices=("min", "max"), default="min")
    p.add_argument("--time-limit", type=float, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="compare enumerated optima against the formulas")
    p.add_argument("--theorem", choices=("ehm", "cliques", "main"), required=True)
    p.add_argument("--n-range", required=True, help="inclusive range, e.g. 4..8")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParameterError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
