import io
import json

import pytest

from satlab import (
    Graph,
    canonical_certificate,
    count_cliques,
    from_graph6,
    make_split,
    matchings_in_split_exact,
    sat_cliques_formula,
    to_graph6,
)
from satlab.cli import main
from oracles import random_permutation


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def g6(graph):
    return to_graph6(graph).decode("ascii")


class TestConstruct:
    def test_split_star(self, capsys):
        code, out, _ = run(capsys, ["construct", "--split", "5", "1"])
        assert code == 0
        assert out.strip() == g6(make_split(5, 1))

    def test_split_6_2_has_nine_edges(self, capsys):
        code, out, _ = run(capsys, ["construct", "--split", "6", "2"])
        assert code == 0
        assert from_graph6(out.strip()).edge_count == 9

    def test_complete(self, capsys):
        code, out, _ = run(capsys, ["construct", "--complete", "4"])
        assert code == 0
        assert from_graph6(out.strip()) == Graph.complete(4)

    def test_empty(self, capsys):
        code, out, _ = run(capsys, ["construct", "--empty", "3"])
        assert code == 0
        assert from_graph6(out.strip()) == Graph.empty(3)

    def test_bad_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, ["construct", "--split", "4", "9"])
        assert code == 2
        assert err

    # exit 1 would claim an asserted verification row failed
    def test_negative_complete_is_input_error(self, capsys):
        code, out, err = run(capsys, ["construct", "--complete", "-1"])
        assert (code, out) == (2, "")
        assert err.startswith("input error: vertex count -1 outside 0..512")


class TestCheck:
    def test_saturated_split_exits_zero(self, capsys, monkeypatch):
        line = g6(make_split(7, 2))
        code, out, _ = run(capsys, ["check", "--s", "4"], stdin=line, monkeypatch=monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["is_saturated"] is True and report["n"] == 7

    def test_unsaturated_path_exits_three(self, capsys, monkeypatch):
        p4 = g6(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        code, out, _ = run(capsys, ["check", "--s", "3"], stdin=p4, monkeypatch=monkeypatch)
        assert code == 3
        assert json.loads(out)["missing_edge_failures"] == [[0, 3]]

    def test_garbage_exits_two(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["check", "--s", "3"], stdin="!!notgraph6!!\n", monkeypatch=monkeypatch)
        assert code == 2
        assert err

    def test_empty_input_exits_two(self, capsys, monkeypatch):
        code, _, _ = run(capsys, ["check", "--s", "3"], stdin="\n\n", monkeypatch=monkeypatch)
        assert code == 2

    def test_header_line_tolerated(self, capsys, monkeypatch):
        line = ">>graph6<<" + g6(make_split(6, 1))
        code, out, _ = run(capsys, ["check", "--s", "3"], stdin=line, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["is_saturated"] is True

    def test_table_format(self, capsys, monkeypatch):
        line = g6(make_split(6, 1))
        code, out, _ = run(
            capsys, ["check", "--s", "3", "--format", "table"], stdin=line, monkeypatch=monkeypatch
        )
        assert code == 0 and "saturated" in out

    def test_multiple_graphs_any_failure_wins(self, capsys, monkeypatch):
        lines = g6(make_split(6, 1)) + "\n" + g6(Graph.empty(4))
        code, out, _ = run(capsys, ["check", "--s", "3"], stdin=lines, monkeypatch=monkeypatch)
        assert code == 3
        assert len(out.strip().splitlines()) == 2

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text(g6(make_split(8, 2)) + "\n")
        code, out, _ = run(capsys, ["check", "--s", "4", str(path)])
        assert code == 0

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, ["check", "--s", "4", "/nonexistent/file.g6"])
        assert code == 2
        path = tmp_path / "graphs.g6"
        path.write_bytes("Bé\n".encode("utf-8"))
        code, out, err = run(capsys, ["check", "--s", "4", str(path)])
        assert code == 2
        assert out == ""
        assert "input error: input is not ASCII" in err


class TestCount:
    def test_k4_matchings(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["count", "--motif", "matching:2"], stdin=g6(Graph.complete(4)), monkeypatch=monkeypatch
        )
        assert code == 0 and out.strip() == "3"

    def test_split_zero_regime(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["count", "--motif", "matching:3"], stdin=g6(make_split(10, 2)), monkeypatch=monkeypatch
        )
        assert code == 0 and out.strip() == "0"

    def test_split_cliques_match_formula(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["count", "--motif", "clique:3"], stdin=g6(make_split(10, 4)), monkeypatch=monkeypatch
        )
        assert code == 0
        assert int(out.strip()) == sat_cliques_formula(10, 3, 6) == count_cliques(make_split(10, 4), 3)

    def test_relabeled_split_matchings_match_closed_form(self, capsys, tmp_path):
        # k = 4 takes the memoized DP; q >= 4 makes the counts nonzero
        shapes = [(12, 4), (65, 6), (128, 5), (70, 2)]
        path = tmp_path / "splits.g6"
        path.write_text(
            "".join(g6(make_split(n, q).relabel(random_permutation(n, n + q))) + "\n" for n, q in shapes)
        )
        code, out, _ = run(capsys, ["count", "--motif", "matching:4", str(path)])
        assert code == 0
        assert out.split() == [str(matchings_in_split_exact(n, q + 2, 4)) for n, q in shapes]

    def test_one_line_per_graph(self, capsys, monkeypatch):
        lines = g6(Graph.complete(4)) + "\n" + g6(Graph.empty(4))
        code, out, _ = run(capsys, ["count", "--motif", "clique:2"], stdin=lines, monkeypatch=monkeypatch)
        assert code == 0 and out.split() == ["6", "0"]

    def test_bad_motif_exits_two(self, capsys, monkeypatch):
        code, _, _ = run(capsys, ["count", "--motif", "walks:2"], stdin="C~", monkeypatch=monkeypatch)
        assert code == 2
        code, _, _ = run(capsys, ["count", "--motif", "matching"], stdin="C~", monkeypatch=monkeypatch)
        assert code == 2


class TestSearch:
    def test_known_result_and_schema(self, capsys):
        code, out, _ = run(capsys, ["search", "--n", "6", "--s", "3", "--motif", "matching:2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["optimum"] == "0"
        assert doc["unique"] is True
        assert doc["motif"] == {"kind": "matching", "size": 2}
        assert doc["classes"] == 4
        assert sum(doc["histogram"].values()) == doc["classes"]
        assert doc["extremal"] == [str(canonical_certificate(make_split(6, 1)))]
        decoded = from_graph6(doc["extremal"][0])
        assert decoded.n == 6

    def test_budget_exit_five(self, capsys):
        code, _, err = run(capsys, ["search", "--n", "9", "--s", "3", "--motif", "matching:2"])
        assert code == 5
        assert "cap" in err

    def test_removed_knobs_ignored_or_rejected(self, capsys, monkeypatch):
        argv = ["search", "--n", "5", "--s", "3", "--motif", "matching:2"]
        code, base, _ = run(capsys, argv)
        monkeypatch.setenv("SATLAB_SHARDS", "junk")
        code2, out, _ = run(capsys, argv)
        assert code == code2 == 0
        assert out == base
        for removed in (argv + ["--shards", "1"], ["--seed", "3", "construct", "--empty", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(removed)
            assert exc.value.code == 2

    @pytest.mark.parametrize("limit", ["0", "-1", "nan"])
    def test_bad_time_limit_exits_two(self, capsys, limit):
        code, _, err = run(
            capsys, ["search", "--n", "5", "--s", "3", "--motif", "matching:2", "--time-limit", limit]
        )
        assert code == 2
        assert "time limit" in err

    def test_repeat_runs_byte_identical(self, capsys):
        _, first, _ = run(capsys, ["search", "--n", "6", "--s", "3", "--motif", "indepset:2"])
        _, second, _ = run(capsys, ["search", "--n", "6", "--s", "3", "--motif", "indepset:2"])
        assert first == second


class TestVerify:
    def test_min_edges_rows_asserted_green(self, capsys):
        code, out, _ = run(capsys, ["verify", "--theorem", "ehm", "--n-range", "4..7", "--s", "3"])
        assert code == 0
        # reference column is n-1 for s=3
        for row_n, line in zip(range(4, 8), out.strip().splitlines()[1:]):
            cells = line.split()
            assert cells[0] == str(row_n)
            assert cells[2] == str(row_n - 1) == cells[3]

    def test_star_uniqueness_rows_asserted_green(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--theorem", "main", "--n-range", "4..7", "--s", "3", "--k", "2", "--format", "json"],
        )
        assert code == 0
        for line in out.strip().splitlines():
            row = json.loads(line)
            assert row["optimum"] == "0"
            assert row["unique_split_extremal"] is True
            assert row["asserted"] is True

    def test_clique_mode_report_only(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--theorem", "cliques", "--n-range", "6..7", "--s", "4", "--r", "3", "--format", "json"],
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        for row in rows:
            assert row["asserted"] is False
            assert int(row["optimum"]) <= int(row["reference"])

    def test_main_mode_s4_report_only(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--theorem", "main", "--n-range", "6..7", "--s", "4", "--k", "2", "--format", "json"],
        )
        assert code == 0
        for line in out.strip().splitlines():
            assert json.loads(line)["asserted"] is False

    def test_missing_k_exits_two(self, capsys):
        code, _, _ = run(capsys, ["verify", "--theorem", "main", "--n-range", "4..5", "--s", "3"])
        assert code == 2
        code, out, err = run(capsys, ["verify", "--theorem", "cliques", "--n-range", "4..5", "--s", "3"])
        assert code == 2
        assert out == ""
        assert "input error: --r is required for --theorem cliques" in err

    def test_bad_range_exits_two(self, capsys):
        code, _, _ = run(capsys, ["verify", "--theorem", "ehm", "--n-range", "4-8", "--s", "3"])
        assert code == 2
        code, out, err = run(capsys, ["verify", "--theorem", "ehm", "--n-range", "x..8", "--s", "3"])
        assert code == 2
        assert out == ""
        assert "input error: bad range 'x..8'" in err

    def test_empty_range_exits_two(self, capsys):
        code, out, err = run(capsys, ["verify", "--theorem", "ehm", "--n-range", "8..4", "--s", "3"])
        assert code == 2
        assert out == ""
        assert "empty range" in err

    def test_budget_exit_five(self, capsys):
        code, _, _ = run(capsys, ["verify", "--theorem", "ehm", "--n-range", "8..9", "--s", "3"])
        assert code == 5
