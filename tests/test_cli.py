import json
from pathlib import Path

import pytest

from gso import cli, paperchecks
from gso.cli import main
from gso.gio import graph6_encode, rooted_from_json, rooted_to_json
from gso.graphs import (
    RootedGraph,
    complete_graph,
    cycle_graph,
    doubly_rooted,
    enhance,
    k23_plus,
    path_graph,
)
from gso.simulate import Move, is_monotone, simulate, width
from gso.solvers import BudgetExceeded


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def write_inputs(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_solve_plain_graph6(tmp_path, capsys):
    inp = write_inputs(tmp_path / "in.g6", [graph6_encode(path_graph(4))])
    code, rep = run(capsys, "solve", inp, "--param", "cmms")
    assert code == 0
    assert rep["results"][0]["value"] == 1


def test_solve_rooted_jsonl_with_decision(tmp_path, capsys):
    rg = doubly_rooted(complete_graph(4), 0)
    inp = write_inputs(tmp_path / "in.jsonl", [rooted_to_json(rg)])
    code, rep = run(capsys, "solve", inp, "--param", "cmp", "-k", "2")
    assert code == 0
    entry = rep["results"][0]
    assert entry["value"] == 3 and entry["decision"] is False
    assert entry["s_in"] == [0] and entry["s_out"] == [0]


def test_solve_emits_witness_strategy(tmp_path, capsys):
    rg = RootedGraph(path_graph(4))
    inp = write_inputs(tmp_path / "in.jsonl", [rooted_to_json(rg)])
    out = tmp_path / "wit.jsonl"
    code, _ = run(
        capsys, "solve", inp, "--param", "cmp", "--emit-witness", "--out", str(out)
    )
    assert code == 0
    moves = []
    for line in out.read_text().splitlines():
        obj = json.loads(line)
        assert obj["op"] in ("p", "r", "s")
        moves.append(Move(obj["op"], obj["v"], obj.get("u")))
    host = enhance(rg).host
    t = simulate(host, moves)
    assert width(t) == 1


# mp 2 and cmp 3: the mp witness is monotone but not connected
WITNESS_RECORD = '{"g6": "E`HW", "s_in": [3], "s_out": [2]}'


@pytest.mark.parametrize("param", ["ms", "cms", "cmms", "cmp", "mp"])
def test_solve_witness_replays_at_the_reported_value(tmp_path, capsys, param):
    rg = rooted_from_json(WITNESS_RECORD)
    if param in ("cmp", "mp"):
        line, enh = WITNESS_RECORD, enhance(rg)
        host, target = enh.host, frozenset(enh.host.edges) - enh.e_out
    else:
        line, host = graph6_encode(rg.graph), rg.graph
        target = frozenset(host.edges)
    inp = write_inputs(tmp_path / "in.jsonl", [line])
    out = tmp_path / "wit.jsonl"
    code, rep = run(
        capsys, "solve", inp, "--param", param, "--emit-witness", "--out", str(out)
    )
    assert code == 0
    moves = [
        Move(obj["op"], obj["v"], obj.get("u"))
        for obj in map(json.loads, out.read_text().splitlines())
    ]
    t = simulate(host, moves)
    assert width(t) == rep["results"][0]["value"]
    assert t.final_clean == target
    assert is_monotone(t) or param == "cms"


@pytest.mark.parametrize("param", ["ms", "cms", "cmms", "cmp", "mp"])
def test_solve_writes_an_empty_strategy_as_an_empty_file(tmp_path, capsys, param):
    # K1 is cleared by no move: the witness file has no line, not a blank one
    inp = write_inputs(tmp_path / "k1.g6", ["@"])
    out = tmp_path / "wit.jsonl"
    code, rep = run(
        capsys, "solve", inp, "--param", param, "--emit-witness", "--out", str(out)
    )
    assert code == 0 and rep["results"][0]["value"] == 0
    assert out.read_text() == ""
    assert list(map(json.loads, out.read_text().splitlines())) == []


def test_solve_reads_a_60_vertex_graph6_line(tmp_path, capsys):
    # '{' = chr(63 + 60) opens the graph6 line of every 60-vertex graph
    line = graph6_encode(path_graph(60))
    assert line.startswith("{")
    inp = write_inputs(tmp_path / "p60.g6", [line])
    code, rep = run(capsys, "solve", inp, "--param", "mp")
    assert code == 0
    assert rep["results"][0]["value"] == 1


def test_solve_parse_error_is_exit_2(tmp_path, capsys):
    inp = write_inputs(tmp_path / "bad.g6", ["\x01garbage"])
    code = main(["solve", str(inp)])
    capsys.readouterr()
    assert code == 2


def test_solve_budget_is_exit_3(tmp_path, capsys):
    inp = write_inputs(tmp_path / "in.g6", [graph6_encode(complete_graph(5))])
    code = main(["solve", str(inp), "--param", "cmms", "--budget", "2"])
    capsys.readouterr()
    assert code == 3


def test_solve_rooted_rejected_for_game_params(tmp_path, capsys):
    rg = doubly_rooted(path_graph(3), 0)
    inp = write_inputs(tmp_path / "in.jsonl", [rooted_to_json(rg)])
    code = main(["solve", inp, "--param", "cmms"])
    capsys.readouterr()
    assert code == 2


def test_solve_many_graphs(tmp_path, capsys):
    lines = [graph6_encode(path_graph(n)) for n in range(2, 6)]
    inp = write_inputs(tmp_path / "in.g6", lines)
    code, rep = run(capsys, "solve", inp, "--param", "cmp")
    assert code == 0
    assert [e["value"] for e in rep["results"]] == [1, 1, 1, 1]
    assert [e["g6"] for e in rep["results"]] == lines


@pytest.mark.parametrize("param", ["cmp", "cmms"])
def test_solve_stats_add_each_results_search_stats(tmp_path, capsys, param):
    lines = [graph6_encode(g) for g in (path_graph(3), complete_graph(4))]
    inp = write_inputs(tmp_path / "in.g6", lines)
    assert main(["solve", inp, "--param", param]) == 0
    plain = capsys.readouterr().out
    code, rep = run(capsys, "solve", inp, "--param", param, "--stats")
    assert code == 0
    stats = [entry.pop("stats") for entry in rep["results"]]
    # without the flag the report is the same, byte for byte
    assert json.dumps(rep, sort_keys=True, indent=2) + "\n" == plain
    for entry, st in zip(rep["results"], stats):
        assert sorted(st) == ["levels", "seconds", "states"]
        assert len(st["levels"]) == entry["value"] + 1
        assert st["states"] == sum(st["levels"]) and st["seconds"] >= 0


@pytest.mark.parametrize("param", ["ms", "cms", "cmms", "cmp", "mp"])
def test_solve_stats_levels_below_the_value_ignore_emit_witness(tmp_path, capsys, param):
    # a witness search pops breadth-first, a plain one last-in-first-out:
    # the value and every level below it (a no-decision, which visits
    # every reachable state) read the same either way
    graphs = [path_graph(4), cycle_graph(5), complete_graph(4), k23_plus()]
    lines = [graph6_encode(g) for g in graphs]
    if param in ("cmp", "mp"):
        lines.append(WITNESS_RECORD)
    inp = write_inputs(tmp_path / "in.jsonl", lines)
    code, plain = run(capsys, "solve", inp, "--param", param, "--stats")
    assert code == 0
    out = str(tmp_path / "wit.jsonl")
    code, wit = run(
        capsys, "solve", inp, "--param", param, "--stats", "--emit-witness", "--out", out
    )
    assert code == 0
    for a, b in zip(plain["results"], wit["results"], strict=True):
        assert a["value"] == b["value"]
        assert a["stats"]["levels"][:-1] == b["stats"]["levels"][:-1]


def test_verify_paper_stats_add_the_seconds_of_each_check(monkeypatch, capsys):
    def fake_run_all(stats=None, **kwargs):
        checks = [paperchecks.CheckResult("1 one", True), paperchecks.CheckResult("2 two", True)]
        if stats is not None:
            stats += [{"check": c.name, "seconds": 0.5} for c in checks]
        return checks

    monkeypatch.setattr("gso.cli.run_all", fake_run_all)
    assert main(["verify-paper"]) == 0
    plain = capsys.readouterr().out
    code, rep = run(capsys, "verify-paper", "--stats")
    assert code == 0
    stats = rep.pop("stats")
    assert json.dumps(rep, sort_keys=True, indent=2) + "\n" == plain
    assert stats == [{"check": "1 one", "seconds": 0.5}, {"check": "2 two", "seconds": 0.5}]


@pytest.mark.parametrize(
    "line", ['{"g6":"C~","s_in":5}', '{"g6":"C~","s_out":[4]}', '{"g6":5}', "[1]"]
)
def test_solve_malformed_record_is_exit_2(tmp_path, capsys, line):
    inp = write_inputs(tmp_path / "in.jsonl", [line])
    code = main(["solve", inp, "--param", "cmp"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("param", ["cmp", "mp"])
def test_solve_expansion_budget_is_exit_3(tmp_path, capsys, param):
    inp = write_inputs(tmp_path / "in.g6", [graph6_encode(complete_graph(4))])
    code = main(["solve", inp, "--param", param, "--budget", "1"])
    capsys.readouterr()
    assert code == 3


def test_solve_negative_budget_is_exit_2_before_any_solve(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("solved under a negative budget")

    monkeypatch.setitem(cli._VALUE, "cmp", fail)
    inp = write_inputs(tmp_path / "in.g6", [graph6_encode(complete_graph(4))])
    code = main(["solve", inp, "--param", "cmp", "--budget", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_solve_negative_level_is_exit_2_before_the_input_is_read(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("read the input under a negative -k")

    monkeypatch.setattr("gso.cli.read_graphs", fail)
    inp = write_inputs(tmp_path / "in.g6", [graph6_encode(complete_graph(3))])
    code = main(["solve", inp, "-k", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "flags", [["--emit-witness"], ["--out", "{tmp}/wit.jsonl"]], ids=["witness", "out"]
)
def test_solve_unpaired_witness_flags_are_exit_2_before_any_solve(
    tmp_path, capsys, monkeypatch, flags
):
    def fail(*args, **kwargs):
        raise AssertionError("solved with --emit-witness and --out unpaired")

    monkeypatch.setitem(cli._VALUE, "cmp", fail)
    inp = write_inputs(tmp_path / "in.g6", [graph6_encode(path_graph(4))])
    argv = [f.replace("{tmp}", str(tmp_path)) for f in flags]
    code = main(["solve", inp, "--param", "cmp", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "in.g6"]


@pytest.mark.parametrize("param", ["cmp", "cmms"])
def test_solve_zero_budget_is_still_exit_3(tmp_path, capsys, param):
    inp = write_inputs(tmp_path / "in.g6", [graph6_encode(complete_graph(4))])
    code = main(["solve", inp, "--param", param, "--budget", "0"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "sizes",
    [["--max-n", "0", "-k", "2"], ["--max-n", "-3", "-k", "2"], ["--max-n", "5", "-k", "-1"]],
    ids=["max-n-0", "max-n-negative", "k-negative"],
)
def test_mine_meaningless_size_is_exit_2_before_any_work(tmp_path, capsys, monkeypatch, sizes):
    def fail(*args, **kwargs):
        raise AssertionError("mined for a meaningless size")

    monkeypatch.setattr("gso.cli.mine_obstructions", fail)
    out = tmp_path / "o.g6"
    code = main(["mine", *sizes, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_mine_stats_pin_the_good_counts(capsys):
    argv = ["mine", "--param", "cmp", "-k", "2", "--max-n", "7"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / "mine.json"
    assert plain == reference.read_text()
    code, rep = run(capsys, *argv, "--stats")
    assert code == 0
    stats = rep.pop("stats")
    # without the flag the report is the same, byte for byte
    assert rep == json.loads(plain)
    assert [r["n"] for r in stats] == list(range(1, 8))
    assert [r["good"] for r in stats] == [1, 1, 2, 5, 13, 45, 165]
    assert [r["obstructions"] for r in stats] == [0, 0, 0, 1, 2, 1, 2]
    # the pruning: fewer splits certified or more screened means a rule changed
    assert [r["splits"] for r in stats] == [0, 1, 2, 7, 25, 118, 563]
    assert [r["screened"] for r in stats] == [0, 0, 0, 0, 5, 59, 505]
    assert [r["candidates"] for r in stats] == [1, 1, 2, 6, 15, 49, 207]


def test_mine_writes_graph6(tmp_path, capsys):
    out = tmp_path / "obs.g6"
    code, rep = run(
        capsys, "mine", "--max-n", "5", "--param", "cmp", "-k", "1",
        "--out", str(out),
    )
    assert code == 0
    assert rep["count"] == 2
    assert len(out.read_text().splitlines()) == 2


def test_mine_output_matches_bench_reference(capsys):
    # the bench's byte-identity gate for the `mine` workload, read only
    ref = Path(__file__).resolve().parents[1] / "bench" / "reference" / "mine.json"
    code = main(["mine", "--param", "cmp", "-k", "2", "--max-n", "7"])
    assert code == 0
    assert capsys.readouterr().out == ref.read_text()


def test_mine_takes_every_decided_param(capsys):
    # ms and cmms were refused by the parser though mining decides them;
    # the game engine's cmms obstructions are the expansion engine's cmp ones
    ref = Path(__file__).resolve().parents[1] / "bench" / "reference" / "mine.json"
    code, rep = run(capsys, "mine", "--param", "cmms", "-k", "2", "--max-n", "7")
    assert code == 0
    assert rep["param"] == "cmms"
    assert rep["graphs"] == json.loads(ref.read_text())["graphs"]
    assert cli.build_parser().parse_args(["mine", "--param", "ms", "-k", "1", "--max-n", "3"])


def test_mine_minor_relation(capsys):
    code, rep = run(
        capsys, "mine", "--max-n", "5", "--param", "mp", "-k", "1",
        "--relation", "minor",
    )
    assert code == 0
    assert rep["relation"] == "minor" and rep["count"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{absent}"],
        ["glue", "--family", "{absent}", "-m", "2"],
        ["mine", "--max-n", "5", "-k", "1", "--out", "{absent}/x.g6"],
        ["branches", "-k", "2", "--out", "{absent}/x"],
    ],
    ids=["solve", "glue", "mine", "branches"],
)
def test_missing_file_is_exit_2(tmp_path, capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise AssertionError("computed before --out was opened")

    monkeypatch.setattr("gso.cli.mine_obstructions", fail)
    monkeypatch.setattr("gso.cli.mine_branch_base", fail)
    absent = str(tmp_path / "absent")
    code = main([a.replace("{absent}", absent) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_branches_level_below_one_is_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("mined a base for an invalid level")

    monkeypatch.setattr("gso.cli.mine_branch_base", fail)
    out = tmp_path / "o.g6"
    code = main(["branches", "-k", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_branches_level_above_twelve_is_exit_2_before_any_work(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("counted branches at a level the report cannot print")

    monkeypatch.setattr("gso.cli.branch_count", fail)
    code = main(["branches", "-k", "13", "--count-only"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "at most 12" in captured.err
    monkeypatch.undo()
    code, rep = run(capsys, "branches", "-k", "12", "--count-only")
    assert code == 0 and rep["k"] == 12


def test_branches_base_size_too_large_to_print_is_exit_2(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("counted branches for a report that cannot be printed")

    # obr_count(12, 50) has about 8,600 digits, obr_count(12, 9) 4,170
    monkeypatch.setattr("gso.cli.branch_count", fail)
    code = main(["branches", "-k", "12", "--count-only", "--base-size", "50"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "level 12 with base size 50" in captured.err
    monkeypatch.undo()
    code, rep = run(capsys, "branches", "-k", "12", "--count-only", "--base-size", "9")
    assert code == 0 and len(str(rep["obr_count"])) == 4170


def test_branches_count_only(capsys):
    code, rep = run(capsys, "branches", "-k", "3", "--count-only")
    assert code == 0
    assert rep["branch_count"] == 120
    assert rep["obr_count"] == 295240


def test_branches_materialize_from_base(tmp_path, capsys):
    base = [
        rooted_to_json(doubly_rooted(path_graph(3), 0)),
        rooted_to_json(doubly_rooted(path_graph(4), 0)),
    ]
    inp = write_inputs(tmp_path / "base.jsonl", base)
    out = tmp_path / "obr.g6"
    code, rep = run(
        capsys, "branches", "-k", "1", "--base", inp, "--base-size", "2",
        "--out", str(out),
    )
    assert code == 0
    assert rep["materialized_branches"] == 2
    assert rep["materialized_obr"] == rep["obr_count"] == 4
    assert len(out.read_text().splitlines()) == 4


def test_branches_counts_follow_the_loaded_base(tmp_path, capsys):
    base = [
        rooted_to_json(doubly_rooted(path_graph(3), 0)),
        rooted_to_json(doubly_rooted(path_graph(4), 0)),
    ]
    inp = write_inputs(tmp_path / "base.jsonl", base)
    code, rep = run(capsys, "branches", "-k", "1", "--base", inp)
    assert code == 0
    assert rep["base_size"] == 2
    assert rep["branch_count"] == rep["materialized_branches"] == 2
    assert rep["obr_count"] == rep["materialized_obr"] == 4
    assert rep["branch_bound_holds"] is False
    assert rep["obr_bound_holds"] is False


def test_branches_count_only_reports_bounds(capsys):
    code, rep = run(capsys, "branches", "-k", "2", "--count-only")
    assert code == 0
    assert rep["base_size"] == 5
    assert rep["branch_bound_holds"] is True and rep["obr_bound_holds"] is True
    assert "materialized_obr" not in rep


@pytest.mark.parametrize("k", ["0", "-2"])
@pytest.mark.parametrize("count_only", [True, False])
def test_branches_level_below_one_is_exit_2(tmp_path, capsys, k, count_only):
    argv = ["branches", "-k", k]
    if count_only:
        argv.append("--count-only")
    else:
        base = [rooted_to_json(doubly_rooted(path_graph(3), 0))]
        argv += ["--base", write_inputs(tmp_path / "base.jsonl", base)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("k,size", [("1", "-1"), ("2", "-3")])
def test_branches_negative_base_size_is_exit_2(capsys, k, size):
    code = main(["branches", "-k", k, "--count-only", "--base-size", size])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: base size") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "record",
    ['{"g6": "Bw", "s_in": [], "s_out": []}', '{"g6": "Bw", "s_in": [0], "s_out": [2]}'],
    ids=["unrooted", "rooted-apart"],
)
def test_branches_base_member_not_doubly_rooted_is_exit_2(tmp_path, capsys, record):
    inp = write_inputs(tmp_path / "base.jsonl", [record])
    code = main(["branches", "-k", "1", "--base", inp])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: base member 0 must be doubly rooted on one vertex\n"


def test_glue_roundtrip(tmp_path, capsys):
    fam = [rooted_to_json(doubly_rooted(path_graph(2), 0))]
    inp = write_inputs(tmp_path / "fam.jsonl", fam)
    out = tmp_path / "glued.g6"
    code, rep = run(capsys, "glue", "--family", inp, "-m", "2", "--out", str(out))
    assert code == 0
    assert rep["count"] == 1
    from gso.canon import is_isomorphic
    from gso.gio import graph6_decode

    glued = graph6_decode(out.read_text().strip())
    assert is_isomorphic(glued, path_graph(3))


def test_glue_bad_family_is_exit_2(tmp_path, capsys):
    inp = write_inputs(tmp_path / "fam.jsonl", ["{not json"])
    code = main(["glue", "--family", inp, "-m", "2"])
    capsys.readouterr()
    assert code == 2


def test_verify_paper_quick(capsys):
    code, rep = run(capsys, "verify-paper", "--quick", "--seed", "7")
    assert code == 0
    assert rep["ok"] is True
    assert len(rep["checks"]) == 11


@pytest.fixture
def no_checks(monkeypatch):
    def fail(**kwargs):
        raise AssertionError("a check ran before the input was validated")

    monkeypatch.setattr("gso.cli.run_all", fail)


def test_verify_paper_malformed_family_record_is_exit_2(tmp_path, capsys, no_checks):
    fam = tmp_path / "families"
    fam.mkdir()
    write_inputs(fam / "bad.jsonl", ['{"g6":"C~","s_in":5}'])
    code = main(["verify-paper", "--families", str(fam)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_paper_disconnected_family_graph_is_exit_2(tmp_path, capsys, no_checks):
    fam = tmp_path / "families"
    fam.mkdir()
    write_inputs(fam / "mined.g6", [graph6_encode(path_graph(3)), "A?"])
    code = main(["verify-paper", "--families", str(fam)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {fam / 'mined.g6'}:2: rooted graph must be connected\n"


@pytest.mark.parametrize("bad", ["\x01garbage", "A?", '{"g6":"C~","s_in":5}'])
def test_solve_bad_line_is_named_by_file_and_line(tmp_path, capsys, bad):
    lines = [graph6_encode(path_graph(3)), "", bad, graph6_encode(path_graph(4))]
    inp = write_inputs(tmp_path / "in.g6", lines)
    code = main(["solve", inp, "--param", "cmp"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {inp}:3: ") and err.count("\n") == 1


def test_verify_paper_missing_families_dir_is_exit_2(tmp_path, capsys, no_checks):
    code = main(["verify-paper", "--families", str(tmp_path / "absent")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_paper_malformed_corpus_is_exit_2(tmp_path, capsys, no_checks):
    inp = write_inputs(tmp_path / "corpus.g6", ["\x01garbage"])
    code = main(["verify-paper", "--corpus", inp])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_paper_passes_the_loaded_corpus(tmp_path, capsys, monkeypatch):
    seen = {}

    def fake_run_all(**kwargs):
        seen.update(kwargs)
        return []

    monkeypatch.setattr("gso.cli.run_all", fake_run_all)
    lines = [graph6_encode(path_graph(3)), graph6_encode(complete_graph(4))]
    inp = write_inputs(tmp_path / "corpus.g6", lines)
    code, rep = run(capsys, "verify-paper", "--corpus", inp)
    assert code == 0 and rep["ok"] is True
    assert [graph6_encode(g) for g in seen["corpus"]] == lines


@pytest.mark.parametrize(
    "argv",
    [
        ["mine", "--max-n", "5", "-k", "1"],
        ["branches", "-k", "1"],
        ["verify-paper", "--quick"],
    ],
    ids=["mine", "branches", "verify-paper"],
)
def test_budget_exhaustion_is_exit_3_for_every_command(capsys, monkeypatch, argv):
    def exhausted(*args, **kwargs):
        raise BudgetExceeded("state budget exhausted")

    monkeypatch.setattr("gso.cli.mine_obstructions", exhausted)
    monkeypatch.setattr("gso.cli.mine_branch_base", exhausted)
    monkeypatch.setattr("gso.cli.run_all", exhausted)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: state budget exhausted\n"
