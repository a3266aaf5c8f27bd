import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_count import plane_partitions

from maxac import VERIFY_SAMPLE_LIMIT, VERIFY_TRIAL_LIMIT, check_characterization, iter_shapes
from maxac.cli import build_parser, main

GRID_33 = {"w": [3, 3], "ones": [[1, 3], [2, 3], [3, 1], [3, 2], [3, 3]]}
GRID_22 = {"w": [2, 2], "ones": [[1, 1], [1, 2], [2, 1]]}
MAP_22 = {"w": [2, 2], "rows": [{"x": [1], "l": 1, "h": 2}, {"x": [2], "l": 1, "h": 1}]}
MAP_33_NORMALIZED = {
    "w": [3, 3],
    "rows": [
        {"x": [1], "l": 2, "h": 3},
        {"x": [2], "l": 2, "h": 2},
        {"x": [3], "l": 1, "h": 2},
    ],
}


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_size(capsys):
    status, out, err = run(capsys, "size", "--w", "3,3", "--json")
    assert status == 0 and err == ""
    assert json.loads(out) == {"w": [3, 3], "size": 5}


def test_size_plain(capsys):
    status, out, _ = run(capsys, "size", "--w", "3,3", "--plain")
    assert status == 0 and out == "5\n"


def test_count(capsys):
    status, out, _ = run(capsys, "count", "--w", "2,2", "--json")
    assert status == 0
    assert json.loads(out)["count"] == 2


def test_count_answers_past_the_enumeration_budget(capsys):
    for w, count in [("12,12", 705432), ("3,3,3", 20), ("3,3,3,3", 168), ("3,3,3,3,3", 7581)]:
        status, out, err = run(capsys, "count", "--w", w)
        assert status == 0 and err == ""
        assert out == f'{{"w":[{w}],"method":"enumerate","count":{count}}}\n'


def test_count_refuses_past_its_budgets_before_any_pass(capsys, monkeypatch):
    def no_pass(*args):
        raise AssertionError("listed the covering pairs past a budget")

    monkeypatch.setattr("maxac.enumeration._covering_pairs", no_pass)
    # the closed form refuses 10^8 x 10^8 by the digit limit, before any work
    for w, code, ending in [
            ("10,10,10,10", "ShapeTooLarge", "(COUNT_STATE_LIMIT)"),
            ("6,6,6,6,6", "ShapeTooLarge", "(COUNT_STATE_LIMIT)"),
            ("5,5,5,5,5", "ShapeTooLarge",
             "takes at least 17592186044416 states, limit is 250000 (COUNT_STATE_LIMIT)"),
            ("3,4,4,4,4,4", "ShapeTooLarge", "(COUNT_STATE_LIMIT)"),
            ("3,3,3,1000000", "ShapeTooLarge", "(COUNT_WORK_LIMIT)"),
            ("100000000,100000000", "ValueError", "(sys.get_int_max_str_digits)")]:
        start = time.perf_counter()
        status, out, err = run(capsys, "count", "--w", w)
        assert time.perf_counter() - start < 0.1
        assert status == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == code
        assert error["detail"].endswith(ending)


def test_count_refuses_past_the_digit_budget_with_no_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for method in ("enumerate", "formula"):
            start = time.perf_counter()
            status, out, err = run(capsys, "count", "--w", "1000000,1000000",
                                   "--method", method)
            assert time.perf_counter() - start < 0.1
            assert status == 1 and out == ""
            error = json.loads(err)
            assert error["error"] == "ShapeTooLarge"
            assert error["detail"].endswith("(COUNT_DIGIT_LIMIT)")
        # just under the budget (20,000 digits) the closed form answers
        start = time.perf_counter()
        status, out, err = run(capsys, "count", "--w", "33000,33000", "--method", "formula")
        assert time.perf_counter() - start < 5
        assert status == 0 and err == ""
        count = json.loads(out)["count"]
        assert count == math.comb(65998, 32999) and len(str(count)) == 19865
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_refuses_counts_too_long_to_print(capsys):
    # the budgets admit counts of up to about 1,900 digits, so the refusal
    # shows under a lowered limit: C(2198, 1099) has 660 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        status, out, err = run(capsys, "count", "--w", "1000,1000")
        assert status == 0 and err == ""
        assert json.loads(out)["count"] == math.comb(1998, 999)
        status, out, err = run(capsys, "count", "--w", "1100,1100")
        assert status == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "detail": (
            "the count for shape (1100, 1100) has more than 640 digits, "
            "the limit for printing an integer (sys.get_int_max_str_digits)")}
        sys.set_int_max_str_digits(0)  # no limit: the count is printed
        status, out, err = run(capsys, "count", "--w", "1100,1100")
        assert status == 0 and err == ""
        assert json.loads(out)["count"] == math.comb(2198, 1099)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_formula(capsys):
    status, out, _ = run(capsys, "count", "--w", "4,5", "--method", "formula", "--json")
    assert status == 0
    assert json.loads(out)["count"] == 35

    status, out, _ = run(capsys, "count", "--w", "2,2,2", "--method", "formula", "--json")
    assert status == 0
    assert json.loads(out)["count"] == 2

    for w, count in [("3,3,3", 20), ("7", 7), ("1,3,3", 1), ("2,2,3", 3)]:
        status, out, _ = run(capsys, "count", "--w", w, "--method", "formula", "--json")
        assert status == 0
        assert json.loads(out)["count"] == count

    status, out, err = run(capsys, "count", "--w", "3,3,3,3", "--method", "formula", "--json")
    assert status == 1 and out == ""
    assert json.loads(err)["error"] == "PreconditionViolated"


def test_enumerate(capsys):
    status, out, _ = run(capsys, "enumerate", "--w", "2,2", "--cap", "10", "--json")
    assert status == 0
    obj = json.loads(out)
    assert obj["count"] == 2 and not obj["truncated"]
    assert obj["grids"][0]["ones"] == [[1, 1], [1, 2], [2, 1]]


def test_enumerate_too_large(capsys):
    status, out, err = run(capsys, "enumerate", "--w", "6,6", "--json")
    assert status == 1 and out == ""
    assert json.loads(err)["error"] == "ShapeTooLarge"


def test_size_one_boxes_keep_their_bytes(capsys):
    status, out, err = run(capsys, "enumerate", "--w", "3,1,2")
    assert status == 0 and err == ""
    assert out == (
        '{"w":[3,1,2],"count":1,"truncated":false,"grids":[{"w":[3,1,2],"ones":'
        '[[1,1,1],[1,1,2],[2,1,1],[2,1,2],[3,1,1],[3,1,2]]}]}\n')
    status, out, err = run(capsys, "count", "--w", "3,1,2")
    assert status == 0 and err == ""
    assert out == '{"w":[3,1,2],"method":"enumerate","count":1}\n'
    # the cell budget still comes first
    status, out, err = run(capsys, "enumerate", "--w", "1,30")
    assert status == 1 and out == ""
    assert json.loads(err) == {"error": "ShapeTooLarge",
                               "detail": "box has 30 cells, limit is 25"}


def test_verify_passes(capsys):
    status, out, _ = run(
        capsys, "verify", "--w", "2,2,2", "--samples", "50", "--trials", "5", "--json"
    )
    assert status == 0
    obj = json.loads(out)
    assert obj["passed"] and all(c["passed"] for c in obj["checks"])
    names = {c["name"] for c in obj["checks"]}
    assert {"size-law", "characterization-equivalence", "counting",
            "brute-force-cross-check", "append-layer-bijection",
            "normalization", "peel-recurrence", "game-loser"} == names


def test_normalize_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(GRID_33)))
    status, out, _ = run(capsys, "normalize", "--json")
    assert status == 0
    obj = json.loads(out)
    assert obj["steps"] == 2
    assert obj["pairs"] == [[[3], [2]], [[2], [1]]]
    assert obj["result"]["rows"] == [
        {"x": [1], "l": 2, "h": 3},
        {"x": [2], "l": 2, "h": 2},
        {"x": [3], "l": 1, "h": 2},
    ]


def test_normalize_rejects_non_maximal_grid(capsys, monkeypatch):
    bad = {"w": [2, 2], "ones": [[1, 2], [2, 1]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad)))
    status, out, err = run(capsys, "normalize", "--json")
    assert status == 1 and out == ""
    assert json.loads(err)["error"] == "NotMaximal"


def test_normalize_reports_empty_row(capsys, monkeypatch):
    bad = {"w": [2, 2], "ones": [[1, 1]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad)))
    status, _, err = run(capsys, "normalize", "--json")
    assert status == 1
    assert json.loads(err)["error"] == "EmptyRow"


@pytest.mark.parametrize("ones", [[], [[2], [3]], [[1], [4]]],
                         ids=["empty", "adjacent", "gapped"])
def test_extend_rejects_a_non_maximal_one_dimensional_grid(capsys, monkeypatch, ones):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"w": [5], "ones": ones})))
    status, out, err = run(capsys, "extend", "--json")
    assert status == 1 and out == ""
    assert json.loads(err) == {"error": "NotMaximal", "detail": "input grid is not maximal"}


def test_peel_accepts_interval_map_input(capsys, tmp_path, monkeypatch):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(MAP_33_NORMALIZED))
    status, out, _ = run(capsys, "peel", "--input", str(path), "--json")
    assert status == 0
    obj = json.loads(out)
    assert obj["w"] == [3, 2]
    assert obj["rows"] == [
        {"x": [1], "l": 2, "h": 2},
        {"x": [2], "l": 2, "h": 2},
        {"x": [3], "l": 1, "h": 2},
    ]


def test_peel_rejects_non_maximal_interval_map(capsys, monkeypatch):
    # empty obstruction set, but the h-rule fails at (2,)
    bad = {"w": [3, 3], "rows": [{"x": [1], "l": 1, "h": 3},
                                 {"x": [2], "l": 1, "h": 2},
                                 {"x": [3], "l": 1, "h": 2}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad)))
    status, out, err = run(capsys, "peel", "--json")
    assert status == 1 and out == ""
    assert json.loads(err) == {
        "error": "NotMaximal",
        "detail": "row (2,) violates the h-rule: expected 1, found 2",
    }


def test_normalize_runs_the_characterization_sweep_once(capsys, monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return check_characterization(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("maxac.") and hasattr(module, "check_characterization"):
            monkeypatch.setattr(module, "check_characterization", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(GRID_33)))
    status, _, _ = run(capsys, "normalize", "--json")
    assert status == 0
    assert len(calls) == 1


DEEP_JSON = '{"w":' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.mark.parametrize("verb", ["normalize", "peel", "extend", "project"])
@pytest.mark.parametrize("source", ["stdin", "input"])
def test_deeply_nested_json_exits_1(capsys, monkeypatch, tmp_path, verb, source):
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(DEEP_JSON))
        argv = [verb, "--json"]
    else:
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        argv = [verb, "--input", str(path), "--json"]
    status, out, err = run(capsys, *argv)
    assert status == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError", "detail": "input JSON is nested too deeply"}


def test_huge_malformed_input_gives_a_short_error(capsys, monkeypatch):
    for obj, code in [({"w": [[1] * 100_000], "ones": []}, "ValueError"),
                      ({"w": [2, 2], "ones": [[1] * 50_000]}, "DimensionMismatch")]:
        huge = json.dumps(obj)
        assert len(huge) > 150_000
        monkeypatch.setattr("sys.stdin", io.StringIO(huge))
        status, out, err = run(capsys, "extend", "--json")
        assert status == 1 and out == ""
        assert err.count("\n") == 1 and len(err) < 1024
        assert json.loads(err)["error"] == code


def _formula(capsys, w, d=2):
    return run(capsys, "count", "--w", ",".join([str(w)] * d), "--method", "formula",
               "--json")


def test_count_formula_refuses_only_counts_too_long_to_print(capsys):
    limit = sys.get_int_max_str_digits()
    assert limit > 0
    # the smallest w whose count on (w + 1, w + 1), C(2w, w), has more than
    # `limit` digits; the count on (w, w) is C(2w - 2, w - 1)
    lo, hi = 1, 4 * limit
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if math.comb(2 * mid, mid) >= 10**limit else (mid + 1, hi)
    w = lo

    status, out, err = _formula(capsys, w)
    assert status == 0 and err == ""
    assert json.loads(out)["count"] == math.comb(2 * w - 2, w - 1)

    for big in (w + 1, 2_000_000):
        start = time.perf_counter()
        status, out, err = _formula(capsys, big)
        assert time.perf_counter() - start < 5
        assert status == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert f"more than {limit} digits" in error["detail"]
        assert "sys.get_int_max_str_digits" in error["detail"]

    sys.set_int_max_str_digits(0)  # no limit: the count is printed, as before
    try:
        status, out, err = _formula(capsys, w + 1)
        assert status == 0 and err == ""
        assert json.loads(out)["count"] == math.comb(2 * w, w)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_formula_refuses_only_cube_counts_too_long_to_print(capsys):
    limit = sys.get_int_max_str_digits()
    assert limit > 0
    # the smallest w whose count on the cube of side w + 1 has more than
    # `limit` digits; the count on the cube of side w is plane partitions in
    # a (w - 1)^3 box
    lo, hi = 1, 2
    while plane_partitions(hi, hi, hi) < 10**limit:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if plane_partitions(mid, mid, mid) >= 10**limit else (mid + 1, hi)
    w = lo

    status, out, err = _formula(capsys, w, d=3)
    assert status == 0 and err == ""
    assert json.loads(out)["count"] == plane_partitions(w - 1, w - 1, w - 1)

    for big in (w + 1, 1_000_000):
        start = time.perf_counter()
        status, out, err = _formula(capsys, big, d=3)
        assert time.perf_counter() - start < 5
        assert status == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert error["detail"] == (
            f"the count for shape {(big,) * 3} has more than {limit} digits, "
            "the limit for printing an integer (sys.get_int_max_str_digits)")

    sys.set_int_max_str_digits(0)  # no limit: the count is printed
    try:
        status, out, err = _formula(capsys, w + 1, d=3)
        assert status == 0 and err == ""
        assert json.loads(out)["count"] == plane_partitions(w, w, w)
    finally:
        sys.set_int_max_str_digits(limit)


SRC = Path(__file__).resolve().parents[1] / "src"
EVERY_MODULE = {"core", "counting", "enumeration", "errors", "game", "normalize",
                "rowform", "verification"}


@pytest.mark.parametrize("argv, stdin, modules", [
    (["size", "--w", "3,3"], None, set()),
    (["count", "--w", "3,3"], None, {"enumeration"}),
    (["count", "--w", "3,3", "--method", "formula"], None, {"enumeration"}),
    (["count", "--w", "2,2,2", "--method", "formula"], None, {"enumeration"}),
    (["enumerate", "--w", "2,2"], None, {"enumeration"}),
    (["game", "--w", "2,2"], None, {"game"}),
    (["normalize"], GRID_33, {"normalize", "rowform"}),
    (["peel"], MAP_33_NORMALIZED, {"normalize", "rowform"}),
    (["extend"], GRID_22, {"counting", "rowform"}),
    (["project"], {"w": [2, 2, 2], "ones": [[1, 1, 1], [1, 1, 2], [1, 2, 1], [1, 2, 2],
                                            [2, 1, 1], [2, 1, 2], [2, 2, 1]]},
     {"counting", "rowform"}),
    (["verify", "--w", "2,2", "--samples", "5", "--trials", "1"], None, EVERY_MODULE),
])
def test_each_verb_loads_only_the_modules_it_runs(argv, stdin, modules):
    proc = subprocess.run(
        [sys.executable, "-v", "-m", "maxac.cli", *argv, "--json"],
        input=None if stdin is None else json.dumps(stdin), capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    json.loads(proc.stdout)
    # -v writes one "import 'name' # loader" line per module it loads
    loaded = {line.split("'")[1] for line in proc.stderr.splitlines()
              if line.startswith("import '")}
    assert {m for m in loaded if m.startswith("maxac.")} == {
        f"maxac.{m}" for m in modules | {"core", "errors"}}


# a few cells or rows in a box with a side of a billion rows or more: the row
# walk stops at the first bad row, so it must build no whole side first
HUGE_BOX_INPUTS = [
    ({"w": [5, 1000000004, 3], "ones": [[1, 1, 1]]},
     {"error": "EmptyRow", "detail": "row (1, 2) has no one-cells"}),
    ({"w": [5, 1000000004, 3], "rows": [{"x": [1, 1], "l": 1, "h": 1}]},
     {"error": "ValueError", "detail": "missing interval for row (1, 2)"}),
    ({"w": [1, 2**63, 1, 1], "ones": [[1, 1, 1, 1], [1, 2, 1, 1], [1, 3, 1, 1]]},
     {"error": "EmptyRow", "detail": "row (1, 4, 1) has no one-cells"}),
]

# the CLI in a child process capped at 1 GB of address space, so a walk over
# a whole side fails the test instead of filling the machine
CAPPED_CLI = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from maxac.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("verb", ["normalize", "peel"])
@pytest.mark.parametrize("obj, error", HUGE_BOX_INPUTS)
def test_a_few_cells_in_a_huge_box_are_refused_at_once(verb, obj, error):
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, verb, "--json"], input=json.dumps(obj),
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.count("\n") == 1 and json.loads(proc.stderr) == error


# the CLI capped as above, writing on stdout how long main took
TIMED_CAPPED_CLI = CAPPED_CLI.replace(
    "sys.exit(main(sys.argv[1:]))",
    "import time; t = time.perf_counter(); status = main(sys.argv[1:]); "
    "print(time.perf_counter() - t); sys.exit(status)")


def _l_grid(n):
    """The n x n grid "some coordinate is 1": 2n - 1 cells, maximal."""
    ones = [[1, y] for y in range(1, n + 1)] + [[x, 1] for x in range(2, n + 1)]
    return {"w": [n, n], "ones": ones}


@pytest.mark.parametrize("obj, cells", [(_l_grid(2000), 4003999),
                                        ({"w": [1000000], "ones": [[1]]}, 1000001)],
                         ids=["L-grid-2000", "d1-1000000"])
def test_extend_past_its_output_budget_is_refused_at_once(obj, cells):
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_CAPPED_CLI, "extend", "--json"], input=json.dumps(obj),
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 1 and float(proc.stdout) < 0.1
    error = json.loads(proc.stderr)
    assert error["error"] == "ShapeTooLarge"
    assert error["detail"].endswith(f"gives {cells} cells, limit is 250000 (EXTEND_CELL_LIMIT)")


def test_extend_and_project_round_trip(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(GRID_33))
    status, out, _ = run(capsys, "extend", "--input", str(path), "--json")
    assert status == 0
    extended = json.loads(out)
    assert extended["w"] == [3, 3, 2]

    path.write_text(json.dumps(extended))
    status, out, _ = run(capsys, "project", "--input", str(path), "--json")
    assert status == 0
    assert json.loads(out) == GRID_33


def test_game(capsys):
    status, out, _ = run(
        capsys, "game", "--w", "3,3", "--players", "2",
        "--strategy", "lex,random", "--seed", "42", "--json",
    )
    assert status == 0
    obj = json.loads(out)
    assert obj["loser"] == 1  # 5 mod 2
    assert len(obj["moves"]) == 6
    assert obj["moves"][-1] == [1, obj["terminal_cell"]]


def test_game_too_large(capsys):
    status, out, err = run(capsys, "game", "--w", "1000,1000", "--json")
    assert status == 1 and out == ""
    assert json.loads(err)["error"] == "ShapeTooLarge"


def test_game_rejects_more_players_than_moves(capsys):
    for players, detail in [("1000000000", "players must be at most 10001, got 1000000000"),
                            ("10002", "players must be at most 10001, got 10002"),
                            ("1", "players must be at least 2, got 1")]:
        status, out, err = run(capsys, "game", "--w", "2,2", "--players", players, "--json")
        assert status == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "detail": detail}


def test_game_single_strategy_broadcasts(capsys):
    status, out, _ = run(
        capsys, "game", "--w", "2,2", "--players", "3", "--strategy", "lex", "--json"
    )
    assert status == 0
    assert json.loads(out)["loser"] == 0  # 3 mod 3


GRID_332 = {"w": [3, 3, 2], "ones": [
    [1, 1, 2], [1, 2, 2], [1, 3, 1], [1, 3, 2], [2, 1, 2], [2, 2, 2], [2, 3, 1],
    [2, 3, 2], [3, 1, 1], [3, 1, 2], [3, 2, 1], [3, 2, 2], [3, 3, 1], [3, 3, 2]]}


def test_output_is_byte_identical_across_runs(capsys, monkeypatch):
    _, first, _ = run(capsys, "enumerate", "--w", "3,3", "--json")
    _, second, _ = run(capsys, "enumerate", "--w", "3,3", "--json")
    assert first == second
    _, g1, _ = run(capsys, "game", "--w", "3,3", "--players", "2",
                   "--strategy", "random", "--seed", "7", "--json")
    _, g2, _ = run(capsys, "game", "--w", "3,3", "--players", "2",
                   "--strategy", "random", "--seed", "7", "--json")
    assert g1 == g2
    # a grid read in any cell order gives its sorted form's bytes
    for verb, grid, order in [("normalize", GRID_33, [4, 0, 2, 1, 3]),
                              ("extend", GRID_22, [2, 0, 1]),
                              ("project", GRID_332,
                               [13, 10, 0, 12, 6, 5, 3, 8, 7, 11, 4, 1, 9, 2])]:
        outs = []
        for ones in (grid["ones"], [grid["ones"][i] for i in order]):
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(dict(grid, ones=ones))))
            status, out, err = run(capsys, verb)
            assert status == 0 and err == ""
            outs.append(out)
        assert outs[0] == outs[1]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["size"])  # missing --w
    assert exc.value.code == 2
    for verb, w in (("size", "0,2"), ("count", "2,x")):  # invalid shapes
        with pytest.raises(SystemExit) as exc:
            main([verb, "--w", w])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])  # unknown verb
    assert exc.value.code == 2
    for flag in ("--samples", "--trials"):
        for bad in ("-1", "-5", "x"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--w", "2,2", flag, bad])
            assert exc.value.code == 2
    assert "bad count '-5': trials must be at least 0, got -5" in capsys.readouterr().err
    # only parsed: a count above the limit must stop before any work
    for flag, limit in (("--samples", VERIFY_SAMPLE_LIMIT), ("--trials", VERIFY_TRIAL_LIMIT)):
        argv = ["verify", "--w", "2,2", flag]
        assert vars(build_parser().parse_args(argv + [str(limit)]))[flag[2:]] == limit
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [str(limit + 1)])
        assert exc.value.code == 2
        assert f"must be at most {limit}" in capsys.readouterr().err
    for bad in ("0", "-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--w", "2,2", "--cap", bad])
        assert exc.value.code == 2
    assert "bad count '-1': cap must be at least 1, got -1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--w", "2,2", "--max-cells", "30"])  # no work budget override
    assert exc.value.code == 2


def test_a_huge_count_gives_a_short_usage_error(capsys):
    for flag, verb in (("--cap", "enumerate"), ("--samples", "verify"), ("--trials", "verify")):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--w", "2,2", flag, "9" * 5000])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bad count '99999" in err and len(err.splitlines()[-1]) < 400


def test_a_long_shape_or_seed_gives_a_short_usage_error(capsys):
    for argv, quoted in [(["size", "--w", "1," * 50_000 + "x"], "bad shape '1,1,"),
                         (["verify", "--w", "2,2", "--seed", "9" * 6000], "bad seed '999"),
                         (["game", "--w", "2,2", "--seed", "9" * 6000], "bad seed '999"),
                         (["game", "--w", "2,2", "--players", "9" * 6000], "bad players '999")]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert quoted in err and len(err.splitlines()[-1]) < 400 and len(err) < 1000


def test_a_long_strategy_name_gives_a_short_domain_error(capsys):
    status, _, err = run(capsys, "game", "--w", "2,2", "--strategy", "x" * 100_000)
    assert status == 1 and len(err) < 1000
    assert json.loads(err)["detail"].startswith("unknown strategy 'xxx")


def test_every_int_seed_still_parses(capsys):
    for seed in ("-5", "+7", " 3 ", "1_000", "-" + "9" * 4000):
        status, out, _ = run(capsys, "game", "--w", "2,2", "--strategy", "random",
                             "--seed", seed, "--json")
        assert status == 0 and json.loads(out)["loser"] in (0, 1)
    status, _, _ = run(capsys, "verify", "--w", "2,2", "--samples", "2", "--trials", "1",
                       "--seed", "-3", "--json")
    assert status == 0


def test_bad_json_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    status, _, err = run(capsys, "normalize", "--json")
    assert status == 1
    assert json.loads(err)["error"] == "JSONDecodeError"


def test_verify_plain_prints_one_line_per_check(capsys):
    status, out, _ = run(
        capsys, "verify", "--w", "2,2", "--samples", "20", "--trials", "2", "--plain"
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 8


def _first_row(**change):
    return dict(MAP_22, rows=[dict(MAP_22["rows"][0], **change), MAP_22["rows"][1]])


MALFORMED = [
    *((_first_row(l=v), "ValueError") for v in (1.9, True, "1", None, [1])),
    *((_first_row(x=v), "ValueError") for v in (1, [1.0], [[1]])),
    (dict(MAP_22, w=5), "ValueError"),
    ({"w": [2, 2], "ones": [[1, "a"], [1, 2]]}, "ValueError"),
    ({"w": [2, 2], "ones": [[1, [1]], [1, 2]]}, "ValueError"),
    # a duplicate, a cell outside the box, a bool, a float, a wrong length
    ({"w": [2, 2], "ones": [[1, 2], [1, 1], [1, 2]]}, "ValueError"),
    ({"w": [2, 2], "ones": [[1, 1], [3, 1]]}, "ValueError"),
    ({"w": [2, 2], "ones": [[1, 1], [True, 2]]}, "ValueError"),
    ({"w": [2, 2], "ones": [[1, 1], [2.0, 1]]}, "ValueError"),
    ({"w": [2, 2], "ones": [[1, 1], [2, 1, 1]]}, "DimensionMismatch"),
]


# ids by row number, as when the rows were inputs alone
@pytest.mark.parametrize("bad, code", MALFORMED, ids=[f"bad{i}" for i in range(len(MALFORMED))])
def test_malformed_json_exits_1(capsys, monkeypatch, bad, code):
    for verb in ("normalize", "extend", "project"):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad)))
        status, out, err = run(capsys, verb, "--json")
        assert status == 1 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["error"] == code


def test_verify_zero_trials_says_skipped(capsys):
    status, out, _ = run(capsys, "verify", "--w", "2,2", "--samples", "5",
                         "--trials", "0", "--json")
    assert status == 0
    game = json.loads(out)["checks"][-1]
    assert game == {"name": "game-loser", "passed": True,
                    "detail": "skipped: 0 trials requested"}


# one SHA-256 over the `verify --json` output and then the exit code of every
# shape of iter_shapes(25, 4), in order; verify_digests.txt pins the first 12
# hex digits of each shape's own digest, so a mismatch names its first shape
VERIFY_DIGEST = "30f166fe0f027aa5d38c992e397e661f3b6f189fb27381faa758b23caca39f8a"


@pytest.mark.slow
def test_verify_bytes_are_pinned_on_every_small_shape(capsys):
    total, shapes = hashlib.sha256(), []
    for shape in iter_shapes(25, 4):
        w = ",".join(map(str, shape.dims))
        status, out, _ = run(capsys, "verify", "--w", w, "--json")
        data = out.encode() + str(status).encode()
        total.update(data)
        shapes.append(f"{w} {hashlib.sha256(data).hexdigest()[:12]}")
    if total.hexdigest() != VERIFY_DIGEST:
        pinned = (Path(__file__).parent / "verify_digests.txt").read_text().splitlines()
        first = next(((got, want) for got, want in zip_longest(shapes, pinned) if got != want),
                     "none; only the total differs")
        pytest.fail(f"verify bytes changed; first shape (got, pinned): {first}")


# every field one swap can reach: the dims, one ones-coordinate, or one row's
# id, id coordinate or bound
FIELDS = [(GRID_33, ("w",)), (GRID_33, ("w", 1)), (GRID_33, ("ones", 2, 0)),
          (GRID_22, ("w", 1)), (GRID_22, ("ones", 0, 1)), (GRID_22, ("ones", 1))]
FIELDS += [(MAP_33_NORMALIZED, path) for row in range(3) for path in (
    ("rows", row, "x"), ("rows", row, "x", 0), ("rows", row, "l"), ("rows", row, "h"))]
FIELDS += [(MAP_33_NORMALIZED, ("w",)), (MAP_33_NORMALIZED, ("w", 0))]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("normalize", "peel", "extend", "project")),
       st.sampled_from(FIELDS), json_values)
def test_json_verbs_never_leak_a_traceback(verb, field, value):
    base, path = field
    obj = copy.deepcopy(base)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value

    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(json.dumps(obj))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main([verb, "--json"])
    finally:
        sys.stdin = saved
    if status == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert status == 1 and out.getvalue() == ""
        assert "error" in json.loads(err.getvalue())
