import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxac import check_characterization
from maxac.cli import main

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


def test_count_formula(capsys):
    status, out, _ = run(capsys, "count", "--w", "4,5", "--method", "formula", "--json")
    assert status == 0
    assert json.loads(out)["count"] == 35

    status, out, _ = run(capsys, "count", "--w", "2,2,2", "--method", "formula", "--json")
    assert status == 0
    assert json.loads(out)["count"] == 2

    status, out, err = run(capsys, "count", "--w", "3,3,3", "--method", "formula", "--json")
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
    status, out, err = run(capsys, "game", "--w", "2,2", "--players", "1000000000", "--json")
    assert status == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_game_single_strategy_broadcasts(capsys):
    status, out, _ = run(
        capsys, "game", "--w", "2,2", "--players", "3", "--strategy", "lex", "--json"
    )
    assert status == 0
    assert json.loads(out)["loser"] == 0  # 3 mod 3


def test_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "enumerate", "--w", "3,3", "--json")
    _, second, _ = run(capsys, "enumerate", "--w", "3,3", "--json")
    assert first == second
    _, g1, _ = run(capsys, "game", "--w", "3,3", "--players", "2",
                   "--strategy", "random", "--seed", "7", "--json")
    _, g2, _ = run(capsys, "game", "--w", "3,3", "--players", "2",
                   "--strategy", "random", "--seed", "7", "--json")
    assert g1 == g2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["size"])  # missing --w
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["size", "--w", "0,2"])  # invalid shape
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])  # unknown verb
    assert exc.value.code == 2
    for flag in ("--samples", "--trials"):
        for bad in ("-1", "-5", "x"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--w", "2,2", flag, bad])
            assert exc.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err
    for bad in ("0", "-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--w", "2,2", "--cap", bad])
        assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--w", "2,2", "--max-cells", "30"])  # no work budget override
    assert exc.value.code == 2


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


@pytest.mark.parametrize("bad", [
    *(_first_row(l=v) for v in (1.9, True, "1", None, [1])),
    *(_first_row(x=v) for v in (1, [1.0], [[1]])),
    dict(MAP_22, w=5),
    {"w": [2, 2], "ones": [[1, "a"], [1, 2]]},
    {"w": [2, 2], "ones": [[1, [1]], [1, 2]]},
])
def test_malformed_json_exits_1(capsys, monkeypatch, bad):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad)))
    status, out, err = run(capsys, "normalize", "--json")
    assert status == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_verify_zero_trials_says_skipped(capsys):
    status, out, _ = run(capsys, "verify", "--w", "2,2", "--samples", "5",
                         "--trials", "0", "--json")
    assert status == 0
    game = json.loads(out)["checks"][-1]
    assert game == {"name": "game-loser", "passed": True,
                    "detail": "skipped: 0 trials requested"}


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
