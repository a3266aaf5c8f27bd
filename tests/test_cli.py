import json

import pytest

from maxac.cli import main

GRID_33 = {"w": [3, 3], "ones": [[1, 3], [2, 3], [3, 1], [3, 2], [3, 3]]}


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
    import io

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
    import io

    bad = {"w": [2, 2], "ones": [[1, 2], [2, 1]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad)))
    status, out, err = run(capsys, "normalize", "--json")
    assert status == 1 and out == ""
    assert json.loads(err)["error"] == "NotMaximal"


def test_normalize_reports_empty_row(capsys, monkeypatch):
    import io

    bad = {"w": [2, 2], "ones": [[1, 1]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad)))
    status, _, err = run(capsys, "normalize", "--json")
    assert status == 1
    assert json.loads(err)["error"] == "EmptyRow"


def test_peel_accepts_interval_map_input(capsys, tmp_path, monkeypatch):
    normalized = {
        "w": [3, 3],
        "rows": [
            {"x": [1], "l": 2, "h": 3},
            {"x": [2], "l": 2, "h": 2},
            {"x": [3], "l": 1, "h": 2},
        ],
    }
    path = tmp_path / "map.json"
    path.write_text(json.dumps(normalized))
    status, out, _ = run(capsys, "peel", "--input", str(path), "--json")
    assert status == 0
    obj = json.loads(out)
    assert obj["w"] == [3, 2]
    assert obj["rows"] == [
        {"x": [1], "l": 2, "h": 2},
        {"x": [2], "l": 2, "h": 2},
        {"x": [3], "l": 1, "h": 2},
    ]


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


def test_bad_json_input(capsys, monkeypatch):
    import io

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
