import argparse
import ast
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

import pytest
from reference_count import plane_partitions

from maxac import CheckResult, check_characterization, iter_shapes
from maxac.cli import build_parser, main
from maxac.errors import BoxError

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


# the CLI's contract, one row per line: {"args", "stdin"?, "file"?, "tty"?,
# "exit", "stdout", "stderr"}.  A "file" row's text is input.json in the
# working directory, and a "tty" row's stdout is a terminal.  An exit-2 row
# pins only argparse's message, the text after "error: " on the last line of
# stderr: the usage text above it differs across Python versions
CLI_CASES = json.loads((Path(__file__).parent / "cli_cases.json").read_text())
# the commands whose exact stdout the cli benchmark checks, each row
# {"args", "stdin"?, "stdout"}: every verb, each exiting 0 with no stderr
CLI_SCRIPT = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "cli_script.json").read_text())


VERBS = set(next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices)


@pytest.mark.parametrize("row", CLI_CASES, ids=[
    f"{i:02d} {' '.join(row['args'])}"[:60] + (" (tty)" if row.get("tty") else "")
    for i, row in enumerate(CLI_CASES)])
def test_the_cli_cases_give_their_pinned_exit_and_bytes(capsys, monkeypatch, tmp_path, row):
    monkeypatch.chdir(tmp_path)
    if "file" in row:
        (tmp_path / "input.json").write_text(row["file"])
    monkeypatch.setattr("sys.stdin", io.StringIO(row.get("stdin", "")))
    if row.get("tty"):
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    try:
        status = main(row["args"])
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    if status == 2:
        err = err.splitlines()[-1].partition(": error: ")[2]
    assert (status, out, err) == (row["exit"], row["stdout"], row["stderr"])


@pytest.mark.parametrize("row", CLI_SCRIPT, ids=[
    f"{i:02d} {' '.join(row['args'])}" for i, row in enumerate(CLI_SCRIPT)])
def test_the_cli_script_prints_its_pinned_bytes(capsys, monkeypatch, tmp_path, row):
    test_the_cli_cases_give_their_pinned_exit_and_bytes(
        capsys, monkeypatch, tmp_path, dict(row, exit=0, stderr=""))


# the codes no CLI input reaches, and why
UNREACHABLE = {
    "BoxError": "the base class: the package raises only its subclasses",
    "EmptyXSet": "only find_pair and convert_step raise it, and normalize drains the set without them",
    "AlreadyContains": "only complete_to_maximal raises it, and no verb calls it",
    "StrategyReturnedNonZeroCell": "only a callable strategy returns cells, and the CLI takes names",
    "StrategyReturnedOutOfRange": "only a callable strategy returns cells, and the CLI takes names",
}
# the subclasses of the builtin types cli.main catches that its input readers raise
READER_ERRORS = {"JSONDecodeError", "FileNotFoundError", "IsADirectoryError"}


def _codes(cls):
    return {cls.code}.union(*map(_codes, cls.__subclasses__()))


def test_the_cli_cases_cover_every_verb_mode_input_and_error_code():
    assert {row["args"][0] for row in CLI_SCRIPT} == VERBS
    passing = [row for row in CLI_CASES if row["exit"] == 0]
    for mode in ("--json", "--plain"):
        assert {row["args"][0] for row in passing if mode in row["args"]} == VERBS
    for verb in ("normalize", "peel"):  # from a grid and from a map
        assert {"rows" in json.loads(row.get("stdin") or row["file"])
                for row in passing if row["args"][0] == verb} == {False, True}
    assert any(row.get("tty") and not {"--json", "--plain"} & set(row["args"])
               for row in passing)
    handlers = [node for node in ast.walk(ast.parse(inspect.getsource(main)))
                if isinstance(node, ast.ExceptHandler)]
    caught = {node.id for h in handlers for node in ast.walk(h.type) if isinstance(node, ast.Name)}
    codes = (caught - {"BoxError"} | _codes(BoxError) | READER_ERRORS) - set(UNREACHABLE)
    assert {json.loads(row["stderr"])["error"] for row in CLI_CASES if row["exit"] == 1} == codes


@pytest.mark.parametrize("mode", ["--json", "--plain"])
def test_verify_exits_1_when_a_check_fails(capsys, monkeypatch, mode):
    failed, seeds = CheckResult("game-loser", False, "loser off on trial 0"), []

    def check_game(shape, trials, seed):
        seeds.append(seed)
        return failed

    monkeypatch.setattr("maxac.verification.check_game", check_game)
    status, out, err = run(capsys, "verify", "--w", "2,2", "--samples", "5", "--trials", "1", mode)
    # the default seed: what a failing check reports depends on it
    assert (status, err, seeds) == (1, "", [0])
    if mode == "--json":
        assert '"passed":false,' in out
        assert json.loads(out)["checks"][-1] == {
            "name": "game-loser", "passed": False, "detail": "loser off on trial 0"}
    else:
        assert out.splitlines()[-2:] == ["FAIL  game-loser: loser off on trial 0",
                                         "some checks FAILED for shape (2, 2)"]


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


GRID_332 = {"w": [3, 3, 2], "ones": [
    [1, 1, 2], [1, 2, 2], [1, 3, 1], [1, 3, 2], [2, 1, 2], [2, 2, 2], [2, 3, 1],
    [2, 3, 2], [3, 1, 1], [3, 1, 2], [3, 2, 1], [3, 2, 2], [3, 3, 1], [3, 3, 2]]}


def test_output_is_byte_identical_across_runs(capsys, monkeypatch):
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


def test_usage_errors_exit_2():
    # no row of cli_cases.json: argparse's list of the verbs differs across
    # Python versions
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # only parsed: a count at the limit (10000, as documented) is accepted
    for flag in ("--samples", "--trials"):
        args = build_parser().parse_args(["verify", "--w", "2,2", flag, "10000"])
        assert vars(args)[flag[2:]] == 10_000


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
    # JSON that is no object at all
    *((v, "ValueError") for v in ([], 42, None, "x")),
]


# ids by row number, as when the rows were inputs alone
@pytest.mark.parametrize("bad, code", MALFORMED, ids=[f"bad{i}" for i in range(len(MALFORMED))])
def test_malformed_json_exits_1(capsys, monkeypatch, bad, code):
    for verb in ("normalize", "peel", "extend", "project"):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad)))
        status, out, err = run(capsys, verb, "--json")
        assert status == 1 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["error"] == code
        if not isinstance(bad, dict):
            assert json.loads(err)["detail"] == "input JSON must be an object"


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
