"""The package's public names: the same set and the same objects as the eager
imports gave, in every import order; and the README's quick start and
demos."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import maxac

SRC = Path(__file__).resolve().parents[1] / "src"

# each public name and the submodule that exports it
EXPORTS = {
    "core": ["Cell", "Grid", "Shape", "VERIFY_SAMPLE_LIMIT", "VERIFY_TRIAL_LIMIT",
             "contains_forbidden", "flip_creates_containment", "is_maximal", "max_size",
             "strictly_below", "weight"],
    "counting": ["EXTEND_CELL_LIMIT", "extend_by_two", "project_last"],
    "enumeration": ["BRUTE_FORCE_CELL_LIMIT", "COUNT_DIGIT_LIMIT", "COUNT_STATE_LIMIT",
                    "COUNT_WORK_LIMIT", "DEFAULT_CELL_LIMIT", "EnumerationReport",
                    "brute_force_maximal", "complete_to_maximal", "count_closed_form",
                    "count_maximal", "enumerate_maximal", "random_maximal"],
    "errors": ["AlreadyContainsError", "BottomedOutError", "BoxError",
               "DimensionMismatchError", "EmptyRowError", "EmptyXSetError",
               "NonContiguousRowError", "NotMaximalError", "PreconditionViolatedError",
               "ShapeTooLargeError", "StrategyReturnedNonZeroCellError",
               "StrategyReturnedOutOfRangeError", "XSetNonEmptyError"],
    "game": ["GAME_CELL_LIMIT", "GameState", "Transcript", "play", "predict_loser",
             "safe_moves"],
    "normalize": ["NormalizeReport", "convert_step", "find_pair", "normalize", "peel"],
    "rowform": ["CharacterizationReport", "IntervalMap", "RowId", "check_characterization",
                "from_intervals", "to_intervals", "x_set"],
    "verification": ["CheckResult", "iter_shapes", "sample_non_maximal", "verify_shape"],
}


def test_all_lists_every_public_name_once():
    names = [name for names in EXPORTS.values() for name in names] + ["__version__"]
    assert len(names) == 62
    assert sorted(maxac.__all__) == sorted(names)
    assert set(names) <= set(dir(maxac))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_object_its_module_exports(module):
    source = importlib.import_module(f"maxac.{module}")
    for name in EXPORTS[module]:
        assert getattr(maxac, name) is getattr(source, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from maxac import *", namespace)
    assert set(maxac.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(maxac, name) for name in maxac.__all__)


def test_unknown_names_raise():
    with pytest.raises(AttributeError):
        maxac.no_such_name
    with pytest.raises(ImportError):
        exec("from maxac import no_such_name", {})


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter in dev mode, every warning an error."""
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    return proc.stdout.strip()


@pytest.mark.parametrize("first", [
    *(f"import maxac.{module}" for module in ["cli", *EXPORTS]),
    "import io, sys, maxac.cli; sys.stdin = io.StringIO('{\"w\": [2, 2], \"ones\": "
    "[[1, 1], [1, 2], [2, 1]]}'); assert maxac.cli.main(['normalize']) == 0",
    "from maxac import normalize",
])
def test_normalize_is_the_function_in_every_import_order(first):
    # core reaches rowform through its package, and the lazy pairs and
    # intervals of normalize's report reach _walk and core
    out = _fresh(f"{first}\nimport maxac.core as core, maxac\n"
                 "print(core.is_maximal(core.Grid(core.Shape((2, 2)), [(1, 1), (1, 2), (2, 1)])))\n"
                 "r = maxac.normalize(maxac.to_intervals(maxac.Grid(maxac.Shape((3, 3)),"
                 " [(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)])))\n"
                 "print(r.pairs, dict(maxac.peel(r.result).intervals))\n"
                 "from maxac import normalize\n"
                 "print(type(normalize).__name__, normalize.__module__,"
                 " maxac.normalize is normalize)")
    assert out.splitlines()[-3:] == [
        "True",
        "(((3,), (2,)), ((2,), (1,))) {(1,): (2, 2), (2,): (2, 2), (3,): (1, 2)}",
        "function maxac.normalize True"]


def test_importing_the_package_loads_no_submodule():
    out = _fresh("import sys, maxac\n"
                 "print(sorted(m for m in sys.modules if m.startswith('maxac')))")
    assert out == "['maxac']"


def test_a_cli_keeps_running_the_copy_of_the_package_it_was_loaded_with():
    # as a harness that imports the package afresh leaves two copies behind
    out = _fresh("import io, sys\n"
                 "import maxac.cli, maxac.verification\n"
                 "first = maxac.cli\n"
                 "for name in [n for n in sys.modules if n.split('.')[0] == 'maxac']:\n"
                 "    del sys.modules[name]\n"
                 "import maxac.cli, maxac.verification\n"
                 "sys.stdin = io.StringIO('{\"w\": [3, 3], \"ones\": "
                 "[[1, 3], [2, 3], [3, 1], [3, 2], [3, 3]]}')\n"
                 "print(first.main(['normalize']),"
                 " first.main(['verify', '--w', '2,2', '--samples', '5', '--trials', '1']))")
    assert out.splitlines()[-1].endswith("0 0")


def test_is_maximal_keeps_deciding_through_its_own_copy_of_the_row_form():
    out = _fresh("import sys\n"
                 "import maxac.core, maxac.rowform\n"
                 "core, rowform = maxac.core, maxac.rowform\n"
                 "for name in [n for n in sys.modules if n.split('.')[0] == 'maxac']:\n"
                 "    del sys.modules[name]\n"
                 "import maxac.core, maxac.rowform\n"
                 "calls = []\n"
                 "decide = rowform.maximal_row_form\n"
                 "rowform.maximal_row_form = lambda g: calls.append(g) or decide(g)\n"
                 "shape = core.Shape((2, 2))\n"
                 "print(core.is_maximal(core.Grid(shape, [(1, 1), (1, 2), (2, 1)])),"
                 " core.is_maximal(core.Grid(shape, [(1, 2), (2, 1)])), len(calls))")
    assert out.splitlines()[-1] == "True False 2"


def test_one_copys_shapes_and_grids_pass_the_other_copys_type_checks():
    # max_size, is_maximal and to_intervals test the attributes, not the class
    out = _fresh("import sys\n"
                 "import maxac\n"
                 "old = maxac\n"
                 "for name in [n for n in sys.modules if n.split('.')[0] == 'maxac']:\n"
                 "    del sys.modules[name]\n"
                 "import maxac\n"
                 "shape = old.Shape((2, 2))\n"
                 "g = old.Grid(shape, [(1, 1), (1, 2), (2, 1)])\n"
                 "print(maxac.max_size(shape), maxac.is_maximal(g),"
                 " dict(maxac.to_intervals(g).intervals))")
    assert out.splitlines()[-1] == "3 True {(1,): (1, 2), (2,): (1, 1)}"


def test_the_readme_quick_start_gives_what_its_comments_say():
    readme = (SRC.parent / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)[1]
    # run the block statement by statement, keeping each bare expression's value
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    size, _, loser = values
    assert (size, len(namespace["report"].grids), loser) == (5, 6, 1)


DEMOS = sorted((SRC.parent / "demos").glob("0*.py"))


def test_the_readme_lists_every_demo():
    readme = (SRC.parent / "README.md").read_text()
    assert re.findall(r"python3 demos/(\S+\.py)", readme) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_each_demo_runs_in_dev_mode_with_nothing_on_stderr(demo):
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(demo)],
                          capture_output=True, text=True, cwd=SRC.parent,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
