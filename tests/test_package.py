"""The package's public names: the same set and the same objects as the eager
imports gave, in every import order."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxac

SRC = Path(__file__).resolve().parents[1] / "src"

# each public name and the submodule that exports it
EXPORTS = {
    "core": ["Cell", "Grid", "Shape", "contains_forbidden", "flip_creates_containment",
             "is_maximal", "max_size", "strictly_below", "weight"],
    "counting": ["count_closed_form", "extend_by_two", "project_last"],
    "enumeration": ["BRUTE_FORCE_CELL_LIMIT", "DEFAULT_CELL_LIMIT", "EnumerationReport",
                    "brute_force_maximal", "complete_to_maximal", "count_maximal",
                    "enumerate_maximal", "random_maximal"],
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
    "verification": ["VERIFY_SAMPLE_LIMIT", "VERIFY_TRIAL_LIMIT", "CheckResult",
                     "iter_shapes", "sample_non_maximal", "verify_shape"],
}


def test_all_lists_every_public_name_once():
    names = [name for names in EXPORTS.values() for name in names] + ["__version__"]
    assert len(names) == 58
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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    return proc.stdout.strip()


@pytest.mark.parametrize("first", [
    "import maxac.verification",
    "import maxac.normalize",
    "import io, sys, maxac.cli; sys.stdin = io.StringIO('{\"w\": [2, 2], \"ones\": "
    "[[1, 1], [1, 2], [2, 1]]}'); assert maxac.cli.main(['normalize']) == 0",
    "from maxac import normalize",
])
def test_normalize_is_the_function_in_every_import_order(first):
    out = _fresh(f"{first}\nimport maxac\nfrom maxac import normalize\n"
                 "print(type(normalize).__name__, normalize.__module__,"
                 " maxac.normalize is normalize)")
    assert out.splitlines()[-1] == "function maxac.normalize True"


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
