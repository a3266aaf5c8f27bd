"""maxac: exact combinatorics of maximal antichains over integer boxes.

Binary d-dimensional grids that avoid a strictly dominating pair of one-cells
are the antichains of the box under strict coordinatewise dominance.  This
package constructs, verifies, normalizes, enumerates and counts the maximal
ones, and simulates the associated multi-player exclusion game.

The public names are loaded lazily (PEP 562): ``_EXPORTS`` maps each
submodule to the names it exports, and the first access to a name imports
its submodule only, so ``import maxac`` and a CLI verb load no more than they
use.  ``from maxac import X``, ``maxac.X`` and ``from maxac import *`` behave
as with eager imports.  The function ``normalize`` shares its name with the
submodule ``maxac.normalize``; the package keeps the function bound under
that name whichever is imported first.

Each copy of the package resolves names through the submodules loaded into
it, not through ``sys.modules``: a process that imports the package afresh
(dropping the ``maxac.*`` entries first, as the benchmark harness does)
holds two copies, and an older copy must not hand out the newer one's
classes.  The CLI calls its callees through its own copy for that reason.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("Cell", "Grid", "Shape", "contains_forbidden", "flip_creates_containment",
             "is_maximal", "max_size", "strictly_below", "weight",
             "VERIFY_SAMPLE_LIMIT", "VERIFY_TRIAL_LIMIT"),
    "counting": ("EXTEND_CELL_LIMIT", "extend_by_two", "project_last"),
    "enumeration": ("BRUTE_FORCE_CELL_LIMIT", "COUNT_DIGIT_LIMIT", "COUNT_STATE_LIMIT",
                    "COUNT_WORK_LIMIT", "DEFAULT_CELL_LIMIT", "EnumerationReport",
                    "brute_force_maximal", "complete_to_maximal", "count_closed_form",
                    "count_maximal", "enumerate_maximal", "random_maximal"),
    "errors": ("AlreadyContainsError", "BottomedOutError", "BoxError",
               "DimensionMismatchError", "EmptyRowError", "EmptyXSetError",
               "NonContiguousRowError", "NotMaximalError", "PreconditionViolatedError",
               "ShapeTooLargeError", "StrategyReturnedNonZeroCellError",
               "StrategyReturnedOutOfRangeError", "XSetNonEmptyError"),
    "game": ("GAME_CELL_LIMIT", "GameState", "Transcript", "play", "predict_loser",
             "safe_moves"),
    "normalize": ("NormalizeReport", "convert_step", "find_pair", "normalize", "peel"),
    "rowform": ("CharacterizationReport", "IntervalMap", "RowId", "check_characterization",
                "from_intervals", "to_intervals", "x_set"),
    "verification": ("CheckResult", "iter_shapes", "sample_non_maximal", "verify_shape"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


_SUBMODULES = {}  # the submodules of this copy of the package, as they load


def _submodule(module):
    return _SUBMODULES.get(module) or import_module(f"{__name__}.{module}")


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        if name in _EXPORTS:  # ``maxac.core`` and the like, as eager imports bound them
            return _submodule(name)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # the import system binds every submodule on its package as it loads;
        # an exported name (the function ``normalize``) wins over its submodule
        if isinstance(value, ModuleType) and name in _EXPORTS:
            _SUBMODULES[name] = value
            if name in _SOURCE:
                return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
