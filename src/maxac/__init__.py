"""maxac: exact combinatorics of maximal antichains over integer boxes.

Binary d-dimensional grids that avoid a strictly dominating pair of one-cells
are the antichains of the box under strict coordinatewise dominance.  This
package constructs, verifies, normalizes, enumerates and counts the maximal
ones, and simulates the associated multi-player exclusion game.
"""

from .core import (
    Cell,
    Grid,
    Shape,
    contains_forbidden,
    flip_creates_containment,
    is_maximal,
    max_size,
    strictly_below,
    weight,
)
from .counting import (
    count_2d,
    count_all_le2,
    extend_by_two,
    project_last,
)
from .enumeration import (
    BRUTE_FORCE_CELL_LIMIT,
    DEFAULT_CELL_LIMIT,
    EnumerationReport,
    brute_force_maximal,
    complete_to_maximal,
    count_maximal,
    enumerate_maximal,
    random_maximal,
)
from .errors import (
    AlreadyContainsError,
    BottomedOutError,
    BoxError,
    DimensionMismatchError,
    EmptyRowError,
    EmptyXSetError,
    NonContiguousRowError,
    NotMaximalError,
    PreconditionViolatedError,
    ShapeTooLargeError,
    StrategyReturnedNonZeroCellError,
    StrategyReturnedOutOfRangeError,
    XSetNonEmptyError,
)
from .game import GAME_CELL_LIMIT, GameState, Transcript, play, predict_loser, safe_moves
from .normalize import NormalizeReport, convert_step, find_pair, normalize, peel
from .rowform import (
    CharacterizationReport,
    IntervalMap,
    RowId,
    check_characterization,
    from_intervals,
    to_intervals,
    x_set,
)
from .verification import (
    VERIFY_SAMPLE_LIMIT,
    VERIFY_TRIAL_LIMIT,
    CheckResult,
    iter_shapes,
    sample_non_maximal,
    verify_shape,
)

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "Grid",
    "Shape",
    "contains_forbidden",
    "flip_creates_containment",
    "is_maximal",
    "max_size",
    "strictly_below",
    "weight",
    "count_2d",
    "count_all_le2",
    "extend_by_two",
    "project_last",
    "BRUTE_FORCE_CELL_LIMIT",
    "DEFAULT_CELL_LIMIT",
    "EnumerationReport",
    "brute_force_maximal",
    "complete_to_maximal",
    "count_maximal",
    "enumerate_maximal",
    "random_maximal",
    "AlreadyContainsError",
    "BottomedOutError",
    "BoxError",
    "DimensionMismatchError",
    "EmptyRowError",
    "EmptyXSetError",
    "NonContiguousRowError",
    "NotMaximalError",
    "PreconditionViolatedError",
    "ShapeTooLargeError",
    "StrategyReturnedNonZeroCellError",
    "StrategyReturnedOutOfRangeError",
    "XSetNonEmptyError",
    "GAME_CELL_LIMIT",
    "GameState",
    "Transcript",
    "play",
    "predict_loser",
    "safe_moves",
    "NormalizeReport",
    "convert_step",
    "find_pair",
    "normalize",
    "peel",
    "CharacterizationReport",
    "IntervalMap",
    "RowId",
    "check_characterization",
    "from_intervals",
    "to_intervals",
    "x_set",
    "VERIFY_SAMPLE_LIMIT",
    "VERIFY_TRIAL_LIMIT",
    "CheckResult",
    "iter_shapes",
    "sample_non_maximal",
    "verify_shape",
    "__version__",
]
