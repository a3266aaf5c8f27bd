"""Domain errors shared across the package.

Every error carries a short stable ``code`` string that the CLI emits in its
JSON error object.
"""

from __future__ import annotations


class BoxError(Exception):
    """Base class for domain errors raised by maxac."""

    code = "BoxError"


class DimensionMismatchError(BoxError):
    """Two vectors of different dimension were compared."""

    code = "DimensionMismatch"


class EmptyRowError(BoxError):
    """A row of the box has no one-cells, so the grid cannot be maximal."""

    code = "EmptyRow"

    def __init__(self, row):
        self.row = row
        super().__init__(f"row {row} has no one-cells")


class NonContiguousRowError(BoxError):
    """A row's one-cells have a gap, so the grid cannot be maximal."""

    code = "NonContiguousRow"

    def __init__(self, row):
        self.row = row
        super().__init__(f"one-cells of row {row} are not a contiguous segment")


class EmptyXSetError(BoxError):
    """No row reaches the top while having ancestors; nothing to convert."""

    code = "EmptyXSet"

    def __init__(self):
        super().__init__("the obstruction set is empty")


class XSetNonEmptyError(BoxError):
    """Peeling requires that no ancestored row still reaches the top."""

    code = "XSetNonEmpty"

    def __init__(self, rows):
        self.rows = rows
        super().__init__(f"rows still reach the top despite ancestors: {sorted(rows)}")


class BottomedOutError(BoxError):
    """The last dimension is already 1 and cannot shrink further."""

    code = "BottomedOut"


class ShapeTooLargeError(BoxError):
    """The box exceeds a work budget: the cell budget, or one ``detail`` names."""

    code = "ShapeTooLarge"

    def __init__(self, cells, limit, detail=None):
        self.cells = cells
        self.limit = limit
        super().__init__(detail or f"box has {cells} cells, limit is {limit}")


class AlreadyContainsError(BoxError):
    """The grid already holds a strictly dominating pair of one-cells."""

    code = "AlreadyContains"

    def __init__(self):
        super().__init__("grid already contains a strictly dominating pair")


class NotMaximalError(BoxError):
    """The operation is defined only for maximal grids."""

    code = "NotMaximal"

    def __init__(self, detail="input grid is not maximal"):
        super().__init__(detail)


class PreconditionViolatedError(BoxError):
    """A closed form was asked outside its domain of validity."""

    code = "PreconditionViolated"


class StrategyReturnedNonZeroCellError(BoxError):
    """A custom strategy tried to flip a cell that is already on."""

    code = "StrategyReturnedNonZeroCell"

    def __init__(self, player, cell):
        self.player = player
        self.cell = cell
        super().__init__(f"player {player} returned occupied cell {cell}")


class StrategyReturnedOutOfRangeError(BoxError):
    """A custom strategy returned a cell outside the box."""

    code = "StrategyReturnedOutOfRange"

    def __init__(self, player, cell):
        self.player = player
        self.cell = cell
        super().__init__(f"player {player} returned out-of-range cell {cell!r}")
