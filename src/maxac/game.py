"""The m-player exclusion game on a box.

Players 0..m-1 take turns turning on a zero cell; whoever first creates a
strictly dominating pair of one-cells loses.  As long as everyone plays
moves that keep the board clean, the board grows into a maximal grid after
exactly ``max_size`` moves, so the player ``max_size mod m`` is stuck and
loses regardless of strategy.

``play`` carries the safe moves from turn to turn as one list in ascending
lexicographic order.  It starts as the whole box; a flip of ``cell`` keeps
only the cells that differ from ``cell`` and are not comparable to it.  One
move therefore costs O(|safe| d) <= O(n d) for a box of n cells, instead of
rescanning every cell against every one-cell.  A flip is losing exactly when
its cell has left the list, and the mover is stuck exactly when the list is
empty.  ``safe_moves`` recomputes the same set from a board by definition
and serves as the oracle in tests.  A ``Grid`` and ``GameState`` are built
only for callable strategies, which see the full state, and for the
transcript.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .core import Cell, Grid, Shape, comparable, flip_creates_containment, max_size
from .errors import (
    ShapeTooLargeError,
    StrategyReturnedNonZeroCellError,
    StrategyReturnedOutOfRangeError,
)

# built-in strategy names, or a callable mapping the state to a zero cell
Strategy = Union[str, Callable[["GameState"], Cell]]

BUILTIN_STRATEGIES = ("lex", "random")

# largest box ``play`` accepts; a game on n cells takes O(n max_size d) steps
GAME_CELL_LIMIT = 10_000


@dataclass(frozen=True)
class GameState:
    """Snapshot of a game in progress."""

    shape: Shape
    board: Grid
    players: int
    moves: tuple[tuple[int, Cell], ...]

    @property
    def to_move(self) -> int:
        return len(self.moves) % self.players


@dataclass(frozen=True)
class Transcript:
    """A finished game: final state, who lost, and how.

    ``terminal_cell`` is the losing flip, or None when the board filled up
    with no flip left to lose on (possible only in boxes where no two cells
    are comparable); the stuck player still loses.  ``forced`` is False when
    the loser flipped an unsafe cell while safe moves remained.
    """

    final_state: GameState
    loser: int
    terminal_cell: Cell | None
    forced: bool

    def to_json_obj(self) -> dict:
        return {
            "w": list(self.final_state.shape.dims),
            "players": self.final_state.players,
            "moves": [[p, list(c)] for p, c in self.final_state.moves],
            "loser": self.loser,
            "terminal_cell": None if self.terminal_cell is None else list(self.terminal_cell),
            "forced": self.forced,
        }


def predict_loser(shape: Shape, players: int) -> int:
    """The player who runs out of safe moves: max_size(shape) mod players."""
    if players < 2:
        raise ValueError("the game needs at least two players")
    return max_size(shape) % players


def safe_moves(state: GameState) -> set[Cell]:
    """Zero cells whose flip keeps the board clean; empty iff the board is
    maximal."""
    board = state.board
    return {
        c
        for c in state.shape.iter_cells()
        if c not in board.one_set and not flip_creates_containment(board, c)
    }


def play(
    shape: Shape,
    players: int,
    strategies: Sequence[Strategy],
    seed: int = 0,
) -> Transcript:
    """Run one game to completion and return its transcript.

    Strategies are given per player: "lex" plays the lexicographically first
    safe move, "random" a uniform safe move (one generator seeded per game
    drives all random players), and a callable may return any zero cell --
    including an unsafe one, losing on the spot.  Built-ins flip the first
    zero cell once no safe move remains.  Boxes of more than
    ``GAME_CELL_LIMIT`` cells raise ``ShapeTooLargeError``.
    """
    if players < 2:
        raise ValueError("the game needs at least two players")
    if len(strategies) != players:
        raise ValueError(f"expected {players} strategies, got {len(strategies)}")
    for s in strategies:
        if not callable(s) and s not in BUILTIN_STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    if shape.cell_count > GAME_CELL_LIMIT:
        raise ShapeTooLargeError(shape.cell_count, GAME_CELL_LIMIT)

    rng = random.Random(seed)
    # the zero cells not comparable to any one-cell, ascending: the safe moves
    safe = list(shape.iter_cells())
    one_set: set[Cell] = set()
    moves: list[tuple[int, Cell]] = []
    while len(moves) < shape.cell_count:
        player = len(moves) % players
        strategy = strategies[player]
        if callable(strategy):
            returned = strategy(_state(shape, players, moves))
            try:
                cell = tuple(returned)
            except TypeError:
                raise StrategyReturnedOutOfRangeError(player, returned) from None
            if not shape.contains_cell(cell):
                raise StrategyReturnedOutOfRangeError(player, cell)
            if cell in one_set:
                raise StrategyReturnedNonZeroCellError(player, cell)
        elif safe:
            cell = safe[0] if strategy == "lex" else rng.choice(safe)
        else:
            cell = next(c for c in shape.iter_cells() if c not in one_set)
        moves.append((player, cell))
        one_set.add(cell)
        if cell not in safe:
            return Transcript(final_state=_state(shape, players, moves), loser=player,
                              terminal_cell=cell, forced=not safe)
        safe = [c for c in safe if c != cell and not comparable(c, cell)]
    # full clean board: the player to move cannot move at all
    return Transcript(final_state=_state(shape, players, moves),
                      loser=len(moves) % players, terminal_cell=None, forced=True)


def _state(shape: Shape, players: int, moves: list[tuple[int, Cell]]) -> GameState:
    board = Grid(shape, [c for _, c in moves])
    return GameState(shape=shape, board=board, players=players, moves=tuple(moves))
