"""The m-player exclusion game on a box.

Players 0..m-1 take turns turning on a zero cell; whoever first creates a
strictly dominating pair of one-cells loses.  As long as everyone plays
moves that keep the board clean, the board grows into a maximal grid after
exactly ``max_size`` moves, so the player ``max_size mod m`` is stuck and
loses regardless of strategy.

``play`` turns cells on by ``core._turn_on`` (alive = a safe move; a flip
loses exactly when its cell is dead), which clears what a flip kills as runs
along the last axis: one ``find`` and one slice assignment per row it
reaches, over the rows that a flood of the row box's flood table visits
(``core._box`` caches both boxes).  A lex player takes the first alive cell,
which ``bytearray.find`` finds from the last lex pick on, as it only moves
forward.  A random player's cell is ``order[k]`` for a uniform k, where
``order`` lists the alive cells' flat indices ascending.  Every cell of a
killed run is alive, and the run is a range of flat indices, so its cells
sit side by side in ``order``: one bisection finds the first and one slice
deletion drops them all, an O(n) ``memmove`` in C rather than a Python step
per cell.  Lex-only games keep no list.  A move thus costs O(d) flood steps
per row it reaches and O(1) Python steps per run, not a step per killed
cell.  ``safe_moves`` recomputes the safe set by definition, as the oracle
in tests.  ``Grid``, ``GameState`` and the ``Transcript`` are built only for
callable strategies and the result, and skip their constructors' checks:
``play`` has checked every cell on the board.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .core import (GAME_CELL_LIMIT, Cell, Grid, Shape, _box, _brief, _flood_box, _require_int,
                   _require_type, _trusted, _turn_on, flip_creates_containment, max_size)
from .errors import StrategyReturnedNonZeroCellError, StrategyReturnedOutOfRangeError

# built-in strategy names, or a callable mapping the state to a zero cell
Strategy = Union[str, Callable[["GameState"], Cell]]

BUILTIN_STRATEGIES = ("lex", "random")


@dataclass(frozen=True)
class GameState:
    """Snapshot of a game in progress."""

    shape: Shape
    board: Grid
    players: int
    moves: tuple[tuple[int, Cell], ...]

    def __post_init__(self):
        _require_type("GameState", self.shape, "dims", "a Shape")
        _require_type("GameState", self.board, "ones", "a Grid")

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
    """The player who runs out of safe moves: max_size(shape) mod players.
    ``players`` must be an ``int`` (not a ``bool``) of at least 2, else
    ValueError; unlike ``play``, it has no upper bound."""
    _require_type("predict_loser", shape, "dims", "a Shape")
    _require_int("players", players, 2)
    return max_size(shape) % players


def safe_moves(state: GameState) -> set[Cell]:
    """Zero cells whose flip keeps the board clean; empty iff the board is
    maximal."""
    _require_type("safe_moves", state, "board", "a GameState")
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
    ``GAME_CELL_LIMIT`` cells raise ``ShapeTooLargeError``.  A ``players``
    or ``seed`` that is not an ``int`` or is a ``bool``, and fewer than two
    or more than ``GAME_CELL_LIMIT + 1`` players, raise ``ValueError`` before
    any work; a game within the cell budget ends after at most
    ``GAME_CELL_LIMIT + 1`` moves, so more players never move.  Any ``int``
    seed is valid, negative included.
    """
    _require_type("play", shape, "dims", "a Shape")
    _require_int("players", players, 2, GAME_CELL_LIMIT + 1)
    _require_int("seed", seed)
    if len(strategies) != players:
        raise ValueError(f"expected {players} strategies, got {len(strategies)}")
    for s in strategies:
        if not callable(s) and s not in BUILTIN_STRATEGIES:
            raise ValueError(f"unknown strategy {_brief.repr(s)}")
    box = _flood_box(shape)
    n, width = len(box.cells), shape.dims[-1]
    cells, steps = box.cells, _box(shape.dims[:-1]).steps
    alive = bytearray(b"\x01") * n
    # the first alive cell only moves forward, so lex resumes from its last
    # pick.  A random player draws from order, the alive cells' flat indices
    # ascending: the k-th alive cell is order[k]
    first = 0
    rng = order = None
    if "random" in strategies:
        rng = random.Random(seed)
        order = list(range(n))
    size = n
    taken = bytearray(n)
    moves: list[tuple[int, Cell]] = []
    while len(moves) < n:
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
            j = box.index(cell)
            if taken[j]:
                raise StrategyReturnedNonZeroCellError(player, cell)
        else:
            if not size:
                j = taken.find(0)
            elif strategy == "lex":
                j = first = alive.find(1, first)
            else:
                j = order[rng.randrange(size)]
            cell = cells[j]
        moves.append((player, cell))
        taken[j] = 1
        if not alive[j]:
            return _trusted(Transcript, final_state=_state(shape, players, moves), loser=player,
                            terminal_cell=cell, forced=not size)
        for lo, hi in _turn_on(steps, width, alive, j):
            size -= hi - lo
            if order is not None:
                # a run's cells are alive and consecutive in order
                p = bisect_left(order, lo)
                del order[p:p + hi - lo]
    # full clean board: the player to move cannot move at all
    return _trusted(Transcript, final_state=_state(shape, players, moves),
                    loser=len(moves) % players, terminal_cell=None, forced=True)


def _state(shape: Shape, players: int, moves: list[tuple[int, Cell]]) -> GameState:
    # the moves are distinct in-box cells: play checked each one it did not
    # take from the box's own cell tuple, and the board is a Grid
    board = _trusted(Grid, shape=shape, ones=tuple(sorted(c for _, c in moves)))
    return _trusted(GameState, shape=shape, board=board, players=players, moves=tuple(moves))
