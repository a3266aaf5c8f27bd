"""The m-player exclusion game on a box.

Players 0..m-1 take turns turning on a zero cell; whoever first creates a
strictly dominating pair of one-cells loses.  As long as everyone plays
moves that keep the board clean, the board grows into a maximal grid after
exactly ``max_size`` moves, so the player ``max_size mod m`` is stuck and
loses regardless of strategy.

``play`` keeps one alive flag per cell over flat row-major indices (flat
order is ascending lexicographic order): a cell is alive while it is a safe
move.  A flip loses exactly when its cell is already dead, and the mover is
stuck exactly when no cell is alive.  A safe flip of ``x`` kills ``x`` and
every cell strictly above or below it, by a flood fill over unit steps
``+e_i`` from ``x + (1,...,1)`` and ``-e_i`` from ``x - (1,...,1)`` that stops
at dead cells.  The flood kills exactly the newly comparable cells: a cell
``y > x`` that is already dead is dead through a one-cell ``q < y`` (a
one-cell above ``y`` would lie above ``x`` and ``x`` would not be safe), so
every cell above ``y`` is dead too, and the alive cells above ``x`` form a
down-set that the flood reaches in full; likewise below.  The alive cells
are counted in a Fenwick tree, so "lex" and "random" find their cell in
O(log n).  Each cell dies once per game, at O(d) flood steps and one
O(log n) Fenwick update, so built-in strategies play a whole game on a box
of n cells in O(n (d + log n)).  ``safe_moves`` recomputes the safe set from a board by definition and serves
as the oracle in tests.  A ``Grid`` and ``GameState`` are built only for
callable strategies, which see the full state, and for the transcript.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .core import Cell, Grid, Shape, flip_creates_containment, max_size
from .errors import (
    ShapeTooLargeError,
    StrategyReturnedNonZeroCellError,
    StrategyReturnedOutOfRangeError,
)

# built-in strategy names, or a callable mapping the state to a zero cell
Strategy = Union[str, Callable[["GameState"], Cell]]

BUILTIN_STRATEGIES = ("lex", "random")

# largest box ``play`` accepts; a game on n cells takes O(n (d + log n)) steps
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
    ``GAME_CELL_LIMIT`` cells raise ``ShapeTooLargeError``; fewer than two or
    more than ``GAME_CELL_LIMIT + 1`` players raise ``ValueError``.
    """
    _check_players(players)
    if len(strategies) != players:
        raise ValueError(f"expected {players} strategies, got {len(strategies)}")
    for s in strategies:
        if not callable(s) and s not in BUILTIN_STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    if shape.cell_count > GAME_CELL_LIMIT:
        raise ShapeTooLargeError(shape.cell_count, GAME_CELL_LIMIT)

    rng = random.Random(seed)
    n = shape.cell_count
    cells = list(shape.iter_cells())  # flat row-major index -> cell
    strides = [math.prod(shape.dims[k + 1:]) for k in range(shape.d)]
    # per direction: the coordinate where a unit step leaves the box, and the
    # flat offset of that unit step along each axis
    floods = ((shape.dims, strides), ((1,) * shape.d, [-s for s in strides]))
    # alive[j]: cell j is a safe move; fenwick[1..n] counts alive cells
    alive = bytearray(b"\x01") * n
    fenwick = [j & -j for j in range(n + 1)]
    size = n

    def kill(j: int) -> None:
        nonlocal size
        alive[j] = 0
        size -= 1
        j += 1
        while j <= n:
            fenwick[j] -= 1
            j += j & -j

    def kth_alive(k: int) -> int:
        j, step = 0, 1 << n.bit_length()
        while step:
            if j + step <= n and fenwick[j + step] <= k:
                j += step
                k -= fenwick[j]
            step >>= 1
        return j

    one_set: set[Cell] = set()
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
            if cell in one_set:
                raise StrategyReturnedNonZeroCellError(player, cell)
            j = sum((c - 1) * s for c, s in zip(cell, strides))
        else:
            if size:
                j = kth_alive(0 if strategy == "lex" else rng.choice(range(size)))
            else:
                j = next(i for i in range(n) if cells[i] not in one_set)
            cell = cells[j]
        moves.append((player, cell))
        one_set.add(cell)
        if not alive[j]:
            return Transcript(final_state=_state(shape, players, moves), loser=player,
                              terminal_cell=cell, forced=not size)
        # kill the flip and every cell strictly above or below it; the flood
        # may stop at dead cells because everything beyond them is dead too
        kill(j)
        for stop, steps in floods:
            stack = [j + sum(steps)] if all(c != e for c, e in zip(cell, stop)) else []
            while stack:
                i = stack.pop()
                if alive[i]:
                    kill(i)
                    stack.extend(i + s for c, e, s in zip(cells[i], stop, steps) if c != e)
    # full clean board: the player to move cannot move at all
    return Transcript(final_state=_state(shape, players, moves),
                      loser=len(moves) % players, terminal_cell=None, forced=True)


def _check_players(players: int) -> None:
    if players < 2:
        raise ValueError("the game needs at least two players")
    if players > GAME_CELL_LIMIT + 1:
        # a game within the cell budget ends after at most GAME_CELL_LIMIT + 1 moves
        raise ValueError(f"the game takes at most {GAME_CELL_LIMIT + 1} players")


def _state(shape: Shape, players: int, moves: list[tuple[int, Cell]]) -> GameState:
    board = Grid(shape, [c for _, c in moves])
    return GameState(shape=shape, board=board, players=players, moves=tuple(moves))
