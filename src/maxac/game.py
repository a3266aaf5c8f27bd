"""The m-player exclusion game on a box.

Players 0..m-1 take turns turning on a zero cell; whoever first creates a
strictly dominating pair of one-cells loses.  As long as everyone plays
moves that keep the board clean, the board grows into a maximal grid after
exactly ``max_size`` moves, so the player ``max_size mod m`` is stuck and
loses regardless of strategy.

``play`` turns cells on by the flood fill in ``core._turn_on`` (alive = a
safe move; a flip loses exactly when its cell is dead), which reads each
flooded cell's neighbours from the flood table of the box's cached layout
(``core._box``).  A lex player takes the first alive cell, which
``bytearray.find`` finds from the last lex pick on, as it only moves forward.  A random player's cell comes
from a Fenwick tree over the alive flags, at O(log n) per pick and per killed
cell; lex-only games keep no tree.  A game on n cells thus takes
O(n (d + log n)) steps.  ``safe_moves`` recomputes the safe set by
definition, as the oracle in tests.  ``Grid`` and ``GameState`` are built
only for callable strategies and the transcript, and the board skips the
``Grid`` checks: ``play`` has checked every cell on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .core import (GAME_CELL_LIMIT, Cell, Grid, Shape, _brief, _flood_box, _is_int, _trusted,
                   _turn_on, flip_creates_containment, max_size)
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
    _check_players(players, bounded=False)
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
    ``GAME_CELL_LIMIT`` cells raise ``ShapeTooLargeError``; a ``players``
    that is not an ``int`` or is a ``bool``, and fewer than two or more than
    ``GAME_CELL_LIMIT + 1`` players, raise ``ValueError``.
    """
    _check_players(players)
    if len(strategies) != players:
        raise ValueError(f"expected {players} strategies, got {len(strategies)}")
    for s in strategies:
        if not callable(s) and s not in BUILTIN_STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    box = _flood_box(shape)
    n = shape.cell_count
    cells, strides, steps = box.cells, box.strides, box.steps
    alive = bytearray(b"\x01") * n
    # the first alive cell only moves forward, so lex resumes from its last
    # pick; fenwick[1..n] counts the alive cells for random picks
    first = 0
    rng = fenwick = None
    if "random" in strategies:
        rng = random.Random(seed)
        fenwick = [j & -j for j in range(n + 1)]
    size = n

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
            if not size:
                j = next(i for i in range(n) if cells[i] not in one_set)
            elif strategy == "lex":
                j = first = alive.find(1, first)
            else:
                j = kth_alive(rng.choice(range(size)))
            cell = cells[j]
        moves.append((player, cell))
        one_set.add(cell)
        if not alive[j]:
            return Transcript(final_state=_state(shape, players, moves), loser=player,
                              terminal_cell=cell, forced=not size)
        killed = _turn_on(steps, alive, j)
        size -= len(killed)
        if fenwick is not None:
            for i in killed:
                i += 1
                while i <= n:
                    fenwick[i] -= 1
                    i += i & -i
    # full clean board: the player to move cannot move at all
    return Transcript(final_state=_state(shape, players, moves),
                      loser=len(moves) % players, terminal_cell=None, forced=True)


def _check_players(players: int, bounded: bool = True) -> None:
    if not _is_int(players):
        raise ValueError(f"the number of players must be an int, got {_brief.repr(players)}")
    if players < 2:
        raise ValueError("the game needs at least two players")
    if bounded and players > GAME_CELL_LIMIT + 1:
        # a game within the cell budget ends after at most GAME_CELL_LIMIT + 1 moves
        raise ValueError(f"the game takes at most {GAME_CELL_LIMIT + 1} players")


def _state(shape: Shape, players: int, moves: list[tuple[int, Cell]]) -> GameState:
    # the moves are distinct in-box cells: play checked each one it did not
    # take from the box's own cell tuple
    board = _trusted(Grid, shape=shape, ones=tuple(sorted(c for _, c in moves)))
    return GameState(shape=shape, board=board, players=players, moves=tuple(moves))
