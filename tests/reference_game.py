"""The exclusion game as it is defined, move by move: a test-only oracle.

Every move recomputes the safe moves from the board with ``safe_moves``
(each zero cell against each one-cell), decides a flip's loss with
``flip_creates_containment``, and builds a fresh ``Grid`` and ``GameState``.
It shares none of the incremental safe list in ``maxac.game.play``, and the
tests require both to write identical transcripts.
"""

from __future__ import annotations

import random
from typing import Sequence

from maxac import (
    GameState,
    Grid,
    Shape,
    StrategyReturnedNonZeroCellError,
    StrategyReturnedOutOfRangeError,
    Transcript,
    flip_creates_containment,
    safe_moves,
)
from maxac.game import BUILTIN_STRATEGIES, Strategy


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
    zero cell once no safe move remains.
    """
    if players < 2:
        raise ValueError("the game needs at least two players")
    if len(strategies) != players:
        raise ValueError(f"expected {players} strategies, got {len(strategies)}")
    for s in strategies:
        if not callable(s) and s not in BUILTIN_STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")

    rng = random.Random(seed)
    board = Grid(shape)
    moves: list[tuple[int, Cell]] = []
    while True:
        state = GameState(shape=shape, board=board, players=players, moves=tuple(moves))
        player = state.to_move
        if len(board.ones) == shape.cell_count:
            # full clean board: the player to move cannot move at all
            return Transcript(final_state=state, loser=player,
                              terminal_cell=None, forced=True)
        strategy = strategies[player]
        safe = sorted(safe_moves(state))
        if callable(strategy):
            returned = strategy(state)
            try:
                cell = tuple(returned)
            except TypeError:
                raise StrategyReturnedOutOfRangeError(player, returned) from None
            if not shape.contains_cell(cell):
                raise StrategyReturnedOutOfRangeError(player, cell)
            if cell in board.one_set:
                raise StrategyReturnedNonZeroCellError(player, cell)
        elif safe:
            cell = safe[0] if strategy == "lex" else rng.choice(safe)
        else:
            cell = next(c for c in shape.iter_cells() if c not in board.one_set)
        losing = flip_creates_containment(board, cell)
        board = Grid(shape, board.ones + (cell,))
        moves.append((player, cell))
        if losing:
            final = GameState(shape=shape, board=board, players=players, moves=tuple(moves))
            return Transcript(final_state=final, loser=player,
                              terminal_cell=cell, forced=not safe)
