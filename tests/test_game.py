import hashlib
import json

import pytest
import reference_game

from maxac import (
    GAME_CELL_LIMIT,
    GameState,
    Grid,
    Shape,
    ShapeTooLargeError,
    StrategyReturnedNonZeroCellError,
    StrategyReturnedOutOfRangeError,
    is_maximal,
    iter_shapes,
    max_size,
    play,
    predict_loser,
    safe_moves,
)


def test_predict_loser_examples():
    assert predict_loser(Shape((2, 2)), 2) == 1  # 3 mod 2
    assert predict_loser(Shape((3, 3)), 4) == 1  # 5 mod 4
    assert predict_loser(Shape((1, 5)), 5) == 0  # 5 mod 5


def test_predict_loser_needs_two_players():
    with pytest.raises(ValueError):
        predict_loser(Shape((2, 2)), 1)


@pytest.mark.parametrize("players", [2.0, 2.5, True, "2", None])
def test_players_must_be_an_int(players):
    with pytest.raises(ValueError, match="must be an int"):
        play(Shape((2, 2)), players, ["lex", "lex"])
    with pytest.raises(ValueError, match="must be an int"):
        predict_loser(Shape((2, 2)), players)


def test_predict_loser_has_no_upper_bound_on_players():
    assert predict_loser(Shape((2, 2)), GAME_CELL_LIMIT + 2) == 3
    with pytest.raises(ValueError, match="at most"):
        play(Shape((2, 2)), GAME_CELL_LIMIT + 2, ["lex"] * (GAME_CELL_LIMIT + 2))


def _state(dims, ones, players=2):
    shape = Shape(dims)
    board = Grid(shape, ones)
    moves = tuple((i % players, c) for i, c in enumerate(board.ones))
    return GameState(shape=shape, board=board, players=players, moves=moves)


def test_safe_moves_examples():
    assert safe_moves(_state((2, 2), [])) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert safe_moves(_state((2, 2), [(1, 2), (2, 1)])) == {(1, 1), (2, 2)}
    assert safe_moves(_state((2, 2), [(1, 1), (1, 2), (2, 1)])) == set()


def test_safe_moves_empty_iff_maximal():
    shape = Shape((2, 3))
    cells = list(shape.iter_cells())
    for mask in range(1 << len(cells)):
        ones = [c for i, c in enumerate(cells) if (mask >> i) & 1]
        from maxac import contains_forbidden

        g = Grid(shape, ones)
        if contains_forbidden(g):
            continue
        assert (not safe_moves(_state((2, 3), ones))) == is_maximal(g)


def test_lex_game_on_2x2():
    t = play(Shape((2, 2)), 2, ["lex", "lex"])
    assert [(p, c) for p, c in t.final_state.moves] == [
        (0, (1, 1)),
        (1, (1, 2)),
        (0, (2, 1)),
        (1, (2, 2)),
    ]
    assert t.loser == 1 and t.terminal_cell == (2, 2) and t.forced


def test_lex_game_three_players():
    t = play(Shape((2, 2)), 3, ["lex", "lex", "lex"])
    assert t.loser == 0  # 3 mod 3


def test_pre_terminal_board_is_maximal_and_lengths_match():
    for dims in [(2, 2), (3, 3), (2, 2, 2)]:
        shape = Shape(dims)
        for seed in range(10):
            t = play(shape, 3, ["lex", "random", "random"], seed=seed)
            moves = t.final_state.moves
            assert t.terminal_cell is not None
            assert moves[-1] == (t.loser, t.terminal_cell)
            pre_board = Grid(shape, [c for _, c in moves[:-1]])
            assert is_maximal(pre_board)
            assert len(moves) - 1 == max_size(shape)


def test_stuck_player_loses_when_the_board_fills_up():
    # no two cells of (1,7) are comparable: the board fills, nobody can flip
    shape = Shape((1, 7))
    t = play(shape, 2, ["lex", "lex"])
    assert t.terminal_cell is None and t.forced
    assert t.loser == predict_loser(shape, 2) == 1
    assert len(t.final_state.moves) == max_size(shape) == 7


def test_custom_strategy_may_lose_on_purpose():
    def suicidal(state):
        if len(state.board.ones) == 0:
            return (1, 1)
        return (2, 2)  # unsafe immediately after (1,1)

    t = play(Shape((2, 2)), 2, ["lex", suicidal])
    assert t.loser == 1 and t.terminal_cell == (2, 2)
    assert not t.forced  # flagged: safe moves still existed


def test_custom_strategy_contract_violations():
    with pytest.raises(StrategyReturnedOutOfRangeError):
        play(Shape((2, 2)), 2, ["lex", lambda state: (9, 9)])
    # a value that is not a cell at all
    with pytest.raises(StrategyReturnedOutOfRangeError,
                       match=r"^player 1 returned out-of-range cell 5$"):
        play(Shape((2, 2)), 2, ["lex", lambda state: 5])
    with pytest.raises(StrategyReturnedNonZeroCellError):
        play(Shape((2, 2)), 2, ["lex", lambda state: (1, 1)])


def test_play_validates_arguments():
    with pytest.raises(ValueError):
        play(Shape((2, 2)), 2, ["lex"])
    with pytest.raises(ValueError, match="^unknown strategy 'greedy'$"):
        play(Shape((2, 2)), 2, ["lex", "greedy"])
    # an unknown name is quoted in short
    with pytest.raises(ValueError) as err:
        play(Shape((2, 2)), 2, ["lex", "y" * 100_000])
    assert len(str(err.value)) < 100
    with pytest.raises(ValueError):
        play(Shape((2, 2)), 1, ["lex"])
    # a game within the cell budget has at most GAME_CELL_LIMIT + 1 moves
    assert play(Shape((2, 2)), GAME_CELL_LIMIT + 1, ["lex"] * (GAME_CELL_LIMIT + 1)).loser == 3
    with pytest.raises(ValueError):
        play(Shape((2, 2)), GAME_CELL_LIMIT + 2, ["lex"] * (GAME_CELL_LIMIT + 2))


def test_play_is_seed_deterministic():
    a = play(Shape((3, 3)), 2, ["random", "random"], seed=42)
    b = play(Shape((3, 3)), 2, ["random", "random"], seed=42)
    assert a.final_state.moves == b.final_state.moves
    # the default seed is 0, on a box where seed 1 plays another game
    shape, strategies = Shape((2, 3)), ["random", "random"]
    assert play(shape, 2, strategies) == play(shape, 2, strategies, seed=0)
    assert play(shape, 2, strategies) != play(shape, 2, strategies, seed=1)


def test_transcript_json():
    t = play(Shape((2, 2)), 2, ["lex", "lex"])
    obj = t.to_json_obj()
    assert obj["w"] == [2, 2] and obj["players"] == 2
    assert obj["moves"] == [[0, [1, 1]], [1, [1, 2]], [0, [2, 1]], [1, [2, 2]]]
    assert obj["loser"] == 1 and obj["terminal_cell"] == [2, 2] and obj["forced"]


def _strategies(style, players):
    if style == "mixed":
        return ["lex" if p % 2 else "random" for p in range(players)]
    return [style] * players


def _assert_same_game(shape, players, strategies, seed):
    got = play(shape, players, strategies, seed=seed).to_json_obj()
    want = reference_game.play(shape, players, strategies, seed=seed).to_json_obj()
    assert got == want, (shape.dims, players, seed)


def test_play_matches_the_rescanning_reference_on_every_small_shape():
    shapes = list(iter_shapes(10, 4))
    assert len(shapes) == 179
    for k, shape in enumerate(shapes):
        for m in (2, 3, 5):
            for style in ("lex", "random", "mixed"):
                _assert_same_game(shape, m, _strategies(style, m), seed=k * 7 + m)


def test_play_matches_the_rescanning_reference_on_large_boards():
    for dims in [(10, 10), (15, 15), (5, 5, 5),
                 (1, 40), (2, 30), (1, 1, 25), (3, 1, 8), (40,), (2, 2, 2, 2, 2)]:
        for seed, (m, style) in enumerate([(2, "random"), (3, "mixed"), (5, "lex")]):
            _assert_same_game(Shape(dims), m, _strategies(style, m), seed)
    # long rows, whose killed runs delete long slices of the random pick's
    # list of alive cells; rows of two or three cells, where nearly every
    # run is one cell long; and rows of 64 and 65 cells
    for dims in [(2, 100), (1, 90), (3, 70), (64, 2), (40, 3), (1, 64), (1, 65), (2, 65)]:
        for seed, (m, style) in enumerate([(2, "random"), (3, "mixed")]):
            _assert_same_game(Shape(dims), m, _strategies(style, m), seed)
    # rows of one cell: no two cells are comparable, so every run is the
    # picked cell alone and the list empties one cell at a time (one game:
    # the reference takes cubic time on this board, 2-3 s)
    _assert_same_game(Shape((200, 1)), 2, ["random", "random"], 0)


def _last_safe_or_unsafe(state):
    """Deterministic callable: the last safe move, or once the board holds
    three cells, the first zero cell even if it loses."""
    safe = sorted(safe_moves(state))
    if safe and len(state.board.ones) < 3:
        return safe[-1]
    return next(c for c in state.shape.iter_cells() if c not in state.board.one_set)


def test_play_matches_the_reference_with_callable_strategies():
    for dims in [(2, 2), (3, 3), (2, 2, 2), (1, 4), (4,), (4, 3)]:
        shape = Shape(dims)
        for seed in range(3):
            _assert_same_game(shape, 2, ["random", _last_safe_or_unsafe], seed)
            _assert_same_game(shape, 3, [_last_safe_or_unsafe, "lex", "random"], seed)


def test_callable_strategies_see_the_board_and_the_player_to_move():
    played = []

    def checking(player):
        def strategy(state):
            assert state.board.ones == tuple(sorted(played))
            assert state.to_move == player
            cell = min(safe_moves(state), default=None)
            if cell is None:
                cell = next(c for c in state.shape.iter_cells() if c not in state.board.one_set)
            played.append(cell)
            return cell

        return strategy

    for dims in [(3, 3), (2, 2, 2), (1, 5), (3,)]:
        shape = Shape(dims)
        played.clear()
        t = play(shape, 3, [checking(p) for p in range(3)])
        assert [c for _, c in t.final_state.moves] == played
        assert t.loser == predict_loser(shape, 3)


def test_game_cell_budget():
    assert GAME_CELL_LIMIT == 10_000
    t = play(Shape((GAME_CELL_LIMIT,)), 2, ["lex", "lex"])
    assert t.loser == 1 and t.terminal_cell == (2,)
    # the oracle has the same budget: every cell of an empty board is safe
    empty = GameState(t.final_state.shape, Grid(t.final_state.shape), 2, ())
    assert len(safe_moves(empty)) == GAME_CELL_LIMIT
    # full-budget games: minutes each if a flip costs O(safe cells) instead of O(killed)
    for dims, style, terminal in [((1, 10_000), "random", None),
                                  ((2, 5_000), "lex", (2, 2)),
                                  ((100, 100), "random", (1, 1))]:
        shape = Shape(dims)
        t = play(shape, 2, [style, style])
        assert t.loser == predict_loser(shape, 2) and t.forced
        assert len(t.final_state.moves) == max_size(shape) + (terminal is not None)
        assert t.terminal_cell == terminal
    for dims in [(GAME_CELL_LIMIT + 1,), (1000, 1000), (101, 100)]:
        with pytest.raises(ShapeTooLargeError) as info:
            play(Shape(dims), 2, ["lex", "lex"])
        assert info.value.limit == GAME_CELL_LIMIT


# sha256 (first 16 hex digits) of each transcript's compact JSON, for seeds
# 0-2 with 2 + seed players all on one strategy.  These boards are too large
# for the rescanning reference, so the digests are what pins them.
LARGE_GAME_DIGESTS = {
    ((100, 100), "lex"): ('8a399bcf438448b2', '684c3f3220575b9f', '29edeffbf94df8af'),
    ((100, 100), "random"): ('09651971bb4efbd9', '8262c4b96f3250e3', '510d7d4eae90a231'),
    ((20, 20, 20), "lex"): ('4badbe2c70a66edd', 'e33cd1b9b38b1028', '4efe14c9164fd1e1'),
    ((20, 20, 20), "random"): ('82f8acdad6bcefb9', '87a89350cbd0cf96', 'fdd95869cfc6e455'),
    ((2, 5000), "lex"): ('db1620780b5c6584', 'b0cb199342dff6c4', 'b5daa3061d1337ea'),
    ((2, 5000), "random"): ('6e07df9b06a926b3', 'b88555d034810b5e', '8927b2c824876d32'),
    ((1, 10000), "lex"): ('9b594feaf32d32ec', '72fc55580c63d665', '272a5e90b3f58f01'),
    ((1, 10000), "random"): ('03e7f1b802a23eae', '4e9812e1eb87f4af', '3b163154597705f7'),
    ((10000, 1), "random"): ('9a54a26ff538dd3c', '38b9dd269c891c6d', '6db3923aaa3e44e9'),
    ((1000, 10), "random"): ('019d258b4ff416c1', '223dbd8547ddfadb', 'fcfc8a57ba46d838'),
}


@pytest.mark.slow
@pytest.mark.parametrize("dims, style", list(LARGE_GAME_DIGESTS))
def test_large_games_keep_their_pinned_transcripts(dims, style):
    for seed, want in enumerate(LARGE_GAME_DIGESTS[dims, style]):
        t = play(Shape(dims), 2 + seed, [style] * (2 + seed), seed=seed)
        text = json.dumps(t.to_json_obj(), separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == want, (dims, style, seed)
