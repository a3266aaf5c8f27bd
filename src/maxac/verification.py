"""Per-shape verification suites.

Each check ties one claim to the exhaustive enumeration oracle: the uniform
size law, the equivalence of maximality with the interval characterization,
the count of ``count_maximal`` (the closed forms where they apply), the
append-a-layer bijection, the normalize/peel recurrences, and the game's
loser law.  The checks that read the shape's maximal grids take them as an
argument, so ``verify_shape`` (the CLI's ``verify`` verb) builds the
shape's grids once (``check_counting`` only counts them) and the acceptance
suite runs the same checks over its sweeps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (GAME_CELL_LIMIT, VERIFY_SAMPLE_LIMIT, VERIFY_TRIAL_LIMIT, Grid, Shape,
                   _brief, _flood, _print_limit, _require_int, _too_long, is_maximal, max_size,
                   weight)
from .counting import extend_by_two, project_last
from .enumeration import (
    BRUTE_FORCE_CELL_LIMIT,
    DEFAULT_CELL_LIMIT,
    brute_force_maximal,
    count_maximal,
    enumerate_maximal,
)
from .errors import EmptyRowError, NonContiguousRowError, NotMaximalError
from .game import play, predict_loser
from .normalize import convert_step, find_pair, normalize, peel
from .rowform import IntervalMap, check_characterization, to_intervals, x_set


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def iter_shapes(max_cells: int, max_d: int) -> Iterator[Shape]:
    """Every shape with at most ``max_d`` dimensions and ``max_cells`` cells,
    in lexicographic order by dimension vector.  A bound that is not a
    non-negative ``int`` raises ValueError at the call, before the first
    shape is asked for."""
    _require_int("max_cells", max_cells, 0)
    _require_int("max_d", max_d, 0)

    def rec(prefix: tuple[int, ...], prod: int) -> Iterator[Shape]:
        if prefix:
            yield Shape(prefix)
        if len(prefix) == max_d:
            return
        w = 1
        while prod * w <= max_cells:
            yield from rec(prefix + (w,), prod * w)
            w += 1

    return rec((), 1)


def _require_sample(name: str, count: int, seed: int) -> None:
    # the seed names the sample's stream as text, so it must print
    _require_int(name, count, 0, VERIFY_SAMPLE_LIMIT)
    if _too_long(_require_int("seed", seed), limit := _print_limit()):
        raise ValueError(f"seed must have at most {limit} digits, got {_brief.repr(seed)}")


def sample_non_maximal(shape: Shape, count: int, seed: int = 0) -> list[Grid]:
    """Deterministic sample of non-maximal grids over ``shape``.

    Mixes arbitrary random subsets (usually containing the forbidden pair)
    with punctured maximal grids (clean but unsaturated), so both failure
    modes of the characterization get exercised.  A ``count`` that is not an
    ``int`` in ``[0, VERIFY_SAMPLE_LIMIT]`` (all samples are held at once),
    and a ``seed`` that is not an ``int`` or has more digits than the
    interpreter prints (``sys.get_int_max_str_digits``), raise ValueError
    before any work.  A ``bool`` is not an ``int`` here.
    """
    _require_sample("count", count, seed)
    if count == 0:
        return []
    rng = random.Random(f"{shape.dims}:{seed}")
    cells = list(shape.iter_cells())
    maximal = enumerate_maximal(shape).grids
    out: list[Grid] = []
    while len(out) < count:
        if maximal and rng.random() < 0.5:
            g = rng.choice(maximal)
            drop = rng.randrange(1, len(g.ones) + 1)
            ones = rng.sample(g.ones, len(g.ones) - drop)
        else:
            density = rng.random()
            ones = [c for c in cells if rng.random() < density]
        candidate = Grid(shape, ones)
        if not is_maximal(candidate):
            out.append(candidate)
    return out


def _interval_weight(m: IntervalMap) -> int:
    return sum(h - l + 1 for l, h in m.intervals.values())


def check_size_law(shape: Shape, grids: Sequence[Grid]) -> CheckResult:
    """Every maximal grid of ``shape`` has weight prod(w) - prod(w - 1)."""
    expected = max_size(shape)
    bad = [g for g in grids if weight(g) != expected]
    if bad:
        return CheckResult(
            "size-law",
            False,
            f"{len(bad)} of {len(grids)} maximal grids deviate from weight {expected}",
        )
    return CheckResult(
        "size-law", True, f"{len(grids)} maximal grids, all of weight {expected}"
    )


def check_equivalence(
    shape: Shape, grids: Sequence[Grid], samples: int = 1000, seed: int = 0
) -> CheckResult:
    """Maximal, by the flood (``core._flood``; ``is_maximal`` reads the row
    form under test), iff to_intervals(g) succeeds and the characterization
    holds, over all maximal grids plus a seeded non-maximal sample.
    ``samples`` and ``seed`` are checked as ``sample_non_maximal``'s, also
    for d = 1."""
    _require_sample("samples", samples, seed)
    name = "characterization-equivalence"
    if shape.d < 2:
        return CheckResult(name, True, "d = 1: characterization not applicable")
    pool = list(grids) + sample_non_maximal(shape, samples, seed)
    for g in pool:
        flood = _flood(g)
        direct = flood is not None and not any(flood[1])
        try:
            local = bool(check_characterization(to_intervals(g)))
        except (EmptyRowError, NonContiguousRowError):
            local = False
        if direct != local:
            return CheckResult(
                name, False, f"disagreement on grid with ones {g.ones}"
            )
    return CheckResult(
        name, True, f"{len(grids)} maximal + {samples} sampled grids agree"
    )


def check_counting(shape: Shape, grids: Sequence[Grid]) -> CheckResult:
    """The number of the shape's maximal grids ``grids``, listed in full,
    against ``count_maximal``, which takes the closed form wherever one
    applies, and against the binomial for d = 2 and ``min(w)`` for sides
    of at most 2."""
    total = len(grids)
    forms = [("count_maximal", count_maximal(shape))]
    if shape.d == 2:
        w1, w2 = shape.dims
        forms.append(("binomial form", math.comb(w1 + w2 - 2, w1 - 1)))
    if max(shape.dims) <= 2:
        forms.append(("min-dimension form", min(shape.dims)))
    for form, counted in forms:
        if counted != total:
            return CheckResult("counting", False, f"{form} gives {counted}, enumeration {total}")
    notes = [f"enumerated {total}"] + [f"{form} agrees ({total})" for form, _ in forms[1:]]
    return CheckResult("counting", True, "; ".join(notes))


def check_brute_force(shape: Shape, grids: Sequence[Grid]) -> CheckResult:
    """Search result equals the full subset filter, set for set."""
    name = "brute-force-cross-check"
    if shape.cell_count > BRUTE_FORCE_CELL_LIMIT:
        return CheckResult(
            name, True, f"skipped: {shape.cell_count} cells exceed the oracle budget"
        )
    if tuple(grids) != brute_force_maximal(shape):
        return CheckResult(name, False, "subset filter and search disagree")
    return CheckResult(name, True, f"both routes list the same {len(grids)} grids")


def check_bijection(shape: Shape, grids: Sequence[Grid]) -> CheckResult:
    """Appending a size-2 axis is a bijection between maximal-grid sets, and
    dropping it again inverts it on both sides."""
    name = "append-layer-bijection"
    if shape.cell_count * 2 > DEFAULT_CELL_LIMIT:
        return CheckResult(
            name, True, "skipped: extended box exceeds the enumeration budget"
        )
    extended = enumerate_maximal(Shape(shape.dims + (2,))).grids
    images = []
    for g in grids:
        image = extend_by_two(g)
        try:  # project_last decides whether the image is maximal
            back = project_last(image)
        except NotMaximalError:
            back = None
        if back != g:
            return CheckResult(name, False, f"round trip failed for ones {g.ones}")
        images.append(image)
    # with the forward round trip, equal image sets make the reverse one hold
    if sorted(images, key=lambda g: g.ones) != list(extended):
        return CheckResult(
            name, False, f"image set differs: {len(images)} vs {len(extended)} grids"
        )
    return CheckResult(
        name, True, f"{len(grids)} grids map bijectively onto the extended box"
    )


def check_normalization(shape: Shape, grids: Sequence[Grid]) -> CheckResult:
    """Normalization drains the obstruction set one row per step, keeping
    weight and the characterization intact at every intermediate map."""
    name = "normalization"
    if shape.d < 2:
        return CheckResult(name, True, "d = 1: not applicable")
    if shape.dims[-1] < 2:
        # with w_d = 1 no interval can move; nothing to normalize
        return CheckResult(name, True, "w_d = 1: convert steps not defined")
    total_steps = 0
    for g in grids:
        m = to_intervals(g)
        expected_steps = len(x_set(m))
        report = normalize(m)
        if (
            report.steps != expected_steps
            or len(report.pairs) != expected_steps
            or x_set(report.result)
        ):
            return CheckResult(name, False, f"step count off for ones {g.ones}")
        current = m
        for _ in range(expected_steps):
            chosen, _anchor = find_pair(current)
            nxt = convert_step(current)
            if (
                _interval_weight(nxt) != _interval_weight(current)
                or not check_characterization(nxt)
                or x_set(nxt) != x_set(current) - {chosen}
            ):
                return CheckResult(
                    name, False, f"convert step broke an invariant for ones {g.ones}"
                )
            current = nxt
        if current != report.result:
            return CheckResult(name, False, f"trace mismatch for ones {g.ones}")
        total_steps += expected_steps
    return CheckResult(
        name, True, f"{len(grids)} grids normalized in {total_steps} total steps"
    )


def check_peel_recurrence(shape: Shape, grids: Sequence[Grid]) -> CheckResult:
    """Alternating normalize and peel telescopes every maximal grid's weight
    down to the closed form."""
    name = "peel-recurrence"
    if shape.d < 2:
        return CheckResult(name, True, "d = 1: not applicable")
    for g in grids:
        current = to_intervals(g)
        while current.shape.dims[-1] > 1:
            current = normalize(current).result
            prefix = current.shape.dims[:-1]
            expected_drop = math.prod(prefix) - math.prod(p - 1 for p in prefix)
            before = _interval_weight(current)
            current = peel(current)
            if before - _interval_weight(current) != expected_drop:
                return CheckResult(name, False, f"peel drop off for ones {g.ones}")
            if not check_characterization(current):
                return CheckResult(
                    name, False, f"peel broke the characterization for ones {g.ones}"
                )
        if _interval_weight(current) != max_size(current.shape):
            return CheckResult(name, False, f"telescoped weight off for ones {g.ones}")
    return CheckResult(name, True, f"{len(grids)} grids telescoped to the closed form")


def check_game(
    shape: Shape,
    trials: int = 100,
    players: Sequence[int] = (2, 3, 5),
    seed: int = 0,
) -> CheckResult:
    """Random safe play always loses for player max_size mod m, after exactly
    max_size safe moves.  A ``trials`` that is not an ``int`` in
    ``[0, VERIFY_TRIAL_LIMIT]``, a ``seed`` that is not an ``int``, no
    ``players`` at all, or an entry of ``players`` that ``play`` refuses
    raises ValueError before any game."""
    _require_int("trials", trials, 0, VERIFY_TRIAL_LIMIT)
    _require_int("seed", seed)
    players = tuple(players)
    if not players:
        raise ValueError("players must name at least one player count")
    for m in players:
        _require_int("players", m, 2, GAME_CELL_LIMIT + 1)
    name = "game-loser"
    if trials == 0:
        return CheckResult(name, True, "skipped: 0 trials requested")
    expected_len = max_size(shape)
    for m in players:
        expected = predict_loser(shape, m)
        for t in range(trials):
            transcript = play(shape, m, ["random"] * m, seed=seed * 1_000_003 + m * 1_009 + t)
            safe_count = len(transcript.final_state.moves)
            if transcript.terminal_cell is not None:
                safe_count -= 1
            if (
                transcript.loser != expected
                or safe_count != expected_len
                or not transcript.forced
            ):
                return CheckResult(
                    name,
                    False,
                    f"m={m}, trial {t}: loser {transcript.loser}, expected {expected}",
                )
    return CheckResult(
        name,
        True,
        f"loser = {expected_len} mod m over {trials} seeded games for m in {players}",
    )


def verify_shape(
    shape: Shape,
    samples: int = 1000,
    trials: int = 100,
    seed: int = 0,
) -> list[CheckResult]:
    """Run the full per-shape suite; all-passed means the shape reproduces
    every desk-scale claim.  ``samples`` and ``seed`` are checked as
    ``sample_non_maximal``'s and ``trials`` as ``check_game``'s, all before
    any work."""
    _require_sample("samples", samples, seed)
    _require_int("trials", trials, 0, VERIFY_TRIAL_LIMIT)
    grids = enumerate_maximal(shape).grids
    return [
        check_size_law(shape, grids),
        check_equivalence(shape, grids, samples=samples, seed=seed),
        check_counting(shape, grids),
        check_brute_force(shape, grids),
        check_bijection(shape, grids),
        check_normalization(shape, grids),
        check_peel_recurrence(shape, grids),
        check_game(shape, trials=trials, seed=seed),
    ]
