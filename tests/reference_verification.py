"""The characterization-equivalence check as it stood before it decided each
sampled grid once: a test-only oracle.

The sample is every seeded candidate that ``is_maximal`` rejects, built
through the checking ``Grid`` constructor, and the pool is the maximal grids
plus that sample.  Each pool grid, duplicates included, is decided twice:
by the flood and by ``to_intervals`` + ``check_characterization``.  The
tests require ``maxac.verification`` to give the same sample and the same
``CheckResult``.
"""

from __future__ import annotations

import random
from typing import Sequence

from maxac import (EmptyRowError, Grid, NonContiguousRowError, Shape, check_characterization,
                   enumerate_maximal, is_maximal, to_intervals)
from maxac.core import _flood
from maxac.verification import CheckResult


def sample_non_maximal(shape: Shape, count: int, seed: int = 0) -> list[Grid]:
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


def check_equivalence(shape: Shape, grids: Sequence[Grid], samples: int = 1000,
                      seed: int = 0) -> CheckResult:
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
            return CheckResult(name, False, f"disagreement on grid with ones {g.ones}")
    return CheckResult(name, True, f"{len(grids)} maximal + {samples} sampled grids agree")
