"""The four workloads: seeded op lists, the timed call, and the check.

Each workload is a closed loop with one client.  ``plan`` turns a seed into
plain data (dimension tuples, JSON objects, argument lists), so the package
only ever sees generated inputs.  ``call`` is the timed op; ``check``
compares its result with the benchmark's own expected value, outside the
timed span.  ``trace`` is the separate traced run behind the per-layer
metrics.

Op lists are a fixed amount of work per seed, sized so that the commit the
benchmark was tuned on needs about FILL of ``--seconds`` on a 2-vCPU
machine; the wall-clock limit only stops a much slower build early.  Fixed work keeps the
op mix, and so the tail percentile, the same on every commit.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import oracles
from harness import (ROOT, SRC, CheckFailed, Tracer, load_package, median, run_ops,
                     run_paired)

ENUMERATE_CAP = 1000  # the CLI's default --cap
CLI_SCRIPT = Path(__file__).resolve().parent / "cli_script.json"
# Share of --seconds the fixed work of a run took where it was tuned; the
# rest is headroom for minutes in which a shared machine runs twice as slowly.
FILL = 0.4
CHECKS = ("check_size_law", "check_equivalence", "check_counting", "check_brute_force",
          "check_bijection", "check_normalization", "check_peel_recurrence", "check_game")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def bind(tracer: Tracer | None, **functions) -> SimpleNamespace:
    """The functions an op calls.  With a tracer, each one keyed
    ``layer__function`` runs inside a span named ``layer.function``."""
    if tracer is not None:
        functions = {key: tracer.wrap(key.replace("__", "."), fn) if "__" in key else fn
                     for key, fn in functions.items()}
    return SimpleNamespace(**functions)


def rounds(seconds: float, round_seconds: float) -> int:
    """Whole rounds of ``round_seconds`` each that fill FILL of ``seconds``."""
    return max(1, round(seconds * FILL / round_seconds))


def self_seconds(totals, name: str) -> float:
    return totals.get(name, (0.0, 0))[0]


def overhead(plain: list[float], traced: list[float]) -> float:
    """Traced over untraced time of the same ops, minus one."""
    return sum(traced) / sum(plain) - 1.0


def traced_passes(workload, seed: int, seconds: float):
    """Every op untraced and traced, against two separate imports of the
    package.  Returns (tracer, outcome of the traced calls, overhead)."""
    ops = workload.plan(seed, seconds)
    plain = workload.bind(load_package())
    tracer = Tracer()
    traced = workload.bind(load_package(), tracer)

    def call_traced(index, op):
        tracer.op = index
        return workload.call(traced, op)

    outcome, plain_s, traced_s = run_paired(
        ops, lambda index, op: workload.call(plain, op), call_traced, workload.check,
        seconds)
    return tracer, outcome, overhead(plain_s, traced_s)


def interval_weight(m) -> int:
    return sum(h - l + 1 for l, h in m.intervals.values())


class Search:
    """count_maximal or enumerate_maximal; each shape is touched once per run.

    The 739 shapes with d <= 4 and at most 25 cells set op_p50_ms and expose
    fixed per-call cost.  The ladder above the default cell budget sets
    op_tail_ms and ops_per_s, where a faster enumerator shows.  No shape
    repeats, so a result cache gains nothing here.
    """

    name = "search"
    # Distinct shapes above the default budget.  Sixteen of them cost within
    # a factor two of each other and more than the rest, so the tail rank,
    # the eleventh slowest op, falls inside that band: an op that noise
    # slows climbs past the rank and leaves a near neighbour in its place.
    # Which op a ladder shape gets is fixed so the band does not move with
    # the seed.
    LADDER = (
        ((10, 5), "count"), ((3, 4, 4), "enumerate"), ((4, 11), "enumerate"),
        ((12, 4), "count"), ((6, 8), "count"), ((4, 3, 4), "enumerate"),
        ((7, 7), "enumerate"), ((4, 4, 3), "count"), ((5, 2, 5), "count"),
        ((5, 9), "count"), ((2, 4, 6), "enumerate"), ((5, 5, 2), "count"),
        ((8, 6), "count"), ((2, 6, 4), "count"), ((9, 2, 3), "count"),
        ((9, 3, 2), "count"),
        ((3, 3, 3, 3), "count"), ((4, 6, 2), "count"), ((6, 4, 2), "enumerate"),
        ((2, 8, 3), "enumerate"), ((3, 3, 5), "count"), ((3, 5, 3), "enumerate"),
        ((3, 8, 2), "count"), ((6, 7), "count"), ((3, 12), "count"), ((6, 6), "count"),
        ((4, 9), "enumerate"), ((3, 3, 4), "count"),
    )

    @staticmethod
    def tiny_shapes(max_cells: int = 25, max_d: int = 4) -> list[tuple[int, ...]]:
        """Every shape with at most ``max_d`` axes and ``max_cells`` cells."""

        def rec(prefix, cells):
            if prefix:
                yield prefix
            if len(prefix) < max_d:
                w = 1
                while cells * w <= max_cells:
                    yield from rec(prefix + (w,), cells * w)
                    w += 1

        return list(rec((), 1))

    def plan(self, seed: int, seconds: float) -> list:
        """Tiny shapes and the ladder in one seeded order, so the tiny ops
        behind op_p50_ms sample the machine over the whole run."""
        rng = random.Random(seed)
        ops = [(dims, rng.choice(("count", "enumerate")), False)
               for dims in self.tiny_shapes()]
        ops += [(dims, kind, True) for dims, kind in self.LADDER]
        rng.shuffle(ops)
        return ops

    def bind(self, lib, tracer=None):
        return bind(tracer, Shape=lib.core.Shape,
                    enumeration__count_maximal=lib.enumeration.count_maximal,
                    enumeration__enumerate_maximal=lib.enumeration.enumerate_maximal)

    def call(self, fx, op):
        dims, kind, ladder = op
        shape = fx.Shape(dims)
        budget = {"max_cells": shape.cell_count} if ladder else {}
        if kind == "count":
            return fx.enumeration__count_maximal(shape, **budget)
        return fx.enumeration__enumerate_maximal(shape, cap=ENUMERATE_CAP, **budget)

    def check(self, op, result, expected_count=oracles.expected_count):
        dims, kind, _ = op
        want = expected_count(dims)
        if kind == "count":
            expect(result == want, f"count {result}, expected {want}")
            return
        expect(result.count == want, f"count {result.count}, expected {want}")
        expect(len(result.grids) == min(want, ENUMERATE_CAP), "wrong number of grids kept")
        expect(result.truncated == (want > ENUMERATE_CAP), "wrong truncated flag")
        size = oracles.max_size(dims)
        ones = [g.ones for g in result.grids]
        expect(all(len(o) == size for o in ones), f"a grid's weight is not {size}")
        expect(all(a < b for a, b in zip(ones, ones[1:])), "grids not in canonical order")

    def trace(self, seed: int, seconds: float):
        tracer, traced, frac = traced_passes(self, seed, seconds)
        totals = tracer.totals()
        busy = (self_seconds(totals, "enumeration.count_maximal")
                + self_seconds(totals, "enumeration.enumerate_maximal"))
        grids = sum(r if isinstance(r, int) else r.count for _, r in traced.results)
        return tracer, traced, frac, {
            "enumeration.grids": grids,
            "enumeration.grids_per_s": grids / busy,
        }


class Telescope:
    """One maximal grid's JSON object through the ``maxac normalize`` path.

    Parse, row form and characterization check, then normalize and peel
    alternately down to w_d = 1.  The only workload where rowform and
    normalize do the bulk of the work: large maps take hundreds of convert
    steps, while parsing and row-form checks weigh most on the small ones.
    """

    name = "telescope"
    LARGE = ((30, 30), (12, 12, 12), (6, 6, 6, 6))
    SMALL = ((3, 3), (2, 3, 4), (6, 6))
    SMALL_PER_ROUND = 20  # of each small shape, next to one of each large
    ROUND_SECONDS = 0.85  # one round, where the benchmark was tuned

    def plan(self, seed: int, seconds: float) -> list:
        rng = random.Random(seed)
        ops = []
        for _ in range(rounds(seconds, self.ROUND_SECONDS)):
            shapes = list(self.LARGE) + [d for d in self.SMALL for _ in range(self.SMALL_PER_ROUND)]
            rng.shuffle(shapes)
            ops.extend((dims, oracles.maximal_grid_obj(dims, rng)) for dims in shapes)
        return ops

    def bind(self, lib, tracer=None):
        return bind(tracer,
                    core__from_json_obj=lib.core.Grid.from_json_obj,
                    rowform__to_intervals=lib.rowform.to_intervals,
                    rowform__check_characterization=lib.rowform.check_characterization,
                    normalize__normalize=lib.normalize.normalize,
                    normalize__peel=lib.normalize.peel)

    def call(self, fx, op):
        m = fx.rowform__to_intervals(fx.core__from_json_obj(op[1]))
        verdict = fx.rowform__check_characterization(m)
        levels = []
        while m.shape.dims[-1] > 1:
            normalized = fx.normalize__normalize(m)
            peeled = fx.normalize__peel(normalized.result)
            levels.append((m, normalized, peeled))
            m = peeled
        return verdict, levels, m

    def check(self, op, result):
        dims = op[0]
        verdict, levels, final = result
        expect(bool(verdict), f"characterization fails on a maximal grid: {verdict}")
        expect(interval_weight(levels[0][0]) == oracles.max_size(dims), "start weight off")
        for m, normalized, peeled in levels:
            mdims = m.shape.dims
            want = oracles.obstruction_count(mdims, m.intervals)
            expect(normalized.steps == want, f"{normalized.steps} steps, expected {want}")
            expect(interval_weight(normalized.result) == interval_weight(m),
                   "normalize changed the weight")
            expect(oracles.obstruction_count(mdims, normalized.result.intervals) == 0,
                   "obstruction set not drained")
            prefix = mdims[:-1]
            drop = math.prod(prefix) - math.prod(p - 1 for p in prefix)
            expect(interval_weight(normalized.result) - interval_weight(peeled) == drop,
                   "peel dropped the wrong weight")
            expect(peeled.shape.dims == prefix + (mdims[-1] - 1,), "peel shape off")
        expect(final.shape.dims == dims[:-1] + (1,), "did not telescope to w_d = 1")
        expect(interval_weight(final) == oracles.max_size(final.shape.dims),
               "telescoped weight differs from the closed form")

    def trace(self, seed: int, seconds: float):
        tracer, traced, frac = traced_passes(self, seed, seconds)
        busy = self_seconds(tracer.totals(), "normalize.normalize")
        steps = sum(n.steps for _, (_, levels, _) in traced.results for _, n, _ in levels)
        return tracer, traced, frac, {
            "normalize.steps": steps,
            "normalize.steps_per_s": steps / busy,
        }


class Game:
    """One ``play`` game, checked against ``predict_loser``.

    Every move re-scans for safe moves and builds a new Grid, so writes sit
    beside reads: an index that speeds reads but is rebuilt on every write
    loses here.
    """

    name = "game"
    LARGE = ((10, 10), (15, 15), (5, 5, 5))
    SMALL = ((3, 3), (2, 2, 2))
    SMALL_EACH = 3
    PLAYERS = (2, 3, 5)
    STYLES = ("random", "lex", "mixed")
    ROUND_SECONDS = 1.7  # one round, where the benchmark was tuned

    @staticmethod
    def strategies(style: str, players: int) -> tuple[str, ...]:
        if style == "mixed":
            return tuple("lex" if p % 2 else "random" for p in range(players))
        return (style,) * players

    def plan(self, seed: int, seconds: float) -> list:
        rng = random.Random(seed)
        ops = []
        for _ in range(rounds(seconds, self.ROUND_SECONDS)):
            batch = [
                (dims, m, self.strategies(style, m), rng.randrange(2**31))
                for m in self.PLAYERS
                for style in self.STYLES
                for dims in self.LARGE + self.SMALL * self.SMALL_EACH
            ]
            rng.shuffle(batch)
            ops.extend(batch)
        return ops

    def bind(self, lib, tracer=None):
        self.predict_loser = lib.game.predict_loser
        return bind(tracer, Shape=lib.core.Shape, game__play=lib.game.play)

    def call(self, fx, op):
        dims, players, strategies, seed = op
        return fx.game__play(fx.Shape(dims), players, list(strategies), seed=seed)

    def check(self, op, transcript):
        dims, players, _, _ = op
        size = oracles.max_size(dims)
        law = size % players
        predicted = self.predict_loser(transcript.final_state.shape, players)
        expect(predicted == law, f"predict_loser says {predicted}, the law {law}")
        expect(transcript.loser == law, f"player {transcript.loser} lost, expected {law}")
        moves = transcript.final_state.moves
        expect(len(moves) == size + 1 and transcript.terminal_cell is not None,
               f"{len(moves)} moves, expected {size} safe ones and a losing one")
        expect(transcript.forced, "the loser had a safe move left")
        expect(all(p == k % players for k, (p, _) in enumerate(moves)), "turn order off")
        expect(oracles.is_antichain([c for _, c in moves[:-1]]), "safe moves clash")

    def replay(self, lib, tracer: Tracer, traced) -> None:
        """Re-run every position of each finished game through safe_moves
        and flip_creates_containment, the per-move reads inside play."""
        fx = bind(tracer, game__safe_moves=lib.game.safe_moves,
                  core__flip_creates_containment=lib.core.flip_creates_containment)
        for index, (op, transcript) in enumerate(traced.results):
            tracer.op = index
            shape, players = transcript.final_state.shape, op[1]
            moves = transcript.final_state.moves
            for k, (_, cell) in enumerate(moves):
                board = lib.core.Grid(shape, [c for _, c in moves[:k]])
                state = lib.game.GameState(shape=shape, board=board, players=players,
                                           moves=moves[:k])
                safe = fx.game__safe_moves(state)
                clash = fx.core__flip_creates_containment(board, cell)
                last = k == len(moves) - 1
                if (cell in safe) == last or clash != last:
                    traced.record_failure(repr(op)[:80], f"replay disagrees at move {k}")

    def trace(self, seed: int, seconds: float):
        tracer, traced, frac = traced_passes(self, seed, seconds)
        self.replay(load_package(), tracer, traced)
        busy = self_seconds(tracer.totals(), "game.play")
        moves = sum(len(t.final_state.moves) for _, t in traced.results)
        return tracer, traced, frac, {
            "game.moves": moves,
            "game.moves_per_s": moves / busy,
        }


def given_rows(obj) -> dict:
    """{row: (l, h)} of a grid or interval-map JSON object."""
    if "rows" in obj:
        return {tuple(r["x"]): (r["l"], r["h"]) for r in obj["rows"]}
    rows: dict = {}
    for cell in obj["ones"]:
        lo, hi = rows.get(tuple(cell[:-1]), (cell[-1], cell[-1]))
        rows[tuple(cell[:-1])] = (min(lo, cell[-1]), max(hi, cell[-1]))
    return rows


class Cli:
    """One ``python -m maxac.cli`` subprocess from a fixed script.

    The README examples plus ``verify`` on shapes up to 16 cells: how users
    run the tool, and the only workload that reaches the cli and
    verification layers and the 2^n subset-filter oracle.  Interpreter start
    sets op_p50_ms.
    """

    name = "cli"
    PASS_SECONDS = 5.5  # one pass over the script, where the benchmark was tuned

    @staticmethod
    def script() -> list:
        """(argv, stdin, expected stdout) per command, in a fixed order."""
        with open(CLI_SCRIPT, encoding="utf-8") as fh:
            return [(tuple(e["args"]), e.get("stdin"), e["stdout"]) for e in json.load(fh)]

    def plan(self, seed: int, seconds: float) -> list:
        """The script in its fixed order, repeated; the seed changes nothing."""
        return self.script() * rounds(seconds, self.PASS_SECONDS)

    def bind(self, lib, tracer=None):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return SimpleNamespace(env=env)

    def call(self, fx, op):
        args, stdin, _ = op
        proc = subprocess.run([sys.executable, "-m", "maxac.cli", *args], input=stdin,
                              capture_output=True, text=True, env=fx.env, cwd=ROOT,
                              timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, result):
        args, stdin, want = op
        status, stdout, stderr = result
        expect(status == 0, f"exit {status}: {stderr.strip()[-200:]}")
        expect(stderr == "", f"unexpected stderr: {stderr.strip()[-200:]}")
        expect(stdout == want, "output differs from the pinned README bytes")
        payload = json.loads(stdout)
        verb = args[0]
        dims = tuple(payload.get("w", ()))
        if verb == "size":
            expect(payload["size"] == oracles.max_size(dims), "wrong size")
        elif verb == "count":
            expect(payload["count"] == oracles.expected_count(dims), "wrong count")
        elif verb == "enumerate":
            expect(payload["count"] == oracles.expected_count(dims), "wrong count")
            expect(all(len(g["ones"]) == oracles.max_size(dims) for g in payload["grids"]),
                   "a grid's weight is off")
        elif verb == "verify":
            expect(payload["passed"] and all(c["passed"] for c in payload["checks"]),
                   "verify did not pass")
            expect(len(payload["checks"]) == len(CHECKS), "verify ran the wrong checks")
        elif verb == "game":
            size = oracles.max_size(dims)
            expect(payload["loser"] == size % payload["players"], "loser law broken")
            expect(len(payload["moves"]) == size + 1 and payload["forced"], "moves off")
        elif verb in ("normalize", "peel"):
            given = json.loads(stdin)
            rows = given_rows(given)
            given_dims = tuple(given["w"])
            if verb == "normalize":
                want_steps = oracles.obstruction_count(given_dims, rows)
                expect(payload["steps"] == want_steps, "wrong step count")
                payload = payload["result"]
            else:
                expect(tuple(payload["w"]) == given_dims[:-1] + (given_dims[-1] - 1,),
                       "peel shape off")
            weight = sum(r["h"] - r["l"] + 1 for r in payload["rows"])
            expect(weight == oracles.max_size(tuple(payload["w"])), "weight off")
        elif verb in ("extend", "project"):
            expect(len(payload["ones"]) == oracles.max_size(dims), "weight off")
            expect(oracles.is_antichain([tuple(c) for c in payload["ones"]]),
                   "result clashes")

    @staticmethod
    def in_process(cli, args, stdin):
        """``maxac.cli.main`` with stdin and stdout redirected."""
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                status = cli.main(list(args))
        except SystemExit as exc:  # argparse exits on usage errors
            status = exc.code
        finally:
            sys.stdin = saved
        return status, out.getvalue(), err.getvalue()

    def trace(self, seed: int, seconds: float):
        """One script pass in-process, each command untraced and traced; the
        same pass as subprocesses; then the is_maximal/characterization pool
        and the append-a-layer round trip over the verify shapes."""
        script = self.script()
        plain = load_package()
        lib = load_package()
        tracer = Tracer()
        for attr in ("count_maximal", "enumerate_maximal", "normalize", "peel",
                     "extend_by_two", "project_last", "play", "to_intervals",
                     "check_characterization"):
            tracer.patch(lib.cli, attr)
        for attr in CHECKS:
            tracer.patch(lib.verification, attr, failed_when=lambda r: not r.passed)
        for attr in ("enumerate_maximal", "count_maximal", "brute_force_maximal"):
            tracer.patch(lib.verification, attr)

        def call(index, op):
            tracer.op = index
            span = tracer.begin(f"cli.main.{op[0][0]}")
            status = None
            try:
                result = self.in_process(lib.cli, *op[:2])
                status = result[0]
            finally:
                tracer.end(span, failed=status != 0)
            return result

        try:
            traced, plain_s, traced_s = run_paired(
                script, lambda i, op: self.in_process(plain.cli, *op[:2]), call,
                self.check, seconds)
        finally:
            tracer.restore()
        fx = self.bind(lib)
        sub = run_ops(script, lambda i, op: self.call(fx, op), self.check, seconds)
        # subprocess minus in-process time of the same command
        startup = median([s - b for s, b in zip(sub.latencies, plain_s)])
        traced.attempted += sub.attempted
        traced.failed += sub.failed

        verify = sorted({tuple(int(w) for w in op[0][2].split(","))
                         for op in script if op[0][0] == "verify"})
        self.kernel_pool(lib, tracer, traced, verify)
        brute_s = self_seconds(tracer.totals(), "enumeration.brute_force_maximal")
        oracle = [d for d in verify if math.prod(d) <= lib.enumeration.BRUTE_FORCE_CELL_LIMIT]
        subsets = sum(2 ** math.prod(d) for d in oracle)
        metrics = {
            "enumeration.brute_force.subsets_per_s": subsets / brute_s,
            "enumeration.brute_force.hit_ratio":
                sum(oracles.expected_count(d) for d in oracle) / subsets,
            "cli.startup_s": startup,
        }
        return tracer, traced, overhead(plain_s, traced_s), metrics

    def kernel_pool(self, lib, tracer, traced, shapes) -> None:
        """is_maximal against the row-form check over each verify shape's
        maximal grids plus a seeded non-maximal sample, and the
        extend/project round trip where the extended box fits the budget."""
        not_row_form = (lib.pkg.EmptyRowError, lib.pkg.NonContiguousRowError)
        fx = bind(tracer, core__is_maximal=lib.core.is_maximal,
                  rowform__check_characterization=lib.rowform.check_characterization,
                  counting__extend_by_two=lib.counting.extend_by_two,
                  counting__project_last=lib.counting.project_last)
        # a non-maximal grid may have no row form; that is an answer, not a
        # failure of the rowform layer
        fx.rowform__to_intervals = tracer.wrap("rowform.to_intervals",
                                               lib.rowform.to_intervals,
                                               expected=not_row_form)
        for dims in shapes:
            shape = lib.core.Shape(dims)
            maximal = lib.enumeration.enumerate_maximal(shape).grids
            pool = list(maximal) + lib.verification.sample_non_maximal(shape, 1000, 0)
            for k, g in enumerate(pool):
                traced.attempted += 1
                direct = fx.core__is_maximal(g)
                try:
                    local = bool(fx.rowform__check_characterization(fx.rowform__to_intervals(g)))
                except not_row_form:
                    local = False
                if direct != local or direct != (k < len(maximal)):
                    traced.record_failure(f"{dims} pool grid {k}", "verdicts disagree")
            if 2 * shape.cell_count > lib.enumeration.DEFAULT_CELL_LIMIT:
                continue
            size = oracles.max_size(dims + (2,))
            for g in maximal:
                traced.attempted += 1
                image = fx.counting__extend_by_two(g)
                if len(image.ones) != size or fx.counting__project_last(image) != g:
                    traced.record_failure(f"{dims} extend {g.ones}", "round trip failed")
