"""Command-line front end.

Verbs: size, count, enumerate, verify, normalize, peel, extend, project,
game.  Machine output is compact JSON (default when piped); a human-readable
rendering is used on a terminal or with --plain.  Domain errors exit 1 with a
single JSON object ``{"error": code, "detail": ...}`` on stderr; usage errors
exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (GAME_CELL_LIMIT, VERIFY_SAMPLE_LIMIT, VERIFY_TRIAL_LIMIT, Grid, Shape,
                   _brief, _require_int, max_size)
from .errors import BoxError

# Each verb reaches its callees as attributes of this copy of the package,
# whose lazy exports import the defining module on first use: a cold start
# loads only what the verb runs (``size`` needs no more than core and
# errors).  An import statement inside ``_run`` would resolve through
# ``sys.modules``, which may by then hold a newer copy of the package.
_package = sys.modules[__package__]


def _shape_arg(text: str) -> Shape:
    try:
        dims = tuple(int(part) for part in text.split(","))
        return Shape(dims)
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad shape {_brief.repr(text)}: {exc}") from None


def _int_arg(text: str, name: str) -> int:
    # argparse's own refusal of type=int would quote the whole text
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {name} {_brief.repr(text)}: {exc}") from None


def _count_arg(text: str, name: str, least: int = 0, most: int | None = None) -> int:
    # int's and _require_int's refusals both become usage errors
    try:
        return _require_int(name, int(text), least, most)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad count {_brief.repr(text)}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxac",
        description="Exact combinatorics of maximal grids over integer boxes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="force JSON output")
    fmt.add_argument("--plain", action="store_true", help="force plain output")

    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("size", parents=[common], help="maximal-grid weight for a shape")
    p.add_argument("--w", type=_shape_arg, required=True, metavar="W1,W2,...")

    p = sub.add_parser("count", parents=[common], help="number of maximal grids")
    p.add_argument("--w", type=_shape_arg, required=True, metavar="W1,W2,...")
    p.add_argument("--method", choices=("enumerate", "formula"), default="enumerate",
                   help="'enumerate' (the default) runs count_maximal, listing no grid")

    p = sub.add_parser("enumerate", parents=[common], help="list all maximal grids")
    p.add_argument("--w", type=_shape_arg, required=True, metavar="W1,W2,...")
    p.add_argument("--cap", type=lambda t: _count_arg(t, "cap", 1),
                   default=1000, help="max grids to keep (default 1000)")

    p = sub.add_parser("verify", parents=[common],
                       help="run the per-shape verification suite")
    p.add_argument("--w", type=_shape_arg, required=True, metavar="W1,W2,...")
    p.add_argument("--samples", type=lambda t: _count_arg(t, "samples", 0, VERIFY_SAMPLE_LIMIT),
                   default=1000, help="non-maximal grids to sample "
                   f"(default 1000, at most {VERIFY_SAMPLE_LIMIT})")
    p.add_argument("--trials", type=lambda t: _count_arg(t, "trials", 0, VERIFY_TRIAL_LIMIT),
                   default=100, help="seeded games per player count "
                   f"(default 100, at most {VERIFY_TRIAL_LIMIT})")
    p.add_argument("--seed", type=lambda t: _int_arg(t, "seed"), default=0)

    for verb, blurb in (
        ("normalize", "drain a maximal grid's obstruction set"),
        ("peel", "remove the top cross-section of a normalized grid"),
        ("extend", "append a size-2 axis to a maximal grid"),
        ("project", "drop a size-2 last axis from a maximal grid"),
    ):
        p = sub.add_parser(verb, parents=[common], help=blurb)
        p.add_argument("--input", metavar="PATH",
                       help="JSON input file (default: standard input)")

    p = sub.add_parser("game", parents=[common], help="play one exclusion game")
    p.add_argument("--w", type=_shape_arg, required=True, metavar="W1,W2,...")
    p.add_argument("--players", type=lambda t: _int_arg(t, "players"), default=2)
    p.add_argument("--strategy", default="lex",
                   help="comma-separated per-player strategies from {lex,random}; "
                        "a single name applies to everyone")
    p.add_argument("--seed", type=lambda t: _int_arg(t, "seed"), default=0)

    return parser


def _read_json(args) -> dict:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("input JSON must be an object")
    return obj


def _read_interval_map(args):
    """Accept either a grid or an interval map; ``normalize`` and ``peel``
    check that it is maximal."""
    obj = _read_json(args)
    if "rows" in obj:
        return _package.IntervalMap.from_json_obj(obj)
    return _package.to_intervals(Grid.from_json_obj(obj))


def _grid_plain(g: Grid) -> str:
    ones = " ".join("(" + ",".join(map(str, c)) + ")" for c in g.ones)
    return f"w={','.join(map(str, g.shape.dims))} ones: {ones}"


def _rows_plain(m) -> list[str]:
    return [
        f"  row {row}: [{l}, {h}]" for row, (l, h) in sorted(m.intervals.items())
    ]


def _run(args) -> tuple[object, str, int]:
    """Dispatch one parsed command; returns (json payload, plain text, exit)."""
    if args.verb == "size":
        value = max_size(args.w)
        return {"w": list(args.w.dims), "size": value}, str(value), 0

    if args.verb == "count":
        count = (_package.count_maximal if args.method == "enumerate"
                 else _package.count_closed_form)
        value = count(args.w)
        payload = {"w": list(args.w.dims), "method": args.method, "count": value}
        return payload, str(value), 0

    if args.verb == "enumerate":
        report = _package.enumerate_maximal(args.w, cap=args.cap)
        lines = [f"{report.count} maximal grids over {args.w.dims}"
                 + (" (truncated)" if report.truncated else "")]
        lines += ["  " + _grid_plain(g) for g in report.grids]
        return report.to_json_obj(), "\n".join(lines), 0

    if args.verb == "verify":
        results = _package.verify_shape(args.w, samples=args.samples,
                                        trials=args.trials, seed=args.seed)
        passed = all(r.passed for r in results)
        payload = {
            "w": list(args.w.dims),
            "passed": passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        }
        lines = [
            f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}" for r in results
        ]
        lines.append(("all checks passed" if passed else "some checks FAILED")
                     + f" for shape {args.w.dims}")
        return payload, "\n".join(lines), 0 if passed else 1

    if args.verb == "normalize":
        report = _package.normalize(_read_interval_map(args))
        lines = [f"steps: {report.steps}"]
        lines += [f"  lowered {x}, raised {xp}" for x, xp in report.pairs]
        lines += ["result:"] + _rows_plain(report.result)
        return report.to_json_obj(), "\n".join(lines), 0

    if args.verb == "peel":
        peeled = _package.peel(_read_interval_map(args))
        lines = [f"peeled to shape {peeled.shape.dims}"] + _rows_plain(peeled)
        return peeled.to_json_obj(), "\n".join(lines), 0

    if args.verb == "extend":
        result = _package.extend_by_two(Grid.from_json_obj(_read_json(args)))
        return result.to_json_obj(), _grid_plain(result), 0

    if args.verb == "project":
        result = _package.project_last(Grid.from_json_obj(_read_json(args)))
        return result.to_json_obj(), _grid_plain(result), 0

    if args.verb == "game":
        names = args.strategy.split(",")
        # before the strategy list is built; play checks the same bounds
        _require_int("players", args.players, 2, GAME_CELL_LIMIT + 1)
        if len(names) == 1:
            names = names * args.players
        transcript = _package.play(args.w, args.players, names, seed=args.seed)
        lines = [
            f"move {i}: player {p} -> {c}"
            for i, (p, c) in enumerate(transcript.final_state.moves)
        ]
        lines.append(f"loser: player {transcript.loser}"
                     + ("" if transcript.forced else " (flipped an unsafe cell early)"))
        return transcript.to_json_obj(), "\n".join(lines), 0

    raise AssertionError(f"unhandled verb {args.verb}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, plain, status = _run(args)
    except BoxError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}), file=sys.stderr)
        return 1
    except (ValueError, OverflowError, json.JSONDecodeError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 1
    use_plain = args.plain or (not args.json and sys.stdout.isatty())
    if use_plain:
        print(plain)
    else:
        print(json.dumps(payload, separators=(",", ":")))
    return status


if __name__ == "__main__":
    sys.exit(main())
