"""Seeded fuzzing of the JSON verbs: normalize, peel, extend and project.

A case is one verb run through ``cli.main`` on one input: a maximal grid from
``random_maximal`` on a box with d <= 4 and sides <= 5, or its interval map,
mutated one to four times.  A mutation drops or adds a key, swaps a value for
an odd one (a bool, a float, infinity or NaN, a short str, null, a negative
int, 10**30, 2**63, an empty or nested list or object), shifts an integer by
1, 2 or 10**9 either way, or duplicates, drops, shuffles or nests list items.
Every case must end in exit 0 with an empty stderr (and, with ``--json``, a
stdout that parses as JSON), in exit 1 with an empty stdout and exactly one
``{"error": ...}`` line on stderr, or in exit 2, within ``CASE_SECONDS``.

The sweep runs in a child process under an address-space cap and a
timeout, so unbounded work fails the test and does not fill the machine.
``PYTHONPATH=src python tests/test_fuzz.py SEED CASES`` runs one sweep and
prints each failing case as a JSON line.
"""

import copy
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from maxac import Shape, random_maximal, to_intervals
from maxac.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
VERBS = ("normalize", "peel", "extend", "project")
CASE_SECONDS = 2.0
ODD = (True, False, 0.5, 2.0, float("inf"), float("nan"), "", "1", "ab", None, -1, 10**30, 2**63,
       [], {}, [[1, 2]], {"x": [1]})
SHIFTS = (-10**9, -2, -1, 1, 2, 10**9)
KEYS = ("w", "ones", "rows", "x", "l", "h", "extra")


def _spots(obj, out):
    """Every (container, key) pair inside ``obj``, depth first."""
    for key, value in list(obj.items() if isinstance(obj, dict) else enumerate(obj)):
        out.append((obj, key))
        if isinstance(value, (dict, list)):
            _spots(value, out)
    return out


def _mutate(holder, rng):
    """One mutation somewhere in ``holder[0]``, the input itself included."""
    parent, key = rng.choice(_spots(holder, []))
    value = parent[key]
    # an odd value one time in three, else a mutation of the value's kind
    odd = rng.randrange(3) == 0
    if not odd and type(value) is int:
        parent[key] = value + rng.choice(SHIFTS)
    elif not odd and isinstance(value, list) and value:
        i = rng.randrange(len(value))
        action = rng.randrange(4)
        if action == 0:
            value.insert(i, copy.deepcopy(value[i]))
        elif action == 1:
            del value[i]
        elif action == 2:
            rng.shuffle(value)
        else:
            value[i] = [value[i]]
    elif not odd and isinstance(value, dict):
        if value and rng.randrange(2):
            del value[rng.choice(list(value))]
        else:
            value[rng.choice(KEYS)] = copy.deepcopy(rng.choice(ODD))
    else:
        parent[key] = copy.deepcopy(rng.choice(ODD))


def _cases(seed, count):
    """``count`` (verb, format, input text) triples, fixed by ``seed``."""
    rng = random.Random(seed)
    for _ in range(count):
        verb = rng.choice(VERBS)
        shape = Shape(tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4))))
        grid = random_maximal(shape, rng.randrange(2**32))
        # normalize and peel read an interval map as well
        as_map = verb in ("normalize", "peel") and rng.randrange(2)
        holder = [(to_intervals(grid) if as_map else grid).to_json_obj()]
        for _ in range(rng.randint(1, 4)):
            _mutate(holder, rng)
        yield verb, rng.choice(("--json", "--plain")), json.dumps(holder[0])


def _run(verb, fmt, text):
    """A failure message for one case, or None when it ends as it should."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main([verb, fmt])
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a traceback, MemoryError included
        return f"raised {type(exc).__name__}: {str(exc)[:200]}"
    finally:
        sys.stdin = stdin
    seconds = time.perf_counter() - start
    if seconds > CASE_SECONDS:
        return f"took {seconds:.2f} s"
    if status == 0:
        if err.getvalue():
            return f"exit 0 with stderr {err.getvalue()[:200]!r}"
        if fmt == "--json":
            try:
                json.loads(out.getvalue())
            except ValueError:
                return f"exit 0 with stdout {out.getvalue()[:200]!r}"
    elif status == 1:
        lines = err.getvalue().splitlines()
        if len(lines) != 1 or not lines[0].startswith('{"error": ') or out.getvalue():
            return f"exit 1 with stdout {out.getvalue()[:200]!r}, stderr {err.getvalue()[:200]!r}"
    elif status != 2:
        return f"exit {status!r}"
    return None


def _sweep_in_child(seed, count, timeout):
    proc = subprocess.run(
        [sys.executable, "-W", "error", __file__, str(seed), str(count)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "", proc.stdout[:2000]


def test_the_json_verbs_end_in_a_documented_way_on_mutated_inputs():
    _sweep_in_child(seed=2, count=1000, timeout=60)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
def test_the_json_verbs_end_in_a_documented_way_on_many_mutated_inputs(seed):
    _sweep_in_child(seed, count=20_000, timeout=600)


if __name__ == "__main__":
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    for verb, fmt, text in _cases(int(sys.argv[1]), int(sys.argv[2])):
        if (failure := _run(verb, fmt, text)) is not None:
            print(json.dumps({"verb": verb, "format": fmt, "input": text[:500],
                              "failure": failure}), flush=True)
