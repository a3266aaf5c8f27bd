"""Mutation matrix for maxac: which Tier-1 tests fail under which one-edit
mutant of the package.

Run from anywhere, with no arguments:

    python tools/mutate.py

It needs only the standard library and pytest (the test dependency).  Its
seed, sample size and tables are the constants below.

1. Baseline: Tier-1 runs on a full copy of the tree whose ``MODULES`` are
   replaced by their ``ast.unparse``, unmutated.  It must pass, and its wall
   time sets each child's timeout.
2. Mutants: per module of ``MODULES``, ``SAMPLE`` sites drawn by ``SEED``
   from every site of four edits (flip a comparison's strictness or
   negation, swap ``+``/``-`` or ``*``/``//``, add 1 to an int constant, swap
   ``and``/``or``); the ``SKIP`` ones among them are not run.  A site's
   key is its source text before and after the edit, plus its index among
   the module's sites of the same text, so identical lines keep apart.
   Then every ``NAMED`` mutant.  Each runs the full Tier-1 (but this tool's
   own check, tests/test_mutate_tool.py), without ``-x``, on its own full
   copy of the tree (README and demos included; no ``.git`` or caches), two
   children at a time.  Each child has its own session, a timeout and an
   address-space cap; a timeout kills the session and counts as a kill by
   the suite, with no test named.
3. Report: the kill matrix (mutant by test), the survivors, and per test the
   mutants that only it kills.

A full run takes about (mutants x Tier-1 time) / 2.
"""

import ast
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maxac"
MODULES = ("core", "rowform", "normalize", "enumeration", "counting", "game", "verification", "cli",
           "errors")
SEED = 0
# drawn per module; at least 30 of them run while SKIP holds at most 3
SAMPLE = 33
CHILDREN = 2
TIMEOUT_FACTOR = 3
MEMORY_CAP = 3 << 30
# the tool's own check reads the copy's source, which holds unparsed modules
PYTEST = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
          "--ignore=tests/test_mutate_tool.py")
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.pyc",
                                     ".benchmarks")

# Hand-written mutants: (module, snippet, replacement).  The snippet occurs
# exactly once in the module's source.
NAMED = (
    # the deletions of the one-claim-one-check change, one row each
    ("enumeration", "math.comb(b + c + i, b) for", "math.comb(b + c + i, b + 1) for"),
    ("core", "or w < 1:", "or w < 0:"),
    ("enumeration", "sorted(w - 1 for w in shape.dims if w > 2)",
     "sorted(w - 1 for w in shape.dims if w > 3)"),
    ("counting", "lh == (1, 2)]", "lh[0] == 1]"),
    ("enumeration", "if above > 3 and", "if above > 4 and"),
    ("enumeration", "if 1 in shape.dims:\n        return 1",
     "if 1 in shape.dims[1:]:\n        return 1"),
    ("enumeration", "count = len(grids)\n", "count = len(grids) + (cap is not None)\n"),
    ("enumeration", "count = count_maximal(shape)\n", "count = len(grids)\n"),
    ("enumeration", '_require_int("cap", cap, 1)', '_require_int("cap", cap, 0)'),
    ("enumeration", "if 1 in shape.dims:\n        return 1",
     "if 1 in shape.dims:\n        return 2"),
    ("enumeration", "sorted(w - 1 for w in shape.dims if w > 2)",
     "sorted(w - 2 for w in shape.dims if w > 2)"),
    ("enumeration", "for mask in range(1 << n):", "for mask in range((1 << n) - 1):"),
    ("core", "math.prod(w - 1 for w in s.dims)", "math.prod(w - 1 for w in s.dims[1:])"),
    ("normalize", "hs[i] = ls[i - diag] = top - 1", "hs[i] = top - 1"),
    ("normalize", "h - 1 if h == top else h", "h - 1 if h >= top - 1 else h"),
    ("enumeration", "whole = tuple(shape.iter_cells())", "whole = tuple(shape.iter_cells())[1:]"),
    ("rowform", "stop if stop < n else n)", "stop if stop < n else n - 1)"),
    # boundaries and defaults that an earlier sampled run found unpinned
    ("enumeration", "    if states <= COUNT_STATE_LIMIT:\n        try:",
     "    if states < COUNT_STATE_LIMIT:\n        try:"),
    ("core", "if cells > _MAX_CELLS:", "if cells >= _MAX_CELLS:"),
    ("core", "_brief.maxlevel, _brief.maxtuple, _brief.maxlist, _brief.maxdict = 3, 8, 8, 4",
     "_brief.maxlevel, _brief.maxtuple, _brief.maxlist, _brief.maxdict = 3, 9, 8, 4"),
    ("game", "    seed: int = 0,\n", "    seed: int = 1,\n"),
    ("verification", "def check_game(shape: Shape, trials: int = 100,",
     "def check_game(shape: Shape, trials: int = 101,"),
    # the literal CLI examples that the pinned CLI script replaced: each fails both
    ("cli", '"size": value}', '"size": value + 1}'),
    ("enumeration", '"truncated": self.truncated,', '"truncated": not self.truncated,'),
    ("normalize", '"steps": self.steps,', '"steps": self.steps + 1,'),
    ("game", '"loser": self.loser,', '"loser": self.loser + 1,'),
    ("cli", "if len(names) == 1:", "if len(names) == 2:"),
    ("verification", 'name = "normalization"', 'name = "normalisation"'),
    ("game", "rng = random.Random(seed)", "rng = random.Random()"),
    ("enumeration", "    grids = []\n    while True:",
     '    grids = enumerate_maximal.__dict__.setdefault("grids", [])\n    while True:'),
    # a check out of its scope on boxes it covers
    ("verification", "if shape.dims[-1] < 2:", "if shape.dims[-1] < 3:"),
    # CLI faults that no test caught before the table of tests/cli_cases.json
    ("cli", "enumerate(transcript.final_state.moves)", "enumerate(transcript.final_state.moves, 1)"),
    ("cli", 'f"steps: {report.steps}"', 'f"steps: {report.steps + 1}"'),
    ("cli", "use_plain = args.plain or (not args.json and sys.stdout.isatty())",
     "use_plain = args.plain"),
    ("cli", "except (ValueError, OverflowError, OSError) as exc:",
     "except (ValueError, OverflowError) as exc:"),
    ("cli", "status = 0 if passed else 1", "status = 0"),
    # the literal CLI examples that the table replaced: each fails both
    ("cli", "(str(value) if plain", "(str(value + 1) if plain"),
    ("enumeration", "DEFAULT_CELL_LIMIT = 25", "DEFAULT_CELL_LIMIT = 36"),
    ("cli", 'if "rows" in obj:', 'if "rows" not in obj:'),
    ("rowform", "if len(g.ones) != max_size(g.shape):", "if len(g.ones) < max_size(g.shape):"),
    ("counting", "lh == (1, 2)]", "lh[1] == 2]"),
    ("core", "raise ShapeTooLargeError(cells, GAME_CELL_LIMIT)",
     "raise ValueError(cells, GAME_CELL_LIMIT)"),
    ("core", "if most is not None and value > most:", "if most is not None and value > most + 1:"),
    ("cli", "except RecursionError:", "except (RecursionError, ValueError):"),
    ("cli", "for r in results\n        ]\n        lines.append",
     "for r in results[1:]\n        ]\n        lines.append"),
    ("verification", "if trials == 0:", "if trials == 1:"),
    ("cli", '_count_arg(t, "cap", 1)', '_count_arg(t, "cap", 0)'),
    # order and cleanliness faults that the random property draws passed on
    # most seeds, and the small-scope sweeps of test_properties.py fail
    ("core", "return all(x < y for x, y in zip(a, b))",
     "return all(0 < y - x < 2 for x, y in zip(a, b))"),
    ("core", "                return True\n    return False",
     "                return True\n    return len(ones) == 2"),
)

# Equivalent drawn mutants, not run: the key ``sample`` gives, (module, the
# lines that hold the site, the same lines edited, the site's index among
# the module's sites with those two texts), to why no test can tell the
# mutant apart.
SKIP = {
    ("core", "return bool(limit) and x.bit_length() > 3 * limit and _digit_count(x) > limit",
     "return bool(limit) and x.bit_length() > 3 // limit and _digit_count(x) > limit", 0):
        "the bit length is only a pre-filter; _digit_count decides",
    ("core", "if lo > start and alive[lo - 1]:", "if lo >= start and alive[lo - 1]:", 0):
        "at lo == start the scan finds no dead cell left of lo, so lo stays start",
    ("rowform", "if not set(map(type, chain(ls, hs))) <= {int}:",
     "if not set(map(type, chain(ls, hs))) < {int}:", 0):
        "plain int bounds then take the int() copy too, which changes no value",
    ("rowform", "if i % w and a[i - 1] < a[i]:", "if i % w and a[i - 1] <= a[i]:", 0):
        "an equal minimum is written over itself",
    ("rowform", "end = bisect_left(ones, following, start, stop if stop < n else n)",
     "end = bisect_left(ones, following, start, stop if stop <= n else n)", 0):
        "at stop == n both branches give n",
    ("normalize", "return next(_walk(ls, hs, box, top, pending[:1])), ls, hs",
     "return next(_walk(ls, hs, box, top, pending[:2])), ls, hs", 0):
        "next() takes the walk's first pair, found from the first pending row alone",
    ("enumeration", "digit = [0] * (len(rows.cells) + 1)",
     "digit = [1] * (len(rows.cells) + 1)", 0):
        "the slots outside rows.inner never leave 1, so every key moves by one constant",
    ("game", "taken[j] = 1", "taken[j] = 2", 0):
        "taken is only read as a truth value and searched for 0",
    ("cli", 'default=1000, help="max grids to keep (default 1000)")',
     'default=1001, help="max grids to keep (default 1000)")', 0):
        "no box within the 25-cell budget has over 1000 maximal grids (5,5 has the most, 70)",
}


_FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is}
_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult}


def _sites(nodes):
    """Every (index into ``nodes``, the ``ast.walk`` of a module; operand
    index) with an edit; the operand index picks one op of a chain."""
    for i, node in enumerate(nodes):
        if isinstance(node, ast.Compare):
            yield from ((i, k) for k, op in enumerate(node.ops) if type(op) in _FLIP)
        elif (isinstance(node, ast.BinOp) and type(node.op) in _SWAP
              or isinstance(node, ast.BoolOp)
              or isinstance(node, ast.Constant) and type(node.value) is int):
            yield i, 0


def _edit(node, k, step=1):
    """Make the edit at ``node`` in place; ``step=-1`` undoes it."""
    if isinstance(node, ast.Compare):
        node.ops[k] = _FLIP[type(node.ops[k])]()
    elif isinstance(node, ast.BinOp):
        node.op = _SWAP[type(node.op)]()
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    else:
        node.value += step


def _parse(module):
    source = (PACKAGE / f"{module}.py").read_text()
    tree = ast.parse(source)
    return source, tree, list(ast.walk(tree))


def _text(lines, node, k):
    """(the source lines that hold the edited node, the same lines with the
    edit made), each with its whitespace collapsed."""
    text = "\n".join(lines[node.lineno - 1:node.end_lineno]).encode()
    end = len(text) - len(lines[node.end_lineno - 1].encode()) + node.end_col_offset
    _edit(node, k)
    after = text[:node.col_offset].decode() + ast.unparse(node) + text[end:].decode()
    _edit(node, k, -1)
    return " ".join(text.decode().split()), " ".join(after.split())


def keys(module):
    """{site: key} for every site of ``module``; the key is (module, the
    two texts, the site's index in source order among the sites with the
    same two texts)."""
    source, _, nodes = _parse(module)
    lines, seen, out = source.splitlines(), Counter(), {}
    for i, k in sorted(_sites(nodes), key=lambda s: (nodes[s[0]].lineno, nodes[s[0]].col_offset)):
        text = _text(lines, nodes[i], k)
        out[i, k] = (module, *text, seen[text])
        seen[text] += 1
    return out


def sample():
    """The drawn sites: per module, ``SAMPLE`` of them by ``SEED`` (all if
    fewer), in source order, as (module, site, key); ``SKIP`` is keyed by
    the key."""
    out = []
    for module in MODULES:
        *_, nodes = _parse(module)
        sites, key = list(_sites(nodes)), keys(module)
        picked = random.Random(f"{module}:{SEED}").sample(sites, min(SAMPLE, len(sites)))
        out += [(module, site, key[site]) for site in sorted(picked)]
    return out


def edited_trees(module, sites):
    """Per site, the module's tree with that one edit made, the top-level
    statement that holds it, and its line.  The edit is undone at the next
    step, so use each tree before asking for the next."""
    _, tree, nodes = _parse(module)
    for i, k in sites:
        top = next(s for s in tree.body if s.lineno <= nodes[i].lineno <= s.end_lineno)
        _edit(nodes[i], k)
        yield tree, top, nodes[i].lineno
        _edit(nodes[i], k, -1)


def named():
    """The ``NAMED`` mutants, as (module, label, edited source)."""
    out = []
    for module, snippet, replacement in NAMED:
        source = (PACKAGE / f"{module}.py").read_text()
        if source.count(snippet) != 1:
            raise ValueError(f"NAMED snippet {snippet!r} occurs {source.count(snippet)} "
                             f"times in {module}.py, not once")
        line = source[:source.index(snippet)].count("\n") + 1
        label = f"{module}:{line}: {' '.join(snippet.split())}  ->  {' '.join(replacement.split())}"
        out.append((module, f"NAMED {label}", source.replace(snippet, replacement)))
    return out


def _mutants():
    """Every mutant to run, as (module, label, text): the drawn ones but
    ``SKIP``, then ``NAMED``."""
    out = []
    drawn = [(m, site, key) for m, site, key in sample() if key not in SKIP]
    for module in MODULES:
        mine = [(site, key) for m, site, key in drawn if m == module]
        trees = edited_trees(module, [site for site, _ in mine])
        for (_, (_, before, after, _)), (tree, _, line) in zip(mine, trees):
            out.append((module, f"{module}:{line}: {before}  ->  {after}", ast.unparse(tree)))
    out += [(m, label, ast.unparse(ast.parse(text))) for m, label, text in named()]
    return out


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, resource.getrlimit(resource.RLIMIT_AS)[1]))


def _start(scratch, name, texts):
    """Copy the tree into ``scratch/name``, write ``texts`` (module to
    source) over its package, and start Tier-1 there in a new session."""
    tree = scratch / name
    shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
    for module, text in texts.items():
        (tree / "src" / "maxac" / f"{module}.py").write_text(text + "\n")
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    with open(tree / "pytest.log", "w") as log:
        return subprocess.Popen([sys.executable, *PYTEST, f"--junitxml={tree / 'junit.xml'}"],
                                cwd=tree, env=env, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, start_new_session=True,
                                preexec_fn=_cap_memory)


def _kill(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _outcome(tree, code, timed_out):
    """(passed test ids, failed test ids) of one finished run; a timeout, a
    crash or an error outside any test fails the pseudo-test ``<suite>``."""
    passed, failed = set(), set()
    report = tree / "junit.xml"
    if not timed_out and report.exists():
        for case in ET.parse(report).iter("testcase"):
            module = case.get("classname", "").replace(".", "/")
            test = f"{module}.py::{case.get('name')}" if module else case.get("name")
            if case.find("failure") is not None or case.find("error") is not None:
                failed.add(test)
            elif case.find("skipped") is None:
                passed.add(test)
    if code != 0 and not failed:
        failed.add("<suite>")
    return passed, failed


def run_all(jobs, timeout):
    """Run each (name, texts) job, ``CHILDREN`` at a time, and return
    {name: (passed, failed, seconds)}."""
    results, running = {}, []
    pending = list(jobs)
    with tempfile.TemporaryDirectory(prefix="maxac-mutate-") as scratch:
        scratch = Path(scratch)
        try:
            while pending or running:
                while pending and len(running) < CHILDREN:
                    name, texts = pending.pop(0)
                    running.append((name, _start(scratch, name, texts), time.monotonic()))
                time.sleep(0.2)
                for job in list(running):
                    name, proc, start = job
                    elapsed = time.monotonic() - start
                    timed_out = proc.poll() is None
                    if timed_out and (timeout is None or elapsed <= timeout):
                        continue
                    if timed_out:
                        _kill(proc)
                    running.remove(job)
                    results[name] = (*_outcome(scratch / name, proc.returncode, timed_out),
                                     elapsed)
                    shutil.rmtree(scratch / name, ignore_errors=True)
                    print(f"  {name}: {len(results[name][1])} failed, {elapsed:.0f} s"
                          f"{' (timeout)' if timed_out else ''}", file=sys.stderr, flush=True)
        finally:
            for _, proc, _ in running:
                _kill(proc)
    return results


def main():
    mutants = _mutants()
    plain = {m: ast.unparse(ast.parse((PACKAGE / f"{m}.py").read_text())) for m in MODULES}
    print(f"baseline: Tier-1 on the unparsed {', '.join(MODULES)}", file=sys.stderr)
    tests, failed, seconds = run_all([("baseline", plain)], None)["baseline"]
    if failed:
        sys.exit(f"the baseline fails: {', '.join(sorted(failed))}")
    print(f"baseline: {len(tests)} tests passed in {seconds:.0f} s")
    timeout = TIMEOUT_FACTOR * seconds
    print(f"{len(mutants)} mutants, {CHILDREN} at a time, timeout {timeout:.0f} s each",
          file=sys.stderr)
    results = run_all([(f"M{n:03d}", {m: text}) for n, (m, _, text) in enumerate(mutants, 1)],
                      timeout)
    ids = sorted(tests)
    index = {t: f"T{n:03d}" for n, t in enumerate(ids, 1)}
    index["<suite>"] = "<suite>"
    print("\n== tests")
    for t in ids:
        print(f"{index[t]} {t}")
    print("\n== kill matrix: mutant, seconds, killing tests")
    killers = {}
    for n, (_, label, _) in enumerate(mutants, 1):
        name = f"M{n:03d}"
        _, failed, seconds = results[name]
        killers[name] = failed
        print(f"{name} {seconds:.0f}s {label}")
        print(f"     {len(failed)}: {' '.join(sorted(index.get(t, t) for t in failed))}")
    survivors = [(name, label) for (name, f), (_, label, _) in zip(killers.items(), mutants)
                 if not f]
    print(f"\n== survivors: {len(survivors)} of {len(mutants)}")
    for name, label in survivors:
        print(f"{name} {label}")
    print("\n== mutants only one test kills")
    for t in ids + ["<suite>"]:
        own = [name for name, f in killers.items() if f == {t}]
        if own:
            print(f"{index[t]} {t}: {' '.join(own)}")


if __name__ == "__main__":
    main()
