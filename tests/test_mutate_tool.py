"""The mutation tool's tables still fit the source: a moved or edited line
fails here, not silently in a run of ``tools/mutate.py``."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parent.parent / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


def test_the_sample_is_seeded_large_enough_and_every_mutant_compiles():
    drawn = mutate.sample()
    assert drawn == mutate.sample()
    keys = {key for _, _, key in drawn}
    assert set(mutate.SKIP) <= keys, "a SKIP entry names no drawn site"
    per_module = Counter(m for m, _, _ in drawn)
    skipped = Counter(key[0] for key in mutate.SKIP)
    for module in mutate.MODULES:
        *_, nodes = mutate._parse(module)
        sites = len(list(mutate._sites(nodes)))
        # no two sites share a key, identical lines included, so a SKIP entry skips one
        assert len(set(mutate.keys(module).values())) == sites
        assert per_module[module] == min(mutate.SAMPLE, sites)
        assert per_module[module] - skipped[module] >= min(30, sites - skipped[module])
        mine = [site for m, site, _ in drawn if m == module]
        for _, top, _ in mutate.edited_trees(module, mine):
            compile(ast.Module([top], []), module, "exec")
    # named() refuses a snippet that does not occur exactly once
    for module, _, text in mutate.named():
        compile(text, module, "exec")
