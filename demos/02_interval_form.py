"""The row-interval form and the local maximality rules.

Group the cells of a grid into rows: fibers along the last axis, indexed by
the first d-1 coordinates.  In a maximal grid every row is nonempty and its
one-cells form a contiguous segment [l, h], so the whole grid compresses to
one interval per row.  Maximality is then equivalent to two local rules:

    h(x) = min(w_d, smallest l among ancestor rows of x)
    l(x) = max(1,   largest h among descendant rows of x)

where a row's ancestors (descendants) are the rows strictly below (above) it
in all coordinates.  This script reads the interval form off a maximal grid,
checks the rules, and shows how they fail for broken grids.
"""

from maxac import (
    Grid,
    Shape,
    check_characterization,
    contains_forbidden,
    enumerate_maximal,
    flip_creates_containment,
    from_intervals,
    is_maximal,
    to_intervals,
    x_set,
)

grid = Grid(Shape((3, 3)), [(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)])
print("A maximal 3 x 3 grid:", grid.ones)
m = to_intervals(grid)
for row, (l, h) in sorted(m.intervals.items()):
    print(f"    row {row}: ones on [{l}, {h}]")
print("Round trip reproduces the grid:", from_intervals(m) == grid)
print("Local rules hold:", bool(check_characterization(m)))
print()

print("Rows reaching the top despite having ancestors (the obstruction set):")
print("   ", sorted(x_set(m)))
print("These are what normalization will drain; see 03_normalize_peel.py.")
print()

print("A grid that is NOT maximal fails visibly:")
thin = Grid(Shape((2, 2)), [(1, 2), (2, 1)])
print("   ", thin.ones, "-> is_maximal:", is_maximal(thin))
report = check_characterization(to_intervals(thin))
print("    characterization:", report)
print()

print("Equivalence on every 2 x 3 grid (64 subsets):")
shape = Shape((2, 3))
cells = list(shape.iter_cells())
agreements = 0
for mask in range(1 << len(cells)):
    g = Grid(shape, [c for i, c in enumerate(cells) if (mask >> i) & 1])
    try:
        local = bool(check_characterization(to_intervals(g)))
    except Exception:
        local = False  # empty or gapped row: certainly not maximal
    # maximal by definition: clean, and every zero flip would break that
    direct = not contains_forbidden(g) and all(
        flip_creates_containment(g, c) for c in cells if c not in g.one_set)
    assert local == direct
    agreements += 1
print(f"    direct flip test and local rules agree on all {agreements} grids.")
print()

print("All six maximal 3 x 3 grids, compressed:")
for g in enumerate_maximal(Shape((3, 3))).grids:
    rows = ", ".join(
        f"{r}:[{l},{h}]" for r, (l, h) in sorted(to_intervals(g).intervals.items())
    )
    print("   ", rows)
