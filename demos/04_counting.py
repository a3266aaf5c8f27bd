"""Counting maximal grids.

One reduction gives every closed-form count (``count_closed_form``), each
cross-checked here against the enumeration, and ``count_maximal`` takes it
wherever it applies:

* a size-1 axis (d >= 2) leaves a single maximal grid;
* appending a dimension of size 2 changes nothing: maximal grids over
  [w, 2] correspond one-to-one with maximal grids over w, so size-2 axes
  drop out (and when every dimension is 1 or 2, the count is min(w_i));
* what is left is w for one axis, the binomial C(w1 + w2 - 2, w1 - 1) for
  two (a maximal grid is a monotone staircase; choosing where it bends is a
  lattice-path choice), and MacMahon's box formula for plane partitions in
  a (w1 - 1) x (w2 - 1) x (w3 - 1) box for three.

Beyond these, ``count_maximal`` counts any box within its budgets by slice
zeta transforms over the ideals of the box minus its largest side.  The
count is the number of antichains of the product of chains
[w_1 - 1] x ... x [w_d - 1], so for 3^d it is the Dedekind number: the
antichains of the Boolean lattice on d elements.
"""

import itertools

from maxac import (
    PreconditionViolatedError,
    Shape,
    count_closed_form,
    count_maximal,
    enumerate_maximal,
    extend_by_two,
    project_last,
)

print("Two-dimensional counts (binomial vs enumeration):")
print("    w2:      1    2    3    4    5")
for w1 in range(1, 6):
    row = []
    for w2 in range(1, 6):
        shape = Shape((w1, w2))
        formula = count_closed_form(shape)
        assert formula == len(enumerate_maximal(shape).grids) == count_maximal(shape)
        row.append(f"{formula:4}")
    print(f"    w1={w1}  " + " ".join(row))
print("    (symmetric, Pascal-like: each entry is the sum of its neighbors)")
print()

print("Cubes (MacMahon's box formula vs enumeration up to side 4):")
for w in range(1, 7):
    shape = Shape((w,) * 3)
    count = count_closed_form(shape)
    if w <= 4:
        assert count == len(enumerate_maximal(shape, max_cells=shape.cell_count).grids)
    print(f"    {w} x {w} x {w} -> {count} maximal grids")
print()

print("The append-a-layer bijection on the 2 x 2 box:")
base = enumerate_maximal(Shape((2, 2))).grids
for g in base:
    image = extend_by_two(g)
    back = project_last(image)
    print(f"    {g.ones}")
    print(f"      -> {image.ones}")
    print(f"      -> back to {back.ones}   (round trip: {back == g})")
print("Counts agree:", count_maximal(Shape((2, 2))),
      "==", count_maximal(Shape((2, 2, 2))))
print("So size-2 axes drop out anywhere:",
      count_closed_form(Shape((2, 5, 2, 4, 6))), "==",
      count_closed_form(Shape((5, 4, 6))))
print()

print("All-small boxes: count = min(w_i)")
for d in range(1, 5):
    for dims in itertools.product((1, 2), repeat=d):
        shape = Shape(dims)
        assert count_closed_form(shape) == count_maximal(shape) == min(dims)
    print(f"    d={d}: verified for all {2**d} boxes over {{1,2}}^{d}")
print()

print("count_maximal, checked by enumeration:")
for dims in [(3, 3, 2), (4, 3), (2, 3, 4), (5, 5)]:
    shape = Shape(dims)
    assert count_maximal(shape) == len(enumerate_maximal(shape).grids)
    print(f"    {str(dims):10} -> {count_maximal(shape)} maximal grids")
print()

try:
    count_closed_form(Shape((3, 3, 3, 3)))
except PreconditionViolatedError as exc:
    print(f"count_closed_form refuses: {exc}.")
print("count_maximal counts such boxes by slice zeta transforms.  Cubes of side 3")
print("give the Dedekind numbers (OEIS A000372):")
for d, dedekind in enumerate([3, 6, 20, 168, 7581, 7828354], start=1):
    shape = Shape((3,) * d)
    count = count_maximal(shape)
    assert count == dedekind
    print(f"    d={d}: 3^{d} -> {count} maximal grids")
