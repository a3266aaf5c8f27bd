"""Test-only counting oracles that share no code with ``maxac.enumeration``.

``plane_partitions`` is MacMahon's box formula as a product of grouped
exponents, the form the closed form took before its row-by-row binomial
product.

``_transfer_count`` is the sliding-window transfer DP that counted maximal
grids before the slice zeta transforms.  It assigns the left ends of the
interior rows in lexicographic order, but keeps only a dict from the
*window*, the last ``span`` left ends assigned, to the number of partial
assignments that end in it.  The predecessor ``x - e_i`` lies ``stride_i``
rows back and the largest stride is ``span``, the product of the ``w_i - 1``
strictly between the first and the last axis, so the window holds every
predecessor a row reads.  It shares no state list, no covering pair and no
box layout with the zeta count, and runs in any axis order.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import product
from typing import Sequence


def plane_partitions(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box: the product over i <= a, j <= b
    of (t + c) / t with t = i + j - 1, grouped by t, which min(t, a, b,
    a + b - t) of the pairs share."""
    powers = [(t, min(t, a, b, a + b - t)) for t in range(1, a + b)]
    return math.prod((t + c) ** k for t, k in powers) // math.prod(t**k for t, k in powers)


def _transfer_count(dims: Sequence[int]) -> int:
    """The transfer DP on a box of d >= 2 axes taken in the given order: the
    interior rows in lexicographic order over ``dims[:-1]``, their left ends
    in ``[1, dims[-1]]``."""
    *pre, top = dims
    strides = [1]
    for w in reversed(pre[1:]):
        strides.insert(0, strides[0] * (w - 1))
    span = strides[0]
    # the padding in the first window is never read: a row reads the slot
    # span - stride_i only when its predecessor along axis i exists
    layer = {(top,) * span: 1}
    for x in product(*[range(1, w) for w in pre]):
        slots = [span - s for s, c in zip(strides, x) if c > 1]
        successors = defaultdict(int)
        for window, ways in layer.items():
            bound = min([window[k] for k in slots]) if slots else top
            tail = window[1:]
            for v in range(1, bound + 1):
                successors[tail + (v,)] += ways
        layer = successors
    return sum(layer.values())
