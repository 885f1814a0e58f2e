"""Exact geometry on 2-D rate polytopes.

Every halfspace the region builders emit has coef_private in {0, 1} and, when
both coefficients are non-zero, coef_common >= coef_private. Moving along
(-1, +1) then never tightens a constraint faster than it raises
R_private + R_common, so the max-sum LP has the greedy closed form of a
polymatroid: take the largest private rate first, then the largest common
rate. ``max_sum_rate`` states it on scalar bounds, ``_max_sum_grid`` on two
hops' bounds over grids of their power splits, one broadcast per line.
Non-negative coefficients also make every region down-closed, so
``vertices`` walks the upper envelope of its lines from R_p = 0 instead of
enumerating pairwise intersections (``oracle.enumerated_vertices`` still
does, as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .model import RatePair
from .regions import RateRegion

FEAS_TOL = 1e-12
_BINDING_TOL = 1e-9
_DEDUP_TOL = 1e-10


@dataclass(frozen=True)
class LPSolution:
    """Maximizer of R_private + R_common over an intersection of regions."""

    value: float
    point: RatePair
    binding: tuple[str, ...]
    degenerate: bool


def contains(region: RateRegion, point: RatePair, tol: float = FEAS_TOL) -> bool:
    """True iff every halfspace of ``region`` is satisfied within ``tol``."""
    return all(h.slack(point) >= -tol for h in region.halfspaces)


def max_sum_rate(*regions: RateRegion) -> LPSolution:
    """Exact maximizer of R_private + R_common over the regions' intersection.

    The greedy: x = min c/a over a > 0, then y = max(min (c - a*x)/b over
    b > 0, 0); it is exact unless a line has 0 < coef_common < coef_private,
    which raises ValueError. Of all maximizers this is the one of largest
    private rate. The optimal face runs from it along (-1, +1) and is flagged
    degenerate when longer than 1e-9. Binding labels carry the region's
    builder name when more than one region is intersected.
    """
    if not regions:
        raise ValueError("max_sum_rate needs at least one region")
    lines = []
    for region in regions:
        prefix = f"{region.short_name}:" if len(regions) > 1 else ""
        for h in region.halfspaces:
            a, b = float(h.coef_private), float(h.coef_common)
            if 0 < b < a:
                raise ValueError(
                    f"greedy max-sum LP needs coef_common >= coef_private, got ({a:g}, {b:g})")
            lines.append((a, b, float(h.bound), prefix + h.label))
    x, y, binding = _greedy(lines)
    face = min([x] + [(c - a * x - b * y) / (b - a) for a, b, c, _ in lines if b > a])
    return LPSolution(value=x + y, point=RatePair(x, y), binding=binding,
                      degenerate=face > 1e-9)


def _greedy(lines) -> tuple[float, float, tuple[str, ...]]:
    """The point of ``max_sum_rate`` on (a, b, c, label) lines, none with
    0 < b < a (``max_sum_rate`` checks), and the labels of the lines tight there."""
    x = min(c / a for a, b, c, _ in lines if a > 0) + 0.0  # +0.0 normalizes -0.0
    y = max(min((c - a * x) / b for a, b, c, _ in lines if b > 0), 0.0) + 0.0
    return x, y, tuple(label for a, b, c, label in lines
                       if abs(a * x + b * y - c) <= _BINDING_TOL)


def _max_sum_grid(bounds1: dict, bounds2: dict) -> np.ndarray:
    """Max-sum LP value of hop 1 at the i-th entries of ``bounds1``
    intersected with hop 2 at the j-th entries of ``bounds2``: the greedy of
    ``max_sum_rate`` over every line of both hops, broadcast over the grid.
    x = min c/a, then y = max(min (c - a*x)/b, 0), so every cell is the
    float ``max_sum_rate`` gives."""
    lines = ([(a, b, c[:, None]) for (a, b), c in bounds1.items()]
             + [(a, b, c[None, :]) for (a, b), c in bounds2.items()])
    x = reduce(np.minimum, [c / a for a, b, c in lines if a > 0])
    # on a pure-common line c - 0*x is c, so the grid-sized product is skipped
    y = reduce(np.minimum, [(c - a * x if a else c) / b for a, b, c in lines if b > 0])
    return x + np.maximum(y, 0.0)


# The axes as (coef_private, coef_common, bound) lines.
_AXIS_PRIVATE = (1.0, 0.0, 0.0)  # R_p = 0
_AXIS_COMMON = (0.0, 1.0, 0.0)  # R_c = 0


def _meet(first, second) -> tuple[float, float]:
    """Crossing of two non-parallel lines, clipped at 0."""
    (a1, b1, c1), (a2, b2, c2) = first, second
    det = a1 * b2 - a2 * b1
    x = (c1 * b2 - c2 * b1) / det
    y = (a1 * c2 - a2 * c1) / det
    return max(x, 0.0) + 0.0, max(y, 0.0) + 0.0  # +0.0 normalizes -0.0


def vertices(region: RateRegion) -> list[RatePair]:
    """All extreme points of the feasible set, counterclockwise from the origin.

    Every coefficient is non-negative, so the region is down-closed: from the
    origin its boundary runs along R_c = 0 to the tightest R_p-intercept X,
    up the line that sets X if that line is vertical, back along the upper
    envelope of the lines with coef_common > 0, and down R_p = 0. The
    envelope is walked from R_p = 0: it starts on the line of least common
    intercept and steps to the nearest crossing by a steeper line, until the
    next crossing lies at or beyond X; ties go to the steepest line. Each
    vertex is the crossing of its own two lines, the axes among them.

    Points closer than 1e-10 are merged in lexicographic order, keeping the
    smallest, so a region narrower than that collapses to a segment or to
    the origin.
    """
    lines = [(float(h.coef_private), float(h.coef_common), h.bound)
             for h in region.halfspaces]
    extent = min((line for line in lines if line[0] > 0), key=lambda l: l[2] / l[0])
    corner = _meet(extent, _AXIS_COMMON)
    # steepest first, so that min() breaks every tie toward the steepest line
    sloped = sorted((line for line in lines if line[1] > 0), key=lambda l: -l[0] / l[1])
    line = min(sloped, key=lambda l: l[2] / l[1])
    top = [_meet(line, _AXIS_PRIVATE)]  # the upper boundary, left to right
    while True:
        crossings = [(_meet(line, other), other) for other in sloped
                     if other[0] * line[1] > line[0] * other[1]]
        if not crossings:
            break
        point, successor = min(crossings, key=lambda m: m[0][0])
        if point[0] >= corner[0]:
            break
        top.append(point)
        line = successor
    if extent[1] == 0:
        top.append(_meet(line, extent))
    points = [(0.0, 0.0), corner] + top[::-1]
    kept: list[int] = []
    for i in sorted(range(len(points)), key=points.__getitem__):
        x, y = points[i]
        # against every kept point: in a region narrower than the tolerance
        # a near-duplicate need not be the previous point in sorted order
        for j in kept:
            if abs(x - points[j][0]) <= _DEDUP_TOL and abs(y - points[j][1]) <= _DEDUP_TOL:
                break
        else:
            kept.append(i)
    return [RatePair(*points[i]) for i in sorted(kept)]
