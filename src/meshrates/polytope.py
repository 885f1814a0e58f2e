"""Exact geometry on 2-D rate polytopes.

Every halfspace the region builders emit has coef_private in {0, 1} and, when
both coefficients are non-zero, coef_common >= coef_private. Moving along
(-1, +1) then never tightens a constraint faster than it raises
R_private + R_common, so the max-sum LP has the greedy closed form of a
polymatroid: take the largest private rate first, then the largest common
rate. ``_greedy`` states it once: on float bounds, and on array bounds
broadcast over grids of two hops' power splits. ``max_sum_rate`` wraps it.
Every region is down-closed (``regions.Halfspace``), so ``vertices`` walks
the upper envelope of its lines from R_p = 0 instead of enumerating pairwise
intersections (``oracle.enumerated_vertices`` still does, as the reference).
A region has a handful of lines, so the walk is plain loops over its
``Halfspace`` tuples and the axes, lines of the same shape: key functions and
a list of crossings per step would cost more than the arithmetic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .model import RatePair
from .regions import RateRegion

FEAS_TOL = 1e-12
_BINDING_TOL = 1e-9
_DEDUP_TOL = 1e-10
_TINY = sys.float_info.min  # a zero bound's floor in the binding test


@dataclass(frozen=True)
class LPSolution:
    """Maximizer of R_private + R_common over an intersection of regions."""

    value: float
    point: RatePair
    binding: tuple[str, ...]
    degenerate: bool


def contains(region: RateRegion, point: RatePair, tol: float = FEAS_TOL) -> bool:
    """True iff every halfspace of ``region`` is satisfied within ``tol``."""
    x, y = point.r_private, point.r_common
    return all(c - (a * x + b * y) >= -tol for a, b, c, _ in region.halfspaces)


def max_sum_rate(*regions: RateRegion) -> LPSolution:
    """Exact maximizer of R_private + R_common over the regions' intersection.

    The greedy: x = min c/a over a > 0, then y = max(min (c - a*x)/b over
    b > 0, 0). On ``regions.Halfspace``'s coefficients it is exact unless a
    line has 0 < coef_common < coef_private, which raises ValueError. Of all
    maximizers this is the one of largest private rate. The optimal face
    runs from it along (-1, +1) and is flagged degenerate when longer than
    1e-9. Binding labels carry the region's builder name when more than one
    region is intersected.
    """
    if not regions:
        raise ValueError("max_sum_rate needs at least one region")
    lines = []
    for region in regions:
        prefix = f"{region.short_name}:" if len(regions) > 1 else ""
        for a, b, c, label in region.halfspaces:
            if 0 < b < a:
                raise ValueError(
                    f"greedy max-sum LP needs coef_common >= coef_private, got ({a:g}, {b:g})")
            lines.append((a, b, float(c), prefix + label))
    x, y, binding = _greedy(lines)
    face = min([x] + [(c - a * x - b * y) / (b - a) for a, b, c, _ in lines if b > a])
    return LPSolution(value=x + y, point=RatePair(x, y), binding=binding,
                      degenerate=face > 1e-9)


def _greedy(lines) -> tuple:
    """The point of ``max_sum_rate`` on (a, b, c, label) lines, none with
    0 < b < a (``max_sum_rate`` checks): x = min c/a, then
    y = max(min (c - a*x)/b, 0). The lines are ``Halfspace``s or tuples of
    their shape with float bounds, or the joint grid's tuples whose bounds
    are arrays that broadcast together. Floats give the point and the labels
    of the lines tight there: within 1e-9 of their bound, relative to it.
    Arrays give the point over the broadcast shape, and no labels."""
    grid = isinstance(lines[0][2], np.ndarray)
    least, clip = (partial(reduce, np.minimum), np.maximum) if grid else (min, max)
    # c/1 is c and c - 1*x is c - x, bit for bit: a = 1 skips both operations
    x = least([c if a == 1 else c / a for a, b, c, _ in lines if a > 0])
    y = clip(least([(c if a == 0 else c - x if a == 1 else c - a * x) / b
                    for a, b, c, _ in lines if b > 0]), 0.0)
    if grid:
        return x, y, ()
    x, y = x + 0.0, y + 0.0  # normalizes -0.0
    return x, y, tuple(label for a, b, c, label in lines
                       if abs(a * x + b * y - c) <= _BINDING_TOL * c + _TINY)


# The axes as (coef_private, coef_common, bound, label) lines.
_AXIS_PRIVATE = (1.0, 0.0, 0.0, "R_p = 0")
_AXIS_COMMON = (0.0, 1.0, 0.0, "R_c = 0")


def _meet(first, second) -> tuple[float, float]:
    """Crossing of two non-parallel lines, clipped at 0."""
    (a1, b1, c1, _), (a2, b2, c2, _) = first, second
    det = a1 * b2 - a2 * b1
    x = (c1 * b2 - c2 * b1) / det
    y = (a1 * c2 - a2 * c1) / det
    # max(x, 0.0) without the call; +0.0 normalizes -0.0
    return (0.0 if x < 0.0 else x) + 0.0, (0.0 if y < 0.0 else y) + 0.0


def vertices(region: RateRegion) -> list[RatePair]:
    """All extreme points of the feasible set, counterclockwise from the origin.

    The region is down-closed (``regions.Halfspace``): from the origin its
    boundary runs along R_c = 0 to the tightest R_p-intercept X, up the line
    that sets X if that line is vertical, back along the upper envelope of the
    lines with coef_common > 0, and down R_p = 0. The envelope is walked from
    R_p = 0: it starts on the line of least common intercept and steps to the
    nearest crossing by a steeper line, until the next crossing lies at or
    beyond X; ties go to the steepest line. Each vertex is the crossing of its
    own two lines, the axes among them.

    Points closer than 1e-10 are merged in lexicographic order, keeping the
    smallest, so a region narrower than that collapses to a segment or to
    the origin.
    """
    lines = region.halfspaces
    extent = None  # the first line of least R_p-intercept
    for line in lines:
        if line[0] > 0 and (extent is None or line[2] / line[0] < reach):
            extent, reach = line, line[2] / line[0]
    corner = _meet(extent, _AXIS_COMMON)
    # steepest first (a stable sort on -a/b), so that each strict < below
    # breaks every tie toward the steepest line
    sloped = [line for _, _, line in sorted([(-line[0] / line[1], i, line)
                                             for i, line in enumerate(lines) if line[1] > 0])]
    line = sloped[0]  # of least R_c-intercept
    for other in sloped:
        if other[2] / other[1] < line[2] / line[1]:
            line = other
    top = [_meet(line, _AXIS_PRIVATE)]  # the upper boundary, left to right
    while True:
        a, b, _, _ = line
        point = None  # the crossing of least R_p by a steeper line
        for other in sloped:
            if other[0] * b > a * other[1]:
                crossing = _meet(line, other)
                if point is None or crossing[0] < point[0]:
                    point, successor = crossing, other
        if point is None or point[0] >= corner[0]:
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
