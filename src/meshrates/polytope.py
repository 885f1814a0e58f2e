"""Exact geometry on 2-D rate polytopes.

Every halfspace the region builders emit has coef_private in {0, 1} and, when
both coefficients are non-zero, coef_common >= coef_private. Moving along
(-1, +1) then never tightens a constraint faster than it raises
R_private + R_common, so the max-sum LP has the greedy closed form of a
polymatroid: take the largest private rate first, then the largest common
rate (``greedy_max_sum``). It runs on scalar bounds for ``max_sum_rate`` and
on broadcast arrays of bounds for the split searches in ``schemes``.
Pairwise constraint intersections are enumerated only for ``vertices``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

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


def _lines(regions: tuple[RateRegion, ...], qualify: bool):
    lines = []
    for region in regions:
        prefix = f"{region.short_name}:" if qualify else ""
        for h in region.halfspaces:
            lines.append((float(h.coef_private), float(h.coef_common),
                          h.bound, prefix + h.label))
    return lines


def _candidate_points(lines):
    """Feasible pairwise intersections of the constraint lines and axes.

    The axes only contribute intersection candidates; feasibility against
    them is the non-negativity check, not a <= constraint.
    """
    axes = [(1.0, 0.0, 0.0, "axis-private"), (0.0, 1.0, 0.0, "axis-common")]
    points = [(0.0, 0.0)]
    for (a1, b1, c1, _), (a2, b2, c2, _) in combinations(lines + axes, 2):
        det = a1 * b2 - a2 * b1
        if abs(det) < 1e-15:
            continue
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        if x < -FEAS_TOL or y < -FEAS_TOL:
            continue
        x = max(x, 0.0) + 0.0  # +0.0 normalizes -0.0
        y = max(y, 0.0) + 0.0
        if all(a * x + b * y <= c + FEAS_TOL for a, b, c, _ in lines):
            points.append((x, y))
    return points


def greedy_max_sum(lines):
    """Maximizer (r_private, r_common) of R_private + R_common subject to
    ``coef_private*R_p + coef_common*R_c <= bound`` and R_p, R_c >= 0.

    ``lines`` holds (coef_private, coef_common, bound) triples with scalar
    coefficients; the bounds may be scalars or arrays that broadcast against
    each other, and the result has their broadcast shape. Of all maximizers
    it returns the one with the largest private rate. The greedy answer is
    exact only when no constraint has 0 < coef_common < coef_private, which
    raises ValueError.
    """
    lines = list(lines)
    for a, b, _ in lines:
        if 0 < b < a:
            raise ValueError(
                f"greedy max-sum LP needs coef_common >= coef_private, got ({a:g}, {b:g})")
    x = reduce(np.minimum, (c / a for a, b, c in lines if a > 0))
    y = reduce(np.minimum, ((c - a * x) / b for a, b, c in lines if b > 0))
    return x, np.maximum(y, 0.0)


def max_sum_rate(*regions: RateRegion) -> LPSolution:
    """Exact maximizer of R_private + R_common over the regions' intersection.

    Ties are broken toward the largest private rate and flagged as
    degenerate: the optimal face is the segment from the returned point along
    (-1, +1), and it is degenerate when longer than 1e-9. Binding labels are
    qualified with the region's builder name when more than one region is
    intersected.
    """
    if not regions:
        raise ValueError("max_sum_rate needs at least one region")
    lines = _lines(tuple(regions), qualify=len(regions) > 1)
    x, y = greedy_max_sum((a, b, c) for a, b, c, _ in lines)
    x = float(x) + 0.0  # +0.0 normalizes -0.0
    y = float(y) + 0.0
    face = min([x] + [(c - a * x - b * y) / (b - a) for a, b, c, _ in lines if b > a])
    binding = tuple(
        label for a, b, c, label in lines
        if abs(a * x + b * y - c) <= _BINDING_TOL
    )
    return LPSolution(value=x + y, point=RatePair(x, y), binding=binding,
                      degenerate=face > 1e-9)


def vertices(region: RateRegion) -> list[RatePair]:
    """All extreme points of the feasible set, counterclockwise.

    Points closer than 1e-10 are merged; collinear boundary points are not
    reported. Starts at the lexicographically smallest vertex (the origin,
    unless the region is a single point elsewhere, which cannot happen here).
    """
    points = _candidate_points(_lines((region,), qualify=False))
    points.sort()
    unique: list[tuple[float, float]] = []
    for p in points:
        # against every kept point: in a region narrower than the tolerance
        # a near-duplicate need not be the previous point in sorted order
        if all(max(abs(p[0] - q[0]), abs(p[1] - q[1])) > _DEDUP_TOL for q in unique):
            unique.append(p)
    hull = _convex_hull(unique)
    return [RatePair(x, y) for x, y in hull]


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew's monotone chain; input sorted, output counterclockwise with
    collinear interior points dropped."""
    if len(points) <= 2:
        return list(points)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in points:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 1e-20:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(points):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 1e-20:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if not hull:
        hull = [points[0]]
    return hull
