"""Exact geometry on 2-D rate polytopes.

Every halfspace the region builders emit has coef_private in {0, 1} and, when
both coefficients are non-zero, coef_common >= coef_private. Moving along
(-1, +1) then never tightens a constraint faster than it raises
R_private + R_common, so the max-sum LP has the greedy closed form of a
polymatroid: take the largest private rate first, then the largest common
rate (``greedy_max_sum``). It runs on the scalar bounds of ``max_sum_rate``;
the split searches in ``schemes`` apply the same closed form to grids of
splits, from each hop's private and common caps.
Non-negative coefficients also make every region down-closed, so
``vertices`` walks the upper envelope of its lines from R_p = 0 instead of
enumerating pairwise intersections (``oracle.enumerated_vertices`` still
does, as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def greedy_max_sum(lines):
    """Maximizer (r_private, r_common) of R_private + R_common subject to
    ``coef_private*R_p + coef_common*R_c <= bound`` and R_p, R_c >= 0.

    ``lines`` holds scalar (coef_private, coef_common, bound) triples. Of all
    maximizers it returns the one with the largest private rate. The greedy
    answer is exact only when no constraint has 0 < coef_common <
    coef_private, which raises ValueError.

    Lines that share a coefficient pair are first collapsed to their min
    bound, and a line with coef_private = 0 bounds the common rate by
    c/coef_common without reading x. Division and subtraction round
    monotonically, so both shortcuts leave the result bit for bit as the min
    over the uncollapsed lines.
    """
    bounds = {}
    for a, b, c in lines:
        if 0 < b < a:
            raise ValueError(
                f"greedy max-sum LP needs coef_common >= coef_private, got ({a:g}, {b:g})")
        bounds[a, b] = min(bounds[a, b], c) if (a, b) in bounds else c
    x = min(c / a for (a, b), c in bounds.items() if a > 0)
    y = min((c - a * x) / b if a else c / b for (a, b), c in bounds.items() if b > 0)
    return x, max(y, 0.0)


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
