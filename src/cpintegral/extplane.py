"""Extended-real arithmetic, the compactification chart, intervals and grids.

Extended reals are plain floats where -inf/+inf are legal values and NaN is
not.  The chart is a fixed monotone homeomorphism [-inf, inf] -> [-1, 1] used
to place uniform partition grids on the extended plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")
POS_INF = float("inf")


def ext(value) -> float:
    """Validate and return an extended-real scalar (float, possibly +/-inf)."""
    v = float(value)
    if math.isnan(v):
        raise ValueError("NaN is not an extended real")
    return v


class Chart:
    """Monotone bijection between [-inf, inf] and [-1, 1].

    forward(t) = t / (1 + |t|), inverse(u) = u / (1 - |u|); exactly odd,
    forward(+-inf) = +-1 exactly.
    """

    name = "t/(1+|t|)"

    def forward(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(np.isneginf(t), -1.0, np.where(np.isposinf(t), 1.0, 0.0))
        finite = np.isfinite(t)
        tf = np.where(finite, t, 0.0)
        out = np.where(finite, tf / (1.0 + np.abs(tf)), out)
        return out if out.ndim else float(out)

    def inverse(self, u):
        u = np.asarray(u, dtype=float)
        interior = np.abs(u) < 1.0
        uf = np.where(interior, u, 0.0)
        out = np.where(interior, uf / (1.0 - np.abs(uf)), np.where(u <= -1.0, NEG_INF, POS_INF))
        return out if out.ndim else float(out)


DEFAULT_CHART = Chart()


@dataclass(frozen=True)
class Interval2:
    """Normalized interval [a,b] x [c,d] with orientation sign and degeneracy flag."""

    a: float
    b: float
    c: float
    d: float
    sign: int = 1
    degenerate: bool = False

    def corners(self):
        return corner_points(self)


def make_interval(a, b, c, d) -> Interval2:
    """Normalize limits, record the orientation sign of the original order.

    Swapping a,b (or c,d) flips the sign per the usual reversed-limit
    convention; a = b or c = d marks the interval degenerate (integral 0).
    """
    a, b, c, d = ext(a), ext(b), ext(c), ext(d)
    sign = 1
    if a > b:
        a, b = b, a
        sign = -sign
    if c > d:
        c, d = d, c
        sign = -sign
    return Interval2(a, b, c, d, sign, degenerate=(a == b or c == d))


FULL_PLANE = make_interval(NEG_INF, POS_INF, NEG_INF, POS_INF)


def corner_points(interval: Interval2):
    """The four corners in the fixed order (a,c), (b,d), (a,d), (b,c)."""
    a, b, c, d = interval.a, interval.b, interval.c, interval.d
    return ((a, c), (b, d), (a, d), (b, c))


@dataclass(frozen=True)
class Grid2:
    """Chart-uniform grid on the extended plane; endpoints exactly +-inf."""

    xs: np.ndarray
    ys: np.ndarray
    resolution: int

    def __post_init__(self):
        for nodes in (self.xs, self.ys):
            if not (np.isneginf(nodes[0]) and np.isposinf(nodes[-1])):
                raise ValueError("grid must span [-inf, inf] on both axes")
            if np.any(np.diff(nodes) <= 0):
                raise ValueError("grid nodes must be strictly ascending")


def chart_nodes(resolution: int) -> np.ndarray:
    """The chart coordinates of axis_nodes(resolution): resolution+1 equispaced points on [-1, 1]."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    return np.linspace(-1.0, 1.0, resolution + 1)


def axis_nodes(resolution: int, chart: Chart = DEFAULT_CHART) -> np.ndarray:
    """resolution+1 nodes on [-inf, inf], chart-equispaced, endpoints exact."""
    nodes = np.asarray(chart.inverse(chart_nodes(resolution)), dtype=float)
    nodes[0] = NEG_INF
    nodes[-1] = POS_INF
    return nodes


def uniform_grid(resolution: int, chart: Chart = DEFAULT_CHART) -> Grid2:
    nodes = axis_nodes(resolution, chart)
    return Grid2(xs=nodes, ys=nodes.copy(), resolution=resolution)
