"""Extended-real arithmetic, the compactification chart, intervals and grids.

Extended reals are plain floats where -inf/+inf are legal values and NaN is
not.  The chart is a fixed monotone homeomorphism [-inf, inf] -> [-1, 1] used
to place uniform partition grids on the extended plane: segment_nodes builds
every partition, straddled around jump lines, and partition adds its tags.
On the whole line without jumps the nodes and the tags are read-only tables,
each built once per resolution on first use, so a caller that reads only
nodes never pays for the tags.
"""

from __future__ import annotations

import functools
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
    with forward(+-inf) = +-1 and inverse(+-1) = +-inf exactly.  inverse
    clips u to [-1, 1] first, so |u| > 1 maps to +-inf too.  NaN maps to
    NaN both ways.  A scalar argument gives a float.
    """

    name = "t/(1+|t|)"

    def forward(self, t):
        if isinstance(t, (float, int)):
            t = float(t)
            return math.copysign(1.0, t) if math.isinf(t) else t / (1.0 + abs(t))
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore"):
            out = np.where(np.isinf(t), np.sign(t), t / (1.0 + np.abs(t)))
        return out if out.ndim else float(out)

    def inverse(self, u):
        u = np.asarray(u, dtype=float)
        c = np.minimum(np.maximum(u, -1.0), 1.0)  # clip to [-1, 1]; np.clip's wrapper costs more on short rows
        with np.errstate(divide="ignore"):
            out = c / (1.0 - np.abs(c))
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


def segment_nodes(a, b, resolution, jumps=()):
    """Chart-uniform partition of [a, b] with straddles around interior jumps.

    Each interior jump j adds j and its floating-point neighbours, so a jump
    falls within one ulp-wide cell and its variation is exact at any resolution.
    Without interior jumps the chart nodes are returned as they are when they
    strictly increase; only a range too narrow for the chart to resolve needs
    the sort and the range mask.  The whole line starts from its table.
    """
    if not a < b:
        raise ValueError("need a < b")
    whole = a == NEG_INF and b == POS_INF
    nodes = _line_nodes(resolution) if whole else _chart_nodes(a, b, resolution)
    increasing = whole or (nodes[1:] > nodes[:-1]).all()  # then every node lies in [a, b]
    j = np.asarray(jumps, dtype=float)
    j = j[(a < j) & (j < b)]  # NaN and +-inf are never strictly inside
    if j.size:
        straddles = np.repeat(j, 3)  # (j-, j, j+) per jump; the order decides which of +-0.0 np.unique keeps
        straddles[0::3] = np.nextafter(j, NEG_INF)
        straddles[2::3] = np.nextafter(j, POS_INF)
        nodes = np.concatenate([nodes, straddles])
    elif increasing:
        return nodes
    nodes = np.unique(nodes)
    return nodes if increasing else nodes[(nodes >= a) & (nodes <= b)]


def _chart_nodes(a, b, resolution):
    """resolution+1 chart-equispaced nodes from a to b, endpoints exact."""
    nodes = DEFAULT_CHART.inverse(np.linspace(DEFAULT_CHART.forward(a), DEFAULT_CHART.forward(b), resolution + 1))
    nodes[0] = a
    nodes[-1] = b
    return nodes


@functools.lru_cache(maxsize=16)
def _line_nodes(resolution):
    """The nodes of the unjumped partition of [-inf, inf]; its chart nodes strictly increase."""
    nodes = _chart_nodes(NEG_INF, POS_INF, resolution)
    nodes.flags.writeable = False
    return nodes


@functools.lru_cache(maxsize=16)
def _line_tags(resolution):
    """The cell tags of _line_nodes(resolution), built on the first partition that asks for them."""
    tags = cell_tags(_line_nodes(resolution))
    tags.flags.writeable = False
    return tags


def partition(a, b, resolution, jumps=()):
    """(segment_nodes(...), their cell_tags): the tables on the whole line without interior jumps."""
    nodes = segment_nodes(a, b, resolution, jumps)
    if a == NEG_INF and b == POS_INF and nodes is _line_nodes(resolution):
        return nodes, _line_tags(resolution)
    return nodes, cell_tags(nodes)


def same_bits(u, v):
    """True when two tuples of floats agree bit for bit: 0.0 and -0.0 give different nodes."""
    return np.asarray(u, dtype=float).tobytes() == np.asarray(v, dtype=float).tobytes()


def cell_tags(nodes):
    """Chart-midpoint tags; the first and last cells are tagged at the boundary."""
    u = DEFAULT_CHART.forward(nodes)
    tags = DEFAULT_CHART.inverse((u[:-1] + u[1:]) / 2.0)
    tags[0] = nodes[0]
    tags[-1] = nodes[-1]
    return tags


def axis_nodes(resolution: int) -> np.ndarray:
    """resolution+1 nodes on [-inf, inf], chart-equispaced, endpoints exact."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    return _line_nodes(resolution)


def uniform_grid(resolution: int) -> Grid2:
    nodes = axis_nodes(resolution)
    return Grid2(xs=nodes, ys=nodes.copy(), resolution=resolution)
