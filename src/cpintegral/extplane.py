"""Extended-real arithmetic, the compactification chart, intervals and grids.

Extended reals are plain floats where -inf/+inf are legal values and NaN is
not.  The chart is a fixed monotone homeomorphism [-inf, inf] -> [-1, 1] used
to place uniform partition grids on the extended plane: segment_nodes builds
every partition, straddled around jump lines, and partition adds its tags.
On the whole line without jumps the nodes are one read-only table, built
once per resolution on first use; every partition's tags are a fresh array.
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


CHART_NAME = "t/(1+|t|)"


def chart(t):
    """The chart, a monotone bijection from [-inf, inf] onto [-1, 1]: t / (1 + |t|).

    It and chart_inverse(u) = u / (1 - |u|) are exactly odd, with
    chart(+-inf) = +-1 and chart_inverse(+-1) = +-inf exactly.
    chart_inverse clips u to [-1, 1] first, so |u| > 1 maps to +-inf too.
    NaN maps to NaN both ways.  A scalar argument gives a float.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.where(np.isinf(t), np.sign(t), t / (1.0 + np.abs(t)))
    return out if out.ndim else float(out)


def chart_inverse(u):
    """The inverse of chart: u / (1 - |u|) on [-1, 1], +-inf beyond."""
    u = np.asarray(u, dtype=float)
    c = np.minimum(np.maximum(u, -1.0), 1.0)  # clip to [-1, 1]; np.clip's wrapper costs more on short rows
    with np.errstate(divide="ignore"):
        out = c / (1.0 - np.abs(c))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Interval2:
    """Normalized interval [a,b] x [c,d] with orientation sign."""

    a: float
    b: float
    c: float
    d: float
    sign: int = 1

    @property
    def degenerate(self) -> bool:
        """a = b or c = d: the interval has no area, and every integral over it is 0."""
        return self.a == self.b or self.c == self.d


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
    return Interval2(a, b, c, d, sign)


FULL_PLANE = make_interval(NEG_INF, POS_INF, NEG_INF, POS_INF)


@dataclass(frozen=True)
class Grid2:
    """The chart-uniform grid of one resolution: both axes are the shared axis_nodes(resolution)."""

    resolution: int

    def __post_init__(self):
        axis_nodes(self.resolution)  # rejects a resolution below 2

    @property
    def xs(self) -> np.ndarray:
        return axis_nodes(self.resolution)

    ys = xs


def chart_nodes(resolution: int) -> np.ndarray:
    """The chart coordinates of axis_nodes(resolution): resolution+1 equispaced points on [-1, 1]."""
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
    nodes = chart_inverse(np.linspace(chart(a), chart(b), resolution + 1))
    nodes[0] = a
    nodes[-1] = b
    return nodes


@functools.lru_cache(maxsize=16)
def _line_nodes(resolution):
    """The nodes of the unjumped partition of [-inf, inf]; its chart nodes strictly increase."""
    nodes = _chart_nodes(NEG_INF, POS_INF, resolution)
    nodes.flags.writeable = False
    return nodes


def partition(a, b, resolution, jumps=()):
    """(segment_nodes(...), their cell_tags); the tags are a fresh array."""
    nodes = segment_nodes(a, b, resolution, jumps)
    return nodes, cell_tags(nodes)


def same_bits(u, v):
    """True when two tuples of floats agree bit for bit: 0.0 and -0.0 give different nodes."""
    return np.asarray(u, dtype=float).tobytes() == np.asarray(v, dtype=float).tobytes()


def cell_tags(nodes):
    """Chart-midpoint tags; the first and last cells are tagged at the boundary."""
    u = chart(nodes)
    tags = chart_inverse((u[:-1] + u[1:]) / 2.0)
    tags[0] = nodes[0]
    tags[-1] = nodes[-1]
    return tags


def axis_nodes(resolution: int) -> np.ndarray:
    """resolution+1 nodes on [-inf, inf], chart-equispaced, endpoints exact."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    return _line_nodes(resolution)
