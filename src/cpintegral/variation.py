"""Hardy-Krause variation estimation by chart-uniform grid refinement.

The norm of a multiplier g splits into four components measured on a grid:
sup |g|, the largest row variation, the largest column variation, and the
Vitali sum of absolute corner differences.  Grid estimates are lower bounds
that increase under refinement; refinement stops when doubling the
resolution no longer changes the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels_py as kernels
from .extplane import NEG_INF, POS_INF, same_bits, segment_nodes
from .integral import _refine
from .primitive import ProductBV

GUARD = 1e12
SLICE_VALUES = 1 << 16  # values of g reduced at a time: 512 KB of floats, folded through one reused buffer


@dataclass
class VariationEstimate:
    value: float
    error_estimate: float
    sup: float
    v1: float
    v2: float
    v12: float
    resolution: int
    converged: bool
    trace: list = field(default_factory=list)

    def as_dict(self):
        return {
            "value": self.value,
            "errorEstimate": self.error_estimate,
            "sup": self.sup,
            "v1": self.v1,
            "v2": self.v2,
            "v12": self.v12,
            "resolution": self.resolution,
            "converged": self.converged,
            "trace": self.trace,
        }


def _sup_and_variation(values):
    """(max |values|, sum of |increments|) of one factor's node values."""
    return float(np.max(np.abs(values))), float(np.sum(np.abs(np.diff(values))))


def grid_components(g, resolution):
    """(sup, v1, v2, v12) of g measured on the straddled grid at resolution.

    For a ProductBV g = u(x) v(y) the value matrix is the outer product of
    the factors, so its components are products of 1-d sups and variations.
    Any other g is evaluated and reduced in slices of whole rows, each of
    about SLICE_VALUES values, through one scratch buffer of two slices.
    """
    jx, jy = getattr(g, "jump_x", ()), getattr(g, "jump_y", ())
    xs = segment_nodes(NEG_INF, POS_INF, resolution, jx)
    ys = xs if same_bits(jx, jy) else segment_nodes(NEG_INF, POS_INF, resolution, jy)
    if isinstance(g, ProductBV):
        ux, vy = g.eval_factors(xs, ys)
        su, vu = _sup_and_variation(ux)
        sv, vv = _sup_and_variation(vy)
        return su * sv, vu * sv, su * vv, vu * vv
    rows = max(1, SLICE_VALUES // len(xs))
    prev, colvar, acc, work = np.empty((0, len(xs))), np.zeros(len(xs)), np.zeros(3), np.empty(2 * rows * len(xs))
    for start in range(0, len(ys), rows):
        G = g.on_grid(xs, ys[start : start + rows])
        kernels.hk_fold(G, prev, colvar, acc, work)
        prev = G[-1:]
    sup, v1, v12 = acc.tolist()
    return sup, v1, float(np.max(colvar)), v12


def _diverging(tol):
    """Stop predicate for variation refinements: past GUARD, or increments
    that are not shrinking."""

    def give_up(trace):
        values = [row["value"] for row in trace[-4:]]
        if values[-1] > GUARD:
            return True
        inc = [b - a for a, b in zip(values, values[1:])]
        return len(inc) == 3 and inc[2] >= inc[1] >= inc[0] and inc[2] > 100 * tol

    return give_up


def _estimate(g, component, tol, start_resolution, max_doublings) -> VariationEstimate:
    """Refine component(sup, v1, v2, v12) of g; the estimate reports all four."""
    components = {}

    def step(r):
        components[r] = grid_components(g, r)
        return component(components[r])

    res = _refine(step, tol, start_resolution, max_doublings, give_up=_diverging(tol))
    return VariationEstimate(res.value, res.error_estimate, *components[res.resolution], res.resolution,
                             res.converged, res.trace)


def hk_norm(g, tol=1e-9, start_resolution=64, max_doublings=10) -> VariationEstimate:
    """Estimate ||g||_bv = sup|g| + sup V1 + sup V2 + V12 by refinement."""
    return _estimate(g, lambda c: c[0] + c[1] + c[2] + c[3], tol, start_resolution, max_doublings)


def vitali_variation(g, tol=1e-9, start_resolution=64, max_doublings=10) -> VariationEstimate:
    """Estimate the Vitali variation (corner-difference sum) alone."""
    return _estimate(g, lambda c: c[3], tol, start_resolution, max_doublings)


def sectional_variation_sup(g, axis, tol=1e-9, start_resolution=64, max_doublings=10):
    """Largest variation over sections: axis 1 varies x, axis 2 varies y."""
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    return _estimate(g, lambda c: c[axis], tol, start_resolution, max_doublings)


def variation_trace(g, start_resolution=64, doublings=5):
    """Total-variation values at successive resolution doublings, no stopping."""
    out = []
    r = start_resolution
    for _ in range(doublings + 1):
        c = grid_components(g, r)
        out.append({"resolution": r, "value": c[0] + c[1] + c[2] + c[3], "v12": c[3]})
        r *= 2
    return out


def variation_1d(fn, jumps=(), tol=1e-9, start_resolution=64, max_doublings=10):
    """Total variation of a one-dimensional function on the extended line."""

    def step(r):
        vals = np.asarray(fn(segment_nodes(NEG_INF, POS_INF, r, jumps)), dtype=float)
        return float(np.sum(np.abs(np.diff(vals))))

    res = _refine(step, tol, start_resolution, max_doublings, give_up=_diverging(tol))
    return res.value, res.converged, res.trace
