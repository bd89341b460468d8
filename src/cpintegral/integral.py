"""Integrals and norms computed from primitives.

Every integral over an interval is the four-corner difference of the
primitive; it is exact, not a quadrature.  The norms are suprema of
continuous functionals.  A grid sample's are exact reductions of its node
values; a separable primitive's are products of the extremes of its two
factors, each estimated by 1-d refinement; any other primitive's are
estimated by chart-uniform grid refinement, each level's grid maxima
polished by a local zoom in chart coordinates.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .extplane import (
    NEG_INF,
    POS_INF,
    FULL_PLANE,
    Interval2,
    axis_nodes,
    chart_inverse,
    chart_nodes,
    ext,
    segment_nodes,
)
from .primitive import Distribution, GridSamplePrimitive, Primitive, SeparablePrimitive


def _primitive_of(f):
    if isinstance(f, Distribution):
        return f.primitive
    if isinstance(f, Primitive):
        return f
    raise TypeError("expected a Distribution or Primitive")


@dataclass
class QuadResult:
    value: float
    error_estimate: float
    resolution: int
    converged: bool
    trace: list = field(default_factory=list)

    @classmethod
    def exact(cls, value, **fields):
        """An exact value in the shape of one converged level of resolution 2; NaN raises ArithmeticError."""
        if math.isnan(value):
            raise ArithmeticError("an exact value evaluated to NaN")
        return cls(value, 0.0, 2, True, [{"resolution": 2, "value": value}], **fields)

    def as_dict(self):
        return {
            "value": self.value,
            "errorEstimate": self.error_estimate,
            "resolution": self.resolution,
            "converged": self.converged,
            "trace": self.trace,
        }


def corner_integral(f, interval: Interval2) -> float:
    """Integral of f over [a,b] x [c,d]: F(a,c) + F(b,d) - F(a,d) - F(b,c)."""
    F = _primitive_of(f)
    if interval.degenerate:
        return 0.0
    a, b, c, d = interval.a, interval.b, interval.c, interval.d
    val = F(a, c) + F(b, d) - F(a, d) - F(b, c)
    return interval.sign * val


def total_integral(f) -> float:
    """Integral over the whole extended plane, F(inf, inf)."""
    return corner_integral(f, FULL_PLANE)


def cumulative(f, x, y):
    """Integral from (-inf, -inf) up to (x, y); equals F(x, y)."""
    F = _primitive_of(f)
    return F(x, y)


def _refine(step, tol, start_resolution, max_doublings, give_up=None):
    """The refinement driver: step(resolution) computes one level's value.

    The resolution starts at start_resolution and doubles after each level.
    The increment between levels is max |value - prev|, so scalar levels and
    array levels share one measure.  The run stops at the first increment
    within tol, when give_up(trace) is true, or when the doublings run out.
    A level whose value contains NaN raises ArithmeticError.  Returns a
    QuadResult with the last level's value, the last increment as
    errorEstimate (inf after a single level), converged exactly when that
    errorEstimate is within tol, and one {"resolution", "value"} trace row
    per level.  A negative max_doublings, which would leave no level at all,
    raises ValueError.
    """
    if max_doublings < 0:
        raise ValueError(f"max_doublings must be >= 0, got {max_doublings}")
    trace = []
    err = float("inf")
    r = start_resolution
    for _ in range(max_doublings + 1):
        value = step(r)
        if np.any(np.isnan(value)):
            raise ArithmeticError(f"refinement level at resolution {r} evaluated to NaN")
        trace.append({"resolution": r, "value": value})
        if len(trace) > 1:
            err = float(np.max(np.abs(value - trace[-2]["value"])))
        if err <= tol or give_up is not None and give_up(trace):
            break
        r *= 2
    return QuadResult(value, err, trace[-1]["resolution"], err <= tol, trace)


_SWEEP_BLOCK = 32  # rows per block of the column extremes that bound the sweep


def _interval_sweep(G):
    """Largest |corner difference| of the grid values G[j, i] over node intervals.

    For x-indices i < k the interval integral is D(d) - D(c) with
    D = G[:, k] - G[:, i], so its supremum over y-limits is max D - min D.

    Only the column pairs that can beat the running best are swept.
    Rounded subtraction is monotone, so with column maxima M_b and
    minima m_b over each block b of _SWEEP_BLOCK rows the computed
    max D - min D of the pair (i, k) never exceeds
    fl(max_b fl(M_b[k] - m_b[i]) - min_b fl(m_b[k] - M_b[i])).  Rounding is
    symmetric, so with hi[i, k] = max_b fl(M_b[k] - m_b[i]) the second term
    is -hi[k, i], and the bound is bound[i, k] = fl(hi[i, k] + hi[k, i]).
    Rows are visited from the largest bound down, and a pair is swept unless
    its bound is <= the best so far; the value is the full sweep's, bit for
    bit.  A NaN bound is always swept, and an infinite best counts as the
    largest finite float, so only pairs with finite bounds, which cannot
    sweep to NaN, are skipped: a NaN in G, or differences that overflow to
    inf - inf, still give NaN.
    """
    starts = np.arange(0, G.shape[0], _SWEEP_BLOCK)
    M, m = np.maximum.reduceat(G, starts), np.minimum.reduceat(G, starts)
    hi = M[0] - m[0][:, None]
    for Mb, mb in zip(M[1:], m[1:]):
        np.maximum(hi, Mb - mb[:, None], out=hi)
    bound = np.triu(hi + hi.T, 1)
    rows = np.max(bound, axis=1)
    best = 0.0
    for i in np.argsort(rows)[::-1]:  # a NaN row comes first
        cut = min(best, sys.float_info.max)
        if rows[i] <= cut:
            break
        k = np.flatnonzero(~(bound[i] <= cut))
        D = G[:, k] - G[:, i : i + 1]
        best = np.maximum(best, np.max(np.max(D, axis=0) - np.min(D, axis=0)))
    return float(best)


def _best_intervals(G, top):
    """_interval_sweep(G), swept over every column pair, and the corners of the best intervals:
    row m of nodes is (i, k, argmin D, argmax D) for one of the `top` best pairs (i, k)."""
    n = G.shape[1]
    osc = np.zeros((n, n))
    for i in range(n - 1):
        D = G[:, i + 1 :] - G[:, i : i + 1]
        osc[i, i + 1 :] = np.max(D, axis=0) - np.min(D, axis=0)
    best = float(np.max(osc))
    i, k = np.unravel_index(np.argpartition(osc, -top, axis=None)[-top:], osc.shape)
    D = G[:, k] - G[:, i]
    return best, np.column_stack([i, k, np.argmin(D, axis=0), np.argmax(D, axis=0)])


_POLISH_STARTS = 3  # grid maxima each level's search starts from
_POLISH_STOP = 1e-10  # a centre stops once its step in chart units is below this
_POLISH_ROUNDS = 200  # and the search ends after this many rounds at the latest


def _polish(fun, centres, h):
    """Largest value of fun found by a pattern search from each of the centres, and its point.

    fun maps an (n, dim) array of chart points in [-1, 1]^dim to n values.
    Each round evaluates, in one call, the stencil centre + step {-1, 0, 1}^dim
    around every centre, and two copies of it turned by the next two powers
    of a fixed rotation (see _twist), each centre's step starting at h.  A
    centre whose best stencil point beats it moves there and doubles its
    step, up to h; any other centre halves its step.  The turned copies give
    every round new directions, so the search also climbs a crease, such as
    the ridge of the min of two primitives, along which no axis or diagonal
    direction climbs.  The search ends when every step is below 1e-10, or
    after 200 rounds.  Points are clipped to [-1, 1], so the infinite edges
    stay reachable.  The stencil holds each centre, so the result is at
    least fun at the first centres; a NaN value makes it NaN.
    """
    centres = np.array(centres, dtype=float)
    k, dim = centres.shape
    still = 3**dim // 2  # the zero offset
    rows = np.arange(k)
    steps = np.full(k, float(h))
    best, point = -np.inf, centres[0]
    for offsets in _stencils(dim):
        if np.all(steps < _POLISH_STOP):
            break
        points = np.clip(centres[:, None, :] + steps[:, None, None] * offsets, -1.0, 1.0)
        values = np.asarray(fun(points.reshape(-1, dim)), dtype=float).reshape(k, len(offsets))
        top = np.argmax(values)  # a NaN comes first
        if not values.flat[top] <= best:
            point = points.reshape(-1, dim)[top]
        best = np.maximum(best, values.flat[top])
        pick = np.argmax(values, axis=1)
        moved = values[rows, pick] > values[:, still]
        centres = points[rows, np.where(moved, pick, still)]
        steps = np.where(moved, np.minimum(2 * steps, h), steps / 2)
    return float(best), point


@functools.lru_cache(maxsize=4)
def _stencils(dim):
    """The offsets of every _polish round in dim dimensions, one read-only array.

    Round n's offsets are the stencil {-1, 0, 1}^dim, then its nonzero moves
    turned by the powers 2n + 1 and 2n + 2 of the twist.  Built at first use.
    """
    axes = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=dim)))
    moves = np.delete(axes, len(axes) // 2, axis=0)
    twist = turn = _twist(dim)
    rounds = []
    for _ in range(_POLISH_ROUNDS):
        rounds.append(np.concatenate([axes, moves @ turn.T, moves @ (turn @ twist).T]))
        turn = turn @ twist @ twist
    stencils = np.array(rounds)
    stencils.flags.writeable = False
    return stencils


def _twist(dim):
    """A fixed rotation of R^dim: the golden fraction of an eighth of a turn in each plane of neighbouring axes.

    The stencil {-1, 0, 1}^dim repeats under an eighth of a turn, so its
    copies turned by successive powers of the twist point in ever new
    directions.
    """
    angle = math.pi / 4 * (math.sqrt(5.0) - 1.0) / 2
    twist = np.eye(dim)
    for i in range(dim - 1):
        plane = np.eye(dim)
        plane[i : i + 2, i : i + 2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        twist = twist @ plane
    return twist


def _polished(fun, candidates):
    """Level values at resolution r, from the grid values G of a norm's primitive on axis_nodes(r).

    candidates(G, u) gives the grid's best value and the chart points of its
    best few candidates, with u = chart_nodes(r).  A level's value is the
    larger of the grid's best value and the search of fun from those points
    and from the previous level's best point.  The grids are nested and the
    search keeps its centres, so the levels never go down.
    """
    carried = []

    def level(G, r):
        best, centres = candidates(G, chart_nodes(r))
        value, point = _polish(fun, np.concatenate([centres, *carried]), 2.0 / r)
        carried[:] = [point[None]]
        return float(np.maximum(best, value))

    return level


def _sup_levels(F):
    """Polished levels of sup |F|, searched in the chart plane (u, v) from the largest nodes of |G|."""

    def abs_F(p):
        x = chart_inverse(p)
        return np.abs(np.asarray(F.eval(x[:, 0], x[:, 1])))

    def candidates(G, u):
        A = np.abs(G)
        j, i = np.unravel_index(np.argpartition(A, -_POLISH_STARTS, axis=None)[-_POLISH_STARTS:], A.shape)
        return float(np.max(A)), np.column_stack([u[i], u[j]])

    return _polished(abs_F, candidates)


def _prime_levels(F):
    """Polished levels of the sup over intervals of |corner difference|.

    The search runs in the 4-d chart space of (x1, x2, y1, y2), from the best
    few column pairs of the interval sweep.
    """

    def abs_corner(p):
        x = chart_inverse(p)
        x1, x2, y1, y2 = x.T
        F22, F12, F21, F11 = np.asarray(F.eval(
            np.concatenate([x2, x1, x2, x1]), np.concatenate([y2, y2, y1, y1]))).reshape(4, -1)
        return np.abs(F22 - F12 - F21 + F11)

    def candidates(G, u):
        best, nodes = _best_intervals(G, _POLISH_STARTS)
        return best, u[nodes]

    return _polished(abs_corner, candidates)


_ZOOM_SAMPLES = 33  # equispaced samples across each bracket of the 1-d zoom
_ZOOM_SHRINK = 16  # and the bracket's shrink factor per round


def _zoom(fun, centres, h):
    """Largest value of each of m 1-d objectives found by a bracket zoom, and its point.

    fun maps an (m, n) array of chart points in [-1, 1], row i for objective
    i, to the (m, n) objective values.  centres is (m, k): k start points per
    objective.  Each round samples, in one call of fun, _ZOOM_SAMPLES
    equispaced points across centre +- w around every centre, moves each
    centre to its best sample and shrinks w by _ZOOM_SHRINK; w starts at h and
    the zoom ends once w is below _POLISH_STOP.  The samples hold each centre,
    so no centre's value goes down; points are clipped to [-1, 1], so the
    infinite ends stay reachable.  Returns the (m,) best values and points.
    """
    centres = np.array(centres, dtype=float)
    m, k = centres.shape
    offsets = np.linspace(-1.0, 1.0, _ZOOM_SAMPLES)
    rows = np.arange(m)
    best, point = np.full(m, -np.inf), centres[:, 0]
    w = float(h)
    while w >= _POLISH_STOP:
        points = np.clip(centres[:, :, None] + w * offsets, -1.0, 1.0).reshape(m, -1)
        values = np.asarray(fun(points), dtype=float)
        top = np.argmax(values, axis=1)  # a NaN comes first
        point = np.where(values[rows, top] > best, points[rows, top], point)
        best = np.maximum(best, values[rows, top])
        pick = np.argmax(values.reshape(m, k, -1), axis=2)
        centres = np.take_along_axis(points.reshape(m, k, -1), pick[:, :, None], axis=2)[:, :, 0]
        w /= _ZOOM_SHRINK
    return best, point


def _factor_extremes(F):
    """Level function r -> E of a separable F = a(x) b(y), by 1-d zooms of its factors.

    E[f] = (max, -min) of factor f, a then b.  Each level evaluates the
    factors once on axis_nodes(r) and zooms each of the four objectives from
    its _POLISH_STARTS best nodes and its best point of the previous level,
    all in one eval_factors call per round (see _zoom).  The nodes are nested
    and the zoom keeps its centres, so the levels never go down.
    """
    carried = []
    signs = np.array([[1.0], [-1.0], [1.0], [-1.0]])

    def fun(p):
        x = chart_inverse(p)
        ax, by = F.eval_factors(x[:2].ravel(), x[2:].ravel())
        return signs * np.concatenate([ax, by]).reshape(4, -1)

    def level(r):
        xs = axis_nodes(r)
        ax, by = F.eval_factors(xs, xs)
        nodes = signs * np.stack([ax, ax, by, by])
        top = np.argpartition(nodes, -_POLISH_STARTS, axis=1)[:, -_POLISH_STARTS:]
        value, point = _zoom(fun, np.concatenate([chart_nodes(r)[top], *carried], axis=1), 2.0 / r)
        carried[:] = [point[:, None]]
        return np.maximum(np.max(nodes, axis=1), value).reshape(2, 2)

    return level


def _norm(F, tol, start_resolution, max_doublings, exact, factored, gridded):
    """One norm of the primitive F, by the method its type allows.

    A grid sample is bilinear in chart coordinates on each cell, so its
    norm is exact(V) of its node values V: resolution the sample's,
    converged, errorEstimate 0 and one trace row.  A separable F's levels
    are factored(E) of its factor extremes (see _factor_extremes); any other
    F's levels are gridded(F)(G, r) of its values G on axis_nodes(r).  Both
    refine through _refine, which stops at the first increment within tol.
    """
    if isinstance(F, GridSamplePrimitive):
        value, r = float(exact(F.values)), F.grid.resolution
        return QuadResult(value, 0.0, r, True, [{"resolution": r, "value": value}])
    if isinstance(F, SeparablePrimitive):
        extremes = _factor_extremes(F)

        def value_at(r):
            return float(factored(extremes(r)))
    else:
        level = gridded(F)

        def value_at(r):
            xs = axis_nodes(r)
            return level(F.on_grid(xs, xs), r)

    return _refine(value_at, tol, start_resolution, max_doublings)


def _node_sup(V):
    return np.max(np.abs(V))


def _factor_sup(E):
    """sup |a| sup |b|."""
    return np.prod(np.max(E, axis=1))


def _factor_osc(E):
    """osc(a) osc(b), the largest |corner difference| (a(x2) - a(x1)) (b(y2) - b(y1))."""
    return np.prod(np.sum(E, axis=1))


def _probe_bound(sup, prime):
    """The larger of the quadrant probes' sup / 4 and the interval probes' prime / 9."""
    return np.maximum(sup / 4.0, prime / 9.0)


def alexiewicz_norm(f, tol=1e-6, start_resolution=32, max_doublings=8) -> QuadResult:
    """||f|| = sup over the extended plane of |F(x, y)|.

    max |V| for a grid sample, sup |a| sup |b| for a separable F; any other
    F's levels are polished grid maxima of |F| (see _sup_levels).
    """
    return _norm(_primitive_of(f), tol, start_resolution, max_doublings, _node_sup, _factor_sup, _sup_levels)


def norm_prime(f, tol=1e-6, start_resolution=16, max_doublings=5) -> QuadResult:
    """||f||' = sup over intervals I of |integral of f over I|.

    For fixed x-limits a < b the interval integral is D(d) - D(c) with
    D(y) = F(b, y) - F(a, y), so the supremum over y-limits is
    max D - min D; sweeping x-index pairs covers all node intervals.  That
    sweep is exact for a grid sample, whose extrema sit on nodes.  For a
    separable F every corner difference is (a(x2) - a(x1)) (b(y2) - b(y1)),
    so the norm is osc(a) osc(b).  Any other F's levels polish the best few
    node intervals (see _prime_levels).
    """
    return _norm(_primitive_of(f), tol, start_resolution, max_doublings, _interval_sweep, _factor_osc, _prime_levels)


def norm_dual(f, probes=None, tol=1e-6, start_resolution=16, max_doublings=5) -> QuadResult:
    """Lower bound for sup over the multiplier unit ball of |integral of f g|.

    With explicit probes, each is scaled to variation norm <= 1 and paired
    with f by parts integration; the errorEstimate is the largest scaled
    errorEstimate of the pairings, and the result converged when every
    pairing did.  The default probe family is scaled
    quadrant indicators (variation norm 4), whose pairing with f is
    F(x, y) / 4, plus scaled finite-interval indicators (variation norm 9),
    whose pairing is the corner difference / 9; both reduce to the two
    norms above, computed the same way on each level.
    """
    F = _primitive_of(f)

    if probes is not None:
        from .stieltjes import integrate_product
        from .variation import hk_norm

        best = err = 0.0
        resolution, converged = 0, True
        for g in probes:
            est = hk_norm(g, tol=tol)
            if not est.converged:
                raise ValueError(f"probe {g.label!r} has divergent variation")
            scale = max(est.value, 1.0)
            res = integrate_product(f, g, tol=tol * scale)
            best = max(best, abs(res.value) / scale)
            err = max(err, res.error_estimate / scale)
            resolution = max(resolution, res.resolution)
            converged = converged and res.converged
        return QuadResult(best, err, resolution, converged, [])

    def gridded(F):
        sup, prime = _sup_levels(F), _prime_levels(F)
        return lambda G, r: float(_probe_bound(sup(G, r), prime(G, r)))

    return _norm(F, tol, start_resolution, max_doublings,
                 lambda V: _probe_bound(_node_sup(V), _interval_sweep(V)),
                 lambda E: _probe_bound(_factor_sup(E), _factor_osc(E)), gridded)


def iterated_consistency(f, interval: Interval2, resolution=128):
    """Iterated-sum consistency report over an interval.

    Both iterated orders telescope to corner differences of the primitive:
    the x-outer sum over a partition a = x_0 < ... < x_m = b of
    [F(x_i, d) - F(x_i, c)] differences collapses to the corner formula, and
    symmetrically for y-outer.  Reports the three values and the largest
    pairwise discrepancy.
    """
    F = _primitive_of(f)
    direct = corner_integral(f, interval)
    a, b, c, d = interval.a, interval.b, interval.c, interval.d

    xs = segment_nodes(a, b, resolution) if a != b else np.array([a, b])
    inner_x = np.asarray(F.eval(xs, d)) - np.asarray(F.eval(xs, c))
    x_outer = interval.sign * float(np.sum(np.diff(inner_x)))

    ys = segment_nodes(c, d, resolution) if c != d else np.array([c, d])
    inner_y = np.asarray(F.eval(b, ys)) - np.asarray(F.eval(a, ys))
    y_outer = interval.sign * float(np.sum(np.diff(inner_y)))

    vals = (direct, x_outer, y_outer)
    disc = max(abs(p - q) for p in vals for q in vals)
    return {"corner": direct, "xOuter": x_outer, "yOuter": y_outer, "maxDiscrepancy": disc}


def ftc_residual(f, resolution=64):
    """Largest |cumulative integral - F| over the node lattice, in ulps of F."""
    F = _primitive_of(f)
    xs = axis_nodes(resolution)
    G = F.on_grid(xs, xs)
    # xs[0] is -inf: the first column is F(-inf, y), the first row F(x, -inf)
    cum = G[0, 0] + G - G[:, :1] - G[:1]
    diff = np.abs(cum - G)
    scale = np.spacing(np.maximum(np.abs(G), 1.0))
    return float(np.max(diff / scale))


def _nested(section, inner, outer, tol):
    """quad over t in outer of the quad of section(t) over inner, each with epsabs tol / 2.

    section(t) is the 1-d inner integrand at the outer coordinate t, and
    inner and outer are (lower, upper) limits.  Returns quad's (value, error).
    """
    from scipy import integrate

    a, b = inner  # plain arguments: a *inner call per outer node costs 2-3% of a run

    def level(t):
        val, _ = integrate.quad(section(t), a, b, epsabs=tol / 2, limit=200)
        return val

    return integrate.quad(level, *outer, epsabs=tol / 2, limit=200)


def improper_iterated(integrand, order="xy", xlim=(NEG_INF, POS_INF), ylim=(NEG_INF, POS_INF), tol=1e-9):
    """Iterated improper integral of a pointwise integrand.

    order 'xy' integrates in x first (inner), then y; 'yx' the reverse.
    Returns (value, error estimate).
    """
    xs, ys = (ext(xlim[0]), ext(xlim[1])), (ext(ylim[0]), ext(ylim[1]))
    if order == "xy":
        return _nested(lambda y: lambda x: integrand(x, y), xs, ys, tol)
    if order == "yx":
        return _nested(lambda x: lambda y: integrand(x, y), ys, xs, tol)
    raise ValueError("order must be 'xy' or 'yx'")


def _arctanxy_integrand(x, y):
    # mixed derivative of arctan(x y)
    t = (x * y) ** 2
    return (1.0 - t) / (t + 1.0) ** 2


def _xpowy_iterated(order, tol):
    """Iterated integral of x^(y-1) (1 + y log x) on (0, 1) x (0, inf).

    The inner integral is computed after the substitution that removes the
    x = 0 and x = 1 endpoint blowup: with s = -y log x the y-integral
    becomes exp(-s) (1 - s) / (-x log x) ds, and with t = -log x the
    x-integral becomes exp(-t y) (1 - y t) dt on (0, inf).  The s-integral
    does not depend on x, so it is computed once.
    """
    from scipy import integrate

    if order == "dyFirst":
        val, _ = integrate.quad(lambda s: math.exp(-s) * (1.0 - s), 0.0, np.inf, epsabs=tol / 2, limit=200)
        return integrate.quad(lambda x: val / (x * -math.log(x)), 0.0, 1.0, epsabs=tol / 2, limit=200)
    return _nested(lambda y: lambda t: math.exp(-t * y) * (1.0 - y * t), (0.0, np.inf), (0.0, np.inf), tol)


def improper_example(name, order, tol=1e-8) -> QuadResult:
    """Iterated improper integrals of the two order-sensitive examples.

    'xPowY' lives on (0, 1) x (0, inf) and integrates to 0 in either order;
    'arctanXY' integrates x over the whole line and y over (0, 1), giving pi
    when y is inner and 0 when x is inner.  order is 'dyFirst' or 'dxFirst'.
    """
    from scipy import integrate

    if order not in ("dyFirst", "dxFirst"):
        raise ValueError("order must be 'dyFirst' or 'dxFirst'")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if name == "xPowY":
            value, err = _xpowy_iterated(order, tol)
        elif name == "arctanXY":
            value, err = improper_iterated(_arctanxy_integrand, "yx" if order == "dyFirst" else "xy",
                                           ylim=(0.0, 1.0), tol=tol)
        else:
            raise ValueError(f"unknown example {name!r}")
    return QuadResult(value, float(err), 0, err <= tol, [])


def xpowy_corner_probes():
    """Corner-limit probes of x^y showing order dependence of the limits.

    The four-corner combination a^c + b^d - a^d - b^c tends to 0 when the
    lower y-limit c is sent to 0 first, but to -1 when the lower x-limit a
    is sent to 0 first.  Evaluated at cascaded near-limit values.
    """

    def combo(a, b, c, d):
        return a**c + b**d - a**d - b**c

    inner_c = combo(1e-6, 1.0 - 1e-3, 1e-12, 1e5)
    inner_a = combo(1e-300, 1.0 - 1e-3, 1e-2, 1e5)
    return {"cInnermost": float(inner_c), "aInnermost": float(inner_a)}


@dataclass(frozen=True)
class IntervalND:
    """Product interval in n dimensions, lower[k] <= upper[k] componentwise."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have the same length")
        for lo, hi in zip(self.lower, self.upper):
            if ext(lo) > ext(hi):
                raise ValueError("lower must not exceed upper")

    @property
    def ndim(self):
        return len(self.lower)


def corner_integral_nd(F, interval: IntervalND) -> float:
    """n-dimensional corner alternating sum of the primitive F.

    Each of the 2^n corners picks lower or upper per coordinate; the sign is
    + when the number of lower choices is even, - when odd.
    """
    n = interval.ndim
    total = 0.0
    for choice in itertools.product((0, 1), repeat=n):
        point = tuple(
            interval.lower[k] if choice[k] == 0 else interval.upper[k] for k in range(n)
        )
        sign = -1.0 if sum(1 for c in choice if c == 0) % 2 else 1.0
        total += sign * float(F(*point))
    return total
