"""Riemann-Stieltjes quadratures against functions of bounded variation.

Sums are over the chart-uniform tagged partitions of extplane.partition,
refined by doubling; nodes straddle each declared jump line of the integrator
with floating-point neighbour points, so jump contributions are picked up
within an ulp of the integrand value at the jump.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import _kernels_py as kernels
from .extplane import NEG_INF, FULL_PLANE, Interval2, partition, same_bits, segment_nodes, uniform_grid
from .integral import QuadResult, _primitive_of, _refine
from .primitive import BVFunction, ClosedFormBV, GridSamplePrimitive, PlaneFunction, ProductBV, SeparablePrimitive

OVERSAMPLE = 4  # fine cells per coarse cell along each axis in parts_primitive


def rs_line_integral(phi, g_section, a, b, jumps=(), tol=1e-9, start_resolution=32, max_doublings=10):
    """integral over [a, b] of phi d(g_section), both one-dimensional callables."""
    if a == b:
        return QuadResult(0.0, 0.0, 0, True, [])
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0

    def step(r):
        nodes, tags = partition(a, b, r, jumps)
        return kernels.line_weighted_sum(
            np.asarray(phi(tags), dtype=float),
            np.asarray(g_section(nodes), dtype=float),
        )

    res = _refine(step, tol, start_resolution, max_doublings)
    return replace(res, value=sign * res.value)


def rs_line_section(F, g: BVFunction, axis, fixed, lo, hi, tol=1e-9, **kwargs):
    """Line Stieltjes integral of F against a section of g.

    axis 1: integral over x in [lo, hi] of F(x, fixed) d1 g(x, fixed);
    axis 2: the symmetric version along y.  F and g are plane functions, or
    vectorized callables of (X, Y) taken as ClosedFormBV.
    """
    F, g = (h if isinstance(h, PlaneFunction) else ClosedFormBV(h) for h in (F, g))
    if axis == 1:
        phi = lambda x: F.eval(x, fixed)
        sec = lambda x: g.eval(x, fixed)
        jumps = g.jump_x
    elif axis == 2:
        phi = lambda y: F.eval(fixed, y)
        sec = lambda y: g.eval(fixed, y)
        jumps = g.jump_y
    else:
        raise ValueError("axis must be 1 or 2")
    return rs_line_integral(phi, sec, lo, hi, jumps=jumps, tol=tol, **kwargs)


def rs_plane_integral(phi, integrator, interval: Interval2 = FULL_PLANE, jumps_x=None, jumps_y=None,
                      tol=1e-9, start_resolution=32, max_doublings=7):
    """Double Stieltjes integral of phi against the corner differences of
    the integrator over the interval.

    phi and integrator are plane functions, or vectorized callables of
    (X, Y) taken as ClosedFormBV; jump lines default to the integrator's
    metadata when it carries any.
    """
    if interval.degenerate:
        return QuadResult(0.0, 0.0, 0, True, [])
    phi, integrator = (h if isinstance(h, PlaneFunction) else ClosedFormBV(h) for h in (phi, integrator))
    if jumps_x is None:
        jumps_x = integrator.jump_x
    if jumps_y is None:
        jumps_y = integrator.jump_y

    def step(r):
        xs, tx = partition(interval.a, interval.b, r, jumps_x)
        ys, ty = partition(interval.c, interval.d, r, jumps_y)
        return kernels.corner_weighted_sum(phi.on_grid(tx, ty), integrator.on_grid(xs, ys))

    res = _refine(step, tol, start_resolution, max_doublings)
    return replace(res, value=interval.sign * res.value)


def _parts_1d(phi_tags, u_nodes):
    """phi(b) u(b) - phi(a) u(a) - sum phi(tag) delta u over one axis.

    cell_tags puts the first and last tags on the endpoints a and b.
    """
    return (float(phi_tags[-1] * u_nodes[-1] - phi_tags[0] * u_nodes[0])
            - kernels.line_weighted_sum(phi_tags, u_nodes))


def _nine_term_sum(F, g, interval, resolution):
    x = (interval.a, interval.b, *g.jump_x)
    y = (interval.c, interval.d, *g.jump_y)
    xs, tx = partition(x[0], x[1], resolution, x[2:])
    ys, ty = (xs, tx) if same_bits(x, y) else partition(y[0], y[1], resolution, y[2:])

    if isinstance(F, SeparablePrimitive) and isinstance(g, ProductBV):
        # F = a(x) b(y) and g = u(x) v(y): Fubini splits the nine terms into
        # the product of two one-dimensional by-parts sums on the same nodes
        ax, by = F.eval_factors(tx, ty)
        ux, vy = g.eval_factors(xs, ys)
        return _parts_1d(ax, ux) * _parts_1d(by, vy)

    # the first and last tags sit on a, b and c, d, so the corner values and
    # the sections along the four edges are the outer rows and columns
    T = F.on_grid(tx, ty)
    G = g.on_grid(xs, ys)
    total = float(T[0, 0] * G[0, 0] + T[-1, -1] * G[-1, -1] - T[-1, 0] * G[-1, 0] - T[0, -1] * G[0, -1])
    line = kernels.line_weighted_sum
    total += -line(T[-1], G[-1]) + line(T[0], G[0]) - line(T[:, -1], G[:, -1]) + line(T[:, 0], G[:, 0])
    total += kernels.corner_weighted_sum(T, G)
    return total


def integrate_product(f, g: BVFunction, interval: Interval2 = FULL_PLANE,
                      tol=1e-9, start_resolution=32, max_doublings=7) -> QuadResult:
    """integral of f g over the interval by parts against the primitive of f.

    The value is the four corner products of F g, minus/plus the four edge
    Stieltjes line integrals of F against sections of g, plus the double
    Stieltjes integral of F against the corner differences of g.
    """
    F = _primitive_of(f)
    if interval.degenerate:
        return QuadResult(0.0, 0.0, 0, True, [])
    res = _refine(lambda r: _nine_term_sum(F, g, interval, r), tol, start_resolution, max_doublings)
    return replace(res, value=interval.sign * res.value)


def parts_primitive(f, g: BVFunction, resolution=64) -> GridSamplePrimitive:
    """Primitive of the product f g, sampled on a chart-uniform grid.

    Phi(x, y) = F g - int_-inf^x F(., y) d1 g - int_-inf^y F(x, .) d2 g
              + int int F d12 g over [-inf, x] x [-inf, y],

    with the Stieltjes sums taken on a partition OVERSAMPLE times finer.
    """
    F = _primitive_of(f)
    grid = uniform_grid(resolution)
    fine_r = resolution * OVERSAMPLE
    xs, tx = partition(NEG_INF, np.inf, fine_r, g.jump_x)
    ys, ty = partition(NEG_INF, np.inf, fine_r, g.jump_y)
    ix = np.searchsorted(xs, grid.xs)  # coarse nodes sit exactly on fine nodes
    iy = np.searchsorted(ys, grid.ys)
    if not (np.all(xs[ix] == grid.xs) and np.all(ys[iy] == grid.ys)):
        raise RuntimeError("coarse grid nodes failed to nest in the fine partition")

    FG = F.on_grid(grid.xs, grid.ys) * g.on_grid(grid.xs, grid.ys)
    # running sums over the fine cells: along x on the coarse rows, along y
    # on the coarse columns, and over the cells below and left of each node
    line1 = np.cumsum(F.on_grid(tx, grid.ys) * np.diff(g.on_grid(xs, grid.ys), axis=1), axis=1)
    line2 = np.cumsum(F.on_grid(grid.xs, ty) * np.diff(g.on_grid(grid.xs, ys), axis=0), axis=0)
    plane = np.cumsum(np.cumsum(F.on_grid(tx, ty) * kernels.corner_differences(g.on_grid(xs, ys)), axis=0), axis=1)

    # the sums up to a coarse node end at the fine cell before it; Phi stays
    # 0 on the -inf edges
    cx, cy = ix[1:] - 1, iy[1:] - 1
    values = np.zeros((len(grid.ys), len(grid.xs)))
    values[1:, 1:] = FG[1:, 1:] - line1[1:, cx] - line2[cy, 1:] + plane[np.ix_(cy, cx)]
    return GridSamplePrimitive(grid, values, f"parts({F.label},{g.label})")


def _vanishes_on_edges(g, sign, resolution=64, tol=1e-12):
    """True if g is ~0 whenever x or y equals sign * inf, sampled at nodes."""
    edge = np.inf if sign > 0 else NEG_INF
    nodes = segment_nodes(NEG_INF, np.inf, resolution)
    v1 = np.max(np.abs(np.asarray(g.eval(edge, nodes))))
    v2 = np.max(np.abs(np.asarray(g.eval(nodes, edge))))
    return max(float(v1), float(v2)) <= tol


def gdf_identity_check(f, g: BVFunction, tol=1e-6):
    """Compare integral of f g with the Stieltjes forms over the full plane.

    When g vanishes on the +inf edges, the product integral equals both
    F d12 g and g d12 F; when g instead vanishes on the -inf edges, it
    equals g d12 F.  Raises when g vanishes on neither pair of edges.
    """
    F = _primitive_of(f)
    at_plus = _vanishes_on_edges(g, +1)
    at_minus = _vanishes_on_edges(g, -1)
    if not (at_plus or at_minus):
        raise ValueError("g must vanish on the +inf edges or on the -inf edges")

    fg = integrate_product(f, g, FULL_PLANE, tol=tol / 10)
    g_df = rs_plane_integral(
        g, F, FULL_PLANE,
        jumps_x=g.jump_x, jumps_y=g.jump_y,
        tol=tol / 10,
    )
    report = {
        "mode": "vanishesAtPlusInf" if at_plus else "vanishesAtMinusInf",
        "productIntegral": fg.value,
        "gAgainstDF": g_df.value,
        "converged": fg.converged and g_df.converged,
    }
    values = [fg.value, g_df.value]
    if at_plus:
        f_dg = rs_plane_integral(F, g, FULL_PLANE, tol=tol / 10)
        report["fAgainstDG"] = f_dg.value
        report["converged"] = report["converged"] and f_dg.converged
        values.append(f_dg.value)
    report["maxDiscrepancy"] = max(abs(p - q) for p in values for q in values)
    return report


def mean_value_point(f, g: BVFunction, tol=1e-6, resolution=256):
    """Point (xi, eta) with F(xi, eta) * Delta = double Stieltjes integral.

    Delta is the corner difference of g over the whole plane; g must have
    nonnegative cell corner differences (checked by sampling) so the ratio
    lies in the range of F.  Returns the first grid node in row-major chart
    order where |F - ratio| <= tol.
    """
    F = _primitive_of(f)
    xs = segment_nodes(NEG_INF, np.inf, 64, g.jump_x)
    ys = segment_nodes(NEG_INF, np.inf, 64, g.jump_y)
    if np.min(kernels.corner_differences(g.on_grid(xs, ys))) < -tol:
        raise ValueError("integrator has negative corner differences")

    integral = rs_plane_integral(F, g, FULL_PLANE, tol=min(tol, 1e-9))
    delta = (
        g(NEG_INF, NEG_INF) + g(np.inf, np.inf) - g(NEG_INF, np.inf) - g(np.inf, NEG_INF)
    )
    if abs(delta) <= 1e-15:
        raise ValueError("the integrator has zero total corner mass")
    target = integral.value / delta

    nodes = segment_nodes(NEG_INF, np.inf, resolution)
    Fv = F.on_grid(nodes, nodes)
    hits = np.argwhere(np.abs(Fv - target) <= tol)
    if len(hits) == 0:
        raise ValueError("no grid node matches the mean value at this resolution")
    j, i = hits[0]
    return {
        "xi": float(nodes[i]),
        "eta": float(nodes[j]),
        "ratio": target,
        "integral": integral.value,
        "delta": delta,
        "residual": float(abs(Fv[j, i] - target)),
    }
