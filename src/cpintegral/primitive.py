"""Primitives, integrable distributions, BV multipliers, and the catalog.

A distribution is stored only through its primitive F: a continuous function
on the extended plane vanishing on the x = -inf and y = -inf edges.  BV
multipliers carry jump-line metadata so quadratures can straddle their
discontinuities.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.special import sici

from .extplane import (
    DEFAULT_CHART,
    NEG_INF,
    POS_INF,
    Grid2,
    Interval2,
    axis_nodes,
    ext,
    make_interval,
    uniform_grid,
)

PI = math.pi


def _as_arrays(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.broadcast_arrays(x, y)


class Primitive:
    kind = "abstract"

    def __init__(self, label=""):
        self.label = label

    def eval(self, x, y):
        raise NotImplementedError

    def __call__(self, x, y):
        out = self.eval(x, y)
        return out if np.ndim(out) else float(out)


def _require_finite(values, label):
    if np.any(~np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(values)))
        raise ArithmeticError(f"primitive '{label}' evaluated non-finite at index {bad[0]}")
    return values


class ClosedFormPrimitive(Primitive):
    kind = "closedForm"

    def __init__(self, fn, label=""):
        super().__init__(label)
        self._fn = fn

    def eval(self, x, y):
        x, y = _as_arrays(x, y)
        return _require_finite(self._fn(x, y), self.label)


class SeparablePrimitive(ClosedFormPrimitive):
    """F(x, y) = a(x) b(y) for one-dimensional factors a and b.

    eval is the closed form of the product; consumers that can use the
    factors on their own (product integrals against ProductBV multipliers,
    L1 convolution) call eval_factors instead.
    """

    kind = "separable"

    def __init__(self, factors, label=""):
        a, b = factors
        super().__init__(lambda x, y: np.asarray(a(x), dtype=float) * np.asarray(b(y), dtype=float), label)
        self.factors = (a, b)

    def eval_factors(self, x, y):
        """(a(x), b(y)) as float arrays; non-finite values raise as in eval."""
        a, b = self.factors
        ax = _require_finite(np.asarray(a(np.asarray(x, dtype=float)), dtype=float), self.label)
        by = _require_finite(np.asarray(b(np.asarray(y, dtype=float)), dtype=float), self.label)
        return ax, by


class CorrectedPrimitive(ClosedFormPrimitive):
    """F(x, y) = G(x, y) + G(-inf, -inf) - G(x, -inf) - G(-inf, y).

    F has the mixed derivative of the continuous G and vanishes on the -inf
    edges.  G is kept so that sums of F over many points can evaluate the
    edge terms once per coordinate instead of once per point.
    """

    kind = "corrected"

    def __init__(self, G, label=""):
        def fn(x, y):
            neg = np.full_like(x, NEG_INF)
            return G(x, y) + G(neg, neg) - G(x, neg) - G(neg, y)

        super().__init__(fn, label)
        self.G = G


class GridSamplePrimitive(Primitive):
    """Node samples with bilinear interpolation in chart coordinates."""

    kind = "gridSample"

    def __init__(self, grid: Grid2, values, label="", chart=DEFAULT_CHART):
        super().__init__(label)
        values = np.asarray(values, dtype=float)
        if values.shape != (len(grid.ys), len(grid.xs)):
            raise ValueError("values shape must be (len(ys), len(xs))")
        self.grid = grid
        self.values = values
        self.chart = chart

    def eval(self, x, y):
        x, y = _as_arrays(x, y)
        if np.isnan(x).any() or np.isnan(y).any():
            raise ArithmeticError(f"primitive '{self.label}' evaluated at a NaN coordinate")
        r = self.grid.resolution
        u = (np.asarray(self.chart.forward(x)) + 1.0) * (r / 2.0)
        v = (np.asarray(self.chart.forward(y)) + 1.0) * (r / 2.0)
        i = np.clip(np.floor(u).astype(int), 0, r - 1)
        j = np.clip(np.floor(v).astype(int), 0, r - 1)
        fu = u - i
        fv = v - j
        V = self.values
        out = (
            V[j, i] * (1 - fu) * (1 - fv)
            + V[j, i + 1] * fu * (1 - fv)
            + V[j + 1, i] * (1 - fu) * fv
            + V[j + 1, i + 1] * fu * fv
        )
        return out


class Distribution:
    """An integrable distribution, represented solely by its primitive."""

    def __init__(self, primitive: Primitive):
        self.primitive = primitive

    @property
    def label(self):
        return self.primitive.label

    def F(self, x, y):
        return self.primitive(x, y)


class BVFunction:
    """A multiplier of finite Hardy-Krause variation.

    jump_x / jump_y list finite coordinates of known vertical / horizontal
    discontinuity (or kink) lines; refinement partitions straddle them.
    """

    kind = "abstract"

    def __init__(self, label="", jump_x=(), jump_y=()):
        self.label = label
        self.jump_x = tuple(float(j) for j in jump_x)
        self.jump_y = tuple(float(j) for j in jump_y)

    def eval(self, x, y):
        raise NotImplementedError

    def __call__(self, x, y):
        out = self.eval(x, y)
        return out if np.ndim(out) else float(out)

    def _reject_nan(self, x, y):
        if np.isnan(x).any() or np.isnan(y).any():
            raise ArithmeticError(f"multiplier '{self.label}' evaluated at a NaN coordinate")


class ClosedFormBV(BVFunction):
    kind = "closedForm"

    def __init__(self, fn, label="", jump_x=(), jump_y=()):
        super().__init__(label, jump_x, jump_y)
        self._fn = fn

    def eval(self, x, y):
        x, y = _as_arrays(x, y)
        self._reject_nan(x, y)
        return self._fn(x, y)


class ProductBV(BVFunction):
    """g(x, y) = u(x) v(y) for one-dimensional BV factors.

    eval is the product of the factors; consumers that can use the factors
    on their own (product integrals against separable primitives, the
    variation components) call eval_factors instead.
    """

    kind = "productOfOneDimBV"

    def __init__(self, u, v, label="product", u_jumps=(), v_jumps=()):
        super().__init__(label, u_jumps, v_jumps)
        self.u = u
        self.v = v

    def eval(self, x, y):
        x, y = _as_arrays(x, y)
        self._reject_nan(x, y)
        return np.asarray(self.u(x), dtype=float) * np.asarray(self.v(y), dtype=float)

    def eval_factors(self, x, y):
        """(u(x), v(y)) as float arrays; a NaN coordinate raises as in eval."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self._reject_nan(x, y)
        return np.asarray(self.u(x), dtype=float), np.asarray(self.v(y), dtype=float)


def _below(t0):
    """The 0/1 factor of t < t0."""
    return lambda t: (np.asarray(t) < t0).astype(float)


def _within(lo, hi):
    """The 0/1 factor of lo <= t <= hi."""
    return lambda t: ((np.asarray(t) >= lo) & (np.asarray(t) <= hi)).astype(float)


def _constant(c):
    return lambda t: np.full(np.shape(t), c)


class QuadrantIndicatorBV(ProductBV):
    """Indicator of [-inf, x0) x [-inf, y0); includes the -inf endpoints."""

    kind = "indicatorQuadrant"

    def __init__(self, x0, y0):
        self.x0 = ext(x0)
        self.y0 = ext(y0)
        super().__init__(_below(self.x0), _below(self.y0), f"quadrantIndicator({x0},{y0})",
                         (self.x0,), (self.y0,))


class HalfPlaneIndicatorBV(ProductBV):
    """Indicator of x >= 0."""

    kind = "indicatorHalfPlane"

    def __init__(self):
        super().__init__(_within(0.0, POS_INF), _constant(1.0), "halfPlaneIndicator", (0.0,), ())


class IntervalIndicatorBV(ProductBV):
    kind = "indicatorInterval"

    def __init__(self, interval: Interval2):
        super().__init__(
            _within(interval.a, interval.b),
            _within(interval.c, interval.d),
            f"intervalIndicator([{interval.a},{interval.b}]x[{interval.c},{interval.d}])",
            (interval.a, interval.b),
            (interval.c, interval.d),
        )
        self.interval = interval


class DiagonalIndicatorBV(BVFunction):
    """Indicator of the half-plane y > x: not of bounded Hardy-Krause variation."""

    kind = "indicatorDiagonal"

    def __init__(self):
        super().__init__("diagonalIndicator")

    def eval(self, x, y):
        x, y = _as_arrays(x, y)
        self._reject_nan(x, y)
        return (y > x).astype(float)


class ConstantBV(ProductBV):
    kind = "constant"

    def __init__(self, c):
        self.c = float(c)
        super().__init__(_constant(self.c), _constant(1.0), f"constant({c})")


class GridConstantBV(BVFunction):
    """Piecewise-constant on grid cells (xs[i], xs[i+1]] x (ys[j], ys[j+1]]."""

    kind = "gridConstant"

    def __init__(self, grid: Grid2, cell_values, label="gridConstant"):
        cell_values = np.asarray(cell_values, dtype=float)
        r = grid.resolution
        if cell_values.shape != (r, r):
            raise ValueError("cell_values must be (resolution, resolution)")
        super().__init__(
            label,
            tuple(grid.xs[1:-1]),
            tuple(grid.ys[1:-1]),
        )
        self.grid = grid
        self.cell_values = cell_values

    def eval(self, x, y):
        x, y = _as_arrays(x, y)
        self._reject_nan(x, y)
        i = np.clip(np.searchsorted(self.grid.xs, x, side="left") - 1, 0, self.grid.resolution - 1)
        j = np.clip(np.searchsorted(self.grid.ys, y, side="left") - 1, 0, self.grid.resolution - 1)
        out = self.cell_values[j, i]
        # the (p0, p1] half-open convention leaves the -inf edges outside all cells
        out = np.where(np.isneginf(x) | np.isneginf(y), 0.0, out)
        return out


def approx_identity_ramp(n):
    """One-dimensional ramp u_n: 0 below -n, linear up to 1 at 1-n, then 1."""

    def u(t):
        t = np.asarray(t, dtype=float)
        return np.clip(np.where(np.isneginf(t), -1.0, np.where(np.isposinf(t), 2.0, t + n)), 0.0, 1.0)

    return u


def approx_identity(n) -> BVFunction:
    u = approx_identity_ramp(n)
    return ProductBV(u, u, f"approxIdentity({n})", (-n, 1 - n), (-n, 1 - n))


def translate_reflect_bv(g: BVFunction, x0: float, y0: float) -> BVFunction:
    """(s, t) -> g(x0 - s, y0 - t), with jump lines mapped accordingly.

    A ProductBV stays a ProductBV of the reflected factors u(x0 - s) and
    v(y0 - t); any other g becomes a ClosedFormBV.  The point must be finite:
    about an infinite point x0 - s is inf - inf at s = x0.
    """
    x0, y0 = ext(x0), ext(y0)
    if math.isinf(x0) or math.isinf(y0):
        raise ValueError("cannot reflect about an infinite point")
    jx = tuple(x0 - j for j in g.jump_x if math.isfinite(x0 - j))
    jy = tuple(y0 - j for j in g.jump_y if math.isfinite(y0 - j))
    label = f"{g.label} reflected about ({x0},{y0})"
    if isinstance(g, ProductBV):
        u, v = g.u, g.v
        return ProductBV(lambda s: u(x0 - np.asarray(s, dtype=float)),
                         lambda t: v(y0 - np.asarray(t, dtype=float)), label, jx, jy)

    def fn(s, t):
        return np.asarray(g.eval(x0 - s, y0 - t), dtype=float)

    return ClosedFormBV(fn, label, jx, jy)


# ---------------------------------------------------------------------------
# catalog: primitives


def corrected_primitive(G_fn, label) -> CorrectedPrimitive:
    """Shift a continuous G so the result vanishes on the -inf edges.

    F(x, y) = G(x, y) + G(-inf, -inf) - G(x, -inf) - G(-inf, y); F has the
    same mixed derivative as G.
    """
    return CorrectedPrimitive(G_fn, label)


def _arctan_ramp(t):
    t = np.asarray(t, dtype=float)
    return (PI / 2 + np.arctan(t)) / PI


def _si_full(t):
    """Antiderivative of sin(s)/s from -inf: Si(t) + pi/2, exact 0 at -inf."""
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    si = sici(np.where(np.isfinite(a), a, np.inf))[0]
    return np.sign(t) * si + PI / 2


def _si_quadrant(t):
    t = np.asarray(t, dtype=float)
    pos = t > 0
    si = sici(np.where(pos & np.isfinite(t), np.where(pos, t, 1.0), np.inf))[0]
    return np.where(pos, si, 0.0)


def _weierstrass(a, b, depth):
    ks = np.arange(depth)
    coeff = a ** ks
    freq = (b ** ks) * PI

    def w(u):
        # sequential accumulation keeps the result bitwise identical for
        # equal inputs regardless of array shape or position
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape)
        for c, f in zip(coeff, freq):
            out += c * np.cos(f * u)
        return out

    return w


def _weier_1d(a, b, depth, chart=DEFAULT_CHART):
    w = _weierstrass(a, b, depth)

    def fn(t):
        u = np.atleast_1d(np.asarray(chart.forward(np.asarray(t, dtype=float))))
        shape = u.shape
        # evaluate the base point through the same vectorized path so the
        # subtraction is exactly zero at u = -1
        flat = np.concatenate([u.ravel(), [-1.0]])
        vals = w(flat)
        out = (vals[:-1] - vals[-1]).reshape(shape)
        return out if np.ndim(t) else float(out[0])

    return fn


def _cantor_1d(depth=20):
    def fn(t):
        t = np.asarray(t, dtype=float)
        x = np.clip(np.where(np.isneginf(t), 0.0, np.where(np.isposinf(t), 1.0, t)), 0.0, 1.0)
        val = np.zeros_like(x)
        active = np.ones(x.shape, dtype=bool)
        scale = 1.0
        for _ in range(depth):
            scale *= 0.5
            mid = active & (x > 1.0 / 3.0) & (x < 2.0 / 3.0)
            val = np.where(mid, val + scale, val)
            active = active & ~mid
            right = active & (x >= 2.0 / 3.0)
            val = np.where(right, val + scale, val)
            x = np.where(active & (x <= 1.0 / 3.0), 3.0 * x, np.where(right, 3.0 * x - 2.0, x))
        val = np.where(x >= 1.0, np.where(active, val + scale * (x >= 1.0), val), val)
        t_clipped = np.clip(np.where(np.isfinite(t), t, np.sign(t)), -1.0, 2.0)
        return np.where(t_clipped <= 0.0, 0.0, np.where(t_clipped >= 1.0, 1.0, val))

    return fn


def _oscill_1d(t):
    t = np.asarray(t, dtype=float)
    safe = np.where((t != 0.0) & np.isfinite(t), t, 1.0)
    val = safe**2 * np.sin(safe**-4.0)
    return np.where((t == 0.0) | ~np.isfinite(t), 0.0, val)


def _gauss_1d(center):
    def fn(t):
        return np.exp(-((np.asarray(t, dtype=float) - center) ** 2))

    return fn


def _theta_preset(name):
    if callable(name):
        return name
    if name == "ramp":
        return _arctan_ramp
    if name == "hill":
        return lambda t: _arctan_ramp(t) * (1.0 - _arctan_ramp(t))
    raise ValueError(f"unknown edge function preset: {name!r}")


def boundary_build(theta2="ramp", theta3="ramp") -> ClosedFormPrimitive:
    """Primitive with prescribed top edge theta2(x) and right edge theta3(y).

    Requires theta2(-inf) = theta3(-inf) = 0 and theta2(inf) = theta3(inf).
    When the shared corner value is nonzero the product construction
    theta2(x) theta3(y) / theta2(inf) applies; otherwise the arctan-ramp
    blend is used.
    """
    t2 = _theta_preset(theta2)
    t3 = _theta_preset(theta3)
    corner2 = float(np.asarray(t2(POS_INF)))
    corner3 = float(np.asarray(t3(POS_INF)))
    if abs(corner2 - corner3) > 1e-12:
        raise ValueError("edge functions must agree at the (inf, inf) corner")
    if abs(float(np.asarray(t2(NEG_INF)))) > 1e-12 or abs(float(np.asarray(t3(NEG_INF)))) > 1e-12:
        raise ValueError("edge functions must vanish at -inf")

    if corner2 != 0.0:

        def fn(x, y):
            return np.asarray(t2(x)) * np.asarray(t3(y)) / corner2

    else:

        def fn(x, y):
            return np.asarray(t2(x)) * _arctan_ramp(y) + np.asarray(t3(y)) * _arctan_ramp(x)

    return ClosedFormPrimitive(fn, "boundaryBuild")


def catalog_primitive(name, **params) -> Primitive:
    """Named primitives; see CATALOG_PRIMITIVES for the available entries."""
    if name == "prodArctan":
        return SeparablePrimitive((_arctan_ramp, _arctan_ramp), "prodArctan")
    if name == "sinc2d":
        return SeparablePrimitive((_si_full, _si_full), "sinc2d")
    if name == "sincQuadrant":
        return SeparablePrimitive((_si_quadrant, _si_quadrant), "sincQuadrant")
    if name == "weier2d":
        depth = int(params.get("depth", 16))
        return SeparablePrimitive((_weier_1d(0.5, 2.0, depth), _weier_1d(0.6, 1.8, depth)), "weier2d")
    if name == "cantor2d":
        c = _cantor_1d(int(params.get("depth", 20)))
        return SeparablePrimitive((c, c), "cantor2d")
    if name == "oscill":
        # t^2 sin(t^-4) vanishes at -inf, so the edge correction is zero
        return SeparablePrimitive((_oscill_1d, _oscill_1d), "oscill")
    if name == "expRadial":
        return corrected_primitive(lambda x, y: np.exp(-np.hypot(x, y)), "expRadial")
    if name == "gauss2":
        which = params.get("which", "F")
        if which == "F":
            return SeparablePrimitive((_gauss_1d(0.0), _gauss_1d(0.0)), "gauss2:F")
        if which == "G":
            return SeparablePrimitive((_gauss_1d(1.0), _gauss_1d(1.0)), "gauss2:G")
        raise ValueError("gauss2 takes which='F' or which='G'")
    if name == "boundaryBuild":
        return boundary_build(params.get("theta2", "ramp"), params.get("theta3", "ramp"))
    if name == "sineStrip":
        n = int(params.get("n", 1))
        if n < 1:
            raise ValueError("sineStrip needs n >= 1")

        def a(x):
            xc = np.clip(np.where(np.isneginf(x), 0.0, np.where(np.isposinf(x), 2 * PI, x)), 0.0, 2 * PI)
            return (1.0 - np.cos(n * xc)) / n

        def b(y):
            return np.clip(np.where(np.isneginf(y), 0.0, np.where(np.isposinf(y), 1.0, y)), 0.0, 1.0)

        return SeparablePrimitive((a, b), f"sineStrip({n})")
    if name == "zero":
        return ClosedFormPrimitive(lambda x, y: np.zeros(np.shape(x)), "zero")
    raise ValueError(f"unknown catalog primitive: {name!r}")


CATALOG_PRIMITIVES = (
    "prodArctan",
    "sinc2d",
    "sincQuadrant",
    "weier2d",
    "cantor2d",
    "oscill",
    "expRadial",
    "gauss2",
    "boundaryBuild",
    "sineStrip",
    "zero",
)


def distribution(name, **params) -> Distribution:
    return Distribution(catalog_primitive(name, **params))


def catalog_bv(name, **params) -> BVFunction:
    if name == "quadrantIndicator":
        return QuadrantIndicatorBV(params.get("x", 0.0), params.get("y", 0.0))
    if name == "halfPlaneIndicator":
        return HalfPlaneIndicatorBV()
    if name == "intervalIndicator":
        if "interval" in params:
            iv = params["interval"]
            if not isinstance(iv, Interval2):
                raise ValueError(f"intervalIndicator takes an Interval2, got {iv!r}")
        else:
            iv = make_interval(
                params.get("a", 0.0), params.get("b", 1.0), params.get("c", 0.0), params.get("d", 1.0)
            )
        return IntervalIndicatorBV(iv)
    if name == "approxIdentity":
        return approx_identity(int(params.get("n", 4)))
    if name == "constant":
        return ConstantBV(params.get("c", 1.0))
    if name == "diagonalIndicator":
        return DiagonalIndicatorBV()
    raise ValueError(f"unknown catalog BV function: {name!r}")


CATALOG_BV = (
    "quadrantIndicator",
    "halfPlaneIndicator",
    "intervalIndicator",
    "approxIdentity",
    "constant",
    "diagonalIndicator",
)


# ---------------------------------------------------------------------------
# validation and comparison


def validate_primitive(F: Primitive, resolution: int = 64) -> dict:
    """Check the defining invariants on a validation grid.

    Boundary rows/columns must vanish (exactly for grid samples, within
    1e-12 for closed forms); the adjacent-node oscillation must decrease
    monotonically over three grid doublings (continuity proxy).
    """
    if resolution < 4:
        raise ValueError("resolution must be >= 4")
    tol = 0.0 if isinstance(F, GridSamplePrimitive) else 1e-12

    nodes = axis_nodes(resolution)
    try:
        edge1 = np.abs(np.asarray(F.eval(np.full(nodes.shape, NEG_INF), nodes)))
        edge2 = np.abs(np.asarray(F.eval(nodes, np.full(nodes.shape, NEG_INF))))
        boundary_residual = float(max(edge1.max(), edge2.max()))
        finite = True
    except ArithmeticError:
        boundary_residual = float("inf")
        finite = False

    trace = []
    if finite:
        r = resolution
        for _ in range(4):
            xs = axis_nodes(r)
            X, Y = np.meshgrid(xs, xs)
            try:
                G = np.asarray(F.eval(X, Y))
            except ArithmeticError:
                finite = False
                break
            osc = max(
                float(np.max(np.abs(np.diff(G, axis=0)))),
                float(np.max(np.abs(np.diff(G, axis=1)))),
            )
            trace.append(osc)
            r *= 2

    boundary_ok = finite and boundary_residual <= tol
    continuity_ok = finite and len(trace) == 4 and all(
        trace[k + 1] <= trace[k] + 1e-15 for k in range(3)
    ) and (trace[3] < trace[0] or trace[0] == 0.0)
    return {
        "label": F.label,
        "finite": finite,
        "boundaryResidual": boundary_residual,
        "boundaryPassed": boundary_ok,
        "continuityTrace": trace,
        "continuityPassed": continuity_ok,
        "passed": boundary_ok and continuity_ok,
    }


def primitives_equal(F1: Primitive, F2: Primitive, resolutions=(16, 32, 64), tol=1e-12) -> bool:
    """Equality surrogate: agreement at every node of each listed resolution."""
    for r in resolutions:
        xs = axis_nodes(r)
        X, Y = np.meshgrid(xs, xs)
        if np.max(np.abs(np.asarray(F1.eval(X, Y)) - np.asarray(F2.eval(X, Y)))) > tol:
            return False
    return True


def sample_primitive(F: Primitive, resolution: int, label=None) -> GridSamplePrimitive:
    grid = uniform_grid(resolution)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    values = np.asarray(F.eval(X, Y), dtype=float)
    return GridSamplePrimitive(grid, values, label or F.label)


# ---------------------------------------------------------------------------
# grid sample import/export

CHART_NAME = DEFAULT_CHART.name


def export_grid_json(prim: GridSamplePrimitive, path):
    doc = {
        "label": prim.label,
        "resolution": prim.grid.resolution,
        "chart": CHART_NAME,
        "values": prim.values.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def import_grid_json(path) -> GridSamplePrimitive:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("chart") != CHART_NAME:
        raise ValueError(f"unsupported chart {doc.get('chart')!r}")
    grid = uniform_grid(int(doc["resolution"]))
    return GridSamplePrimitive(grid, np.asarray(doc["values"], dtype=float), doc.get("label", ""))


def export_grid_csv(prim: GridSamplePrimitive, path):
    ux = DEFAULT_CHART.forward(prim.grid.xs)
    uy = DEFAULT_CHART.forward(prim.grid.ys)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + [repr(float(u)) for u in np.atleast_1d(ux)])
        for j, u in enumerate(np.atleast_1d(uy)):
            writer.writerow([repr(float(u))] + [repr(float(v)) for v in prim.values[j]])


def import_grid_csv(path, label="") -> GridSamplePrimitive:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError("grid CSV needs a header row and at least one data row")
    ux = np.array([float(v) for v in rows[0][1:]])
    body = rows[1:]
    uy = np.array([float(r[0]) for r in body])
    values = np.array([[float(v) for v in r[1:]] for r in body])
    resolution = len(ux) - 1
    grid = uniform_grid(resolution)
    if not (np.allclose(DEFAULT_CHART.forward(grid.xs), ux) and np.allclose(DEFAULT_CHART.forward(grid.ys), uy)):
        raise ValueError("CSV nodes are not chart-uniform for the default chart")
    return GridSamplePrimitive(grid, values, label)
