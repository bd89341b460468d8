"""Primitives, integrable distributions, BV multipliers, and the catalog.

A distribution is stored only through its primitive F: a continuous function
on the extended plane vanishing on the x = -inf and y = -inf edges.  BV
multipliers carry jump-line metadata so quadratures can straddle their
discontinuities; a step multiplier is a table of values (StepFunction2).
"""

from __future__ import annotations

import contextlib
import csv
import json
import math

import numpy as np

from .extplane import (
    CHART_NAME,
    NEG_INF,
    POS_INF,
    Grid2,
    Interval2,
    axis_nodes,
    chart,
    ext,
    make_interval,
)

PI = math.pi


def _nan_free(label, x, y):
    """x and y as float arrays; a NaN in either, which is no point of the
    extended plane, raises ArithmeticError naming the function's label."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.isnan(x).any() or np.isnan(y).any():
        raise ArithmeticError(f"plane function '{label}' evaluated at a NaN coordinate")
    return x, y


def _shaped(values, shape):
    """A closed form's values, broadcast to a fresh array of the given shape
    when the function returned a scalar or another shape."""
    if np.shape(values) == shape:
        return values
    return np.array(np.broadcast_to(values, shape), dtype=float)


class PlaneFunction:
    """A vectorized function on the extended plane.

    eval is the one evaluation gate: it rejects a NaN in the coordinates as
    given and shapes the values that a subclass's _values returns to the
    broadcast shape of the coordinates.  _values gets the coordinates as
    float arrays that broadcast against each other, not broadcast copies, so
    a term that depends on one coordinate is evaluated once per coordinate.
    on_grid is the one tensor-grid evaluation, overridden where the function
    is a product of one-dimensional factors.  jump_x / jump_y list the
    coordinates of known discontinuity lines: none for a continuous function
    such as a primitive.
    """

    jump_x = jump_y = ()

    def _values(self, x, y):
        raise NotImplementedError

    def eval(self, x, y):
        x, y = _nan_free(self.label, x, y)
        return _shaped(self._values(x, y), np.broadcast(x, y).shape)

    def __call__(self, x, y):
        out = self.eval(x, y)
        return out if np.ndim(out) else float(out)

    def on_grid(self, xs, ys):
        """Values G[j, i] = f(xs[i], ys[j]) on the tensor grid of two node rows.

        eval gets read-only views of the rows, xs of shape (n,) and ys of
        shape (k, 1), and passes them on to _values as they are: the NaN
        check reads n + k values, a term of one coordinate costs n or k
        evaluations, not k n, and a value array that aliases its input
        cannot be written through to the node rows.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)[:, None]
        return np.asarray(self.eval(np.broadcast_to(xs, xs.shape), np.broadcast_to(ys, ys.shape)), dtype=float)


class Primitive(PlaneFunction):
    def __init__(self, label=""):
        self.label = label

    # the gate plus the finite-value check; see BVFunction.eval for why
    # each base class defines eval in its own body
    def eval(self, x, y):
        return _require_finite(PlaneFunction.eval(self, x, y), self.label)


def _require_finite(values, label):
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(np.atleast_1d(values)))
        raise ArithmeticError(f"primitive '{label}' evaluated non-finite at index {bad[0]}")
    return values


class ClosedFormPrimitive(Primitive):
    def __init__(self, fn, label=""):
        super().__init__(label)
        self._fn = fn

    def _values(self, x, y):
        return self._fn(x, y)


class SeparablePrimitive(ClosedFormPrimitive):
    """F(x, y) = a(x) b(y) for one-dimensional factors a and b.

    eval is the closed form of the product; consumers that can use the
    factors on their own (product integrals against ProductBV multipliers,
    L1 convolution) call eval_factors instead.
    """

    def __init__(self, factors, label=""):
        a, b = factors
        super().__init__(lambda x, y: np.asarray(a(x), dtype=float) * np.asarray(b(y), dtype=float), label)
        self.factors = (a, b)

    def eval_factors(self, x, y):
        """(a(x), b(y)) as float arrays of the shapes of x and y; a NaN
        coordinate or a non-finite value raises as in eval."""
        a, b = self.factors
        x, y = _nan_free(self.label, x, y)
        ax = _require_finite(_shaped(np.asarray(a(x), dtype=float), x.shape), self.label)
        by = _require_finite(_shaped(np.asarray(b(y), dtype=float), y.shape), self.label)
        return ax, by

    def on_grid(self, xs, ys):
        """The outer product of the factors: 2 r evaluations instead of r^2."""
        ax, by = self.eval_factors(xs, ys)
        return _require_finite(by[:, None] * ax[None, :], self.label)


class CorrectedPrimitive(Primitive):
    """F(x, y) = G(x, y) + G(-inf, -inf) - G(x, -inf) - G(-inf, y).

    F has the mixed derivative of the continuous G and vanishes on the -inf
    edges.  The edge terms take the scalar -inf, so on a tensor grid they
    cost one evaluation per coordinate, not one per point; G is kept so that
    sums of F over many points (the L1 convolution) can do the same.
    even declares G even in each coordinate, G(-x, y) = G(x, y) = G(x, -y)
    bit for bit, at +-0 and +-inf too; the L1 convolution then sums one
    quadrant of a mirror-symmetric grid and mirrors it (see
    convolution._convolved_values).  Nothing checks the declaration.
    """

    def __init__(self, G, label="", even=False):
        super().__init__(label)
        self.G = G
        self.even = even

    def _values(self, x, y):
        G = self.G
        return G(x, y) + G(NEG_INF, NEG_INF) - G(x, NEG_INF) - G(NEG_INF, y)


class GridSamplePrimitive(Primitive):
    """Node samples with bilinear interpolation in chart coordinates."""

    def __init__(self, grid: Grid2, values, label=""):
        super().__init__(label)
        values = np.asarray(values, dtype=float)
        if values.shape != (len(grid.ys), len(grid.xs)):
            raise ValueError("values shape must be (len(ys), len(xs))")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        self.grid = grid
        self.values = values

    def _cells(self, t):
        """Cell index and chart fraction of each coordinate t along either axis.

        A coordinate equal to a node takes fraction 0 in the cell it starts
        (1 in the last cell for the last node), so eval returns the stored
        value there exactly rather than after a chart round trip.
        """
        r, nodes = self.grid.resolution, self.grid.xs
        u = (np.asarray(chart(t)) + 1.0) * (r / 2.0)
        i = np.clip(np.floor(u).astype(int), 0, r - 1)
        k = np.minimum(np.searchsorted(nodes, t), r)
        hit = nodes[k] == t
        i = np.where(hit, np.minimum(k, r - 1), i)
        return i, np.where(hit, k - i, u - i)

    def _values(self, x, y):
        i, fu = self._cells(x)
        j, fv = self._cells(y)
        V = self.values
        out = (
            V[j, i] * (1 - fu) * (1 - fv)
            + V[j, i + 1] * fu * (1 - fv)
            + V[j + 1, i] * (1 - fu) * fv
            + V[j + 1, i + 1] * fu * fv
        )
        return out


class Distribution:
    """The box around a primitive that distribution() and convolve_l1 return; all else passes primitives."""

    def __init__(self, primitive: Primitive):
        self.primitive = primitive

    @property
    def label(self):
        return self.primitive.label


class BVFunction(PlaneFunction):
    """A multiplier of finite Hardy-Krause variation.

    jump_x / jump_y list finite coordinates of known vertical / horizontal
    discontinuity (or kink) lines; refinement partitions straddle them.
    """

    def __init__(self, label="", jump_x=(), jump_y=()):
        self.label = label
        self.jump_x = tuple(float(j) for j in jump_x)
        self.jump_y = tuple(float(j) for j in jump_y)

    # bound in this class's own body so that the per-layer tracer
    # (perfbench/tracing.py), which wraps only such an eval, counts it
    eval = PlaneFunction.eval


class ClosedFormBV(BVFunction):
    def __init__(self, fn, label="", jump_x=(), jump_y=()):
        super().__init__(label, jump_x, jump_y)
        self._fn = fn

    def _values(self, x, y):
        return self._fn(x, y)


class ProductBV(BVFunction):
    """g(x, y) = u(x) v(y) for one-dimensional BV factors.

    eval is the product of the factors; consumers that can use the factors
    on their own (product integrals against separable primitives, the
    variation components) call eval_factors instead.
    """

    def __init__(self, u, v, label="product", u_jumps=(), v_jumps=()):
        super().__init__(label, u_jumps, v_jumps)
        self.u = u
        self.v = v

    def _values(self, x, y):
        return np.asarray(self.u(x), dtype=float) * np.asarray(self.v(y), dtype=float)

    def eval_factors(self, x, y):
        """(u(x), v(y)) as float arrays of the shapes of x and y; a NaN
        coordinate raises as in eval."""
        x, y = _nan_free(self.label, x, y)
        return (_shaped(np.asarray(self.u(x), dtype=float), x.shape),
                _shaped(np.asarray(self.v(y), dtype=float), y.shape))

    def on_grid(self, xs, ys):
        """The outer product of the factors: 2 r evaluations instead of r^2."""
        ux, vy = self.eval_factors(xs, ys)
        return vy[:, None] * ux[None, :]


def approx_identity(n) -> BVFunction:
    """u_n(x) u_n(y) for the ramp u_n: 0 below -n, linear up to 1 at 1-n, then 1."""

    def u(t):
        t = np.asarray(t, dtype=float)
        return np.clip(t + n, 0.0, 1.0)

    return ProductBV(u, u, f"approxIdentity({n})", (-n, 1 - n), (-n, 1 - n))


class StepFunction2(BVFunction):
    """A step multiplier: its values on the pieces between sorted breakpoints, -inf to inf.

    Along each axis the pieces alternate: piece 2 k is the line through
    nodes[k] and piece 2 k + 1 the cell after it.  table[q, p] is g on
    y-piece q and x-piece p, jump lines and +-inf included; values =
    table[1::2, 1::2].  Built from strictly increasing nodes and finite cell
    values, the cells are half-open, (p_{i-1}, p_i] x (q_{j-1}, q_j], a -inf
    line is 0 and the finite nodes are the jump lines.
    """

    def __init__(self, nodes_x, nodes_y, values, label="stepFunction"):
        nodes_x, nodes_y = np.asarray(nodes_x, dtype=float), np.asarray(nodes_y, dtype=float)
        values = np.asarray(values, dtype=float)
        for nodes in (nodes_x, nodes_y):
            if nodes.ndim != 1 or len(nodes) < 2 or nodes[0] != NEG_INF or nodes[-1] != POS_INF:
                raise ValueError("nodes must run from -inf to inf")
            if not np.all(np.diff(nodes) > 0):
                raise ValueError("nodes must be strictly increasing")
        if values.shape != (len(nodes_y) - 1, len(nodes_x) - 1):
            raise ValueError("values shape must be (cells_y, cells_x)")
        if not np.all(np.isfinite(values)):
            raise ValueError("step values must be finite")
        # pieces 2 k - 1 and 2 k take the cell k of the values padded with a zero row and column at -inf
        owner = lambda nodes: np.arange(1, 2 * len(nodes)) // 2
        table = np.pad(values, ((1, 0), (1, 0)))[np.ix_(owner(nodes_y), owner(nodes_x))]
        super().__init__(label, nodes_x[1:-1], nodes_y[1:-1])
        self.nodes_x, self.nodes_y, self.table, self.values = nodes_x, nodes_y, table, table[1::2, 1::2]

    @classmethod
    def from_table(cls, nodes_x, nodes_y, table, label, jump_x=(), jump_y=()):
        """The step multiplier of a table as it is (values not checked), with the jump lines given."""
        g = cls.__new__(cls)
        BVFunction.__init__(g, label, jump_x, jump_y)
        g.nodes_x, g.nodes_y, g.table, g.values = nodes_x, nodes_y, table, table[1::2, 1::2]
        return g

    def _values(self, x, y):
        piece = lambda t, nodes: np.searchsorted(nodes, t, "left") + np.searchsorted(nodes, t, "right") - 1
        return self.table[piece(y, self.nodes_y), piece(x, self.nodes_x)]


def translate_reflect_bv(g: BVFunction, x0: float, y0: float) -> BVFunction:
    """(s, t) -> g(x0 - s, y0 - t), with jump lines mapped accordingly.

    A step multiplier's breakpoints b go to x0 - b, reversed, and so does
    its table: exact on its own breakpoints.  A ProductBV stays a ProductBV
    of u(x0 - s) and v(y0 - t); any other g becomes a ClosedFormBV.  The
    point must be finite: about an infinite point x0 - s is inf - inf at s = x0.
    """
    x0, y0 = ext(x0), ext(y0)
    if math.isinf(x0) or math.isinf(y0):
        raise ValueError("cannot reflect about an infinite point")
    jx = tuple(x0 - j for j in g.jump_x if math.isfinite(x0 - j))
    jy = tuple(y0 - j for j in g.jump_y if math.isfinite(y0 - j))
    label = f"{g.label} reflected about ({x0},{y0})"
    if isinstance(g, StepFunction2):
        return StepFunction2.from_table((x0 - g.nodes_x)[::-1], (y0 - g.nodes_y)[::-1], g.table[::-1, ::-1],
                                      label, jx, jy)
    if isinstance(g, ProductBV):
        u, v = g.u, g.v
        return ProductBV(lambda s: u(x0 - np.asarray(s, dtype=float)), lambda t: v(y0 - np.asarray(t, dtype=float)),
                         label, jx, jy)

    def fn(s, t):
        return np.asarray(g.eval(x0 - s, y0 - t), dtype=float)

    return ClosedFormBV(fn, label, jx, jy)


# ---------------------------------------------------------------------------
# catalog: primitives


# |t| beyond this is clipped before squaring: t * t overflows from about
# 1.3e154, and exp(-1e150) is already 0, so the clip changes no value
_RADIAL_CLIP = 1e150


def _exp_radial(x, y):
    """exp(-sqrt(x^2 + y^2)) for floats or float arrays that broadcast.

    The squares are taken on the inputs as given, so in a broadcast sum only
    the one result buffer has the broadcast size; the square root, the
    negation and the exponential then run in place on it.  A scalar result
    takes the same operations on Python floats, which cost less than numpy
    calls on 0-d arrays.  np.hypot gives the same values up to rounding but,
    a scalar libm loop, runs several times slower per value.
    """
    if getattr(x, "ndim", 0) == 0 and getattr(y, "ndim", 0) == 0:
        x, y = min(abs(float(x)), _RADIAL_CLIP), min(abs(float(y)), _RADIAL_CLIP)
        return np.exp(-math.sqrt(x * x + y * y))
    x = np.minimum(np.abs(x), _RADIAL_CLIP)
    y = np.minimum(np.abs(y), _RADIAL_CLIP)
    r = x * x + y * y
    np.sqrt(r, out=r)
    np.negative(r, out=r)
    return np.exp(r, out=r)


def _arctan_ramp(t):
    t = np.asarray(t, dtype=float)
    return (PI / 2 + np.arctan(t)) / PI


def _si_full(t):
    """Antiderivative of sin(s)/s from -inf: Si(t) + pi/2, exact 0 at -inf."""
    from scipy.special import sici

    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    si = sici(np.where(np.isfinite(a), a, np.inf))[0]
    return np.sign(t) * si + PI / 2


def _si_quadrant(t):
    from scipy.special import sici

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


def _weier_1d(a, b, depth):
    w = _weierstrass(a, b, depth)

    def fn(t):
        u = np.atleast_1d(np.asarray(chart(np.asarray(t, dtype=float))))
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
        x = np.clip(t, 0.0, 1.0)
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
        return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, val))

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
    theta2(x) theta3(y) / theta2(inf) applies, a SeparablePrimitive with the
    factors theta2 / theta2(inf) and theta3; otherwise the arctan-ramp blend
    is used.
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
        return SeparablePrimitive((lambda x: np.asarray(t2(x), dtype=float) / corner2, t3), "boundaryBuild")

    def fn(x, y):
        return np.asarray(t2(x)) * _arctan_ramp(y) + np.asarray(t3(y)) * _arctan_ramp(x)

    return ClosedFormPrimitive(fn, "boundaryBuild")


# A depth past MAX_DEPTH adds at most 1.6e-14 (the 0.6^k weier2d tail; the
# 0.5^k terms and the 3^-k Cantor steps are below rounding by then) and, far
# deeper, overflows b^k or runs the Cantor loop for minutes.
MAX_DEPTH = 64


def _whole(params, key, default, lo=-math.inf, hi=math.inf):
    """params[key] as an int; ValueError unless it is an integer in [lo, hi]."""
    v = params.get(key, default)
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if int(v) == float(v) and lo <= int(v) <= hi:
            return int(v)
    raise ValueError(f"{key} must be an integer in [{lo}, {hi}], got {v!r}")


def catalog_primitive(name, **params) -> Primitive:
    """Named primitives; see CATALOG_PRIMITIVES for the available entries."""
    if name == "prodArctan":
        return SeparablePrimitive((_arctan_ramp, _arctan_ramp), "prodArctan")
    if name == "sinc2d":
        return SeparablePrimitive((_si_full, _si_full), "sinc2d")
    if name == "sincQuadrant":
        return SeparablePrimitive((_si_quadrant, _si_quadrant), "sincQuadrant")
    if name == "weier2d":
        depth = _whole(params, "depth", 16, 1, MAX_DEPTH)
        return SeparablePrimitive((_weier_1d(0.5, 2.0, depth), _weier_1d(0.6, 1.8, depth)), "weier2d")
    if name == "cantor2d":
        c = _cantor_1d(_whole(params, "depth", 20, 1, MAX_DEPTH))
        return SeparablePrimitive((c, c), "cantor2d")
    if name == "oscill":
        # t^2 sin(t^-4) vanishes at -inf, so the edge correction is zero
        return SeparablePrimitive((_oscill_1d, _oscill_1d), "oscill")
    if name == "expRadial":
        return CorrectedPrimitive(_exp_radial, "expRadial", even=True)
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
        n = _whole(params, "n", 1, lo=1)

        def a(x):
            xc = np.clip(x, 0.0, 2 * PI)
            return (1.0 - np.cos(n * xc)) / n

        def b(y):
            return np.clip(y, 0.0, 1.0)

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


def _step(lo, hi, c=1.0, closed=(True, True)):
    """Breakpoints and piece values of t -> c on lo..hi, 0 off it; closed (True, False) is lo <= t < hi."""
    nodes = sorted({NEG_INF, lo, hi, POS_INF})
    on = lambda t: (t >= lo if closed[0] else t > lo) and (t <= hi if closed[1] else t < hi)
    # the line through -inf, then the cell to and the line through each next node
    pieces = [on(NEG_INF)] + [p for a, b in zip(nodes, nodes[1:]) for p in (lo <= a and b <= hi, on(b))]
    return np.array(nodes), np.where(pieces, c, 0.0)


def catalog_bv(name, **params) -> BVFunction:
    """Named multipliers; see CATALOG_BV.  Labels format the params as given."""
    jumps = ((), ())  # the indicators and constant are tables, outer products of two step factors
    if name == "quadrantIndicator":
        # indicator of [-inf, x) x [-inf, y), the -inf endpoints included
        x0, y0 = params.get("x", 0.0), params.get("y", 0.0)
        x, y = ext(x0), ext(y0)
        u, v, jumps = _step(NEG_INF, x, closed=(True, False)), _step(NEG_INF, y, closed=(True, False)), ((x,), (y,))
        label = f"quadrantIndicator({x0},{y0})"
    elif name == "halfPlaneIndicator":
        u, v, label, jumps = _step(0.0, POS_INF), _step(NEG_INF, POS_INF), "halfPlaneIndicator", ((0.0,), ())
    elif name == "intervalIndicator":
        if "interval" in params:
            iv = params["interval"]
            if not isinstance(iv, Interval2):
                raise ValueError(f"intervalIndicator takes an Interval2, got {iv!r}")
        else:
            iv = make_interval(params.get("a", 0.0), params.get("b", 1.0), params.get("c", 0.0), params.get("d", 1.0))
        u, v, jumps = _step(iv.a, iv.b), _step(iv.c, iv.d), ((iv.a, iv.b), (iv.c, iv.d))
        label = f"intervalIndicator([{iv.a},{iv.b}]x[{iv.c},{iv.d}])"
    elif name == "constant":
        c = params.get("c", 1.0)
        u, v, label = _step(NEG_INF, POS_INF, float(c)), _step(NEG_INF, POS_INF), f"constant({c})"
    elif name == "approxIdentity":
        return approx_identity(_whole(params, "n", 4))
    elif name == "diagonalIndicator":
        # the half-plane y > x: not of bounded Hardy-Krause variation
        return ClosedFormBV(lambda x, y: (y > x).astype(float), "diagonalIndicator")
    else:
        raise ValueError(f"unknown catalog BV function: {name!r}")
    (bx, ux), (by, vy) = u, v
    return StepFunction2.from_table(bx, by, np.outer(vy, ux), label, *jumps)


CATALOG_BV = (
    "quadrantIndicator",
    "halfPlaneIndicator",
    "intervalIndicator",
    "approxIdentity",
    "constant",
    "diagonalIndicator",
)


# ---------------------------------------------------------------------------
# validation and sampling


def validate_primitive(F: Primitive) -> dict:
    """Check the defining invariants on validation grids from resolution 64.

    Boundary rows/columns must vanish (exactly for grid samples, within
    1e-12 for closed forms); the adjacent-node oscillation must decrease
    monotonically over three grid doublings (continuity proxy).
    """
    tol = 0.0 if isinstance(F, GridSamplePrimitive) else 1e-12

    nodes = axis_nodes(64)
    try:
        edge1 = np.abs(np.asarray(F.eval(NEG_INF, nodes)))
        edge2 = np.abs(np.asarray(F.eval(nodes, NEG_INF)))
        boundary_residual = float(max(edge1.max(), edge2.max()))
        finite = True
    except ArithmeticError:
        boundary_residual = float("inf")
        finite = False

    trace = []
    if finite:
        r = 64
        for _ in range(4):
            xs = axis_nodes(r)
            try:
                G = F.on_grid(xs, xs)
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


def sample_primitive(F: Primitive, resolution: int) -> GridSamplePrimitive:
    grid = Grid2(resolution)
    return GridSamplePrimitive(grid, F.on_grid(grid.xs, grid.ys), F.label)


# ---------------------------------------------------------------------------
# grid sample import/export


def export_grid_json(prim: GridSamplePrimitive, path):
    doc = {
        "label": prim.label,
        "resolution": prim.grid.resolution,
        "chart": CHART_NAME,
        "values": prim.values.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))  # json.dump never takes the C encoder


def _square_values(values, resolution):
    """values as a (resolution+1, resolution+1) float array, checked before any grid is built.

    The grid's size is then bounded by the file's, so no resolution a file
    declares can ask for more memory than its values take.
    """
    if values.shape != (resolution + 1, resolution + 1):
        raise ValueError(f"values must be {resolution + 1} x {resolution + 1} for resolution {resolution}, "
                         f"got shape {values.shape}")
    return values


def import_grid_json(path) -> GridSamplePrimitive:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:  # arrays nested deeper than the parser's stack
            raise ValueError("grid file nests too deeply") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"a grid file must hold a JSON object, got {type(doc).__name__}")
    if doc.get("chart") != CHART_NAME:
        raise ValueError(f"unsupported chart {doc.get('chart')!r}")
    resolution = doc.get("resolution")
    if not isinstance(resolution, int) or isinstance(resolution, bool):
        raise ValueError(f"resolution must be a JSON integer, got {resolution!r}")
    try:
        values = np.asarray(doc["values"], dtype=float)
    except TypeError as exc:  # values of the wrong JSON type, such as null
        raise ValueError(str(exc)) from exc
    values = _square_values(values, resolution)
    return GridSamplePrimitive(Grid2(resolution), values, doc.get("label", ""))


def export_grid_csv(prim: GridSamplePrimitive, path):
    nodes = np.atleast_1d(chart(prim.grid.xs))  # both axes
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + [repr(float(u)) for u in nodes])
        for j, u in enumerate(nodes):
            writer.writerow([repr(float(u))] + [repr(float(v)) for v in prim.values[j]])


def import_grid_csv(path, label="") -> GridSamplePrimitive:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:  # such as a cell over the reader's field size limit
            raise ValueError(str(exc)) from exc
    if len(rows) < 2:
        raise ValueError("grid CSV needs a header row and at least one data row")
    if len(rows[0]) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("every row of a grid CSV, a blank line too, needs the header's number of cells, "
                         "at least 2")
    cells = np.array([[float(v) for v in r] for r in rows[1:]])
    ux = np.array([float(v) for v in rows[0][1:]])
    uy, values = cells[:, 0], cells[:, 1:]
    resolution = len(ux) - 1
    values = _square_values(values, resolution)
    grid = Grid2(resolution)
    u = chart(grid.xs)
    if not (np.allclose(u, ux) and np.allclose(u, uy)):
        raise ValueError("CSV nodes are not chart-uniform for the default chart")
    return GridSamplePrimitive(grid, values, label)
