"""Convolution against BV kernels and L1 kernels, the half-space Poisson
kernel, and mollification of two-dimensional step functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .extplane import (
    NEG_INF,
    POS_INF,
    FULL_PLANE,
    Interval2,
    axis_nodes,
    make_interval,
    uniform_grid,
)
from .integral import QuadResult, _primitive_of, _refine
from .primitive import (
    BVFunction,
    CorrectedPrimitive,
    Distribution,
    GridSamplePrimitive,
    Primitive,
    SeparablePrimitive,
    translate_reflect_bv,
)
from .stieltjes import integrate_product

TWO_PI = 2.0 * math.pi


def poisson_kernel(x, y, z):
    """Half-space Poisson kernel z (x^2 + y^2 + z^2)^(-3/2) / (2 pi)."""
    if z <= 0:
        raise ValueError("z must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = z / (TWO_PI * (x**2 + y**2 + z**2) ** 1.5)
    return out if out.ndim else float(out)


def convolve_bv(f, g: BVFunction, p, tol=1e-6) -> QuadResult:
    """f convolved with a BV kernel, evaluated at the point p = (x, y).

    Finite p integrates f against the reflected translate (s, t) -> g(x - s,
    y - t) over the whole plane.  At a corner of the extended plane the limit
    is g(e1 inf, e2 inf) F(inf, inf); mixed boundary points (one coordinate
    infinite) have no closed-form limit and are rejected.
    """
    x, y = float(p[0]), float(p[1])
    xi, yi = math.isinf(x), math.isinf(y)
    if xi and yi:
        F = _primitive_of(f)
        val = float(g(x, y)) * float(F(POS_INF, POS_INF))
        return QuadResult(val, 0.0, 0, True, [])
    if xi or yi:
        raise ValueError("mixed boundary points (one coordinate infinite) are not supported")
    h = translate_reflect_bv(g, x, y)
    return integrate_product(f, h, FULL_PLANE, tol=tol)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, computed once per n."""
    u, w = np.polynomial.legendre.leggauss(n)
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


class L1Kernel:
    """Absolutely integrable kernel with a declared finite effective support.

    Quadrature happens over the support; the mass outside is carried as
    tail_bound and folded into downstream error estimates.
    """

    def __init__(self, fn, effective_support: Interval2, tail_bound=0.0, label="l1kernel"):
        if not all(
            math.isfinite(v)
            for v in (effective_support.a, effective_support.b, effective_support.c, effective_support.d)
        ):
            raise ValueError("effective support must be finite")
        self._fn = fn
        self.effective_support = effective_support
        self.tail_bound = float(tail_bound)
        self.label = label
        self.l1_norm_estimate = self._estimate_l1()

    def eval(self, x, y):
        return self._fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def __call__(self, x, y):
        out = self.eval(x, y)
        return out if np.ndim(out) else float(out)

    def axis_points(self, level, axis=0):
        """1-d Gauss-Legendre nodes/weights on the support's x (axis 0) or y range."""
        n = 32 * 2**level
        u, w = _gauss_legendre(n)
        s = self.effective_support
        lo, hi = (s.a, s.b) if axis == 0 else (s.c, s.d)
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        return mid + half * u, half * w

    def quad_points(self, level):
        """Tensor quadrature over the effective support in factored form.

        Returns the x nodes p, the y nodes q and the weight matrix W with
        W[l, k] the weight of the node (p[k], q[l]).
        """
        px, wx = self.axis_points(level, 0)
        py, wy = self.axis_points(level, 1)
        return px, py, np.outer(wy, wx)

    def node_values(self, px, py):
        """kernel(p[k], q[l]) at index [l, k] of the tensor grid."""
        P, Q = np.meshgrid(px, py)
        return np.asarray(self.eval(P, Q), dtype=float)

    def _estimate_l1(self):
        px, py, W = self.quad_points(1)
        return float(np.sum(W * np.abs(self.node_values(px, py))))


class PoissonKernelL1(L1Kernel):
    """Poisson kernel at height z as an L1 kernel.

    Support is the square of half-width 500 z; the exact mass outside the
    enclosed disc is z / sqrt(R^2 + z^2), declared as the tail bound.
    Quadrature nodes use the substitution xi = z sinh(u), which flattens the
    kernel's radial decay.
    """

    def __init__(self, z, radius_factor=500.0):
        if z <= 0:
            raise ValueError("z must be positive")
        self.z = float(z)
        radius = radius_factor * self.z
        tail = self.z / math.sqrt(radius**2 + self.z**2)
        super().__init__(
            lambda x, y: poisson_kernel(x, y, self.z),
            make_interval(-radius, radius, -radius, radius),
            tail_bound=tail,
            label=f"poisson(z={z})",
        )

    def axis_points(self, level, axis=0):
        """Both axes share the nodes; the support is a square about 0."""
        n = 32 * 2**level
        radius = self.effective_support.b
        U = math.asinh(radius / self.z)
        u, w = _gauss_legendre(n)
        u = U * u
        return self.z * np.sinh(u), U * w * self.z * np.cosh(u)


def _broadcast_sum(eval2, grid_xs, px, py, K):
    """H[j, i] = sum over l, k of K[l, k] eval2(x_i - p_k, y_j - q_l).

    Evaluates on (chunk of kernel nodes) x grid arrays of about 2^18 points.
    """
    X, Y = np.meshgrid(grid_xs, grid_xs)
    XI, ETA = np.meshgrid(px, py)
    xi, eta, w = XI.ravel(), ETA.ravel(), K.ravel()
    chunk = max(1, 2**18 // X.size)
    H = np.zeros(X.shape)
    for start in range(0, len(w), chunk):
        xs = X[None, :, :] - xi[start : start + chunk, None, None]
        ys = Y[None, :, :] - eta[start : start + chunk, None, None]
        vals = np.asarray(eval2(xs, ys), dtype=float)
        H += np.tensordot(w[start : start + chunk], vals, axes=(0, 0))
    return H


def _convolved_values(F, grid_xs, px, py, K):
    """H[j, i] = sum over l, k of K[l, k] F(x_i - p_k, y_j - q_l) on the grid.

    A separable F = a(x) b(y) gives H = B K A^T with A[i, k] = a(x_i - p_k)
    and B[j, l] = b(y_j - q_l).  A corrected primitive sums only G over the
    grid x kernel nodes; its edge terms G(x, -inf) and G(-inf, y) depend on
    one coordinate and reduce against K's column and row sums.  Anything
    else with an eval, step functions included, is summed point by point.
    """
    shifted_x = grid_xs[:, None] - px[None, :]
    shifted_y = grid_xs[:, None] - py[None, :]
    if isinstance(F, SeparablePrimitive):
        A, B = F.eval_factors(shifted_x, shifted_y)
        return B @ K @ A.T
    if isinstance(F, CorrectedPrimitive):
        G = F.G
        edge_x = np.asarray(G(shifted_x, np.full_like(shifted_x, NEG_INF)), dtype=float)
        edge_y = np.asarray(G(np.full_like(shifted_y, NEG_INF), shifted_y), dtype=float)
        corner = np.asarray(G(np.full(1, NEG_INF), np.full(1, NEG_INF)), dtype=float)[0]
        H = (_broadcast_sum(G, grid_xs, px, py, K) + corner * np.sum(K)
             - (edge_x @ K.sum(axis=0))[None, :] - (edge_y @ K.sum(axis=1))[:, None])
        if not np.all(np.isfinite(H)):
            raise ArithmeticError(f"primitive '{F.label}' evaluated non-finite")
        return H
    return _broadcast_sum(F.eval, grid_xs, px, py, K)


def convolve_l1(f, kernel: L1Kernel, resolution=32, tol=1e-5, max_levels=3,
                normalize=False) -> Distribution:
    """Convolution with an L1 kernel, returned as a grid-sampled distribution.

    The output primitive is H(x, y) = integral of kernel(xi, eta)
    F(x - xi, y - eta), evaluated by tensor quadrature over the kernel's
    effective support and refined until the grid sup-difference meets tol.
    With normalize=True the quadrature weights are rescaled so the discrete
    kernel mass is exactly 1 (for probability kernels).
    """
    F = _primitive_of(f)
    xs = axis_nodes(resolution)

    def level_values(r):
        # the driver's resolutions 1, 2, 4, ... stand for quadrature levels 0, 1, 2, ...
        px, py, W = kernel.quad_points(r.bit_length() - 1)
        k = kernel.node_values(px, py)
        if normalize:
            W = W / float(np.sum(W * k))
        return _convolved_values(F, xs, px, py, W * k)

    res = _refine(level_values, tol, 1, max_levels)
    H = res.value
    grid = uniform_grid(resolution)
    prim = GridSamplePrimitive(grid, H, f"({F.label})*({kernel.label})")
    dist = Distribution(prim)
    dist.converged = res.converged
    dist.error_estimate = res.error_estimate + kernel.tail_bound * float(np.max(np.abs(H)) + 1.0)
    return dist


@dataclass
class StepFunction2:
    """Step function on half-open cells (p_{i-1}, p_i] x (q_{j-1}, q_j].

    nodes include the infinite endpoints; values[j, i] is the value on cell
    (i+1, j+1).  Points with an infinite negative coordinate belong to no
    cell and evaluate to 0.
    """

    nodes_x: np.ndarray
    nodes_y: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes_x = np.asarray(self.nodes_x, dtype=float)
        self.nodes_y = np.asarray(self.nodes_y, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.nodes_y) - 1, len(self.nodes_x) - 1):
            raise ValueError("values shape must be (cells_y, cells_x)")

    def eval(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x, y = np.broadcast_arrays(x, y)
        i = np.clip(np.searchsorted(self.nodes_x, x, side="left") - 1, 0, self.values.shape[1] - 1)
        j = np.clip(np.searchsorted(self.nodes_y, y, side="left") - 1, 0, self.values.shape[0] - 1)
        out = self.values[j, i]
        return np.where(np.isneginf(x) | np.isneginf(y), 0.0, out)

    def __call__(self, x, y):
        out = self.eval(x, y)
        return out if np.ndim(out) else float(out)

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))


def step_approximate(F: Primitive, n: int) -> StepFunction2:
    """Step approximation of a primitive on the chart-uniform n-grid.

    Each cell takes F's value at its upper-right node; the first row and
    column of cells (those reaching down to -inf) are forced to 0.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    nodes = axis_nodes(n)
    X, Y = np.meshgrid(nodes[1:], nodes[1:])
    vals = np.asarray(F.eval(X, Y), dtype=float)
    vals[0, :] = 0.0
    vals[:, 0] = 0.0
    return StepFunction2(nodes, nodes.copy(), vals)


def mollify_step(sigma: StepFunction2, z, resolution=64, level=2) -> GridSamplePrimitive:
    """Poisson mollification of a step function, sampled on a chart grid.

    Interior and boundary nodes use the same convolution formula: at an
    infinite coordinate the step function's own boundary limit enters, so
    the boundary rows are the one-dimensional mollifications of the edge
    sections and the (inf, inf) corner reproduces sigma(inf, inf) exactly
    (weights are normalized to unit mass).
    """
    if z <= 0:
        raise ValueError("z must be positive")
    kernel = PoissonKernelL1(z)
    px, py, W = kernel.quad_points(level)
    K = W * kernel.node_values(px, py)
    H = _convolved_values(sigma, axis_nodes(resolution), px, py, K / float(np.sum(K)))
    grid = uniform_grid(resolution)
    return GridSamplePrimitive(grid, H, f"mollified(z={z})")
