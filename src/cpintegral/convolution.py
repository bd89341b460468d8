"""Convolution against BV kernels and L1 kernels, the half-space Poisson
kernel, and mollification of two-dimensional step functions.
"""

from __future__ import annotations

import functools
import math

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
    PlaneFunction,
    Primitive,
    SeparablePrimitive,
    translate_reflect_bv,
)
from .stieltjes import integrate_product

TWO_PI = 2.0 * math.pi


def poisson_kernel(x, y, z):
    """Half-space Poisson kernel z (x^2 + y^2 + z^2)^(-3/2) / (2 pi)."""
    if not (math.isfinite(z) and z > 0):
        raise ValueError(f"z must be positive and finite, got {z}")
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


class L1Kernel(PlaneFunction):
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

    def _values(self, x, y):
        return self._fn(x, y)

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

    def _estimate_l1(self):
        px, py, W = self.quad_points(1)
        return float(np.sum(W * np.abs(self.on_grid(px, py))))


class PoissonKernelL1(L1Kernel):
    """Poisson kernel at height z as an L1 kernel.

    Support is the square of half-width 500 z; the exact mass outside the
    enclosed disc is z / sqrt(R^2 + z^2), declared as the tail bound.
    Quadrature nodes use the substitution xi = z sinh(u), which flattens the
    kernel's radial decay.  A z is rejected unless the support radius and
    the kernel, computed as poisson_kernel does, are finite and non-zero
    from its peak 1 / (2 pi z^2) at the origin to its least value at the
    support's corners; otherwise the node values and the tail bound would
    overflow or divide by zero.
    """

    def __init__(self, z, radius_factor=500.0):
        z = float(z)
        if not (math.isfinite(z) and z > 0):
            raise ValueError(f"z must be positive and finite, got {z}")
        radius = radius_factor * z
        with np.errstate(over="ignore", divide="ignore"):
            peak, least = z / (TWO_PI * (np.array([0.0, 2.0 * radius * radius]) + z * z) ** 1.5)
        if not (0.0 < least <= peak < math.inf and 0.0 < radius < math.inf):
            raise ValueError(f"z = {z} is out of range: the kernel peak ({peak:g}), its least value on "
                             f"the support ({least:g}) and the support radius ({radius:g}) "
                             "must be finite and non-zero")
        self.z = z
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


def _eval_block(eval2, x, y):
    """eval2(x, y) as a float array of the broadcast shape of x and y."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return np.broadcast_to(np.asarray(eval2(x, y), dtype=float), shape)


_SUM_BLOCK = 2**16  # values per block of kernel rows in _broadcast_sum's 3-d part


def _broadcast_sum(eval2, grid_xs, px, py, K):
    """H[j, i] = sum over l, k of K[l, k] eval2(x_i - p_k, y_j - q_l).

    The kernel nodes are finite, so at an infinite grid node x_i - p_k is
    x_i itself: an infinite column is the 1-d sum over l of
    (sum_k K[l, k]) eval2(x_i, y_j - q_l), an infinite row the 1-d sum over
    k of (sum_l K[l, k]) eval2(x_i - p_k, y_j), and a corner is
    eval2(x_i, y_j) sum K.  Only the finite grid nodes are summed in 3-d.
    There, with n finite grid nodes and N kernel x nodes, eval2 gets the
    on_grid shape: a row (1, n N) of the differences x_i - p_k, ordered
    (i, k), against a column (n rows, 1) of the differences y_j - q_l,
    ordered (j, l), for a block of whole kernel rows l of about _SUM_BLOCK =
    2^16 values (512 KB), so that its temporaries stay in cache.  A kernel
    row larger than that is a block of its own.
    """
    fin = np.isfinite(grid_xs)
    xs, ends = grid_xs[fin], grid_xs[~fin]
    n, N = len(xs), len(px)
    dx = xs[None, :] - px[:, None]  # dx[k, i] = x_i - p_k
    dy = xs[None, :] - py[:, None]  # dy[l, j] = y_j - q_l
    H = np.empty((len(grid_xs), len(grid_xs)))
    H[np.ix_(fin, ~fin)] = np.tensordot(K.sum(axis=1), _eval_block(eval2, ends, dy[:, :, None]), axes=1)
    H[np.ix_(~fin, fin)] = np.tensordot(K.sum(axis=0), _eval_block(eval2, dx[:, None, :], ends[:, None]), axes=1)
    H[np.ix_(~fin, ~fin)] = _eval_block(eval2, ends, ends[:, None]) * np.sum(K)
    inner = np.zeros((n, n))
    row = dx.T.reshape(1, -1)
    rows = max(1, _SUM_BLOCK // max(1, n * n * N))
    for start in range(0, len(py), rows):
        block = dy[start : start + rows]
        vals = _eval_block(eval2, row, block.T.reshape(-1, 1)).reshape(n, len(block), n, N)
        inner += np.matmul(vals, K[start : start + rows, :, None]).sum(axis=1)[:, :, 0]
    H[np.ix_(fin, fin)] = inner
    return H


def _convolved_values(F, grid_xs, px, py, K):
    """H[j, i] = sum over l, k of K[l, k] F(x_i - p_k, y_j - q_l) on the grid.

    A separable F = a(x) b(y) gives H = B K A^T with A[i, k] = a(x_i - p_k)
    and B[j, l] = b(y_j - q_l).  A corrected primitive sums only G by
    _broadcast_sum; its edge terms G(x, -inf) and G(-inf, y) depend on one
    coordinate and reduce against K's column and row sums.  Anything else
    with an eval is summed by _broadcast_sum on F.eval.  There the finite
    grid nodes take the 3-d (grid x kernel nodes) sum and the +-inf rows and
    columns 1-d sums against K's row and column sums.  (Step functions never
    get here: mollify_step sums the kernel's closed-form CDF instead.)
    """
    shifted_x = grid_xs[:, None] - px[None, :]
    shifted_y = grid_xs[:, None] - py[None, :]
    if isinstance(F, SeparablePrimitive):
        A, B = F.eval_factors(shifted_x, shifted_y)
        return B @ K @ A.T
    if isinstance(F, CorrectedPrimitive):
        G = F.G
        edge_x = _eval_block(G, shifted_x, NEG_INF)
        edge_y = _eval_block(G, NEG_INF, shifted_y)
        corner = float(_eval_block(G, NEG_INF, NEG_INF))
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
    A kernel node is finite, so at an infinite grid coordinate H is a 1-d
    convolution of F's marginal with the kernel's marginal; only the finite
    grid nodes need the full sum over kernel nodes (see _convolved_values).
    With normalize=True the quadrature weights are rescaled so the discrete
    kernel mass is exactly 1 (for probability kernels).
    """
    F = _primitive_of(f)
    xs = axis_nodes(resolution)

    def level_values(r):
        # the driver's resolutions 1, 2, 4, ... stand for quadrature levels 0, 1, 2, ...
        px, py, W = kernel.quad_points(r.bit_length() - 1)
        k = kernel.on_grid(px, py)
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


class StepFunction2(BVFunction):
    """Step function on half-open cells (p_{i-1}, p_i] x (q_{j-1}, q_j].

    nodes increase strictly from -inf to inf; values[j, i] is the finite
    value on cell (i+1, j+1).  Points with an infinite negative coordinate
    belong to no cell and evaluate to 0.  The finite nodes are the jump lines.
    """

    def __init__(self, nodes_x, nodes_y, values, label="stepFunction"):
        self.nodes_x = np.asarray(nodes_x, dtype=float)
        self.nodes_y = np.asarray(nodes_y, dtype=float)
        self.values = np.asarray(values, dtype=float)
        for nodes in (self.nodes_x, self.nodes_y):
            if nodes.ndim != 1 or len(nodes) < 2 or nodes[0] != NEG_INF or nodes[-1] != POS_INF:
                raise ValueError("nodes must run from -inf to inf")
            if not np.all(np.diff(nodes) > 0):
                raise ValueError("nodes must be strictly increasing")
        if self.values.shape != (len(self.nodes_y) - 1, len(self.nodes_x) - 1):
            raise ValueError("values shape must be (cells_y, cells_x)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("step values must be finite")
        super().__init__(label, self.nodes_x[1:-1], self.nodes_y[1:-1])

    def _values(self, x, y):
        i = np.clip(np.searchsorted(self.nodes_x, x, side="left") - 1, 0, self.values.shape[1] - 1)
        j = np.clip(np.searchsorted(self.nodes_y, y, side="left") - 1, 0, self.values.shape[0] - 1)
        out = self.values[j, i]
        return np.where(np.isneginf(x) | np.isneginf(y), 0.0, out)


def step_approximate(F: Primitive, n: int) -> StepFunction2:
    """Step approximation of a primitive on the chart-uniform n-grid.

    Each cell takes F's value at its upper-right node; the first row and
    column of cells (those reaching down to -inf) are forced to 0.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    nodes = axis_nodes(n)
    vals = F.on_grid(nodes[1:], nodes[1:])
    vals[0, :] = 0.0
    vals[:, 0] = 0.0
    return StepFunction2(nodes, nodes.copy(), vals)


def _mollify_1d(values, nodes, ts, z):
    """Cauchy mollification of the 1-d step function values on (p_k, p_{k+1}].

    h(t) = sum over nodes of e_k C(t - p_k), with C(t) = 1/2 + atan(t/z)/pi
    and e the difference of the zero-padded values.  A node at the output's
    own infinity (inf - inf) contributes 0: the last cell (p_{n-1}, inf]
    holds t = inf, so h(inf) is the last value and h(-inf) is 0.
    """
    e = np.diff(values, prepend=0.0, append=0.0)
    with np.errstate(invalid="ignore"):
        shifted = ts[:, None] - nodes[None, :]
    return np.where(np.isnan(shifted), 0.0, 0.5 + np.arctan(shifted / z) / math.pi) @ e


_NODE_SUM_CHUNK = 2**14  # values per chunk of output rows in _poisson_node_sum


def _poisson_node_sum(d, p, q, xs, ys, z):
    """H[j, i] = sum over nodes (k, l) of d[l, k] Phi(x_i - p_k, y_j - q_l), outputs finite.

    Phi(a, b) = 1/4 + (atan(a/z) + atan(b/z) + atan(ab / (z r))) / (2 pi),
    r = sqrt(a^2 + b^2 + z^2), is the kernel's bivariate CDF.  The rows and
    columns of d sum to zero, so Phi's three separable terms cancel in the
    sum.  At the infinite end nodes the cross term has the 1-d limit
    sign(a) atan(b/z) (a = x - p_k infinite) or sign(b) atan(a/z), which
    leaves 1-d sums; only the finite nodes need the full grid x nodes sum,
    chunked over output rows to about _NODE_SUM_CHUNK = 2^14 points (128 KB
    a temporary, so the chunk stays in cache).  Each output row is summed on
    its own, so the chunk size changes no value.
    """
    a = xs[:, None] - p[None, 1:-1]
    b = ys[:, None] - q[None, 1:-1]
    H = ((np.arctan(b / z) @ (d[1:-1, 0] - d[1:-1, -1]))[:, None]
         + (np.arctan(a / z) @ (d[0, 1:-1] - d[-1, 1:-1]))[None, :]
         + (math.pi / 2) * (d[0, 0] - d[0, -1] - d[-1, 0] + d[-1, -1]))
    D = d[1:-1, 1:-1].ravel()
    a4, a2 = a[None, :, None, :], (a * a)[None, :, None, :]
    chunk = max(1, _NODE_SUM_CHUNK // max(1, a.size * b.shape[1]))
    for start in range(0, len(ys), chunk):
        bj = b[start : start + chunk, None, :, None]
        t = bj * a4
        r = np.sqrt(bj * bj + z * z + a2)
        r *= z
        t /= r
        np.arctan(t, out=t)
        H[start : start + chunk] += t.reshape(len(bj), len(xs), -1) @ D
    return H / TWO_PI


def mollify_step(sigma: StepFunction2, z, resolution=64) -> GridSamplePrimitive:
    """Poisson mollification of a step function, exact on a chart grid.

    A step function is a sum of cell indicators, so its mollification at
    (x, y) is the sum over cells of the cell value times the kernel mass of
    (x, y) minus the cell, a corner sum of the kernel's CDF Phi:
    H(x, y) = sum over nodes (k, l) of d[l, k] Phi(x - p_k, y - q_l), with d
    the mixed difference of the zero-padded cell values.  At an infinite
    coordinate the sum takes the 1-d limits: the -inf rows are 0, and the
    +inf rows are the Cauchy mollifications of the last row and column of
    cells (the last cell holds inf), so the (inf, inf) corner is
    sigma(inf, inf) up to rounding.  A z so small that the node sums leave
    the float range (z^2 underflows, and 0 / 0 turns up where a node of the
    output meets a node of sigma) raises ValueError.
    """
    z = float(z)
    if not (math.isfinite(z) and z > 0):
        raise ValueError(f"z must be positive and finite, got {z}")
    xs = axis_nodes(resolution)
    V = sigma.values
    H = np.zeros((len(xs), len(xs)))
    d = np.diff(np.diff(np.pad(V, 1), axis=0), axis=1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        H[1:-1, 1:-1] = _poisson_node_sum(d, sigma.nodes_x, sigma.nodes_y, xs[1:-1], xs[1:-1], z)
        H[-1, 1:] = _mollify_1d(V[-1, :], sigma.nodes_x, xs[1:], z)
        H[1:, -1] = _mollify_1d(V[:, -1], sigma.nodes_y, xs[1:], z)
    if not np.all(np.isfinite(H)):
        raise ValueError(f"z = {z} is out of range: the mollified node sums are not finite")
    return GridSamplePrimitive(uniform_grid(resolution), H, f"mollified(z={z})")
