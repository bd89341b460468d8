import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpintegral import convolution
from cpintegral.convolution import (
    L1Kernel,
    PoissonKernelL1,
    StepFunction2,
    _broadcast_sum,
    _convolved_values,
    _eval_block,
    convolve_bv,
    convolve_l1,
    mollify_step,
    poisson_kernel,
    step_approximate,
)
from cpintegral.extplane import NEG_INF, POS_INF, axis_nodes, make_interval
from cpintegral.integral import corner_integral, total_integral
from cpintegral.primitive import (
    BVFunction,
    ClosedFormPrimitive,
    CorrectedPrimitive,
    catalog_bv,
    distribution,
)


def test_poisson_kernel_values():
    assert abs(poisson_kernel(0.0, 0.0, 2.0) - 1.0 / (2 * math.pi * 4.0)) < 1e-15
    with pytest.raises(ValueError):
        poisson_kernel(0.0, 0.0, 0.0)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_poisson_kernel_rejects_nonfinite_height(z):
    with pytest.raises(ValueError, match="z must be positive and finite"):
        poisson_kernel(0.0, 0.0, z)


@pytest.mark.parametrize("z", [0.0, -1.0, math.nan, math.inf])
def test_one_poisson_height_rule(z):
    # the kernel, the L1 kernel and the mollifier reject a height with one
    # message, which the CLI echoes on exit 64
    sigma = step_approximate(distribution("prodArctan").primitive, 8)
    for reject in (lambda: poisson_kernel(0.0, 0.0, z), lambda: PoissonKernelL1(z), lambda: mollify_step(sigma, z)):
        with pytest.raises(ValueError) as info:
            reject()
        assert str(info.value) == f"z must be positive and finite, got {z}"


def test_convolve_bv_with_constant_one():
    f = distribution("prodArctan")
    res = convolve_bv(f, catalog_bv("constant", c=1.0), (0.3, -0.7))
    assert abs(res.value - 1.0) < 1e-6


def test_convolve_bv_quadrant_is_tail_integral():
    # g = 1 on {x < 0, y < 0}, so (f * g)(p) integrates f over (p1, inf) x (p2, inf)
    f = distribution("prodArctan")
    res = convolve_bv(f, catalog_bv("quadrantIndicator"), (0.0, 0.0))
    oracle = corner_integral(f, make_interval(0, POS_INF, 0, POS_INF))
    assert abs(res.value - oracle) <= 1e-6


def test_convolve_bv_corner_limits():
    f = distribution("prodArctan")
    g = catalog_bv("approxIdentity", n=4)
    res = convolve_bv(f, g, (POS_INF, POS_INF))
    assert res.value == g(POS_INF, POS_INF) * f.primitive(POS_INF, POS_INF) == 1.0
    res2 = convolve_bv(f, g, (NEG_INF, NEG_INF))
    assert res2.value == 0.0


def test_convolve_bv_rejects_mixed_boundary():
    with pytest.raises(ValueError):
        convolve_bv(distribution("prodArctan"), catalog_bv("constant"), (POS_INF, 0.0))


def test_convolve_bv_of_a_step_function_is_the_corner_formula_over_the_reflected_cells():
    # g(x0 - s, y0 - t) is V[j, i] on the cell [x0 - p_i, x0 - p_(i-1)) x [y0 - q_j, y0 - q_(j-1)), so
    # the convolution is the sum of V[j, i] times F's corner difference over that cell
    g = step_approximate(distribution("expRadial").primitive, 8)
    x0, y0 = 0.5, -0.25
    G = distribution("prodArctan").primitive.on_grid(x0 - g.nodes_x, y0 - g.nodes_y)
    exact = float(np.sum(g.values * (G[:-1, :-1] + G[1:, 1:] - G[:-1, 1:] - G[1:, :-1])))
    tol = 1e-6
    res = convolve_bv(distribution("prodArctan"), g, (x0, y0), tol=tol)
    assert res.converged
    assert abs(res.value - exact) <= tol + res.error_estimate


def test_l1_kernel_rejects_an_infinite_support():
    with pytest.raises(ValueError, match="effective support must be finite"):
        L1Kernel(lambda x, y: np.exp(-x * x - y * y), make_interval(NEG_INF, 1.0, -1.0, 1.0))


def test_poisson_l1_kernel_mass_and_tail():
    k = PoissonKernelL1(0.5)
    # the mass missing from the support quadrature is covered by the tail bound
    px, py, W = k.quad_points(64)
    mass = float(np.sum(W * np.abs(k.on_grid(px, py))))
    assert mass <= 1.0 + 1e-9
    assert 1.0 - mass <= k.tail_bound + 1e-9
    radius = 500.0 * 0.5
    assert abs(k.tail_bound - 0.5 / math.sqrt(radius**2 + 0.25)) < 1e-15
    with pytest.raises(ValueError):
        PoissonKernelL1(-1.0)


@pytest.mark.parametrize("z", [math.nan, math.inf, 5e-324, 1e-320, 1e-160, 1e-110, 1e100, 1e150, 1e300])
def test_poisson_l1_kernel_rejects_heights_out_of_float_range(z):
    # a peak 1 / (2 pi z^2), a least value on the support or a support radius
    # of 0 or inf: the node values and the tail bound would divide by zero
    # or overflow
    with pytest.raises(ValueError, match="z"):
        PoissonKernelL1(z)


@pytest.mark.parametrize("z", [1e-100, 1e-6, 0.0625, 0.5, 3.0, 1e95])
def test_poisson_l1_kernel_over_its_range(z):
    k = PoissonKernelL1(z)
    radius = 500.0 * z
    assert k.tail_bound == z / math.sqrt(radius**2 + z**2)
    px, py, W = k.quad_points(32)
    vals = k.on_grid(px, py)
    assert np.all(np.isfinite(W)) and np.all(W > 0)
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)
    assert abs(np.sum(W * vals) - 1.0) <= 2.0 * k.tail_bound


def test_convolve_l1_preserves_mass():
    f = distribution("prodArctan")
    conv = convolve_l1(f, PoissonKernelL1(0.5), resolution=16, normalize=True)
    assert conv.converged
    assert abs(total_integral(conv) - total_integral(f)) <= 1e-6


def test_convolve_l1_stays_close_for_small_z():
    f = distribution("prodArctan")
    xs = axis_nodes(16)
    X, Y = np.meshgrid(xs, xs)
    base = np.asarray(f.primitive.eval(X, Y))
    devs = []
    for z in (0.5, 0.125):
        conv = convolve_l1(f, PoissonKernelL1(z), resolution=16, normalize=True)
        devs.append(float(np.max(np.abs(np.asarray(conv.primitive.eval(X, Y)) - base))))
    assert devs[1] < devs[0]


def test_step_function_half_open_cells():
    nodes = np.array([NEG_INF, 0.0, 1.0, POS_INF])
    vals = np.zeros((3, 3))
    vals[1, 1] = 5.0
    s = StepFunction2(nodes, nodes.copy(), vals)
    assert s(0.5, 0.5) == 5.0
    assert s(1.0, 1.0) == 5.0  # right-closed
    assert s(0.0, 0.5) == 0.0  # left-open
    assert s(NEG_INF, 0.5) == 0.0


def test_step_function_jump_lines_are_its_finite_nodes():
    s = StepFunction2([NEG_INF, -1.0, 0.5, POS_INF], [NEG_INF, 2.0, POS_INF], np.zeros((2, 3)))
    assert isinstance(s, BVFunction) and s.label == "stepFunction"
    assert s.jump_x == (-1.0, 0.5) and s.jump_y == (2.0,)


def test_step_function_rejects_nan():
    sigma = step_approximate(distribution("prodArctan").primitive, 8)
    for x, y in ((math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (np.array([0.0, math.nan]), 1.0)):
        with pytest.raises(ArithmeticError):
            sigma.eval(x, y)


def test_step_approximate_matches_primitive_nodes():
    F = distribution("prodArctan").primitive
    sigma = step_approximate(F, 16)
    nodes = axis_nodes(16)
    # upper-right node values away from the -inf edge
    assert sigma(nodes[5], nodes[7]) == F(nodes[5], nodes[7])
    assert sigma(POS_INF, POS_INF) == F(POS_INF, POS_INF)
    assert sigma(NEG_INF, 3.0) == 0.0


def test_step_approximate_converges_in_sup_norm():
    F = distribution("prodArctan").primitive
    errs = []
    for n in (8, 32, 128):
        sigma = step_approximate(F, n)
        xs = axis_nodes(256)
        X, Y = np.meshgrid(xs, xs)
        errs.append(float(np.max(np.abs(sigma.eval(X, Y) - np.asarray(F.eval(X, Y))))))
    assert errs[2] < errs[1] < errs[0]


def test_mollify_step_reproduces_corner():
    F = distribution("prodArctan").primitive
    sigma = step_approximate(F, 16)
    prim = mollify_step(sigma, 0.25, resolution=16)
    assert abs(prim(POS_INF, POS_INF) - sigma(POS_INF, POS_INF)) < 1e-12
    assert abs(prim(NEG_INF, NEG_INF)) < 1e-12


def test_mollify_step_rejects_bad_height():
    sigma = step_approximate(distribution("prodArctan").primitive, 8)
    with pytest.raises(ValueError):
        mollify_step(sigma, 0.0)


@pytest.mark.parametrize("z", [-1.0, math.inf, math.nan])
def test_mollify_step_rejects_nonfinite_or_negative_height(z):
    sigma = step_approximate(distribution("prodArctan").primitive, 8)
    with pytest.raises(ValueError, match="z must be positive and finite"):
        mollify_step(sigma, z)


@pytest.mark.parametrize("nodes_x,values,message", [
    ([NEG_INF, 0.0, POS_INF], [[1.0, math.nan], [0.0, 1.0]], "finite"),
    ([NEG_INF, 0.0, POS_INF], [[1.0, math.inf], [0.0, 1.0]], "finite"),
    ([NEG_INF, 1.0, 0.0, POS_INF], np.ones((2, 3)), "strictly increasing"),
    ([NEG_INF, 0.0, 0.0, POS_INF], np.ones((2, 3)), "strictly increasing"),
    ([-5.0, 0.0, POS_INF], np.ones((2, 2)), "-inf to inf"),
    ([NEG_INF, 0.0, 5.0], np.ones((2, 2)), "-inf to inf"),
    ([NEG_INF, 0.0, POS_INF], np.ones((2, 3)), "values shape"),
], ids=["nan-value", "inf-value", "unsorted", "repeated", "finite-start", "finite-end", "values-shape"])
def test_step_function_rejects_bad_input(nodes_x, values, message):
    with pytest.raises(ValueError, match=message):
        StepFunction2(nodes_x, [NEG_INF, 0.0, POS_INF], values)


def test_step_approximate_needs_two_cells_per_axis():
    with pytest.raises(ValueError, match="n must be >= 2"):
        step_approximate(distribution("prodArctan").primitive, 1)


# ---------------------------------------------------------------------------
# exact mollification against a scalar cell-by-cell reference


def _poisson_cdf(a, b, z):
    """Poisson kernel mass over (-inf, a] x (-inf, b]; Cauchy CDFs at an infinite argument."""
    if a == NEG_INF or b == NEG_INF:
        return 0.0
    if a == POS_INF:
        return 1.0 if b == POS_INF else 0.5 + math.atan(b / z) / math.pi
    if b == POS_INF:
        return 0.5 + math.atan(a / z) / math.pi
    r = math.sqrt(a * a + b * b + z * z)
    return 0.25 + (math.atan(a / z) + math.atan(b / z) + math.atan(a * b / (z * r))) / (2 * math.pi)


def _reference(sigma, z, x, y):
    """Sum over cells of the cell value times the kernel mass of (x, y) minus the cell."""
    px, py = sigma.nodes_x, sigma.nodes_y
    total = 0.0
    for j in range(len(py) - 1):
        for i in range(len(px) - 1):
            a, b = x - px[i + 1], x - px[i]
            c, d = y - py[j + 1], y - py[j]
            mass = _poisson_cdf(b, d, z) - _poisson_cdf(a, d, z) - _poisson_cdf(b, c, z) + _poisson_cdf(a, c, z)
            total += sigma.values[j, i] * mass
    return total


def _reference_1d(values, nodes, t, z):
    """Cauchy mollification of the 1-d step function values on (p_k, p_{k+1}] at a finite t."""
    def cdf(s):
        return 0.5 + math.atan(s / z) / math.pi if math.isfinite(s) else float(s > 0)
    return sum(v * (cdf(t - nodes[k]) - cdf(t - nodes[k + 1])) for k, v in enumerate(values))


def _check_boundaries(sigma, H, z, xs):
    V = sigma.values
    # the -inf rows and columns hold no cell
    assert np.all(H[0, :] == 0.0) and np.all(H[:, 0] == 0.0)
    # the +inf rows are the 1-d mollifications of the last row and column of cells
    for i, t in enumerate(xs[1:-1], start=1):
        assert abs(H[-1, i] - _reference_1d(V[-1, :], sigma.nodes_x, t, z)) <= 1e-13
        assert abs(H[i, -1] - _reference_1d(V[:, -1], sigma.nodes_y, t, z)) <= 1e-13
    assert abs(H[-1, -1] - sigma(POS_INF, POS_INF)) <= 1e-12
    # sigma(-inf, y) = 0 is one of the step values, so 0 bounds the range too
    lo, hi = min(0.0, float(np.min(V))), max(0.0, float(np.max(V)))
    assert lo - 1e-12 <= np.min(H) and np.max(H) <= hi + 1e-12


def _steps(draw):
    cells_x = draw(st.integers(1, 5))
    cells_y = draw(st.integers(1, 5))
    # eighths keep the nodes distinct after the translation below
    coord = st.integers(-80, 80).map(lambda k: k / 8.0)
    inner_x = draw(st.lists(coord, min_size=cells_x - 1, max_size=cells_x - 1, unique=True))
    inner_y = draw(st.lists(coord, min_size=cells_y - 1, max_size=cells_y - 1, unique=True))
    values = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False),
                           min_size=cells_x * cells_y, max_size=cells_x * cells_y))
    return StepFunction2([NEG_INF, *sorted(inner_x), POS_INF], [NEG_INF, *sorted(inner_y), POS_INF],
                         np.reshape(values, (cells_y, cells_x)))


@given(st.data(), st.floats(0.05, 5.0), st.sampled_from([2, 4, 6]),
       st.floats(-12.0, 12.0), st.floats(-12.0, 12.0))
@settings(max_examples=60, deadline=None)
def test_mollify_step_matches_cell_sum(data, z, resolution, x, y):
    sigma = _steps(data.draw)
    xs = axis_nodes(resolution)
    H = mollify_step(sigma, z, resolution=resolution).values
    for j in range(1, resolution):
        for i in range(1, resolution):
            assert abs(H[j, i] - _reference(sigma, z, xs[i], xs[j])) <= 1e-13
    _check_boundaries(sigma, H, z, xs)
    # a random finite point: the origin of the step function translated by -(x, y)
    moved = StepFunction2(sigma.nodes_x - x, sigma.nodes_y - y, sigma.values)
    at_origin = mollify_step(moved, z, resolution=2).values[1, 1]
    assert abs(at_origin - _reference(sigma, z, x, y)) <= 1e-13


def test_mollify_step_boundaries_of_a_step_approximation():
    sigma = step_approximate(distribution("sinc2d").primitive, 16)
    xs = axis_nodes(16)
    _check_boundaries(sigma, mollify_step(sigma, 0.8, resolution=16).values, 0.8, xs)


def test_mollify_step_many_cells_at_the_default_resolution():
    sigma = step_approximate(distribution("prodArctan").primitive, 128)
    xs = axis_nodes(64)
    H = mollify_step(sigma, 0.3, resolution=64).values
    for i, j in ((32, 32), (10, 50), (47, 5), (63, 1)):
        assert abs(H[j, i] - _reference(sigma, 0.3, xs[i], xs[j])) <= 1e-13
    assert abs(H[-1, -1] - sigma(POS_INF, POS_INF)) <= 1e-12


# ---------------------------------------------------------------------------
# the non-separable sum against a direct sum over every (grid, kernel) node


def _edge_terms_G(x, y):
    # nonzero edge terms G(x, -inf) and G(-inf, y)
    return np.arctan(x) + np.arctan(2.0 * y) + np.arctan(x) * np.arctan(y) + np.exp(-np.hypot(x, y))


def _plain(x, y):
    return (np.arctan(x) / np.pi + 0.5) * (np.arctan(2.0 * y) / np.pi + 0.5) * (1.0 + 0.5 * np.exp(-np.hypot(x, y)))


SKEW_GAUSS = L1Kernel(lambda x, y: np.exp(-(x**2) - 2.0 * (y - 0.5) ** 2),
                      make_interval(-4.0, 3.0, -2.0, 3.5), label="skewGauss")

NON_SEPARABLE = {
    "expRadial": (lambda: distribution("expRadial").primitive, PoissonKernelL1(0.5)),
    "edgeTerms": (lambda: CorrectedPrimitive(_edge_terms_G, "edgeTerms"), PoissonKernelL1(0.5)),
    "plain": (lambda: ClosedFormPrimitive(_plain, "plain"), PoissonKernelL1(0.5)),
    "edgeTerms-skewGauss": (lambda: CorrectedPrimitive(_edge_terms_G, "edgeTerms"), SKEW_GAUSS),
    "plain-skewGauss": (lambda: ClosedFormPrimitive(_plain, "plain"), SKEW_GAUSS),
}


def _first_level(kernel):
    px, py, W = kernel.quad_points(32)
    return px, py, W * kernel.on_grid(px, py)


def _direct_sum(F, xs, px, py, K):
    """sum over l, k of K[l, k] F(x_i - p_k, y_j - q_l), one grid node at a time."""
    P, Q = np.meshgrid(px, py)
    H = np.empty((len(xs), len(xs)))
    for j, y in enumerate(xs):
        for i, x in enumerate(xs):
            H[j, i] = math.fsum((K * np.asarray(F.eval(x - P, y - Q), dtype=float)).ravel())
    return H


@pytest.mark.parametrize("name", sorted(NON_SEPARABLE))
def test_convolved_values_match_the_direct_sum(name):
    make, kernel = NON_SEPARABLE[name]
    F = make()
    xs = axis_nodes(16)
    px, py, K = _first_level(kernel)
    H = _convolved_values(F, xs, px, py, K)
    reference = _direct_sum(F, xs, px, py, K)
    assert np.all(np.isfinite(H))
    assert np.max(np.abs(H - reference)) <= 1e-14


def test_broadcast_sum_passes_only_finite_nodes_to_the_3d_part():
    xs = axis_nodes(16)
    px, py, K = _first_level(SKEW_GAUSS)
    counts = {"finite": 0, "infinite": 0}

    def G(x, y):
        finite = np.isfinite(x) & np.isfinite(y)
        # a call is either all finite (the 3-d part) or a 1-d sum at an infinite node
        assert finite.all() or not finite.any()
        counts["finite" if finite.all() else "infinite"] += finite.size
        return _edge_terms_G(x, y)

    _broadcast_sum(G, xs, px, py, K)
    inner, ends, n = len(xs) - 2, 2, len(px)
    assert counts["finite"] == inner**2 * n * len(py)
    assert counts["infinite"] == ends * inner * (len(py) + n) + ends**2


@pytest.mark.parametrize("kernel", [PoissonKernelL1(0.5), SKEW_GAUSS], ids=lambda k: k.label)
def test_broadcast_sum_hands_eval2_a_row_and_a_column_in_cache_sized_blocks(kernel):
    # the 3-d part calls eval2 in on_grid's shape, a row of x_i - p_k ordered
    # (i, k) against a column of y_j - q_l ordered (j, l), in blocks of whole
    # kernel rows of at most 2^16 values; 32 kernel rows make 3 blocks of 9
    # and one of 5
    xs = axis_nodes(16)
    px, py, K = _first_level(kernel)
    inner = xs[1:-1]
    row = (inner[:, None] - px[None, :]).reshape(1, -1)
    columns = []

    def G(x, y):
        if np.isfinite(x).all() and np.isfinite(y).all():
            assert np.shape(x) == row.shape and np.array_equal(x, row)
            assert np.ndim(y) == 2 and np.shape(y)[1] == 1 and np.shape(y)[0] % len(inner) == 0
            assert np.size(x) * np.size(y) <= 2**16
            columns.append(np.reshape(y, (len(inner), -1)))
        return _edge_terms_G(x, y)

    _broadcast_sum(G, xs, px, py, K)
    assert [c.shape[1] for c in columns] == [9, 9, 9, 5]
    assert np.array_equal(np.concatenate(columns, axis=1), inner[:, None] - py[None, :])
    assert sum(c.size for c in columns) * row.size == len(inner) ** 2 * len(px) * len(py)


def four_d_broadcast_sum(eval2, grid_xs, px, py, K):
    """_broadcast_sum as it stood before its 3-d part took the on_grid shape.

    The 3-d part broadcast 4-d views [l, k, j, i] in blocks of kernel rows of
    about 2^18 values and contracted each block with one K-weighted sum over
    (l, k).  Only its summation order differs from today's; it is kept as the
    reference that reproduces the digests recorded under that order.
    """
    fin = np.isfinite(grid_xs)
    xs, ends = grid_xs[fin], grid_xs[~fin]
    dx = xs[None, :] - px[:, None]  # dx[k, i] = x_i - p_k
    dy = xs[None, :] - py[:, None]  # dy[l, j] = y_j - q_l
    H = np.empty((len(grid_xs), len(grid_xs)))
    H[np.ix_(fin, ~fin)] = np.tensordot(K.sum(axis=1), _eval_block(eval2, ends, dy[:, :, None]), axes=1)
    H[np.ix_(~fin, fin)] = np.tensordot(K.sum(axis=0), _eval_block(eval2, dx[:, None, :], ends[:, None]), axes=1)
    H[np.ix_(~fin, ~fin)] = _eval_block(eval2, ends, ends[:, None]) * np.sum(K)
    inner = np.zeros((len(xs), len(xs)))
    X = dx[None, :, None, :]  # axes [l, k, j, i]
    rows = max(1, 2**18 // max(1, dx.size * len(xs)))
    for start in range(0, len(py), rows):
        vals = _eval_block(eval2, X, dy[start : start + rows, None, :, None])
        inner += (K[start : start + rows].ravel() @ vals.reshape(-1, inner.size)).reshape(inner.shape)
    H[np.ix_(fin, fin)] = inner
    return H


# the benchmark's four mollifications of 16-cell step approximations at
# resolution 16, and one at resolution 64, where a chunk is one output row
MOLLIFY_CASES = [("prodArctan", 0.3, 16), ("gauss2F", 0.45, 16), ("expRadial", 0.6, 16), ("sinc2d", 0.8, 16),
                 ("prodArctan", 0.3, 64)]


@pytest.mark.parametrize("name,z,resolution", MOLLIFY_CASES)
def test_mollify_step_values_do_not_depend_on_the_chunk(monkeypatch, name, z, resolution):
    f = distribution("gauss2", which="F") if name == "gauss2F" else distribution(name)
    sigma = step_approximate(f.primitive, 16)
    default = mollify_step(sigma, z, resolution=resolution).values.tobytes()
    for chunk in (1, 2**62):  # one output row a chunk, then every row in one chunk
        monkeypatch.setattr(convolution, "_NODE_SUM_CHUNK", chunk)
        assert mollify_step(sigma, z, resolution=resolution).values.tobytes() == default


def test_nan_only_at_positive_infinity_raises():
    def G(x, y):
        return np.where(x == POS_INF, np.nan, np.exp(-np.hypot(x, y)))

    xs = axis_nodes(8)
    px, py, K = _first_level(PoissonKernelL1(0.5))
    H = _broadcast_sum(G, xs, px, py, K)
    assert np.all(np.isnan(H[:, -1])) and np.all(np.isfinite(H[:, :-1]))
    with pytest.raises(ArithmeticError):
        convolve_l1(CorrectedPrimitive(G, "nanAtInf"), PoissonKernelL1(0.5), resolution=8, max_levels=0)
    with pytest.raises(ArithmeticError):
        convolve_l1(ClosedFormPrimitive(G, "nanAtInf"), PoissonKernelL1(0.5), resolution=8, max_levels=0)
