import math

import numpy as np
import pytest

from cpintegral import stieltjes
from cpintegral.convolution import StepFunction2
from cpintegral.extplane import (FULL_PLANE, NEG_INF, POS_INF, Grid2, axis_nodes, cell_tags, make_interval, partition,
                                 segment_nodes)
from cpintegral.integral import corner_integral
from cpintegral.operators import lattice_join
from cpintegral.primitive import (
    ClosedFormBV,
    ProductBV,
    approx_identity,
    catalog_bv,
    catalog_primitive,
    distribution,
    translate_reflect_bv,
    validate_primitive,
)
from cpintegral.stieltjes import (
    OVERSAMPLE,
    _nine_term_sum,
    gdf_identity_check,
    integrate_product,
    mean_value_point,
    parts_primitive,
    rs_line_integral,
    rs_line_section,
    rs_plane_integral,
)


def test_segment_nodes_include_jumps():
    xs = segment_nodes(NEG_INF, POS_INF, 32, jumps=(0.25,))
    assert xs[0] == NEG_INF and xs[-1] == POS_INF
    assert 0.25 in xs
    assert np.all(np.diff(xs) > 0)


def test_cell_tags_boundary_cells():
    xs = segment_nodes(0.0, 1.0, 8)
    tags = cell_tags(xs)
    assert len(tags) == len(xs) - 1
    assert tags[0] == xs[0] and tags[-1] == xs[-1]


def test_line_integral_constant_integrand():
    # integrating 1 against g recovers g(b) - g(a)
    res = rs_line_integral(lambda t: np.ones(np.shape(t)), np.arctan, NEG_INF, POS_INF)
    assert res.converged
    assert abs(res.value - math.pi) < 1e-9


def test_line_integral_against_step():
    # d g concentrates at the jump, so the integral picks up phi there
    def step(t):
        return (np.asarray(t, dtype=float) >= 0.3).astype(float)

    res = rs_line_integral(lambda t: np.asarray(t, dtype=float) ** 2, step, 0.0, 1.0,
                           jumps=(0.3,))
    assert res.converged
    assert abs(res.value - 0.09) < 1e-9


def test_product_with_constant_one_is_corner_integral():
    f = distribution("prodArctan")
    res = integrate_product(f, catalog_bv("constant", c=1.0))
    assert abs(res.value - 1.0) < 1e-9


def test_interval_indicator_recovers_corner_integral():
    f = distribution("expRadial")
    iv = make_interval(-1.5, 2.0, -0.5, 1.0)
    g = catalog_bv("intervalIndicator", interval=iv)
    res = integrate_product(f, g)
    assert res.converged
    assert abs(res.value - corner_integral(f, iv)) <= 1e-6


def test_parts_primitive_validates_and_matches_total():
    f = distribution("prodArctan")
    g = catalog_bv("approxIdentity", n=2)
    prim = parts_primitive(f, g)
    assert validate_primitive(prim)["passed"]
    total = prim(POS_INF, POS_INF)
    direct = integrate_product(f, g).value
    assert abs(total - direct) < 1e-3


def test_gdf_identity_plus_inf_mode():
    f = distribution("prodArctan")
    g = catalog_bv("quadrantIndicator", x=0.5, y=-0.25)
    rep = gdf_identity_check(f, g)
    assert rep["mode"] == "vanishesAtPlusInf"
    assert "fAgainstDG" in rep
    assert rep["maxDiscrepancy"] <= 1e-6


def test_gdf_identity_minus_inf_mode():
    f = distribution("prodArctan")
    g = catalog_bv("approxIdentity", n=4)
    rep = gdf_identity_check(f, g)
    assert rep["mode"] == "vanishesAtMinusInf"
    assert "fAgainstDG" not in rep
    assert rep["maxDiscrepancy"] <= 1e-6


def test_gdf_identity_rejects_nonvanishing_multiplier():
    with pytest.raises(ValueError):
        gdf_identity_check(distribution("prodArctan"), catalog_bv("constant", c=1.0))


def test_mean_value_point():
    f = distribution("prodArctan")
    g = catalog_bv("approxIdentity", n=4)
    rep = mean_value_point(f, g, tol=1e-3)
    assert rep["residual"] <= 1e-3
    assert 0.0 <= rep["ratio"] <= 1.0
    # the returned point realizes the ratio through the primitive
    assert abs(f.primitive(rep["xi"], rep["eta"]) - rep["ratio"]) <= 1e-3


@pytest.mark.parametrize("g, tol, message", [
    (ClosedFormBV(lambda x, y: -((x > 0) & (y > 0)).astype(float), "negQuadrant", (0.0,), (0.0,)), 1e-3,
     "negative corner differences"),
    (catalog_bv("constant", c=1.0), 1e-3, "zero total corner mass"),
    (catalog_bv("quadrantIndicator", x=0.123, y=0.456), 1e-13, "no grid node matches"),
], ids=["decreasing", "constant", "no-node"])
def test_mean_value_point_rejects_what_it_cannot_place(g, tol, message):
    with pytest.raises(ValueError, match=message):
        mean_value_point(catalog_primitive("prodArctan"), g, tol=tol)


def test_unconverged_product_reports_last_increment():
    res = integrate_product(distribution("sinc2d"), approx_identity(1), tol=1e-6)
    assert not res.converged
    assert res.error_estimate == abs(res.trace[-1]["value"] - res.trace[-2]["value"])
    assert res.error_estimate >= 1e-6


def test_unconverged_line_integral_reports_last_increment():
    res = rs_line_integral(lambda t: np.exp(-np.abs(t)), np.arctan, NEG_INF, POS_INF, tol=1e-15, max_doublings=2)
    assert not res.converged
    assert res.error_estimate == abs(res.trace[-1]["value"] - res.trace[-2]["value"]) > 0


@pytest.mark.xfail(strict=True, reason="stops at resolution 64 when both coarse levels miss the ramp")
def test_product_does_not_stop_on_a_straddled_ramp():
    # the ramp of approxIdentity(8) lies between chart nodes at resolutions
    # 32 and 64, so both levels agree exactly and the refinement stops
    # there, 2.0e-4 from the exact value
    res = integrate_product(distribution("prodArctan"), approx_identity(8), tol=1e-6)
    assert abs(res.value - 0.9172787112) <= 1e-6


def _line_sum(t, g):
    return float(np.sum(t * np.diff(g)))


def _nine_term_reference(F, g, interval, resolution):
    """The nine-term by-parts sum from scalar corner values, four line
    sections and a meshgrid of the plane term."""
    a, b, c, d = interval.a, interval.b, interval.c, interval.d
    xs = segment_nodes(a, b, resolution, g.jump_x)
    ys = segment_nodes(c, d, resolution, g.jump_y)
    tx = cell_tags(xs)
    ty = cell_tags(ys)
    total = F(a, c) * g(a, c) + F(b, d) * g(b, d) - F(a, d) * g(a, d) - F(b, c) * g(b, c)

    def line_x(level, sign):
        return sign * _line_sum(F.eval(tx, np.full(tx.shape, level)), g.eval(xs, np.full(xs.shape, level)))

    def line_y(level, sign):
        return sign * _line_sum(F.eval(np.full(ty.shape, level), ty), g.eval(np.full(ys.shape, level), ys))

    total += line_x(d, -1.0) + line_x(c, 1.0) + line_y(b, -1.0) + line_y(a, 1.0)
    T = F.eval(*np.meshgrid(tx, ty))
    G = np.asarray(g.eval(*np.meshgrid(xs, ys)), dtype=float)
    total += float(np.sum(T * (G[:-1, :-1] + G[1:, 1:] - G[:-1, 1:] - G[1:, :-1])))
    return total


def nine_term_rounding_bound(F, g, interval, resolution):
    """eps times the sum of |F(tag) g(node)| over the products that the
    nine-term sum adds, with its corner and line differences written out.
    The one-term sum adds the same products, regrouped by Abel summation,
    so a rounding gap between it and _nine_term_reference is within this
    unit of rounding at the scale of the terms."""
    xs = segment_nodes(interval.a, interval.b, resolution, g.jump_x)
    ys = segment_nodes(interval.c, interval.d, resolution, g.jump_y)
    T = np.abs(F.on_grid(cell_tags(xs), cell_tags(ys)))
    G = np.abs(g.on_grid(xs, ys))

    def ends(v):  # |g| at the two ends of each cell along the last axis
        return v[..., :-1] + v[..., 1:]

    total = np.sum(T * ends(ends(G).T).T)
    for k in (0, -1):
        total += np.sum(T[k] * ends(G[k])) + np.sum(T[:, k] * ends(G[:, k]))
        total += T[k, 0] * G[k, 0] + T[k, -1] * G[k, -1]
    return np.finfo(float).eps * float(total)


def _parts_reference(F, g, resolution):
    """parts_primitive with its line sums taken one coarse row and one
    coarse column at a time."""
    grid = Grid2(resolution)
    xs = segment_nodes(NEG_INF, POS_INF, resolution * OVERSAMPLE, g.jump_x)
    ys = segment_nodes(NEG_INF, POS_INF, resolution * OVERSAMPLE, g.jump_y)
    tx = cell_tags(xs)
    ty = cell_tags(ys)
    ix = np.searchsorted(xs, grid.xs)
    iy = np.searchsorted(ys, grid.ys)
    G = np.asarray(g.eval(*np.meshgrid(xs, ys)), dtype=float)
    corner = G[:-1, :-1] + G[1:, 1:] - G[:-1, 1:] - G[1:, :-1]
    plane_cum = np.zeros((len(ys), len(xs)))
    plane_cum[1:, 1:] = np.cumsum(np.cumsum(F.eval(*np.meshgrid(tx, ty)) * corner, axis=0), axis=1)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    FG = F.eval(X, Y) * g.eval(X, Y)
    line1 = np.zeros((len(grid.ys), len(grid.xs)))
    for jj, yv in enumerate(grid.ys):
        phi = F.eval(tx, np.full(tx.shape, yv))
        gl = g.eval(xs, np.full(xs.shape, yv))
        line1[jj] = np.concatenate([[0.0], np.cumsum(phi * np.diff(gl))])[ix]
    line2 = np.zeros((len(grid.ys), len(grid.xs)))
    for ii, xv in enumerate(grid.xs):
        phi = F.eval(np.full(ty.shape, xv), ty)
        gl = g.eval(np.full(ys.shape, xv), ys)
        line2[:, ii] = np.concatenate([[0.0], np.cumsum(phi * np.diff(gl))])[iy]
    values = FG - line1 - line2 + plane_cum[np.ix_(iy, ix)]
    values[0, :] = 0.0
    values[:, 0] = 0.0
    return values


BY_PARTS_PRIMITIVES = {
    "expRadial": lambda: catalog_primitive("expRadial"),
    "boundaryBuild": lambda: catalog_primitive("boundaryBuild"),
    "latticeJoin": lambda: lattice_join(catalog_primitive("expRadial"), catalog_primitive("gauss2", which="G")),
    "prodArctan": lambda: catalog_primitive("prodArctan"),
}
BY_PARTS_MULTIPLIERS = {
    "diagonalIndicator": lambda: catalog_bv("diagonalIndicator"),
    "reflectedClosedForm": lambda: ClosedFormBV(translate_reflect_bv(approx_identity(2), 1.0, -0.5).eval,
                                                "reflected", (-1.0, 3.0), (-2.5, 1.5)),
    "gridConstant": lambda grid=Grid2(4): StepFunction2(grid.xs, grid.ys,
                                                        np.arange(16.0).reshape(4, 4) - 5.5),
    "approxIdentity": lambda: approx_identity(3),
}
BY_PARTS_INTERVALS = {
    "full": FULL_PLANE,
    "halfInfinite": make_interval(NEG_INF, 0.5, 0.0, POS_INF),
    "swapped": make_interval(2.0, -1.0, 1.5, -0.5),
}


# every pair but prodArctan x approxIdentity, which takes the factored path
GENERIC_PAIRS = [(f_key, g_key) for f_key in BY_PARTS_PRIMITIVES for g_key in BY_PARTS_MULTIPLIERS
                 if (f_key, g_key) != ("prodArctan", "approxIdentity")]


@pytest.mark.parametrize("f_key,g_key", GENERIC_PAIRS, ids=["-".join(pair) for pair in GENERIC_PAIRS])
def test_nine_term_sum_matches_the_line_section_formula(f_key, g_key):
    # the one-term sum, g zeroed on the boundary nodes against F at the tags,
    # is the nine-term sum of separate scalar, line and plane evaluations
    # regrouped, so the two differ by rounding only
    F = BY_PARTS_PRIMITIVES[f_key]()
    g = BY_PARTS_MULTIPLIERS[g_key]()
    for interval in BY_PARTS_INTERVALS.values():
        for resolution in (32, 128):
            gap = abs(_nine_term_sum(F, g, interval, resolution) - _nine_term_reference(F, g, interval, resolution))
            assert gap <= nine_term_rounding_bound(F, g, interval, resolution)
    swapped = BY_PARTS_INTERVALS["swapped"]
    assert swapped.sign == 1 and (swapped.a, swapped.c) == (-1.0, -0.5)
    # a step multiplier is paired by the corner formula, so its by-parts sum is refined through a wrapper
    h = ClosedFormBV(g.eval, g.label, g.jump_x, g.jump_y) if isinstance(g, StepFunction2) else g
    res = integrate_product(F, h, make_interval(2.0, -1.0, -0.5, 1.5), tol=1e-6, max_doublings=1)
    gap = abs(res.value + _nine_term_reference(F, g, swapped, res.resolution))
    assert gap <= nine_term_rounding_bound(F, g, swapped, res.resolution)


def signed_step(t):
    """0 below 0 and 1 above, but 2 at +0.0 and 0.5 at -0.0: the sign of a zero node shows in every sum."""
    return np.where(t == 0.0, np.where(np.signbit(t), 0.5, 2.0), np.where(t > 0.0, 1.0, 0.0))


@pytest.mark.parametrize("jump_y, builds", [((0.0,), 1), ((-0.0,), 2)], ids=["equal", "signed-zero"])
def test_equal_x_and_y_partitions_are_built_once(jump_y, builds, monkeypatch):
    # y shares x's partition only when its sides and jumps agree bit for bit:
    # jumps at 0.0 and -0.0 compare equal but give nodes with different zeros
    F = distribution("prodArctan").primitive
    g = ClosedFormBV(lambda x, y: signed_step(x) * signed_step(y), "signedStep", jump_x=(0.0,), jump_y=jump_y)
    calls = []
    monkeypatch.setattr(stieltjes, "partition", lambda *args: calls.append(args) or partition(*args))
    # on the finite interval the sides differ, so y is always built
    for interval, resolution, count in ((FULL_PLANE, 32, builds), (FULL_PLANE, 64, builds),
                                        (make_interval(-1.0, 2.0, -1.0, 1.0), 32, 2)):
        calls.clear()
        gap = abs(_nine_term_sum(F, g, interval, resolution) - _nine_term_reference(F, g, interval, resolution))
        assert gap <= nine_term_rounding_bound(F, g, interval, resolution)
        assert len(calls) == count
        # one level of the plane integral builds the same partitions
        calls.clear()
        res = rs_plane_integral(F, g, interval, start_resolution=resolution, max_doublings=0)
        assert len(calls) == count and res.resolution == resolution
    # the by-parts primitive builds the fine partition of the whole plane
    calls.clear()
    parts_primitive(F, g, 16)
    assert len(calls) == builds and {args[2] for args in calls} == {16 * OVERSAMPLE}


def readonly_arctan(t):
    """arctan as a read-only broadcast view, as a closed form may return it."""
    return np.broadcast_to(np.arctan(t), np.shape(t))


READONLY_MULTIPLIERS = {
    "product": ProductBV(readonly_arctan, readonly_arctan, "readonlyFactors"),
    "closedForm": ClosedFormBV(lambda x, y: np.broadcast_to(np.arctan(x) * np.tanh(y), np.broadcast(x, y).shape),
                               "readonlyValues"),
    "aliased": ProductBV(lambda t: t, readonly_arctan, "aliasedFactor"),
}
FINITE = make_interval(-1.0, 2.0, -0.5, 1.5)
# the aliased factor t is unbounded on the whole line
READONLY_CASES = [("product", FULL_PLANE), ("closedForm", FULL_PLANE),
                  ("product", FINITE), ("closedForm", FINITE), ("aliased", FINITE)]


@pytest.mark.parametrize("g_key, interval", READONLY_CASES,
                         ids=[f"{g_key}-{'full' if iv is FULL_PLANE else 'finite'}" for g_key, iv in READONLY_CASES])
def test_zero_ring_leaves_the_multiplier_values_alone(g_key, interval):
    # without jumps the whole line's nodes are the read-only table of
    # axis_nodes; values that are read-only views, or the nodes themselves,
    # are padded into fresh arrays, never written into
    g = READONLY_MULTIPLIERS[g_key]
    nodes = axis_nodes(32).copy()
    for F in (catalog_primitive("prodArctan"), catalog_primitive("expRadial")):
        gap = abs(_nine_term_sum(F, g, interval, 32) - _nine_term_reference(F, g, interval, 32))
        assert gap <= nine_term_rounding_bound(F, g, interval, 32)
    assert axis_nodes(32).tobytes() == nodes.tobytes()


@pytest.mark.parametrize("g_key", BY_PARTS_MULTIPLIERS)
@pytest.mark.parametrize("f_key", BY_PARTS_PRIMITIVES)
def test_parts_primitive_matches_the_per_row_sums(f_key, g_key):
    F = BY_PARTS_PRIMITIVES[f_key]()
    g = BY_PARTS_MULTIPLIERS[g_key]()
    for resolution in (16, 64):
        values = parts_primitive(F, g, resolution).values
        assert values.tobytes() == _parts_reference(F, g, resolution).tobytes()


def test_line_section_of_a_quadrant_indicator_is_its_jump():
    # g(., y) drops from 1 to 0 at x = 0.3 for y < -1, and g(x, .) at y = -1
    # for x < 0.3, so each section integral is -F at the jump
    F = catalog_primitive("prodArctan")
    g = catalog_bv("quadrantIndicator", x=0.3, y=-1.0)
    along_x = rs_line_section(F, g, 1, -2.0, NEG_INF, POS_INF)
    along_y = rs_line_section(F, g, 2, 0.1, NEG_INF, POS_INF)
    assert along_x.converged and along_y.converged
    assert abs(along_x.value + F(0.3, -2.0)) <= 1e-12
    assert abs(along_y.value + F(0.1, -1.0)) <= 1e-12
    # a raw callable is taken as a ClosedFormBV, as in rs_plane_integral
    assert rs_line_section(F.eval, g, 1, -2.0, NEG_INF, POS_INF) == along_x
    with pytest.raises(ValueError, match="axis must be 1 or 2"):
        rs_line_section(F, g, 3, 0.0, NEG_INF, POS_INF)
