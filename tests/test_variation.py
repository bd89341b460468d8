import math
import tracemalloc

import numpy as np
import pytest

from cpintegral import _kernels_py as kernels
from cpintegral import variation
from cpintegral.extplane import NEG_INF, POS_INF, axis_nodes, segment_nodes
from cpintegral.integral import QuadResult
from cpintegral.primitive import ClosedFormBV, catalog_bv
from cpintegral.variation import (
    VariationEstimate,
    grid_components,
    hk_norm,
    sectional_variation_sup,
    variation_1d,
    variation_trace,
    vitali_variation,
)


def _line_nodes(resolution, jumps=()):
    """The straddled partition of the extended line that variation measures on."""
    return segment_nodes(NEG_INF, POS_INF, resolution, jumps)


def test_extended_line_nodes_straddle_jumps():
    xs = _line_nodes(16, jumps=(0.3,))
    assert 0.3 in xs
    assert np.nextafter(0.3, -np.inf) in xs
    assert np.nextafter(0.3, np.inf) in xs
    assert np.all(np.diff(xs) > 0)
    assert np.array_equal(_line_nodes(16), axis_nodes(16))


def test_quadrant_indicator_norm_exact():
    est = hk_norm(catalog_bv("quadrantIndicator"))
    assert est.converged
    assert est.value == 4.0
    assert (est.sup, est.v1, est.v2, est.v12) == (1.0, 1.0, 1.0, 1.0)


def test_half_plane_norm_exact():
    est = hk_norm(catalog_bv("halfPlaneIndicator"))
    assert est.converged
    assert est.value == 2.0
    assert est.v2 == 0.0 and est.v12 == 0.0


def test_interval_indicator_norm_exact():
    est = hk_norm(catalog_bv("intervalIndicator", a=0, b=1, c=0, d=1))
    assert est.converged
    assert est.value == 9.0
    assert (est.sup, est.v1, est.v2, est.v12) == (1.0, 2.0, 2.0, 4.0)


def test_exact_at_resolution_64():
    sup, v1, v2, v12 = grid_components(catalog_bv("quadrantIndicator"), 64)
    assert (sup, v1, v2, v12) == (1.0, 1.0, 1.0, 1.0)


def test_constant_norm():
    est = hk_norm(catalog_bv("constant", c=2.5))
    assert est.value == 2.5
    assert est.v1 == est.v2 == est.v12 == 0.0


def test_monotone_1d_variation_is_endpoint_difference():
    res = variation_1d(np.arctan)
    assert res.converged
    assert abs(res.value - math.pi) < 1e-9


def test_1d_variation_with_jump():
    res = variation_1d(lambda t: (np.asarray(t) >= 0.5).astype(float), jumps=(0.5,))
    assert res.converged
    assert res.value == 1.0


def test_product_vitali_is_product_of_1d_variations():
    # for g(x, y) = u(x) u(y) with u monotone, the corner-difference sum
    # telescopes to (u(inf) - u(-inf))^2 on any grid containing +-inf
    def ramp(t):
        t = np.asarray(t, dtype=float)
        out = np.where(np.isneginf(t), 0.0, np.where(np.isposinf(t), 1.0, 0.0))
        finite = np.isfinite(t)
        out = np.where(finite, 0.5 + np.arctan(np.where(finite, t, 0.0)) / math.pi, out)
        return out

    g = ClosedFormBV(lambda x, y: ramp(x) * ramp(y), "ramp-product")
    est = vitali_variation(g)
    assert est.converged
    assert abs(est.value - 1.0) < 1e-9
    full = hk_norm(g)
    assert abs(full.value - 4.0) < 1e-9


def test_sectional_variation_axis_validation():
    g = catalog_bv("halfPlaneIndicator")
    assert sectional_variation_sup(g, 1).value == 1.0
    assert sectional_variation_sup(g, 2).value == 0.0
    with pytest.raises(ValueError):
        sectional_variation_sup(g, 3)


def test_diagonal_indicator_diverges():
    est = vitali_variation(catalog_bv("diagonalIndicator"))
    assert not est.converged


def test_values_past_the_guard_stop_after_one_level():
    # the first level's variation already exceeds GUARD, so the refinement stops there unconverged
    huge = ClosedFormBV(lambda x, y: 1e13 * np.arctan(x) * np.arctan(y), "huge")
    for est in (hk_norm(huge), vitali_variation(huge)):
        assert est.value > variation.GUARD
        assert not est.converged and len(est.trace) == 1


def test_diagonal_trace_strictly_increases():
    trace = variation_trace(catalog_bv("diagonalIndicator"), doublings=5)
    values = [row["value"] for row in trace]
    assert len(values) == 6
    assert all(b > a for a, b in zip(values, values[1:]))


def test_variation_trace_resolutions():
    trace = variation_trace(catalog_bv("quadrantIndicator"), start_resolution=32, doublings=2)
    assert [row["resolution"] for row in trace] == [32, 64, 128]
    assert all(row["value"] == 4.0 for row in trace)


def test_variation_trace_rejects_negative_doublings():
    # like the refinement driver's max_doublings: -1 would leave no level at all
    with pytest.raises(ValueError, match="must be >= 0"):
        variation_trace(catalog_bv("constant"), doublings=-1)


def test_a_variation_estimate_is_a_quad_result():
    assert issubclass(VariationEstimate, QuadResult)
    est = hk_norm(catalog_bv("quadrantIndicator"), tol=1e-3)
    assert est.as_dict() == {"value": 4.0, "errorEstimate": 0.0, "sup": 1.0, "v1": 1.0, "v2": 1.0, "v12": 1.0,
                             "resolution": 2, "converged": True, "trace": est.trace}
    assert est.trace == [{"resolution": 2, "value": 4.0}]


def _full_matrix_components(G):
    """(sup, v1, v2, v12) of a whole value matrix G[j, i] = g(x_i, y_j), each in one reduction."""
    G = np.asarray(G, dtype=float)
    sup = float(np.max(np.abs(G)))
    v1 = float(np.max(np.sum(np.abs(np.diff(G, axis=1)), axis=1)))
    v2 = float(np.max(np.sum(np.abs(np.diff(G, axis=0)), axis=0)))
    corner = G[:-1, :-1] + G[1:, 1:] - G[:-1, 1:] - G[1:, :-1]
    return sup, v1, v2, float(np.sum(np.abs(corner)))


def _grid_values(g, resolution):
    X, Y = np.meshgrid(_line_nodes(resolution, g.jump_x), _line_nodes(resolution, g.jump_y))
    return g.eval(X, Y)


def _smooth(x, y):
    return np.sin(3.0 * np.arctan(x)) * np.cos(2.0 * np.arctan(y) + np.arctan(x))


# jump nodes add straddling triples, so row and column counts are uneven
SMOOTH_BV = {
    "straddled": ClosedFormBV(_smooth, "smooth", jump_x=(0.3, 1.7), jump_y=(-0.2,)),
    "plain": ClosedFormBV(_smooth, "smooth"),
}


@pytest.mark.parametrize("name, resolution", [("straddled", 5), ("straddled", 61), ("plain", 2048)])
def test_sliced_components_match_the_full_matrix(name, resolution, monkeypatch):
    # slices of one row, and grids of one slice less one row, one slice and one
    # slice plus one row; then the default slices (2049 rows at resolution 2048)
    g = SMOOTH_BV[name]
    sup, v1, v2, v12 = _full_matrix_components(_grid_values(g, resolution))
    nx = len(_line_nodes(resolution, g.jump_x))
    ny = len(_line_nodes(resolution, g.jump_y))
    for rows in (1, ny + 1, ny, ny - 1, None):
        with monkeypatch.context() as m:
            if rows is not None:
                m.setattr(variation, "SLICE_VALUES", rows * nx)
            got = grid_components(g, resolution)
        assert got[:3] == (sup, v1, v2), rows
        assert abs(got[3] - v12) <= 1e-14 * v12, rows


@pytest.mark.parametrize("jump_y, builds", [((0.0,), 1), ((-0.0,), 2)], ids=["equal", "signed-zero"])
def test_equal_x_and_y_partitions_are_built_once(jump_y, builds, monkeypatch):
    # a jump at -0.0 gives a node -0.0 where one at 0.0 gives 0.0, and this
    # g is 2 at +0.0 but 0.5 at -0.0, so a shared partition would change v2
    step = lambda t: np.where(t == 0.0, np.where(np.signbit(t), 0.5, 2.0), np.where(t > 0.0, 1.0, 0.0))
    g = ClosedFormBV(lambda x, y: step(x) * step(y), "signedStep", jump_x=(0.0,), jump_y=jump_y)
    calls = []
    monkeypatch.setattr(variation, "segment_nodes", lambda *args: calls.append(args) or segment_nodes(*args))
    assert grid_components(g, 64) == _full_matrix_components(_grid_values(g, 64))
    assert len(calls) == builds
    assert grid_components(g, 64)[2] == (2.0 if builds == 2 else 6.0)


def test_fold_of_a_single_row():
    row = _smooth(_line_nodes(9, (0.3,)), 0.5)[None, :]
    colvar, acc = np.zeros(row.shape[1]), np.zeros(3)
    kernels.hk_fold(row, np.empty((0, row.shape[1])), colvar, acc, np.empty(3 * row.size))
    assert (acc[0], acc[1], float(np.max(colvar)), acc[2]) == _full_matrix_components(row)


def _folds(g, resolution, rows, buffer):
    """acc and colvar after folding g's grid in slices of `rows` rows, buffer(size) giving each fold's work."""
    xs, ys = _line_nodes(resolution, g.jump_x), _line_nodes(resolution, g.jump_y)
    prev, colvar, acc = np.empty((0, len(xs))), np.zeros(len(xs)), np.zeros(3)
    for start in range(0, len(ys), rows):
        G = g.on_grid(xs, ys[start : start + rows])
        kernels.hk_fold(G, prev, colvar, acc, buffer((2 * rows + 1) * len(xs)))
        prev = G[-1:]
    return acc.tobytes() + colvar.tobytes()


def test_a_fold_reads_nothing_left_in_its_buffer():
    # 7 rows a slice leave a short last slice of the 65 straddled rows
    g = SMOOTH_BV["straddled"]
    fresh = _folds(g, 61, 7, np.zeros)
    assert _folds(g, 61, 7, lambda size: np.full(size, np.nan)) == fresh
    dirty = np.full((2 * 7 + 1) * len(_line_nodes(61, g.jump_x)), np.nan)
    assert _folds(g, 61, 7, lambda size: dirty) == fresh


def test_sliced_components_at_resolution_4096_match_the_full_matrix():
    # about 15 rows of 4103 values a slice: 274 slices; the matrix is built in
    # row blocks so that only the reference holds all 16.8M values
    g = SMOOTH_BV["straddled"]
    xs, ys = _line_nodes(4096, g.jump_x), _line_nodes(4096, g.jump_y)
    G = np.empty((len(ys), len(xs)))
    for start in range(0, len(ys), 256):
        G[start : start + 256] = g.on_grid(xs, ys[start : start + 256])
    sup, v1, v2, v12 = _full_matrix_components(G)
    del G
    got = grid_components(g, 4096)
    assert got[:3] == (sup, v1, v2)
    assert abs(got[3] - v12) <= 1e-14 * v12


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here")
@pytest.mark.parametrize("name", sorted(SMOOTH_BV))
def test_vitali_sum_is_no_farther_from_a_long_double_sum_than_the_four_term_sum(name):
    g = SMOOTH_BV[name]
    G = _grid_values(g, 2048)
    four_term = _full_matrix_components(G)[3]
    L = G.astype(np.longdouble)
    exact = np.sum(np.abs(L[:-1, :-1] + L[1:, 1:] - L[:-1, 1:] - L[1:, :-1]))
    assert abs(grid_components(g, 2048)[3] - exact) <= abs(four_term - exact)


def test_a_level_allocates_at_most_five_slices():
    g = catalog_bv("diagonalIndicator")
    grid_components(g, 2048)  # the partition table is built once per process
    tracemalloc.start()
    try:
        grid_components(g, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * variation.SLICE_VALUES


def test_sliced_components_of_a_nan_value_are_nan():
    g = ClosedFormBV(lambda x, y: np.where((x == 0.0) & (y > 1.0), np.nan, _smooth(x, y)), "nanAtZero")
    assert all(np.isnan(grid_components(g, 512)))
    with pytest.raises(ArithmeticError):
        hk_norm(g, start_resolution=512, max_doublings=0)


def test_diagonal_trace_matches_the_full_matrix_bit_for_bit():
    g = catalog_bv("diagonalIndicator")
    for row in variation_trace(g, start_resolution=64, doublings=5):
        sup, v1, v2, v12 = _full_matrix_components(_grid_values(g, row["resolution"]))
        assert grid_components(g, row["resolution"]) == (sup, v1, v2, v12)
        assert (row["value"], row["v12"]) == (sup + v1 + v2 + v12, v12)
