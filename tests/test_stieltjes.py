import math

import numpy as np
import pytest

from cpintegral.extplane import FULL_PLANE, NEG_INF, POS_INF, make_interval
from cpintegral.integral import corner_integral
from cpintegral.primitive import approx_identity, catalog_bv, distribution, validate_primitive
from cpintegral.stieltjes import (
    cell_tags,
    gdf_identity_check,
    integrate_product,
    mean_value_point,
    parts_primitive,
    rs_line_integral,
    segment_nodes,
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
    assert abs(f.F(rep["xi"], rep["eta"]) - rep["ratio"]) <= 1e-3


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
