import itertools
import math

import numpy as np
import pytest

from cpintegral.extplane import FULL_PLANE, NEG_INF, POS_INF, axis_nodes, make_interval
from cpintegral.integral import (
    IntervalND,
    _interval_sweep,
    alexiewicz_norm,
    corner_integral,
    corner_integral_nd,
    cumulative,
    ftc_residual,
    improper_example,
    iterated_consistency,
    norm_dual,
    norm_prime,
    total_integral,
    xpowy_corner_probes,
)
from cpintegral.primitive import CATALOG_PRIMITIVES, catalog_bv, catalog_primitive, distribution


def test_total_integral_prod_arctan():
    assert total_integral(distribution("prodArctan")) == 1.0


def test_corner_integral_quarter_plane():
    f = distribution("prodArctan")
    assert abs(corner_integral(f, make_interval(0, POS_INF, 0, POS_INF)) - 0.25) < 1e-15


def test_degenerate_interval_is_zero():
    f = distribution("prodArctan")
    assert corner_integral(f, make_interval(1, 1, 0, 5)) == 0.0


def test_reversed_limits_flip_sign():
    f = distribution("expRadial")
    iv = make_interval(-1, 2, 0, 3)
    rv = make_interval(2, -1, 0, 3)
    assert corner_integral(f, rv) == -corner_integral(f, iv)
    both = make_interval(2, -1, 3, 0)
    assert corner_integral(f, both) == corner_integral(f, iv)


def test_interval_additivity():
    f = distribution("gauss2")
    whole = corner_integral(f, make_interval(-2, 3, -1, 4))
    left = corner_integral(f, make_interval(-2, 0.5, -1, 4))
    right = corner_integral(f, make_interval(0.5, 3, -1, 4))
    assert abs(whole - (left + right)) < 1e-12


def test_cumulative_equals_primitive():
    f = distribution("prodArctan")
    F = f.primitive
    for x, y in [(0.0, 0.0), (1.5, -2.0), (POS_INF, 3.0)]:
        assert cumulative(f, x, y) == F(x, y)


@pytest.mark.parametrize("n,expected", [(1, 2.0), (2, 1.0), (4, 0.5), (8, 0.25)])
def test_alexiewicz_norm_sine_strip(n, expected):
    res = alexiewicz_norm(distribution("sineStrip", n=n), tol=1e-3,
                          start_resolution=256, max_doublings=3)
    assert res.converged
    assert res.resolution <= 2048
    assert abs(res.value - expected) < 1e-3


def test_alexiewicz_norm_prod_arctan():
    res = alexiewicz_norm(distribution("prodArctan"))
    assert res.converged and res.value == 1.0


def test_norm_prime_brute_force_oracle():
    f = distribution("gauss2")
    xs = axis_nodes(8)
    X, Y = np.meshgrid(xs, xs)
    G = np.asarray(f.primitive.eval(X, Y))
    n = len(xs)
    brute = 0.0
    for i, j in itertools.combinations(range(n), 2):
        for k, l in itertools.combinations(range(n), 2):
            brute = max(brute, abs(G[k, i] + G[l, j] - G[k, j] - G[l, i]))
    res = norm_prime(f, start_resolution=8, max_doublings=0)
    assert abs(res.value - brute) < 1e-12


def test_interval_sweep_brute_force_on_random_grids():
    rng = np.random.default_rng(3)
    for shape in ((2, 2), (5, 7), (8, 4)):
        for _ in range(5):
            G = rng.standard_normal(shape)
            brute = max(
                abs(G[k, i] + G[l, j] - G[k, j] - G[l, i])
                for i, j in itertools.combinations(range(shape[1]), 2)
                for k, l in itertools.combinations(range(shape[0]), 2)
            )
            assert abs(_interval_sweep(G) - brute) < 1e-12


def test_norm_sandwich():
    for name in ("prodArctan", "expRadial", "gauss2"):
        f = distribution(name)
        r = 128
        a = alexiewicz_norm(f, start_resolution=r, max_doublings=0).value
        p = norm_prime(f, start_resolution=r, max_doublings=0).value
        d = norm_dual(f, start_resolution=r, max_doublings=0).value
        # on a shared grid the sandwich inequalities hold exactly
        assert a <= p + 1e-12 <= 4 * a + 1e-9
        assert a / 4 <= d + 1e-12 <= a + 1e-12


def test_norm_dual_with_probes():
    f = distribution("prodArctan")
    probes = [catalog_bv("quadrantIndicator"), catalog_bv("intervalIndicator", a=-1, b=1, c=-1, d=1)]
    res = norm_dual(f, probes=probes)
    assert res.converged
    a = alexiewicz_norm(f).value
    assert 0.0 < res.value <= a + 1e-9


@pytest.mark.parametrize("name", CATALOG_PRIMITIVES)
def test_ftc_residual_within_4_ulp(name):
    assert ftc_residual(distribution(name), resolution=64) <= 4.0


def test_iterated_consistency_telescopes():
    f = distribution("expRadial")
    rep = iterated_consistency(f, make_interval(-1, 2, -3, 4))
    assert rep["maxDiscrepancy"] < 1e-12
    rep_inf = iterated_consistency(f, FULL_PLANE)
    assert rep_inf["maxDiscrepancy"] < 1e-12


def test_improper_xpowy_both_orders_vanish():
    for order in ("dyFirst", "dxFirst"):
        res = improper_example("xPowY", order)
        assert abs(res.value) <= 1e-6, (order, res.value)


def test_improper_arctanxy_order_dependent():
    dy = improper_example("arctanXY", "dyFirst")
    dx = improper_example("arctanXY", "dxFirst")
    assert abs(dy.value - math.pi) <= 1e-3
    assert abs(dx.value) <= 1e-6


def test_improper_rejects_bad_names():
    with pytest.raises(ValueError):
        improper_example("nope", "dyFirst")
    with pytest.raises(ValueError):
        improper_example("xPowY", "sideways")


def test_xpowy_corner_probes():
    probes = xpowy_corner_probes()
    assert abs(probes["cInnermost"]) <= 1e-2
    assert abs(probes["aInnermost"] + 1.0) <= 1e-2


def test_nd_corner_matches_2d():
    F2 = catalog_primitive("prodArctan")
    iv = make_interval(-1, 2, 0, 5)
    box = IntervalND((-1.0, 0.0), (2.0, 5.0))
    nd = corner_integral_nd(lambda x, y: float(F2(x, y)), box)
    assert abs(nd - corner_integral(distribution("prodArctan"), iv)) < 1e-12


def test_nd_corner_n3_against_direct_sum():
    def ramp(t):
        if t == POS_INF:
            return 1.0
        if t == NEG_INF:
            return 0.0
        return 0.5 + math.atan(t) / math.pi

    def F(*coords):
        out = 1.0
        for c in coords:
            out *= ramp(c)
        return out

    lower, upper = (0.0, 0.0, 0.0), (POS_INF, POS_INF, POS_INF)
    box = IntervalND(lower, upper)
    value = corner_integral_nd(F, box)

    oracle = 0.0
    for choice in itertools.product((0, 1), repeat=3):
        corner = [lower[i] if c == 0 else upper[i] for i, c in enumerate(choice)]
        sign = 1.0 if choice.count(0) % 2 == 0 else -1.0
        oracle += sign * F(*corner)
    assert oracle == pytest.approx(0.125, abs=1e-15)
    assert abs(value - oracle) <= 4 * np.spacing(0.125)
