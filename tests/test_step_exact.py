"""Step multipliers are paired and normed exactly, with no refinement.

A step multiplier (a StepFunction2: the catalog's indicators and constant,
step_approximate and the reflection of either) is a table of its values
between sorted breakpoints, so it is a finite sum of interval indicators.
Its pairing with any f is the corner formula F(a, c) + F(b, d) - F(a, d) -
F(b, c) summed over its cells, and its Hardy-Krause norm is a finite sum of
its jumps and its largest |value|.  integrate_product, convolve_bv, hk_norm,
vitali_variation and sectional_variation_sup read them from the table and
report them as one converged level of resolution 2 with errorEstimate 0.
The oracle table checks every catalog primitive against seeded step
multipliers; the guard runs every step multiplier with the refinement driver
switched off.
"""

import math
import random

import numpy as np
import pytest

from cpintegral import integral, primitive, stieltjes, suites, variation
from cpintegral.convolution import StepFunction2, convolve_bv, step_approximate
from cpintegral.extplane import FULL_PLANE, NEG_INF, POS_INF, make_interval
from cpintegral.integral import corner_integral
from cpintegral.primitive import (
    CATALOG_PRIMITIVES,
    ClosedFormBV,
    ProductBV,
    catalog_bv,
    catalog_primitive,
    translate_reflect_bv,
)
from cpintegral.stieltjes import integrate_product
from cpintegral.variation import hk_norm, sectional_variation_sup, vitali_variation

inf = math.inf
SEEDS = (1, 2, 3)
# |value - corner formula| <= GAP max(1, |corner formula|): the pairing sums
# the same F values as the formula, in another order.  The largest gap in
# the table is 1.0e-15 (weier2d against the step function).  The straddled
# level of resolution 2 that paired step multipliers before they were
# tables took F at tags within an ulp of the jump lines, which left 8.4e-15
# there (oscill, whose factor has slope about 4 t^-3, against seed 1's
# interval); two refined levels at resolution 64 left the same gap, and up
# to 2.7e-14 against the step function
GAP = 1e-14


def corner(F, a, b, c, d):
    return corner_integral(F, make_interval(a, b, c, d))


def seeded_multipliers(seed):
    """[(kind, params, exact pairing of F, exact ||g||_bv)] of one seed's quadrant,
    interval, half-plane and constant multiplier."""
    rng = random.Random(seed)
    x, y = round(rng.uniform(-3, 3), 4), round(rng.uniform(-3, 3), 4)
    a, b = sorted(round(rng.uniform(-4, 4), 4) for _ in range(2))
    c, d = sorted(round(rng.uniform(-4, 4), 4) for _ in range(2))
    k = round(rng.choice((-1, 1)) * rng.uniform(0.25, 2), 4)
    return [
        ("quadrantIndicator", {"x": x, "y": y}, lambda F: corner(F, -inf, x, -inf, y), 4.0),
        ("intervalIndicator", {"a": a, "b": b, "c": c, "d": d}, lambda F: corner(F, a, b, c, d), 9.0),
        ("halfPlaneIndicator", {}, lambda F: corner(F, 0.0, inf, -inf, inf), 2.0),
        ("constant", {"c": k}, lambda F: k * corner(F, -inf, inf, -inf, inf), abs(k)),
    ]


def assert_exact(res, exact, gap=GAP):
    assert (res.resolution, res.error_estimate, res.converged, len(res.trace)) == (2, 0.0, True, 1)
    assert abs(res.value - exact) <= gap * max(1.0, abs(exact)), (res.value, exact)


def test_catalog_step_multipliers_are_step_multipliers():
    # one step class: no step factors, no is_step flag, no straddled exact level
    for gone in ("StepFactor", "_reflected"):
        assert not hasattr(primitive, gone)
    assert not hasattr(integral, "_exact")
    for cls in (primitive.PlaneFunction, primitive.BVFunction, ProductBV, StepFunction2):
        assert not hasattr(cls, "is_step"), cls.__name__
    assert primitive.StepFunction2 is StepFunction2
    steps = [catalog_bv(name, **params) for seed in SEEDS for name, params, _, _ in seeded_multipliers(seed)]
    steps.append(step_approximate(catalog_primitive("expRadial"), 4))
    steps += [translate_reflect_bv(g, 1.0, 2.0) for g in list(steps)]
    for g in steps:
        assert type(g) is StepFunction2, g.label
    # declared by type, never guessed from values
    for g in (catalog_bv("approxIdentity"), catalog_bv("diagonalIndicator"),
              ClosedFormBV(catalog_bv("quadrantIndicator").eval, "wrapped", (0.0,), (0.0,)),
              ProductBV(lambda t: np.where(np.asarray(t) >= 0.0, 1.0, 0.0), lambda t: np.ones(np.shape(t)))):
        assert not isinstance(g, StepFunction2), g.label


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CATALOG_PRIMITIVES)
def test_catalog_primitives_against_seeded_step_multipliers(name, seed):
    F = catalog_primitive(name)
    for kind, params, exact, norm in seeded_multipliers(seed):
        g = catalog_bv(kind, **params)
        assert_exact(integrate_product(F, g), exact(F))
        est = hk_norm(g)
        assert_exact(est, norm, gap=0.0)
        assert est.value == est.sup + est.v1 + est.v2 + est.v12


def test_step_multipliers_over_finite_and_reversed_intervals():
    F = catalog_primitive("expRadial")
    g = catalog_bv("intervalIndicator", a=-1.5, b=0.25, c=-0.5, d=2.0)
    for (a, b, c, d), clipped in (((-1.0, 2.0, -inf, 1.5), (-1.0, 0.25, -0.5, 1.5)),
                                  ((2.0, -1.0, -0.5, 1.5), (-1.0, 0.25, -0.5, 1.5)),
                                  ((0.5, 3.0, 0.0, 1.0), None)):
        iv = make_interval(a, b, c, d)
        exact = 0.0 if clipped is None else iv.sign * corner(F, *clipped)
        assert_exact(integrate_product(F, g, iv), exact)


def _padded(sigma):
    """sigma's cell values with the zero row and column it takes at -inf."""
    return np.pad(sigma.values, ((1, 0), (1, 0)))


def _step_function_hk(sigma):
    V = _padded(sigma)
    corners = V[1:, 1:] + V[:-1, :-1] - V[1:, :-1] - V[:-1, 1:]
    return (float(np.max(np.abs(V))) + float(np.max(np.sum(np.abs(np.diff(V, axis=1)), axis=1)))
            + float(np.max(np.sum(np.abs(np.diff(V, axis=0)), axis=0))) + float(np.sum(np.abs(corners))))


def _step_function_pairing(F, sigma):
    """The corner formula summed over sigma's cells (p_{i-1}, p_i] x (q_{j-1}, q_j]."""
    p, q = sigma.nodes_x, sigma.nodes_y
    return sum(float(sigma.values[j, i]) * corner(F, p[i], p[i + 1], q[j], q[j + 1])
               for j in range(len(q) - 1) for i in range(len(p) - 1))


@pytest.mark.parametrize("name", CATALOG_PRIMITIVES)
def test_catalog_primitives_against_a_step_function(name):
    F = catalog_primitive(name)
    sigma = step_approximate(catalog_primitive("expRadial"), 8)
    assert_exact(integrate_product(F, sigma), _step_function_pairing(F, sigma))
    est = hk_norm(sigma)
    assert_exact(est, _step_function_hk(sigma), gap=1e-15)


@pytest.mark.parametrize("name", CATALOG_PRIMITIVES)
def test_catalog_primitives_against_a_reflected_quadrant(name):
    # f * g at p pairs f with g(p - s): the quadrant [-inf, x0) x [-inf, y0)
    # reflects to (px - x0, inf] x (py - y0, inf]
    F = catalog_primitive(name)
    x0, y0 = 0.75, -1.25
    g = catalog_bv("quadrantIndicator", x=x0, y=y0)
    for px, py in ((-1.0, 0.3), (2.5, 1.5), (0.75, -1.25)):
        assert_exact(convolve_bv(F, g, (px, py)), corner(F, px - x0, inf, py - y0, inf))
        assert_exact(hk_norm(translate_reflect_bv(g, px, py)), 4.0, gap=0.0)


def test_a_reflected_jump_is_where_its_line_is_declared():
    # about (0.5, 0.5) the quadrant's jump at 1 reflects to the line -0.5,
    # and 0.5 - s rounds to 1 at both straddle nodes -0.5 -+ 1 ulp: g(0.5 - s)
    # evaluated as it stands jumps one node away from the line, which left
    # two refined levels 7.6e-3 off, converged with errorEstimate 0; the
    # reflected step factor jumps on the line itself
    F = catalog_primitive("prodArctan")
    for (x0, y0), (px, py) in (((1.0, 1.0), (0.5, 0.5)), ((1.0, -2.0), (0.5, 0.3))):
        g = catalog_bv("quadrantIndicator", x=x0, y=y0)
        assert_exact(convolve_bv(F, g, (px, py)), corner(F, px - x0, inf, py - y0, inf))


def test_a_reflected_step_factor_has_the_reflected_values():
    g = catalog_bv("intervalIndicator", a=-1.5, b=0.25, c=-0.5, d=2.0)
    h = translate_reflect_bv(g, 1.0, -2.0)
    s = np.array([NEG_INF, -3.0, 0.75, 0.7500001, 1.0, 2.5, 2.4999999, 2.6, POS_INF])
    S, T = np.meshgrid(s, s - 3.0)
    assert np.array_equal(h.eval(S, T), g.eval(1.0 - S, -2.0 - T))
    # at the jump lines the closed ends swap sides: [lo, hi] reflects to [t0 - hi, t0 - lo]
    q = catalog_bv("quadrantIndicator", x=0.5, y=0.5)
    r = translate_reflect_bv(q, 1.0, 1.0)
    assert (r(0.5, 0.5), r(0.5000001, 0.5000001), q(0.5, 0.5)) == (0.0, 1.0, 0.0)
    assert (h.jump_x, h.jump_y) == ((2.5, 0.75), (-1.5, -4.0))


# values at the parent of the exact path, where two refined levels stopped at
# resolution 64: an infinite jump coordinate and jumps at -0.0
TODAY = {
    ("prodArctan", "quadrantIndicator", (inf, 0.5)): 0.6475836176504333,
    ("sinc2d", "quadrantIndicator", (inf, 0.5)): 6.483944842499408,
    ("sinc2d", "quadrantIndicator", (inf, inf)): 9.869604401089358,
    ("expRadial", "quadrantIndicator", (-0.0, 1.0)): 0.36787944117144233,
    ("prodArctan", "quadrantIndicator", (-0.0, 1.0)): 0.375,
    ("sinc2d", "intervalIndicator", (-0.0, 1.0, -1.0, -0.0)): 0.8950731760353962,
    ("expRadial", "intervalIndicator", (-0.0, 1.0, -1.0, -0.0)): -0.5073578520913296,
}


@pytest.mark.parametrize("key", sorted(TODAY, key=repr), ids=repr)
def test_infinite_and_signed_zero_jumps_keep_their_values(key):
    name, kind, args = key
    F = catalog_primitive(name)
    if kind == "quadrantIndicator":
        x, y = args
        g, exact = catalog_bv(kind, x=x, y=y), corner(F, -inf, x, -inf, y)
    else:
        a, b, c, d = args
        g, exact = catalog_bv(kind, a=a, b=b, c=c, d=d), corner(F, a, b, c, d)
    res = integrate_product(F, g)
    assert_exact(res, exact)
    assert res.value == TODAY[key]
    # the quadrant at x = inf is 0 on the line x = inf: its jump there counts
    assert hk_norm(g).value == (4.0 if kind == "quadrantIndicator" else 9.0)


def _step_multipliers():
    F = catalog_primitive("gauss2")
    out = {}
    for seed in SEEDS:
        for kind, params, _, _ in seeded_multipliers(seed):
            out[f"{kind}-{seed}"] = catalog_bv(kind, **params)
    out["quadrant-inf"] = catalog_bv("quadrantIndicator", x=inf, y=0.5)
    out["quadrant-neg-zero"] = catalog_bv("quadrantIndicator", x=-0.0, y=-0.0)
    out["stepFunction"] = step_approximate(F, 8)
    out["gridStep"] = StepFunction2([NEG_INF, -1.0, 0.5, POS_INF], [NEG_INF, 2.0, POS_INF],
                                    np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]]))
    out["reflectedQuadrant"] = translate_reflect_bv(catalog_bv("quadrantIndicator", x=0.3, y=-0.7), -1.0, 2.0)
    return out


STEP_MULTIPLIERS = _step_multipliers()


def _no_refinement(*args, **kwargs):
    raise AssertionError("a step multiplier reached the refinement driver")


@pytest.mark.parametrize("name", sorted(STEP_MULTIPLIERS))
def test_step_multipliers_never_refine(name, monkeypatch):
    monkeypatch.setattr(stieltjes, "_refine", _no_refinement)
    monkeypatch.setattr(variation, "_refine", _no_refinement)
    g = STEP_MULTIPLIERS[name]
    F = catalog_primitive("expRadial")
    results = [integrate_product(F, g), hk_norm(g), vitali_variation(g),
               sectional_variation_sup(g, 1), sectional_variation_sup(g, 2)]
    results.append(convolve_bv(F, g, (0.5, -1.5)))
    for res in results:
        assert (res.resolution, res.error_estimate, res.converged, len(res.trace)) == (2, 0.0, True, 1)
    with pytest.raises(AssertionError, match="refinement driver"):
        integrate_product(F, ClosedFormBV(g.eval, "wrapped", g.jump_x, g.jump_y))


def test_a_nan_step_value_raises():
    with pytest.raises(ArithmeticError):
        hk_norm(catalog_bv("constant", c=math.nan))
    with pytest.raises(ArithmeticError):
        integrate_product(catalog_primitive("prodArctan"), catalog_bv("constant", c=math.nan))


def _exact_pairing(F, g, interval):
    """The corner formula over each nonzero cell of a step multiplier, clipped to the interval."""
    p, q, total = g.nodes_x, g.nodes_y, 0.0
    for j, i in np.argwhere(g.values != 0.0):
        total += g.values[j, i] * _box_pairing(F, (p[i], p[i + 1], q[j], q[j + 1]), interval)
    return total


def _box_pairing(F, box, interval):
    """The corner formula over the box [a, b] x [c, d] clipped to the interval, 0 where that has no area."""
    a, b = max(box[0], interval.a), min(box[1], interval.b)
    c, d = max(box[2], interval.c), min(box[3], interval.d)
    return interval.sign * corner(F, a, b, c, d) if a < b and c < d else 0.0


# (kind, params) -> ||g||_bv, sup, v1, v2, v12 as the straddled level of
# resolution 2 measured them before step multipliers were tables
EDGE_CASES = {
    "degenerate-x": (("intervalIndicator", {"a": 0, "b": 0, "c": 0, "d": 1}), (9.0, 1.0, 2.0, 2.0, 4.0)),
    "degenerate-both": (("intervalIndicator", {"a": 0.5, "b": 0.5, "c": -1.0, "d": -1.0}), (9.0, 1.0, 2.0, 2.0, 4.0)),
    "infinite-ends": (("intervalIndicator", {"a": -inf, "b": 1.0, "c": -1.0, "d": inf}), (4.0, 1.0, 1.0, 1.0, 1.0)),
    "half-plane-interval": (("intervalIndicator", {"a": -2.0, "b": inf, "c": -inf, "d": inf}),
                            (2.0, 1.0, 1.0, 0.0, 0.0)),
    "line-at-inf": (("intervalIndicator", {"a": inf, "b": inf, "c": 0.0, "d": 1.0}), (6.0, 1.0, 1.0, 2.0, 2.0)),
    "quadrant-x-inf": (("quadrantIndicator", {"x": inf, "y": 0.5}), (4.0, 1.0, 1.0, 1.0, 1.0)),
    "quadrant-both-inf": (("quadrantIndicator", {"x": inf, "y": inf}), (4.0, 1.0, 1.0, 1.0, 1.0)),
    "quadrant-x-neg-inf": (("quadrantIndicator", {"x": -inf, "y": 0.5}), (0.0, 0.0, 0.0, 0.0, 0.0)),
}
EDGE_INTERVALS = (FULL_PLANE, make_interval(-1.0, 2.0, -inf, 0.5), make_interval(inf, 0.0, 1.0, -inf))


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_multipliers_against_the_corner_formula(case):
    (kind, params), norm = EDGE_CASES[case]
    g = catalog_bv(kind, **params)
    est = hk_norm(g)
    assert_exact(est, norm[0], gap=0.0)
    assert (est.sup, est.v1, est.v2, est.v12) == norm[1:]
    box = (-inf, params["x"], -inf, params["y"]) if kind == "quadrantIndicator" else tuple(params.values())
    for name in ("prodArctan", "sinc2d", "expRadial"):
        F = catalog_primitive(name)
        for iv in EDGE_INTERVALS:
            assert_exact(integrate_product(F, g, iv), _box_pairing(F, box, iv))


def test_sub_interval_pairings_with_ends_on_or_past_the_breakpoints():
    g = catalog_bv("intervalIndicator", a=-1.5, b=0.25, c=-0.5, d=2.0)
    sigma = step_approximate(catalog_primitive("expRadial"), 8)
    p, q = sigma.nodes_x, sigma.nodes_y
    intervals = [(0.25, 3.0, -0.5, 2.0), (-1.5, 0.25, -0.5, 2.0), (0.25, -1.5, 2.0, -0.5), (3.0, 5.0, -inf, inf),
                 (-inf, -2.0, -inf, inf), (-1.0, 0.25, -inf, -0.5), (-1.5, 0.25, 2.0, 2.5),
                 (p[2], p[5], q[1], q[6]), (p[3], inf, -inf, q[3]), (p[1], p[2], q[-2], inf)]
    for name in ("prodArctan", "sinc2d", "expRadial"):
        F = catalog_primitive(name)
        for limits in intervals:
            iv = make_interval(*limits)
            assert_exact(integrate_product(F, g, iv), _box_pairing(F, (-1.5, 0.25, -0.5, 2.0), iv))
            assert_exact(integrate_product(F, sigma, iv), _exact_pairing(F, sigma, iv))


@pytest.mark.parametrize("seed", [None, 3], ids=["default", "seed3"])
def test_holder_suite_pairings_of_step_multipliers_are_exact(seed, monkeypatch):
    # the holder suite's digest and the CLI's job-holder-seed report (seed 3)
    # were re-recorded when step multipliers became exact; each of their step
    # pairings is the corner formula
    calls = []

    def recorded(f, g, interval=FULL_PLANE, **kwargs):
        res = integrate_product(f, g, interval, **kwargs)
        calls.append((f, g, interval, res))
        return res

    monkeypatch.setattr(suites, "integrate_product", recorded)
    report = suites.run_suite("holder", seed=seed)
    assert report["passed"] and len(calls) == 200
    steps = [(f, g, iv, res) for f, g, iv, res in calls if isinstance(g, StepFunction2)]
    assert len(steps) > 100
    for f, g, iv, res in steps:
        assert_exact(res, _exact_pairing(f, g, iv))
