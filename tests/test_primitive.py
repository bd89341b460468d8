import json
import math
import warnings

import numpy as np
import pytest

from cpintegral.convolution import StepFunction2
from cpintegral.extplane import NEG_INF, POS_INF, Grid2, axis_nodes, make_interval
from cpintegral.integral import alexiewicz_norm
from cpintegral.primitive import (
    CATALOG_BV,
    CATALOG_PRIMITIVES,
    CHART_NAME,
    ClosedFormBV,
    ClosedFormPrimitive,
    CorrectedPrimitive,
    Distribution,
    GridSamplePrimitive,
    ProductBV,
    SeparablePrimitive,
    _arctan_ramp,
    approx_identity,
    boundary_build,
    catalog_bv,
    catalog_primitive,
    distribution,
    export_grid_csv,
    export_grid_json,
    import_grid_csv,
    import_grid_json,
    sample_primitive,
    translate_reflect_bv,
    validate_primitive,
)
from cpintegral.variation import hk_norm


def test_catalog_lists_complete():
    assert len(CATALOG_PRIMITIVES) == 11
    assert len(CATALOG_BV) == 6


@pytest.mark.parametrize("name", CATALOG_PRIMITIVES)
def test_catalog_primitives_validate(name):
    report = validate_primitive(catalog_primitive(name))
    assert report["passed"], report


def test_validation_rejects_nonvanishing_boundary():
    # (x+y)/(1+|x+y|) is continuous on the plane but tends to -1 on the
    # -inf edges; the boundary check must reject it
    def fn(x, y):
        with np.errstate(invalid="ignore"):
            s = np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
            return s / (1.0 + np.abs(s))

    bad = ClosedFormPrimitive(fn, "shifted-ramp")
    assert not validate_primitive(bad)["passed"]


def test_validation_rejects_arctan_product_without_correction():
    # arctan(x*y) hits the indeterminate inf*0 corner and fails to vanish
    # along the -inf edges
    def fn(x, y):
        with np.errstate(invalid="ignore"):
            p = np.asarray(x, dtype=float) * np.asarray(y, dtype=float)
        return np.arctan(np.nan_to_num(p, nan=0.0, posinf=np.inf, neginf=-np.inf))

    bad = ClosedFormPrimitive(fn, "arctan-product")
    assert not validate_primitive(bad)["passed"]


def test_validation_reports_a_nonfinite_node_value():
    # 0 on both -inf edges, so only the grid levels meet the inf at (0, 0)
    def fn(x, y):
        return np.where((np.asarray(x) == 0.0) & (np.asarray(y) == 0.0), np.inf, 0.0)

    report = validate_primitive(ClosedFormPrimitive(fn, "infAtOrigin"))
    assert (report["finite"], report["continuityTrace"], report["passed"]) == (False, [], False)
    assert report["boundaryResidual"] == 0.0


def test_closed_form_rejects_nonfinite_values():
    bad = ClosedFormPrimitive(lambda x, y: np.asarray(x, dtype=float), "identity")
    with pytest.raises(ArithmeticError):
        bad(POS_INF, 0.0)


def test_scalar_closed_forms_take_the_shape_of_their_arguments():
    X = np.broadcast_to(axis_nodes(8), (3, 9))
    zero = ClosedFormPrimitive(lambda x, y: 0.0, "scalarZero")
    values = zero.eval(X, 0.5)
    assert values.shape == (3, 9) and values.flags.writeable and not values.any()
    assert validate_primitive(zero)["passed"]
    assert not sample_primitive(zero, 8).values.any()
    assert alexiewicz_norm(zero).value == 0.0
    one = ClosedFormBV(lambda x, y: 1.0, "scalarOne")
    assert one.on_grid(axis_nodes(8), axis_nodes(4)).tolist() == np.ones((5, 9)).tolist()
    # the constant is a step multiplier: the same report, exact, in the shape of one level
    exact = hk_norm(catalog_bv("constant", c=1.0))
    assert exact.value == 1.0
    assert {**hk_norm(one).as_dict(), "resolution": 2, "trace": [{"resolution": 2, "value": 1.0}]} == exact.as_dict()
    # a result of the coordinates' shape is returned as it is
    out = np.zeros((3, 9))
    assert ClosedFormPrimitive(lambda x, y: out).eval(X, X) is out
    assert ClosedFormBV(lambda x, y: out).eval(X, X) is out


def test_scalar_factors_take_the_shape_of_their_coordinates():
    ramp = lambda t: 0.5 + np.arctan(t) / math.pi
    ones = lambda t: np.ones(np.shape(t))
    u = approx_identity(2).u
    pairs = ((SeparablePrimitive((ramp, lambda y: 1.0)), SeparablePrimitive((ramp, ones))),
             (SeparablePrimitive((lambda x: 2.0, ramp)), SeparablePrimitive((lambda x: 2.0 * ones(x), ramp))))
    xs, ys = axis_nodes(8), axis_nodes(4)
    for scalar, array in pairs:
        assert scalar.on_grid(xs, ys).tobytes() == array.on_grid(xs, ys).tobytes()
        assert alexiewicz_norm(scalar).as_dict() == alexiewicz_norm(array).as_dict()
    for scalar, array in ((ProductBV(lambda x: 1.0, u), ProductBV(ones, u)),
                          (ProductBV(u, lambda y: 1.0), ProductBV(u, ones))):
        ux, vy = scalar.eval_factors(xs, ys)
        assert ux.shape == (9,) and vy.shape == (5,) and ux.flags.writeable and vy.flags.writeable
        assert hk_norm(scalar).as_dict() == hk_norm(array).as_dict()
        with pytest.raises(ArithmeticError):
            scalar.eval_factors(np.array([0.0, np.nan]), ys)
    X = np.broadcast_to(xs, (5, 9))
    both = ProductBV(lambda x: 1.0, lambda y: 2.0)
    assert both.eval(X, X).shape == (5, 9) and both.eval(X, X).tolist() == np.full((5, 9), 2.0).tolist()
    with pytest.raises(ArithmeticError):
        SeparablePrimitive((ramp, lambda y: math.inf)).eval_factors(xs, ys)


def _old_ramp(n):
    return lambda t: np.clip(np.where(np.isneginf(t), -1.0, np.where(np.isposinf(t), 2.0, t + n)), 0.0, 1.0)


def _old_sine_strip(n):
    def a(x):
        xc = np.clip(np.where(np.isneginf(x), 0.0, np.where(np.isposinf(x), 2 * math.pi, x)), 0.0, 2 * math.pi)
        return (1.0 - np.cos(n * xc)) / n

    def b(y):
        return np.clip(np.where(np.isneginf(y), 0.0, np.where(np.isposinf(y), 1.0, y)), 0.0, 1.0)

    return a, b


def _old_cantor(depth):
    def fn(t):
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


def test_clipped_factors_match_the_infinity_branches_bit_for_bit():
    # np.clip sends +-inf to the clip ends, so the branches for +-inf were redundant
    tiny = np.nextafter(0.0, 1.0)
    special = [POS_INF, NEG_INF, 0.0, -0.0, math.nan, 1e300, -1e300, np.finfo(float).max, tiny, -tiny,
               1e-310, 1.0 / 3.0, 2.0 / 3.0, 1.0, 2.0, 2 * math.pi, -3.0, -8.0, -7.0]
    ts = np.concatenate([special, np.linspace(-10.0, 10.0, 2001), axis_nodes(256)])
    pairs = [(approx_identity(n).u, _old_ramp(n)) for n in (1, 3, 8)]
    for n in (1, 2, 5):
        pairs += zip(catalog_primitive("sineStrip", n=n).factors, _old_sine_strip(n))
    pairs += [(catalog_primitive("cantor2d", depth=d).factors[0], _old_cantor(d)) for d in (3, 20)]
    for new, old in pairs:
        assert np.asarray(new(ts)).tobytes() == old(ts).tobytes()
        assert np.asarray(new(ts.reshape(-1, 1))).tobytes() == old(ts.reshape(-1, 1)).tobytes()


def test_corrected_primitive_vanishes_on_edges():
    prim = CorrectedPrimitive(lambda x, y: np.exp(-np.hypot(x, y)) + 0.5, "shifted")
    ys = axis_nodes(32)
    assert np.max(np.abs(prim.eval(np.full(ys.shape, NEG_INF), ys))) <= 1e-12
    assert np.max(np.abs(prim.eval(ys, np.full(ys.shape, NEG_INF)))) <= 1e-12


def _radial_points():
    """A log-spaced grid of both signs with 0, the least subnormal, the
    squares' overflow range 1e154 ... 1e308 and +-inf."""
    pos = np.concatenate([np.geomspace(1e-300, 1e300, 241), [5e-324, 1e154, 1.3e154, 1e155, 1e200, 1e308,
                                                             np.finfo(float).max, POS_INF]])
    return np.concatenate([[0.0, -0.0], pos, -pos])


def test_exp_radial_matches_the_hypot_formula():
    G = catalog_primitive("expRadial").G
    t = _radial_points()
    with np.errstate(over="ignore"):  # hypot overflows to inf near the top of the float range
        reference = np.exp(-np.hypot(t, t[:, None]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = G(t, t[:, None])
        assert grid.shape == reference.shape and grid.dtype == float
        np.testing.assert_allclose(grid, reference, rtol=1e-13, atol=2.3e-16)
        # 0-d arrays and Python floats take the scalar path, with the same bits
        picks = t[::9]
        for y in picks:
            row = G(picks, y)
            assert row.tobytes() == G(picks, np.array(y)).tobytes() == grid[t == y][0, ::9].tobytes()
            for x in picks[::3]:
                value = G(float(x), float(y))
                assert np.ndim(value) == 0 and value == G(np.array(x), np.array(y)) == row[picks == x][0]
        # the 4-d broadcast of a convolution sum, axes [l, k, j, i], has the grid's bits
        X, Y = t[:120].reshape(1, 12, 1, 10), t[-90:].reshape(6, 1, 15, 1)
        block = grid[-90:, :120].reshape(6, 15, 12, 10).transpose(0, 2, 1, 3)
        assert G(X, Y).tobytes() == np.ascontiguousarray(block).tobytes()
        assert G(NEG_INF, NEG_INF) == 0.0 and G(0.0, -0.0) == 1.0


def test_corrected_primitive_evaluates_edge_terms_once_per_coordinate():
    points = []

    def G(x, y):
        points.append(np.broadcast(x, y).size)
        return np.exp(-np.hypot(x, y)) + np.arctan(x) + 0.25 * np.arctan(y)

    F = CorrectedPrimitive(G, "counted")
    for n, k in ((257, 257), (17, 5), (1, 9)):
        xs, ys = axis_nodes(n - 1) if n > 1 else np.array([0.5]), axis_nodes(k - 1)
        points.clear()
        values = F.on_grid(xs, ys)
        assert sum(points) == k * n + n + k + 1
        X, Y = np.meshgrid(xs, ys)
        points.clear()
        assert values.tobytes() == F.eval(X, Y).tobytes()
        assert sum(points) == 3 * k * n + 1


def test_grid_sample_matches_at_nodes():
    F = catalog_primitive("prodArctan")
    S = sample_primitive(F, 64)
    xs = axis_nodes(64)
    X, Y = np.meshgrid(xs, xs)
    # chart roundtrip may be one ulp off, so node evaluation is near-exact
    assert np.max(np.abs(np.asarray(S.eval(X, Y)) - np.asarray(F.eval(X, Y)))) < 1e-12


def test_grid_sample_rejects_nan():
    S = sample_primitive(catalog_primitive("prodArctan"), 16)
    with pytest.raises(ArithmeticError):
        S.eval(math.nan, 0.0)
    with pytest.raises(ArithmeticError):
        S.eval(np.array([0.0, 1.0]), np.array([2.0, math.nan]))


def test_grid_sample_interpolates_between_nodes():
    F = catalog_primitive("prodArctan")
    S = sample_primitive(F, 256)
    for x, y in [(0.3, 0.7), (-2.1, 5.0), (100.0, -0.01)]:
        assert abs(S(x, y) - F(x, y)) < 1e-3


def test_primitives_equal():
    # a grid sample equals its primitive at the nodes of its grid and of the coarser grids nested in it
    F = catalog_primitive("prodArctan")
    S = sample_primitive(F, 64)
    for r in (16, 32, 64):
        xs = axis_nodes(r)
        assert np.max(np.abs(S.on_grid(xs, xs) - F.on_grid(xs, xs))) <= 1e-12
    assert np.max(np.abs(catalog_primitive("zero").on_grid(xs, xs) - F.on_grid(xs, xs))) > 1e-12


def test_grid_json_roundtrip(tmp_path):
    S = sample_primitive(catalog_primitive("expRadial"), 32)
    path = tmp_path / "grid.json"
    export_grid_json(S, path)
    back = import_grid_json(path)
    assert np.array_equal(back.values, S.values)
    assert np.array_equal(back.grid.xs, S.grid.xs)


def test_grid_json_file_is_the_json_dumps_of_the_document(tmp_path):
    S = sample_primitive(catalog_primitive("expRadial"), 64)
    path = tmp_path / "grid.json"
    export_grid_json(S, path)
    doc = {"label": S.label, "resolution": 64, "chart": CHART_NAME, "values": S.values.tolist()}
    assert path.read_text(encoding="utf-8") == json.dumps(doc)


def test_grid_csv_roundtrip(tmp_path):
    S = sample_primitive(catalog_primitive("gauss2"), 16)
    path = tmp_path / "grid.csv"
    export_grid_csv(S, path)
    back = import_grid_csv(path)
    assert np.allclose(back.values, S.values, rtol=0, atol=1e-15)


def test_quadrant_indicator_values():
    g = catalog_bv("quadrantIndicator", x=0.0, y=0.0)
    assert g(-1.0, -1.0) == 1.0
    assert g(0.0, -1.0) == 0.0
    assert g(NEG_INF, NEG_INF) == 1.0
    assert g(POS_INF, -5.0) == 0.0


def test_interval_indicator_values():
    g = catalog_bv("intervalIndicator", a=0, b=1, c=0, d=1)
    assert g(0.5, 0.5) == 1.0
    assert g(0.0, 1.0) == 1.0  # closed interval
    assert g(1.5, 0.5) == 0.0


def test_approx_identity_profile():
    g = approx_identity(4)
    assert g(NEG_INF, NEG_INF) == 0.0
    assert g(0.0, 0.0) == 1.0
    assert g(-4.0, 0.0) == 0.0
    assert g(-3.5, 0.0) == 0.5
    assert g(POS_INF, POS_INF) == 1.0


def test_translate_reflect_bv():
    g = catalog_bv("quadrantIndicator", x=0.0, y=0.0)
    h = translate_reflect_bv(g, 2.0, 3.0)
    # h(s, t) = g(2 - s, 3 - t)
    assert h(3.0, 4.0) == g(-1.0, -1.0) == 1.0
    assert h(1.0, 4.0) == g(1.0, -1.0) == 0.0
    assert h.jump_x and h.jump_y


def _old_reflection(g, x0, y0):
    """translate_reflect_bv's former closure, kept as the reference."""
    return lambda s, t: np.asarray(g.eval(x0 - s, y0 - t), dtype=float)


def _bit_equal(p, q):
    p, q = np.asarray(p), np.asarray(q)
    return p.dtype == q.dtype and p.shape == q.shape and p.tobytes() == q.tobytes()


def _probe_points():
    # random points, the multipliers' jump coordinates and the infinities
    rng = np.random.default_rng(5)
    pts = np.concatenate([rng.uniform(-4.0, 4.0, 200), [0.0, -0.0, 0.4, -1.3, -1.5, 0.25, -0.5, 2.0, NEG_INF, POS_INF]])
    return np.meshgrid(pts, pts)


# (name, params) -> (type, label, jump_x, jump_y); labels format the raw params
CATALOG_BV_PINS = {
    ("quadrantIndicator", ()): (StepFunction2, "quadrantIndicator(0.0,0.0)", (0.0,), (0.0,)),
    ("quadrantIndicator", (("x", np.float64(0.1234)), ("y", -1))):
        (StepFunction2, "quadrantIndicator(0.1234,-1)", (0.1234,), (-1.0,)),
    ("halfPlaneIndicator", ()): (StepFunction2, "halfPlaneIndicator", (0.0,), ()),
    ("intervalIndicator", ()): (StepFunction2, "intervalIndicator([0.0,1.0]x[0.0,1.0])", (0.0, 1.0), (0.0, 1.0)),
    ("intervalIndicator", (("a", -1.5), ("b", np.float64(0.25)), ("c", "-inf"), ("d", 2))):
        (StepFunction2, "intervalIndicator([-1.5,0.25]x[-inf,2.0])", (-1.5, 0.25), (NEG_INF, 2.0)),
    ("approxIdentity", ()): (ProductBV, "approxIdentity(4)", (-4.0, -3.0), (-4.0, -3.0)),
    ("constant", ()): (StepFunction2, "constant(1.0)", (), ()),
    ("constant", (("c", 2),)): (StepFunction2, "constant(2)", (), ()),
    ("diagonalIndicator", ()): (ClosedFormBV, "diagonalIndicator", (), ()),
}


def test_product_multipliers_keep_their_formulas():
    X, Y = _probe_points()
    iv = make_interval(-1.5, 0.25, -0.5, 2.0)
    cases = [
        (catalog_bv("quadrantIndicator", x=0.4, y=-1.3), ((X < 0.4) & (Y < -1.3)).astype(float)),
        (catalog_bv("halfPlaneIndicator"), (X >= 0.0).astype(float)),
        (catalog_bv("intervalIndicator", interval=iv),
         ((X >= iv.a) & (X <= iv.b) & (Y >= iv.c) & (Y <= iv.d)).astype(float)),
        (catalog_bv("constant", c=-1.75), np.full(X.shape, -1.75)),
        (catalog_bv("constant", c=POS_INF), np.full(X.shape, POS_INF)),
        (catalog_bv("diagonalIndicator"), (Y > X).astype(float)),
    ]
    for g, old in cases:
        assert _bit_equal(g.eval(X, Y), old), g.label
    for (name, params), pin in CATALOG_BV_PINS.items():
        g = catalog_bv(name, **dict(params))
        assert (type(g), g.label, g.jump_x, g.jump_y) == pin, g.label
        assert all(type(j) is float for j in g.jump_x + g.jump_y), g.label
    assert {name for name, _ in CATALOG_BV_PINS} == set(CATALOG_BV)


@pytest.mark.parametrize("name,params", [("approxIdentity", {"n": 2}),
                                         ("quadrantIndicator", {"x": 0.4, "y": -1.3}),
                                         ("intervalIndicator", {"a": -1.5, "b": 0.25, "c": -0.5, "d": 2.0})])
def test_reflected_product_matches_old_closure(name, params):
    X, Y = _probe_points()
    g = catalog_bv(name, **params)
    for x0, y0 in ((-1.0, 0.3), (0.5, -2.0), (0.0, 0.0)):
        h = translate_reflect_bv(g, x0, y0)
        assert _bit_equal(h.eval(X, Y), _old_reflection(g, x0, y0)(X, Y))


def test_product_bv_rejects_nan():
    for g in (approx_identity(2), catalog_bv("quadrantIndicator"), catalog_bv("halfPlaneIndicator"),
              catalog_bv("intervalIndicator"), catalog_bv("constant"),
              translate_reflect_bv(approx_identity(1), 0.5, 0.5)):
        for x, y in ((math.nan, 0.0), (0.0, math.nan), (np.array([0.0, math.nan]), 1.0)):
            with pytest.raises(ArithmeticError):
                g.eval(x, y)
            if isinstance(g, ProductBV):  # the step multipliers are tables, with no factors
                with pytest.raises(ArithmeticError):
                    g.eval_factors(x, y)
    u, v = approx_identity(2).eval_factors(np.array([NEG_INF, -1.5, POS_INF]), 0.0)
    assert u.tolist() == [0.0, 0.5, 1.0] and float(v) == 1.0


@pytest.mark.parametrize("g", [
    ClosedFormBV(lambda x, y: np.ones(np.shape(x)), "ones"),
    catalog_bv("diagonalIndicator"),
    StepFunction2(Grid2(2).xs, Grid2(2).ys, [[0.0, 1.0], [2.0, 3.0]]),
], ids=["closedForm", "diagonalIndicator", "gridConstant"])
def test_bv_rejects_nan(g):
    assert float(np.sum(g.eval(np.array([0.5, POS_INF]), 1.0))) >= 0.0
    for x, y in ((math.nan, 0.0), (0.0, math.nan), (np.array([0.0, math.nan]), 1.0)):
        with pytest.raises(ArithmeticError, match="NaN"):
            g.eval(x, y)


@pytest.mark.parametrize("point", [(POS_INF, 0.0), (0.0, NEG_INF), (POS_INF, POS_INF)])
def test_translate_reflect_bv_rejects_infinite_point(point):
    for g in (approx_identity(1), catalog_bv("diagonalIndicator")):
        with pytest.raises(ValueError, match="infinite point"):
            translate_reflect_bv(g, *point)


def test_distribution_wrapper():
    f = distribution("prodArctan")
    assert isinstance(f, Distribution)
    assert f.primitive(POS_INF, POS_INF) == 1.0
    assert f.label == "prodArctan"


def test_sine_strip_norm_scale():
    F = catalog_primitive("sineStrip", n=4)
    assert F(POS_INF, POS_INF) == 0.0  # cos(8 pi) = 1 exactly
    assert abs(F(math.pi / 4, 1.0) - 0.5) < 1e-12


def test_unknown_catalog_names_raise():
    with pytest.raises(ValueError):
        catalog_primitive("nope")
    with pytest.raises(ValueError):
        catalog_bv("nope")


@pytest.mark.parametrize("name, params", [
    ("sineStrip", {"n": 1.5}),
    ("sineStrip", {"n": 0}),
    ("sineStrip", {"n": math.inf}),
    ("weier2d", {"depth": 2.5}),
    ("weier2d", {"depth": 0}),
    ("weier2d", {"depth": 100000}),
    ("cantor2d", {"depth": 65}),
    ("cantor2d", {"depth": 1000000}),
    ("cantor2d", {"depth": [3]}),
])
def test_catalog_primitive_rejects_a_non_integral_or_out_of_range_count(name, params):
    # int() would truncate 1.5 to 1 while the spec still says 1.5; a depth
    # past 64 adds nothing a double resolves, and a huge one overflows or hangs
    with pytest.raises(ValueError, match="must be an integer"):
        catalog_primitive(name, **params)


@pytest.mark.parametrize("name, params, message", [
    ("gauss2", {"which": "H"}, "which='F' or which='G'"),
    ("boundaryBuild", {"theta2": "nope"}, "unknown edge function preset: 'nope'"),
    ("boundaryBuild", {"theta2": lambda t: 2.0 * _arctan_ramp(t)}, r"agree at the \(inf, inf\) corner"),
    ("boundaryBuild", {"theta2": lambda t: (1.0 + _arctan_ramp(t)) / 2.0,
                       "theta3": lambda t: (1.0 + _arctan_ramp(t)) / 2.0}, "vanish at -inf"),
], ids=["gauss2-which", "unknown-preset", "corner-mismatch", "nonzero-at-neg-inf"])
def test_catalog_primitive_rejects_a_bad_variant_or_edge_function(name, params, message):
    with pytest.raises(ValueError, match=message):
        catalog_primitive(name, **params)


def test_a_callable_edge_function_is_used_as_given():
    xs = axis_nodes(16)
    named = boundary_build("ramp", "ramp").on_grid(xs, xs)
    assert np.array_equal(boundary_build(_arctan_ramp, "ramp").on_grid(xs, xs), named)
    assert np.array_equal(boundary_build("ramp", _arctan_ramp).on_grid(xs, xs), named)


def test_grid_sample_rejects_values_of_another_shape():
    with pytest.raises(ValueError, match="values shape"):
        GridSamplePrimitive(Grid2(4), np.zeros((5, 4)))


def test_grid_file_of_another_chart_is_rejected(tmp_path):
    path = tmp_path / "grid.json"
    export_grid_json(sample_primitive(catalog_primitive("gauss2"), 4), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(dict(doc, chart="atan")), encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported chart 'atan'"):
        import_grid_json(path)


def test_catalog_bv_rejects_a_non_integral_n():
    with pytest.raises(ValueError, match="must be an integer"):
        catalog_bv("approxIdentity", n=2.9)
    with pytest.raises(ValueError, match="must be an integer"):
        catalog_bv("approxIdentity", n=math.nan)


def test_integral_floats_are_catalog_counts():
    assert catalog_bv("approxIdentity", n=2.0).label == "approxIdentity(2)"
    assert catalog_primitive("sineStrip", n=2.0).label == "sineStrip(2)"
    xs = axis_nodes(16)
    for name in ("weier2d", "cantor2d"):
        F = catalog_primitive(name, depth=64.0)
        assert np.all(np.isfinite(F.on_grid(xs, xs)))
        assert F.factors[0](xs).tolist() == catalog_primitive(name, depth=64).factors[0](xs).tolist()


def test_grid_sample_returns_its_values_at_its_own_nodes():
    # a node takes its stored value by a hit test, not through forward(inverse(u))
    rng = np.random.default_rng(20261018)
    for r in rng.integers(2, 65, size=50):
        V = rng.standard_normal((r + 1, r + 1))
        xs = axis_nodes(int(r))
        F = GridSamplePrimitive(Grid2(int(r)), V)
        assert np.array_equal(F.on_grid(xs, xs), V), r
