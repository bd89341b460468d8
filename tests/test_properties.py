import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpintegral.cli import encode_ext, parse_ext
from cpintegral.extplane import chart, chart_inverse, ext, make_interval
from cpintegral.integral import corner_integral
from cpintegral.primitive import ClosedFormBV, approx_identity, catalog_primitive, distribution, translate_reflect_bv
from cpintegral.stieltjes import integrate_product
from test_stieltjes import _nine_term_reference, nine_term_rounding_bound

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
extended = st.one_of(finite, st.just(math.inf), st.just(-math.inf))

PROD_ARCTAN = distribution("prodArctan")


@given(extended)
def test_ext_idempotent(t):
    assert ext(ext(t)) == ext(t)


@given(finite)
def test_chart_roundtrip(t):
    u = chart(t)
    assert -1.0 < u < 1.0 or t == 0.0
    back = chart_inverse(u)
    assert math.isclose(back, t, rel_tol=1e-9, abs_tol=1e-12)


@given(finite, finite)
def test_chart_order_preserving(s, t):
    if s < t:
        assert chart(s) < chart(t)


@given(extended, extended, extended, extended)
def test_make_interval_normalizes(a, b, c, d):
    iv = make_interval(a, b, c, d)
    assert iv.a <= iv.b and iv.c <= iv.d
    assert iv.sign in (-1, 1)
    assert iv.degenerate == (iv.a == iv.b or iv.c == iv.d)
    swaps = int(a > b) + int(c > d)
    assert iv.sign == (-1) ** swaps


@given(extended, extended, extended, extended)
def test_corner_integral_antisymmetry(a, b, c, d):
    forward = corner_integral(PROD_ARCTAN, make_interval(a, b, c, d))
    reversed_x = corner_integral(PROD_ARCTAN, make_interval(b, a, c, d))
    if a == b or c == d:
        assert forward == reversed_x == 0.0
    else:
        assert reversed_x == -forward


@given(extended, extended, extended, extended)
@settings(max_examples=50)
def test_corner_integral_additive_in_x(a, b, c, d):
    lo, hi = min(a, b), max(a, b)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return
    mid = (lo + hi) / 2.0
    whole = corner_integral(PROD_ARCTAN, make_interval(lo, hi, c, d))
    parts = corner_integral(PROD_ARCTAN, make_interval(lo, mid, c, d)) + corner_integral(
        PROD_ARCTAN, make_interval(mid, hi, c, d)
    )
    assert abs(whole - parts) <= 1e-12


@given(extended)
def test_parse_encode_roundtrip(v):
    assert parse_ext(encode_ext(v)) == v


@given(st.sampled_from(["inf", "+inf", "-inf", "Infinity", "3.5", "-2"]))
def test_parse_ext_accepts_strings(s):
    assert parse_ext(s) == float(s.replace("+i", "i").replace("I", "i"))


@given(extended, extended)
def test_primitive_bounded_and_monotone_corner(x, y):
    # prodArctan is a product of increasing ramps in [0, 1]
    v = PROD_ARCTAN.primitive(x, y)
    assert 0.0 <= v <= 1.0
    assert PROD_ARCTAN.primitive(x, y) <= PROD_ARCTAN.primitive(math.inf, math.inf)


# a finite interval, one with two infinite sides, and one given with x swapped
BY_PARTS_SHAPES = {
    "finite": lambda p, q, r, s: make_interval(min(p, q), max(p, q), min(r, s), max(r, s)),
    "halfInfinite": lambda p, q, r, s: make_interval(-math.inf, p, r, math.inf),
    "swapped": lambda p, q, r, s: make_interval(max(p, q), min(p, q), min(r, s), max(r, s)),
}
point = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@given(st.integers(1, 6), point, point, st.booleans(), st.sampled_from(sorted(BY_PARTS_SHAPES)),
       st.tuples(point, point, point, point), st.sampled_from((32, 64)))
@settings(max_examples=30, deadline=None)
def test_one_term_by_parts_level_is_the_nine_term_sum(n, x0, y0, generic, shape, ends, resolution):
    # approxIdentity(n) reflected about (x0, y0) is a ProductBV, paired through
    # its factors; as a ClosedFormBV it takes the tensor-grid sum
    p, q, r, s = ends
    assume(p != q and r != s)
    interval = BY_PARTS_SHAPES[shape](p, q, r, s)
    g = translate_reflect_bv(approx_identity(n), x0, y0)
    if generic:
        g = ClosedFormBV(g.eval, g.label, g.jump_x, g.jump_y)
    for F in (catalog_primitive("prodArctan"), catalog_primitive("expRadial")):
        level = integrate_product(F, g, interval, start_resolution=resolution, max_doublings=0)
        assert level.resolution == resolution
        gap = abs(level.value - interval.sign * _nine_term_reference(F, g, interval, resolution))
        assert gap <= nine_term_rounding_bound(F, g, interval, resolution)
