import copy
import functools
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import sici

from cpintegral import cli, convolution, integral, primitive, suites
from cpintegral.extplane import FULL_PLANE, NEG_INF, POS_INF, Grid2, axis_nodes, chart, make_interval
from cpintegral.integral import (
    IntervalND,
    _best_intervals,
    _interval_sweep,
    alexiewicz_norm,
    corner_integral,
    corner_integral_nd,
    cumulative,
    ftc_residual,
    improper_example,
    improper_iterated,
    iterated_consistency,
    norm_dual,
    norm_prime,
    total_integral,
    xpowy_corner_probes,
)
from cpintegral.operators import algebra_product, lattice_meet, translate
from cpintegral.primitive import (
    CATALOG_PRIMITIVES,
    ClosedFormPrimitive,
    GridSamplePrimitive,
    Primitive,
    ProductBV,
    SeparablePrimitive,
    StepFunction2,
    catalog_bv,
    catalog_primitive,
    distribution,
    sample_primitive,
)
from cpintegral.stieltjes import integrate_product
from cpintegral.suites import SUITES, catalog_distributions, run_suite
from cpintegral.variation import hk_norm
from test_convolution import four_d_broadcast_sum, full_grid


def test_total_integral_prod_arctan():
    assert total_integral(distribution("prodArctan")) == 1.0


def test_corner_integral_quarter_plane():
    f = distribution("prodArctan")
    assert abs(corner_integral(f, make_interval(0, POS_INF, 0, POS_INF)) - 0.25) < 1e-15


@pytest.mark.parametrize("F", catalog_distributions(), ids=lambda F: F.label)
def test_corner_integral_takes_the_four_corners_in_one_eval(monkeypatch, F):
    calls = []
    evaluate = type(F).eval
    monkeypatch.setattr(type(F), "eval", lambda self, x, y: calls.append(np.shape(x)) or evaluate(self, x, y))
    rng = np.random.default_rng(3)
    for a, b, c, d in [(NEG_INF, POS_INF, NEG_INF, POS_INF), (-0.5, 2.0, NEG_INF, 0.25),
                       *rng.normal(0.0, 3.0, (20, 4)).tolist()]:
        calls.clear()
        value = corner_integral(F, make_interval(a, b, c, d))
        assert type(value) is float and calls == [(4,)]
        # the corners in the order F(a,c) + F(b,d) - F(a,d) - F(b,c), as
        # the scalar calls took them; a scalar branch may round otherwise
        sign = -1.0 if (a > b) != (c > d) else 1.0
        a, b = sorted((a, b))
        c, d = sorted((c, d))
        scalar = F(a, c) + F(b, d) - F(a, d) - F(b, c)
        assert abs(value - sign * scalar) <= 4 * np.spacing(max(1.0, abs(scalar)))


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


def _random_sweep_grid(rng):
    """A random grid of 1x1 to 40x40 with magnitudes from 1e-5 to 1e5, often with ties."""
    rows, cols = (int(n) for n in rng.integers(1, 41, size=2))
    scale = 10.0 ** rng.uniform(-5, 5)
    G = rng.standard_normal((rows, cols)) * scale
    if rng.random() < 0.5:  # a few rounded levels, so values and pair sweeps tie
        G = np.round(G / scale * rng.integers(1, 4)) * (scale / 3)
    for c in rng.integers(0, cols, size=int(rng.integers(0, 3))):
        G[:, c] = 0.0 if rng.random() < 0.5 else G[0, c]  # all-zero or constant columns
    return G


def test_pruned_interval_sweep_is_the_full_sweep_bit_for_bit():
    # top > 0 sweeps every column pair; top == 0 skips pairs by the rounding-safe bound
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        G = _random_sweep_grid(rng)
        assert _interval_sweep(G) == _best_intervals(G, 1)[0], G.shape
    for G in (np.zeros((1, 1)), np.zeros((5, 4)), np.full((3, 6), 7.5), np.arange(12.0).reshape(3, 4)):
        assert _interval_sweep(G) == _best_intervals(G, 1)[0]


def test_interval_sweep_of_nan_grid_is_nan():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((4, 5))
    for j, i in itertools.product(range(4), range(5)):
        G = base.copy()
        G[j, i] = np.nan
        assert np.isnan(_interval_sweep(G)), (j, i)
    for _ in range(20):
        G = _random_sweep_grid(rng)
        G[tuple(rng.integers(0, n) for n in G.shape)] = np.nan
        # a single column has no pairs, so both sweeps give 0 there
        assert np.isnan(_interval_sweep(G)) == (G.shape[1] > 1) == np.isnan(_best_intervals(G, 1)[0])
    # columns 0 and 1 differ by +inf in every row, so their sweep is inf - inf,
    # though their bound is inf, not NaN, and columns 2 and 3 already sweep to inf
    big = 1.7e308
    G = np.array([[-0.5e308, big, 0.0, big], [-big, 0.5e308, 0.0, -big]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_best_intervals(G, 1)[0])
        assert np.isnan(_interval_sweep(G))
    # the same pair with its two rows in separate row blocks: both block bounds are inf
    B = integral._SWEEP_BLOCK
    G = np.vstack([np.tile(G[0], (B, 1)), np.tile(G[1], (B + 3, 1))])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_best_intervals(G, 1)[0])
        assert np.isnan(_interval_sweep(G))


def test_row_block_sweep_bound_is_the_full_sweep_bit_for_bit():
    # row counts below one block, at and around block edges, and several blocks
    B = integral._SWEEP_BLOCK
    rng = np.random.default_rng(20261019)
    for rows in (1, 2, 7, 9, B - 1, B, B + 1, 2 * B + 1, 3 * B):
        for _ in range(8):
            G = rng.standard_normal((rows, int(rng.integers(1, 25)))) * 10.0 ** rng.uniform(-3, 3)
            if rng.random() < 0.5:
                G = np.round(G)  # ties between values and between pair sweeps
            assert _interval_sweep(G) == _best_intervals(G, 1)[0], G.shape


def test_row_block_sweep_keeps_a_pair_whose_extremes_sit_in_different_blocks():
    # column 0 holds the max of D = G[:, k] - G[:, 0] in block 2 and its min in
    # block 0, so the pairs (0, k) sweep to 20; the pair (1, 2) sweeps to 14 inside
    # block 1.  A bound that paired maxima and minima of the same block only
    # would give the pairs (0, k) 10, visit row 1 first and stop at 14.
    B = integral._SWEEP_BLOCK
    G = np.random.default_rng(7).standard_normal((3 * B, 3)) * 1e-3
    G[5, 0] += 10.0
    G[2 * B + 3, 0] -= 10.0
    G[B + 1, 1] += 7.0
    G[B + 4, 2] += 7.0
    best = _interval_sweep(G)
    assert best == _best_intervals(G, 1)[0]
    assert best > 19.99


def test_row_block_sweep_of_nan_in_one_block_is_nan():
    B = integral._SWEEP_BLOCK
    base = np.random.default_rng(11).standard_normal((3 * B + 5, 9))
    for j in (0, B - 1, B, 2 * B + 7, 3 * B + 4):
        for i in (0, 4, 8):
            G = base.copy()
            G[j, i] = np.nan
            assert np.isnan(_interval_sweep(G)), (j, i)


# SHA-256 of every run_suite report (JSON, sorted keys), recorded before the
# interval sweep skipped column pairs; the norms suite runs the sweep at r = 256.
# algebra was re-recorded when the product of two separables became separable:
# 8 of its productSup values moved by 1 ulp, and no passed flag changed;
# convolution was re-recorded when convolve_l1 reduced the infinite grid rows
# to 1-d sums: 3 of its 4 expRadial errors moved by at most 4.4e-16 (see
# test_convolution_suite_matches_the_full_3d_sum), and no passed flag changed.
# algebra was re-recorded again when boundaryBuild became separable, and
# holder when expRadial's G stopped calling np.hypot; both differ from the
# formulas they replace by rounding only (see REPLACED_FORMULA_DIGESTS);
# convolution was re-recorded again when the 3-d sum took the on_grid row x
# column shape in cache-sized blocks, which changed its summation order only
# (see test_convolution_suite_matches_the_four_d_sum); holder was re-recorded
# again when step multipliers became exact on one level: its pairings moved
# by rounding only (see PRE_EXACT_HOLDER_DIGEST), and each of its step
# pairings is the corner formula
# (test_holder_suite_pairings_of_step_multipliers_are_exact); and again when
# step multipliers became tables paired by the corner formula on their
# breakpoints: 31 of its values moved by at most 4.4e-16, each step pairing
# that moved by more than 1.2e-16 to within 1.2e-16 of the exact corner
# formula (holder_corner_values), and no passed flag changed.
# holder and convolution were re-recorded when the nine-term by-parts sum
# became one term, F at the tags against g zeroed on the boundary nodes:
# 15 of holder's 400 floats moved, by at most 4.1e-14 (each nearer a
# long-double sum of its last level), and 3 of convolution's 29, by at most
# 2.2e-16, with every resolution and passed flag unchanged
SUITE_DIGESTS = {
    "algebra": "fdc0abda8c09a9871a0388e6426a63b22d1ec42e2b69e47ee9485cf7487de9a5",
    "convergence": "50b5686154292475ff0cca0681bd836af8f9ab8bf0472cdfac4aab98d2a00e7b",
    "convolution": "5c837d657aa23a644d0ebbc689ef04dc43fab0161f00d6d0ade60b934c1a12b8",
    "ftc": "ed1ccd565e427ef9d1c4f7fdce38400b3ce18ac94766687379088b04d2c2c723",
    "fubini": "c8849d6c3553cf7ca71ea895f52155f4f10faa2059800cad0e190bb80236c9db",
    "holder": "6e889890a25c2bc346d22f2a58025bb5488c0c390b171f43ba557ca14a1de69c",
    "lattice": "9eae44ba7e3bfa104274fb841a933066d2ab85d4343bcbb65314e1b4ceab7122",
    "mspace": "794336616d130bff1afc52ca33f8bed594a07e42f24a2541c227ca9138a0f804",
    "norms": "ca62f9a02ee254d68794d8243c093bcac89470c0292c984ff5bcaaad76f2de95",
}


@functools.lru_cache(maxsize=None)
def _suite_report(name):
    return cli._jsonable(run_suite(name))


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_suite_reports_unchanged(name):
    assert sorted(SUITE_DIGESTS) == sorted(SUITES)
    report = json.dumps(_suite_report(name), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == SUITE_DIGESTS[name]


# the digests the re-recorded suites had under the formulas they replaced:
# boundaryBuild as the closed form theta2(x) theta3(y) / theta2(inf), and
# expRadial's G as exp(-hypot(x, y)); holder's re-recorded with the suite
# when step multipliers became tables, and when the by-parts sum became one
# term (15 of 400 floats moved, by at most 4.1e-14)
REPLACED_FORMULA_DIGESTS = {
    "algebra": "a6638915ccd858e6c142c6e6831614b64327d0630dff40b4c41e6adc95287e11",
    "holder": "fe0f4b5aa4f0b3c920273ff1ba9f2b7240e66913fc740dbfc6ea365806ad51da",
}


def use_replaced_formulas(monkeypatch):
    """Put back the closed-form boundaryBuild and the np.hypot form of expRadial's G."""
    separable = primitive.boundary_build
    monkeypatch.setattr(primitive, "boundary_build",
                        lambda *args: ClosedFormPrimitive(separable(*args).eval, "boundaryBuild"))
    monkeypatch.setattr(primitive, "_exp_radial", lambda x, y: np.exp(-np.hypot(x, y)))


def _step_factor(lo, hi, c=1.0, closed=(True, True)):
    """t -> c on the piece from lo to hi, 0 off it; closed says which ends the piece holds."""

    def u(t):
        t = np.asarray(t)
        above = t >= lo if closed[0] else t > lo
        below = t <= hi if closed[1] else t < hi
        return np.where(above & below, c, 0.0)

    return u


def _pre_exact_bv(name, **params):
    """catalog_bv(name, **params) as it was before step multipliers were paired
    exactly: the indicators and constant a ProductBV of two step factors, which
    the refinement driver refines like any other product multiplier."""
    g = catalog_bv(name, **params)
    below = (True, False)
    if name == "quadrantIndicator":
        u, v = _step_factor(NEG_INF, g.jump_x[0], closed=below), _step_factor(NEG_INF, g.jump_y[0], closed=below)
    elif name == "halfPlaneIndicator":
        u, v = _step_factor(0.0, POS_INF), _step_factor(NEG_INF, POS_INF)
    elif name == "intervalIndicator":
        u, v = _step_factor(*g.jump_x), _step_factor(*g.jump_y)
    elif name == "constant":
        u, v = _step_factor(NEG_INF, POS_INF, float(params.get("c", 1.0))), _step_factor(NEG_INF, POS_INF)
    else:
        return g
    return ProductBV(u, v, g.label, g.jump_x, g.jump_y)


def refine_step_multipliers(monkeypatch):
    """Send the catalog's step multipliers, as the suites and the CLI build
    them, through the refinement driver, as before they were paired exactly.
    (No archived report pairs a step_approximate table, which would refine
    as ClosedFormBV(g.eval, g.label, g.jump_x, g.jump_y).)"""
    for module in (suites, cli):
        monkeypatch.setattr(module, "catalog_bv", _pre_exact_bv)


def max_rounding_gap(new, old, path="report"):
    """The largest |new - old| over the float leaves of two JSON reports;
    every other leaf, and the shape of the reports, must agree exactly."""
    if isinstance(new, dict):
        assert new.keys() == old.keys(), path
        return max((max_rounding_gap(new[k], old[k], f"{path}.{k}") for k in new), default=0.0)
    if isinstance(new, list):
        assert len(new) == len(old), path
        return max((max_rounding_gap(u, v, f"{path}[{i}]") for i, (u, v) in enumerate(zip(new, old))), default=0.0)
    if isinstance(new, float) and isinstance(old, float):
        return abs(new - old)
    assert new == old, path
    return 0.0


@pytest.mark.parametrize("name", sorted(REPLACED_FORMULA_DIGESTS))
def test_rerecorded_suites_differ_from_the_replaced_formulas_by_rounding(monkeypatch, name):
    new = _suite_report(name)
    use_replaced_formulas(monkeypatch)
    old = cli._jsonable(run_suite(name))
    assert hashlib.sha256(json.dumps(old, sort_keys=True).encode()).hexdigest() == REPLACED_FORMULA_DIGESTS[name]
    assert 0.0 < max_rounding_gap(new, old) <= 1.2e-16


def _holder_primitive(label):
    """The holder suite's primitive of that label in mpmath arithmetic, on the extended plane."""
    import mpmath as mp

    ramp = lambda t: (mp.pi / 2 + mp.atan(t)) / mp.pi
    gauss = lambda t: mp.exp(-t * t)
    strip = lambda t: (1 - mp.cos(2 * min(max(t, 0), 2 * mp.pi))) / 2
    return {"prodArctan": lambda x, y: ramp(x) * ramp(y),
            "gauss2:F": lambda x, y: gauss(x) * gauss(y),
            "sineStrip(2)": lambda x, y: strip(x) * min(max(y, 0), 1),
            "expRadial": lambda x, y: mp.exp(-mp.sqrt(x * x + y * y))}[label]


def holder_corner_values(monkeypatch, seed=None):
    """{case: value} of the holder suite's step pairings as the corner formula
    over each nonzero cell, clipped to the case's interval, at 40 digits."""
    import mpmath as mp

    calls = []

    def recorded(f, g, interval=FULL_PLANE, **kwargs):
        calls.append((f, g, interval))
        return integrate_product(f, g, interval, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(suites, "integrate_product", recorded)
        run_suite("holder", seed=seed)
    exact = {}
    with mp.workdps(40):
        for k, (f, g, iv) in enumerate(calls):
            if not isinstance(g, StepFunction2):
                continue
            F, p, q, total = _holder_primitive(f.label), g.nodes_x, g.nodes_y, mp.mpf(0)
            for j, i in np.argwhere(g.values != 0.0):
                a, b, c, d = (mp.mpf(float(t)) for t in (max(p[i], iv.a), min(p[i + 1], iv.b),
                                                        max(q[j], iv.c), min(q[j + 1], iv.d)))
                if a < b and c < d:
                    total += mp.mpf(float(g.values[j, i])) * (F(a, c) + F(b, d) - F(a, d) - F(b, c))
            exact[k] = float(iv.sign * total)
    return exact


def rounding_or_corner_gap(new, old, exact, cases=lambda report: report["cases"]):
    """max_rounding_gap(new, old) of two reports holding holder cases, where a
    step pairing that moved by more than 1.2e-16 must instead lie within
    1.2e-16 of its value in exact, and then counts as unmoved."""
    old = copy.deepcopy(old)
    for k, value in exact.items():
        n, o = cases(new)[k], cases(old)[k]
        if abs(n["value"] - o["value"]) > 1.2e-16:
            assert abs(n["value"] - value) <= 1.2e-16, (k, n["value"], o["value"], value)
            o["value"] = n["value"]
    return max_rounding_gap(new, old)


# the holder suite's digest when its step multipliers took two refined levels;
# the refined levels took F at tags one ulp off the jump lines, up to 4.4e-16
# off the corner formula (sineStrip(2)'s factor has slope near 1 there), so
# a pairing may instead move to within rounding of the exact corner formula;
# re-recorded when the by-parts sum became one term (17 of 400 floats moved,
# by at most 4.1e-14)
PRE_EXACT_HOLDER_DIGEST = "02129864a0a236e96bc2001e30a958f238dcb01a5e0a607648b06085dac65346"


def test_holder_suite_differs_from_its_refined_levels_by_rounding(monkeypatch):
    new = _suite_report("holder")
    exact = holder_corner_values(monkeypatch)
    refine_step_multipliers(monkeypatch)
    old = cli._jsonable(run_suite("holder"))
    assert hashlib.sha256(json.dumps(old, sort_keys=True).encode()).hexdigest() == PRE_EXACT_HOLDER_DIGEST
    assert 0.0 < rounding_or_corner_gap(new, old, exact) <= 1.2e-16


# sup |H_z - F| of expRadial in the convolution suite, z = 0.5 ... 0.0625, as
# the full 3-d sum over every grid node, the infinite ones included, gave it
FULL_3D_EXPRADIAL_ERRORS = [0.5915165474504772, 0.4268645383335772, 0.2871783229134399, 0.18272859948971965]


def test_convolution_suite_matches_the_full_3d_sum():
    (case,) = [c for c in _suite_report("convolution")["cases"] if c.get("f") == "expRadial"]
    assert case["passed"]
    assert np.max(np.abs(np.subtract(case["errors"], FULL_3D_EXPRADIAL_ERRORS))) <= 1e-14


# the convolution suite's digest under the 4-d broadcast sum, the one it
# replaced; re-recorded when the by-parts sum became one term (3 of 29
# floats moved, by at most 2.2e-16), and again when expRadial's 3-d sum took
# one quadrant of the grid, which the 4-d sum now sees too: on the full grid
# (expRadial undeclared) it gives back the digest it had before
FOUR_D_CONVOLUTION_DIGEST = "5cd2b163167f41881ace920e9f66a3608f50e1bf8842217ceed49682987c1136"
FOUR_D_FULL_GRID_CONVOLUTION_DIGEST = "fd3dc63ee00351e9f4018815d82de2b10b7f940587cb4f2d2deecd8d1ee1678b"


def _report_digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_convolution_suite_matches_the_four_d_sum(monkeypatch):
    new = _suite_report("convolution")
    monkeypatch.setattr(convolution, "_broadcast_sum", four_d_broadcast_sum)
    old = cli._jsonable(run_suite("convolution"))
    assert _report_digest(old) == FOUR_D_CONVOLUTION_DIGEST
    assert 0.0 < max_rounding_gap(new, old) <= 1e-15
    catalog = suites.catalog_primitive
    monkeypatch.setattr(suites, "catalog_primitive", lambda name, **params: (
        full_grid(catalog(name)) if name == "expRadial" else catalog(name, **params)))
    full = cli._jsonable(run_suite("convolution"))
    assert _report_digest(full) == FOUR_D_FULL_GRID_CONVOLUTION_DIGEST
    assert 0.0 < max_rounding_gap(new, full) <= 1e-15


# sup |F| of the catalog primitives where it is known; sinc2d peaks at x = y = pi
EXACT_SUP = {
    "prodArctan": 1.0,
    "gauss2:F": 1.0,
    "gauss2:G": 1.0,
    "expRadial": 1.0,
    "sinc2d": (sici(math.pi)[0] + math.pi / 2) ** 2,
    **{f"sineStrip({n})": 2.0 / n for n in (1, 2, 4)},
}


def _polish_cases():
    return catalog_distributions() + [catalog_primitive("sineStrip", n=n) for n in (1, 4)]


@pytest.mark.parametrize("F", _polish_cases(), ids=lambda F: F.label)
def test_polished_levels_bracketed_by_grid_and_exact_sup(F):
    sup, prime = integral._sup_levels(F), integral._prime_levels(F)
    sups, primes = [], []
    for r in (16, 32, 64):
        xs = axis_nodes(r)
        G = F.on_grid(xs, xs)
        sups.append(sup(G, r))
        primes.append(prime(G, r))
        assert sups[-1] >= float(np.max(np.abs(G)))
        if F.label in EXACT_SUP:
            assert sups[-1] <= EXACT_SUP[F.label] + 1e-12
        assert primes[-1] >= _interval_sweep(G)
    # each level also searches from the previous level's best point
    assert sups == sorted(sups) and primes == sorted(primes)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_polished_norms_of_sine_strip_are_exact(n):
    f = distribution("sineStrip", n=n)
    for norm in (alexiewicz_norm, norm_prime):
        res = norm(f, tol=1e-8)
        assert res.converged
        assert abs(res.value - 2.0 / n) <= 1e-12


def test_polish_zooms_in_on_a_smooth_maximum():
    # a 4-d quadratic peak off every stencil point: the search ends within 1e-10
    peak = np.array([0.3, -0.123456789, 0.777, -1.0])
    best, point = integral._polish(lambda p: -np.sum((p - peak) ** 2, axis=1), [[0.25, -0.1, 0.8, -0.95]], 0.0625)
    assert -1e-19 <= best <= 0.0
    assert np.max(np.abs(point - peak)) < 1e-9


def test_polish_climbs_a_crease():
    # a ridge along u = 3 v with its top at (0.6, 0.2); from (0.3, 0.1) on the
    # ridge every direction of the axis stencil goes down (by 3h at best)
    def fun(p):
        u, v = p.T
        return -np.abs(u - 0.6) - np.abs(v - 0.2) - 4.0 * np.abs(u - 3.0 * v)

    best, point = integral._polish(fun, [[0.3, 0.1]], 0.125)
    assert best >= -1e-9
    assert np.max(np.abs(point - [0.6, 0.2])) < 1e-9


def test_polish_keeps_a_nan():
    best, _ = integral._polish(lambda p: np.where(p[:, 0] > 0.5, np.nan, p[:, 0]), [[0.0, 0.0]], 0.25)
    assert math.isnan(best)


class _NanBetweenNodes(Primitive):
    """Zero on the nodes of axis_nodes(16) in x and NaN between them: only the search sees a NaN."""

    def eval(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        k = (chart(x) + 1.0) * 8.0
        return np.where(np.abs(k - np.round(k)) < 1e-9, 0.0, np.nan)


@pytest.mark.parametrize("norm", [alexiewicz_norm, norm_prime, norm_dual])
def test_nan_found_by_the_search_reaches_the_driver(norm):
    with pytest.raises(ArithmeticError, match="evaluated to NaN"):
        norm(_NanBetweenNodes("nan"), start_resolution=16, max_doublings=0)


def _ramp_gauss_meet_sup():
    """sup of min(R(x) R(y), exp(-x^2 - y^2)), R the arctan ramp: R(t)^2 where R(t) = exp(-t^2), t > 0."""
    ramp = lambda t: 0.5 + math.atan(t) / math.pi
    return ramp(brentq(lambda t: ramp(t) - math.exp(-t * t), 0.0, 3.0, xtol=1e-15)) ** 2


@pytest.mark.parametrize("start", [16, 24, 32])
def test_norms_of_a_meet_reach_its_crease_top(start):
    # the sup sits on the crease of the min; a search along the stencil axes
    # stalled below it, the same at every level, and reported that as converged
    meet = lattice_meet(catalog_primitive("prodArctan"), catalog_primitive("gauss2"))
    top = _ramp_gauss_meet_sup()
    for norm, exact in ((alexiewicz_norm, top), (norm_prime, top), (norm_dual, top / 4.0)):
        res = norm(meet, start_resolution=start)
        assert res.converged
        assert abs(res.value - exact) <= 1e-12, norm.__name__
        levels = [row["value"] for row in res.trace]
        assert levels == sorted(levels), norm.__name__


def test_grid_sample_norms_are_node_maxima():
    # bilinear in the chart, so the extrema sit on nodes: the norms are exact node reductions
    normal = np.random.default_rng(5).standard_normal((33, 33))
    for prim in (sample_primitive(catalog_primitive("sinc2d"), 64), GridSamplePrimitive(Grid2(32), normal)):
        V, r = prim.values, prim.grid.resolution
        sup, prime = float(np.max(np.abs(V))), _interval_sweep(V)
        for norm, value in ((alexiewicz_norm, sup), (norm_prime, prime), (norm_dual, max(sup / 4, prime / 9))):
            res = norm(prim)
            assert res.value == value, norm.__name__
            assert (res.error_estimate, res.resolution, res.converged) == (0.0, r, True)
            assert res.trace == [{"resolution": r, "value": value}]


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


@pytest.mark.parametrize("levels", ["_sup_levels", "_prime_levels"])
def test_norm_dual_raises_on_a_nan_level(monkeypatch, levels):
    # Python max(sup / 4, prime / 9) would drop a NaN prime level; np.maximum keeps it.
    # expRadial is not separable, so its levels are the polished grid levels
    monkeypatch.setattr(integral, levels, lambda F: lambda G, r: float("nan"))
    with pytest.raises(ArithmeticError, match="evaluated to NaN"):
        norm_dual(distribution("expRadial"))


def test_factored_norm_dual_raises_on_a_nan_level():
    # osc(a) overflows to inf and b is 0, so the prime level is inf * 0 = NaN
    # while the sup level is 0; the factored dual keeps the NaN too
    F = SeparablePrimitive((lambda x: 1.5e308 * np.tanh(x), lambda y: np.zeros(np.shape(y))), "overflow")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ArithmeticError, match="evaluated to NaN"):
        norm_dual(F)


SEPARABLE_CASES = [("sineStrip", {"n": 1}), ("sineStrip", {"n": 4}), ("prodArctan", {}), ("sinc2d", {}),
                   ("sincQuadrant", {}), ("weier2d", {}), ("cantor2d", {}), ("oscill", {}),
                   ("gauss2", {"which": "F"}), ("gauss2", {"which": "G"})]


@pytest.mark.parametrize("name, params", SEPARABLE_CASES,
                         ids=[name + "".join(map(str, p.values())) for name, p in SEPARABLE_CASES])
def test_factored_norms_match_the_polished_grid_norms(name, params):
    # the same values without factors take the 2-d polished search
    F = catalog_primitive(name, **params)
    reference = ClosedFormPrimitive(F.eval, F.label)
    for norm in (alexiewicz_norm, norm_prime, norm_dual):
        fast, slow = norm(F), norm(reference)
        assert fast.converged and slow.converged, norm.__name__
        assert abs(fast.value - slow.value) <= 1e-12 * slow.value, norm.__name__
        levels = [row["value"] for row in fast.trace]
        assert levels == sorted(levels), norm.__name__


@pytest.mark.parametrize("norm", [alexiewicz_norm, norm_prime, norm_dual])
def test_structured_norms_never_evaluate_the_plane(monkeypatch, norm):
    # a separable norm reads only eval_factors, a grid sample's only its values
    def refuse(self, x, y):
        raise AssertionError(f"{type(self).__name__}.eval called")

    monkeypatch.setattr(SeparablePrimitive, "eval", refuse)
    monkeypatch.setattr(GridSamplePrimitive, "eval", refuse)
    assert norm(catalog_primitive("sinc2d")).converged
    assert norm(translate(distribution("gauss2"), 1.0, -0.5)).converged
    assert norm(algebra_product(distribution("prodArctan"), distribution("gauss2"))).converged
    assert norm(GridSamplePrimitive(Grid2(8), np.arange(81.0).reshape(9, 9))).converged


def test_norm_dual_with_probes():
    f = distribution("prodArctan")
    probes = [catalog_bv("quadrantIndicator"), catalog_bv("intervalIndicator", a=-1, b=1, c=-1, d=1)]
    tol = 1e-6
    res = norm_dual(f, probes=probes, tol=tol)
    assert res.converged
    assert res.converged == (res.error_estimate <= tol)
    assert res.resolution > 0
    a = alexiewicz_norm(f).value
    assert 0.0 < res.value <= a + 1e-9


def test_norm_dual_rejects_a_probe_of_divergent_variation():
    with pytest.raises(ValueError, match="probe 'diagonalIndicator' has divergent variation"):
        norm_dual(catalog_primitive("prodArctan"), probes=[catalog_bv("diagonalIndicator")])


def test_norm_dual_with_probes_reports_the_worst_pairing():
    # the approxIdentity pairing stops at resolution 4096 with an increment
    # near 7e-8: the result keeps that estimate and is not converged at 1e-10
    f = distribution("prodArctan")
    smooth = catalog_bv("approxIdentity", n=2)
    scale = max(hk_norm(smooth, tol=1e-10).value, 1.0)
    pairing = integrate_product(f, smooth, tol=1e-10 * scale)
    res = norm_dual(f, probes=[catalog_bv("quadrantIndicator"), smooth], tol=1e-10)
    assert not res.converged and not pairing.converged
    assert res.converged == (res.error_estimate <= 1e-10)
    assert res.error_estimate == pairing.error_estimate / scale
    assert res.resolution == pairing.resolution


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


# (value, error estimate) as float.hex, and the number of quad calls, of each
# nested improper quadrature; the values were recorded before the nests
# shared one helper, and the s-integral of xPowY dyFirst is taken once
IMPROPER = {
    ("xPowY", "dyFirst"): ("0x1.f251d6aa77037p-50", "0x1.02d12707da0a0p-49", 2),
    ("xPowY", "dxFirst"): ("-0x1.0a64ca22698d4p-45", "0x1.a27a72499c71cp-44", 46),
    ("arctanXY", "dyFirst"): ("0x1.921fb54442d46p+1", "0x1.1b6f60f400000p-31", 91),
    ("arctanXY", "dxFirst"): ("-0x1.ac3568a791603p-52", "0x1.0d51988522eeap-51", 64),
    ("poisson mass", 1.0): ("0x1.0000000000011p+0", "0x1.68df956300000p-33", 91),
}


@pytest.mark.parametrize("name, arg", list(IMPROPER))
def test_nested_quadratures_keep_their_values_and_quad_calls(name, arg, monkeypatch):
    from scipy import integrate

    from cpintegral.suites import poisson_mass

    quad, calls = integrate.quad, []

    def counting_quad(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(integrate, "quad", counting_quad)
    if name == "poisson mass":
        value, err = poisson_mass(arg)
    else:
        res = improper_example(name, arg)
        value, err = res.value, res.error_estimate
    assert (float(value).hex(), float(err).hex(), len(calls)) == IMPROPER[name, arg]


def test_improper_rejects_bad_names():
    with pytest.raises(ValueError):
        improper_example("nope", "dyFirst")
    with pytest.raises(ValueError):
        improper_example("xPowY", "sideways")
    with pytest.raises(ValueError, match="order must be 'xy' or 'yx'"):
        improper_iterated(lambda x, y: np.exp(-x * x - y * y), order="zz")


def test_run_suite_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope")


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
