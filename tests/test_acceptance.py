"""Acceptance gate: one test per advertised guarantee.

Each test prints a single PASS line with its runtime; tolerances and time
budgets match the package's documented guarantees (see README).
"""

import itertools
import math
import time

import numpy as np

from cpintegral.extplane import POS_INF, make_interval
from cpintegral.integral import (
    IntervalND,
    alexiewicz_norm,
    corner_integral,
    corner_integral_nd,
)
from cpintegral.operators import translate
from cpintegral.primitive import (
    ClosedFormPrimitive,
    Distribution,
    catalog_bv,
    distribution,
)
from cpintegral.stieltjes import integrate_product
from cpintegral.suites import run_suite
from cpintegral.variation import grid_components, hk_norm, variation_trace


def _report(num, label, t0, budget):
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.1f}s)"
    print(f"criterion {num:02d} PASS ({dt:.2f}s < {budget}s): {label}")


def test_criterion_01_alexiewicz_exact_values():
    t0 = time.perf_counter()
    for n in (1, 2, 4, 8):
        res = alexiewicz_norm(distribution("sineStrip", n=n), tol=1e-3,
                              start_resolution=256, max_doublings=3)
        assert res.resolution <= 2048
        assert abs(res.value - 2.0 / n) <= 1e-3, (n, res.value)
    _report(1, "strip-sine norms equal 2/n for n in {1,2,4,8}", t0, 10)


def test_criterion_02_hardy_krause_exact_norms():
    t0 = time.perf_counter()
    cases = [
        (catalog_bv("quadrantIndicator"), 4.0),
        (catalog_bv("halfPlaneIndicator"), 2.0),
        (catalog_bv("intervalIndicator", a=0, b=1, c=0, d=1), 9.0),
    ]
    for g, expected in cases:
        sup, v1, v2, v12 = grid_components(g, 64)
        assert sup + v1 + v2 + v12 == expected, g.label
        assert hk_norm(g).value == expected
    _report(2, "indicator variation norms 4 / 2 / 9 exact at resolution 64", t0, 1)


def test_criterion_03_diagonal_divergence_witness():
    t0 = time.perf_counter()
    trace = variation_trace(catalog_bv("diagonalIndicator"), doublings=5)
    values = [row["value"] for row in trace]
    assert len(values) >= 6
    assert all(b > a for a, b in zip(values, values[1:])), values
    _report(3, "diagonal indicator variation strictly increases over 5 doublings", t0, 5)


def test_criterion_04_interval_indicator_coincidence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    fs = [distribution(n) for n in ("prodArctan", "expRadial", "gauss2")]
    for f in fs:
        for _ in range(30):
            ends = rng.uniform(-4.0, 4.0, size=4)
            # the indicator is orientation-free, so probe positively
            # oriented intervals
            iv = make_interval(min(ends[0], ends[1]), max(ends[0], ends[1]),
                               min(ends[2], ends[3]), max(ends[2], ends[3]))
            g = catalog_bv("intervalIndicator", interval=iv)
            got = integrate_product(f, g).value
            want = corner_integral(f, iv)
            assert abs(got - want) <= 1e-6, (f.label, iv)
    _report(4, "product with interval indicator equals corner integral, 90 cases", t0, 60)


def test_criterion_05_holder_inequality_suite():
    t0 = time.perf_counter()
    rep = run_suite("holder", seed=7)
    assert rep["passed"], rep
    assert len(rep["cases"]) >= 200
    _report(5, "200 randomized cases satisfy the norm-product bound", t0, 120)


def test_criterion_06_norm_sandwiches():
    t0 = time.perf_counter()
    rep = run_suite("norms")
    assert rep["passed"], rep
    _report(6, "interval-norm sandwiches hold for every catalog distribution", t0, 30)


def test_criterion_07_ftc_roundtrip():
    t0 = time.perf_counter()
    rep = run_suite("ftc")
    assert rep["passed"], rep
    for row in rep["cases"]:
        assert row["maxUlps"] <= 4.0, row
    _report(7, "cumulative integral reproduces the primitive to 4 ulp at 65^2 nodes", t0, 5)


def test_criterion_08_order_dependent_iterated_integrals():
    t0 = time.perf_counter()
    rep = run_suite("fubini")
    assert rep["passed"], rep
    _report(8, "order-dependent iterated integrals and corner probes", t0, 30)


def test_criterion_09_lattice_and_sup_norm_identity():
    t0 = time.perf_counter()
    for name in ("lattice", "mspace"):
        rep = run_suite(name)
        assert rep["passed"], rep
    _report(9, "lattice laws exact; sup-norm join identity; incomparable pair", t0, 10)


def test_criterion_10_algebra_suite():
    t0 = time.perf_counter()
    rep = run_suite("algebra", seed=11)
    assert rep["passed"], rep
    _report(10, "submultiplicativity, zero divisors, approximate identity", t0, 10)


def test_criterion_11_bv_convergence_theorem():
    t0 = time.perf_counter()
    rep = run_suite("convergence")
    assert rep["passed"], rep
    assert all(case["threshold"] is not None for case in rep["cases"])
    _report(11, "integrals converge along a bounded-variation sequence", t0, 30)


def test_criterion_12_convolution_suite():
    t0 = time.perf_counter()
    rep = run_suite("convolution")
    assert rep["passed"], rep
    _report(12, "kernel mass 1, monotone mollification error, corner limits", t0, 180)


def test_criterion_13_translation_invariance_and_continuity():
    t0 = time.perf_counter()
    for name in ("prodArctan", "expRadial", "gauss2"):
        f = distribution(name)
        base = alexiewicz_norm(f).value
        shifted = alexiewicz_norm(translate(f, 1.0, 1.0)).value
        assert abs(base - shifted) <= 1e-6, name

        F = f.primitive
        deltas = []
        for h in (1.0, 0.5, 0.25, 0.125):
            G = translate(f, h, h)
            diff = Distribution(ClosedFormPrimitive(
                lambda x, y, F=F, G=G: np.asarray(F.eval(x, y)) - np.asarray(G.eval(x, y)),
                "difference",
            ))
            deltas.append(alexiewicz_norm(diff, start_resolution=256, max_doublings=0).value)
        assert all(b < a for a, b in zip(deltas, deltas[1:])), (name, deltas)
    _report(13, "norm invariant under translation; difference shrinks with the shift", t0, 20)


def test_criterion_14_three_dimensional_corner_formula():
    t0 = time.perf_counter()

    def ramp(t):
        if t == POS_INF:
            return 1.0
        if t == -math.inf:
            return 0.0
        return 0.5 + math.atan(t) / math.pi

    def F(*coords):
        out = 1.0
        for c in coords:
            out *= ramp(c)
        return out

    lower, upper = (0.0, 0.0, 0.0), (POS_INF, POS_INF, POS_INF)
    value = corner_integral_nd(F, IntervalND(lower, upper))

    oracle = 0.0
    for choice in itertools.product((0, 1), repeat=3):
        corner = [lower[i] if c == 0 else upper[i] for i, c in enumerate(choice)]
        sign = 1.0 if choice.count(0) % 2 == 0 else -1.0
        oracle += sign * F(*corner)
    assert abs(oracle - 0.125) <= 4 * np.spacing(0.125)
    assert abs(value - oracle) <= 4 * np.spacing(0.125)
    _report(14, "3-d corner formula gives 0.125, matching the 8-corner oracle", t0, 1)
