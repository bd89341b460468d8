"""Golden results of every refinement loop.

Each case was recorded from the routines as they stood before they shared
one refinement driver; the values, error estimates, final resolutions,
converged flags and per-level traces must stay bit for bit the same.
The variation estimates' error estimates were added when they began to
report one; each is the last increment of its pinned trace.  Those of the
quadrant, interval and half-plane indicators were re-recorded when step
multipliers became exact on one level of resolution 2 (errorEstimate 0,
one trace row); their values did not move, and each is checked against
its exact value (STEP_EXACT).
The norms of sineStrip(1) are checked against their exact values instead,
since their levels are polished; so is norm_prime(weier2d), against a
lower bound.
The convolve_l1 cases record a SHA-256 digest of the sampled H grid.  The
expRadial digests were re-recorded when the infinite grid rows became 1-d
sums; they differ from the full 3-d sum by rounding only
(test_convolve_l1_golden_matches_the_full_3d_sum).  They were re-recorded
again when expRadial's G stopped calling np.hypot, from which they differ
by rounding only (test_convolve_l1_golden_matches_the_hypot_formula), and
a third time when the 3-d sum took the on_grid row x column shape in
cache-sized blocks, which changed its summation order only
(test_convolve_l1_golden_matches_the_four_d_sum).
The sinc2d pairing with approxIdentity(1) was re-recorded when the nine-term
by-parts sum became one term: its last level moved by 2 ulps, and it is
also checked against the exact pairing (PRODUCT_EXACT).
The driver's stopping rule, the first increment within tol, and its give-up
and NaN exits are also tested on synthetic level sequences.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import sici

from cpintegral import convolution, integral, primitive
from cpintegral.convolution import PoissonKernelL1, convolve_l1
from cpintegral.extplane import FULL_PLANE, NEG_INF, POS_INF
from cpintegral.integral import alexiewicz_norm, norm_dual, norm_prime
from cpintegral.primitive import approx_identity, catalog_bv, distribution
from cpintegral.stieltjes import integrate_product, rs_line_integral, rs_plane_integral
from cpintegral.variation import hk_norm, sectional_variation_sup, variation_1d, vitali_variation
from test_convolution import four_d_broadcast_sum

INDICATORS = {
    "quadrant": lambda: catalog_bv("quadrantIndicator"),
    "halfPlane": lambda: catalog_bv("halfPlaneIndicator"),
    "interval": lambda: catalog_bv("intervalIndicator", a=0, b=1, c=0, d=1),
    "diagonal": lambda: catalog_bv("diagonalIndicator"),
}


def _cases():
    sine = lambda: distribution("sineStrip", n=1)
    cases = {}
    for tol in (1e-6, 1e-8):
        cases[f"alexiewicz_norm-sineStrip-{tol}"] = lambda tol=tol: alexiewicz_norm(sine(), tol=tol)
        cases[f"norm_prime-sineStrip-{tol}"] = lambda tol=tol: norm_prime(sine(), tol=tol)
        cases[f"norm_dual-sineStrip-{tol}"] = lambda tol=tol: norm_dual(sine(), tol=tol)
    cases["norm_prime-weier2d"] = lambda: norm_prime(distribution("weier2d"))
    for name, g in INDICATORS.items():
        cases[f"hk_norm-{name}"] = lambda g=g: hk_norm(g())
        cases[f"vitali_variation-{name}"] = lambda g=g: vitali_variation(g())
        for axis in (1, 2):
            cases[f"sectional_variation_sup{axis}-{name}"] = (
                lambda g=g, axis=axis: sectional_variation_sup(g(), axis)
            )
    cases["variation_1d-arctan"] = lambda: variation_1d(np.arctan)
    cases["rs_line_integral-unconverged"] = lambda: rs_line_integral(
        lambda s: np.exp(-np.abs(s)), np.arctan, NEG_INF, POS_INF, tol=1e-15, max_doublings=2
    )
    cases["rs_plane_integral-unconverged"] = lambda: rs_plane_integral(
        distribution("prodArctan").primitive.eval, approx_identity(2), FULL_PLANE,
        tol=1e-12, max_doublings=3,
    )
    cases["integrate_product-sinc2d-ai1"] = lambda: integrate_product(
        distribution("sinc2d"), approx_identity(1), tol=1e-6
    )
    cases["integrate_product-prodArctan-ai8"] = lambda: integrate_product(
        distribution("prodArctan"), approx_identity(8), tol=1e-6
    )
    for name in ("prodArctan", "expRadial"):
        for z in (0.5, 0.0625):
            cases[f"convolve_l1-{name}-{z}"] = lambda name=name, z=z: convolve_l1(
                distribution(name), PoissonKernelL1(z), resolution=16, tol=1e-6, normalize=True
            )
    return cases


CASES = _cases()


def record(result):
    """(value, errorEstimate, resolution, converged, trace values) of a result.

    Fields a routine does not report are None; convolve_l1's value is the
    SHA-256 digest of its H grid.
    """
    trace = getattr(result, "trace", None)
    if trace is not None:
        return (result.value, result.error_estimate, result.resolution, result.converged,
                [row["value"] for row in trace])
    digest = hashlib.sha256(np.asarray(result.primitive.values).tobytes()).hexdigest()
    return (digest, result.error_estimate, None, result.converged, None)


GOLDEN = {
    'convolve_l1-expRadial-0.0625': (
        '1ec410fab9db75f1be6a3b616dc2e14e9e81b2a822051f321219526e97741048', 0.0036373536851645612, None, False,
        None,
    ),
    'convolve_l1-expRadial-0.5': (
        '1cdc55b10e6145027a32e4ef6e780ee111e21946b6997d520b99080bac49cea2', 0.0028449676313387472, None, False,
        None,
    ),
    'convolve_l1-prodArctan-0.0625': (
        '8b48c7bceb47d90ec20f3cd87b257eccf2162c0002b71f87702ad9dbccc53852', 0.004000712424736663, None, True,
        None,
    ),
    'convolve_l1-prodArctan-0.5': (
        'c0e4b497c2a10fc2f00d1eaecabbb8bd5b95910b7cf0dfaa94ee53e2451f6cd8', 0.004003011592063077, None, False,
        None,
    ),
    'hk_norm-diagonal': (
        1026.0, 512.0, 512, False,
        [130.0, 258.0, 514.0, 1026.0],
    ),
    'hk_norm-halfPlane': (
        2.0, 0.0, 2, True,
        [2.0],
    ),
    'hk_norm-interval': (
        9.0, 0.0, 2, True,
        [9.0],
    ),
    'hk_norm-quadrant': (
        4.0, 0.0, 2, True,
        [4.0],
    ),
    'integrate_product-prodArctan-ai8': (
        0.917080833634021, 0.0, 64, True,
        [0.917080833634021, 0.917080833634021],
    ),
    'integrate_product-sinc2d-ai1': (
        4.231995767688444, 2.374778333980032e-06, 4096, False,
        [4.219100057473557, 4.228758758342621, 4.231186252524351, 4.231793929036446, 4.2319458983732225, 4.231983893845809, 4.23199339291011, 4.231995767688444],
    ),
    'rs_line_integral-unconverged': (
        1.2428916508425625, 2.2774387930191153e-05, 128, False,
        [1.2427785280577428, 1.2428688764546323, 1.2428916508425625],
    ),
    'rs_plane_integral-unconverged': (
        0.0364861474457989, 1.5381601359429342e-05, 256, False,
        [0.03676281934736224, 0.036560869632623096, 0.03650152904715833, 0.0364861474457989],
    ),
    'sectional_variation_sup1-diagonal': (
        1.0, 0.0, 128, True,
        [1.0, 1.0],
    ),
    'sectional_variation_sup1-halfPlane': (
        1.0, 0.0, 2, True,
        [1.0],
    ),
    'sectional_variation_sup1-interval': (
        2.0, 0.0, 2, True,
        [2.0],
    ),
    'sectional_variation_sup1-quadrant': (
        1.0, 0.0, 2, True,
        [1.0],
    ),
    'sectional_variation_sup2-diagonal': (
        1.0, 0.0, 128, True,
        [1.0, 1.0],
    ),
    'sectional_variation_sup2-halfPlane': (
        0.0, 0.0, 2, True,
        [0.0],
    ),
    'sectional_variation_sup2-interval': (
        2.0, 0.0, 2, True,
        [2.0],
    ),
    'sectional_variation_sup2-quadrant': (
        1.0, 0.0, 2, True,
        [1.0],
    ),
    'variation_1d-arctan': (
        3.141592653589793, 0.0, 128, True,
        [3.141592653589793, 3.141592653589793],
    ),
    'vitali_variation-diagonal': (
        1023.0, 512.0, 512, False,
        [127.0, 255.0, 511.0, 1023.0],
    ),
    'vitali_variation-halfPlane': (
        0.0, 0.0, 2, True,
        [0.0],
    ),
    'vitali_variation-interval': (
        4.0, 0.0, 2, True,
        [4.0],
    ),
    'vitali_variation-quadrant': (
        1.0, 0.0, 2, True,
        [1.0],
    ),

}


# name -> (exact value, tol) of the norm cases: ||sineStrip(1)|| = ||sineStrip(1)||' = 2
# and the default norm_dual is max(2 / 4, 2 / 9)
EXACT = {}
for _tol in (1e-6, 1e-8):
    EXACT[f"alexiewicz_norm-sineStrip-{_tol}"] = (2.0, _tol)
    EXACT[f"norm_prime-sineStrip-{_tol}"] = (2.0, _tol)
    EXACT[f"norm_dual-sineStrip-{_tol}"] = (0.5, _tol)

# the exact pairing of sinc2d with approxIdentity(1), the square of
# pi/2 - 1 + cos(1) + Si(1), and the case's tol
PRODUCT_EXACT = {"integrate_product-sinc2d-ai1": ((math.pi / 2 - 1 + math.cos(1.0) + sici(1.0)[0]) ** 2, 1e-6)}

# the exact variation components of the step multipliers among INDICATORS
STEP_EXACT = {
    f"{routine}-{name}": value
    for routine, values in (("hk_norm", (4.0, 9.0, 2.0)), ("vitali_variation", (1.0, 4.0, 0.0)),
                            ("sectional_variation_sup1", (1.0, 2.0, 1.0)),
                            ("sectional_variation_sup2", (1.0, 2.0, 0.0)))
    for name, value in zip(("quadrant", "interval", "halfPlane"), values)
}

# osc(a) osc(b) of the two factors of weier2d on axis_nodes(2**20): the value
# of one interval, so a lower bound of norm_prime(weier2d)
WEIER2D_PRIME_BELOW = 11.8908613779


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    result = CASES[name]()
    if name in EXACT:
        exact, tol = EXACT[name]
        assert result.converged
        assert abs(result.value - exact) <= tol
    elif name == "norm_prime-weier2d":
        assert result.value >= WEIER2D_PRIME_BELOW
    else:
        assert record(result) == GOLDEN[name]
    if name in PRODUCT_EXACT:
        exact, tol = PRODUCT_EXACT[name]
        assert abs(result.value - exact) <= tol
    trace = getattr(result, "trace", result[2] if isinstance(result, tuple) else None)
    if trace:
        assert all(set(row) == {"resolution", "value"} for row in trace)
        resolutions = [row["resolution"] for row in trace]
        assert all(b == 2 * a for a, b in zip(resolutions, resolutions[1:]))
        if not isinstance(result, tuple):
            values = [row["value"] for row in trace]
            if name in STEP_EXACT:
                assert (result.value, result.error_estimate, len(values)) == (STEP_EXACT[name], 0.0, 1)
            else:
                assert result.error_estimate == (abs(values[-1] - values[-2]) if len(values) > 1 else math.inf)


def _steps(*values):
    """A step function that returns the given values level by level."""
    levels = iter(values)
    return lambda r: next(levels)


def test_driver_stops_after_one_small_increment():
    res = integral._refine(_steps(1.0, 1.5, 1.5), 1e-9, 4, 4)
    assert res.converged
    assert (res.value, res.error_estimate, res.resolution, len(res.trace)) == (1.5, 0.0, 16, 3)


def test_driver_single_level_reports_infinite_error():
    res = integral._refine(_steps(3.0), 1e-9, 32, 0)
    assert not res.converged
    assert res.error_estimate == math.inf
    assert res.trace == [{"resolution": 32, "value": 3.0}]


def test_driver_unconverged_reports_last_increment():
    res = integral._refine(_steps(1.0, 2.0, 2.5), 1e-9, 1, 2)
    assert not res.converged
    assert (res.value, res.error_estimate, res.resolution) == (2.5, 0.5, 4)


def test_driver_give_up_ends_run_unconverged():
    res = integral._refine(_steps(1.0, 2.0, 3.0, 3.0), 1e-9, 1, 3, give_up=lambda trace: len(trace) == 2)
    assert not res.converged
    assert (res.value, res.error_estimate, res.resolution) == (2.0, 1.0, 2)


def test_driver_array_levels_use_largest_increment():
    res = integral._refine(_steps(np.zeros(3), np.array([0.0, -0.25, 0.1])), 1e-9, 1, 1)
    assert not res.converged
    assert res.error_estimate == 0.25


def test_driver_rejects_nan_levels():
    with pytest.raises(ArithmeticError):
        integral._refine(_steps(1.0, np.array([0.0, np.nan])), 1e-9, 1, 3)


@pytest.mark.parametrize("run", [
    lambda: convolve_l1(distribution("expRadial"), PoissonKernelL1(0.5), resolution=8, max_levels=-1),
    lambda: integrate_product(distribution("prodArctan"), approx_identity(2), max_doublings=-1),
    lambda: alexiewicz_norm(distribution("prodArctan"), max_doublings=-1),
    lambda: alexiewicz_norm(distribution("expRadial"), max_doublings=-1),
], ids=["convolve_l1", "integrate_product", "alexiewicz_norm-separable", "alexiewicz_norm"])
def test_callers_reject_negative_doublings(run):
    with pytest.raises(ValueError, match="max_doublings"):
        run()


def _full_broadcast_sum(eval2, grid_xs, px, py, K):
    """sum over l, k of K[l, k] eval2(x_i - p_k, y_j - q_l) in 3-d at every grid node.

    The infinite grid nodes are summed like the finite ones, on explicit
    (kernel nodes x grid) coordinate arrays, to compare against the sum that
    reduces them to 1-d sums.
    """
    X, Y = np.meshgrid(grid_xs, grid_xs)
    XI, ETA = np.meshgrid(px, py)
    xi, eta, w = XI.ravel(), ETA.ravel(), K.ravel()
    chunk = max(1, 2**18 // X.size)
    H = np.zeros(X.shape)
    for start in range(0, len(w), chunk):
        xs = X[None, :, :] - xi[start : start + chunk, None, None]
        ys = Y[None, :, :] - eta[start : start + chunk, None, None]
        vals = np.asarray(eval2(xs, ys), dtype=float)
        H += np.tensordot(w[start : start + chunk], vals, axes=(0, 0))
    return H


@pytest.mark.parametrize("z", [0.5, 0.0625])
def test_convolve_l1_golden_matches_the_full_3d_sum(monkeypatch, z):
    # the expRadial goldens above differ from the full 3-d sum by rounding only
    def run():
        kernel = PoissonKernelL1(z)
        quad_points, levels = kernel.quad_points, []
        kernel.quad_points = lambda level: levels.append(level) or quad_points(level)
        dist = convolve_l1(distribution("expRadial"), kernel, resolution=16, tol=1e-6, normalize=True)
        return dist, levels

    new, new_levels = run()
    monkeypatch.setattr(convolution, "_broadcast_sum", _full_broadcast_sum)
    full, full_levels = run()
    assert np.max(np.abs(new.primitive.values - full.primitive.values)) <= 1e-14
    assert abs(new.error_estimate - full.error_estimate) <= 1e-15
    assert (new.converged, new_levels) == (full.converged, full_levels)


# the expRadial goldens' digests under G = exp(-hypot(x, y))
HYPOT_DIGESTS = {
    0.5: "3adb4bb84bc646f9604afa6f054d29daba5caa862fd2d92514eb1c1d6d3f72e1",
    0.0625: "40c368bf3e8437a297d823d502493b27cd75e3109d5c55a958c79195d0b2216c",
}


@pytest.mark.parametrize("z", sorted(HYPOT_DIGESTS))
def test_convolve_l1_golden_matches_the_hypot_formula(monkeypatch, z):
    def run():
        return convolve_l1(distribution("expRadial"), PoissonKernelL1(z), resolution=16, tol=1e-6, normalize=True)

    new = run()
    monkeypatch.setattr(primitive, "_exp_radial", lambda x, y: np.exp(-np.hypot(x, y)))
    old = run()
    assert hashlib.sha256(old.primitive.values.tobytes()).hexdigest() == HYPOT_DIGESTS[z]
    assert 0.0 < np.max(np.abs(new.primitive.values - old.primitive.values)) <= 1.2e-16
    assert (new.error_estimate, new.converged) == (old.error_estimate, old.converged)


def _exp_radial_levels(z):
    """The expRadial golden run at height z, with the quadrature levels it took."""
    kernel = PoissonKernelL1(z)
    quad_points, levels = kernel.quad_points, []
    kernel.quad_points = lambda level: levels.append(level) or quad_points(level)
    dist = convolve_l1(distribution("expRadial"), kernel, resolution=16, tol=1e-6, normalize=True)
    return dist, levels


def _digest(dist):
    return hashlib.sha256(dist.primitive.values.tobytes()).hexdigest()


# the expRadial goldens' digests under the 4-d broadcast sum, with G as it is
# and as exp(-hypot(x, y)): the golden and HYPOT_DIGESTS values they replaced
FOUR_D_DIGESTS = {
    0.5: ("c97283c7051f35109b4cf155710ce341b5cd544dd0a645c006d40fd674047ac9",
          "19b39613e2c50766a6eee1e2380e7f3af5e82ecb78319f1a88216c7884fae8d3"),
    0.0625: ("75af22ca175dfb3bd4fa3047cc6bf208b7b329cfca153fcc066637e8c3f67e41",
             "c94c44ff1b9fce68e4df9ba12d49b3d029dc34c35750bc82848949f525e28ad3"),
}


@pytest.mark.parametrize("z", sorted(FOUR_D_DIGESTS))
def test_convolve_l1_golden_matches_the_four_d_sum(monkeypatch, z):
    # the row x column blocks change the 3-d sum's order only: with the 4-d
    # sum put back the old digests return, and the grids differ by rounding
    new, new_levels = _exp_radial_levels(z)
    monkeypatch.setattr(convolution, "_broadcast_sum", four_d_broadcast_sum)
    old, old_levels = _exp_radial_levels(z)
    digest, hypot_digest = FOUR_D_DIGESTS[z]
    assert _digest(old) == digest
    assert 0.0 < np.max(np.abs(new.primitive.values - old.primitive.values)) <= 1e-15
    assert abs(new.error_estimate - old.error_estimate) <= 1e-15
    assert (new.converged, new_levels) == (old.converged, old_levels)
    monkeypatch.setattr(primitive, "_exp_radial", lambda x, y: np.exp(-np.hypot(x, y)))
    assert _digest(_exp_radial_levels(z)[0]) == hypot_digest


def test_line_integral_with_nan_integrand_raises():
    # cos is NaN at the boundary tags +-inf
    with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError):
        rs_line_integral(np.cos, np.arctan, NEG_INF, POS_INF)


def _sin_inverse(t):
    """sin(1/t), set to 0 at 0 and at +-inf; its variation is infinite."""
    t = np.asarray(t, dtype=float)
    ok = np.isfinite(t) & (t != 0)
    return np.where(ok, np.sin(1.0 / np.where(ok, t, 1.0)), 0.0)


def test_variation_1d_stops_on_growing_increments():
    # variation_1d shares the divergence stop of the 2-d variation routines:
    # the last three increments are not shrinking, so it stops at 2048 where
    # the GUARD cap alone ran on to 65536 (value 537.1, also unconverged)
    res = variation_1d(_sin_inverse)
    assert not res.converged
    assert res.resolution == res.trace[-1]["resolution"] == 2048
    assert abs(res.value - 94.6) < 0.05
