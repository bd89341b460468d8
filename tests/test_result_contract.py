"""The result contract: `converged` is true when, and only when, errorEstimate <= tol.

One table over the refining library routines, each on a case that converges
and on one that stops unconverged.  variation_1d reports its trace but no
errorEstimate; its estimate is the last increment between levels (inf after
a single level), the measure the refinement driver stops on.  Cases that
break the contract today are strict xfails.
"""

import math

import numpy as np
import pytest

from cpintegral.convolution import PoissonKernelL1, convolve_l1
from cpintegral.integral import alexiewicz_norm, norm_prime
from cpintegral.primitive import ClosedFormBV, approx_identity, catalog_bv, distribution
from cpintegral.stieltjes import integrate_product
from cpintegral.variation import hk_norm, sectional_variation_sup, variation_1d, vitali_variation

SMOOTH = ClosedFormBV(lambda x, y: np.sin(3.0 * np.arctan(x)) * np.cos(2.0 * np.arctan(y) + np.arctan(x)), "smooth")


def _last_increment(trace):
    return abs(trace[-1]["value"] - trace[-2]["value"]) if len(trace) > 1 else math.inf


def _result(res):
    """(converged, errorEstimate) of a QuadResult, a VariationEstimate or a convolved distribution."""
    return res.converged, res.error_estimate


def _1d(result):
    value, converged, trace = result
    return converged, _last_increment(trace)


# name -> (tol, a thunk returning (converged, errorEstimate))
CASES = {
    "hk_norm-quadrant": (1e-9, lambda: _result(hk_norm(catalog_bv("quadrantIndicator")))),
    "hk_norm-smooth": (1e-3, lambda: _result(hk_norm(SMOOTH, tol=1e-3))),
    "hk_norm-smooth-two-doublings": (1e-6, lambda: _result(hk_norm(SMOOTH, tol=1e-6, max_doublings=2))),
    "hk_norm-one-level": (1e-9, lambda: _result(hk_norm(SMOOTH, max_doublings=0))),
    "vitali_variation-interval": (1e-9, lambda: _result(vitali_variation(catalog_bv("intervalIndicator")))),
    "vitali_variation-diagonal": (1e-9, lambda: _result(vitali_variation(catalog_bv("diagonalIndicator"),
                                                                         max_doublings=3))),
    "sectional_variation_sup1-smooth": (1e-4, lambda: _result(sectional_variation_sup(SMOOTH, 1, tol=1e-4))),
    "sectional_variation_sup1-smooth-one-doubling": (
        1e-15, lambda: _result(sectional_variation_sup(SMOOTH, 1, tol=1e-15, max_doublings=1))),
    "sectional_variation_sup2-halfPlane": (
        1e-9, lambda: _result(sectional_variation_sup(catalog_bv("halfPlaneIndicator"), 2))),
    "variation_1d-arctan": (1e-9, lambda: _1d(variation_1d(np.arctan))),
    "variation_1d-sinArctan-two-doublings": (
        1e-12, lambda: _1d(variation_1d(lambda t: np.sin(5 * np.arctan(t)), tol=1e-12, max_doublings=2))),
    "alexiewicz_norm-gauss2": (1e-6, lambda: _result(alexiewicz_norm(distribution("gauss2")))),
    "alexiewicz_norm-one-level": (1e-6, lambda: _result(alexiewicz_norm(distribution("gauss2"), max_doublings=0))),
    "norm_prime-sineStrip": (1e-6, lambda: _result(norm_prime(distribution("sineStrip", n=1)))),
    "norm_prime-one-level": (1e-6, lambda: _result(norm_prime(distribution("gauss2"), max_doublings=0))),
    "alexiewicz_norm-gauss2-one-doubling": (
        1e-6, lambda: _result(alexiewicz_norm(distribution("gauss2"), max_doublings=1))),
    "norm_prime-gauss2-one-doubling": (
        1e-6, lambda: _result(norm_prime(distribution("gauss2"), max_doublings=1))),
    "integrate_product-quadrant": (
        1e-9, lambda: _result(integrate_product(distribution("prodArctan"), catalog_bv("quadrantIndicator")))),
    "integrate_product-approxIdentity-two-doublings": (
        1e-9, lambda: _result(integrate_product(distribution("prodArctan"), approx_identity(4), max_doublings=2))),
}

# cases that break the contract: name -> (tol, thunk, why)
BROKEN = {
    "convolve_l1-prodArctan-normalized": (
        1e-3, lambda: _result(convolve_l1(distribution("prodArctan"), PoissonKernelL1(0.25), resolution=16,
                                          tol=1e-3, normalize=True)),
        "converged comes from the levels; the kernel's tail term is added to errorEstimate after"),
}


@pytest.mark.parametrize(
    "tol, run",
    [pytest.param(tol, run, id=name) for name, (tol, run) in CASES.items()]
    + [pytest.param(tol, run, id=name, marks=pytest.mark.xfail(strict=True, reason=reason))
       for name, (tol, run, reason) in BROKEN.items()],
)
def test_converged_means_the_error_estimate_is_within_tol(tol, run):
    converged, error_estimate = run()
    assert converged == (error_estimate <= tol)

