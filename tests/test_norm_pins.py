"""The three norms on a fixed table of primitives, pinned to recorded values.

Each norm runs at tol 1e-6 from start resolutions 16 and 32 on the catalog
primitives (sineStrip at n = 1, 2 and 4; the zero primitive left out), the
join prodArctan v sinc2d, the meet prodArctan ^ gauss2, the product
prodArctan * expRadial and a translate of expRadial.  The values, final
resolutions and converged flags in tests/data/norm_pins.json were recorded
while the norms stopped only after two consecutive increments within tol.
Stopping at the first one must keep every value within 4 ulps, converge,
and stop at no higher resolution.  Rewrite the file with

    PYTHONPATH=src python tests/test_norm_pins.py
"""

import json
import os
import sys

import numpy as np
import pytest

from cpintegral.integral import alexiewicz_norm, norm_dual, norm_prime
from cpintegral.operators import algebra_product, lattice_join, lattice_meet, translate
from cpintegral.primitive import distribution

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "norm_pins.json")
TOL = 1e-6
STARTS = (16, 32)
NORMS = {"sup": alexiewicz_norm, "prime": norm_prime, "dual": norm_dual}

PRIMITIVES = {
    "prodArctan": lambda: distribution("prodArctan"),
    "sinc2d": lambda: distribution("sinc2d"),
    "sincQuadrant": lambda: distribution("sincQuadrant"),
    "weier2d": lambda: distribution("weier2d"),
    "cantor2d": lambda: distribution("cantor2d"),
    "oscill": lambda: distribution("oscill"),
    "expRadial": lambda: distribution("expRadial"),
    "gauss2F": lambda: distribution("gauss2", which="F"),
    "gauss2G": lambda: distribution("gauss2", which="G"),
    "boundaryBuild": lambda: distribution("boundaryBuild"),
    "sineStrip1": lambda: distribution("sineStrip", n=1),
    "sineStrip2": lambda: distribution("sineStrip", n=2),
    "sineStrip4": lambda: distribution("sineStrip", n=4),
    "join-prodArctan-sinc2d": lambda: lattice_join(distribution("prodArctan"), distribution("sinc2d")),
    "meet-prodArctan-gauss2": lambda: lattice_meet(distribution("prodArctan"), distribution("gauss2")),
    "product-prodArctan-expRadial": lambda: algebra_product(distribution("prodArctan"), distribution("expRadial")),
    "translate-expRadial": lambda: translate(distribution("expRadial"), 1.0, -0.5),
}

CASES = [(norm, name, start) for norm in NORMS for name in PRIMITIVES for start in STARTS]


def _case_id(norm, name, start):
    return f"{norm}-{name}-{start}"


def run(norm, name, start):
    res = NORMS[norm](PRIMITIVES[name](), tol=TOL, start_resolution=start)
    return {"value": res.value, "resolution": res.resolution, "converged": res.converged}


@pytest.fixture(scope="module")
def pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def test_pins_cover_the_table(pins):
    assert sorted(pins) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize("norm, name, start", [pytest.param(*c, id=_case_id(*c)) for c in CASES])
def test_norm_matches_its_pin(pins, norm, name, start):
    pin = pins[_case_id(norm, name, start)]
    got = run(norm, name, start)
    assert pin["converged"] and got["converged"]
    assert abs(got["value"] - pin["value"]) <= 4 * np.spacing(abs(pin["value"]))
    assert got["resolution"] <= pin["resolution"]


if __name__ == "__main__":
    data = {_case_id(*case): run(*case) for case in CASES}
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
