"""product_pairing: the dual pairing of f with BV multipliers.

Three groups, each case running integrate_product (or convolve_bv) and
hk_norm of its multiplier:

* separable: separable f times approxIdentity(n) (a ProductBV) at tol 1e-6,
  refined to resolution 1024-4096;
* reflected: convolve_bv at finite points, refined to 1024-2048, through
  the non-product ClosedFormBV reflected translates, so no separable path
  applies;
* shallow: many quadrant / interval / half-plane / constant multipliers
  whose jump lines sit at seeded positions.

The deep cases are a fixed roster: their refinement depth, and so the
pass time, changes with the parameters, which would make pass_s a
function of the seed.  The seed draws the shallow group.
"""

from __future__ import annotations

import math
import random

import refs

NAME = "product_pairing"
TOL = 1e-6
HK_TOL = 1e-9  # hk_norm's default
SHALLOW_CASES = 32

# (case, primitive, n) for f times approxIdentity(n)
SEPARABLE = (
    ("prodArctan-n1", "prodArctan", 1),
    ("prodArctan-n4", "prodArctan", 4),
    ("gauss2F-n2", "gauss2F", 2),
    ("gauss2G-n1", "gauss2G", 1),
)
# (case, point) for prodArctan convolved with approxIdentity(2)
REFLECTED_N = 2
REFLECTED = (
    ("p1", (-1.0, 0.3)),
    ("p2", (-2.0, -1.0)),
    ("p3", (-0.5, -2.2)),
)
SHALLOW_F = ("prodArctan", "gauss2F", "gauss2G", "expRadial", "sinc2d", "sineStrip2")
MULTIPLIERS = ("quadrant", "interval", "halfPlane", "constant")


def inputs(seed):
    rng = random.Random(seed)
    shallow = []
    for k in range(SHALLOW_CASES):
        f = SHALLOW_F[k % len(SHALLOW_F)]
        kind = MULTIPLIERS[k % len(MULTIPLIERS)]
        if kind == "quadrant":
            params = {"x": round(rng.uniform(-3, 3), 4), "y": round(rng.uniform(-3, 3), 4)}
        elif kind == "interval":
            a, b = sorted(round(rng.uniform(-4, 4), 4) for _ in range(2))
            c, d = sorted(round(rng.uniform(-4, 4), 4) for _ in range(2))
            params = {"a": a, "b": b + (0.5 if a == b else 0.0), "c": c, "d": d + (0.5 if c == d else 0.0)}
        elif kind == "constant":
            params = {"c": round(rng.choice((-1, 1)) * rng.uniform(0.25, 2), 4)}
        else:
            params = {}
        shallow.append((f"shallow-{k:02d}-{f}-{kind}", f, kind, params))
    return {"shallow": shallow}


def _primitive(name):
    from cpintegral import distribution

    if name == "gauss2F":
        return distribution("gauss2", which="F")
    if name == "gauss2G":
        return distribution("gauss2", which="G")
    if name == "sineStrip2":
        return distribution("sineStrip", n=2)
    return distribution(name)


def _multiplier(kind, params):
    from cpintegral import catalog_bv

    name = {"quadrant": "quadrantIndicator", "interval": "intervalIndicator",
            "halfPlane": "halfPlaneIndicator", "constant": "constant"}[kind]
    return catalog_bv(name, **params)


def program(p, workdir):
    # calls go through module attributes, so the traced run's patches apply
    import cpintegral as cp
    from cpintegral.primitive import translate_reflect_bv

    fs = {name: _primitive(name) for name in set(SHALLOW_F) | {s[1] for s in SEPARABLE}}
    ops = []

    def pairing(f, g):
        return lambda: (cp.integrate_product(f, g, tol=TOL), cp.hk_norm(g))

    for case, fname, n in SEPARABLE:
        ops.append((f"separable.{case}", "separable", pairing(fs[fname], cp.approx_identity(n))))
    g = cp.approx_identity(REFLECTED_N)
    for case, pt in REFLECTED:
        reflected = translate_reflect_bv(g, *pt)
        ops.append((f"reflected.{case}", "reflected",
                    lambda pt=pt, h=reflected: (cp.convolve_bv(fs["prodArctan"], g, pt, tol=TOL), cp.hk_norm(h))))
    for case, fname, kind, params in p["shallow"]:
        ops.append((case, "shallow", pairing(fs[fname], _multiplier(kind, params))))
    return ops


def _shallow_exact(fname, kind, params):
    F = refs.PRIMITIVES[fname]
    inf = math.inf
    if kind == "quadrant":  # [-inf, x) x [-inf, y)
        return refs.corner(F, -inf, params["x"], -inf, params["y"]), refs.HK_QUADRANT
    if kind == "interval":
        return refs.corner(F, params["a"], params["b"], params["c"], params["d"]), refs.HK_INTERVAL
    if kind == "halfPlane":  # x >= 0
        return refs.corner(F, 0.0, inf, -inf, inf), refs.HK_HALF_PLANE
    c = params["c"]
    return c * F(inf, inf), abs(c)


def _pairing_check(exact, hk_exact, norm_f):
    def check(out, outputs, v):
        res, hk = out
        v.refinement(res.value, res.error_estimate, res.converged, exact, TOL)
        v.require(hk.converged, "hk_norm reported unconverged")
        v.close(hk.value, hk_exact, HK_TOL * max(1.0, hk_exact), "hk norm")
        v.known(hk.value, hk_exact)
        # Holder: |int f g| <= ||f|| ||g||_bv + tol
        v.require(abs(res.value) <= norm_f * hk.value + TOL,
                  f"Holder bound fails: |{res.value}| > {norm_f} * {hk.value} + tol")
    return check


def checks(p, workdir):
    c = {}
    for case, fname, n in SEPARABLE:
        exact = refs.approx_identity_pairing(refs.DENSITIES[fname], n) ** 2
        c[f"separable.{case}"] = _pairing_check(exact, refs.HK_RAMP_PRODUCT, refs.SUP_NORMS[fname])
    a = refs.DENSITIES["prodArctan"]
    for case, (x, y) in REFLECTED:
        exact = refs.reflected_pairing(a, REFLECTED_N, x) * refs.reflected_pairing(a, REFLECTED_N, y)
        c[f"reflected.{case}"] = _pairing_check(exact, refs.HK_RAMP_PRODUCT, refs.SUP_NORMS["prodArctan"])
    for case, fname, kind, params in p["shallow"]:
        exact, hk_exact = _shallow_exact(fname, kind, params)
        c[case] = _pairing_check(exact, hk_exact, refs.SUP_NORMS[fname])
    return c
