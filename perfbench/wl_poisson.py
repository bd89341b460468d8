"""poisson_smoothing: convolution with the Poisson kernel, and mollification.

convolve_l1 with PoissonKernelL1 (normalize=True) at two heights on the
separable prodArctan, gauss2 F and sinc2d and the non-separable expRadial,
plus mollify_step of step approximations.  The 3-d broadcast evaluation in
_convolved_values dominates here and nowhere else.

The roster is fixed and the seed is not used: the convolve_l1 quadrature
level, and so the pass time, depends on f and z, and min_digits depends
on every input here, so no input can vary with the seed without moving
pass_s or min_digits with it.
"""

from __future__ import annotations

import math

import numpy as np

import refs

NAME = "poisson_smoothing"
RESOLUTION = 16
TOL = 1e-3
HEIGHTS = (0.5, 0.25)
CONVOLVED = ("prodArctan", "gauss2F", "sinc2d", "expRadial")
# finite grid nodes (i, j) of the resolution-16 grid checked by polar quadrature
POLAR_NODES = ((8, 8), (5, 11), (11, 6))
MOLLIFIED = (("prodArctan", 0.3), ("gauss2F", 0.45), ("expRadial", 0.6), ("sinc2d", 0.8))
STEP_CELLS = 16
# finite nodes checked against the exact mollification of the step function
STEP_NODES = ((8, 8), (4, 12), (12, 3), (10, 10))


def inputs(seed):
    return {"mollify": MOLLIFIED}


def _primitive(name):
    from cpintegral import distribution

    if name == "gauss2F":
        return distribution("gauss2", which="F")
    return distribution(name)


def program(p, workdir):
    # calls go through module attributes, so the traced run's patches apply
    import cpintegral as cp

    fs = {name: _primitive(name) for name in set(CONVOLVED) | {f for f, _ in MOLLIFIED}}
    kernels = {z: cp.PoissonKernelL1(z) for z in HEIGHTS}
    ops = []
    for fname in CONVOLVED:
        for z in HEIGHTS:
            def run(f=fs[fname], k=kernels[z]):
                dist = cp.convolve_l1(f, k, resolution=RESOLUTION, tol=TOL, normalize=True)
                return dist, cp.total_integral(dist)
            ops.append((f"convolve.{fname}-z{z}", "convolve_l1", run))
    for k, (fname, z) in enumerate(p["mollify"]):
        def run(F=fs[fname].primitive, z=z):
            sigma = cp.step_approximate(F, STEP_CELLS)
            return sigma, cp.mollify_step(sigma, z, resolution=RESOLUTION)
        ops.append((f"mollify.{k}-{fname}", "mollify_step", run))
    return ops


def _node_values(F, nodes):
    return np.array([[F(x, y) for x in nodes] for y in nodes])


def checks(p, workdir):
    nodes = refs.chart_nodes(RESOLUTION)
    c = {}
    for fname in CONVOLVED:
        F = refs.PRIMITIVES[fname]
        Fv = _node_values(F, nodes)
        mass = F(math.inf, math.inf)
        for z in HEIGHTS:
            if fname == "prodArctan":
                # the Cauchy marginals are stable: edge rows are Cauchy(1 + z) CDFs
                edge = {(i, j): refs.cauchy_cdf(nodes[i] if j == RESOLUTION else nodes[j], 1.0 + z)
                        for k in range(1, RESOLUTION)
                        for i, j in ((k, RESOLUTION), (RESOLUTION, k))}
            else:
                edge = {(i, j): refs.poisson_polar(refs.PRIMITIVES_NP[fname], nodes[i], nodes[j], z)
                        for i, j in POLAR_NODES}
            prev = f"convolve.{fname}-z{HEIGHTS[0]}" if z != HEIGHTS[0] else None
            c[f"convolve.{fname}-z{z}"] = _convolve_check(edge, mass, Fv, prev)
    for k, (fname, z) in enumerate(p["mollify"]):
        F = refs.PRIMITIVES[fname]
        steps = _node_values(F, nodes[1:])
        steps[0, :] = 0.0
        steps[:, 0] = 0.0
        step_nodes = refs.chart_nodes(STEP_CELLS)
        exact = {(i, j): refs.mollified_step(steps, step_nodes, nodes[i], nodes[j], z) for i, j in STEP_NODES}
        c[f"mollify.{k}-{fname}"] = _mollify_check(steps, exact)
    return c


def _convolve_check(edge, mass, Fv, prev):
    def check(out, outputs, v):
        dist, total = out
        H = dist.primitive.values
        v.require(dist.converged, "convolve_l1 reported unconverged")
        err = dist.error_estimate
        for (i, j), exact in edge.items():
            gap = abs(H[j, i] - exact)
            v.require(gap <= err, f"H at node ({i}, {j}) off by {gap:.3e} > errorEstimate {err:.3e}")
            v.known(H[j, i], exact)
        v.close(total, mass, 1e-12 * max(1.0, abs(mass)), "corner mass H(inf, inf)")
        if prev is not None:
            # sup |H_z - F| shrinks as z halves
            H0 = outputs[prev][0].primitive.values
            d0, d1 = np.max(np.abs(H0 - Fv)), np.max(np.abs(H - Fv))
            v.require(d1 < d0, f"sup |H_z - F| does not shrink as z halves: {d0:.3e} -> {d1:.3e}")
    return check


def _mollify_check(steps, exact):
    lo, hi = float(np.min(steps)), float(np.max(steps))

    def check(out, outputs, v):
        sigma, prim = out
        v.close(float(np.max(np.abs(sigma.values - steps))), 0.0, 1e-15 * max(1.0, abs(hi)),
                "step values vs F at the upper-right nodes")
        H = prim.values
        slack = 1e-12 * max(1.0, abs(hi), abs(lo))
        v.require(lo - slack <= np.min(H) and np.max(H) <= hi + slack,
                  "mollified values leave the range of the step function")
        v.close(H[-1, -1], steps[-1, -1], slack, "corner mass")
        for (i, j), e in exact.items():
            v.known(H[j, i], e)
    return check
