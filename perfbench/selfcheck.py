"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Runs every operation of every workload once and checks it; the only
   failures must be the five kept faults, reported by name.
2. Checks each independent reference against a second computation
   (closed forms against scipy quadrature, and the other way round).
3. Perturbs refinement results by 10 (tol + errorEstimate) and shows that
   the checks catch every one.

Exits 0 when all of it holds.
"""

import dataclasses
import json
import math
import os
import shutil
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402
from scipy import integrate  # noqa: E402

import refs  # noqa: E402
import wl_cli  # noqa: E402
import wl_poisson  # noqa: E402
import wl_product  # noqa: E402
from common import KNOWN_FAULTS, Verdict, build_ops, check_pass, run_pass  # noqa: E402

WORKLOADS = (wl_cli, wl_product, wl_poisson)
FAILURES = []


def expect(cond, what):
    print(f"  {'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def run_every_case(workdir, seed=1):
    print("every operation, once")
    results = {}
    for wl in WORKLOADS:
        ops = build_ops(wl, seed, workdir)
        _, outputs, _ = run_pass(ops)
        failed, _ = check_pass(ops, outputs)
        results[wl.NAME] = (ops, outputs)
        expected = set(KNOWN_FAULTS) if wl is wl_cli else set()
        expect(set(failed) == expected, f"{wl.NAME}: {len(ops)} operations, failed {sorted(failed)}")
        for name in sorted(failed):
            print(f"       {name}: {failed[name][0]}")
    return results


def references():
    print("references against a second computation")
    R, F = refs.arctan_ramp, refs.PRIMITIVES
    cauchy = refs.DENSITIES["prodArctan"]
    for t in (-3.0, -0.4, 0.0, 2.5):
        q, _ = integrate.quad(cauchy, -np.inf, t, epsabs=1e-14)
        expect(abs(R(t) - q) < 1e-12, f"arctan-ramp CDF at {t} vs quad of the Cauchy density")

    def mixed(fn, a, b, c, d):
        val, _ = integrate.dblquad(lambda y, x: fn(x, y), a, b, c, d, epsabs=1e-12, epsrel=1e-12)
        return val

    box = (0.5, 2.0, -1.5, -0.2)
    g = mixed(lambda x, y: 4 * x * y * math.exp(-x * x - y * y), *box)
    expect(abs(refs.corner(F["gauss2F"], *box) - g) < 1e-10, "Gaussian corner formula vs dblquad of d12 F")

    def d12_exp(x, y):
        r = math.hypot(x, y)
        return x * y * math.exp(-r) * (1 / r**2 + 1 / r**3)
    e = mixed(d12_exp, *box)
    expect(abs(refs.corner(F["expRadial"], *box) - e) < 1e-10, "e^{-r} corner formula vs dblquad of d12 F")

    s = refs.sup_search(lambda x, y: abs(F["sineStrip2"](x, y)))
    expect(abs(s - 2 / 2) < 1e-9, "sineStrip(2) sup 2/n vs search")
    expect(abs(refs.SUP_NORMS["sinc2d"] - refs.si_quad(math.pi) ** 2) < 1e-9, "sinc2d sup vs quadrature of sin t / t")
    for t in (-7.5, -0.3, 1.2, 9.0):
        expect(abs(refs.si_full(t) - refs.si_quad(t)) < 1e-11, f"pi/2 + Si({t}) vs quadrature")

    expect(abs(_brute_hk(lambda x, y: ((x < 0.3) & (y < -1.0)) * 1.0, [0.3], [-1.0]) - refs.HK_QUADRANT) < 1e-12,
           "quadrant indicator norm 4 vs a brute-force grid variation")
    expect(abs(_brute_hk(lambda x, y: (x >= 0) * 1.0, [0.0], []) - refs.HK_HALF_PLANE) < 1e-12,
           "half-plane indicator norm 2 vs a brute-force grid variation")
    expect(abs(_brute_hk(lambda x, y: ((x >= -1) & (x <= 2) & (y >= 0) & (y <= 1)) * 1.0, [-1, 2], [0, 1])
               - refs.HK_INTERVAL) < 1e-12, "interval indicator norm 9 vs a brute-force grid variation")
    ramp = lambda t: np.clip(t + 2, 0, 1)  # noqa: E731
    expect(abs(_brute_hk(lambda x, y: ramp(x) * ramp(y), [-2, -1], [-2, -1]) - refs.HK_RAMP_PRODUCT) < 1e-12,
           "approxIdentity norm 4 vs a brute-force grid variation")

    q, _ = integrate.quad(cauchy, 0, np.inf)
    expect(abs(refs.nd_ramp_box((0, 0, 0), (math.inf,) * 3) - q**3) < 1e-12, "ndcorner 1/8 vs quad of the densities")
    q, _ = integrate.quad(lambda x: 1 / (1 + x * x), -np.inf, np.inf)
    expect(abs(refs.IMPROPER[("arctanXY", "dyFirst")] - q) < 1e-10,
           "arctanXY, y inner: pi vs quad of the inner result 1/(1+x^2)")

    for name in ("prodArctan", "gauss2F"):
        for n in (1, 2, 4):
            qv = refs.approx_identity_pairing(refs.DENSITIES[name], n)
            cv = refs.approx_identity_pairing_closed(name, n)
            expect(abs(qv - cv) < 1e-11, f"{name} against u_{n}: quad vs closed form")
    for x in (-2.0, -1.0, 0.3):
        expect(abs(refs.reflected_pairing(cauchy, 2, x) - _reflected_closed(2, x)) < 1e-11,
               f"prodArctan against u_2 reflected about {x}: quad vs closed form")

    for z in (0.25, 0.5):
        x, y = 0.7, -1.3
        box = integrate.dblquad(lambda t, s: z / (2 * math.pi * (s * s + t * t + z * z) ** 1.5),
                                -np.inf, x, -np.inf, y, epsabs=1e-12)[0]
        expect(abs(refs.poisson_cdf(x, y, z) - box) < 1e-9, f"Poisson kernel CDF at z={z} vs dblquad")
        for fname in ("gauss2F", "expRadial"):
            fast = refs.poisson_polar(refs.PRIMITIVES_NP[fname], x, y, z)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                slow = refs.poisson_polar_adaptive(F[fname], x, y, z)
            expect(abs(fast - slow) < 1e-7, f"polar Poisson convolution of {fname} at z={z}: tensor vs adaptive")
        edge = refs.poisson_polar(refs.PRIMITIVES_NP["prodArctan"], x, math.inf, z)
        expect(abs(edge - refs.cauchy_cdf(x, 1 + z)) < 1e-7, f"prodArctan edge row at z={z}: polar vs Cauchy(1+z) CDF")
        coarse = refs.poisson_polar(refs.PRIMITIVES_NP["sinc2d"], x, y, z)
        fine = refs.poisson_polar(refs.PRIMITIVES_NP["sinc2d"], x, y, z, rings=2048, angles=8192)
        expect(abs(coarse - fine) < 2e-5, f"polar Poisson convolution of sinc2d at z={z}: "
                                          f"default vs 16x finer rule ({abs(coarse - fine):.1e})")

    nodes = refs.chart_nodes(8)
    steps = np.array([[F["prodArctan"](x, y) for x in nodes[1:]] for y in nodes[1:]])
    steps[0, :] = 0.0
    steps[:, 0] = 0.0

    def step_np(x, y):
        i = np.clip(np.searchsorted(nodes, x, side="left") - 1, 0, 7)
        j = np.clip(np.searchsorted(nodes, y, side="left") - 1, 0, 7)
        return steps[j, i]
    exact = refs.mollified_step(steps, nodes, 0.4, -0.2, 0.5)
    polar = refs.poisson_polar(step_np, 0.4, -0.2, 0.5, rings=2048, angles=8192)
    expect(abs(exact - polar) < 1e-4, f"mollified step: cell-mass closed form vs polar quadrature ({abs(exact - polar):.1e})")


def _reflected_closed(n, x):
    # u_n(x - s) is 1 for s <= x + n - 1, ramps down to 0 at s = x + n
    lo, hi = x + n - 1.0, x + n
    ramp = ((hi * (math.atan(hi) - math.atan(lo)) - (math.log1p(hi * hi) - math.log1p(lo * lo)) / 2) / math.pi)
    return refs.arctan_ramp(lo) + ramp


def _brute_hk(g, jx, jy, n=400):
    """sup|g| + max row variation + max column variation + Vitali sum on a grid with the jumps."""
    def axis(jumps):
        t = list(refs.chart_nodes(n))
        for j in jumps:
            t += [np.nextafter(j, -np.inf), j, np.nextafter(j, np.inf)]
        return np.unique(np.asarray(t, dtype=float))
    X, Y = np.meshgrid(axis(jx), axis(jy))
    G = np.asarray(g(X, Y), dtype=float)
    corner = G[:-1, :-1] + G[1:, 1:] - G[:-1, 1:] - G[1:, :-1]
    return (np.max(np.abs(G)) + np.max(np.sum(np.abs(np.diff(G, axis=1)), axis=1))
            + np.max(np.sum(np.abs(np.diff(G, axis=0)), axis=0)) + np.sum(np.abs(corner)))


def perturbations(results):
    print("results perturbed by 10 (tol + errorEstimate) are caught")
    ops, outputs = results["product_pairing"]
    caught = 0
    for op in ops:
        res, hk = outputs[op.name]
        bad = dataclasses.replace(res, value=res.value + 10 * (wl_product.TOL + res.error_estimate))
        v = Verdict()
        op.check((bad, hk), outputs, v)
        caught += bool(v.problems)
    expect(caught == len(ops), f"product_pairing: {caught} of {len(ops)} perturbed pairings caught")

    ops, outputs = results["poisson_smoothing"]
    caught, total = 0, 0
    for op in ops:
        if not op.name.startswith("convolve."):
            continue
        dist, mass = outputs[op.name]
        prim = dist.primitive
        bad = type(dist)(type(prim)(prim.grid, prim.values + 10 * dist.error_estimate, prim.label))
        bad.converged, bad.error_estimate = dist.converged, dist.error_estimate
        v = Verdict()
        op.check((bad, mass), outputs, v)
        caught += bool(v.problems)
        total += 1
    expect(caught == total, f"poisson_smoothing: {caught} of {total} perturbed convolutions caught")

    ops, outputs = results["cli_jobs"]
    caught, total = 0, 0
    for op in ops:
        out = outputs[op.name]
        if not hasattr(out, "stdout") or op.name in KNOWN_FAULTS or out.code != 0:
            continue
        report = out.report
        if "errorEstimate" not in report or not isinstance(report.get("value"), float):
            continue
        report["value"] += 10 * (wl_cli.JOB_TOL.get(op.name, wl_cli.TOL) + report["errorEstimate"])
        bad = wl_cli.CliResult(out.code, json.dumps(report), out.stderr)
        v = Verdict()
        op.check(bad, outputs, v)
        caught += bool(v.problems)
        total += 1
    expect(total > 0 and caught == total, f"cli_jobs: {caught} of {total} perturbed refinement reports caught")


def main():
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=_scratch())
    try:
        results = run_every_case(workdir)
        references()
        perturbations(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"\n{'all checks hold' if not FAILURES else f'{len(FAILURES)} checks FAILED'}")
    return 1 if FAILURES else 0


def _scratch():
    path = os.path.join(ROOT, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
