"""cli_jobs: the command-line front end, run in-process on small jobs.

Every README example except convolve-l1 (about 4 s and unconverged; see
poisson_smoothing), plus one job for each other subcommand except
convolve-bv (product_pairing covers it).  Jobs arrive as argv and as --job
files; grid files are written (parts / lattice --out, CSV through
export_grid_csv) and read back (norm --grid-file) in a temporary directory.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass

import refs

NAME = "cli_jobs"
TOL = 1e-6  # the CLI's default tol
# jobs run with a --tol of their own (added to their argv by program());
# every other refinement job runs at TOL
JOB_TOL = {
    "cli.norm.readme-sineStrip-n4": 1e-3,
    "cli.normprime.sineStrip-n1-tol1e-6": 1e-6,
    "cli.norm.sineStrip-n1-tol1e-8": 1e-8,
}
EXACT = 1e-14  # corner formulas are exact up to rounding
# fixed: the refinement depth of normDifference, and so the pass time,
# ranges over 1-300x with the shift
SHIFT = (0.5, -0.3)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str

    @property
    def report(self):
        return json.loads(self.stdout)


def _fmt(x):
    return repr(float(x))


def _ordered(rng, lo, hi, swap=False):
    a, b = sorted((round(rng.uniform(lo, hi), 3), round(rng.uniform(lo, hi), 3)))
    if a == b:
        b = a + 0.5
    return (b, a) if swap else (a, b)


def inputs(seed):
    """Seeded parameters of the jobs; the fixed README jobs take none."""
    rng = random.Random(seed)
    p = {}
    p["interval_arctan"] = _ordered(rng, -4, 4) + _ordered(rng, -4, 4)
    p["interval_exp"] = _ordered(rng, -3, 3, rng.random() < 0.5) + _ordered(rng, -3, 3, rng.random() < 0.5)
    lower = [round(rng.uniform(-3, 1), 3) for _ in range(3)]
    p["nd_lower"] = lower
    p["nd_upper"] = [round(lo + rng.uniform(0.5, 4), 3) for lo in lower]
    p["interval_gauss"] = _ordered(rng, -2.5, 2.5) + _ordered(rng, -2.5, 2.5)
    p["map"] = {
        "alpha": round(rng.choice((-1, 1)) * rng.uniform(0.5, 2), 3),
        "beta": round(rng.choice((-1, 1)) * rng.uniform(0.5, 2), 3),
        "gamma1": round(rng.uniform(-1, 1), 3),
        "gamma2": round(rng.uniform(-1, 1), 3),
        "kind": rng.choice(("straight", "swapped")),
    }
    p["interval_sinc"] = _ordered(rng, -6, 6) + _ordered(rng, -6, 6)
    p["quadrant"] = {"x": round(rng.uniform(-3, 3), 3), "y": round(rng.uniform(-3, 3), 3)}
    a, b = _ordered(rng, -3, 3)
    c, d = _ordered(rng, -3, 3)
    p["indicator"] = {"a": a, "b": b, "c": c, "d": d}
    a, b = _ordered(rng, -3, 3)
    c, d = _ordered(rng, -3, 3)
    p["vitali"] = {"a": a, "b": b, "c": c, "d": d}
    p["mollify_z"] = round(rng.uniform(0.2, 1.0), 3)
    return p


def cli_call(argv):
    """cli.main in-process, with stdout and stderr captured."""
    from cpintegral import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def _paths(workdir):
    names = ("parts.json", "lattice.json", "lattice.csv", "missing.json",
             "job_readme.json", "job_exp.json", "job_sinc.json", "job_indicator.json",
             "job_vitali.json")
    return {n: os.path.join(workdir, n) for n in names}


def stage(p, workdir):
    """Write the --job files (benchmark input, not timed)."""
    paths = _paths(workdir)
    jobs = {
        "job_readme.json": {"command": "integrate", "primitive": {"name": "expRadial"},
                            "interval": ["-inf", 0, "-inf", 0]},
        "job_exp.json": {"command": "integrate", "primitive": {"name": "expRadial"},
                         "interval": list(p["interval_exp"])},
        "job_sinc.json": {"command": "iterated", "primitive": "sinc2d",
                          "interval": list(p["interval_sinc"]), "resolution": 128},
        "job_indicator.json": {"command": "bvnorm",
                               "bv": {"name": "intervalIndicator", "params": p["indicator"]}},
        "job_vitali.json": {"command": "variation", "kind": "vitali",
                            "bv": {"name": "intervalIndicator", "params": p["vitali"]}},
    }
    for name, spec in jobs.items():
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
    for name in ("parts.json", "lattice.json", "lattice.csv"):
        if os.path.exists(paths[name]):
            os.remove(paths[name])


def program(p, workdir):
    """(name, group, run) for every job; import and build are setup time."""
    # calls go through module attributes, so the traced run's patches apply
    from cpintegral import cli, primitive

    cli.make_parser()
    P = _paths(workdir)
    iv = [_fmt(v) for v in p["interval_arctan"]]
    g = [_fmt(v) for v in p["interval_gauss"]]

    def export_csv():
        primitive.export_grid_csv(primitive.import_grid_json(P["lattice.json"]), P["lattice.csv"])
        return P["lattice.csv"]

    jobs = [
        # README examples, fixed inputs
        ("cli.integrate.readme-prodArctan-quadrant", "readme",
         ["integrate", "--primitive", "prodArctan", "--interval", "0", "inf", "0", "inf"]),
        ("cli.norm.readme-sineStrip-n4", "readme",
         ["norm", "--primitive", "sineStrip", "--params", '{"n": 4}']),
        ("cli.bvnorm.readme-intervalIndicator", "readme",
         ["bvnorm", "--bv", "intervalIndicator", "--bv-params", '{"a": 0, "b": 1, "c": 0, "d": 1}']),
        ("cli.variation.readme-diagonal-trace", "readme",
         ["variation", "--bv", "diagonalIndicator", "--kind", "trace", "--doublings", "5"]),
        ("cli.parts.readme-prodArctan-approxIdentity", "grid-io",
         ["parts", "--primitive", "prodArctan", "--bv", "approxIdentity", "--out", P["parts.json"]]),
        ("cli.norm.readme-grid-file-json", "grid-io", ["norm", "--grid-file", P["parts.json"]]),
        ("cli.changevars.readme-gauss2", "readme",
         ["changevars", "--primitive", "gauss2", "--interval", "-2", "2", "-2", "2",
          "--map-spec", '{"alpha": -1}']),
        ("cli.ndcorner.readme", "readme",
         ["ndcorner", "--lower", "0", "0", "0", "--upper", "inf", "inf", "inf"]),
        ("cli.catalog.readme", "readme", ["catalog"]),
        ("cli.verify.readme-norms", "readme", ["verify", "--suite", "norms"]),
        ("cli.integrate.readme-job-expRadial", "readme", ["--job", P["job_readme.json"]]),
        # one job for each other subcommand, seeded where the input is free
        ("cli.integrate.prodArctan-interval", "seeded",
         ["integrate", "--primitive", "prodArctan", "--interval", *iv]),
        ("cli.integrate.job-expRadial-interval", "seeded", ["--job", P["job_exp.json"]]),
        ("cli.ndcorner.box", "seeded",
         ["ndcorner", "--lower", *map(_fmt, p["nd_lower"]), "--upper", *map(_fmt, p["nd_upper"])]),
        ("cli.changevars.gauss2-map", "seeded",
         ["changevars", "--primitive", "gauss2", "--interval", *g,
          "--map-spec", json.dumps(p["map"])]),
        ("cli.iterated.job-sinc2d", "seeded", ["--job", P["job_sinc.json"]]),
        ("cli.bvnorm.quadrantIndicator", "seeded",
         ["bvnorm", "--bv", "quadrantIndicator", "--bv-params", json.dumps(p["quadrant"])]),
        ("cli.bvnorm.job-intervalIndicator", "seeded", ["--job", P["job_indicator.json"]]),
        ("cli.bvnorm.halfPlaneIndicator", "seeded", ["bvnorm", "--bv", "halfPlaneIndicator"]),
        ("cli.variation.job-vitali-intervalIndicator", "seeded", ["--job", P["job_vitali.json"]]),
        ("cli.product.prodArctan-gauss2", "seeded",
         ["product", "--primitive", "prodArctan", "--primitive2", "gauss2"]),
        ("cli.lattice.join-prodArctan-sinc2d", "grid-io",
         ["lattice", "--primitive", "prodArctan", "--primitive2", "sinc2d", "--op", "join",
          "--out", P["lattice.json"]]),
        ("lib.export_grid_csv.lattice", "grid-io", export_csv),
        ("cli.norm.grid-file-csv", "grid-io", ["norm", "--grid-file", P["lattice.csv"]]),
        ("cli.order.prodArctan-gauss2", "seeded",
         ["order", "--primitive", "prodArctan", "--primitive2", "gauss2"]),
        ("cli.translate.prodArctan-shift", "seeded",
         ["translate", "--primitive", "prodArctan", "--shift", *map(_fmt, SHIFT)]),
        ("cli.mollify.prodArctan", "seeded",
         ["mollify", "--primitive", "prodArctan", "--z", _fmt(p["mollify_z"]), "--n", "8",
          "--resolution", "16"]),
        ("cli.improper.arctanXY-dyFirst", "seeded",
         ["improper", "--name", "arctanXY", "--order", "dyFirst"]),
        ("cli.improper.arctanXY-dxFirst", "seeded",
         ["improper", "--name", "arctanXY", "--order", "dxFirst"]),
        ("cli.improper.xPowY-dyFirst", "seeded", ["improper", "--name", "xPowY", "--order", "dyFirst"]),
        ("cli.improper.xPowY-dxFirst", "seeded", ["improper", "--name", "xPowY", "--order", "dxFirst"]),
        ("cli.usage.unknown-primitive", "usage", ["norm", "--primitive", "noSuchPrimitive"]),
        ("cli.noinput.missing-job-file", "usage", ["--job", P["missing.json"]]),
        # the five kept faults
        ("cli.normprime.sineStrip-n1-tol1e-6", "faults",
         ["normprime", "--primitive", "sineStrip", "--params", '{"n": 1}']),
        ("cli.norm.sineStrip-n1-tol1e-8", "faults",
         ["norm", "--primitive", "sineStrip", "--params", '{"n": 1}']),
        ("cli.usage.bad-params-json", "faults",
         ["integrate", "--primitive", "prodArctan", "--params", "{bad"]),
        ("cli.usage.nan-interval-endpoint", "faults",
         ["integrate", "--primitive", "prodArctan", "--interval", "nan", "1", "0", "1"]),
        ("cli.usage.convolve-l1-negative-z", "faults",
         ["convolve-l1", "--primitive", "prodArctan", "--z", "-1"]),
    ]
    out = []
    for name, group, job in jobs:
        if name in JOB_TOL:
            job = [*job, "--tol", _fmt(JOB_TOL[name])]
        run = job if callable(job) else (lambda argv=job: cli_call(argv))
        out.append((name, group, run))
    return out


# ---------------------------------------------------------------------------
# checks


def _ok(v, out):
    """Exit 0, JSON on stdout, no traceback; returns the report."""
    v.require("Traceback" not in out.stderr, "traceback on stderr")
    if not v.require(out.code == 0, f"exit {out.code}: {out.stderr.strip()[-160:]}"):
        return None
    return out.report


def _usage(code):
    def check(out, outputs, v):
        v.require(out.code == code, f"exit {out.code}, expected {code}")
        v.require(out.stdout == "", "stdout not empty")
        v.require("Traceback" not in out.stderr, "traceback on stderr")
    return check


def _exact(key, exact):
    def check(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            v.close(float(r[key]), exact, EXACT * max(1.0, abs(exact)), key)
            v.known(float(r[key]), exact)
    return check


def _refined(exact, tol, sup=False):
    def check(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            v.refinement(float(r["value"]), float(r["errorEstimate"]), r["converged"], exact, tol)
            if sup:
                v.grid_sup(float(r["value"]), exact)
    return check


def _variation(exact):
    def check(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            v.require(r["converged"], "reported unconverged")
            v.close(float(r["value"]), exact, 1e-9, "variation")
            v.known(float(r["value"]), exact)
    return check


def _grid_values(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["values"]


def checks(p, workdir):
    """Name -> check, with every reference computed here, once."""
    P = _paths(workdir)
    F = refs.PRIMITIVES
    c = {}

    c["cli.integrate.readme-prodArctan-quadrant"] = _exact("value", refs.corner(F["prodArctan"], 0, math.inf, 0, math.inf))
    c["cli.norm.readme-sineStrip-n4"] = _refined(2.0 / 4, JOB_TOL["cli.norm.readme-sineStrip-n4"], sup=True)
    c["cli.bvnorm.readme-intervalIndicator"] = _variation(refs.HK_INTERVAL)

    def diagonal(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            v12 = [row["v12"] for row in r["trace"]]
            v.require(len(v12) == 6, f"{len(v12)} levels, expected 6")
            ratios = [b / a for a, b in zip(v12, v12[1:])]
            v.require(all(1.95 <= q <= 2.05 for q in ratios), f"v12 does not double: {ratios}")
    c["cli.variation.readme-diagonal-trace"] = diagonal

    parts_total = (refs.approx_identity_pairing(refs.DENSITIES["prodArctan"], 4)) ** 2

    def parts(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            vals = _grid_values(P["parts.json"])
            v.require(float(r["supNorm"]) == max(abs(x) for row in vals for x in row),
                      "supNorm differs from the written grid")
            v.require(float(r["totalIntegral"]) == vals[-1][-1], "totalIntegral differs from the grid corner")
            v.known(float(r["totalIntegral"]), parts_total)
    c["cli.parts.readme-prodArctan-approxIdentity"] = parts

    def parts_round_trip(out, outputs, v):
        r = _ok(v, out)
        w = outputs["cli.parts.readme-prodArctan-approxIdentity"]
        if r is not None and w.code == 0:
            v.require(r["converged"], "reported unconverged")
            v.require(float(r["value"]) == float(w.report["supNorm"]),
                      f"norm of the read-back grid {r['value']!r} != written supNorm {w.report['supNorm']!r}")
    c["cli.norm.readme-grid-file-json"] = parts_round_trip

    def changevars(interval):
        exact = refs.corner(F["gauss2F"], *interval)

        def check(out, outputs, v):
            r = _ok(v, out)
            if r is not None:
                v.close(float(r["value"]), float(r["direct"]), 1e-12, "changevars vs corner integral")
                v.close(float(r["direct"]), exact, EXACT, "corner integral")
                v.known(float(r["value"]), exact)
        return check
    c["cli.changevars.readme-gauss2"] = changevars((-2, 2, -2, 2))
    c["cli.ndcorner.readme"] = _exact("value", refs.nd_ramp_box((0, 0, 0), (math.inf,) * 3))

    def catalog(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            for name in ("prodArctan", "sinc2d", "gauss2", "expRadial", "sineStrip"):
                v.require(name in r["primitives"], f"{name} missing from the catalog")
            for name in ("quadrantIndicator", "intervalIndicator", "approxIdentity", "constant"):
                v.require(name in r["bvFunctions"], f"{name} missing from the catalog")
            v.require("norms" in r["suites"], "norms suite missing")
    c["cli.catalog.readme"] = catalog

    sups = {"prodArctan": 1.0, "gauss2:F": 1.0, "gauss2:G": 1.0, "expRadial": 1.0,
            "sinc2d": refs.SUP_NORMS["sinc2d"], "sineStrip(2)": 1.0, "zero": 0.0}

    def verify_norms(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            v.require(r["suite"]["passed"], "suite reports failure")
            for case in r["suite"]["cases"]:
                a, pn, d = case["norm"], case["normPrime"], case["normDual"]
                v.require(a <= pn + TOL and pn <= 4 * a + TOL, f"{case['f']}: ||f|| <= ||f||' <= 4||f|| fails")
                v.require(a / 4 - TOL <= d <= a + TOL, f"{case['f']}: ||f||/4 <= ||f||'' <= ||f|| fails")
                if case["f"] in sups:
                    v.grid_sup(a, sups[case["f"]])
    c["cli.verify.readme-norms"] = verify_norms
    c["cli.integrate.readme-job-expRadial"] = _exact(
        "value", refs.corner(F["expRadial"], -math.inf, 0, -math.inf, 0))

    c["cli.integrate.prodArctan-interval"] = _exact("value", refs.corner(F["prodArctan"], *p["interval_arctan"]))
    c["cli.integrate.job-expRadial-interval"] = _exact("value", refs.corner(F["expRadial"], *p["interval_exp"]))
    c["cli.ndcorner.box"] = _exact("value", refs.nd_ramp_box(p["nd_lower"], p["nd_upper"]))
    c["cli.changevars.gauss2-map"] = changevars(p["interval_gauss"])

    sinc_exact = refs.corner(F["sinc2d"], *p["interval_sinc"])

    def iterated(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            v.close(float(r["corner"]), sinc_exact, EXACT * max(1.0, abs(sinc_exact)), "corner")
            for key in ("xOuter", "yOuter"):
                v.close(float(r[key]), sinc_exact, 1e-12 * max(1.0, abs(sinc_exact)), key)
            v.known(float(r["corner"]), sinc_exact)
    c["cli.iterated.job-sinc2d"] = iterated
    c["cli.bvnorm.quadrantIndicator"] = _variation(refs.HK_QUADRANT)
    c["cli.bvnorm.job-intervalIndicator"] = _variation(refs.HK_INTERVAL)
    c["cli.bvnorm.halfPlaneIndicator"] = _variation(refs.HK_HALF_PLANE)
    c["cli.variation.job-vitali-intervalIndicator"] = _variation(refs.VITALI_INTERVAL)

    product_sup = refs.product_ramp_gauss_sup()

    def product(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            v.require(r["converged"], "reported unconverged")
            v.require(float(r["totalIntegral"]) == 0.0, "total integral of F1 F2 is not 1 * 0")
            v.grid_sup(float(r["normOfProduct"]), product_sup)
            v.known(float(r["normOfProduct"]), product_sup)
    c["cli.product.prodArctan-gauss2"] = product

    join_sup = max(refs.SUP_NORMS["prodArctan"], refs.SUP_NORMS["sinc2d"])

    def lattice(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            v.require(r["converged"], "reported unconverged")
            v.grid_sup(float(r["supNorm"]), join_sup)
            v.known(float(r["supNorm"]), join_sup)
            v.require(os.path.exists(P["lattice.json"]), "grid file not written")
    c["cli.lattice.join-prodArctan-sinc2d"] = lattice

    def export_csv(out, outputs, v):
        vals = _grid_values(P["lattice.json"])
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        n = len(vals) - 1
        ux = [float(x) for x in rows[0][1:]]
        expect_u = [x / (1 + abs(x)) if math.isfinite(x) else math.copysign(1.0, x) for x in refs.chart_nodes(n)]
        v.require(len(ux) == n + 1 and max(abs(a - b) for a, b in zip(ux, expect_u)) <= 1e-15,
                  "CSV header is not the chart-uniform node row")
        body = [[float(x) for x in row[1:]] for row in rows[1:]]
        v.require(body == vals, "CSV values differ from the JSON grid")
    c["lib.export_grid_csv.lattice"] = export_csv

    def csv_round_trip(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            v.require(r["converged"], "reported unconverged")
            vals = _grid_values(P["lattice.json"])
            v.require(float(r["value"]) == max(abs(x) for row in vals for x in row),
                      "norm of the CSV grid differs from the grid's largest value")
    c["cli.norm.grid-file-csv"] = csv_round_trip

    def order(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            below = F["prodArctan"](0.0, 0.0) < F["gauss2F"](0.0, 0.0)
            above = F["prodArctan"](math.inf, math.inf) > F["gauss2F"](math.inf, math.inf)
            v.require(below and above and r["relation"] == "incomparable",
                      f"relation {r['relation']!r}, expected 'incomparable'")
    c["cli.order.prodArctan-gauss2"] = order

    s, t = SHIFT
    diff_sup = refs.sup_search(lambda x, y: abs(F["prodArctan"](x, y) - F["prodArctan"](x - s, y - t)))

    def translate(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            v.close(float(r["normTranslated"]), refs.SUP_NORMS["prodArctan"], TOL, "norm of the translate")
            v.grid_sup(float(r["normDifference"]), diff_sup)
            v.known(float(r["normTranslated"]), refs.SUP_NORMS["prodArctan"])
            v.known(float(r["normDifference"]), diff_sup)
    c["cli.translate.prodArctan-shift"] = translate

    def mollify(out, outputs, v):
        r = _ok(v, out)
        if r is not None:
            corner_mass = F["prodArctan"](math.inf, math.inf)
            v.require(float(r["stepCorner"]) == corner_mass, "step corner differs from F(inf, inf)")
            v.close(float(r["cornerValue"]), corner_mass, 1e-12, "mollified corner mass")
            v.known(float(r["cornerValue"]), corner_mass)
    c["cli.mollify.prodArctan"] = mollify

    for (name, order_), exact in refs.IMPROPER.items():
        c[f"cli.improper.{name}-{order_}"] = _refined(exact, TOL)
    c["cli.usage.unknown-primitive"] = _usage(64)
    c["cli.noinput.missing-job-file"] = _usage(66)
    for name in ("cli.normprime.sineStrip-n1-tol1e-6", "cli.norm.sineStrip-n1-tol1e-8"):
        c[name] = _refined(2.0, JOB_TOL[name], sup=True)
    for name in ("bad-params-json", "nan-interval-endpoint", "convolve-l1-negative-z"):
        c[f"cli.usage.{name}"] = _usage(64)
    return c
