"""Command-line front end.

Jobs come from a JSON file (--job) or from subcommand flags; reports go to
stdout as JSON with a one-line human summary on stderr.  Infinite endpoints
serialize as the strings "inf" / "-inf".  Exit codes: 0 ok, 2 result did
not converge, 1 runtime error (or stdout closed before the report was
written), 64 usage error, 66 unreadable input file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import integral, operators, stieltjes, variation
from .convolution import PoissonKernelL1, convolve_bv, convolve_l1, mollify_step, step_approximate
from .extplane import make_interval
from .primitive import (
    CATALOG_BV,
    CATALOG_PRIMITIVES,
    Distribution,
    catalog_bv,
    catalog_primitive,
    export_grid_csv,
    export_grid_json,
    import_grid_csv,
    import_grid_json,
    sample_primitive,
)
from .suites import SUITES, run_suite

EX_USAGE = 64
EX_NOINPUT = 66


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def parse_ext(v):
    """Extended real from JSON: a number, or the strings 'inf' / '-inf'."""
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return float("inf")
        if s == "-inf":
            return float("-inf")
        try:
            out = float(v)
        except ValueError:
            raise CliError(f"not an extended real: {v!r}", EX_USAGE)
    else:
        out = float(v)
    if math.isnan(out):
        raise CliError(f"NaN is not an extended real: {v!r}", EX_USAGE)
    return out


def parse_json_arg(text, flag):
    """JSON given on the command line; malformed text is a usage error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{flag} is not valid JSON: {exc}", EX_USAGE)


def _height(spec, default):
    z = float(spec.get("z", default))
    if not (z > 0 and math.isfinite(z)):
        raise CliError(f"z must be positive and finite, got {z}", EX_USAGE)
    return z


def encode_ext(v):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return encode_ext(f) if math.isinf(f) else f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def build_interval(spec, default=("-inf", "inf", "-inf", "inf")):
    vals = spec.get("interval", list(default))
    if len(vals) != 4:
        raise CliError("interval needs exactly four endpoints a b c d", EX_USAGE)
    a, b, c, d = (parse_ext(v) for v in vals)
    return make_interval(a, b, c, d)


def build_primitive(spec, key="primitive"):
    ref = spec.get(key)
    if ref is None:
        raise CliError(f"missing {key!r} reference", EX_USAGE)
    if isinstance(ref, str):
        ref = {"name": ref}
    if "file" in ref:
        path = ref["file"]
        try:
            if path.endswith(".csv"):
                return import_grid_csv(path, label=path)
            return import_grid_json(path)
        except (OSError, ValueError, KeyError) as exc:
            raise CliError(f"cannot load grid file {path}: {exc}", EX_NOINPUT)
    name = ref.get("name")
    params = dict(ref.get("params", {}))
    params.update(spec.get("params", {}) if key == "primitive" else {})
    try:
        return catalog_primitive(name, **params)
    except ValueError as exc:
        raise CliError(str(exc), EX_USAGE)


def build_distribution(spec, key="primitive"):
    return Distribution(build_primitive(spec, key))


def build_bv(spec, key="bv"):
    ref = spec.get(key)
    if ref is None:
        raise CliError(f"missing {key!r} reference", EX_USAGE)
    if isinstance(ref, str):
        ref = {"name": ref}
    params = {k: parse_ext(v) if isinstance(v, str) else v
              for k, v in ref.get("params", {}).items()}
    try:
        return catalog_bv(ref["name"], **params)
    except (ValueError, KeyError) as exc:
        raise CliError(str(exc), EX_USAGE)


def _quad_report(res):
    return {
        "value": res.value,
        "errorEstimate": res.error_estimate,
        "depth": len(res.trace),
        "resolution": res.resolution,
        "converged": res.converged,
    }


def run(spec):
    """Dispatch a job spec; returns (report dict, exit code)."""
    command = spec.get("command")
    tol = float(spec.get("tol", 1e-6))
    resolution = int(spec.get("resolution", 64))
    if tol <= 0:
        raise CliError("tol must be positive", EX_USAGE)
    if resolution < 2:
        raise CliError("resolution must be >= 2", EX_USAGE)
    out = {"command": command, "spec": _jsonable(spec)}
    code = 0

    if command == "integrate":
        f = build_distribution(spec)
        out["value"] = integral.corner_integral(f, build_interval(spec))
        out["converged"] = True
    elif command == "norm":
        res = integral.alexiewicz_norm(build_distribution(spec), tol=tol)
        out.update(_quad_report(res))
        code = 0 if res.converged else 2
    elif command == "normprime":
        res = integral.norm_prime(build_distribution(spec), tol=tol)
        out.update(_quad_report(res))
        code = 0 if res.converged else 2
    elif command == "bvnorm":
        est = variation.hk_norm(build_bv(spec), tol=tol)
        out.update(est.as_dict())
        code = 0 if est.converged else 2
    elif command == "variation":
        g = build_bv(spec)
        kind = spec.get("kind", "hk")
        if kind == "hk":
            est = variation.hk_norm(g, tol=tol)
        elif kind == "vitali":
            est = variation.vitali_variation(g, tol=tol)
        elif kind in ("sectional1", "sectional2"):
            est = variation.sectional_variation_sup(g, int(kind[-1]), tol=tol)
        elif kind == "trace":
            out["trace"] = variation.variation_trace(g, doublings=int(spec.get("doublings", 5)))
            out["converged"] = True
            return out, 0
        else:
            raise CliError(f"unknown variation kind {kind!r}", EX_USAGE)
        out.update(est.as_dict())
        code = 0 if est.converged else 2
    elif command == "parts":
        f = build_distribution(spec)
        g = build_bv(spec)
        prim = stieltjes.parts_primitive(f, g, resolution=resolution)
        out["supNorm"] = float(np.max(np.abs(prim.values)))
        out["totalIntegral"] = float(prim(float("inf"), float("inf")))
        out["converged"] = True
        if spec.get("out"):
            export_grid_json(prim, spec["out"])
            out["written"] = spec["out"]
    elif command == "product":
        f1 = build_distribution(spec, "primitive")
        f2 = build_distribution(spec, "primitive2")
        prod = operators.algebra_product(f1, f2)
        res = integral.alexiewicz_norm(prod, tol=tol)
        out["normOfProduct"] = res.value
        out["errorEstimate"] = res.error_estimate
        out["totalIntegral"] = integral.total_integral(prod)
        out["converged"] = res.converged
        code = 0 if res.converged else 2
    elif command == "lattice":
        F1 = build_primitive(spec, "primitive")
        F2 = build_primitive(spec, "primitive2")
        op = spec.get("op", "join")
        if op == "join":
            prim = operators.lattice_join(F1, F2)
        elif op == "meet":
            prim = operators.lattice_meet(F1, F2)
        else:
            raise CliError("lattice op must be 'join' or 'meet'", EX_USAGE)
        res = integral.alexiewicz_norm(Distribution(prim), tol=tol)
        out["supNorm"] = res.value
        out["errorEstimate"] = res.error_estimate
        out["converged"] = res.converged
        if spec.get("out"):
            export_grid_json(sample_primitive(prim, resolution), spec["out"])
            out["written"] = spec["out"]
        code = 0 if res.converged else 2
    elif command == "order":
        f1 = build_distribution(spec, "primitive")
        f2 = build_distribution(spec, "primitive2")
        out["relation"] = operators.order_compare(f1, f2, resolution=resolution)
        out["converged"] = True
    elif command == "translate":
        f = build_distribution(spec)
        s, t = (parse_ext(v) for v in spec.get("shift", [1.0, 1.0]))
        tau = operators.translate(f, s, t)
        translated = integral.alexiewicz_norm(tau, tol=tol)
        out["normTranslated"] = translated.value
        F = f.primitive
        G = tau.primitive
        from .primitive import ClosedFormPrimitive

        delta = Distribution(
            ClosedFormPrimitive(
                lambda x, y: np.asarray(F.eval(x, y)) - np.asarray(G.eval(x, y)),
                "difference",
            )
        )
        difference = integral.alexiewicz_norm(delta, tol=tol)
        out["normDifference"] = difference.value
        out["errorEstimate"] = max(translated.error_estimate, difference.error_estimate)
        out["converged"] = True
    elif command == "changevars":
        f = build_distribution(spec)
        m = spec.get("map", {})
        amap = operators.LinearAxisMap(
            alpha=float(m.get("alpha", 1.0)),
            beta=float(m.get("beta", 1.0)),
            gamma1=float(m.get("gamma1", 0.0)),
            gamma2=float(m.get("gamma2", 0.0)),
            kind=m.get("kind", "straight"),
        )
        interval = build_interval(spec)
        out["value"] = operators.change_of_variables(f, amap, interval)
        out["direct"] = integral.corner_integral(f, interval)
        out["difference"] = abs(out["value"] - out["direct"])
        out["converged"] = True
    elif command == "convolve-bv":
        f = build_distribution(spec)
        g = build_bv(spec)
        p = tuple(parse_ext(v) for v in spec.get("point", [0.0, 0.0]))
        res = convolve_bv(f, g, p, tol=tol)
        out.update(_quad_report(res))
        code = 0 if res.converged else 2
    elif command == "convolve-l1":
        f = build_distribution(spec)
        z = _height(spec, 1.0)
        conv = convolve_l1(f, PoissonKernelL1(z), resolution=resolution, tol=tol,
                           normalize=bool(spec.get("normalize", False)))
        out["totalIntegral"] = integral.total_integral(conv)
        out["errorEstimate"] = conv.error_estimate
        out["converged"] = conv.converged
        if spec.get("out"):
            export_grid_json(conv.primitive, spec["out"])
            out["written"] = spec["out"]
        code = 0 if conv.converged else 2
    elif command == "mollify":
        F = build_primitive(spec)
        z = _height(spec, 0.25)
        n = int(spec.get("n", 16))
        sigma = step_approximate(F, n)
        prim = mollify_step(sigma, z, resolution=resolution)
        out["cornerValue"] = float(prim(float("inf"), float("inf")))
        out["stepCorner"] = float(sigma(float("inf"), float("inf")))
        out["converged"] = True
        if spec.get("out"):
            export_grid_json(prim, spec["out"])
            out["written"] = spec["out"]
    elif command == "iterated":
        f = build_distribution(spec)
        rep = integral.iterated_consistency(f, build_interval(spec), resolution=resolution)
        out.update(rep)
        out["converged"] = True
    elif command == "improper":
        res = integral.improper_example(spec.get("name", "xPowY"),
                                        spec.get("order", "dyFirst"), tol=tol)
        out.update(_quad_report(res))
        code = 0 if res.converged else 2
    elif command == "ndcorner":
        lower = [parse_ext(v) for v in spec.get("lower", [0, 0, 0])]
        upper = [parse_ext(v) for v in spec.get("upper", ["inf", "inf", "inf"])]
        box = integral.IntervalND(tuple(lower), tuple(upper))

        def F(*coords):
            out_v = 1.0
            for c in coords:
                out_v *= (math.pi / 2 + math.atan(c)) / math.pi
            return out_v

        out["value"] = integral.corner_integral_nd(F, box)
        out["dims"] = box.ndim
        out["converged"] = True
    elif command == "catalog":
        out["primitives"] = list(CATALOG_PRIMITIVES)
        out["bvFunctions"] = list(CATALOG_BV)
        out["suites"] = sorted(SUITES)
        out["converged"] = True
    elif command == "verify":
        name = spec.get("suite")
        if name not in SUITES:
            raise CliError(f"unknown suite {name!r}", EX_USAGE)
        report = run_suite(name, seed=spec.get("seed"))
        out["suite"] = report
        out["converged"] = report["passed"]
        code = 0 if report["passed"] else 2
    else:
        raise CliError(f"unknown command {command!r}", EX_USAGE)

    return out, code


def _spec_from_args(args):
    if args.job:
        try:
            with open(args.job, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read job file: {exc}", EX_NOINPUT)
        except json.JSONDecodeError as exc:
            raise CliError(f"job file is not valid JSON: {exc}", EX_NOINPUT)
    spec = {"command": args.command}
    for key in ("tol", "resolution", "seed", "kind", "op", "name", "order",
                "suite", "z", "n", "out", "doublings", "normalize"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            spec[key] = val
    if getattr(args, "primitive", None):
        spec["primitive"] = {"name": args.primitive,
                             "params": parse_json_arg(args.params, "--params") if args.params else {}}
    if getattr(args, "grid_file", None):
        spec["primitive"] = {"file": args.grid_file}
    if getattr(args, "primitive2", None):
        spec["primitive2"] = {"name": args.primitive2}
    if getattr(args, "bv", None):
        spec["bv"] = {"name": args.bv,
                      "params": parse_json_arg(args.bv_params, "--bv-params") if args.bv_params else {}}
    if getattr(args, "interval", None):
        spec["interval"] = args.interval
    if getattr(args, "point", None):
        spec["point"] = args.point
    if getattr(args, "shift", None):
        spec["shift"] = args.shift
    if getattr(args, "lower", None):
        spec["lower"] = args.lower
    if getattr(args, "upper", None):
        spec["upper"] = args.upper
    if getattr(args, "map_spec", None):
        spec["map"] = parse_json_arg(args.map_spec, "--map-spec")
    return spec


def _add_common(p):
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--primitive", help="catalog primitive name")
    p.add_argument("--params", help="JSON params for the primitive")
    p.add_argument("--grid-file", help="grid sample file (.json or .csv)")
    p.add_argument("--out", help="write the resulting grid sample here")


# negative float literals, -inf included: values, not option flags
_NEGATIVE_VALUE = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse with exit 64 on usage errors and -inf read as a value.

    argparse takes any token that starts with '-' and is not a negative
    number for an option, so `--interval -inf 0 -inf 0` would fail; the
    negative-number pattern is widened to every negative float literal.
    Subparsers are made with the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def make_parser():
    parser = _Parser(
        prog="cpintegral",
        description="Integrals, norms and operators for distributions given by "
                    "continuous primitives on the extended plane.",
    )
    parser.add_argument("--job", help="JSON job spec file; overrides other flags")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("integrate", help="corner-formula integral over an interval")
    _add_common(p)
    p.add_argument("--interval", nargs=4, metavar=("A", "B", "C", "D"))

    for name in ("norm", "normprime"):
        p = sub.add_parser(name, help=f"{name} of a distribution")
        _add_common(p)

    p = sub.add_parser("bvnorm", help="variation norm of a BV multiplier")
    _add_common(p)
    p.add_argument("--bv", required=False)
    p.add_argument("--bv-params")

    p = sub.add_parser("variation", help="variation estimates of a BV multiplier")
    _add_common(p)
    p.add_argument("--bv")
    p.add_argument("--bv-params")
    p.add_argument("--kind", choices=["hk", "vitali", "sectional1", "sectional2", "trace"])
    p.add_argument("--doublings", type=int)

    p = sub.add_parser("parts", help="primitive of a product f*g by parts")
    _add_common(p)
    p.add_argument("--bv")
    p.add_argument("--bv-params")

    p = sub.add_parser("product", help="algebra product of two distributions")
    _add_common(p)
    p.add_argument("--primitive2")

    p = sub.add_parser("lattice", help="join or meet of two primitives")
    _add_common(p)
    p.add_argument("--primitive2")
    p.add_argument("--op", choices=["join", "meet"])

    p = sub.add_parser("order", help="compare two distributions in the lattice order")
    _add_common(p)
    p.add_argument("--primitive2")

    p = sub.add_parser("translate", help="translate a distribution")
    _add_common(p)
    p.add_argument("--shift", nargs=2, metavar=("S", "T"))

    p = sub.add_parser("changevars", help="integral through an affine axis map")
    _add_common(p)
    p.add_argument("--interval", nargs=4, metavar=("A", "B", "C", "D"))
    p.add_argument("--map-spec", help='JSON like {"alpha":-1,"beta":1,"kind":"straight"}')

    p = sub.add_parser("convolve-bv", help="convolution with a BV kernel at a point")
    _add_common(p)
    p.add_argument("--bv")
    p.add_argument("--bv-params")
    p.add_argument("--point", nargs=2, metavar=("X", "Y"))

    p = sub.add_parser("convolve-l1", help="convolution with the Poisson kernel")
    _add_common(p)
    p.add_argument("--z", type=float)
    p.add_argument("--normalize", action="store_true", default=None)

    p = sub.add_parser("mollify", help="mollify a step approximation of a primitive")
    _add_common(p)
    p.add_argument("--z", type=float)
    p.add_argument("--n", type=int)

    p = sub.add_parser("iterated", help="iterated-sum consistency over an interval")
    _add_common(p)
    p.add_argument("--interval", nargs=4, metavar=("A", "B", "C", "D"))

    p = sub.add_parser("improper", help="order-dependent iterated improper examples")
    _add_common(p)
    p.add_argument("--name", choices=["xPowY", "arctanXY"])
    p.add_argument("--order", choices=["dyFirst", "dxFirst"])

    p = sub.add_parser("ndcorner", help="n-dimensional corner formula (product ramp)")
    _add_common(p)
    p.add_argument("--lower", nargs="+")
    p.add_argument("--upper", nargs="+")

    p = sub.add_parser("catalog", help="list catalog entries and suites")
    _add_common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument("--suite", choices=sorted(SUITES))

    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors (64) and --help (0)
        return exc.code
    if not args.job and not args.command:
        parser.print_usage(sys.stderr)
        return EX_USAGE
    try:
        spec = _spec_from_args(args)
        t0 = time.perf_counter()
        report, code = run(spec)
        report["wallTime"] = time.perf_counter() - t0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        json.dump(_jsonable(report), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; send the rest to devnull so the
        # interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    summary = report.get("value", report.get("relation", report.get("converged")))
    print(f"{spec.get('command')}: result={summary} converged={report.get('converged')}",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
