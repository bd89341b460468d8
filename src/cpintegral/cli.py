"""Command-line front end.

Jobs come from a JSON file (--job) or from subcommand flags; reports go to
stdout as JSON with a one-line human summary on stderr.  Infinite endpoints
serialize as the strings "inf" / "-inf".  Exit codes: 0 ok, 2 result did
not converge, 1 runtime error (such as a mixed boundary point, a grid too
large to allocate, an output file that cannot be written, or stdout
closed before the report was written), 64 usage error (every malformed
flag or job field), 66 unreadable input file.

Every subcommand is one row of COMMANDS: its handler, its help text and
the flags it takes besides the common ones.
"""

from __future__ import annotations

import argparse
import functools
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
    ClosedFormPrimitive,
    catalog_bv,
    catalog_primitive,
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
    """Extended real from JSON: a number, or a numeric string such as 'inf' / '-inf'."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise CliError(f"not an extended real: {v!r}", EX_USAGE)
    try:
        out = float(v)
    except (ValueError, OverflowError):
        raise CliError(f"not an extended real: {v!r}", EX_USAGE)
    if math.isnan(out):
        raise CliError(f"NaN is not an extended real: {v!r}", EX_USAGE)
    return out


def parse_json_arg(text, flag):
    """JSON given on the command line; malformed text is a usage error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{flag} is not valid JSON: {exc}", EX_USAGE)


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


# ---------------------------------------------------------------------------
# reading a job spec: every field goes through _field(), which checks its
# type, range and finiteness; a bad value is a usage error (exit 64)


def _require(ok, v):
    if not ok:
        raise CliError(f"got {v!r}", EX_USAGE)


def _finite(v):
    x = parse_ext(v)
    _require(math.isfinite(x), v)
    return x


def _positive(v):
    x = _finite(v)
    _require(x > 0, v)
    return x


def _integer(low, high=None):
    def read(v):
        _require(not isinstance(v, bool) and (isinstance(v, int) or isinstance(v, float) and v.is_integer())
                 and v >= low and (high is None or v <= high), v)
        return int(v)
    return read


def _of_type(kind):
    def read(v):
        _require(isinstance(v, kind), v)
        return v
    return read


def _one_of(options):
    def read(v):
        _require(isinstance(v, str) and v in options, v)
        return v
    return read


def _reals(count=None, finite=False, most=None):
    """A list of extended reals: exactly count of them, or from one to most."""
    def read(v):
        _require(isinstance(v, (list, tuple))
                 and (len(v) == count if count else 0 < len(v) <= (most or len(v))), v)
        xs = [parse_ext(x) for x in v]
        _require(not finite or all(map(math.isfinite, xs)), v)
        return xs
    return read


def _optional(read):
    return lambda v: None if v is None else read(v)


def _catalog_ref(v):
    ref = {"name": v} if isinstance(v, str) else v
    _require(isinstance(ref, dict) and isinstance(ref.get("name"), str), v)
    return ref


def _primitive_ref(v):
    if isinstance(v, dict) and "file" in v:
        _require(isinstance(v["file"], str), v)
        return v
    return _catalog_ref(v)


def _params(v):
    _require(isinstance(v, dict) and all(
        isinstance(x, str) or not isinstance(x, bool) and isinstance(x, (int, float)) and math.isfinite(x)
        for x in v.values()), v)
    return v


def _axis_map(v):
    _require(isinstance(v, dict), v)
    try:
        return operators.LinearAxisMap(
            alpha=_finite(v.get("alpha", 1.0)),
            beta=_finite(v.get("beta", 1.0)),
            gamma1=_finite(v.get("gamma1", 0.0)),
            gamma2=_finite(v.get("gamma2", 0.0)),
            kind=v.get("kind", "straight"),
        )
    except ValueError as exc:  # a zero scale or an unknown kind
        raise CliError(str(exc), EX_USAGE)


# upper bounds on the sizes a job may ask for: on a 2-core host a parts
# grid at resolution 1024 takes about 1.5 s and 500 MB, a variation trace of
# 6 doublings (resolution 4096) about 0.6 s, and each further doubling
# costs about 4x; a mollify sums (resolution - 1)^2 (n - 1)^2 kernel terms,
# 2^28 of them in about 3 s; an ndcorner box of 16 dimensions has 65536
# corners, summed in about 0.5 s
MAX_RESOLUTION = 1024
MAX_DOUBLINGS = 6
MAX_MOLLIFY_TERMS = 2**28
MAX_DIMS = 16

VARIATION_KINDS = ("hk", "vitali", "sectional1", "sectional2", "trace")
LATTICE_OPS = ("join", "meet")
IMPROPER_NAMES = ("xPowY", "arctanXY")
IMPROPER_ORDERS = ("dyFirst", "dxFirst")

# field -> (reader, what a valid value is)
_FIELDS = {
    "command": (lambda v: _one_of(COMMANDS)(v), "a subcommand name"),
    "tol": (_positive, "positive and finite"),
    "resolution": (_integer(2, MAX_RESOLUTION), f"an integer from 2 to {MAX_RESOLUTION}"),
    "seed": (_optional(_integer(0)), "an integer >= 0"),
    "kind": (_one_of(VARIATION_KINDS), "one of " + ", ".join(VARIATION_KINDS)),
    "doublings": (_integer(0, MAX_DOUBLINGS), f"an integer from 0 to {MAX_DOUBLINGS}"),
    "op": (_one_of(LATTICE_OPS), "one of " + ", ".join(LATTICE_OPS)),
    "name": (_one_of(IMPROPER_NAMES), "one of " + ", ".join(IMPROPER_NAMES)),
    "order": (_one_of(IMPROPER_ORDERS), "one of " + ", ".join(IMPROPER_ORDERS)),
    "suite": (_one_of(SUITES), "one of " + ", ".join(sorted(SUITES))),
    "z": (_positive, "positive and finite"),
    "n": (_integer(2, MAX_RESOLUTION), f"an integer from 2 to {MAX_RESOLUTION}"),
    "normalize": (_of_type(bool), "true or false"),
    "out": (_optional(_of_type(str)), "a file path"),
    "interval": (_reals(4), "four extended reals a b c d"),
    "point": (_reals(2), "two extended reals"),
    "shift": (_reals(2, finite=True), "two finite reals"),
    "lower": (_reals(most=MAX_DIMS), f"a list of 1 to {MAX_DIMS} extended reals"),
    "upper": (_reals(most=MAX_DIMS), f"a list of 1 to {MAX_DIMS} extended reals"),
    "map": (_axis_map, "an axis map with nonzero finite alpha and beta"),
    "primitive": (_primitive_ref, 'a catalog name, {"name": ..., "params": ...} or {"file": ...}'),
    "primitive2": (_primitive_ref, 'a catalog name, {"name": ..., "params": ...} or {"file": ...}'),
    "bv": (_catalog_ref, 'a catalog name or {"name": ..., "params": ...}'),
    "params": (_params, "an object of finite numbers and strings"),
}


def _field(spec, key, default=None):
    """spec[key], or default when it is absent, read and checked by its _FIELDS row."""
    read, need = _FIELDS[key]
    try:
        return read(spec.get(key, default))
    except CliError as exc:
        raise CliError(f"{key} must be {need}; {exc if key in spec else 'it is missing'}", EX_USAGE)


def build_interval(spec):
    return make_interval(*_field(spec, "interval", ["-inf", "inf", "-inf", "inf"]))


def build_primitive(spec, key="primitive"):
    ref = _field(spec, key)
    if "file" in ref:
        path = ref["file"]
        try:
            if path.endswith(".csv"):
                return import_grid_csv(path, label=path)
            return import_grid_json(path)
        except (OSError, ValueError, KeyError) as exc:
            raise CliError(f"cannot load grid file {path}: {exc}", EX_NOINPUT)
    params = {**_field(ref, "params", {}), **(_field(spec, "params", {}) if key == "primitive" else {})}
    try:
        return catalog_primitive(ref["name"], **params)
    except ValueError as exc:
        raise CliError(str(exc), EX_USAGE)


def build_bv(spec):
    ref = _field(spec, "bv")
    params = {k: parse_ext(v) if isinstance(v, str) else v for k, v in _field(ref, "params", {}).items()}
    try:
        return catalog_bv(ref["name"], **params)
    except ValueError as exc:
        raise CliError(str(exc), EX_USAGE)


def _box(spec):
    lower, upper = _field(spec, "lower", [0, 0, 0]), _field(spec, "upper", ["inf", "inf", "inf"])
    try:
        return integral.IntervalND(tuple(lower), tuple(upper))
    except ValueError as exc:  # bounds of different lengths, or lower above upper
        raise CliError(str(exc), EX_USAGE)


# ---------------------------------------------------------------------------
# handlers: (spec, tol, resolution) -> report fields; `converged` defaults
# to True and sets the exit code


def _refined(res):
    out = res.as_dict()
    out["depth"] = len(out.pop("trace"))
    return out


def _written(spec, make_grid):
    """Export make_grid() to spec["out"] when it is set; the grid is built only then."""
    path = _field(spec, "out")
    if not path:
        return {}
    grid = make_grid()
    try:
        export_grid_json(grid, path)
    except OSError as exc:
        raise CliError(f"cannot write grid file {path}: {exc}")
    return {"written": path}


def _integrate(spec, tol, resolution):
    return {"value": integral.corner_integral(build_primitive(spec), build_interval(spec))}


def _norm(spec, tol, resolution):
    return _refined(integral.alexiewicz_norm(build_primitive(spec), tol=tol))


def _normprime(spec, tol, resolution):
    return _refined(integral.norm_prime(build_primitive(spec), tol=tol))


def _bvnorm(spec, tol, resolution):
    return variation.hk_norm(build_bv(spec), tol=tol).as_dict()


def _variation(spec, tol, resolution):
    g = build_bv(spec)
    kind = _field(spec, "kind", "hk")
    if kind == "trace":
        return {"trace": variation.variation_trace(g, doublings=_field(spec, "doublings", 5))}
    if kind == "hk":
        est = variation.hk_norm(g, tol=tol)
    elif kind == "vitali":
        est = variation.vitali_variation(g, tol=tol)
    else:
        est = variation.sectional_variation_sup(g, int(kind[-1]), tol=tol)
    return est.as_dict()


def _parts(spec, tol, resolution):
    prim = stieltjes.parts_primitive(build_primitive(spec), build_bv(spec), resolution=resolution)
    return {"supNorm": float(np.max(np.abs(prim.values))),
            "totalIntegral": float(prim(float("inf"), float("inf"))),
            **_written(spec, lambda: prim)}


def _product(spec, tol, resolution):
    prod = operators.algebra_product(build_primitive(spec), build_primitive(spec, "primitive2"))
    res = integral.alexiewicz_norm(prod, tol=tol)
    return {"normOfProduct": res.value, "errorEstimate": res.error_estimate,
            "totalIntegral": integral.total_integral(prod), "converged": res.converged}


def _lattice(spec, tol, resolution):
    F1, F2 = build_primitive(spec), build_primitive(spec, "primitive2")
    join = _field(spec, "op", "join") == "join"
    prim = (operators.lattice_join if join else operators.lattice_meet)(F1, F2)
    res = integral.alexiewicz_norm(prim, tol=tol)
    return {"supNorm": res.value, "errorEstimate": res.error_estimate, "converged": res.converged,
            **_written(spec, lambda: sample_primitive(prim, resolution))}


def _order(spec, tol, resolution):
    F1, F2 = build_primitive(spec), build_primitive(spec, "primitive2")
    return {"relation": operators.order_compare(F1, F2, resolution=resolution)}


def _translate(spec, tol, resolution):
    F = build_primitive(spec)
    s, t = _field(spec, "shift", [1.0, 1.0])
    G = operators.translate(F, s, t)
    translated = integral.alexiewicz_norm(G, tol=tol)
    delta = ClosedFormPrimitive(
        lambda x, y: np.asarray(F.eval(x, y)) - np.asarray(G.eval(x, y)), "difference")
    difference = integral.alexiewicz_norm(delta, tol=tol)
    return {"normTranslated": translated.value, "normDifference": difference.value,
            "errorEstimate": max(translated.error_estimate, difference.error_estimate),
            "converged": translated.converged and difference.converged}


def _changevars(spec, tol, resolution):
    F = build_primitive(spec)
    amap = _field(spec, "map", {})
    interval = build_interval(spec)
    value = operators.change_of_variables(F, amap, interval)
    direct = integral.corner_integral(F, interval)
    return {"value": value, "direct": direct, "difference": abs(value - direct)}


def _convolve_bv(spec, tol, resolution):
    F, g = build_primitive(spec), build_bv(spec)
    p = tuple(_field(spec, "point", [0.0, 0.0]))
    return _refined(convolve_bv(F, g, p, tol=tol))


def _convolve_l1(spec, tol, resolution):
    F = build_primitive(spec)
    try:
        kernel = PoissonKernelL1(_field(spec, "z", 1.0))
    except ValueError as exc:  # a z too small or too large for the kernel's floats
        raise CliError(str(exc), EX_USAGE)
    conv = convolve_l1(F, kernel, resolution=resolution, tol=tol,
                       normalize=_field(spec, "normalize", False))
    return {"totalIntegral": integral.total_integral(conv), "errorEstimate": conv.error_estimate,
            "converged": conv.converged, **_written(spec, lambda: conv.primitive)}


def _mollify(spec, tol, resolution):
    F = build_primitive(spec)
    z = _field(spec, "z", 0.25)
    n = _field(spec, "n", 16)
    terms = ((resolution - 1) * (n - 1)) ** 2
    if terms > MAX_MOLLIFY_TERMS:
        raise CliError(f"n and resolution must give at most 2^28 kernel terms, (resolution - 1)^2 (n - 1)^2; "
                       f"got {terms}", EX_USAGE)
    sigma = step_approximate(F, n)
    try:
        prim = mollify_step(sigma, z, resolution=resolution)
    except ValueError as exc:  # a z too small for the node sums' floats
        raise CliError(str(exc), EX_USAGE)
    return {"cornerValue": float(prim(float("inf"), float("inf"))),
            "stepCorner": float(sigma(float("inf"), float("inf"))),
            **_written(spec, lambda: prim)}


def _iterated(spec, tol, resolution):
    return integral.iterated_consistency(build_primitive(spec), build_interval(spec),
                                         resolution=resolution)


def _improper(spec, tol, resolution):
    return _refined(integral.improper_example(_field(spec, "name", "xPowY"),
                                              _field(spec, "order", "dyFirst"), tol=tol))


def _product_ramp(*coords):
    out = 1.0
    for c in coords:
        out *= (math.pi / 2 + math.atan(c)) / math.pi
    return out


def _ndcorner(spec, tol, resolution):
    box = _box(spec)
    return {"value": integral.corner_integral_nd(_product_ramp, box), "dims": box.ndim}


def _catalog(spec, tol, resolution):
    return {"primitives": list(CATALOG_PRIMITIVES), "bvFunctions": list(CATALOG_BV),
            "suites": sorted(SUITES)}


def _verify(spec, tol, resolution):
    report = run_suite(_field(spec, "suite"), seed=_field(spec, "seed"))
    return {"suite": report, "converged": report["passed"]}


# ---------------------------------------------------------------------------
# the command table

_COMMON_FLAGS = (
    ("--tol", {"type": float}),
    ("--resolution", {"type": int}),
    ("--seed", {"type": int}),
    ("--primitive", {"help": "catalog primitive name"}),
    ("--params", {"help": "JSON params for the primitive"}),
    ("--grid-file", {"help": "grid sample file (.json or .csv)"}),
    ("--out", {"help": "write the resulting grid sample here"}),
)
_INTERVAL = ("--interval", {"nargs": 4, "metavar": ("A", "B", "C", "D")})
_BV = (("--bv", {}), ("--bv-params", {}))
_PRIMITIVE2 = ("--primitive2", {})

# name -> (handler, help text, flags besides the common ones)
COMMANDS = {
    "integrate": (_integrate, "corner-formula integral over an interval", (_INTERVAL,)),
    "norm": (_norm, "norm of a distribution", ()),
    "normprime": (_normprime, "normprime of a distribution", ()),
    "bvnorm": (_bvnorm, "variation norm of a BV multiplier", _BV),
    "variation": (_variation, "variation estimates of a BV multiplier", _BV + (
        ("--kind", {"choices": VARIATION_KINDS}),
        ("--doublings", {"type": int}))),
    "parts": (_parts, "primitive of a product f*g by parts", _BV),
    "product": (_product, "algebra product of two distributions", (_PRIMITIVE2,)),
    "lattice": (_lattice, "join or meet of two primitives", (
        _PRIMITIVE2, ("--op", {"choices": LATTICE_OPS}))),
    "order": (_order, "compare two distributions in the lattice order", (_PRIMITIVE2,)),
    "translate": (_translate, "translate a distribution", (
        ("--shift", {"nargs": 2, "metavar": ("S", "T")}),)),
    "changevars": (_changevars, "integral through an affine axis map", (
        _INTERVAL, ("--map-spec", {"help": 'JSON like {"alpha":-1,"beta":1,"kind":"straight"}'}))),
    "convolve-bv": (_convolve_bv, "convolution with a BV kernel at a point", _BV + (
        ("--point", {"nargs": 2, "metavar": ("X", "Y")}),)),
    "convolve-l1": (_convolve_l1, "convolution with the Poisson kernel", (
        ("--z", {"type": float}), ("--normalize", {"action": "store_true", "default": None}))),
    "mollify": (_mollify, "mollify a step approximation of a primitive", (
        ("--z", {"type": float}), ("--n", {"type": int}))),
    "iterated": (_iterated, "iterated-sum consistency over an interval", (_INTERVAL,)),
    "improper": (_improper, "order-dependent iterated improper examples", (
        ("--name", {"choices": IMPROPER_NAMES}),
        ("--order", {"choices": IMPROPER_ORDERS}))),
    "ndcorner": (_ndcorner, "n-dimensional corner formula (product ramp)", (
        ("--lower", {"nargs": "+"}), ("--upper", {"nargs": "+"}))),
    "catalog": (_catalog, "list catalog entries and suites", ()),
    "verify": (_verify, "run a verification suite", (("--suite", {"choices": sorted(SUITES)}),)),
}


def run(spec):
    """Dispatch a job spec; returns (report dict, exit code)."""
    if not isinstance(spec, dict):
        raise CliError(f"a job spec must be a JSON object, got {spec!r}", EX_USAGE)
    command = _field(spec, "command")
    tol, resolution = _field(spec, "tol", 1e-6), _field(spec, "resolution", 64)
    out = {"command": command, "spec": _jsonable(spec), "converged": True}
    out.update(COMMANDS[command][0](spec, tol, resolution))
    return out, 0 if out["converged"] else 2


# flags that name a primitive, a multiplier or a map; the rest copy as they are
_REFERENCE_FLAGS = ("job", "primitive", "params", "grid_file", "primitive2", "bv", "bv_params", "map_spec")


def _spec_from_args(args):
    if args.job:
        try:
            with open(args.job, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read job file: {exc}", EX_NOINPUT)
        except json.JSONDecodeError as exc:
            raise CliError(f"job file is not valid JSON: {exc}", EX_NOINPUT)
    spec = {k: v for k, v in vars(args).items() if v is not None and k not in _REFERENCE_FLAGS}
    if args.primitive:
        spec["primitive"] = {"name": args.primitive,
                             "params": parse_json_arg(args.params, "--params") if args.params else {}}
    if args.grid_file:
        spec["primitive"] = {"file": args.grid_file}
    if getattr(args, "primitive2", None):
        spec["primitive2"] = {"name": args.primitive2}
    if getattr(args, "bv", None):
        spec["bv"] = {"name": args.bv,
                      "params": parse_json_arg(args.bv_params, "--bv-params") if args.bv_params else {}}
    if getattr(args, "map_spec", None):
        spec["map"] = parse_json_arg(args.map_spec, "--map-spec")
    return spec


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


@functools.cache
def make_parser():
    """The argument parser, built once per process and shared by every call.

    Parsing leaves no state in it; callers must not mutate it (no
    add_argument or set_defaults), since every later call would see that.
    """
    parser = _Parser(
        prog="cpintegral",
        description="Integrals, norms and operators for distributions given by "
                    "continuous primitives on the extended plane.",
    )
    parser.add_argument("--job", help="JSON job spec file; overrides other flags")
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in _COMMON_FLAGS + flags:
            p.add_argument(flag, **kwargs)
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
    except (ValueError, ArithmeticError, MemoryError) as exc:
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
