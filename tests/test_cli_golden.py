"""Golden CLI reports: exit code, report digest and --help text.

Every case runs `cli.main` in-process on cheap inputs.  The digest is the
SHA-256 of the JSON report with sorted keys, `wallTime` removed and the
temporary directory written as "<tmp>"; an empty stdout has digest None.
The recorded values live in tests/data/cli_golden.json.  After a
deliberate change to a report or a help text, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints the case ids and help texts whose recorded values changed.

The reports whose digests hold a polished supremum are also checked
against exact or independently computed values.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np
import pytest
from scipy import optimize

from cpintegral import cli
from cpintegral.integral import alexiewicz_norm
from cpintegral.primitive import distribution
from test_integral import max_rounding_gap, use_replaced_formulas

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")
HELP_COLUMNS = "100"

JOBS = {
    "integrate.json": {"command": "integrate", "primitive": {"name": "expRadial"},
                       "interval": ["-inf", 0, "-inf", 0]},
    "norm-params.json": {"command": "norm", "primitive": "sineStrip", "params": {"n": 4},
                         "tol": 1e-3},
    "bvnorm.json": {"command": "bvnorm",
                    "bv": {"name": "intervalIndicator",
                           "params": {"a": "-inf", "b": 1, "c": 0, "d": "inf"}}},
    "vitali.json": {"command": "variation", "kind": "vitali",
                    "bv": {"name": "intervalIndicator", "params": {"a": -1, "b": 2, "c": 0, "d": 1}}},
    "iterated.json": {"command": "iterated", "primitive": "sinc2d",
                      "interval": [-1, 2, "-inf", 1], "resolution": 16},
    "grid-norm.json": {"command": "norm", "primitive": {"file": "{tmp}/parts.json"}},
    "holder.json": {"command": "verify", "suite": "holder", "seed": 3},
    "unknown-command.json": {"command": "frobnicate"},
    "bad-json.json": "{not json",
}

# (case id, argv); "{tmp}" is the temporary directory, and cases run in order
CASES = [
    ("integrate", ["integrate", "--primitive", "prodArctan", "--interval", "0", "inf", "0", "inf"]),
    ("integrate-neg-inf", ["integrate", "--primitive", "expRadial", "--interval", "-inf", "0", "-inf", "0"]),
    ("integrate-default", ["integrate", "--primitive", "gauss2"]),
    ("norm", ["norm", "--primitive", "sineStrip", "--params", '{"n": 4}', "--tol", "1e-3"]),
    ("normprime", ["normprime", "--primitive", "prodArctan", "--tol", "1e-3"]),
    ("bvnorm", ["bvnorm", "--bv", "intervalIndicator", "--bv-params", '{"a": 0, "b": 1, "c": 0, "d": 1}']),
    ("variation-default", ["variation", "--bv", "approxIdentity", "--tol", "1e-3"]),
    ("variation-hk", ["variation", "--bv", "quadrantIndicator", "--kind", "hk", "--tol", "1e-3"]),
    ("variation-vitali", ["variation", "--bv", "quadrantIndicator", "--kind", "vitali", "--tol", "1e-3"]),
    ("variation-sectional1", ["variation", "--bv", "halfPlaneIndicator", "--kind", "sectional1",
                              "--tol", "1e-3"]),
    ("variation-sectional2", ["variation", "--bv", "quadrantIndicator", "--kind", "sectional2",
                              "--tol", "1e-3"]),
    ("variation-trace", ["variation", "--bv", "diagonalIndicator", "--kind", "trace", "--doublings", "3"]),
    ("parts-out", ["parts", "--primitive", "prodArctan", "--bv", "approxIdentity", "--resolution", "16",
                   "--out", "{tmp}/parts.json"]),
    ("norm-grid-file", ["norm", "--grid-file", "{tmp}/parts.json", "--tol", "1e-3"]),
    ("parts", ["parts", "--primitive", "gauss2", "--bv", "constant", "--bv-params", '{"c": 2}',
               "--resolution", "8"]),
    ("product", ["product", "--primitive", "prodArctan", "--primitive2", "gauss2", "--tol", "1e-3"]),
    ("lattice-out", ["lattice", "--primitive", "prodArctan", "--primitive2", "gauss2", "--op", "meet",
                     "--tol", "1e-3", "--resolution", "16", "--out", "{tmp}/lattice.json"]),
    ("lattice-default", ["lattice", "--primitive", "prodArctan", "--primitive2", "gauss2", "--tol", "1e-3"]),
    ("order", ["order", "--primitive", "prodArctan", "--primitive2", "gauss2", "--resolution", "16"]),
    ("translate", ["translate", "--primitive", "prodArctan", "--shift", "1", "-0.5", "--tol", "1e-3"]),
    ("changevars", ["changevars", "--primitive", "gauss2", "--interval", "-2", "2", "-2", "2",
                    "--map-spec", '{"alpha": -1, "beta": 2, "gamma1": 0.5}']),
    ("changevars-swapped", ["changevars", "--primitive", "prodArctan", "--interval", "0", "1", "-inf", "0",
                              "--map-spec", '{"alpha": 2, "kind": "swapped"}']),
    ("convolve-bv", ["convolve-bv", "--primitive", "prodArctan", "--bv", "approxIdentity",
                     "--point", "0.5", "-0.5", "--tol", "1e-3"]),
    ("convolve-bv-corner", ["convolve-bv", "--primitive", "prodArctan", "--bv", "constant",
                            "--point", "inf", "inf"]),
    ("convolve-bv-unconverged", ["convolve-bv", "--primitive", "prodArctan", "--bv", "approxIdentity",
                                 "--point", "0", "0", "--tol", "1e-12"]),
    ("convolve-l1-out", ["convolve-l1", "--primitive", "prodArctan", "--z", "0.5", "--resolution", "8",
                         "--tol", "1e-2", "--out", "{tmp}/conv.json"]),
    ("convolve-l1-normalize", ["convolve-l1", "--primitive", "gauss2", "--z", "0.5", "--resolution", "8",
                               "--tol", "1e-2", "--normalize"]),
    ("mollify-out", ["mollify", "--primitive", "prodArctan", "--z", "0.3", "--n", "8", "--resolution", "16",
                     "--out", "{tmp}/mollified.json"]),
    ("mollify-default-z", ["mollify", "--primitive", "gauss2", "--n", "4", "--resolution", "8"]),
    ("iterated", ["iterated", "--primitive", "sinc2d", "--interval", "-1", "2", "-inf", "1",
                  "--resolution", "32"]),
    ("improper-arctan", ["improper", "--name", "arctanXY", "--order", "dxFirst"]),
    ("improper-xpowy", ["improper", "--name", "xPowY", "--order", "dyFirst"]),
    ("ndcorner", ["ndcorner", "--lower", "0", "-1", "--upper", "inf", "2"]),
    ("ndcorner-default", ["ndcorner"]),
    ("catalog", ["catalog"]),
    ("verify", ["verify", "--suite", "ftc"]),
    ("job-integrate", ["--job", "{tmp}/integrate.json"]),
    ("job-norm-params", ["--job", "{tmp}/norm-params.json"]),
    ("job-bvnorm", ["--job", "{tmp}/bvnorm.json"]),
    ("job-vitali", ["--job", "{tmp}/vitali.json"]),
    ("job-iterated", ["--job", "{tmp}/iterated.json"]),
    ("job-grid-norm", ["--job", "{tmp}/grid-norm.json"]),
    ("job-holder-seed", ["--job", "{tmp}/holder.json"]),
    # kept error codes
    ("usage-unknown-primitive", ["integrate", "--primitive", "nope"]),
    ("usage-unknown-bv", ["bvnorm", "--bv", "nope"]),
    ("usage-unknown-command", ["--job", "{tmp}/unknown-command.json"]),
    ("usage-bad-params-json", ["integrate", "--primitive", "prodArctan", "--params", "{bad"]),
    ("usage-bad-map-json", ["changevars", "--primitive", "gauss2", "--map-spec", "{bad"]),
    ("usage-nan-endpoint", ["integrate", "--primitive", "prodArctan", "--interval", "nan", "1", "0", "1"]),
    ("usage-negative-z", ["convolve-l1", "--primitive", "prodArctan", "--z", "-1"]),
    ("usage-missing-primitive", ["norm"]),
    ("usage-argparse-flag", ["integrate", "--primitive", "prodArctan", "--no-such-flag"]),
    ("usage-argparse-choice", ["variation", "--bv", "constant", "--kind", "bogus"]),
    ("usage-argparse-command", ["frobnicate"]),
    ("usage-no-command", []),
    ("noinput-missing-job", ["--job", "{tmp}/missing.json"]),
    ("noinput-bad-job-json", ["--job", "{tmp}/bad-json.json"]),
    ("noinput-missing-grid-file", ["norm", "--grid-file", "{tmp}/missing-grid.json"]),
    ("runtime-mixed-boundary-point", ["convolve-bv", "--primitive", "prodArctan", "--bv", "constant",
                                      "--point", "inf", "0"]),
]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(stdout, tmp):
    if not stdout.strip():
        return None
    report = json.loads(stdout)
    report.pop("wallTime", None)
    text = json.dumps(report, sort_keys=True).replace(tmp, "<tmp>")
    return hashlib.sha256(text.encode()).hexdigest()


def run_cases(tmp):
    """{case id: (exit code, stdout)} for every case, run in order in tmp."""
    for name, spec in JOBS.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(spec if isinstance(spec, str) else json.dumps(spec).replace("{tmp}", tmp))
    results = {}
    for case_id, argv in CASES:
        code, stdout, _ = _call([a.replace("{tmp}", tmp) for a in argv])
        results[case_id] = (code, stdout)
    return results


def run_roster(tmp, runs=None):
    """{case id: {"code", "sha256"}} for every case, from run_cases(tmp) unless given."""
    runs = run_cases(tmp) if runs is None else runs
    return {case_id: {"code": code, "sha256": _digest(stdout, tmp)}
            for case_id, (code, stdout) in runs.items()}


def help_texts():
    """--help of the top-level parser and of every subcommand."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = HELP_COLUMNS
    try:
        texts = {"": _call(["--help"])[1]}
        for name in sorted(_subcommands()):
            texts[name] = _call([name, "--help"])[1]
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return texts


def _subcommands():
    parser = cli.make_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("cli-golden"))
    return tmp, run_cases(tmp)


@pytest.fixture(scope="module")
def roster(runs):
    return run_roster(*runs)


@pytest.mark.parametrize("case_id", [c for c, _ in CASES])
def test_report_matches_golden(golden, roster, case_id):
    assert roster[case_id] == golden["reports"][case_id]


def _ramp(t):
    return 0.5 + np.arctan(t) / np.pi


def _chart_inverse(u):
    u = np.clip(u, -1.0, 1.0)
    with np.errstate(divide="ignore"):
        return np.where(np.abs(u) < 1.0, u / (1.0 - np.abs(u)), np.where(u < 0.0, -np.inf, np.inf))


def _sup_reference(fn, n=400):
    """max of fn(x, y) over the extended plane: the best of a dense chart grid,
    then a Nelder-Mead search from it in chart coordinates."""
    u = np.linspace(-1.0, 1.0, n + 1)
    U, V = np.meshgrid(u, u)
    values = fn(_chart_inverse(U), _chart_inverse(V))
    j, i = np.unravel_index(np.argmax(values), values.shape)
    res = optimize.minimize(lambda p: -float(fn(*_chart_inverse(p))), [u[i], u[j]],
                            method="Nelder-Mead", options={"xatol": 1e-13, "fatol": 1e-16})
    return max(float(values[j, i]), -float(res.fun))


def _ramp_gauss_sup():
    """sup of R(x) R(y) exp(-x^2 - y^2) = (max_t R(t) exp(-t^2))^2."""
    res = optimize.minimize_scalar(lambda t: -_ramp(t) * np.exp(-t * t), bounds=(-3.0, 3.0),
                                   method="bounded", options={"xatol": 1e-12})
    return res.fun ** 2


def _ramp_gauss_meet_sup():
    """sup of min(R(x) R(y), exp(-x^2 - y^2)): R(t)^2 at the crease R(t) = exp(-t^2) on the diagonal."""
    t = optimize.brentq(lambda t: _ramp(t) - np.exp(-t * t), 0.0, 3.0, xtol=1e-15)
    return _ramp(t) ** 2


def _translate_difference_sup():
    """sup |F(x, y) - F(x - 1, y + 0.5)| for F = prodArctan."""
    return _sup_reference(lambda x, y: np.abs(_ramp(x) * _ramp(y) - _ramp(x - 1.0) * _ramp(y + 0.5)))


# case id -> [(report key, reference, allowed gap)]; the polished suprema are
# evaluated values of |F|, so they match a smooth maximum, and the crease top
# of the meet, to rounding
POLISHED = {
    "norm": [("value", lambda: 0.5, 1e-3)],
    "job-norm-params": [("value", lambda: 0.5, 1e-3)],
    "normprime": [("value", lambda: 1.0, 1e-12)],
    "product": [("normOfProduct", _ramp_gauss_sup, 1e-12)],
    "lattice-out": [("supNorm", _ramp_gauss_meet_sup, 1e-12)],
    "translate": [("normTranslated", lambda: 1.0, 1e-12),
                  ("normDifference", _translate_difference_sup, 1e-12)],
}


@pytest.mark.parametrize("case_id", sorted(POLISHED))
def test_polished_report_values(runs, case_id):
    code, stdout = runs[1][case_id]
    report = json.loads(stdout)
    assert code == 0 and report["converged"]
    for key, reference, gap in POLISHED[case_id]:
        assert abs(report[key] - reference()) <= gap, key


@pytest.mark.parametrize("case_id", ["norm-grid-file", "job-grid-norm"])
def test_grid_file_norm_is_the_node_maximum(runs, case_id):
    # a grid sample is bilinear in the chart, so its norm is max |V| of the file, exactly
    tmp, results = runs
    code, stdout = results[case_id]
    report = json.loads(stdout)
    with open(os.path.join(tmp, "parts.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert code == 0 and report["converged"]
    assert report["value"] == float(np.max(np.abs(doc["values"])))
    assert report["resolution"] == doc["resolution"]
    assert report["errorEstimate"] == 0.0


def test_holder_report_uses_exact_norms(runs):
    # suite_holder bounds each pairing by ||f|| ||g||; all four of its f have ||f|| = 1
    code, stdout = runs[1]["job-holder-seed"]
    assert code == 0 and json.loads(stdout)["suite"]["passed"]
    for name, params in (("prodArctan", {}), ("gauss2", {"which": "F"}), ("sineStrip", {"n": 2}),
                         ("expRadial", {})):
        assert abs(alexiewicz_norm(distribution(name, **params), tol=1e-8).value - 1.0) <= 1e-8


# job-holder-seed was re-recorded when expRadial's G stopped calling np.hypot;
# under that formula the report had this digest
HOLDER_SEED_HYPOT_DIGEST = "2dbcbaa2138bd659960866bc23f21ee599d744f1df7c478efad9987d6698c8ba"


def test_holder_report_differs_from_the_hypot_formula_by_rounding(runs, monkeypatch):
    tmp, results = runs
    code, stdout = results["job-holder-seed"]
    use_replaced_formulas(monkeypatch)
    old_code, old_stdout, _ = _call(["--job", os.path.join(tmp, "holder.json")])
    assert (code, _digest(old_stdout, tmp)) == (old_code, HOLDER_SEED_HYPOT_DIGEST)
    new, old = json.loads(stdout), json.loads(old_stdout)
    new.pop("wallTime"), old.pop("wallTime")
    assert 0.0 < max_rounding_gap(new, old) <= 1.2e-16


def test_help_texts_match_golden(golden):
    texts = help_texts()
    assert sorted(texts) == sorted(golden["help"])
    for name, text in texts.items():
        assert text == golden["help"][name], f"--help of {name or 'cpintegral'} changed"


if __name__ == "__main__":
    import tempfile

    with open(GOLDEN, encoding="utf-8") as fh:
        old = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        data = {"reports": run_roster(tmp), "help": help_texts()}
    for section, label in (("reports", "report"), ("help", "--help of")):
        for key in sorted(set(data[section]) | set(old[section])):
            if data[section].get(key) != old[section].get(key):
                print(f"changed {label} {key or 'cpintegral'}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
