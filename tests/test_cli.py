import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cpintegral import cli
from cpintegral.integral import alexiewicz_norm
from cpintegral.operators import algebra_product, lattice_join, translate
from cpintegral.primitive import ClosedFormPrimitive, Distribution, distribution

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_integrate_full_plane(capsys):
    code, report, err = run_cli(capsys, ["integrate", "--primitive", "prodArctan"])
    assert code == 0
    assert report["value"] == 1.0
    assert "integrate" in err


def test_integrate_interval_with_infinite_endpoints(capsys):
    code, report, _ = run_cli(
        capsys, ["integrate", "--primitive", "prodArctan", "--interval", "0", "inf", "0", "inf"]
    )
    assert code == 0
    assert abs(report["value"] - 0.25) < 1e-12


def test_norm_command(capsys):
    code, report, _ = run_cli(capsys, ["norm", "--primitive", "prodArctan"])
    assert code == 0
    assert report["value"] == 1.0
    assert report["converged"] is True


def test_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    tols = []

    def norm(f, tol):
        tols.append(tol)
        return alexiewicz_norm(f, tol=tol)

    monkeypatch.setattr(cli.integral, "alexiewicz_norm", norm)
    assert cli.make_parser() is cli.make_parser()
    code, first, _ = run_cli(capsys, ["norm", "--primitive", "sineStrip", "--tol", "1e-3"])
    assert code == 0 and first["spec"]["tol"] == 1e-3
    code, second, _ = run_cli(capsys, ["norm", "--primitive", "sineStrip"])
    assert code == 0 and "tol" not in second["spec"]
    assert tols == [1e-3, 1e-6]


def test_bvnorm_command(capsys):
    code, report, _ = run_cli(capsys, ["bvnorm", "--bv", "quadrantIndicator"])
    assert code == 0
    assert report["value"] == 4.0


def test_primitive_params_json(capsys):
    code, report, _ = run_cli(
        capsys, ["norm", "--primitive", "sineStrip", "--params", '{"n": 4}', "--tol", "1e-3"]
    )
    assert code == 0
    assert abs(report["value"] - 0.5) < 1e-2


def test_ndcorner(capsys):
    code, report, _ = run_cli(
        capsys, ["ndcorner", "--lower", "0", "0", "0", "--upper", "inf", "inf", "inf"]
    )
    assert code == 0
    assert abs(report["value"] - 0.125) < 1e-12
    assert report["dims"] == 3


def test_catalog_listing(capsys):
    code, report, _ = run_cli(capsys, ["catalog"])
    assert code == 0
    assert "prodArctan" in report["primitives"]
    assert "quadrantIndicator" in report["bvFunctions"]
    assert "ftc" in report["suites"]


def test_verify_suite(capsys):
    code, report, _ = run_cli(capsys, ["verify", "--suite", "ftc"])
    assert code == 0
    assert report["suite"]["passed"] is True


def test_job_file(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "command": "integrate",
        "primitive": "expRadial",
        "interval": ["-inf", 0, "-inf", 0],
    }))
    code, report, _ = run_cli(capsys, ["--job", str(job)])
    assert code == 0
    assert report["value"] == 1.0  # corner value exp(0)


def test_missing_job_file_exit_66(capsys):
    code, _, err = run_cli(capsys, ["--job", "/nonexistent/job.json"])
    assert code == 66
    assert "error" in err


def test_unknown_command_exit_64(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "frobnicate"}))
    code, _, _ = run_cli(capsys, ["--job", str(job)])
    assert code == 64


def test_unknown_primitive_exit_64(capsys):
    code, _, _ = run_cli(capsys, ["integrate", "--primitive", "nope"])
    assert code == 64


def test_bad_grid_file_exit_66(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, ["norm", "--grid-file", str(bad)])
    assert code == 66


def test_mixed_boundary_point_exit_1(capsys):
    code, _, err = run_cli(
        capsys,
        ["convolve-bv", "--primitive", "prodArctan", "--bv", "constant", "--point", "inf", "0"],
    )
    assert code == 1
    assert "error" in err


def test_grid_file_roundtrip(tmp_path, capsys):
    out = tmp_path / "parts.json"
    code, report, _ = run_cli(
        capsys,
        ["parts", "--primitive", "prodArctan", "--bv", "approxIdentity", "--out", str(out)],
    )
    assert code == 0
    assert out.exists()
    code2, report2, _ = run_cli(capsys, ["norm", "--grid-file", str(out)])
    assert code2 == 0
    assert abs(report2["value"] - report["supNorm"]) < 1e-9


def test_report_is_deterministic(capsys):
    argv = ["integrate", "--primitive", "gauss2", "--interval", "-1", "1", "-1", "1"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    first.pop("wallTime")
    second.pop("wallTime")
    assert first == second


def test_translate_command(capsys):
    code, report, _ = run_cli(
        capsys, ["translate", "--primitive", "prodArctan", "--shift", "1", "1"]
    )
    assert code == 0
    assert abs(report["normTranslated"] - 1.0) < 1e-6
    assert report["normDifference"] > 0


@pytest.mark.parametrize("unconverged", [0, 1], ids=["translated", "difference"])
def test_translate_reports_whether_both_norms_converged(capsys, monkeypatch, unconverged):
    calls = []

    def norm(f, tol):
        calls.append(f)
        return replace(alexiewicz_norm(f, tol=tol), converged=len(calls) - 1 != unconverged)

    monkeypatch.setattr(cli.integral, "alexiewicz_norm", norm)
    code, report, _ = run_cli(capsys, ["translate", "--primitive", "prodArctan", "--shift", "1", "1"])
    assert len(calls) == 2
    assert code == 2 and report["converged"] is False


def test_changevars_command(capsys):
    code, report, _ = run_cli(
        capsys,
        ["changevars", "--primitive", "gauss2", "--interval", "-2", "2", "-2", "2",
         "--map-spec", '{"alpha": -1.0, "beta": 2.0, "gamma1": 0.5}'],
    )
    assert code == 0
    assert report["difference"] < 1e-12


def test_improper_command(capsys):
    code, report, _ = run_cli(capsys, ["improper", "--name", "arctanXY", "--order", "dyFirst"])
    assert code == 0
    assert abs(report["value"] - 3.141592653589793) < 1e-3


@pytest.mark.parametrize("argv", [
    ["integrate", "--primitive", "prodArctan", "--params", "{bad"],
    ["bvnorm", "--bv", "intervalIndicator", "--bv-params", "{bad"],
    ["changevars", "--primitive", "gauss2", "--map-spec", "{bad"],
], ids=["params", "bv-params", "map-spec"])
def test_bad_json_argument_exit_64(capsys, argv):
    code, report, err = run_cli(capsys, argv)
    assert code == 64
    assert report is None
    assert "not valid JSON" in err and "Traceback" not in err


def test_nan_extended_real_exit_64(capsys):
    code, report, err = run_cli(
        capsys, ["integrate", "--primitive", "prodArctan", "--interval", "nan", "1", "0", "1"]
    )
    assert code == 64
    assert report is None
    assert "NaN" in err


@pytest.mark.parametrize("command", ["convolve-l1", "mollify"])
@pytest.mark.parametrize("z", ["-1", "0"])
def test_nonpositive_height_exit_64(capsys, command, z):
    code, report, err = run_cli(capsys, [command, "--primitive", "prodArctan", "--z", z])
    assert code == 64
    assert report is None
    assert "z must be positive" in err


@pytest.mark.parametrize("command", ["convolve-l1", "mollify"])
@pytest.mark.parametrize("z", ["inf", "nan"])
def test_nonfinite_height_exit_64(capsys, command, z):
    code, report, err = run_cli(capsys, [command, "--primitive", "prodArctan", "--z", z])
    assert code == 64
    assert report is None
    assert "z must be positive and finite" in err and "Traceback" not in err


def test_closed_stdout_exits_quietly():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "cpintegral.cli", "catalog"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before the report is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


def test_argparse_usage_error_exit_64(capsys):
    code, report, err = run_cli(capsys, ["integrate", "--primitive", "prodArctan", "--no-such-flag"])
    assert code == 64
    assert report is None
    assert "usage" in err


def test_negative_infinite_endpoints_in_argv_match_job(tmp_path, capsys):
    code, report, _ = run_cli(
        capsys, ["integrate", "--primitive", "expRadial", "--interval", "-inf", "0", "-inf", "0"]
    )
    assert code == 0
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "command": "integrate",
        "primitive": "expRadial",
        "interval": ["-inf", 0, "-inf", 0],
    }))
    code2, report2, _ = run_cli(capsys, ["--job", str(job)])
    assert code2 == 0
    assert report["value"] == report2["value"] == 1.0
    # other negative literals stay values too
    code3, report3, _ = run_cli(
        capsys, ["integrate", "--primitive", "prodArctan", "--interval", "-1e-1", ".5", "-.5", "-INF"]
    )
    assert code3 == 0
    assert report3["spec"]["interval"] == ["-1e-1", ".5", "-.5", "-INF"]


@pytest.mark.parametrize("argv, keys", [
    (["product", "--primitive", "prodArctan", "--primitive2", "gauss2"],
     ("normOfProduct", "totalIntegral", "converged")),
    (["lattice", "--primitive", "prodArctan", "--primitive2", "sinc2d", "--op", "join"],
     ("supNorm", "converged")),
    (["translate", "--primitive", "prodArctan", "--shift", "1", "1"],
     ("normTranslated", "normDifference", "converged")),
])
def test_norm_reports_carry_error_estimate(capsys, argv, keys):
    code, report, _ = run_cli(capsys, argv)
    assert all(key in report for key in keys)
    assert code == (0 if report["converged"] else 2)
    f = distribution("prodArctan")
    if argv[0] == "product":
        expected = alexiewicz_norm(algebra_product(f, distribution("gauss2"))).error_estimate
    elif argv[0] == "lattice":
        join = lattice_join(f.primitive, distribution("sinc2d").primitive)
        expected = alexiewicz_norm(Distribution(join)).error_estimate
    else:
        tau = translate(f, 1.0, 1.0)
        delta = Distribution(ClosedFormPrimitive(
            lambda x, y: np.asarray(f.primitive.eval(x, y)) - np.asarray(tau.eval(x, y)),
            "difference",
        ))
        expected = max(alexiewicz_norm(tau).error_estimate, alexiewicz_norm(delta).error_estimate)
    assert report["errorEstimate"] == expected
