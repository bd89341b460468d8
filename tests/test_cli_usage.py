"""Usage errors (exit 64) from malformed flags and job fields, unreadable
grid files (exit 66), and the README's CLI examples against the parser."""

import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from cpintegral import cli
from cpintegral.primitive import CHART_NAME

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
SRC = os.path.join(ROOT, "src")


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["mollify", "--primitive", "prodArctan", "--n", "1"],
    ["changevars", "--primitive", "gauss2", "--map-spec", '{"alpha": 0}'],
    ["changevars", "--primitive", "gauss2", "--map-spec", '{"kind": "rot"}'],
    ["changevars", "--primitive", "gauss2", "--map-spec", "[1, 2]"],
    ["ndcorner", "--lower", "1", "0", "--upper", "0", "1"],
    ["ndcorner", "--lower", "0", "0", "--upper", "1"],
    ["translate", "--primitive", "prodArctan", "--shift", "inf", "0"],
    ["variation", "--bv", "constant", "--kind", "trace", "--doublings", "-1"],
    ["integrate", "--primitive", "prodArctan", "--params", "[1]"],
    ["norm", "--primitive", "prodArctan", "--tol", "nan"],
    ["norm", "--primitive", "prodArctan", "--tol", "inf"],
    ["parts", "--primitive", "prodArctan", "--bv", "constant", "--resolution", "1025"],
    ["variation", "--bv", "diagonalIndicator", "--kind", "trace", "--doublings", "7"],
    # 1024^2 kernel terms at resolution 2, within 2^28, but a step grid above the cap
    ["mollify", "--primitive", "prodArctan", "--n", "1025", "--resolution", "2"],
    # (128 * 129)^2 kernel terms, just above 2^28
    ["mollify", "--primitive", "prodArctan", "--n", "130", "--resolution", "129"],
    ["ndcorner", "--lower"] + ["0"] * 17 + ["--upper"] + ["1"] * 17,
    # positive and finite, but the kernel peak 1 / (2 pi z^2) is inf or 0
    ["convolve-l1", "--primitive", "prodArctan", "--z", "1e-320"],
    ["convolve-l1", "--primitive", "prodArctan", "--z", "1e300"],
    # positive and finite, but z^2 underflows and the mollified node sums turn NaN
    ["mollify", "--primitive", "prodArctan", "--z", "1e-200", "--resolution", "8", "--n", "8"],
    ["mollify", "--primitive", "prodArctan", "--z", "1e-320", "--resolution", "8", "--n", "8"],
    # counts are integers; a depth above 64 overflows (weier2d) or runs for minutes (cantor2d)
    ["norm", "--primitive", "sineStrip", "--params", '{"n": 1.5}'],
    ["bvnorm", "--bv", "approxIdentity", "--bv-params", '{"n": 2.9}'],
    ["integrate", "--primitive", "weier2d", "--params", '{"depth": 100000}'],
    ["norm", "--primitive", "cantor2d", "--params", '{"depth": 1000000}'],
], ids=["mollify-n1", "map-alpha0", "map-kind", "map-list", "nd-lower-above-upper",
        "nd-lengths", "shift-inf", "doublings-negative", "params-list", "tol-nan", "tol-inf",
        "resolution-above-cap", "doublings-above-cap", "n-above-cap", "mollify-terms-above-cap",
        "nd-dims-above-cap", "z-peak-inf", "z-peak-zero", "mollify-z-1e-200",
        "mollify-z-1e-320", "n-fraction", "bv-n-fraction", "weier-depth-above-cap", "cantor-depth-above-cap"])
def test_bad_flag_value_exit_64(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 64
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("spec", [
    [1],
    {"command": "norm", "primitive": 5},
    {"command": "norm", "primitive": {"file": 5}},
    {"command": "integrate", "primitive": "prodArctan", "interval": 5},
    {"command": "verify", "suite": "holder", "seed": "x"},
    {"command": "improper", "name": "bogus"},
    {"command": "improper", "order": "bogus"},
    {"command": "norm", "primitive": "prodArctan", "tol": "abc"},
    {"command": "norm", "primitive": "prodArctan", "resolution": "abc"},
    {"command": "mollify", "primitive": "prodArctan", "n": "abc"},
    {"command": "convolve-l1", "primitive": "prodArctan", "z": "abc"},
    {"command": "bvnorm", "bv": {"name": "intervalIndicator", "params": {"interval": 5}}},
    {"command": "order", "primitive": "prodArctan", "primitive2": "gauss2", "resolution": 4096},
    {"command": "norm", "primitive": {"name": "weier2d", "params": {"depth": 0.5}}},
], ids=["top-level-list", "primitive-number", "file-number", "interval-number", "seed-string",
        "improper-name", "improper-order", "tol-string", "resolution-string", "n-string",
        "z-string", "bv-interval-number", "resolution-above-cap", "depth-fraction"])
def test_bad_job_field_exit_64(tmp_path, capsys, spec):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, ["--job", str(job)])
    assert code == 64
    assert out == ""
    assert err.startswith("error: ")


def test_unwritable_out_exit_1(tmp_path, capsys):
    out_path = str(tmp_path / "no-such-dir" / "parts.json")
    code, out, err = run_cli(capsys, ["parts", "--primitive", "prodArctan", "--bv", "constant",
                                      "--resolution", "8", "--out", out_path])
    assert code == 1
    assert out == ""
    assert "cannot write grid file" in err


def test_size_caps_are_inclusive():
    assert cli._field({"resolution": cli.MAX_RESOLUTION}, "resolution") == 1024
    assert cli._field({"doublings": cli.MAX_DOUBLINGS}, "doublings") == 6
    assert cli._field({"n": cli.MAX_RESOLUTION}, "n") == 1024
    assert len(cli._field({"lower": [0] * cli.MAX_DIMS}, "lower")) == 16


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS as Linux enforces it")
def test_grid_too_large_to_allocate_exit_1():
    # every size is capped, so a grid fails to allocate only on a host short of
    # memory: here a 512 MB address-space limit, under which the largest parts
    # grid (resolution 1024, about 1.25 GB) cannot be allocated
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from cpintegral import cli; sys.exit(cli.main(sys.argv[1:]))",
         "parts", "--primitive", "prodArctan", "--bv", "constant", "--resolution", "1024"],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("content", [
    [1],
    {"label": "g", "resolution": 2, "chart": CHART_NAME,
     "values": [[0, 0, 0], [0, float("nan"), 0], [0, 0, 1]]},
    {"label": "g", "resolution": 2, "chart": CHART_NAME,
     "values": [[0, 0, 0], [0, float("inf"), 0], [0, 0, 1]]},
    {"label": "g", "resolution": None, "chart": CHART_NAME, "values": [[0]]},
    *({"label": "g", "resolution": r, "chart": CHART_NAME, "values": [[0, 0, 0], [0, 0, 0], [0, 0, 1]]}
      for r in (2.5, 2.0, "2", True)),
    {"label": "g", "chart": CHART_NAME, "values": [[0]]},
], ids=["top-level-list", "nan-value", "inf-value", "null-resolution", "fractional-resolution",
        "float-resolution", "string-resolution", "bool-resolution", "missing-resolution"])
def test_bad_grid_file_exit_66(tmp_path, capsys, content):
    path = str(tmp_path / "g.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(content, fh)  # NaN and inf are written as bare tokens, which json.load reads back
    code, out, err = run_cli(capsys, ["norm", "--grid-file", path])
    assert code == 66
    assert out == ""
    assert err.startswith("error: cannot load grid file") and "Traceback" not in err


def test_grid_csv_with_nan_exit_66(tmp_path, capsys):
    path = tmp_path / "g.csv"
    path.write_text(",-1.0,0.0,1.0\n-1.0,0,0,0\n0.0,0,nan,0\n1.0,0,0,1\n")
    code, out, err = run_cli(capsys, ["norm", "--grid-file", str(path)])
    assert code == 66
    assert out == ""
    assert err.startswith("error: cannot load grid file")


_CSV_HEADER = ",-1.0,0.0,1.0\n"
_CSV_BODY = ["-1.0,0,0,0\n", "0.0,0,0.5,0\n", "1.0,0,0,1\n"]


def _json_grid(resolution=2, values=((0, 0, 0), (0, 0.5, 0), (0, 0, 1))):
    return json.dumps({"label": "g", "resolution": resolution, "chart": CHART_NAME, "values": values})


MALFORMED_GRID_FILES = {
    "json-ragged-rows": _json_grid(values=[[0, 0, 0], [0, 0], [0, 0, 1]]),
    "json-too-few-rows": _json_grid(values=[[0, 0, 0], [0, 0, 1]]),
    "json-not-square": _json_grid(values=[[0, 0], [0, 0], [0, 1]]),
    "json-shape-of-another-resolution": _json_grid(resolution=3),
    "json-flat-values": _json_grid(values=[0, 0, 0, 0, 0.5, 0, 0, 0, 1]),
    "json-negative-resolution": _json_grid(resolution=-1, values=[]),
    "json-resolution-1": _json_grid(resolution=1, values=[[0, 0], [0, 1]]),
    "json-string-cell": _json_grid(values=[[0, 0, 0], [0, "abc", 0], [0, 0, 1]]),
    "json-object-cell": _json_grid(values=[[0, 0, 0], [0, {"a": 1}, 0], [0, 0, 1]]),
    "json-null-cell": _json_grid(values=[[0, 0, 0], [0, None, 0], [0, 0, 1]]),
    "json-minus-infinity-cell": _json_grid().replace("0.5", "-Infinity"),
    "json-empty-file": "",
    "json-truncated": _json_grid()[:40],
    "json-deeply-nested": "[" * 100000 + "]" * 100000,
    "json-not-utf8": b"\xff\xfe{\x00".decode("latin-1"),
    "csv-ragged-row": _CSV_HEADER + _CSV_BODY[0] + "0.0,0,0.5\n" + _CSV_BODY[2],
    "csv-long-row": _CSV_HEADER + _CSV_BODY[0] + "0.0,0,0.5,0,0\n" + _CSV_BODY[2],
    "csv-too-few-rows": _CSV_HEADER + _CSV_BODY[0] + _CSV_BODY[2],
    "csv-too-many-rows": _CSV_HEADER + "".join(_CSV_BODY) + _CSV_BODY[2],
    "csv-string-cell": _CSV_HEADER + _CSV_BODY[0] + "0.0,0,abc,0\n" + _CSV_BODY[2],
    "csv-empty-cell": _CSV_HEADER + _CSV_BODY[0] + "0.0,0,,0\n" + _CSV_BODY[2],
    "csv-string-node": _CSV_HEADER + _CSV_BODY[0] + "zero,0,0.5,0\n" + _CSV_BODY[2],
    "csv-inf-cell": _CSV_HEADER + _CSV_BODY[0] + "0.0,0,inf,0\n" + _CSV_BODY[2],
    "csv-inf-node": ",-1.0,inf,1.0\n" + "".join(_CSV_BODY),
    "csv-blank-line-inside": _CSV_HEADER + _CSV_BODY[0] + "\n" + _CSV_BODY[1] + _CSV_BODY[2],
    "csv-blank-line-at-end": _CSV_HEADER + "".join(_CSV_BODY) + "\n",
    "csv-blank-first-line": "\n" + _CSV_HEADER + "".join(_CSV_BODY),
    "csv-empty-file": "",
    "csv-header-only": _CSV_HEADER,
    "csv-one-node": ",0.0\n0.0,1\n",
    "csv-two-nodes": ",-1.0,1.0\n-1.0,0,0\n1.0,0,1\n",
    "csv-nodes-not-uniform": ",-1.0,0.25,1.0\n" + "".join(_CSV_BODY),
    "csv-nul-byte": _CSV_HEADER + _CSV_BODY[0] + "0.0,0,0.5\x00,0\n" + _CSV_BODY[2],
    "csv-oversized-cell": _CSV_HEADER + _CSV_BODY[0] + "0.0,0," + "1" * 200000 + ",0\n" + _CSV_BODY[2],
    "csv-not-utf8": b"\xff\xfe,1\n".decode("latin-1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRID_FILES))
def test_malformed_grid_file_exit_66(tmp_path, capsys, case):
    # latin-1 writes each character as one byte, so the not-utf8 cases stay invalid UTF-8
    path = tmp_path / ("g." + case.split("-")[0])
    path.write_text(MALFORMED_GRID_FILES[case], encoding="latin-1")
    code, out, err = run_cli(capsys, ["norm", "--grid-file", str(path)])
    assert code == 66
    assert out == ""
    assert err.startswith("error: cannot load grid file") and "Traceback" not in err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS as Linux enforces it")
def test_grid_file_with_a_huge_resolution_exit_66(tmp_path):
    # a 3 x 3 file that declares resolution 10^9: its grid nodes alone would take
    # 7.45 GiB, so the shape is checked first; run under a 512 MB address-space limit
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    path = tmp_path / "g.json"
    path.write_text(_json_grid(resolution=10**9))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from cpintegral import cli; sys.exit(cli.main(sys.argv[1:]))",
         "norm", "--grid-file", str(path)],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=120)
    assert proc.returncode == 66
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot load grid file") and "Traceback" not in proc.stderr


def _readme_examples():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return [shlex.split(line)[1:] for line in re.findall(r"^cpintegral .*$", text, re.MULTILINE)]


def test_readme_examples_parse():
    examples = _readme_examples()
    assert len(examples) >= 10
    parser = cli.make_parser()
    for argv in examples:
        args = parser.parse_args(argv)
        assert args.job or args.command in cli.COMMANDS


def test_every_command_has_a_parser():
    parser = cli.make_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    assert list(sub.choices) == list(cli.COMMANDS)
