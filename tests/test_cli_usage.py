"""Usage errors (exit 64) from malformed flags and job fields, and the
README's CLI examples against the parser."""

import json
import os
import re
import shlex

import pytest

from cpintegral import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


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
], ids=["mollify-n1", "map-alpha0", "map-kind", "map-list", "nd-lower-above-upper",
        "nd-lengths", "shift-inf", "doublings-negative", "params-list", "tol-nan", "tol-inf"])
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
], ids=["top-level-list", "primitive-number", "file-number", "interval-number", "seed-string",
        "improper-name", "improper-order", "tol-string", "resolution-string", "n-string",
        "z-string", "bv-interval-number"])
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


def test_grid_too_large_to_allocate_exit_1(capsys):
    # 10^14 float64 values exceed any 64-bit address space, so the allocation fails at once
    code, out, err = run_cli(capsys, ["order", "--primitive", "prodArctan", "--primitive2", "gauss2",
                                      "--resolution", str(10**7)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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
