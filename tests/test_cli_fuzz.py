"""Random job specs through the CLI: an exit code, never an exception.

Each example writes one job file and runs `cli.main` in-process.  A job
starts valid for a random command; up to eight of its fields are then
left out or replaced by a malformed value (wrong type, NaN, +-inf,
negative, list, object).  Valid resolutions stay at or below 16 and valid
tolerances at or above 1e-3, so each example is cheap.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cpintegral import cli
from cpintegral.primitive import catalog_primitive, export_grid_json, sample_primitive

INF = float("inf")
NAN = float("nan")
BAD = [NAN, INF, -INF, -1, 0, 2.5, "x", "", True, None, [1], {"a": 1}]
DROP = object()  # the field is left out of the job

# field -> valid values; "{grid}" and "{tmp}" name files in the test's directory
VALID = {
    "tol": [1e-3, 1e-2, 0.1, "1e-2"],
    "resolution": [2, 4, 8, 16],
    "seed": [0, 1, 7],
    "kind": ["hk", "vitali", "sectional1", "sectional2", "trace"],
    "doublings": [0, 1, 2],
    "op": ["join", "meet"],
    "name": ["xPowY", "arctanXY"],
    "order": ["dyFirst", "dxFirst"],
    "suite": ["ftc", "fubini", "lattice"],
    "z": [0.3, 1.0, "2"],
    "n": [2, 4, 8],
    "normalize": [True, False],
    "out": [None, "{tmp}/out.json"],
    "interval": [[0, 1, 0, 1], ["-inf", 0, "-inf", 0], [-1, "inf", 2, 3]],
    "point": [[0, 0], [0.5, -0.5], ["inf", "inf"], ["inf", 0]],
    "shift": [[1, 1], [0.5, -2]],
    "lower": [[0, 0], [-1, "-inf"]],
    "upper": [["inf", 1], [2, 3]],
    "map": [{"alpha": -1}, {"alpha": 2, "beta": 0.5, "gamma1": 1, "kind": "swapped"}],
    "primitive": ["prodArctan", "gauss2", {"name": "sineStrip", "params": {"n": 2}},
                  {"file": "{grid}"}],
    "primitive2": ["gauss2", {"name": "prodArctan"}],
    "bv": ["constant", "quadrantIndicator", "approxIdentity",
           {"name": "intervalIndicator", "params": {"a": 0, "b": "inf", "c": -1, "d": 1}}],
    "params": [{}, {"n": 3}],
}
INVALID = {
    "command": ["frobnicate"],
    "out": ["{tmp}/no-such-dir/out.json"],
    "interval": [[1, 2, 3], ["nan", 0, 0, 0], [[1], 2, 3, 4]],
    "point": [[0], [0, "nan"]],
    "shift": [["inf", 0], [1, 2, 3]],
    "lower": [[], [1, 0, 0], ["nan", 0], [5, 5]],
    "map": [[1, 2], {"alpha": 0}, {"kind": "rot"}, {"alpha": "inf"}, {"beta": [1]}],
    "primitive": ["nope", {"file": 5}, {"file": "{tmp}/missing.json"}, {"name": 5}, {},
                  {"name": "sineStrip", "params": {"n": -1}}, {"name": "gauss2", "params": [1]},
                  {"name": "gauss2", "params": {"which": [1]}}, {"name": "sineStrip", "params": {"n": 1.5}},
                  {"name": "weier2d", "params": {"depth": 100000}}, {"name": "cantor2d", "params": {"depth": 1000000}}],
    "bv": ["nope", {"params": {}}, {"name": "constant", "params": {"c": [1]}},
           {"name": "intervalIndicator", "params": {"interval": 5}},
           {"name": "quadrantIndicator", "params": {"x": "nan"}}, {"name": "approxIdentity", "params": {"n": 2.9}}],
    "params": [[1], {"n": NAN}, {"n": [1]}, {"n": 1.5}],
}


@st.composite
def specs(draw):
    """A valid job for a random command with up to eight fields spoiled."""
    spec = {key: draw(st.sampled_from(pool)) for key, pool in VALID.items()}
    spec["command"] = draw(st.sampled_from(list(cli.COMMANDS)))
    for key in draw(st.lists(st.sampled_from(sorted(spec)), max_size=8, unique=True)):
        spec[key] = draw(st.sampled_from(BAD + INVALID.get(key, []) + [DROP]))
    return {key: value for key, value in spec.items() if value is not DROP}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-fuzz")
    export_grid_json(sample_primitive(catalog_primitive("prodArctan"), 8), str(tmp / "grid.json"))
    return str(tmp)


def _placed(value, workdir):
    text = json.dumps(value).replace("{tmp}", workdir).replace("{grid}", f"{workdir}/grid.json")
    return json.loads(text)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs())
def test_random_job_spec_gives_an_exit_code(workdir, spec):
    job = os.path.join(workdir, "job.json")
    with open(job, "w", encoding="utf-8") as fh:
        json.dump(_placed(spec, workdir), fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--job", job])
    assert code in (0, 1, 2, 64, 66), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue())

