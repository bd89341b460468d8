"""Point values of the step multipliers on and next to their jump lines.

Each multiplier is evaluated on the tensor grid of its breakpoints, both
float neighbours of each, and +-inf.  The digests of those values were
recorded while the catalog's indicators and constant were products of two
one-dimensional step factors, so they pin which side of a jump line, and of
+-inf, owns the line: half-open cells, closed intervals, the quadrant at
x = inf that is 0 on x = inf, and the degenerate interval that is 1 on its
line.  A reflected step function is checked against its reflected cells
instead: on the line x0 - p it takes the value on the line p, and between
two reflected lines the value of the cell between the original ones.
"""

import hashlib
import math

import numpy as np
import pytest

from cpintegral.convolution import StepFunction2, step_approximate
from cpintegral.extplane import NEG_INF, POS_INF
from cpintegral.primitive import catalog_bv, catalog_primitive, translate_reflect_bv

from test_step_exact import SEEDS, seeded_multipliers

inf = math.inf
REFLECTION_POINTS = ((1.0, -2.0), (0.5, 0.3))


def _catalog():
    out = {}
    for seed in SEEDS:
        for kind, params, _, _ in seeded_multipliers(seed):
            out[f"{kind}-{seed}"] = (kind, params)
    out.update({
        "quadrant-inf": ("quadrantIndicator", {"x": inf, "y": 0.5}),
        "quadrant-neg-inf": ("quadrantIndicator", {"x": -inf, "y": inf}),
        "quadrant-signed-zeros": ("quadrantIndicator", {"x": -0.0, "y": 0.0}),
        "interval-infinite-ends": ("intervalIndicator", {"a": -inf, "b": 1.0, "c": -1.0, "d": inf}),
        "interval-signed-zeros": ("intervalIndicator", {"a": -0.0, "b": 1.0, "c": -1.0, "d": -0.0}),
        "interval-degenerate": ("intervalIndicator", {"a": 0, "b": 0, "c": 0, "d": 1}),
    })
    return out


CATALOG = _catalog()


def grid_step():
    return StepFunction2([NEG_INF, -1.0, 0.5, POS_INF], [NEG_INF, 2.0, POS_INF],
                         np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]]))


TABLES = {
    "stepFunction": lambda: step_approximate(catalog_primitive("expRadial"), 8),
    "gridStep": grid_step,
}


def probe_points(jumps):
    """Each jump, its two float neighbours, and +-inf, sorted."""
    j = np.asarray(jumps, dtype=float)
    return np.unique(np.concatenate([[NEG_INF, POS_INF], j, np.nextafter(j, NEG_INF), np.nextafter(j, POS_INF)]))


def digest(g):
    xs, ys = probe_points(g.jump_x), probe_points(g.jump_y)
    values = np.asarray(g.eval(xs[None, :], ys[:, None]), dtype=float)
    return hashlib.sha256(xs.tobytes() + ys.tobytes() + values.tobytes()).hexdigest()


# recorded with the step-factor products and the cell lookup of StepFunction2
DIGESTS = {
    "constant-1": "bee90af84dcb60442b54d017df94b22e0020e713f54ff4ee590e1baa9e2e10fd",
    "constant-1-reflected0": "bee90af84dcb60442b54d017df94b22e0020e713f54ff4ee590e1baa9e2e10fd",
    "constant-1-reflected1": "bee90af84dcb60442b54d017df94b22e0020e713f54ff4ee590e1baa9e2e10fd",
    "constant-2": "91f6082a0db1359670d98ac4cc6327c9da80b53dc1f4da7c46ce972097dd32c7",
    "constant-2-reflected0": "91f6082a0db1359670d98ac4cc6327c9da80b53dc1f4da7c46ce972097dd32c7",
    "constant-2-reflected1": "91f6082a0db1359670d98ac4cc6327c9da80b53dc1f4da7c46ce972097dd32c7",
    "constant-3": "e142505c3b30b0e7b680149c294fa9bd8ce21c5fea59c47b4308151f19701afc",
    "constant-3-reflected0": "e142505c3b30b0e7b680149c294fa9bd8ce21c5fea59c47b4308151f19701afc",
    "constant-3-reflected1": "e142505c3b30b0e7b680149c294fa9bd8ce21c5fea59c47b4308151f19701afc",
    "gridStep": "e4357f2b0e818412a3215b04c31a4550847400d70bdfca15334078198b9c85ee",
    "halfPlaneIndicator-1": "b559d700f01d1a0c9b32e1a83b7901adffc57b616860989da5db1d2a49182839",
    "halfPlaneIndicator-1-reflected0": "da8016c473deaf796b869983a033f7656f19c4a67703129010dfff8bdac02d55",
    "halfPlaneIndicator-1-reflected1": "f593308086cec71701c16e8dfd5926a7e9900c17dfdd910b67d8bad0bf201883",
    "halfPlaneIndicator-2": "b559d700f01d1a0c9b32e1a83b7901adffc57b616860989da5db1d2a49182839",
    "halfPlaneIndicator-2-reflected0": "da8016c473deaf796b869983a033f7656f19c4a67703129010dfff8bdac02d55",
    "halfPlaneIndicator-2-reflected1": "f593308086cec71701c16e8dfd5926a7e9900c17dfdd910b67d8bad0bf201883",
    "halfPlaneIndicator-3": "b559d700f01d1a0c9b32e1a83b7901adffc57b616860989da5db1d2a49182839",
    "halfPlaneIndicator-3-reflected0": "da8016c473deaf796b869983a033f7656f19c4a67703129010dfff8bdac02d55",
    "halfPlaneIndicator-3-reflected1": "f593308086cec71701c16e8dfd5926a7e9900c17dfdd910b67d8bad0bf201883",
    "interval-degenerate": "31a274cae5b15790f1ed8d554ce40011acde5d943c57b56ea762536252a48b5f",
    "interval-degenerate-reflected0": "5921647d0f1738a5065fc3edd546cd0d9d0d8ea6e73a4d7e9b0ff71f7d6e4dca",
    "interval-degenerate-reflected1": "a18019513259f52aa16fddffb9be69af01e13f80004a9d2bd26ea08dd0cf756a",
    "interval-infinite-ends": "da8d848d27bfc360cc165f8e27a16b288d32e3e2a53813105293e9b3ba5bba95",
    "interval-infinite-ends-reflected0": "e7571a602b43188529a2158e8a45b62a17c92d1909dfb5860cae4c6d281b7da3",
    "interval-infinite-ends-reflected1": "4949940607cd77353993972d42111a9b4e8f7e9b30892f92b26b8990aa18eb9c",
    "interval-signed-zeros": "2e64d74d89f982919f8caefcbe43f64bb51627e99095122c1354b09195e0e0af",
    "interval-signed-zeros-reflected0": "ea5b175b5f659a9db20048caf023f771d7fb4244cff742cf8a02fdc4b45bbb40",
    "interval-signed-zeros-reflected1": "8f26bcf005d5276450deaf0399bd5df361dc5f07493e33a57c83730535709f3b",
    "intervalIndicator-1": "d1d607f0fb363c8e0734fb21849f02472998c600adab663b93b898f8691c1de5",
    "intervalIndicator-1-reflected0": "288714f17995e8b22e7b1eb016c5b17774ade051863451e08de6d67efe02b80e",
    "intervalIndicator-1-reflected1": "2e2defbf1d084ff285bba7de2087402b38da0df8b1b1b16fa9233e4f86148fa4",
    "intervalIndicator-2": "c443f37c08ebd11b2d36b37cad2711ae3d13d38f50be29eb2b0a8aa7454e0c1f",
    "intervalIndicator-2-reflected0": "68ee03cbb45c9c26c629be1bb947c5bfce2decfd8d571fa1ffc4aa1cd99a5d19",
    "intervalIndicator-2-reflected1": "bd23f815d90bc6cf1359cecf635417fcabe3fac39cc84b57879187977a839ba4",
    "intervalIndicator-3": "9f786c452a628c15e8d01448bf1117c43f4f225d672084836be8ad6a82c6c0ad",
    "intervalIndicator-3-reflected0": "6a201e402f5331fe8f91eeac2ac38d08596a8966d6bf38c940da3c2ab6fae8c9",
    "intervalIndicator-3-reflected1": "16a2795e7e8b8024188b8d5e787309cb0d100f5987b518227a8d18a401a2c44c",
    "quadrant-inf": "a3062d4ef0878bfa62a978affa72ecf781ab7aa114efcf8fd245f7f504d19784",
    "quadrant-inf-reflected0": "3a0873969e96c17cb40e2fcb92dd6aef253efe2a2170e14bec43fc1529cc6675",
    "quadrant-inf-reflected1": "1f2885b0e6f16043824945edff28e76ecd3076e96be0a1e20efe0d2a9c8ac481",
    "quadrant-neg-inf": "46aeccd809b6cb6a95192345ffced63796540ef5a923b80846f1dd4a018522d3",
    "quadrant-neg-inf-reflected0": "ab652b3549c4fa0c59b27a7b0cc5b4d3e83f09089bdd5b5ae5fb1dc162eac95b",
    "quadrant-neg-inf-reflected1": "ab652b3549c4fa0c59b27a7b0cc5b4d3e83f09089bdd5b5ae5fb1dc162eac95b",
    "quadrant-signed-zeros": "cf919c3d4ca94bf92bbfb136c608c2d61b30108a2c0a9b28ddbfbc6f57aba046",
    "quadrant-signed-zeros-reflected0": "e0ffb3d5679c425a5b452fa5f3b7ed2994fe3f80c5b5bb43ac1b702ce71969c4",
    "quadrant-signed-zeros-reflected1": "fda74807896b14c5c73dc63ccd5430e354da1964f5d193a7f6a55e1363dd8b8e",
    "quadrantIndicator-1": "3ec174ffff35f9d0fddaf0fe4ad4314a96d09d9da189086bbcc9140adb78614a",
    "quadrantIndicator-1-reflected0": "80cb748ea3cae552843fc574d7993610eb6ae241759f37ffe3276d1d6fc683ab",
    "quadrantIndicator-1-reflected1": "ceb78736d0717ae62408096e44c74510ff91c610424844d725245602072189d6",
    "quadrantIndicator-2": "263a43b5813437f9c00af54115800eb4b317983f43fc49ec0445e4131d8c65af",
    "quadrantIndicator-2-reflected0": "bd3f9c03f9cb75c4a15b58cab31c5e09ffa1078c48f7f877d550bd98b81a8b13",
    "quadrantIndicator-2-reflected1": "d0f592642eb776e848ab265b58b4819838cb8700a5a0c6bfbd8e6abf768f3b60",
    "quadrantIndicator-3": "4d4b43230afcdfe98b15117b596940e77608e5464633a020364ce69bb6574f10",
    "quadrantIndicator-3-reflected0": "80e26f08c6d579fb12ba09772eb1f75df1364207a5819ea09e52d09b77e329e3",
    "quadrantIndicator-3-reflected1": "aa4924a116ef86e6b499969d95b926708c7fefdb0a304f5e8fd63605411913cd",
    "stepFunction": "47bb395ed748c0f92e245a508d0f20f8e4ad3f1ae04239c1946c3c9c863d4f97",
}


def _multipliers():
    out = {name: lambda kind=kind, params=params: catalog_bv(kind, **params)
           for name, (kind, params) in CATALOG.items()}
    for name, (kind, params) in CATALOG.items():
        for k, point in enumerate(REFLECTION_POINTS):
            out[f"{name}-reflected{k}"] = (lambda kind=kind, params=params, point=point:
                                           translate_reflect_bv(catalog_bv(kind, **params), *point))
    out.update(TABLES)
    return out


MULTIPLIERS = _multipliers()


@pytest.mark.parametrize("name", sorted(MULTIPLIERS))
def test_point_values_on_and_next_to_the_jump_lines(name):
    assert digest(MULTIPLIERS[name]()) == DIGESTS[name]


def _reflected_reference(g, x0, y0, s, t):
    """g at a point whose reflection (x0 - x, y0 - y) lies in the same piece of g's table as (s, t)."""
    return g(_preimage(g.nodes_x, x0, s), _preimage(g.nodes_y, y0, t))


def _preimage(nodes, t0, s):
    """A point p with s on the reflected line t0 - p, or strictly between the
    reflected lines of p's cell when s is on no reflected line."""
    reflected = t0 - nodes
    on = np.flatnonzero(reflected == s)
    if on.size:
        return float(nodes[on[0]])
    i = int(np.searchsorted(-reflected, -s))  # reflected decreases: s lies between reflected[i - 1] and reflected[i]
    lo, hi = nodes[i - 1], nodes[i]
    if math.isinf(lo):
        return hi - 1.0
    if math.isinf(hi):
        return lo + 1.0
    return (lo + hi) / 2.0


@pytest.mark.parametrize("point", REFLECTION_POINTS)
@pytest.mark.parametrize("name", sorted(TABLES))
def test_a_reflected_step_function_takes_its_reflected_cells(name, point):
    g = TABLES[name]()
    h = translate_reflect_bv(g, *point)
    x0, y0 = point
    xs, ys = probe_points(x0 - g.nodes_x[1:-1]), probe_points(y0 - g.nodes_y[1:-1])
    got = np.asarray(h.eval(xs[None, :], ys[:, None]), dtype=float)
    want = np.array([[_reflected_reference(g, x0, y0, s, t) for s in xs] for t in ys])
    assert got.tobytes() == want.tobytes()
