"""The separable fast paths agree with the generic evaluation they replace.

Each fast path is compared with the same computation forced through the
generic code: a ClosedFormPrimitive wrapping the primitive's own eval has
the same values but no factors, so integrate_product and convolve_l1 take
their full-grid paths for it.  On the multiplier side a ClosedFormBV
wrapping a ProductBV's eval does the same for integrate_product and the
variation components.  A step multiplier's fast run is one exact level of
resolution 2, where the generic wrapper refines; the two agree in value and
flags.
"""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import cpintegral
from cpintegral.convolution import (
    L1Kernel,
    PoissonKernelL1,
    StepFunction2,
    convolve_bv,
    convolve_l1,
    step_approximate,
)
from cpintegral.extplane import (
    FULL_PLANE,
    NEG_INF,
    POS_INF,
    Grid2,
    axis_nodes,
    cell_tags,
    make_interval,
    segment_nodes,
)
from cpintegral.integral import cumulative
from cpintegral.operators import (
    LinearAxisMap,
    algebra_product,
    jordan_parts,
    lattice_join,
    lattice_meet,
    transform_distribution,
    translate,
)
from cpintegral.primitive import (
    ClosedFormBV,
    ClosedFormPrimitive,
    CorrectedPrimitive,
    Primitive,
    ProductBV,
    SeparablePrimitive,
    approx_identity,
    catalog_bv,
    catalog_primitive,
    distribution,
    sample_primitive,
    translate_reflect_bv,
)
from cpintegral.stieltjes import integrate_product
from cpintegral.variation import grid_components, hk_norm

SEPARABLE = (
    ("prodArctan", {}),
    ("sinc2d", {}),
    ("sincQuadrant", {}),
    ("weier2d", {}),
    ("cantor2d", {}),
    ("oscill", {}),
    ("gauss2", {"which": "F"}),
    ("gauss2", {"which": "G"}),
    ("sineStrip", {"n": 2}),
    ("boundaryBuild", {}),
)
SEPARABLE_IDS = [name + "".join(map(str, params.values())) for name, params in SEPARABLE]
INTERVALS = {
    "full": FULL_PLANE,
    "finite": make_interval(-1.0, 2.0, -0.5, 1.5),
    "reversed": make_interval(2.0, -1.0, -0.5, 1.5),
    "halfInfinite": make_interval(NEG_INF, 0.5, 0.0, POS_INF),
}


REFLECT_POINTS = ((-1.0, 0.3), (0.5, -2.0), (2.5, 1.5))
MULTIPLIERS = {
    "quadrant": lambda: catalog_bv("quadrantIndicator", x=0.4, y=-1.3),
    "interval": lambda: catalog_bv("intervalIndicator", a=-1.5, b=0.25, c=-0.5, d=2.0),
    "halfPlane": lambda: catalog_bv("halfPlaneIndicator"),
    "constant": lambda: catalog_bv("constant", c=-1.75),
}


# their exact norms ||g||_bv: 4 for a quadrant, 9 for an interval, 2 for a half-plane, |c|
HK_EXACT = {"quadrant": 4.0, "interval": 9.0, "halfPlane": 2.0, "constant": 1.75}


def generic(F):
    return ClosedFormPrimitive(F.eval, F.label)


def generic_bv(g):
    return ClosedFormBV(g.eval, g.label, g.jump_x, g.jump_y)


def assert_same_run(fast, slow, exact=False):
    """Equal flags and run shapes, values and errorEstimates within 1e-12;
    with exact, fast is instead the one exact level of a step multiplier."""
    assert fast.converged == slow.converged
    if exact:
        assert (fast.resolution, len(fast.trace), fast.error_estimate) == (2, 1, 0.0)
    else:
        assert fast.resolution == slow.resolution
        assert len(fast.trace) == len(slow.trace)
    assert abs(fast.value - slow.value) <= 1e-12
    assert abs(fast.error_estimate - slow.error_estimate) <= 1e-12


def test_catalog_products_are_separable():
    for name, params in SEPARABLE:
        assert isinstance(catalog_primitive(name, **params), SeparablePrimitive), name
    for name, params in (("expRadial", {}), ("zero", {}), ("boundaryBuild", {"theta2": "hill", "theta3": "hill"})):
        assert not isinstance(catalog_primitive(name, **params), SeparablePrimitive), name
    assert isinstance(catalog_primitive("expRadial"), CorrectedPrimitive)


@pytest.mark.parametrize("name,params", SEPARABLE, ids=SEPARABLE_IDS)
def test_separable_eval_is_product_of_factors(name, params):
    F = catalog_primitive(name, **params)
    xs = np.array([NEG_INF, -2.0, -0.3, 0.0, 0.7, 3.0, POS_INF])
    X, Y = np.meshgrid(xs, xs)
    a, b = F.eval_factors(xs, xs)
    assert np.array_equal(F.eval(X, Y), np.outer(b, a))


def skew_gauss_kernel():
    # an L1 kernel whose x and y quadrature nodes differ
    return L1Kernel(lambda x, y: np.exp(-(x**2) - 2.0 * (y - 0.5) ** 2),
                    make_interval(-4.0, 3.0, -2.0, 3.5), label="skewGauss")


PLANE_FUNCTIONS = {
    **{key: (lambda n=name, p=params: catalog_primitive(n, **p))
       for key, (name, params) in zip(SEPARABLE_IDS, SEPARABLE)},
    "expRadial": lambda: catalog_primitive("expRadial"),
    "gridSample": lambda: sample_primitive(catalog_primitive("expRadial"), 8),
    "latticeJoin": lambda: lattice_join(catalog_primitive("expRadial"), catalog_primitive("gauss2", which="G")),
    "approxIdentity": lambda: approx_identity(3),
    **MULTIPLIERS,
    "reflectedApproxIdentity": lambda: translate_reflect_bv(approx_identity(2), 1.0, -0.5),
    "diagonalIndicator": lambda: catalog_bv("diagonalIndicator"),
    "gridConstant": lambda grid=Grid2(4): StepFunction2(grid.xs, grid.ys,
                                                        np.arange(16.0).reshape(4, 4) - 5.5),
    "closedFormBV": lambda: generic_bv(translate_reflect_bv(approx_identity(2), 1.0, -0.5)),
    "poissonKernel": lambda: PoissonKernelL1(0.5),
    "skewGaussKernel": skew_gauss_kernel,
    "stepFunction": lambda: step_approximate(catalog_primitive("expRadial"), 8),
    "zero": lambda: catalog_primitive("zero"),
    "boundaryBuildHill": lambda: catalog_primitive("boundaryBuild", theta2="hill", theta3="hill"),
    "latticeMeet": lambda: lattice_meet(catalog_primitive("expRadial"), catalog_primitive("prodArctan")),
    "algebraProduct": lambda: algebra_product(distribution("expRadial"), distribution("gauss2", which="G")),
    "separableAlgebraProduct": lambda: algebra_product(distribution("sinc2d"), distribution("boundaryBuild")),
    "translate": lambda: translate(distribution("expRadial"), 0.75, -1.25),
    "separableTranslate": lambda: translate(distribution("prodArctan"), -0.5, 2.0),
    "transformStraight": lambda: transform_distribution(distribution("expRadial"),
                                                        LinearAxisMap(-2.0, 0.5, 0.25, -1.0)),
    "transformSwapped": lambda: transform_distribution(distribution("prodArctan"),
                                                       LinearAxisMap(1.5, -3.0, kind="swapped")),
    "reflectedDiagonal": lambda: translate_reflect_bv(catalog_bv("diagonalIndicator"), 0.5, -1.0),
}


@pytest.mark.parametrize("key", PLANE_FUNCTIONS)
def test_on_grid_is_bit_identical_to_eval(key):
    # on_grid, with its outer-product overrides, against eval on the meshgrid:
    # a square chart grid, node rows of different lengths, the straddled
    # nodes of the jump lines against their cell tags, and +-inf nodes
    f = PLANE_FUNCTIONS[key]()
    xj = segment_nodes(NEG_INF, POS_INF, 32, f.jump_x + (0.25, -1.5))
    yj = segment_nodes(NEG_INF, POS_INF, 24, f.jump_y + (0.5,))
    ends = np.array([NEG_INF, 0.5, POS_INF])
    for xs, ys in ((axis_nodes(256), axis_nodes(256)), (axis_nodes(16), axis_nodes(8)[1:-1]),
                   (xj, cell_tags(yj)), (cell_tags(xj), yj), (ends, xj), (yj, ends)):
        X, Y = np.meshgrid(xs, ys)
        G = f.on_grid(xs, ys)
        assert G.dtype == float and G.shape == (len(ys), len(xs))
        assert G.tobytes() == np.asarray(f.eval(X, Y), dtype=float).tobytes()
        assert G.tobytes() == ClosedFormPrimitive(f.eval).on_grid(xs, ys).tobytes()
    with pytest.raises(ArithmeticError):
        f.on_grid(np.array([0.0, np.nan]), axis_nodes(4))
    with pytest.raises(ArithmeticError):
        f.on_grid(axis_nodes(4), np.array([np.nan]))


@pytest.mark.parametrize("key", PLANE_FUNCTIONS)
def test_every_entry_rejects_a_nan_coordinate(key):
    # NaN is no point of the extended plane, so eval, a call and the factor
    # rows raise at it, scalar or array, in either coordinate; a closed form
    # that maps NaN to a finite value (zero, the clipped factors) included
    f = PLANE_FUNCTIONS[key]()
    entries = [f.eval, f]
    if isinstance(f, (SeparablePrimitive, ProductBV)):
        entries.append(f.eval_factors)
    row = np.array([0.5, np.nan, POS_INF])
    for entry in entries:
        for x, y in ((np.nan, 0.5), (0.5, np.nan), (row, 0.5), (axis_nodes(4), row[:, None])):
            with pytest.raises(ArithmeticError, match="NaN coordinate"):
                entry(x, y)
    if isinstance(f, Primitive):
        with pytest.raises(ArithmeticError, match="NaN coordinate"):
            cumulative(f, np.nan, 1.0)


def _package_lines(pattern):
    """(file name, line number) of each line of the package sources matching pattern."""
    package = Path(cpintegral.__file__).parent
    return [(path.name, k) for path in sorted(package.glob("*.py"))
            for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if re.search(pattern, line)]


def test_no_meshgrid_evaluation_in_the_package():
    # every tensor-grid evaluation goes through PlaneFunction.on_grid
    assert _package_lines(r"np\.meshgrid") == []


def test_one_evaluation_gate_in_the_package():
    # the NaN-coordinate check is written once, in the helper that
    # PlaneFunction.eval and the eval_factors rows share; eval is defined
    # only by the base classes holding the gate, and since it takes scalars
    # no caller builds a coordinate row for it
    assert len(_package_lines(r"evaluated at a NaN coordinate")) == 1
    assert _package_lines(r"\.eval\(.*np\.full") == []
    assert [name for name, _ in _package_lines(r"def eval\(")] == ["primitive.py"] * 2


def test_one_nested_quadrature_in_the_package():
    # scipy's quad is called in integral.py alone: in _nested, which every
    # iterated improper integral goes through, and in the xPowY dyFirst
    # order, whose inner integral does not depend on x and is taken once
    source = Path(cpintegral.integral.__file__).read_text(encoding="utf-8")
    spans = {node.name: (node.lineno, node.end_lineno) for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and node.name in ("_nested", "_xpowy_iterated")}
    calls = _package_lines(r"\bquad\(")
    assert len(calls) == 4
    assert all(name == "integral.py" and any(lo <= k <= hi for lo, hi in spans.values()) for name, k in calls)
    assert [name for name, _ in _package_lines(r"\b_nested\(")] == ["integral.py"] * 4


def test_one_suite_report_no_alias_and_no_sweep_flag():
    # run_suite builds the one suite report, the alias of CorrectedPrimitive
    # is gone, and the pruned interval sweep takes no mode flag: the corners
    # of the best intervals come from _best_intervals
    source = Path(cpintegral.suites.__file__).read_text(encoding="utf-8")
    (run,) = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef) and node.name == "run_suite"]
    ((name, k),) = _package_lines(r'"passed": all\(')
    assert name == "suites.py" and run.lineno <= k <= run.end_lineno
    assert not hasattr(cpintegral, "corrected_primitive")
    assert _package_lines(r"\bcorrected_primitive\b") == []
    sweep = inspect.signature(cpintegral.integral._interval_sweep)
    assert list(sweep.parameters) == ["G"]


def test_no_attribute_probes_or_kind_tags_in_the_package():
    # every PlaneFunction has jump lines (none unless it declares them), and
    # raw callables are wrapped in ClosedFormBV, so nothing probes for them
    assert _package_lines(r'getattr\(.*"jump_') == []
    assert _package_lines(r"\bhasattr\(") == []
    assert _package_lines(r'\bkind = "') == []


def test_one_corner_difference_kernel_and_one_partition_builder():
    # the cell corner differences are taken in _kernels_py alone, and the
    # straddle triples around jump lines are built in extplane.segment_nodes
    # alone, which every module imports from extplane
    corners = _package_lines(r"\[\s*:-1\s*,\s*:-1\s*\]")
    assert corners and {name for name, _ in corners} == {"_kernels_py.py"}
    source = Path(cpintegral.extplane.__file__).read_text(encoding="utf-8")
    builder = next(node for node in ast.parse(source).body
                   if isinstance(node, ast.FunctionDef) and node.name == "segment_nodes")
    straddles = _package_lines(r"np\.nextafter\(")
    assert straddles and all(name == "extplane.py" and builder.lineno <= k <= builder.end_lineno
                             for name, k in straddles)
    builders = {"segment_nodes", "cell_tags"}
    assert [name for name, _ in _package_lines(r"^def (segment_nodes|cell_tags)\(")] == ["extplane.py"] * 2
    sources = [*Path(cpintegral.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    stray = [(path.name, node.lineno) for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("stieltjes")
             and builders & {alias.name for alias in node.names}]
    assert stray == []


def test_every_tagged_partition_comes_from_partition():
    # cell_tags is named in extplane alone and called there by partition
    # alone, so every tagged partition is straddled by segment_nodes
    def names_it(tree):
        return "cell_tags" in {getattr(node, key, None) for node in ast.walk(tree) for key in ("id", "attr", "name")}

    uses = []
    for path in sorted(Path(cpintegral.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "extplane.py" and names_it(tree):
            uses.append((path.name, "<module>"))
        uses += [(path.name, fn.name) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and names_it(fn)]
    assert sorted(uses) == [("extplane.py", "cell_tags"), ("extplane.py", "partition")]


def test_one_node_table_and_one_meaning_of_resolution(monkeypatch):
    # extplane caches the whole-line nodes alone, and the chart has one
    # forward path for scalars and arrays
    tree = ast.parse(Path(cpintegral.extplane.__file__).read_text(encoding="utf-8"))
    cached = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
              and any("cache" in ast.unparse(d) for d in fn.decorator_list)]
    assert cached == ["_line_nodes"]
    chart = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "chart")
    assert "isinstance" not in {node.id for node in ast.walk(chart) if isinstance(node, ast.Name)}
    # convolve_l1's levels are node counts, not indices mapped to them
    assert "bit_length" not in Path(cpintegral.convolution.__file__).read_text(encoding="utf-8")

    # an L1 kernel evaluates nothing until a convolution asks for its nodes
    def evaluated(*args, **kwargs):
        raise AssertionError("the kernel was evaluated")

    for name in ("on_grid", "eval"):
        monkeypatch.setattr(L1Kernel, name, evaluated)
    monkeypatch.setattr(cpintegral.convolution, "poisson_kernel", evaluated)
    for z in (0.0625, 0.5, 3.0):
        PoissonKernelL1(z)


def test_one_distribution_box_and_no_chart_class():
    # a distribution is its primitive: only distribution() and convolve_l1
    # box one, every operator returns the primitive it builds, and the chart
    # is two functions
    boxed = []
    for path in sorted(Path(cpintegral.__file__).parent.glob("*.py")):
        for fn in ast.parse(path.read_text(encoding="utf-8")).body:
            boxed += [(path.name, getattr(fn, "name", None)) for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Distribution"]
    assert sorted(boxed) == [("convolution.py", "convolve_l1"), ("primitive.py", "distribution")]
    for f, g in ((distribution("prodArctan"), distribution("expRadial")),
                 (catalog_primitive("sinc2d"), catalog_primitive("gauss2", which="G"))):
        results = [translate(f, 0.5, -1.0), transform_distribution(f, LinearAxisMap(2.0, -1.0, kind="swapped")),
                   *jordan_parts(f), algebra_product(f, g), lattice_join(f, g), lattice_meet(f, g)]
        assert all(isinstance(h, Primitive) for h in results)
    tree = ast.parse(Path(cpintegral.extplane.__file__).read_text(encoding="utf-8"))
    assert "Chart" not in {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


@pytest.mark.parametrize("interval", list(INTERVALS), ids=list(INTERVALS))
@pytest.mark.parametrize("name,params", SEPARABLE, ids=SEPARABLE_IDS)
def test_integrate_product_fast_path_matches_generic(name, params, interval):
    F = catalog_primitive(name, **params)
    iv = INTERVALS[interval]
    for n in (1, 3):
        g = approx_identity(n)
        fast = integrate_product(F, g, iv, tol=1e-6, max_doublings=3)
        slow = integrate_product(generic(F), g, iv, tol=1e-6, max_doublings=3)
        assert_same_run(fast, slow)


def test_multipliers_are_products():
    for make in MULTIPLIERS.values():
        assert isinstance(make(), ProductBV)
    assert isinstance(translate_reflect_bv(approx_identity(2), 1.0, -0.5), ProductBV)
    assert not isinstance(catalog_bv("diagonalIndicator"), ProductBV)


@pytest.mark.parametrize("name,params", SEPARABLE, ids=SEPARABLE_IDS)
def test_reflected_multiplier_matches_generic(name, params):
    F = catalog_primitive(name, **params)
    for n in (1, 2, 4):
        for point in REFLECT_POINTS:
            h = translate_reflect_bv(approx_identity(n), *point)
            fast = integrate_product(F, h, tol=1e-6, max_doublings=3)
            slow = integrate_product(F, generic_bv(h), tol=1e-6, max_doublings=3)
            assert_same_run(fast, slow)


@pytest.mark.parametrize("kind", list(MULTIPLIERS), ids=list(MULTIPLIERS))
@pytest.mark.parametrize("name,params", SEPARABLE, ids=SEPARABLE_IDS)
def test_indicator_multipliers_match_generic(name, params, kind):
    F = catalog_primitive(name, **params)
    g = MULTIPLIERS[kind]()
    fast = integrate_product(F, g, tol=1e-6, max_doublings=3)
    slow = integrate_product(F, generic_bv(g), tol=1e-6, max_doublings=3)
    assert_same_run(fast, slow, exact=True)


def test_convolve_bv_reflected_product_matches_generic():
    F = catalog_primitive("prodArctan")
    g = approx_identity(2)
    fast = convolve_bv(F, g, (-1.0, 0.3), tol=1e-4)
    slow = integrate_product(F, generic_bv(translate_reflect_bv(g, -1.0, 0.3)), tol=1e-4)
    assert_same_run(fast, slow)


def _close(p, q):
    return abs(p - q) <= 1e-12 * max(1.0, abs(q))


def _full_matrix_components(G):
    """(sup, v1, v2, v12) of a whole value matrix G[j, i] = g(x_i, y_j)."""
    corner = G[:-1, :-1] + G[1:, 1:] - G[:-1, 1:] - G[1:, :-1]
    return (np.max(np.abs(G)), np.max(np.sum(np.abs(np.diff(G, axis=1)), axis=1)),
            np.max(np.sum(np.abs(np.diff(G, axis=0)), axis=0)), np.sum(np.abs(corner)))


@pytest.mark.parametrize("kind", ["approxIdentity", "reflected", *MULTIPLIERS])
def test_factored_hk_norm_matches_meshgrid_components(kind):
    if kind == "approxIdentity":
        g = approx_identity(3)
    elif kind == "reflected":
        g = translate_reflect_bv(approx_identity(2), 0.5, -2.0)
    else:
        g = MULTIPLIERS[kind]()
    fast = hk_norm(g)
    slow = hk_norm(generic_bv(g))
    assert_same_run(fast, slow, exact=kind in MULTIPLIERS)
    if kind in MULTIPLIERS:
        assert fast.value == HK_EXACT[kind]
    for row, slow_row in zip(fast.trace, slow.trace):
        assert _close(row["value"], slow_row["value"])
        xs = segment_nodes(NEG_INF, POS_INF, row["resolution"], g.jump_x)
        ys = segment_nodes(NEG_INF, POS_INF, row["resolution"], g.jump_y)
        X, Y = np.meshgrid(xs, ys)
        reference = _full_matrix_components(np.asarray(g.eval(X, Y), dtype=float))
        for p, q in zip(grid_components(g, row["resolution"]), reference):
            assert _close(p, q)


@pytest.mark.parametrize("name", ["prodArctan", "sinc2d", "expRadial"])
@pytest.mark.parametrize("levels", [0, 1])
def test_convolve_l1_fast_path_matches_generic(name, levels):
    F = catalog_primitive(name)
    kernel = PoissonKernelL1(0.5)
    fast = convolve_l1(F, kernel, resolution=16, tol=0.0, max_levels=levels, normalize=True)
    slow = convolve_l1(generic(F), kernel, resolution=16, tol=0.0, max_levels=levels, normalize=True)
    assert np.max(np.abs(fast.primitive.values - slow.primitive.values)) <= 1e-12


def test_convolve_l1_fast_path_orientation():
    # unequal factors and a kernel whose x and y nodes differ
    F = catalog_primitive("weier2d", depth=6)
    kernel = skew_gauss_kernel()
    fast = convolve_l1(F, kernel, resolution=8, tol=0.0, max_levels=0)
    slow = convolve_l1(generic(F), kernel, resolution=8, tol=0.0, max_levels=0)
    assert np.max(np.abs(fast.primitive.values - slow.primitive.values)) <= 1e-12


def test_corrected_edge_terms_match_generic():
    # nonzero edge terms G(x, -inf) and G(-inf, y), unlike expRadial's
    def G(x, y):
        return np.arctan(x) + np.arctan(2.0 * y) + np.arctan(x) * np.arctan(y) + np.exp(-np.hypot(x, y))

    F = CorrectedPrimitive(G, "edgeTerms")
    kernel = PoissonKernelL1(0.5)
    fast = convolve_l1(F, kernel, resolution=16, tol=0.0, max_levels=0, normalize=True)
    slow = convolve_l1(generic(F), kernel, resolution=16, tol=0.0, max_levels=0, normalize=True)
    assert np.max(np.abs(fast.primitive.values - slow.primitive.values)) <= 1e-12


def _blows_up(t):
    t = np.asarray(t, dtype=float)
    return np.where(t > 1.0, np.inf, np.arctan(t) / np.pi + 0.5)


def test_nonfinite_factor_raises():
    F = SeparablePrimitive((_blows_up, _blows_up), "blowsUp")
    with pytest.raises(ArithmeticError):
        F.eval(2.0, 0.0)
    with pytest.raises(ArithmeticError):
        integrate_product(F, approx_identity(1), tol=1e-6, max_doublings=1)
    with pytest.raises(ArithmeticError):
        convolve_l1(F, PoissonKernelL1(0.5), resolution=8, max_levels=0)


def test_nonfinite_corrected_primitive_raises():
    F = CorrectedPrimitive(lambda x, y: np.where(x > 1.0, np.nan, np.exp(-np.hypot(x, y))), "holes")
    with pytest.raises(ArithmeticError):
        convolve_l1(F, PoissonKernelL1(0.5), resolution=8, max_levels=0)
