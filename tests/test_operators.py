import numpy as np
import pytest

from cpintegral.extplane import POS_INF, axis_nodes, make_interval
from cpintegral.integral import alexiewicz_norm, corner_integral, total_integral
from cpintegral.operators import (
    LinearAxisMap,
    algebra_product,
    change_of_variables,
    convergence_limit,
    jordan_parts,
    lattice_join,
    lattice_meet,
    map_interval,
    order_compare,
    order_leq,
    translate,
    transform_distribution,
)
from cpintegral.primitive import ClosedFormPrimitive, SeparablePrimitive, approx_identity, catalog_bv, distribution


def test_translate_shifts_primitive():
    f = distribution("prodArctan")
    tau = translate(f, 2.0, -1.0)
    assert tau.F(3.0, 0.0) == f.F(1.0, 1.0)
    assert tau.F(POS_INF, POS_INF) == f.F(POS_INF, POS_INF)


def test_translate_rejects_infinite_shift():
    with pytest.raises(ValueError):
        translate(distribution("prodArctan"), POS_INF, 0.0)


def test_translate_preserves_norm():
    f = distribution("expRadial")
    n0 = alexiewicz_norm(f).value
    n1 = alexiewicz_norm(translate(f, 1.0, 1.0)).value
    assert abs(n0 - n1) <= 1e-6


def test_linear_axis_map_validation():
    with pytest.raises(ValueError):
        LinearAxisMap(alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        LinearAxisMap(alpha=1.0, beta=1.0, kind="rotate")


def test_map_interval_orientation():
    m = LinearAxisMap(alpha=-1.0, beta=1.0)
    iv = make_interval(0, 1, 0, 1)
    mapped = map_interval(m, iv)
    # x in [0,1] pulls back through x = -u to u in [-1,0]; one axis
    # reflection flips the orientation sign
    assert (mapped.a, mapped.b) == (-1.0, 0.0)
    assert mapped.sign == -iv.sign


def test_map_interval_infinite_limits():
    m = LinearAxisMap(alpha=-2.0, beta=3.0, gamma1=5.0)
    mapped = map_interval(m, make_interval(0, POS_INF, 0, POS_INF))
    assert mapped.a == -np.inf or mapped.b == np.inf


@pytest.mark.parametrize("seed", range(5))
def test_change_of_variables_matches_direct(seed):
    rng = np.random.default_rng(seed)
    f = distribution("gauss2")
    for _ in range(20):
        m = LinearAxisMap(
            alpha=float(rng.choice([-1, 1]) * rng.uniform(0.25, 4.0)),
            beta=float(rng.choice([-1, 1]) * rng.uniform(0.25, 4.0)),
            gamma1=float(rng.uniform(-3, 3)),
            gamma2=float(rng.uniform(-3, 3)),
            kind=str(rng.choice(["straight", "swapped"])),
        )
        ends = rng.uniform(-6, 6, size=4)
        if rng.random() < 0.25:
            ends[0] = -np.inf
        if rng.random() < 0.25:
            ends[3] = np.inf
        iv = make_interval(*ends)
        direct = corner_integral(f, iv)
        mapped = change_of_variables(f, m, iv)
        assert abs(mapped - direct) < 1e-12, (m, iv)


def test_transform_distribution_vanishes_on_edges():
    m = LinearAxisMap(alpha=-1.0, beta=-1.0, kind="swapped")
    h = transform_distribution(distribution("prodArctan"), m)
    xs = axis_nodes(16)
    assert np.max(np.abs(h.primitive.eval(np.full(xs.shape, -np.inf), xs))) <= 1e-12


def test_lattice_join_meet_pointwise():
    F = distribution("gauss2").primitive
    G = distribution("gauss2", which="G").primitive
    join = lattice_join(F, G)
    meet = lattice_meet(F, G)
    xs = axis_nodes(32)
    X, Y = np.meshgrid(xs, xs)
    a, b = np.asarray(F.eval(X, Y)), np.asarray(G.eval(X, Y))
    assert np.array_equal(np.asarray(join.eval(X, Y)), np.maximum(a, b))
    assert np.array_equal(np.asarray(meet.eval(X, Y)), np.minimum(a, b))


def test_lattice_operations_read_distributions():
    f, g = distribution("prodArctan"), distribution("gauss2")
    for op, pick in ((lattice_join, np.maximum), (lattice_meet, np.minimum)):
        h = op(f, g)
        assert h.label == op(f.primitive, g.primitive).label
        assert "?" not in h.label
        xs = axis_nodes(16)
        assert np.array_equal(h.on_grid(xs, xs), pick(f.primitive.on_grid(xs, xs), g.primitive.on_grid(xs, xs)))
        assert alexiewicz_norm(h, tol=1e-6).value > 0.0


@pytest.mark.parametrize("junk", [np.maximum, 3.0, None, lambda x, y: x * y, catalog_bv("constant", c=1.0)])
def test_lattice_operations_reject_junk_at_the_call(junk):
    F = distribution("prodArctan")
    for op in (lattice_join, lattice_meet):
        with pytest.raises(TypeError):
            op(junk, F)
        with pytest.raises(TypeError):
            op(F, junk)


def test_lattice_absorption():
    F = distribution("prodArctan").primitive
    G = distribution("expRadial").primitive
    absorbed = lattice_meet(F, lattice_join(F, G))
    xs = axis_nodes(16)
    X, Y = np.meshgrid(xs, xs)
    assert np.array_equal(np.asarray(absorbed.eval(X, Y)), np.asarray(F.eval(X, Y)))


def test_jordan_parts_decompose():
    f = distribution("sinc2d")
    plus, minus, absd = jordan_parts(f)
    xs = axis_nodes(32)
    X, Y = np.meshgrid(xs, xs)
    Fv = np.asarray(f.primitive.eval(X, Y))
    Pv = np.asarray(plus.primitive.eval(X, Y))
    Mv = np.asarray(minus.primitive.eval(X, Y))
    Av = np.asarray(absd.primitive.eval(X, Y))
    assert np.array_equal(Pv - Mv, Fv)
    assert np.array_equal(Pv + Mv, Av)
    assert np.all(Pv >= 0) and np.all(Mv >= 0)


def test_order_relations():
    f = distribution("prodArctan")
    g = distribution("zero")
    assert order_leq(g, f)
    assert not order_leq(f, g)
    assert order_compare(g, f) == "leq"
    assert order_compare(f, f) == "equal"


def test_gauss2_pair_incomparable():
    assert order_compare(distribution("gauss2"), distribution("gauss2", which="G")) == "incomparable"


def test_algebra_product_primitive_is_pointwise_product():
    f1 = distribution("prodArctan")
    f2 = distribution("expRadial")
    prod = algebra_product(f1, f2)
    for x, y in [(0.0, 0.0), (1.0, -2.0), (POS_INF, POS_INF)]:
        assert prod.F(x, y) == f1.F(x, y) * f2.F(x, y)


@pytest.mark.parametrize("name", ["prodArctan", "sinc2d", "weier2d", "sineStrip"])
def test_translated_separable_is_the_shifted_closed_form_bit_for_bit(name):
    F = distribution(name).primitive
    tau = translate(F, 0.75, -2.5).primitive
    assert isinstance(tau, SeparablePrimitive)
    shifted = ClosedFormPrimitive(lambda x, y: np.asarray(F.eval(x - 0.75, y + 2.5)), tau.label)
    xs = axis_nodes(64)
    X, Y = np.meshgrid(xs, xs)
    assert np.array_equal(tau.eval(X, Y), shifted.eval(X, Y))
    assert np.array_equal(tau.on_grid(xs, xs), shifted.on_grid(xs, xs))


def test_product_of_separables_is_separable_to_rounding():
    F1, F2 = distribution("prodArctan").primitive, distribution("gauss2", which="G").primitive
    prod = algebra_product(F1, F2).primitive
    assert isinstance(prod, SeparablePrimitive)
    xs = axis_nodes(64)
    pointwise = F1.on_grid(xs, xs) * F2.on_grid(xs, xs)
    assert np.allclose(prod.on_grid(xs, xs), pointwise, rtol=4 * np.finfo(float).eps, atol=0.0)
    assert not isinstance(algebra_product(F1, distribution("expRadial")).primitive, SeparablePrimitive)


def test_algebra_zero_divisors():
    f1 = distribution("sineStrip", n=1)
    f2 = translate(distribution("sineStrip", n=1), 10.0, 0.0)
    prod = algebra_product(f1, f2)
    assert total_integral(f1) == 0.0  # but f1 is not the zero distribution
    assert alexiewicz_norm(f1).value > 0
    assert alexiewicz_norm(prod).value == 0.0


def test_convergence_limit_quadrant_sequence():
    f = distribution("prodArctan")
    target = catalog_bv("quadrantIndicator", x=0.5, y=-0.25)
    seq = [catalog_bv("quadrantIndicator", x=0.5 - 2.0 ** (-k), y=-0.25 - 2.0 ** (-k))
           for k in range(1, 13)]
    rep = convergence_limit(f, seq, target, tol=1e-3)
    assert rep["converged"]
    assert rep["threshold"] is not None
    assert rep["normBound"] <= 4.0 + 1e-9


def test_convergence_limit_checks_bound():
    f = distribution("prodArctan")
    seq = [approx_identity(n) for n in (2, 4)]
    with pytest.raises(ValueError):
        convergence_limit(f, seq, catalog_bv("constant", c=1.0), bound=0.5)
