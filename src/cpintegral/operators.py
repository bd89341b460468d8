"""Translation, affine changes of variables, lattice structure, the
pointwise-primitive product, and the bounded-variation convergence theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .extplane import Interval2, axis_nodes, ext, make_interval
from .integral import _primitive_of, corner_integral
from .primitive import BVFunction, ClosedFormPrimitive, CorrectedPrimitive, Primitive, SeparablePrimitive


def translate(f, s, t) -> Primitive:
    """Translation by a finite shift: the primitive becomes F(x - s, y - t).

    A separable F = a(x) b(y) stays separable, with factors a(x - s) and
    b(y - t).
    """
    s, t = float(s), float(t)
    if not (math.isfinite(s) and math.isfinite(t)):
        raise ValueError("translation shifts must be finite")
    F = _primitive_of(f)
    label = f"translate({F.label},{s},{t})"
    if isinstance(F, SeparablePrimitive):
        a, b = F.factors
        return SeparablePrimitive(
            (lambda x: a(np.asarray(x, dtype=float) - s), lambda y: b(np.asarray(y, dtype=float) - t)), label)

    def fn(x, y):
        return np.asarray(F.eval(x - s, y - t))

    return ClosedFormPrimitive(fn, label)


@dataclass(frozen=True)
class LinearAxisMap:
    """Axis-aligned affine map x = alpha u + gamma1, y = beta v + gamma2.

    kind 'straight' keeps the axes paired; 'swapped' feeds the second
    transformed variable into the first argument.  Rotations are not
    expressible by design.
    """

    alpha: float
    beta: float
    gamma1: float = 0.0
    gamma2: float = 0.0
    kind: str = "straight"

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.alpha, self.beta, self.gamma1, self.gamma2)):
            raise ValueError("alpha, beta, gamma1 and gamma2 must be finite")
        if self.alpha == 0.0 or self.beta == 0.0:
            raise ValueError("alpha and beta must be nonzero")
        if self.kind not in ("straight", "swapped"):
            raise ValueError("kind must be 'straight' or 'swapped'")


def _mapped_limit(t, alpha, gamma):
    """(t - gamma) / alpha, with infinite t mapped to sgn(t) sgn(alpha) inf."""
    t = ext(t)
    if math.isinf(t):
        return math.copysign(float("inf"), t * alpha)
    return (t - gamma) / alpha


def transform_distribution(f, m: LinearAxisMap) -> CorrectedPrimitive:
    """The primitive of the distribution with pointwise values alpha beta f(map(u, v)).

    It is the composition of F with the map, shifted to vanish on the -inf
    edges (the shift does not change the mixed derivative).
    """
    F = _primitive_of(f)

    if m.kind == "straight":

        def raw(u, v):
            return np.asarray(F.eval(m.alpha * u + m.gamma1, m.beta * v + m.gamma2))

    else:

        def raw(u, v):
            return np.asarray(F.eval(m.beta * v + m.gamma2, m.alpha * u + m.gamma1))

    return CorrectedPrimitive(raw, f"{F.label} under {m.kind} map")


def map_interval(m: LinearAxisMap, interval: Interval2) -> Interval2:
    """Parameter-space interval whose image under the map is the given one."""
    a, b, c, d = interval.a, interval.b, interval.c, interval.d
    if m.kind == "straight":
        ua = _mapped_limit(a, m.alpha, m.gamma1)
        ub = _mapped_limit(b, m.alpha, m.gamma1)
        vc = _mapped_limit(c, m.beta, m.gamma2)
        vd = _mapped_limit(d, m.beta, m.gamma2)
    else:
        # u carries the y-range through alpha, v carries the x-range through beta
        ua = _mapped_limit(c, m.alpha, m.gamma1)
        ub = _mapped_limit(d, m.alpha, m.gamma1)
        vc = _mapped_limit(a, m.beta, m.gamma2)
        vd = _mapped_limit(b, m.beta, m.gamma2)
    result = make_interval(ua, ub, vc, vd)
    if interval.sign < 0:
        result = replace(result, sign=-result.sign)
    return result


def change_of_variables(f, m: LinearAxisMap, interval: Interval2) -> float:
    """Integral of f over the interval evaluated through the affine map.

    Composes the primitive with the map, applies the corner formula over the
    transformed limits (orientation handled by interval normalization), and
    returns the value, which equals corner_integral(f, interval).
    """
    h = transform_distribution(f, m)
    return corner_integral(h, map_interval(m, interval))


# ---------------------------------------------------------------------------
# lattice structure


def lattice_join(f1, f2) -> ClosedFormPrimitive:
    """Pointwise maximum of two primitives."""
    F1 = _primitive_of(f1)
    F2 = _primitive_of(f2)
    return ClosedFormPrimitive(
        lambda x, y: np.maximum(np.asarray(F1.eval(x, y)), np.asarray(F2.eval(x, y))),
        f"({F1.label})v({F2.label})",
    )


def lattice_meet(f1, f2) -> ClosedFormPrimitive:
    """Pointwise minimum of two primitives."""
    F1 = _primitive_of(f1)
    F2 = _primitive_of(f2)
    return ClosedFormPrimitive(
        lambda x, y: np.minimum(np.asarray(F1.eval(x, y)), np.asarray(F2.eval(x, y))),
        f"({F1.label})^({F2.label})",
    )


def jordan_parts(f) -> tuple[ClosedFormPrimitive, ClosedFormPrimitive, ClosedFormPrimitive]:
    """The primitives max(F, 0), max(-F, 0) and |F| of f_plus, f_minus and f_abs."""
    F = _primitive_of(f)
    plus = ClosedFormPrimitive(lambda x, y: np.maximum(np.asarray(F.eval(x, y)), 0.0), f"({F.label})+")
    minus = ClosedFormPrimitive(lambda x, y: np.maximum(-np.asarray(F.eval(x, y)), 0.0), f"({F.label})-")
    absd = ClosedFormPrimitive(lambda x, y: np.abs(np.asarray(F.eval(x, y))), f"|{F.label}|")
    return plus, minus, absd


_ORDER_SLACK = 1e-12  # absorbs interpolation noise on grid samples in order_leq


def order_leq(f1, f2, resolution=64) -> bool:
    """Partial order via primitives: F1 <= F2 + _ORDER_SLACK at every grid node.

    The slack makes it a numeric proxy for the exact pointwise order.
    """
    F1 = _primitive_of(f1)
    F2 = _primitive_of(f2)
    xs = axis_nodes(resolution)
    return bool(np.all(F1.on_grid(xs, xs) <= F2.on_grid(xs, xs) + _ORDER_SLACK))


def order_compare(f1, f2, resolution=64) -> str:
    le = order_leq(f1, f2, resolution)
    ge = order_leq(f2, f1, resolution)
    if le and ge:
        return "equal"
    if le:
        return "leq"
    if ge:
        return "geq"
    return "incomparable"


def algebra_product(f1, f2) -> Primitive:
    """The primitive F1 F2 of the product distribution, pointwise.

    The product of two separable primitives a1(x) b1(y) and a2(x) b2(y) is
    separable, with factors a1 a2 and b1 b2.
    """
    F1 = _primitive_of(f1)
    F2 = _primitive_of(f2)
    label = f"({F1.label})*({F2.label})"
    if isinstance(F1, SeparablePrimitive) and isinstance(F2, SeparablePrimitive):
        (a1, b1), (a2, b2) = F1.factors, F2.factors
        return SeparablePrimitive(
            (lambda x: np.asarray(a1(x), dtype=float) * np.asarray(a2(x), dtype=float),
             lambda y: np.asarray(b1(y), dtype=float) * np.asarray(b2(y), dtype=float)), label)
    return ClosedFormPrimitive(lambda x, y: np.asarray(F1.eval(x, y)) * np.asarray(F2.eval(x, y)), label)


def convergence_limit(f, g_seq, g_limit: BVFunction, tol=1e-4, bound=None):
    """Convergence of integrals of f g_n to the integral of f g_limit.

    Requires a uniform bound on the variation norms of the g_n (estimated
    and checked) and pointwise convergence of the g_n to g_limit, which is
    the caller's hypothesis: nothing here checks it.
    """
    from .stieltjes import integrate_product
    from .variation import hk_norm

    norms = []
    for g in g_seq:
        est = hk_norm(g, tol=1e-6)
        if not est.converged:
            raise ValueError(f"variation of {g.label!r} did not converge")
        norms.append(est.value)
    if bound is not None and max(norms) > bound + 1e-9:
        raise ValueError("variation norms exceed the declared bound")

    limit_val = integrate_product(f, g_limit, tol=tol / 10).value
    rows = []
    threshold = None
    for idx, g in enumerate(g_seq):
        val = integrate_product(f, g, tol=tol / 10).value
        diff = abs(val - limit_val)
        rows.append({"n": idx, "label": g.label, "value": val, "difference": diff})
        if diff <= tol and threshold is None:
            threshold = idx
    ok = threshold is not None and all(r["difference"] <= tol for r in rows[threshold:])
    return {
        "limitValue": limit_val,
        "sequence": rows,
        "normBound": max(norms) if norms else 0.0,
        "threshold": threshold,
        "converged": ok,
    }
