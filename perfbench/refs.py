"""Independent references: closed forms coded here, and scipy quadrature.

Nothing in this module calls cpintegral.  Every check in the workloads
compares the program's output with one of these computations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

PI = math.pi
INF = math.inf


# ---------------------------------------------------------------------------
# closed-form primitives F with F = 0 on the -inf edges


def arctan_ramp(t):
    """Cauchy CDF 1/2 + arctan(t)/pi; exact 0 and 1 at -inf and inf."""
    return 0.5 + math.atan(t) / PI


def si_full(t):
    """Integral of sin(s)/s from -inf to t: pi/2 + Si(t)."""
    if math.isinf(t):
        return PI if t > 0 else 0.0
    return PI / 2 + float(special.sici(t)[0])


def _clip(t, lo, hi):
    return min(max(t, lo), hi)


def sine_strip(n):
    def F(x, y):
        return (1.0 - math.cos(n * _clip(x, 0.0, 2 * PI))) / n * _clip(y, 0.0, 1.0)

    return F


PRIMITIVES = {
    "prodArctan": lambda x, y: arctan_ramp(x) * arctan_ramp(y),
    "gauss2F": lambda x, y: math.exp(-(x * x) - y * y),
    "gauss2G": lambda x, y: math.exp(-((x - 1.0) ** 2) - (y - 1.0) ** 2),
    "expRadial": lambda x, y: math.exp(-math.hypot(x, y)),
    "sinc2d": lambda x, y: si_full(x) * si_full(y),
    "sineStrip2": sine_strip(2),
}

# exact Alexiewicz norms sup |F|
SUP_NORMS = {
    "prodArctan": 1.0,
    "gauss2F": 1.0,
    "gauss2G": 1.0,
    "expRadial": 1.0,
    "sinc2d": si_full(PI) ** 2,
    "sineStrip2": 1.0,
}

# one-dimensional factor densities a = A' of the separable primitives
DENSITIES = {
    "prodArctan": lambda t: 1.0 / (PI * (1.0 + t * t)),
    "gauss2F": lambda t: -2.0 * t * math.exp(-t * t),
    "gauss2G": lambda t: -2.0 * (t - 1.0) * math.exp(-((t - 1.0) ** 2)),
}


def corner(F, a, b, c, d):
    """Integral over [a, b] x [c, d] from the primitive: the corner formula."""
    return F(a, c) + F(b, d) - F(a, d) - F(b, c)


def nd_ramp_box(lower, upper):
    """n-dimensional corner sum of the product of arctan ramps."""
    out = 1.0
    for lo, hi in zip(lower, upper):
        out *= arctan_ramp(hi) - arctan_ramp(lo)
    return out


IMPROPER = {("arctanXY", "dyFirst"): PI, ("arctanXY", "dxFirst"): 0.0,
            ("xPowY", "dyFirst"): 0.0, ("xPowY", "dxFirst"): 0.0}

# Hardy-Krause norms sup|g| + sup V1 + sup V2 + V12 of the catalog multipliers
HK_QUADRANT = 4.0
HK_HALF_PLANE = 2.0
HK_INTERVAL = 9.0
HK_RAMP_PRODUCT = 4.0  # u(x) u(y) with monotone 0-to-1 ramps
VITALI_INTERVAL = 4.0


# ---------------------------------------------------------------------------
# one-dimensional quadrature references


def _quad(fn, a, b, **kw):
    val, _ = integrate.quad(fn, a, b, epsabs=1e-13, epsrel=1e-12, limit=400, **kw)
    return val


def ramp_pairing(density, lo, hi, rising=True):
    """Integral of density(t) u(t) dt, u a linear ramp between lo and hi.

    rising: u = 0 below lo and 1 above hi; falling: the mirror image.
    """
    w = hi - lo
    if rising:
        return _quad(lambda t: density(t) * (t - lo) / w, lo, hi) + _quad(density, hi, INF)
    return _quad(density, -INF, lo) + _quad(lambda t: density(t) * (hi - t) / w, lo, hi)


def approx_identity_pairing(density, n):
    """Integral of density against u_n: 0 below -n, ramp to 1 at 1 - n."""
    return ramp_pairing(density, -n, 1.0 - n, rising=True)


def reflected_pairing(density, n, x):
    """Integral of density(s) u_n(x - s) ds: u_n reflected about x."""
    return ramp_pairing(density, x + n - 1.0, x + n, rising=False)


# closed forms of the same pairings, used by the self-check against quad


def approx_identity_pairing_closed(name, n):
    lo, hi = -n, 1.0 - n
    if name == "prodArctan":
        ramp = (math.log1p(hi * hi) - math.log1p(lo * lo)) / (2 * PI) + n * (math.atan(hi) - math.atan(lo)) / PI
        return ramp + 1.0 - arctan_ramp(hi)
    if name == "gauss2F":
        # the boundary terms of the parts integration cancel with the tail
        return -math.sqrt(PI) / 2 * (math.erf(hi) - math.erf(lo))
    raise ValueError(name)


def si_quad(t):
    """pi/2 + Si(t) by quadrature of sin(s)/s, the tail by the Fourier rule."""
    head = _quad(lambda s: math.sin(s) / s if s else 1.0, 0.0, min(abs(t), 1.0))
    if abs(t) > 1.0:
        head += _quad(lambda s: math.sin(s) / s, 1.0, abs(t))
    return PI / 2 + math.copysign(head, t)


# ---------------------------------------------------------------------------
# suprema found by search


def sup_search(fn, n=400):
    """max over the extended plane of fn, in chart coordinates u = t/(1+|t|).

    A dense chart grid (with the infinite edges) followed by a Nelder-Mead
    polish of the best point.
    """
    u = np.linspace(-1.0, 1.0, n + 1)
    t = chart_nodes(n)
    best, arg = -np.inf, (0.0, 0.0)
    for j, ty in enumerate(t):
        for i, tx in enumerate(t):
            v = fn(float(tx), float(ty))
            if v > best:
                best, arg = v, (u[i], u[j])

    def neg(p):
        ux, uy = np.clip(p, -1 + 1e-12, 1 - 1e-12)
        return -fn(ux / (1 - abs(ux)), uy / (1 - abs(uy)))

    res = optimize.minimize(neg, np.asarray(arg), method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000})
    return max(best, -float(res.fun))


def product_ramp_gauss_sup():
    """sup of R(x) R(y) exp(-x^2 - y^2) = (max_t R(t) exp(-t^2))^2."""
    res = optimize.minimize_scalar(lambda t: -arctan_ramp(t) * math.exp(-t * t),
                                   bounds=(-3.0, 3.0), method="bounded",
                                   options={"xatol": 1e-12})
    return res.fun ** 2


# ---------------------------------------------------------------------------
# Poisson kernel references


def cauchy_cdf(t, z):
    return 0.5 + math.atan(t / z) / PI


def poisson_cdf(x, y, z):
    """Mass of the Poisson kernel at height z over (-inf, x] x (-inf, y]."""
    if x == -INF or y == -INF:
        return 0.0
    if x == INF:
        return cauchy_cdf(y, z) if y != INF else 1.0
    if y == INF:
        return cauchy_cdf(x, z)
    r = math.sqrt(x * x + y * y + z * z)
    return 0.25 + (math.atan(x / z) + math.atan(y / z) + math.atan(x * y / (z * r))) / (2 * PI)


# vectorized forms of the same primitives, for the polar quadrature
PRIMITIVES_NP = {
    "prodArctan": lambda x, y: (0.5 + np.arctan(x) / PI) * (0.5 + np.arctan(y) / PI),
    "gauss2F": lambda x, y: np.exp(-(x * x) - y * y),
    "expRadial": lambda x, y: np.exp(-np.hypot(x, y)),
    "sinc2d": lambda x, y: (PI / 2 + special.sici(x)[0]) * (PI / 2 + special.sici(y)[0]),
}


def poisson_polar(F, x, y, z, rings=512, angles=2048):
    """Convolution of a vectorized F with the Poisson kernel at (x, y).

    With r = z tan(phi) the radial density becomes sin(phi) dphi on
    [0, pi/2): composite Gauss-Legendre in phi (32 panels), the periodic
    trapezoid rule in the angle.  F is evaluated one panel of rings at a
    time, so the temporaries stay below a megabyte per array and below the
    program's own memory peak in the workload process.
    """
    u, w = np.polynomial.legendre.leggauss(rings // 32)
    edges = np.linspace(0.0, PI / 2, 33)
    theta = np.arange(angles) * (2 * PI / angles)
    cos_t, sin_t = np.cos(theta)[None, :], np.sin(theta)[None, :]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = (hi - lo) / 2
        phi = (lo + hi) / 2 + half * u
        rho = z * np.tan(phi)[:, None]
        vals = F(x - rho * cos_t, y - rho * sin_t)
        total += float(np.sum(half * w * np.sin(phi) * vals.mean(axis=1)))
    return total


def poisson_polar_adaptive(F, x, y, z, eps=1e-10):
    """The same integral by nested adaptive quadrature of a scalar F (slow)."""

    def ring(phi):
        rho = z * math.tan(phi)
        val, _ = integrate.quad(lambda th: F(x - rho * math.cos(th), y - rho * math.sin(th)),
                                0.0, 2 * PI, epsabs=eps, limit=400)
        return math.sin(phi) * val / (2 * PI)

    val, _ = integrate.quad(ring, 0.0, PI / 2, epsabs=eps, limit=400)
    return val


def chart_nodes(resolution):
    """resolution+1 chart-uniform nodes on [-inf, inf], endpoints exact."""
    u = np.linspace(-1.0, 1.0, resolution + 1)
    inner = u[1:-1]
    return np.concatenate([[-INF], inner / (1.0 - np.abs(inner)), [INF]])


def mollified_step(values, nodes, x, y, z):
    """Exact Poisson mollification of a step function at a finite point.

    values[j, i] sits on the cell (p_i, p_{i+1}] x (q_j, q_{j+1}]; the cell
    contributes its value times the kernel mass over (x, y) minus the cell.
    """
    total = 0.0
    for j in range(len(nodes) - 1):
        for i in range(len(nodes) - 1):
            v = values[j, i]
            if v == 0.0:
                continue
            a, b = x - nodes[i + 1], x - nodes[i]
            c, d = y - nodes[j + 1], y - nodes[j]
            total += v * (poisson_cdf(b, d, z) + poisson_cdf(a, c, z)
                          - poisson_cdf(a, d, z) - poisson_cdf(b, c, z))
    return total
