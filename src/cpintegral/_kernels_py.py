"""The reduction kernels: variation component sweeps and tagged corner sums."""

import numpy as np


def hk_components(G):
    """Variation components of a value matrix G[j, i] = g(x_i, y_j).

    Returns (sup |G|, max row variation, max column variation, Vitali sum),
    i.e. the grid estimates of ||g||_inf, ||V1 g||_inf, ||V2 g||_inf, V12 g.
    """
    G = np.asarray(G, dtype=float)
    sup = float(np.max(np.abs(G))) if G.size else 0.0
    v1 = float(np.max(np.sum(np.abs(np.diff(G, axis=1)), axis=1))) if G.shape[1] > 1 else 0.0
    v2 = float(np.max(np.sum(np.abs(np.diff(G, axis=0)), axis=0))) if G.shape[0] > 1 else 0.0
    corner = G[:-1, :-1] + G[1:, 1:] - G[:-1, 1:] - G[1:, :-1]
    v12 = float(np.sum(np.abs(corner)))
    return sup, v1, v2, v12


def corner_weighted_sum(T, G):
    """Sum of T[j, i] * (corner difference of G over cell (i, j)).

    T has one fewer row/column than G (tag values per cell).
    """
    T = np.asarray(T, dtype=float)
    G = np.asarray(G, dtype=float)
    corner = G[:-1, :-1] + G[1:, 1:] - G[:-1, 1:] - G[1:, :-1]
    return float(np.sum(T * corner))


def line_weighted_sum(t, g):
    """Sum of t[i] * (g[i+1] - g[i]) for a 1-d Stieltjes Riemann sum."""
    t = np.asarray(t, dtype=float)
    g = np.asarray(g, dtype=float)
    return float(np.sum(t * np.diff(g)))
