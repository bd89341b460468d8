"""The reduction kernels: variation component sweeps and tagged corner sums."""

import numpy as np


def hk_fold(G, prev, colvar, acc):
    """Fold the value rows G[j, i] = g(x_i, y_j) into running variation components.

    prev is the last row folded so far (no rows before the first fold).
    acc = [max |G|, max row variation, Vitali sum] and colvar, the variation
    of each column, cover the rows folded so far and are updated in place.
    Folded over all rows in order, acc and max(colvar) are the grid
    estimates of ||g||_inf, ||V1 g||_inf, V12 g and ||V2 g||_inf.  Columns
    gain their increments one row at a time, in the order of a one-pass sum
    down each column, so v2 does not depend on where the folds split.
    """
    acc[0] = np.maximum(acc[0], np.max(np.abs(G)))
    acc[1] = np.maximum(acc[1], np.max(np.sum(np.abs(np.diff(G, axis=1)), axis=1)))
    G = np.vstack([prev, G])
    for row in np.abs(np.diff(G, axis=0)):
        colvar += row
    acc[2] += np.sum(np.abs(corner_differences(G)))


def corner_differences(G):
    """G[j, i] + G[j+1, i+1] - G[j, i+1] - G[j+1, i], the corner difference of each cell."""
    return G[:-1, :-1] + G[1:, 1:] - G[:-1, 1:] - G[1:, :-1]


def corner_weighted_sum(T, G):
    """Sum of T[j, i] * (corner difference of G over cell (i, j)).

    T has one fewer row/column than G (tag values per cell).
    """
    T = np.asarray(T, dtype=float)
    G = np.asarray(G, dtype=float)
    return float(np.sum(T * corner_differences(G)))


def line_weighted_sum(t, g):
    """Sum of t[i] * (g[i+1] - g[i]) for a 1-d Stieltjes Riemann sum."""
    t = np.asarray(t, dtype=float)
    g = np.asarray(g, dtype=float)
    return float(np.sum(t * np.diff(g)))
