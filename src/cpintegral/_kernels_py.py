"""The reduction kernels: variation component sweeps and tagged corner sums."""

import numpy as np


def hk_fold(G, prev, colvar, acc, work):
    """Fold the value rows G[j, i] = g(x_i, y_j) into running variation components.

    prev is the last row folded so far (no rows before the first fold).
    acc = [max |G|, max row variation, Vitali sum] and colvar, the variation
    of each column, cover the rows folded so far and are updated in place.
    Folded over all rows in order, acc and max(colvar) are the grid
    estimates of ||g||_inf, ||V1 g||_inf, V12 g and ||V2 g||_inf.  max |G|
    is max(max G, -min G), and a NaN in G makes it NaN.  Columns gain their
    increments one row at a time: colvar is the first row of a stack under
    the |increment| rows, reduced down the stack in order, as a one-pass sum
    down each column, so v2 does not depend on where the folds split.
    Every temporary of G's size goes into contiguous views of work, a flat
    float buffer of at least (2 k + 1) n values for G of shape (k, n).
    Corner differences are the column differences of the column increments,
    exact for 0/1-valued g.
    """
    k, n = G.shape
    m = len(prev)
    stack = work[: (m + k) * n].reshape(m + k, n)
    cells = work[(k + 1) * n : (2 * k + 1) * n - k].reshape(k, n - 1)
    acc[0] = np.maximum(acc[0], np.maximum(np.max(G), -np.min(G)))
    np.abs(np.subtract(G[:, 1:], G[:, :-1], out=cells), out=cells)
    acc[1] = np.maximum(acc[1], np.max(np.sum(cells, axis=1)))
    d0, corners = stack[1:], cells[: m + k - 1]
    np.subtract(G[:1], prev, out=d0[:m])
    np.subtract(G[1:], G[:-1], out=d0[m:])
    acc[2] += np.sum(np.abs(np.subtract(d0[:, 1:], d0[:, :-1], out=corners), out=corners))
    np.abs(d0, out=d0)
    stack[0] = colvar
    np.add.reduce(stack, axis=0, out=colvar)


def corner_differences(G):
    """G[j, i] + G[j+1, i+1] - G[j, i+1] - G[j+1, i], the corner difference of each cell."""
    return G[:-1, :-1] + G[1:, 1:] - G[:-1, 1:] - G[1:, :-1]


def corner_weighted_sum(T, G):
    """Sum of T[j, i] * (corner difference of G over cell (i, j)).

    T and G are float arrays; T has one fewer row/column than G (tag values per cell).
    """
    return float(np.sum(T * corner_differences(G)))


def line_weighted_sum(t, g):
    """Sum of t[i] * (g[i+1] - g[i]) for a 1-d Stieltjes Riemann sum of float arrays."""
    return float(np.sum(t * np.diff(g)))
