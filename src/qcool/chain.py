"""Repeats of one round as a Markov chain: the vector and the work.

A round that resets qubits first keeps only the marginal m of the k
qubits it does not reset, so one repeat is a linear map m -> m P with
row-stochastic P, and its work is m . g.  This module takes such chains
one per row of a stack, knowing nothing of unitaries or resets.  Every
product is a stacked matmul, one BLAS call per row on that row's own
operands, so each row keeps the bits it has alone, whatever rows share
the stack; a 2-D matrix-vector product would not, since BLAS blocks its
rows.  Vectors are held as (rows, 1, k) and columns as (rows, k, 1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["repeat", "stationary"]

_ULP = float(np.finfo(float).eps)


def repeat(chain: np.ndarray, g: np.ndarray, moved: np.ndarray, m: np.ndarray, r: int):
    """(m P**(r-1), work) of r >= 1 repeats of each row's chain.

    chain is each row's P, (rows, k, k); g, moved and m are (rows, k):
    one repeat's work from each state, the energy it moves (at least
    |g|), and the start marginal.  The work is m . T, T the sum of
    P**j g over j < r: it and m P**(r-1) take a squaring per bit of r.

    P and its powers are nonnegative, so m P**(r-1) subtracts nothing
    and keeps its relative digits, for any P.  Each power's rows are
    rescaled to sum 1, so that rounding does not compound over the
    squarings.  The work cancels, by a few ulps of the energy the
    repeats move.  That energy grows with r; so does the work unless
    the steady work s = pi . g (pi stationary) is 0, as in noiseless
    3-qubit HBAC.  An s within the rounding of its own dot product is
    taken as 0: the work is then (m - pi) . T, and T is kept free of
    the constant part pi . T = r s after each doubling, so no rounding
    is multiplied by r and the error stays bounded as r grows.  A row
    with no such pi runs on m itself, with pi 0, which subtracts
    nothing.
    """
    rows, size = m.shape
    m, g, moved = m.reshape(rows, 1, size), g.reshape(rows, size, 1), moved.reshape(rows, size, 1)
    pi = stationary(chain)[:, None, :]
    # s = pi . g is a dot product of k sums: within 8 k ulps of the
    # energy moved at pi it cannot be told from 0 and is taken as 0.
    # Otherwise, or without a pi, the series runs on m itself, with pi 0.
    taken = np.abs(pi @ g) <= 8 * size * _ULP * (pi @ moved)  # False at NaN
    pi[~taken[:, 0, 0]] = 0.0
    anchored, x = pi.any(), m - pi  # x: the vectors the work series runs on
    summed, work = g, np.zeros((rows, 1, 1))  # summed: T over j < 2**bit
    power = chain  # P**(2**bit)
    terms, left = r, r - 1
    while terms:
        if terms & 1:
            work += x @ summed
            x = x @ power
        if left & 1:
            m = m @ power
        terms >>= 1
        left >>= 1
        if terms:
            summed = summed + power @ summed
            if anchored:
                summed -= pi @ summed
            power = power @ power
            power /= power.sum(axis=2, keepdims=True)
    return m[:, 0], work.ravel()


def stationary(chain: np.ndarray) -> np.ndarray:
    """Stationary row vector of each row-stochastic chain of a stack.

    Grassmann-Taksar-Heyman state reduction (Oper. Res. 33, 1985): each
    state is folded into the ones before it with sums and products of
    nonnegative entries only, so every entry keeps its relative digits.
    A chain in which a state cannot reach the ones before it is
    reducible, and its stationary vector may not be unique: its row is
    NaN.
    """
    a = chain.copy()
    reducible = np.zeros(len(a), dtype=bool)
    for k in range(a.shape[1] - 1, 0, -1):
        out = a[:, k, :k].sum(axis=1)
        if not out.all():
            reducible |= out == 0.0
            if reducible.all():
                return np.full(a.shape[:2], np.nan)
            out[reducible] = 1.0  # any nonzero: those rows are dropped
        a[:, :k, k] /= out[:, None]
        a[:, :k, :k] += a[:, :k, k, None] * a[:, None, k, :k]
    pi = np.ones((len(a), 1, a.shape[1]))
    for k in range(1, a.shape[1]):
        pi[:, :, k : k + 1] = pi[:, :, :k] @ a[:, :k, k : k + 1]
    pi = pi[:, 0] / pi.sum(axis=2)
    pi[reducible] = np.nan
    return pi
