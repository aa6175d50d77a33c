"""chain.repeat against the same doubling run in 90-digit decimals.

Every chain's rows are integers over 2**B, so each row sums to exactly 1
and the exact powers cannot drift like (1 + d)**r; the decimal doubling
rounds by about 1e-90 a step, which stays below 1e-60 after 64
squarings.  A zero steady work is exactly zero on every closed class:
g = h - P h, computed exactly, so that the exact work m h - m P**r h
stays bounded as r grows.
"""

import ast
import decimal
import functools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qcool import chain

B = 10
ONE = 1 << B
RS = (1, 2, 3, 7, 100, 10**6, 10**15, 10**18, 2**64 - 1)
EPS = 2.0**-52

# Bounds, each at least twice the largest error measured over every
# chain and r below that does not drift.  The vector and a steady work
# round once more for each squaring, so theirs grow with the bits of r,
# never with r; a zero steady work stays bounded.
VECTOR_ULPS_PER_BIT = 5  # each entry of m P**(r-1), in its own ulps (2.5)
ZERO_EPS = 32  # zero steady work, in eps times the most one repeat moves (12.6)
STEADY_EPS_PER_BIT = 1  # other work, in eps times r times that energy (0.46)


def _rows(rng, supports):
    """Integer rows over 2**B, each positive on its support and 0 off it."""
    P = np.zeros((len(supports), len(supports)), dtype=np.int64)
    for i, cols in enumerate(supports):
        share = rng.multinomial(ONE - len(cols), np.full(len(cols), 1 / len(cols)))
        P[i, cols] = 1 + share
    return P


def _shapes(k):
    """(name, each state's support) of the chain shapes on k states."""
    every = list(range(k))
    yield f"irreducible-{k}", [every] * k
    if k >= 2:
        yield f"ring-{k}", [[i, (i + 1) % k] for i in range(k)]
    if k % 2 == 0:  # period 2: the halves alternate
        yield f"period2-{k}", [every[k // 2 :]] * (k // 2) + [every[: k // 2]] * (k // 2)
    if k % 3 == 0:  # period 3: the thirds cycle
        third = k // 3
        yield f"period3-{k}", [every[(i // third + 1) % 3 * third :][:third] for i in range(k)]
    for c in range(1, k):
        # c transient states that leak into one closed class of the
        # other k - c, listed after the class and before it.
        yield f"transient{c}-last-{k}", [every[: k - c]] * (k - c) + [every] * c
        yield f"transient{c}-first-{k}", [every] * c + [every[c:]] * (k - c)
    if k >= 2:
        h = k // 2
        yield f"two-closed-{k}", [every[:h]] * h + [every[h:]] * (k - h)
    if k >= 3:  # state 0 absorbs, states 1..h close, the rest leak
        h = k // 2
        yield f"two-closed-transient-{k}", [[0]] + [every[1 : h + 1]] * h + [every] * (k - h - 1)


def _chains():
    """name -> (P as integers over 2**B, zero-steady g, steady g, start m)
    for k = 1..8 states of every shape.  The zero-steady g is h - P h,
    exact in floats, so pi . g = 0 on every closed class."""
    rng = np.random.default_rng(29)
    out = {}
    for k in range(1, 9):
        for name, supports in _shapes(k):
            P = _rows(rng, supports)
            h = rng.integers(-ONE, ONE + 1, k)
            zero = [Fraction(int(x)) - Fraction(int(row @ h), ONE) for x, row in zip(h, P)]
            assert all(Fraction(float(z)) == z for z in zero)
            m = rng.random(k)
            steady = rng.integers(-64, 65, k) / 16.0
            out[name] = (P, np.array([float(z) for z in zero]), steady, m / m.sum())
    return out


def _exact_repeat(P, gs, m, r, digits=90):
    """(m P**(r-1), each g's work) by chain.repeat's doubling in decimals,
    exact but for 1e-(digits) a step: no anchoring and no rescaling."""
    D, k = decimal.Decimal, len(P)

    def times(vec, power):
        return [sum(vec[i] * power[i][j] for i in range(k)) for j in range(k)]

    with decimal.localcontext() as ctx:
        ctx.prec = digits
        power = [[D(int(c)) / ONE for c in row] for row in P]
        summed = [[D(float(x)) for x in g] for g in gs]
        x = vec = [D(float(y)) for y in m]
        works = [D(0)] * len(gs)
        terms, left = r, r - 1
        while terms:
            if terms & 1:
                works = [w + sum(map(D.__mul__, x, s)) for w, s in zip(works, summed)]
                x = times(x, power)
            if left & 1:
                vec = times(vec, power)
            terms >>= 1
            left >>= 1
            if terms:
                summed = [[a + sum(map(D.__mul__, row, s)) for a, row in zip(s, power)] for s in summed]
                power = [times(row, power) for row in power]
        return vec, works


CHAINS = _chains()


@functools.lru_cache(maxsize=None)
def _errors(name):
    """r -> (vector error in ulps of each entry, zero-steady work error in
    eps times the most energy one repeat moves, steady work error in eps
    times r times that energy)."""
    P, zero, steady, m = CHAINS[name]
    g = np.array([zero, steady])  # one row each, on a stack of two
    out = {}
    for r in RS:
        vec, works = _exact_repeat(P, g, m, r)
        got_vec, got = chain.repeat(np.array([P, P]) / ONE, g, np.abs(g), np.array([m, m]), r)
        errors = [
            abs(Fraction(w) - Fraction(exact)) / (Fraction(scale * energy * EPS) or 1)
            for w, exact, scale, energy in zip(got, works, (1, r), np.abs(g).max(axis=1))
        ]
        ulps = [abs(Fraction(a) - Fraction(b)) / Fraction(math.ulp(float(b))) for a, b in zip(got_vec[0], vec)]
        assert got_vec[1].tobytes() == got_vec[0].tobytes()
        out[r] = (float(max(ulps)), *map(float, errors))
    return out


# Chains whose zero steady work drifts linearly in r, from 337 eps times
# the energy of one repeat or more at r = 10**6 to 6e15 or more at
# 2**64 - 1: 27 of the 41 that GTH finds no pi for in this state order,
# and the period-2 chains past the 2-cycle, whose P**(2**j) keeps a
# second unit eigenvalue that the pi anchor does not remove.
DRIFTS = {
    "period2-4", "period2-6", "period2-8",
    "transient1-first-4", "transient1-first-5", "transient1-first-6", "transient1-first-7",
    "transient1-first-8", "transient2-first-4", "transient2-first-5", "transient2-first-6",
    "transient2-first-7", "transient2-first-8", "transient3-first-5", "transient3-first-6",
    "transient3-first-7", "transient3-first-8", "transient4-first-6", "transient4-first-7",
    "transient4-first-8", "transient5-first-8",
    "two-closed-3", "two-closed-4", "two-closed-5", "two-closed-6", "two-closed-7",
    "two-closed-8", "two-closed-transient-6", "two-closed-transient-7", "two-closed-transient-8",
}
ITEM_17 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 17: zero steady work drifts with r where chain.repeat has no pi "
    "to anchor on, or where P**(2**j) keeps more than one unit eigenvalue",
)


@pytest.mark.parametrize("name", CHAINS)
def test_vector_keeps_relative_digits(name):
    # m P**(r-1) adds and scales nonnegative numbers only.
    for r, (ulps, _, _) in _errors(name).items():
        assert ulps <= VECTOR_ULPS_PER_BIT * r.bit_length(), r


@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=ITEM_17) if n in DRIFTS else n for n in CHAINS]
)
def test_zero_steady_work_stays_bounded(name):
    for r, (_, error, _) in _errors(name).items():
        assert error <= ZERO_EPS, r


@pytest.mark.parametrize("name", CHAINS)
def test_steady_work_is_within_its_rounding(name):
    for r, (_, _, error) in _errors(name).items():
        assert error <= STEADY_EPS_PER_BIT * r.bit_length(), r


def test_every_shape_is_covered():
    names = set(CHAINS)
    for shape in ("irreducible", "ring", "two-closed", "two-closed-transient"):
        assert {f"{shape}-{k}" for k in range(3, 9)} <= names
    assert {"irreducible-1", "ring-2", "period2-2", "period3-3", "period3-6", "period2-8"} <= names
    assert {f"transient{c}-{at}-8" for c in range(1, 8) for at in ("first", "last")} <= names
    # Every chain that drifts has no GTH pi, or has period 2.
    no_pi = {n for n, (P, *_) in CHAINS.items() if np.isnan(chain.stationary(P[None] / ONE)).any()}
    assert DRIFTS - no_pi == {"period2-4", "period2-6", "period2-8"}
    assert len(no_pi) == 41 and len(DRIFTS & no_pi) == 27


def test_chain_imports_numpy_only():
    tree = ast.parse(Path(chain.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "numpy"}
