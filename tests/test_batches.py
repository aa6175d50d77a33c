"""Rows evaluated together keep the bits each has alone.

Noise levels of one config share a walk, or one run of the live kernel;
points of a sweep share stacked round maps.  Every row here is held,
float.hex for float.hex, to the one-row reference in helpers and to its
own batch of one, whatever else shares its batch.
"""

import gc
import itertools
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import _reference_plan, _reference_walk, reference_noise_rows

from qcool import HBAC, Dynamic, SemiOpen, SubOptimal, build_circuit
from qcool import methods, sim, thermo
from qcool.methods import _points, _reports, _rounds, _walk

LEVELS = (0.0, 1e-12, 1e-4, 1e-2, 0.5, 1.0)
PLACEMENTS = ("per-gate", "per-layer")

# The noise-sweep configs of the benchmark's sweeps workload.
WORKLOAD_CONFIGS = (
    HBAC(3, 200),
    HBAC(5, 50, (2, 3)),
    SemiOpen((5, 5, 5, 5)),
    Dynamic(8),
    SubOptimal(4, 2),
)


def _hbac_subsets():
    # Every non-empty set of reset auxiliaries, at a round count the map
    # runs (50) and one the walk runs (3).
    for n in range(3, 7):
        for k in range(1, n):
            for resets in itertools.combinations(range(2, n + 1), k):
                yield HBAC(n, 50, resets)
    yield from (HBAC(n, 3) for n in range(3, 7))


HBAC_CONFIGS = tuple(_hbac_subsets())


def _hex(values):
    return [float(x).hex() for x in values]


def _batch(config, p, levels, placement):
    """Every level's row through the one batched path, zeros included."""
    noisy = iter(_points(config, [p], [q for q in levels if q], placement)[1][0])
    return [
        methods.final_probability(config, p) if q == 0.0 else next(noisy)
        for q in levels
    ]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize(
    "config", WORKLOAD_CONFIGS + HBAC_CONFIGS, ids=methods.method_label
)
def test_noise_levels_match_the_one_level_reference(config, placement):
    p = 0.07
    want = reference_noise_rows(config, p, LEVELS, placement)
    assert _hex(_batch(config, p, LEVELS, placement)) == _hex(want)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize(
    "config",
    WORKLOAD_CONFIGS + (HBAC(6, 10**6), HBAC(4, 10**6, (4,)), SubOptimal(3, 3)),
    ids=methods.method_label,
)
def test_noise_rows_do_not_depend_on_their_batch(config, placement):
    # Shuffled, duplicated and mixed level lists: each row is its batch
    # of one.
    p, rng = 0.07, random.Random(5)
    nonzero = [q for q in LEVELS if q] + [3e-3, 0.2]
    alone = {q: _points(config, [p], [q], placement)[1][0][0] for q in nonzero}
    for _ in range(4):
        levels = rng.sample(nonzero, len(nonzero)) + rng.choices(nonzero, k=5)
        got = _points(config, [p], levels, placement)[1][0]
        assert _hex(got) == _hex(alone[q] for q in levels)


@pytest.mark.parametrize(
    "config",
    [HBAC(n, r, resets) for n, r, resets in (
        (3, 200, ()), (5, 50, (2, 3)), (6, 10**6, ()), (4, 10**6, (4,)),
        (5, 10**6, (5,)), (6, 50, (4, 5, 6)), (4, 50, (2,)),
    )],
    ids=methods.method_label,
)
def test_stacked_round_maps_keep_each_rows_bits(config):
    # Eight sweep points, stacked in three orders and with repeats, and
    # points stacked with noise levels: each row is the one-row map's.
    rng = np.random.default_rng(11)
    ps = np.round(rng.uniform(0.01, 0.45, 8), 6)
    plan = _rounds(config, None)
    for order in (ps, ps[::-1], np.concatenate([ps[3:], ps[:5]])):
        rows = _reports(config, tuple(order.tolist()))
        for p, rep in zip(order.tolist(), rows):
            t, work = _reference_walk(_reference_plan(config, p), p)
            assert (rep.final_excitation.hex(), rep.work_in_gap_units.hex()) == (
                t.hex(), work.hex()
            ), p
    levels = np.array([0.0, 1e-2, 1e-12, 1.0, 0.5, 1e-4, 0.0, 1e-2])
    t, work = _walk(plan, ps, noise=levels)
    for p, q, got in zip(ps.tolist(), levels.tolist(), zip(t, work)):
        one = _walk(plan, p, noise=q)
        assert _hex(got) == _hex(one) == _hex(_reference_walk(plan, p, q)), (p, q)


@pytest.mark.parametrize(
    "config",
    [SubOptimal(n, r, protocol) for n, r in ((3, 2), (4, 2), (2, 3), (3, 3))
     for protocol in ("minimal-work", "ppa")],
    ids=methods.method_label,
)
def test_live_levels_match_their_one_level_runs(config):
    # One run of the live kernel for every level is each level's own run.
    p = 0.07
    circuit = build_circuit(config, p)
    levels = [1e-12, 1e-4, 1e-2, 0.3, 0.5, 1.0, 1e-2]
    program, _ = sim._live_program(circuit, "per-layer")
    want = [sim._run_live(program, p, np.array([q]))[0] for q in levels]
    assert _hex(sim._run_live(program, p, np.array(levels))) == _hex(want)
    assert _hex(_points(config, [p], levels, "per-layer")[1][0]) == _hex(want)


def test_wide_noise_batches_split_and_stay_bounded(monkeypatch):
    # 512 levels of 2**16-entry rows would be 256 MiB at once; batches of
    # at most _MAX_BATCH entries (16 rows) keep the peak within 48 MiB of
    # a one-level run.  The noiseless row leads the first batch.
    config, p = Dynamic(16), 0.07
    levels = [1e-6 * (i + 1) for i in range(512)]
    _points(config, [p], levels[:1], "per-gate")  # count the gates once
    sizes = []
    real = methods._walk
    monkeypatch.setattr(
        methods, "_walk",
        lambda r, p, noise, label: sizes.append(noise.size) or real(r, p, noise, label),
    )

    def peak(levels):
        gc.collect()
        tracemalloc.start()
        try:
            got = _points(config, [p], levels, "per-gate")[1][0]
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (one,), base = peak(levels[:1])
    got, wide = peak(levels)
    assert sizes == [2] + [16] * 32 + [1]
    assert got[0] == one and len(got) == 512
    assert wide - base <= 48 << 20, (wide - base) / 2**20


def test_noiseless_rows_of_a_stack_are_the_noiseless_walk():
    # A row mixed with weight 0 keeps the noiseless walk's bits.
    for config in WORKLOAD_CONFIGS[:4] + (HBAC(4, 10**6, (4,)),):
        plan = _rounds(config, 0.07)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, work = _walk(plan, np.full(3, 0.07), noise=np.array([0.0, 0.3, 0.0]))
        assert _hex([t[0], work[0]]) == _hex([t[2], work[2]]) == _hex(_walk(plan, 0.07))


@pytest.mark.parametrize("kind", ["random", "thermal"])
def test_targets_are_the_per_row_sums(kind):
    # One reduction over a batch's rows adds each row in the order the
    # row adds alone: for every width up to 20 qubits, and every batch
    # of 1 to 64 rows up to 4 Mi entries (a walk holds at most 1 Mi).
    rng = np.random.default_rng(3)
    for width in range(1, 21):
        most = min(64, max(4, (4 << 20) >> width))
        if kind == "random":
            v = rng.random((most, 1 << width))
        else:
            v = thermo.product_diagonal(list(rng.uniform(0.0, 0.5, (width, most))))
        want = [float(np.add.reduce(row)) for row in v[:, v.shape[1] // 2 :]]
        assert _hex(want) == _hex(sim.marginal(row, 1) for row in v)
        for rows in range(1, most + 1):
            assert _hex(methods._targets(v[:rows])) == _hex(want[:rows]), (width, rows)
