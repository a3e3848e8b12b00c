"""Figure 5 — group agreement time T vs consecutive coordinator
crashes f.

Paper's claims checked here:

* urcgc's T grows linearly in f with slope ~1 subrun per extra crash
  (analytic bound ``2K + f``); the measured values respect the bound.
* CBCAST's T grows much faster (its flush restarts from scratch under
  each manager crash; analytic ``K(5f+6)``) and dominates urcgc for
  every f >= 1.
* urcgc never blocks the application while agreeing; CBCAST blocks for
  the whole flush (checked via the blocked-rounds counter in the
  CBCAST cluster tests).
"""

import math

import pytest
from conftest import run_once

from repro.harness.experiments import figure5_agreement


@pytest.mark.parametrize("K", [1, 2, 3])
def test_figure5_agreement(benchmark, K):
    result = run_once(
        benchmark,
        lambda: figure5_agreement(n=10, K=K, f_values=(0, 1, 2, 3, 4, 5)),
    )
    print()
    print(result.render())

    rows = result.rows
    assert result.K == K
    for f, urcgc_sim, urcgc_paper, cbcast_sim, cbcast_paper in rows:
        assert not math.isnan(urcgc_sim), f"urcgc never agreed at f={f}"
        assert not math.isnan(cbcast_sim), f"cbcast never agreed at f={f}"
        # Measured urcgc agreement respects the paper's 2K+f bound.
        assert urcgc_sim <= urcgc_paper + 1.0
        assert urcgc_paper == 2 * K + f
        assert cbcast_paper == K * (5 * f + 6)

    # Both points are timed from the first crash, so adding a
    # coordinator crash to the plain member's never speeds agreement up.
    urcgc_vals = [row[1] for row in rows]
    assert urcgc_vals[0] <= urcgc_vals[1], urcgc_vals

    # urcgc slope in f is ~1 rtd per extra coordinator crash.
    deltas = [b - a for a, b in zip(urcgc_vals[1:], urcgc_vals[2:])]
    assert all(0.5 <= d <= 2.0 for d in deltas), deltas

    # CBCAST grows much faster (each manager crash costs ~2K rtd:
    # re-detection + protocol restart) and loses for every f >= 1.
    cbcast_vals = [row[3] for row in rows]
    cbcast_deltas = [b - a for a, b in zip(cbcast_vals[1:], cbcast_vals[2:])]
    assert all(cd >= 2 * K for cd in cbcast_deltas), cbcast_deltas
    for f, urcgc_sim, _, cbcast_sim, _ in rows:
        if f >= 1:
            assert cbcast_sim > urcgc_sim
