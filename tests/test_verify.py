"""The invariant-suite runner itself: statuses, exclusion, sabotage."""

import numpy as np

from parabose import verify
from parabose.states import set_sabotage


def test_configured_level_exclusion():
    row = verify.check_configured_level(0.75)
    assert row.name == "completeness.configured_level"
    assert row.status == "excluded" and not row.failed


def test_configured_level_above_one_runs():
    row = verify.check_configured_level(2.5)
    assert row.name == "completeness.configured_level"
    assert row.status == "pass" and row.residual <= 1e-8


def test_sabotage_trips_transition_and_oracle_checks():
    try:
        set_sabotage(True)
        sums = verify.check_transition_sums(np.random.default_rng(0))
        oracle = verify.check_transition_matches_amplitudes(
            np.random.default_rng(0))
    finally:
        set_sabotage(False)
    assert sums.failed and oracle.failed
    # and the hook resets cleanly
    assert not verify.check_transition_sums(np.random.default_rng(0)).failed


def test_results_are_seed_reproducible():
    a = verify.check_mu_conservation(np.random.default_rng(3))
    b = verify.check_mu_conservation(np.random.default_rng(3))
    assert a.residual == b.residual
