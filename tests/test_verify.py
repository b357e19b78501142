"""The invariant-suite runner itself: statuses, exclusion, planted faults."""

import math

import numpy as np
import pytest

from parabose import states, verify
from parabose.states import set_sabotage

# every registered row in report order with its tolerance; a changed entry
# here is a changed trust statement and should be read as one
ROWS = [
    ("algebra.wha_relations", 1e-12),
    ("algebra.trilinear", 1e-12),
    ("algebra.number_operator", 1e-12),
    ("algebra.hamiltonian_diagonal", 1e-12),
    ("dynamics.mu_conservation", 1e-09),
    ("dynamics.bogoliubov_commutator", 1e-10),
    ("dynamics.zeta_two_route", 1e-08),
    ("dynamics.f_reconstruction", 1e-07),
    ("dynamics.integral_of_motion_constant", 1e-06),
    ("dynamics.integral_of_motion_sinusoidal", 1e-06),
    ("states.svs_normalization", 1e-09),
    ("states.cs_normalization", 1e-09),
    ("states.svs_canonical_reduction", 1e-12),
    ("states.cs_canonical_reduction", 1e-12),
    ("states.transition_sums", 1e-09),
    ("states.transition_matches_amplitudes", 1e-10),
    ("states.odd_gating_and_dispersion", 0.5),
    ("states.svs_annihilation", 1e-08),
    ("states.cs_eigenrelation", 1e-08),
    ("states.svs_overlap_series", 1e-10),
    ("states.cs_overlap_series", 1e-09),
    ("states.mean_reflection_parity_sum", 1e-10),
    ("states.schrodinger_property", 1e-07),
    ("states.zero_squeeze_continuity", 1e-06),
    ("observables.moments_vs_matrix", 1e-08),
    ("observables.sr_saturation", 1e-10),
    ("observables.squeezing_monotonicity", 0.5),
    ("observables.xi_roundtrip", 1e-12),
    ("coordrep.vacuum_normalization", 1e-10),
    ("coordrep.annihilation_stencil", 1e-06),
    ("coordrep.density_two_route", 1e-10),
    ("coordrep.density_normalization", 1e-08),
    ("coordrep.gaussian_reduction_l0", 1e-10),
    ("coordrep.quantization_gate", 0.5),
    ("coordrep.hamiltonian_mapping", 1e-10),
    ("completeness.weight_values", 1e-12),
    ("completeness.diagonal_identity", 1e-08),
    ("completeness.block_identity", 1e-06),
    ("completeness.domain_gate", 0.5),
    ("completeness.weight_divergence", 0.5),
    ("oscillator.oracle_fidelity", 1e-07),
    ("oscillator.closed_form_vs_ode", 1e-09),
    ("oscillator.uncertainty_minima", 0.5),
    ("oscillator.asymptotic_convergence", 0.5),
    ("oscillator.calibrate_roundtrip", 1e-12),
    ("oscillator.stationary_transition", 1e-10),
    ("oscillator.mean_trajectory_energy", 1e-12),
]


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


def test_svs_normalization_row_fails_on_a_planted_norm_error(monkeypatch):
    # a 1e-4 error in the coefficient column puts the norm off by ~2e-4;
    # the constructor warns and no longer renormalizes it away
    column = states._svs_coefficient_column
    monkeypatch.setattr(states, "_svs_coefficient_column",
                        lambda *args: column(*args) * (1.0 + 1e-4))
    with pytest.warns(RuntimeWarning, match="normalization residual"):
        row = verify.check_svs_normalization(np.random.default_rng(0))
    assert row.failed and row.residual > 1e-5


def test_cs_normalization_row_fails_on_a_planted_norm_error(monkeypatch):
    prefactor = states._cs_log_prefactor
    monkeypatch.setattr(states, "_cs_log_prefactor",
                        lambda spec: prefactor(spec) + 1e-4)
    with pytest.warns(RuntimeWarning, match="normalization residual"):
        row = verify.check_cs_normalization(np.random.default_rng(0))
    assert row.failed and row.residual > 1e-5


def test_results_are_seed_reproducible():
    a = verify.check_mu_conservation(np.random.default_rng(3))
    b = verify.check_mu_conservation(np.random.default_rng(3))
    assert a.residual == b.residual


def test_rows_keep_their_order_and_tolerances():
    assert [(c.name, c.tolerance) for c in verify.ALL_CHECKS] == ROWS


def test_report_row_names_are_unique():
    names = [c.name for c in verify.ALL_CHECKS]
    names.append(verify.check_configured_level(0.75).name)
    assert len(names) == 48 and len(set(names)) == 48


def test_nan_residual_fails(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", [])

    @verify.check("probe.nan", 1.0, "static")
    def probe(rng):
        return math.nan

    row = probe(np.random.default_rng(0))
    assert verify.ALL_CHECKS == [probe]
    assert row.status == "fail" and math.isnan(row.residual)
    assert (row.name, row.tolerance, row.note) == ("probe.nan", 1.0, "static")


def test_structure_rows_report_zero_or_one_against_half(monkeypatch):
    row = verify.check_quantization_gate(np.random.default_rng(0))
    assert (row.residual, row.tolerance, row.status) == (0.0, 0.5, "pass")
    monkeypatch.setattr(verify, "ALL_CHECKS", [])

    @verify.check("probe.structure", 0.5)
    def broken(rng):
        ok = False
        return float(not ok), "measured note"

    row = broken(np.random.default_rng(0))
    assert (row.residual, row.status, row.note) == (1.0, "fail", "measured note")
