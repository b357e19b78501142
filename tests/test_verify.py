"""The invariant-suite runner itself: statuses, exclusion, planted faults."""

import math
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from parabose import cli, states, verify
from parabose.errors import DomainError
from parabose.states import set_sabotage

SRC = str(pathlib.Path(verify.__file__).resolve().parents[1])

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


# -- the worker pool --------------------------------------------------------

@pytest.fixture
def pool(monkeypatch):
    """run_all on two forked workers, whatever this host's CPU count."""
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    yield
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("seed", [0, 1])
def test_pool_rows_equal_in_process_rows(pool, seed):
    rows = verify.run_all(seed, 2.5)
    alone = [c(np.random.default_rng(seed)) for c in verify.ALL_CHECKS]
    alone.append(verify.check_configured_level(2.5))
    assert [(r.name, r.status, r.note) for r in rows] \
        == [(r.name, r.status, r.note) for r in alone]
    # bit-identical, compared as bytes so that a NaN matches itself
    assert np.array([r.residual for r in rows]).tobytes() \
        == np.array([r.residual for r in alone]).tobytes()


def test_one_worker_maps_in_process(monkeypatch):
    monkeypatch.setattr(verify, "_worker_count", lambda: 1)
    monkeypatch.setattr(verify, "ALL_CHECKS", [])
    pid = os.getpid()

    @verify.check("probe.pid", 0.5)
    def here(rng):
        return float(os.getpid() != pid)

    assert verify.run_all(0, 0.75)[0].status == "pass"
    assert multiprocessing.active_children() == []


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    assert verify._worker_count() == verify.MAX_WORKERS == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert verify._worker_count() == 1
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert verify._worker_count() == 1


def test_failing_row_fails_through_the_pool(pool, monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", [])

    @verify.check("probe.pass", 1.0)
    def fine(rng):
        return 0.5

    @verify.check("probe.fail", 1.0, "static")
    def broken(rng):
        return 2.0

    rows = verify.run_all(0, 0.75)
    assert [(r.name, r.status) for r in rows] == [
        ("probe.pass", "pass"), ("probe.fail", "fail"),
        ("completeness.configured_level", "excluded")]
    assert rows[1].residual == 2.0 and rows[1].note == "static"


def test_row_error_exits_2_through_the_pool(pool, monkeypatch, tmp_path,
                                            capsys):
    monkeypatch.setattr(verify, "ALL_CHECKS", [])

    @verify.check("probe.pass", 1.0)
    def fine(rng):
        return 0.5

    @verify.check("probe.raises", 1.0)
    def raises(rng):
        raise DomainError("planted row error")

    # a raising row once ended the pass with exit 2 and no report; it is
    # now a failed row with the error as its note, and the others still run
    assert cli.main(["verify", "--out", str(tmp_path)]) == 1
    report = (tmp_path / "verify_report.txt").read_text().splitlines()
    assert report[1].startswith("PASS probe.pass ")
    assert report[2].split() == ["FAIL", "probe.raises", "residual", "nan",
                                 "tolerance", "1", "[DomainError:",
                                 "planted", "row", "error]"]
    assert report[-1] == "checks 3 failed 1 excluded 1"


def test_interrupt_cancels_the_pending_rows(pool, monkeypatch, tmp_path):
    monkeypatch.setattr(verify, "ALL_CHECKS", [])

    @verify.check("probe.interrupt", 1.0)
    def interrupt(rng):
        time.sleep(0.1)
        raise KeyboardInterrupt

    for k in range(30):
        @verify.check(f"probe.slow{k}", 1.0)
        def slow(rng, k=k):
            (tmp_path / f"ran{k}").touch()
            time.sleep(0.05)
            return 0.0

    with pytest.raises(KeyboardInterrupt):
        verify.run_all(0, 0.75)
    # the second worker ran a few rows while the first slept; the rest
    # were cancelled
    assert len(list(tmp_path.iterdir())) < 10


def _verify_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def test_cli_forks_while_blas_threads_are_alive(tmp_path):
    # BLAS keeps its own threads when no *_NUM_THREADS caps them, and
    # Python >= 3.12 warns when a multi-threaded process forks
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         "-W", "error::ResourceWarning", "-m", "parabose.cli", "verify",
         "--out", str(out)],
        env=_verify_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert cli.main(["verify", "--out", str(tmp_path / "here")]) == 0
    assert (out / "verify_report.txt").read_bytes() \
        == (tmp_path / "here" / "verify_report.txt").read_bytes()
    assert multiprocessing.active_children() == []


def test_cli_import_leaves_the_pool_unloaded():
    # the figure commands pay for neither the suite nor multiprocessing
    probe = (f"import sys; sys.path.insert(0, {SRC!r}); import parabose.cli; "
             "print(sorted({'parabose.verify', 'multiprocessing', "
             "'concurrent.futures.process'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def _verify_with_workers(tmp_path):
    """A ``parabose verify`` process in its own process group, returned
    once its workers are up, with their pids."""
    if verify._worker_count() < 2:
        pytest.skip("one usable CPU: verify runs its rows in-process")
    proc = subprocess.Popen(
        [sys.executable, "-m", "parabose.cli", "verify", "--out",
         str(tmp_path)],
        env=_verify_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    children = pathlib.Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    if not children.exists():
        _kill_group(proc)
        pytest.skip("the kernel does not list a process's children")
    deadline = time.monotonic() + 60.0
    while len(children.read_text().split()) < verify._worker_count():
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.01)
    return proc, [int(pid) for pid in children.read_text().split()]


def test_ctrl_c_leaves_no_worker_behind(tmp_path):
    proc, _ = _verify_with_workers(tmp_path)
    try:
        # Ctrl-C: SIGINT to the whole process group
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == -signal.SIGINT
        assert err.count("Traceback") == 1  # the parent's, none from a worker
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        _kill_group(proc)


def _running(pid):
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_workers_exit_with_a_killed_parent(tmp_path):
    # SIGTERM to the parent alone ends it without a shutdown of the pool
    proc, workers = _verify_with_workers(tmp_path)
    try:
        proc.terminate()
        proc.wait(timeout=60)
        deadline = time.monotonic() + 10.0
        while any(map(_running, workers)):
            assert time.monotonic() < deadline, "a worker outlived its parent"
            time.sleep(0.05)
    finally:
        _kill_group(proc)
