"""Schedule families, CSV loading, positive-definiteness gate."""

import numpy as np
import pytest

from parabose.errors import ConfigError, DomainError
from parabose.schedules import CoefficientSchedule, constant_schedule, \
    load_schedule_csv, sinusoidal_schedule, tabulated_schedule


def test_constant_positivity_gate():
    with pytest.raises(DomainError):
        constant_schedule(alpha=1.2, beta=1.0)
    sched = constant_schedule(alpha=0.4 + 0.3j, beta=1.0, delta=-0.2)
    assert sched.coefficients(3.7) == (0.4 + 0.3j, 1.0, -0.2)


def test_sinusoidal_positivity_sampled():
    with pytest.raises(DomainError):
        sinusoidal_schedule(alpha_amp=1.5, beta0=1.0)
    sched = sinusoidal_schedule(alpha_amp=0.3, beta0=1.0, omega=2.0)
    assert sched.coefficients(np.pi / 4)[0] == pytest.approx(0.3)


def test_tabulated_interpolation_and_domain():
    t = np.array([0.0, 1.0, 2.0])
    sched = tabulated_schedule(t, np.array([0.0, 0.2j, 0.0]),
                               np.array([1.0, 1.2, 1.0]),
                               np.array([0.0, 0.0, 0.5]))
    assert sched.coefficients(0.5)[1] == pytest.approx(1.1)
    assert sched.coefficients(1.5)[0] == pytest.approx(0.1j)
    with pytest.raises(DomainError):
        sched.coefficients(3.0)
    assert np.allclose([sched.coefficients(t)[1] for t in (0.5, 1.5)], [1.1, 1.1])
    with pytest.raises(DomainError, match="t=2.5 "):
        sched.coefficients(2.5)
    with pytest.raises(ConfigError):
        tabulated_schedule(t[::-1], np.zeros(3), np.ones(3), np.zeros(3))


def test_tabulated_coefficients_exact_linear_and_bounded():
    t = np.array([0.0, 0.3, 1.1])
    alpha = np.array([0.1 + 0.2j, -0.3j, 0.25])
    beta = np.array([1.0, 1.7, 0.9])
    delta = np.array([0.4, -0.1, 0.0])
    sched = tabulated_schedule(t, alpha, beta, delta)
    # exact (bit for bit) at every sample
    for k in range(3):
        assert sched.coefficients(float(t[k])) == (alpha[k], beta[k], delta[k])
    # linear mid-segment
    mid = sched.coefficients(0.7)
    assert mid[0] == pytest.approx(0.5 * (alpha[1] + alpha[2]), abs=1e-15)
    assert mid[1] == pytest.approx(0.5 * (beta[1] + beta[2]), abs=1e-15)
    assert mid[2] == pytest.approx(0.5 * (delta[1] + delta[2]), abs=1e-15)
    assert isinstance(mid[0], complex) and isinstance(mid[1], float)
    # the end values hold within the 1e-12 slack, and not beyond it
    assert sched.coefficients(-5e-13) == (alpha[0], beta[0], delta[0])
    assert sched.coefficients(1.1 + 5e-13) == (alpha[2], beta[2], delta[2])
    for stray in (-1e-9, 1.1 + 1e-9):
        with pytest.raises(DomainError, match=f"t={stray} outside"):
            sched.coefficients(stray)


def test_tabulated_bad_sample_rejected_at_construction():
    t = np.linspace(0.0, 2.0, 5)
    beta = np.ones(5)
    beta[3] = 0.2   # below |alpha| = 0.3 at t = 1.5 only
    with pytest.raises(DomainError, match="at t=1.5:"):
        tabulated_schedule(t, np.full(5, 0.3j), beta, np.zeros(5))


def _csv_with_nan_delta(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("t,alpha_re,alpha_im,beta,delta\n0,0,0,1,0\n1,0,0,1,nan\n")
    return load_schedule_csv(path)


@pytest.mark.parametrize("build,message", [
    (lambda tmp: constant_schedule(0.0, 1.0, np.nan), "delta must be finite, got nan"),
    (lambda tmp: sinusoidal_schedule(beta0=1.0, delta0=np.inf),
     "delta0 must be finite, got inf"),
    (lambda tmp: tabulated_schedule(np.arange(3.0), np.zeros(3), np.ones(3),
                                    np.array([0.0, -np.inf, 0.0])),
     "delta must be finite, got -inf at sample 1"),
    (lambda tmp: tabulated_schedule(np.array([0.0, np.inf]), np.zeros(2),
                                    np.ones(2), np.zeros(2)),
     "t must be finite, got inf at sample 1"),
    (_csv_with_nan_delta, "delta must be finite, got nan at sample 1"),
], ids=["constant", "sinusoidal", "tabulated", "tabulated-times", "csv"])
def test_non_finite_coefficient_rejected_at_construction(build, message,
                                                         tmp_path):
    # the beta > |alpha| gate never reads delta; a non-finite delta used to
    # reach the solver, which then failed inside its step control
    with pytest.raises(DomainError, match=message):
        build(tmp_path)


def test_positivity_gate_names_first_bad_time():
    sched = constant_schedule(0.3j, 1.0, 0.2)
    assert all(sched.coefficients(t) == (0.3j, 1.0, 0.2)
               for t in np.linspace(0.0, 2.0, 9).tolist())
    tab = tabulated_schedule(np.array([0.0, 1.0]), np.zeros(2), np.ones(2),
                             np.zeros(2))
    with pytest.raises(DomainError, match="outside"):
        tab.check_positive_definite(1.25)
    # a schedule that loses positivity mid-run is named at its first bad node
    ramp = CoefficientSchedule(lambda t: (complex(0.1 * t), 1.0, 0.0))
    with pytest.raises(DomainError, match="at t=10.0:"):
        for t in np.linspace(0.0, 20.0, 41).tolist():
            ramp.check_positive_definite(t)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "sched.csv"
    path.write_text(
        "t,alpha_re,alpha_im,beta,delta\n"
        "0,0,0,1,0\n"
        "1,0.1,0.05,1.1,0.2\n"
        "2,0,0,1,0\n")
    sched = load_schedule_csv(path)
    assert sched.knots == (0.0, 1.0, 2.0)
    assert sched.coefficients(1.0)[0] == pytest.approx(0.1 + 0.05j)
    assert sched.coefficients(0.5)[2] == pytest.approx(0.1)


def test_csv_header_and_value_errors(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("time,a,b,c,d\n0,0,0,1,0\n1,0,0,1,0\n")
    with pytest.raises(ConfigError):
        load_schedule_csv(bad_header)
    bad_value = tmp_path / "bad2.csv"
    bad_value.write_text("t,alpha_re,alpha_im,beta,delta\n0,0,0,1,0\n1,x,0,1,0\n")
    with pytest.raises(ConfigError, match="bad2.csv:3"):
        load_schedule_csv(bad_value)
