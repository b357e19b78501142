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
    assert sched.alpha(np.pi / 4) == pytest.approx(0.3)


def test_tabulated_interpolation_and_domain():
    t = np.array([0.0, 1.0, 2.0])
    sched = tabulated_schedule(t, np.array([0.0, 0.2j, 0.0]),
                               np.array([1.0, 1.2, 1.0]),
                               np.array([0.0, 0.0, 0.5]))
    assert sched.beta(0.5) == pytest.approx(1.1)
    assert sched.alpha(1.5) == pytest.approx(0.1j)
    with pytest.raises(DomainError):
        sched.beta(3.0)
    # array queries interpolate in one call and name the first stray time
    assert np.allclose(sched.beta(np.array([0.5, 1.5])), [1.1, 1.1])
    with pytest.raises(DomainError, match="t=2.5 "):
        sched.alpha(np.array([1.0, 2.5, 3.0]))
    with pytest.raises(ConfigError):
        tabulated_schedule(t[::-1], np.zeros(3), np.ones(3), np.zeros(3))


def test_sample_broadcasts_and_gates_positivity():
    times = np.linspace(0.0, 2.0, 9)
    alpha, beta, delta = constant_schedule(0.3j, 1.0, 0.2).sample(times)
    assert alpha.shape == beta.shape == delta.shape == times.shape
    assert np.all(alpha == 0.3j) and np.all(delta == 0.2)
    tab = tabulated_schedule(np.array([0.0, 1.0]), np.zeros(2), np.ones(2),
                             np.zeros(2))
    with pytest.raises(DomainError, match="outside"):
        tab.sample(times)
    # a schedule that loses positivity mid-run is named at its first bad node
    ramp = CoefficientSchedule(alpha=lambda t: 0.1 * np.asarray(t),
                               beta=lambda t: 1.0, delta=lambda t: 0.0)
    with pytest.raises(DomainError, match="at t=10.0:"):
        ramp.sample(np.linspace(0.0, 20.0, 41))


def test_csv_round_trip(tmp_path):
    path = tmp_path / "sched.csv"
    path.write_text(
        "t,alpha_re,alpha_im,beta,delta\n"
        "0,0,0,1,0\n"
        "1,0.1,0.05,1.1,0.2\n"
        "2,0,0,1,0\n")
    sched = load_schedule_csv(path)
    assert sched.family == "tabulated"
    assert sched.alpha(1.0) == pytest.approx(0.1 + 0.05j)
    assert sched.delta(0.5) == pytest.approx(0.1)


def test_csv_header_and_value_errors(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("time,a,b,c,d\n0,0,0,1,0\n1,0,0,1,0\n")
    with pytest.raises(ConfigError):
        load_schedule_csv(bad_header)
    bad_value = tmp_path / "bad2.csv"
    bad_value.write_text("t,alpha_re,alpha_im,beta,delta\n0,0,0,1,0\n1,x,0,1,0\n")
    with pytest.raises(ConfigError, match="bad2.csv:3"):
        load_schedule_csv(bad_value)
