"""Closure relation of the squeezed-vacuum family on the even sector."""

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from parabose import completeness
from parabose.completeness import diagonal_identity_residual, \
    identity_block_residual, weight
from parabose.errors import DomainError, QuadratureError


class TestWeight:
    def test_reference_values(self):
        assert weight(2.0, 0.0) == pytest.approx(0.3183098861837907, rel=1e-13)
        assert weight(3.0, 0.5) == pytest.approx(1.1317684842090335, rel=1e-13)

    def test_positive_on_domain(self):
        r = np.linspace(0.0, 0.999, 500)
        for eps in (1.01, 1.5, 4.0):
            assert np.all(weight(eps, r) > 0.0)

    def test_domain_gates(self):
        with pytest.raises(DomainError):
            weight(1.0, 0.1)
        with pytest.raises(DomainError):
            weight(0.5, 0.1)
        with pytest.raises(DomainError):
            weight(2.0, 1.0)

    @pytest.mark.parametrize("r", [math.nan, [0.1, math.nan], -0.1, 1.0])
    def test_radius_outside_unit_interval_rejected(self, r):
        # (r < 0) | (r >= 1) let NaN through as a NaN weight
        with pytest.raises(DomainError, match="0 <= r < 1"):
            weight(2.0, r)

    def test_mass_diverges_toward_unit_radius(self):
        masses = []
        for r_max in (0.9, 0.99, 0.999):
            r = np.linspace(0.0, r_max, 4001)
            masses.append(float(trapezoid(weight(2.0, r), r)))
        assert masses[0] < masses[1] < masses[2]
        assert masses[2] > 50.0


class TestDiagonalIdentity:
    def test_beta_identity_oracle(self):
        # the Beta identity that makes the exact value 1:
        # Gamma(x) Gamma(y) / Gamma(x + y) = 2 int (1 - t^2)^(y-1) t^(2x-1) dt
        eps, n = 2.5, 3
        lhs = math.exp(math.lgamma(n + 1.0) + math.lgamma(eps - 1.0)
                       - math.lgamma(n + eps))
        t = np.linspace(0.0, 1.0, 400001)[:-1]
        rhs = 2.0 * trapezoid((1 - t**2) ** (eps - 2.0) * t ** (2 * n + 1), t)
        assert lhs == pytest.approx(rhs, rel=1e-4)  # raw rule converges slowly

    @pytest.mark.parametrize("eps", [1 + 1e-9, 1 + 1e-6, 1 + 1e-3, 1.5, 2.5, 5.5])
    def test_residuals_within_tolerance(self, eps):
        for n in range(16):
            assert diagonal_identity_residual(eps, n) <= 1e-8

    def test_near_unit_level_with_weighted_rule(self):
        # the Jacobi rule is built for the endpoint exponent and still nails
        # eps = 1.05 at its NODE_COUNT = 64 nodes
        assert completeness.NODE_COUNT == 64
        assert diagonal_identity_residual(1.05, 0) <= 1e-8

    def test_unconverged_rule_fails_loudly(self, monkeypatch):
        # 8 nodes integrate u^n exactly only to degree 15 and 4 nodes to 7:
        # the full and half rules disagree, which raises
        monkeypatch.setattr(completeness, "NODE_COUNT", 8)
        with pytest.raises(QuadratureError, match="not converged"):
            diagonal_identity_residual(2.5, 12)

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            diagonal_identity_residual(1.0, 0)
        with pytest.raises(DomainError):
            diagonal_identity_residual(2.5, -1)


def test_nan_quadrature_fails_convergence(monkeypatch):
    # |NaN - NaN| > tol is False: a NaN quadrature used to return a NaN
    # residual rather than raise
    monkeypatch.setattr(completeness, "_diagonal_quadrature",
                        lambda epsilon, n, node_count: math.nan)
    with pytest.raises(QuadratureError, match="not converged"):
        diagonal_identity_residual(2.5, 3)


class TestBlockIdentity:
    def test_block_residual(self):
        assert identity_block_residual(2.5, block=8) <= 1e-6

    @pytest.mark.parametrize("eps", [1.5, 3.5])
    def test_other_levels(self, eps):
        assert identity_block_residual(eps, block=6) <= 1e-6

    def test_domain_gates(self):
        # the canonical level admits no completeness relation at all
        with pytest.raises(DomainError):
            identity_block_residual(0.5, block=4)
        with pytest.raises(DomainError):
            identity_block_residual(2.5, block=64)
