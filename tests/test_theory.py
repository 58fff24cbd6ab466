"""Rate constants, feasibility boundary, theoretical step sizes, envelopes."""

import math

import numpy as np
import pytest

from dcsgd import InfeasibleError, constants, dcd_feasible, gamma_dcd, gamma_ecd, rate_envelope


def constants_reference(rho, mu, alpha, L, gamma):
    """Independent re-implementation with different algebraic grouping.

    The feasibility denominator is evaluated identically (it is the defining
    quantity); every other expression is regrouped.
    """
    budget = (1.0 - rho) ** 2 - 4.0 * mu * mu * alpha * alpha
    a2 = alpha * alpha
    core = 1.0 + (2.0 * mu * mu + 4.0 * mu * mu * a2) / budget
    D2 = 2.0 * (a2 * core)
    D1 = (1.0 / (1.0 - rho)) * (1.0 / (1.0 - rho)) + D2 / ((1.0 + rho) * (1.0 - rho))
    g2 = gamma * gamma
    denom_d = 1.0 - 3.0 * (L * gamma) ** 2 * D1
    D3 = 3.0 * D1 * g2 * (4.0 * L * L + 3.0 * D2 * L * L * L * g2) / denom_d \
        + 3.0 / 2.0 * L * D2 * g2
    D4 = 1.0 - gamma * L
    C1 = (1.0 / (1.0 - rho)) ** 2
    C2 = 1.0 / (1.0 - 6.0 * (L * gamma) ** 2 * C1)
    C3 = 12.0 * (L * gamma) ** 2 * C1 * C2
    C4 = 1.0 - gamma * L
    return D1, D2, D3, D4, C1, C2, C3, C4


def random_feasible_tuples(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        rho = rng.uniform(0.0, 0.97)
        mu = rng.uniform(0.05, 2.0)
        # stay inside the budget with margin so both code paths share
        # conditioning
        alpha = rng.uniform(0.0, 0.95) * (1.0 - rho) / (2.0 * mu)
        L = rng.uniform(0.1, 10.0)
        d1_cap = constants(rho, mu, alpha, L, 0.0).D1
        gamma = rng.uniform(0.0, 0.9) / (math.sqrt(6.0 * d1_cap) * L)
        out.append((rho, mu, alpha, L, gamma))
    return out


class TestFeasibility:
    def test_alpha_zero_always_feasible(self):
        for rho in (0.0, 0.5, 0.99):
            assert dcd_feasible(rho, 1.5, 0.0)

    def test_fully_connected_boundary_half(self):
        # rho = 0, mu = 1: feasible exactly when alpha < 1/2
        assert dcd_feasible(0.0, 1.0, 0.49)
        assert not dcd_feasible(0.0, 1.0, 0.51)
        assert not dcd_feasible(0.0, 1.0, 0.5)

    def test_ring8_boundary_value(self):
        rho, mu = (1 + math.sqrt(2)) / 3, 4.0 / 3.0
        edge = (1.0 - rho) / (2.0 * mu)
        assert edge == pytest.approx(0.0732, abs=2e-4)
        assert dcd_feasible(rho, mu, edge * 0.999)
        assert not dcd_feasible(rho, mu, edge * 1.001)

    def test_boundary_within_1e9(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            rho = rng.uniform(0.0, 0.95)
            mu = rng.uniform(0.1, 2.0)
            edge = (1.0 - rho) / (2.0 * mu)
            assert dcd_feasible(rho, mu, edge * (1.0 - 1e-9))
            assert not dcd_feasible(rho, mu, edge * (1.0 + 1e-9))

    def test_rho_one_rejected(self):
        with pytest.raises(InfeasibleError):
            dcd_feasible(1.0, 1.0, 0.1)

    def test_unbounded_alpha_infeasible(self):
        assert not dcd_feasible(0.5, 1.0, math.inf)


class TestConstants:
    def test_dual_implementation_100_tuples(self):
        for rho, mu, alpha, L, gamma in random_feasible_tuples(100):
            c = constants(rho, mu, alpha, L, gamma)
            ref = constants_reference(rho, mu, alpha, L, gamma)
            for got, want in zip((c.D1, c.D2, c.D3, c.D4, c.C1, c.C2, c.C3, c.C4), ref):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(got), abs(want))

    def test_alpha_zero_collapse(self):
        for rho in (0.0, 0.3, 0.8):
            c = constants(rho, 1.2, 0.0, 2.0, 0.01)
            assert c.D1 == pytest.approx(c.C1, rel=1e-14)
            assert c.D2 == 0.0

    def test_c1_and_tail_constants(self):
        c = constants(0.5, 1.0, 0.1, 2.0, 0.05)
        assert c.C1 == pytest.approx(4.0, rel=1e-14)
        assert c.C4 == pytest.approx(1.0 - 2.0 * 0.05, rel=1e-14)
        assert c.D4 == c.C4

    def test_infeasible_alpha_raises(self):
        with pytest.raises(InfeasibleError):
            constants(0.8, 4.0 / 3.0, 0.5, 2.0, 0.01)


class TestStepSizes:
    def test_gamma_dcd_noiseless_uncompressed(self):
        # sigma = zeta = 0, alpha = 0, rho = 0: gamma = 1/(6 L)
        assert gamma_dcd(2.0, 0.0, 0.0, 8, 1000, D1=1.0, D2=0.0) == pytest.approx(
            1.0 / 12.0, rel=1e-12)

    def test_gamma_ecd_noiseless(self):
        assert gamma_ecd(2.0, 0.0, 0.0, 8, 1000, C1=1.0) == pytest.approx(
            1.0 / 24.0, rel=1e-12)

    def test_sigma_dominated_limit(self):
        L, sigma, n, T = 2.0, 1.0, 16, 1_000_000_000
        expected = math.sqrt(n) / (sigma * math.sqrt(T))
        assert gamma_dcd(L, sigma, 0.0, n, T, D1=1.0, D2=0.0) == pytest.approx(
            expected, rel=0.01)
        assert gamma_ecd(L, sigma, 0.0, n, T, C1=1.0) == pytest.approx(expected, rel=0.01)

    def test_dcd_condition_always_satisfied(self):
        rng = np.random.default_rng(2)
        for rho, mu, alpha, L, _ in random_feasible_tuples(50, seed=3):
            c = constants(rho, mu, alpha, L, 0.0)
            sigma, zeta = rng.uniform(0, 5), rng.uniform(0, 5)
            T = int(rng.integers(1, 100_000))
            n = int(rng.integers(2, 64))
            g = gamma_dcd(L, sigma, zeta, n, T, D1=c.D1, D2=c.D2)
            assert 3.0 * c.D1 * L * L * g * g <= 1.0 / 12.0 + 1e-15

    def test_ecd_conditions_always_satisfied(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rho = rng.uniform(0, 0.97)
            L = rng.uniform(0.1, 10)
            C1 = 1.0 / (1.0 - rho) ** 2
            g = gamma_ecd(L, rng.uniform(0, 5), rng.uniform(0, 5),
                          int(rng.integers(2, 64)), int(rng.integers(1, 100_000)), C1)
            assert 1.0 - 6.0 * C1 * L * L * g * g > 0.0
            assert 1.0 - L * g >= 0.0

    def test_invalid_inputs_raise(self):
        with pytest.raises(InfeasibleError):
            gamma_dcd(0.0, 1.0, 1.0, 8, 100, D1=1.0, D2=0.0)
        with pytest.raises(InfeasibleError):
            gamma_dcd(1.0, 1.0, 1.0, 8, 100, D1=math.inf, D2=0.0)
        with pytest.raises(InfeasibleError):
            gamma_ecd(1.0, 1.0, 1.0, 8, 0, C1=1.0)


class TestEnvelope:
    def test_doubling_n_sigma_dominated(self):
        e1 = rate_envelope("dcd", T=10_000, n=8, sigma=5.0, zeta=0.0)
        e2 = rate_envelope("dcd", T=10_000, n=16, sigma=5.0, zeta=0.0)
        assert e1 / e2 == pytest.approx(math.sqrt(2), rel=0.01)

    def test_sigma_tilde_zero_families_coincide(self):
        for T, n, sigma, zeta in ((100, 4, 1.0, 0.5), (10_000, 16, 2.0, 0.0)):
            d = rate_envelope("dcd", T=T, n=n, sigma=sigma, zeta=zeta)
            e = rate_envelope("ecd", T=T, n=n, sigma=sigma, zeta=zeta, sigma_tilde2=0.0)
            assert d == e

    def test_monotone_decreasing_in_T(self):
        grid = [3, 10, 30, 100, 1000, 10_000, 100_000]
        for kind, st2 in (("dcd", 0.0), ("ecd", 4.0)):
            vals = [rate_envelope(kind, T=T, n=8, sigma=1.0, zeta=1.0, sigma_tilde2=st2)
                    for T in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ecd_penalty_positive(self):
        base = rate_envelope("ecd", T=1000, n=8, sigma=1.0, zeta=1.0, sigma_tilde2=0.0)
        noisy = rate_envelope("ecd", T=1000, n=8, sigma=1.0, zeta=1.0, sigma_tilde2=2.0)
        assert noisy > base
