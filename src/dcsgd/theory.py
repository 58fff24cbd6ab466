"""Rate constants, feasibility conditions, and theoretical step sizes.

Two constant families describe the two compressed algorithms:

* difference compression: D1..D4, defined only while the compression
  budget (1 - rho)^2 - 4 mu^2 alpha^2 > 0 holds;
* extrapolation compression: C1..C4, no budget on the operator.

With alpha = 0 the difference constants collapse onto the uncompressed
case, D1 = C1 = 1/(1 - rho)^2 and D2 = 0, and rho = 0 as well gives the
centralized D1 = 1: the uncompressed and centralized step sizes are the
difference-family rule at those points, and the difference envelope is the
extrapolation one at sigma_tilde2 = 0.  The step-size formulas return an
error rather than clamping when their preconditions fail, so misconfigured
experiments fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleError


@dataclass(frozen=True)
class RateConstants:
    """Evaluated constants for one (rho, mu, alpha, L, gamma) tuple."""

    rho: float
    mu: float
    alpha: float
    L: float
    gamma: float
    D1: float
    D2: float
    D3: float
    D4: float
    C1: float
    C2: float
    C3: float
    C4: float


def dcd_feasible(rho: float, mu: float, alpha: float) -> bool:
    """True iff the difference-compression budget (1-rho)^2 - 4 mu^2 alpha^2 > 0.

    Equivalently alpha < (1 - rho) / (2 mu): aggressive compression is only
    admissible on well-connected topologies.
    """
    if not 0.0 <= rho:
        raise InfeasibleError(f"rho must be >= 0, got {rho}")
    if rho >= 1.0:
        raise InfeasibleError(f"topology does not mix (rho = {rho} >= 1)")
    if alpha < 0.0:
        raise InfeasibleError(f"alpha must be >= 0, got {alpha}")
    if not math.isfinite(alpha):
        return False
    return (1.0 - rho) ** 2 - 4.0 * mu * mu * alpha * alpha > 0.0


def alpha_budget(rho: float, mu: float) -> float:
    """The bound (1 - rho) / (2 mu) that alpha must stay below for the
    difference-compression budget to hold."""
    return (1.0 - rho) / (2.0 * mu)


def constants(rho: float, mu: float, alpha: float, L: float, gamma: float) -> RateConstants:
    """Evaluate D1..D4 and C1..C4 at one parameter tuple.

    Raises InfeasibleError when alpha violates the difference-compression
    budget (the D family is undefined there).
    """
    if not dcd_feasible(rho, mu, alpha):
        raise InfeasibleError(
            f"alpha = {alpha} violates (1-rho)^2 > 4 mu^2 alpha^2 for rho={rho}, mu={mu}"
        )
    budget = (1.0 - rho) ** 2 - 4.0 * mu * mu * alpha * alpha
    core = 2.0 * mu * mu * (1.0 + 2.0 * alpha * alpha) / budget + 1.0
    D2 = 2.0 * alpha * alpha * core
    D1 = D2 / (1.0 - rho * rho) + 1.0 / (1.0 - rho) ** 2
    denom_d = 1.0 - 3.0 * D1 * L * L * gamma * gamma
    if denom_d <= 0.0:
        raise InfeasibleError(f"gamma = {gamma} violates 1 - 3 D1 L^2 gamma^2 > 0")
    D3 = (4.0 * L * L + 3.0 * L**3 * D2 * gamma * gamma) * 3.0 * D1 * gamma * gamma / denom_d \
        + 1.5 * L * D2 * gamma * gamma
    D4 = 1.0 - L * gamma

    C1 = 1.0 / (1.0 - rho) ** 2
    denom_c = 1.0 - 6.0 * C1 * L * L * gamma * gamma
    if denom_c <= 0.0:
        raise InfeasibleError(f"gamma = {gamma} violates 1 - 6 C1 L^2 gamma^2 > 0")
    C2 = 1.0 / denom_c
    C3 = 12.0 * L * L * C2 * C1 * gamma * gamma
    C4 = 1.0 - L * gamma
    return RateConstants(
        rho=rho, mu=mu, alpha=alpha, L=L, gamma=gamma,
        D1=D1, D2=D2, D3=D3, D4=D4, C1=C1, C2=C2, C3=C3, C4=C4,
    )


def gamma_dcd(L: float, sigma: float, zeta: float, n: int, T: int, D1: float, D2: float) -> float:
    """Theoretical step size for difference compression.

    gamma = 1 / (6 sqrt(D1) L + 6 sqrt(D2 L) + (sigma/sqrt(n)) sqrt(T)
            + zeta^(2/3) T^(1/3)); the returned value always satisfies
    3 D1 L^2 gamma^2 <= 1/12.
    """
    _check_gamma_inputs(L, sigma, zeta, n, T)
    if D1 <= 0.0 or D2 < 0.0 or not (math.isfinite(D1) and math.isfinite(D2)):
        raise InfeasibleError(f"invalid constants D1={D1}, D2={D2} (infeasible alpha?)")
    gamma = 1.0 / (
        6.0 * math.sqrt(D1) * L
        + 6.0 * math.sqrt(D2 * L)
        + sigma / math.sqrt(n) * math.sqrt(T)
        + zeta ** (2.0 / 3.0) * T ** (1.0 / 3.0)
    )
    if not 1.0 - 3.0 * D1 * L * L * gamma * gamma > 0.0:
        raise InfeasibleError("resolved step size violates 1 - 3 D1 L^2 gamma^2 > 0")
    return gamma


def gamma_ecd(L: float, sigma: float, zeta: float, n: int, T: int, C1: float) -> float:
    """Theoretical step size for extrapolation compression.

    gamma = 1 / (12 sqrt(C1) L + (sigma/sqrt(n)) sqrt(T) + zeta^(2/3) T^(1/3));
    always satisfies 1 - 6 C1 L^2 gamma^2 > 0 and 1 - L gamma >= 0.
    """
    _check_gamma_inputs(L, sigma, zeta, n, T)
    if C1 < 1.0 or not math.isfinite(C1):
        raise InfeasibleError(f"invalid constant C1={C1}")
    gamma = 1.0 / (
        12.0 * math.sqrt(C1) * L
        + sigma / math.sqrt(n) * math.sqrt(T)
        + zeta ** (2.0 / 3.0) * T ** (1.0 / 3.0)
    )
    if not 1.0 - 6.0 * C1 * L * L * gamma * gamma > 0.0:
        raise InfeasibleError("resolved step size violates 1 - 6 C1 L^2 gamma^2 > 0")
    return gamma


def _check_gamma_inputs(L: float, sigma: float, zeta: float, n: int, T: int) -> None:
    if L <= 0.0:
        raise InfeasibleError(f"L must be > 0, got {L}")
    if sigma < 0.0 or zeta < 0.0:
        raise InfeasibleError("sigma and zeta must be >= 0")
    if n < 1 or T < 1:
        raise InfeasibleError(f"need n >= 1 and T >= 1, got n={n}, T={T}")


def rate_envelope(
    kind: str,
    T: int,
    n: int,
    sigma: float,
    zeta: float,
    sigma_tilde2: float = 0.0,
) -> float:
    """Leading convergence-bound expression with all hidden constants set to 1.

    Only meaningful for ordering and trend assertions (does the envelope
    shrink with n, with T, ...), never for absolute-value checks.

    extrapolation family: sigma/sqrt(nT) + zeta^(2/3)/T^(2/3) + 1/T with the
    first two terms inflated by (1 + sigma_tilde2 log T / n), plus
    sigma_tilde2 log T / T; the difference family is the same expression
    at sigma_tilde2 = 0.
    """
    if T < 1 or n < 1:
        raise InfeasibleError(f"need T >= 1 and n >= 1, got T={T}, n={n}")
    if kind not in ("dcd", "ecd"):
        raise InfeasibleError(f"unknown envelope kind {kind!r}; choose 'dcd' or 'ecd'")
    if kind == "dcd":
        sigma_tilde2 = 0.0
    inflate = 1.0 + sigma_tilde2 * math.log(T) / n
    return (
        sigma * inflate / math.sqrt(n * T)
        + zeta ** (2.0 / 3.0) * inflate / T ** (2.0 / 3.0)
        + 1.0 / T
        + sigma_tilde2 * math.log(T) / T
    )
