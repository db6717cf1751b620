"""Cumulants of the normalized tail and the Berry-Esseen bound.

Split Z = X_M + Y_M at a truncation index M, with Y_M = sum_{n>=M}
lambda_n (eta_n - 1) and sigma_M^2 = Var Y_M = (1/r) S_2(M).  The
normalized tail Y_tilde_M = Y_M / sigma_M has cumulants

    kappa_{k,M} = (k-1)! / (r^{k-1} sigma_M^k) * S_k(M)
                = (k-1)! r^{1-k/2} s_k / s_2^{k/2},    k >= 2,

with kappa_{2,M} = 1 identically.  ``weights.tail_power_sum`` gives
S_k(M) = c^k s_k with one factor c for every k (a power law's scale, or a
list's first tail weight lambda_M), so sigma_M = c sqrt(s_2 / r) and the
kappas, which do not depend on the weights' scale, are formed from the
s_k alone: a scale whose powers leave the float range does not matter.

Because Y_tilde_M is an infinitely divisible pure-jump variable,
sup_x |P[Y_tilde_M <= x] - Phi(x)| is bounded by 0.7056 * kappa_{3,M}
whenever the Lyapunov-type ratio S_3(M)/S_2(M)^{3/2} tends to 0 along M.
For exponentially decaying weights that ratio is constant in M and
normality fails: each summand is bounded below by -lambda_n, so Y_tilde_M
never reaches below -S_1(M)/sigma_M (for lambda_n = 2^-(n+1) this equals
-sqrt(3r) for every M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateTailError, DomainError, NumericalError
from .weights import GammaSumSpec, _check_int, _check_m, tail_power_sum, tail_weight_sum

__all__ = [
    "BERRY_ESSEEN_CONSTANT",
    "MAX_CUMULANT_ORDER",
    "TailCumulants",
    "sigma_M",
    "cumulants",
    "berry_esseen_bound",
    "be_condition_ratio",
    "support_lower_bound",
]

# Best published constant for the Berry-Esseen inequality in this setting.
BERRY_ESSEEN_CONSTANT = 0.7056

# (k-1)! overflows float64 near k = 171; orders beyond 20 are numerically
# useless for Edgeworth work anyway.
MAX_CUMULANT_ORDER = 20


@dataclass(frozen=True)
class TailCumulants:
    """sigma_M plus (kappa_{2,M}, ..., kappa_{K,M}) for one truncation M."""

    M: int
    sigma_M: float
    kappa: tuple

    def kappa_k(self, k: int) -> float:
        """kappa_{k,M} by cumulant order k (k = 2 is the first stored entry)."""
        return self.kappa[_check_int(k, "stored cumulant order k", 2, self.max_order) - 2]

    @property
    def max_order(self) -> int:
        return len(self.kappa) + 1


def _tail_sd(spec: GammaSumSpec, m: int) -> float:
    """c sqrt(s_2 / r) = sqrt((1/r) sum_{n>=M} lambda_n^2), which is 0.0 for
    an empty or underflowed tail."""
    c, s2 = tail_power_sum(spec, m, 2)
    sd = c * math.sqrt(s2 / spec.r)
    if sd == math.inf:
        raise NumericalError(f"tail variance (1/r) S_2(M) overflows at M = {m}")
    return sd


def sigma_M(spec: GammaSumSpec, m: int) -> float:
    """Standard deviation of Y_M: sqrt((1/r) sum_{n>=M} lambda_n^2)."""
    sig = _tail_sd(spec, m)
    if sig == 0.0:
        raise DegenerateTailError(
            f"weight tail is empty at M = {m}; sigma_M = 0 and the normalized "
            f"tail is undefined"
        )
    return sig


def _scaled_power_sum(spec: GammaSumSpec, m: int, k: int) -> float:
    """s_k = S_k(M) / c^k; the tail must be non-empty, and a sum that
    underflows raises NumericalError."""
    sk = tail_power_sum(spec, m, k)[1]
    if sk == 0.0:
        raise NumericalError(f"scaled tail power sum s_{k} underflows at M = {m}")
    return sk


def cumulants(spec: GammaSumSpec, m: int, K: int) -> TailCumulants:
    """kappa_{k,M} for k = 2..K via exact, scale-free tail power sums.

    K is capped at MAX_CUMULANT_ORDER; kappa_{2,M} = 1 holds by construction
    and is asserted to 1e-10 as an internal consistency check.  A cumulant
    out of the float range raises NumericalError.
    """
    m = _check_m(m)
    K = _check_int(K, "cumulant order K", 3, MAX_CUMULANT_ORDER)
    r = spec.r
    sig = sigma_M(spec, m)
    s2 = _scaled_power_sum(spec, m, 2)
    kappa = []
    for k in range(2, K + 1):
        denom = s2 ** (k / 2)
        if denom == 0.0:
            raise NumericalError(f"s_2^{k / 2:g} underflows at M = {m}")
        try:
            r_pow = r ** (1 - k / 2)
        except OverflowError:
            r_pow = math.inf
        kk = math.factorial(k - 1) * (_scaled_power_sum(spec, m, k) / denom) * r_pow
        if not kk < math.inf:
            raise NumericalError(f"kappa_{k} overflows at M = {m}")
        kappa.append(kk)
    if abs(kappa[0] - 1.0) > 1e-10:
        raise DomainError(
            f"internal consistency failure: kappa_2 = {kappa[0]!r}, expected 1"
        )
    return TailCumulants(M=m, sigma_M=sig, kappa=tuple(kappa))


def berry_esseen_bound(spec: GammaSumSpec, m: int) -> float:
    """0.7056 * kappa_{3,M}: certified sup-distance bound to Phi when the
    decay condition holds (reported unconditionally; see be_condition_ratio)."""
    return BERRY_ESSEEN_CONSTANT * cumulants(spec, m, 3).kappa[1]


def be_condition_ratio(spec: GammaSumSpec, m: int) -> float:
    """S_3(M) / S_2(M)^{3/2}; asymptotic normality needs this to tend to 0."""
    sigma_M(spec, m)  # an empty tail has no ratio
    return _scaled_power_sum(spec, m, 3) / _scaled_power_sum(spec, m, 2) ** 1.5


def support_lower_bound(spec: GammaSumSpec, m: int) -> float:
    """inf of the support of Y_tilde_M: -S_1(M)/sigma_M.

    Each summand lambda_n (eta_n - 1) is bounded below by -lambda_n, and the
    gamma variable gets arbitrarily close to 0, so the bound is sharp.
    Returns -inf when sum lambda_n diverges (power law with gamma <= 1).
    """
    s1 = tail_weight_sum(spec, m)
    if math.isinf(s1):
        return -math.inf
    return -s1 / sigma_M(spec, m)
