"""Cumulants of the normalized tail and the Berry-Esseen bound.

Split Z = X_M + Y_M at a truncation index M, with Y_M = sum_{n>=M}
lambda_n (eta_n - 1) and sigma_M^2 = Var Y_M = (1/r) S_2(M).  The
normalized tail Y_tilde_M = Y_M / sigma_M has cumulants

    kappa_{k,M} = (k-1)! / (r^{k-1} sigma_M^k) * S_k(M)
                = (k-1)! r^{1-k/2} s_k / s_2^{k/2},    k >= 2,

with kappa_{2,M} = 1 identically.  ``weights.tail_power_sum`` gives
S_k(M) = c^k s_k with one factor c = lambda_M for every k and scale-free
s_k >= 1, so sigma_M = c sqrt(s_2 / r) and the kappas are formed from the
s_k alone: neither the weights' scale nor their decay enters them.

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

import numpy as np

from .errors import DegenerateTailError, NumericalError
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


def _sd(spec: GammaSumSpec, m: int, c: float, s2: float) -> float:
    """c sqrt(s_2 / r) = sqrt((1/r) sum_{n>=M} lambda_n^2), which is 0.0 for
    an empty tail or one whose lambda_M underflows."""
    sd = c * math.sqrt(s2 / spec.r)
    if sd == math.inf:
        raise NumericalError(f"tail variance (1/r) S_2(M) overflows at M = {m}")
    return sd


def _tail_sd(spec: GammaSumSpec, m: int) -> float:
    """``_sd`` from a read of s_2 alone."""
    return _sd(spec, m, *tail_power_sum(spec, m, 2))


def _read(spec: GammaSumSpec, m: int, k) -> tuple:
    """(sigma_M, s) from one read of the orders ``k``, which start at 2."""
    c, s = tail_power_sum(spec, m, k)
    sig = _sd(spec, m, c, float(s[0]))
    if sig == 0.0:
        raise DegenerateTailError(
            f"weight tail is empty or underflows at M = {m}; sigma_M = 0 and "
            f"the normalized tail is undefined"
        )
    return sig, s


def sigma_M(spec: GammaSumSpec, m: int) -> float:
    """Standard deviation of Y_M: sqrt((1/r) sum_{n>=M} lambda_n^2)."""
    return _read(spec, m, (2,))[0]


def cumulants(spec: GammaSumSpec, m: int, K: int) -> TailCumulants:
    """kappa_{k,M} for k = 2..K via exact, scale-free tail power sums.

    K is capped at MAX_CUMULANT_ORDER; kappa_{2,M} = 1! (s_2 / s_2) s_2^0.0
    r^0.0 is exactly 1 for every finite s_2.  A cumulant out of the float
    range raises NumericalError.  sigma_M comes from the same read of
    s_2..s_K.
    """
    m = _check_m(m)
    K = _check_int(K, "cumulant order K", 3, MAX_CUMULANT_ORDER)
    r = spec.r
    k = np.arange(2, K + 1)
    sig, s = _read(spec, m, k)
    # s_k / s_2 <= 1 and s_2 >= 1, so neither factor overflows; r^(1 - k/2)
    # may, and the first kappa_k out of range is named
    with np.errstate(over="ignore"):
        kappa = np.cumprod(k - 1.0) * (s / s[0] * s[0] ** (1 - k / 2)) * r ** (1 - k / 2)
    if not np.all(kappa < math.inf):
        raise NumericalError(f"kappa_{k[np.argmin(kappa < math.inf)]} overflows at M = {m}")
    return TailCumulants(M=m, sigma_M=sig, kappa=tuple(kappa.tolist()))


def berry_esseen_bound(spec: GammaSumSpec, m: int) -> float:
    """0.7056 * kappa_{3,M}: certified sup-distance bound to Phi when the
    decay condition holds (reported unconditionally; see be_condition_ratio)."""
    return BERRY_ESSEEN_CONSTANT * cumulants(spec, m, 3).kappa[1]


def be_condition_ratio(spec: GammaSumSpec, m: int) -> float:
    """S_3(M) / S_2(M)^{3/2}; asymptotic normality needs this to tend to 0."""
    s2, s3 = _read(spec, m, (2, 3))[1].tolist()  # an empty tail has no ratio
    return s3 / s2**1.5


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
