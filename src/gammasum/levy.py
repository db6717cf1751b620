"""Levy density of the normalized tail sum and two analytic cross-checks.

The tail past truncation M, rescaled to unit variance, is infinitely
divisible with Levy density

    nu_M(x) = (r/x) * sum_{n >= M} exp(-r x sigma_M / lambda_n),   x > 0.

Two independent identities give cheap consistency checks against the rest of
the package: cumulants as moments of nu_M,

    kappa_{k,M} = integral_0^inf x^k nu_M(x) dx,

and the real part of the log-characteristic function of the normalized tail,

    -A_M(u),  A_M(u) = (r/2) sum_{n >= M} log(1 + u^2 lambda_n^2 / (r sigma_M)^2)
            = integral_0^inf (1 - cos ux) nu_M(x) dx.

With S_2(M) = c^2 s_2 (see ``weights.tail_power_sum``), (r sigma_M)^2 =
r c^2 s_2, so A_M depends on the weights through b = u^2 / (r s_2) and
lambda_n / c alone, never through the scale c.

For power-law weights the n-series decay slowly at small x; sums are
completed with an Euler-Maclaurin tail so every evaluation stays cheap while
keeping the truncation error far below 1e-12 of the retained sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.integrate import quad

from .cumulants import sigma_M
from .errors import NumericalError
from .weights import (
    GammaSumSpec,
    PowerLawWeights,
    _check_int,
    _check_m,
    _check_real,
    _zeta_tail,
    tail_power_sum,
)

_REL_TOL = 1e-13
_BLOCK = 4096
# most explicit terms _log1p_power_tail sums before its series takes over;
# more fail with NumericalError before anything that size is allocated
_MAX_DIRECT_TERMS = 1 << 20

# Euler-Maclaurin completion is applied only where a*gamma*L^(gamma-1), the
# log-derivative of the summand at the cut L, is below this; the neglected
# B_6 correction is then ~ (cap)^6/30240 ~ 2e-14 relative to the tail.
_EM_DERIV_CAP = 0.03
_EM_MIN_CUT = 64

# exp(-745) is the smallest positive normal-ish double; beyond that the whole
# tail underflows and direct summation is exact
_EXP_UNDERFLOW = 745.0


def _em_tail(a, gamma, cut):
    """sum_{n >= cut} exp(-a n^gamma) by Euler-Maclaurin, gamma < 1."""
    s = 1.0 / gamma
    z = a * cut**gamma
    integral = s * a ** (-s) * math.gamma(s) * special.gammaincc(s, z)
    g = math.exp(-z)
    u1 = a * gamma * cut ** (gamma - 1.0)
    u2 = u1 * (gamma - 1.0) / cut
    u3 = u2 * (gamma - 2.0) / cut
    gppp = (-(u1**3) + 3.0 * u1 * u2 - u3) * g
    return integral + 0.5 * g + (u1 * g) / 12.0 + gppp / 720.0


def _exp_power_sum(a, gamma, start):
    """sum_{n >= start} exp(-a n^gamma).

    Relative error is kept around 1e-13.  For gamma >= 1 the terms decay at
    least geometrically and direct block summation terminates quickly; for
    gamma < 1 the series is cut where the summand still varies slowly and the
    remainder is completed analytically.
    """
    if a * start**gamma > _EXP_UNDERFLOW:
        return 0.0
    if gamma < 1.0:
        ratio = a * gamma / _EM_DERIV_CAP
        # cut where the summand's log-derivative drops below the cap; in log
        # space because the exponent 1/(1-gamma) blows up as gamma -> 1,
        # where direct summation is the cheap path anyway
        log_cut = math.log(ratio) / (1.0 - gamma) if ratio > 1.0 else 0.0
        cut = (
            max(start, _EM_MIN_CUT, int(math.ceil(math.exp(log_cut))))
            if log_cut <= 18.0
            else None
        )
        if cut is not None and a * cut**gamma <= _EXP_UNDERFLOW:
            idx = np.arange(start, cut, dtype=float)
            explicit = float(np.exp(-a * idx**gamma).sum()) if cut > start else 0.0
            return explicit + _em_tail(a, gamma, cut)

    # direct summation; tail after n bounded by term(n) + integral past n
    total = 0.0
    n = start
    while True:
        idx = np.arange(n, n + _BLOCK, dtype=float)
        terms = np.exp(-a * idx**gamma)
        total += float(terms.sum())
        n += _BLOCK
        z = a * float(n) ** gamma
        if z > _EXP_UNDERFLOW:
            break
        s = 1.0 / gamma
        bracket = math.exp(-z) + s * a ** (-s) * math.gamma(s) * special.gammaincc(s, z)
        if bracket < _REL_TOL * total:
            break
    return total


def _log1p_power_tail(b, gamma, start):
    """sum_{n >= start} log1p(b n^(-2 gamma)) with relative error ~1e-13.

    Explicit terms up to a cut where b n^(-2 gamma) <= 1/2, then the Mercator
    expansion of log1p summed termwise over n through tail zeta values; that
    alternating series remainder is below its first omitted term.
    """
    if b == 0.0:
        return 0.0
    two_g = 2.0 * gamma
    edge = (2.0 * b) ** (1.0 / two_g)
    if not edge - start <= _MAX_DIRECT_TERMS:
        raise NumericalError(
            f"log1p power tail needs {edge - start:.3g} direct terms, over the "
            f"budget of {_MAX_DIRECT_TERMS}"
        )
    cut = max(start, _EM_MIN_CUT, int(math.ceil(edge)))
    idx = np.arange(start, cut, dtype=float)
    total = float(np.log1p(b * idx ** (-two_g)).sum()) if cut > start else 0.0
    term_scale = None
    sign = 1.0
    bj = 1.0
    for j in range(1, 400):
        bj *= b
        term = sign * bj / j * _zeta_tail(two_g * j, cut)
        total += term
        if term_scale is None:
            term_scale = abs(term)
        if abs(term) < _REL_TOL * max(abs(total), term_scale):
            break
        sign = -sign
    return total


@dataclass(frozen=True)
class LevyTailDensity:
    """Evaluable Levy density of the normalized tail past truncation M."""

    spec: GammaSumSpec
    M: int
    sigma_M: float


def levy_tail_density(spec, m):
    """Construct the tail Levy density object for truncation ``m``."""
    m = _check_m(m)
    return LevyTailDensity(spec=spec, M=m, sigma_M=sigma_M(spec, m))


def levy_density(d, x):
    """Evaluate the tail Levy density at a finite ``x > 0``."""
    x = _check_real(x, "Levy density point x", 0.0)
    w = d.spec.weights
    r = d.spec.r
    if isinstance(w, PowerLawWeights):
        a = r * x * d.sigma_M / w.scale
        total = _exp_power_sum(a, w.gamma, d.M)
    else:
        lam = np.asarray(w.values[d.M - 1 :], dtype=float)
        total = float(np.exp(-r * x * d.sigma_M / lam).sum())
    return (r / x) * total


def cumulant_via_integral(spec, m, k):
    """kappa_{k,M} as the k-th moment of the tail Levy density.

    Adaptive quadrature split at x = 1 with the substitution t = e^{-x} on
    the unbounded part, targeting 1e-9 absolute error.  This is the slow,
    independent route; the closed form lives in :mod:`gammasum.cumulants`.
    """
    k = _check_int(k, "cumulant order k", 2)
    d = levy_tail_density(spec, m)

    def integrand(x):
        return x**k * levy_density(d, x)

    near, err_near = quad(integrand, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=400)
    far, err_far = quad(
        lambda t: integrand(-math.log(t)) / t,
        0.0,
        math.exp(-1.0),
        epsabs=1e-11,
        epsrel=1e-11,
        limit=400,
    )
    achieved = err_near + err_far
    if not math.isfinite(achieved) or achieved > 1e-9:
        raise NumericalError(
            f"cumulant quadrature reached only {achieved:.3e} absolute error"
        )
    return near + far


def re_log_cf(spec, m, u):
    """A_M(u) >= 0; the log-CF of the normalized tail has real part -A_M(u).

    Closed log-sum form, truncated with error below 1e-12 of the total.  A
    value or a direct-sum length out of range raises NumericalError.
    """
    u = _check_real(u, "frequency u", -math.inf)
    sigma_M(spec, m)  # an empty tail has no normalized CF
    if u == 0.0:
        return 0.0
    w = spec.weights
    r = spec.r
    c, s2 = tail_power_sum(spec, m, 2)
    b = u * u / r / s2
    if b == math.inf:
        raise NumericalError(f"A_M(u) overflows at u = {u!r}")
    if isinstance(w, PowerLawWeights):
        total = _log1p_power_tail(b, w.gamma, m)
    else:
        lam = np.asarray(w.values[m - 1 :], dtype=float) / c
        total = float(np.log1p(b * lam * lam).sum())
    return 0.5 * r * total
