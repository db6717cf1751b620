"""The one log-CF kernel, the tail's Levy density and two cross-checks.

``log_cf(spec, lo, hi, u)`` is, at real u and with hi = None for no end,

    log E exp(i u sum_{lo <= n < hi} lambda_n (eta_n - 1))
        = sum_{lo <= n < hi} [-r log(1 - i u lambda_n / r) - i u lambda_n].

The head CF is exp(log_cf(spec, 1, M, u)); the tail past M, scaled to unit
variance, has log-CF log_cf(spec, M, None, u / sigma_M) with real part
-A_M(u), A_M(u) = (r/2) sum_{n >= M} log(1 + u^2 lambda_n^2 / (r sigma_M)^2).
Since (r sigma_M)^2 = r c^2 s_2 with c = lambda_M (``weights.tail_power_sum``),
A_M depends on b = u^2 / (r s_2) and lambda_n / c alone, not on magnitude.

That tail is infinitely divisible with Levy density

    nu_M(x) = (r/x) * sum_{n >= M} exp(-r x sigma_M / lambda_n),   x > 0,

which gives two independent checks: kappa_{k,M} = integral x^k nu_M(x) dx,
and log_cf as the integral of (e^{iux} - 1 - iux) nu_M(x), so A_M(u) =
integral_0^inf (1 - cos ux) nu_M(x) dx.  Power-law weights enter as lambda_lo
(n / lo)^-gamma, as a list's do: no power of n leaves the float range.  nu_M's
n-series sum exp(-z0 (n / M)^gamma), z0 = x sqrt(r s_2), takes one route for
every gamma: direct terms below a cut, then Euler-Maclaurin (``_exp_power_sum``).
The density is evaluated on an array of points at once (``_density``);
``levy_density`` is its one-point call.

``cumulant_via_integral`` takes the moment integral by one fixed exp-sinh rule
(Takahasi & Mori 1974, Publ. RIMS Kyoto Univ. 9:721): 181 nodes x = exp((pi/2)
sinh t), t = -4.5..4.5 in steps of h = 0.05.  Its h = 0.1 half-sum and its end
terms gate it: NumericalError when they show an unresolved integral.  Where
the gate passes, kappa_3 and kappa_4 were within 9e-14 relative of the closed
form over 3000 power laws with gamma 0.55-6, r 0.1-10 and M 1-1000, and
within 3e-14 over 6000 draws from the benchmark's weight specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import special

from .cumulants import sigma_M
from .errors import NumericalError
from .weights import (
    GammaSumSpec,
    PowerLawWeights,
    _check_int,
    _check_m,
    _check_real,
    _zs,
    tail_power_sum,
)

# most explicit terms log_cf sums before its series takes over; more fail
# with NumericalError before anything that size is allocated
_MAX_DIRECT_TERMS = 1 << 20
# last power j of log_cf's tail series: past the cut term j is at most
# 2^(-(j-2)/2) of term 2, so the first omitted one is below 2^-49 of it
_SERIES_TERMS = 100

# Euler-Maclaurin completes sum exp(-z(n)) only where the summand's
# log-derivative u(n) = gamma z(n) / n is at most this wherever the tail
# has mass; the neglected B_6 correction is then ~ (cap)^6/30240 ~ 2e-14 of it.
_EM_DERIV_CAP = 0.03
_EM_MIN_CUT = 64
_EM_SPAN = 36.0  # past z(n) = z(L) + 36 lies under e^-36 of the tail
_DIRECT_SPAN = 40.0  # terms past z0 + 40 add under e^-40 / cap of the first

# exp(-745) is the smallest positive normal-ish double; beyond that the whole
# tail underflows and direct summation is exact
_EXP_UNDERFLOW = 745.0
_MIN_Z0 = 1e-305  # each (n / start)^gamma formed is below 785 / z0: a finite float
# most terms one block of a density's flat exp holds
_SUM_BLOCK = 1 << 16

# cumulant_via_integral's exp-sinh rule: nodes x = exp((pi/2) sinh t) and
# weights h x (pi/2) cosh t at t = -4.5, -4.45, ..., 4.5
_ES_T = np.linspace(-4.5, 4.5, 181)
_ES_X = np.exp(0.5 * math.pi * np.sinh(_ES_T))
_ES_W = 0.05 * _ES_X * 0.5 * math.pi * np.cosh(_ES_T)


def _em_tail(z, gamma, cut):
    """sum_{n >= cut} exp(-z (n / cut)^gamma) by Euler-Maclaurin at each z of
    an array; inf past the float range."""
    s = 1.0 / gamma
    with np.errstate(over="ignore"):
        integral = s * cut * np.power(z, -s) * math.gamma(s) * special.gammaincc(s, z)
    g = np.exp(-z)
    u1 = gamma * z / cut
    u2 = u1 * (gamma - 1.0) / cut
    u3 = u2 * (gamma - 2.0) / cut
    gppp = (-(u1**3) + 3.0 * u1 * u2 - u3) * g
    return integral + 0.5 * g + (u1 * g) / 12.0 + gppp / 720.0


def _exp_power_sum(z0, gamma, start):
    """sum_{n >= start} exp(-z0 (n / start)^gamma) at each z0 >= _MIN_Z0 of an
    array, to about 1e-13 relative.

    One route for every gamma: direct terms below a cut L, ``_em_tail`` from
    L on.  With z(n) = z0 (n / start)^gamma, the log-derivative u(n) = gamma
    z(n) / n must meet the cap where the tail has mass.  For gamma < 1, u
    falls and L = max(start, 64, the n where u reaches the cap); for gamma >=
    1, u rises and L = max(start, 64) must meet the cap at z(L) + 36.  With
    no cut, or one past z0 + 40, direct terms run up to z0 + 40.  The direct
    terms of all points are laid end to end and summed point by point with
    ``np.add.reduceat``, _SUM_BLOCK terms at a time.
    """
    total = np.zeros(z0.shape)
    live = np.flatnonzero(z0 <= _EXP_UNDERFLOW)
    z = z0[live]
    log_a = np.log(z) - gamma * math.log(start)  # log z(n) = log_a + gamma log n
    log_z_end = np.log(z + _DIRECT_SPAN)
    log_cap = math.log(_EM_DERIV_CAP)
    log_u0 = log_a + math.log(gamma)  # log u(n) = log_u0 + (gamma - 1) log n
    log_n_cap = (log_cap - log_u0) / (gamma - 1.0) if gamma < 1.0 else np.full(z.shape, -np.inf)
    log_cut = np.maximum(math.log(max(start, _EM_MIN_CUT)), log_n_cap)
    log_z_cut = log_a + gamma * log_cut
    # log n at z(n) = z(L) + 36, clipped: only a cut within z_end reads it
    log_far = (np.log(np.exp(np.minimum(log_z_cut, log_z_end)) + _EM_SPAN) - log_a) / gamma
    em = (log_z_cut <= log_z_end) & (log_u0 + (gamma - 1.0) * log_far <= log_cap)
    with np.errstate(over="ignore"):  # each point reads only its own branch
        cut = np.maximum(max(start, _EM_MIN_CUT), np.ceil(np.exp(log_n_cap)))
        end = np.floor(np.exp((log_z_end - log_a) / gamma)) + 1.0
    stop = np.where(em, cut, end)
    total[live[em]] = _em_tail(z[em] * (cut[em] / start) ** gamma, gamma, cut[em])
    # direct terms n = start .. stop - 1 of the points that have any
    has = np.flatnonzero(stop > start)
    zs, first = z[has], np.zeros(has.size + 1, dtype=np.int64)
    np.cumsum(stop[has].astype(np.int64) - start, out=first[1:])
    for p0 in range(0, int(first[-1]), _SUM_BLOCK):
        p1 = min(p0 + _SUM_BLOCK, int(first[-1]))
        lo = int(np.searchsorted(first, p0, "right")) - 1
        hi = int(np.searchsorted(first, p1, "left"))
        seg = np.maximum(first[lo:hi], p0) - p0  # where each point starts in the block
        point = np.repeat(np.arange(lo, hi), np.diff(np.append(seg, p1 - p0)))
        n = np.arange(p0, p1) - first[point] + start
        terms = np.exp(-zs[point] * (n / start) ** gamma)
        total[live[has[lo:hi]]] += np.add.reduceat(terms, seg)
    return total


def log_cf(spec, lo, hi, u):
    """log E exp(i u sum_{lo <= n < hi} lambda_n (eta_n - 1)) at real ``u``
    (scalar or array); ``hi=None`` runs the sum to infinity.

    Term n is -r log(1 - i w_n) - i r w_n with w_n = u lambda_n / r: real
    part -(r/2) log1p(w_n^2), imaginary part r (atan w_n - w_n).  An
    infinite power-law tail sums the terms below cut = max(lo, 64, edge),
    where w_edge^2 = 1/2, then adds r sum_{j=2}^{100} (i w_cut)^j zs(j gamma,
    cut) / j, where zs(s, q) = q^s zeta(s, q) >= 1 (``weights._zs``); more
    than _MAX_DIRECT_TERMS terms below the cut raise NumericalError.  The
    real part is relatively accurate to about 1e-13.  An explicit term's
    imaginary part is a difference, with absolute error about 1e-16 r |w_n|,
    so it is relatively accurate only where |w_n| is not small.
    """
    w = spec.weights
    r = spec.r
    ua = np.asarray(u, dtype=float)
    series = 0.0
    if isinstance(w, PowerLawWeights):
        t = ua * w.value(lo)  # lambda_n = lambda_lo (n / lo)^-gamma
        if hi is None:
            t_max = float(np.max(np.abs(t), initial=0.0)) / r
            edge = lo * (2.0 * t_max * t_max) ** (0.5 / w.gamma)
            if not edge - lo <= _MAX_DIRECT_TERMS:
                raise NumericalError(
                    f"log-CF power tail needs {edge - lo:.3g} direct terms, over "
                    f"the budget of {_MAX_DIRECT_TERMS}"
                )
            hi = max(lo, _EM_MIN_CUT, math.ceil(edge))
            j = np.arange(_SERIES_TERMS, 1, -1)
            coef = _zs(j * w.gamma, hi) / j
            z = 1j * t * (hi / lo) ** -w.gamma / r
            series = r * z * z * reduce(lambda y, c: y * z + c, coef.tolist(), 0.0)
        x = (np.arange(lo, hi, dtype=float) / lo) ** -w.gamma
    else:
        t = ua
        x = w.array[lo - 1 : None if hi is None else hi - 1]
    wn = t[..., None] * x / r
    # log1p(a^2) / 2 = log a + log1p(a^-2) / 2 for a >= 1: a^2 may overflow
    a = np.maximum(np.abs(wn), 1.0)
    half_log = np.log(a) + 0.5 * np.log1p(np.minimum(np.abs(wn), 1.0 / a) ** 2)
    out = r * (1j * (np.arctan(wn) - wn) - half_log).sum(axis=-1) + series
    return complex(out) if ua.ndim == 0 else out


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


def _density(d, x):
    """nu_M at each point of the array ``x`` > 0: one flat exp per block of
    points, NumericalError for a density past the float range or a power
    law's z0 = r x sigma_M / lambda_M below _MIN_Z0."""
    w = d.spec.weights
    r = d.spec.r
    if isinstance(w, PowerLawWeights):
        z0 = r * x * (d.sigma_M / w.value(d.M))
        low = z0 < _MIN_Z0
        if low.any():
            i = np.argmax(low)
            raise NumericalError(
                f"exponent z0 = {z0[i]:.3g} at x = {float(x[i])!r} is below {_MIN_Z0:g}"
            )
        total = _exp_power_sum(z0, w.gamma, d.M)
    else:
        lam = w.array[d.M - 1 :]
        step = max(1, _SUM_BLOCK // lam.size)
        total = np.concatenate(
            [
                np.exp((-r * x[i : i + step] * d.sigma_M)[:, None] / lam).sum(axis=1)
                for i in range(0, x.size, step)
            ]
        )
    with np.errstate(over="ignore"):
        density = (r / x) * total
    over = ~(density < math.inf)
    if over.any():
        raise NumericalError(f"Levy density at x = {float(x[np.argmax(over)])!r} overflows")
    return density


def levy_density(d, x):
    """Evaluate the tail Levy density at a finite ``x > 0``; a density past the
    float range, or a power law's z0 = r x sigma_M / lambda_M below _MIN_Z0,
    raises NumericalError."""
    x = _check_real(x, "Levy density point x", 0.0)
    return float(_density(d, np.array([x]))[0])


def cumulant_via_integral(spec, m, k):
    """kappa_{k,M} as the k-th moment of the tail Levy density, by one fixed
    exp-sinh rule.

    The rule (Takahasi & Mori 1974) takes x = exp((pi/2) sinh t) at the 181
    points t = -4.5, -4.45, ..., 4.5 (h = 0.05) with weights h x (pi/2) cosh t,
    so it spans x from 2e-31 to 5e30.  The same sum over every other point is
    the h = 0.1 rule; NumericalError is raised when the two differ by more
    than 1e-5 of the result, when either end term exceeds 1e-13 of it (the
    mass the rule leaves out is about that term), or when it is not finite.

    Measured against the closed form (:mod:`gammasum.cumulants`) on 3000
    power laws with gamma 0.55-6, r 0.1-10 and M 1-1000: k = 2, 3, 4 within
    9e-14 relative, k = 5 within 5e-13 and k = 6 within 2.1e-12.  The end
    gate stops kappa_2 for gamma below about 0.63, where x^2 nu_M(x) falls
    too slowly towards x = 0.  The step gate stops some k >= 6 at r near 0.1
    and most k from about 11 on, where the h = 0.1 rule no longer resolves
    the integrand.
    """
    k = _check_int(k, "cumulant order k", 2)
    d = levy_tail_density(spec, m)
    f = _density(d, _ES_X) * _ES_W
    live = f > 0.0  # x^k may overflow only where the density underflows
    with np.errstate(over="ignore"):  # an overflow is judged by the gate below
        f[live] *= _ES_X[live] ** k
    fine, coarse = f.sum(), 2.0 * f[::2].sum()
    ends = max(f[0], f[-1])
    if not (abs(fine - coarse) <= 1e-5 * fine and ends <= 1e-13 * fine):
        raise NumericalError(
            f"cumulant rule unresolved: h = 0.05 gives {fine:.6g}, h = 0.1 gives "
            f"{coarse:.6g}, end terms {f[0]:.3g} and {f[-1]:.3g}"
        )
    return float(fine)


def re_log_cf(spec, m, u):
    """A_M(u) >= 0; the log-CF of the normalized tail has real part -A_M(u).

    -log_cf(spec, M, None, u / sigma_M).real, as accurate as that real
    part.  A frequency whose A_M or u / sigma_M overflows, or that needs
    too many direct terms, raises NumericalError.
    """
    u = _check_real(u, "frequency u", -math.inf)
    sig = sigma_M(spec, m)  # an empty tail has no normalized CF
    s2 = tail_power_sum(spec, m, 2)[1]
    if u * u / spec.r / s2 == math.inf or abs(u / sig) == math.inf:
        raise NumericalError(f"A_M(u) overflows at u = {u!r}")
    return -log_cf(spec, m, None, u / sig).real
