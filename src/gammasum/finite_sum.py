"""Exact characteristic function of the finite head and Fourier inversion.

The head X_M = sum_{n<M} lambda_n (eta_n - 1) has the closed-form CF

    cf(u) = prod_{n<M} (1 - i u lambda_n / r)^{-r} exp(-i u lambda_n),

each factor the CF of a scaled centered gamma variate.  Writing G for the
positive part sum lambda_n eta_n and s for sum lambda_n, the CDF comes from
the Gil-Pelaez formula at q = x + s,

    F(q) = 1/2 - (1/pi) integral_0^inf Im[e^{-iuq} B(u)] / u du,

with B the CF of G, and the density (when |B| is integrable, i.e. the total
gamma exponent R = r (M-1) exceeds 1) from the matching cosine transform.

Evaluation splits the u-axis at U0: Gauss-Legendre panels sized to the
oscillation below U0, and an asymptotic expansion B(u) ~ K u^{-R} sum e_k
u^{-k} above it, whose termwise integrals I_p(q) = integral_U^inf u^{-p}
e^{-iqu} du are computed by a rotated-contour Gauss-Laguerre rule for large
|q| U and by seeded upward recurrence for small |q| U.  The tail is therefore
integrated to infinity analytically rather than truncated at a modulus
threshold; a halved-panel verification pass bounds the quadrature error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .errors import DomainError, NumericalError
from .weights import GammaSumSpec, _check_m

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_GLAG_X, _GLAG_W = np.polynomial.laguerre.laggauss(48)

_SERIES_TERMS = 18
_QU_SPLIT = 8.0
_REPAIR_TOL = 1e-9
_REFINE_TOL = 1e-8


@dataclass(frozen=True)
class HeadCF:
    """Closed-form CF factors of the head below truncation ``M``."""

    spec: GammaSumSpec
    M: int
    lam: tuple

    def cf(self, u):
        """CF of the head at ``u`` (scalar or array); exactly 1 for M = 1.

        Each factor uses the principal log of 1 - i u lambda / r, whose real
        part is 1 > 0, so the per-factor argument stays in (-pi/2, pi/2) and
        the product needs no winding correction.
        """
        ua = np.asarray(u, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        out = _positive_part_cf(lam, self.spec.r, ua) * np.exp(-1j * ua * lam.sum())
        return complex(out) if ua.ndim == 0 else out


def make_head_cf(spec, m):
    _check_m(m)
    return HeadCF(spec=spec, M=int(m), lam=tuple(spec.weights.head(m)))


def _positive_part_cf(lam, r, u):
    """CF of sum lambda_n eta_n (no centering shift) at array ``u``."""
    log_cf = np.zeros(u.shape, dtype=complex)
    for l in lam:
        log_cf += -r * np.log(1.0 - 1j * u * (l / r))
    return np.exp(log_cf)


@dataclass(frozen=True)
class DistributionTable:
    """Tabulated CDF (and optional PDF) on a strictly increasing grid."""

    grid: np.ndarray
    cdf: np.ndarray
    pdf: np.ndarray | None = None
    warnings: tuple = ()
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        cdf = np.asarray(self.cdf, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cdf", cdf)
        if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0.0):
            raise DomainError("grid must be 1-D and strictly increasing")
        if cdf.shape != grid.shape:
            raise DomainError("cdf length must match the grid")
        if np.any(cdf < 0.0) or np.any(cdf > 1.0) or np.any(np.diff(cdf) < 0.0):
            raise NumericalError("cdf must be non-decreasing within [0, 1]")
        if cdf[0] > 0.001 or cdf[-1] < 0.999:
            raise DomainError(
                "grid does not cover the bulk: need cdf <= 0.001 at the left "
                "end and >= 0.999 at the right"
            )
        if self.pdf is not None:
            pdf = np.asarray(self.pdf, dtype=float)
            object.__setattr__(self, "pdf", pdf)
            if pdf.shape != grid.shape or np.any(pdf < 0.0):
                raise NumericalError("pdf must be non-negative on the grid")
            mass = float(np.trapezoid(pdf, grid))
            if not 0.998 <= mass <= 1.002:
                raise NumericalError(f"pdf mass {mass:.6f} outside [0.998, 1.002]")


def default_grid(spec, m, points=2001):
    """Uniform grid over mean +/- 8 head standard deviations."""
    lam = spec.weights.head(m)
    if lam.size == 0:
        raise DomainError("empty head has no distribution grid")
    half = 8.0 * math.sqrt(float(np.sum(lam * lam)) / spec.r)
    return np.linspace(-half, half, points)


def _tail_integrals_batch(p0, count, q_vec, big_u):
    """I_{p0+j}(q) for j < count over all q in ``q_vec``; shape (count, nq).

    I_p(q) = integral_{big_u}^inf u^{-p} e^{-iqu} du.  q = 0 is elementary;
    negative q conjugates; |q| big_u below _QU_SPLIT seeds the base order
    from the generalized exponential integral and climbs the ladder by parts
    (stable there, amplification |q|/p < 1); larger |q| big_u rotates the
    contour to u = big_u - i s/q, where Gauss-Laguerre applies.
    """
    q_vec = np.asarray(q_vec, dtype=float)
    p = p0 + np.arange(count, dtype=float)
    out = np.empty((count, q_vec.size), dtype=complex)

    aq = np.abs(q_vec)
    zero = aq == 0.0
    small = (~zero) & (aq * big_u < _QU_SPLIT)
    large = (~zero) & ~small

    if np.any(zero):
        out[:, zero] = (big_u ** (1.0 - p) / (p - 1.0))[:, None]

    for i in np.nonzero(small)[0]:
        qa = aq[i]
        with mpmath.workdps(30):
            seed = mpmath.expint(p0, 1j * qa * big_u) * mpmath.mpf(big_u) ** (1 - p0)
            seed = complex(seed)
        ladder = np.empty(count, dtype=complex)
        ladder[0] = seed
        edge = cmath.exp(-1j * qa * big_u)
        for j in range(1, count):
            pj = p[j - 1]
            ladder[j] = (big_u**-pj * edge - 1j * qa * ladder[j - 1]) / pj
        out[:, i] = ladder

    if np.any(large):
        qa = aq[large]
        # log of the contour points big_u - i s/q; real part big_u > 0 keeps
        # the principal branch continuous along the whole contour
        base_log = np.log(big_u - 1j * _GLAG_X[None, :] / qa[:, None])
        pref = (-1j / qa) * np.exp(-1j * qa * big_u)
        vals = np.empty((count, qa.size), dtype=complex)
        for j in range(count):
            vals[j] = pref * (np.exp(-p[j] * base_log) @ _GLAG_W)
        out[:, large] = vals

    neg = q_vec < 0.0
    out[:, neg] = np.conj(out[:, neg])
    return out


def _tail_series(lam, r, big_u):
    """(R, K, e) of the large-u expansion B(u) = K u^{-R} sum e_k u^{-k}.

    Returns None when the scaled terms have not decayed to ~1e-13 at the
    chosen big_u (caller enlarges big_u and retries).
    """
    c = r / lam
    big_r = r * lam.size
    d = np.zeros(_SERIES_TERMS + 1, dtype=complex)
    for j in range(1, _SERIES_TERMS + 1):
        d[j] = r * (-1j) ** j * float(np.sum(c**j)) / j
    e = np.zeros(_SERIES_TERMS + 1, dtype=complex)
    e[0] = 1.0
    for k in range(1, _SERIES_TERMS + 1):
        e[k] = sum(j * d[j] * e[k - j] for j in range(1, k + 1)) / k
    big_k = cmath.exp(
        1j * math.pi * big_r / 2.0 - r * float(np.sum(np.log(lam / r)))
    )
    scaled = np.abs(e) * big_u ** -np.arange(_SERIES_TERMS + 1, dtype=float)
    if scaled[-3:].max() > 1e-13 * max(1.0, scaled.max()):
        return None
    return big_r, big_k, e


def _panel_rule(big_u, width):
    n_panels = max(8, int(math.ceil(big_u / width)))
    w = big_u / n_panels
    starts = np.arange(n_panels) * w
    nodes = (starts[:, None] + (0.5 * w) * (_GL_X + 1.0)[None, :]).ravel()
    wts = np.tile(0.5 * w * _GL_W, n_panels)
    return nodes, wts


def _oscillatory_sums(coeff, u_nodes, q):
    """S(q_k) = sum_j coeff_j e^{-i u_j q_k}; recurrence on uniform grids."""
    d = np.diff(q)
    uniform = d.size > 0 and float(np.max(np.abs(d - d[0]))) <= 1e-12 * abs(d[0])
    out = np.empty(q.size, dtype=complex)
    if uniform:
        w = coeff * np.exp(-1j * u_nodes * q[0])
        rho = np.exp(-1j * u_nodes * d[0])
        for k in range(q.size):
            out[k] = w.sum()
            w *= rho
        return out
    for k0 in range(0, q.size, 64):
        qs = q[k0 : k0 + 64]
        out[k0 : k0 + 64] = (
            coeff[None, :] * np.exp(-1j * qs[:, None] * u_nodes[None, :])
        ).sum(axis=1)
    return out


def invert_to_table(hcf, grid):
    """Invert the head CF to a CDF (and PDF when it exists) on ``grid``.

    The PDF is omitted, with a warning on the table, when the total gamma
    exponent r (M-1) is at most 1 (non-integrable CF modulus; the density is
    unbounded).  Quadrature error is verified by a halved-panel pass; CDF
    increments more negative than 1e-9 abort rather than being repaired.
    """
    if hcf.M < 2:
        raise DomainError("head is empty for M = 1; nothing to invert")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0.0):
        raise DomainError("grid must be 1-D and strictly increasing")
    lam = np.asarray(hcf.lam, dtype=float)
    r = hcf.spec.r
    shift = float(lam.sum())
    q = grid + shift
    with_pdf = r * lam.size > 1.0

    big_u = max(64.0, 8.0 * float(np.max(r / lam)))
    for _ in range(3):
        series = _tail_series(lam, r, big_u)
        if series is not None:
            break
        big_u *= 2.0
    else:
        raise NumericalError(
            f"asymptotic CF expansion did not converge by U = {big_u:g}"
        )
    big_r, big_k, e_coef = series

    q_abs_max = max(float(np.max(np.abs(q))), 1e-9)
    width = min(math.pi / (2.0 * q_abs_max), 0.5 * float(np.min(r / lam)), big_u / 8.0)

    def main_sums(scale, want_pdf):
        nodes, wts = _panel_rule(big_u, width * scale)
        b_vals = _positive_part_cf(lam, r, nodes)
        cdf_part = _oscillatory_sums(wts * b_vals / nodes, nodes, q).imag
        pdf_part = (
            _oscillatory_sums(wts * b_vals, nodes, q).real if want_pdf else None
        )
        return cdf_part, pdf_part

    coarse, _ = main_sums(1.0, False)
    fine, pdf_main = main_sums(0.5, with_pdf)
    refinement = float(np.max(np.abs(fine - coarse))) / math.pi
    if refinement > _REFINE_TOL:
        raise NumericalError(
            f"panel refinement changed the CDF by {refinement:.3e}"
        )

    p0 = big_r if with_pdf else big_r + 1.0
    count = _SERIES_TERMS + (2 if with_pdf else 1)
    ladder = _tail_integrals_batch(p0, count, q, big_u)
    off = 1 if with_pdf else 0
    ks = np.arange(_SERIES_TERMS + 1)
    tail_cdf = (big_k * (e_coef[:, None] * ladder[off + ks]).sum(axis=0)).imag
    cdf = 0.5 - (fine + tail_cdf) / math.pi

    worst = float(np.max(-np.diff(cdf), initial=0.0))
    if worst > _REPAIR_TOL:
        raise NumericalError(f"CDF non-monotone by {worst:.3e} before repair")
    cdf = np.minimum(np.maximum.accumulate(np.maximum(cdf, 0.0)), 1.0)

    warnings = ()
    pdf = None
    if with_pdf:
        tail_pdf = (big_k * (e_coef[:, None] * ladder[ks]).sum(axis=0)).real
        pdf = (pdf_main + tail_pdf) / math.pi
        neg = float(np.min(pdf, initial=0.0))
        if neg < -1e-8:
            raise NumericalError(f"PDF negative by {neg:.3e}")
        pdf = np.maximum(pdf, 0.0)
    else:
        warnings = (
            "density omitted: total gamma exponent r (M-1) <= 1 makes the "
            "CF modulus non-integrable",
        )

    return DistributionTable(
        grid=grid,
        cdf=cdf,
        pdf=pdf,
        warnings=warnings,
        diagnostics={
            "refinement_change": refinement,
            "max_monotone_violation": worst,
            "integration_split": big_u,
        },
    )
