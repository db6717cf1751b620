"""Assembly of the full distribution from the exact head and tail expansion.

Z splits at a truncation level M into an exact head X_M (a finite gamma
convolution, tabulated as a gamma mixture) and a tail Y_M handled by a
cumulant expansion of order N.  The CDF of Z is the convolution

    F_Z(x) = integral F_{X_M}(x - y) f_{Y_M}(y) dy,

with f_{Y_M}(y) = edgeworth_pdf(y / sigma_M) / sigma_M, taken over
y within +/- 10 sigma_M on a uniform 4001-node trapezoid rule.  The
integrand decays below machine precision before the window ends, which
kills the boundary terms in the Euler-Maclaurin expansion, so the rule
converges much faster than its nominal order (doubling the nodes moves
the result by ~1e-9).
The head CDF enters through a monotone cubic interpolant of a dense
head table, so each output point costs one weighted dot product.  That
table spans the output grid widened by the tail window, so every node
difference x - y lands inside it and no value is extrapolated; its step is
at most min(finest grid step, sigma_1 / 250), with at most 8001 nodes (and at
least 4001, as the grid spans 16 sigma_1).  The
interpolants and their evaluation points are taken in units of
sigma_1 = sd(Z), so PCHIP never sees a node spacing that scales with the
weights: a table on the grid c x for weights c lambda_n is the table on x,
to rounding, for every c the float range holds.
One caveat: a head whose density is unbounded or jumps at its left end
(total gamma exponent r (M-1) <= 1) puts a kink into the integrand and
drags the rule back to ~h^1.5, about 1e-5 at this node count; refinement
claims should be checked per case in that regime.

M = 1 has an empty head and returns the rescaled expansion itself; a tail
whose sd is below 1e-12 sigma_1 (explicit weight list exhausted, an
underflowed power-law tail, or a degenerate stub) collapses the
convolution to the bare head table.

The expansion density integrates as-is where it dips negative; when the
negative part exceeds 1e-3 in mass a quality warning is attached and the
monotone-repair tolerance widens to twice that mass, since dips of that
size are properties of the expansion, not quadrature failures.  A mass of
1/2 or more (or a NaN) is a numerical failure, raised before any head
table is built: a repair that wide could absorb any CDF.  Every table is
finished by the same repair and density gate as a head table, and carries
the diagnostics tail_mass, negative_tail_mass and monotone_violation, plus
head_series_tail_mass when M >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
from scipy.interpolate import PchipInterpolator

from .cumulants import _tail_sd, cumulants, sigma_M
from .edgeworth import (
    MAX_EXPANSION_ORDER,
    build_expansion,
    edgeworth_cdf,
    edgeworth_pdf,
    negative_pdf_mass,
)
from .errors import DomainError, NumericalError
from .finite_sum import _REPAIR_TOL, _check_grid, _finish_table, invert_to_table, make_head_cf
from .weights import GammaSumSpec, _check_int, _check_m

_TAIL_HALF_WIDTH = 10.0
_POINT_MASS_EPS = 1e-12
_NEG_MASS_WARN = 1e-3
_MASS_DEV_WARN = 1e-6
_GRID_CHUNK = 256
# trapezoid nodes of the convolution over the tail window
_QUAD_POINTS = 4001


@dataclass(frozen=True, eq=False)
class PipelineConfig:
    """Everything needed to tabulate F_Z: model, split point, order, grids."""

    spec: GammaSumSpec
    M: int
    N: int
    grid: np.ndarray

    def __post_init__(self):
        m = _check_m(self.M)
        n_order = _check_int(self.N, "expansion order N", 2, MAX_EXPANSION_ORDER)
        grid = _check_grid(self.grid, min_points=9)
        for name, value in (("M", m), ("N", n_order), ("grid", grid)):
            object.__setattr__(self, name, value)
        sd = sigma_M(self.spec, 1)
        slack = 1e-9 * sd
        if grid[0] > -8.0 * sd + slack or grid[-1] < 8.0 * sd - slack:
            raise DomainError(
                "grid must cover the mean +/- 8 total standard deviations "
                f"(+/- {8.0 * sd:.6g})"
            )


def default_z_grid(spec, points=2001):
    """Uniform grid over +/- 8 total standard deviations."""
    sd = sigma_M(spec, 1)
    return np.linspace(-8.0 * sd, 8.0 * sd, _check_int(points, "grid points", 2))


def _trapezoid_weights(n, h):
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _expansion_for(spec, m, n_order):
    # the cumulant builder starts at order 3; N = 2 needs none beyond that
    return build_expansion(cumulants(spec, m, max(n_order, 3)), n_order)


def _head_table(cfg, sig, sd):
    lo = cfg.grid[0] - _TAIL_HALF_WIDTH * sig
    hi = cfg.grid[-1] + _TAIL_HALF_WIDTH * sig
    h_target = min(float(np.min(np.diff(cfg.grid))), sd / 250.0)
    n = min(math.ceil((hi - lo) / h_target) + 1, 8001)
    return invert_to_table(make_head_cf(cfg.spec, cfg.M), np.linspace(lo, hi, n))


def _convolve(cfg, ex, sig, sd):
    """(head table, tail mass, CDF, PDF or None): the head table convolved
    with the tail density on the trapezoid nodes, in units of ``sd``."""
    y = np.linspace(-_TAIL_HALF_WIDTH * sig, _TAIL_HALF_WIDTH * sig, _QUAD_POINTS)
    wf = _trapezoid_weights(_QUAD_POINTS, y[1] - y[0])
    wf *= edgeworth_pdf(ex, y / sig) / sig
    head = _head_table(cfg, sig, sd)
    hx, xs, ys = head.grid / sd, cfg.grid / sd, y / sd
    # a PCHIP slope is a weighted harmonic mean of secants, the reciprocal of
    # sum w / secant: a subnormal secant overflows that sum to inf, and its
    # reciprocal, slope 0, is the correct limit
    with np.errstate(divide="ignore", over="ignore"):
        f_interp = PchipInterpolator(hx, head.cdf, extrapolate=True)
        p_interp = (
            PchipInterpolator(hx, head.pdf, extrapolate=True)
            if head.pdf is not None
            else None
        )
    cdf = np.empty(cfg.grid.size)
    pdf = np.empty(cfg.grid.size) if p_interp is not None else None
    for i0 in range(0, cfg.grid.size, _GRID_CHUNK):
        # x lies in the head grid [xs[0] - ys[-1], xs[-1] - ys[0]] up to rounding
        x = xs[i0 : i0 + _GRID_CHUNK, None] - ys[None, :]
        cdf[i0 : i0 + _GRID_CHUNK] = f_interp(x) @ wf
        if p_interp is not None:
            pdf[i0 : i0 + _GRID_CHUNK] = p_interp(x) @ wf
    return head, float(np.sum(wf)), cdf, pdf


def z_cdf(cfg):
    """Tabulate F_Z on the configured grid; PDF included when the head has one."""
    sig = _tail_sd(cfg.spec, cfg.M)
    sd = sigma_M(cfg.spec, 1)
    if cfg.M > 1 and sig < _POINT_MASS_EPS * sd:
        head = invert_to_table(make_head_cf(cfg.spec, cfg.M), cfg.grid)
        diagnostics = {
            "tail_mass": 0.0,
            "negative_tail_mass": 0.0,
            "monotone_violation": head.diagnostics["monotone_violation"],
            "head_series_tail_mass": head.diagnostics["series_tail_mass"],
        }
        return replace(head, diagnostics=diagnostics)

    ex = _expansion_for(cfg.spec, cfg.M, cfg.N)
    neg_mass = negative_pdf_mass(ex)
    tol = max(_REPAIR_TOL, 2.0 * neg_mass)
    if not tol < 1.0:  # NaN included
        raise NumericalError(
            f"tail expansion carries negative density mass {neg_mass!r}, "
            "too much for the monotone repair"
        )
    if cfg.M == 1:
        t = cfg.grid / sig
        cdf, pdf = edgeworth_cdf(ex, t), edgeworth_pdf(ex, t) / sig
        warnings, tail_mass, head_part = (), 1.0, {}
    else:
        head, tail_mass, cdf, pdf = _convolve(cfg, ex, sig, sd)
        warnings = head.warnings
        head_part = {"head_series_tail_mass": head.diagnostics["series_tail_mass"]}
    if neg_mass > _NEG_MASS_WARN:
        warnings += (f"tail expansion carries negative density mass {neg_mass:.2e}",)
    if abs(tail_mass - 1.0) > _MASS_DEV_WARN:
        warnings += (f"tail density mass deviates from 1 by {tail_mass - 1.0:.2e}",)
    diagnostics = {"tail_mass": tail_mass, "negative_tail_mass": neg_mass, **head_part}
    return _finish_table(cfg.grid, cdf, pdf, warnings, diagnostics, tol=tol)


def m_robustness(cfg_base, ms):
    """(spread, tables): the max pairwise sup-difference of F_Z across the
    truncation levels ``ms``, and the table for each distinct level, keyed
    by M in first-seen order."""
    ms = list(ms)
    if len(ms) < 2:
        raise DomainError("robustness needs at least two truncation levels")
    tables = {}
    for m in ms:
        m = _check_m(m)
        if m not in tables:
            tables[m] = z_cdf(replace(cfg_base, M=m))
    pairs = combinations(tables.values(), 2)
    worst = max((float(np.max(np.abs(a.cdf - b.cdf))) for a, b in pairs), default=0.0)
    return worst, tables
