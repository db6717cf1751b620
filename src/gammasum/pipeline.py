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
head table, so each output point costs one weighted dot product.
One caveat: a head whose density is unbounded or jumps at its left end
(total gamma exponent r (M-1) <= 1) puts a kink into the integrand and
drags the rule back to ~h^1.5, about 1e-5 at this node count; refinement
claims should be checked per case in that regime.

M = 1 has an empty head and returns the rescaled expansion itself; a tail
with zero variance (explicit weight list exhausted, or a degenerate stub)
collapses the convolution to the bare head table.

The expansion density integrates as-is where it dips negative; when the
negative part exceeds 1e-3 in mass a quality warning is attached and the
monotone-repair tolerance widens in proportion, since dips of that size
are properties of the expansion, not quadrature failures.  Every table is
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

from .cumulants import cumulants, sigma_M
from .edgeworth import build_expansion, edgeworth_cdf, edgeworth_pdf, negative_pdf_mass
from .errors import DegenerateTailError, DomainError
from .finite_sum import _REPAIR_TOL, _finish_table, invert_to_table, make_head_cf
from .weights import GammaSumSpec, _check_m

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
        _check_m(self.M)
        if not (isinstance(self.N, (int, np.integer)) and 2 <= self.N <= 20):
            raise DomainError(f"expansion order N must be in [2, 20], got {self.N!r}")
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 1 or grid.size < 9 or not np.all(np.diff(grid) > 0.0):
            raise DomainError("grid must be 1-D, strictly increasing, >= 9 points")
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
    return np.linspace(-8.0 * sd, 8.0 * sd, points)


def _trapezoid_weights(n, h):
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _neg_mass_warnings(neg_mass):
    if neg_mass > _NEG_MASS_WARN:
        return (f"tail expansion carries negative density mass {neg_mass:.2e}",)
    return ()


def _expansion_for(spec, m, n_order):
    # the cumulant builder starts at order 3; N = 2 needs none beyond that
    return build_expansion(cumulants(spec, m, max(n_order, 3)), n_order)


def _clamped_eval(interp, x, lo, hi, left, right):
    out = interp(np.clip(x, lo, hi))
    return np.where(x < lo, left, np.where(x > hi, right, out))


def _m1_table(cfg, sig):
    ex = _expansion_for(cfg.spec, 1, cfg.N)
    t = cfg.grid / sig
    neg_mass = negative_pdf_mass(ex)
    return _finish_table(
        cfg.grid,
        edgeworth_cdf(ex, t),
        edgeworth_pdf(ex, t) / sig,
        _neg_mass_warnings(neg_mass),
        {"tail_mass": 1.0, "negative_tail_mass": neg_mass},
        tol=max(_REPAIR_TOL, 2.0 * neg_mass),
    )


def _head_table(cfg, sig):
    lo = cfg.grid[0] - _TAIL_HALF_WIDTH * sig
    hi = cfg.grid[-1] + _TAIL_HALF_WIDTH * sig
    h_target = min(float(np.min(np.diff(cfg.grid))), sigma_M(cfg.spec, 1) / 250.0)
    n = int(np.clip(math.ceil((hi - lo) / h_target) + 1, 801, 8001))
    return invert_to_table(make_head_cf(cfg.spec, cfg.M), np.linspace(lo, hi, n))


def z_cdf(cfg):
    """Tabulate F_Z on the configured grid; PDF included when the head has one."""
    try:
        sig = sigma_M(cfg.spec, cfg.M)
    except DegenerateTailError:
        sig = 0.0
    if cfg.M == 1:
        return _m1_table(cfg, sig)
    if sig < _POINT_MASS_EPS:
        head = invert_to_table(make_head_cf(cfg.spec, cfg.M), cfg.grid)
        diagnostics = {
            "tail_mass": 0.0,
            "negative_tail_mass": 0.0,
            "monotone_violation": head.diagnostics["monotone_violation"],
            "head_series_tail_mass": head.diagnostics["series_tail_mass"],
        }
        return replace(head, diagnostics=diagnostics)

    ex = _expansion_for(cfg.spec, cfg.M, cfg.N)
    y = np.linspace(-_TAIL_HALF_WIDTH * sig, _TAIL_HALF_WIDTH * sig, _QUAD_POINTS)
    wf = _trapezoid_weights(_QUAD_POINTS, y[1] - y[0])
    wf *= edgeworth_pdf(ex, y / sig) / sig
    tail_mass = float(np.sum(wf))

    head = _head_table(cfg, sig)
    f_interp = PchipInterpolator(head.grid, head.cdf, extrapolate=True)
    p_interp = (
        PchipInterpolator(head.grid, head.pdf, extrapolate=True)
        if head.pdf is not None
        else None
    )
    h_lo, h_hi = head.grid[0], head.grid[-1]

    cdf_raw = np.empty(cfg.grid.size)
    pdf_raw = np.empty(cfg.grid.size) if p_interp is not None else None
    for i0 in range(0, cfg.grid.size, _GRID_CHUNK):
        x = cfg.grid[i0 : i0 + _GRID_CHUNK, None] - y[None, :]
        vals = _clamped_eval(f_interp, x, h_lo, h_hi, head.cdf[0], head.cdf[-1])
        cdf_raw[i0 : i0 + _GRID_CHUNK] = vals @ wf
        if p_interp is not None:
            dens = _clamped_eval(p_interp, x, h_lo, h_hi, 0.0, 0.0)
            pdf_raw[i0 : i0 + _GRID_CHUNK] = dens @ wf

    neg_mass = negative_pdf_mass(ex)
    warnings = head.warnings + _neg_mass_warnings(neg_mass)
    if abs(tail_mass - 1.0) > _MASS_DEV_WARN:
        warnings += (
            f"tail density mass deviates from 1 by {tail_mass - 1.0:.2e}",
        )
    diagnostics = {
        "tail_mass": tail_mass,
        "negative_tail_mass": neg_mass,
        "head_series_tail_mass": head.diagnostics["series_tail_mass"],
    }
    tol = max(_REPAIR_TOL, 2.0 * neg_mass)
    return _finish_table(cfg.grid, cdf_raw, pdf_raw, warnings, diagnostics, tol=tol)


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
