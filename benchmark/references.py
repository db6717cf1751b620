"""Independent references for the M = 2 tables, computed outside timed code.

At M = 2 the head is one shifted gamma variable, X = lambda_1 (eta_1 - 1)
with eta_1 ~ Gamma(r, rate r), so its CDF has the closed form

    F_X(x) = P(eta_1 <= 1 + x / lambda_1) = gammainc(r, r (1 + x / lambda_1))

for x > -lambda_1 and 0 below.  That is the head reference.

The Z reference conditions on the scaled tail t = Y_2 / sigma_2, whose
density is the order-N Edgeworth density:

    F_Z(x) = integral F_X(x - sigma_2 t) edgeworth_pdf(t) dt.

The integrand vanishes for t beyond the head's support edge
t* = (x + lambda_1) / sigma_2 and has a square-root kink there (r = 1/2),
so the integral is split at t* and each piece goes to adaptive Gauss-Kronrod
quadrature (scipy.integrate.quad) over |t| <= 12.  Neither reference uses CF
inversion, PCHIP interpolation or the convolution grid of the pipeline; the
pipeline's clamp / running-max repair is applied to the reference values so
that both sides are compared after the same post-processing.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, special

from gammasum.cumulants import cumulants, sigma_M
from gammasum.edgeworth import build_expansion, edgeworth_pdf

_T_MAX = 12.0


def head_m2_cdf(spec, x):
    """Closed-form CDF of the M = 2 head, lambda_1 (eta_1 - 1)."""
    lam1 = float(spec.weights.head(2)[0])
    r = spec.r
    arg = r * (1.0 + np.asarray(x, dtype=float) / lam1)
    return special.gammainc(r, np.maximum(arg, 0.0))


def z_m2_cdf(spec, n_order, x):
    """F_Z at points ``x`` for the M = 2 split, by adaptive quadrature."""
    lam1 = float(spec.weights.head(2)[0])
    sig = sigma_M(spec, 2)
    ex = build_expansion(cumulants(spec, 2, max(n_order, 3)), n_order)
    r = spec.r

    def integrand(t, xv):
        return special.gammainc(r, r * (1.0 + (xv - sig * t) / lam1)) * edgeworth_pdf(ex, t)

    out = []
    for xv in np.asarray(x, dtype=float):
        edge = min((xv + lam1) / sig, _T_MAX)
        if edge <= -_T_MAX:
            out.append(0.0)
            continue
        val, _ = integrate.quad(
            integrand, -_T_MAX, edge, args=(xv,), epsabs=1e-13, epsrel=1e-12, limit=500
        )
        out.append(val)
    ref = np.asarray(out)
    return np.minimum(np.maximum.accumulate(np.maximum(ref, 0.0)), 1.0)
