"""Edgeworth expansions of a standardized distribution from its cumulants.

An order-N expansion corrects the standard normal CDF with a finite sum of
Hermite-polynomial terms indexed by integer vectors (k_3, ..., k_N):

    F_N(x) = Phi(x) - phi(x) * sum_eta  c(k) * H_{zeta(k)}(x),

with one term per index vector in the set

    eta(N) = { (k_3..k_N) : k_m >= 0,  1 <= sum_m (m-2) k_m <= N-2 },

coefficient c(k) = prod_m (1/k_m!) (kappa_m/m!)^{k_m} and Hermite degree
zeta(k) = sum_m m k_m - 1.  Differentiating term by term gives the matching
density phi(x) (1 + sum c(k) H_{zeta+1}(x)).

Hermite polynomials are the probabilists' family, H_{k+1} = x H_k - k H_{k-1}.
The expansion adds up its term coefficients by Hermite degree once, and both
sums are evaluated by ``numpy.polynomial.hermite_e.hermeval``.  The index set
of each order is enumerated once, on first use, into a table from which every
expansion of that order forms its coefficients in one array product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermeval
from scipy import special

from .cumulants import MAX_CUMULANT_ORDER, TailCumulants
from .errors import DomainError
from .weights import _check_int

# an order-N expansion needs the cumulants through order N
MAX_EXPANSION_ORDER = MAX_CUMULANT_ORDER
MAX_HERMITE_DEGREE = 50

# phi and the Hermite sums are evaluated at x clipped to +-40: phi(+-40) is
# exactly 0.0, so phi is unchanged and 0 * sum never makes a NaN
_X_CLIP = 40.0

# negative_pdf_mass integrates over [-12, 12] with this many trapezoid nodes
_NEG_MASS_HALF_WIDTH = 12.0
_NEG_MASS_POINTS = 4001

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class IndexVector:
    """One Edgeworth index (k_3, ..., k_N) for an order-N expansion."""

    N: int
    k: tuple

    @property
    def weight(self):
        """sum (m-2) k_m, the order of the term in the expansion parameter."""
        return sum((m - 2) * km for m, km in zip(range(3, self.N + 1), self.k))

    @property
    def zeta_index(self):
        """Hermite degree sum m k_m - 1 attached to this index in the CDF."""
        return sum(m * km for m, km in zip(range(3, self.N + 1), self.k)) - 1


@dataclass(frozen=True)
class EdgeworthExpansion:
    """Order-N expansion: terms are (index, coefficient, hermite_degree).

    ``coef[d]`` is the sum of the coefficients of the degree-d terms.
    """

    N: int
    terms: tuple
    cumulants: TailCumulants
    coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        deg = np.array([t[2] for t in self.terms], dtype=int)
        c = np.array([t[1] for t in self.terms], dtype=float)
        object.__setattr__(self, "coef", np.bincount(deg, weights=c, minlength=1))


def enumerate_eta(n_order):
    """Index vectors of the order-``n_order`` expansion, lexicographic.

    Returns a list of :class:`IndexVector` sorted by the tuple ``k``.
    """
    n_order = _check_int(n_order, "expansion order", 2, MAX_EXPANSION_ORDER)

    def walk(m, budget):
        # (k_m, ..., k_N) of weight at most budget, k_m ascending: lexicographic
        if m > n_order:
            yield ()
            return
        for km in range(budget // (m - 2) + 1):
            for rest in walk(m + 1, budget - (m - 2) * km):
                yield (km, *rest)

    return [IndexVector(N=n_order, k=k) for k in walk(3, n_order - 2) if any(k)]


def hermite(k, x):
    """Probabilists' Hermite polynomial H_k(x), scalar or array.

    Degrees up to 50 are supported; ``hermeval`` loses no accuracy in that
    range for the arguments of interest (|x| up to ~15).
    """
    k = _check_int(k, "Hermite degree", 0, MAX_HERMITE_DEGREE)
    xa = np.asarray(x, dtype=float)
    out = hermeval(xa, np.eye(k + 1)[k])
    return float(out) if xa.ndim == 0 else out


@lru_cache(maxsize=None)
def _index_table(n_order):
    """(index vectors, exponents K, prod_m k_m!, Hermite degrees, m!) of order
    ``n_order``: row i of K is the i-th vector's (k_3, ..., k_N)."""
    etas = tuple(enumerate_eta(n_order))
    K = np.array([iv.k for iv in etas], dtype=float).reshape(len(etas), n_order - 2)
    kfact = np.array([math.prod(map(math.factorial, iv.k)) for iv in etas], dtype=float)
    mfact = np.array([math.factorial(m) for m in range(3, n_order + 1)], dtype=float)
    return etas, K, kfact, tuple(iv.zeta_index for iv in etas), mfact


def build_expansion(tc, n_order):
    """Assemble the order-``n_order`` expansion from tail cumulants ``tc``:
    c(k) = prod_m base_m^{k_m} / prod_m k_m!, base_m = kappa_m / m!."""
    n_order = _check_int(n_order, "expansion order", 2, MAX_EXPANSION_ORDER)
    etas, K, kfact, degs, mfact = _index_table(n_order)
    if tc.max_order < n_order:
        raise DomainError(
            f"order-{n_order} expansion needs cumulants through order "
            f"{n_order}, have {tc.max_order}"
        )
    base = np.array(tc.kappa[1 : n_order - 1], dtype=float) / mfact
    with np.errstate(over="ignore"):  # downstream finiteness checks report it
        coeffs = np.prod(base**K, axis=1) / kfact
    terms = tuple(zip(etas, coeffs.tolist(), degs))
    return EdgeworthExpansion(N=n_order, terms=terms, cumulants=tc)


def _phi_hermeval(x, coef):
    """phi(x) times the Hermite series ``coef``, at x clipped to +-40.  A
    coefficient that overflows the series gives a non-finite value, not a
    RuntimeWarning; finiteness checks downstream report it as a failure."""
    xc = np.clip(x, -_X_CLIP, _X_CLIP)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(-0.5 * xc * xc) / _SQRT2PI * hermeval(xc, coef)


def edgeworth_cdf(expansion, x):
    """CDF of the expansion: Phi(x) minus the Hermite correction.

    Not clamped to [0, 1]; truncation can push values slightly outside near
    the tails and callers decide how to treat that.
    """
    xa = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(-xa / _SQRT2) - _phi_hermeval(xa, expansion.coef)
    return float(out) if xa.ndim == 0 else out


def edgeworth_pdf(expansion, x):
    """Density of the expansion, the term-by-term derivative of the CDF."""
    xa = np.asarray(x, dtype=float)
    out = _phi_hermeval(xa, np.concatenate(([1.0], expansion.coef)))
    return float(out) if xa.ndim == 0 else out


def negative_pdf_mass(expansion):
    """Integral of the negative part of the density over [-12, 12], by the
    trapezoid rule: max(0, -density) has kinks, so a higher-order rule gains
    nothing.  A truncated expansion need not be nonnegative; this measures
    how much mass sits below zero, as a quality diagnostic.
    """
    x = np.linspace(-_NEG_MASS_HALF_WIDTH, _NEG_MASS_HALF_WIDTH, _NEG_MASS_POINTS)
    neg = np.clip(-edgeworth_pdf(expansion, x), 0.0, None)
    return float(np.trapezoid(neg, x))
