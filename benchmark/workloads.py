"""The four benchmark workloads: sec6, heads, sweep and oracle.

Each workload builds its inputs and references from the seed when it is
constructed (untimed), then hands out rounds of operations.  A round is a
fixed composition of work, so rounds of one workload are comparable and the
benchmark can report the median round rate.  ``run(op)`` is the timed call
into gammasum; ``check(op, out)`` verifies the output afterwards (untimed)
and returns True when it is correct.

Calls go through module attributes (``finite_sum.invert_to_table``), never
through names bound here at import time, so that a traced run sees the
wrappers installed by :mod:`spans`.

See README.md next to this file for why each workload exists and which
layers it loads.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil

import numpy as np

from gammasum import cli, cumulants, edgeworth, finite_sum, levy, mc_oracle, pipeline
from gammasum.weights import (
    ExplicitWeights,
    GammaSumSpec,
    PowerLawWeights,
    make_power_law_normalized,
)

import references

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "recorded.npz")
# every STRIDE-th grid point of a recorded table is stored and compared
STRIDE = 5

Z_GRID = np.linspace(-8.0, 8.0, 2001)
Z_ORDER = 5
Z_REF_POINTS = Z_GRID[::50]  # 41 points, spacing 0.4

SEC6_CHECK_TOL = 1e-6
SEC6_M2_TOL = 5e-5
HEADS_CHECK_TOL = 1e-7
HEAD_M2_TOL = 1e-10
SWEEP_KAPPA_RTOL = 1e-8

HEADS_R = (0.5, 1.0, 2.0)
HEADS_M = (2, 3, 8, 20)


def reference_spec(r=0.5):
    """The paper's power law, lambda_n = C n^(-3/4), normalized at shape r."""
    return make_power_law_normalized(0.75, r)


def monotone_in_unit(cdf):
    cdf = np.asarray(cdf, dtype=float)
    return bool(
        np.all(np.isfinite(cdf))
        and np.all(cdf >= 0.0)
        and np.all(cdf <= 1.0)
        and np.all(np.diff(cdf) >= 0.0)
    )


def read_table_csv(path):
    """(x, cdf, pdf or None) from a table CSV written by the CLI."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    pdf = data[:, header.index("pdf")] if "pdf" in header else None
    return data[:, 0], data[:, 1], pdf


def load_recorded():
    with np.load(DATA) as doc:
        return {k: doc[k] for k in doc.files}


def matches_recorded(recorded, key, cdf, pdf, tol):
    """Recorded points of one table agree with ``cdf`` / ``pdf`` within ``tol``."""
    if not np.allclose(cdf[::STRIDE], recorded[f"{key}_cdf"], rtol=0.0, atol=tol):
        return False
    rec_pdf = recorded.get(f"{key}_pdf")
    if rec_pdf is None:
        return pdf is None
    return pdf is not None and np.allclose(pdf[::STRIDE], rec_pdf, rtol=0.0, atol=tol)


def head_m2_error(spec, table):
    """err_head_m2: sup |M=2 head table - closed-form gamma CDF|."""
    return float(np.max(np.abs(table.cdf - references.head_m2_cdf(spec, table.grid))))


def z_m2_error(cdf, z_ref):
    """err_z_m2: sup over the 41 reference points of |M=2 Z table - reference|."""
    return float(np.max(np.abs(np.asarray(cdf)[::50] - z_ref)))


def fresh_head_m2_error():
    """err_head_m2 from a new r = 1/2 head table, for workloads without one."""
    spec = reference_spec()
    tab = finite_sum.invert_to_table(
        finite_sum.make_head_cf(spec, 2), finite_sum.default_grid(spec, 2)
    )
    return head_m2_error(spec, tab)


def fresh_z_m2_error():
    """err_z_m2 from a new reference-spec Z table, for workloads without one."""
    spec = reference_spec()
    z = pipeline.z_cdf(pipeline.PipelineConfig(spec=spec, M=2, N=Z_ORDER, grid=Z_GRID))
    return z_m2_error(z.cdf, references.z_m2_cdf(spec, Z_ORDER, Z_REF_POINTS))


class Sec6:
    """``gammasum repro-sec6`` in process: four order-5 Z tables and their spread."""

    def __init__(self, seed, workdir):
        # the paper's study has no free inputs, so the seed changes nothing
        self.workdir = workdir
        self.spec = reference_spec()
        self.recorded = load_recorded()
        self.z_ref = references.z_m2_cdf(self.spec, Z_ORDER, Z_REF_POINTS)
        self.err_z_m2 = None
        self._n = itertools.count()

    def rounds(self):
        while True:
            yield [None]

    def items(self, op):
        return 4

    def run(self, op):
        outdir = os.path.join(self.workdir, f"sec6_{next(self._n)}")
        return outdir, cli.dispatch(["repro-sec6", "--outdir", outdir])

    def check(self, op, out):
        outdir, code = out
        try:
            if code != 0:
                return False
            ok = True
            for m in (2, 5, 10, 20):
                x, cdf, pdf = read_table_csv(os.path.join(outdir, f"z_M{m}.csv"))
                ok &= np.array_equal(x, Z_GRID) and monotone_in_unit(cdf)
                if m == 2:
                    err = z_m2_error(cdf, self.z_ref)
                    self.err_z_m2 = err
                    ok &= err <= SEC6_M2_TOL
                else:
                    ok &= matches_recorded(
                        self.recorded, f"sec6_M{m}", cdf, pdf, SEC6_CHECK_TOL
                    )
            return bool(ok)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def accuracy(self):
        err_z_m2 = self.err_z_m2 if self.err_z_m2 is not None else fresh_z_m2_error()
        return err_z_m2, fresh_head_m2_error()


class Heads:
    """Standalone head inversions, the ``head`` subcommand path.

    A round visits every (r, M) pair of HEADS_R x HEADS_M once, in an order
    drawn from the seed, so every round does the same work.
    """

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.recorded = load_recorded()
        self.specs = {r: reference_spec(r) for r in HEADS_R}
        self.pairs = [(r, m) for r in HEADS_R for m in HEADS_M]
        self.err_head_m2 = None

    def rounds(self):
        while True:
            yield [self.pairs[i] for i in self.rng.permutation(len(self.pairs))]

    def items(self, op):
        return 1

    def run(self, op):
        r, m = op
        spec = self.specs[r]
        return finite_sum.invert_to_table(
            finite_sum.make_head_cf(spec, m), finite_sum.default_grid(spec, m)
        )

    def check(self, op, tab):
        r, m = op
        spec = self.specs[r]
        ok = monotone_in_unit(tab.cdf) and (tab.pdf is not None) == (r * (m - 1) > 1.0)
        if m == 2:
            err = head_m2_error(spec, tab)
            if r == 0.5:
                self.err_head_m2 = err
            return ok and err <= HEAD_M2_TOL
        return ok and matches_recorded(
            self.recorded, f"heads_r{r:g}_M{m}", tab.cdf, tab.pdf, HEADS_CHECK_TOL
        )

    def accuracy(self):
        err_head_m2 = self.err_head_m2
        return fresh_z_m2_error(), err_head_m2 if err_head_m2 is not None else fresh_head_m2_error()


class Sweep:
    """Cheap analytic queries over a seed-drawn mix of weight sequences.

    A round is one explicit list of 2000 weights (fixed for the run) plus
    five power laws with gamma in [0.6, 1.5] and r in [0.5, 2]; each
    operation draws four truncation levels M from 1..200.  The Lévy and
    expansion queries use the first M, which is stratified over the round.
    """

    N_ORDERS = tuple(range(2, 13))
    LEVY_K = (3, 4)
    POWER_LAWS_PER_ROUND = 5

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        n = np.arange(1, 2001, dtype=float)
        g = self.rng.uniform(0.6, 1.0)
        lam = np.sort(n**-g * self.rng.uniform(0.5, 1.5, n.size))[::-1]
        r = float(self.rng.uniform(0.5, 2.0))
        lam *= math.sqrt(r / float(np.sum(lam * lam)))
        self.explicit = GammaSumSpec(r=r, weights=ExplicitWeights(tuple(lam)))

    def _strata(self, n, lo, hi):
        """One draw from each of n equal slices of [lo, hi], in random order."""
        rng = self.rng
        return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n

    def rounds(self):
        k = self.POWER_LAWS_PER_ROUND
        while True:
            # stratified draws give every round the same spread of cost
            gammas = self._strata(k, 0.6, 1.5)
            rs = 0.5 * 4.0 ** self._strata(k, 0.0, 1.0)
            specs = [self.explicit] + [
                GammaSumSpec(r=float(r), weights=PowerLawWeights(float(g), 1.0))
                for g, r in zip(gammas, rs)
            ]
            first_ms = self._strata(len(specs), 1.0, 201.0).astype(int)
            ops = []
            for spec, m0 in zip(specs, first_ms):
                ops.append(
                    {
                        "spec": spec,
                        "ms": [int(m0)] + [int(m) for m in self.rng.integers(1, 201, size=3)],
                        "us": [float(u) for u in self.rng.uniform(0.1, 20.0, size=4)],
                        "xs": [float(x) for x in self.rng.uniform(0.05, 5.0, size=4)],
                    }
                )
            yield ops

    def items(self, op):
        # per M: cumulants, BE bound, BE ratio, support bound; per order N:
        # build, cdf, pdf, negative mass; then the Lévy queries in run()
        return (
            4 * len(op["ms"])
            + 4 * len(self.N_ORDERS)
            + len(self.LEVY_K)
            + 1
            + len(op["xs"])
            + len(op["us"])
        )

    def run(self, op):
        spec, ms = op["spec"], op["ms"]
        per_m = []
        for m in ms:
            per_m.append(
                (
                    cumulants.cumulants(spec, m, 20),
                    cumulants.berry_esseen_bound(spec, m),
                    cumulants.be_condition_ratio(spec, m),
                    cumulants.support_lower_bound(spec, m),
                )
            )
        tc = per_m[0][0]
        expansions = []
        for n_order in self.N_ORDERS:
            ex = edgeworth.build_expansion(tc, n_order)
            expansions.append(
                (
                    edgeworth.edgeworth_cdf(ex, Z_GRID),
                    edgeworth.edgeworth_pdf(ex, Z_GRID),
                    edgeworth.negative_pdf_mass(ex),
                )
            )
        via_integral = [levy.cumulant_via_integral(spec, ms[0], k) for k in self.LEVY_K]
        d = levy.levy_tail_density(spec, ms[0])
        densities = [levy.levy_density(d, x) for x in op["xs"]]
        a_m = [levy.re_log_cf(spec, ms[0], u) for u in op["us"]]
        return per_m, expansions, via_integral, densities, a_m

    def check(self, op, out):
        per_m, expansions, via_integral, densities, a_m = out
        ok = all(abs(tc.kappa_k(2) - 1.0) <= 1e-12 for tc, *_ in per_m)
        tc = per_m[0][0]
        for k, v in zip(self.LEVY_K, via_integral):
            ok &= abs(v / tc.kappa_k(k) - 1.0) <= SWEEP_KAPPA_RTOL
        for cdf, pdf, neg in expansions:
            ok &= bool(np.all(np.isfinite(cdf)) and np.all(np.isfinite(pdf)))
            ok &= math.isfinite(neg) and neg >= 0.0
        ok &= all(math.isfinite(v) and v > 0.0 for v in densities)
        ok &= all(math.isfinite(v) and v >= 0.0 for v in a_m)
        return bool(ok)

    def accuracy(self):
        return fresh_z_m2_error(), fresh_head_m2_error()


class Oracle:
    """Monte-Carlo draws of Z at the default truncation, KS against a table."""

    N_SAMPLES = 20000

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.spec = reference_spec()
        tab = pipeline.z_cdf(
            pipeline.PipelineConfig(spec=self.spec, M=10, N=Z_ORDER, grid=Z_GRID)
        )
        self.grid, self.cdf = tab.grid, tab.cdf

    def rounds(self):
        while True:
            yield [int(self.rng.integers(0, 2**63 - 1))]

    def items(self, op):
        return self.N_SAMPLES

    def run(self, op):
        batch = mc_oracle.sample_z(self.spec, "normal_tail", self.N_SAMPLES, op)
        ks = mc_oracle.ks_distance(batch, lambda v: np.interp(v, self.grid, self.cdf))
        return batch.n_samples, batch.n_terms, bool(np.all(np.isfinite(batch.values))), ks

    def check(self, op, out):
        n_samples, n_terms, finite, ks = out
        return (
            n_samples == self.N_SAMPLES
            and n_terms == 4096
            and finite
            and ks < 1.95 / math.sqrt(n_samples)
        )

    def accuracy(self):
        return fresh_z_m2_error(), fresh_head_m2_error()


WORKLOADS = {"sec6": Sec6, "heads": Heads, "sweep": Sweep, "oracle": Oracle}
