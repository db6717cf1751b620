"""Monte-Carlo cross-checks of every analytic surface in the package.

Sampling Z is easy (gamma variates and a weighted sum), so the sampler
is the oracle of last resort: any table or expansion that disagrees with
a large sample is wrong, full stop.  This script runs those comparisons
at moderate sample sizes.  The KS sampling noise floor at n samples is
about 1.63 / sqrt(n) at the 1% level.
"""

import math

import numpy as np

from gammasum import (
    PipelineConfig,
    berry_esseen_bound,
    build_expansion,
    default_z_grid,
    edgeworth_cdf,
    ks_distance,
    make_power_law_normalized,
    sample_tail,
    sample_z,
    tail_cumulants,
    z_cdf,
)
from scipy.special import erfc

spec = make_power_law_normalized(0.75, 0.5)
n = 200_000
noise = 1.63 / math.sqrt(n)
print(f"n = {n} samples per check, KS noise floor about {noise:.4f}")
print()

# scaled tail vs normal: error must sit inside the Berry-Esseen band
print("scaled tail vs standard normal")
for m in (5, 10, 20):
    batch = sample_tail(spec, m, "normal_tail", n, seed=11 * m, n_terms=512)
    d = ks_distance(batch, lambda v: 0.5 * erfc(-v / math.sqrt(2.0)))
    print(
        f"  M = {m:2d}: KS = {d:.4f}, BE bound + noise = "
        f"{berry_esseen_bound(spec, m) + 3 * noise:.4f}"
    )
print()

# scaled tail vs its order-5 Edgeworth expansion: sharper than normal
print("scaled tail vs order-5 Edgeworth")
for m in (5, 10, 20):
    ex = build_expansion(tail_cumulants(spec, m, 5), 5)
    batch = sample_tail(spec, m, "normal_tail", n, seed=11 * m, n_terms=512)
    d = ks_distance(batch, lambda v: edgeworth_cdf(ex, v))
    print(f"  M = {m:2d}: KS = {d:.4f}")
print()

# full Z table vs direct samples of Z
tab = z_cdf(PipelineConfig(spec=spec, M=10, N=5, grid=default_z_grid(spec, 801)))
batch = sample_z(spec, "normal_tail", n, seed=404)
d = ks_distance(batch, lambda v: np.interp(v, tab.grid, tab.cdf))
print(f"assembled Z table vs {n} direct samples: KS = {d:.4f}")

# same seed, same stream: sampling is reproducible bit for bit
again = sample_z(spec, "normal_tail", n, seed=404)
assert np.array_equal(batch.values, again.values)
print("re-sampling with the same seed reproduced the batch exactly")
