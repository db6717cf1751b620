"""Distribution of Z = sum_n lambda_n (eta_n - 1) for i.i.d. gamma eta_n.

Weighted infinite sums of centered gamma random variables: exact tail power
sums, tail cumulants and Berry-Esseen bounds, Edgeworth expansions of the
normalized tail, the finite head's exact gamma-mixture distribution, and
the head/tail convolution producing the full distribution of Z, validated
against a Monte-Carlo oracle.

The cumulant constructor gammasum.cumulants.cumulants is exported as
tail_cumulants, because the name cumulants is the submodule.
"""

__version__ = "0.1.0"

from .cumulants import (
    TailCumulants,
    be_condition_ratio,
    berry_esseen_bound,
    sigma_M,
    support_lower_bound,
)
from .cumulants import cumulants as tail_cumulants
from .edgeworth import (
    EdgeworthExpansion,
    IndexVector,
    build_expansion,
    edgeworth_cdf,
    edgeworth_pdf,
    enumerate_eta,
    hermite,
    negative_pdf_mass,
)
from .errors import DegenerateTailError, DomainError, NumericalError, SpecFormatError
from .finite_sum import (
    DistributionTable,
    HeadCF,
    default_grid,
    invert_to_table,
    make_head_cf,
)
from .levy import (
    LevyTailDensity,
    cumulant_via_integral,
    levy_density,
    levy_tail_density,
    re_log_cf,
)
from .mc_oracle import SampleBatch, ks_distance, sample_head, sample_tail, sample_z
from .pipeline import PipelineConfig, default_z_grid, m_robustness, z_cdf
from .weights import (
    ExplicitWeights,
    GammaSumSpec,
    PowerLawWeights,
    make_power_law_normalized,
    tail_power_sum,
)

__all__ = [
    "DegenerateTailError", "DomainError", "NumericalError", "SpecFormatError",
    "ExplicitWeights", "GammaSumSpec", "PowerLawWeights",
    "make_power_law_normalized", "tail_power_sum",
    "TailCumulants", "tail_cumulants", "sigma_M", "berry_esseen_bound",
    "be_condition_ratio", "support_lower_bound",
    "IndexVector", "EdgeworthExpansion", "enumerate_eta", "hermite",
    "build_expansion", "edgeworth_cdf", "edgeworth_pdf", "negative_pdf_mass",
    "LevyTailDensity", "levy_tail_density", "levy_density",
    "cumulant_via_integral", "re_log_cf",
    "HeadCF", "make_head_cf", "DistributionTable", "default_grid", "invert_to_table",
    "PipelineConfig", "default_z_grid", "z_cdf", "m_robustness",
    "SampleBatch", "sample_z", "sample_head", "sample_tail", "ks_distance",
]
