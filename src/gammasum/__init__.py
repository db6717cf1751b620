"""Distribution of Z = sum_n lambda_n (eta_n - 1) for i.i.d. gamma eta_n.

Weighted infinite sums of centered gamma random variables: exact tail power
sums, tail cumulants and Berry-Esseen bounds, Edgeworth expansions of the
normalized tail, the finite head's exact gamma-mixture distribution, and
the head/tail convolution producing the full distribution of Z, validated
against a Monte-Carlo oracle.

Submodules are imported lazily so that `import gammasum` itself stays free
of numpy; the command-line entry point relies on that to cap BLAS thread
pools through environment variables before numpy first loads.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining submodule, or "submodule:attr" when the names
# differ.  The constructor gammasum.cumulants.cumulants is re-exported as
# tail_cumulants because a plain alias would collide with the submodule
# attribute the import system plants on the package.
_EXPORTS = {
    "DomainError": "errors",
    "NumericalError": "errors",
    "DegenerateTailError": "errors",
    "SpecFormatError": "errors",
    "PowerLawWeights": "weights",
    "ExplicitWeights": "weights",
    "GammaSumSpec": "weights",
    "make_power_law_normalized": "weights",
    "tail_power_sum": "weights",
    "TailCumulants": "cumulants",
    "tail_cumulants": "cumulants:cumulants",
    "sigma_M": "cumulants",
    "berry_esseen_bound": "cumulants",
    "be_condition_ratio": "cumulants",
    "support_lower_bound": "cumulants",
    "IndexVector": "edgeworth",
    "EdgeworthExpansion": "edgeworth",
    "enumerate_eta": "edgeworth",
    "hermite": "edgeworth",
    "build_expansion": "edgeworth",
    "edgeworth_cdf": "edgeworth",
    "edgeworth_pdf": "edgeworth",
    "negative_pdf_mass": "edgeworth",
    "LevyTailDensity": "levy",
    "levy_tail_density": "levy",
    "levy_density": "levy",
    "cumulant_via_integral": "levy",
    "re_log_cf": "levy",
    "HeadCF": "finite_sum",
    "make_head_cf": "finite_sum",
    "DistributionTable": "finite_sum",
    "default_grid": "finite_sum",
    "invert_to_table": "finite_sum",
    "PipelineConfig": "pipeline",
    "default_z_grid": "pipeline",
    "z_cdf": "pipeline",
    "m_robustness": "pipeline",
    "SampleBatch": "mc_oracle",
    "sample_z": "mc_oracle",
    "sample_head": "mc_oracle",
    "sample_tail": "mc_oracle",
    "ks_distance": "mc_oracle",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        target = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'gammasum' has no attribute {name!r}") from None
    module, _, attr = target.partition(":")
    value = getattr(importlib.import_module(f".{module}", __name__), attr or name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
