"""Command-line front end.

Subcommands: cumulants, edgeworth, head, zdist, mc, validate, repro-sec6.
Model specs travel as JSON ({"r": ..., "weights": {...}}), tables as CSV
with a header row and full round-trip precision, samples as raw
little-endian 64-bit floats.  Every output file except the zdist summary
gets a sibling <name>.manifest.json recording the command, resolved
configuration, library version, and warnings; re-running with the same
configuration reproduces the artifact bit for bit.  Without --out,
cumulants and edgeworth print their result instead, with no manifest.

Exit codes: 0 on success, 2 for usage errors and bad inputs (sizes too large
to allocate included), 3 when a computation fails its accuracy checks,
overflows, or yields a NaN or inf.
"""

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from warnings import catch_warnings, filterwarnings

import numpy as np

from . import __version__
from .cumulants import be_condition_ratio, berry_esseen_bound, cumulants, sigma_M
from .edgeworth import edgeworth_cdf, edgeworth_pdf
from .errors import DomainError, NumericalError, SpecFormatError
from .finite_sum import DistributionTable, _check_grid, invert_to_table, make_head_cf
from .mc_oracle import _MODES, SampleBatch, ks_distance, sample_z
from .pipeline import PipelineConfig, _expansion_for, m_robustness, z_cdf
from .weights import _check_int, make_power_law_normalized, spec_from_dict, spec_to_dict

_REFERENCE_C = 0.4375
_REFERENCE_C_TOL = 5e-5


def _load_spec(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise SpecFormatError(f"malformed spec JSON in {path}: {exc}") from exc
    return spec_from_dict(doc)


def _parse_grid(text):
    """The grid "lo:hi:n" as n evenly spaced points from lo to hi; the point
    count and the points themselves go through the library's input rules."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"grid must be lo:hi:n with numeric parts: {exc}") from exc
    if not math.isfinite(hi - lo):
        raise DomainError(f"grid needs a finite span hi - lo, got {text!r}")
    return _check_grid(np.linspace(lo, hi, _check_int(n, "grid points", 2)))


def _json_text(doc):
    """Indented strict JSON; a NaN or infinity in ``doc`` is a numerical failure."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"non-finite result {doc}") from exc


def _csv_text(cols):
    """Header row plus %.17g rows; a NaN or infinity is a numerical failure."""
    header = ",".join(name for name, _ in cols)
    data = np.column_stack([np.asarray(c, dtype=float) for _, c in cols])
    if not np.all(np.isfinite(data)):
        raise NumericalError("non-finite value in the output table")
    # the bytes np.savetxt(fmt="%.17g", delimiter=",") writes, in one format
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    return header + "\n" + row * data.shape[0] % tuple(data.ravel().tolist())


def _write_manifest(out_path, command, argv, config, warnings=()):
    doc = {
        "command": command,
        "argv": list(argv),
        "config": config,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "warnings": list(warnings),
    }
    _emit(f"{out_path}.manifest.json", doc)


def _emit(out, payload, *manifest):
    """Write ``payload``, a JSON document (dict) or a table given as (name,
    column) pairs, to the file ``out`` or, when ``out`` is None, to stdout.
    A file gets a sibling manifest when ``manifest`` holds its command, argv,
    config and optional warnings.  Nothing is written if the payload fails."""
    text = _json_text(payload) if isinstance(payload, dict) else _csv_text(payload)
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w") as fh:
        fh.write(text)
    if manifest:
        _write_manifest(out, *manifest)


def _table_columns(tab):
    cols = [("x", tab.grid), ("cdf", tab.cdf)]
    if tab.pdf is not None:
        cols.append(("pdf", tab.pdf))
    return cols


def _read_table_csv(path):
    """The table in a CSV file; DomainError for anything that is not a valid one."""
    try:
        with open(path) as fh, catch_warnings():  # a table without rows is rejected below
            filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header not in (["x", "cdf"], ["x", "cdf", "pdf"]) or data.shape[1] != len(header):
            raise DomainError("need finite x,cdf[,pdf] columns under a matching header")
        pdf = data[:, 2] if len(header) == 3 else None
        return DistributionTable(grid=data[:, 0], cdf=data[:, 1], pdf=pdf)
    except (ValueError, NumericalError) as exc:
        raise DomainError(f"bad table file {path}: {exc}") from exc


def _manifest(args, argv, **resolved):
    """(command, argv, config) of a sibling manifest.  The config is the
    resolved spec, then the command's flags but --out in parser order, then
    the values the command resolved itself."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "spec", "out", "func")}
    return args.command, argv, {"spec": spec_to_dict(args.spec), **flags, **resolved}


def _ks_vs_samples(tab, path):
    """(KS distance, its 95 % band, sample count) of the samples in the file
    ``path`` against the table's linearly interpolated CDF.  The band is the
    asymptotic 95 % quantile of the distance for samples drawn from that CDF
    itself."""
    values = np.fromfile(path, dtype="<f8")
    if values.size * 8 != os.path.getsize(path) or not np.all(np.isfinite(values)):
        raise DomainError(f"sample file {path} must hold finite little-endian float64s")
    batch = SampleBatch(
        values=values,
        seed=0,
        n_terms=0,
        n_samples=values.size,
        mode="external",
        neglected_sd=0.0,
    )
    ks = ks_distance(batch, lambda v: np.interp(v, tab.grid, tab.cdf))
    return ks, 1.36 / math.sqrt(values.size), values.size


def _cmd_cumulants(args, argv):
    tc = cumulants(args.spec, args.M, args.K)
    doc = {
        "sigma_M": sigma_M(args.spec, args.M),
        "kappa": [tc.kappa_k(k) for k in range(2, args.K + 1)],
        "be_bound": berry_esseen_bound(args.spec, args.M),
        "be_ratio": be_condition_ratio(args.spec, args.M),
    }
    _emit(args.out, doc, *_manifest(args, argv))


def _cmd_edgeworth(args, argv):
    grid = _parse_grid(args.grid)
    ex = _expansion_for(args.spec, args.M, args.N)
    cols = [("x", grid), ("cdf", edgeworth_cdf(ex, grid)), ("pdf", edgeworth_pdf(ex, grid))]
    _emit(args.out, cols, *_manifest(args, argv))


def _cmd_head(args, argv):
    grid = _parse_grid(args.grid)
    tab = invert_to_table(make_head_cf(args.spec, args.M), grid)
    _emit(args.out, _table_columns(tab), *_manifest(args, argv), tab.warnings)


def _cmd_zdist(args, argv):
    cfg = PipelineConfig(spec=args.spec, M=args.M, N=args.N, grid=_parse_grid(args.grid))
    robustness, tables = None, {}
    if args.robustness:
        try:
            ms = [int(tok) for tok in args.robustness.split(",")]
        except ValueError as exc:
            raise DomainError(f"--robustness must be comma-separated integers: {exc}")
        robustness, tables = m_robustness(cfg, ms)
    tab = tables.get(args.M) or z_cdf(cfg)

    ks, band, _ = _ks_vs_samples(tab, args.mc) if args.mc else (None, None, None)
    summary = {
        "ks_vs_mc": ks,
        "ks_band_95": band,
        "robustness": robustness,
        "warnings": list(tab.warnings),
    }
    _emit(args.out, _table_columns(tab), *_manifest(args, argv), tab.warnings)
    base = args.out[:-4] if args.out.endswith(".csv") else args.out
    _emit(f"{base}.summary.json", summary)


def _cmd_mc(args, argv):
    batch = sample_z(args.spec, args.mode, args.n, args.seed)
    batch.values.astype("<f8").tofile(args.out)
    resolved = {k: getattr(batch, k) for k in ("n_terms", "neglected_sd", "rng_algorithm")}
    _write_manifest(args.out, *_manifest(args, argv, **resolved))


def _cmd_validate(args, argv):
    ks, band, n = _ks_vs_samples(_read_table_csv(args.table), args.samples)
    _emit(None, {"ks": ks, "ks_band_95": band, "n_samples": n})


def _cmd_repro(args, argv):
    """Reference workflow: r=1/2, gamma=3/4, N=5, tables for M in {2,5,10,20}."""
    os.makedirs(args.outdir, exist_ok=True)
    spec = make_power_law_normalized(0.75, 0.5)
    c_value = spec.weights.scale
    c_err = abs(c_value - _REFERENCE_C)
    if c_err > _REFERENCE_C_TOL:
        raise NumericalError(
            f"normalization constant {c_value!r} misses the reference "
            f"{_REFERENCE_C} by {c_err:.2e}"
        )

    grid_text = "-8:8:2001"
    grid = _parse_grid(grid_text)
    ms = (2, 5, 10, 20)
    config = {
        "spec": spec_to_dict(spec),
        "N": 5,
        "M_values": list(ms),
        "grid": grid_text,
    }

    spec_path = os.path.join(args.outdir, "spec.json")
    _emit(spec_path, spec_to_dict(spec), "repro-sec6", argv, config)

    base = PipelineConfig(spec=spec, M=ms[0], N=5, grid=grid)
    robustness, tables = m_robustness(base, ms)
    warnings = {}
    for m, tab in tables.items():
        warnings[str(m)] = list(tab.warnings)
        path = os.path.join(args.outdir, f"z_M{m}.csv")
        _emit(path, _table_columns(tab), "repro-sec6", argv, {**config, "M": m}, tab.warnings)

    summary = {
        "C": c_value,
        "C_reference": _REFERENCE_C,
        "C_abs_error": c_err,
        "robustness": robustness,
        "M_values": list(ms),
        "N": 5,
        "grid": grid_text,
        "warnings": warnings,
    }
    _emit(os.path.join(args.outdir, "summary.json"), summary, "repro-sec6", argv, config)


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gammasum",
        description="Distributional tables and bounds for centered weighted gamma sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cumulants", help="tail cumulants, sigma_M, and the BE bound")
    p.add_argument("--spec", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cumulants)

    p = sub.add_parser("edgeworth", help="expansion CDF/PDF of the normalized tail")
    p.add_argument("--spec", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_edgeworth)

    p = sub.add_parser("head", help="exact head distribution from its gamma-mixture series")
    p.add_argument("--spec", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_head)

    p = sub.add_parser("zdist", help="full distribution table for Z")
    p.add_argument("--spec", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--robustness", help="comma-separated truncation levels")
    p.add_argument("--mc", help="sample file for a KS comparison")
    p.set_defaults(func=_cmd_zdist)

    p = sub.add_parser("mc", help="draw Monte-Carlo samples of Z")
    p.add_argument("--spec", required=True)
    p.add_argument("--mode", choices=_MODES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("validate", help="KS distance of a table against samples")
    p.add_argument("--table", required=True)
    p.add_argument("--samples", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "repro-sec6",
        help="reference workflow: r=1/2 power-law spec, N=5, M in {2,5,10,20}",
    )
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=_cmd_repro)

    return parser


def dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "spec" in args:  # the spec file loads before the command's own checks
            args.spec = _load_spec(args.spec)
        args.func(args, list(argv))
    except (NumericalError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
