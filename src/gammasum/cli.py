"""Command-line front end.

Subcommands: cumulants, edgeworth, head, zdist, mc, validate, repro-sec6.
Model specs travel as JSON ({"r": ..., "weights": {...}}), tables as CSV
with a header row and full round-trip precision, samples as raw
little-endian 64-bit floats.  Every output file except the zdist summary
gets a sibling <name>.manifest.json recording the command, resolved
configuration, library version, and warnings; re-running with the same
configuration reproduces the artifact bit for bit.  Without --out,
cumulants and edgeworth print their result instead, with no manifest.

Exit codes: 0 on success, 2 for usage errors and bad inputs, 3 when a
computation fails its accuracy checks, overflows, or yields a NaN or inf.
"""

import argparse
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .cumulants import be_condition_ratio, berry_esseen_bound, cumulants, sigma_M
from .edgeworth import edgeworth_cdf, edgeworth_pdf
from .errors import DomainError, NumericalError, SpecFormatError
from .finite_sum import DistributionTable, invert_to_table, make_head_cf
from .mc_oracle import _MODES, SampleBatch, ks_distance, sample_z
from .pipeline import PipelineConfig, _expansion_for, m_robustness, z_cdf
from .weights import make_power_law_normalized, spec_from_dict, spec_to_dict

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
    parts = str(text).split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"grid must be lo:hi:n with numeric parts: {exc}") from exc
    if not (lo < hi and np.isfinite(hi - lo)):
        raise DomainError(f"grid needs lo < hi with a finite span hi - lo, got {text!r}")
    if n < 2:
        raise DomainError(f"grid needs at least 2 points, got {n}")
    return np.linspace(lo, hi, n)


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
    buf = io.StringIO()
    np.savetxt(buf, data, delimiter=",", fmt="%.17g", header=header, comments="")
    return buf.getvalue()


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
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        finite = np.all(np.isfinite(data))
        if header[:2] != ["x", "cdf"] or data.shape[1] != len(header) or not finite:
            raise DomainError("need finite x,cdf[,pdf] columns under a matching header")
        pdf = data[:, header.index("pdf")] if "pdf" in header else None
        return DistributionTable(grid=data[:, 0], cdf=data[:, 1], pdf=pdf)
    except (ValueError, NumericalError) as exc:
        raise DomainError(f"bad table file {path}: {exc}") from exc


def _load_samples(path):
    values = np.fromfile(path, dtype="<f8")
    if values.size * 8 != os.path.getsize(path) or not np.all(np.isfinite(values)):
        raise DomainError(f"sample file {path} must hold finite little-endian float64s")
    return SampleBatch(
        values=values,
        seed=0,
        n_terms=0,
        n_samples=values.size,
        mode="external",
        neglected_sd=0.0,
    )


def _cmd_cumulants(args, argv):
    spec = _load_spec(args.spec)
    tc = cumulants(spec, args.M, args.K)
    doc = {
        "sigma_M": sigma_M(spec, args.M),
        "kappa": [tc.kappa_k(k) for k in range(2, args.K + 1)],
        "be_bound": berry_esseen_bound(spec, args.M),
        "be_ratio": be_condition_ratio(spec, args.M),
    }
    config = {"spec": spec_to_dict(spec), "M": args.M, "K": args.K}
    _emit(args.out, doc, "cumulants", argv, config)


def _cmd_edgeworth(args, argv):
    spec = _load_spec(args.spec)
    grid = _parse_grid(args.grid)
    ex = _expansion_for(spec, args.M, args.N)
    cols = [("x", grid), ("cdf", edgeworth_cdf(ex, grid)), ("pdf", edgeworth_pdf(ex, grid))]
    config = {"spec": spec_to_dict(spec), "M": args.M, "N": args.N, "grid": args.grid}
    _emit(args.out, cols, "edgeworth", argv, config)


def _cmd_head(args, argv):
    spec = _load_spec(args.spec)
    grid = _parse_grid(args.grid)
    tab = invert_to_table(make_head_cf(spec, args.M), grid)
    config = {"spec": spec_to_dict(spec), "M": args.M, "grid": args.grid}
    _emit(args.out, _table_columns(tab), "head", argv, config, tab.warnings)


def _cmd_zdist(args, argv):
    spec = _load_spec(args.spec)
    cfg = PipelineConfig(spec=spec, M=args.M, N=args.N, grid=_parse_grid(args.grid))
    robustness, tables = None, {}
    if args.robustness:
        try:
            ms = [int(tok) for tok in args.robustness.split(",")]
        except ValueError as exc:
            raise DomainError(f"--robustness must be comma-separated integers: {exc}")
        robustness, tables = m_robustness(cfg, ms)
    tab = tables.get(args.M) or z_cdf(cfg)

    ks = None
    if args.mc:
        batch = _load_samples(args.mc)
        ks = ks_distance(batch, lambda v: np.interp(v, tab.grid, tab.cdf))

    summary = {
        "ks_vs_mc": ks,
        "robustness": robustness,
        "warnings": list(tab.warnings),
    }
    config = {
        "spec": spec_to_dict(spec),
        "M": args.M,
        "N": args.N,
        "grid": args.grid,
        "robustness": args.robustness,
        "mc": args.mc,
    }
    _emit(args.out, _table_columns(tab), "zdist", argv, config, tab.warnings)
    base = args.out[:-4] if args.out.endswith(".csv") else args.out
    _emit(f"{base}.summary.json", summary)


def _cmd_mc(args, argv):
    spec = _load_spec(args.spec)
    batch = sample_z(spec, args.mode, args.n, args.seed)
    batch.values.astype("<f8").tofile(args.out)
    config = {
        "spec": spec_to_dict(spec),
        "mode": args.mode,
        "n": args.n,
        "seed": args.seed,
        "n_terms": batch.n_terms,
        "neglected_sd": batch.neglected_sd,
        "rng_algorithm": batch.rng_algorithm,
    }
    _write_manifest(args.out, "mc", argv, config)


def _cmd_validate(args, argv):
    tab = _read_table_csv(args.table)
    batch = _load_samples(args.samples)
    ks = ks_distance(batch, lambda v: np.interp(v, tab.grid, tab.cdf))
    _emit(None, {"ks": ks, "n_samples": batch.n_samples})


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
        args.func(args, list(argv))
    except (NumericalError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
