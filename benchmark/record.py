"""Record the tables that the sec6 and heads checks compare against.

Run from the repository root, on the commit whose outputs are to become the
reference:

    python3 benchmark/record.py

It writes every STRIDE-th point of the CDF (and PDF, when present) of the
repro-sec6 tables at M in {5, 10, 20} and of the head tables at M >= 3 for
each r in HEADS_R to benchmark/data/recorded.npz.  M = 2 tables are checked
against closed-form and quadrature references instead (references.py).
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from gammasum import cli, finite_sum  # noqa: E402


def main():
    out = {}
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    try:
        if cli.dispatch(["repro-sec6", "--outdir", work]) != 0:
            raise SystemExit("repro-sec6 failed")
        for m in (5, 10, 20):
            _, cdf, pdf = W.read_table_csv(os.path.join(work, f"z_M{m}.csv"))
            out[f"sec6_M{m}_cdf"] = cdf[:: W.STRIDE]
            if pdf is not None:
                out[f"sec6_M{m}_pdf"] = pdf[:: W.STRIDE]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # a benchmark run still uses it
    for r in W.HEADS_R:
        spec = W.reference_spec(r)
        for m in W.HEADS_M:
            if m < 3:
                continue
            tab = finite_sum.invert_to_table(
                finite_sum.make_head_cf(spec, m), finite_sum.default_grid(spec, m)
            )
            out[f"heads_r{r:g}_M{m}_cdf"] = tab.cdf[:: W.STRIDE]
            if tab.pdf is not None:
                out[f"heads_r{r:g}_M{m}_pdf"] = tab.pdf[:: W.STRIDE]
    os.makedirs(os.path.dirname(W.DATA), exist_ok=True)
    np.savez_compressed(W.DATA, **out)
    print(f"wrote {len(out)} arrays to {os.path.relpath(W.DATA, ROOT)}")


if __name__ == "__main__":
    main()
