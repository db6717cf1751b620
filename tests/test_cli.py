"""End-to-end tests of the command-line front end.

Each command runs in-process through dispatch() against temporary files;
subprocess tests check the module entry point and what `import gammasum`
loads.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr, zeta

import gammasum
from gammasum.cli import _load_spec, _parse_grid, dispatch
from gammasum.cumulants import berry_esseen_bound, sigma_M
from gammasum.edgeworth import build_expansion, edgeworth_cdf
from gammasum.cumulants import cumulants as tail_cumulants
from gammasum.errors import DomainError, SpecFormatError
from gammasum.finite_sum import invert_to_table, make_head_cf
from gammasum.mc_oracle import _MODES, sample_z
from gammasum.weights import make_power_law_normalized, spec_to_dict

SPEC = make_power_law_normalized(0.75, 0.5)

SPEC_JSON = {
    "r": 0.5,
    "weights": {
        "kind": "power_law",
        "gamma": 0.75,
        "scale": SPEC.weights.scale,
    },
    "normalized": True,
}


@pytest.fixture
def spec_path(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(SPEC_JSON))
    return str(p)


def write_normal_table(path):
    """A valid x,cdf table file: the standard normal CDF on [-8, 8]."""
    x = np.linspace(-8.0, 8.0, 101)
    np.savetxt(path, np.column_stack([x, ndtr(x)]), delimiter=",", fmt="%.17g",
               header="x,cdf", comments="")


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


class TestGridParser:
    def test_inclusive_endpoints(self):
        g = _parse_grid("-2:3:11")
        assert g[0] == -2.0 and g[-1] == 3.0 and g.size == 11

    # in the last case hi - lo is 2 ulps, so 5 points repeat values
    @pytest.mark.parametrize(
        "bad", ["1:2", "2:1:50", "a:b:c", "0:1:1", "1:2:3:4", "1:1.0000000000000004:5"]
    )
    def test_malformed(self, bad):
        with pytest.raises(DomainError):
            _parse_grid(bad)


class TestDispatchBasics:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()

    def test_missing_spec_file(self, tmp_path, capsys):
        rc = dispatch(
            ["cumulants", "--spec", str(tmp_path / "nope.json"), "--M", "1", "--K", "3"]
        )
        assert rc == 2
        assert capsys.readouterr().err != ""

    def test_malformed_spec_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert dispatch(["cumulants", "--spec", str(p), "--M", "1", "--K", "3"]) == 2
        capsys.readouterr()

    def test_unknown_weight_kind(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"r": 0.5, "weights": {"kind": "mystery"}}))
        assert dispatch(["cumulants", "--spec", str(p), "--M", "1", "--K", "3"]) == 2
        capsys.readouterr()

    def test_malformed_json_is_a_spec_format_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"r": 0.5,')
        with pytest.raises(SpecFormatError):
            _load_spec(str(p))

    @pytest.mark.parametrize(
        "doc, k",
        [
            ({"r": 0.5, "weights": {"kind": "power_law", "gamma": 0.75, "scale": 1e308}}, 3),
            # kappa_5 = 24 r^(-3/2) s_5 / s_2^(5/2) is about 1e450
            ({"r": 1e-300, "weights": {"kind": "power_law", "gamma": 0.75, "scale": 1}}, 5),
            # sigma_M = c sqrt(s_2 / r) = 1e160 / sqrt(1e-300) is beyond 1e308
            ({"r": 1e-300, "weights": {"kind": "explicit", "values": [1e160]}}, 3),
            # sigma_M = C sqrt(zeta(1.5) / r) is about 1e200 / sqrt(r), beyond 1e308
            ({"r": 1e-250, "weights": {"kind": "power_law", "gamma": 0.75, "scale": 1e200}}, 4),
            ({"r": 0.5, "weights": {"kind": "explicit", "values": [1e308, 1e308]}}, 4),
        ],
    )
    def test_overflow_is_a_numerical_failure(self, tmp_path, capsys, doc, k):
        p = tmp_path / "big.json"
        p.write_text(json.dumps(doc))
        assert dispatch(["cumulants", "--spec", str(p), "--M", "1", "--K", str(k)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure:")

    @pytest.mark.parametrize(
        "doc, k",
        [
            ({"r": 0.5, "weights": {"kind": "power_law", "gamma": 0.75, "scale": 1e100}}, 4),
            ({"r": 1e-300, "weights": {"kind": "power_law", "gamma": 0.75, "scale": 1}}, 3),
            ({"r": 1e300, "weights": {"kind": "power_law", "gamma": 0.75, "scale": 1}}, 3),
        ],
        ids=["scale_1e100", "r_1e-300", "r_1e300"],
    )
    def test_scale_free_cumulants_in_range(self, tmp_path, capsys, doc, k):
        # the raw power sums S_k or r^(k-1) sigma_M^k leave the float range
        # here, but every reported value is representable
        p = tmp_path / "big.json"
        p.write_text(json.dumps(doc))
        assert dispatch(["cumulants", "--spec", str(p), "--M", "1", "--K", str(k)]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert len(out["kappa"]) == k - 1 and out["kappa"][0] == 1.0

    @pytest.mark.parametrize(
        "doc, sigma",
        [
            ({"r": 0.5, "weights": {"kind": "power_law", "gamma": 0.75, "scale": 1e160}},
             2.2857713571945415e160),
            ({"r": 0.5, "weights": {"kind": "explicit", "values": [1e200, 1e200]}}, 2e200),
            ({"r": 0.5, "weights": {"kind": "explicit", "values": [1e200, 1]}},
             1.414213562373095e200),
        ],
        ids=["scale_1e160", "list_1e200_1e200", "list_1e200_1"],
    )
    def test_representable_sigma_with_overflowing_square(self, tmp_path, capsys, doc, sigma):
        # S_2 = c^2 s_2 leaves the float range, but sigma_M = c sqrt(s_2 / r)
        # and every kappa are representable
        p = tmp_path / "big.json"
        p.write_text(json.dumps(doc))
        assert dispatch(["cumulants", "--spec", str(p), "--M", "1", "--K", "4"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert out["sigma_M"] == pytest.approx(sigma, rel=1e-15)
        assert len(out["kappa"]) == 3 and out["kappa"][0] == 1.0


class TestCumulantsCommand:
    def test_normalized_sigma_is_one(self, spec_path, capsys):
        assert dispatch(["cumulants", "--spec", spec_path, "--M", "1", "--K", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sigma_M"] == pytest.approx(1.0, abs=1e-12)
        assert out["kappa"][0] == pytest.approx(1.0, abs=1e-10)
        assert len(out["kappa"]) == 3
        assert out["be_bound"] == pytest.approx(berry_esseen_bound(SPEC, 1), rel=1e-12)
        assert "be_ratio" in out

    def test_output_file_with_manifest(self, spec_path, tmp_path, capsys):
        out = tmp_path / "kap.json"
        rc = dispatch(
            ["cumulants", "--spec", spec_path, "--M", "10", "--K", "5",
             "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["sigma_M"] == pytest.approx(sigma_M(SPEC, 10), rel=1e-12)
        man = json.loads((tmp_path / "kap.json.manifest.json").read_text())
        assert man["command"] == "cumulants"
        assert man["config"]["M"] == 10
        assert man["config"]["spec"]["weights"]["kind"] == "power_law"
        assert "created_utc" in man

    def test_non_finite_json_result_exit_3(self, spec_path, monkeypatch, capsys):
        # strict JSON has no NaN: a non-finite result is a numerical failure
        monkeypatch.setattr("gammasum.cli.sigma_M", lambda spec, m: math.nan)
        rc = dispatch(["cumulants", "--spec", spec_path, "--M", "3", "--K", "4"])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("numerical failure: non-finite")


class TestEdgeworthCommand:
    def test_csv_matches_library(self, spec_path, tmp_path, capsys):
        out = tmp_path / "edge.csv"
        rc = dispatch(
            ["edgeworth", "--spec", spec_path, "--M", "10", "--N", "4",
             "--grid=-4:4:81", "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        header, data = read_csv(str(out))
        assert header == ["x", "cdf", "pdf"]
        ex = build_expansion(tail_cumulants(SPEC, 10, 4), 4)
        x = np.linspace(-4.0, 4.0, 81)
        assert np.array_equal(data[:, 0], x)
        assert np.array_equal(data[:, 1], edgeworth_cdf(ex, x))

    def test_non_finite_values_exit_3(self, tmp_path, capsys, monkeypatch):
        spec = tmp_path / "spec.json"
        doc = {"r": 1.0, "weights": {"kind": "explicit", "values": [1.0]}}
        spec.write_text(json.dumps(doc))
        monkeypatch.setattr(
            "gammasum.cli.edgeworth_pdf", lambda ex, x: np.full_like(x, np.nan)
        )
        rc = dispatch(
            ["edgeworth", "--spec", str(spec), "--M", "1", "--N", "9", "--grid=-1:1e15:2"]
        )
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == "" and err.startswith("numerical failure:")

    def test_huge_grid_point_is_exact(self, tmp_path, capsys):
        # phi(1e15) is 0, so the order-9 correction must vanish, not make NaN
        spec = tmp_path / "spec.json"
        doc = {"r": 1.0, "weights": {"kind": "explicit", "values": [1.0]}}
        spec.write_text(json.dumps(doc))
        rc = dispatch(
            ["edgeworth", "--spec", str(spec), "--M", "1", "--N", "9", "--grid=-1:1e15:2"]
        )
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        data = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
        assert data[1].tolist() == [1e15, 1.0, 0.0]


class TestHeadCommand:
    def test_csv_round_trips_library_table(self, spec_path, tmp_path, capsys):
        out = tmp_path / "head.csv"
        rc = dispatch(
            ["head", "--spec", spec_path, "--M", "5", "--grid=-6:6:301",
             "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        header, data = read_csv(str(out))
        assert header == ["x", "cdf", "pdf"]
        tab = invert_to_table(make_head_cf(SPEC, 5), np.linspace(-6.0, 6.0, 301))
        # 17 significant digits survive the file round trip exactly
        assert np.array_equal(data[:, 1], tab.cdf)
        assert np.array_equal(data[:, 2], tab.pdf)

    def test_single_factor_head_omits_density_column(self, spec_path, tmp_path, capsys):
        out = tmp_path / "head2.csv"
        rc = dispatch(
            ["head", "--spec", spec_path, "--M", "2", "--grid=-6:6:201",
             "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        header, data = read_csv(str(out))
        assert header == ["x", "cdf"]
        man = json.loads((tmp_path / "head2.csv.manifest.json").read_text())
        assert any("density" in w for w in man["warnings"])

    def test_rerun_reproduces_bitwise(self, spec_path, tmp_path, capsys):
        args = ["head", "--spec", spec_path, "--M", "3", "--grid=-6:6:101"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(args + ["--out", str(a)]) == 0
        assert dispatch(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_records_package_version(self, spec_path, tmp_path, capsys):
        out = tmp_path / "h.csv"
        args = ["head", "--spec", spec_path, "--M", "3", "--grid=-6:6:101"]
        assert dispatch(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        man = json.loads((tmp_path / "h.csv.manifest.json").read_text())
        assert man["version"] == gammasum.__version__

    def test_many_terms_exit_zero(self, spec_path, tmp_path, capsys):
        out = tmp_path / "h100.csv"
        rc = dispatch(
            ["head", "--spec", spec_path, "--M", "100", "--grid=-6:6:201",
             "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        header, data = read_csv(str(out))
        assert header == ["x", "cdf", "pdf"]
        assert data[0, 1] <= 0.001 and data[-1, 1] >= 0.999

    @pytest.mark.parametrize("r, grid", [(1.0, "-8:8:2001"), (10.0, "-2.6:2.6:2001")])
    def test_steep_power_law_past_former_budget_exits_0(self, tmp_path, capsys, r, grid):
        # gamma = 3.5 at M = 12 needs about 2e5 (r = 1) and 3e5 (r = 10)
        # terms, which the former budget of 100,000 refused with exit 3
        spec = tmp_path / "steep.json"
        spec.write_text(json.dumps(
            {"r": r, "weights": {"kind": "power_law", "gamma": 3.5, "scale": 1.0}}
        ))
        out = tmp_path / "steep.csv"
        rc = dispatch(
            ["head", "--spec", str(spec), "--M", "12", f"--grid={grid}", "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        header, data = read_csv(str(out))
        assert header == ["x", "cdf", "pdf"]
        assert data[0, 1] <= 0.001 and data[-1, 1] >= 0.999

    def test_term_budget_exits_3_quickly(self, tmp_path, capsys):
        spec = tmp_path / "wide.json"
        spec.write_text(json.dumps(
            {"r": 0.5, "weights": {"kind": "explicit", "values": [1.0, 1e-9]}}
        ))
        start = time.perf_counter()
        rc = dispatch(
            ["head", "--spec", str(spec), "--M", "3", "--grid=-2:2:101",
             "--out", str(tmp_path / "wide.csv")]
        )
        elapsed = time.perf_counter() - start
        assert rc == 3
        assert "terms" in capsys.readouterr().err
        assert elapsed < 1.0

    def test_underflowed_weight_is_named(self, tmp_path, capsys):
        # lambda_2 = 2^-10000 underflows to 0, and the mixture takes its log
        spec = tmp_path / "steep.json"
        spec.write_text(json.dumps(
            {"r": 1.0, "weights": {"kind": "power_law", "gamma": 1e4, "scale": 1.0}}
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = dispatch(
                ["head", "--spec", str(spec), "--M", "3", "--grid=-2:2:101",
                 "--out", str(tmp_path / "steep.csv")]
            )
        err = capsys.readouterr().err
        assert rc == 3
        assert err.splitlines() == ["numerical failure: head weight lambda_2 underflows to 0"]


class TestFloatRangeInputs:
    @pytest.mark.parametrize(
        "args",
        [["head", "--M", "3", "--out", "{tmp}/h.csv"], ["edgeworth", "--M", "3", "--N", "4"]],
    )
    def test_overflowing_grid_span_is_a_bad_input(self, args):
        # both ends are finite, but hi - lo is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = _run_fuzzed(SPEC_JSON, args + ["--grid=-1e308:1e308:5"])
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: grid needs")

    @pytest.mark.parametrize(
        "args",
        [
            ["head", "--M", "3", "--grid=-8:8:10000000000000", "--out", "{out}/h.csv"],
            ["mc", "--mode", "truncate", "--n", "10000000000000", "--seed", "1",
             "--out", "{out}/s.bin"],
            ["zdist", "--M", "10000000000000", "--N", "3", "--grid=-9:9:101",
             "--out", "{out}/z.csv"],
        ],
    )
    def test_unallocatable_size_is_a_bad_input(self, args, tmp_path):
        # 1e13 float64s (72.8 TiB) are refused before anything is allocated
        args = [a.replace("{out}", str(tmp_path)) for a in args]
        rc, out, err = _run_fuzzed(SPEC_JSON, args)
        assert rc == 2 and out == "" and list(tmp_path.iterdir()) == []
        assert len(err.splitlines()) == 1 and err.startswith("error: Unable to allocate")

    def test_integer_beyond_float_range_is_a_bad_input(self):
        doc = {"r": 10**400, "weights": {"kind": "explicit", "values": [1.0]}}
        rc, out, err = _run_fuzzed(doc, ["cumulants", "--M", "1", "--K", "3"])
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: gamma shape r")

    def test_subnormal_head_secants_do_not_warn(self, tmp_path):
        # the head table has subnormal secants here; PCHIP's harmonic-mean
        # slopes overflow on the way to their limit 0
        doc = {"r": 0.5, "weights": {"kind": "power_law", "gamma": 1.0,
                                     "scale": 3.4359654404523545}}
        out = tmp_path / "z.csv"
        args = ["zdist", "--M", "6", "--N", "18",
                "--grid=-1660.1170819119372:1660.1170819119372:20", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = _run_fuzzed(doc, args)
        assert rc == 0 and err == ""
        _, data = read_csv(str(out))
        assert data.shape == (20, 2) and np.all(np.diff(data[:, 1]) >= 0.0)

    def test_overflowed_head_points_have_cdf_one(self, tmp_path):
        # y = (x + 2e-300) / 2e-300 overflows at every x > 0
        doc = {"r": 0.5, "weights": {"kind": "explicit", "values": [1e-300, 1e-300]}}
        out = tmp_path / "h.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = _run_fuzzed(
                doc, ["head", "--M", "3", "--grid=-1e10:1e10:11", "--out", str(out)]
            )
        assert rc == 0 and err == ""
        _, data = read_csv(str(out))
        assert data[:5, 1].tolist() == [0.0] * 5
        assert data[5, 1] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
        assert data[6:, 1].tolist() == [1.0] * 5

    def test_huge_explicit_weights_without_flag(self):
        # the normalization auto-detection squares 1e308; that sum reads inf
        # instead of failing with Python's errno tuple
        doc = {"r": 0.5, "weights": {"kind": "explicit", "values": [1e308, 1e308]}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = _run_fuzzed(
                doc, ["head", "--M", "3", "--grid=-1:1:11", "--out", "{tmp}/h.csv"]
            )
        _check_exit_contract(rc, err)
        assert "out of range" not in err and "(34" not in err

    def test_overflowed_gamma_scale_is_named(self):
        doc = {"r": 1e-300, "weights": {"kind": "explicit", "values": [1e10, 1e10]}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = _run_fuzzed(
                doc, ["head", "--M", "3", "--grid=-1:1:11", "--out", "{tmp}/h.csv"]
            )
        assert rc == 3
        assert err.splitlines() == ["numerical failure: head gamma scale lambda_1 / r overflows"]


class TestMcAndValidate:
    def test_binary_format_and_determinism(self, spec_path, tmp_path, capsys):
        out = tmp_path / "s.bin"
        args = ["mc", "--spec", spec_path, "--mode", "normal_tail", "--n", "20000",
                "--seed", "7", "--out", str(out)]
        assert dispatch(args) == 0
        vals = np.fromfile(str(out), dtype="<f8")
        assert vals.size == 20000
        assert abs(float(vals.mean())) < 0.05
        assert float(vals.var()) == pytest.approx(1.0, abs=0.05)
        man = json.loads((tmp_path / "s.bin.manifest.json").read_text())
        assert man["config"]["seed"] == 7
        assert man["config"]["n_terms"] > 0
        first = out.read_bytes()
        assert dispatch(args) == 0
        capsys.readouterr()
        assert out.read_bytes() == first

    def test_validate_reports_ks(self, spec_path, tmp_path, capsys):
        table = tmp_path / "z.csv"
        rc = dispatch(
            ["zdist", "--spec", spec_path, "--M", "10", "--N", "5",
             "--grid=-8:8:401", "--out", str(table)]
        )
        assert rc == 0
        samples = tmp_path / "s.bin"
        rc = dispatch(
            ["mc", "--spec", spec_path, "--mode", "normal_tail", "--n", "50000",
             "--seed", "11", "--out", str(samples)]
        )
        assert rc == 0
        capsys.readouterr()
        rc = dispatch(["validate", "--table", str(table), "--samples", str(samples)])
        assert rc == 0
        res = json.loads(capsys.readouterr().out)
        assert res["n_samples"] == 50000
        assert res["ks"] < 0.02
        assert res["ks_band_95"] == pytest.approx(1.36 / math.sqrt(50000), rel=1e-15)

    def test_overflowing_draws_exit_3(self):
        # 1e308 * eta overflows, and "normalized": false skips the squaring
        # that rejects such weights up front
        doc = {
            "r": 4,
            "weights": {"kind": "explicit", "values": [1e308, 2, 1.0000000000002303]},
            "normalized": False,
        }
        args = ["mc", "--mode", "truncate", "--n", "1359", "--seed", "24646",
                "--out", "{tmp}/s.bin"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = _run_fuzzed(doc, args)
        assert rc == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("numerical failure:")

    def test_validate_rejects_corrupt_table(self, spec_path, tmp_path, capsys):
        table = tmp_path / "z.csv"
        samples = tmp_path / "s.bin"
        assert dispatch(
            ["zdist", "--spec", spec_path, "--M", "5", "--N", "3",
             "--grid=-8:8:201", "--out", str(table)]
        ) == 0
        assert dispatch(
            ["mc", "--spec", spec_path, "--mode", "truncate", "--n", "1000",
             "--seed", "3", "--out", str(samples)]
        ) == 0
        header, data = read_csv(str(table))
        data[50, 1], data[150, 1] = data[150, 1], data[50, 1]
        np.savetxt(
            str(table), data, delimiter=",", fmt="%.17g",
            header=",".join(header), comments="",
        )
        rc = dispatch(["validate", "--table", str(table), "--samples", str(samples)])
        capsys.readouterr()
        assert rc == 2

    def test_validate_rejects_non_numeric_cell(self, tmp_path, capsys):
        table, samples = tmp_path / "z.csv", tmp_path / "s.bin"
        write_normal_table(str(table))
        table.write_text(table.read_text().replace("\n", "\nabc,0.5\n", 1))
        np.zeros(10).astype("<f8").tofile(str(samples))
        rc = dispatch(["validate", "--table", str(table), "--samples", str(samples)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == "" and err.startswith("error:")

    def test_validate_rejects_bad_header_and_non_finite_cells(self, tmp_path, capsys):
        # a header other than x,cdf[,pdf] is caught while reading; a NaN cell
        # is caught by the table's own grid, cdf and pdf checks
        x = np.linspace(-8.0, 8.0, 101)
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        samples = tmp_path / "s.bin"
        np.zeros(10).astype("<f8").tofile(str(samples))
        for header, col in [("x,F", 1), ("x,cdf,pdf", 0), ("x,cdf,pdf", 1), ("x,cdf,pdf", 2)]:
            data = np.column_stack([x, ndtr(x), pdf])
            data[50, col] = np.nan
            table = tmp_path / "t.csv"
            np.savetxt(str(table), data[:, : len(header.split(","))], delimiter=",",
                       fmt="%.17g", header=header, comments="")
            rc = dispatch(["validate", "--table", str(table), "--samples", str(samples)])
            out, err = capsys.readouterr()
            assert rc == 2 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error:"), err

    def test_validate_overflowing_pdf_mass_prints_one_line(self):
        # a pdf column of 1e308 overflows its trapezoid mass: the table is
        # rejected with one error line and no RuntimeWarning before it
        x = np.linspace(-8.0, 8.0, 101)
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack([x, ndtr(x), np.full(x.size, 1e308)]),
                   delimiter=",", fmt="%.17g", header="x,cdf,pdf", comments="")
        files = [("t.csv", buf.getvalue().encode()), ("s.bin", np.zeros(10).tobytes())]
        args = ["validate", "--table", "{tmp}/t.csv", "--samples", "{tmp}/s.bin"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = _run_fuzzed({}, args, files=files)
        assert rc == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: bad table file")
        assert err.endswith(": pdf mass inf outside [0.998, 1.002]\n")

    def test_validate_rejects_non_finite_samples(self, tmp_path, capsys):
        table, samples = tmp_path / "z.csv", tmp_path / "s.bin"
        write_normal_table(str(table))
        np.array([0.1, np.nan, -0.3]).astype("<f8").tofile(str(samples))
        rc = dispatch(["validate", "--table", str(table), "--samples", str(samples)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == "" and err.startswith("error:")


class TestZdistCommand:
    def test_summary_and_robustness(self, spec_path, tmp_path, capsys):
        out = tmp_path / "z.csv"
        rc = dispatch(
            ["zdist", "--spec", spec_path, "--M", "10", "--N", "3",
             "--grid=-8:8:201", "--out", str(out), "--robustness", "5,10"]
        )
        assert rc == 0
        capsys.readouterr()
        header, data = read_csv(str(out))
        assert header[:2] == ["x", "cdf"]
        assert np.all(np.diff(data[:, 1]) >= 0.0)
        summary = json.loads((tmp_path / "z.summary.json").read_text())
        assert summary["ks_vs_mc"] is None
        assert summary["ks_band_95"] is None
        assert 0.0 < summary["robustness"] < 0.01
        assert isinstance(summary["warnings"], list)

    def test_non_integer_robustness_level_exit_2(self, spec_path, tmp_path, capsys):
        rc = dispatch(
            ["zdist", "--spec", spec_path, "--M", "10", "--N", "3",
             "--grid=-8:8:201", "--out", str(tmp_path / "z.csv"), "--robustness", "5,x"]
        )
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: --robustness must be comma-separated integers")
        assert list(tmp_path.iterdir()) == [tmp_path / "spec.json"]

    def test_mc_comparison_in_summary(self, spec_path, tmp_path, capsys):
        samples = tmp_path / "s.bin"
        assert dispatch(
            ["mc", "--spec", spec_path, "--mode", "normal_tail", "--n", "30000",
             "--seed", "19", "--out", str(samples)]
        ) == 0
        out = tmp_path / "z.csv"
        rc = dispatch(
            ["zdist", "--spec", spec_path, "--M", "10", "--N", "5",
             "--grid=-8:8:401", "--out", str(out), "--mc", str(samples)]
        )
        assert rc == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "z.summary.json").read_text())
        assert summary["ks_vs_mc"] < 0.02
        assert summary["ks_band_95"] == pytest.approx(1.36 / math.sqrt(30000), rel=1e-15)
        assert summary["robustness"] is None


class TestReproduction:
    def test_reference_workflow(self, tmp_path, capsys):
        rc = dispatch(["repro-sec6", "--outdir", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        for name in ("spec.json", "z_M2.csv", "z_M5.csv", "z_M10.csv",
                     "z_M20.csv", "summary.json"):
            assert (tmp_path / name).exists(), name
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert abs(summary["C"] - 0.4375) <= 5e-5
        assert summary["robustness"] < 0.005
        spec_obj = json.loads((tmp_path / "spec.json").read_text())
        assert spec_obj["weights"]["gamma"] == 0.75
        assert spec_obj["r"] == 0.5
        _, data = read_csv(str(tmp_path / "z_M10.csv"))
        assert np.all(np.diff(data[:, 1]) >= 0.0)

    def test_missed_normalization_constant_exit_3(self, tmp_path, capsys, monkeypatch):
        # the computed C = 0.43750... is checked against the reference before
        # anything is written
        monkeypatch.setattr("gammasum.cli._REFERENCE_C", 0.44)
        rc = dispatch(["repro-sec6", "--outdir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("numerical failure: normalization constant")
        assert list(tmp_path.iterdir()) == []


# (command, its flags other than --spec and --out as parsed, in parser order)
_MANIFEST_RUNS = [
    ("cumulants", {"M": 3, "K": 5}),
    ("edgeworth", {"M": 3, "N": 4, "grid": "-4:4:9"}),
    ("head", {"M": 3, "grid": "-1:6:21"}),
    ("zdist", {"M": 2, "N": 3, "grid": "-8:8:41", "robustness": "2,3", "mc": "{tmp}/s.bin"}),
    ("mc", {"mode": "truncate", "n": 100, "seed": 5}),
]


class TestManifestConfig:
    @pytest.mark.parametrize("command, flags", _MANIFEST_RUNS, ids=[c for c, _ in _MANIFEST_RUNS])
    def test_config_is_spec_then_flags(self, command, flags, spec_path, tmp_path, capsys):
        # the resolved spec, every flag but --out, then what mc resolves itself
        flags = {k: v.replace("{tmp}", str(tmp_path)) if isinstance(v, str) else v
                 for k, v in flags.items()}
        np.linspace(-2.0, 2.0, 50).astype("<f8").tofile(str(tmp_path / "s.bin"))
        out = str(tmp_path / "out")
        argv = [command, "--spec", spec_path, *(f"--{k}={v}" for k, v in flags.items()),
                "--out", out]
        assert dispatch(argv) == 0
        capsys.readouterr()
        expected = {"spec": spec_to_dict(SPEC), **flags}
        if command == "mc":
            batch = sample_z(SPEC, flags["mode"], flags["n"], flags["seed"])
            expected.update(n_terms=batch.n_terms, neglected_sd=batch.neglected_sd,
                            rng_algorithm=batch.rng_algorithm)
        with open(f"{out}.manifest.json") as fh:
            man = json.load(fh)
        assert man["command"] == command and man["argv"] == argv
        assert list(man["config"].items()) == list(expected.items())


class TestThreadCapEnv:
    def test_module_entry_point(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC_JSON))
        res = subprocess.run(
            [sys.executable, "-m", "gammasum.cli", "cumulants",
             "--spec", str(spec), "--M", "1", "--K", "3"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["sigma_M"] == pytest.approx(1.0, abs=1e-12)


class TestImportGuard:
    def test_package_exports_resolve_without_mpmath(self):
        code = (
            "import sys, gammasum; "
            "print([n for n in gammasum.__all__ if not hasattr(gammasum, n)], "
            "'mpmath' in sys.modules)"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[] False"

    def test_module_help_is_clean(self):
        res = subprocess.run(
            [sys.executable, "-m", "gammasum.cli", "--help"], capture_output=True, text=True
        )
        assert res.returncode == 0
        assert res.stderr == ""


# Spec documents for the fuzz test: a well-formed document for either weight
# kind with positive numbers from 1e-300 to 1e308, then zero to two kinds of
# damage (NaN/Infinity or other bad numbers, missing, extra or mistyped keys,
# unsorted weights, an unknown kind, a document that is not an object).
_MAGNITUDES = st.one_of(
    st.floats(-300.0, 308.0).map(lambda e: 10.0**e),
    st.floats(0.5, 5.0),
    st.sampled_from([0.5, 0.75, 1.0, 2.0, 1e-300, 1e308]),
    st.integers(1, 10),
)
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]),
    st.integers(-3, 3),
)
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_DAMAGE = st.sampled_from(
    ["bad_number", "bad_r", "unsorted", "drop_r", "drop_weights", "drop_field",
     "junk_r", "junk_field", "junk_weights", "junk_normalized", "extra_key",
     "extra_weight_key", "bad_kind", "not_an_object"]
)


@st.composite
def spec_documents(draw):
    if draw(st.booleans()):
        weights = {"kind": "power_law", "gamma": draw(_MAGNITUDES), "scale": draw(_MAGNITUDES)}
        field = "gamma"
    else:
        values = sorted(draw(st.lists(_MAGNITUDES, min_size=1, max_size=8)), reverse=True)
        weights = {"kind": "explicit", "values": values}
        field = "values"
    doc = {"r": draw(_MAGNITUDES), "weights": weights}
    normalized = draw(st.sampled_from([None, None, False, True]))
    if normalized is not None:
        doc["normalized"] = normalized
    damages = draw(st.lists(_DAMAGE, max_size=2))
    if "not_an_object" in damages:
        return draw(st.one_of(_NUMBERS, _JUNK))
    for damage in damages:
        if damage == "bad_number":
            if field == "gamma":
                weights[draw(st.sampled_from(["gamma", "scale"]))] = draw(_NUMBERS)
            else:
                weights["values"] = values + [draw(_NUMBERS)]
        elif damage == "bad_r":
            doc["r"] = draw(_NUMBERS)
        elif damage == "unsorted" and field == "values":
            weights["values"] = values[::-1] + [1.0]
        elif damage == "drop_r":
            doc.pop("r", None)
        elif damage == "drop_weights":
            doc.pop("weights", None)
        elif damage == "drop_field":
            weights.pop(field, None)
        elif damage == "junk_r":
            doc["r"] = draw(_JUNK)
        elif damage == "junk_field":
            weights[field] = draw(_JUNK)
        elif damage == "junk_weights":
            doc["weights"] = draw(_JUNK)
        elif damage == "junk_normalized":
            doc["normalized"] = draw(st.one_of(_JUNK, _NUMBERS))
        elif damage == "extra_key":
            doc["extra"] = 1
        elif damage == "extra_weight_key":
            weights["values" if field == "gamma" else "gamma"] = 1.0
        elif damage == "bad_kind":
            weights["kind"] = draw(st.one_of(st.just("mystery"), _JUNK))
    return doc


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# Grid options for the fuzz tests: lo:hi:n with at most 60 points, either
# symmetric about 0 or with independent ends that may be reversed or equal.
_GRIDS = st.one_of(
    st.builds(
        lambda half, n: f"--grid={-half!r}:{half!r}:{n}", _MAGNITUDES, st.integers(2, 60)
    ),
    st.builds(
        lambda lo, hi, n: f"--grid={lo!r}:{hi!r}:{n}",
        st.one_of(_MAGNITUDES.map(lambda v: -v), st.floats(-5.0, 5.0)),
        st.one_of(_MAGNITUDES, st.floats(-5.0, 5.0)),
        st.integers(1, 60),
    ),
)


def _run_fuzzed(doc, *commands, files=()):
    """(exit code, stdout, stderr) of the last of ``commands``, run in-process
    in one temporary directory that holds spec ``doc`` and the (name, bytes)
    pairs ``files``.  "{tmp}" in an argument names that directory, and each
    command but validate gets --spec."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for name, data in files:
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        for args in commands:
            out, err = io.StringIO(), io.StringIO()
            args = [a.replace("{tmp}", tmp) for a in args]
            if args[0] != "validate":
                args[1:1] = ["--spec", path]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = dispatch(args)
    return rc, out.getvalue(), err.getvalue()


def _check_exit_contract(rc, err):
    """Exit 0, 2 or 3, no traceback, and one error line exactly on failure."""
    assert rc in (0, 2, 3)
    assert "Traceback" not in err
    lines = err.splitlines()
    assert sum(l.startswith(("error:", "numerical failure:")) for l in lines) == (rc != 0)


# Z grids: the grids above, plus symmetric ones of 9 to 60 points wide enough
# to cover +/- 8 standard deviations of many fuzzed specs.
_Z_GRIDS = st.one_of(
    _GRIDS,
    st.builds(
        lambda half, n: f"--grid={-half!r}:{half!r}:{n}", st.floats(8.0, 1e4), st.integers(9, 60)
    ),
)
_M_LISTS = st.one_of(
    st.none(),
    st.lists(st.integers(0, 12), max_size=3).map(lambda ms: ",".join(map(str, ms))),
    st.just("2,x"),
)
# Sample files: up to 50 float64s, NaN and infinities included, sometimes with
# a stray trailing byte.
_SAMPLE_FILES = st.builds(
    lambda values, tail: np.asarray(values, dtype="<f8").tobytes() + tail,
    st.lists(st.one_of(st.floats(-10.0, 10.0), st.floats()), max_size=50),
    st.sampled_from([b"", b"", b"\x00"]),
)


@st.composite
def valid_zdist_runs(draw):
    """(spec document, M, N, grid option) for a power law that zdist should
    tabulate: gamma in [0.55, 4], r in [0.05, 20], M <= 8, at most 401 grid
    points from -8.5 standard deviations of Z to the larger of +8.5 and 12
    lambda_1 / r, where a small r's gamma tail has fallen below 1e-4.

    The head mixture needs about 44 (M - 1)^gamma terms at r = 1, twice that
    at r = 20, and each Z table evaluates them on thousands of head points,
    so M is capped where (M - 1)^gamma reaches 20 to keep every run well
    under a second.
    """
    gamma = draw(st.floats(0.55, 4.0))
    r = draw(st.floats(0.05, 20.0))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    m = draw(st.integers(1, min(8, 1 + int(20.0 ** (1.0 / gamma)))))
    n = draw(st.integers(2, 8))
    sd = scale * math.sqrt(zeta(2.0 * gamma) / r)
    lo, hi = -8.5 * sd, max(8.5 * sd, 12.0 * scale / r)
    grid = f"--grid={lo!r}:{hi!r}:{draw(st.integers(9, 401))}"
    doc = {"r": r, "weights": {"kind": "power_law", "gamma": gamma, "scale": scale}}
    return doc, m, n, grid


class TestFuzz:
    @given(
        doc=spec_documents(),
        m=st.one_of(st.integers(1, 8), st.integers(0, 60)),
        k=st.integers(2, 21),
    )
    @settings(max_examples=150, deadline=None)
    def test_cumulants_exit_codes_and_strict_json(self, doc, m, k):
        rc, out, err = _run_fuzzed(doc, ["cumulants", "--M", str(m), "--K", str(k)])
        _check_exit_contract(rc, err)
        if rc == 0:
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert out == ""

    @given(
        doc=spec_documents(),
        m=st.one_of(st.integers(1, 8), st.integers(0, 60)),
        n=st.integers(1, 21),
        grid=_GRIDS,
    )
    @example(  # kappa_3^2 = 4e300 and kappa_4 = 6e300 overflow the Hermite sum at x = 40
        doc={"r": 1e-300, "weights": {"kind": "explicit", "values": [1.0]}},
        m=1, n=4, grid="--grid=-1.0:1e+308:2",
    )
    @settings(max_examples=200, deadline=None)
    def test_edgeworth_exit_codes(self, doc, m, n, grid):
        rc, out, err = _run_fuzzed(doc, ["edgeworth", "--M", str(m), "--N", str(n), grid])
        _check_exit_contract(rc, err)
        if rc == 0:
            data = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
            assert np.all(np.isfinite(data))

    @given(
        doc=spec_documents(),
        m=st.one_of(st.integers(1, 8), st.integers(0, 60)),
        grid=_GRIDS,
    )
    @settings(max_examples=200, deadline=None)
    def test_head_exit_codes(self, doc, m, grid):
        rc, _, err = _run_fuzzed(doc, ["head", "--M", str(m), grid, "--out", "{tmp}/h.csv"])
        _check_exit_contract(rc, err)

    @given(
        doc=spec_documents(),
        m=st.integers(0, 12),
        n=st.integers(1, 21),
        grid=_Z_GRIDS,
        robustness=_M_LISTS,
        samples=st.one_of(st.none(), _SAMPLE_FILES),
    )
    @example(  # an exhausted tail whose head y = (x + 2e-20) / 1e-300 overflows
        doc={"r": 1e280, "weights": {"kind": "explicit", "values": [1e-20, 1e-20]}},
        m=3, n=3, grid="--grid=-1e10:1e10:11", robustness=None, samples=None,
    )
    @example(  # S_2 = 2e310 leaves the float range; sigma_M = 1e155 does not
        doc={"r": 1.0, "weights": {"kind": "explicit", "values": [1e155, 1e155]}},
        m=2, n=2, grid="--grid=-8.0:8.0:9", robustness=None, samples=None,
    )
    @settings(max_examples=40, deadline=None)
    def test_zdist_exit_codes(self, doc, m, n, grid, robustness, samples):
        args = ["zdist", "--M", str(m), "--N", str(n), grid, "--out", "{tmp}/z.csv"]
        if robustness is not None:
            args += ["--robustness", robustness]
        files = ()
        if samples is not None:
            args += ["--mc", "{tmp}/s.bin"]
            files = (("s.bin", samples),)
        rc, _, err = _run_fuzzed(doc, args, files=files)
        _check_exit_contract(rc, err)

    @given(run=valid_zdist_runs())
    # order-8 expansions whose negative density mass is in the thousands
    @example(run=({"r": 0.0546875, "weights": {"kind": "power_law", "gamma": 2.0, "scale": 1.0}},
                  1, 8, "--grid=-37.81406628937477:219.42857142857142:9"))
    @example(run=({"r": 0.0625, "weights": {"kind": "power_law", "gamma": 3.0, "scale": 1.0}},
                  1, 8, "--grid=-34.293564697389264:192.0:9"))
    @settings(max_examples=60, deadline=None)
    def test_zdist_valid_specs_finish(self, run):
        # valid input ends in a table (exit 0) or a numerical failure
        # (exit 3), never in a rejection; every file written is strict
        doc, m, n, grid = run
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "z.csv")
            args = ["zdist", "--M", str(m), "--N", str(n), grid, "--out", out]
            rc, _, err = _run_fuzzed(doc, args)
            _check_exit_contract(rc, err)
            assert rc in (0, 3), err
            if rc == 0:
                data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
                assert np.all(np.isfinite(data))
                for name in ("z.csv.manifest.json", "z.summary.json"):
                    with open(os.path.join(tmp, name)) as fh:
                        json.loads(fh.read(), parse_constant=_reject_constant)

    @given(
        doc=spec_documents(),
        mode=st.sampled_from(_MODES),
        n=st.integers(-2, 2000),
        seed=st.one_of(st.integers(-3, 3), st.integers(0, 2**70)),
    )
    @settings(max_examples=40, deadline=None)
    def test_mc_exit_codes(self, doc, mode, n, seed):
        args = ["mc", "--mode", mode, "--n", str(n), "--seed", str(seed), "--out", "{tmp}/s.bin"]
        rc, _, err = _run_fuzzed(doc, args)
        _check_exit_contract(rc, err)

    @given(
        doc=spec_documents(),
        m=st.integers(0, 8),
        grid=_GRIDS,
        samples=_SAMPLE_FILES,
    )
    @settings(max_examples=60, deadline=None)
    def test_validate_exit_codes(self, doc, m, grid, samples):
        # the table is the head of the fuzzed spec, absent when that run fails
        head = ["head", "--M", str(m), grid, "--out", "{tmp}/t.csv"]
        validate = ["validate", "--table", "{tmp}/t.csv", "--samples", "{tmp}/s.bin"]
        rc, out, err = _run_fuzzed(doc, head, validate, files=(("s.bin", samples),))
        _check_exit_contract(rc, err)
        if rc == 0:
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert out == ""
