"""gammasum benchmark: one workload, one fresh process, one JSON result.

    python3 benchmark/run.py --workload {sec6,heads,sweep,oracle} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
./src and builds nothing else.  BLAS/OpenMP pools are capped at one thread.

With --trace 0 it measures the end-to-end metrics with no tracing.  With
--trace 1 it runs each operation twice, untraced and then traced, and
reports per-layer metrics from the traced half together with the tracing
overhead.  The second-to-last stdout line is the machine context; the last
line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is 2 when ./src/gammasum is missing, and nonzero on any other
failure to produce a result.  README.md documents workloads and metrics.
"""

import os

# Set before numpy is first imported, here and in the set-up subprocesses.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GAMMASUM_MAX_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
# Cold start as a user pays it: interpreter, numpy/scipy/mpmath and every
# gammasum module the workloads use, plus the reference spec.
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import numpy, scipy, mpmath, gammasum.cli, gammasum.levy; "
    "from gammasum.weights import make_power_law_normalized; "
    "make_power_law_normalized(0.75, 0.5)"
)

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "err_z_m2": "1",
    "err_head_m2": "1",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    "finite_sum.invert_to_table.calls",
    "finite_sum.invert_to_table.self_s",
    "finite_sum.invert_to_table.points",
    "pipeline.z_cdf.calls",
    "pipeline.z_cdf.self_s",
    "pipeline.z_cdf.wall_s",
    "pipeline.head_points_ratio",
    "edgeworth.build_expansion.calls",
    "edgeworth.build_expansion.self_s",
    "edgeworth.edgeworth_cdf.calls",
    "edgeworth.edgeworth_cdf.self_s",
    "edgeworth.edgeworth_pdf.calls",
    "edgeworth.edgeworth_pdf.self_s",
    "edgeworth.negative_pdf_mass.calls",
    "edgeworth.negative_pdf_mass.self_s",
    "cumulants.cumulants.calls",
    "cumulants.cumulants.self_s",
    "cumulants.sigma_M.calls",
    "cumulants.sigma_M.self_s",
    "weights.tail_power_sum.calls",
    "weights.tail_power_sum.self_s",
    "levy.cumulant_via_integral.calls",
    "levy.cumulant_via_integral.self_s",
    "levy.re_log_cf.calls",
    "levy.re_log_cf.self_s",
    "levy.levy_density.calls",
    "levy.levy_density.self_s",
    "mc_oracle.sample_z.self_s",
    "mc_oracle.term_draws",
    "mc_oracle.term_draws_per_s",
    "mc_oracle.neglected_sd",
    "mc_oracle.ks_distance.self_s",
    "cli.dispatch.self_s",
    "weights.errors",
    "cumulants.errors",
    "edgeworth.errors",
    "levy.errors",
    "finite_sum.errors",
    "pipeline.errors",
    "mc_oracle.errors",
    "cli.errors",
    "trace.overhead_frac",
)


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".points", ".errors", ".term_draws")):
        return "count"
    return "1"


def measure_setup():
    """Median wall time of cold processes that import and build the spec."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, SRC],
            cwd=ROOT,
            check=True,
            timeout=120,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_context(workload, seed, seconds, trace):
    import mpmath
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": THREAD_ENV,
    }


class Loop:
    """Closed loop, one caller: each operation starts after the last returns.

    Rounds are started until ``seconds`` have passed; a started round always
    finishes.  With a tracer, each operation runs untraced and then traced
    on the same input.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.round_rates = []
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.traced_ops = 0

    def execute(self, op):
        """Run and check one operation; returns (seconds, correct)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.workload.run(op)
        except Exception:
            elapsed = time.perf_counter() - t0
            ok = False
            traceback.print_exc(file=sys.stderr)
        else:
            elapsed = time.perf_counter() - t0
            try:
                ok = bool(self.workload.check(op, out))
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
        if not ok:
            self.failed += 1
            print(f"operation {self.attempted} failed", file=sys.stderr)
        return elapsed, ok

    def run(self, seconds):
        deadline = time.perf_counter() + seconds
        for ops in self.workload.rounds():
            if self.round_rates and time.perf_counter() >= deadline:
                break
            busy = 0.0
            done = 0
            for op in ops:
                elapsed, ok = self.execute(op)
                busy += elapsed
                done += self.workload.items(op) if ok else 0
                if self.tracer is not None:
                    self.untraced_s += elapsed
                    self.tracer.install()
                    try:
                        elapsed, _ = self.execute(op)
                    finally:
                        self.tracer.uninstall()
                    self.traced_s += elapsed
                    self.traced_ops += 1
            self.round_rates.append(done / busy)
        return self


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("sec6", "heads", "sweep", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "gammasum", "__init__.py")):
        print(f"error: no gammasum package under {SRC}", file=sys.stderr)
        return 2

    setup_s = measure_setup() if not args.trace else None

    sys.path.insert(0, SRC)
    import spans
    import workloads

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        loop = Loop(workload, tracer).run(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is None:
            err_z_m2, err_head_m2 = workload.accuracy()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "items_per_s": statistics.median(loop.round_rates),
            "err_z_m2": err_z_m2,
            "err_head_m2": err_head_m2,
            "ok_frac": (loop.attempted - loop.failed) / loop.attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        layer = tracer.summary(loop.traced_ops)
        layer["trace.overhead_frac"] = loop.traced_s / loop.untraced_s - 1.0
        metrics = {name: (float(layer.get(name, 0.0)), unit_of(name)) for name in PER_LAYER}

    context = machine_context(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"context": context}))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
