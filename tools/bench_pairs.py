"""Alternating benchmark pairs: a parent commit against the working tree.

    python3 tools/bench_pairs.py --pr 18 --parent HEAD \
        --workload sec6:101-110 --workload heads:101-105 --seconds 20

Each side runs from a fresh copy: the parent is the committed tree of
``--parent`` (``git archive``), the change is every file of the working tree
that git tracks or does not ignore, so a run before committing measures the
change as it will be committed.  For each workload and seed, the two sides
run ``python3 benchmark/run.py --workload W --seed N --seconds S --trace 0``
one after the other, the side that runs first alternating with the seed.
``--trace-seed`` adds one ``--trace 1`` sec6 run per side.

The result goes to BENCH_<pr>.json at the repository root: a description,
the machine, a summary per workload and metric (q1 / median / q3 of each
side, the pair count, and for items_per_s how many pairs the change won
and the change's quartile gap over its median next to the gate's allowance,
bound * parent median / change median),
the traced per-layer metrics, and every run's result line.  The copies are
removed afterwards.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# keys of a run's context line that describe the run, not the machine
RUN_KEYS = ("workload", "seed", "seconds", "trace")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    # the relative bound the benchmark's gate puts on items_per_s
    ITEMS_BOUND = next(
        m["bound"] for m in json.load(_fh)["end_to_end"] if m["name"] == "items_per_s"
    )


def git(*args, **kw):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kw).stdout


def export_parent(rev, dest):
    """The committed tree of ``rev`` in ``dest``."""
    os.makedirs(dest)
    archive = git("archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def export_working_tree(dest):
    """Every tracked or unignored file of the working tree in ``dest``."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in sorted(set(names.decode().split("\0")) - {""}):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):  # a tracked file deleted in the working tree is skipped
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def run_once(tree, workload, seed, seconds, trace):
    """(machine context, result) of one benchmark run in the copy ``tree``."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {res.returncode}:\n{res.stderr}")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def seeds_of(text):
    """'101-105' or '7' as a list of seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def summarize(runs, workload):
    """Per-metric q1 / median / q3 of both sides over the pairs of ``workload``."""
    pairs = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == 0:
            pairs.setdefault(run["seed"], {})[run["side"]] = run["result"]
    pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        out[name] = {
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "pairs": len(pairs),
        }
        if name == "items_per_s":  # higher is better
            out[name]["change_wins"] = sum(c > p for p, c in zip(parent, change))
            # the gate allows the change to fall bound * parent median below
            # the parent; as a share of the change's median, that is the
            # room its own quartile gap has to fit in
            q1, med, q3 = out[name]["change_q1_median_q3"]
            out[name]["change_gap_over_median"] = (q3 - q1) / med
            out[name]["allowance_over_change_median"] = (
                ITEMS_BOUND * out[name]["parent_q1_median_q3"][1] / med
            )
    out["correct_all"] = all(p[side]["correct"] for p in pairs for side in p)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--workload", action="append", required=True,
                        help="WORKLOAD:SEEDS, seeds as N or LO-HI; repeatable")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace-seed", type=int, help="seed of one traced sec6 run per side")
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)

    plan = []
    for item in args.workload:
        workload, _, seeds = item.partition(":")
        plan += [(workload, seed) for seed in seeds_of(seeds)]

    runs, traced, machine = [], {}, None
    scratch = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        trees = {side: os.path.join(scratch, side) for side in ("parent", "change")}
        export_parent(args.parent, trees["parent"])
        export_working_tree(trees["change"])
        for i, (workload, seed) in enumerate(plan):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                context, result = run_once(trees[side], workload, seed, args.seconds, 0)
                machine = machine or context
                runs.append({"side": side, "workload": workload, "seed": seed, "trace": 0,
                             "result": result})
                print(side, workload, seed, result["metrics"]["items_per_s"]["value"],
                      file=sys.stderr)
        if args.trace_seed is not None:
            for side in ("parent", "change"):
                _, result = run_once(trees[side], "sec6", args.trace_seed, args.seconds, 1)
                traced[side] = result["metrics"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    doc = {
        "description": args.description,
        "machine": {
            **{k: v for k, v in machine.items() if k not in RUN_KEYS},
            "sched_getaffinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
        },
        "summary": {w: summarize(runs, w) for w in dict.fromkeys(w for w, _ in plan)},
        "traced_sec6": traced,
        "runs": runs,
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main()
