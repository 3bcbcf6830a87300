"""Run the benchmark of two checkouts in alternated pairs and write a BENCH file.

    python3 tools/benchpairs.py PARENT_ROOT CHANGE_ROOT --pairs N --seconds S --seed0 K \
        --out BENCH_<pr>.json

Each side runs its own unchanged `perfbench/run.py --workload W --seed SEED
--seconds S --trace 0` in a fresh subprocess, one run at a time, with
PYTHONPATH removed from the environment.  Every workload of BENCHMARK.json
gets N >= 2 pairs; the pairs take the seeds K, K+1, ... in order, the same seed for both sides of a pair, and the side that runs first
alternates, starting with the parent.

For each workload and end-to-end metric of BENCHMARK.json (read from the
checkout that holds this script), the output holds each side's median and
quartiles (linear interpolation, as numpy's percentiles), the parent's
interquartile distance (IQR), the change/parent ratio of the medians, the
number of pairs in which the change is better, and `unresolved` when the
parent's IQR exceeds the metric's bound relative to its median; then the
machine facts and every raw run.  A table of the same goes to stdout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RUN = "python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0"


def benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def pair_plan(workloads, pairs, seed0):
    """[{"workload", "seed", "first"}] in run order: N pairs per workload, seeds counting up."""
    return [{"workload": w, "seed": seed0 + k * pairs + i, "first": SIDES[i % 2]}
            for k, w in enumerate(workloads) for i in range(pairs)]


def _env():
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def run_perfbench(root, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` run from checkout root; its result JSON (the last stdout line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(roots, plan, seconds, runner=run_perfbench):
    """Every pair of the plan, one run at a time; {workload: [{"seed", "first", "parent", "change"}]}."""
    out = {}
    for item in plan:
        first = SIDES.index(item["first"])
        row = {"seed": item["seed"], "first": item["first"]}
        for side in (SIDES[first], SIDES[1 - first]):
            row[side] = runner(roots[side], item["workload"], item["seed"], seconds)
            print(f"{item['workload']} seed {item['seed']} {side}: "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in row[side]["metrics"].items()),
                  file=sys.stderr)
        out.setdefault(item["workload"], []).append(row)
    return out


def summarize(pairs, metrics):
    """{workload: {metric: medians, quartiles, IQR, ratio, better pairs, unresolved}} of the raw pairs."""
    summary = {}
    for workload, rows in pairs.items():
        out = summary[workload] = {}
        for m in metrics:
            vals = {s: [r[s]["metrics"][m["name"]]["value"] for r in rows] for s in SIDES}
            (p1, pm, p3), (c1, cm, c3) = (statistics.quantiles(vals[s], n=4, method="inclusive")
                                          for s in SIDES)
            sign = 1.0 if m["better"] == "lower" else -1.0
            better = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
            out[m["name"]] = {
                "parent_median": pm, "parent_quartiles": [p1, p3], "parent_iqr": p3 - p1,
                "change_median": cm, "change_quartiles": [c1, c3],
                "change_over_parent": cm / pm, "change_better_pairs": better, "pairs": len(rows),
                "bound": m["bound"], "unresolved": p3 - p1 > m["bound"] * abs(pm)}
    return summary


def failures(pairs):
    """{workload: {side: [runs not correct, reports failed, reports attempted]}}."""
    return {w: {s: [sum(not r[s]["correct"] for r in rows), sum(r[s]["failed"] for r in rows),
                    sum(r[s]["attempted"] for r in rows)] for s in SIDES}
            for w, rows in pairs.items()}


def _blas(config):
    blas = config["Build Dependencies"]["blas"]
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def machine():
    """Cores, library versions and both OpenBLAS builds (numpy's and scipy's show_config)."""
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "sched_affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": _blas(numpy.show_config(mode="dicts")),
            "scipy_blas": _blas(scipy.show_config(mode="dicts")),
            "OPENBLAS_NUM_THREADS": _env().get("OPENBLAS_NUM_THREADS")}


def table(summary, failed):
    lines = []
    for workload, out in summary.items():
        lines.append(f"{workload}: [runs not correct, reports failed, attempted] {failed[workload]}")
        for name, s in out.items():
            lines.append(f"  {name:12s} {s['parent_median']:.4g} -> {s['change_median']:.4g}"
                         f"  ratio {s['change_over_parent']:.3f}  IQR {s['parent_iqr']:.3g}"
                         f"  better in {s['change_better_pairs']} of {s['pairs']}"
                         + ("  unresolved" if s["unresolved"] else ""))
    return "\n".join(lines)


def main(argv=None, runner=run_perfbench):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--out", required=True)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    bench = benchmark()
    roots = {"parent": os.path.abspath(args.parent_root), "change": os.path.abspath(args.change_root)}
    plan = pair_plan([w["name"] for w in bench["workloads"]], args.pairs, args.seed0)
    pairs = run_pairs(roots, plan, args.seconds, runner)
    summary, failed = summarize(pairs, bench["end_to_end"]), failures(pairs)
    options = [a for a in argv if a not in (args.parent_root, args.change_root)]
    result = {
        "command": " ".join(["python3 tools/benchpairs.py PARENT_ROOT CHANGE_ROOT"] + options),
        "run": RUN,
        "protocol": "each side runs its own perfbench/run.py, one run at a time; a pair shares"
                    " its seed, and the side that runs first alternates, starting with the parent;"
                    " quartiles interpolate linearly; `unresolved` marks a parent IQR above the"
                    " metric's BENCHMARK.json bound relative to the parent median",
        "machine": machine(),
        "summary": summary,
        "failed": failed,
        "pairs": pairs,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(table(summary, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
