"""Benchmark of weylab's verification campaigns.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 36 --trace 0

Runs the workload's campaign again and again, each time in a fresh worker
process (perfbench/worker.py): at least three times, then until the next
repeat would overrun --seconds.  Every repeat attempts the same whole list
of reports.  The
outputs of the first repeat are checked independently (perfbench/checks.py)
and every later repeat must reproduce them byte for byte.  The last line of
stdout is one JSON object: with --trace 0 the end-to-end metrics (medians
over the repeats), with --trace 1 the per-layer metrics of traced repeats.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import campaigns
import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER_TIMEOUT_S = 150
MIN_REPEATS = 3   # a median that one slow repeat cannot move

END_TO_END = {"setup_s": "s", "campaign_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(campaign_path, out_path, workdir, traced):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), campaign_path, out_path]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=workdir, env=_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out_path) as fh:
        return json.load(fh)


def _write_inputs(workload, workdir):
    from weylab.geometry import ConvexPolygon, save_polygon
    if workload == "spectra":
        save_polygon(ConvexPolygon.regular(6, area=1.0), os.path.join(workdir, campaigns.HEXAGON))
        save_polygon(ConvexPolygon.rectangle(1.0, 1.0), os.path.join(workdir, campaigns.SQUARE))


def _same_numbers(a, b, rel):
    """Equal JSON trees, with numbers allowed to differ by rel (relative)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same_numbers(a[k], b[k], rel) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            _same_numbers(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, (int, float)):
        return abs(a - b) <= rel * max(abs(a), abs(b))
    return a == b


def _reproduced(first, other):
    """A repeat's output matches the first repeat's (see campaigns.UNSEEDED_FD)."""
    if (first["digest"], first.get("file_digests")) == (other["digest"], other.get("file_digests")):
        return True
    return first["id"] in campaigns.UNSEEDED_FD and _same_numbers(
        json.loads(first["stdout"]), json.loads(other["stdout"]), campaigns.FD_REPEAT_REL)


def _median_metrics(rows, names):
    return {k: statistics.median(r[k] for r in rows) for k in names}


def run(workload, seed, seconds, traced, workdir):
    reports = campaigns.reports(workload, seed)
    plan = campaigns.check_plan(seed)
    _write_inputs(workload, workdir)
    campaign_path = os.path.join(workdir, "campaign.json")
    with open(campaign_path, "w") as fh:
        json.dump({"src": SRC, "reports": reports}, fh)

    # warm the file cache once, untimed: every CLI start pays the import, not a cold disk
    subprocess.run([sys.executable, "-c", "import weylab.cli"], cwd=workdir, env=_env(),
                   check=True, timeout=WORKER_TIMEOUT_S)

    repeats, walls = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        out_path = os.path.join(workdir, f"repeat-{len(repeats)}.json")
        repeats.append(_worker(campaign_path, out_path, workdir, traced))
        walls.append(time.monotonic() - t)
        if (len(repeats) >= MIN_REPEATS
                and time.monotonic() - start + statistics.median(walls) > seconds):
            break

    first = repeats[0]["outputs"]
    failed, unexpected = 0, []
    for rep, out in zip(reports, first):
        problems = [] if out["rc"] == 0 or "lift" in rep else [f"exit code {out['rc']}"]
        problems += checks.check(rep, out["stdout"], plan, workdir)
        if problems:
            failed += 1
            if rep["id"] != campaigns.KNOWN_FAULT:
                unexpected.append(rep["id"])
            for p in problems[:5]:
                print(f"[{rep['id']}] {p}", file=sys.stderr)
    for k, r in enumerate(repeats[1:], 1):
        for a, b in zip(first, r["outputs"]):
            if not _reproduced(a, b):
                unexpected.append(a["id"])
                print(f"[{a['id']}] repeat {k} differs from repeat 0", file=sys.stderr)

    if traced:
        names = sorted(repeats[0]["layers"])
        values = _median_metrics([r["layers"] for r in repeats], names)
        metrics = {k: {"value": v, "unit": spans.UNITS[k]} for k, v in values.items()}
        for r in repeats:
            lay = r["layers"]
            timed = sum(v for k, v in lay.items() if k.endswith("_s") and not k.startswith("campaign."))
            total = timed + lay["campaign.untraced_s"]
            if abs(total - lay["campaign.traced_s"]) > 1e-9 * lay["campaign.traced_s"] + 1e-9:
                unexpected.append("trace")
                print(f"self times add up to {total}, not {lay['campaign.traced_s']}", file=sys.stderr)
    else:
        values = _median_metrics(repeats, END_TO_END)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(f"{workload}: {len(repeats)} repeats, {failed} of {len(reports)} reports failed per repeat",
          file=sys.stderr)
    return {"correct": not unexpected, "attempted": len(reports) * len(repeats),
            "failed": failed * len(repeats), "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=campaigns.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "weylab", "cli.py")):
        print(f"weylab sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    base = os.path.join(ROOT, ".perfbench-work")
    workdir = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
