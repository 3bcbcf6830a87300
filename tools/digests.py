"""Compare the checked reports of two weylab source trees, report by report.

    python3 tools/digests.py PARENT_SRC CHANGE_SRC [--expect-moved ID ...]

The reports are the `weylab` lines of the README's CLI block, the TRACE_EXTRA
lines below (the test suite's trace runs both lists, from here), the CLI
reports of the three perfbench campaigns at seed 1 and perfbench's Riesz-lift
report at seeds 1-3, all read from the checkout that holds this script; an
argv named by several lists runs once.
Each side runs in its own subprocess, with its src first on sys.path, in a
fresh temporary directory holding the hexagon.json and square.json inputs that
perfbench/run.py writes.

Every report (stdout and exit code) and every file a report writes prints
`equal` or `moved`.  For a moved JSON report the paths added, removed or
changed are listed, with the largest relative move among the numeric leaves;
for a moved text file, the lines that differ.  The exit status is 1 when
anything moved that no --expect-moved names (a report id, such as
weyl-square-D or readme-3, or a file name).
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
LIFT_SEEDS = (1, 2, 3)
SHOWN = 12  # paths or lines listed per kind of move


# run after the README lines, here and in the test suite's trace
# (tests/conftest.py): a polygon FD heat-check on a square that save_polygon
# writes there, a Neumann gamma < 1 shape-opt that writes its trace CSV, an
# FD spectrum of that square whose count at lambda_max is not trusted, so its
# top cut moves a little lower, and a Neumann disk heat-check, whose tails
# integrate the disk's own count bound
TRACE_EXTRA = ("heat-check --domain polygon:square.json --grid-h 0.02 --t 0.01:0.04:4",
               "shape-opt --lambda 100:100:1 --gamma 0.5 --bc neumann --csv trace.csv",
               "spectrum --domain polygon:square.json --grid-h 0.02 --lambda-max 5000 --out fd-square.txt",
               "heat-check --domain disk:1 --bc neumann --t 0.005:0.02:4",
               "spectrum --domain disk:1 --bc neumann --lambda-max 2e4 --out disk-n.txt")


def readme_argvs():
    """The argv of each `weylab` line of the README's CLI block."""
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```", 2)[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("weylab ")]


def trace_extra_argvs():
    return [line.split() for line in TRACE_EXTRA]


def plan():
    """[{"names": [...], "argv": [...]} or {"names": [...], "lift": {...}}], one per distinct report."""
    sys.path.insert(0, str(PERFBENCH))
    import campaigns
    named = [(f"readme-{i}", argv) for i, argv in enumerate(readme_argvs(), 1)]
    named += [(f"trace-extra-{i}", argv) for i, argv in enumerate(trace_extra_argvs(), 1)]
    named += [(rep["id"], rep["argv"]) for workload in campaigns.WORKLOADS
              for rep in campaigns.reports(workload, 1) if "argv" in rep]
    lifts = [{"names": [f"{rep['id']}-seed{seed}"], "lift": rep["lift"]}
             for seed in LIFT_SEEDS for rep in campaigns.reports("tauberian", seed) if "lift" in rep]
    items = {}
    for name, argv in named:
        items.setdefault(tuple(argv), {"names": [], "argv": argv})["names"].append(name)
    return list(items.values()) + lifts


def _snapshot(directory):
    return {p.name: p.read_text() for p in Path(directory).iterdir() if p.is_file()}


def run_side(src, plan_path, out_path):
    """Run every planned report from src in the working directory; write their outputs as JSON."""
    sys.path.insert(0, src)
    sys.path.append(str(PERFBENCH))
    import campaigns
    import weylab.cli
    from weylab.geometry import ConvexPolygon, save_polygon
    from worker import _serialize_lift, lift_report
    if not weylab.cli.__file__.startswith(src):
        raise RuntimeError(f"weylab imported from {weylab.cli.__file__}, not {src}")
    with open(plan_path) as fh:
        items = json.load(fh)
    save_polygon(ConvexPolygon.regular(6, area=1.0), campaigns.HEXAGON)
    save_polygon(ConvexPolygon.rectangle(1.0, 1.0), campaigns.SQUARE)
    seen, results = _snapshot("."), []
    for item in items:
        if "argv" in item:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = weylab.cli.main(item["argv"])
            text = buf.getvalue()
        else:
            rc, text = 0, _serialize_lift(lift_report(item["lift"]))
        now = _snapshot(".")
        results.append({"rc": rc, "stdout": text,
                        "files": {k: v for k, v in now.items() if seen.get(k) != v}})
        seen = now
    with open(out_path, "w") as fh:
        json.dump(results, fh)


def _leaves(node, path=""):
    """{path: scalar} over a parsed JSON document; an empty list or object is a leaf."""
    if isinstance(node, dict) and node:
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in node.items())
    elif isinstance(node, list) and node:
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return {path: node}
    out = {}
    for sub, value in items:
        out.update(_leaves(value, sub))
    return out


def _numeric(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _rel_move(x, y):
    scale = max(abs(x), abs(y))
    return 0.0 if x == y else abs(x - y) / scale if scale else float("inf")


def describe_move(old, new):
    """Lines describing how text new differs from text old; [] when they are equal."""
    if old == new:
        return []
    try:
        a, b = _leaves(json.loads(old)), _leaves(json.loads(new))
    except ValueError:
        old_lines, new_lines = old.splitlines(), new.splitlines()
        differ = [i for i in range(max(len(old_lines), len(new_lines)))
                  if old_lines[i:i + 1] != new_lines[i:i + 1]]
        out = [f"{len(differ)} of {len(old_lines)} -> {len(new_lines)} lines differ"]
        for i in differ[:3]:
            out += [f"  line {i + 1}: {old_lines[i:i + 1]} -> {new_lines[i:i + 1]}"]
        return out
    added, removed = sorted(b.keys() - a.keys()), sorted(a.keys() - b.keys())
    changed = sorted(p for p in a.keys() & b.keys() if repr(a[p]) != repr(b[p]))
    moves = [_rel_move(a[p], b[p]) for p in changed if _numeric(a[p]) and _numeric(b[p])]
    out = [f"{len(added)} added, {len(removed)} removed, {len(changed)} changed"
           f" ({len(moves)} numeric, largest relative move {max(moves, default=0.0):.3g})"]
    for kind, paths in (("added", added), ("removed", removed), ("changed", changed)):
        out += [f"  {kind} {p}" for p in paths[:SHOWN]]
        if len(paths) > SHOWN:
            out.append(f"  ... {len(paths) - SHOWN} more {kind}")
    return out


def _run(src, items):
    with tempfile.TemporaryDirectory() as tmp:
        plan_path, out_path = os.path.join(tmp, "plan.json"), os.path.join(tmp, "out.json")
        work = os.path.join(tmp, "work")
        os.mkdir(work)
        with open(plan_path, "w") as fh:
            json.dump(items, fh)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--side", src, plan_path,
                        out_path], cwd=work, env=env, check=True)
        with open(out_path) as fh:
            return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--expect-moved", action="append", default=[], metavar="ID",
                        help="a report id or file name allowed to move (repeatable)")
    args = parser.parse_args(argv)
    items = plan()
    sides = [_run(os.path.abspath(src), items) for src in (args.parent_src, args.change_src)]
    known = {n for item in items for n in item["names"]}
    known |= {f for side in sides for r in side for f in r["files"]}
    unknown = sorted(set(args.expect_moved) - known)
    if unknown:
        parser.error(f"--expect-moved names no report or file: {', '.join(unknown)}")
    unexpected = []

    def verdict(names, shown, note, lines):
        print(f"{'moved' if lines else 'equal'}  {shown}  ({note})")
        print("".join(f"    {line}\n" for line in lines), end="")
        if lines and not set(names) & set(args.expect_moved):
            unexpected.append(names[0])

    for item, old, new in zip(items, *sides):
        lines = describe_move(old["stdout"], new["stdout"])
        if old["rc"] != new["rc"]:
            lines.insert(0, f"exit code {old['rc']} -> {new['rc']}")
        verdict(item["names"], " = ".join(item["names"]),
                " ".join(item["argv"]) if "argv" in item else "Riesz-lift report", lines)
        for name in sorted(old["files"].keys() | new["files"].keys()):
            verdict([name], f"  {name}", f"written by {item['names'][0]}",
                    describe_move(old["files"].get(name, ""), new["files"].get(name, "")))
    print(f"{len(unexpected)} unexpected move(s){': ' + ', '.join(unexpected) if unexpected else ''}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(run_side(*sys.argv[2:]) if sys.argv[1:2] == ["--side"] else main())
