"""Self-test of the checks: each must pass the real report and fail a perturbed one.

    python3 perfbench/selftest.py [--seed N]

Runs every campaign once (untimed), confirms that the checks pass each
report (except the known gamma = 0.5 fault, which must fail), then perturbs
one figure at a time, keeping the report self-consistent where it can, and
confirms that some check now fails.  Exits 1 if any perturbation slips
through.  Takes about a minute.
"""

import argparse
import copy
import json
import os
import shutil
import sys

import campaigns
import checks
import run

sys.path.insert(0, run.SRC)


def _rel(x, r):
    return x * (1.0 + r)


def _shift_row(rep, i, r):
    """Row i's computed value scaled by 1 + r, with the fields derived from it updated."""
    res = rep["results"]
    row = res["rows"][i]
    row["computed"] = _rel(row["computed"], r)
    if "remainder" in row:
        row["remainder"] = row["computed"] - row["two_term"]
        row["remainder_over_lambda_gamma"] = row["remainder"] / row["lambda"] ** rep["config"]["gamma"]
    if "third_term_ratio" in row:
        row["third_term_ratio"] = (row["computed"] - row["two_term"]) / row["lambda"] ** rep["config"]["gamma"]
        row["residual_after_three"] = row["computed"] - row["three_term"]
        res["mean_abs_third_term_deviation"] = sum(
            abs(x["third_term_ratio"] - res["corner_sum"]) for x in res["rows"]) / len(res["rows"])
    return rep


def _worse_best(rep, i):
    """Run i's best replaced by a worse trace point; every better point is dropped
    from the trace, so that dominance, the objective and the gap still look right."""
    run_ = rep["results"]["runs"][i]
    sign = 1.0 if rep["config"]["bc"] == "dirichlet" else -1.0
    objs = sorted({sign * t["objective"] for t in run_["trace"]})
    worse = sign * objs[len(objs) // 2]
    pt = next(t for t in run_["trace"] if t["objective"] == worse)
    run_["best"] = {"params": pt["params"], "objective": worse}
    run_["trace"] = [t for t in run_["trace"] if sign * t["objective"] <= sign * worse]
    if "study" in rep["results"]:
        rep["results"]["study"][i].update(best_aspect=pt["params"], symmetry_gap=abs(pt["params"] - 1.0))
    return rep


def _b4_old(rep):
    rep["results"]["b_table"][4]["b"] = 134.88210594843986
    return rep


def _odd_b(rep):
    rep["results"]["b_table"][3]["b"] = 1e-300
    return rep


def _residual(rep):
    r = rep["results"]["identity_residuals"][0]
    r["lhs"] = r["rhs"] + 2e-8
    r["residual"] = abs(r["lhs"] - r["rhs"])
    rep["results"]["max_residual"] = max(x["residual"] for x in rep["results"]["identity_residuals"])
    return rep


def _lift(rep, kappa, node, r):
    vals = rep["lifts"][repr(kappa)]
    vals[node] = _rel(vals[node], r)
    return rep


def _hexagon_outside(rep):
    row = rep["results"]["rows"][0]
    row["computed"] *= 2.0  # above the inscribed disk's Riesz mean, still inside the envelope?
    row["remainder"] = row["computed"] - row["two_term"]
    row["within_envelope"] = abs(row["remainder"]) <= row["envelope"]
    rep["results"]["all_within_envelope"] = all(r["within_envelope"] for r in rep["results"]["rows"])
    return rep


def _geometry_worst(rep):
    rep["results"]["worst"]["level_volume_bound"] = 2e-9
    return rep


def _slope(rep):
    rep["results"]["fitted_exponent"] += 1e-6
    return rep


def _heat(rep, i, r):
    row = rep["results"]["rows"][i]
    row["theta"] = _rel(row["theta"], r)
    row["deviation"] = row["theta"] - row["polygon_prediction"]
    return rep


def _certificate(rep):
    lhs, rhs, _ = rep["certificate"]
    rep["certificate"] = [lhs * 3.0, rhs, lhs * 3.0 / rhs]
    return rep


def _semigroup(rep):
    rep["semigroup_deviation"] = 1e-11 * max(abs(v) for v in rep["lifts"]["1.5"])
    return rep


def _gap(rep):
    rep["results"]["runs"][3]["certified_gap"] = 2e-12
    return rep


def perturbations(plan):
    """(report id, description, perturbation of the parsed output)."""
    i, d = plan["rect_rows"][0], plan["disk_rows"][0]
    return [
        ("weyl-square-D", "Riesz mean off by 1e-9 relative", lambda r: _shift_row(r, i, 1e-9)),
        ("weyl-rect-N", "Neumann Riesz mean off by -1e-9 relative", lambda r: _shift_row(r, i, -1e-9)),
        ("polygon-rect", "three-term row off by 1e-9 relative",
         lambda r: _shift_row(r, plan["polygon_rows"][0], 1e-9)),
        ("weyl-disk-D", "disk Riesz mean off by 1e-9 relative", lambda r: _shift_row(r, d, 1e-9)),
        ("weyl-disk-N", "Neumann disk Riesz mean off by 1e-9 relative", lambda r: _shift_row(r, d, 1e-9)),
        ("weyl-hexagon-fd", "hexagon row outside the disk bracket", _hexagon_outside),
        ("heat-rect-D", "heat trace off by 1e-9 relative", lambda r: _heat(r, 2, 1e-9)),
        ("heat-square-fd", "FD heat trace off by 1e-9 relative", lambda r: _heat(r, 1, 1e-9)),
        ("pointwise-square", "fitted exponent off by 1e-6", _slope),
        ("tauberian-default", "the old b-table (b_4 = 134.88210594843986)", _b4_old),
        ("tauberian-eps0.05", "odd b_3 not exactly 0", _odd_b),
        ("tauberian-default", "identity residual 2e-8", _residual),
        ("riesz-lifts", "lift kappa=0.5 off by 1e-9 relative", lambda r: _lift(r, 0.5, 700, 1e-9)),
        ("riesz-lifts", "lift kappa=1.5 off by 1e-9 relative", lambda r: _lift(r, 1.5, 1500, 1e-9)),
        ("riesz-lifts", "semigroup deviation 1e-11 x sup", _semigroup),
        ("riesz-lifts", "interpolation lhs tripled", _certificate),
        ("shape-opt-g1-D-ladder", "best replaced by a worse trace point",
         lambda r: _worse_best(r, plan["ladder_points"][0])),
        ("shape-opt-g1-N", "best replaced by a worse trace point",
         lambda r: _worse_best(r, plan["neumann_points"][0])),
        ("shape-opt-g1.5-D", "best replaced by a worse trace point",
         lambda r: _worse_best(r, plan["g15_points"][0])),
        ("shape-opt-g1-D-ladder", "certified gap 2e-12 > tol", _gap),
        ("geometry-200", "worst level volume 2e-9 over its bound", _geometry_worst),
    ]


def _spectrum_file_perturbed(workdir, check_one):
    """The largest eigenvalue in the written spectrum file nudged by 1e-12 relative."""
    path = os.path.join(workdir, campaigns.SPECTRUM_FILE)
    with open(path) as fh:
        lines = fh.readlines()
    k, ev, blk = lines[-1].split(",")
    lines[-1] = f"{k},{float(ev) * (1 + 1e-12):.17g},{blk}"
    with open(path, "w") as fh:
        fh.writelines(lines)
    return check_one()


def _inradius_perturbed(check_one):
    """weylab.geometry.inradius made 1e-8 relative too large."""
    import weylab.geometry as geo
    original = geo.inradius
    geo.inradius = lambda poly: original(poly) * (1.0 + 1e-8)
    try:
        return check_one()
    finally:
        geo.inradius = original


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    base = os.path.join(run.ROOT, ".perfbench-work")
    workdir = os.path.join(base, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    slipped = 0
    try:
        outputs, reports = {}, {}
        for workload in campaigns.WORKLOADS:
            reps = campaigns.reports(workload, args.seed)
            run._write_inputs(workload, workdir)
            path = os.path.join(workdir, f"{workload}.json")
            with open(path, "w") as fh:
                json.dump({"src": run.SRC, "reports": reps}, fh)
            res = run._worker(path, os.path.join(workdir, f"{workload}-out.json"), workdir, False)
            for rep, out in zip(reps, res["outputs"]):
                outputs[rep["id"]], reports[rep["id"]] = out["stdout"], rep
        plan = campaigns.check_plan(args.seed)

        def verdict(rid, text):
            return checks.check(reports[rid], text, plan, workdir)

        for rid, text in outputs.items():
            fails = verdict(rid, text)
            expected = rid == campaigns.KNOWN_FAULT
            ok = bool(fails) == expected
            slipped += not ok
            print(f"{'ok ' if ok else 'BAD'} {rid}: {'fails as expected' if expected else 'passes'}"
                  f"{'' if ok else ' -- ' + '; '.join(fails[:3])}")
        for rid, what, perturb in perturbations(plan):
            text = json.dumps(perturb(copy.deepcopy(json.loads(outputs[rid]))))
            fails = verdict(rid, text)
            slipped += not fails
            print(f"{'ok ' if fails else 'BAD'} {rid}: {what} -> "
                  f"{fails[0] if fails else 'NOT DETECTED'}")
        for rid, what, fails in (
                ("spectrum-write", "file eigenvalue off by 1e-12 relative",
                 _spectrum_file_perturbed(workdir, lambda: verdict("spectrum-write", outputs["spectrum-write"]))),
                ("geometry-200", "inradius off by 1e-8 relative",
                 _inradius_perturbed(lambda: verdict("geometry-200", outputs["geometry-200"])))):
            slipped += not fails
            print(f"{'ok ' if fails else 'BAD'} {rid}: {what} -> {fails[0] if fails else 'NOT DETECTED'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print("all checks pass their reports and catch every perturbation" if not slipped
          else f"{slipped} self-test case(s) failed")
    return 1 if slipped else 0


if __name__ == "__main__":
    sys.exit(main())
