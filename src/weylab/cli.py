"""Batch front end: reproducible verification campaigns emitting JSON reports.

Every report embeds the command, library version, and the full flag set it was
produced from; no timestamps or hostnames, so identical configs give identical
bytes.  Dense series go to CSV side files, everything else into the report.
"""

import argparse
import json
import sys

import numpy as np

# no report uses riesz yet; it is loaded here because perfbench/worker.py wraps its
# functions right after `import weylab.cli`, and perfbench/spans.py looks them up in
# sys.modules.  ROADMAP item 8 (spans inside weylab) or item 13 (a CLI report that
# lifts) makes this import go.
from . import __version__, riesz
from .constants import (DIRICHLET, check_bc, corner_sum, error_envelope,
                        heat_polygon_error_bound, heat_polygon_prediction,
                        heat_two_term_prediction, lt_constant, one_term_prediction,
                        three_term_polygon_prediction, two_term_prediction)
from .geometry import (bishop_gromov_profile, chebyshev_center, distance_level_volume,
                       load_polygon, random_convex_polygon, theta_omega)
from .shapeopt import optimize_rectangle, symmetry_trend, write_trace_csv
from .smoothing import (AtomicMeasure, build_mollifier, build_phi_hierarchy,
                        iterated_identity_report, tauberian_order_check)
from .spectra import Disk, Rectangle, heat_trace, riesz_mean


def parse_grid(text, name="grid"):
    """start:stop:count with an optional log suffix, e.g. 1e4:1e5:20log."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} spec {text!r} must be start:stop:count")
    tail = parts[2].strip()
    log = tail.endswith("log")
    if log:
        tail = tail[:-3]
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(tail)
    except ValueError:
        raise ValueError(f"cannot parse {name} spec {text!r}")
    if count < 1:
        raise ValueError(f"{name} is empty (count = {count})")
    if count > 1 and not stop > start:
        raise ValueError(f"{name} must be strictly increasing, got {start}..{stop}")
    if log:
        if not start > 0:
            raise ValueError(f"log {name} needs start > 0")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def parse_domain(text):
    if text == "unit-square":
        return Rectangle(1.0, 1.0)
    if text.startswith("rect:"):
        parts = text.split(":")[1:]
        if len(parts) != 2:
            raise ValueError("rectangle domain is rect:A:B")
        return Rectangle(float(parts[0]), float(parts[1]))
    if text.startswith("disk:"):
        return Disk(float(text.split(":", 1)[1]))
    if text.startswith("polygon:"):
        return load_polygon(text.split(":", 1)[1])
    raise ValueError(f"unknown domain {text!r}; use unit-square, rect:A:B, disk:R or polygon:PATH")


# ---- subcommands -----------------------------------------------------------------


def cmd_constants(args):
    gammas = [args.gamma] if args.gamma is not None else [0.0, 0.5, 1.0, 1.5]
    dims = [args.dim] if args.dim is not None else [1, 2, 3]
    rows = []
    for g in gammas:
        for d in dims:
            rows.append({"gamma": g, "dim": d, "lt_constant": lt_constant(g, d)})
    return {"table": rows}


def cmd_spectrum(args):
    if args.out is None:
        raise ValueError("spectrum needs --out to store the eigenvalue file")
    spec = parse_domain(args.domain).spectrum(args.bc, args.lambda_max, args.grid_h)
    spec.save(args.out)
    return {"path": args.out, "count": len(spec), "complete_below": spec.complete_below,
            "exact": spec.exact, "domain": spec.domain}


def cmd_weyl_check(args):
    dom = parse_domain(args.domain)
    lams = parse_grid(args.lam, "--lambda")
    spec = dom.spectrum(args.bc, float(lams[-1]) + 1.0, args.grid_h)
    g = args.gamma

    def row(lam):
        computed = riesz_mean(spec, lam, g)
        two = two_term_prediction(lam, g, 2, dom.area, dom.perimeter, args.bc)
        env = error_envelope(lam, g, dom.perimeter, dom.inradius, 2, args.bc)
        rem = computed - two
        return {"lambda": lam, "computed": computed,
                "one_term": one_term_prediction(lam, g, 2, dom.area),
                "two_term": two, "remainder": rem,
                "remainder_over_lambda_gamma": rem / lam**g,
                "envelope": env, "within_envelope": bool(abs(rem) <= env)}

    rows = [row(float(l)) for l in lams]
    verdict = all(r["within_envelope"] for r in rows)
    return {"rows": rows, "all_within_envelope": verdict}


def cmd_polygon_check(args):
    dom = parse_domain(args.domain)
    if not isinstance(dom, Rectangle):
        raise ValueError("third-term extraction needs exact spectra: rectangle domains only")
    lams = parse_grid(args.lam, "--lambda")
    spec = dom.spectrum(args.bc, float(lams[-1]) + 1.0)
    g = args.gamma
    target = corner_sum(dom.angles)

    def row(lam):
        computed = riesz_mean(spec, lam, g)
        two = two_term_prediction(lam, g, 2, dom.area, dom.perimeter, args.bc)
        three = three_term_polygon_prediction(lam, g, dom.area, dom.perimeter,
                                              dom.angles, args.bc)
        return {"lambda": lam, "computed": computed, "two_term": two, "three_term": three,
                "third_term_ratio": (computed - two) / lam**g,
                "residual_after_three": computed - three}

    rows = [row(float(l)) for l in lams]
    dev = float(np.mean([abs(r["third_term_ratio"] - target) for r in rows]))
    return {"rows": rows, "corner_sum": target, "mean_abs_third_term_deviation": dev}


def cmd_heat_check(args):
    dom = parse_domain(args.domain)
    ts = parse_grid(args.t, "--t")
    lam_max = 30.0 / float(ts[0])
    spec = dom.spectrum(args.bc, lam_max, args.grid_h)
    polygonal = dom.angles is not None and check_bc(args.bc) == DIRICHLET
    if polygonal:
        alpha_min, big_r = dom.corners()
    rows = []
    for t in [float(t) for t in ts]:
        theta, tail = heat_trace(spec, t)
        r = {"t": t, "theta": theta, "tail_bound": tail,
             "two_term": heat_two_term_prediction(t, 2, dom.area, dom.perimeter, args.bc)}
        if polygonal:
            pred = heat_polygon_prediction(t, dom.area, dom.perimeter, dom.angles)
            bound = heat_polygon_error_bound(t, dom.area, len(dom.angles), alpha_min, big_r)
            r.update({"polygon_prediction": pred, "polygon_bound": bound,
                      "deviation": theta - pred,
                      "within_bound": bool(abs(theta - pred) <= bound + tail)})
        rows.append(r)
    out = {"rows": rows}
    if polygonal:
        out["all_within_bound"] = all(r["within_bound"] for r in rows)
    return out


def cmd_pointwise_check(args):
    dom = parse_domain(args.domain)
    if not isinstance(dom, Rectangle):
        raise ValueError("pointwise spectral functions need exact spectra: rectangle domains only")
    lams = parse_grid(args.lam, "--lambda")
    if args.x is None:
        x = (0.5 * dom.a, 0.5 * dom.b)
    else:
        parts = args.x.split(",")
        if len(parts) != 2:
            raise ValueError("--x must be two comma-separated coordinates")
        x = (float(parts[0]), float(parts[1]))
    slope = tauberian_order_check(dom, args.bc, x, args.gamma, np.asarray(lams, dtype=float))
    expected = args.gamma + 0.5
    band = 0.15 if args.gamma >= 1.0 else 0.2
    return {"point": list(x), "gamma": args.gamma, "fitted_exponent": slope,
            "expected_exponent": expected, "band": band,
            "within_band": bool(abs(slope - expected) <= band)}


def cmd_tauberian_demo(args):
    fam = build_mollifier()
    hier = build_phi_hierarchy(fam, args.eps)
    closed = hier.b_closed_form()
    b_rows = [{"m": m, "b": hier.b[m], "closed_form_gap": abs(hier.b[m] - closed[m])}
              for m in range(7)]
    measures = {
        "delta(1)": AtomicMeasure(atoms=((1.0, 1.0),)),
        "delta(1)+delta(2)": AtomicMeasure(atoms=((1.0, 1.0), (2.0, 1.0))),
        "three-atom": AtomicMeasure(atoms=((0.7, 0.4), (1.9, 1.3), (4.1, 0.8))),
    }
    residuals = []
    for name, mu in measures.items():
        for m in (1, 2):
            rep = iterated_identity_report(mu, m, args.tau, hier)
            rep["measure"] = name
            residuals.append(rep)
    return {"b_table": b_rows, "identity_residuals": residuals,
            "max_residual": max(r["residual"] for r in residuals)}


def cmd_geometry(args):
    rng = np.random.default_rng(args.seed)
    worst = {"level_volume_bound": 0.0, "theta_vs_perimeter": 0.0, "bishop_gromov": 0.0}
    for _ in range(args.count):
        poly = random_convex_polygon(rng)
        center, r_in = chebyshev_center(poly)
        for f in (0.15, 0.5, 0.9):
            s = f * r_in
            gap = distance_level_volume(poly, s) - s * poly.perimeter
            worst["level_volume_bound"] = max(worst["level_volume_bound"], gap)
        # the piecewise supremum must reproduce the l -> 0 limit (the perimeter)
        worst["theta_vs_perimeter"] = max(
            worst["theta_vs_perimeter"],
            abs(theta_omega(poly) - poly.perimeter) / poly.perimeter)
        prof = bishop_gromov_profile(poly, center, np.linspace(0.1 * r_in, 3.0 * poly.scale, 12))
        worst["bishop_gromov"] = max(worst["bishop_gromov"], float(np.max(np.diff(prof))))
    ok = (worst["level_volume_bound"] <= 1e-9 and worst["theta_vs_perimeter"] <= 1e-9
          and worst["bishop_gromov"] <= 1e-10)
    return {"polygons": args.count, "seed": args.seed, "worst": worst, "all_ok": bool(ok)}


def cmd_shape_opt(args):
    lams = [float(l) for l in parse_grid(args.lam, "--lambda")]
    runs = [optimize_rectangle(l, args.gamma, args.bc, args.tol) for l in lams]
    out = {"runs": [r.to_report() for r in runs]}
    if len(lams) > 1:
        study = [(r.lam, r.best[0], abs(r.best[0] - 1.0)) for r in runs]
        out["study"] = [{"lambda": l, "best_aspect": a, "symmetry_gap": g} for l, a, g in study]
        out["gap_weakly_decreasing"] = symmetry_trend(study)
    if args.csv:
        write_trace_csv(runs[-1], args.csv)
        out["trace_csv"] = args.csv
    return out


# ---- plumbing --------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="weylab",
                                description="verification campaigns for planar spectral asymptotics")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, domain=True, bc=True, gamma=True, lam=False, grid_h=False):
        if domain:
            sp.add_argument("--domain", default="unit-square",
                            help="unit-square | rect:A:B | disk:R | polygon:PATH")
        if bc:
            sp.add_argument("--bc", default="dirichlet", choices=["dirichlet", "neumann"])
        if gamma:
            sp.add_argument("--gamma", type=float, default=1.0)
        if lam:
            sp.add_argument("--lambda", dest="lam", required=True,
                            help="grid start:stop:count, log spacing with a log suffix")
        if grid_h:
            sp.add_argument("--grid-h", type=float, default=None,
                            help="FD mesh size for polygon domains")
        sp.add_argument("--out", default=None, help="write the JSON report here")

    sp = sub.add_parser("constants", help="semiclassical constant table")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=cmd_constants)

    sp = sub.add_parser("spectrum", help="generate and serialize a spectrum")
    common(sp, gamma=False, grid_h=True)
    sp.add_argument("--lambda-max", dest="lambda_max", type=float, required=True)
    sp.set_defaults(handler=cmd_spectrum)

    sp = sub.add_parser("weyl-check", help="two-term remainder sweep with envelope verdicts")
    common(sp, lam=True, grid_h=True)
    sp.set_defaults(handler=cmd_weyl_check)

    sp = sub.add_parser("polygon-check", help="third-term (corner sum) extraction")
    common(sp, lam=True)
    sp.set_defaults(handler=cmd_polygon_check)

    sp = sub.add_parser("heat-check", help="short-time heat trace against predictions")
    common(sp, grid_h=True)
    sp.add_argument("--t", required=True, help="time grid start:stop:count(log)")
    sp.set_defaults(handler=cmd_heat_check)

    sp = sub.add_parser("pointwise-check", help="pointwise remainder decay exponent")
    common(sp, lam=True)
    sp.add_argument("--x", default=None, help="evaluation point x,y (default: center)")
    sp.set_defaults(handler=cmd_pointwise_check)

    sp = sub.add_parser("tauberian-demo", help="mollifier coefficient table and identity residuals")
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--tau", type=float, default=3.0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=cmd_tauberian_demo)

    sp = sub.add_parser("geometry", help="convex-geometry invariant suite on random polygons")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=50)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=cmd_geometry)

    sp = sub.add_parser("shape-opt", help="rectangle Riesz-mean optimization runs")
    common(sp, domain=False, lam=True)
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="certified relative optimality gap")
    sp.add_argument("--csv", default=None, help="export the last run's trace as CSV")
    sp.set_defaults(handler=cmd_shape_opt)

    return p


def _config_dict(args):
    skip = {"handler", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        results = args.handler(args)
        report = {"command": args.command, "version": __version__,
                  "config": _config_dict(args), "results": results}
        text = json.dumps(report, indent=2)
        if args.out and args.command != "spectrum":
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0
    except Exception as exc:
        err = {"command": args.command, "version": __version__,
               "error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, indent=2))
        return 1


if __name__ == "__main__":
    sys.exit(main())
