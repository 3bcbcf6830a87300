"""The three campaigns: fixed report lists plus the inputs drawn from the seed.

A campaign is a list of reports.  Each report is either a CLI invocation
(``argv`` for ``weylab.cli.main``) or the Riesz-lift report, which no
subcommand reaches and which the worker computes through ``weylab.riesz``.
The seed only moves inputs that leave the amount of work essentially
unchanged: the aspect of the lifted rectangle, and which rows, aspects and
polygons the checks sample.
"""

import random

WORKLOADS = ("spectra", "tauberian", "shape-geometry")

# the known fault that the shape-geometry campaign keeps: for gamma < 1,
# optimize_rectangle returns a local optimum (CHANGES.md, FOUND line)
KNOWN_FAULT = "shape-opt-g0.5-3e4"

# reports whose last digits change from process to process: eigsh draws its
# start vector from fresh OS entropy (CHANGES.md, FOUND line); repeats of
# these are compared number by number instead of byte by byte
UNSEEDED_FD = ("weyl-hexagon-fd", "heat-square-fd")
FD_REPEAT_REL = 1e-10

HEXAGON = "hexagon.json"    # unit-area regular hexagon, geometry.save_polygon
SQUARE = "square.json"      # unit square as a polygon, geometry.save_polygon
SPECTRUM_FILE = "spectrum-rect-1x2.txt"

LIFT_AREA = 1.5             # lifted rectangle: sides sqrt(1.5/rho) x sqrt(1.5 rho)
LIFT_LAMBDA_MAX = 1.6e4     # about 1860 distinct Dirichlet eigenvalues
LIFT_KAPPAS = (0.5, 1.0, 1.5)
SEMIGROUP_KAPPAS = (0.5, 1.0)
CERTIFICATE_ORDERS = (0.5, 1.5)


def _cli(rid, text):
    return {"id": rid, "argv": text.split()}


def reports(workload, seed):
    """The campaign's report list for this seed (same seed, same list)."""
    rng = random.Random(seed)
    if workload == "spectra":
        return [
            _cli("weyl-square-D", "weyl-check --domain unit-square --bc dirichlet"
                 " --lambda 1e4:1e5:20log --gamma 1"),
            _cli("heat-rect-D", "heat-check --domain rect:1:1.5 --bc dirichlet --t 0.005:0.02:4"),
            _cli("polygon-rect", "polygon-check --domain rect:1:2 --lambda 1e4:1e5:12log"),
            _cli("pointwise-square", "pointwise-check --domain unit-square --bc dirichlet"
                 " --lambda 1e3:1e5:600log --x 0.31,0.47"),
            _cli("weyl-rect-N", "weyl-check --domain rect:1:2 --bc neumann --lambda 1e4:1e5:20log"),
            _cli("weyl-disk-D", "weyl-check --domain disk:1 --bc dirichlet --lambda 1e3:1e5:20log"),
            _cli("weyl-disk-N", "weyl-check --domain disk:1 --bc neumann --lambda 1e3:1e5:20log"),
            _cli("weyl-hexagon-fd", f"weyl-check --domain polygon:{HEXAGON} --grid-h 0.01"
                 " --lambda 1e2:2e3:8log"),
            _cli("heat-square-fd", f"heat-check --domain polygon:{SQUARE} --grid-h 0.02"
                 " --t 0.01:0.04:4"),
            dict(_cli("spectrum-write", "spectrum --domain rect:1:2 --lambda-max 2e5"
                      f" --out {SPECTRUM_FILE}"), files=[SPECTRUM_FILE]),
        ]
    if workload == "tauberian":
        rho = rng.uniform(0.55, 0.85)
        return [
            _cli("tauberian-default", "tauberian-demo"),
            _cli("tauberian-eps0.05", "tauberian-demo --eps 0.05 --tau 5"),
            {"id": "riesz-lifts",
             "lift": {"a": (LIFT_AREA / rho) ** 0.5, "b": (LIFT_AREA * rho) ** 0.5,
                      "lambda_max": LIFT_LAMBDA_MAX, "kappas": list(LIFT_KAPPAS),
                      "semigroup": list(SEMIGROUP_KAPPAS),
                      "certificate": list(CERTIFICATE_ORDERS)}},
        ]
    if workload == "shape-geometry":
        return [
            _cli("shape-opt-g1-D-ladder", "shape-opt --lambda 1e2:1e6:49log --gamma 1 --bc dirichlet"),
            _cli("shape-opt-g1-N", "shape-opt --lambda 1e3:1e5:7log --gamma 1 --bc neumann"),
            _cli("shape-opt-g1.5-D", "shape-opt --lambda 1e3:1e5:5log --gamma 1.5 --bc dirichlet"),
            _cli("geometry-200", "geometry --count 200 --seed 7"),
            _cli(KNOWN_FAULT, "shape-opt --lambda 3e4:3e4:1 --gamma 0.5 --bc dirichlet"),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def check_plan(seed):
    """Seed-drawn sampling for the checks: which rows, ladder points and polygons."""
    rng = random.Random(seed * 7919 + 17)
    return {
        "rect_rows": rng.sample(range(20), 3),        # weyl-check rows (20-point grids)
        "polygon_rows": rng.sample(range(12), 3),     # polygon-check rows
        "disk_rows": rng.sample(range(10), 2),        # disk rows with lambda <= 1e4
        "ladder_points": rng.sample(range(49), 2),    # gamma = 1 Dirichlet ladder
        "neumann_points": rng.sample(range(7), 2),
        "g15_points": rng.sample(range(3), 1),        # gamma = 1.5 runs with lambda <= 1e4
        "polygon_seed": rng.randrange(2**31),         # polygons for the inradius check
    }
