"""End-to-end runs of the batch front end through main(argv)."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import weylab
from pointwise_refit import refit_slope
from weylab import cli, constants, shapeopt, smoothing, spectra
from weylab.cli import main, parse_domain, parse_grid
from weylab.constants import heat_polygon_error_bound
from weylab.geometry import ConvexPolygon, corner_params, save_polygon
from weylab.spectra import Disk, Rectangle, Spectrum


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_parse_grid():
    assert np.array_equal(parse_grid("1:100:5"), np.linspace(1.0, 100.0, 5))
    assert np.allclose(parse_grid("1e1:1e3:3log"), [10.0, 100.0, 1000.0], rtol=1e-14)
    assert parse_grid("7:7:1").tolist() == [7.0]
    for bad in ("1:2", "a:b:c", "5:1:10", "0:10:4log", "1:10:0"):
        with pytest.raises(ValueError):
            parse_grid(bad)


def test_parse_domain(tmp_path):
    assert parse_domain("unit-square") == Rectangle(1.0, 1.0)
    assert parse_domain("rect:2:3") == Rectangle(2.0, 3.0)
    assert parse_domain("disk:1.5") == Disk(1.5)
    path = tmp_path / "poly.csv"
    save_polygon(ConvexPolygon.regular(5), path)
    loaded = parse_domain(f"polygon:{path}")
    assert isinstance(loaded, ConvexPolygon) and len(loaded.vertices) == 5
    with pytest.raises(ValueError):
        parse_domain("torus:1")
    with pytest.raises(ValueError):
        parse_domain("rect:2")


def test_constants_table(capsys):
    code, rep = run_cli(capsys, ["constants"])
    assert code == 0
    assert rep["command"] == "constants"
    assert rep["version"] == weylab.__version__
    assert len(rep["results"]["table"]) == 12
    row = next(r for r in rep["results"]["table"] if r["gamma"] == 0.0 and r["dim"] == 2)
    assert abs(row["lt_constant"] - 1.0 / (4.0 * math.pi)) < 1e-16
    code, rep = run_cli(capsys, ["constants", "--gamma", "1.5", "--dim", "2"])
    assert rep["results"]["table"] == [
        {"gamma": 1.5, "dim": 2, "lt_constant": rep["results"]["table"][0]["lt_constant"]}]
    assert abs(rep["results"]["table"][0]["lt_constant"] - 1.0 / (10.0 * math.pi)) < 1e-16
    assert rep["config"]["gamma"] == 1.5


def test_spectrum_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "sq.spec")
    code, rep = run_cli(capsys, ["spectrum", "--domain", "unit-square",
                                 "--lambda-max", "100", "--out", out])
    assert code == 0
    spec = Spectrum.load(out)
    assert rep["results"]["count"] == len(spec)
    assert rep["results"]["exact"] is True
    assert rep["results"]["complete_below"] == 100.0
    assert abs(spec.eigenvalues[0] - 2.0 * math.pi**2) < 1e-13


def test_spectrum_requires_out(capsys):
    code, rep = run_cli(capsys, ["spectrum", "--lambda-max", "50"])
    assert code == 1
    assert rep["error"]["type"] == "ValueError"
    assert "--out" in rep["error"]["message"]


def test_weyl_check(capsys):
    argv = ["weyl-check", "--lambda", "1e4:1e5:6log", "--gamma", "1.0"]
    code, rep = run_cli(capsys, argv)
    assert code == 0
    rows = rep["results"]["rows"]
    assert len(rows) == 6
    for r in rows:
        assert set(r) == {"lambda", "computed", "one_term", "two_term", "remainder",
                          "remainder_over_lambda_gamma", "envelope", "within_envelope"}
        # unit-square corner term: remainder / lambda^gamma hovers near 1/4
        assert abs(r["remainder_over_lambda_gamma"] - 0.25) < 0.05
    assert rep["results"]["all_within_envelope"] is True


def test_weyl_check_empty_grid(capsys):
    code, rep = run_cli(capsys, ["weyl-check", "--lambda", "10:100:0"])
    assert code == 1
    assert rep["error"]["type"] == "ValueError"
    assert "empty" in rep["error"]["message"]


def test_polygon_check(capsys):
    code, rep = run_cli(capsys, ["polygon-check", "--lambda", "1e4:1e5:8log"])
    assert code == 0
    assert rep["results"]["corner_sum"] == 0.25
    assert rep["results"]["mean_abs_third_term_deviation"] < 0.05
    code, rep = run_cli(capsys, ["polygon-check", "--domain", "disk:1",
                                 "--lambda", "1e4:1e5:4log"])
    assert code == 1
    assert "rectangle domains only" in rep["error"]["message"]


def test_heat_check_rectangle(capsys):
    code, rep = run_cli(capsys, ["heat-check", "--t", "0.005:0.02:3"])
    assert code == 0
    rows = rep["results"]["rows"]
    assert [r["t"] for r in rows] == [0.005, 0.0125, 0.02]
    for r in rows:
        assert "polygon_prediction" in r and "within_bound" in r
        assert abs(r["deviation"]) <= r["polygon_bound"] + r["tail_bound"]
    assert rep["results"]["all_within_bound"] is True


def test_heat_check_radius_comes_from_corner_params(tmp_path, capsys):
    # one source for R: the unit square gives the same bound as a rectangle
    # and as a polygon, and where containment binds (a flat triangle, whose
    # closest vertices are far apart) the report uses the theorem's radius
    grid = ["--t", "0.01:0.04:4"]
    square = tmp_path / "square.json"
    save_polygon(ConvexPolygon.rectangle(1.0, 1.0), str(square))
    _, rect = run_cli(capsys, ["heat-check", "--domain", "unit-square", *grid])
    _, poly = run_cli(capsys, ["heat-check", "--domain", f"polygon:{square}",
                               "--grid-h", "0.02", *grid])
    assert ([r["polygon_bound"] for r in rect["results"]["rows"]]
            == [r["polygon_bound"] for r in poly["results"]["rows"]])
    tri = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.5, 0.15]])
    path = tmp_path / "triangle.json"
    save_polygon(tri, str(path))
    code, rep = run_cli(capsys, ["heat-check", "--domain", f"polygon:{path}",
                                 "--grid-h", "0.02", *grid])
    assert code == 0
    alpha, big_r = corner_params(tri)
    for r in rep["results"]["rows"]:
        assert r["polygon_bound"] == heat_polygon_error_bound(r["t"], tri.area, 3, alpha, big_r)


class _Forwarding:
    """A domain of no weylab class: it only forwards the domain interface."""

    def __init__(self, inner):
        self._inner = inner

    area = property(lambda self: self._inner.area)
    perimeter = property(lambda self: self._inner.perimeter)
    inradius = property(lambda self: self._inner.inradius)
    angles = property(lambda self: self._inner.angles)

    def key(self):
        return self._inner.key()

    def corners(self):
        return self._inner.corners()

    def spectrum(self, bc, lambda_max, h=None):
        return self._inner.spectrum(bc, lambda_max, h)


def test_any_domain_with_the_interface_passes_through_the_cli(capsys, monkeypatch):
    argvs = [["weyl-check", "--domain", "rect:1:2", "--lambda", "1e3:1e4:5log"],
             ["weyl-check", "--domain", "rect:1:2", "--bc", "neumann", "--lambda", "1e3:1e4:5log"],
             ["heat-check", "--domain", "rect:1:2", "--t", "0.01:0.04:4"]]
    want = []
    for argv in argvs:
        assert main(argv) == 0
        want.append(capsys.readouterr().out)
    assert "polygon_bound" in want[-1]
    monkeypatch.setattr(cli, "parse_domain", lambda text: _Forwarding(Rectangle(1.0, 2.0)))
    for argv, w in zip(argvs, want):
        assert main(argv) == 0
        assert capsys.readouterr().out == w


def test_heat_check_disk(capsys):
    code, rep = run_cli(capsys, ["heat-check", "--domain", "disk:1.0",
                                 "--t", "0.05:0.1:2"])
    assert code == 0
    for r in rep["results"]["rows"]:
        assert set(r) == {"t", "theta", "tail_bound", "two_term"}
    assert "all_within_bound" not in rep["results"]


def test_pointwise_check(capsys):
    code, rep = run_cli(capsys, ["pointwise-check", "--lambda", "1e3:1e5:600log"])
    assert code == 0
    res = rep["results"]
    assert res["point"] == [0.5, 0.5]
    assert res["expected_exponent"] == 1.5
    grid = np.geomspace(1e3, 1e5, 600)
    assert abs(res["fitted_exponent"] - refit_slope("dirichlet", (0.5, 0.5), 1.0, grid)) < 1e-9
    assert res["within_band"] is True


def test_pointwise_check_custom_point(capsys):
    code, rep = run_cli(capsys, ["pointwise-check", "--lambda", "1e3:1e5:600log",
                                 "--x", "0.31,0.47"])
    assert code == 0
    assert rep["results"]["point"] == [0.31, 0.47]
    assert rep["results"]["within_band"] is True
    code, rep = run_cli(capsys, ["pointwise-check", "--lambda", "1e3:1e5:600log",
                                 "--x", "0.31"])
    assert code == 1 and rep["error"]["type"] == "ValueError"


def test_tauberian_demo(capsys):
    code, rep = run_cli(capsys, ["tauberian-demo"])
    assert code == 0
    b_table = rep["results"]["b_table"]
    assert [row["m"] for row in b_table] == list(range(7))
    assert b_table[0]["b"] == 1.0
    assert b_table[1]["b"] == 0.0 and b_table[3]["b"] == 0.0 and b_table[5]["b"] == 0.0
    assert max(row["closed_form_gap"] for row in b_table) <= 1e-10
    residuals = rep["results"]["identity_residuals"]
    assert len(residuals) == 6
    assert {r["measure"] for r in residuals} == {"delta(1)", "delta(1)+delta(2)", "three-atom"}
    assert rep["results"]["max_residual"] < 1e-5


def test_geometry_suite(capsys):
    code, rep = run_cli(capsys, ["geometry", "--count", "10", "--seed", "3"])
    assert code == 0
    res = rep["results"]
    assert res["polygons"] == 10 and res["seed"] == 3
    assert set(res["worst"]) == {"level_volume_bound", "theta_vs_perimeter", "bishop_gromov"}
    assert res["all_ok"] is True


def test_geometry_builds_one_schedule_per_polygon(capsys, monkeypatch):
    import weylab.cli as cli
    import weylab.geometry as geometry
    calls = {"schedule": 0, "center": 0}
    build, center = geometry._collapse_schedule, cli.chebyshev_center

    def counted_build(poly):
        calls["schedule"] += 1
        return build(poly)

    def counted_center(poly):
        calls["center"] += 1
        return center(poly)

    monkeypatch.setattr(geometry, "_collapse_schedule", counted_build)
    monkeypatch.setattr(cli, "chebyshev_center", counted_center)
    code, rep = run_cli(capsys, ["geometry", "--count", "5"])
    assert code == 0 and rep["results"]["all_ok"] is True
    assert calls == {"schedule": 5, "center": 5}


def test_shape_opt(tmp_path, capsys):
    csv = str(tmp_path / "trace.csv")
    code, rep = run_cli(capsys, ["shape-opt", "--lambda", "400:500:2",
                                 "--tol", "1e-4", "--csv", csv])
    assert code == 0
    res = rep["results"]
    assert len(res["runs"]) == 2
    assert res["runs"][0]["best"]["objective"] > 0.0
    assert len(res["study"]) == 2
    assert isinstance(res["gap_weakly_decreasing"], bool)
    assert res["trace_csv"] == csv
    with open(csv) as fh:
        assert fh.readline().strip() == "params,objective"
    # a single-lambda campaign carries no study block
    code, rep = run_cli(capsys, ["shape-opt", "--lambda", "100:100:1", "--tol", "1e-3"])
    assert "study" not in rep["results"]
    # gamma < 1 runs are certified too
    code, rep = run_cli(capsys, ["shape-opt", "--lambda", "3e3:3e3:1", "--gamma", "0.5",
                                 "--tol", "1e-6"])
    gap = rep["results"]["runs"][0]["certified_gap"]
    assert isinstance(gap, float) and gap <= 1e-6


NAN = float("nan")
BAD_ORDERS = {
    "shape-opt": lambda: cli.cmd_shape_opt(cli.build_parser().parse_args(
        ["shape-opt", "--lambda", "1e3:1e3:1", "--gamma", "nan"])),
    "optimize_rectangle": lambda: shapeopt.optimize_rectangle(1e3, NAN, "dirichlet"),
    "rectangle_riesz_objective": lambda: shapeopt.rectangle_riesz_objective(1.0, 1e3, NAN,
                                                                           "dirichlet"),
    "OptimizationRun": lambda: shapeopt.OptimizationRun("rectangle", 10.0, NAN, "dirichlet", (),
                                                        (1.0, 0.0), 0.0),
    "riesz_mean": lambda: spectra.riesz_mean(
        spectra.rectangle_spectrum(1.0, 1.0, "dirichlet", 1e3), 500.0, NAN),
    "pointwise_spectral_function": lambda: spectra.pointwise_spectral_function(
        Rectangle(1.0, 1.0), (0.5, 0.5), 500.0, NAN, "dirichlet"),
    "default_envelope_alpha": lambda: constants.default_envelope_alpha(NAN),
    "K0-nan": lambda: smoothing.AtomicMeasure(K0=NAN),
    "K0-inf": lambda: smoothing.AtomicMeasure(K0=float("inf")),
}


@pytest.mark.parametrize("call", BAD_ORDERS.values(), ids=BAD_ORDERS.keys())
def test_nan_order_or_point_mass_is_refused_at_once(call):
    # `gamma < 0` is false for NaN: past such a test shape-opt runs to its
    # evaluation cap and fails on the certified gap, and riesz_mean returns nan
    with pytest.raises(ValueError, match="gamma|K0"):
        call()


def test_report_goes_to_file_with_out(tmp_path, capsys):
    path = str(tmp_path / "report.json")
    code = main(["constants", "--gamma", "1.0", "--dim", "2", "--out", path])
    assert code == 0
    assert capsys.readouterr().out == ""
    with open(path) as fh:
        rep = json.load(fh)
    assert rep["results"]["table"][0]["dim"] == 2


def test_identical_invocations_identical_bytes(capsys):
    argv = ["weyl-check", "--lambda", "1e3:1e4:5log", "--gamma", "0.5"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_fd_reports_are_identical_across_processes(tmp_path):
    # eigsh's start vector is seeded, so separate processes print the same bytes
    square = tmp_path / "square.json"
    save_polygon(ConvexPolygon.rectangle(1.0, 1.0), str(square))
    argv = [sys.executable, "-m", "weylab.cli", "heat-check", "--domain", f"polygon:{square}",
            "--grid-h", "0.02", "--t", "0.01:0.04:4"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(weylab.__file__)), os.environ.get("PYTHONPATH", "")]))
    runs = [subprocess.run(argv, capture_output=True, env=env, check=True).stdout
            for _ in range(2)]
    assert json.loads(runs[0])["results"]["rows"]
    assert runs[0] == runs[1]


def test_argparse_exits_are_propagated(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_readme_cli_block_runs(readme_block_run):
    # every `weylab ...` line of the README's CLI block, run in a scratch
    # directory, then the two extra lines of the function-entry trace
    runs, _ = readme_block_run
    assert len(runs) >= 12
    for argv, code, out in runs:
        assert code == 0, " ".join(argv)
        assert "results" in json.loads(out), " ".join(argv)
