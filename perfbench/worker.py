"""One timed repeat of a campaign, in a fresh process.

    python3 worker.py CAMPAIGN_JSON OUT_JSON [--trace]

Run with weylab's ``src`` on PYTHONPATH and the run's scratch directory as
the working directory.  The worker times ``import weylab.cli`` (setup), then
the whole campaign (wall and CPU time of every thread), and records the
process's peak resident memory.  Each CLI report goes through
``weylab.cli.main(argv)`` with stdout captured; the Riesz-lift report calls
``weylab.riesz`` directly.  Outputs are serialized only after the timer
stops, and written to OUT_JSON for the checks in the parent.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def lift_report(spec):
    """Counting function of a rectangle Dirichlet spectrum, lifted at several orders.

    N is sampled at its distinct eigenvalues (grid starting at 0) as a
    piecewise-constant-left function: on [g_i, g_{i+1}) it equals
    N(g_{i+1}) = #{lambda_n <= g_i}.
    """
    import numpy as np
    from weylab import riesz, spectra

    spec_ = spectra.rectangle_spectrum(spec["a"], spec["b"], "dirichlet", spec["lambda_max"])
    grid = np.concatenate(([0.0], np.unique(spec_.eigenvalues)))
    ends = np.append(grid[1:], spec_.complete_below)
    values = [spectra.counting_function(spec_, float(x)) for x in ends]
    f = riesz.SampledFunction(grid, values, riesz.PIECEWISE_CONSTANT)
    lifts = {k: riesz.riesz_lift(f, k).values for k in spec["kappas"]}
    k1, k2 = spec["semigroup"]
    dev = riesz.semigroup_check(f, k1, k2)
    sigma, gamma = spec["certificate"]
    cert = riesz.riesz_interpolation_certificate(f, sigma, gamma)
    return {"grid": grid, "values": np.asarray(values, dtype=float), "lifts": lifts,
            "semigroup_deviation": dev, "certificate": cert}


def _serialize_lift(out):
    return json.dumps({
        "grid": out["grid"].tolist(), "values": out["values"].tolist(),
        "lifts": {repr(k): v.tolist() for k, v in out["lifts"].items()},
        "semigroup_deviation": out["semigroup_deviation"],
        "certificate": list(out["certificate"]),
    })


def main(argv):
    campaign_path, out_path = argv[1], argv[2]
    traced = "--trace" in argv[3:]
    with open(campaign_path) as fh:
        campaign = json.load(fh)

    t = time.perf_counter()
    import weylab.cli
    setup_s = time.perf_counter() - t
    if not weylab.cli.__file__.startswith(campaign["src"]):
        raise RuntimeError(f"weylab imported from {weylab.cli.__file__}, not {campaign['src']}")

    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    raw = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for rep in campaign["reports"]:
        if "argv" in rep:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = weylab.cli.main(rep["argv"])
            raw.append((rc, buf))
        else:
            raw.append((0, lift_report(rep["lift"])))
    t1 = time.perf_counter()
    cpu1 = _cpu()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    outputs = []
    for rep, (rc, out) in zip(campaign["reports"], raw):
        text = out.getvalue() if "argv" in rep else _serialize_lift(out)
        entry = {"id": rep["id"], "rc": rc, "stdout": text,
                 "digest": hashlib.sha256(text.encode()).hexdigest()}
        for path in rep.get("files", []):
            with open(path, "rb") as fh:
                entry.setdefault("file_digests", {})[path] = hashlib.sha256(fh.read()).hexdigest()
        outputs.append(entry)
    result = {"setup_s": setup_s, "campaign_s": t1 - t0, "cpu_s": cpu1 - cpu0,
              "peak_rss_mb": peak_kb / 1024.0, "outputs": outputs}
    if tracer is not None:
        result["layers"] = tracer.metrics(t0, t1)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
