"""Spans and counters around weylab's layer boundaries, for the traced run.

``Tracer.install()`` wraps each boundary function in every ``weylab.*``
namespace that binds it (``cli`` imports by name), and a few methods on
their classes.  A span records its metric name, start, end, parent and
thread.  A span that opens in a ``_pmap`` pool thread, with nothing open in
that thread, takes the open ``cli.main`` span of the main thread as parent.

``self_times`` turns the spans of one campaign into per-metric self time.
Each moment of the campaign goes to the innermost open spans: a span's
self time is its duration minus the union of its children's intervals, and
when spans of several threads are innermost at once, the moment is shared
equally among them.  So the self times plus the untraced time (the
worker's own glue) add up to the campaign's wall time exactly.
"""

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, function or Class.method) -> metric that the span's self time feeds
SPANS = {
    ("weylab.cli", "main"): "cli.self_s",
    ("weylab.spectra", "rectangle_spectrum"): "spectra.lattice_s",
    ("weylab.spectra", "disk_spectrum"): "spectra.disk_s",
    ("weylab.spectra", "polygon_dirichlet_spectrum_fd"): "spectra.fd_s",
    ("weylab.spectra", "riesz_mean"): "spectra.sweep_s",
    ("weylab.spectra", "counting_function"): "spectra.sweep_s",
    ("weylab.spectra", "heat_trace"): "spectra.sweep_s",
    ("weylab.spectra", "pointwise_spectral_function"): "spectra.sweep_s",
    ("weylab.spectra", "Spectrum.save"): "spectra.save_s",
    ("weylab.smoothing", "build_mollifier"): "smoothing.hierarchy_s",
    ("weylab.smoothing", "build_phi_hierarchy"): "smoothing.hierarchy_s",
    ("weylab.smoothing", "iterated_identity_report"): "smoothing.identity_s",
    ("weylab.smoothing", "tauberian_order_check"): "smoothing.pointwise_s",
    ("weylab.riesz", "riesz_lift"): "riesz.lift_s",
    ("weylab.riesz", "riesz_interpolation_certificate"): "riesz.lift_s",
    ("weylab.riesz", "semigroup_check"): "riesz.semigroup_s",
    ("weylab.shapeopt", "optimize_rectangle"): "shapeopt.optimize_s",
    ("weylab.shapeopt", "rectangle_riesz_objective"): "shapeopt.objective_s",
    ("weylab.geometry", "chebyshev_center"): "geometry.lp_s",
    ("weylab.geometry", "random_convex_polygon"): "geometry.polygon_s",
    ("weylab.geometry", "distance_level_volume"): "geometry.polygon_s",
    ("weylab.geometry", "theta_omega"): "geometry.polygon_s",
    ("weylab.geometry", "bishop_gromov_profile"): "geometry.polygon_s",
}

# methods that are counted, not timed: a span per integrand call would cost
# more than many of the calls
COUNTED = {
    ("weylab.smoothing", "PhiHierarchy.conv_distribution"): "smoothing.integrand_calls",
    ("weylab.smoothing", "PhiHierarchy.conv_jump_measure"): "smoothing.integrand_calls",
    ("weylab.smoothing", "PhiHierarchy.smoothed_distribution"): "smoothing.integrand_calls",
}

TIMED_METRICS = sorted(set(SPANS.values()))
COUNT_METRICS = ["spectra.eigenvalues", "smoothing.integrand_calls", "shapeopt.objective_evals",
                 "geometry.lp_calls"]
UNITS = {**{m: "s" for m in TIMED_METRICS}, **{m: "count" for m in COUNT_METRICS},
         "geometry.lp_calls_per_polygon": "calls/polygon",
         "campaign.untraced_s": "s", "campaign.traced_s": "s"}
MAIN_SPAN = "cli.self_s"


def _after_return(metric):
    """Counters read off a span's call: eigenvalue counts, evaluations, LP solves."""
    if metric in ("spectra.lattice_s", "spectra.disk_s", "spectra.fd_s"):
        return lambda tracer, args, result: tracer.add("spectra.eigenvalues", len(result))
    if metric == "shapeopt.optimize_s":
        return lambda tracer, args, result: tracer.add("shapeopt.objective_evals",
                                                       len(result.optimizer_trace))
    if metric == "geometry.lp_s":
        def lp(tracer, args, result):
            tracer.add("geometry.lp_calls", 1)
            with tracer.lock:
                tracer.polygons.add(args[0].vertices.tobytes())
        return lp
    return None


class Tracer:
    def __init__(self):
        self.spans = []       # [metric, start, end, parent span or None, thread id]
        self.counts = defaultdict(int)
        self.polygons = set()
        self.lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None

    def add(self, name, n):
        with self.lock:
            self.counts[name] += n

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._main_stack
        if main and main[0][0] == MAIN_SPAN and stack is not main:
            return main[0]
        return None

    def _timed(self, fn, metric):
        tracer, after = self, _after_return(metric)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [metric, 0.0, 0.0, tracer._parent(stack), threading.get_ident()]
            stack.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                after(tracer, args, result)
            return result
        return traced

    def _counted(self, fn, metric):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.add(metric, 1)
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every boundary; weylab.cli must already be imported."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "weylab" or name.startswith("weylab.")]
        for table, make in ((SPANS, self._timed), (COUNTED, self._counted)):
            for (modname, qual), metric in table.items():
                owner = sys.modules[modname]
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, make(getattr(cls, meth), metric))
                    continue
                original = getattr(owner, qual)
                wrapped = make(original, metric)
                bound = 0
                for mod in namespaces:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapped)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"{modname}.{qual} is bound nowhere")

    def metrics(self, t0, t1):
        """Per-layer metrics of the campaign that ran from t0 to t1."""
        selfs, untraced = self_times(self.spans, t0, t1)
        out = {m: selfs.get(m, 0.0) for m in TIMED_METRICS}
        out.update({m: float(self.counts.get(m, 0)) for m in COUNT_METRICS})
        out["geometry.lp_calls_per_polygon"] = (
            self.counts["geometry.lp_calls"] / len(self.polygons) if self.polygons else 0.0)
        out["campaign.untraced_s"] = untraced
        out["campaign.traced_s"] = t1 - t0
        return out


def _depth(span):
    d = 0
    while span[3] is not None:
        span, d = span[3], d + 1
    return d


def self_times(spans, t0, t1):
    """Sweep the span boundaries; returns ({metric: self time}, untraced time)."""
    events = []
    for i, s in enumerate(spans):
        d = _depth(s)
        events.append((s[1], 1, d, i))     # starts: outer first at a tie
        events.append((s[2], 0, -d, i))    # ends: inner first at a tie
    events.sort()
    ids = {id(s): i for i, s in enumerate(spans)}
    parent = [ids.get(id(s[3])) if s[3] is not None else None for s in spans]
    open_children = [0] * len(spans)
    active, leaves = set(), {}
    selfs, untraced = defaultdict(float), 0.0
    now = t0
    for t, kind, _, i in events:
        t = min(max(t, t0), t1)
        dt = t - now
        if dt > 0:
            if leaves:
                share = dt / len(leaves)
                for j in leaves:
                    selfs[spans[j][0]] += share
            else:
                untraced += dt
            now = t
        p = parent[i]
        if kind == 1:
            active.add(i)
            leaves[i] = None
            if p is not None and p in active:
                open_children[p] += 1
                leaves.pop(p, None)
        else:
            active.discard(i)
            leaves.pop(i, None)
            if p is not None and p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves[p] = None
    untraced += max(t1 - now, 0.0)
    return dict(selfs), untraced
