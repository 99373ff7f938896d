"""Span tracing of topo_opt from outside the package.

``Tracer.install`` replaces every public function of the package modules,
under each name a module imports it by (``topo_opt.schemes.reduce`` as well
as ``topo_opt.reduction.reduce``), with a wrapper that records a span: name,
start, end, parent span and step id.  Facts read off a call's result,
such as the death count of a reduction, are gathered in an excluded span.
Public methods of the given classes (the filtration family, the loss, the
reduced decomposition's ``pairing``) are wrapped on the class, so instances
made during the run, such as subsample families, are traced too.  Spans
stay in memory until the run ends.  ``uninstall`` puts every original back.

A span is named ``<layer>.<function>``, the layer being the package module
that defines the function.  Its self time is its duration minus the time
covered by its child spans, so the self times of all spans plus the time
outside any span add up to the traced wall time.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("complexes", "filtrations", "reduction", "metrics", "losses",
          "schemes", "optim")

# Called once per simplex or face: a span on each would multiply the run
# time, so their cost stays in the self time of their caller.
HOT_LEAVES = frozenset({"boundary", "is_face", "as_simplex"})

# Time spent in these spans is measurement work of the benchmark itself; it
# is taken out of the traced run time.
EXCLUDED = "bench.excluded"


class Span:
    __slots__ = ("name", "parent", "step", "start", "end", "info")

    def __init__(self, name, parent, step):
        self.name = name
        self.parent = parent
        self.step = step
        self.start = self.end = 0.0
        self.info = None


def _reduce_info(args, kwargs, dec):
    columns = len(dec.simplices)
    vertices = sum(1 for s in dec.simplices if len(s) == 1)
    deaths = sum(1 for col in dec.R if col)
    return {"columns": columns, "high_columns": columns - vertices,
            "deaths": deaths}


def _describe(name):
    """Per-span facts read off the arguments and the result."""
    if name == "reduction.reduce":
        return _reduce_info
    if name == "complexes.total_order":
        return lambda a, k, sig: {"tied": bool(sig.tied)}
    if name == "filtrations.filtration":
        return lambda a, k, filt: {"simplices": len(filt)}
    if name == "schemes.sample_strata":
        return lambda a, k, pts: {"accepted": len(pts) - 1}
    if name == "schemes.diffeo_interpolate":
        return lambda a, k, fld: {"support": len(fld.centers)}
    if name.startswith("schemes.moving_set"):
        return lambda a, k, members: {"size": len(members)}
    return None


class Tracer:
    """Records spans of every traced call while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.step = None
        self.paused = False
        self._patched: list[tuple] = []
        self.on_moving_set = None  # optional hook(args, kwargs, result)

    # -- recording ------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.step)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def excluded(self, fn, *args, **kwargs):
        """Run fn untraced inside an excluded span."""
        span = self._open(EXCLUDED)
        self.paused = True
        try:
            return fn(*args, **kwargs)
        finally:
            self.paused = False
            self._close(span)

    def _wrap(self, name, fn):
        tracer = self
        describe = _describe(name)
        is_reduce = name == "reduction.reduce"
        is_moving_set = name == "schemes.moving_set"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if is_reduce and getattr(out, "V", None) is not None:
                span.name = "reduction.reduce_basis"
            elif describe is not None:
                span.info = tracer.excluded(describe, args, kwargs, out)
            if is_moving_set and tracer.on_moving_set is not None:
                tracer.on_moving_set(args, kwargs, out)
            return out

        return traced

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__.get(attr),
                              attr in owner.__dict__))
        setattr(owner, attr, value)

    def install(self, modules, classes):
        """Wrap the public functions found in ``modules`` and the public
        methods of ``classes``."""
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in HOT_LEAVES:
                    continue
                if not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("topo_opt.") or layer not in LAYERS:
                    continue
                self._set(mod, attr, self._wrap(f"{layer}.{obj.__name__}", obj))
        for cls, methods in classes:
            for attr in methods:
                fn = getattr(cls, attr)
                layer = fn.__module__.rpartition(".")[2]
                self._set(cls, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self):
        for owner, attr, old, present in reversed(self._patched):
            if present:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def write(self, path, header: dict):
        """Write the header and one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "step": s.step,
                    "start": s.start, "end": s.end, "info": s.info,
                }) + "\n")


def public_methods(cls):
    """Public methods a class defines or inherits from topo_opt modules."""
    out = []
    for attr in dir(cls):
        if attr.startswith("_"):
            continue
        fn = inspect.getattr_static(cls, attr)
        if inspect.isfunction(fn) and fn.__module__.startswith("topo_opt."):
            out.append(attr)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def _nearest(spans, i, names):
    """Index of the nearest ancestor of span i whose name is in names."""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return p
        p = spans[p].parent
    return -1


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], wall_s: float) -> dict:
    """Per-layer counts and self times of one traced run.

    Returns {name: (value, unit)}; every name is present whatever ran."""
    n = len(spans)
    covered = [0.0] * n
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    self_ms = [(s.end - s.start - covered[i]) * 1e3 for i, s in enumerate(spans)]
    run_s = wall_s - sum(s.end - s.start for s in spans if s.name == EXCLUDED)

    calls = defaultdict(int)
    ms = defaultdict(float)
    layer_ms = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        ms[s.name] += self_ms[i]
        layer_ms[s.name.partition(".")[0]] += self_ms[i]

    m: dict[str, tuple[float, str]] = {}

    def timed(name, with_calls=True):
        if with_calls:
            m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.ms"] = (ms[name], "ms")

    # reduction
    timed("reduction.reduce")
    red = [s.info for s in spans if s.name == "reduction.reduce" and s.info]
    m["reduction.columns"] = (sum(r["columns"] for r in red), "count")
    m["reduction.death_ratio"] = (
        _ratio(sum(r["deaths"] for r in red), sum(r["high_columns"] for r in red)),
        "ratio")
    timed("reduction.build_diagram")
    timed("reduction.pairing", with_calls=False)
    timed("reduction.reduce_basis")
    timed("reduction.transpose_adjacent")
    timed("reduction.perp_basis")

    # complexes
    timed("complexes.complete_complex")
    timed("complexes.total_order")
    orders = [s.info["tied"] for s in spans
              if s.name == "complexes.total_order" and s.info]
    m["complexes.total_order.tied_ratio"] = (_ratio(sum(orders), len(orders)), "ratio")
    sizes = [s.info["simplices"] for s in spans
             if s.name == "filtrations.filtration" and s.info]
    m["complexes.simplices"] = (_ratio(sum(sizes), len(sizes)), "count")

    # filtrations
    for name in ("filtration", "simplex_gradient", "strata_signature", "tie_labels"):
        timed(f"filtrations.{name}")

    # losses and metrics
    for name in ("evaluate", "terms", "compose_gradient"):
        timed(f"losses.{name}")
    timed("metrics.fg_distance")

    # schemes
    timed("schemes.vanilla_gradient")
    timed("schemes.sample_strata")
    drawn = defaultdict(int)
    for i, s in enumerate(spans):
        if s.name == "filtrations.strata_signature":
            drawn[_nearest(spans, i, {"schemes.sample_strata"})] += 1
    samples = [i for i, s in enumerate(spans) if s.name == "schemes.sample_strata"]
    n_drawn = sum(max(0, drawn[i] - 1) for i in samples)
    n_accepted = sum(spans[i].info["accepted"] for i in samples if spans[i].info)
    m["schemes.strata.drawn"] = (n_drawn, "count")
    m["schemes.strata.accepted"] = (n_accepted, "count")
    m["schemes.strata.accept_ratio"] = (_ratio(n_accepted, n_drawn), "ratio")
    per_call = defaultdict(int)
    for i in samples:
        per_call[_nearest(spans, i, {"schemes.stratified_gradient"})] += 1
    m["schemes.stratified.eps_shrinks"] = (
        sum(c - 1 for p, c in per_call.items() if p >= 0), "count")
    timed("schemes.min_norm_point")

    moving = {"schemes.moving_set", "schemes.moving_set_naive",
              "schemes.moving_set_fast"}
    queries = [i for i, s in enumerate(spans)
               if s.name in moving and _nearest(spans, i, moving) < 0]
    m["schemes.moving_set.calls"] = (len(queries), "count")
    m["schemes.moving_set.ms"] = (sum(ms[name] for name in moving), "ms")
    qsizes = [spans[i].info["size"] for i in queries if spans[i].info]
    m["schemes.moving_set.size_mean"] = (_ratio(sum(qsizes), len(qsizes)), "count")
    for name in ("big_step_gradient", "continuation_step", "distributed_gradient"):
        timed(f"schemes.{name}", with_calls=False)
    timed("schemes.diffeo_interpolate")
    supports = [s.info["support"] for s in spans
                if s.name == "schemes.diffeo_interpolate" and s.info]
    m["schemes.diffeo_interpolate.support_mean"] = (
        _ratio(sum(supports), len(supports)), "count")

    timed("optim.descend", with_calls=False)

    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (layer_ms[layer], "ms")
    m["trace.outside_ms"] = (run_s * 1e3 - sum(layer_ms[x] for x in LAYERS), "ms")
    m["trace.run_s"] = (run_s, "s")
    m["trace.spans"] = (n, "count")
    return m
