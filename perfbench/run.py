"""Benchmark of topo_opt's descent workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
One process runs one workload, a single caller in a closed loop: each step
starts when the previous one has returned.  After ``setups`` set-ups, the
workload's parts (one method's fixed-step run each) run in turn until the
runs have taken S seconds.  Every run's output is checked, bit for bit,
against the outcome pinned in expected.json for the seed's input variant.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
one more pass is traced and the last line reports the per-layer metrics,
while the spans go to .perfbench/ in the checkout.  The lines before it give
the environment, every metric by name and unit, and the output check.
"""
from __future__ import annotations

import os

# One BLAS thread: bit-exact repeatable results and timings on any core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import inspect
import json
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

from tracing import Tracer, layer_metrics, public_methods

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SPAN_DIR = ROOT / ".perfbench"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def summarize(samples: list[float]) -> str:
    """Median with its sample count, plus the highest of p90/p99 that has
    at least ten samples beyond it."""
    med = statistics.median(samples)
    text = f"{med:.6g} (median of {len(samples)})"
    for p in (99, 90):
        if len(samples) * (100 - p) >= 1000:
            cut = statistics.quantiles(samples, n=100)[p - 1]
            text += f", p{p} {cut:.6g}"
            break
    return text


def load_package() -> bool:
    """Put the checkout's src first on the path and import topo_opt from it."""
    if not (SRC / "topo_opt" / "__init__.py").is_file():
        print(f"error: no topo_opt package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import topo_opt

    if Path(topo_opt.__file__).resolve().parent != SRC / "topo_opt":
        print(f"error: imported topo_opt from {topo_opt.__file__}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if not load_package():
        return 2
    from workloads import PARTS, VARIANTS, WORKLOADS, check

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    variant = args.seed % VARIANTS
    expected = json.loads(EXPECTED.read_text())
    pinned = {}
    for part in wl.parts:
        pinned[part.name] = expected.get(part.name, {}).get(str(variant))
        if pinned[part.name] is None:
            print(f"error: no outcome of {part.name} variant {variant} in "
                  f"{EXPECTED.name}; pin it with perfbench/pin.py", file=sys.stderr)
            return 2

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {wl.name} seed {args.seed} (variant {variant}) "
          f"seconds {args.seconds:g} trace {args.trace}: {wl.why}")

    setup_times = []
    state = None
    for _ in range(1 if args.trace else wl.setups):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(variant)
        setup_times.append(time.perf_counter() - t0)

    attempted = failed = 0
    checked = set()

    def record(part, run, label):
        """Check one run against the pinned outcome; the H1 diagram is
        compared on a part's first run only, the final parameters on every
        run."""
        nonlocal attempted, failed
        a, f = check(run, run.outcome(with_h1=part.name not in checked),
                     pinned[part.name])
        checked.add(part.name)
        attempted += a
        failed += f
        if run.error:
            print(f"{label}: error\n{run.error}", file=sys.stderr)
        if f:
            print(f"{label}: {f} of {a} steps failed the check")

    # The parts run in turn until the runs have taken the budget; the loop
    # may stop between parts once every part has run.
    run_times = {p.name: [] for p in wl.parts}
    step_ms = {p.name: [] for p in wl.parts}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        elapsed = 0.0
        while elapsed < args.seconds or not all(run_times.values()):
            for part in wl.parts:
                t0 = time.perf_counter()
                run = part.execute(state, variant)
                dt = time.perf_counter() - t0
                elapsed += dt
                run_times[part.name].append(dt)
                step_ms[part.name].extend(s.ms for s in run.steps)
                record(part, run, f"{part.name} run {len(run_times[part.name])}")
                if elapsed >= args.seconds and all(run_times.values()):
                    break
        run_s = sum(statistics.median(t) for t in run_times.values())
        step_med = {p.method: statistics.median(step_ms[p.name]) if step_ms[p.name]
                    else 0.0 for p in wl.parts}
        if args.trace:
            metrics = traced_run(wl, args.seed, variant, state, caught, record, env)
            metrics["trace.overhead"] = (metrics["trace.run_s"][0] / run_s - 1, "ratio")
            for part in PARTS.values():
                metrics[f"step_ms.{part.method}"] = (step_med.get(part.method, 0.0), "ms")

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "step_ms": (statistics.geometric_mean(step_med.values())
                        if all(step_med.values()) else 0.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"setup_s = {summarize(setup_times)} s")
        for part in wl.parts:
            print(f"run_s.{part.method} = {summarize(run_times[part.name])} s")
            if step_ms[part.name]:
                print(f"step_ms.{part.method} = {summarize(step_ms[part.name])} ms")
        shown = ("run_s", "step_ms", "peak_rss_mb")
    else:
        shown = tuple(metrics)
    for name in shown:
        value, unit = metrics[name]
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {failed / max(attempted, 1):.6g} ({failed} of {attempted} steps)")
    print(f"check: bit for bit against variant {variant} in perfbench/expected.json")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(wl, seed, variant, state, caught, record, env) -> dict:
    """One more pass over the parts with every package call traced; its
    output is checked like the others.  Returns the per-layer metrics."""
    from topo_opt import (complexes, experiments, filtrations, losses, metrics,
                          optim, reduction, schemes)

    family = state[0]
    loss, _ = experiments.circle_loss()
    tracer = Tracer()
    mismatches = 0
    if any(p.method == "big_step" for p in wl.parts):
        moving_set = schemes.moving_set
        signature = inspect.signature(moving_set)

        def compare(call_args, call_kwargs, members):
            """Compute the other moving-set variant for the same query."""
            nonlocal mismatches
            bound = signature.bind(*call_args, **call_kwargs)
            bound.apply_defaults()
            variant = bound.arguments["variant"]
            bound.arguments["variant"] = "fast" if variant == "naive" else "naive"
            n_warn = len(caught)
            try:
                other = tracer.excluded(moving_set, *bound.args, **bound.kwargs)
            except Exception:  # a failing variant counts as a disagreement
                other = None
            del caught[n_warn:]
            mismatches += other != members

        tracer.on_moving_set = compare

    modules = (complexes, filtrations, reduction, metrics, losses, schemes, optim)
    classes = [(type(family), public_methods(type(family))),
               (type(loss), public_methods(type(loss))),
               (reduction.ReducedDecomposition, ["pairing"])]
    n_warn = len(caught)
    tracer.install(modules, classes)
    try:
        runs, wall = [], 0.0
        for part in wl.parts:
            t0 = time.perf_counter()
            runs.append(part.execute(
                state, variant, on_step=lambda label: setattr(tracer, "step", label)))
            wall += time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for part, run in zip(wl.parts, runs):
        record(part, run, f"{part.name} traced run")

    m = layer_metrics(tracer.spans, wall)
    texts = [str(w.message) for w in caught[n_warn:]]
    m["schemes.moving_set.fast_naive_mismatch"] = (mismatches, "count")
    m["schemes.clip_warnings"] = (sum("clipped at" in t for t in texts), "count")
    m["schemes.kernel_fallbacks"] = (
        sum("singular kernel matrix" in t for t in texts), "count")
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(path, {"workload": wl.name, "seed": seed, "variant": variant,
                        "wall_s": wall, **env})
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return m


if __name__ == "__main__":
    sys.exit(main())
