"""Benchmark of the `bss` package: one workload per run, closed loop.

    python3 perfbench/run.py --workload {ctmc,ode,cli} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout; the package is imported from the
checkout's `src/`. A run sets the workload up several times (`setup_s` is
the median), then repeats passes over the workload's task list for at least
S seconds (at least two passes) and checks every task's output. Every
task and every set-up is bracketed by a fixed reference work, and `wall_s`
and `setup_s` are normalized by it (see `normalized`). With
`--trace 0` the last line of standard output is the JSON result with the
end-to-end metrics; with `--trace 1` passes alternate between untraced and
traced, and the result holds the per-layer metrics of the traced passes.
Details (pass times, gates, fingerprints, input sizes, machine) go to
`.perfbench_out/` in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import layers
import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("ctmc", "ode", "cli")
SETUP_REPEATS = 5
MIN_PASSES = 2

# Seconds `reference_s` takes on the host where the benchmark was defined
# (2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6) at its fastest;
# normalized times are seconds at that speed.
REFERENCE_S = 0.0105

_REF_CELLS = [(c, n) for c in range(2) for n in range(21)]
_REF_SMALL = np.random.default_rng(0).random(21)
_REF_LARGE = np.random.default_rng(1).random(2000)


def reference_s() -> float:
    """Seconds for a fixed piece of work that runs no `bss` code.

    It mixes what the workloads do: a Python walk over a table of cells with
    scalar arithmetic (the CTMC event loop), small in-place numpy operations
    (an RK4 stage) and a mid-size vector reduction.
    """
    w = np.empty(21)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(2200):
        for c, n in _REF_CELLS:
            if n == 0:
                continue
            acc += n * 0.5 if c else n * 0.25
        np.multiply(_REF_SMALL, 1.0001, out=w)
        w += _REF_SMALL
        acc += float(w.sum())
        if i % 20 == 0:
            acc += float(np.exp(-_REF_LARGE).sum())
    return time.perf_counter() - t0


def normalized(seconds: float, ref_before: float, ref_after: float) -> float:
    """A measured time in seconds at the reference speed.

    On a shared host the speed of the same call drifts: on the VM where the
    benchmark was defined it took up to twice as long for minutes at a
    time, so a whole run could fall in a slow phase. The reference work,
    timed just before and just after the call, slows with it and the ratio
    stays put: over six runs per workload spread across slow and fast
    phases, the median per-repetition ratio varied 2-4% from run to run
    (interquartile range over median) where the fastest raw repetition
    varied 22-30%.
    """
    return seconds * REFERENCE_S / (0.5 * (ref_before + ref_after))


def fresh_import():
    """Import `bss` from the checkout, dropping any copy imported before."""
    for key in [k for k in sys.modules if k == "bss" or k.startswith("bss.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    pkg = importlib.import_module("bss")
    if Path(pkg.__file__).resolve().parent != (SRC / "bss").resolve():
        raise ImportError(f"bss imported from {pkg.__file__}, not from {SRC}")
    mods = {layer: importlib.import_module(f"bss.{layer}") for layer in LAYERS}
    return SimpleNamespace(bss=pkg, **mods)


def run_pass(wl, tracer=None) -> dict:
    """One pass over the task list; a task that raises or fails a gate is a
    failed op. Gates and fingerprints run after each task's timer stops."""
    records = []
    gate_s = 0.0
    for task in wl.tasks:
        rec = {"task": task.name, "failed": True}
        span = nullcontext() if tracer is None else tracer.span("task." + task.name)
        ref_before = reference_s()
        t0 = time.perf_counter()
        try:
            with span:
                out = task.run()
        except Exception as exc:  # a failed op; the run goes on
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - t0
        rec["normalized_s"] = normalized(rec["seconds"], ref_before,
                                         reference_s())
        if "error" not in rec:
            g0 = time.perf_counter()
            try:
                gates = task.check(out)
                rec.update(gates=gates, counts=task.count(out),
                           fingerprint=task.fingerprint(out),
                           failed=any(g["failed"] for g in gates))
            except Exception as exc:  # an output the gates cannot read
                rec["error"] = f"gate {type(exc).__name__}: {exc}"
            gate_s += time.perf_counter() - g0
        records.append(rec)
    return {"seconds": sum(r["seconds"] for r in records),
            "normalized_s": sum(r["normalized_s"] for r in records),
            "gate_s": gate_s, "tasks": records}


def compare_fingerprints(passes) -> None:
    """Every pass must reproduce the first pass's outputs byte for byte."""
    first = {r["task"]: r.get("fingerprint") for r in passes[0]["tasks"]}
    for p in passes[1:]:
        for rec in p["tasks"]:
            want = first.get(rec["task"])
            got = rec.get("fingerprint")
            if got is not None and want is not None and got != want:
                rec["failed"] = True
                rec["error"] = "fingerprint differs from the first pass"


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def task_times(passes) -> dict:
    """Per task over the passes: the measured time's fastest, median and
    quartiles, and the median normalized time."""
    out = {}
    for rec in passes[0]["tasks"]:
        recs = [r for p in passes for r in p["tasks"] if r["task"] == rec["task"]]
        times = [r["seconds"] for r in recs]
        out[rec["task"]] = {
            "fastest": min(times), "median": statistics.median(times),
            "quartiles": quartiles(times),
            "normalized": statistics.median(r["normalized_s"] for r in recs)}
    return out


def pass_time(passes) -> float:
    """One pass of the task list at the reference speed: the sum over tasks
    of each task's median normalized time."""
    return sum(t["normalized"] for t in task_times(passes).values())


def traced_pass(wl, m):
    """One traced pass: swap the bindings, validate the configs once (for
    `model.validate_ms`), run the pass, put the bindings back."""
    tracer = Tracer()
    tracer.install(vars(m), layers.PROBES, layers.NAMEFNS)
    try:
        with tracer.span("setup.validate"):
            workloads.load_configs(m, wl.configs)
        result = run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    return result, tracer


def measure(wl, m, seconds: float, trace: bool) -> dict:
    untraced, traced, traces = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(wl))
        if trace:
            result, tracer = traced_pass(wl, m)
            traced.append(result)
            traces.append(tracer)
        done = len(untraced) + len(traced)
        if done >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
    return {"untraced": untraced, "traced": traced, "traces": traces}


def per_layer(run: dict, spans_path: Path) -> tuple[dict, list]:
    """Median over the traced passes of each per-layer metric; the spans of
    the last traced pass are written to spans_path."""
    per_pass, unattributed = [], []
    for result, tracer in zip(run["traced"], run["traces"]):
        vals, missing = layers.layer_metrics(tracer, result)
        per_pass.append(vals)
        unattributed.append(missing)
    np.savez(spans_path, names=np.array(run["traces"][-1].names),
             **run["traces"][-1].spans())
    metrics = {key: statistics.median(v[key] for v in per_pass)
               for key in per_pass[0]}
    metrics["trace.untraced_pass_s"] = pass_time(run["untraced"])
    metrics["trace.overhead_s"] = (pass_time(run["traced"])
                                   - metrics["trace.untraced_pass_s"])
    return metrics, unattributed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bss" / "__init__.py").is_file():
        print(f"error: no bss package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_s, setup_measured = [], []
        for _ in range(SETUP_REPEATS):
            ref_before = reference_s()
            t0 = time.perf_counter()
            m = fresh_import()
            wl = workloads.build(args.workload, m, args.seed, workdir)
            setup_measured.append(time.perf_counter() - t0)
            setup_s.append(normalized(setup_measured[-1], ref_before,
                                      reference_s()))
        wl.prepare()
        run = measure(wl, m, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = run["untraced"] + run["traced"]
    compare_fingerprints(passes)
    records = [r for p in passes for r in p["tasks"]]
    failed = sum(1 for r in records if r["failed"])
    wall = [p["seconds"] for p in run["untraced"]]
    tasks = task_times(run["untraced"])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "inputs_bytes": wl.inputs,
        "setup_s": statistics.median(setup_s),
        "setup_measured_s": setup_measured,
        "wall_s": pass_time(run["untraced"]),
        "measured_pass_s": {"median": statistics.median(wall),
                            "quartiles": quartiles(wall), "passes": len(wall)},
        "tasks": tasks,
        "ops_attempted": len(records), "ops_failed": failed,
        "passes": passes,
    }
    if args.trace:
        metrics, unattributed = per_layer(run, OUT / f"{args.workload}-spans.npz")
        detail["per_layer"] = metrics
        detail["unattributed_s"] = unattributed
    else:
        metrics = {
            "wall_s": detail["wall_s"],
            "setup_s": detail["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {d["name"]: d["unit"]
             for d in declared["per_layer" if args.trace else "end_to_end"]}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str))

    for rec in records:
        if rec["failed"]:
            print(f"FAILED {rec['task']}: {rec.get('error', '')} "
                  f"{[g for g in rec.get('gates', []) if g['failed']]}")
    print(f"{args.workload}: wall_s {detail['wall_s']:.3f} s over {len(wall)} "
          f"passes (measured pass median {statistics.median(wall):.3f} s); "
          + ", ".join(f"{k} {v['normalized']:.3f}" for k, v in tasks.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
