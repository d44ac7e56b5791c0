"""Per-layer metrics derived from the spans of one traced pass.

Each metric names the layer (module) whose spans it comes from. Times
called `<x>_s` are summed wall-clock span durations, inclusive of children,
except `harness.sweep_s`, which sums thread CPU time because the sweep's
columns run on two pool threads at once; `equilibrium.solve_ms_*` are
thread CPU times per solve for the same reason. `<layer>.self_s` is the
layer's self time (tracer.self_times); over the spans under the task spans,
the layers' self times plus `bench.self_s` add up to `trace.pass_s`.

Counts come from the call results (events, iterations, stations) or are
computed from the call arguments (`meanfield.rk4_steps` and the steps
behind `diffusion.steps_per_s` are ceil(segment / h) per grid segment, so
step halvings are not counted). A rate over zero work reads 0.
"""

from __future__ import annotations

import math

import numpy as np

from tracer import LAYERS, parent_index, self_times

CLI_SUBCOMMANDS = ("equilibrium", "sweep", "simulate", "meanfield",
                   "diffusion", "fit-arrivals", "gbfs-hist")
DRIFT_KERNELS = ("meanfield.drift", "meanfield.drift_hetero",
                 "meanfield._drift_into")


def _steps(t_grid, h) -> int:
    t = np.asarray(t_grid, dtype=float)
    return int(sum(max(1, math.ceil((b - a) / h - 1e-12))
                   for a, b in zip(t[:-1], t[1:])))


PROBES = {
    "simulator.simulate": lambda a, r: {
        "events": r.event_count,
        "thinning": not a["params"].arrival.is_constant},
    "simulator.ensemble": lambda a, r: {
        "replica_hours": a["replications"] * a["horizon"]},
    "meanfield.integrate": lambda a, r: {
        "steps": _steps(a["t_grid"], a["h"]), "p": a["params"].p},
    "meanfield.integrate_hetero": lambda a, r: {
        "steps": _steps(a["t_grid"], a["h"])},
    "diffusion.integrate_covariance": lambda a, r: {
        "steps": _steps(a["t_grid"], a["h"])},
    "equilibrium.solve_equilibrium": lambda a, r: {
        "iterations": r.iterations, "p": a["params"].p},
    "ingestion.parse_gbfs": lambda a, r: {"stations": len(r)},
}

# `bss.cli.main(argv)` spans are named after the subcommand
NAMEFNS = {"cli.main": lambda args: "cli." + str(args[0][0])}


def ratio(num, den) -> float:
    return float(num) / float(den) if den > 0 else 0.0


def layer_metrics(tracer, result: dict) -> tuple[dict, float]:
    """Metrics of one traced pass and the pass time its self times miss.

    result is the pass's record (run.run_pass). The task spans are the roots
    named "task.<name>"; spans outside them (the traced config validation)
    feed `model.validate_ms` only. CSV rows and bytes are counted by the
    benchmark from the files the CLI tasks wrote.
    """
    sp, names, payload = tracer.spans(), tracer.names, tracer.payload
    name = np.array(names, dtype=object)[sp["name"].astype(int)]
    dur = sp["t1"] - sp["t0"]
    cpu = sp["c1"] - sp["c0"]
    par = parent_index(sp)
    parent_name = np.where(par >= 0, name[np.maximum(par, 0)], "")
    root = np.arange(name.size)
    while True:
        up = np.where(par[root] >= 0, par[root], root)
        if np.array_equal(up, root):
            break
        root = up
    in_pass = np.char.startswith(name[root].astype(str), "task.")
    own = self_times(sp)
    pay = [payload.get(int(s), {}) for s in sp["id"]]

    def sel(*names_):
        return np.isin(name, names_) & in_pass

    def total(*names_):
        return float(dur[sel(*names_)].sum())

    def summed(key, mask):
        return sum(pay[i].get(key, 0) for i in np.flatnonzero(mask))

    out = {}
    for layer in LAYERS + ("bench",):
        prefix = "task." if layer == "bench" else layer + "."
        mask = in_pass & np.char.startswith(name.astype(str), prefix)
        out[f"{layer}.self_s"] = float(own[mask].sum())

    sim = sel("simulator.simulate")
    thin = np.array([bool(p.get("thinning")) for p in pay]) & sim
    direct = sim & ~np.char.startswith(parent_name.astype(str), "harness.")
    small = sim & (parent_name == "harness.forward_equation_residual")
    ens = sel("simulator.ensemble")
    out.update({
        "simulator.simulate_s": total("simulator.simulate"),
        "simulator.events": summed("events", sim),
        "simulator.events_per_s": ratio(summed("events", direct & ~thin),
                                        dur[direct & ~thin].sum()),
        "simulator.thinning_events_per_s": ratio(summed("events", thin),
                                                 dur[thin].sum()),
        "simulator.stationary_s": total("simulator.stationary_average"),
        "simulator.ensemble_s": float(dur[ens].sum()),
        "simulator.ensemble_replica_hours_per_s": ratio(
            summed("replica_hours", ens), dur[ens].sum()),
        "simulator.runs": int(sim.sum()),
        "simulator.run_overhead_ms": 1e3 * ratio(dur[small].sum(), small.sum()),
    })

    uni = sel("meanfield.integrate")
    p_of = np.array([p.get("p", math.nan) for p in pay])
    het = sel("meanfield.integrate_hetero")
    drift = sel(*DRIFT_KERNELS)
    out.update({
        "meanfield.integrate_s": float(dur[uni | het].sum()),
        "meanfield.rk4_steps": summed("steps", uni | het),
        "meanfield.steps_per_s.p0": ratio(summed("steps", uni & (p_of == 0)),
                                          dur[uni & (p_of == 0)].sum()),
        "meanfield.steps_per_s.informed": ratio(
            summed("steps", uni & (p_of > 0)), dur[uni & (p_of > 0)].sum()),
        "meanfield.steps_per_s.hetero": ratio(summed("steps", het),
                                              dur[het].sum()),
        "meanfield.drift_calls": int(drift.sum()),
        "meanfield.drift_us": 1e6 * ratio(dur[drift].sum(), drift.sum()),
    })

    cov = sel("diffusion.integrate_covariance")
    jac = sel("diffusion.jacobian")
    brk = sel("diffusion.bracket_matrix")
    out.update({
        "diffusion.covariance_s": float(dur[cov].sum()),
        "diffusion.steps_per_s": ratio(summed("steps", cov), dur[cov].sum()),
        "diffusion.jacobian_calls": int(jac.sum()),
        "diffusion.jacobian_us": 1e6 * ratio(dur[jac].sum(), jac.sum()),
        "diffusion.bracket_us": 1e6 * ratio(dur[brk].sum(), brk.sum()),
    })

    solves = sel("equilibrium.solve_equilibrium",
                 "equilibrium.solve_equilibrium_hetero")
    solve_ms = 1e3 * cpu[solves] if solves.any() else np.zeros(1)
    nodes = solves & (parent_name == "harness.sweep")
    fallback = solves & (parent_name == "cli.equilibrium") & (p_of == 0.5)
    out.update({
        "equilibrium.solves": int(solves.sum()),
        "equilibrium.iterations": summed("iterations", solves),
        "equilibrium.solve_ms_p50": float(np.median(solve_ms)),
        "equilibrium.solve_ms_max": float(solve_ms.max()),
        "equilibrium.nodes_per_s": ratio(nodes.sum(), total("cli.sweep")),
        "equilibrium.solve_s.p05": float(dur[fallback].sum()),
    })

    sweep_cpu = float(cpu[sel("harness.sweep")].sum())
    out.update({
        "harness.forward_s": total("harness.forward_equation_residual"),
        "harness.nonstationary_s": total("harness.nonstationary_run"),
        "harness.sweep_s": sweep_cpu,
    })

    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_s"] = total(f"cli.{sub}")
    out["cli.sweep_parallelism"] = ratio(sweep_cpu, total("cli.sweep"))

    gbfs = sel("ingestion.parse_gbfs")
    out.update({
        "ingestion.fit_fourier_ms": 1e3 * total("ingestion.fit_fourier"),
        "ingestion.parse_gbfs_ms": 1e3 * float(dur[gbfs].sum()),
        "ingestion.stations": summed("stations", gbfs),
    })

    counts = [r.get("counts", {}) for r in result["tasks"]]
    rows = sum(c.get("csv_rows", 0) for c in counts)
    out["cli.csv_rows"] = rows
    out["cli.csv_mb"] = sum(c.get("csv_bytes", 0) for c in counts) / 1e6
    out["cli.rows_per_s"] = ratio(rows, out["cli.self_s"])
    out["bench.gate_s"] = result["gate_s"]

    validate = name == "model.validate_params"
    out["model.validate_ms"] = 1e3 * ratio(dur[validate].sum(), validate.sum())

    pass_s = float(dur[in_pass & (par < 0)].sum())
    out["trace.pass_s"] = pass_s
    accounted = sum(out[f"{layer}.self_s"] for layer in LAYERS + ("bench",))
    return out, pass_s - accounted
