"""Command-line entry point.

One binary, eight subcommands: simulate / meanfield / diffusion /
equilibrium / sweep / verify / fit-arrivals / gbfs-hist. Every run writes
its outputs plus a JSON manifest (resolved config, seed, version, wall
time) next to them, and identical (argv, config, seed) produce
byte-identical CSV files.

Exit codes: 0 success, 1 validation or input error, 2 runtime or
convergence failure. A failing verify suite exits 2; an insufficient
sample exits 0 with the status recorded in the report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .model import ConvergenceError, SystemParams, ValidationError, validate_params
from .meanfield import (
    _sample_grid,
    builtin_measure,
    integrate,
    ratio_projection,
)
from .diffusion import integrate_covariance
from .equilibrium import entropy, solve_equilibrium
from .ingestion import fit_fourier, load_rate_series, parse_gbfs, snapshot_histograms
from .harness import (
    fclt_experiment,
    flln_experiment,
    forward_equation_residual,
    interchange_experiment,
    sweep,
)
from .simulator import simulate

__all__ = ["main"]

# 17 significant digits round-trips IEEE doubles exactly
FLOAT_FMT = "%.17g"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for runtime
    failures here, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# kind of an array column's dtype -> printf field; "%d" % v equals
# str(int(v)) for integers and bools
_CSV_FIELDS = {"b": "%d", "i": "%d", "u": "%d", "f": FLOAT_FMT, "U": "%s"}

# rows formatted per write: one C-level % per block keeps the text of a
# block, not of the whole file, in memory
CSV_BLOCK = 4096


def _write_csv(path: str, header, *columns) -> None:
    """Write equal-length columns as CSV rows, streamed in blocks.

    A str column is a literal repeated on every row. An array column is
    printed per value by its dtype: integers and bools with %d, floats with
    FLOAT_FMT, strings with %s. Within a block, a float column whose values
    repeat has each distinct bit pattern formatted once and its text
    reused, so the bytes are those of the per-value writer (-0.0 keeps its
    sign, as it would not if values were merged by equality).
    """
    fields, arrays = [], []  # arrays: (field position, column)
    for col in columns:
        if isinstance(col, str):
            fields.append(col.replace("%", "%%"))
            continue
        arr = np.asarray(col)
        if arr.ndim != 1 or arr.dtype.kind not in _CSV_FIELDS:
            raise TypeError(
                f"CSV column must be a str or a 1-d array, got {arr.dtype} {arr.shape}"
            )
        if arr.dtype.kind == "f":
            # FLOAT_FMT prints any float through its nearest double
            arr = arr.astype(np.float64, copy=False)
        arrays.append((len(fields), arr))
        fields.append(_CSV_FIELDS[arr.dtype.kind])
    sizes = {arr.size for _, arr in arrays}
    if len(sizes) != 1:
        raise ValueError(f"CSV columns need one common length, got {sorted(sizes)}")
    n_rows = sizes.pop()
    width = len(arrays)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, CSV_BLOCK):
            hi = min(lo + CSV_BLOCK, n_rows)
            values = [None] * ((hi - lo) * width)
            template = list(fields)
            for q, (slot, arr) in enumerate(arrays):
                block = arr[lo:hi]
                if block.dtype.kind == "f":
                    bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
                    if bits.size < block.size:
                        texts = [FLOAT_FMT % v for v in bits.view(np.float64).tolist()]
                        block = np.array(texts, dtype=object)[inverse]
                        template[slot] = "%s"
                values[q::width] = block.tolist()
            row = ",".join(template) + "\n"
            fh.write(row * (hi - lo) % tuple(values))


def _write_json(path: str, obj) -> None:
    """Strict JSON: a NaN or infinity raises ValueError before the file
    is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _load_params(path: str) -> SystemParams:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return validate_params(raw)


def _resolve_threads(args) -> int:
    t = getattr(args, "threads", None)
    if t is None:
        env = os.environ.get("BSS_THREADS")
        t = int(env) if env else (os.cpu_count() or 1)
    t = int(t)
    if t < 1:
        raise ValidationError(f"threads must be >= 1, got {t}")
    return t


def _manifest(
    out: str, subcommand: str, config, seed, outputs, started: float, details=None
) -> str:
    path = out + ".manifest.json"
    _write_json(
        path,
        {
            "subcommand": subcommand,
            "config": config,
            "seed": seed,
            "version": __version__,
            "outputs": list(outputs),
            "duration_seconds": round(time.perf_counter() - started, 3),
            "details": details or {},
        },
    )
    return path


def _parse_y0(par: SystemParams, spec: str):
    """builtin:<name> or a CSV file holding one value per line."""
    if spec.startswith("builtin:"):
        return builtin_measure(par, spec.split(":", 1)[1])
    if not par.is_uniform:
        raise ValidationError(
            "y0 from file needs a uniform capacity; use builtin: measures"
        )
    vals = np.loadtxt(spec, delimiter=",", dtype=float, ndmin=1)
    return vals


# ---------------------------------------------------------------- handlers

def _write_series(path: str, times, observable: str, table) -> None:
    """Long-format rows t,observable,index,value of a (time, index) table."""
    n_t, width = table.shape
    _write_csv(
        path, ("t", "observable", "index", "value"),
        np.repeat(times, width), observable, np.tile(np.arange(width), n_t),
        table.ravel(),
    )


def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    par = _load_params(args.config)
    traj = simulate(par, args.horizon, args.sample_dt, args.seed)
    if par.is_uniform:
        _write_series(args.out, traj.times, "y", traj.y_series)
    else:
        _write_series(args.out, traj.times, "r", traj.r_series)
    _manifest(
        args.out, "simulate", par.to_config(), args.seed, [args.out],
        started,
        details={
            "horizon": args.horizon,
            "sample_dt": args.sample_dt,
            "events": traj.event_count,
            "stats": traj.stats,
        },
    )
    return 0


def _cmd_meanfield(args) -> int:
    started = time.perf_counter()
    par = _load_params(args.config)
    grid = _sample_grid(args.horizon, args.sample_dt)
    y0 = _parse_y0(par, args.y0)
    stats: dict = {}
    path = integrate(y0, par, grid, args.step, stats)
    if par.is_uniform:
        _write_series(args.out, grid, "y", path)
    else:
        _write_series(args.out, grid, "r", ratio_projection(path, par.capacity_values))
    _manifest(
        args.out, "meanfield", par.to_config(), None, [args.out], started,
        details={"horizon": args.horizon, "sample_dt": args.sample_dt,
                 "y0": args.y0, "step": args.step, "stats": stats},
    )
    return 0


def _cmd_diffusion(args) -> int:
    started = time.perf_counter()
    par = _load_params(args.config)
    grid = _sample_grid(args.horizon, args.sample_dt)
    y0 = np.asarray(_parse_y0(par, args.y0), dtype=float)
    dim = par.uniform_capacity + 1
    stats: dict = {}
    states = integrate_covariance(y0, np.zeros((dim, dim)), par, grid, h=args.step,
                                  stats=stats)
    n_t = len(states)
    _write_csv(
        args.out, ("t", "i", "j", "sigma_ij"),
        np.repeat([state.t for state in states], dim * dim),
        np.tile(np.repeat(np.arange(dim), dim), n_t),
        np.tile(np.arange(dim), n_t * dim),
        np.array([state.sigma for state in states]).ravel(),
    )
    _manifest(
        args.out, "diffusion", par.to_config(), None, [args.out], started,
        details={"horizon": args.horizon, "sample_dt": args.sample_dt,
                 "y0": args.y0, "step": args.step, "stats": stats},
    )
    return 0


def _cmd_equilibrium(args) -> int:
    started = time.perf_counter()
    par = _load_params(args.config)
    eq = solve_equilibrium(par)
    # one row per (class, count) cell with count <= capacity, class-major
    caps = np.asarray(par.capacity_values)
    live = np.arange(eq.table.shape[1]) <= caps[:, None]
    _write_csv(
        args.out, ("capacity", "n", "mass"),
        np.repeat(caps, caps + 1), np.nonzero(live)[1], eq.table[live],
    )
    _manifest(
        args.out, "equilibrium", par.to_config(), None, [args.out], started,
        details={
            "residual": float(eq.residual),
            "iterations": int(eq.iterations),
            "a": float(eq.a),
            "s": float(eq.s),
            "entropy": float(entropy(eq.r_bar)),
            "stats": eq.stats,
        },
    )
    return 0


# values per sweep axis; a node takes milliseconds, so no grid near this
# bound finishes, and the bound keeps a tiny step from building a huge list
MAX_AXIS_VALUES = 100_000


def _parse_grid_spec(spec: str, plane: str):
    """Two comma-separated axes 'p=a:b:c,<name>=a:b:c'; endpoints inclusive."""
    second = plane.split("-", 1)[1] if "-" in plane else ""
    parts = spec.split(",")
    if len(parts) != 2:
        raise ValidationError(
            f"grid must have exactly two axes 'p=...,{second or 'y'}=...', got {spec!r}"
        )
    axes = {}
    order = []
    for part in parts:
        name, _, rng = part.partition("=")
        name = name.strip()
        if not rng:
            raise ValidationError(f"bad grid axis {part!r}; use name=start:stop:step")
        pieces = [float(v) for v in rng.split(":")]
        if not all(map(math.isfinite, pieces)):
            raise ValidationError(f"grid axis {name} values must be finite, got {rng!r}")
        if len(pieces) == 1:
            vals = pieces
        elif len(pieces) == 3:
            a, b, c = pieces
            if c <= 0 or b < a:
                raise ValidationError(
                    f"bad grid range {rng!r}; need start <= stop and step > 0"
                )
            span = (b - a) / c + 1e-9
            if not span < MAX_AXIS_VALUES:
                raise ValidationError(
                    f"grid axis {name} has more than {MAX_AXIS_VALUES} values, "
                    f"got {rng!r}"
                )
            vals = [a + i * c for i in range(math.floor(span) + 1)]
        else:
            raise ValidationError(
                f"bad grid axis {part!r}; use name=start:stop:step or name=value"
            )
        axes[name] = vals
        order.append(name)
    if order[0] != "p" or order[1] != second:
        raise ValidationError(
            f"grid axes for plane {plane} must be 'p' then {second!r}, got {order}"
        )
    return axes["p"], axes[second]


def _cmd_sweep(args) -> int:
    started = time.perf_counter()
    par = _load_params(args.config)
    x_values, y_values = _parse_grid_spec(args.grid, args.plane)
    # a node solve holds the interpreter lock almost throughout, so threads
    # only added overhead; the thread count is still validated and recorded
    threads = _resolve_threads(args)
    rows = sweep(args.plane, x_values, y_values, par)
    header = ("x", "y", "ybar0", "ybar1", "ybarKm1", "ybarK", "entropy",
              "converged")
    _write_csv(args.out, header, *(np.array([row[h] for row in rows]) for h in header))
    failed = sum(1 for row in rows if row["converged"] == 0)
    _manifest(
        args.out, "sweep", par.to_config(), None, [args.out], started,
        details={"plane": args.plane, "grid": args.grid, "threads": threads,
                 "nodes": len(rows), "failed_nodes": failed},
    )
    return 0


_SUITE_DEFAULTS = {
    "flln": {"n_list": "200,2000", "horizon": 20.0, "reps": 20},
    "fclt": {"n": 2000, "reps": 2000, "t_check": 5.0},
    "interchange": {"n": 500, "burn_in": 1000.0, "horizon": 5000.0,
                    "tol": 0.02},
    "forward": {"n": 100, "f_spec": "coord@0", "t": 1.0, "reps": 400,
                "delta": 0.25},
}


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    par = _load_params(args.config)
    opt = dict(_SUITE_DEFAULTS[args.suite])
    for key in opt:
        given = getattr(args, key, None)
        if given is not None:
            opt[key] = given

    if args.suite == "flln":
        n_list = [int(v) for v in str(opt["n_list"]).split(",") if v.strip()]
        report = flln_experiment(
            par, n_list, opt["horizon"], int(opt["reps"]), args.seed
        )
    elif args.suite == "fclt":
        report = fclt_experiment(
            par, int(opt["n"]), int(opt["reps"]), opt["t_check"], args.seed
        )
    elif args.suite == "interchange":
        report = interchange_experiment(
            par, int(opt["n"]), opt["burn_in"], opt["horizon"], args.seed,
            tol=opt["tol"],
        )
    else:
        report = forward_equation_residual(
            par, int(opt["n"]), opt["f_spec"], opt["t"], int(opt["reps"]),
            args.seed, delta=opt["delta"],
        )

    _write_json(args.out, report.to_dict())
    details = {"suite": args.suite, **{k: opt[k] for k in sorted(opt)}}
    if args.suite in ("fclt", "forward"):
        # the lockstep engine's counters
        details["stats"] = {k: report.metrics[k] for k in ("rounds", "events")}
    _manifest(args.out, "verify", par.to_config(), args.seed, [args.out],
              started, details=details)
    print(f"{args.suite}: {report.status}")
    return 2 if report.passed is False else 0


def _cmd_fit_arrivals(args) -> int:
    started = time.perf_counter()
    series = load_rate_series(args.csv)
    model, r2 = fit_fourier(series, args.order, period=args.period)
    _write_json(
        args.out,
        {
            "model": {
                "intercept": float(model.intercept),
                "sin": [float(v) for v in model.sin_coeffs],
                "cos": [float(v) for v in model.cos_coeffs],
                "period": float(model.period),
            },
            "r_squared": float(r2),
        },
    )
    _manifest(
        args.out, "fit-arrivals",
        {"csv": args.csv, "order": args.order, "period": args.period},
        None, [args.out], started,
        details={"samples": len(series.times), "r_squared": float(r2)},
    )
    return 0


def _cmd_gbfs_hist(args) -> int:
    started = time.perf_counter()
    with open(args.status, "r", encoding="utf-8") as fh:
        status_doc = json.load(fh)
    with open(args.info, "r", encoding="utf-8") as fh:
        info_doc = json.load(fh)
    snap = parse_gbfs(status_doc, info_doc)
    counts, ratios = snapshot_histograms(snap, args.k_max)
    _write_csv(
        args.out, ("observable", "index", "value"),
        np.repeat(["count", "ratio"], [counts.size, ratios.size]),
        np.concatenate([np.arange(counts.size), np.arange(ratios.size)]),
        np.concatenate([counts, ratios]),
    )
    _manifest(
        args.out, "gbfs-hist",
        {"status": args.status, "info": args.info, "k_max": args.k_max},
        None, [args.out], started,
        details={"stations": len(snap), "dropped": snap.dropped,
                 "clamped": snap.clamped},
    )
    return 0


# ---------------------------------------------------------------- parser

def _build_parser() -> _Parser:
    parser = _Parser(prog="bss", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("simulate", _cmd_simulate,
            "event-level CTMC run from a round-robin start")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--horizon", type=float, required=True, help="hours")
    p.add_argument("--sample-dt", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV path")

    p = add("meanfield", _cmd_meanfield, "integrate the mean-field ODE")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--sample-dt", type=float, default=1.0)
    p.add_argument("--y0", default="builtin:uniform",
                   help="builtin:uniform, builtin:mass@n, or a CSV path")
    p.add_argument("--step", type=float, default=0.005, help="RK4 step, hours")
    p.add_argument("--out", required=True)

    p = add("diffusion", _cmd_diffusion,
            "integrate the fluctuation covariance along the mean-field path")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--sample-dt", type=float, default=1.0)
    p.add_argument("--y0", default="builtin:uniform")
    p.add_argument("--step", type=float, default=0.005)
    p.add_argument("--out", required=True)

    p = add("equilibrium", _cmd_equilibrium, "solve the mean-field fixed point")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = add("sweep", _cmd_sweep, "equilibrium surface over a parameter grid")
    p.add_argument("--plane", required=True,
                   choices=("p-theta", "p-c", "p-alpha", "p-gamma"))
    p.add_argument("--grid", required=True,
                   help="e.g. 'p=0:1:0.05,theta=0:2:0.1' (endpoints inclusive)")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="recorded in the manifest; the sweep runs serially "
                        "(default: BSS_THREADS or cores)")
    p.add_argument("--out", required=True)

    p = add("verify", _cmd_verify, "run one verification experiment")
    p.add_argument("--suite", required=True,
                   choices=("flln", "fclt", "interchange", "forward"))
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--n", type=int, default=None, help="station count")
    p.add_argument("--n-list", dest="n_list", default=None,
                   help="flln sizes, e.g. 200,2000")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--t-check", dest="t_check", type=float, default=None)
    p.add_argument("--burn-in", dest="burn_in", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--f-spec", dest="f_spec", default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)

    p = add("fit-arrivals", _cmd_fit_arrivals,
            "least-squares Fourier fit of an arrival-rate series")
    p.add_argument("--csv", required=True, help="CSV with header t_hours,rate")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--period", type=float, default=24.0)
    p.add_argument("--out", required=True, help="JSON path")

    p = add("gbfs-hist", _cmd_gbfs_hist,
            "bike-count and fill-ratio histograms from a GBFS snapshot")
    p.add_argument("--status", required=True, help="station_status JSON")
    p.add_argument("--info", required=True, help="station_information JSON")
    p.add_argument("--k-max", dest="k_max", type=int, default=20)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
