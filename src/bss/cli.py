"""Command-line entry point.

One binary, eight subcommands: simulate / meanfield / diffusion /
equilibrium / sweep / verify / fit-arrivals / gbfs-hist. A subcommand's
handler only computes, writes its output and returns its details. main
loads the config, times the run and writes every manifest,
<out>.manifest.json (resolved config, seed, version, wall time, details),
once the handler has returned, so a failed run leaves none. Identical
(argv, config, seed) produce byte-identical CSV files.

Exit codes: 0 success, 1 validation or input error, 2 runtime or
convergence failure. A failing verify suite exits 2; an insufficient
sample exits 0 with the status recorded in the report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import cache

import numpy as np

from . import __version__
from .model import ConvergenceError, SystemParams, ValidationError, validate_params
from .meanfield import (
    DEFAULT_STEP,
    _observable,
    _sample_grid,
    builtin_measure,
    integrate,
    ratio_projection,
)
from .diffusion import integrate_covariance
from .equilibrium import entropy, solve_equilibrium
from .ingestion import fit_fourier, load_rate_series, parse_gbfs, snapshot_histograms
from .harness import (
    SWEEP_PLANES,
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


# kind of a column's dtype -> printf field; "%d" % v equals str(int(v)) for
# integers and bools
_CSV_FIELDS = {"b": "%d", "i": "%d", "u": "%d", "f": FLOAT_FMT, "U": "%s"}

# rows formatted per write of _write_frames: one C-level % per block keeps
# the text of a block, not of the whole file, in memory
CSV_BLOCK = 4096


def _write_csv(path: str, header, *columns) -> None:
    """Write equal-length 1-d array columns as CSV rows.

    Each column prints per value by its dtype: integers and bools with %d,
    floats with FLOAT_FMT, strings with %s. A row is one % over a row
    template. It serves the short tables (equilibrium, sweep, gbfs-hist);
    the sample paths go through _write_frames.
    """
    fields, lists = [], []
    for col in columns:
        arr = np.asarray(col)
        if arr.ndim != 1 or arr.dtype.kind not in _CSV_FIELDS:
            raise TypeError(
                f"CSV column must be a 1-d array, got {arr.dtype} {arr.shape}"
            )
        if arr.dtype.kind == "f":
            # FLOAT_FMT prints any float through its nearest double
            arr = arr.astype(np.float64, copy=False)
        fields.append(_CSV_FIELDS[arr.dtype.kind])
        lists.append(arr.tolist())
    sizes = {len(values) for values in lists}
    if len(sizes) != 1:
        raise ValueError(f"CSV columns need one common length, got {sorted(sizes)}")
    row = ",".join(fields) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*lists))


def _pooled_texts(floats: np.ndarray):
    """The FLOAT_FMT text of each float64, each distinct bit pattern
    formatted once (-0.0 keeps its sign, as it would not if repeats were
    merged by equality); None when no bit pattern repeats."""
    bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    if bits.size == floats.size:
        return None
    texts = [FLOAT_FMT % v for v in bits.view(np.float64).tolist()]
    return np.array(texts, dtype=object)[inverse].tolist()


def _write_frames(path: str, header, labels, keys, values) -> None:
    """Long-format rows label,key,value, one frame per label, streamed in
    blocks.

    A frame is one sample instant: its label (a time) opens each of its
    rows, keys are the literal middle fields of its rows in order ("y,3",
    or "i,j" for a covariance) and values holds len(keys) floats per frame,
    frame-major. A frame's rows are one join of its label's text over the
    keys' row template, as FLOAT_FMT text never holds a %, and a block of
    whole frames (at least one, about CSV_BLOCK rows) is one % over its
    values. Each distinct label bit pattern is formatted once; so is each
    of a block's values when any repeats, and otherwise FLOAT_FMT sits in
    the template. The bytes are those of a per-value FLOAT_FMT writer.
    """
    labels = np.asarray(labels, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64).ravel()
    width = len(keys)
    if values.size != labels.size * width:
        raise ValueError(f"{labels.size} frames of {width} keys need "
                         f"{labels.size * width} values, got {values.size}")
    mids = ["," + key.replace("%", "%%") + "," for key in keys]
    pooled = [""] + [mid + "%s\n" for mid in mids]
    plain = [""] + [mid + FLOAT_FMT + "\n" for mid in mids]
    label_texts = (_pooled_texts(labels)
                   or [FLOAT_FMT % v for v in labels.tolist()])
    step = max(1, CSV_BLOCK // width)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, labels.size, step):
            block = values[lo * width:(lo + step) * width]
            texts = _pooled_texts(block)
            pieces, block = ((plain, block.tolist()) if texts is None
                             else (pooled, texts))
            template = "".join([text.join(pieces)
                                for text in label_texts[lo:lo + step]])
            fh.write(template % tuple(block))


def _write_json(path: str, obj) -> None:
    """Strict JSON: a NaN or infinity raises ValueError before the file
    is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _load_params(path: str) -> SystemParams:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_params(json.load(fh))


def _manifest(args, par, started: float, details) -> None:
    """Write <out>.manifest.json: the resolved model config, or a
    subcommand's input arguments where it reads no config, the seed where
    it takes one, and the handler's details."""
    config = (par.to_config() if par is not None else
              {k: v for k, v in vars(args).items()
               if k not in ("subcommand", "func", "out")})
    _write_json(args.out + ".manifest.json", {
        "subcommand": args.subcommand,
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "outputs": [args.out],
        "duration_seconds": round(time.perf_counter() - started, 3),
        "details": details,
    })


# ---------------------------------------------------------------- handlers

def _write_series(path: str, times, observable: str, table) -> None:
    """Long-format rows t,observable,index,value of a (time, index) table,
    one _write_frames frame per sample instant."""
    _write_frames(path, ("t", "observable", "index", "value"), times,
                  [f"{observable},{n}" for n in range(table.shape[1])], table)


def _cmd_simulate(args, par) -> dict:
    traj = simulate(par, args.horizon, args.sample_dt, args.seed)
    _write_series(args.out, traj.times, _observable(par), traj.r_series)
    return {"horizon": args.horizon, "sample_dt": args.sample_dt,
            "events": traj.event_count, "stats": traj.stats}


def _path_inputs(args, par):
    """The sample grid, start measure and details (with the stepper's stats
    dict, still empty) of meanfield and diffusion. --y0 is builtin:<name> or
    a CSV file of the (class, count) table: one row of k_max+1 values per
    class, ascending, zeros above each class's capacity, or on one class one
    value per line. The integrators check the shape (_as_measure)."""
    grid = _sample_grid(args.horizon, args.sample_dt)
    if args.y0.startswith("builtin:"):
        y0 = builtin_measure(par, args.y0.split(":", 1)[1])
    else:
        y0 = np.loadtxt(args.y0, delimiter=",", dtype=float, ndmin=1)
    return grid, y0, {"horizon": args.horizon, "sample_dt": args.sample_dt,
                      "y0": args.y0, "step": args.step, "stats": {}}


def _cmd_meanfield(args, par) -> dict:
    grid, y0, details = _path_inputs(args, par)
    path = integrate(y0, par, grid, args.step, details["stats"])
    caps = par.capacity_values
    _write_series(args.out, grid, _observable(par),
                  ratio_projection(path.reshape(len(grid), len(caps), -1), caps))
    return details


def _cmd_diffusion(args, par) -> dict:
    grid, y0, details = _path_inputs(args, par)
    states = integrate_covariance(y0, np.zeros((y0.size, y0.size)), par, grid,
                                  h=args.step, stats=details["stats"])
    caps = par.capacity_values
    sigma = np.array([state.sigma for state in states])
    # the ratio covariance P Sigma P^T, P the table projection (the identity
    # on one class), as meanfield writes r: each pass projects the last axis
    # and swaps it inward; they add in another order, so symmetrize as Sigma
    for _ in range(2):
        sigma = ratio_projection(sigma.reshape(*sigma.shape[:2], len(caps), -1),
                                 caps).swapaxes(1, 2)
    sigma = 0.5 * (sigma + sigma.swapaxes(1, 2))
    dim = sigma.shape[1]
    _write_frames(args.out, ("t", "i", "j", "sigma_ij"),
                  [state.t for state in states],
                  [f"{i},{j}" for i in range(dim) for j in range(dim)], sigma)
    return details


def _cmd_equilibrium(args, par) -> dict:
    eq = solve_equilibrium(par)
    # one row per (class, count) cell with count <= capacity, class-major
    caps = np.asarray(par.capacity_values)
    live = np.arange(eq.table.shape[1]) <= caps[:, None]
    _write_csv(
        args.out, ("capacity", "n", "mass"),
        np.repeat(caps, caps + 1), np.nonzero(live)[1], eq.table[live],
    )
    return {"residual": float(eq.residual), "a": float(eq.a), "s": float(eq.s),
            "entropy": float(entropy(eq.r_bar)), "stats": eq.stats}


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


def _cmd_sweep(args, par) -> dict:
    x_values, y_values = _parse_grid_spec(args.grid, args.plane)
    # a node solve holds the interpreter lock almost throughout, so threads
    # only added overhead; the thread count given is validated and recorded
    if args.threads is not None and args.threads < 1:
        raise ValidationError(f"threads must be >= 1, got {args.threads}")
    stats: dict = {}
    rows = sweep(args.plane, x_values, y_values, par, stats)
    header = ("x", "y", "ybar0", "ybar1", "ybarKm1", "ybarK", "entropy",
              "converged")
    _write_csv(args.out, header, *(np.array([row[h] for row in rows]) for h in header))
    return {"plane": args.plane, "grid": args.grid, "threads": args.threads,
            "nodes": len(rows), "failed_nodes": len(stats["failures"]),
            "stats": stats}


# verify's suites: the experiment each runs and the defaults of the options
# it reads, by keyword; an option given on the command line replaces one
_SUITES = {
    "flln": (flln_experiment,
             {"n_list": "200,2000", "horizon": 20.0, "reps": 20}),
    "fclt": (fclt_experiment, {"n": 2000, "reps": 2000, "t_check": 5.0}),
    "interchange": (interchange_experiment,
                    {"n": 500, "burn_in": 1000.0, "horizon": 5000.0, "tol": 0.02}),
    "forward": (forward_equation_residual,
                {"n": 100, "f_spec": "coord@0", "t": 1.0, "reps": 400,
                 "delta": 0.25}),
}


def _cmd_verify(args, par) -> tuple[dict, int]:
    """Run the suite's experiment on its options, each the given value or
    the suite's default. An option the suite does not read is refused, by
    name, rather than dropped; --n-list is comma-separated text, recorded
    as given."""
    run, defaults = _SUITES[args.suite]
    options = {key for _, other in _SUITES.values() for key in other}
    stray = sorted("--" + key.replace("_", "-") for key in options - defaults.keys()
                   if getattr(args, key) is not None)
    if stray:
        raise ValidationError(f"suite {args.suite} does not read {', '.join(stray)}")
    opt = {key: default if getattr(args, key) is None else getattr(args, key)
           for key, default in defaults.items()}
    details = {"suite": args.suite, **opt}
    if "n_list" in opt:
        opt["n_list"] = [int(v) for v in opt["n_list"].split(",") if v.strip()]
    report = run(par, seed=args.seed, **opt)

    _write_json(args.out, report.to_dict())
    # the engines' counters: rounds and events of the lockstep engine (fclt,
    # forward), events of the scalar one (flln, interchange)
    counters = {k: report.metrics[k] for k in ("rounds", "events")
                if k in report.metrics}
    if counters:
        details["stats"] = counters
    print(f"{args.suite}: {report.status}")
    return details, 2 if report.passed is False else 0


def _cmd_fit_arrivals(args, par) -> dict:
    series = load_rate_series(args.csv)
    model, r2 = fit_fourier(series, args.order, period=args.period)
    _write_json(args.out, {"model": model.to_config(), "r_squared": float(r2)})
    return {"samples": len(series.times), "r_squared": float(r2)}


def _cmd_gbfs_hist(args, par) -> dict:
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
    return {"stations": len(snap), "dropped": snap.dropped,
            "clamped": snap.clamped}


# ---------------------------------------------------------------- parser

@cache  # once per process: parse_args leaves the parser as it found it
def _build_parser() -> _Parser:
    parser = _Parser(prog="bss", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def add_config(p):
        p.add_argument("--config", required=True, help="model config JSON")

    p = add("simulate", _cmd_simulate,
            "event-level CTMC run from a round-robin start")
    add_config(p)
    p.add_argument("--horizon", type=float, required=True, help="hours")
    p.add_argument("--sample-dt", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)

    for name, func, help_text in (
        ("meanfield", _cmd_meanfield, "integrate the mean-field ODE"),
        ("diffusion", _cmd_diffusion,
         "integrate the fluctuation covariance along the mean-field path"),
    ):
        p = add(name, func, help_text)
        add_config(p)
        p.add_argument("--horizon", type=float, required=True, help="hours")
        p.add_argument("--sample-dt", type=float, default=1.0)
        p.add_argument("--y0", default="builtin:uniform",
                       help="builtin:uniform, builtin:mass@n, or a CSV path")
        p.add_argument("--step", type=float, default=DEFAULT_STEP,
                       help="RK4 step, hours")

    add_config(add("equilibrium", _cmd_equilibrium,
                   "solve the mean-field fixed point"))

    p = add("sweep", _cmd_sweep, "equilibrium surface over a parameter grid")
    p.add_argument("--plane", required=True, choices=SWEEP_PLANES)
    p.add_argument("--grid", required=True,
                   help="e.g. 'p=0:1:0.05,theta=0:2:0.1' (endpoints inclusive)")
    add_config(p)
    p.add_argument("--threads", type=int, default=None,
                   help="recorded in the manifest; the sweep runs serially")

    p = add("verify", _cmd_verify, "run one verification experiment")
    p.add_argument("--suite", required=True, choices=tuple(_SUITES))
    add_config(p)
    p.add_argument("--seed", type=int, default=0)

    p = add("fit-arrivals", _cmd_fit_arrivals,
            "least-squares Fourier fit of an arrival-rate series")
    p.add_argument("--csv", required=True, help="CSV with header t_hours,rate")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--period", type=float, default=24.0)

    p = add("gbfs-hist", _cmd_gbfs_hist,
            "bike-count and fill-ratio histograms from a GBFS snapshot")
    p.add_argument("--status", required=True, help="station_status JSON")
    p.add_argument("--info", required=True, help="station_information JSON")
    p.add_argument("--k-max", dest="k_max", type=int, default=20)

    # after every option above and before verify's suite overrides, where
    # the usage lines have always shown it
    for p in sub.choices.values():
        p.add_argument("--out", required=True,
                       help="output path; the manifest is <out>.manifest.json")
    p = sub.choices["verify"]
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
    started = time.perf_counter()
    try:
        par = _load_params(args.config) if hasattr(args, "config") else None
        details = args.func(args, par)
        code = 0
        if isinstance(details, tuple):  # verify's (details, exit code)
            details, code = details
        _manifest(args, par, started, details)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
