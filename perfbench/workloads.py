"""The three benchmark workloads: fixed configs, seeded inputs, tasks, gates.

Every workload is a closed loop: one Python process, one caller, each task
starting when the previous one returns. A task is one timed call into the
package; its gates and fingerprint run after the timer stops. A gate is a
statistic stored next to its tolerance and fails as `not (x <= tol)` (or
`not (x >= tol)`), so NaN fails.

  ctmc  the exact event-level engines: scalar engine on a grid, Fourier
        thinning, per-event stationary callback, lockstep ensemble, and 400
        small runs where per-call overhead dominates. No CSV is written.
  ode   the mean-field and diffusion layers: the buffered constant-rate RK4
        route, the informed route, the generic RK4 path plus the covariance
        ODE under a Fourier rate, and the heterogeneous drift.
  cli   the path a user takes: `bss.cli.main(argv)` in-process, writing CSVs
        and manifests. Little compute and dense output, so CSV, argument
        handling and the equilibrium solver carry most of the time.

Informed theta=2 configs are kept out of the deterministic tasks: there the
explicit RK4 integrator and the diffusion layer hit their documented limits
(a ConvergenceError after minutes, and a vanished choice denominator).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FOURIER = {"fourier": {"intercept": 1.0, "sin": [0.5, 0.2], "cos": [0.3, 0.0],
                       "period": 24.0}}
BASE = {"n_stations": 500, "gamma": 10.0, "capacity": 20, "mu": 1.0, "p": 0.5,
        "arrival": {"constant": 1.0},
        "choice": {"kind": "exponential", "theta": 2.0}}
THETA_HALF = {"kind": "exponential", "theta": 0.5}
# the capacity mix of acceptance criterion 9
MIX = {**BASE, "gamma": 7.5,
       "capacity": {"values": [10, 20], "fractions": [0.5, 0.5]}}
K3 = {"n_stations": 2000, "gamma": 1.5, "capacity": 3, "mu": 1.0, "p": 0.5,
      "arrival": {"constant": 1.0},
      "choice": {"kind": "exponential", "theta": 1.0}}

CONFIGS = {
    "ctmc": {
        "base": BASE,
        "fourier": {**BASE, "arrival": FOURIER},
        "mix": MIX,
        "k3": K3,
        "k3_small": {**K3, "n_stations": 100},
    },
    "ode": {
        "p0": {**BASE, "p": 0.0},
        "informed": {**BASE, "p": 0.25, "choice": THETA_HALF},
        "fourier": {**BASE, "arrival": FOURIER, "choice": THETA_HALF},
        "mix": {**MIX, "choice": THETA_HALF},
    },
    "cli": {
        "base": BASE,
        "informed": {**BASE, "p": 0.25, "choice": THETA_HALF},
    },
}

# The forward-equation check is a 3-sigma test: |z| exceeds 3 on 0.27% of
# seeds with no defect present. Its Monte Carlo seed is the CLI's default
# verify seed, fixed like the test suite's seeds, so the benchmark's seed
# does not turn a correct program into a failed op.
FORWARD_SEED = 0

# acceptance tolerances (tests/test_acceptance.py)
LINF_TOL = 1e-8
TV_TOL = 0.03
EIG_TOL = -1e-10
NULL_TOL = 1e-12
Z_TOL = 3.0
RESIDUAL_TOL = 1e-10

GBFS_STATIONS = 2000
GBFS_K_MAX = 40
RATE_ORDER = 2


def at_most(stat: str, value, tol) -> dict:
    value = float(value)
    return {"stat": stat, "value": value, "op": "<=", "tol": tol,
            "failed": not (value <= tol)}


def at_least(stat: str, value, tol) -> dict:
    value = float(value)
    return {"stat": stat, "value": value, "op": ">=", "tol": tol,
            "failed": not (value >= tol)}


def covariance_gates(sigmas) -> list:
    """PSD and ones-null of a stack of covariance matrices."""
    sigmas = np.asarray(sigmas, dtype=float)
    ones = np.ones(sigmas.shape[-1])
    return [
        at_least("min_eigenvalue", np.linalg.eigvalsh(sigmas).min(), EIG_TOL),
        at_most("ones_direction", np.abs(sigmas @ ones).max(), NULL_TOL),
    ]


def digest(*parts) -> str:
    """sha256 over arrays (raw bytes, with dtype and shape) and files."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Path):
            h.update(part.read_bytes())
        else:
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    fingerprint: Callable[[object], str]
    count: Callable[[object], dict] = lambda out: {}


@dataclass
class Workload:
    tasks: list
    # computes the gates' reference values once, untimed, before the passes
    prepare: Callable[[], None]
    inputs: dict  # generated input file -> bytes
    configs: dict  # config key -> config file


def _write_configs(name: str, workdir: Path) -> dict:
    paths = {}
    for key, cfg in CONFIGS[name].items():
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        paths[key] = path
    return paths


def load_configs(m, paths: dict) -> dict:
    """Config validation: every config file through `validate_params`."""
    return {key: m.model.validate_params(json.loads(path.read_text()))
            for key, path in paths.items()}


def build(name: str, m, seed: int, workdir: Path) -> Workload:
    """Generate the inputs, validate the configs and make the warm-up call.

    m holds the imported `bss` modules by layer name. Everything here is
    set-up and is timed as such by the caller.
    """
    paths = _write_configs(name, workdir)
    if name == "cli":
        paths.update(_write_cli_inputs(workdir, seed))
    configs = {key: paths[key] for key in CONFIGS[name]}
    params = load_configs(m, configs)
    tasks, prepare = {"ctmc": _ctmc, "ode": _ode, "cli": _cli}[name](
        m, params, paths, seed, workdir)
    inputs = {key: path.stat().st_size for key, path in sorted(paths.items())}
    return Workload(tasks, prepare, inputs, configs)


# ------------------------------------------------------------------ ctmc

def _measure_gates(traj, par) -> list:
    """The sampled measure stays on the simplex and conserves bikes."""
    y = traj.y_series
    counts = np.rint(y * par.n_stations)
    docked = counts @ np.arange(y.shape[1])
    rows = np.concatenate([y.sum(axis=1), traj.r_series.sum(axis=1)])
    return [
        at_most("simplex_defect", np.abs(rows - 1.0).max(), 1e-12),
        at_least("min_mass", min(y.min(), traj.r_series.min()), 0.0),
        at_most("count_defect", np.abs(y * par.n_stations - counts).max(), 1e-9),
        at_most("stations_defect",
                np.abs(counts.sum(axis=1) - par.n_stations).max(), 0.0),
        at_most("docked_minus_fleet", docked.max() - par.fleet, 0.0),
        at_least("events", traj.event_count, 1),
    ]


def _trajectory_digest(traj) -> str:
    return digest(traj.times, traj.y_series, traj.r_series,
                  np.array([traj.event_count]))


def _ctmc(m, par, paths, seed, workdir):
    m.simulator.simulate(par["base"], 1.0, 1.0, seed)
    refs = {}

    def prepare():
        refs["rbar"] = m.equilibrium.solve_equilibrium_hetero(par["mix"])[1]

    def stationary_gates(avg):
        return [
            at_most("tv_to_equilibrium",
                    0.5 * np.abs(avg - refs["rbar"]).sum(), TV_TOL),
            at_most("simplex_defect", abs(avg.sum() - 1.0), 1e-9),
        ]

    def ensemble_gates(res):
        return covariance_gates(res.cov) + [
            at_most("simplex_defect", np.abs(res.mean.sum(axis=1) - 1.0).max(),
                    1e-12),
        ]

    tasks = [
        Task("simulate",
             lambda: m.simulator.simulate(par["base"], 25.0, 1.0, seed),
             lambda t: _measure_gates(t, par["base"]), _trajectory_digest),
        Task("simulate_fourier",
             lambda: m.simulator.simulate(par["fourier"], 25.0, 1.0, seed + 1),
             lambda t: _measure_gates(t, par["fourier"]), _trajectory_digest),
        Task("stationary_average",
             lambda: m.simulator.stationary_average(par["mix"], 20.0, 120.0,
                                                    seed + 2),
             stationary_gates, digest),
        Task("ensemble",
             lambda: m.simulator.ensemble(par["k3"], 200, 0.5, 0.25, seed + 3),
             ensemble_gates, lambda r: digest(r.times, r.mean, r.cov)),
        Task("forward",
             lambda: m.harness.forward_equation_residual(
                 par["k3_small"], 100, "coord@0", 1.0, 400, FORWARD_SEED),
             lambda r: [at_most("abs_z", r.metrics["z"], Z_TOL)],
             lambda r: digest(np.array([r.metrics["mean_residual"],
                                        r.metrics["standard_error"]]))),
    ]
    return tasks, prepare


# ------------------------------------------------------------------- ode

def _ode(m, par, paths, seed, workdir):
    # seed-independent: the mean-field and covariance ODEs are deterministic
    y0 = m.meanfield.builtin_measure(par["p0"], "uniform")
    ym0 = m.meanfield.builtin_measure(par["mix"], "uniform")
    m.meanfield.integrate(y0, par["p0"], np.array([0.0, 1.0]), h=0.01)
    refs = {}

    def prepare():
        for key in ("p0", "informed"):
            refs[key] = m.equilibrium.solve_equilibrium(par[key]).y_bar

    def long_run(key):
        def gates(path):
            return [
                at_most("linf_to_equilibrium",
                        np.abs(path[-1] - refs[key]).max(), LINF_TOL),
                at_most("simplex_defect", np.abs(path.sum(axis=1) - 1.0).max(),
                        1e-10),
            ]
        return gates

    def nonstationary():
        captured = []
        original = m.harness.integrate_covariance

        def capture(*args, **kwargs):
            states = original(*args, **kwargs)
            captured.append(states)
            return states

        m.harness.integrate_covariance = capture
        try:
            frames = m.harness.nonstationary_run(
                par["fourier"], y0, np.arange(5.0), h=0.005,
                with_covariance=True)
        finally:
            m.harness.integrate_covariance = original
        return frames, np.array([s.sigma for s in captured[0]])

    def nonstationary_gates(out):
        frames, sigmas = out
        ys = np.array([f["y"] for f in frames])
        return covariance_gates(sigmas) + [
            at_most("simplex_defect", np.abs(ys.sum(axis=1) - 1.0).max(), 1e-10),
            at_least("min_mass", ys.min(), -1e-12),
        ]

    def nonstationary_digest(out):
        frames, sigmas = out
        return digest(np.array([f["y"] for f in frames]),
                      np.array([f["sigma_diag"] for f in frames]),
                      np.array([f["entropy"] for f in frames]), sigmas)

    fractions = np.asarray(par["mix"].capacity_fractions)

    def hetero_gates(tables):
        return [
            at_most("simplex_defect",
                    np.abs(tables.sum(axis=(1, 2)) - 1.0).max(), 1e-10),
            at_most("class_mass_defect",
                    np.abs(tables.sum(axis=2) - fractions).max(), 1e-10),
            at_least("min_mass", tables.min(), -1e-12),
        ]

    tasks = [
        Task("integrate_p0",
             lambda: m.meanfield.integrate(y0, par["p0"], np.array([0.0, 150.0]),
                                           h=0.01),
             long_run("p0"), digest),
        Task("integrate_informed",
             lambda: m.meanfield.integrate(y0, par["informed"],
                                           np.array([0.0, 150.0]), h=0.01),
             long_run("informed"), digest),
        Task("nonstationary", nonstationary, nonstationary_gates,
             nonstationary_digest),
        Task("integrate_hetero",
             lambda: m.meanfield.integrate_hetero(ym0, par["mix"],
                                                  np.arange(11.0), h=0.005),
             hetero_gates, digest),
    ]
    return tasks, prepare


# ------------------------------------------------------------------- cli

def _write_cli_inputs(workdir: Path, seed: int) -> dict:
    """Rate series and GBFS snapshot pair, generated from the seed."""
    rng = np.random.default_rng(seed)
    truth = {"intercept": float(rng.uniform(1.5, 2.5)),
             "sin": rng.uniform(-0.3, 0.3, RATE_ORDER).tolist(),
             "cos": rng.uniform(-0.3, 0.3, RATE_ORDER).tolist()}
    t = np.arange(0.0, 24.0 * 14, 0.5)
    js = np.arange(1, RATE_ORDER + 1)
    phase = 2.0 * math.pi * np.outer(t, js) / 24.0
    rate = (truth["intercept"] + np.sin(phase) @ truth["sin"]
            + np.cos(phase) @ truth["cos"] + rng.normal(0.0, 0.05, t.size))
    rates = workdir / "rates.csv"
    rates.write_text("t_hours,rate\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), rate.tolist())))
    (workdir / "rates_truth.json").write_text(json.dumps(truth))

    caps = rng.integers(5, GBFS_K_MAX + 1, GBFS_STATIONS)
    bikes = rng.integers(0, caps + 1)
    over = rng.random(GBFS_STATIONS) < 0.01
    bikes = np.where(over, caps + rng.integers(1, 4, GBFS_STATIONS), bikes)
    status = {"last_updated": 1700000000, "data": {"stations": [
        {"station_id": f"st{i}", "num_bikes_available": int(b),
         "last_reported": 1700000000 - int(r)}
        for i, (b, r) in enumerate(zip(bikes, rng.integers(0, 600,
                                                           GBFS_STATIONS)))]}}
    info = {"last_updated": 1700000000, "data": {"stations": [
        {"station_id": f"st{i}", "capacity": int(c), "name": f"Station {i}"}
        for i, c in enumerate(caps)]}}
    status_path = workdir / "station_status.json"
    info_path = workdir / "station_information.json"
    status_path.write_text(json.dumps(status))
    info_path.write_text(json.dumps(info))
    (workdir / "gbfs_truth.json").write_text(json.dumps(
        {"stations": GBFS_STATIONS, "clamped": int(over.sum()),
         "top": int(caps.max())}))
    return {"rates": rates, "station_status": status_path,
            "station_information": info_path}


def _csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _manifest(path: Path) -> dict:
    return json.loads(Path(str(path) + ".manifest.json").read_text())


def _cli(m, par, paths, seed, workdir):
    out = workdir / "out"
    out.mkdir(exist_ok=True)
    base, informed = str(paths["base"]), str(paths["informed"])
    m.cli.main(["meanfield", "--config", informed, "--horizon", "0.1",
                "--sample-dt", "0.1", "--out", str(out / "warmup.csv")])
    rate_truth = json.loads((workdir / "rates_truth.json").read_text())
    gbfs_truth = json.loads((workdir / "gbfs_truth.json").read_text())

    def command(name, argv, target, gates, rows):
        """A CLI task: exit code 0, expected CSV rows, then its own gates."""
        target = out / target
        argv = argv + ["--out", str(target)]

        def check(rc):
            found = [at_most("exit_code", rc, 0)]
            if rc != 0:
                return found
            if rows is not None:
                found.append(at_most("row_count_error",
                                     abs(_csv_rows(target) - rows), 0))
            return found + gates()

        def count(rc):
            if rows is None or rc != 0:
                return {}
            return {"csv_rows": _csv_rows(target),
                    "csv_bytes": target.stat().st_size}

        return Task(name, lambda: m.cli.main(argv), check,
                    lambda rc: digest(target), count)

    def equilibrium_gates():
        return [at_most("residual",
                        _manifest(out / "equilibrium.csv")["details"]["residual"],
                        RESIDUAL_TOL)]

    def sweep_gates():
        return [at_most("failed_nodes",
                        _manifest(out / "sweep.csv")["details"]["failed_nodes"],
                        0)]

    def simulate_gates():
        return [at_least("events",
                         _manifest(out / "simulate.csv")["details"]["events"], 1)]

    def diffusion_gates():
        dim = par["informed"].uniform_capacity + 1
        lines = (out / "diffusion.csv").read_text().splitlines()[-dim * dim:]
        sigma = np.array([float(x.rsplit(",", 1)[1]) for x in lines])
        return covariance_gates(sigma.reshape(dim, dim))

    def fit_gates():
        fit = json.loads((out / "fit.json").read_text())["model"]
        err = max([abs(fit["intercept"] - rate_truth["intercept"])]
                  + [abs(a - b) for key in ("sin", "cos")
                     for a, b in zip(fit[key], rate_truth[key])])
        return [at_most("coefficient_error", err, 0.05)]

    def gbfs_gates():
        details = _manifest(out / "gbfs.csv")["details"]
        values = np.array([float(x.rsplit(",", 1)[1]) for x in
                           (out / "gbfs.csv").read_text().splitlines()[1:]])
        top = gbfs_truth["top"]
        return [
            at_most("stations_error",
                    abs(details["stations"] - gbfs_truth["stations"]), 0),
            at_most("clamped_error",
                    abs(details["clamped"] - gbfs_truth["clamped"]), 0),
            at_most("histogram_mass_defect",
                    max(abs(values[:top + 1].sum() - 1.0),
                        abs(values[top + 1:].sum() - 1.0)), 1e-9),
        ]

    specs = [
        ("equilibrium", ["equilibrium", "--config", base], "equilibrium.csv",
         equilibrium_gates, 21),
        ("sweep", ["sweep", "--plane", "p-theta", "--grid",
                   "p=0:1:0.5,theta=0:2:1", "--config", base,
                   "--threads", "2"], "sweep.csv", sweep_gates, 9),
        ("simulate", ["simulate", "--config", base, "--horizon", "25",
                      "--sample-dt", "0.01", "--seed", str(seed)],
         "simulate.csv", simulate_gates, 2501 * 21),
        ("meanfield", ["meanfield", "--config", informed, "--horizon", "10",
                       "--sample-dt", "0.01"], "meanfield.csv",
         lambda: [], 1001 * 21),
        ("diffusion", ["diffusion", "--config", informed, "--horizon", "2",
                       "--sample-dt", "0.05"], "diffusion.csv",
         diffusion_gates, 41 * 21 * 21),
        ("fit-arrivals", ["fit-arrivals", "--csv", str(paths["rates"]),
                          "--order", str(RATE_ORDER), "--period", "24"],
         "fit.json", fit_gates, None),
        ("gbfs-hist", ["gbfs-hist", "--status", str(paths["station_status"]),
                       "--info", str(paths["station_information"]),
                       "--k-max", str(GBFS_K_MAX)], "gbfs.csv", gbfs_gates,
         gbfs_truth["top"] + 1 + GBFS_K_MAX + 1),
    ]
    return [command(*spec) for spec in specs], lambda: None
