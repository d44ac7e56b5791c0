"""Verification experiments and parameter sweeps.

Each experiment turns one limit statement into a finite-scale numerical
check with an explicit tolerance, and returns an ExperimentReport carrying
the measured values next to the thresholds so drift stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    CHOICE_PARAMS,
    ChoiceSpec,
    ConvergenceError,
    SystemParams,
    ValidationError,
    _integer_fleet,
    _require_finite_weights,
    arrival_rate,
    choice_weights,
)
from .meanfield import (DEFAULT_STEP, TINY_DENOM, _informed_choice, _observable,
                        _sample_grid, integrate, ratio_projection)
from .diffusion import integrate_covariance
from .equilibrium import _equilibrium_rate, entropy, solve_equilibrium
from .simulator import (
    _lockstep,
    child_seed,
    ensemble,
    round_robin_state,
    simulate,
    stationary_average,
)

__all__ = [
    "ExperimentReport",
    "flln_experiment",
    "fclt_experiment",
    "interchange_experiment",
    "forward_equation_residual",
    "sweep",
    "nonstationary_run",
]

_SWEEP_KINDS = {f"p-{key}": kind for kind, (key, _) in CHOICE_PARAMS.items()}
SWEEP_PLANES = (*_SWEEP_KINDS, "p-gamma")
# below this many replications the standard-error gates are meaningless
MIN_REPS_FOR_VERDICT = 30


@dataclass
class ExperimentReport:
    """Outcome of one verification experiment.

    passed is None when the sample was too small for a verdict; metrics
    always include the thresholds the verdict used.
    """

    name: str
    passed: bool | None
    metrics: dict

    @property
    def status(self) -> str:
        if self.passed is None:
            return "insufficient sample"
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        """The report as strict JSON: a non-finite metric, or entry of a
        list metric, is written as null, and non_finite maps its key (as
        ratios[1] for a list entry) to "inf", "-inf" or "nan"."""
        non_finite = {}

        def finite(key, v):
            if isinstance(v, (list, tuple)):
                return [finite(f"{key}[{i}]", x) for i, x in enumerate(v)]
            if isinstance(v, float) and not math.isfinite(v):
                non_finite[key] = str(v)
                return None
            return v

        return {
            "name": self.name,
            "pass": self.passed,
            "status": self.status,
            "metrics": {k: finite(k, v) for k, v in self.metrics.items()},
            "non_finite": non_finite,
        }


def _with_n(params: SystemParams, n: int) -> SystemParams:
    """Same model at a different network size; gamma must stay exact."""
    if not n >= 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return replace(params, n_stations=n, fleet=_integer_fleet(params.gamma, n))


def flln_experiment(
    params: SystemParams,
    n_list,
    horizon: float,
    reps: int,
    seed: int,
    sample_dt: float = 0.25,
) -> ExperimentReport:
    """Mean sup-norm error of the ratio process R^N against the ratio image
    of the mean-field path, per N; on a uniform capacity both are the
    empirical measure and its path.

    The error should shrink like 1/sqrt(N); the check is that each
    consecutive error ratio falls within a factor 2 of sqrt(N ratio).
    metrics["events"] sums the event counts of every simulate run.
    """
    n_list = [int(n) for n in n_list]
    # equal neighbors are allowed: the expected ratio is then 1, a useful
    # sanity configuration
    if len(n_list) < 1 or any(b < a for a, b in zip(n_list, n_list[1:])):
        raise ValidationError("n_list must be non-decreasing")
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    caps = params.capacity_values
    errors = []
    counter = events = 0
    for n in n_list:
        par_n = _with_n(params, n)
        y0 = round_robin_state(par_n) / n
        grid = _sample_grid(horizon, sample_dt)
        path = integrate(y0, par_n, grid)
        r_path = ratio_projection(path.reshape(len(grid), len(caps), -1), caps)
        sups = []
        for _ in range(reps):
            traj = simulate(par_n, horizon, sample_dt, child_seed(seed, counter))
            counter += 1
            events += traj.event_count
            sups.append(float(np.abs(traj.r_series - r_path).max()))
        errors.append(float(np.mean(sups)))

    ratios = []
    bounds = []
    ok = True
    for (n_a, e_a), (n_b, e_b) in zip(zip(n_list, errors), zip(n_list[1:], errors[1:])):
        expected = math.sqrt(n_b / n_a)
        lo, hi = expected / 2.0, expected * 2.0
        if e_a < 1e-12 and e_b < 1e-12:
            ratio = expected  # deterministic degenerate model, zero error
        elif e_b < 1e-12:
            ratio = math.inf
        else:
            ratio = e_a / e_b
        ratios.append(ratio)
        bounds.append((lo, hi))
        ok = ok and (lo <= ratio <= hi)
    return ExperimentReport(
        name="flln",
        passed=ok,
        metrics={
            "n_list": n_list,
            "mean_sup_error": errors,
            "ratios": ratios,
            "ratio_bounds": bounds,
            "reps": reps,
            "horizon": horizon,
            "events": events,
        },
    )


def fclt_experiment(
    params: SystemParams,
    n: int,
    reps: int,
    t_check: float,
    seed: int,
) -> ExperimentReport:
    """Sample covariance of sqrt(N)(Y^N - y) against the fluctuation ODE,
    both over the flattened (class, count) table.

    Passes when the relative Frobenius error is at most 15% and the scaled
    mean is within 3 standard errors of zero componentwise; a cell with no
    sample variance takes its standard error from Sigma. The tests run
    it with the bracket's source term dropped, a control that must fail,
    guarding against a vacuous comparison.
    """
    par_n = _with_n(params, n)
    y0 = round_robin_state(par_n) / n

    states = integrate_covariance(y0, np.zeros((y0.size,) * 2), par_n, [0.0, t_check])
    sigma, ymf = states[-1].sigma, states[-1].y.ravel()

    res = ensemble(par_n, reps, horizon=t_check, sample_dt=t_check, seed=seed)
    mc = res.cov[-1] * n
    denom = float(np.linalg.norm(sigma))
    err = float(np.linalg.norm(mc - sigma))
    # a zero Sigma (a zero fleet moves nothing) matches only a zero sample
    # covariance: against a live one the relative error is infinite
    rel = err / denom if denom > 1e-30 else (0.0 if err <= 1e-30 else math.inf)
    scaled_mean = math.sqrt(n) * (res.mean[-1] - ymf)
    # a cell no replica moved has no sample variance: its standard error
    # comes from the model's; where both vanish only a zero mean passes
    var = np.maximum(np.diag(mc), 0.0)
    se = np.sqrt(np.where(var > 0.0, var, np.maximum(np.diag(sigma), 0.0)) / reps)
    z = np.divide(np.abs(scaled_mean), se, where=se > 0.0,
                  out=np.where(scaled_mean == 0.0, 0.0, math.inf))
    mean_z = float(z.max())

    passed = (rel <= 0.15) and (mean_z <= 3.0)
    if reps < MIN_REPS_FOR_VERDICT:
        passed = None
    return ExperimentReport(
        name="fclt",
        passed=passed,
        metrics={
            "n": n,
            "reps": reps,
            "t_check": t_check,
            "rel_frobenius": rel,
            "frobenius_tolerance": 0.15,
            "max_mean_z": mean_z,
            "mean_z_tolerance": 3.0,
            "rounds": res.stats["rounds"],
            "events": res.stats["events"],
        },
    )


def interchange_experiment(
    params: SystemParams,
    n: int,
    burn_in: float,
    horizon: float,
    seed: int,
    tol: float = 0.02,
) -> ExperimentReport:
    """Long-run CTMC average against the mean-field equilibrium.

    Compares the ratio histogram against the equilibrium's r_bar; on a
    uniform capacity both are the empirical measure and y-bar.
    """
    if not (0.0 <= tol < math.inf):
        raise ValidationError(f"tol must be finite and >= 0, got {tol}")
    par_n = _with_n(params, n)
    target = solve_equilibrium(par_n).r_bar
    stats: dict = {}
    avg = stationary_average(par_n, burn_in, horizon, seed, stats=stats)
    tv = 0.5 * float(np.abs(avg - target).sum())
    return ExperimentReport(
        name="interchange",
        passed=tv <= tol,
        metrics={
            "n": n,
            "burn_in": burn_in,
            "horizon": horizon,
            "tv_distance": tv,
            "tolerance": tol,
            "observable": _observable(par_n),
            "events": stats["events"],
        },
    )


def _parse_f_spec(f_spec: str, dim: int):
    """The test function f(y) = phi(y_j) on measures, as (j, phi) with phi
    elementwise: coord@j is y_j, square@j is y_j^2."""
    try:
        kind, _, idx = f_spec.partition("@")
        j = int(idx)
    except ValueError:
        raise ValidationError(f"bad f_spec {f_spec!r}; use coord@j or square@j") from None
    if kind not in ("coord", "square") or not (0 <= j < dim):
        raise ValidationError(f"bad f_spec {f_spec!r}; use coord@j or square@j")
    return j, ((lambda v: v) if kind == "coord" else (lambda v: v ** 2))


def _generator_apply(j, phi, y: np.ndarray, par: SystemParams, t: float) -> np.ndarray:
    """Exact generator action sum_e rate(e) (f(y + jump_e) - f(y)) of
    f(y) = phi(y_j) on a stack of flattened (class, count) tables y, shape
    (..., L); returns shape y.shape[:-1]. f reads y_j alone, so its change
    on each jump is phi(y_j + jump_e[j]) - phi(y_j), linear in L per table.

    Rates are rebuilt here from the transition definitions rather than from
    the drift code, so the forward-equation check compares two independent
    routes. The pickup cells are counts 1..K_c, class-major as the simulator
    walks them; a pickup there moves 1/N of mass one count down, a dropoff
    at the cell below one count up, and a cell without mass fires neither.
    """
    caps, n, p = par.capacity_values, par.n_stations, par.p
    width = caps[-1] + 1
    picks = np.array([c * width + m for c, k in enumerate(caps) for m in range(1, k + 1)])
    counts = np.tile(np.arange(width), len(caps))
    g = np.tile(choice_weights(_informed_choice(par), width - 1), len(caps))
    lam = arrival_rate(par.arrival, t)
    held = np.where(y > 0, y, 0.0)
    pick = 1.0 - p
    if p > 0.0:
        # a vanished denominator drops the informed term
        denom = y @ g
        pick = pick + p * g[picks] / np.where(denom > TINY_DENOM, denom, np.inf)[..., None]
    spare = par.mu * (par.gamma - y @ counts)
    rates = np.concatenate([n * lam * pick * held[..., picks],
                            n * spare[..., None] * held[..., picks - 1]], axis=-1)
    # the change of cell j on a pickup from each pickup cell, then on the
    # reverse move, a dropoff into it from the cell below
    down = (picks - 1 == j).astype(int) - (picks == j)
    y_j = y[..., j, None]
    moved = phi(y_j + np.concatenate([down, -down]) / n) - phi(y_j)
    return np.sum(rates * moved, axis=-1)


def forward_equation_residual(
    params: SystemParams,
    n: int,
    f_spec: str,
    t: float,
    reps: int,
    seed: int,
    delta: float = 0.25,
) -> ExperimentReport:
    """Check d/dt E[f(Y_t)] = E[(L f)(Y_t)] by paired Monte Carlo.

    The left side is a finite difference of E[f] across nearby sample
    instants of the same trajectories; the right side averages the exact
    generator action at t. f_spec coord@j or square@j reads cell j of the
    flattened (class, count) table, c*(k_max+1) + n for class c at n bikes;
    a cell above its class's capacity, which would pass with z = inf, is
    refused. Passes when the paired difference is within 3 standard errors.
    """
    par_n = _with_n(params, n)
    caps, width = par_n.capacity_values, par_n.k_max + 1
    j, phi = _parse_f_spec(f_spec, len(caps) * width)
    if j % width > caps[j // width]:
        # a dead cell holds an exact zero on every path: both sides vanish
        raise ValidationError(
            f"f_spec {f_spec!r} names a cell above its class's capacity in {caps}")
    if not (0 < delta < math.inf):
        raise ValidationError(f"delta must be positive and finite, got {delta}")
    if not (0 <= t < math.inf):
        raise ValidationError(f"t must be finite and >= 0, got {t}")
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    one_sided = t < delta
    t_idx = int(round(t / delta))
    if abs(t_idx * delta - t) > 1e-9:
        raise ValidationError(f"t must be a multiple of delta={delta}")
    horizon = (t_idx + 1) * delta if not one_sided else 3 * delta

    # replica r is simulate(par_n, horizon, delta, child_seed(seed, r))
    samples, stats = _lockstep(par_n, horizon, _sample_grid(horizon, delta),
                               [child_seed(seed, r) for r in range(reps)])
    if one_sided:
        # third-order forward difference; the transient is steepest at the
        # start, so lower-order stencils leave visible bias
        f0, f1, f2, f3 = (phi(samples[:, i, j]) for i in range(4))
        lhs = (-11 * f0 + 18 * f1 - 9 * f2 + 2 * f3) / (6 * delta)
        states = samples[:, 0]
    else:
        lhs = (phi(samples[:, t_idx + 1, j])
               - phi(samples[:, t_idx - 1, j])) / (2 * delta)
        states = samples[:, t_idx]
    diffs = lhs - _generator_apply(j, phi, states, par_n, t)
    mean_diff = float(diffs.mean())
    se = float(diffs.std(ddof=1) / math.sqrt(reps)) if reps > 1 else math.inf
    passed = abs(mean_diff) <= 3.0 * se
    if reps < MIN_REPS_FOR_VERDICT:
        passed = None
    return ExperimentReport(
        name="forward_equation",
        passed=passed,
        metrics={
            "n": n,
            "f_spec": f_spec,
            "t": t,
            "reps": reps,
            "delta": delta,
            "mean_residual": mean_diff,
            "standard_error": se,
            "z": abs(mean_diff) / se if se > 0 else math.inf,
            "rounds": stats["rounds"],
            "events": stats["events"],
        },
    )


def sweep(plane: str, x_values, y_values, base: SystemParams, stats=None):
    """Equilibrium surface over a (p, second-parameter) grid.

    Returns one row dict per node with bins 0, 1, k_max-1 and k_max of the
    ratio histogram r_bar (y-bar on one class) as ybar0, ybar1, ybarKm1 and
    ybarK, its entropy, and a converged flag; solver failures leave NaN
    metrics so the surface stays rectangular. A stats dict, if given,
    receives the solver counters brent_evals, newton_iters and
    bisection_fallbacks summed over the solved nodes, and failures, one
    {x, y, error} per node whose solve raised ConvergenceError.
    """
    if plane not in SWEEP_PLANES:
        raise ValidationError(f"plane must be one of {SWEEP_PLANES}")
    _equilibrium_rate(base)  # refused before any node is solved
    k = base.k_max
    # every node is checked before any is solved: replace() skips
    # validate_params
    ps = [float(x) for x in x_values]
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"sweep p must be in [0, 1], got {p}")
    name = plane.split("-")[1]
    columns = []
    for y in map(float, y_values):
        fleet, choice = base.fleet, base.choice
        try:
            if plane == "p-gamma":
                # a gamma that rounds to no bike has no equilibrium to solve
                fleet = _integer_fleet(y, base.n_stations)
                if not fleet >= 1:
                    raise ValidationError(f"fleet must be >= 1, got {fleet}")
            else:
                choice = ChoiceSpec(_SWEEP_KINDS[plane], y)
            if any(p > 0.0 for p in ps):
                _require_finite_weights(base.n_stations, choice, k)
        except ValidationError as exc:
            raise ValidationError(f"sweep {name}={y!r}: {exc}") from None
        columns.append((y, fleet, choice))
    counters = ("brent_evals", "newton_iters", "bisection_fallbacks")
    totals = {"failures": [], **dict.fromkeys(counters, 0)}
    rows = []
    for p in ps:
        for y, fleet, choice in columns:
            par = replace(base, fleet=fleet, p=p, choice=choice)
            row = {"x": p, "y": y}
            try:
                eq = solve_equilibrium(par)
            except ConvergenceError as exc:
                totals["failures"].append({"x": p, "y": y, "error": str(exc)})
                row.update(ybar0=math.nan, ybar1=math.nan, ybarKm1=math.nan,
                           ybarK=math.nan, entropy=math.nan, converged=0)
            else:
                rb = eq.r_bar
                row.update(ybar0=float(rb[0]), ybar1=float(rb[1]),
                           ybarKm1=float(rb[k - 1]), ybarK=float(rb[k]),
                           entropy=entropy(rb), converged=1)
                for key in counters:
                    totals[key] += eq.stats[key]
            rows.append(row)
    if stats is not None:
        stats.update(totals)
    return rows


def nonstationary_run(
    params: SystemParams,
    y0: np.ndarray,
    t_grid,
    h: float = DEFAULT_STEP,
    with_covariance: bool = False,
):
    """Mean-field frames for a time-varying arrival model.

    Returns one dict per grid instant with the measure (in y0's shape), its
    entropy, and optionally the co-integrated fluctuation variance diagonal
    over the flattened (class, count) table.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if with_covariance:
        # the packed path carries the mean: one integration gives both
        states = integrate_covariance(y0, np.zeros((y0.size,) * 2), params, t_grid, h=h)
        path = [state.y for state in states]
        diags = [np.diag(state.sigma).copy() for state in states]
    else:
        path = integrate(y0, params, t_grid, h=h)
        diags = [None] * len(t_grid)
    return [
        {"t": float(t), "y": path[i], "entropy": float(entropy(path[i])),
         "sigma_diag": diags[i]}
        for i, t in enumerate(t_grid)
    ]
