"""Verification experiments and parameter sweeps.

Each experiment turns one limit statement into a finite-scale numerical
check with an explicit tolerance, and returns an ExperimentReport carrying
the measured values next to the thresholds so drift stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    ChoiceSpec,
    ConvergenceError,
    SystemParams,
    ValidationError,
    _require_finite_weights,
    arrival_rate,
    choice_weights,
)
from .meanfield import TINY_DENOM, _informed_choice, _sample_grid, integrate
from .diffusion import integrate_covariance
from .equilibrium import entropy, solve_equilibrium
from .simulator import (
    _lockstep,
    child_seed,
    empirical_measure,
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

SWEEP_PLANES = ("p-theta", "p-c", "p-alpha", "p-gamma")
_SWEEP_KINDS = {"p-theta": "exponential", "p-c": "minimum", "p-alpha": "polynomial"}
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
    artifacts: list = field(default_factory=list)

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
            "artifacts": list(self.artifacts),
        }


def _with_n(params: SystemParams, n: int) -> SystemParams:
    """Same model at a different network size; gamma must stay exact."""
    fleet_f = params.gamma * n
    fleet = int(round(fleet_f))
    if abs(fleet_f - fleet) > 1e-6:
        raise ValidationError(
            f"gamma {params.gamma} does not give an integer fleet at N={n}"
        )
    return replace(params, n_stations=n, fleet=fleet)


def flln_experiment(
    params: SystemParams,
    n_list,
    horizon: float,
    reps: int,
    seed: int,
    sample_dt: float = 0.25,
) -> ExperimentReport:
    """Mean sup-norm error of Y^N against the mean-field path, per N.

    The error should shrink like 1/sqrt(N); the check is that each
    consecutive error ratio falls within a factor 2 of sqrt(N ratio).
    """
    n_list = [int(n) for n in n_list]
    # equal neighbors are allowed: the expected ratio is then 1, a useful
    # sanity configuration
    if len(n_list) < 1 or any(b < a for a, b in zip(n_list, n_list[1:])):
        raise ValidationError("n_list must be non-decreasing")
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if not params.is_uniform:
        raise ValidationError("flln experiment needs a uniform capacity")
    errors = []
    counter = 0
    for n in n_list:
        par_n = _with_n(params, n)
        init = round_robin_state(par_n)
        y0 = empirical_measure(init)
        grid = _sample_grid(horizon, sample_dt)
        path = integrate(y0, par_n, grid)
        sups = []
        for _ in range(reps):
            traj = simulate(par_n, horizon, sample_dt, child_seed(seed, counter))
            counter += 1
            sups.append(float(np.abs(traj.y_series - path).max()))
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
        },
    )


def fclt_experiment(
    params: SystemParams,
    n: int,
    reps: int,
    t_check: float,
    seed: int,
    zero_bracket: bool = False,
) -> ExperimentReport:
    """Sample covariance of sqrt(N)(Y^N - y) against the fluctuation ODE.

    Passes when the relative Frobenius error is at most 15% and the scaled
    mean is within 3 standard errors of zero componentwise. zero_bracket
    integrates the covariance without its source term; that control must
    fail, guarding against a vacuous comparison.
    """
    if not params.is_uniform:
        raise ValidationError("fclt experiment needs a uniform capacity")
    par_n = _with_n(params, n)
    init = round_robin_state(par_n)
    y0 = empirical_measure(init)
    dim = par_n.uniform_capacity + 1

    states = integrate_covariance(
        y0, np.zeros((dim, dim)), par_n, [0.0, t_check], zero_bracket=zero_bracket
    )
    sigma, ymf = states[-1].sigma, states[-1].y

    res = ensemble(par_n, reps, horizon=t_check, sample_dt=t_check, seed=seed,
                   initial=init)
    mc = res.cov[-1] * n
    denom = float(np.linalg.norm(sigma))
    rel = float(np.linalg.norm(mc - sigma) / denom) if denom > 1e-30 else math.inf
    scaled_mean = math.sqrt(n) * (res.mean[-1] - ymf)
    se = np.sqrt(np.maximum(np.diag(mc), 0.0) / reps)
    mean_z = float(np.abs(scaled_mean / np.maximum(se, 1e-30)).max())

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
            "zero_bracket": zero_bracket,
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
    avg = stationary_average(par_n, burn_in, horizon, seed)
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
            "observable": "y" if par_n.is_uniform else "r",
        },
    )


def _parse_f_spec(f_spec: str, dim: int):
    """Test functions on measures: coord@j is y_j, square@j is y_j^2."""
    try:
        kind, _, idx = f_spec.partition("@")
        j = int(idx)
    except ValueError:
        raise ValidationError(f"bad f_spec {f_spec!r}; use coord@j or square@j") from None
    if kind not in ("coord", "square") or not (0 <= j < dim):
        raise ValidationError(f"bad f_spec {f_spec!r}; use coord@j or square@j")
    if kind == "coord":
        return lambda y: float(y[j])
    return lambda y: float(y[j]) ** 2


def _generator_apply(f, y: np.ndarray, par: SystemParams, t: float) -> float:
    """Exact generator action sum_e rate(e) (f(y + jump_e) - f(y)).

    Rates are rebuilt here from the transition definitions rather than from
    the drift code, so the forward-equation check compares two independent
    routes.
    """
    k = par.uniform_capacity
    n = par.n_stations
    g = choice_weights(_informed_choice(par), k)
    lam = arrival_rate(par.arrival, t)
    p = par.p
    denom = float(g @ y)
    total = 0.0
    fy = f(y)
    m1 = float(np.arange(k + 1) @ y)
    spare = par.mu * (par.gamma - m1)
    for i in range(1, k + 1):
        if y[i] <= 0:
            continue
        c = (1.0 - p)
        if p > 0.0 and denom > TINY_DENOM:
            c += p * g[i] / denom
        rate = n * lam * c * y[i]
        shifted = y.copy()
        shifted[i] -= 1.0 / n
        shifted[i - 1] += 1.0 / n
        total += rate * (f(shifted) - fy)
    for i in range(0, k):
        if y[i] <= 0:
            continue
        rate = n * spare * y[i]
        shifted = y.copy()
        shifted[i] -= 1.0 / n
        shifted[i + 1] += 1.0 / n
        total += rate * (f(shifted) - fy)
    return total


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
    generator action at t. Passes when the paired difference is within 3
    standard errors.
    """
    if not params.is_uniform:
        raise ValidationError("forward-equation check needs a uniform capacity")
    par_n = _with_n(params, n)
    dim = par_n.uniform_capacity + 1
    f = _parse_f_spec(f_spec, dim)
    if not (0 < delta < math.inf):
        raise ValidationError(f"delta must be positive and finite, got {delta}")
    if t < 0:
        raise ValidationError("t must be >= 0")
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
    diffs = np.empty(reps)
    for r, ys in enumerate(samples):
        if one_sided:
            # third-order forward difference; the transient is steepest at
            # the start, so lower-order stencils leave visible bias
            lhs = (
                -11 * f(ys[0]) + 18 * f(ys[1]) - 9 * f(ys[2]) + 2 * f(ys[3])
            ) / (6 * delta)
            state = ys[0]
        else:
            lhs = (f(ys[t_idx + 1]) - f(ys[t_idx - 1])) / (2 * delta)
            state = ys[t_idx]
        rhs = _generator_apply(f, state, par_n, t)
        diffs[r] = lhs - rhs

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


def sweep(plane: str, x_values, y_values, base: SystemParams):
    """Equilibrium surface over a (p, second-parameter) grid.

    Returns one row dict per node with boundary masses, entropy, and a
    converged flag; solver failures leave NaN metrics so the surface stays
    rectangular.
    """
    if plane not in SWEEP_PLANES:
        raise ValidationError(f"plane must be one of {SWEEP_PLANES}")
    if not base.is_uniform:
        raise ValidationError("sweep needs a uniform capacity")
    if not base.arrival.is_constant:
        raise ValidationError("sweep needs a constant arrival rate")
    k = base.uniform_capacity
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
                fleet_f = y * base.n_stations
                if not (math.isfinite(fleet_f) and y > 0):
                    raise ValidationError("must be positive and finite")
                fleet = int(round(fleet_f))
                if abs(fleet_f - fleet) > 1e-6:
                    raise ValidationError(
                        f"does not give an integer fleet at N={base.n_stations}"
                    )
            else:
                choice = ChoiceSpec(_SWEEP_KINDS[plane], y)
            if any(p > 0.0 for p in ps):
                _require_finite_weights(base.n_stations, choice, k)
        except ValidationError as exc:
            raise ValidationError(f"sweep {name}={y!r}: {exc}") from None
        columns.append((y, fleet, choice))
    rows = []
    for p in ps:
        for y, fleet, choice in columns:
            par = replace(base, fleet=fleet, p=p, choice=choice)
            row = {"x": p, "y": y}
            try:
                eq = solve_equilibrium(par)
                yb = eq.y_bar
                row.update(
                    ybar0=float(yb[0]),
                    ybar1=float(yb[1]),
                    ybarKm1=float(yb[k - 1]),
                    ybarK=float(yb[k]),
                    entropy=float(entropy(yb)),
                    converged=1,
                )
            except ConvergenceError:
                row.update(
                    ybar0=math.nan, ybar1=math.nan, ybarKm1=math.nan,
                    ybarK=math.nan, entropy=math.nan, converged=0,
                )
            rows.append(row)
    return rows


def nonstationary_run(
    params: SystemParams,
    y0: np.ndarray,
    t_grid,
    h: float = 0.005,
    with_covariance: bool = False,
):
    """Mean-field frames for a time-varying arrival model.

    Returns one dict per grid instant with the measure, its entropy, and
    optionally the co-integrated fluctuation variance diagonal.
    """
    if not params.is_uniform:
        raise ValidationError("nonstationary run needs a uniform capacity")
    t_grid = np.asarray(t_grid, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    dim = params.uniform_capacity + 1
    if with_covariance:
        # the packed path carries the mean: one integration gives both
        states = integrate_covariance(y0, np.zeros((dim, dim)), params, t_grid, h=h)
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
