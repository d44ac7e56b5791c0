import dataclasses
import json
import math

import numpy as np
import pytest

from bss.model import (
    ConvergenceError,
    ValidationError,
    arrival_rate,
    choice_weights,
    validate_params,
)
from bss.diffusion import integrate_covariance
from bss.equilibrium import entropy, solve_equilibrium
from bss.harness import (
    ExperimentReport,
    fclt_experiment,
    flln_experiment,
    forward_equation_residual,
    interchange_experiment,
    nonstationary_run,
    sweep,
)
from bss.harness import _generator_apply, _parse_f_spec, _with_n
from bss.meanfield import (
    TINY_DENOM,
    _informed_choice,
    _sample_grid,
    builtin_measure,
    integrate,
    integrate_hetero,
)
from bss.simulator import (_lockstep, child_seed, ensemble, round_robin_state,
                           simulate, stationary_average)
from bracket_control import drop_bracket_source


MIX = {"values": [2, 4], "fractions": [0.5, 0.5]}


def make_params(**overrides):
    cfg = {
        "n_stations": 10,
        "gamma": 1.5,
        "capacity": 3,
        "mu": 1.0,
        "p": 0.5,
        "arrival": {"constant": 1.0},
        "choice": {"kind": "exponential", "theta": 1.0},
    }
    cfg.update(overrides)
    return validate_params(cfg)


# ---------------------------------------------------------------- report

def test_report_status_strings():
    rep = ExperimentReport("x", True, {})
    assert rep.status == "pass"
    assert ExperimentReport("x", False, {}).status == "fail"
    assert ExperimentReport("x", None, {}).status == "insufficient sample"


def test_report_to_dict_keys():
    rep = ExperimentReport("flln", True, {"a": 1.0})
    d = rep.to_dict()
    assert d["name"] == "flln"
    assert d["pass"] is True
    assert d["status"] == "pass"
    assert d["metrics"] == {"a": 1.0}
    assert d["non_finite"] == {}


def test_report_to_dict_writes_non_finite_metrics_as_null():
    metrics = {"z": math.inf, "se": -math.inf, "mean": math.nan, "n": 5,
               "ratios": [1.5, math.inf], "bounds": [(0.5, math.nan)]}
    rep = ExperimentReport("flln", True, metrics)
    d = rep.to_dict()
    assert d["metrics"] == {"z": None, "se": None, "mean": None, "n": 5,
                            "ratios": [1.5, None], "bounds": [[0.5, None]]}
    assert d["non_finite"] == {"z": "inf", "se": "-inf", "mean": "nan",
                               "ratios[1]": "inf", "bounds[0][1]": "nan"}
    json.dumps(d, allow_nan=False)
    # the report keeps its floats for the gates that read them
    assert rep.metrics["z"] == math.inf and math.isnan(rep.metrics["mean"])


# ---------------------------------------------------------------- flln

def check_flln_ratio(par):
    # error(N) ~ 1/sqrt(N), so the 200 -> 2000 ratio should sit near
    # sqrt(10) and inside the factor-2 band the experiment enforces
    rep = flln_experiment(par, [200, 2000], horizon=6.0, reps=5, seed=11,
                          sample_dt=0.5)
    assert rep.passed is True
    (ratio,) = rep.metrics["ratios"]
    assert math.sqrt(10) / 2 <= ratio <= 2 * math.sqrt(10)
    errs = rep.metrics["mean_sup_error"]
    assert errs[0] > errs[1] > 0


def test_flln_error_ratio_tracks_sqrt_n():
    check_flln_ratio(make_params())


def test_flln_error_ratio_tracks_sqrt_n_on_capacity_mix():
    # a mix compares its ratio process
    check_flln_ratio(make_params(capacity=MIX))


def test_flln_repeated_n_gives_unit_ratio():
    par = make_params()
    rep = flln_experiment(par, [300, 300], horizon=4.0, reps=4, seed=3,
                          sample_dt=0.5)
    assert rep.passed is True
    (ratio,) = rep.metrics["ratios"]
    assert 0.5 <= ratio <= 2.0


def test_flln_deterministic_model_zero_error():
    # lam=0 and M=0: nothing ever moves, so Y^N equals the mean-field path
    par = make_params(gamma=0.0, arrival={"constant": 0.0})
    rep = flln_experiment(par, [50, 100], horizon=3.0, reps=2, seed=0,
                          sample_dt=0.5)
    assert rep.passed is True
    assert rep.metrics["mean_sup_error"] == [0.0, 0.0]
    (ratio,) = rep.metrics["ratios"]
    assert ratio == pytest.approx(math.sqrt(2.0))


def test_flln_events_sum_the_replayed_simulate_runs():
    # one child seed per run, counted across every N in order
    par = make_params()
    rep = flln_experiment(par, [20, 40], horizon=2.0, reps=3, seed=6,
                          sample_dt=0.5)
    want = sum(simulate(_with_n(par, n), 2.0, 0.5, child_seed(6, 3 * i + r)).event_count
               for i, n in enumerate([20, 40]) for r in range(3))
    assert rep.metrics["events"] == want > 0


def test_flln_rejects_decreasing_n_list():
    with pytest.raises(ValidationError, match="non-decreasing"):
        flln_experiment(make_params(), [2000, 200], 1.0, 1, 0)


def test_flln_rejects_zero_reps():
    # no replication used to average to NaN and report a failed limit
    with pytest.raises(ValidationError, match="reps"):
        flln_experiment(make_params(), [100, 400], 1.0, 0, 0)


def test_flln_rejects_non_integer_fleet():
    # gamma=1.5 cannot scale to 7 stations
    with pytest.raises(ValidationError, match="integer fleet"):
        flln_experiment(make_params(), [7], 1.0, 1, 0)


# ---------------------------------------------------------------- fclt

def check_fclt_passes(par):
    rep = fclt_experiment(par, n=600, reps=600, t_check=2.0, seed=29)
    assert rep.passed is True
    assert rep.metrics["rel_frobenius"] <= 0.15
    assert rep.metrics["max_mean_z"] <= 3.0
    assert rep.metrics["events"] >= rep.metrics["rounds"] > 0


def test_fclt_matches_fluctuation_covariance():
    check_fclt_passes(make_params())


def test_fclt_matches_fluctuation_covariance_on_capacity_mix():
    # a mix compares the covariance over its (class, count) table
    check_fclt_passes(make_params(capacity=MIX))


def test_fclt_zero_bracket_control_fails(monkeypatch):
    # dropping the source term must break the comparison, otherwise the
    # experiment could not distinguish the real covariance from noise
    drop_bracket_source(monkeypatch)
    for capacity in (3, MIX):
        rep = fclt_experiment(make_params(capacity=capacity), n=600, reps=600,
                              t_check=2.0, seed=29)
        assert rep.passed is False, capacity
        assert rep.metrics["rel_frobenius"] > 0.5


def test_fclt_unvisited_cell_takes_the_model_standard_error():
    # by t=0.25 no replica has a station at 3 bikes, so that cell's sample
    # variance is 0, while the mean-field path gives it mass 3.5e-5; its z
    # read about 1e26 against a floor of 1e-30 on the standard error
    par = make_params(gamma=0.5)
    rep = fclt_experiment(par, n=20, reps=400, t_check=0.25, seed=0)
    assert rep.metrics["max_mean_z"] <= 3.0
    assert rep.passed is True


def test_fclt_shifted_mean_without_variance_fails(monkeypatch):
    # a zero fleet has Sigma = 0 and no sample variance: a mean off the
    # mean-field path there has no standard error to hide behind
    import bss.harness as hmod

    def shifted(*args, **kwargs):
        res = ensemble(*args, **kwargs)
        res.mean[-1, 1] += 0.01
        return res

    monkeypatch.setattr(hmod, "ensemble", shifted)
    rep = fclt_experiment(make_params(gamma=0), n=20, reps=40, t_check=0.5,
                          seed=0)
    assert rep.metrics["max_mean_z"] == math.inf
    assert rep.passed is False


def test_fclt_two_reps_is_insufficient():
    par = make_params()
    rep = fclt_experiment(par, n=100, reps=2, t_check=1.0, seed=5)
    assert rep.passed is None
    assert rep.status == "insufficient sample"


def test_fclt_integrates_the_mean_once(monkeypatch):
    # the mean comes from the packed covariance path, not a second integrate
    import bss.harness as harness

    def refuse(*args, **kwargs):
        raise AssertionError("integrate called")

    monkeypatch.setattr(harness, "integrate", refuse)
    rep = fclt_experiment(make_params(), n=100, reps=2, t_check=1.0, seed=5)
    assert rep.metrics["reps"] == 2


# ---------------------------------------------------------------- interchange

def test_interchange_uniform_matches_equilibrium():
    par = make_params()
    rep = interchange_experiment(par, n=100, burn_in=150.0, horizon=1000.0,
                                 seed=7, tol=0.05)
    assert rep.passed is True
    assert rep.metrics["observable"] == "y"
    assert rep.metrics["tv_distance"] <= 0.05


def test_interchange_capacity_mix_uses_ratio_process():
    par = make_params(
        capacity={"values": [2, 4], "fractions": [0.5, 0.5]}
    )
    rep = interchange_experiment(par, n=100, burn_in=150.0, horizon=1000.0,
                                 seed=13, tol=0.05)
    assert rep.passed is True
    assert rep.metrics["observable"] == "r"


def test_interchange_small_n_still_reports():
    # at N=16 the finite-size gap is visible; the report should carry the
    # measured distance either way rather than erroring out
    par = make_params()
    rep = interchange_experiment(par, n=16, burn_in=100.0, horizon=400.0,
                                 seed=3, tol=0.05)
    assert isinstance(rep.passed, bool)
    assert rep.metrics["tv_distance"] > 0.0


def test_interchange_reports_engine_events():
    # the events of the one stationary_average run behind the distance
    par = make_params()
    rep = interchange_experiment(par, n=16, burn_in=10.0, horizon=40.0, seed=3)
    stats = {}
    stationary_average(_with_n(par, 16), 10.0, 40.0, 3, stats=stats)
    assert rep.metrics["events"] == stats["events"] > 0


# ---------------------------------------------------------------- forward eqn

def test_forward_equation_coordinate_function():
    par = make_params()
    rep = forward_equation_residual(par, n=100, f_spec="coord@0", t=1.0,
                                    reps=240, seed=17)
    assert rep.passed is True
    assert abs(rep.metrics["mean_residual"]) <= 3 * rep.metrics["standard_error"]


def generator_apply_loop(f, y, par, t):
    """The generator action on one flattened (class, count) table, one
    transition at a time on a copy of y, each class stopping at its own
    capacity: the oracle of the stacked _generator_apply."""
    caps, n, p = par.capacity_values, par.n_stations, par.p
    width = caps[-1] + 1
    g = choice_weights(_informed_choice(par), width - 1)
    lam = arrival_rate(par.arrival, t)
    table = y.reshape(len(caps), width)
    denom = float(sum(g @ row for row in table))
    total = 0.0
    fy = f(y)
    m1 = float(sum(np.arange(width) @ row for row in table))
    spare = par.mu * (par.gamma - m1)
    for c, k in enumerate(caps):
        for i in range(1, k + 1):
            if table[c, i] <= 0:
                continue
            rate = (1.0 - p)
            if p > 0.0 and denom > TINY_DENOM:
                rate += p * g[i] / denom
            rate *= n * lam * table[c, i]
            shifted = table.copy()
            shifted[c, i] -= 1.0 / n
            shifted[c, i - 1] += 1.0 / n
            total += rate * (f(shifted.ravel()) - fy)
        for i in range(0, k):
            if table[c, i] <= 0:
                continue
            rate = n * spare * table[c, i]
            shifted = table.copy()
            shifted[c, i] -= 1.0 / n
            shifted[c, i + 1] += 1.0 / n
            total += rate * (f(shifted.ravel()) - fy)
    return total


@pytest.mark.parametrize("cfg, f_spec", [
    # the benchmark's forward shape, and an informed K=20 network
    ({"n_stations": 100, "gamma": 1.5, "capacity": 3, "p": 0.5}, "coord@0"),
    ({"n_stations": 100, "gamma": 1.5, "capacity": 3, "p": 0.5}, "square@2"),
    ({"n_stations": 500, "gamma": 10.0, "capacity": 20, "p": 0.25,
      "choice": {"kind": "exponential", "theta": 0.5}}, "coord@7"),
    ({"n_stations": 500, "gamma": 10.0, "capacity": 20, "p": 0.25,
      "choice": {"kind": "exponential", "theta": 0.5}}, "square@10"),
    # K=20 at both ends of the count axis, which one jump direction misses,
    # with fleets that keep those ends occupied
    ({"n_stations": 200, "gamma": 19.0, "capacity": 20, "p": 0.5}, "coord@20"),
    ({"n_stations": 200, "gamma": 1.0, "capacity": 20, "p": 0.5}, "square@0"),
    # the {2, 4} mix, flattened 5 cells a class: the small class's top
    # (cell 2, where its dropoffs stop), the large class's empty cell (5) and
    # top (9), and one cell inside it
    ({"n_stations": 100, "gamma": 1.5, "capacity": MIX, "p": 0.5}, "coord@2"),
    ({"n_stations": 100, "gamma": 1.5, "capacity": MIX, "p": 0.5}, "square@5"),
    ({"n_stations": 100, "gamma": 2.5, "capacity": MIX, "p": 1.0}, "coord@9"),
    ({"n_stations": 100, "gamma": 1.5, "capacity": MIX, "p": 0.0}, "square@7"),
])
def test_stacked_generator_matches_transition_loop(cfg, f_spec):
    par = make_params(**cfg)
    caps = par.capacity_values
    j, phi = _parse_f_spec(f_spec, len(caps) * (caps[-1] + 1))
    samples, _ = _lockstep(par, 1.0, _sample_grid(1.0, 0.5),
                           [child_seed(5, r) for r in range(400)])
    states = samples[:, -1]
    got = _generator_apply(j, phi, states, par, 1.0)
    want = np.array([generator_apply_loop(lambda v: phi(v[j]), y, par, 1.0)
                     for y in states])
    assert got.shape == (400,) and np.count_nonzero(want) > 0
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("f_spec", ["coord@0", "coord@2", "coord@6",
                                    "square@1", "square@9"])
def test_forward_equation_passes_on_a_capacity_mix(f_spec):
    # live cells of the {2, 4} mix: the small class's counts 0..2 and the
    # large class's 0..4 at flattened cells 5..9
    rep = forward_equation_residual(make_params(capacity=MIX), n=100,
                                    f_spec=f_spec, t=1.0, reps=400, seed=17)
    assert rep.passed is True, rep.metrics
    assert rep.metrics["z"] <= 3.0


@pytest.mark.parametrize("f_spec", ["coord@3", "coord@4", "square@3"])
def test_forward_equation_rejects_a_dead_cell(f_spec):
    # counts 3 and 4 of the capacity-2 class hold an exact zero on every
    # path, so the residual and its standard error would both be 0
    with pytest.raises(ValidationError, match="above its class's capacity"):
        forward_equation_residual(make_params(capacity=MIX), 100, f_spec, 1.0,
                                  400, 17)


def forward_by_simulate(par, n, f_spec, t, reps, seed, delta=0.25):
    """The forward-equation check as a loop over simulate, one run per
    replica: the oracle the lockstep route must reproduce exactly. The
    generator side acts on the replicas' stacked states, as the check's."""
    par_n = _with_n(par, n)
    j, phi = _parse_f_spec(f_spec, par_n.uniform_capacity + 1)

    def f(y):
        return phi(y[j])

    one_sided = t < delta
    t_idx = int(round(t / delta))
    horizon = (t_idx + 1) * delta if not one_sided else 3 * delta
    lhs, states = np.empty(reps), []
    events = 0
    for r in range(reps):
        traj = simulate(par_n, horizon, delta, child_seed(seed, r))
        events += traj.event_count
        ys = traj.y_series
        if one_sided:
            lhs[r] = (-11 * f(ys[0]) + 18 * f(ys[1]) - 9 * f(ys[2])
                      + 2 * f(ys[3])) / (6 * delta)
            states.append(ys[0])
        else:
            lhs[r] = (f(ys[t_idx + 1]) - f(ys[t_idx - 1])) / (2 * delta)
            states.append(ys[t_idx])
    diffs = lhs - _generator_apply(j, phi, np.array(states), par_n, t)
    mean_diff = float(diffs.mean())
    se = float(diffs.std(ddof=1) / math.sqrt(reps))
    return mean_diff, se, abs(mean_diff) / se, events


@pytest.mark.parametrize("f_spec, t", [("coord@0", 1.0), ("square@1", 0.0)])
def test_forward_equation_matches_simulate_loop(f_spec, t):
    par = make_params()
    rep = forward_equation_residual(par, n=60, f_spec=f_spec, t=t, reps=50,
                                    seed=31)
    mean_diff, se, z, events = forward_by_simulate(par, 60, f_spec, t, 50, 31)
    assert rep.metrics["mean_residual"] == mean_diff
    assert rep.metrics["standard_error"] == se
    assert rep.metrics["z"] == z
    assert rep.metrics["events"] == events
    assert rep.metrics["rounds"] > 0


def test_forward_equation_square_at_time_zero():
    # one-sided stencil at the deterministic start; the generator side is
    # exact there, so only Monte-Carlo noise remains
    par = make_params()
    rep = forward_equation_residual(par, n=100, f_spec="square@1", t=0.0,
                                    reps=400, seed=23)
    assert rep.passed is True


def test_forward_equation_frozen_model_zero_residual():
    # lam=0 with a round-robin start leaves no enabled transition at all,
    # so both sides vanish identically
    par = make_params(gamma=0.0, arrival={"constant": 0.0})
    rep = forward_equation_residual(par, n=60, f_spec="coord@0", t=0.5,
                                    reps=40, seed=1)
    assert rep.passed is True
    assert rep.metrics["mean_residual"] == 0.0


def test_forward_equation_insufficient_reps():
    par = make_params()
    rep = forward_equation_residual(par, n=50, f_spec="coord@1", t=0.5,
                                    reps=2, seed=9, delta=0.25)
    assert rep.passed is None


def test_forward_equation_rejects_bad_f_spec():
    par = make_params()
    with pytest.raises(ValidationError, match="f_spec"):
        forward_equation_residual(par, 50, "cube@0", 1.0, 10, 0)
    with pytest.raises(ValidationError, match="f_spec"):
        forward_equation_residual(par, 50, "coord@9", 1.0, 10, 0)


@pytest.mark.parametrize("delta", [0.0, -0.25, math.nan, math.inf])
def test_forward_equation_rejects_bad_delta(delta):
    with pytest.raises(ValidationError, match="delta must be positive"):
        forward_equation_residual(make_params(), 50, "coord@0", 0.5, 10, 0,
                                  delta=delta)


def test_forward_equation_rejects_off_grid_time():
    par = make_params()
    with pytest.raises(ValidationError, match="multiple of delta"):
        forward_equation_residual(par, 50, "coord@0", 0.3, 10, 0, delta=0.25)
    with pytest.raises(ValidationError, match=">= 0"):
        forward_equation_residual(par, 50, "coord@0", -1.0, 10, 0)


def test_stats_are_plain_json():
    # every stats dict and the forward report's metrics go into manifests:
    # json.dumps must take them with no default hook, and every number must
    # be a Python int, float or bool, not a numpy scalar
    par = make_params()
    mix = make_params(capacity={"values": [2, 4], "fractions": [0.5, 0.5]})
    grid = np.array([0.0, 0.5])
    y0 = builtin_measure(par, "uniform")
    found = {"simulate": simulate(par, 1.0, 0.5, seed=1).stats,
             "ensemble": ensemble(par, 4, 1.0, 0.5, seed=1).stats,
             "equilibrium": solve_equilibrium(par).stats,
             "equilibrium_mix": solve_equilibrium(mix).stats,
             "forward": forward_equation_residual(par, 20, "coord@0", 0.5, 5,
                                                  seed=1).metrics}
    for name in ("integrate", "integrate_hetero", "integrate_covariance"):
        found[name] = {}
    integrate(y0, par, grid, stats=found["integrate"])
    integrate_hetero(builtin_measure(mix, "uniform"), mix, grid,
                     stats=found["integrate_hetero"])
    integrate_covariance(y0, np.zeros((4, 4)), par, grid,
                         stats=found["integrate_covariance"])
    for name, stats in found.items():
        assert stats, name
        json.dumps(stats)
        for key, value in stats.items():
            allowed = (str,) if key in ("route", "f_spec") else (int, float, bool)
            assert type(value) in allowed, (name, key, type(value))


# ---------------------------------------------------------------- sweep

def big_base(**overrides):
    cfg = {
        "n_stations": 20,
        "gamma": 10.0,
        "capacity": 20,
        "mu": 1.0,
        "p": 0.5,
        "arrival": {"constant": 1.0},
        "choice": {"kind": "exponential", "theta": 2.0},
    }
    cfg.update(overrides)
    return validate_params(cfg)


def test_sweep_row_schema():
    rows = sweep("p-theta", [0.0, 0.5], [0.5, 2.0], big_base())
    assert len(rows) == 4
    keys = {"x", "y", "ybar0", "ybar1", "ybarKm1", "ybarK", "entropy",
            "converged"}
    for row in rows:
        assert set(row) == keys
        assert row["converged"] == 1
        assert 0.0 <= row["ybar0"] <= 1.0


def test_sweep_p_zero_edge_constant_along_theta():
    # with no informed users the choice weighting never enters
    rows = sweep("p-theta", [0.0], [0.5, 1.0, 2.0], big_base())
    vals = [row["ybar0"] for row in rows]
    assert max(vals) - min(vals) < 1e-10
    ents = [row["entropy"] for row in rows]
    assert max(ents) - min(ents) < 1e-10


def test_sweep_minimum_plane_casts_c_to_int():
    rows = sweep("p-c", [0.0, 1.0], [2, 5], big_base())
    assert all(row["converged"] == 1 for row in rows)
    # more informed users empty the boundary at the bottom
    at_c5 = {row["x"]: row for row in rows if row["y"] == 5.0}
    assert at_c5[1.0]["ybar0"] < at_c5[0.0]["ybar0"]


def test_sweep_gamma_plane_scales_fleet():
    rows = sweep("p-gamma", [0.0, 0.5], [0.5, 1.5], big_base(capacity=3))
    assert all(row["converged"] == 1 for row in rows)
    # more bikes per station shifts mass up
    lean = [r for r in rows if r["y"] == 0.5]
    rich = [r for r in rows if r["y"] == 1.5]
    assert all(a["ybar0"] > b["ybar0"] for a, b in zip(lean, rich))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("capacity", [3, MIX])
def test_zero_arrival_rate_refused_before_any_solve(capacity, monkeypatch):
    # no equilibrium exists at lam = 0: sweep refuses before its first node
    # (it used to return an all-NaN surface), and so does the interchange
    # check, which solves before it simulates
    import bss.harness as harness

    def no_solve(par):
        raise AssertionError("a node was solved")

    par = make_params(capacity=capacity, arrival={"constant": 0.0})
    with pytest.raises(ValidationError, match=r"arrival\.constant > 0"):
        interchange_experiment(par, 10, 1.0, 5.0, seed=0)
    monkeypatch.setattr(harness, "solve_equilibrium", no_solve)
    with pytest.raises(ValidationError, match=r"arrival\.constant > 0"):
        sweep("p-theta", [0.0, 0.5, 1.0], [1.0], par)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("capacity", [3, MIX])
def test_zero_arrival_rate_paths_still_run(capacity):
    # the CTMC and the ODEs are well defined without arrivals: from empty
    # stations nothing is picked up, so the docked mass only grows
    par = make_params(capacity=capacity, arrival={"constant": 0.0})
    empty = np.zeros_like(round_robin_state(par))
    empty.reshape(len(par.capacity_values), -1)[:, 0] = par.class_sizes()
    grid = [0.0, 0.5, 1.0]
    y0 = empty / par.n_stations
    path = integrate(y0, par, grid)
    states = integrate_covariance(y0, np.zeros((y0.size, y0.size)), par, grid)
    traj = simulate(par, 1.0, 0.5, seed=0, initial=empty)
    assert np.isfinite(path).all() and np.isfinite(states[-1].sigma).all()
    assert traj.stats["events"] > 0
    counts = np.arange(path.shape[-1])
    docked = [float((row * counts).sum()) for row in path]
    assert docked[0] < docked[1] < docked[2]


def test_sweep_gamma_plane_rejects_fractional_fleet():
    with pytest.raises(ValidationError, match="integer fleet"):
        sweep("p-gamma", [0.0], [0.333], big_base(capacity=3))


@pytest.mark.parametrize("plane, xs, ys, field", [
    ("p-theta", [0.0, 2.0], [1.0], "p"),
    ("p-theta", [0.0, -0.5], [1.0], "p"),
    ("p-theta", [0.0, math.nan], [1.0], "p"),
    ("p-theta", [0.0, 0.5], [1.0, math.inf], "theta"),
    ("p-theta", [0.0, 0.5], [1.0, -1.0], "theta"),
    ("p-theta", [0.0, 0.5], [1.0, 1000.0], "theta"),
    ("p-alpha", [0.0, 0.5], [1.0, math.nan], "alpha"),
    ("p-alpha", [0.0, 0.5], [1.0, -0.5], "alpha"),
    ("p-alpha", [0.0, 0.5], [1.0, 1e308], "alpha"),
    ("p-c", [0.0, 0.5], [2.0, 1.5], "c"),
    ("p-c", [0.0, 0.5], [2.0, 0.0], "c"),
    ("p-c", [0.0, 0.5], [2.0, math.inf], "c"),
    ("p-gamma", [0.0, 0.5], [1.5, -5.0], "gamma"),
    ("p-gamma", [0.0, 0.5], [1.5, 0.0], "gamma"),
    ("p-gamma", [0.0, 0.5], [1.5, math.inf], "gamma"),
    ("p-gamma", [0.0, 0.5], [1.5, math.nan], "gamma"),
    # rounds to fleet 0, which aborted the sweep with "math domain error"
    ("p-gamma", [0.0, 0.5], [1.5, 1e-300], "gamma"),
])
def test_sweep_validates_every_node_before_solving(monkeypatch, plane, xs, ys,
                                                   field):
    import bss.harness as hmod

    solved = []
    monkeypatch.setattr(hmod, "solve_equilibrium",
                        lambda par: solved.append(par) or solve_equilibrium(par))
    with pytest.raises(ValidationError, match=rf"sweep {field}\b"):
        sweep(plane, xs, ys, big_base(capacity=3))
    assert solved == []


def test_sweep_flags_failed_node_and_continues(monkeypatch):
    import bss.harness as hmod

    real = solve_equilibrium

    def flaky(par):
        if par.p == 0.5:
            raise ConvergenceError("forced failure for the flagging path")
        return real(par)

    monkeypatch.setattr(hmod, "solve_equilibrium", flaky)
    rows = sweep("p-theta", [0.0, 0.5, 1.0], [2.0], big_base())
    by_p = {row["x"]: row for row in rows}
    assert by_p[0.5]["converged"] == 0
    assert math.isnan(by_p[0.5]["ybar0"])
    assert math.isnan(by_p[0.5]["entropy"])
    assert by_p[0.0]["converged"] == 1
    assert by_p[1.0]["converged"] == 1


def test_sweep_flags_node_without_interior_equilibrium():
    # at p = 1 with g(0) = 0, gamma = 0.5 has no interior equilibrium and
    # raises ConvergenceError, so its row is flagged; gamma = 1.5 solves
    base = big_base(capacity=20, choice={"kind": "polynomial", "alpha": 2.0})
    stats = {}
    rows = sweep("p-gamma", [1.0], [0.5, 1.5], base, stats)
    assert [row["converged"] for row in rows] == [0, 1]
    assert math.isnan(rows[0]["ybar0"])
    # the counters are the solved node's; the failed one leaves its reason
    solved = solve_equilibrium(dataclasses.replace(base, fleet=30, p=1.0)).stats
    for key in ("brent_evals", "newton_iters", "bisection_fallbacks"):
        assert stats[key] == solved[key], key
    assert stats["brent_evals"] > 0
    [failure] = stats["failures"]
    assert (failure["x"], failure["y"]) == (1.0, 0.5)
    assert failure["error"].startswith("no interior equilibrium")


@pytest.mark.parametrize("plane, ys", [("p-theta", [0.5, 2.0]),
                                       ("p-c", [1, 3]), ("p-gamma", [1.0, 2.5])])
def test_sweep_on_a_capacity_mix_reads_r_bar(plane, ys):
    base = big_base(capacity={"values": [2, 4], "fractions": [0.25, 0.75]},
                    gamma=1.5)
    rows = sweep(plane, [0.0, 0.5, 1.0], ys, base)
    assert len(rows) == 6
    for row in rows:
        fleet = round(row["y"] * 20) if plane == "p-gamma" else base.fleet
        choice = ({"kind": "minimum", "c": row["y"]} if plane == "p-c"
                  else {"kind": "exponential", "theta": row["y"]}
                  if plane == "p-theta" else base.to_config()["choice"])
        cfg = base.to_config() | {"fleet": fleet, "p": row["x"], "choice": choice}
        rb = solve_equilibrium(validate_params(cfg)).r_bar
        assert row["converged"] == 1
        assert [row[key] for key in ("ybar0", "ybar1", "ybarKm1", "ybarK")] \
            == [rb[0], rb[1], rb[3], rb[4]]
        assert row["entropy"] == entropy(rb)


def test_sweep_rejects_unknown_plane():
    with pytest.raises(ValidationError, match="plane"):
        sweep("p-q", [0.0], [1.0], big_base())


def test_sweep_rejects_time_varying_arrivals():
    par = big_base(arrival={"fourier": {"intercept": 1.0, "sin": [0.5],
                                        "cos": [0.0], "period": 24.0}})
    with pytest.raises(ValidationError, match="constant"):
        sweep("p-theta", [0.0], [1.0], par)


# ---------------------------------------------------------------- frames

def toy_nonstationary(**overrides):
    # lam(t) = 1 + 0.5 sin(t/2), period 4*pi
    return make_params(
        arrival={"fourier": {"intercept": 1.0, "sin": [0.5], "cos": [0.0],
                             "period": 4 * math.pi}},
        **overrides,
    )


def test_nonstationary_frame_schema():
    par = toy_nonstationary()
    y0 = np.array([0.25, 0.25, 0.25, 0.25])
    grid = [0.0, 1.0, 2.0]
    frames = nonstationary_run(par, y0, grid, h=0.01)
    assert len(frames) == 3
    for frame, t in zip(frames, grid):
        assert frame["t"] == t
        assert frame["sigma_diag"] is None
        assert frame["y"].shape == (4,)
        assert frame["y"].sum() == pytest.approx(1.0, abs=1e-9)
        assert frame["entropy"] >= 0.0
    assert np.allclose(frames[0]["y"], y0)


def test_nonstationary_with_covariance_diagonal():
    par = toy_nonstationary()
    y0 = np.array([0.25, 0.25, 0.25, 0.25])
    frames = nonstationary_run(par, y0, [0.0, 1.0, 2.0], h=0.01,
                               with_covariance=True)
    assert np.all(frames[0]["sigma_diag"] == 0.0)
    for frame in frames[1:]:
        assert frame["sigma_diag"].shape == (4,)
        assert np.all(frame["sigma_diag"] >= -1e-12)
    assert frames[2]["sigma_diag"].sum() > frames[1]["sigma_diag"].sum() * 0.5


def test_nonstationary_periodic_after_transient():
    # one full forcing period apart, late enough that the transient is gone
    par = toy_nonstationary()
    y0 = np.array([1.0, 0.0, 0.0, 0.0])
    period = 4 * math.pi
    frames = nonstationary_run(par, y0, [0.0, 24.0, 24.0 + period], h=0.005)
    assert np.abs(frames[2]["y"] - frames[1]["y"]).max() < 1e-3


def test_nonstationary_constant_rate_converges():
    par = make_params()
    y0 = np.array([1.0, 0.0, 0.0, 0.0])
    frames = nonstationary_run(par, y0, [0.0, 15.0, 30.0], h=0.01)
    assert np.abs(frames[2]["y"] - frames[1]["y"]).max() < 1e-4
    ybar = solve_equilibrium(par).y_bar
    assert np.abs(frames[2]["y"] - ybar).max() < 1e-4


def test_nonstationary_covariance_frames_carry_the_same_mean(monkeypatch):
    # with the covariance the mean comes from the packed path, integrated
    # once, and its frames are the bytes of the mean-only run
    import bss.harness as harness

    mix = toy_nonstationary(capacity=MIX)
    grid = [0.0, 1.0, 2.5, 4.0]
    # a mix runs on its (class, count) table, with Sigma over the flattened
    # table
    for par, y0 in ((toy_nonstationary(), np.array([0.4, 0.3, 0.2, 0.1])),
                    (mix, builtin_measure(mix, "uniform"))):
        plain = nonstationary_run(par, y0, grid, h=0.01)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "integrate", None)
            both = nonstationary_run(par, y0, grid, h=0.01, with_covariance=True)
        for a, b in zip(plain, both):
            assert a["y"].shape == y0.shape
            assert a["y"].tobytes() == b["y"].tobytes()
            assert a["entropy"] == b["entropy"]
            assert b["sigma_diag"].shape == (y0.size,)
