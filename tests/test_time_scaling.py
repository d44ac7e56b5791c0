"""Doubling the arrival and return rates is time running twice as fast.

With lam and mu doubled every CTMC rate and every drift term doubles, and
a doubling is exact in floating point. So a run on the same seed, with its
horizon, sample step, burn-in and RK4 step halved, returns the bytes of the
unscaled run at halved times. These checks need no oracle; a change to
either engine or to the stepper that breaks the scaling fails them.
Under a Fourier rate the doubled model is 2 lam(2t), the period halved;
its ODE paths scale exactly too, but the CTMC's thinning test rounds
lam(t) differently, so simulate agrees only in law there and is left out.
"""

import numpy as np
import pytest

from bss.diffusion import integrate_covariance
from bss.equilibrium import solve_equilibrium
from bss.meanfield import builtin_measure, integrate
from bss.model import validate_params
from bss.simulator import ensemble, simulate, stationary_average

MIX = {"values": [10, 20], "fractions": [0.5, 0.5]}
FOURIER = {"period": 24.0, "intercept": 1.5, "sin": [0.6, 0.1], "cos": [0.2, -0.05]}
CASES = [(capacity, p) for capacity in (12, MIX) for p in (0.0, 0.5, 1.0)]
IDS = [f"{tag}-p{p}" for tag in ("k12", "mix") for p in (0.0, 0.5, 1.0)]


def slow_and_fast(capacity, p, fourier=False):
    cfg = {"n_stations": 20, "gamma": 8.0, "capacity": capacity, "mu": 0.7,
           "p": p, "arrival": {"constant": 1.5},
           "choice": {"kind": "exponential", "theta": 0.5}}
    fast = {**cfg, "mu": 1.4, "arrival": {"constant": 3.0}}
    if fourier:
        cfg["arrival"] = {"fourier": FOURIER}
        fast["arrival"] = {"fourier": {
            "period": FOURIER["period"] / 2,
            "intercept": 2 * FOURIER["intercept"],
            "sin": [2 * v for v in FOURIER["sin"]],
            "cos": [2 * v for v in FOURIER["cos"]]}}
    return validate_params(cfg), validate_params(fast)


@pytest.mark.parametrize("capacity, p", CASES, ids=IDS)
def test_simulate_runs_twice_as_fast(capacity, p):
    slow, fast = slow_and_fast(capacity, p)
    a = simulate(slow, 6.0, 0.5, seed=3)
    b = simulate(fast, 3.0, 0.25, seed=3)
    assert a.stats["events"] > 100
    assert b.times.tobytes() == (a.times / 2).tobytes()
    assert b.r_series.tobytes() == a.r_series.tobytes()
    assert b.stats == a.stats


@pytest.mark.parametrize("capacity, p", CASES, ids=IDS)
def test_ensemble_and_stationary_average_run_twice_as_fast(capacity, p):
    slow, fast = slow_and_fast(capacity, p)
    a = ensemble(slow, 8, 2.0, 0.5, seed=4)
    b = ensemble(fast, 8, 1.0, 0.25, seed=4)
    assert b.mean.tobytes() == a.mean.tobytes()
    assert b.cov.tobytes() == a.cov.tobytes()
    assert b.stats == a.stats
    assert (stationary_average(fast, 1.0, 5.0, seed=5).tobytes()
            == stationary_average(slow, 2.0, 10.0, seed=5).tobytes())


@pytest.mark.parametrize("fourier", [False, True], ids=["constant", "fourier"])
@pytest.mark.parametrize("capacity, p", CASES, ids=IDS)
def test_mean_field_and_covariance_run_twice_as_fast(capacity, p, fourier):
    slow, fast = slow_and_fast(capacity, p, fourier)
    y0 = builtin_measure(slow, "uniform")
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    a = integrate(y0, slow, grid, h=0.01)
    b = integrate(y0, fast, grid / 2, h=0.005)
    assert b.tobytes() == a.tobytes()
    sigma0 = np.zeros((y0.size, y0.size))
    cov_a = integrate_covariance(y0, sigma0, slow, grid[:3], h=0.01)
    cov_b = integrate_covariance(y0, sigma0, fast, grid[:3] / 2, h=0.005)
    for sa, sb in zip(cov_a, cov_b):
        assert sb.y.tobytes() == sa.y.tobytes()
        assert sb.sigma.tobytes() == sa.sigma.tobytes()


@pytest.mark.parametrize("capacity, p", CASES, ids=IDS)
def test_equilibrium_is_time_free(capacity, p):
    # the fixed point has no time scale; the solver's iterates round
    # differently, so the tables agree to a few ulps, not bitwise
    slow, fast = slow_and_fast(capacity, p)
    a, b = solve_equilibrium(slow), solve_equilibrium(fast)
    assert np.abs(b.table - a.table).max() <= 2e-15
