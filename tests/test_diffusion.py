import numpy as np
import pytest

from bss.model import (ArrivalModel, ConvergenceError, ValidationError, arrival_rate,
                       validate_params)
from bss.meanfield import _rk4_buffered, builtin_measure, drift, integrate
from bss.equilibrium import solve_equilibrium
from bss.simulator import ensemble, round_robin_state
from bss.diffusion import (
    STIFF_LIMIT,
    CovarianceState,
    _covariance_operators,
    _packed_rhs,
    bracket_matrix,
    integrate_covariance,
    jacobian,
)
from bracket_control import drop_bracket_source


def make_params(**overrides):
    cfg = {
        "n_stations": 1000,
        "gamma": 10,
        "capacity": 20,
        "mu": 1.0,
        "p": 0.5,
        "arrival": {"constant": 1.0},
        "choice": {"kind": "exponential", "theta": 1.0},
    }
    cfg.update(overrides)
    return validate_params(cfg)


def interior_point(rng, size):
    v = rng.dirichlet(np.ones(size)) + 0.02
    return v / v.sum()


def fd_jacobian(y, par, t=0.0, h=1e-6):
    dim = y.size
    out = np.zeros((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        out[:, i] = (drift(y + e, par, t) - drift(y - e, par, t)) / (2 * h)
    return out


# ---------------------------------------------------------------- jacobian

def test_jacobian_hand_example():
    # K=1, p=0, lam=1, gamma=0.5 at y=(0.5, 0.5): a=0, so only the
    # transition coefficients and the mean-sensitivity term survive
    par = make_params(n_stations=100, capacity=1, gamma=0.5, p=0.0,
                      choice={"kind": "none"})
    got = jacobian(np.array([0.5, 0.5]), par)
    np.testing.assert_allclose(got, [[0.0, 1.5], [0.0, -1.5]], atol=1e-12)


def test_jacobian_column_sums_vanish():
    # differentiate the conservation identity sum_n b_n = 0
    rng = np.random.default_rng(3)
    par = make_params(capacity=8, gamma=4.0, p=0.7)
    for _ in range(10):
        j = jacobian(interior_point(rng, 9), par)
        assert np.abs(j.sum(axis=0)).max() <= 1e-12


@pytest.mark.parametrize("choice", [
    {"kind": "exponential", "theta": 1.5},
    {"kind": "minimum", "c": 6},
    {"kind": "polynomial", "alpha": 1.3},
    {"kind": "none"},
])
def test_jacobian_matches_finite_differences(choice):
    rng = np.random.default_rng(11)
    par = make_params(capacity=20, gamma=10.0, p=0.6, mu=1.4, choice=choice)
    for _ in range(10):
        y = interior_point(rng, 21)
        assert np.abs(jacobian(y, par) - fd_jacobian(y, par)).max() <= 1e-6


def test_jacobian_time_varying_rate():
    par = make_params(
        capacity=5, gamma=2.0, p=0.5,
        arrival={"fourier": {"intercept": 1.0, "sin": [0.5], "cos": [0.0],
                             "period": 24.0}},
    )
    rng = np.random.default_rng(4)
    y = interior_point(rng, 6)
    assert np.abs(jacobian(y, par, t=6.0) - fd_jacobian(y, par, t=6.0)).max() <= 1e-6


def test_jacobian_rejects_vanished_denominator():
    # all mass at 0 with polynomial weights kills the choice denominator
    par = make_params(capacity=3, gamma=1.0, p=0.5,
                      choice={"kind": "polynomial", "alpha": 1.0})
    y = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        jacobian(y, par)


def test_bracket_rejects_vanished_denominator():
    # A needs the informed term lam p / s as much as J does
    par = make_params(capacity=3, gamma=1.0, p=0.5,
                      choice={"kind": "polynomial", "alpha": 1.0})
    with pytest.raises(ValidationError, match="denominator vanished"):
        bracket_matrix(np.array([1.0, 0.0, 0.0, 0.0]), par)


@pytest.mark.parametrize("capacity", [20, {"values": [10, 20], "fractions": [0.4, 0.6]}],
                         ids=["uniform", "mix"])
def test_jacobian_and_bracket_are_the_packed_kernels(capacity):
    # one kernel: the public J and A are, bit for bit, the J buffer and the
    # dSigma that the covariance ODE's right-hand side leaves at Sigma = 0
    fourier = {"fourier": {"intercept": 1.0, "sin": [0.5], "cos": [0.3]}}
    par = make_params(gamma=7.5, capacity=capacity, arrival=fourier,
                      choice={"kind": "exponential", "theta": 0.3})
    y = builtin_measure(par, "uniform")
    y = y * np.random.default_rng(12).uniform(0.5, 1.5, y.shape)
    y /= y.sum()
    dim, t = y.size, 1.7
    rhs_into, j, _ = _packed_rhs(par)
    out = np.empty(dim + dim * dim)
    rhs_into(arrival_rate(par.arrival, t), np.concatenate([y.ravel(), np.zeros(dim * dim)]),
             out)
    assert jacobian(y, par, t).tobytes() == j.tobytes()
    assert bracket_matrix(y, par, t).tobytes() == out[dim:].tobytes()


@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("y", [[np.nan, 0.5, 0.25, 0.25], [np.inf, 0.0, 0.0, 0.0]],
                         ids=["nan", "inf"])
def test_non_finite_measure_refused(p, y):
    # each returned NaN, and jacobian of the NaN measure at p > 0 blamed the
    # choice denominator
    par = make_params(capacity=3, gamma=1.5, p=p)
    y = np.array(y)
    for f in (drift, jacobian, bracket_matrix):
        with pytest.raises(ValidationError, match="measure must be finite"):
            f(y, par)
    with pytest.raises(ValidationError, match="measure must be finite"):
        integrate_covariance(y, np.zeros((4, 4)), par, [0.0, 1.0])


@pytest.mark.parametrize("caps", [(2, 4), (3, 7, 12)])
def test_jacobian_matches_finite_differences_on_capacity_mix(caps):
    # over the flattened (class, count) table: central differences of the
    # drift on the live cells, exact zeros in dead cells' rows and columns
    par = make_params(gamma=1.0, p=0.6, capacity={
        "values": list(caps), "fractions": [1 / len(caps)] * len(caps)})
    width = caps[-1] + 1
    live = np.arange(width) <= np.array(caps)[:, None]
    rng = np.random.default_rng(12)
    for _ in range(5):
        y = np.where(live, rng.uniform(0.1, 1.0, live.shape), 0.0)
        y *= 1.0 / len(caps) / y.sum(axis=1, keepdims=True)
        j = jacobian(y, par)
        assert np.all(j[~live.ravel()] == 0.0) and np.all(j[:, ~live.ravel()] == 0.0)
        for cell in np.flatnonzero(live):
            e = np.zeros(y.size)
            e[cell] = 1e-6
            e = e.reshape(y.shape)
            fd = (drift(y + e, par) - drift(y - e, par)).ravel() / 2e-6
            assert np.abs(j[:, cell] - fd).max() <= 1e-6


# ---------------------------------------------------------------- bracket

def test_bracket_hand_example_at_equilibrium():
    # K=1, p=0: at equilibrium the up and down flows both equal lam*y1, so
    # every entry has magnitude 2*lam*y1 ~ 0.43845
    par = make_params(n_stations=100, capacity=1, gamma=0.5, p=0.0,
                      choice={"kind": "none"})
    eq = solve_equilibrium(par)
    a = bracket_matrix(eq.y_bar, par)
    v = 2.0 * eq.y_bar[1]
    np.testing.assert_allclose(a, [[v, -v], [-v, v]], atol=1e-12)
    assert v == pytest.approx(0.43845, abs=1e-4)


def test_bracket_row_sums_vanish():
    rng = np.random.default_rng(7)
    par = make_params(capacity=10, gamma=5.0, p=0.4)
    for _ in range(10):
        a = bracket_matrix(interior_point(rng, 11), par)
        assert np.abs(a.sum(axis=1)).max() <= 1e-12
        np.testing.assert_allclose(a, a.T, atol=0)


def test_bracket_support_of_point_mass():
    # mass at an interior count only activates the two adjacent transitions
    par = make_params(capacity=6, gamma=4.0, p=0.3)
    y = np.zeros(7)
    y[3] = 1.0
    a = bracket_matrix(y, par)
    live = np.ix_([2, 3, 4], [2, 3, 4])
    mask = np.zeros_like(a, dtype=bool)
    mask[live] = True
    assert np.all(a[~mask] == 0.0)
    assert a[3, 3] > 0.0


@pytest.mark.parametrize("p, k, gamma", [
    pytest.param(p, k, gamma, id=f"{p}" if k == 6 else f"{p}-k{k}")
    for k, gamma in ((6, 3.0), (1, 0.5)) for p in (0.0, 0.5, 1.0)])
def test_bracket_matches_transition_sum(p, k, gamma):
    # sum over transitions of rate * (e_to - e_from)(e_to - e_from)^T, with
    # the rates written out from the model: pickups lam*((1-p) + p*g(n)/s)
    # per station at n, dropoffs mu*(gamma - mean) per station below K; at
    # p=1 the uninformed block weight lam*(1-p) is zero
    lam = 1.3
    par = make_params(capacity=k, gamma=gamma, p=p, arrival={"constant": lam})
    y = interior_point(np.random.default_rng(4), k + 1)
    g = np.exp(np.arange(k + 1.0))  # exponential choice, theta = 1
    s = float(g @ y)
    spare = par.mu * (gamma - float(np.arange(k + 1) @ y))
    eye = np.eye(k + 1)
    want = np.zeros((k + 1, k + 1))
    for n in range(k + 1):
        if n > 0:
            jump = eye[n - 1] - eye[n]
            want += lam * ((1 - p) + p * g[n] / s) * y[n] * np.outer(jump, jump)
        if n < k:
            jump = eye[n + 1] - eye[n]
            want += spare * y[n] * np.outer(jump, jump)
    np.testing.assert_allclose(bracket_matrix(y, par), want, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("caps", [(2, 4), (3, 7, 12)])
def test_bracket_band_on_capacity_mix(caps):
    # the cached bands over a mix's flattened (class, count) table: zero on
    # dead cells (n > K_c) and across class boundaries, and on live cells
    # the per-class sum over transitions for any block weights c
    par = make_params(gamma=1.0, capacity={"values": list(caps),
                                           "fractions": [1 / len(caps)] * len(caps)})
    band, _ = _covariance_operators(par.capacity_values, par.choice)
    width = caps[-1] + 1
    dim = len(caps) * width
    assert band.shape == (3 * (2 * dim - 1), dim)
    live = (np.arange(width) <= np.array(caps)[:, None]).ravel()
    assert np.all(band[:, ~live] == 0.0)
    # a diagonal row is dead with its cell, a superdiagonal row (i, i+1)
    # when either cell is dead or they lie in different classes
    pair = live[:-1] & live[1:] & (np.arange(1, dim) % width != 0)
    rows_live = np.concatenate([live, pair] * 3)
    assert np.all(band[~rows_live] == 0.0)

    rng = np.random.default_rng(8)
    y = np.where(live, rng.uniform(0.1, 1.0, dim), 0.0)
    y /= y.sum()
    c = rng.uniform(0.2, 2.0, 3)
    a = c @ (band @ y).reshape(3, -1)
    got = np.diag(a[:dim]) + np.diag(a[dim:], 1) + np.diag(a[dim:], -1)
    g = np.exp(np.arange(width, dtype=float))  # exponential choice, theta = 1
    eye = np.eye(dim)
    want = np.zeros((dim, dim))
    for cls, k in enumerate(caps):
        for n in range(k + 1):
            cell = cls * width + n
            if n > 0:
                jump = eye[cell - 1] - eye[cell]
                want += (c[0] + c[1] * g[n]) * y[cell] * np.outer(jump, jump)
            if n < k:
                jump = eye[cell + 1] - eye[cell]
                want += c[2] * y[cell] * np.outer(jump, jump)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
    assert np.all(got[~live] == 0.0) and np.all(got[:, ~live] == 0.0)


def test_bracket_tridiagonal():
    rng = np.random.default_rng(9)
    par = make_params(capacity=9, gamma=4.0)
    a = bracket_matrix(interior_point(rng, 10), par)
    for off in range(2, 10):
        assert np.all(np.diagonal(a, off) == 0.0)


# ------------------------------------------------------- covariance ODE

def test_scalar_covariance_closed_form():
    # 1x1 surrogate: sigma' = -2*beta*sigma + s2 has the textbook solution
    # on the shared stepper, packed behind a one-cell measure as [y; Sigma]
    beta, s2 = 1.3, 0.7

    def rhs_into(lam, z, out):
        out[0] = 0.0
        out[1] = -2 * beta * z[1] + s2

    grid = np.array([0.0, 0.5, 1.0, 3.0])
    out = _rk4_buffered(rhs_into, np.array([1.0, 0.0]), ArrivalModel(rate=1.0),
                        grid, 0.005, dim=1)
    exact = s2 / (2 * beta) * (1 - np.exp(-2 * beta * grid))
    assert np.abs(out[:, 1] - exact).max() <= 1e-8
    assert np.all(out[:, 0] == 1.0)


def test_zero_bracket_keeps_zero_covariance():
    # lam=0 and docked mean equal to gamma: no transitions fire, A == 0
    par = make_params(n_stations=100, capacity=2, gamma=1.0, p=0.0,
                      arrival={"constant": 0.0}, choice={"kind": "none"})
    y0 = np.array([0.5, 0.0, 0.5])
    states = integrate_covariance(y0, np.zeros((3, 3)), par, [0.0, 2.0])
    assert np.abs(states[-1].sigma).max() == 0.0


def test_covariance_psd_symmetric_mass_null():
    par = make_params(n_stations=2000, capacity=3, gamma=1.5, p=0.5)
    y0 = np.full(4, 0.25)
    states = integrate_covariance(y0, np.zeros((4, 4)), par, np.linspace(0.0, 5.0, 11))
    ones = np.ones(4)
    for s in states:
        assert np.abs(s.sigma - s.sigma.T).max() <= 1e-10
        assert np.linalg.eigvalsh(s.sigma).min() >= -1e-8
        assert np.abs(s.sigma @ ones).max() <= 1e-8
    # fluctuations accumulate: the covariance is not degenerate
    assert np.trace(states[-1].sigma) > 0.01


def test_covariance_validation():
    par = make_params(capacity=3, gamma=1.5)
    y0 = np.full(4, 0.25)
    with pytest.raises(ValidationError):
        integrate_covariance(y0[:3], np.zeros((4, 4)), par, [0.0, 1.0])
    with pytest.raises(ValidationError):
        integrate_covariance(y0, np.zeros((3, 3)), par, [0.0, 1.0])
    bad = np.zeros((4, 4))
    bad[0, 1] = 1.0
    with pytest.raises(ValidationError):
        integrate_covariance(y0, bad, par, [0.0, 1.0])


def test_covariance_rejects_nan_sigma0():
    par = make_params(capacity=3, gamma=1.5)
    with pytest.raises(ValidationError, match="symmetric"):
        integrate_covariance(np.full(4, 0.25), np.full((4, 4), np.nan), par, [0.0, 1.0])


def test_covariance_rejects_start_docking_more_than_fleet():
    # the uniform start docks 10 bikes per station against gamma = 4
    par = make_params(n_stations=60, gamma=4, p=0.5,
                      choice={"kind": "exponential", "theta": 0.5})
    with pytest.raises(ValidationError, match="fleet"):
        integrate_covariance(np.full(21, 1 / 21), np.zeros((21, 21)), par, [0.0, 1.0])


def test_covariance_matches_monte_carlo():
    # moderate-scale version of the fluctuation-limit check; the acceptance
    # suite runs the full N=2000, R=2000 configuration
    par = make_params(n_stations=800, capacity=3, gamma=1.5, p=0.5)
    y0 = np.full(4, 0.25)
    states = integrate_covariance(y0, np.zeros((4, 4)), par, [0.0, 2.0])
    sig = states[-1].sigma
    res = ensemble(par, replications=800, horizon=2.0, sample_dt=1.0, seed=99,
                   initial=np.full(4, 200))
    mc = res.cov[-1] * 800
    rel = np.linalg.norm(mc - sig) / np.linalg.norm(sig)
    assert rel < 0.25


def test_zero_bracket_control_departs_from_monte_carlo(monkeypatch):
    # dropping the source term must break the Monte-Carlo match decisively
    par = make_params(n_stations=800, capacity=3, gamma=1.5, p=0.5)
    y0 = np.full(4, 0.25)
    sig = integrate_covariance(y0, np.zeros((4, 4)), par, [0.0, 2.0])[-1].sigma
    drop_bracket_source(monkeypatch)
    hollow = integrate_covariance(y0, np.zeros((4, 4)), par, [0.0, 2.0])[-1].sigma
    assert np.abs(hollow).max() == 0.0
    assert np.linalg.norm(hollow - sig) / np.linalg.norm(sig) > 0.9


def test_covariance_consistent_with_mean_path():
    # the packed integrator carries the standalone mean-field path: its mean
    # is integrate's, bit for bit, under a constant and a Fourier rate
    fourier = {"fourier": {"intercept": 1.0, "sin": [0.5, 0.2], "cos": [0.3, 0.0]}}
    y0 = np.array([0.3, 0.3, 0.2, 0.1, 0.1])
    grid = np.linspace(0.0, 3.0, 7)
    for arrival in ({"constant": 1.0}, fourier):
        par = make_params(capacity=4, gamma=2.0, p=0.6, arrival=arrival)
        ymf = integrate(y0, par, grid)
        stats = {}
        states = integrate_covariance(y0, np.zeros((5, 5)), par, grid, stats=stats)
        assert len(states) == len(grid)
        assert isinstance(states[0], CovarianceState)
        assert states[-1].t == pytest.approx(3.0)
        assert np.array_equal(np.array([s.y for s in states]), ymf), arrival
        assert stats["steps"] == 600 and stats["stiff_halvings"] == 0
        traces = [np.trace(s.sigma) for s in states]
        assert traces[0] == 0.0
        if "constant" in arrival:
            # the trace grows from zero smoothly
            assert all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))


def test_stiff_covariance_halves_its_step():
    # K=20, lam=10, p=0.25: the covariance ODE's spectral radius reaches
    # 2*1745 by t=0.5, far past RK4's stability interval at h=0.005, while
    # the mean stays well-behaved. The guard must halve the step there and
    # agree with a step small enough never to trigger it.
    par = make_params(n_stations=60, gamma=10, capacity=20, p=0.25,
                      arrival={"constant": 10.0},
                      choice={"kind": "exponential", "theta": 0.5})
    y0 = round_robin_state(par) / par.n_stations
    grid = [0.0, 0.25, 0.5]
    stats, fine_stats = {}, {}
    coarse = integrate_covariance(y0, np.zeros((21, 21)), par, grid, stats=stats)
    fine = integrate_covariance(y0, np.zeros((21, 21)), par, grid, h=0.0002,
                                stats=fine_stats)
    assert stats["stiff_halvings"] > 0
    assert fine_stats["stiff_halvings"] == 0
    for a, b in zip(coarse, fine):
        assert np.abs(a.sigma - b.sigma).max() <= 1e-8
        assert np.abs(a.y - b.y).max() <= 1e-8
    assert 0.1 < np.abs(coarse[-1].sigma).max() < 1.0


def test_stiff_covariance_failure_reports_its_halvings():
    # theta=2 from the round-robin deal is stiff from the first step: the
    # guard halves until the step falls below MIN_STEP, and the caller's
    # stats dict says so instead of staying empty
    par = make_params(n_stations=100, choice={"kind": "exponential", "theta": 2.0})
    y0 = round_robin_state(par) / par.n_stations
    stats = {}
    with pytest.raises(ConvergenceError, match="step size fell below"):
        integrate_covariance(y0, np.zeros((21, 21)), par, [0.0, 1.0], stats=stats)
    assert stats["stiff_halvings"] >= 1
    assert stats["steps"] == 0


def test_stiffness_guard_bound():
    # the guard compares 2 dt min(|J|_1, |J|_inf), which bounds dt times the
    # spectral radius of Sigma -> J Sigma + Sigma J^T, with RK4's limit
    par = make_params(n_stations=60, gamma=10, capacity=20, p=0.25,
                      arrival={"constant": 10.0},
                      choice={"kind": "exponential", "theta": 0.5})
    y = round_robin_state(par) / par.n_stations
    j = jacobian(y, par)
    bound = min(np.abs(j).sum(axis=0).max(), np.abs(j).sum(axis=1).max())
    assert np.abs(np.linalg.eigvals(j)).max() <= bound
    rhs_into, _, guard = _packed_rhs(par)
    rhs_into(10.0, np.concatenate([y, np.zeros(21 * 21)]), np.empty(21 + 21 * 21))
    limit = STIFF_LIMIT / (2.0 * bound)
    assert guard(1.01 * limit) and not guard(0.99 * limit)


def test_covariance_integration_builds_one_kernel(monkeypatch):
    import bss.diffusion as dif

    built = []
    kernel = dif._Kernel
    monkeypatch.setattr(dif, "_Kernel", lambda params: built.append(1) or kernel(params))
    par = make_params(n_stations=10, gamma=1.5, capacity=3)
    y0 = np.full(4, 0.25)
    states = integrate_covariance(y0, np.zeros((4, 4)), par, [0.0, 0.5, 1.0], h=0.01)
    assert len(built) == 1
    assert len(states) == 3
