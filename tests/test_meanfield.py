import math

import numpy as np
import pytest

from bss import meanfield
from bss.model import (ArrivalModel, ConvergenceError, ValidationError, arrival_rate,
                       validate_params)
from bss.meanfield import (
    builtin_measure,
    drift,
    integrate,
    integrate_hetero,
    ratio_bins,
    ratio_projection,
    MAX_SAMPLES,
    MIN_STEP,
    _sample_grid,
    _check_grid_and_step,
    _rk4_buffered,
)


# The allocating RK4 stepper the buffered one must match bit for bit. Its
# stage inputs are the textbook ones, and it forms the stage sum as the
# buffered stepper does, one product of the weights (1, 2, 2, 1) dt/6 with
# the stacked stages, since a dot product rounds in its own order.

def _rk4_step(fun, t, y, dt):
    k1 = fun(t, y)
    k2 = fun(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = fun(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = fun(t + dt, y + dt * k3)
    weights = np.array([1.0, 2.0, 2.0, 1.0]) * (dt / 6.0)
    return np.dot(weights, np.stack([k1, k2, k3, k4])) + y


def _rk4_advance(fun, t, y, dt):
    """One accepted step: halve on negative overshoot, renormalize drift."""
    out = _rk4_step(fun, t, y, dt)
    if out.min() < -1e-9:
        if dt / 2.0 < MIN_STEP:
            raise ConvergenceError(
                f"step size fell below {MIN_STEP} at t={t:.6g}; system too stiff"
            )
        mid = _rk4_advance(fun, t, y, dt / 2.0)
        return _rk4_advance(fun, t + dt / 2.0, mid, dt / 2.0)
    total = out.sum()
    if abs(total - 1.0) > 1e-12:
        out = out / total
    return out


def _rk4_path(fun, y0: np.ndarray, t_grid: np.ndarray, h: float) -> np.ndarray:
    """Fixed-step RK4 with dense stepping, step halving on negative overshoot,
    and simplex renormalization. fun(t, y) -> dy/dt on flat arrays."""
    t_grid = _check_grid_and_step(t_grid, h)
    out = np.empty((t_grid.size, y0.size))
    y = np.asarray(y0, dtype=float).copy()
    out[0] = y
    for i in range(t_grid.size - 1):
        t0, t1 = t_grid[i], t_grid[i + 1]
        nsub = max(1, int(math.ceil((t1 - t0) / h - 1e-12)))
        dt = (t1 - t0) / nsub
        t = t0
        for _ in range(nsub):
            y = _rk4_advance(fun, t, y, dt)
            t += dt
        out[i + 1] = y
    return out


# The drift kernel's arithmetic written out on its own, with two np.dot
# calls and numpy-scalar weights. The RK4 stepper over drift runs
# _drift_into itself, so only this copy sees a change of bits inside the
# kernel.

def _drift_into_oracle(y, kern, lam, out):
    z, coef, p = kern.z, kern.coef, kern.p
    np.dot(kern.stack, y, z)
    s = z[-2]
    coef[0] = lam * (1.0 - p)
    coef[1] = lam * p / s if p > 0.0 and s > meanfield.TINY_DENOM else 0.0
    coef[2] = kern.mu * (kern.gamma - z[-1])
    return np.dot(coef, kern.blocks, out)


def _oracle_drift(params):
    """fun(t, y) on the flat table for _rk4_path, over _drift_into_oracle."""
    kern = meanfield._Kernel(params)
    return lambda t, y: _drift_into_oracle(y, kern, arrival_rate(params.arrival, t),
                                           np.empty(y.size))


def make_params(**overrides):
    cfg = {
        "n_stations": 1000,
        "gamma": 10,
        "capacity": 20,
        "mu": 1.0,
        "p": 0.5,
        "arrival": {"constant": 1.0},
        "choice": {"kind": "exponential", "theta": 2.0},
    }
    cfg.update(overrides)
    return validate_params(cfg)


def random_simplex(rng, size):
    v = rng.exponential(size=size)
    return v / v.sum()


def physical_simplex(rng, size, gamma, frac=0.95):
    # Start states must dock no more than the fleet: mean <= gamma. Outside
    # that region the spare-bike rate a(y) is negative and the ODE can leave
    # the simplex, so random starts are pulled back by mixing in empty mass.
    y = random_simplex(rng, size)
    m1 = float(np.arange(size) @ y)
    cap = frac * gamma
    if m1 > cap:
        w = 1.0 - cap / m1
        y = (1 - w) * y
        y[0] += w
    return y


class TestDrift:
    def test_conservation_uniform_point(self):
        params = make_params(capacity=2, gamma=1.0)
        b = drift(np.full(3, 1 / 3), params)
        assert abs(b.sum()) < 1e-12

    def test_k1_hand_value(self):
        params = make_params(n_stations=2, capacity=1, gamma=0.5, p=0.0, choice={"kind": "none"})
        b = drift(np.array([0.5, 0.5]), params)
        assert b == pytest.approx([0.5, -0.5], abs=1e-15)

    def test_informed_with_flat_weight_equals_uninformed(self):
        rng = np.random.default_rng(7)
        y = random_simplex(rng, 21)
        p0 = make_params(p=0.0)
        p1 = make_params(p=1.0, choice={"kind": "exponential", "theta": 0.0})
        np.testing.assert_allclose(drift(y, p0), drift(y, p1), rtol=0, atol=1e-15)

    def test_conservation_random_points(self):
        rng = np.random.default_rng(3)
        for kind, param in [("exponential", 1.5), ("minimum", 5), ("polynomial", 0.7)]:
            params = make_params(choice={"kind": kind, **{
                "exponential": {"theta": param},
                "minimum": {"c": param},
                "polynomial": {"alpha": param},
            }[kind]})
            for _ in range(20):
                y = random_simplex(rng, 21)
                assert abs(drift(y, params).sum()) < 1e-12

    def test_time_varying_rate_enters(self):
        params = make_params(
            arrival={"fourier": {"period": 24.0, "intercept": 1.0, "sin": [0.5], "cos": [0.0]}}
        )
        y = np.full(21, 1 / 21)
        b0 = drift(y, params, t=0.0)
        b6 = drift(y, params, t=6.0)
        assert not np.allclose(b0, b6)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            drift(np.full(5, 0.2), make_params())
        # a mix takes only its (class, count) table
        mix = make_params(capacity={"values": [2, 4], "fractions": [0.5, 0.5]})
        with pytest.raises(ValidationError):
            drift(np.full(5, 0.2), mix)


class TestDriftHetero:
    """drift on (class, count) tables."""

    def test_single_class_collapses(self):
        params = make_params(capacity=20)
        rng = np.random.default_rng(11)
        y = random_simplex(rng, 21)
        np.testing.assert_allclose(
            drift(y[None, :], params)[0], drift(y, params), rtol=0, atol=1e-15
        )
        # the one-class table and the vector are the same bytes
        assert drift(y[None, :], params).tobytes() == drift(y, params).tobytes()

    def test_total_and_class_conservation(self):
        params = make_params(
            n_stations=100,
            gamma=3.0,
            capacity={"values": [2, 4, 7], "fractions": [0.25, 0.25, 0.5]},
        )
        rng = np.random.default_rng(5)
        tab = np.zeros((3, 8))
        for c, k in enumerate((2, 4, 7)):
            tab[c, : k + 1] = rng.exponential(size=k + 1)
        tab /= tab.sum()
        b = drift(tab, params)
        assert b.shape == tab.shape
        assert abs(b.sum()) < 1e-12
        np.testing.assert_allclose(b.sum(axis=1), 0.0, atol=1e-12)

    def test_two_class_hand_evaluation(self):
        # uniform table over the 8 valid cells of capacities {2, 4}; p=0,
        # lambda=1, mu=1, gamma=1. Then a = 1 - 13/8 = -5/8 and every row
        # interior entry balances, leaving only the endpoint flows:
        # b(0,k) = 1/8 + 5/64, b(k,k) = -(1/8 + 5/64).
        params = make_params(
            n_stations=8,
            gamma=1.0,
            p=0.0,
            choice={"kind": "none"},
            capacity={"values": [2, 4], "fractions": [0.5, 0.5]},
        )
        tab = np.zeros((2, 5))
        tab[0, :3] = 1 / 8
        tab[1, :5] = 1 / 8
        b = drift(tab, params)
        edge = 1 / 8 + 5 / 64
        expected = np.array(
            [
                [edge, 0.0, -edge, 0.0, 0.0],
                [edge, 0.0, 0.0, 0.0, -edge],
            ]
        )
        np.testing.assert_allclose(b, expected, rtol=0, atol=1e-15)

    def test_capacity_mismatch_rejected(self):
        params = make_params(capacity={"values": [2, 4], "fractions": [0.5, 0.5]})
        with pytest.raises(ValidationError):
            drift(np.full((1, 4), 0.25), params)

    @pytest.mark.parametrize("dead", [1e-3, 1e-300, np.nan])
    def test_mass_in_a_dead_cell_rejected(self, dead):
        # cell (0, 3) lies above capacity 2; drift and integrate both refuse
        # mass or NaN there
        params = make_params(n_stations=100, gamma=1.5,
                             capacity={"values": [2, 4], "fractions": [0.5, 0.5]})
        tab = builtin_measure(params, "uniform")
        tab[0, 3] = dead
        with pytest.raises(ValidationError, match="above a class's capacity"):
            drift(tab, params)
        with pytest.raises(ValidationError, match="above a class's capacity"):
            integrate(tab, params, [0.0, 1.0])
        # an exact zero there, of either sign, is no mass
        tab[0, 3] = -0.0
        assert drift(tab, params).shape == (2, 5)


class TestIntegrate:
    def test_zero_arrivals_drain_bottom_state(self):
        params = make_params(capacity=3, gamma=1.5, arrival={"constant": 0.0})
        y0 = np.full(4, 0.25)
        path = integrate(y0, params, np.linspace(0, 5, 11), h=0.01)
        assert np.all(np.diff(path[:, 0]) <= 1e-12)

    def test_mass_conserved_and_nonnegative(self):
        # theta=1 at K=10 keeps the relaxation rates within reach of the
        # fixed step; theta=2 at K=20 does not (see the stiffness test below)
        params = make_params(gamma=5, capacity=10, choice={"kind": "exponential", "theta": 1.0})
        rng = np.random.default_rng(2)
        y0 = physical_simplex(rng, 11, params.gamma)
        path = integrate(y0, params, np.linspace(0, 50, 26), h=0.01)
        assert np.all(np.abs(path.sum(axis=1) - 1.0) <= 1e-9)
        assert path.min() >= -1e-9

    def test_simplex_preserved_long_horizon(self):
        # 200 h from random physical starts across choice kinds
        rng = np.random.default_rng(11)
        cases = [
            {"choice": {"kind": "exponential", "theta": 0.5}, "capacity": 20, "gamma": 10},
            {"choice": {"kind": "minimum", "c": 4}, "capacity": 12, "gamma": 5.0, "p": 0.8},
            {"choice": {"kind": "polynomial", "alpha": 1.3}, "capacity": 8, "gamma": 3.0},
            {"choice": {"kind": "none"}, "capacity": 15, "gamma": 6.0, "p": 0.0},
        ]
        for case in cases:
            params = make_params(**case)
            y0 = physical_simplex(rng, params.uniform_capacity + 1, params.gamma)
            path = integrate(y0, params, np.array([0.0, 200.0]), h=0.01)
            assert np.abs(path[-1].sum() - 1.0) <= 1e-9
            assert path[-1].min() >= -1e-9

    def test_toy_seasonal_system_is_eventually_periodic(self):
        # K=3 with lambda(t) = 1 + 0.5 sin(t/2): the forcing period is 4*pi,
        # and after a transient the trajectory repeats within 1e-4.
        period = 4 * math.pi
        params = make_params(
            n_stations=100,
            capacity=3,
            gamma=1.5,
            arrival={"fourier": {"period": period, "intercept": 1.0, "sin": [0.5], "cos": [0.0]}},
        )
        y0 = np.full(4, 0.25)
        n_per = 64
        t_grid = np.linspace(0.0, 12 * period, 12 * n_per + 1)
        path = integrate(y0, params, t_grid, h=0.01)
        last = path[-n_per:]
        prev = path[-2 * n_per : -n_per]
        assert np.max(np.abs(last - prev)) < 1e-4

    def test_step_halving_changes_endpoint_below_tolerance(self):
        # K=20, gamma=10; theta=0.5 so the fixed step resolves every rate
        params = make_params(choice={"kind": "exponential", "theta": 0.5})
        y0 = np.full(21, 1 / 21)
        grid = np.array([0.0, 10.0])
        end_a = integrate(y0, params, grid, h=0.01)[-1]
        end_b = integrate(y0, params, grid, h=0.005)[-1]
        assert np.max(np.abs(end_a - end_b)) <= 1e-8

    def test_stiff_network_reports_convergence_error(self):
        # theta=2 at K=20: once the top tail drains, the informed pickup rate
        # on the top state reaches ~1e9 per hour, far beyond what any step
        # above the 1e-6 floor can resolve, so integrate must fail loudly
        # instead of returning garbage. Start with the tail already thin to
        # hit the stiff region quickly.
        params = make_params()
        y0 = np.exp(-np.abs(np.arange(21.0) - 9.0))
        y0 /= y0.sum()
        with pytest.raises(ConvergenceError, match="too stiff"):
            integrate(y0, params, np.array([0.0, 10.0]), h=0.01)

    def test_buffered_and_generic_routes_agree(self):
        # integrate takes the buffered route; it must reproduce the generic
        # stepper over drift exactly, for a constant rate, a Fourier rate
        # and a capacity mix
        grid = np.linspace(0.0, 20.0, 9)
        fourier = {"fourier": {"intercept": 1.0, "sin": [0.5, 0.2], "cos": [0.3, 0.0]}}
        for arrival in ({"constant": 1.0}, fourier):
            params = make_params(
                gamma=5, capacity=10, arrival=arrival,
                choice={"kind": "exponential", "theta": 1.0},
            )
            rng = np.random.default_rng(5)
            y0 = physical_simplex(rng, 11, params.gamma)
            fast = integrate(y0, params, grid, h=0.01)
            slow = _rk4_path(lambda t, y: drift(y, params, t), y0, grid, 0.01)
            assert np.array_equal(fast, slow), arrival
            # the one-class table integrates to the vector's bytes
            table = integrate(y0[None, :], params, grid, h=0.01)
            assert table.shape == (9, 1, 11) and table.tobytes() == fast.tobytes()

        params = make_params(
            n_stations=100, gamma=4.0,
            capacity={"values": [4, 10], "fractions": [0.5, 0.5]},
            choice={"kind": "exponential", "theta": 0.5},
        )
        ym0 = builtin_measure(params, "uniform")
        shape = ym0.shape

        def fun(t, flat):
            return drift(flat.reshape(shape), params, t).ravel()

        fast = integrate(ym0, params, grid, h=0.01)
        slow = _rk4_path(fun, ym0.ravel(), grid, 0.01).reshape(fast.shape)
        assert np.array_equal(fast, slow)
        # the name the benchmark calls is the same integration
        assert integrate_hetero(ym0, params, grid, h=0.01).tobytes() == fast.tobytes()

    @pytest.mark.parametrize("case", ["p0", "informed", "mix", "fourier"])
    def test_kernel_matches_oracle_kernel_bitwise(self, case):
        # the benchmark's ode configs at T=2: integrate against the RK4
        # oracle over the copied kernel, which no change to _drift_into moves
        half = {"kind": "exponential", "theta": 0.5}
        overrides = {
            "p0": {"n_stations": 500, "p": 0.0},
            "informed": {"n_stations": 500, "p": 0.25, "choice": half},
            "mix": {"n_stations": 500, "gamma": 7.5, "choice": half,
                    "capacity": {"values": [10, 20], "fractions": [0.5, 0.5]}},
            "fourier": {"n_stations": 500, "choice": half, "arrival": {"fourier": {
                "intercept": 1.0, "sin": [0.5, 0.2], "cos": [0.3, 0.0], "period": 24.0}}},
        }[case]
        params = make_params(**overrides)
        y0 = builtin_measure(params, "uniform")
        grid = np.linspace(0.0, 2.0, 5)
        fast = integrate(y0, params, grid, h=0.01)
        slow = _rk4_path(_oracle_drift(params), y0.ravel(), grid, 0.01)
        assert fast.tobytes() == slow.tobytes()

    def test_oracle_kernel_agrees_through_dt_changes(self):
        # the stepper sets its RK4 weights only when dt changes: on step
        # halvings, and on a grid of uneven intervals under a Fourier rate
        params = make_params(choice={"kind": "exponential", "theta": 1.2})
        y0 = builtin_measure(params, "uniform")
        grid = np.array([0.0, 1.0, 2.0])
        stats = {}
        fast = integrate(y0, params, grid, h=0.01, stats=stats)
        assert stats["halvings"] > 0
        slow = _rk4_path(_oracle_drift(params), y0, grid, 0.01)
        assert fast.tobytes() == slow.tobytes()

        params = make_params(
            choice={"kind": "exponential", "theta": 0.5},
            arrival={"fourier": {"intercept": 1.0, "sin": [0.5, 0.2], "cos": [0.3, 0.0]}})
        # every interval has its own dt: 0.013/2, 0.487/49, 0.0071, ...
        grid = np.array([0.0, 0.013, 0.5, 0.5071, 2.0, 3.33])
        fast = integrate(y0, params, grid, h=0.01)
        slow = _rk4_path(_oracle_drift(params), y0, grid, 0.01)
        assert fast.tobytes() == slow.tobytes()

    def test_buffered_route_exact_past_fixed_point(self):
        # the buffered route stops an interval's stepping once a step returns
        # its input bytes; this path reaches such a fixed point near t=29.
        # The step of the interval (35, 35.015] is 0.0075 and moves that
        # fixed point, so each later interval must step again with its own dt
        params = make_params(
            gamma=2.0, capacity=5, choice={"kind": "exponential", "theta": 2.0}
        )
        rng = np.random.default_rng(7)
        y0 = physical_simplex(rng, 6, params.gamma)
        grid = np.array([0.0, 2.5, 35.0, 35.015, 35.385, 50.0])
        fast = integrate(y0, params, grid, h=0.01)
        slow = _rk4_path(lambda t, y: drift(y, params, t), y0, grid, 0.01)
        assert np.array_equal(fast, slow)
        one_step = integrate(fast[2], params, [0.0, 0.01], h=0.01)[-1]
        assert one_step.tobytes() == fast[2].tobytes()
        assert fast[3].tobytes() != fast[2].tobytes()
        assert fast[3].tobytes() == fast[-1].tobytes()

    def test_two_cycle_exit_matches_stepping_through(self):
        # from this start the dt=0.01 path settles into a last-bit 2-cycle,
        # not a fixed point; the stepper must end each interval on the cycle
        # state its remaining step count's parity picks, and count the exit
        params = make_params(
            gamma=2.0, capacity=5, choice={"kind": "exponential", "theta": 2.0}
        )
        rng = np.random.default_rng(5)
        y0 = physical_simplex(rng, 6, params.gamma)
        grid = np.array([0.0, 2.5, 35.0, 35.015, 35.385, 50.0])
        stats = {}
        fast = integrate(y0, params, grid, h=0.01, stats=stats)
        slow = _rk4_path(lambda t, y: drift(y, params, t), y0, grid, 0.01)
        assert np.array_equal(fast, slow)
        assert stats["cycle_exits"] >= 1
        one = integrate(fast[2], params, [0.0, 0.01], h=0.01)[-1]
        two = integrate(fast[2], params, [0.0, 0.02], h=0.01)[-1]
        assert one.tobytes() != fast[2].tobytes()
        assert two.tobytes() == fast[2].tobytes()
        # from a cycle state, an odd and an even step count end on the two
        # different states of the cycle
        for n, end in ((5, one), (6, fast[2])):
            cyc = {}
            got = integrate(fast[2], params, [0.0, n * 0.01], h=0.01, stats=cyc)
            ref = _rk4_path(lambda t, y: drift(y, params, t), fast[2],
                            np.array([0.0, n * 0.01]), 0.01)
            assert np.array_equal(got, ref)
            assert got[-1].tobytes() == end.tobytes()
            assert cyc["cycle_exits"] == 1 and cyc["steps"] == 2

    def test_stats_count_what_the_stepper_did(self):
        params = make_params(
            gamma=5, capacity=10,
            arrival={"fourier": {"intercept": 1.0, "sin": [0.5], "cos": [0.0]}},
        )
        y0 = builtin_measure(params, "uniform")
        stats = {}
        integrate(y0, params, [0.0, 0.5, 1.0], h=0.01, stats=stats)
        # a time-varying rate takes no early exit: every sub-step runs
        assert stats["steps"] == 100
        assert stats["fixed_point_exits"] == stats["cycle_exits"] == 0
        assert stats["halvings"] == stats["stiff_halvings"] == 0
        assert stats["renormalized"] == 0 and stats["renormalized_mass"] == 0.0
        fixed = {}
        integrate(y0, make_params(gamma=5, capacity=10, arrival={"constant": 0.0}),
                  [0.0, 1.0], h=0.01, stats=fixed)
        # without arrivals and below the fleet everything docks: the uniform
        # start moves until all mass is pushed up, so some steps run
        assert 1 <= fixed["steps"] <= 100

    @pytest.mark.parametrize("capacity, gamma, p", [
        (20, 10.0, 0.25), ({"values": [10, 20], "fractions": [0.5, 0.5]}, 7.5, 0.5)])
    def test_error_falls_by_sixteen_when_step_halves(self, capacity, gamma, p):
        # shares nothing with the oracle: a fourth-order stepper's error at
        # T=2 falls 2^4-fold from h=0.01 to h=0.005, against h=0.01/16
        params = make_params(n_stations=500, gamma=gamma, capacity=capacity, p=p,
                             choice={"kind": "exponential", "theta": 0.5})
        y0 = builtin_measure(params, "uniform")
        ref, coarse, fine = (integrate(y0, params, [0.0, 2.0], h=h)[-1]
                             for h in (0.01 / 16, 0.01, 0.005))
        ratio = np.abs(coarse - ref).max() / np.abs(fine - ref).max()
        assert 15.0 <= ratio <= 17.0

    def test_drift_kernel_runs_four_times_a_step(self, monkeypatch):
        # the benchmark's tracer counts drift evaluations by swapping a
        # wrapper into meanfield._drift_into; every RK4 step must pass
        # through it, once per stage
        calls = []
        kernel = meanfield._drift_into

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(meanfield, "_drift_into", counting)
        params = make_params(p=0.25, choice={"kind": "exponential", "theta": 0.5})
        stats = {}
        integrate(builtin_measure(params, "uniform"), params, [0.0, 1.0, 3.0],
                  h=0.01, stats=stats)
        assert stats["halvings"] == stats["stiff_halvings"] == 0
        assert stats["steps"] == 300
        assert len(calls) == 4 * stats["steps"]

    def test_step_above_limit_rejected(self):
        params = make_params()
        with pytest.raises(ValidationError):
            integrate(np.full(21, 1 / 21), params, [0.0, 1.0], h=0.02)

    def test_nan_start_rejected(self):
        params = make_params(capacity=5, gamma=2.5)
        with pytest.raises(ValidationError, match="simplex"):
            integrate(np.array([np.nan, 0.2, 0.2, 0.2, 0.2, 0.2]), params, [0.0, 1.0])

    def test_nan_grid_rejected(self):
        with pytest.raises(ValidationError, match="t_grid"):
            integrate(np.full(21, 1 / 21), make_params(), [0.0, np.nan, 1.0])

    def test_start_docking_more_than_fleet_rejected(self):
        # the uniform start docks 10 bikes per station against gamma = 4
        theta = {"kind": "exponential", "theta": 0.5}
        params = make_params(n_stations=60, gamma=4, p=0.5, choice=theta)
        with pytest.raises(ValidationError, match="fleet"):
            integrate(builtin_measure(params, "uniform"), params, [0.0, 1.0])
        mix = make_params(n_stations=60, gamma=4, p=0.5, choice=theta,
                          capacity={"values": [10, 20], "fractions": [0.5, 0.5]})
        with pytest.raises(ValidationError, match="fleet"):
            integrate(builtin_measure(mix, "uniform"), mix, [0.0, 1.0])
        # rounding: at K=40 the uniform start docks 20.000000000000004
        edge = make_params(n_stations=60, gamma=20, capacity=40)
        y0 = builtin_measure(edge, "uniform")
        assert np.arange(41) @ y0 > 20.0
        assert integrate(y0, edge, [0.0, 0.1]).shape == (2, 41)

    def test_stiff_failure_raises(self):
        def rhs_into(lam, y, out):
            out[0] = -1e12 * (y[0] + 1.0)
            out[1] = 1e12 * (y[0] + 1.0)

        with pytest.raises(ConvergenceError, match="too stiff"):
            _rk4_buffered(rhs_into, np.array([0.5, 0.5]), ArrivalModel(rate=1.0),
                          np.array([0.0, 1.0]), 0.01)

        def fun(t, y):
            out = np.empty(2)
            rhs_into(1.0, y, out)
            return out

        with pytest.raises(ConvergenceError, match="too stiff"):
            _rk4_path(fun, np.array([0.5, 0.5]), np.array([0.0, 1.0]), 0.01)

    def test_hetero_marginals_constant(self):
        params = make_params(
            n_stations=100,
            gamma=4.0,
            capacity={"values": [4, 10], "fractions": [0.5, 0.5]},
            choice={"kind": "minimum", "c": 3},
        )
        ym0 = builtin_measure(params, "uniform")
        path = integrate(ym0, params, np.linspace(0, 20, 5), h=0.01)
        fr = path.sum(axis=2)
        np.testing.assert_allclose(fr, 0.5, atol=1e-9)


class TestLipschitz:
    def test_drift_lipschitz_bound(self):
        # bound 2*(lambda*(1-p) + lambda*p*C_max/C_min + gamma) in L1, valid
        # for choice kinds with g(0) > 0
        rng = np.random.default_rng(19)
        for kind, param in [("exponential", 1.0), ("none", None)]:
            params = make_params(
                capacity=10, gamma=5.0, p=0.7,
                choice={"kind": kind} | ({"theta": param} if param is not None else {}),
            )
            g = np.exp(param * np.arange(11)) if kind == "exponential" else np.ones(11)
            lam = 1.0
            bound = 2.0 * (lam * (1 - params.p) + lam * params.p * g.max() / g.min() + params.gamma)
            for _ in range(50):
                y = random_simplex(rng, 11)
                z = random_simplex(rng, 11)
                num = np.abs(drift(y, params) - drift(z, params)).sum()
                den = np.abs(y - z).sum()
                assert num <= bound * den * (1 + 1e-9)


class TestRatioProjection:
    def test_single_class_identity(self):
        rng = np.random.default_rng(4)
        y = random_simplex(rng, 6)
        np.testing.assert_allclose(ratio_projection(y[None, :], (5,)), y, atol=0)

    def test_half_full_small_station(self):
        tab = np.zeros((2, 5))
        tab[0, 1] = 1.0  # n=1 of capacity 2, k_max 4 -> bin 2
        r = ratio_projection(tab, (2, 4))
        assert r[2] == 1.0

    def test_mass_preserved(self):
        rng = np.random.default_rng(6)
        tab = np.zeros((2, 8))
        tab[0, :4] = rng.exponential(size=4)
        tab[1, :8] = rng.exponential(size=8)
        tab /= tab.sum()
        assert abs(ratio_projection(tab, (3, 7)).sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("caps", [(10, 20), (3, 7, 12), (2, 5, 6, 9)])
    def test_stack_matches_frames_bitwise(self, caps):
        # a stack projects as its frames do, and each frame as the per-class
        # np.add.at it replaces
        rng = np.random.default_rng(len(caps))
        width = caps[-1] + 1
        tables = rng.exponential(size=(6, 3, len(caps), width))
        tables[..., np.arange(width) > np.array(caps)[:, None]] = 0.0
        stacked = ratio_projection(tables, caps)
        assert stacked.shape == (6, 3, width)
        for idx in np.ndindex(6, 3):
            oracle = np.zeros(width)
            for c, k in enumerate(caps):
                np.add.at(oracle, ratio_bins(k, caps[-1]), tables[idx][c, : k + 1])
            frame = ratio_projection(tables[idx], caps)
            assert stacked[idx].tobytes() == frame.tobytes() == oracle.tobytes()
        with pytest.raises(ValidationError):
            ratio_projection(tables[..., :-1], caps)

    def test_bins(self):
        assert ratio_bins(5, 60)[3] == 36
        assert ratio_bins(5, 60)[5] == 60
        assert ratio_bins(5, 60)[0] == 0
        with pytest.raises(ValidationError):
            ratio_bins(61, 60)


class TestBuiltinMeasure:
    def test_uniform_vector(self):
        params = make_params(capacity=4)
        np.testing.assert_allclose(builtin_measure(params, "uniform"), 0.2)

    def test_mass_at(self):
        params = make_params(capacity=4)
        y = builtin_measure(params, "mass@2")
        assert y[2] == 1.0 and y.sum() == 1.0

    def test_mass_clipped_to_capacity(self):
        params = make_params(
            n_stations=100, gamma=2.0,
            capacity={"values": [2, 4], "fractions": [0.5, 0.5]},
        )
        ym = builtin_measure(params, "mass@3")
        assert type(ym) is np.ndarray
        assert ym[0, 2] == 0.5
        assert ym[1, 3] == 0.5

    @pytest.mark.parametrize("name", ["uniform", "mass@0", "mass@5"])
    def test_mix_table_rows_are_class_fractions(self, name):
        params = make_params(
            n_stations=100, gamma=2.0,
            capacity={"values": [2, 4, 7], "fractions": [0.25, 0.25, 0.5]},
        )
        ym = builtin_measure(params, name)
        assert type(ym) is np.ndarray and ym.shape == (3, 8)
        np.testing.assert_allclose(ym.sum(axis=1), [0.25, 0.25, 0.5], rtol=0,
                                   atol=1e-15)
        assert not ym[np.arange(8) > np.array([[2], [4], [7]])].any()

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            builtin_measure(make_params(), "gaussian")


@pytest.mark.parametrize("horizon, dt", [(1e300, 1e-300), (1e9, 1e-9),
                                         (MAX_SAMPLES, 1.0)])
def test_sample_grid_refuses_more_than_max_samples(horizon, dt):
    # the first overflowed to inf, the second asked for 6.94 EiB
    with pytest.raises(ValidationError, match="horizon / sample_dt gives more"):
        _sample_grid(horizon, dt)


def test_rk4_stats_count_the_accepted_steps_of_a_failing_interval():
    # stats are written when a step raises: five sub-steps of the first
    # interval, two of the second before the guard fires on every try
    calls = []

    def guard(dt):
        calls.append(dt)
        return len(calls) > 7

    def rhs_into(lam, x, out):
        out[0], out[1] = x[1] - x[0], x[0] - x[1]

    stats = {}
    with pytest.raises(ConvergenceError, match="step size fell below"):
        _rk4_buffered(rhs_into, np.array([1.0, 0.0]), ArrivalModel(rate=1.0),
                      [0.0, 0.05, 0.1], 0.01, guard=guard, stats=stats)
    assert stats["steps"] == 7
    assert stats["stiff_halvings"] == math.floor(math.log2(0.01 / MIN_STEP))


def test_sample_grid_holds_max_samples():
    grid = _sample_grid(MAX_SAMPLES - 1, 1.0)
    assert grid.size == MAX_SAMPLES and grid[-1] == MAX_SAMPLES - 1
