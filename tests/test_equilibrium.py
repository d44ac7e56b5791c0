import dataclasses
import math

import numpy as np
import pytest

from bss.model import ChoiceSpec, ConvergenceError, ValidationError, validate_params
from bss.meanfield import drift, integrate, ratio_projection
from bss.equilibrium import (
    A_MIN,
    EPS,
    MAX_NEWTON_ITER,
    NOISE_ULPS,
    RESIDUAL_TOL,
    _brent,
    _class_structure,
    _log_down_sums,
    _moment_kernel,
    _solve_u,
    entropy,
    solve_equilibrium,
    solve_equilibrium_hetero,
)
from entropy_oracle import relative_entropy


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


def interior_physical(rng, size, gamma):
    # strictly positive measure with docked mean below gamma
    y = rng.dirichlet(np.full(size, 2.0))
    y = 0.98 * y + 0.02 / size
    m1 = float(np.arange(size) @ y)
    cap = 0.9 * gamma
    if m1 > cap:
        w = 1.0 - cap / m1
        y = (1 - w) * y
        y[0] += w
    return y / y.sum()


# The vectorized inner solve over stacks of s: the oracle of the scalar
# moment kernel and Newton in bss.equilibrium. Every class conditional comes
# from _birth_death, a builder independent of the kernel's class weights, and
# the moments are plain sums over the table.
def _log_rho(a, s, lam, mu, p, g):
    """log rho_k for k = 0..k_max-1, broadcasting over leading axes of a, s."""
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    down = lam * (1.0 - p) + (lam * p) * g[1:] / s[..., None]
    return np.log(mu * a)[..., None] - np.log(down)


def _birth_death(logrho, caps):
    """Birth-death measures of every capacity class from log-ratios.

    logrho has shape (..., caps[-1]). Row c of the (..., C, caps[-1]+1)
    result is the chain cut at caps[c]: y_n is proportional to the product
    of rho_0..rho_{n-1} for n <= caps[c], normalized along the last axis by
    a log-sum-exp, and zero above.
    """
    logw = np.cumsum(logrho, axis=-1)
    logw = np.concatenate((np.zeros(logw.shape[:-1] + (1,)), logw), axis=-1)
    out = np.zeros(logw.shape[:-1] + (len(caps), logw.shape[-1]))
    for c, k in enumerate(caps):
        w = logw[..., : k + 1]
        m = w.max(axis=-1, keepdims=True)
        y = np.exp(w - (m + np.log(np.exp(w - m).sum(axis=-1, keepdims=True))))
        out[..., c, : k + 1] = y / y.sum(axis=-1, keepdims=True)
    return out


def _mixture_moments(a, s, lam, mu, p, g, caps, fracs):
    """Mean count m1, its log-a derivative and refreshed normalizer sum(g y)."""
    conds = _birth_death(_log_rho(a, s, lam, mu, p, g), caps)
    a = np.asarray(a, dtype=float)
    m1 = np.zeros_like(a, dtype=float)
    dm1 = np.zeros_like(a, dtype=float)
    s_new = np.zeros_like(a, dtype=float)
    for c, (k, q) in enumerate(zip(caps, fracs)):
        y = conds[..., c, : k + 1]
        n = np.arange(k + 1)
        mean = (y * n).sum(axis=-1)
        m1 = m1 + q * mean
        s_new = s_new + q * (y * g[: k + 1]).sum(axis=-1)
        dev = n - mean[..., None]
        dev *= dev
        dev *= y
        dm1 = dm1 + q * dev.sum(axis=-1)
    return m1, dm1, s_new


def _solve_a_for_s(s, gamma, lam, mu, p, g, caps, fracs):
    """Unique a in (0, gamma] with a = gamma - m1(a, s), vectorized over s.

    Per element, the rules of bss.equilibrium._solve_u from a cold start at
    log(gamma/2): Newton in log a inside [log A_MIN, log gamma], with the
    bracket midpoint for a step that leaves the bracket or reverses the
    previous step without halving it. Returns (a, sum(g y) at a).
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    floor = NOISE_ULPS * EPS * gamma
    lo = np.full(s.shape, math.log(A_MIN))
    hi = np.full(s.shape, math.log(gamma))
    u = np.full(s.shape, math.log(0.5 * gamma))
    last = np.zeros(s.shape)
    a_out = np.empty(s.shape)
    s_out = np.empty(s.shape)
    live = np.arange(s.size)
    for _ in range(MAX_NEWTON_ITER):
        ul = u[live]
        a = np.exp(ul)
        m1, dm1, s_new = _mixture_moments(a, s[live], lam, mu, p, g, caps, fracs)
        h = a - gamma + m1
        if not np.all(np.isfinite(h)):
            raise ConvergenceError("oracle inner solve met non-finite moments")
        up = h > 0.0
        lo_l = np.where(up, lo[live], ul)
        hi_l = np.where(up, ul, hi[live])
        step = ul - h / (a + dm1)
        mid = 0.5 * (lo_l + hi_l)
        move, prev = step - ul, last[live]
        cycling = (move * prev < 0.0) & (np.abs(move) > 0.5 * np.abs(prev))
        nxt = np.where((step >= lo_l) & (step <= hi_l) & ~cycling, step, mid)
        collapsed = (mid == lo_l) | (mid == hi_l)
        done = (np.abs(h) <= floor) | collapsed | (nxt == ul)
        frozen = live[done]
        a_out[frozen] = a[done]
        s_out[frozen] = s_new[done]
        keep = ~done
        live = live[keep]
        lo[live] = lo_l[keep]
        hi[live] = hi_l[keep]
        last[live] = (nxt - ul)[keep]
        u[live] = nxt[keep]
        if not live.size:
            return a_out, s_out
    raise ConvergenceError("oracle inner solve did not converge")


def inner_solves(s_values, params):
    """_solve_u at each s from a cold start at log(gamma/2): arrays of a,
    sum(g y) and rounds. sum(g y) must be the kernel's value at the
    returned a, not at a stale iterate."""
    caps, fracs, g = _class_structure(params)
    _, moments = _moment_kernel(params.mu, g, caps, fracs)
    out = []
    for s in s_values:
        c_n = _log_down_sums(s, params.arrival.rate, params.p, g)
        u, s_new, rounds, _ = _solve_u(moments, c_n,
                                       math.log(0.5 * params.gamma), params.gamma)
        assert s_new == moments(u, c_n)[2]
        out.append((math.exp(u), s_new, rounds))
    return tuple(map(np.array, zip(*out)))


def kernel_conditionals(rho, caps):
    """The moment kernel's class weights for ratios rho, each class
    normalized as solve_equilibrium normalizes them. With mu = 1 and u = 0,
    C_n = -sum_{k<n} log rho_k makes the kernel's ratios exactly rho."""
    c_n = np.concatenate(([0.0], -np.cumsum(np.log(rho))))
    weights, _ = _moment_kernel(1.0, np.ones(len(c_n)), caps, np.ones(len(caps)))
    w = weights(0.0, c_n)
    return w / w.sum(axis=1, keepdims=True)


class TestBirthDeathStationary:
    """The kernel's class weights on one class: y_n proportional to
    rho_0 ... rho_{n-1}."""

    def test_hand_example(self):
        y = kernel_conditionals([0.5, 2.0], (2,))[0]
        np.testing.assert_allclose(y, [0.4, 0.2, 0.4], atol=1e-14)

    def test_all_ones_gives_uniform(self):
        y = kernel_conditionals(np.ones(20), (20,))[0]
        np.testing.assert_allclose(y, 1 / 21, atol=1e-14)

    def test_vanishing_ratios_pile_on_empty(self):
        y = kernel_conditionals(np.full(10, 1e-12), (10,))[0]
        assert y[0] == pytest.approx(1.0, abs=1e-11)

    def test_long_chain_stays_normalized(self):
        rng = np.random.default_rng(1)
        y = kernel_conditionals(rng.uniform(0.5, 2.0, size=200), (200,))[0]
        assert y.sum() == pytest.approx(1.0, abs=1e-12)
        assert y.min() >= 0.0

    def test_classes_cut_at_their_capacity(self):
        # each class is the one chain cut at its capacity and renormalized
        rho = np.random.default_rng(2).uniform(0.5, 2.0, size=9)
        conds = kernel_conditionals(rho, (3, 9))
        np.testing.assert_allclose(conds, _birth_death(np.log(rho), (3, 9)),
                                   rtol=1e-13, atol=0.0)
        assert not conds[0, 4:].any()


class TestSolveEquilibrium:
    def test_k1_closed_form(self):
        # self-consistency a = lam*rho with y1 = rho/(1+rho) gives
        # rho^2 + 1.5 rho - 0.5 = 0
        params = make_params(gamma=0.5, capacity=1, p=0.0, choice={"kind": "none"})
        res = solve_equilibrium(params)
        rho = (-1.5 + math.sqrt(4.25)) / 2
        assert res.rho[0] == pytest.approx(rho, abs=1e-9)
        np.testing.assert_allclose(
            res.y_bar, [1 / (1 + rho), rho / (1 + rho)], atol=1e-9
        )
        assert res.residual <= 1e-10

    def test_flat_weights_match_uninformed(self):
        p0 = solve_equilibrium(make_params(p=0.0))
        p1 = solve_equilibrium(make_params(p=1.0, choice={"kind": "exponential", "theta": 0.0}))
        np.testing.assert_allclose(p0.y_bar, p1.y_bar, atol=1e-12)

    def test_quarter_informed_empties_and_fills_vanish(self):
        # 25% informed users at theta=2 already push the empty and full
        # fractions below 2%
        res = solve_equilibrium(make_params(p=0.25))
        assert res.y_bar[0] < 0.02
        assert res.y_bar[-1] < 0.02

    def test_residual_gate_on_parameter_grid(self):
        for p in (0.0, 0.25, 0.5, 1.0):
            for theta in (0.0, 1.0, 2.0):
                for k in (3, 10, 20):
                    for gamma in (k / 4, k / 2):
                        params = make_params(
                            gamma=gamma, capacity=k, p=p,
                            choice={"kind": "exponential", "theta": theta},
                        )
                        res = solve_equilibrium(params)
                        assert res.residual <= 1e-10, (p, theta, k, gamma)
                        assert np.max(np.abs(drift(res.y_bar, params))) <= 1e-10
                        assert res.y_bar.min() >= 0.0
                        assert res.y_bar.sum() == pytest.approx(1.0, abs=1e-12)
                        assert np.all(res.rho > 0.0)

    def test_other_choice_kinds_solve(self):
        for choice in ({"kind": "minimum", "c": 4}, {"kind": "polynomial", "alpha": 1.5}):
            params = make_params(capacity=12, gamma=5.0, choice=choice)
            res = solve_equilibrium(params)
            assert res.residual <= 1e-10

    def test_two_path_oracle_against_integration(self):
        # independent route: long RK4 run from uniform must land on the
        # solved fixed point
        params = make_params(gamma=5, capacity=10, choice={"kind": "exponential", "theta": 1.0})
        res = solve_equilibrium(params)
        y0 = np.full(11, 1 / 11)
        end = integrate(y0, params, np.array([0.0, 1000.0]), h=0.01)[-1]
        assert np.max(np.abs(end - res.y_bar)) <= 1e-8

    def test_equilibrium_start_stays_constant(self):
        params = make_params(gamma=5, capacity=10, choice={"kind": "exponential", "theta": 1.0})
        res = solve_equilibrium(params)
        path = integrate(res.y_bar, params, np.linspace(0.0, 100.0, 11), h=0.005)
        assert np.max(np.abs(path - res.y_bar)) <= 1e-8

    @pytest.mark.parametrize("k, gamma, theta", [(200, 100.0, 1.0), (20, 10.0, 30.0)])
    def test_weights_spanning_many_decades_solve(self, k, gamma, theta):
        # g spans 87 and 261 decades: the bracket starts at g_min, not at a
        # floor of 1e-40 g_max that lies above the root
        params = make_params(gamma=gamma, capacity=k,
                             choice={"kind": "exponential", "theta": theta})
        res = solve_equilibrium(params)
        assert res.residual <= RESIDUAL_TOL
        assert np.max(np.abs(drift(res.y_bar, params))) <= RESIDUAL_TOL
        assert res.y_bar.sum() == pytest.approx(1.0, abs=1e-12)

    def test_time_varying_arrival_rejected(self):
        params = make_params(
            arrival={"fourier": {"period": 24, "intercept": 1.0, "sin": [0.2], "cos": [0.0]}}
        )
        with pytest.raises(ValidationError, match="constant"):
            solve_equilibrium(params)

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_zero_fleet_rejected(self, p):
        # validate_params takes gamma = 0; the solver took math.log(0) and
        # failed with a bare "math domain error"
        with pytest.raises(ValidationError, match="fleet must be >= 1, got 0"):
            solve_equilibrium(make_params(gamma=0, p=p))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("capacity", [
        20, {"values": [10, 20], "fractions": [0.5, 0.5]}])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_zero_arrival_rate_rejected(self, p, capacity):
        # with no pickups every bike docks and the fixed point is not
        # unique; the solver used to take log(0) and raise ConvergenceError
        params = make_params(p=p, capacity=capacity, arrival={"constant": 0.0})
        with pytest.raises(ValidationError, match=r"arrival\.constant > 0, got 0\.0"):
            solve_equilibrium(params)


class TestSolverInternals:
    """The Newton inner solve and the Brent outer refinement."""

    @staticmethod
    def bisection_a_for_s(s, gamma, lam, mu, p, g, caps, fracs, iters=80, log_a=False):
        # the earlier inner solve: plain bisection on H(a) = a - gamma + m1
        # over (0, gamma], optionally in log a to resolve tiny a
        lo = np.full(s.shape, math.log(1e-300) if log_a else 1e-300)
        hi = np.full(s.shape, math.log(gamma) if log_a else gamma)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            a = np.exp(mid) if log_a else mid
            m1 = _mixture_moments(a, s, lam, mu, p, g, caps, fracs)[0]
            high = a - gamma + m1 > 0.0
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
        mid = 0.5 * (lo + hi)
        return np.exp(mid) if log_a else mid

    def check_inner_against_bisection(self, params, log_a=False, n_s=120):
        caps, fracs, g = _class_structure(params)
        s = np.geomspace(max(g.min(), g.max() * 1e-40), g.max(), n_s)
        args = (params.gamma, params.arrival.rate, params.mu, params.p, g, caps, fracs)
        a_ref = self.bisection_a_for_s(s, *args, log_a=log_a)
        a, s_new, rounds = inner_solves(s, params)
        np.testing.assert_allclose(a, a_ref, rtol=1e-13, atol=0.0)
        # the kernel exponentiates other sums of log terms than the oracle,
        # and exp turns their rounding into relative error
        _, _, s_at_a = _mixture_moments(a, s, *args[1:])
        np.testing.assert_allclose(s_new, s_at_a, rtol=1e-13, atol=0.0)
        assert rounds.max() < 80

    def test_inner_newton_matches_bisection_one_class(self):
        self.check_inner_against_bisection(make_params())

    def test_inner_newton_matches_bisection_three_class_mix(self):
        self.check_inner_against_bisection(make_params(
            gamma=4.0, capacity={"values": [4, 8, 16], "fractions": [0.25, 0.5, 0.25]},
            choice={"kind": "exponential", "theta": 1.0},
        ))

    def test_inner_newton_resolves_tiny_spare_level(self):
        # a(s) falls to ~1e-13 here, below the resolution of bisection in a,
        # so the reference bisects in log a
        self.check_inner_against_bisection(make_params(gamma=5.0, p=1.0), log_a=True)

    @pytest.mark.parametrize("caps, fracs, gamma, p, theta", [
        pytest.param((3, 7, 12), (0.2, 0.5, 0.3), 3.0, 0.5, 1.0, id="3-7-12-p0.5"),
        pytest.param((4, 8, 16), (0.25, 0.5, 0.25), 4.0, 0.25, 2.0,
                     id="4-8-16-p0.25"),
    ])
    def test_inner_newton_cold_starts_on_cycling_mixes(self, caps, fracs, gamma,
                                                       p, theta):
        # H(u) is S-shaped here, and Newton without the reversal rule
        # settles into a 2-cycle inside its bracket at some s
        self.check_inner_against_bisection(make_params(
            gamma=gamma, p=p,
            capacity={"values": list(caps), "fractions": list(fracs)},
            choice={"kind": "exponential", "theta": theta},
        ), log_a=True, n_s=2000)

    def test_inner_derivative_matches_finite_difference(self):
        params = make_params(
            gamma=4.0, capacity={"values": [4, 8, 16], "fractions": [0.25, 0.5, 0.25]},
        )
        caps, fracs, g = _class_structure(params)
        _, moments = _moment_kernel(params.mu, g, caps, fracs)
        c_n = _log_down_sums(50.0, 1.0, params.p, g)
        step = 1e-6
        for u in np.linspace(-3.0, 1.0, 9):
            fd = (moments(u + step, c_n)[0] - moments(u - step, c_n)[0]) / (2 * step)
            assert moments(u, c_n)[1] == pytest.approx(fd, rel=1e-7)

    def test_brent_finds_known_root(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.cos(x) - x

        root = _brent(f, 0.0, 1.0, f(0.0), f(1.0))
        assert root == pytest.approx(0.7390851332151607, abs=4e-16)
        assert len(calls) < 15

    def test_informed_solve_work_bound(self):
        # p=0.5, theta=2, K=20 took 8,662 moment evaluations with nested
        # bisections; the Newton/Brent route must stay under 120
        res = solve_equilibrium(make_params())
        assert res.stats["route"] == "bracketed"
        assert res.iterations == res.stats["newton_iters"]
        assert res.iterations <= 120
        assert res.stats["brent_evals"] <= 20

    def test_uninformed_route_reported(self):
        res = solve_equilibrium(make_params(p=0.0))
        assert res.stats["route"] == "uninformed"
        assert res.stats["brent_evals"] == 0
        assert res.iterations == res.stats["newton_iters"] <= 20

    def test_overflowing_weights_raise_instead_of_nan(self):
        # exp(40 * 20) overflows; validate_params refuses such weights, so
        # replace builds the params to keep the solver's own gate covered
        params = dataclasses.replace(make_params(),
                                     choice=ChoiceSpec("exponential", 40.0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConvergenceError):
                solve_equilibrium(params)

    def test_overflowing_weights_at_p0_give_finite_weight_table(self):
        # at p = 0 the equilibrium does not depend on g: exp(1000 n)
        # overflows, yet the solve takes flat weights and matches theta = 1
        cfg = {"n_stations": 10, "gamma": 1.5, "capacity": 3, "p": 0.0}
        steep = make_params(**cfg, choice={"kind": "exponential", "theta": 1000.0})
        mild = make_params(**cfg, choice={"kind": "exponential", "theta": 1.0})
        y = interior_physical(np.random.default_rng(2), 4, 1.5)
        with np.errstate(over="raise", invalid="raise"):
            got, ref = solve_equilibrium(steep), solve_equilibrium(mild)
            h_steep = relative_entropy(y, steep).h
            h_mild = relative_entropy(y, mild).h
        for field in ("table", "r_bar", "rho", "a", "residual", "iterations"):
            assert np.asarray(getattr(got, field)).tobytes() == \
                np.asarray(getattr(ref, field)).tobytes(), field
        assert got.stats == ref.stats and got.stats["route"] == "uninformed"
        assert got.s == ref.s == 1.0
        assert math.isfinite(h_steep) and h_steep == h_mild

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("choice", [{"kind": "polynomial", "alpha": 2.0},
                                        {"kind": "minimum", "c": 3}],
                             ids=["poly2", "min3"])
    def test_no_interior_equilibrium_is_named(self, choice, gamma):
        # g(0) = 0 at p = 1 sends every pickup to a stocked station, and a
        # return flow mu*gamma below lam*p cannot keep one stocked: phi < 0
        # at both ends of the bracket, and the error says why
        params = make_params(gamma=gamma, p=1.0, choice=choice)
        with pytest.raises(ConvergenceError,
                           match=rf"^no interior equilibrium: .* \(return flow "
                                 rf"mu\*gamma = {gamma:g}, informed demand "
                                 rf"lam\*p = 1\)$"):
            solve_equilibrium(params)

    @pytest.mark.parametrize("choice", [{"kind": "polynomial", "alpha": 2.0},
                                        {"kind": "minimum", "c": 3}],
                             ids=["poly2", "min3"])
    def test_return_flow_above_demand_still_solves(self, choice):
        res = solve_equilibrium(make_params(gamma=1.1, p=1.0, choice=choice))
        assert res.residual <= RESIDUAL_TOL
        assert res.stats["route"] == "bracketed" and res.s > 0.0


# (capacities, fractions, gamma): every capacity mix the suite runs elsewhere
CAPACITY_MIXES = [
    ((3,), (1.0,), 1.5),
    ((20,), (1.0,), 10.0),
    ((2, 4), (0.5, 0.5), 1.5),
    ((10, 20), (0.5, 0.5), 7.5),
    ((4, 8, 16), (0.25, 0.5, 0.25), 4.0),
    ((3, 7, 12), (0.2, 0.5, 0.3), 3.0),
    ((2, 5, 6, 9), (0.1, 0.2, 0.3, 0.4), 2.5),
]
MIX_CASES = [
    pytest.param(caps, fracs, gamma, p, id="-".join(map(str, caps)) + f"-p{p}")
    for caps, fracs, gamma in CAPACITY_MIXES
    for p in (0.0, 0.5, 1.0)
]


class TestSolveEquilibriumHetero:
    """solve_equilibrium on capacity mixes; a uniform capacity is the
    one-class case."""

    @pytest.mark.parametrize("caps, fracs, gamma, p", MIX_CASES)
    def test_result_contract_on_every_mix(self, caps, fracs, gamma, p):
        capacity = {"values": list(caps), "fractions": list(fracs)}
        params = make_params(gamma=gamma, p=p,
                             capacity=caps[0] if len(caps) == 1 else capacity,
                             choice={"kind": "exponential", "theta": 1.0})
        res = solve_equilibrium(params)
        assert res.table.shape == (len(caps), caps[-1] + 1)
        assert res.residual <= RESIDUAL_TOL
        assert res.residual == np.max(np.abs(drift(res.table, params)))
        np.testing.assert_allclose(res.table.sum(axis=1),
                                   params.capacity_fractions, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(res.r_bar, ratio_projection(res.table, caps))
        if params.is_uniform:
            np.testing.assert_array_equal(res.y_bar, res.r_bar)
        else:
            assert res.y_bar is None
        assert res.rho.shape == (caps[-1],)
        assert res.iterations == res.stats["newton_iters"] > 0

    def test_table_is_the_kernel_conditional_at_the_root(self):
        # the table is the moment kernel's own class weights at (a, s): its
        # moments close the loop, and each class steps by the returned rho
        params = make_params(
            gamma=4.0, p=0.5,
            capacity={"values": [4, 8, 16], "fractions": [0.25, 0.5, 0.25]},
            choice={"kind": "exponential", "theta": 1.0},
        )
        res = solve_equilibrium(params)
        caps, fracs, g = _class_structure(params)
        weights, moments = _moment_kernel(params.mu, g, caps, fracs)
        c_n = _log_down_sums(res.s, params.arrival.rate, params.p, g)
        w = weights(math.log(res.a), c_n)
        np.testing.assert_allclose(
            res.table, fracs[:, None] * w / w.sum(axis=1, keepdims=True),
            rtol=1e-12, atol=0.0)
        m1, _, s = moments(math.log(res.a), c_n)
        assert res.a + m1 == pytest.approx(params.gamma, rel=1e-12)
        assert s == pytest.approx(res.s, rel=1e-12)
        for c, k in enumerate(caps):
            np.testing.assert_allclose(
                res.table[c, 1:k + 1] / res.table[c, :k], res.rho[:k],
                rtol=1e-12)

    def test_single_class_embeds_uniform_solution(self):
        # the one-class table is the birth-death measure of its own frozen rates
        params = make_params(gamma=5, capacity=10, choice={"kind": "exponential", "theta": 1.0})
        res = solve_equilibrium(params)
        np.testing.assert_array_equal(res.y_bar, res.table[0])
        np.testing.assert_allclose(res.y_bar, relative_entropy(res.y_bar, params).nu,
                                   rtol=0, atol=1e-14)
        assert res.residual == np.max(np.abs(drift(res.y_bar, params)))

    def test_uninformed_classes_share_ratio(self):
        params = make_params(
            gamma=5.0, p=0.0,
            capacity={"values": [10, 20], "fractions": [0.5, 0.5]},
        )
        res = solve_equilibrium(params)
        conds = [res.table[c, : k + 1] / res.table[c, : k + 1].sum()
                 for c, k in enumerate(params.capacity_values)]
        r10 = conds[0][1:] / conds[0][:-1]
        r20 = conds[1][1:] / conds[1][:-1]
        np.testing.assert_allclose(r10, r10[0], rtol=1e-10)
        np.testing.assert_allclose(r20, r10[0], rtol=1e-10)
        np.testing.assert_allclose(res.rho, r10[0], rtol=1e-10)
        assert res.r_bar.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.stats["route"] == "uninformed"

    def test_informed_mix_passes_residual_gate(self):
        params = make_params(
            gamma=4.0, p=0.5,
            capacity={"values": [4, 8, 16], "fractions": [0.25, 0.5, 0.25]},
            choice={"kind": "exponential", "theta": 1.0},
        )
        res = solve_equilibrium(params)
        assert np.max(np.abs(drift(res.table, params))) <= 1e-10
        np.testing.assert_allclose(res.table.sum(axis=1), [0.25, 0.5, 0.25], atol=1e-12)
        assert res.r_bar.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.stats["route"] == "bracketed"
        assert 2 < res.stats["brent_evals"] <= 20

    def test_pair_wrapper_returns_table_and_ratio_histogram(self):
        params = make_params(
            gamma=7.5, capacity={"values": [10, 20], "fractions": [0.5, 0.5]},
        )
        res = solve_equilibrium(params)
        table, rbar = solve_equilibrium_hetero(params)
        assert table.shape == (2, 21)
        np.testing.assert_array_equal(table, res.table)
        np.testing.assert_array_equal(rbar, res.r_bar)


@pytest.mark.parametrize("caps, fracs, gamma", CAPACITY_MIXES + [((300,), (1.0,), 3.0)])
def test_moment_kernel_matches_vectorized_oracle(caps, fracs, gamma):
    # the per-class shift keeps K = 300 finite; rtol as in
    # check_inner_against_bisection, and the variance loses digits to
    # E(n^2) - E(n)^2
    params = make_params(gamma=gamma, p=0.5,
                         capacity=caps[0] if len(caps) == 1 else
                         {"values": list(caps), "fractions": list(fracs)},
                         choice={"kind": "exponential", "theta": 0.5})
    caps, fracs, g = _class_structure(params)
    _, moments = _moment_kernel(params.mu, g, caps, fracs)
    for s in np.geomspace(g.min(), g.max(), 7):
        c_n = _log_down_sums(s, 1.0, params.p, g)
        u = np.linspace(-30.0, math.log(gamma), 9)
        got = np.array([moments(x, c_n) for x in u]).T
        want = _mixture_moments(np.exp(u), np.full(u.shape, s), 1.0, params.mu,
                                params.p, g, caps, fracs)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-9, atol=1e-12)


# the solver battery: six capacity mixes with their gamma, seven choices,
# three p (126 configs)
BATTERY_MIXES = [
    ((20,), (1.0,), 10.0),
    ((3,), (1.0,), 1.5),
    ((2, 4), (0.5, 0.5), 1.5),
    ((10, 20), (0.5, 0.5), 7.5),
    ((4, 8, 16), (0.25, 0.5, 0.25), 4.0),
    ((3, 7, 12), (0.2, 0.5, 0.3), 3.0),
]
BATTERY_CHOICES = (
    [("exp", {"kind": "exponential", "theta": t}) for t in (0.5, 1.0, 2.0, 5.0)]
    + [("poly", {"kind": "polynomial", "alpha": a}) for a in (0.5, 2.0)]
    + [("min", {"kind": "minimum", "c": 3})]
)
BATTERY = [
    pytest.param(caps, fracs, gamma, choice, p,
                 id="-".join(map(str, caps))
                 + f"-{name}{list(choice.values())[1]}-p{p}")
    for caps, fracs, gamma in BATTERY_MIXES
    for name, choice in BATTERY_CHOICES
    for p in (0.25, 0.5, 1.0)
]


@pytest.mark.parametrize("caps, fracs, gamma, choice, p", BATTERY)
def test_battery_solves_at_the_one_sign_change(caps, fracs, gamma, choice, p):
    # the equilibrium is unique: phi(s) = sum(g y(a(s), s)) - s changes
    # sign once between g_min and g_max, and the solve lands in that cell
    params = make_params(n_stations=20, gamma=gamma, p=p, choice=choice,
                         capacity=caps[0] if len(caps) == 1 else
                         {"values": list(caps), "fractions": list(fracs)})
    res = solve_equilibrium(params)
    assert res.residual <= RESIDUAL_TOL
    caps, fracs, g = _class_structure(params)
    lo = g.min() if g.min() > 0.0 else g.max() * 1e-40
    s = np.geomspace(lo, g.max(), 400)
    _, s_new = _solve_a_for_s(s, gamma, 1.0, params.mu, p, g, caps, fracs)
    negative = np.signbit(s_new - s)
    change = np.flatnonzero(negative[:-1] != negative[1:])
    assert change.size == 1
    assert s[change[0]] <= res.s <= s[change[0] + 1]


class TestEntropy:
    def test_uniform_21(self):
        assert entropy(np.full(21, 1 / 21)) == pytest.approx(math.log(21), abs=1e-12)

    def test_point_mass(self):
        y = np.zeros(5)
        y[2] = 1.0
        assert entropy(y) == 0.0

    def test_two_point(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_not_a_distribution_rejected(self):
        with pytest.raises(ValidationError):
            entropy([0.5, 0.2])

    def test_equilibrium_entropy_decreases_in_p(self):
        values = []
        for p in np.round(np.arange(0.0, 1.01, 0.1), 2):
            res = solve_equilibrium(make_params(p=float(p)))
            values.append(entropy(res.y_bar))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestRelativeEntropy:
    def test_zero_at_equilibrium(self):
        params = make_params(gamma=5, capacity=10, choice={"kind": "exponential", "theta": 1.0})
        res = solve_equilibrium(params)
        assert abs(relative_entropy(res.y_bar, params).h) <= 1e-10

    def test_k1_hand_value(self):
        # a = 0.5 - 0.4 = 0.1, nu = (1/1.1, 0.1/1.1);
        # h = 0.6 ln(0.66) + 0.4 ln(4.4) recomputed independently
        params = make_params(gamma=0.5, capacity=1, p=0.0, choice={"kind": "none"})
        h = relative_entropy(np.array([0.6, 0.4]), params).h
        expected = 0.6 * math.log(0.6 * 1.1) + 0.4 * math.log(0.4 * 11.0)
        assert h == pytest.approx(expected, abs=1e-12)

    def test_positive_off_equilibrium(self):
        rng = np.random.default_rng(3)
        params = make_params(gamma=2.5, capacity=5, choice={"kind": "exponential", "theta": 1.0})
        for _ in range(25):
            y = interior_physical(rng, 6, params.gamma)
            assert relative_entropy(y, params).h > 0.0

    def test_boundary_rejected(self):
        params = make_params(gamma=2.5, capacity=5)
        with pytest.raises(ValidationError, match="interior"):
            relative_entropy(np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]), params)

    def test_overfull_mean_rejected(self):
        params = make_params(gamma=1.0, capacity=5)
        y = np.array([0.01, 0.01, 0.01, 0.01, 0.01, 0.95])
        with pytest.raises(ValidationError, match="gamma"):
            relative_entropy(y, params)


class TestLyapunovDerivative:
    """The oracle's dh/dt along the flow and its first term, the entropy
    production of the generator frozen at y."""

    def test_zero_at_equilibrium(self):
        params = make_params(gamma=5, capacity=10, choice={"kind": "exponential", "theta": 1.0})
        res = solve_equilibrium(params)
        assert abs(relative_entropy(res.y_bar, params).rate) <= 1e-10

    def test_strictly_negative_off_equilibrium(self):
        rng = np.random.default_rng(9)
        params = make_params(gamma=2.5, capacity=5, choice={"kind": "exponential", "theta": 1.0})
        for _ in range(100):
            y = interior_physical(rng, 6, params.gamma)
            assert relative_entropy(y, params).production < 0.0

    def test_matches_direct_double_sum(self):
        # independent route: assemble the full q(m, n) = nu(m) B(m, n) matrix
        # and evaluate the quadratic form literally
        rng = np.random.default_rng(4)
        params = make_params(gamma=2.0, capacity=6, p=0.7,
                             choice={"kind": "exponential", "theta": 0.8})
        lam = params.arrival.rate
        g = np.exp(0.8 * np.arange(7))
        for _ in range(20):
            y = interior_physical(rng, 7, params.gamma)
            a = params.gamma - float(np.arange(7) @ y)
            s = float(g @ y)
            down = lam * ((1 - params.p) + params.p * g / s)
            rho = params.mu * a / down[1:]
            nu = _birth_death(np.log(rho), (6,))[0]
            size = 7
            b_mat = np.zeros((size, size))
            for n in range(size - 1):
                b_mat[n, n + 1] = params.mu * a
            for n in range(1, size):
                b_mat[n, n - 1] = down[n]
            f = y / nu
            total = 0.0
            for m in range(size):
                for n in range(size):
                    if m != n:
                        total += (
                            nu[m] * b_mat[m, n]
                            * (f[m] - f[n]) * (math.log(f[m]) - math.log(f[n]))
                        )
            direct = -0.5 * total
            got = relative_entropy(y, params).production
            assert got == pytest.approx(direct, rel=1e-10)

    def test_scales_linearly_with_rates(self):
        # multiplying both lambda and mu by c leaves rho, nu, f unchanged and
        # scales every edge flux by c
        rng = np.random.default_rng(14)
        base = make_params(gamma=2.5, capacity=5, choice={"kind": "exponential", "theta": 1.0})
        scaled = make_params(
            gamma=2.5, capacity=5, mu=3.0, arrival={"constant": 3.0},
            choice={"kind": "exponential", "theta": 1.0},
        )
        for _ in range(10):
            y = interior_physical(rng, 6, base.gamma)
            v1 = relative_entropy(y, base).production
            v3 = relative_entropy(y, scaled).production
            assert v3 == pytest.approx(3.0 * v1, rel=1e-9)
            assert v3 < 0.0

    def test_nonpositive_along_trajectory(self):
        params = make_params(gamma=5, capacity=10, choice={"kind": "exponential", "theta": 1.0})
        y0 = np.exp(-0.3 * np.arange(11))
        y0 /= y0.sum()
        path = integrate(y0, params, np.linspace(0.0, 30.0, 16), h=0.01)
        for frame in path:
            assert relative_entropy(frame, params).rate <= 1e-10

    @pytest.mark.parametrize("k", [3, 5, 10])
    @pytest.mark.parametrize("theta, p", [(1.0, 0.5), (3.0, 0.5), (2.0, 1.0)])
    def test_rate_matches_central_differences_along_paths(self, k, theta, p):
        # the five-point central difference of h along an integrate path;
        # its truncation error is near 1e-7 relative at this spacing
        params = make_params(n_stations=10, gamma=k / 2, capacity=k, p=p,
                             choice={"kind": "exponential", "theta": theta})
        rng = np.random.default_rng(7)
        d, offsets = 5e-4, np.arange(-2, 3)
        times = np.concatenate(([0.0], 0.1 + d * offsets, 0.5 + d * offsets))
        for _ in range(3):
            path = integrate(interior_physical(rng, k + 1, params.gamma), params,
                             times, h=1e-4)
            for frames in (path[1:6], path[6:]):
                h = [relative_entropy(y, params).h for y in frames]
                fd = (h[0] - 8.0 * h[1] + 8.0 * h[3] - h[4]) / (12.0 * d)
                assert relative_entropy(frames[2], params).rate == \
                    pytest.approx(fd, rel=1e-5)

    def test_rate_rises_where_production_falls(self):
        # K=3 starts drawn as criterion 6 draws them, at theta = 3: the 14th
        # path climbs near t = 0.68 while the frozen-rate production stays
        # negative, so a check on the production alone cannot see the rise
        params = make_params(n_stations=10, gamma=1.5, capacity=3,
                             choice={"kind": "exponential", "theta": 3.0})
        rng = np.random.default_rng(6)
        y0 = [interior_physical(rng, 4, params.gamma) for _ in range(14)][-1]
        d = 1e-3
        path = integrate(y0, params, [0.0, 0.68 - d, 0.68, 0.68 + d])
        got = relative_entropy(path[2], params)
        assert got.rate > 0.0 > got.production
        rise = (relative_entropy(path[3], params).h
                - relative_entropy(path[1], params).h) / (2.0 * d)
        assert rise == pytest.approx(got.rate, rel=1e-3)
