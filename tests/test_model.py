import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bss.model import (
    ENVELOPE_CELLS,
    PERIOD_GRID_CELLS,
    ArrivalModel,
    ChoiceSpec,
    FourierRateModel,
    ValidationError,
    _period_grid,
    _rate_envelope,
    arrival_rate,
    choice_weight,
    validate_params,
)

# Fitted commute-pattern rate models used in several tests. The weekday fit
# dips below zero around t=4.9 h, which makes it a realistic rejection case
# for load-time validation; the weekend fit is positive everywhere.
WEEKDAY_FIT = FourierRateModel(
    intercept=91.4,
    sin_coeffs=(-43.4, -38.2, 30.1, 14.6, -29.4),
    cos_coeffs=(-49.5, -40.0, 23.7, -1.4, 1.4),
)
WEEKEND_FIT = FourierRateModel(
    intercept=58.6,
    sin_coeffs=(-43.8, 6.0),
    cos_coeffs=(-39.5, 6.7),
)


def base_config(**overrides):
    cfg = {
        "n_stations": 100,
        "gamma": 10,
        "capacity": 20,
        "mu": 1.0,
        "p": 0.5,
        "arrival": {"constant": 1.0},
        "choice": {"kind": "exponential", "theta": 2.0},
    }
    cfg.update(overrides)
    return cfg


class TestChoiceWeight:
    def test_exponential(self):
        assert choice_weight(ChoiceSpec("exponential", 1.0), 2) == pytest.approx(math.e**2)

    def test_minimum(self):
        assert choice_weight(ChoiceSpec("minimum", 5), 7) == 5.0

    def test_polynomial(self):
        assert choice_weight(ChoiceSpec("polynomial", 2.0), 3) == 9.0

    def test_exponential_theta_zero_is_one(self):
        spec = ChoiceSpec("exponential", 0.0)
        for n in (0, 1, 17):
            assert choice_weight(spec, n) == 1.0

    def test_polynomial_zero_to_zero_is_one(self):
        assert choice_weight(ChoiceSpec("polynomial", 0.0), 0) == 1.0

    def test_none_kind(self):
        assert choice_weight(ChoiceSpec("none"), 42) == 1.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            choice_weight(ChoiceSpec("none"), -1)

    def test_vectorized(self):
        w = choice_weight(ChoiceSpec("minimum", 3), np.arange(6))
        assert w.tolist() == [0.0, 1.0, 2.0, 3.0, 3.0, 3.0]

    @given(
        kind=st.sampled_from(["exponential", "minimum", "polynomial", "none"]),
        theta=st.floats(0.0, 4.0),
        c=st.integers(1, 30),
        alpha=st.floats(0.0, 3.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_non_decreasing(self, kind, theta, c, alpha):
        param = {"exponential": theta, "minimum": c, "polynomial": alpha, "none": None}[kind]
        w = choice_weight(ChoiceSpec(kind, param), np.arange(61))
        assert np.all(w >= 0)
        assert np.all(np.diff(w) >= 0)

    def test_bad_params_rejected(self):
        with pytest.raises(ValidationError):
            ChoiceSpec("exponential", -0.5)
        with pytest.raises(ValidationError):
            ChoiceSpec("minimum", 0)
        with pytest.raises(ValidationError):
            ChoiceSpec("minimum", 2.5)
        with pytest.raises(ValidationError):
            ChoiceSpec("polynomial", -1.0)
        with pytest.raises(ValidationError):
            ChoiceSpec("sigmoid", 1.0)
        with pytest.raises(ValidationError):
            ChoiceSpec("none", 1.0)


class TestArrivalRate:
    def test_constant(self):
        assert arrival_rate(ArrivalModel(rate=1.0), 17.3) == 1.0

    def test_weekday_fit_at_zero(self):
        # at t=0 every sine vanishes: -49.5 - 40.0 + 23.7 - 1.4 + 1.4 + 91.4
        val = arrival_rate(ArrivalModel(fourier=WEEKDAY_FIT), 0.0)
        assert val == pytest.approx(25.6, abs=1e-12)

    def test_zero_coeffs_is_intercept(self):
        m = ArrivalModel(fourier=FourierRateModel(intercept=3.0))
        for t in (0.0, 5.5, 23.99):
            assert arrival_rate(m, t) == 3.0

    @given(t=st.floats(0.0, 200.0))
    @settings(max_examples=60, deadline=None)
    def test_periodicity(self, t):
        m = ArrivalModel(fourier=WEEKEND_FIT)
        assert abs(arrival_rate(m, t) - arrival_rate(m, t + 24.0)) < 1e-12

    @pytest.mark.parametrize("order", [0, 2, 5])
    def test_at_matches_the_harmonic_loop_bitwise(self, order):
        # at() iterates precomputed (j, b_j, c_j) terms; its sum must keep
        # the order and bits of the plain loop over harmonic indices
        def loop_at(f, t):
            w = 2.0 * math.pi * float(t) / f.period
            val = f.intercept
            for j in range(f.order):
                val += f.sin_coeffs[j] * math.sin(w * (j + 1))
                val += f.cos_coeffs[j] * math.cos(w * (j + 1))
            return val

        rng = np.random.default_rng(order)
        f = FourierRateModel(intercept=2.5, sin_coeffs=tuple(rng.normal(size=order)),
                             cos_coeffs=tuple(rng.normal(size=order)), period=7.3)
        for t in rng.uniform(-30.0, 300.0, size=1000).tolist() + [0.0, 7.3]:
            assert f.at(t) == loop_at(f, t)
        # the terms are derived: equality, hashing and repr see the fields only
        twin = FourierRateModel(2.5, f.sin_coeffs, f.cos_coeffs, 7.3)
        assert twin == f and hash(twin) == hash(f)
        assert "_terms" not in repr(f)

    def test_scalar_and_array_agree(self):
        m = ArrivalModel(fourier=WEEKDAY_FIT)
        ts = np.array([0.0, 1.1, 7.7, 23.0])
        vals = arrival_rate(m, ts)
        for t, v in zip(ts, vals):
            assert arrival_rate(m, float(t)) == pytest.approx(v, abs=1e-12)

    def test_max_rate_bounds_a_harmonic_the_grid_misses(self):
        # the 1200th harmonic over 24 h vanishes at every 0.01 h grid point,
        # so the grid maximum is the intercept 5.0; the true maximum is 9.9
        m = ArrivalModel(fourier=FourierRateModel(
            intercept=5.0, sin_coeffs=(0.0,) * 1199 + (4.9,),
            cos_coeffs=(0.0,) * 1200))
        dense = arrival_rate(m, np.linspace(0.0, 0.1, 20_001)).max()
        assert dense == pytest.approx(9.9, abs=1e-6)
        assert m.max_rate() >= dense

    def test_max_rate_bounds_a_dense_grid(self):
        m = ArrivalModel(fourier=WEEKDAY_FIT)
        dense = arrival_rate(m, np.linspace(0.0, 24.0, 240_001)).max()
        assert dense <= m.max_rate() <= dense + 0.01 * dense

    def test_terms_hold_the_live_harmonics(self):
        # harmonics with both coefficients zero (-0.0 included) add nothing
        f = FourierRateModel(intercept=1.0, sin_coeffs=(0.0, 0.5, 0.0),
                             cos_coeffs=(-0.0, 0.0, 0.25))
        assert f._terms == ((2, 0.5, 0.0), (3, 0.0, 0.25))
        lone = FourierRateModel(intercept=5.0, sin_coeffs=(0.0,) * 1199 + (4.9,),
                                cos_coeffs=(0.0,) * 1200)
        assert lone._terms == ((1200, 4.9, 0.0),)
        ts = np.linspace(0.0, 0.1, 2001)
        want = 5.0 + 4.9 * np.sin(2.0 * math.pi * ts / 24.0 * 1200)
        m = ArrivalModel(fourier=lone)
        assert np.abs(arrival_rate(m, ts) - want).max() <= 1e-12
        assert max(abs(m.fourier.at(t) - w) for t, w in zip(ts, want)) <= 1e-12

    def test_negative_constant_rejected(self):
        with pytest.raises(ValidationError):
            ArrivalModel(rate=-0.1)


class TestValidateParams:
    def test_gamma_fills_fleet(self):
        params = validate_params(base_config())
        assert params.fleet == 1000
        assert params.gamma == 10.0

    def test_fleet_fills_gamma(self):
        cfg = base_config()
        cfg.pop("gamma")
        cfg["fleet"] = 250
        params = validate_params(cfg)
        assert params.gamma == 2.5

    def test_p_out_of_range_names_field(self):
        with pytest.raises(ValidationError, match="p"):
            validate_params(base_config(p=1.3))

    def test_negative_fourier_cites_first_grid_time(self):
        cfg = base_config(
            arrival={
                "fourier": {
                    "period": 24.0,
                    "intercept": WEEKDAY_FIT.intercept,
                    "sin": list(WEEKDAY_FIT.sin_coeffs),
                    "cos": list(WEEKDAY_FIT.cos_coeffs),
                }
            }
        )
        # independently located: the first 0.01-step grid point with a
        # negative rate is t=1.05 (shallow morning dip before the deep one)
        with pytest.raises(ValidationError, match=r"negative at t=1\.05"):
            validate_params(cfg)

    def test_negative_dip_between_grid_points_rejected(self):
        # the 1200th harmonic over 24 h is zero at every 0.01 h grid point;
        # with amplitude 5.1 over an intercept of 5.0 the rate reaches -0.1
        # between them (first near t = 0.015 h)
        cfg = base_config(arrival={"fourier": {
            "intercept": 5.0, "sin": [0.0] * 1199 + [5.1], "cos": [0.0] * 1200}})
        with pytest.raises(ValidationError, match=r"negative at t=0\.01\d* h"):
            validate_params(cfg)

    @pytest.mark.parametrize("amplitude, dip", [
        (4.9, None),
        (5.1, r"negative at t=0\.014375 h \(value -0\.002"),
    ])
    def test_lone_high_harmonic_dip_search(self, amplitude, dip):
        # 1199 zero harmonics and one of amplitude 4.9 (the rate stays >= 0.1)
        # or 5.1 (it first dips below zero at t = 0.014375 h, value -0.002):
        # the dip search evaluates the live harmonic alone
        cfg = base_config(arrival={"fourier": {
            "intercept": 5.0, "sin": [0.0] * 1199 + [amplitude],
            "cos": [0.0] * 1200}})
        if dip is None:
            validate_params(cfg)
        else:
            with pytest.raises(ValidationError, match=dip):
                validate_params(cfg)

    @pytest.mark.parametrize("fourier", [
        {"intercept": 1.0, "sin": [1.0], "cos": [0.0]},
        # touches zero near t=14.46 h, where rounding evaluates to -5.6e-17
        {"intercept": 0.5, "sin": [0.3], "cos": [0.4]},
    ])
    def test_zero_minimum_validates(self, fourier):
        validate_params(base_config(arrival={"fourier": fourier}))

    def test_nan_fourier_rate_rejected(self):
        cfg = base_config(arrival={"fourier": {"intercept": 1.0, "sin": [math.nan], "cos": [0.0]}})
        with pytest.raises(ValidationError, match=r"arrival\.fourier\.sin\[0\]"):
            validate_params(cfg)

    def test_idempotent(self):
        params = validate_params(base_config())
        assert validate_params(params) is params
        assert validate_params(params.to_config()) == params

    def test_config_roundtrip_hetero(self):
        cfg = base_config(
            capacity={"values": [20, 10], "fractions": [0.5, 0.5]},
            arrival={"fourier": {"intercept": 2.0, "sin": [0.5], "cos": [0.0]}},
            choice={"kind": "minimum", "c": 5},
        )
        params = validate_params(cfg)
        assert params.capacity_values == (10, 20)
        assert validate_params(params.to_config()) == params

    @pytest.mark.parametrize("choice, key", [
        ({"kind": "exponential", "theta": 2}, "theta"),
        ({"kind": "polynomial", "alpha": 1}, "alpha"),
    ])
    def test_to_config_emits_manifest_types(self, choice, key):
        # integer-valued rates and coefficients come back as floats, so the
        # manifest's config does not depend on how the input spelled them
        params = validate_params(base_config(
            mu=2, p=1, choice=choice,
            arrival={"fourier": {"intercept": 3, "sin": [1], "cos": [0], "period": 24}},
        ))
        cfg = params.to_config()
        assert json.dumps(cfg, sort_keys=True) == json.dumps({
            "n_stations": 100, "fleet": 1000, "capacity": 20, "mu": 2.0, "p": 1.0,
            "arrival": {"fourier": {"intercept": 3.0, "sin": [1.0], "cos": [0.0],
                                    "period": 24.0}},
            "choice": {"kind": choice["kind"], key: float(choice[key])},
        }, sort_keys=True)
        assert validate_params(cfg) == params

    def test_fleet_gamma_conflict(self):
        with pytest.raises(ValidationError, match="gamma"):
            validate_params(base_config() | {"fleet": 999})

    @pytest.mark.parametrize("n, choice", [
        # g(20) = exp(800) overflows; the simulator ran on NaN weights
        (50, {"kind": "exponential", "theta": 40.0}),
        (50, {"kind": "polynomial", "alpha": 300.0}),
        # g(20) = exp(700) is finite, 10^5 times it is not
        (100_000, {"kind": "exponential", "theta": 35.0}),
    ])
    def test_overflowing_choice_weights_rejected(self, n, choice):
        with pytest.raises(ValidationError, match="overflow"):
            validate_params(base_config(n_stations=n, choice=choice))
        # without informed users the weights never enter
        assert validate_params(base_config(n_stations=n, choice=choice, p=0.0)).p == 0.0

    @pytest.mark.parametrize("key, value", [
        ("gamma", math.inf),
        ("fleet", math.inf), ("fleet", -math.inf), ("fleet", math.nan),
        ("fleet", 10 ** 400),
        ("capacity", math.inf), ("capacity", math.nan), ("capacity", 10 ** 400),
        ("capacity", {"values": [2, math.inf], "fractions": [0.5, 0.5]}),
        ("n_stations", math.inf), ("n_stations", math.nan),
        ("n_stations", 10 ** 400),
        ("arrival", {"fourier": {"intercept": math.inf, "sin": [1.0], "cos": [0.0]}}),
        ("arrival", {"fourier": {"intercept": -math.inf, "sin": [1.0], "cos": [0.0]}}),
        ("gamma", 10 ** 400), ("mu", 10 ** 400), ("p", 10 ** 400),
        ("arrival", {"constant": 10 ** 400}),
        ("arrival", {"fourier": {"intercept": 10 ** 400, "sin": [1.0], "cos": [0.0]}}),
        ("choice", {"kind": "exponential", "theta": 10 ** 400}),
        ("capacity", {"values": [2, 4], "fractions": [0.5, 10 ** 400]}),
        ("arrival", {"fourier": {"intercept": 1.0, "sin": [0.5], "cos": [0.0],
                                 "period": math.inf}}),
        ("arrival", {"fourier": {"intercept": 1.0, "sin": [0.5], "cos": [0.0],
                                 "period": math.nan}}),
    ], ids=lambda v: "10**400" if v == 10 ** 400 else None)
    def test_non_finite_numbers_rejected(self, key, value):
        # these raised OverflowError or a bare ValueError, and an infinite
        # Fourier intercept, even a negative one, validated; float() of an
        # integer beyond the float range raises OverflowError. An infinite
        # Fourier period raised OverflowError from the period grid
        cfg = base_config(**{key: value})
        if key == "fleet":
            del cfg["gamma"]
        with pytest.raises(ValidationError, match=key):
            validate_params(cfg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("period", [5e-324, 1e-310])
    def test_tiny_period_refused_by_its_frequency(self, period):
        # 2 pi / period overflowed: refused as a rate negative at t=0 with
        # value nan, after numpy's invalid-value warning
        cfg = base_config(arrival={"fourier": {
            "intercept": 1.0, "sin": [0.5], "cos": [0.0], "period": period}})
        with pytest.raises(ValidationError, match=r"^arrival\.fourier\.period must be "
                           r"finite and > 0 with 2 pi / arrival\.fourier\.period finite"):
            validate_params(cfg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fourier", [
        # the slope bound overflows: the dip search halved every cell
        # without end, doubling its instants each round
        {"intercept": 10.0, "sin": [3.0], "cos": [0.0], "period": 1e-307},
        {"intercept": 0.0, "sin": [1e307] * 10, "cos": [0.0] * 10},
        # the bound of |lambda| overflows
        {"intercept": 1e308, "sin": [1e308], "cos": [0.0]},
    ], ids=["tiny-period", "slope", "scale"])
    def test_overflowing_rate_bounds_refused(self, fourier):
        with pytest.raises(ValidationError, match="^arrival.fourier coefficients"):
            validate_params(base_config(arrival={"fourier": fourier}))
        # also for a model built in Python
        with pytest.raises(ValidationError, match="^arrival.fourier coefficients"):
            FourierRateModel(fourier["intercept"], tuple(fourier["sin"]),
                             tuple(fourier["cos"]), fourier.get("period", 24.0))

    @pytest.mark.parametrize("period", [1e4 + 1.0, 1e12, 1e300])
    def test_huge_period_validates_on_a_capped_grid(self, period):
        # 1e12 asked numpy for 728 TiB and 1e300 for more than it allows;
        # the grid keeps PERIOD_GRID_CELLS cells, which the slope bounds of
        # max_rate and the dip search take at their actual step
        cfg = base_config(arrival={"fourier": {
            "intercept": 1.0, "sin": [0.5, 0.2], "cos": [0.3, 0.0], "period": period}})
        start = time.perf_counter()
        params = validate_params(cfg)
        assert time.perf_counter() - start < 0.5
        f = params.arrival.fourier
        assert _period_grid(f).size == PERIOD_GRID_CELLS + 1
        assert 1.0 + math.hypot(0.5, 0.3) <= params.arrival.max_rate() <= 2.0

    @pytest.mark.parametrize("period, cells", [(24.0, 2400), (1e4, PERIOD_GRID_CELLS),
                                               (0.005, 1)])
    def test_period_grid_keeps_its_step_up_to_the_cap(self, period, cells):
        ts = _period_grid(FourierRateModel(1.0, (0.5,), (0.0,), period))
        assert ts.size == cells + 1 and ts[-1] == period

    def test_mu_positive(self):
        with pytest.raises(ValidationError, match="mu"):
            validate_params(base_config(mu=0.0))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="lambda"):
            validate_params(base_config() | {"lambda": 1.0})

    def test_capacity_distribution_normalized(self):
        cfg = base_config(capacity={"values": [5, 10], "fractions": [0.5, 0.5 + 1e-12]})
        params = validate_params(cfg)
        assert abs(sum(params.capacity_fractions) - 1.0) < 1e-12

    def test_empty_capacity_set_rejected(self):
        with pytest.raises(ValidationError, match="values"):
            validate_params(base_config(capacity={"values": [], "fractions": []}))

    def test_class_sizes_sum_to_n(self):
        cfg = base_config(capacity={"values": [3, 7, 11], "fractions": [1 / 3, 1 / 3, 1 / 3]})
        params = validate_params(cfg)
        sizes = params.class_sizes()
        assert sizes.sum() == params.n_stations


# A uniform config under a Fourier rate and a capacity mix given by its
# fleet: between them they hold every field validate_params reads
FOURIER_CONFIG = base_config(arrival={"fourier": {
    "period": 24.0, "intercept": 3.0, "sin": [1.0, 0.5], "cos": [0.5, 0.0]}})
MIX_CONFIG = {k: v for k, v in base_config().items() if k != "gamma"} | {
    "fleet": 1000, "capacity": {"values": [10, 20], "fractions": [0.25, 0.75]},
    "choice": {"kind": "minimum", "c": 3}}
WRONG_VALUES = [None, True, "1", [], {}, 10 ** 400, math.nan, math.inf]


def _fields(node, keys=()):
    """(key path, value) of every list and every scalar in a config tree."""
    if isinstance(node, dict):
        return [f for key, v in node.items() for f in _fields(v, keys + (key,))]
    if isinstance(node, list):
        return [(keys, node)] + [f for i, v in enumerate(node)
                                 for f in _fields(v, keys + (i,))]
    return [(keys, node)]


def _field_name(keys):
    """The name validation gives a key path, such as capacity.fractions[0]."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


def _with_field(cfg, keys, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return cfg


_WRONG_FIELD_CASES = [
    pytest.param(cfg, keys, [5, "ab"] if isinstance(node, list) else WRONG_VALUES,
                 id=f"{name}-{_field_name(keys)}")
    for name, cfg in (("fourier", FOURIER_CONFIG), ("mix", MIX_CONFIG))
    for keys, node in _fields(cfg)
]


@pytest.mark.parametrize("cfg, keys, values", _WRONG_FIELD_CASES)
def test_wrong_field_value_is_refused_by_name(cfg, keys, values):
    # every scalar replaced by each wrong type or non-finite number, every
    # list by a number and a string: a null escaped as TypeError, a bool, a
    # numeric string or a string list validated, as 1, a float or its chars
    validate_params(cfg)
    name = _field_name(keys)
    for value in values:
        with pytest.raises(ValidationError) as err:
            validate_params(_with_field(cfg, keys, value))
        assert str(err.value).startswith(name + " "), (value, str(err.value))


def _envelope_cell(inv, lo, t):
    # the cell the engines read for instant t
    return int(t * inv) % lo.size


@st.composite
def non_negative_rates(draw):
    """Fourier rates of order 1-6, some a lone top harmonic, made
    non-negative by an intercept of at least the harmonics' bound."""
    order = draw(st.integers(1, 6))
    coef = st.floats(-2.0, 2.0, allow_subnormal=False)
    sin = draw(st.lists(coef, min_size=order, max_size=order))
    cos = draw(st.lists(coef, min_size=order, max_size=order))
    if draw(st.booleans()):
        sin[:-1] = cos[:-1] = [0.0] * (order - 1)
    bound = sum(abs(b) + abs(c) for b, c in zip(sin, cos))
    # up to 1e16 times the bound, where the rounding of the sum, not the
    # slope, sets how far at strays from the grid values
    intercept = bound * draw(st.sampled_from([1.0, 1.0 + 1e-9, 1.1, 3.0, 1e16]))
    period = draw(st.floats(0.01, 1000.0))
    return FourierRateModel(intercept, tuple(sin), tuple(cos), period)


@settings(max_examples=40, deadline=None)
@given(f=non_negative_rates(), laps=st.integers(0, 10 ** 6), seed=st.integers(0, 2 ** 32))
def test_rate_envelope_bounds_at(f, laps, seed):
    # lo <= at(t) <= hi in the cell the engines index: on a dense grid of
    # one period, at every cell edge and its neighbouring floats, and up to
    # 10^6 periods out, where at's phase carries the most rounding
    horizon = (10 ** 6 + 1) * f.period
    inv, lo, hi = _rate_envelope(f, horizon)
    assert lo.size <= ENVELOPE_CELLS and not lo.flags.writeable
    edges = np.arange(lo.size + 1) / inv
    ts = np.concatenate([
        np.linspace(0.0, f.period, 4 * lo.size + 1),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        np.random.default_rng(seed).uniform(0.0, f.period, 512) + laps * f.period,
    ])
    ts = ts[(ts >= 0.0) & (ts <= horizon)]
    for t in ts.tolist():
        c = _envelope_cell(inv, lo, t)
        assert lo[c] <= f.at(t) <= hi[c], (t, c)


@pytest.mark.parametrize("f", [
    FourierRateModel(1.0, (0.5, 0.2), (0.3, 0.0), 24.0),
    FourierRateModel(1.0, (0.0,) * 5 + (0.9,), (0.0,) * 6, 0.37),
    FourierRateModel(3.0, (1.0,), (1.0,), 1000.0),
])
def test_rate_envelope_pads_the_phase_rounding_of_long_horizons(f):
    # at t ~ 1e14 h and beyond, the rounding of at's phase outgrows the
    # slope allowance L*step/2; the pad's L * horizon term covers it
    rng = np.random.default_rng(3)
    for horizon in (1e13, 1e14, 1e15, 1e16):
        inv, lo, hi = _rate_envelope(f, horizon)
        for t in rng.uniform(horizon / 2, horizon, 2000).tolist():
            c = _envelope_cell(inv, lo, t)
            assert lo[c] <= f.at(t) <= hi[c], (horizon, t)


def test_rate_envelope_is_cached_per_model_and_horizon():
    f = FourierRateModel(1.0, (0.5, 0.2), (0.3, 0.0), 24.0)
    inv, lo, hi = _rate_envelope(f, 25.0)
    assert _rate_envelope(FourierRateModel(1.0, (0.5, 0.2), (0.3, 0.0), 24.0),
                          25.0)[1] is lo
    # the benchmark's rate: 2,400 cells of 0.01 h, each band under 0.006
    # wide against a bound of 1.77
    assert inv == 100.0 and lo.size == 2400
    assert (hi - lo).max() < 0.006
    # a longer horizon widens the pad, never the other way round
    _, lo_far, hi_far = _rate_envelope(f, 1e9)
    assert np.all(lo_far < lo) and np.all(hi_far > hi)
