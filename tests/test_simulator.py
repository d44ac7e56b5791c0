import hashlib
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.stats import chi2_contingency

import bss.simulator
from bss.harness import forward_equation_residual
from bss.model import (ChoiceSpec, ValidationError, arrival_rate,
                       choice_weights, validate_params)
from bss.equilibrium import solve_equilibrium
from bss.meanfield import (TINY_DENOM, _informed_choice, _sample_grid, ratio_histogram,
                           ratio_projection)
from bss.simulator import (
    _aggregates,
    _check_table,
    _generator,
    _lockstep,
    _prefix_counts,
    _rank_cell,
    _start_table,
    _first_over,
    _totals,
    EnsembleResult,
    TrajectorySample,
    child_seed,
    ensemble,
    round_robin_state,
    simulate,
    stationary_average,
)


def make_params(**overrides):
    cfg = {
        "n_stations": 50,
        "gamma": 2.0,
        "capacity": 5,
        "mu": 1.0,
        "p": 0.5,
        "arrival": {"constant": 1.0},
        "choice": {"kind": "exponential", "theta": 1.0},
    }
    cfg.update(overrides)
    return validate_params(cfg)


def count_table(counts, caps):
    """Per-station counts binned into the engines' start table: stations per
    (class, count) cell, (K+1,) on one capacity, as round_robin_state gives
    it."""
    values, cls = np.unique(caps, return_inverse=True)
    width = int(values[-1]) + 1
    table = np.bincount(cls * width + np.asarray(counts),
                        minlength=values.size * width).reshape(values.size, width)
    return table[0] if values.size == 1 else table


def dealt_counts(params):
    """Per-station counts and capacities of the round-robin deal: one bike
    per station with room, in station order, until the fleet is out."""
    caps = np.repeat(np.asarray(params.capacity_values), params.class_sizes())
    counts = np.zeros_like(caps)
    left = params.fleet
    while left:
        room = np.flatnonzero(counts < caps)[:left]
        assert room.size, "fleet exceeds the docks"
        counts[room] += 1
        left -= room.size
    return counts, caps


# ---------------------------------------------------------------- rates
# Per-station rates straight from the model's definition, over a vector of
# per-station counts: the oracle the engines' lumped aggregates are checked
# against.

def pickup_rate(counts, i: int, params, t: float = 0.0) -> float:
    """Per-station pickup rate at time t; zero at an empty station."""
    counts = np.asarray(counts)
    x = int(counts[i])
    if x <= 0:
        return 0.0
    lam = arrival_rate(params.arrival, t)
    g = choice_weights(_informed_choice(params), params.k_max)
    rate = (1.0 - params.p) * lam
    if params.p > 0.0:
        total = float(g[counts].sum())
        if total > TINY_DENOM:
            rate += params.p * lam * counts.size * float(g[x]) / total
    return rate


def dropoff_rate(counts, caps, i: int, params) -> float:
    """Per-station dropoff rate; zero at a full station."""
    if int(counts[i]) >= int(caps[i]):
        return 0.0
    return params.mu * (params.fleet - int(np.sum(counts))) / len(counts)


def test_pickup_rate_hand_values():
    # two stations, X=(1,2), p=0.5, lam=1, exponential theta=1:
    # rate_i = 0.5 + 0.5*2*e^{X_i}/(e^1+e^2)
    par = make_params(n_stations=2, capacity=3, gamma=2.5, fleet=5)
    assert pickup_rate([1, 2], 0, par) == pytest.approx(0.5 + 1 / (1 + np.e), abs=1e-12)
    assert pickup_rate([1, 2], 1, par) == pytest.approx(0.5 + np.e / (1 + np.e), abs=1e-12)


def test_pickup_rate_zero_at_empty_station():
    par = make_params(n_stations=2, capacity=3, gamma=1.0)
    assert pickup_rate([0, 2], 0, par) == 0.0
    assert pickup_rate([0, 2], 1, par) > 0.0


def test_pickup_rate_uninformed():
    # p=0 kills the weighting entirely: every nonempty station sees lam
    par = make_params(n_stations=3, capacity=4, gamma=1.0, p=0.0,
                      arrival={"constant": 1.7})
    counts = [1, 4, 0]
    assert pickup_rate(counts, 0, par) == pytest.approx(1.7)
    assert pickup_rate(counts, 1, par) == pytest.approx(1.7)
    assert pickup_rate(counts, 2, par) == 0.0


def test_pickup_rate_time_varying():
    par = make_params(
        n_stations=2, capacity=3, gamma=1.0, p=0.0,
        arrival={"fourier": {"intercept": 1.0, "sin": [0.5], "cos": [0.0],
                             "period": 24.0}},
    )
    # t = 6 puts the first harmonic at its crest
    assert pickup_rate([1, 1], 0, par, t=6.0) == pytest.approx(1.5, abs=1e-12)


def test_dropoff_rate_hand_values():
    # mu=1, N=2, M=5, docked=3: every open station refills at (5-3)/2
    par = make_params(n_stations=2, capacity=3, gamma=2.5, fleet=5)
    assert dropoff_rate([1, 2], [3, 3], 0, par) == pytest.approx(1.0)
    assert dropoff_rate([1, 2], [3, 3], 1, par) == pytest.approx(1.0)


def test_dropoff_rate_zero_at_full_station():
    par = make_params(n_stations=2, capacity=3, gamma=2.0)
    assert dropoff_rate([3, 0], [3, 3], 0, par) == 0.0
    assert dropoff_rate([3, 0], [3, 3], 1, par) == pytest.approx(0.5)


def test_rate_conservation_totals():
    # no empty stations: pickups sum to lam*N; no full ones: dropoffs sum to
    # mu*(M - docked)
    rng = np.random.default_rng(5)
    par = make_params(n_stations=30, capacity=6, gamma=3.0, p=0.7)
    counts = rng.integers(1, 6, size=30)
    caps = np.full(30, 6)
    tot_pick = sum(pickup_rate(counts, i, par) for i in range(30))
    assert tot_pick == pytest.approx(1.0 * 30, rel=1e-9)
    tot_drop = sum(dropoff_rate(counts, caps, i, par) for i in range(30))
    assert tot_drop == pytest.approx(90 - counts.sum(), rel=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_rate_sums_match_engine_totals(p):
    # the per-station rates, summed, are the totals both engines draw
    # candidates from (the scalar engine inlines _totals' expressions and
    # replays bitwise against it); random states include empty and full
    # stations
    rng = np.random.default_rng(41)
    par = make_params(
        n_stations=40, capacity=5, gamma=2.0, p=p,
        arrival={"fourier": {"intercept": 1.0, "sin": [0.4], "cos": [0.2],
                             "period": 8.0}},
    )
    t = 2.7
    lam = arrival_rate(par.arrival, t)
    for _ in range(20):
        counts = rng.integers(0, 6, size=40)
        while counts.sum() > 80:
            counts[rng.integers(40)] = 0
        caps = np.full(40, 5)
        table = _start_table(par, count_table(counts, caps))
        g = choice_weights(_informed_choice(par), par.k_max)
        aggs = np.array(_aggregates(table, g, par.capacity_values),
                        dtype=float)[:, None]
        _, _, pick, drop = _totals(lam, par.p, par.mu, 40, 80, *aggs)
        want_pick = sum(pickup_rate(counts, i, par, t) for i in range(40))
        want_drop = sum(dropoff_rate(counts, caps, i, par) for i in range(40))
        assert pick[0] == pytest.approx(want_pick, rel=1e-12, abs=1e-12)
        assert drop[0] == pytest.approx(want_drop, rel=1e-12, abs=1e-12)


def test_select_falls_back_to_last_nonempty_cell():
    # one column per case, cell-major as the lockstep engine holds them.
    # Column 0: the target equals the cumulative total and the last cell is
    # empty, so no cell exceeds it and the last non-empty cell is chosen;
    # column 1: a target of -0.0, the least an informed pick can draw
    # ((y - w_un) / w_in * g_pos, where w_in has the sign of g_pos), skips
    # the empty first cell; column 2: the ordinary case; column 3: every
    # cell empty
    cells = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 1.0, 1.0],
                      [0.0, 0.0, 0.0]]).T
    cum = np.cumsum(cells, axis=0)
    target = np.array([3.0, -0.0, 1.5, 0.5])
    cell = _first_over(cells, cum, target)
    assert cell.tolist() == [1, 1, 1, 3]
    chosen = cell < 3
    assert np.all(cells[cell[chosen], chosen] - 1.0 >= 0.0)


def _select(cells, cum, target):
    # the oracle, the row-major rule the lockstep engine used before its
    # state went cell-major: per row, the first non-empty cell whose
    # cumulative weight exceeds the target, else the last non-empty cell,
    # -1 if all are empty
    full = cells > 0
    over = full & (cum > target[:, None])
    cell = np.argmax(over, axis=1)
    miss = ~over.any(axis=1)
    if np.count_nonzero(miss):
        tail = full[miss]
        cell[miss] = np.where(tail.any(axis=1),
                              tail.shape[1] - 1 - np.argmax(tail[:, ::-1], axis=1), -1)
    return cell


@pytest.mark.parametrize("k", [1, 3, 20])
def test_first_over_matches_select_oracle(k):
    # random sparse tables, some columns all empty, under count weights and
    # choice weights g(1..k), against targets of 0, an integer, just below
    # the total, the total and past it
    rng = np.random.default_rng(k)
    g = choice_weights(ChoiceSpec("exponential", 0.7), k)[1:, None]
    r = 64
    for _ in range(40):
        cells = rng.integers(0, 4, size=(k, r)).astype(float)
        cells[rng.random((k, r)) < 0.5] = 0.0
        cells[:, rng.random(r) < 0.2] = 0.0
        for weights in (cells, cells * g):
            cum = np.cumsum(weights, axis=0)
            total = cum[-1]
            picks = [np.zeros(r), np.floor(rng.random(r) * (total + 1.0)),
                     np.nextafter(total, 0.0), total, total + 1.0,
                     rng.random(r) * total]
            for target in picks:
                want = _select(cells.T, cum.T, target)
                want[want < 0] = k
                assert np.array_equal(_first_over(cells, cum, target), want)


def _scan_cell(rows, caps, target, pickup):
    # the oracle: a class-major scan adding the counts of the eligible cells
    # until they exceed the target, else keeping the last non-empty cell
    hit, acc = None, 0.0
    for c, k in enumerate(caps):
        for m in range(1, k + 1) if pickup else range(k):
            if rows[c][m]:
                acc += rows[c][m]
                hit = (c, m)
                if acc > target:
                    return hit
    return hit


@pytest.mark.parametrize("caps", [(1,), (5,), (2, 6), (1, 4, 9)])
def test_rank_cell_matches_class_major_scan(caps):
    rng = np.random.default_rng(sum(caps))
    per_class = np.repeat(caps, 6)
    par = make_params(n_stations=per_class.size, gamma=float(caps[-1]),
                      capacity={"values": list(caps),
                                "fractions": [1 / len(caps)] * len(caps)})
    for _ in range(150):
        # sparse random counts; a class is emptied outright a quarter of
        # the time
        counts = rng.integers(0, per_class + 1)
        counts[rng.random(counts.size) < 0.4] = 0
        for k in caps:
            if rng.random() < 0.25:
                counts[per_class == k] = 0
        rows = _start_table(par, count_table(counts, per_class)).tolist()
        prefix = _prefix_counts(rows, caps)
        assert prefix == [list(accumulate(w[: k + 1]))
                          for w, k in zip(rows, caps)]
        for pickup in (True, False):
            classes = [(f, k if pickup else k - 1,
                        [(c, m) for m in range(k + 1)])
                       for c, (f, k) in enumerate(zip(prefix, caps))]
            total = sum(sum(w[1 : k + 1]) if pickup else sum(w[:k])
                        for w, k in zip(rows, caps))
            targets = ([float(v) for v in range(total + 2)]
                       + [v + 0.5 for v in range(total + 1)]
                       + [np.nextafter(float(total), 0.0), total + 1e-9,
                          2.0 * total + 3.0, rng.random() * total])
            for target in targets:
                want = _scan_cell(rows, caps, target, pickup)
                got = _rank_cell(classes, int(target), pickup)
                assert got == want, (counts.tolist(), pickup, target)


def test_conservation_check_catches_a_corrupted_prefix_count():
    par = make_params(capacity={"values": [2, 6], "fractions": [0.5, 0.5]})
    caps = par.capacity_values
    rows = _start_table(par, round_robin_state(par)).tolist()
    prefix = _prefix_counts(rows, caps)
    g = choice_weights(_informed_choice(par), par.k_max)
    docked, _, _, nonempty, open_ = _aggregates(rows, g, caps)
    _check_table(rows, prefix, g, caps, par.fleet, docked, nonempty, open_)
    prefix[1][3] += 1
    with pytest.raises(AssertionError, match="prefix count"):
        _check_table(rows, prefix, g, caps, par.fleet, docked, nonempty, open_)


# ------------------------------------------------------ start tables

def test_round_robin_state_deals_evenly():
    # 6 bikes over 4 stations of 3 docks: two hold 1 and two hold 2, and
    # every bike is docked
    par = make_params(n_stations=4, capacity=3, gamma=1.5)
    table = round_robin_state(par)
    assert table.tolist() == [0, 2, 2, 0]
    assert table @ np.arange(4) == par.fleet


def test_round_robin_state_respects_capacity_mix():
    par = make_params(
        n_stations=4, gamma=2.0,
        capacity={"values": [1, 4], "fractions": [0.5, 0.5]},
    )
    table = round_robin_state(par)
    assert table.tolist() == [[0, 2, 0, 0, 0], [0, 0, 0, 2, 0]]
    assert (table @ np.arange(5)).sum() == 8
    assert table.sum(axis=1).tolist() == par.class_sizes().tolist()


@pytest.mark.parametrize("overrides", [
    {"n_stations": 7, "capacity": 3, "gamma": 13 / 7},
    {"n_stations": 5, "capacity": 4, "gamma": 0.0},
    {"n_stations": 5, "capacity": 4, "gamma": 4.0},
    {"n_stations": 50, "capacity": {"values": [1, 4, 9], "fractions": [0.4, 0.3, 0.3]},
     "gamma": 0.5},
    {"n_stations": 9, "capacity": {"values": [1, 4, 9], "fractions": [0.4, 0.3, 0.3]},
     "gamma": 31 / 9},
    # class sizes 3 and 0: the K=4 class holds no station
    {"n_stations": 3, "capacity": {"values": [2, 4], "fractions": [0.9, 0.1]},
     "gamma": 5 / 3},
])
def test_round_robin_state_bins_the_dealt_stations(overrides):
    par = make_params(**overrides)
    counts, caps = dealt_counts(par)
    table = round_robin_state(par).reshape(len(par.capacity_values), -1)
    want = np.zeros_like(table)
    for k, n in zip(caps, counts):
        want[par.capacity_values.index(k), n] += 1
    assert table.tolist() == want.tolist()


def test_round_robin_state_overfull_fleet_rejected():
    par = make_params(n_stations=2, capacity=3, gamma=3.5, fleet=7)
    with pytest.raises(ValidationError):
        round_robin_state(par)


def test_initial_table_counts():
    # the start table over N is the first sample
    par = make_params(n_stations=4, capacity=3, gamma=2.0)
    traj = simulate(par, 1.0, 1.0, seed=1, initial=count_table([0, 2, 2, 3], [3] * 4))
    np.testing.assert_allclose(traj.y_series[0], [0.25, 0.0, 0.5, 0.25])


def test_initial_table_capacity_mix():
    # a capacity mix takes the (class, count) table, zero above each
    # capacity; its first sample is the ratio histogram of its stations
    par = make_params(n_stations=4, gamma=1.75,
                      capacity={"values": [2, 4], "fractions": [0.5, 0.5]})
    counts, caps = [0, 2, 1, 4], [2, 4, 2, 4]
    table = count_table(counts, caps)
    assert table.tolist() == [[1, 1, 0, 0, 0], [0, 0, 1, 0, 1]]
    traj = simulate(par, 1.0, 1.0, seed=1, initial=table)
    np.testing.assert_array_equal(traj.r_series[0], ratio_histogram(counts, caps, 4))


# a uniform K=3 network of 4 stations and 6 bikes, and a {2, 4} mix of 2 + 2
# stations and 5 bikes
START_PARAMS = {
    "uniform": {"n_stations": 4, "capacity": 3, "gamma": 1.5},
    "mix": {"n_stations": 4, "gamma": 1.25,
            "capacity": {"values": [2, 4], "fractions": [0.5, 0.5]}},
}


def test_initial_table_validation():
    # every engine refuses each malformed start table
    bad_starts = [
        ("uniform", [1, 1, 1, 1, 0], "does not match capacities"),  # K=4 stations
        ("uniform", [[0, 2, 2, 0]] * 2, "does not match capacities"),
        ("mix", [0, 2, 2, 0, 0], "does not match capacities"),
        ("uniform", [1, 1, 1, 0], "stations per class"),  # 3 stations
        ("mix", [[1, 0, 0, 0, 0], [0, 1, 1, 1, 0]], "stations per class"),
        ("uniform", [0, 0, 1, 3], "more than the fleet"),  # 11 bikes docked
        ("uniform", [5, -1, 0, 0], "non-negative integer"),
        ("uniform", [0.5, 3.5, 0, 0], "non-negative integer"),
        # refused, not truncated to four empty stations
        ("uniform", [0.5, 0, 0, 0], "non-negative integer"),
        ("uniform", [np.nan, 4, 0, 0], "finite"),
        # a class-2 station at count 3: a count above its capacity
        ("mix", [[1, 0, 0, 1, 0], [0, 1, 1, 0, 0]], "above a class's capacity"),
    ]
    for key, initial, match in bad_starts:
        par = make_params(**START_PARAMS[key])
        with pytest.raises(ValidationError, match=match):
            simulate(par, 1.0, 0.5, 1, initial=initial)
        with pytest.raises(ValidationError, match=match):
            stationary_average(par, 0.0, 1.0, 1, initial=initial)
        with pytest.raises(ValidationError, match=match):
            ensemble(par, 2, 1.0, 0.5, 1, initial=initial)


@pytest.mark.parametrize("key", list(START_PARAMS))
def test_engines_take_a_float_or_int_table(key):
    # integer-valued floats are counts too, with the same path as the ints
    par = make_params(**START_PARAMS[key])
    table = round_robin_state(par)
    a = simulate(par, 2.0, 0.5, 3, initial=table)
    b = simulate(par, 2.0, 0.5, 3, initial=table.astype(float))
    c = simulate(par, 2.0, 0.5, 3)
    assert a.r_series.tobytes() == b.r_series.tobytes() == c.r_series.tobytes()
    assert a.stats == b.stats == c.stats


def test_engines_run_a_mix_with_an_empty_class():
    # 3 stations split 3 + 0 over the {2, 4} mix: the K=4 row stays empty
    par = make_params(n_stations=3, gamma=1.0, p=0.5,
                      capacity={"values": [2, 4], "fractions": [0.9, 0.1]})
    assert par.class_sizes().tolist() == [3, 0]
    traj = simulate(par, 2.0, 0.5, seed=1, check_conservation=True)
    assert traj.r_series.shape == (5, 5)
    assert np.abs(traj.r_series.sum(axis=1) - 1.0).max() <= 1e-12
    avg = stationary_average(par, 0.0, 2.0, seed=1)
    assert avg.shape == (5,) and avg.sum() == pytest.approx(1.0, abs=1e-12)
    res = ensemble(par, 3, 2.0, 0.5, seed=1)
    assert res.mean.shape == (5, 10)
    assert not res.mean[:, 5:].any()


def test_ratio_histogram_bin_placement():
    # n=3 of k=5 lands in bin floor(3*60/5) = 36
    r = ratio_histogram([3], [5], 60)
    assert r[36] == pytest.approx(1.0)
    assert r.sum() == pytest.approx(1.0)


def test_ratio_histogram_rejects_small_k_max():
    with pytest.raises(ValidationError):
        ratio_histogram([3], [5], 4)


@pytest.mark.parametrize("counts, caps, match", [
    # a -1 count must not index the full bin from the end
    ([-1, 2], [3, 3], "station 0 "),
    ([2, 4], [3, 3], "station 1 "),
    ([1, 1.5], [3, 3], "station 1 "),
    ([1, np.nan], [3, 3], "station 1 "),
    ([1, 0], [3, 0], "station 1 "),
    ([], [], "non-empty"),
    ([1, 2], [3], "equal-length"),
])
def test_ratio_histogram_refuses_bad_counts(counts, caps, match):
    with pytest.raises(ValidationError, match=match):
        ratio_histogram(counts, caps, 3)


def test_child_seed_reference_vectors():
    # canonical splitmix64 outputs for seed 0
    assert child_seed(0, 0) == 0xE220A8397B1DCDAF
    assert child_seed(0, 1) == 0x6E789E6AA1B965F4
    assert child_seed(0, 2) == 0x06C45D188009454F
    seeds = {child_seed(99, i) for i in range(64)}
    assert len(seeds) == 64


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**80 + 5, np.int64(11),
                                  np.uint64(13)])
def test_generator_is_default_rng(seed):
    assert (_generator(seed).bit_generator.state
            == np.random.default_rng(seed).bit_generator.state)


@pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.5, None, "3"])
def test_generator_refuses_bad_seed(seed):
    with pytest.raises(ValidationError, match="seed must be a non-negative"):
        _generator(seed)


def test_negative_seed_refused_unless_a_master():
    par = make_params()
    with pytest.raises(ValidationError, match="seed"):
        simulate(par, 1.0, 0.5, seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        stationary_average(par, 0.0, 1.0, seed=-1)
    # replicas run on child_seed(-1, r), masked to 64 bits
    assert np.isfinite(ensemble(par, 2, 1.0, 0.5, seed=-1).cov).all()


# ---------------------------------------------------------------- simulate

def test_simulate_grid_and_initial_sample():
    par = make_params()
    counts, caps = dealt_counts(par)
    traj = simulate(par, horizon=2.0, sample_dt=0.5, seed=1)
    np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(traj.y_series[0], round_robin_state(par) / 50)
    np.testing.assert_allclose(traj.r_series[0], ratio_histogram(counts, caps, 5))
    assert traj.event_count > 0


@pytest.mark.parametrize("sample_dt", [1.0, 0.01])
def test_simulate_uniform_ratio_series_is_measure_series(sample_dt):
    # for one capacity the ratio projection is the identity, bit for bit
    par = make_params(n_stations=500, gamma=10.0, capacity=20,
                      choice={"kind": "exponential", "theta": 2.0})
    traj = simulate(par, horizon=5.0, sample_dt=sample_dt, seed=7)
    assert traj.event_count > 0
    assert traj.r_series.tobytes() == traj.y_series.tobytes()


def test_simulate_capacity_mix_start_matches_station_histogram():
    par = make_params(capacity={"values": [2, 5, 6, 9], "fractions": [0.25] * 4},
                      gamma=2.0, n_stations=40)
    counts, caps = dealt_counts(par)
    traj = simulate(par, horizon=1.0, sample_dt=0.5, seed=3)
    np.testing.assert_allclose(
        traj.r_series[0], ratio_histogram(counts, caps, par.k_max),
        rtol=0, atol=1e-12)


def test_simulate_is_deterministic_per_seed():
    par = make_params(p=0.8)
    a = simulate(par, horizon=5.0, sample_dt=0.25, seed=42)
    b = simulate(par, horizon=5.0, sample_dt=0.25, seed=42)
    assert np.array_equal(a.y_series, b.y_series)
    assert a.event_count == b.event_count
    c = simulate(par, horizon=5.0, sample_dt=0.25, seed=43)
    assert not np.array_equal(a.y_series, c.y_series)


def test_simulate_conservation_checks_pass():
    par = make_params(n_stations=40, capacity=6, gamma=3.0, p=0.6)
    traj = simulate(par, horizon=10.0, sample_dt=0.5, seed=9,
                    check_conservation=True)
    assert np.abs(traj.y_series.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(traj.r_series.sum(axis=1) - 1.0).max() <= 1e-12
    # docked bikes never exceed the fleet
    docked = traj.y_series @ np.arange(7) * 40
    assert docked.max() <= 120 + 1e-9


def test_simulate_conservation_checks_pass_capacity_mix_p1():
    par = make_params(
        n_stations=40, gamma=3.0, p=1.0,
        capacity={"values": [2, 6], "fractions": [0.5, 0.5]},
    )
    traj = simulate(par, horizon=10.0, sample_dt=0.5, seed=9,
                    check_conservation=True)
    assert traj.event_count > 0
    assert np.abs(traj.r_series.sum(axis=1) - 1.0).max() <= 1e-12


def test_simulate_reports_engine_stats():
    traj = simulate(make_params(), horizon=5.0, sample_dt=1.0, seed=3)
    assert traj.stats == {"events": traj.event_count, "thinning_rejections": 0,
                          "empty_draws": 0, "recomputes": 0}
    # a rate well below its bound most of the period rejects candidates
    par = make_params(arrival={"fourier": {"intercept": 1.0, "sin": [0.9],
                                           "cos": [0.0], "period": 24.0}})
    traj = simulate(par, horizon=24.0, sample_dt=1.0, seed=3)
    assert traj.stats["events"] == traj.event_count > 0
    assert traj.stats["thinning_rejections"] > 0


def test_simulate_custom_initial_state():
    par = make_params(n_stations=4, capacity=3, gamma=1.5)
    init = count_table([3, 3, 0, 0], [3, 3, 3, 3])
    traj = simulate(par, horizon=0.0001, sample_dt=0.0001, seed=2, initial=init)
    np.testing.assert_allclose(traj.y_series[0], [0.5, 0.0, 0.0, 0.5])


def test_simulate_initial_state_mismatch_errors():
    # tables for 3 stations, for 4 docks a station, and docking 11 of 6 bikes
    par = make_params(n_stations=4, capacity=3, gamma=1.5)
    for table in ([0, 3, 0, 0], [0, 4, 0, 0, 0], [0, 0, 1, 3]):
        with pytest.raises(ValidationError):
            simulate(par, 1.0, 0.5, 1, initial=table)


def test_simulate_no_arrivals_only_fills():
    # lam=0 leaves dropoffs only: docked count is non-decreasing and ends at
    # the fleet once every bike finds a dock
    par = make_params(n_stations=10, capacity=4, gamma=2.0, p=0.0,
                      arrival={"constant": 0.0})
    init = count_table(np.zeros(10, dtype=int), np.full(10, 4))
    traj = simulate(par, horizon=50.0, sample_dt=1.0, seed=3, initial=init)
    docked = traj.y_series @ np.arange(5) * 10
    assert np.all(np.diff(docked) >= -1e-9)
    assert docked[-1] == pytest.approx(20.0)


def test_simulate_absorbing_state_quiet():
    # all bikes docked and lam=0: nothing can happen
    par = make_params(n_stations=5, capacity=4, gamma=2.0, p=0.0,
                      arrival={"constant": 0.0})
    traj = simulate(par, horizon=10.0, sample_dt=2.0, seed=4)
    assert traj.event_count == 0
    assert np.array_equal(traj.y_series[0], traj.y_series[-1])


def test_simulate_hetero_reports_ratio_only():
    par = make_params(
        n_stations=20, gamma=2.0,
        capacity={"values": [2, 4], "fractions": [0.5, 0.5]},
    )
    traj = simulate(par, horizon=2.0, sample_dt=0.5, seed=6)
    assert traj.y_series is None
    assert np.abs(traj.r_series.sum(axis=1) - 1.0).max() <= 1e-12


def test_p_zero_paths_identical_for_any_choice():
    # with p=0 the choice weights never touch the sampled randomness
    kwargs = dict(n_stations=30, capacity=5, gamma=2.0, p=0.0)
    specs = [
        {"kind": "none"},
        {"kind": "exponential", "theta": 3.0},
        {"kind": "minimum", "c": 2},
        {"kind": "polynomial", "alpha": 1.7},
    ]
    runs = [
        simulate(make_params(choice=s, **kwargs), horizon=8.0, sample_dt=0.5, seed=11)
        for s in specs
    ]
    for other in runs[1:]:
        assert np.array_equal(runs[0].y_series, other.y_series)
        assert runs[0].event_count == other.event_count


def test_theta_zero_same_law_as_p_zero():
    # exponential theta=0 makes every station equally attractive, so p is
    # statistically irrelevant even though the sampling path differs; compare
    # the docked-count distribution at a fixed time across replications
    base = dict(n_stations=25, capacity=4, gamma=2.0)
    par_a = make_params(p=0.0, choice={"kind": "none"}, **base)
    par_b = make_params(p=1.0, choice={"kind": "exponential", "theta": 0.0}, **base)
    reps = 240
    counts = np.arange(5)

    def docked_samples(par, base_seed):
        out = np.empty(reps)
        for i in range(reps):
            tr = simulate(par, horizon=3.0, sample_dt=3.0, seed=base_seed + i)
            out[i] = tr.y_series[-1] @ counts * 25
        return out

    a = docked_samples(par_a, 50_000)
    b = docked_samples(par_b, 90_000)
    edges = np.quantile(np.concatenate([a, b]), [0.2, 0.4, 0.6, 0.8])
    ha = np.bincount(np.searchsorted(edges, a), minlength=5)
    hb = np.bincount(np.searchsorted(edges, b), minlength=5)
    _, pval, _, _ = chi2_contingency(np.vstack([ha, hb]))
    assert pval > 1e-4


def test_transient_law_matches_matrix_exponential():
    # single station, fleet 2, capacity 3: a birth-death chain with birth
    # rate (2-x) and death rate 1{x>0}; compare P(X_t = .) at t=1 against
    # expm of the generator, 3 sigma per state over 10^4 replications
    par = make_params(n_stations=1, capacity=3, gamma=2.0, p=0.0,
                      choice={"kind": "none"})
    q = np.zeros((4, 4))
    for x in range(4):
        if x < 3:
            q[x, x + 1] = max(2.0 - x, 0.0)
        if x > 0:
            q[x, x - 1] = 1.0
        q[x, x] = -q[x].sum()
    x0 = int(np.flatnonzero(round_robin_state(par))[0])
    want = expm(q * 1.0)[x0]
    res = ensemble(par, replications=10_000, horizon=1.0, sample_dt=1.0, seed=123)
    got = res.mean[-1]
    sigma = np.sqrt(want * (1 - want) / 10_000)
    assert np.all(np.abs(got - want) <= 3.0 * sigma + 1e-12)


def test_thinning_tracks_time_varying_rate():
    # mu tiny kills dropoffs, so pickups equal the drop in docked bikes; the
    # event count over [0, T] must integrate lam(t) * (stations nonempty)
    par = make_params(
        n_stations=300, capacity=4, gamma=2.0, p=0.0, mu=1e-12,
        choice={"kind": "none"},
        arrival={"fourier": {"intercept": 0.5, "sin": [0.3], "cos": [0.2],
                             "period": 8.0}},
    )
    init = count_table(np.full(300, 2), np.full(300, 4))
    traj = simulate(par, horizon=4.0, sample_dt=0.01, seed=21, initial=init)
    counts = np.arange(5)
    docked = traj.y_series @ counts * 300
    measured = docked[0] - docked[-1]
    nonempty = (1.0 - traj.y_series[:, 0]) * 300
    from bss.model import arrival_rate
    lam = arrival_rate(par.arrival, traj.times)
    predicted = np.trapezoid(lam * nonempty, traj.times)
    assert abs(measured - predicted) <= 4.0 * np.sqrt(predicted) + 5.0


# ---------------------------------------------------- stationary averages

def test_stationary_average_matches_equilibrium():
    par = make_params(n_stations=200, capacity=8, gamma=4.0, p=0.0,
                      choice={"kind": "none"})
    avg = stationary_average(par, burn_in=50.0, horizon=500.0, seed=3)
    eq = solve_equilibrium(par)
    tv = 0.5 * np.abs(avg - eq.y_bar).sum()
    assert tv < 0.05
    assert avg.sum() == pytest.approx(1.0, abs=1e-9)


def test_stationary_average_deterministic():
    par = make_params(n_stations=50, capacity=5, gamma=2.0)
    a = stationary_average(par, burn_in=5.0, horizon=50.0, seed=8)
    b = stationary_average(par, burn_in=5.0, horizon=50.0, seed=8)
    assert np.array_equal(a, b)


def test_stationary_average_hetero_ratio():
    par = make_params(
        n_stations=100, gamma=2.0, p=0.0, choice={"kind": "none"},
        capacity={"values": [2, 4], "fractions": [0.5, 0.5]},
    )
    avg = stationary_average(par, burn_in=100.0, horizon=1500.0, seed=13)
    assert avg.shape == (5,)
    assert avg.sum() == pytest.approx(1.0, abs=1e-9)
    tv = 0.5 * np.abs(avg - solve_equilibrium(par).r_bar).sum()
    assert tv < 0.05


@pytest.mark.parametrize("capacity", [5, {"values": [3, 6], "fractions": [0.5, 0.5]}])
def test_stationary_average_split_window_additive(capacity):
    # a seed's path is a prefix of itself whatever the horizon, so integrals
    # over adjacent windows add up; the first triple starts at 0, before the
    # first event, and its first window ends before that event too
    par = make_params(capacity=capacity, gamma=2.0)
    seed = 17

    def integral(b, h):
        return (h - b) * stationary_average(par, b, h, seed)

    for b, h1, h2 in [(0.0, 1e-9, 3.0), (0.0, 2.0, 6.0), (1.5, 4.0, 9.0)]:
        whole = integral(b, h2)
        parts = integral(b, h1) + integral(h1, h2)
        assert np.abs(whole - parts).max() <= 1e-12
    # nothing happens within the first 1e-9 h: the average is the start state
    counts, caps = dealt_counts(par)
    np.testing.assert_allclose(stationary_average(par, 0.0, 1e-9, seed),
                               ratio_histogram(counts, caps, par.k_max), rtol=0, atol=1e-12)


def test_stationary_average_rejects_bad_window():
    par = make_params()
    with pytest.raises(ValidationError):
        stationary_average(par, burn_in=5.0, horizon=5.0, seed=1)


@pytest.mark.parametrize("burn_in,horizon", [
    (5.0, float("nan")),  # never ends: no event time passes a NaN horizon
    (5.0, float("inf")),  # never ends
    (float("nan"), 50.0),  # averaged to all NaN
    (-50.0, 1.0),  # credited the start state over 50 h that never happened
])
def test_stationary_average_rejects_bad_times(burn_in, horizon):
    with pytest.raises(ValidationError, match="0 <= burn_in < horizon"):
        stationary_average(make_params(n_stations=20), burn_in, horizon, seed=1)


@pytest.mark.parametrize("recompute_every", [1_000_000, 7])
@pytest.mark.parametrize("capacity", [5, {"values": [3, 6], "fractions": [0.5, 0.5]}])
def test_stationary_average_reports_engine_stats(capacity, recompute_every,
                                                 monkeypatch):
    # one seed's stream whatever it records: the counters of simulate over
    # the same horizon
    monkeypatch.setattr(bss.simulator, "RECOMPUTE_EVERY", recompute_every)
    par = make_params(capacity=capacity, arrival=FOURIER_RATE)
    stats = {}
    stationary_average(par, 1.0, 6.0, seed=9, stats=stats)
    assert stats == simulate(par, 6.0, 0.5, seed=9).stats
    assert stats["events"] > 0 and stats["thinning_rejections"] > 0
    assert stats["recomputes"] == stats["events"] // recompute_every


def test_stationary_average_quiet_start_is_the_start_measure():
    # all bikes docked and lam=0: the total rate is 0 before the first draw;
    # over a window of 2 h the average is the start measure to the bit
    par = make_params(n_stations=5, capacity=4, gamma=2.0, p=0.0,
                      arrival={"constant": 0.0})
    stats = {}
    avg = stationary_average(par, 1.0, 3.0, seed=4, stats=stats)
    assert np.array_equal(avg, round_robin_state(par) / par.n_stations)
    assert stats == {"events": 0, "thinning_rejections": 0, "empty_draws": 0,
                     "recomputes": 0}


def test_stationary_average_credits_the_absorbed_table_to_the_horizon():
    # REPLAY_CASES' absorbing run: the 100 bikes dock within the first 2 h,
    # then the total rate is 0 and the run ends before any draw passes the
    # horizon; the absorbed table still counts up to the horizon
    overrides, _, _, counts = REPLAY_CASES["absorbing"]
    par = make_params(**overrides)
    init = count_table(counts, np.full(50, 5))
    runs = {}
    for b, h in [(0.0, 2.0), (2.0, 4.0), (0.0, 4.0)]:
        stats = {}
        runs[b, h] = (h - b) * stationary_average(par, b, h, seed=11,
                                                  initial=init, stats=stats)
        assert stats["events"] == 100
    final = simulate(par, 4.0, 2.0, seed=11, initial=init).y_series[-1]
    assert np.array_equal(runs[2.0, 4.0], 2.0 * final)
    assert np.abs(runs[0.0, 4.0] - runs[0.0, 2.0] - runs[2.0, 4.0]).max() <= 1e-12


def test_simulate_fills_grid_instant_past_horizon():
    # 3 * 0.1 rounds to 0.30000000000000004 > 0.3: that last instant gets
    # the final state instead of staying all zero
    traj = simulate(make_params(), horizon=0.3, sample_dt=0.1, seed=3)
    assert traj.times[-1] > 0.3
    assert np.abs(traj.y_series.sum(axis=1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------- lockstep

FOURIER_RATE = {"fourier": {"intercept": 1.0, "sin": [0.6, 0.2],
                            "cos": [0.3, 0.0], "period": 3.0}}
THETA2 = {"kind": "exponential", "theta": 2.0}
GOLDEN_MIX = {"values": [10, 20], "fractions": [0.5, 0.5]}
GOLDEN_MIX3 = {"values": [1, 4, 9], "fractions": [0.4, 0.3, 0.3]}

REPLAY_CASES = {
    # name: (params overrides, horizon, sample_dt, initial counts)
    "p0": ({"p": 0.0}, 2.0, 0.5, None),
    "p0.5": ({}, 0.3, 0.1, None),
    "p1": ({"p": 1.0}, 2.0, 0.5, None),
    "fourier": ({"arrival": FOURIER_RATE}, 2.0, 0.5, None),
    "initial": ({}, 2.0, 0.25, np.repeat([0, 1, 2, 3, 4, 5], [15, 10, 10, 5, 5, 5])),
    # no arrivals: the 100 bikes dock, then the total rate is 0
    "absorbing": ({"mu": 10.0, "arrival": {"constant": 0.0}}, 3.0, 0.25,
                  np.zeros(50, dtype=int)),
    "horizon0": ({}, 0.0, 0.5, None),
    "k1": ({"capacity": 1, "gamma": 0.5}, 2.0, 0.5, None),
    # mostly informed pickups over 20 cells
    "k20_theta2": ({"capacity": 20, "gamma": 10.0, "choice": THETA2}, 1.0, 0.25,
                   None),
    # capacity mixes: pickup and dropoff cells walked class-major; the
    # {1, 4, 9} mix starts with its K=9 class empty
    "mix_p0": ({"capacity": GOLDEN_MIX, "gamma": 7.5, "p": 0.0}, 2.0, 0.5, None),
    "mix_p0.5": ({"capacity": GOLDEN_MIX, "gamma": 7.5}, 2.0, 0.5, None),
    "mix_p1": ({"capacity": GOLDEN_MIX, "gamma": 7.5, "p": 1.0}, 2.0, 0.5, None),
    "mix_fourier": ({"capacity": GOLDEN_MIX, "gamma": 7.5, "arrival": FOURIER_RATE},
                    2.0, 0.5, None),
    "mix3_p0": ({"capacity": GOLDEN_MIX3, "gamma": 0.5, "p": 0.0}, 2.0, 0.5, None),
    "mix3_p0.5": ({"capacity": GOLDEN_MIX3, "gamma": 0.5}, 2.0, 0.5, None),
    "mix3_p1": ({"capacity": GOLDEN_MIX3, "gamma": 0.5, "p": 1.0}, 2.0, 0.5, None),
    "mix3_fourier": ({"capacity": GOLDEN_MIX3, "gamma": 0.5, "arrival": FOURIER_RATE},
                     2.0, 0.5, None),
}


@pytest.mark.parametrize("recompute_every", [1_000_000, 7])
@pytest.mark.parametrize("case", list(REPLAY_CASES))
def test_lockstep_replays_simulate(case, recompute_every, monkeypatch):
    monkeypatch.setattr(bss.simulator, "RECOMPUTE_EVERY", recompute_every)
    overrides, horizon, dt, counts = REPLAY_CASES[case]
    par = make_params(**overrides)
    init = None if counts is None else count_table(counts, np.full(50, 5))
    seeds = [child_seed(13, r) for r in range(8)]
    times = _sample_grid(horizon, dt)
    samples, stats = _lockstep(par, horizon, times, seeds, init)
    caps = par.capacity_values
    want = {"events": 0, "thinning_rejections": 0, "empty_draws": 0,
            "recomputes": 0}
    for r, seed in enumerate(seeds):
        traj = simulate(par, horizon, dt, seed, initial=init)
        tables = samples[r].reshape(len(times), len(caps), -1)
        assert ratio_projection(tables, caps).tobytes() == traj.r_series.tobytes(), r
        if traj.y_series is not None:
            assert np.array_equal(samples[r], traj.y_series), r
        for key in want:
            want[key] += traj.stats[key]
    assert {key: stats[key] for key in want} == want
    assert stats["rounds"] >= want["events"] / len(seeds)
    if case == "absorbing":
        assert want["events"] == 100 * len(seeds)
    if case.endswith("fourier"):
        assert want["thinning_rejections"] > 0
    if recompute_every == 7 and case != "horizon0":
        assert want["recomputes"] > 0


def test_ensemble_matches_stacked_simulate():
    par = make_params(n_stations=40, capacity=4, gamma=2.0)
    reps = 9
    res = ensemble(par, replications=reps, horizon=2.0, sample_dt=0.5, seed=21)
    trajs = [simulate(par, 2.0, 0.5, child_seed(21, r)) for r in range(reps)]
    stack = np.stack([tr.y_series for tr in trajs])
    assert np.abs(res.mean - np.mean(stack, axis=0)).max() <= 1e-15
    for i in range(len(res.times)):
        want = np.cov(stack[:, i, :], rowvar=False)
        assert np.abs(res.cov[i] - want).max() <= 1e-15
    assert res.stats["events"] == sum(tr.event_count for tr in trajs)
    assert res.stats["rounds"] >= max(tr.event_count for tr in trajs)


# ------------------------------------------------------------ golden bytes

GOLDEN_CASES = {
    # name: (params overrides, sha256 of the output arrays, stats of simulate
    # as (events, thinning_rejections, empty_draws), or None for
    # stationary_average)
    "uniform": ({"choice": THETA2},
                "08abd74664c340a2d919d0a460fbb6e50d0ff7f3d86d04f732b0378dad3be6e6",
                (1775, 0, 0)),
    "fourier": ({"arrival": FOURIER_RATE},
                "f4f16c5253a09af848bb306d63cc2bbfff75638e2d9048100df49b75e5779511",
                (1667, 706, 0)),
    "mix": ({"capacity": GOLDEN_MIX, "gamma": 7.5},
            "cd341dfa3c340402fe4768bce28d7303f51b160b69d321868279de8683b2c7b6",
            (2010, 0, 0)),
    "stationary_mix": ({"capacity": GOLDEN_MIX, "gamma": 7.5},
                       "7572cfa09b5a0728f3178b93b04fb46387bbe9149cdefbe1dafac08fafead510",
                       None),
    "stationary_uniform": ({"choice": THETA2},
                           "402e480b83d99c72f4f066c06e905e85410ab1b2c47bef9d028514ed919668b2",
                           None),
    "p0": ({"p": 0.0, "choice": THETA2},
           "4cfd855c322ce2fd0a1433bed149e51e8fca31ee0d8c9465cc84d5ecbbde1d1a",
           (1300, 0, 0)),
    "p1": ({"p": 1.0, "choice": THETA2},
           "f64577f668beed820e75ecd7268e2631c4411341263e1c1850bfa2f6dc4bd25f",
           (1991, 0, 0)),
    "k1": ({"capacity": 1, "gamma": 0.5},
           "f9bb41d6efc412a45e6bb8a70cb93c26fc81c727de897489e115ff3984148684",
           (538, 0, 0)),
    # 25 bikes dealt over 50 stations grouped by class: the K=9 class
    # starts empty
    "mix3": ({"capacity": GOLDEN_MIX3, "gamma": 0.5},
             "5f7a1ac3db527dd8bfc9a924ae1c345beaf7decf700dd175cde599439370f033",
             (570, 0, 0)),
    # p=0 keeps the rates exact, so the recompute cadence cannot move the
    # occupancy integral
    "stationary_mix3": ({"capacity": GOLDEN_MIX3, "gamma": 0.5, "p": 0.0},
                        "b69f229563bef64e2c02defbace96174437238053a419ef606c69f6a6cf6088d",
                        None),
    # the ctmc benchmark's stationary config (N=500, theta=2) on this
    # window: 39,460 events
    "stationary_mix_n500": ({"n_stations": 500, "capacity": GOLDEN_MIX, "gamma": 7.5,
                             "choice": THETA2},
                            "8c5c81cf2937bc74747ca20691650ebf27365316838e4219a400bdbea07df7ad",
                            None),
}


def _sha256(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("recompute_every", [1_000_000, 7])
@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_scalar_engine_golden_bytes(case, recompute_every, monkeypatch):
    # pins the scalar engine's trajectories, occupancy integrals and counters
    # on uniform (p = 0, 0.5, 1; K = 1, 5), Fourier-thinned and mixed
    # configs; the mixes run with the per-event conservation check on
    monkeypatch.setattr(bss.simulator, "RECOMPUTE_EVERY", recompute_every)
    overrides, want, counts = GOLDEN_CASES[case]
    par = make_params(**overrides)
    if counts is None:
        avg = stationary_average(par, 5.0, 40.0, seed=6)
        assert _sha256(avg) == want
        return
    traj = simulate(par, 20.0, 0.5, seed=5, check_conservation=case.startswith("mix"))
    arrays = [traj.times, traj.r_series]
    if traj.y_series is not None:
        arrays.insert(1, traj.y_series)
    assert _sha256(*arrays) == want
    events, rejections, empty = counts
    assert traj.stats == {"events": events, "thinning_rejections": rejections,
                          "empty_draws": empty,
                          "recomputes": events // recompute_every}
    if case == "fourier":
        assert rejections > 0


# the ctmc benchmark's K=3 config
K3 = {"n_stations": 2000, "gamma": 1.5, "capacity": 3,
      "choice": {"kind": "exponential", "theta": 1.0}}

LOCKSTEP_GOLDEN = {
    # name: (params overrides, ensemble's (replications, horizon,
    # sample_dt), initial counts, the forward check's (n, f_spec); then the
    # sha256 of ensemble's times, mean and cov, its stats as (rounds,
    # events, thinning_rejections, empty_draws, recomputes), the sha256 of
    # the forward check's (mean_residual, standard_error, z) and its
    # (rounds, events))
    "ctmc_k3": (K3, (40, 0.5, 0.25), None, (100, "coord@0"),
                "e54c025829ed5189d87a94dca1cae988a44b37c3889dd27aabdf6c560e79f7fe",
                (1216, 45242, 0, 0, 0),
                "9ec13d41654e4c985315eab19ed12d3f4ae4d1d4d7592f2481d8ff412c62b3d5",
                (181, 4615)),
    "k1": ({"capacity": 1, "gamma": 0.5}, (20, 2.0, 0.5), None, (50, "coord@0"),
           "aaa7bf6c915ec8420c848a4c073ec12121e8d03126bb2cf6127742ec83c6c859",
           (75, 1105, 0, 0, 0),
           "064c28f48a8da332bab95568b8f6c6aa9a534d9b35b10d6e35181baf8666882a",
           (44, 1023)),
    "k20_theta2": ({"capacity": 20, "gamma": 10.0, "choice": THETA2},
                   (20, 1.0, 0.25), None, (50, "coord@10"),
                   "761028e7694eb42862a3a89959ad8ccee9ee73e0e4844ed95a854a766456f43a",
                   (89, 1358, 0, 0, 0),
                   "ebb50a10dbaf235ccb88f540e9c48e29bdef0b63ee21d486b12e72ef5cf81315",
                   (108, 2659)),
    "fourier": ({"arrival": FOURIER_RATE}, (20, 2.0, 0.5), None, (50, "coord@0"),
                "09c6b65e8c6cd71da07b180410a99b5e357bf5af6d3fb755d6c8c28585f9a954",
                (263, 3471, 1137, 0, 0),
                "28e21e772e1957f4f56da9c8beac83c039d3e6e43610319ba6d9a99d5f74ed1b",
                (170, 3732)),
    # no arrivals: a replica goes quiet once its 100 bikes dock, which some
    # do before the horizon and some do not; the forward check's start has
    # every bike docked, so all its replicas are quiet from the first round
    "absorbing": ({"mu": 10.0, "arrival": {"constant": 0.0}}, (20, 0.4, 0.1),
                  np.zeros(50, dtype=int), (50, "coord@0"),
                  "971d6112213ef2f1a8d42677f93a672b02c7deb59447253fe65d372270d141b5",
                  (101, 1956, 0, 0, 0),
                  "0ffabd84517018c0f22880c93c1d6f20422c9e45f4c720f20c60b30b16c9af9d",
                  (1, 0)),
}


@pytest.mark.parametrize("case", list(LOCKSTEP_GOLDEN))
def test_lockstep_golden_bytes(case):
    # pins the lockstep engine's outputs: ensemble's mean, covariance and
    # counters, and the forward-equation check's metrics
    (overrides, (reps, horizon, dt), counts, (n, f_spec),
     want_ens, ens_stats, want_fwd, fwd_stats) = LOCKSTEP_GOLDEN[case]
    par = make_params(**overrides)
    init = None if counts is None else count_table(counts, np.full(50, 5))
    res = ensemble(par, reps, horizon, dt, seed=17, initial=init)
    assert _sha256(res.times, res.mean, res.cov) == want_ens
    keys = ("rounds", "events", "thinning_rejections", "empty_draws",
            "recomputes")
    assert res.stats == dict(zip(keys, ens_stats))
    rep = forward_equation_residual(par, n, f_spec, 1.0, 30, 0)
    m = rep.metrics
    assert _sha256(np.array([m["mean_residual"], m["standard_error"],
                             m["z"]])) == want_fwd
    assert (m["rounds"], m["events"]) == fwd_stats


# ---------------------------------------------------------------- ensemble

def test_ensemble_requires_two_replications():
    par = make_params()
    with pytest.raises(ValidationError):
        ensemble(par, replications=1, horizon=1.0, sample_dt=0.5, seed=1)


@pytest.mark.parametrize("replications", [2.5, 3.0, "3", None, True])
def test_ensemble_refuses_non_integer_replications(replications):
    with pytest.raises(ValidationError, match="replications must be an integer >= 2"):
        ensemble(make_params(), replications, horizon=1.0, sample_dt=0.5, seed=1)


def test_ensemble_refuses_grid_beyond_max_samples():
    with pytest.raises(ValidationError, match="horizon / sample_dt gives more"):
        ensemble(make_params(), 2, 1e9, 1e-9, seed=1)


def test_ensemble_forced_identical_seeds_zero_covariance(monkeypatch):
    par = make_params(n_stations=40, capacity=4, gamma=2.0, p=0.7)
    monkeypatch.setattr(bss.simulator, "child_seed", lambda master, index: 42)
    res = ensemble(par, replications=2, horizon=2.0, sample_dt=0.5, seed=5)
    assert np.abs(res.cov).max() == 0.0


def test_ensemble_degenerate_dynamics_zero_covariance():
    # no bikes and no arrivals: nothing moves, covariance is exactly zero
    par = make_params(n_stations=10, capacity=3, gamma=0.0, p=0.0,
                      arrival={"constant": 0.0})
    res = ensemble(par, replications=8, horizon=2.0, sample_dt=1.0, seed=2)
    assert np.abs(res.cov).max() == 0.0
    np.testing.assert_allclose(res.mean[-1], [1.0, 0.0, 0.0, 0.0])


def test_ensemble_covariance_psd_and_mass_null():
    par = make_params(n_stations=60, capacity=4, gamma=2.0, p=0.5)
    res = ensemble(par, replications=600, horizon=2.0, sample_dt=0.5, seed=31)
    ones = np.ones(5)
    for cov in res.cov:
        assert np.linalg.eigvalsh(cov).min() >= -1e-10
        assert np.abs(cov @ ones).max() <= 1e-12
    assert np.abs(res.mean.sum(axis=1) - 1.0).max() <= 1e-9


def test_ensemble_mean_matches_single_run_law():
    # the lockstep engine and the event-by-event engine are independent
    # implementations; their means must agree within Monte Carlo error
    par = make_params(n_stations=100, capacity=3, gamma=1.5, p=0.5)
    reps = 250
    ys = np.empty((reps, 4))
    for i in range(reps):
        ys[i] = simulate(par, horizon=2.0, sample_dt=2.0, seed=10_000 + i).y_series[-1]
    m_single = ys.mean(axis=0)
    se_single = ys.std(axis=0, ddof=1) / np.sqrt(reps)
    res = ensemble(par, replications=2000, horizon=2.0, sample_dt=1.0, seed=77)
    m_lock = res.mean[-1]
    se_lock = np.sqrt(np.diag(res.cov[-1]) / 2000)
    z = (m_single - m_lock) / np.hypot(se_single, se_lock)
    assert np.abs(z).max() < 4.0


# ------------------------------------------------------------- properties

@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(5, 25),
    k=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.0, 1.0),
)
def test_simulated_measures_stay_normalized(n, k, seed, p):
    fleet = n * k // 2
    par = make_params(n_stations=n, capacity=k, fleet=fleet, gamma=fleet / n,
                      p=p)
    traj = simulate(par, horizon=3.0, sample_dt=0.5, seed=seed,
                    check_conservation=True)
    assert np.abs(traj.y_series.sum(axis=1) - 1.0).max() <= 1e-12
    assert traj.y_series.min() >= 0.0
    docked = traj.y_series @ np.arange(k + 1) * n
    assert docked.max() <= fleet + 1e-9
