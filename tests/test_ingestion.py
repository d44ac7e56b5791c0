import numpy as np
import pytest

from bss.model import ArrivalModel, ValidationError, arrival_rate
from bss.ingestion import (
    GbfsSnapshot,
    RateSeries,
    fit_fourier,
    load_rate_series,
    parse_gbfs,
    snapshot_histograms,
)


def status_doc(stations, ts=1700000000):
    return {"last_updated": ts, "data": {"stations": stations}}


def info_doc(stations):
    return {"data": {"stations": stations}}


# ------------------------------------------------------------------ gbfs

def test_parse_gbfs_joins_on_station_id():
    snap = parse_gbfs(
        status_doc([{"station_id": "s1", "num_bikes_available": 3}]),
        info_doc([{"station_id": "s1", "capacity": 10}]),
    )
    assert snap.station_ids == ("s1",)
    assert snap.bikes.tolist() == [3]
    assert snap.capacities.tolist() == [10]
    assert snap.dropped == 0
    assert snap.clamped == 0


def test_parse_gbfs_drops_unmatched_stations():
    snap = parse_gbfs(
        status_doc([
            {"station_id": "s1", "num_bikes_available": 3},
            {"station_id": "s2", "num_bikes_available": 1},
        ]),
        info_doc([{"station_id": "s1", "capacity": 10}]),
    )
    assert len(snap) == 1
    assert snap.dropped == 1


def test_parse_gbfs_counts_info_only_stations_as_dropped():
    snap = parse_gbfs(
        status_doc([{"station_id": "s1", "num_bikes_available": 0}]),
        info_doc([
            {"station_id": "s1", "capacity": 4},
            {"station_id": "ghost", "capacity": 9},
        ]),
    )
    assert snap.dropped == 1


def test_parse_gbfs_clamps_overfilled_racks():
    snap = parse_gbfs(
        status_doc([{"station_id": "s1", "num_bikes_available": 12}]),
        info_doc([{"station_id": "s1", "capacity": 10}]),
    )
    assert snap.bikes.tolist() == [10]
    assert snap.clamped == 1


@pytest.mark.parametrize("reported", [None, float("inf"), "soon"])
def test_parse_gbfs_ignores_last_reported(reported):
    # the join reads counts and capacities only; a null, overflowing (JSON
    # 1e400) or non-numeric timestamp is no reason to refuse the record
    snap = parse_gbfs(
        status_doc([{"station_id": "s1", "num_bikes_available": 1,
                     "last_reported": reported}]),
        info_doc([{"station_id": "s1", "capacity": 2}]),
    )
    assert snap.bikes.tolist() == [1]
    assert snap.capacities.tolist() == [2]


def test_parse_gbfs_malformed_documents_name_the_path():
    with pytest.raises(ValidationError, match="status.data.stations"):
        parse_gbfs({"data": {"stations": 3}}, info_doc([]))
    with pytest.raises(ValidationError, match=r"information.data.stations\[0\].capacity"):
        parse_gbfs(
            status_doc([{"station_id": "s1", "num_bikes_available": 1}]),
            info_doc([{"station_id": "s1", "capacity": "ten"}]),
        )
    with pytest.raises(ValidationError, match="num_bikes_available"):
        parse_gbfs(
            status_doc([{"station_id": "s1", "num_bikes_available": -2}]),
            info_doc([{"station_id": "s1", "capacity": 4}]),
        )
    # a capacity past int64 would overflow the capacities array
    with pytest.raises(ValidationError, match=r"information.data.stations\[0\].capacity"):
        parse_gbfs(
            status_doc([{"station_id": "s1", "num_bikes_available": 1}]),
            info_doc([{"station_id": "s1", "capacity": 10**20}]),
        )


def test_parse_gbfs_empty_join_errors():
    with pytest.raises(ValidationError, match="join"):
        parse_gbfs(
            status_doc([{"station_id": "a", "num_bikes_available": 1}]),
            info_doc([{"station_id": "b", "capacity": 4}]),
        )


def test_parse_gbfs_zero_capacity_dropped():
    snap = parse_gbfs(
        status_doc([
            {"station_id": "s1", "num_bikes_available": 0},
            {"station_id": "s2", "num_bikes_available": 1},
        ]),
        info_doc([
            {"station_id": "s1", "capacity": 0},
            {"station_id": "s2", "capacity": 3},
        ]),
    )
    assert snap.station_ids == ("s2",)
    assert snap.dropped == 1


# ------------------------------------------------------------- histograms

def make_snapshot(bikes, caps):
    n = len(bikes)
    return GbfsSnapshot(
        station_ids=tuple(f"s{i}" for i in range(n)),
        bikes=np.array(bikes),
        capacities=np.array(caps),
    )


def test_snapshot_histograms_count_vs_ratio():
    # stations (3 of 5) and (3 of 60): same count bin, very different ratios
    snap = make_snapshot([3, 3], [5, 60])
    count_hist, ratio_hist = snapshot_histograms(snap, 60)
    assert count_hist[3] == pytest.approx(1.0)
    assert count_hist.sum() == pytest.approx(1.0)
    assert ratio_hist[36] == pytest.approx(0.5)
    assert ratio_hist[3] == pytest.approx(0.5)
    assert ratio_hist.sum() == pytest.approx(1.0)


def test_snapshot_histograms_all_full():
    snap = make_snapshot([5, 60, 12], [5, 60, 12])
    _, ratio_hist = snapshot_histograms(snap, 60)
    assert ratio_hist[60] == pytest.approx(1.0)


def test_snapshot_histograms_single_station():
    snap = make_snapshot([2], [4])
    count_hist, ratio_hist = snapshot_histograms(snap, 8)
    assert count_hist[2] == 1.0
    assert ratio_hist[4] == 1.0


def test_snapshot_histograms_permutation_invariant():
    rng = np.random.default_rng(0)
    caps = rng.integers(1, 30, size=40)
    bikes = rng.integers(0, caps + 1)
    a = snapshot_histograms(make_snapshot(bikes, caps), 30)
    perm = rng.permutation(40)
    b = snapshot_histograms(make_snapshot(bikes[perm], caps[perm]), 30)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_snapshot_histograms_checks_k_max():
    snap = make_snapshot([1], [10])
    with pytest.raises(ValidationError):
        snapshot_histograms(snap, 5)
    # refused before the count histogram, which would be 10**11 + 1 bins
    snap = make_snapshot([1, 2], [4, 10**11])
    with pytest.raises(ValidationError, match=f"capacity {10**11} exceeds k_max 20"):
        snapshot_histograms(snap, 20)


# ------------------------------------------------------------ rate series

def test_rate_series_validation():
    with pytest.raises(ValidationError):
        RateSeries(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        RateSeries(np.array([0.0, 1.0]), np.array([1.0, -2.0]))
    with pytest.raises(ValidationError):
        RateSeries(np.array([]), np.array([]))


def test_load_rate_series_csv(tmp_path):
    f = tmp_path / "rates.csv"
    f.write_text("t_hours,rate\n0.0,1.5\n0.5,2.5\n")
    series = load_rate_series(f)
    np.testing.assert_allclose(series.times, [0.0, 0.5])
    np.testing.assert_allclose(series.rates, [1.5, 2.5])
    bad = tmp_path / "bad.csv"
    bad.write_text("time,rate\n0,1\n")
    with pytest.raises(ValidationError, match="header"):
        load_rate_series(bad)


# ---------------------------------------------------------------- fitting

def test_fit_fourier_exact_recovery():
    t = np.arange(288) * (24.0 / 288.0)
    rates = 5.0 + 2.0 * np.sin(2 * np.pi * t / 24.0)
    model, r2 = fit_fourier(RateSeries(t, rates), order=3, period=24.0)
    assert model.intercept == pytest.approx(5.0, abs=1e-9)
    assert model.sin_coeffs[0] == pytest.approx(2.0, abs=1e-9)
    others = list(model.sin_coeffs[1:]) + list(model.cos_coeffs)
    assert max(abs(c) for c in others) < 1e-9
    assert r2 > 1.0 - 1e-12


def test_fit_fourier_reproduces_training_samples():
    t = np.arange(96) * 0.25
    rates = 3.0 + 1.2 * np.sin(2 * np.pi * t / 24.0) - 0.7 * np.cos(4 * np.pi * t / 24.0)
    model, r2 = fit_fourier(RateSeries(t, rates), order=2, period=24.0)
    arr = ArrivalModel(fourier=model)
    np.testing.assert_allclose(arrival_rate(arr, t), rates, atol=1e-9)


def test_fit_fourier_constant_series():
    t = np.linspace(0.0, 23.0, 24)
    model, r2 = fit_fourier(RateSeries(t, np.full(24, 7.0)), order=2)
    assert model.intercept == pytest.approx(7.0, abs=1e-10)
    assert max(abs(c) for c in model.sin_coeffs + model.cos_coeffs) < 1e-10
    assert r2 == 1.0


def test_fit_fourier_r2_monotone_in_order():
    rng = np.random.default_rng(8)
    t = np.arange(288) * (24.0 / 288.0)
    rates = np.clip(
        4.0 + np.sin(2 * np.pi * t / 24.0) + 0.5 * rng.normal(size=t.size), 0.0, None
    )
    series = RateSeries(t, rates)
    r2s = [fit_fourier(series, order=n)[1] for n in range(6)]
    assert all(b >= a - 1e-12 for a, b in zip(r2s, r2s[1:]))
    assert all(r2 <= 1.0 for r2 in r2s)


def test_fit_fourier_needs_enough_samples():
    series = RateSeries(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0]))
    with pytest.raises(ValidationError, match="samples"):
        fit_fourier(series, order=2)


def test_fit_fourier_rank_deficient_aliasing():
    # sampling only at half-period multiples zeroes every sine column
    t = np.array([0.0, 12.0, 24.0, 36.0])
    series = RateSeries(t, np.array([1.0, 2.0, 1.0, 2.0]))
    with pytest.raises(ValidationError, match="alias|rank"):
        fit_fourier(series, order=1, period=24.0)
