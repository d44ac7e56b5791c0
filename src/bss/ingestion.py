"""Real-world data adapters: GBFS snapshots and arrival-rate fitting.

GBFS station feeds arrive as two documents, station_status (current bike
counts) and station_information (dock capacities); the join is what the
histogram observables need. Arrival-rate series are fit by ordinary least
squares on a truncated Fourier basis with a fixed period.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .meanfield import ratio_histogram
from .model import FourierRateModel, ValidationError, _check_period

__all__ = [
    "GbfsSnapshot",
    "RateSeries",
    "parse_gbfs",
    "snapshot_histograms",
    "fit_fourier",
    "load_rate_series",
]


@dataclass(frozen=True)
class GbfsSnapshot:
    """Joined station records plus counters for what the join discarded."""

    station_ids: tuple[str, ...]
    bikes: np.ndarray
    capacities: np.ndarray
    dropped: int = 0
    clamped: int = 0

    def __len__(self) -> int:
        return len(self.station_ids)


@dataclass(frozen=True)
class RateSeries:
    """Sampled arrival-rate observations, times in hours."""

    times: np.ndarray
    rates: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "rates", np.asarray(self.rates, dtype=float))
        if self.times.ndim != 1 or self.times.shape != self.rates.shape:
            raise ValidationError("rate series needs matching 1-d times and rates")
        if self.times.size == 0:
            raise ValidationError("rate series is empty")
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("rate series times must be strictly increasing")
        if not np.all(np.isfinite(self.times)) or not np.all(np.isfinite(self.rates)):
            raise ValidationError("rate series must be finite")
        if np.any(self.rates < 0):
            raise ValidationError("rate series counts must be non-negative")


def _stations_list(doc, which: str):
    if not isinstance(doc, dict):
        raise ValidationError(f"{which} document must be a mapping")
    data = doc.get("data")
    if not isinstance(data, dict):
        raise ValidationError(f"{which}.data must be a mapping")
    stations = data.get("stations")
    if not isinstance(stations, list):
        raise ValidationError(f"{which}.data.stations must be a list")
    return stations


def _field(entry, name: str, path: str):
    if not isinstance(entry, dict) or name not in entry:
        raise ValidationError(f"{path}.{name} is missing")
    return entry[name]


def parse_gbfs(status_doc, info_doc) -> GbfsSnapshot:
    """Join station_status and station_information into one snapshot.

    Stations present in only one document are dropped (counted). Overfilled
    racks (bikes above capacity) are clamped to capacity (counted) so the
    fill ratio stays in [0, 1]. Stations reporting capacity < 1 are dropped:
    they carry no dock information.
    """
    caps = {}
    for i, entry in enumerate(_stations_list(info_doc, "information")):
        path = f"information.data.stations[{i}]"
        sid = _field(entry, "station_id", path)
        cap = _field(entry, "capacity", path)
        # the capacities array is int64
        if not isinstance(cap, int) or isinstance(cap, bool) or cap >= 2**63:
            raise ValidationError(f"{path}.capacity must be an integer below 2**63")
        caps[str(sid)] = cap

    ids, bikes, kk = [], [], []
    dropped = 0
    clamped = 0
    for i, entry in enumerate(_stations_list(status_doc, "status")):
        path = f"status.data.stations[{i}]"
        sid = str(_field(entry, "station_id", path))
        n = _field(entry, "num_bikes_available", path)
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValidationError(f"{path}.num_bikes_available must be an integer >= 0")
        if sid not in caps:
            dropped += 1
            continue
        cap = caps.pop(sid)
        if cap < 1:
            dropped += 1
            continue
        if n > cap:
            n = cap
            clamped += 1
        ids.append(sid)
        bikes.append(n)
        kk.append(cap)
    dropped += len(caps)  # info-side stations with no status record
    if not ids:
        raise ValidationError("no stations survived the status/information join")
    return GbfsSnapshot(
        station_ids=tuple(ids),
        bikes=np.array(bikes, dtype=np.int64),
        capacities=np.array(kk, dtype=np.int64),
        dropped=dropped,
        clamped=clamped,
    )


def snapshot_histograms(snapshot: GbfsSnapshot, k_max: int):
    """Count histogram over 0..max capacity and the fill-ratio histogram
    (meanfield.ratio_histogram), which resolves capacity differences; no
    capacity may exceed k_max."""
    if len(snapshot) == 0:
        raise ValidationError("empty snapshot")
    top = int(snapshot.capacities.max())
    # before the count histogram, which is top + 1 entries long
    if top > k_max:
        raise ValidationError(f"capacity {top} exceeds k_max {k_max}")
    count_hist = np.bincount(snapshot.bikes, minlength=top + 1) / len(snapshot)
    return count_hist, ratio_histogram(snapshot.bikes, snapshot.capacities, k_max)


def fit_fourier(series: RateSeries, order: int, period: float = 24.0):
    """Least-squares Fourier fit of a rate series; returns (model, R^2).

    Basis: 1, sin(2 pi j t / period), cos(2 pi j t / period) for j = 1..order,
    solved through the normal equations (dimension 2*order+1 keeps them well
    conditioned). R^2 is 1 - SS_res/SS_tot, defined as 1 for a constant
    series fitted exactly.
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    _check_period(period, "period")
    m = series.times.size
    dim = 2 * order + 1
    if m < dim:
        raise ValidationError(
            f"need at least {dim} samples for order {order}, got {m}"
        )
    w = 2.0 * math.pi / period
    js = np.arange(1, order + 1)
    phases = np.outer(series.times, js) * w
    design = np.concatenate(
        [np.ones((m, 1)), np.sin(phases), np.cos(phases)], axis=1
    )
    gram = design.T @ design
    if np.linalg.matrix_rank(gram) < dim:
        raise ValidationError(
            "rank-deficient Fourier design; samples alias the requested order"
        )
    beta = np.linalg.solve(gram, design.T @ series.rates)
    resid = series.rates - design @ beta
    ss_res = float(resid @ resid)
    centered = series.rates - series.rates.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    model = FourierRateModel(
        intercept=float(beta[0]),
        sin_coeffs=tuple(beta[1 : order + 1]),
        cos_coeffs=tuple(beta[order + 1 :]),
        period=period,
    )
    return model, r2


def load_rate_series(path) -> RateSeries:
    """Read a rate series CSV with header t_hours,rate."""
    times, rates = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["t_hours", "rate"]:
            raise ValidationError(
                f"{path}: expected CSV header 't_hours,rate', got {header!r}"
            )
        for i, row in enumerate(reader):
            if not row:
                continue
            if len(row) < 2:
                raise ValidationError(f"{path}: row {i + 2} needs two columns")
            try:
                times.append(float(row[0]))
                rates.append(float(row[1]))
            except ValueError:
                raise ValidationError(
                    f"{path}: row {i + 2} is not numeric: {row!r}"
                ) from None
    return RateSeries(np.array(times), np.array(rates))
