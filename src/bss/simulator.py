"""Event-level CTMC simulation of finite-capacity bike-sharing networks.

Dynamics per station i: pickups at rate ((1-p)*lam + p*lam*N*g(X_i)/sum_j
g(X_j)) while X_i > 0, dropoffs at rate mu*(M - sum_j X_j)/N while X_i < K_i.
Stations with the same capacity and count are exchangeable, so the engine
evolves the occupancy table W[class, n] = number of stations of that class
holding n bikes; every observable here is a function of W and the table's
transition rates depend on the state only through W, so trajectories have
exactly the per-station law projected onto W.

Replication seeding: child seed r = splitmix64(master + (r+1)*GOLDEN), the
standard 64-bit mixing finalizer, so runs reproduce across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import SystemParams, ValidationError, arrival_rate, choice_weights
from .meanfield import TINY_DENOM, HeterogeneousMeasure, _sample_grid, ratio_bins

__all__ = [
    "NetworkState",
    "TrajectorySample",
    "EnsembleResult",
    "child_seed",
    "pickup_rate",
    "dropoff_rate",
    "empirical_measure",
    "hetero_measure",
    "ratio_histogram",
    "simulate",
    "stationary_average",
    "ensemble",
]

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# full aggregate recompute cadence, caps float drift in the running sums
RECOMPUTE_EVERY = 1_000_000
BLOCK = 4096


def _splitmix64(x: int) -> int:
    x &= _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return x ^ (x >> 31)


def child_seed(master: int, index: int) -> int:
    """Replication seed: splitmix64 of the master advanced by the index."""
    return _splitmix64((int(master) + (index + 1) * GOLDEN) & _MASK)


@dataclass
class NetworkState:
    """Per-station bike counts with capacities and the shared fleet size."""

    counts: np.ndarray
    capacities: np.ndarray
    fleet: int
    clock: float = 0.0

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.capacities = np.asarray(self.capacities, dtype=np.int64)
        if self.counts.shape != self.capacities.shape or self.counts.ndim != 1:
            raise ValidationError("counts and capacities must be equal-length vectors")
        if np.any(self.counts < 0) or np.any(self.counts > self.capacities):
            raise ValidationError("station counts must satisfy 0 <= X_i <= K_i")
        if int(self.counts.sum()) > self.fleet:
            raise ValidationError("docked bikes exceed the fleet size")

    @property
    def n_stations(self) -> int:
        return int(self.counts.size)

    @property
    def in_circulation(self) -> int:
        return int(self.fleet - self.counts.sum())


@dataclass(frozen=True)
class TrajectorySample:
    """Sampled observables on a regular grid; y_series is None for capacity
    mixes (the empirical measure is then ill-typed, use r_series)."""

    times: np.ndarray
    y_series: np.ndarray | None
    r_series: np.ndarray
    event_count: int
    # engine counters: events, thinning_rejections, empty_draws, recomputes
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EnsembleResult:
    """Cross-replication sample mean and unbiased covariance of Y^N."""

    times: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    replications: int


def round_robin_state(params: SystemParams) -> NetworkState:
    """Deterministic start: deal bikes one per station until the fleet is out."""
    caps = params.station_capacities()
    m = params.fleet
    if m > int(caps.sum()):
        raise ValidationError("fleet exceeds total dock capacity")
    counts = np.zeros_like(caps)
    # full passes first: after r passes station i holds min(K_i, r)
    lo, hi = 0, int(caps.max())
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if int(np.minimum(caps, mid).sum()) <= m:
            lo = mid
        else:
            hi = mid - 1
    counts = np.minimum(caps, lo)
    left = m - int(counts.sum())
    if left > 0:
        takers = np.flatnonzero(caps > lo)[:left]
        counts[takers] += 1
    return NetworkState(counts, caps, m)


def pickup_rate(state: NetworkState, i: int, params: SystemParams, t: float = 0.0) -> float:
    """Per-station pickup rate at time t; zero at an empty station."""
    x = int(state.counts[i])
    if x <= 0:
        return 0.0
    lam = arrival_rate(params.arrival, t)
    g = choice_weights(params.choice, int(state.capacities.max()))
    rate = (1.0 - params.p) * lam
    if params.p > 0.0:
        total = float(g[state.counts].sum())
        if total > TINY_DENOM:
            rate += params.p * lam * state.n_stations * float(g[x]) / total
    return rate


def dropoff_rate(state: NetworkState, i: int, params: SystemParams) -> float:
    """Per-station dropoff rate; zero at a full station."""
    if int(state.counts[i]) >= int(state.capacities[i]):
        return 0.0
    return params.mu * (state.fleet - int(state.counts.sum())) / state.n_stations


def empirical_measure(state: NetworkState) -> np.ndarray:
    """Fraction of stations at each count 0..K; uniform capacities only."""
    caps = np.unique(state.capacities)
    if caps.size != 1:
        raise ValidationError(
            "empirical_measure needs a uniform capacity; use hetero_measure"
        )
    k = int(caps[0])
    return np.bincount(state.counts, minlength=k + 1) / state.n_stations


def hetero_measure(state: NetworkState) -> HeterogeneousMeasure:
    """Joint (capacity class, count) occupancy fractions."""
    caps = tuple(int(k) for k in np.unique(state.capacities))
    k_max = caps[-1]
    table = np.zeros((len(caps), k_max + 1))
    for c, k in enumerate(caps):
        sel = state.counts[state.capacities == k]
        table[c, : k + 1] = np.bincount(sel, minlength=k + 1) / state.n_stations
    return HeterogeneousMeasure(caps, table)


def ratio_histogram(state: NetworkState, k_max: int) -> np.ndarray:
    """Fill-ratio histogram: station (n, k) lands in bin floor(n*k_max/k)."""
    if int(state.capacities.max()) > k_max:
        raise ValidationError(f"capacity above k_max {k_max}")
    r = np.zeros(k_max + 1)
    bins = (state.counts * k_max) // state.capacities
    np.add.at(r, bins, 1.0 / state.n_stations)
    return r


class _Lumped:
    """Occupancy-table state with incrementally maintained rate aggregates.

    The rows of w are lists of Python ints and g a list of Python floats: the
    event loop reads single cells, which is much cheaper on plain scalars than
    on numpy ones, and float64 arithmetic gives the same bits on either.
    """

    def __init__(self, params: SystemParams, state: NetworkState):
        caps = tuple(int(k) for k in np.unique(state.capacities))
        self.caps = caps
        self.k_max = caps[-1]
        self.n = state.n_stations
        self.fleet = state.fleet
        self.g = choice_weights(params.choice, self.k_max).tolist()
        self.w = [
            np.bincount(state.counts[state.capacities == k],
                        minlength=self.k_max + 1).tolist()
            for k in caps
        ]
        self.recompute()

    def recompute(self) -> None:
        g = np.asarray(self.g)
        ws = [np.asarray(w, dtype=np.int64) for w in self.w]
        self.docked = int(sum(int((w * np.arange(self.k_max + 1)).sum()) for w in ws))
        self.big_g = float(sum(float(w @ g) for w in ws))
        self.g_pos = float(sum(float(w[1:] @ g[1:]) for w in ws))
        self.nonempty = int(sum(int(w[1:].sum()) for w in ws))
        self.open = int(sum(int(w[:k].sum()) for w, k in zip(ws, self.caps)))

    def check(self) -> None:
        docked = sum(m * v for w in self.w for m, v in enumerate(w))
        if docked != self.docked:
            raise AssertionError("docked-bike counter drifted from the table")
        if not (0 <= self.fleet - docked <= self.fleet):
            raise AssertionError("bikes in circulation out of range")
        for w, k in zip(self.w, self.caps):
            if min(w) < 0 or any(w[k + 1 :]):
                raise AssertionError("occupancy table escaped its support")

    def apply_pickup(self, c: int, n: int) -> None:
        g, w = self.g, self.w[c]
        w[n] -= 1
        w[n - 1] += 1
        self.docked -= 1
        self.big_g += g[n - 1] - g[n]
        if n == 1:
            self.nonempty -= 1
            self.g_pos -= g[1]
        else:
            self.g_pos += g[n - 1] - g[n]
        if n == self.caps[c]:
            self.open += 1

    def apply_dropoff(self, c: int, n: int) -> None:
        g, w = self.g, self.w[c]
        w[n] -= 1
        w[n + 1] += 1
        self.docked += 1
        self.big_g += g[n + 1] - g[n]
        if n == 0:
            self.nonempty += 1
            self.g_pos += g[1]
        else:
            self.g_pos += g[n + 1] - g[n]
        if n + 1 == self.caps[c]:
            self.open -= 1

    def y_vector(self) -> np.ndarray:
        return np.asarray(self.w[0]) / self.n

    def r_vector(self, bin_maps) -> np.ndarray:
        return _project(self.w, self.caps, bin_maps, self.n)


def _project(rows, caps, bin_maps, scale) -> np.ndarray:
    """Ratio histogram of per-class rows over counts, each divided by scale."""
    r = np.zeros(len(rows[0]))
    for row, k, bins in zip(rows, caps, bin_maps):
        np.add.at(r, bins, np.asarray(row[: k + 1]) / scale)
    return r


def _prepare_initial(params: SystemParams, initial: NetworkState | None) -> NetworkState:
    if initial is None:
        return round_robin_state(params)
    want = params.station_capacities()
    have = np.sort(np.asarray(initial.capacities))
    if initial.n_stations != params.n_stations or not np.array_equal(np.sort(want), have):
        raise ValidationError("initial state capacities do not match params")
    if initial.fleet != params.fleet:
        raise ValidationError("initial state fleet does not match params")
    return initial


def _run_engine(
    params: SystemParams,
    horizon: float,
    seed: int,
    initial: NetworkState | None,
    on_grid=None,
    times: np.ndarray | None = None,
    occupancy_from: float | None = None,
    check_conservation: bool = False,
):
    """Shared event loop; returns (stats, occ).

    on_grid(idx, lumped) fires at grid instants with the pre-event state.
    With occupancy_from=b, occ[c][m] is the integral over [b, horizon] of the
    number of class-c stations holding m bikes (occ is None otherwise). An
    event changes two cells, so only those are credited before it, each from
    its own timestamp up to max(event time, b); every cell is credited once
    more up to the horizon at the end.
    """
    state = _prepare_initial(params, initial)
    lump = _Lumped(params, state)
    rng = np.random.default_rng(seed)
    p, mu = params.p, params.mu
    n, fleet = lump.n, lump.fleet
    g, rows = lump.g, lump.w
    if params.arrival.is_constant:
        lam_bound = float(params.arrival.rate)
        thinning = False
    else:
        lam_bound = params.arrival.max_rate()
        thinning = True

    # both scans walk the cells class-major; a pickup needs m >= 1 and a
    # dropoff m < K_c
    pick_cells = [(c, m, rows[c]) for c, k in enumerate(lump.caps) for m in range(1, k + 1)]
    drop_cells = [(c, m, rows[c]) for c, k in enumerate(lump.caps) for m in range(k)]
    occ = stamp = None
    if occupancy_from is not None:
        lo = occupancy_from
        occ = [[0.0] * len(row) for row in rows]
        stamp = [[lo] * len(row) for row in rows]

    def credit(c, m, until):
        occ[c][m] += rows[c][m] * (until - stamp[c][m])
        stamp[c][m] = until

    grid = [] if times is None else times.tolist()
    n_grid = len(grid)
    grid_idx = 0
    t = 0.0
    events = rejections = empty_draws = recomputes = 0
    exp_block = rng.standard_exponential(BLOCK)
    uni_block = rng.random((BLOCK, 2))
    cursor = 0

    while True:
        # rates from the aggregates
        pick_bound = lam_bound * ((1.0 - p) * lump.nonempty)
        if p > 0.0 and lump.big_g > TINY_DENOM:
            pick_bound += lam_bound * p * n * (lump.g_pos / lump.big_g)
        drop_tot = mu * (fleet - lump.docked) / n * lump.open
        total = pick_bound + drop_tot

        if total <= 0.0:
            break

        if cursor == BLOCK:
            exp_block = rng.standard_exponential(BLOCK)
            uni_block = rng.random((BLOCK, 2))
            cursor = 0
        dt = exp_block.item(cursor) / total
        u1 = uni_block.item(cursor, 0)
        u2 = uni_block.item(cursor, 1)
        cursor += 1
        t_new = t + dt

        while grid_idx < n_grid and grid[grid_idx] <= min(t_new, horizon):
            on_grid(grid_idx, lump)
            grid_idx += 1
        if t_new >= horizon:
            break
        t = t_new

        x = u1 * total
        c_hit = n_hit = -1
        if x < pick_bound:
            if thinning:
                # x/pick_bound is uniform given the branch; accept at lam(t)/bound
                if (x / pick_bound) * lam_bound >= arrival_rate(params.arrival, t):
                    rejections += 1
                    continue
            w_un = (1.0 - p) * lump.nonempty
            w_in = 0.0
            if p > 0.0 and lump.big_g > TINY_DENOM:
                w_in = p * n * (lump.g_pos / lump.big_g)
            y = u2 * (w_un + w_in)
            acc = 0.0
            if y < w_un or w_in == 0.0:
                target = (y / (1.0 - p)) if p < 1.0 else 0.0
                for c, m, row in pick_cells:
                    wv = row[m]
                    if wv:
                        acc += wv
                        c_hit, n_hit = c, m
                        if acc > target:
                            break
            else:
                target = (y - w_un) / w_in * lump.g_pos
                for c, m, row in pick_cells:
                    wv = row[m]
                    if wv:
                        acc += wv * g[m]
                        c_hit, n_hit = c, m
                        if acc > target:
                            break
            step = -1
        else:
            target = (x - pick_bound) / drop_tot * lump.open
            acc = 0.0
            for c, m, row in drop_cells:
                wv = row[m]
                if wv:
                    acc += wv
                    c_hit, n_hit = c, m
                    if acc > target:
                        break
            step = 1
        if n_hit < 0:
            empty_draws += 1
            continue
        if occ is not None:
            until = t if t > lo else lo
            credit(c_hit, n_hit, until)
            credit(c_hit, n_hit + step, until)
        if step < 0:
            lump.apply_pickup(c_hit, n_hit)
        else:
            lump.apply_dropoff(c_hit, n_hit)
        events += 1
        if check_conservation:
            lump.check()
        if events % RECOMPUTE_EVERY == 0:
            lump.recompute()
            recomputes += 1

    # grid instants not reached by any event (absorbing or quiet tail)
    while grid_idx < n_grid and grid[grid_idx] <= horizon:
        on_grid(grid_idx, lump)
        grid_idx += 1
    if occ is not None:
        for c, row in enumerate(rows):
            for m in range(len(row)):
                credit(c, m, horizon)
    stats = {
        "events": events,
        "thinning_rejections": rejections,
        "empty_draws": empty_draws,
        "recomputes": recomputes,
    }
    return stats, occ


def simulate(
    params: SystemParams,
    horizon: float,
    sample_dt: float,
    seed: int,
    initial: NetworkState | None = None,
    check_conservation: bool = False,
) -> TrajectorySample:
    """One exact trajectory, sampled on a regular grid.

    Returns the empirical-measure series (uniform capacities), the ratio
    histogram series, and the number of state-changing events. Time-varying
    arrival rates are simulated by thinning against the horizon-wide bound.
    """
    times = _sample_grid(horizon, sample_dt)
    uniform = params.is_uniform
    k_max = params.k_max
    caps = params.capacity_values
    bin_maps = [ratio_bins(k, k_max) for k in caps]
    y_series = np.zeros((len(times), k_max + 1)) if uniform else None
    r_series = np.zeros((len(times), k_max + 1))

    def on_grid(idx, lump):
        if uniform:
            y_series[idx] = lump.y_vector()
        r_series[idx] = lump.r_vector(bin_maps)

    stats, _ = _run_engine(
        params, horizon, seed, initial,
        on_grid=on_grid, times=times,
        check_conservation=check_conservation,
    )
    return TrajectorySample(times, y_series, r_series, stats["events"], stats)


def stationary_average(
    params: SystemParams,
    burn_in: float,
    horizon: float,
    seed: int,
    initial: NetworkState | None = None,
) -> np.ndarray:
    """Time-weighted average of the natural observable over [burn_in, horizon].

    Uniform networks average the empirical measure, capacity mixes the ratio
    histogram. Weighting is event-exact, not grid-sampled.
    """
    if horizon <= burn_in:
        raise ValidationError("horizon must exceed burn_in")
    caps = params.capacity_values
    # for a uniform capacity the ratio bins are the identity
    bin_maps = [ratio_bins(k, params.k_max) for k in caps]
    _, occ = _run_engine(params, horizon, seed, initial, occupancy_from=burn_in)
    return _project(occ, caps, bin_maps, params.n_stations) / (horizon - burn_in)


def ensemble(
    params: SystemParams,
    replications: int,
    horizon: float,
    sample_dt: float,
    seed: int,
    initial: NetworkState | None = None,
    child_seeds=None,
) -> EnsembleResult:
    """Mean and unbiased covariance of Y^N across independent replications.

    Uniform capacities only. All replications advance in lockstep through a
    uniformized clock with the state-independent bound lam_max*N + mu*M;
    candidate events outside the live rate window are no-ops, which is the
    standard exactness argument for uniformization. Each replication draws
    from its own generator seeded by child_seed(seed, r); child_seeds
    overrides the derivation (used to force coupled runs).
    """
    if replications < 2:
        raise ValidationError("ensemble needs at least 2 replications")
    if not params.is_uniform:
        raise ValidationError("ensemble supports uniform capacities only")
    times = _sample_grid(horizon, sample_dt)
    state = _prepare_initial(params, initial)
    k = params.uniform_capacity
    n, fleet, p, mu = params.n_stations, params.fleet, params.p, params.mu
    g = choice_weights(params.choice, k)
    if params.arrival.is_constant:
        lam_bound = float(params.arrival.rate)
        thinning = False
    else:
        lam_bound = params.arrival.max_rate()
        thinning = True
    bound = lam_bound * n + mu * fleet

    r = replications
    if child_seeds is None:
        child_seeds = [child_seed(seed, i) for i in range(r)]
    else:
        child_seeds = [int(s) for s in child_seeds]
        if len(child_seeds) != r:
            raise ValidationError("child_seeds must have one entry per replication")
    gens = [np.random.default_rng(s) for s in child_seeds]

    w0 = np.bincount(state.counts, minlength=k + 1).astype(float)
    w = np.tile(w0, (r, 1))
    idx_n = np.arange(k + 1, dtype=float)
    docked = w @ idx_n
    big_g = w @ g
    g_pos = w[:, 1:] @ g[1:]
    nonempty = w[:, 1:].sum(axis=1)
    open_ = w[:, :k].sum(axis=1)
    t = np.zeros(r)
    next_idx = np.zeros(r, dtype=np.int64)

    n_grid = len(times)
    sum_y = np.zeros((n_grid, k + 1))
    sum_yy = np.zeros((n_grid, k + 1, k + 1))

    if bound <= 0.0:
        # no events can ever fire; every grid instant sees the initial state
        y0v = w0 / n
        mean = np.tile(y0v, (n_grid, 1))
        return EnsembleResult(
            times=times, mean=mean, cov=np.zeros((n_grid, k + 1, k + 1)),
            replications=r,
        )

    # block length sized to the expected round count, keeps memory bounded
    eblock = max(16, min(512, int(bound * horizon * 1.2) + 8))
    block = None
    cursor = eblock
    rounds = 0
    rows_all = np.arange(r)

    def refill():
        cols = np.empty((r, eblock, 3))
        for i, gen in enumerate(gens):
            cols[i, :, 0] = gen.standard_exponential(eblock)
            cols[i, :, 1:] = gen.random((eblock, 2))
        return cols

    while True:
        live = next_idx < n_grid
        if not live.any():
            break
        if cursor == eblock:
            block = refill()
            cursor = 0
        e = block[:, cursor, 0]
        u1 = block[:, cursor, 1]
        u2 = block[:, cursor, 2]
        cursor += 1
        rounds += 1

        t_new = t + e / bound
        # record pre-event state at every grid instant crossed
        while True:
            cross = live & (times[np.minimum(next_idx, n_grid - 1)] <= t_new) & (next_idx < n_grid)
            if not cross.any():
                break
            rows = rows_all[cross]
            ym = w[rows] / n
            np.add.at(sum_y, next_idx[rows], ym)
            np.add.at(sum_yy, next_idx[rows], np.einsum("ri,rj->rij", ym, ym))
            next_idx[rows] += 1
            live = next_idx < n_grid
        t = t_new

        spare = mu * (fleet - docked) / n
        pick_tot = lam_bound * (1.0 - p) * nonempty
        if p > 0.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = np.where(big_g > TINY_DENOM, g_pos / np.where(big_g > 0, big_g, 1.0), 0.0)
            pick_tot = pick_tot + lam_bound * p * n * frac
        drop_tot = spare * open_
        if thinning:
            lam_t = np.asarray(arrival_rate(params.arrival, t))
            pick_act = pick_tot * (lam_t / lam_bound)
        else:
            pick_act = pick_tot

        x = u1 * bound
        is_pick = live & (x < pick_act) & (nonempty > 0)
        is_drop = live & ~is_pick & (x >= pick_tot) & (x < pick_tot + drop_tot)

        if is_pick.any():
            rows = rows_all[is_pick]
            w_un = (1.0 - p) * nonempty[rows]
            w_in = (
                p * n * np.where(big_g[rows] > TINY_DENOM, g_pos[rows] / big_g[rows], 0.0)
                if p > 0.0
                else np.zeros(rows.size)
            )
            y2 = u2[rows] * (w_un + w_in)
            informed = (y2 >= w_un) & (w_in > 0.0)
            sel = np.empty(rows.size, dtype=np.int64)
            if (~informed).any():
                sub = rows[~informed]
                tgt = np.where(
                    p < 1.0, y2[~informed] / max(1.0 - p, 1e-300), 0.0
                )
                cum = np.cumsum(w[sub, 1:], axis=1)
                sel[~informed] = 1 + np.minimum(
                    (cum <= tgt[:, None]).sum(axis=1), k - 1
                )
            if informed.any():
                sub = rows[informed]
                tgt = (y2[informed] - w_un[informed]) / w_in[informed] * g_pos[sub]
                cum = np.cumsum(w[sub, 1:] * g[1:], axis=1)
                # g_pos carries float drift between recomputes; keep the
                # target strictly inside the freshly summed mass
                tgt = np.minimum(tgt, cum[:, -1] * (1.0 - 1e-12))
                sel[informed] = 1 + np.minimum(
                    (cum <= tgt[:, None]).sum(axis=1), k - 1
                )
            nf = sel
            w[rows, nf] -= 1.0
            w[rows, nf - 1] += 1.0
            docked[rows] -= 1.0
            big_g[rows] += g[nf - 1] - g[nf]
            g_pos[rows] += np.where(nf == 1, -g[1], g[nf - 1] - g[nf])
            nonempty[rows] -= (nf == 1).astype(float)
            open_[rows] += (nf == k).astype(float)

        if is_drop.any():
            rows = rows_all[is_drop]
            tgt = (x[rows] - pick_tot[rows]) / drop_tot[rows] * open_[rows]
            cum = np.cumsum(w[rows, :k], axis=1)
            nf = np.minimum((cum <= tgt[:, None]).sum(axis=1), k - 1)
            w[rows, nf] -= 1.0
            w[rows, nf + 1] += 1.0
            docked[rows] += 1.0
            big_g[rows] += g[nf + 1] - g[nf]
            g_pos[rows] += np.where(nf == 0, g[1], g[nf + 1] - g[nf])
            nonempty[rows] += (nf == 0).astype(float)
            open_[rows] -= (nf + 1 == k).astype(float)

        if rounds % 2048 == 0:
            docked = w @ idx_n
            big_g = w @ g
            g_pos = w[:, 1:] @ g[1:]
            nonempty = w[:, 1:].sum(axis=1)
            open_ = w[:, :k].sum(axis=1)

    mean = sum_y / r
    cov = (sum_yy - r * np.einsum("ti,tj->tij", mean, mean)) / (r - 1)
    return EnsembleResult(times=times, mean=mean, cov=cov, replications=r)
