"""Event-level CTMC simulation of finite-capacity bike-sharing networks.

Dynamics per station i: pickups at rate ((1-p)*lam + p*lam*N*g(X_i)/sum_j
g(X_j)) while X_i > 0, dropoffs at rate mu*(M - sum_j X_j)/N while X_i < K_i.
Stations with the same capacity and count are exchangeable, so the engine
evolves the occupancy table W[class, n] = number of stations of that class
holding n bikes; every observable here is a function of W and the table's
transition rates depend on the state only through W, so trajectories have
exactly the per-station law projected onto W. A run starts from such a
table of counts (round_robin_state, or a caller's initial). The ratio
histogram of a sample, or of the occupancy integral behind a stationary
average, is meanfield.ratio_projection of W / N.

One event law, two engines, both from _start_table's count table. Each
keeps the rate aggregates itself, updates them per move and sums them
afresh from the table (_aggregates) at its recomputes. _run_engine steps
one replica on Python scalars (simulate, stationary_average,
flln_experiment), its aggregates in local variables and each cell's move
read from _move_table, the one table of what a move changes, which
_lockstep adds as is; it fills simulate's sample tables itself. It reads
its stream as one iterator of (e, u1, u2) chained over the blocks, works
out the rates right after each move (a thinned or empty candidate leaves
them as they are) and derives its event count from the countdown to the
next recompute. Uninformed pickups and dropoffs weigh stations equally, so
it finds their cell by an inline bisection of the prefix counts; informed
pickups weigh them by g and keep a sequential scan. Past the end of either
(float rounding), _last_cell gives the last non-empty cell. _lockstep
advances many replicas at once (ensemble, forward_equation_residual): each
round, every live replica takes the next candidate event of its own scalar
run, on its own clock t_r += e_r / total_r with its own total rate, so
replica r is bitwise simulate on its seed. Its state is the flattened
table, cell-major, a column per replica, and its cell is the count of its
running sums <= its target: targets are >= 0 and the sums never decrease,
so that count is where the scan stops. Both read a generator through one
stream layout: blocks of BLOCK exponentials, then BLOCK x 2 uniforms, one
exponential and two uniforms per candidate event, whether it moves a bike,
is thinned away or finds no cell.

Under a time-varying rate a pickup candidate at t with thinning value v is
rejected when v >= lam(t). Both engines read model._rate_envelope first: v
below the band of t's cell is accepted, v at or above it rejected, and
only v inside it is compared with lam(t), so at is rarely called and the
decisions are those of comparing every candidate.

Replication seeding: child seed r = splitmix64(master + (r+1)*GOLDEN), the
standard 64-bit mixing finalizer, so runs reproduce across platforms. The
lockstep engine hashes all its seeds in one vectorized pass of NumPy's
SeedSequence (_seed_words) and builds each PCG64 from its four words, the
generator _generator(seed) gives.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat

import numpy as np

from .model import SystemParams, ValidationError, _rate_envelope, choice_weights
from .meanfield import (TINY_DENOM, _as_measure, _informed_choice, _sample_grid,
                        ratio_projection)

__all__ = [
    "TrajectorySample",
    "EnsembleResult",
    "child_seed",
    "round_robin_state",
    "simulate",
    "stationary_average",
    "ensemble",
]

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# full aggregate recompute cadence, caps float drift in the running sums
RECOMPUTE_EVERY = 1_000_000
# candidate events per random block; the lockstep engine holds one block per
# replica, r * BLOCK * 24 bytes
BLOCK = 256


def _splitmix64(x: int) -> int:
    x &= _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return x ^ (x >> 31)


def child_seed(master: int, index: int) -> int:
    """Replication seed: splitmix64 of the master advanced by the index."""
    return _splitmix64((int(master) + (index + 1) * GOLDEN) & _MASK)


def _generator(seed) -> np.random.Generator:
    """The generator np.random.default_rng(seed) builds, without its
    dispatch; the seed must be a non-negative integer."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(seed))


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """np.random.SeedSequence(s).generate_state(4, np.uint64) per seed of a
    uint64 array, as rows of an (r, 4) array: NumPy's pool mixing and
    output hash, in uint32 arithmetic over every seed at once. A seed below
    2**64 is two words of entropy, which the pool of four pads with zeros;
    the hash constants run the same course for every seed."""
    u32 = np.uint32
    zero = np.zeros(seeds.shape, dtype=u32)
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value = value ^ u32(const)
        const = const * 0x931E8875 & 0xFFFFFFFF
        value = value * u32(const)
        return value ^ (value >> u32(16))

    pool = [hashmix(w) for w in ((seeds & 0xFFFFFFFF).astype(u32),
                                 (seeds >> 32).astype(u32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * u32(0xCA01F9DD) - hashmix(pool[src]) * u32(0x4973F715)
                pool[dst] = mixed ^ (mixed >> u32(16))
    const = 0x8B51F9DD
    words = np.empty((seeds.size, 8), dtype=np.uint64)
    for i in range(8):
        value = pool[i % 4] ^ u32(const)
        const = const * 0x58F38DED & 0xFFFFFFFF
        value = value * u32(const)
        words[:, i] = value ^ (value >> u32(16))
    # little-endian pairs of 32-bit words, as SeedSequence views them
    return words[:, ::2] | words[:, 1::2] << np.uint64(32)


def _generators(seeds) -> list:
    """[_generator(s) for s in seeds] for child seeds, which lie below 2**64,
    hashed in one pass of _seed_words."""

    # defined here so that importing bss does not load numpy.random, which
    # measured 0.3 MiB and 1.5 ms of set-up where nothing is drawn
    class Words(np.random.bit_generator.ISeedSequence):
        """A seed sequence whose state is words already generated."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    return [np.random.Generator(np.random.PCG64(Words(w)))
            for w in _seed_words(np.array(seeds, dtype=np.uint64))]


@dataclass(frozen=True)
class TrajectorySample:
    """Sampled observables on a regular grid; y_series is None for capacity
    mixes, whose empirical measure is a (class, count) table: use r_series."""

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
    # rounds, plus TrajectorySample.stats' counters summed over replications
    stats: dict = field(default_factory=dict)


def round_robin_state(params: SystemParams) -> np.ndarray:
    """Deterministic start: deal bikes one per station, stations grouped by
    ascending class, until the fleet is out.

    Returns the number of stations at each (class, count) cell, shaped as
    builtin_measure gives a measure: (C, k_max+1) on a mix, (K+1,) on one
    class. Divided by params.n_stations it is the measure integrate takes.
    """
    caps = np.asarray(params.capacity_values)
    sizes = params.class_sizes()
    m = params.fleet
    if m > int(caps @ sizes):
        raise ValidationError("fleet exceeds total dock capacity")
    # full passes first: after r passes a class-c station holds min(K_c, r)
    lo, hi = 0, int(caps[-1])
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if int(np.minimum(caps, mid) @ sizes) <= m:
            lo = mid
        else:
            hi = mid - 1
    # one more bike each to the first stations with room, class by class
    left = m - int(np.minimum(caps, lo) @ sizes)
    table = np.zeros((caps.size, caps[-1] + 1), dtype=np.int64)
    for c, (k, size) in enumerate(zip(caps.tolist(), sizes.tolist())):
        up = min(left, size) if k > lo else 0
        left -= up
        table[c, min(k, lo)] = size - up
        if up:
            table[c, lo + 1] = up
    return table[0] if params.is_uniform else table


def _start_table(params: SystemParams, initial=None) -> np.ndarray:
    """The int64 (C, k_max+1) count table a run starts from: initial, a
    table in the shape of round_robin_state, or that table when None.

    initial must pass _as_measure (shape, dead cells, finite entries) and
    hold non-negative integer counts, params.class_sizes() stations per
    class and at most params.fleet docked bikes.
    """
    caps = params.capacity_values
    if initial is None:
        return round_robin_state(params).reshape(len(caps), -1)
    rows = _as_measure(initial, params).reshape(len(caps), -1)
    if np.any(rows < 0) or np.any(rows != np.trunc(rows)):
        raise ValidationError(
            "initial must hold non-negative integer station counts")
    sizes = rows.sum(axis=1)
    if not np.array_equal(sizes, params.class_sizes()):
        raise ValidationError(
            f"initial holds {sizes.astype(np.int64).tolist()} stations "
            f"per class, params {params.class_sizes().tolist()}")
    docked = float((rows @ np.arange(params.k_max + 1)).sum())
    if docked > params.fleet:
        raise ValidationError(
            f"initial docks {docked:.0f} bikes, more than the fleet "
            f"of {params.fleet}")
    return rows.astype(np.int64)


def _prefix_counts(rows, caps) -> list:
    """f[c][m], the number of class-c stations holding at most m bikes, for
    m = 0..K_c, from the table rows of each capacity class in caps."""
    return [list(accumulate(w[: k + 1])) for w, k in zip(rows, caps)]


def _aggregates(rows, g, caps) -> tuple:
    """(docked, big_g, g_pos, nonempty, open) summed afresh from the table
    rows of each capacity class in caps."""
    g = np.asarray(g)
    ws = [np.asarray(w, dtype=np.int64) for w in rows]
    counts = np.arange(caps[-1] + 1)
    return (
        int(sum(int((w * counts).sum()) for w in ws)),
        float(sum(float(w @ g) for w in ws)),
        float(sum(float(w[1:] @ g[1:]) for w in ws)),
        int(sum(int(w[1:].sum()) for w in ws)),
        int(sum(int(w[:k].sum()) for w, k in zip(ws, caps))),
    )


def _check_table(rows, prefix, g, caps, fleet, docked, nonempty, open_) -> None:
    """Raise unless a loop's integer aggregates and the prefix counts
    match the table rows and the table stays on its support."""
    fresh, _, _, fresh_nonempty, fresh_open = _aggregates(rows, g, caps)
    if (fresh, fresh_nonempty, fresh_open) != (docked, nonempty, open_):
        raise AssertionError("an aggregate counter drifted from the table")
    if prefix != _prefix_counts(rows, caps):
        raise AssertionError("a prefix count drifted from the table")
    if not (0 <= fleet - docked <= fleet):
        raise AssertionError("bikes in circulation out of range")
    for w, k in zip(rows, caps):
        if min(w) < 0 or any(w[k + 1 :]):
            raise AssertionError("occupancy table escaped its support")


def _draws(rng) -> tuple[np.ndarray, np.ndarray]:
    """The next block of a replica's stream: BLOCK exponentials, then BLOCK x 2
    uniforms."""
    return rng.standard_exponential(BLOCK), rng.random((BLOCK, 2))


def _rate_bound(arrival, horizon: float) -> tuple:
    """The arrival-rate bound candidates are drawn at, and for time-varying
    rates, whose pickup candidates are thinned against it, the rate's at
    and its _rate_envelope up to the horizon (None for constant rates)."""
    if arrival.is_constant:
        return float(arrival.rate), None
    f = arrival.fourier
    return arrival.max_rate(), (f.at, *_rate_envelope(f, horizon))


def _last_cell(classes, pickup: bool):
    """The class-major last non-empty eligible cell, or None: the draw when a
    rank rounds to the eligible total or past it, or an informed scan never
    passes its target. classes holds _run_engine's (prefix counts, last
    eligible count, cells) per class; a pickup needs a count >= 1."""
    for f, top, cells in reversed(classes):
        if f[top] > (f[0] if pickup else 0):
            return cells[bisect_left(f, f[top], 0, top + 1)]
    return None


def _run_engine(
    params: SystemParams,
    horizon: float,
    seed: int,
    initial: np.ndarray | None,
    times: np.ndarray | None = None,
    tables: np.ndarray | None = None,
    occupancy_from: float | None = None,
    check_conservation: bool = False,
):
    """Shared event loop from the count table initial (see _start_table);
    returns (stats, occ).

    With times, tables[i] receives the (C, k_max+1) station counts at
    times[i], the state before any event there; instants no candidate
    reaches (a quiet tail, or past the horizon by rounding) get the final
    state.
    With occupancy_from=b, occ[c][m] is the integral over [b, horizon] of the
    number of class-c stations holding m bikes (occ is None otherwise). An
    event changes two cells, so only those are credited before it, each from
    its own timestamp up to the event time; events at or before b are
    skipped, as every timestamp is still b and they would credit zero.
    Every cell is credited once more up to the horizon at the end.
    """
    rows = _start_table(params, initial).tolist()
    rng = _generator(seed)
    p, mu = params.p, params.mu
    n, fleet, caps = params.n_stations, params.fleet, params.capacity_values
    # plain Python scalars: the loop reads single cells, which is much
    # cheaper than on numpy ones, and float64 gives the same bits on either
    g = choice_weights(_informed_choice(params), params.k_max).tolist()
    prefix = _prefix_counts(rows, caps)
    lam_bound, envelope = _rate_bound(params.arrival, horizon)
    thinning = envelope is not None
    if thinning:
        lam_at, inv, band_lo, band_hi = envelope
        n_band, band_lo, band_hi = band_lo.size, band_lo.tolist(), band_hi.tolist()
    # leading factors of the rate expressions, multiplied in the same order
    q, pn, lam_pn = 1.0 - p, p * n, lam_bound * p * n
    # occupancy integral and each cell's timestamp; without occupancy_from
    # no event passes lo and nothing is credited
    lo = np.inf if occupancy_from is None else occupancy_from
    occ = [[0.0] * len(row) for row in rows]
    stamp = [[lo] * len(row) for row in rows]

    # per cell, its move: the class's table row, the cells it leaves and
    # enters, the class's occupancy, timestamp and prefix rows, the one
    # prefix count that changes (f[c][m - 1] by -step for pickup cell m and
    # the dropoff cell below it), then the changes of docked, big_g, g_pos,
    # nonempty and open, read from the move's _move_table column
    delta, picks = _move_table(np.asarray(g), caps)
    n_p = picks.size
    changes = delta[-6:-1].T.tolist()
    picks_of, drops_of = [[None] for _ in caps], [[] for _ in caps]
    width = params.k_max + 1
    for i, cell in enumerate(picks.tolist()):
        c, m = divmod(cell, width)
        for code, cells, src in ((i, picks_of, m), (n_p + 1 + i, drops_of, m - 1)):
            step, dg, dg_pos, d_nonempty, d_open = changes[code]
            step = int(step)
            cells[c].append((rows[c], src, src + step, occ[c], stamp[c], prefix[c],
                             m - 1, step, dg, dg_pos, int(d_nonempty), int(d_open)))

    # per class (f, top, cells): a pickup needs m >= 1 and a dropoff m < K_c
    pick_classes = [(prefix[c], k, picks_of[c]) for c, k in enumerate(caps)]
    drop_classes = [(prefix[c], k - 1, drops_of[c]) for c, k in enumerate(caps)]
    # the informed scan walks the pickup cells class-major
    pick_cells = [(rows[c], m, cells[m])
                  for c, (_, k, cells) in enumerate(pick_classes)
                  for m in range(1, k + 1)]

    # grid instants, then a sentinel; a candidate takes the slow path only
    # once it reaches stop, the earlier of the next instant and the horizon
    grid = ([] if times is None else times.tolist()) + [np.inf]
    grid_idx = 0
    stop = min(grid[0], horizon)
    t = 0.0
    rejections = empty_draws = recomputes = 0
    every = countdown = RECOMPUTE_EVERY
    docked, big_g, g_pos, nonempty, open_ = _aggregates(rows, g, caps)
    informed, tiny = p > 0.0, TINY_DENOM
    # (e, u1, u2) per candidate, the next block drawn once one runs out
    stream = chain.from_iterable(zip(exps.tolist(), *unis.T.tolist())
                                 for exps, unis in map(_draws, repeat(rng)))

    # one pass per move: the rates from the aggregates, then candidates at
    # those rates until one moves a bike or passes the horizon
    while t < horizon:
        w_un = q * nonempty
        pick_bound = lam_bound * w_un
        w_in = 0.0
        if informed and big_g > tiny:
            frac = g_pos / big_g
            w_in = pn * frac
            pick_bound += lam_pn * frac
        drop_tot = mu * (fleet - docked) / n * open_
        total = pick_bound + drop_tot
        if total <= 0.0:
            break

        for e, u1, u2 in stream:
            t += e / total
            if t >= stop:
                reach = min(t, horizon)
                while grid[grid_idx] <= reach:
                    # via int64: filling from the lists measured 0.3 MiB
                    # more peak RSS
                    tables[grid_idx] = np.asarray(rows)
                    grid_idx += 1
                if t >= horizon:
                    break
                stop = min(grid[grid_idx], horizon)

            # uninformed pickups and dropoffs find their cell by rank, the
            # first class whose eligible stations outnumber it
            x = u1 * total
            # x/pick_bound is uniform given a pickup; accept at lam(t)/bound.
            # v below the band of t's cell is below lam(t) and v at or above
            # it is not, so only v inside the band is compared with at(t).
            # Ahead of the pickup branch, which stays as short as at a
            # constant rate: a longer one measured 2% slower there
            if thinning and x < pick_bound and (
                    (v := (x / pick_bound) * lam_bound) >= band_lo[c := int(t * inv) % n_band]
                    and (v >= band_hi[c] or v >= lam_at(t))):
                rejections += 1
                continue
            if x < pick_bound:
                y = u2 * (w_un + w_in)
                if y < w_un or w_in == 0.0:
                    # integer weights: the scan's exact partial sums exceed the
                    # target where they exceed its integer part
                    j = int(y / q) if p < 1.0 else 0
                    for f, top, cells in pick_classes:
                        base = f[0]
                        size = f[top] - base
                        if j < size:
                            hit = cells[bisect_right(f, j + base)]
                            break
                        j -= size
                    else:
                        hit = _last_cell(pick_classes, True)
                else:
                    # float weights: a sequential scan, whose partial sums
                    # _lockstep's cumsum reproduces
                    target = (y - w_un) / w_in * g_pos
                    acc = 0.0
                    for row, m, cell in pick_cells:
                        wv = row[m]
                        if wv:
                            acc += wv * g[m]
                            if acc > target:
                                hit = cell
                                break
                    else:
                        hit = _last_cell(pick_classes, True)
            else:
                j = int((x - pick_bound) / drop_tot * open_)
                for f, top, cells in drop_classes:
                    size = f[top]
                    if j < size:
                        hit = cells[bisect_right(f, j)]
                        break
                    j -= size
                else:
                    hit = _last_cell(drop_classes, False)
            if hit is None:
                empty_draws += 1
                continue

            row, m, m2, o, s, f, fi, step, dg, dg_pos, d_nonempty, d_open = hit
            if t > lo:
                o[m] += row[m] * (t - s[m])
                o[m2] += row[m2] * (t - s[m2])
                s[m] = s[m2] = t
            row[m] -= 1
            row[m2] += 1
            f[fi] -= step
            docked += step
            big_g += dg
            g_pos += dg_pos
            nonempty += d_nonempty
            open_ += d_open
            if check_conservation:
                _check_table(rows, prefix, g, caps, fleet, docked, nonempty, open_)
            countdown -= 1
            if not countdown:
                docked, big_g, g_pos, nonempty, open_ = _aggregates(rows, g, caps)
                recomputes += 1
                countdown = every
            break

    # grid instants no candidate reached (absorbing or quiet tail), and a
    # last instant that rounding puts past the horizon, see the final state
    if times is not None:
        tables[grid_idx:] = np.asarray(rows)
    if occupancy_from is None:
        occ = None
    else:
        for o, s, row in zip(occ, stamp, rows):
            for m, v in enumerate(row):
                o[m] += v * (horizon - s[m])
    stats = {
        # every move counts down to the next recompute
        "events": recomputes * every + every - countdown,
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
    initial: np.ndarray | None = None,
    check_conservation: bool = False,
) -> TrajectorySample:
    """One exact trajectory, sampled on a regular grid.

    The run starts from initial, a count table as round_robin_state gives
    it (that table when None). Returns the empirical-measure series (uniform
    capacities), the ratio histogram series, and the number of
    state-changing events. Time-varying arrival rates are simulated by
    thinning against the horizon-wide bound.
    """
    times = _sample_grid(horizon, sample_dt)
    caps = params.capacity_values
    tables = np.zeros((len(times), len(caps), params.k_max + 1))
    stats, _ = _run_engine(params, horizon, seed, initial, times, tables,
                           check_conservation=check_conservation)
    # station fractions; for a uniform capacity the ratio bins are the identity
    tables /= params.n_stations
    y_series = tables[:, 0] if params.is_uniform else None
    return TrajectorySample(times, y_series, ratio_projection(tables, caps),
                            stats["events"], stats)


def stationary_average(
    params: SystemParams,
    burn_in: float,
    horizon: float,
    seed: int,
    initial: np.ndarray | None = None,
    stats: dict | None = None,
) -> np.ndarray:
    """Time-weighted average of the natural observable over [burn_in, horizon].

    Uniform networks average the empirical measure, capacity mixes the ratio
    histogram. Weighting is event-exact, not grid-sampled. burn_in and
    horizon must be finite with 0 <= burn_in < horizon: the run ends only
    once an event passes the horizon, and before time 0 there is no path.
    A stats dict, if given, receives the engine's counters, as
    TrajectorySample.stats holds them.
    """
    if not (0.0 <= burn_in < horizon < np.inf):
        raise ValidationError(
            f"need finite 0 <= burn_in < horizon, got burn_in={burn_in} and "
            f"horizon={horizon}"
        )
    counts, occ = _run_engine(params, horizon, seed, initial, occupancy_from=burn_in)
    if stats is not None:
        stats.update(counts)
    return ratio_projection(np.asarray(occ) / params.n_stations,
                            params.capacity_values) / (horizon - burn_in)


def _totals(lam, p, mu, n, fleet, docked, big_g, g_pos, nonempty, open_):
    """Rate weights and totals the engines draw candidates from, per replica.

    Returns (w_un, w_in, pick, drop): the uninformed and informed pickup
    weights, the pickup total at arrival rate lam and the dropoff total, all
    from the aggregates of each replica's table (arrays, one entry each).
    _run_engine inlines the same float expressions.
    """
    w_un = (1.0 - p) * nonempty
    # a vanished normaliser drops the informed term
    frac = (np.where(big_g > TINY_DENOM, g_pos / big_g, 0.0) if p > 0.0
            else np.zeros_like(g_pos))
    pick = lam * w_un + lam * p * n * frac
    drop = mu * (fleet - docked) / n * open_
    return w_un, p * n * frac, pick, drop


def _first_over(cells, cum, target) -> np.ndarray:
    """Per column of the cell-major (k, r) tables, the cell _run_engine
    picks: the first whose running weight cum exceeds the target or, when
    none does (float rounding of the target), the last non-empty cell; k if
    all are empty. That first cell is the count of sums <= target, as the
    target is >= 0 and cum never decreases down a column. For count weights
    this is the rank search's cell, for choice weights the informed scan's."""
    k = len(cells)
    cell = np.add.reduce(cum <= target)
    miss = cell == k
    if np.count_nonzero(miss):
        full = cells[::-1, miss] > 0
        cell[miss] = np.where(full.any(axis=0), k - 1 - np.argmax(full, axis=0), k)
    return cell


def _move_table(g: np.ndarray, caps) -> tuple[np.ndarray, np.ndarray]:
    """Change of a lockstep column (its L table cells, five aggregates and
    event count) per move code, and the flattened-table index of each of
    the P pickup cells (counts 1..K_c), class-major as _run_engine walks them.

    Code i < P is a pickup from pickup cell i, code P + 1 + i a dropoff into
    the cell below it, the dropoff cell in the same place of the walk; codes
    P and 2P + 1 (no cell) move nothing. This is the one definition of what
    a move changes: _run_engine reads its per-cell moves from these columns
    and _lockstep adds them to its state, so both do the same arithmetic.
    """
    width = caps[-1] + 1
    size = len(caps) * width
    picks = np.array([c * width + m for c, k in enumerate(caps) for m in range(1, k + 1)])
    m = picks % width
    n_p = picks.size
    full = m == np.asarray(caps)[picks // width]
    delta = np.zeros((size + 6, 2 * n_p + 2))
    # a dropoff into f - 1 reverses a pickup from f: the station turns empty
    # or nonempty at m = 1, and leaves or joins the open ones at K_c
    for first, s in ((0, -1.0), (n_p + 1, 1.0)):
        codes = np.arange(first, first + n_p)
        dg = s * (g[m] - g[m - 1])
        delta[picks - 1, codes] = -s
        delta[picks, codes] = s
        delta[size:, codes] = (np.full(n_p, s), dg, np.where(m == 1, s * g[1], dg),
                               np.where(m == 1, s, 0.0), np.where(full, -s, 0.0),
                               np.ones(n_p))
    return delta, picks


def _lockstep(params: SystemParams, horizon: float, times: np.ndarray, seeds,
              initial: np.ndarray | None = None):
    """_run_engine for many seeds at once.

    The state is cell-major, one float column per live replica: the L =
    C (k_max + 1) cells of its flattened (class, count) table, five
    aggregates and event count. Each round every live replica takes its
    next candidate event: its own clock and total rate, the same thinning
    test against lam_max, the same cell (_first_over on the running sums of
    its P pickup or dropoff cells, added in the scan's class-major order),
    the same aggregate arithmetic (a column of _move_table) and its own
    recompute every RECOMPUTE_EVERY events, on its own generator read in
    the same blocks. A replica stops at the horizon or when its total rate
    reaches 0, and grid instants it did not reach get its final state.
    seeds are child_seed outputs. Returns (samples, stats): samples[r] is bitwise the flattened station
    fractions of simulate(params, horizon, dt, seeds[r], initial), its
    y_series on one class, and stats sums simulate's counters over replicas
    and adds rounds, the most candidate draws of any replica.
    """
    table = _start_table(params, initial)
    n, fleet, caps = params.n_stations, params.fleet, params.capacity_values
    p, mu = params.p, params.mu
    g = choice_weights(_informed_choice(params), params.k_max)
    delta, picks = _move_table(g, caps)
    n_p = picks.size
    g_cells = np.tile(g, len(caps))[picks, None]
    # basic slices are views, where indexing by rows copies both per round
    pick_rows, drop_rows = ((slice(1, None), slice(None, n_p)) if len(caps) == 1
                            else (picks, picks - 1))
    lam_bound, envelope = _rate_bound(params.arrival, horizon)
    thinning = envelope is not None
    if thinning:
        lam_at, inv, band_lo, band_hi = envelope
    gens = _generators(seeds)
    r = len(gens)
    samples = np.empty((r, len(times), table.size))
    # instants past the horizon are never due; the final fill covers them
    grid = np.append(np.where(times <= horizon, times, np.inf), np.inf)

    # per live replica: index, state column, clock, next grid instant, its time
    ids = np.arange(r)
    start = [*table.ravel(), *_aggregates(table, g, caps), 0.0]
    state = np.tile(np.array(start)[:, None], r)
    t = np.zeros(r)
    nxt = np.zeros(r, dtype=np.int64)
    due = np.full(r, grid[0])
    done, n_done = None, 0
    block = np.empty((BLOCK, 3, r))
    cursor = BLOCK
    rounds = draws = events = rejections = recomputes = 0

    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            if n_done:
                keep = ~done
                events += int(state[-1, done].sum())
                ids, state, t = ids[keep], state[:, keep], t[keep]
                nxt, due = nxt[keep], due[keep]
            if not ids.size:
                break
            w, agg = state[:-6], state[-6:-1]
            w_un, w_in, pick, drop = _totals(lam_bound, p, mu, n, fleet, *agg)
            total = pick + drop

            if cursor == BLOCK:
                for i in ids.tolist():
                    block[:, 0, i], block[:, 1:, i] = _draws(gens[i])
                cursor = 0
            e, u1, u2 = block[cursor] if ids.size == r else block[cursor][:, ids]
            cursor += 1
            rounds += 1
            # a quiet replica (total 0) jumps to the horizon
            t_new = np.fmin(t + e / total, horizon)

            hit = due <= t_new
            while np.count_nonzero(hit):
                rows = hit.nonzero()[0]
                samples[ids[rows], nxt[rows]] = (w[:, rows] / n).T
                nxt[rows] += 1
                due[rows] = grid[nxt[rows]]
                hit = due <= t_new
            done = t_new == horizon
            n_done = int(np.count_nonzero(done))
            for row in done.nonzero()[0].tolist() if n_done else ():
                samples[ids[row], nxt[row]:] = w[:, row] / n
            t = t_new
            draws += ids.size - n_done

            x = u1 * total
            is_pick = x < pick
            cells = np.where(is_pick, w[pick_rows], w[drop_rows])
            y = u2 * (w_un + w_in)
            target = np.where(
                is_pick, y / (1.0 - p) if p < 1.0 else 0.0,
                (x - pick) / drop * agg[4],
            )
            weights = cells
            if p > 0.0:
                informed = is_pick & (y >= w_un) & (w_in != 0.0)
                target = np.where(informed, (y - w_un) / w_in * agg[2], target)
                weights = np.where(informed, cells * g_cells, cells)
            # running sums, a row per add: the scan's order for every replica
            cum = weights.copy()
            prev = cum[0]
            for row in cum[1:]:
                prev = np.add(prev, row, row)
            cell = _first_over(cells, cum, target)
            code = np.where(is_pick, cell, cell + (n_p + 1))
            np.putmask(code, done, n_p)
            if thinning:
                # _run_engine's test: at(t) only for the rows inside the band
                rows = (is_pick & ~done).nonzero()[0]
                v = (x[rows] / pick[rows]) * lam_bound
                c = (t[rows] * inv).astype(np.int64) % band_lo.size
                reject = v >= band_hi[c]
                inside = ((v >= band_lo[c]) & ~reject).nonzero()[0]
                if inside.size:
                    lam_t = [lam_at(s) for s in t[rows[inside]].tolist()]
                    reject[inside] = v[inside] >= lam_t
                rejected = rows[reject]
                code[rejected] = n_p
                rejections += rejected.size

            state += delta.take(code, axis=1)
            # no replica has more events than there were rounds
            if rounds >= RECOMPUTE_EVERY:
                moved = code % (n_p + 1) != n_p
                due_recompute = moved & (state[-1] % RECOMPUTE_EVERY == 0)
                for row in due_recompute.nonzero()[0].tolist():
                    agg[:, row] = _aggregates(w[:, row].reshape(len(caps), -1), g, caps)
                    recomputes += 1

    stats = {
        "rounds": rounds,
        "events": events,
        "thinning_rejections": rejections,
        "empty_draws": draws - events - rejections,
        "recomputes": recomputes,
    }
    return samples, stats


def ensemble(
    params: SystemParams,
    replications: int,
    horizon: float,
    sample_dt: float,
    seed: int,
    initial: np.ndarray | None = None,
) -> EnsembleResult:
    """Mean and unbiased covariance of Y^N across independent replications.

    Y^N is the empirical measure over the flattened (class, count) table.
    Replication r is simulate(params, horizon, sample_dt, child_seed(seed,
    r), initial), replayed bitwise by the lockstep engine. stats reports the
    engine's rounds and simulate's counters summed over replications.
    """
    if not (isinstance(replications, (int, np.integer)) and replications >= 2):
        raise ValidationError(
            f"replications must be an integer >= 2, got {replications!r}")
    times = _sample_grid(horizon, sample_dt)
    r = replications
    samples, stats = _lockstep(params, horizon, times,
                               [child_seed(seed, i) for i in range(r)], initial)
    mean = samples.mean(axis=0)
    samples -= mean
    cov = np.einsum("rti,rtj->tij", samples, samples) / (r - 1)
    return EnsembleResult(times=times, mean=mean, cov=cov, replications=r,
                          stats=stats)
