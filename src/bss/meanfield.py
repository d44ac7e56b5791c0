"""Deterministic mean-field limit: drift fields, RK4 integration, ratio process.

The empirical measure is one plain array: the table of mass over (capacity
class, bike count), shape (C, k_max+1), zero above each class's capacity.
A uniform capacity is the one-class case and may also be passed as that
table's one row, a vector of length K+1 on the probability simplex.

The ratio process is a fixed linear image of that table: cell (c, n) goes
to the fill-ratio bin ratio_bins(K_c, k_max)[n]. One projection,
ratio_projection, maps any stack of (class, count) tables onto the bins:
the ODE path, the simulator's samples and occupancy integrals, the
equilibrium. ratio_histogram bins per-station counts, as GBFS snapshots
come.

Every drift evaluation runs one kernel over the flattened table: the shift
operators of each (capacities, choice) pair are cached (_operators), and
_drift_into weights them in two bound BLAS calls. After a drift call,
_jacobian_into builds the drift Jacobian J from the same operators and
block weights, the one place J is assembled; the diffusion layer adds the
jump bracket's bands from the same weights. One
buffered RK4 stepper, _rk4_buffered, integrates any flat state that starts
with a measure, setting its weights once per step size and reading a
constant rate once: integrate runs it over _drift_into, the traced
per-stage hook, and the diffusion layer runs the packed mean and covariance
system on it. The tests keep an allocating RK4 stepper and a copy of the
kernel's arithmetic as bitwise oracles.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .model import (
    ChoiceSpec,
    ConvergenceError,
    SystemParams,
    ValidationError,
    arrival_rate,
    choice_weights,
)

__all__ = [
    "drift",
    "integrate",
    "integrate_hetero",
    "ratio_bins",
    "ratio_projection",
    "ratio_histogram",
    "builtin_measure",
]

# Denominators below this are treated as zero: informed users see no bikes
# anywhere and are lost.
TINY_DENOM = 1e-300

MAX_STEP = 0.01
MIN_STEP = 1e-6
DEFAULT_STEP = 0.005

# sample instants per grid (21M CSV rows at K=20): a tiny sample_dt is
# refused before its grid is allocated
MAX_SAMPLES = 1_000_000


@lru_cache(maxsize=128)
def _operators(capacities: tuple[int, ...], choice: ChoiceSpec) -> np.ndarray:
    """Pickup and dropoff shifts over the flattened (class, count) table.

    Cell c*(k_max+1) + n holds the mass of class c at n bikes; cells above a
    class's capacity stay zero. D moves a pickup's mass from (c, n) to
    (c, n-1) for 1 <= n <= K_c, U a dropoff's from (c, n) to (c, n+1) for
    n < K_c; both have zero column sums. The result is the read-only stack
    M = [D; D diag(g); U; g^T; n^T], so z = M y holds Dy, DGy, Uy, the choice
    normaliser s and the docked mean m, and the drift is

        b = lam(1-p) Dy + (lam p / s) DGy + mu(gamma - m) Uy.

    A uniform capacity is the one-class case. The dense stack costs
    (3L+2)L doubles for L cells; on one class it beats per-element numpy
    arithmetic up to K of about 160 (K=100: 6.4 us against 11.3 us per
    drift; K=200: 17.0 us against 12.1 us).
    """
    width = capacities[-1] + 1
    counts = np.tile(np.arange(width), len(capacities))
    caps = np.repeat(capacities, width)
    n = np.where(counts <= caps, counts, 0)
    g = np.where(counts <= caps, choice_weights(choice, width - 1)[n], 0.0)
    down = np.flatnonzero((counts <= caps) & (counts > 0))
    below = np.flatnonzero(counts < caps)
    d = np.zeros((counts.size, counts.size))
    d[down - 1, down] = 1.0
    d[down, down] = -1.0
    u = np.zeros_like(d)
    u[below + 1, below] = 1.0
    u[below, below] = -1.0
    stack = np.vstack([d, d * g, u, g, n])
    stack.setflags(write=False)
    return stack


_NO_CHOICE = ChoiceSpec("none")


def _informed_choice(params: SystemParams) -> ChoiceSpec:
    # at p = 0 the choice never enters, and flat g = 1 cannot overflow
    return params.choice if params.p > 0.0 else _NO_CHOICE


class _Kernel:
    """A caller's operator stack and rates, scratch for z = M y and the block
    weights (lam(1-p), lam p/s, a), and both products bound once."""

    __slots__ = ("stack", "p", "mu", "gamma", "z", "blocks", "tail", "coef",
                 "apply", "weigh", "ops", "g", "rows", "row_g", "c_rank", "rank")

    def __init__(self, params: SystemParams):
        self.stack = m = _operators(params.capacity_values, _informed_choice(params))
        self.p, self.mu, self.gamma = params.p, params.mu, params.gamma
        self.z = np.empty(m.shape[0])
        self.blocks, self.tail = self.z[:-2].reshape(3, -1), self.z[-2:]
        self.coef, self.c_rank = np.empty(3), np.zeros(())
        self.apply, self.weigh = m.dot, self.coef.dot
        # J's parts: the shift operators as one (3, L^2) view, and the rows
        # (c g, mu n) of (DGy, Uy) @ rows, c = lam p/s^2 set in the 0-d c_rank
        self.rows, self.rank = np.empty((2, m.shape[1])), self.blocks[1:].T.dot
        self.row_g, self.ops, self.g = self.rows[0], m[:-2].reshape(3, -1), m[-2]
        np.multiply(m[-1], self.mu, self.rows[1])


def _drift_into(kern: _Kernel, lam, y, out):
    """Drift b(y) on the flattened table, written into out: two BLAS calls.

    A choice normaliser s at or below TINY_DENOM drops the informed term.
    """
    coef, p = kern.coef, kern.p
    kern.apply(y, kern.z)
    s, m = kern.tail.tolist()
    coef[0] = lam * (1.0 - p)
    coef[1] = lam * p / s if p > 0.0 and s > TINY_DENOM else 0.0
    coef[2] = kern.mu * (kern.gamma - m)
    return kern.weigh(kern.blocks, out)


def _denominator(kern: _Kernel):
    """s of the last _drift_into call; J and A need it above TINY_DENOM if p > 0."""
    if kern.p > 0.0 and not (kern.z[-2] > TINY_DENOM):
        raise ValidationError("choice denominator vanished; interior measure required")
    return kern.z[-2]


def _jacobian_into(kern: _Kernel, j, scratch):
    """J[n, i] = d b_n / d y_i at the y of the last _drift_into call, into
    the L x L array j (scratch is another). b = lam(1-p) Dy + (lam p/s) DGy
    + a Uy is linear in y but for a = mu(gamma - n.y) and s = g.y, so J is
    the block weights times the shift operators less the rank-one pieces
    (lam p/s^2) (DGy) g^T + mu (Uy) n^T, one (L, 2) @ (2, L) product."""
    kern.c_rank[()] = kern.coef[1] / _denominator(kern)
    kern.weigh(kern.ops, j.reshape(-1))
    np.multiply(kern.g, kern.c_rank, kern.row_g)
    kern.rank(kern.rows, scratch)
    return np.subtract(j, scratch, j)


def _as_measure(y, params: SystemParams) -> np.ndarray:
    """y as a float measure, in the shape it came: the (C, k_max+1) table,
    or for a uniform capacity also the (K+1,) vector. A cell above its
    class's capacity must hold an exact zero, NaN there failing too, and
    every entry must be finite."""
    caps = params.capacity_values
    y = np.asarray(y, dtype=float)
    shape = (len(caps), caps[-1] + 1)
    if y.shape != shape and not (params.is_uniform and y.shape == shape[1:]):
        raise ValidationError(
            f"measure of shape {y.shape} does not match capacities {caps}")
    dead = np.arange(shape[1]) > np.asarray(caps)[:, None]
    if np.any(y.reshape(shape)[dead] != 0.0):
        raise ValidationError(f"mass above a class's capacity in {caps}")
    if not np.isfinite(y).all():
        raise ValidationError("measure must be finite: a NaN or inf entry is "
                              "off the probability simplex")
    return y


def drift(y, params: SystemParams, t: float = 0.0) -> np.ndarray:
    """Mean-field drift b(y), in y's shape (see _as_measure).

    Every class row sums to zero up to float cancellation. A zero choice
    denominator drops the informed term.
    """
    y = _as_measure(y, params)
    b = _drift_into(_Kernel(params), arrival_rate(params.arrival, t), y.ravel(),
                    np.empty(y.size))
    return b.reshape(y.shape)


def _sample_grid(horizon: float, sample_dt: float) -> np.ndarray:
    """Sampling instants 0, dt, 2 dt, ... up to the horizon; a horizon of 0
    gives the start alone. More than MAX_SAMPLES instants are refused."""
    if not (0 <= horizon < math.inf and 0 < sample_dt < math.inf):
        raise ValidationError(
            f"horizon must be >= 0 and sample_dt > 0, both finite; got "
            f"{horizon} and {sample_dt}"
        )
    # floor(span) + 1 instants; an overflowing span is inf and fails too
    span = horizon / sample_dt + 1e-9
    if not span < MAX_SAMPLES:
        raise ValidationError(
            f"horizon / sample_dt gives more than {MAX_SAMPLES} sample "
            f"instants; got {horizon} and {sample_dt}"
        )
    return np.arange(math.floor(span) + 1) * sample_dt


def _check_start(y0: np.ndarray, params: SystemParams) -> None:
    """A start on the simplex that docks at most the fleet. Above gamma, the
    docked mean n.y0 (the kernel's n^T row) leaves a negative spare level
    gamma - n.y0 and runs the dropoff flow backwards. NaN fails both tests."""
    if not (abs(y0.sum() - 1.0) <= 1e-10 and y0.min() >= -1e-12):
        raise ValidationError("y0 must lie on the probability simplex")
    n = _operators(params.capacity_values, _informed_choice(params))[-1]
    docked = float(n @ y0.ravel())
    if not (docked <= params.gamma + 1e-9):
        raise ValidationError(f"y0 docks {docked:.6g} bikes per station, more "
                              f"than the fleet's gamma = {params.gamma:.6g}")


def _check_grid_and_step(t_grid, h: float) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if not (t_grid.ndim == 1 and t_grid.size >= 1 and np.isfinite(t_grid).all()
            and (np.diff(t_grid) > 0).all()):
        raise ValidationError("t_grid must be finite and strictly increasing")
    if not (0 < h <= MAX_STEP):
        raise ValidationError(f"step must be in (0, {MAX_STEP}], got {h}")
    return t_grid


def _rk4_buffered(rhs_into, z0, arrival, t_grid, h: float, dim=None,
                  guard=None, stats=None) -> np.ndarray:
    """The one RK4 stepper, over rhs_into and in buffers.

    z0 is a flat state whose first dim entries (all by default) are a
    measure; rhs_into(lam, x, out) writes dx/dt at arrival rate lam into out.
    The stage sum is one product, z + dot((1, 2, 2, 1) dt/6, k1..k4), as in
    the tests' oracle, so the measure matches it bit for bit; the weights
    are set only when dt changes (a new grid interval or a halving). lam is
    read once per stage time, stage 4's value serving the next step's stage
    1 at the same float time, and a constant rate once in all. A step whose
    measure dips below -1e-9, or whose guard(dt) is True after the first
    stage, is redone as two half steps; an accepted measure off unit mass by
    more than 1e-12 is renormalized.

    Under a constant rate a step is a fixed map of (z, dt). Once a step
    returns its input bytes, or those of two steps back (a last-bit
    2-cycle), the grid interval ends on the state the parity of its
    remaining steps picks, the bytes of stepping through. stats, a dict,
    receives the counts of what was done.
    """
    t_grid = _check_grid_and_step(t_grid, h)
    size = z0.size
    dim = size if dim is None else dim
    whole = dim == size
    k1, k2, k3, k4 = stages = np.empty((4, size))
    ys, acc = np.empty(size), np.empty(size)
    rate, autonomous = arrival.rate, arrival.is_constant
    lam = None if autonomous else arrival.fourier.at
    count = dict.fromkeys(("steps", "halvings", "stiff_halvings", "renormalized",
                           "fixed_point_exits", "cycle_exits"), 0)
    count["renormalized_mass"] = 0.0
    # a sequential sum of the measure is within dim * 1e-15 of numpy's
    # pairwise one, so below this bound numpy's cannot pass 1e-12 either
    sum_tol = 1e-12 - dim * 1e-15

    def halve(t, y, dt, out, reason):
        if dt / 2.0 < MIN_STEP:
            raise ConvergenceError(f"step size fell below {MIN_STEP} at t={t:.6g}; "
                                   "system too stiff")
        count[reason] += 1
        mid = np.empty(size)
        accept(t, y, dt / 2.0, mid)
        accept(t + dt / 2.0, mid, dt / 2.0, out)

    # the step's scalars as 0-d arrays, which numpy multiplies by faster,
    # and the RK4 weights (1, 2, 2, 1) dt/6, whose doubling is exact
    c_half, c_dt, weights = np.zeros(()), np.zeros(()), np.empty(4)
    add, mul, weigh = np.add, np.multiply, weights.dot
    set_dt = end_t = end_lam = math.nan

    def accept(t, y, dt, out):
        # one accepted RK4 step from y into out (not y); each out goes
        # positionally, which numpy parses faster than out=
        nonlocal set_dt, end_t, end_lam
        rhs_into(rate if autonomous else end_lam if t == end_t else lam(t), y, k1)
        if guard is not None and guard(dt):
            return halve(t, y, dt, out, "stiff_halvings")
        if dt != set_dt:
            c_half[()], c_dt[()], sixth = 0.5 * dt, dt, dt / 6.0
            weights[0] = weights[3] = sixth
            weights[1] = weights[2] = sixth + sixth
            set_dt = dt
        mid, end = (rate, rate) if autonomous else (lam(t + 0.5 * dt), lam(t + dt))
        end_t, end_lam = t + dt, end
        rhs_into(mid, add(mul(k1, c_half, ys), y, ys), k2)
        rhs_into(mid, add(mul(k2, c_half, ys), y, ys), k3)
        rhs_into(end, add(mul(k3, c_dt, ys), y, ys), k4)
        add(weigh(stages, out), y, out)
        head = out if whole else out[:dim]
        vals = head.tolist()
        # Python's min and sum are the cheap tests; numpy's decide
        if min(vals) < -1e-9 and head.min() < -1e-9:
            return halve(t, y, dt, out, "halvings")
        if not (abs(sum(vals) - 1.0) <= sum_tol):
            total = head.sum()
            if abs(total - 1.0) > 1e-12:
                head /= total
                count["renormalized"] += 1
                count["renormalized_mass"] += float(abs(total - 1.0))

    out = np.empty((t_grid.size, size))
    y = np.array(z0, dtype=float)
    out[0] = y
    grid = t_grid.tolist()
    for i in range(t_grid.size - 1):
        t0, t1 = grid[i], grid[i + 1]
        nsub = max(1, int(math.ceil((t1 - t0) / h - 1e-12)))
        dt = (t1 - t0) / nsub
        t = t0
        before, back = y.tobytes(), None
        for j in range(nsub):
            accept(t, y, dt, acc)
            y, acc = acc, y
            if autonomous:
                after = y.tobytes()
                if after == before:
                    count["fixed_point_exits"] += 1
                    break
                if after == back:
                    # acc holds the cycle's other state
                    count["cycle_exits"] += 1
                    if (nsub - 1 - j) % 2:
                        y, acc = acc, y
                    break
                back, before = before, after
            t += dt
        count["steps"] += j + 1
        out[i + 1] = y
    if stats is not None:
        stats.update(count)
    return out


def _mean_rhs(params: SystemParams):
    # reads the module global per integration, so a swapped-in wrapper counts
    return partial(_drift_into, _Kernel(params))


def integrate(
    y0, params: SystemParams, t_grid, h: float = DEFAULT_STEP, stats=None
) -> np.ndarray:
    """Integrate the mean-field ODE over t_grid from the measure y0.

    Returns an array of shape (len(t_grid),) + y0.shape whose first row is
    y0. A stats dict, if given, receives the counts of _rk4_buffered: steps,
    halvings, renormalizations and the mass they removed, and early exits.
    """
    y0 = _as_measure(y0, params)
    _check_start(y0, params)
    path = _rk4_buffered(_mean_rhs(params), y0.ravel(), params.arrival, t_grid,
                         h, stats=stats)
    return path.reshape((len(path),) + y0.shape)


def integrate_hetero(ym0, params: SystemParams, t_grid, h: float = DEFAULT_STEP,
                     stats=None) -> np.ndarray:
    """integrate; kept for the benchmark, whose ode workload
    (perfbench/workloads.py) calls it."""
    return integrate(ym0, params, t_grid, h, stats)


def ratio_bins(k: int, k_max: int) -> np.ndarray:
    """Ratio-histogram bin index floor(n*k_max/k) for n = 0..k."""
    if k > k_max:
        raise ValidationError(f"capacity {k} exceeds k_max {k_max}")
    return (np.arange(k + 1) * k_max) // k


def ratio_projection(tables, capacities) -> np.ndarray:
    """Fill-ratio histograms of a stack of (class, count) tables.

    tables has shape (..., C, k_max+1) in the layout of _operators, row c
    for capacity capacities[c] (ascending); cell (c, n) lands in bin
    ratio_bins(K_c, k_max)[n], the classes added in order. The bins of one
    class are distinct, so each class is one add; a uniform capacity is the
    identity. Total mass is preserved.
    """
    tables = np.asarray(tables, dtype=float)
    k_max = capacities[-1]
    if tables.shape[-2:] != (len(capacities), k_max + 1):
        raise ValidationError(
            f"tables of shape {tables.shape} do not match capacities {capacities}")
    r = np.zeros(tables.shape[:-2] + (k_max + 1,))
    for c, k in enumerate(capacities):
        r[..., ratio_bins(k, k_max)] += tables[..., c, : k + 1]
    return r


def _observable(params: SystemParams) -> str:
    """Label of ratio_projection's output: y, the measure, on one class."""
    return "y" if params.is_uniform else "r"


def ratio_histogram(counts, capacities, k_max: int) -> np.ndarray:
    """Fill-ratio histogram of stations: station i, holding counts[i] of
    capacities[i] docks, adds 1/N to bin ratio_bins(capacities[i], k_max)
    [counts[i]], in station order. Each count must be an integer in
    0..capacities[i], each capacity an integer >= 1."""
    counts, capacities = np.asarray(counts), np.asarray(capacities)
    if counts.ndim != 1 or counts.shape != capacities.shape or not counts.size:
        raise ValidationError(
            f"need equal-length, non-empty vectors of counts and capacities, got "
            f"shapes {counts.shape} and {capacities.shape}")
    ok = ((counts == np.trunc(counts)) & (capacities == np.trunc(capacities))
          & (0 <= counts) & (counts <= capacities) & (capacities >= 1))
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValidationError(
            f"station {i} holds {counts[i]} bikes of {capacities[i]} docks; "
            f"need integers 0 <= count <= capacity, capacity >= 1")
    counts = counts.astype(np.int64, copy=False)
    capacities = capacities.astype(np.int64, copy=False)
    bins = np.empty_like(counts)
    for k in np.unique(capacities).tolist():
        at = capacities == k
        bins[at] = ratio_bins(k, k_max)[counts[at]]
    r = np.zeros(k_max + 1)
    np.add.at(r, bins, 1.0 / counts.size)
    return r


def builtin_measure(params: SystemParams, name: str) -> np.ndarray:
    """Named initial measures: 'uniform' or 'mass@n'.

    Every class gets the same conditional measure; a mix gets the (class,
    count) table with row sums the class fractions, a uniform capacity the
    (K+1,) vector.
    """
    caps = params.capacity_values
    if name.startswith("mass@"):
        try:
            n = int(name.split("@", 1)[1])
        except ValueError:
            raise ValidationError(f"bad measure name {name!r}") from None
        if n < 0:
            raise ValidationError(f"mass@n needs n >= 0, got {n}")
    elif name != "uniform":
        raise ValidationError(
            f"unknown builtin measure {name!r}; use 'uniform' or 'mass@n'"
        )
    table = np.zeros((len(caps), caps[-1] + 1))
    for c, (k, q) in enumerate(zip(caps, params.capacity_fractions)):
        if name == "uniform":
            table[c, : k + 1] = q * (1.0 / (k + 1))
        else:
            table[c, min(n, k)] = q
    return table[0] if params.is_uniform else table
