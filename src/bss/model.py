"""Domain types, parameter validation, choice functions, and arrival rates.

Shared by every other module. All types are immutable after validation and
safe to share across concurrent tasks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "ConvergenceError",
    "ChoiceSpec",
    "FourierRateModel",
    "ArrivalModel",
    "SystemParams",
    "choice_weight",
    "choice_weights",
    "arrival_rate",
    "validate_params",
]

# Grid step (hours) for the non-negativity scan of time-varying rates.
RATE_GRID_STEP = 0.01

# Resolution of the non-negativity check of Fourier rates, as a fraction of
# |c0| + sum_j(|b_j| + |c_j|): only a value below minus this counts as
# negative, so a minimum of exactly zero passes despite rounding.
RATE_DIP_RESOLUTION = 1e-9

# config key and JSON type of each choice kind's parameter; kind none has none
CHOICE_PARAMS = {"exponential": ("theta", float), "minimum": ("c", int),
                 "polynomial": ("alpha", float)}
CHOICE_KINDS = (*CHOICE_PARAMS, "none")


class ValidationError(ValueError):
    """A configuration or argument violates a documented contract."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without meeting tolerance."""


@dataclass(frozen=True)
class ChoiceSpec:
    """Choice function g mapping a bike count to a pickup weight.

    kind is one of exponential (g(x)=e^{theta x}), minimum (g(x)=min(x,c)),
    polynomial (g(x)=x^alpha, with 0^0=1), or none (g=1). param holds theta,
    c, or alpha; it must be None for kind none.
    """

    kind: str
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in CHOICE_KINDS:
            raise ValidationError(
                f"choice.kind must be one of {CHOICE_KINDS}, got {self.kind!r}"
            )
        if self.kind == "none":
            if self.param is not None:
                raise ValidationError("choice.param must be absent for kind 'none'")
            return
        if self.param is None:
            raise ValidationError(f"choice.param is required for kind {self.kind!r}")
        p = float(self.param)
        if not math.isfinite(p):
            raise ValidationError(f"choice.param must be finite, got {p}")
        if self.kind != "minimum" and p < 0:
            raise ValidationError(
                f"choice {CHOICE_PARAMS[self.kind][0]} must be >= 0, got {p}")
        if self.kind == "minimum":
            if p < 1 or p != int(p):
                raise ValidationError(f"choice c must be an integer >= 1, got {self.param}")
            object.__setattr__(self, "param", int(p))


@dataclass(frozen=True)
class FourierRateModel:
    """Periodic rate lambda(t) = intercept + sum_j b1_j sin(2pi t j/w) + b2_j cos(2pi t j/w)."""

    intercept: float
    sin_coeffs: tuple[float, ...] = ()
    cos_coeffs: tuple[float, ...] = ()
    period: float = 24.0
    # (j, b_j, c_j) per live harmonic, one whose coefficients are not both
    # zero: the terms at(), the array rate and the dip search add up. Derived
    # from the coefficients, so it takes no part in equality, hashing or repr
    _terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "period", float(self.period))
        if len(self.sin_coeffs) != len(self.cos_coeffs):
            raise ValidationError(
                "fourier sin and cos coefficient lists must have equal length, got "
                f"{len(self.sin_coeffs)} and {len(self.cos_coeffs)}"
            )
        if not (self.period > 0):
            raise ValidationError(f"fourier period must be > 0, got {self.period}")
        object.__setattr__(self, "_terms", tuple(
            (j, b, c) for j, b, c in zip(range(1, self.order + 1), self.sin_coeffs,
                                         self.cos_coeffs) if b or c))

    @property
    def order(self) -> int:
        return len(self.sin_coeffs)

    def to_config(self) -> dict:
        """The arrival.fourier block that validates back to this model."""
        return {"period": self.period, "intercept": self.intercept,
                "sin": list(self.sin_coeffs), "cos": list(self.cos_coeffs)}

    def at(self, t: float) -> float:
        """lambda(t) at one scalar instant: the path every ODE stage takes."""
        w = 2.0 * math.pi * float(t) / self.period
        val = self.intercept
        sin, cos = math.sin, math.cos
        for j, b, c in self._terms:
            wj = w * j
            val = val + b * sin(wj) + c * cos(wj)
        return val


@dataclass(frozen=True)
class ArrivalModel:
    """Arrival-rate model: exactly one of a constant rate or a Fourier model."""

    rate: float | None = None
    fourier: FourierRateModel | None = None

    def __post_init__(self) -> None:
        if (self.rate is None) == (self.fourier is None):
            raise ValidationError("arrival model needs exactly one of 'constant' or 'fourier'")
        if self.rate is not None:
            r = float(self.rate)
            if not math.isfinite(r) or r < 0:
                raise ValidationError(f"arrival.constant rate must be >= 0, got {self.rate}")
            object.__setattr__(self, "rate", r)

    @property
    def is_constant(self) -> bool:
        return self.rate is not None

    def max_rate(self) -> float:
        """Upper bound of the rate over one period (exact for constant models).

        A grid maximum alone can undershoot between grid points, so this is
        the smaller of two bounds that always hold: |c0| + sum_j(|b_j| + |c_j|),
        and the grid maximum plus L*step/2, where L = (2pi/period) *
        sum_j j(|b_j| + |c_j|) bounds |lambda'| and no instant lies further
        than step/2 from a grid point.
        """
        if self.rate is not None:
            return self.rate
        f = self.fourier
        ts = _period_grid(f)
        analytic, slope = _rate_bounds(f)
        step = f.period / (len(ts) - 1)
        sampled = float(np.max(arrival_rate(self, ts))) + slope * step / 2.0
        return min(analytic, sampled)


@dataclass(frozen=True)
class SystemParams:
    """Validated network parameters.

    Stations are split into capacity classes given by capacity_values (sorted
    ascending) and capacity_fractions (positive, summing to 1). A uniform
    network has a single class. fleet is the total number of bikes M; gamma is
    the derived per-station density M/N.
    """

    n_stations: int
    fleet: int
    mu: float
    p: float
    arrival: ArrivalModel
    choice: ChoiceSpec
    capacity_values: tuple[int, ...]
    capacity_fractions: tuple[float, ...]

    @property
    def gamma(self) -> float:
        return self.fleet / self.n_stations

    @property
    def k_max(self) -> int:
        return self.capacity_values[-1]

    @property
    def is_uniform(self) -> bool:
        return len(self.capacity_values) == 1

    @property
    def uniform_capacity(self) -> int:
        if not self.is_uniform:
            raise ValidationError("network has heterogeneous capacities")
        return self.capacity_values[0]

    def class_sizes(self) -> np.ndarray:
        """Station count per capacity class by the largest-remainder rule."""
        n = self.n_stations
        fr = np.asarray(self.capacity_fractions)
        base = np.floor(fr * n).astype(int)
        short = n - int(base.sum())
        if short > 0:
            order = np.argsort(-(fr * n - base), kind="stable")
            base[order[:short]] += 1
        return base

    def to_config(self) -> dict:
        """JSON-able config that validates back to these parameters: rates
        and coefficients as floats, counts, capacities and c as ints."""
        cap: object
        if self.is_uniform:
            cap = int(self.capacity_values[0])
        else:
            cap = {
                "values": [int(v) for v in self.capacity_values],
                "fractions": [float(v) for v in self.capacity_fractions],
            }
        if self.arrival.is_constant:
            arr: dict = {"constant": float(self.arrival.rate)}
        else:
            arr = {"fourier": self.arrival.fourier.to_config()}
        ch: dict = {"kind": self.choice.kind}
        if self.choice.kind in CHOICE_PARAMS:
            key, kind = CHOICE_PARAMS[self.choice.kind]
            ch[key] = kind(self.choice.param)
        return {
            "n_stations": int(self.n_stations),
            "fleet": int(self.fleet),
            "capacity": cap,
            "mu": float(self.mu),
            "p": float(self.p),
            "arrival": arr,
            "choice": ch,
        }


def choice_weight(spec: ChoiceSpec, n):
    """Evaluate g(n); accepts a scalar or an integer array, n >= 0."""
    arr = np.asarray(n)
    if np.any(arr < 0):
        raise ValidationError(f"bike count must be >= 0, got {np.min(arr)}")
    if spec.kind == "exponential":
        out = np.exp(float(spec.param) * arr.astype(float))
    elif spec.kind == "minimum":
        out = np.minimum(arr, spec.param).astype(float)
    elif spec.kind == "polynomial":
        # numpy defines 0.0**0.0 = 1.0, which is the convention used here
        out = np.power(arr.astype(float), float(spec.param))
    else:
        out = np.ones(arr.shape, dtype=float)
    if np.ndim(n) == 0:
        return float(out)
    return out


@lru_cache(maxsize=128)
def choice_weights(spec: ChoiceSpec, k_max: int) -> np.ndarray:
    """g(n) for n = 0..k_max, cached and read-only: the one table of choice
    weights that the simulator, mean-field, diffusion, equilibrium and
    harness layers share."""
    w = choice_weight(spec, np.arange(k_max + 1))
    w.setflags(write=False)
    return w


def arrival_rate(model: ArrivalModel, t):
    """Rate lambda(t) in trips per station per hour; t may be scalar or array."""
    if model.rate is not None:
        if np.ndim(t) == 0:
            return model.rate
        return np.full(np.shape(t), model.rate)
    f = model.fourier
    if np.ndim(t) == 0:
        return f.at(t)
    return _harmonic_sum(f, np.asarray(t, dtype=float))


def _harmonic_sum(f: FourierRateModel, tt: np.ndarray) -> np.ndarray:
    """lambda(tt) at an array of instants: the intercept plus the terms of
    the live harmonics."""
    j, b, c = np.array(f._terms, dtype=float).reshape(-1, 3).T
    w = (2.0 * math.pi / f.period) * tt[..., None] * j
    return f.intercept + np.sin(w) @ b + np.cos(w) @ c


def _period_grid(f: FourierRateModel) -> np.ndarray:
    """One period sampled at a step of at most RATE_GRID_STEP, ends included."""
    return np.linspace(0.0, f.period, int(math.ceil(f.period / RATE_GRID_STEP)) + 1)


def _rate_bounds(f: FourierRateModel) -> tuple[float, float]:
    """|c0| + sum_j(|b_j| + |c_j|), which bounds |lambda|, and
    L = (2pi/period) * sum_j j(|b_j| + |c_j|), which bounds |lambda'|."""
    mags = [abs(b) + abs(c) for b, c in zip(f.sin_coeffs, f.cos_coeffs)]
    slope = 2.0 * math.pi / f.period * sum(j * m for j, m in enumerate(mags, 1))
    return abs(f.intercept) + sum(mags), slope


def _first_negative(model: ArrivalModel):
    """(t, rate) of the first negative rate found over one period, or None.

    The period grid comes first. Every instant lies within half a grid step
    of a grid point and the rate moves by at most L per hour, so only a cell
    whose centre value is below L times its half-width can hold a negative
    rate; such cells are halved until a negative value turns up or L times
    the half-width falls below the resolution.
    """
    f = model.fourier
    scale, slope = _rate_bounds(f)
    tol = RATE_DIP_RESOLUTION * scale
    ts = _period_grid(f)
    block = ts.size  # instants per evaluation, which bounds the temporaries
    half = f.period / (ts.size - 1) / 2.0
    while ts.size:
        vals = np.concatenate([_harmonic_sum(f, ts[i : i + block])
                               for i in range(0, ts.size, block)])
        neg = np.flatnonzero(~(vals >= -tol))  # NaN counts as negative
        if neg.size:
            return float(ts[neg[0]]), float(vals[neg[0]])
        if not (slope * half > tol):
            return None
        suspect = ts[vals - slope * half < 0]
        half /= 2.0
        ts = np.sort(np.concatenate([suspect - half, suspect + half]) % f.period)
    return None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _require_finite_weights(n: int, choice: ChoiceSpec, k_max: int) -> None:
    # n * g(k_max) bounds the simulator's sum of W_n g(n), g being
    # nondecreasing for every kind
    with np.errstate(over="ignore"):
        top = n * choice_weight(choice, k_max)
    _require(
        math.isfinite(top),
        f"choice weights overflow: n_stations * g({k_max}) = {top} is not finite",
    )


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{field} must be a number, got {value!r}")
    # an exact comparison for ints: NaN, infinities and huge ints all fail
    _require(abs(value) <= sys.float_info.max, f"{field} must be finite")
    if float(value) != int(value):
        raise ValidationError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, field: str) -> float:
    # float() of an integer beyond the float range raises OverflowError, which
    # is no ValueError; range and sign stay the caller's checks
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(
            f"{field} must be finite, got an integer beyond the float range"
        ) from None


def _integer_fleet(gamma: float, n: int) -> int:
    """The fleet gamma * n, which must be finite and within 1e-6 of an integer."""
    fleet_f = gamma * n
    _require(
        math.isfinite(fleet_f) and abs(fleet_f - round(fleet_f)) <= 1e-6,
        f"gamma={gamma} times n_stations={n} is not an integer fleet",
    )
    return int(round(fleet_f))


def _parse_choice(raw, path: str) -> ChoiceSpec:
    _require(isinstance(raw, Mapping), f"{path} must be a mapping")
    kind = raw.get("kind")
    _require(kind in CHOICE_KINDS, f"{path}.kind must be one of {CHOICE_KINDS}, got {kind!r}")
    param_key = CHOICE_PARAMS.get(kind, (None,))[0]
    extra = set(raw) - {"kind", param_key}
    _require(not extra, f"unknown keys in {path}: {sorted(extra)}")
    if param_key is None:
        return ChoiceSpec(kind=kind)
    _require(param_key in raw, f"{path}.{param_key} is required for kind {kind!r}")
    param = _as_float(raw[param_key], f"{path}.{param_key}")
    return ChoiceSpec(kind=kind, param=param)


def _parse_arrival(raw, path: str) -> ArrivalModel:
    _require(isinstance(raw, Mapping), f"{path} must be a mapping")
    keys = set(raw)
    _require(
        keys in ({"constant"}, {"fourier"}),
        f"{path} must have exactly one of 'constant' or 'fourier', got {sorted(keys)}",
    )
    if "constant" in raw:
        rate = raw["constant"]
        _require(
            isinstance(rate, (int, float)) and not isinstance(rate, bool),
            f"{path}.constant must be a number",
        )
        return ArrivalModel(rate=_as_float(rate, f"{path}.constant"))
    f = raw["fourier"]
    _require(isinstance(f, Mapping), f"{path}.fourier must be a mapping")
    extra = set(f) - {"period", "intercept", "sin", "cos"}
    _require(not extra, f"unknown keys in {path}.fourier: {sorted(extra)}")
    _require("intercept" in f, f"{path}.fourier.intercept is required")
    fourier = f"{path}.fourier"
    sin = tuple(_as_float(v, f"{fourier}.sin[{j}]")
                for j, v in enumerate(f.get("sin", ())))
    cos = tuple(_as_float(v, f"{fourier}.cos[{j}]")
                for j, v in enumerate(f.get("cos", ())))
    model = FourierRateModel(
        intercept=_as_float(f["intercept"], f"{fourier}.intercept"),
        sin_coeffs=sin,
        cos_coeffs=cos,
        period=_as_float(f.get("period", 24.0), f"{fourier}.period"),
    )
    return ArrivalModel(fourier=model)


def _parse_capacity(raw, path: str) -> tuple[tuple[int, ...], tuple[float, ...]]:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        k = _as_int(raw, path)
        _require(k >= 1, f"{path} must be >= 1, got {k}")
        return (k,), (1.0,)
    _require(isinstance(raw, Mapping), f"{path} must be an integer or a mapping")
    extra = set(raw) - {"values", "fractions"}
    _require(not extra, f"unknown keys in {path}: {sorted(extra)}")
    _require(
        "values" in raw and "fractions" in raw,
        f"{path} mapping needs 'values' and 'fractions'",
    )
    values = [
        _as_int(v, f"{path}.values[{i}]") for i, v in enumerate(raw["values"])
    ]
    fractions = [
        _as_float(v, f"{path}.fractions[{i}]") for i, v in enumerate(raw["fractions"])
    ]
    _require(len(values) > 0, f"{path}.values must be non-empty")
    _require(
        len(values) == len(fractions),
        f"{path}.values and {path}.fractions must have equal length",
    )
    _require(all(v >= 1 for v in values), f"{path}.values must all be >= 1")
    _require(len(set(values)) == len(values), f"{path}.values must be distinct")
    _require(all(f > 0 for f in fractions), f"{path}.fractions must all be > 0")
    total = sum(fractions)
    _require(
        abs(total - 1.0) <= 1e-9,
        f"{path}.fractions must sum to 1, got {total!r}",
    )
    fractions = [f / total for f in fractions]
    order = sorted(range(len(values)), key=lambda i: values[i])
    return (
        tuple(values[i] for i in order),
        tuple(fractions[i] for i in order),
    )


def validate_params(raw) -> SystemParams:
    """Validate a raw configuration tree (or re-validate a SystemParams).

    Reconciles fleet and gamma, normalizes the capacity distribution, and
    checks the arrival rate is non-negative over one period: on a dense
    grid, then between grid points wherever the rate's slope bound leaves
    room for a dip. Idempotent: passing a SystemParams returns it unchanged.
    """
    if isinstance(raw, SystemParams):
        return raw
    _require(isinstance(raw, Mapping), "config must be a mapping")
    known = {"n_stations", "fleet", "gamma", "capacity", "mu", "p", "arrival", "choice"}
    extra = set(raw) - known
    _require(not extra, f"unknown config keys: {sorted(extra)}")
    for key in ("n_stations", "capacity", "mu", "p", "arrival", "choice"):
        _require(key in raw, f"missing config key: {key}")

    n = _as_int(raw["n_stations"], "n_stations")
    _require(n >= 1, f"n_stations must be >= 1, got {n}")

    _require(
        "fleet" in raw or "gamma" in raw,
        "one of fleet or gamma is required",
    )
    if "fleet" in raw:
        fleet = _as_int(raw["fleet"], "fleet")
        _require(fleet >= 0, f"fleet must be >= 0, got {fleet}")
        if "gamma" in raw:
            g = _as_float(raw["gamma"], "gamma")
            _require(
                abs(g * n - fleet) <= 1e-6 * max(1.0, fleet),
                f"fleet={fleet} and gamma={g} disagree for n_stations={n}",
            )
    else:
        g = _as_float(raw["gamma"], "gamma")
        _require(g >= 0, f"gamma must be >= 0, got {g}")
        fleet = _integer_fleet(g, n)

    mu = _as_float(raw["mu"], "mu")
    _require(math.isfinite(mu) and mu > 0, f"mu must be > 0, got {raw['mu']!r}")
    p = _as_float(raw["p"], "p")
    _require(0.0 <= p <= 1.0, f"p must be in [0, 1], got {raw['p']!r}")

    values, fractions = _parse_capacity(raw["capacity"], "capacity")
    arrival = _parse_arrival(raw["arrival"], "arrival")
    choice = _parse_choice(raw["choice"], "choice")

    if p > 0.0:
        _require_finite_weights(n, choice, values[-1])

    if not arrival.is_constant:
        neg = _first_negative(arrival)
        if neg is not None:
            raise ValidationError(
                f"arrival rate is negative at t={neg[0]:.6g} h (value {neg[1]:.6g})"
            )
        # an infinite intercept passes the dip search, whose resolution it sets
        _require(math.isfinite(_rate_bounds(arrival.fourier)[0]),
                 "arrival.fourier coefficients must be finite")

    return SystemParams(
        n_stations=n,
        fleet=fleet,
        mu=mu,
        p=p,
        arrival=arrival,
        choice=choice,
        capacity_values=values,
        capacity_fractions=fractions,
    )
