"""Steady states of the mean-field limit.

One solve serves every capacity mix; a uniform capacity is the one-class
case. The equilibrium is a measure of meanfield's one type, the (class,
count) table, and its residual is meanfield.drift on that table. The fixed
point over the table collapses to two scalars that every class shares: the
spare-bike level a = gamma - sum(n y) and the choice normalizer
s = sum(g(n) y). Given (a, s), class c holds its fraction q_c of the
birth-death measure with ratios rho_k = mu*a / (lam*(1-p) + lam*p*g(k+1)/s),
cut at its capacity K_c. One builder makes that measure, the moment
kernel's class weights exp(n log(mu a) - C_n(s)), C_n the summed logs of the
pickup rates: they give every Newton round its moments, and at the root,
normalized per class, they are the returned table. Its image on the
fill-ratio bins is the equilibrium of the ratio process.

For fixed s the spare-bike equation has exactly one root a(s), found by a
safeguarded Newton iteration in log a on scalar moments of the mixture.
That leaves the scalar equation phi(s) = sum(g y(a(s), s)) - s. sum(g y) is
a g-weighted average, so it lies in [g_min, g_max] and phi(g_min) >= 0 >=
phi(g_max): one Brent search (Brent 1973, ch. 4) in log s over those ends
finds the equilibrium, which the paper shows is unique. Where g_min = 0 the
lower end is clamped above 0, and phi < 0 at both ends means no s > 0
closes the loop: the solve raises ConvergenceError saying so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ConvergenceError,
    SystemParams,
    ValidationError,
    choice_weights,
)
from .meanfield import _informed_choice, drift, ratio_projection

__all__ = [
    "EquilibriumResult",
    "solve_equilibrium",
    "solve_equilibrium_hetero",
    "entropy",
]

# residual gate on the largest |drift| over the equilibrium table
RESIDUAL_TOL = 1e-10
EPS = float(np.finfo(float).eps)
# inner Newton stops once |a - gamma + m1| <= NOISE_ULPS * eps * gamma,
# the rounding level of that sum
NOISE_ULPS = 8.0
A_MIN = 1e-300
MAX_NEWTON_ITER = 200
MAX_BRENT_ITER = 200


@dataclass(frozen=True)
class EquilibriumResult:
    """Equilibrium table with its ratio histogram, birth-death ratios and
    the two scalars.

    table has shape (C, k_max+1) in the layout of meanfield._operators: row
    c is q_c times the conditional equilibrium of capacity class c, zero
    above its capacity. r_bar = ratio_projection(table, capacities); y_bar
    is table[0] for a uniform capacity and None for a mix. rho holds the
    ratios rho_0..rho_{k_max-1} that every class shares, and residual is
    the largest |drift| over the table. s is sum(g y), and 1 at p = 0, where
    flat weights g = 1 stand in for a choice that never enters.

    iterations counts the moment evaluations of the whole solve; each is
    one inner Newton round. stats reports what the solve did: route
    ("uninformed" when s does not feed back into rho, else "bracketed"),
    brent_evals (phi evaluations, the two ends of the bracket included; 0 on
    the uninformed route), newton_iters (inner rounds, equal to iterations)
    and bisection_fallbacks (Newton steps that left their bracket or
    reversed the previous step without halving it, and were replaced by the
    bracket midpoint).
    """

    table: np.ndarray
    r_bar: np.ndarray
    y_bar: np.ndarray | None
    rho: np.ndarray
    a: float
    s: float
    residual: float
    iterations: int
    stats: dict


def _equilibrium_rate(params: SystemParams) -> float:
    """The arrival rate, constant and positive, or there is no unique fixed point."""
    if not params.arrival.is_constant:
        raise ValidationError(
            "equilibrium requires a constant arrival rate; "
            "time-varying systems have no fixed point"
        )
    if not params.arrival.rate > 0.0:
        raise ValidationError(
            f"equilibrium requires arrival.constant > 0, got {params.arrival.rate}: "
            "with no pickups every bike docks and the fixed point is not unique")
    return float(params.arrival.rate)


def _class_structure(params: SystemParams):
    caps = params.capacity_values
    fracs = params.capacity_fractions
    g = choice_weights(_informed_choice(params), caps[-1])
    return caps, np.asarray(fracs, dtype=float), g


def _log_down_sums(s, lam, p, g):
    """C_n(s) = sum_{k<n} log(lam(1-p) + lam p g_{k+1}/s) for n = 0..k_max."""
    c_n = np.zeros(len(g))
    np.cumsum(np.log(lam * (1.0 - p) + (lam * p) * g[1:] / s), out=c_n[1:])
    return c_n


def _moment_kernel(mu, g, caps, fracs):
    """Class weights and mixture moments at u = log a for one capacity mix.

    Returns (weights, moments), functions of (u, c_n), c_n =
    _log_down_sums(s, ...). weights gives the (C, k_max+1) unnormalized class
    conditionals, exp(w_n) with w_n = n (log mu + u) - C_n for n <= K_c and 0
    above, each class shifted by its own maximum of w so K in the hundreds
    cannot overflow or underflow. moments gives (m1, dm1, s): the mean count,
    its u-derivative sum_c q_c Var_c(n) and sum(g y), from one product of the
    weights with the moment basis [1, n, g, n^2]. E(n^2) - E(n)^2 can round
    below 0, so dm1 is clipped there.
    """
    n = np.arange(caps[-1] + 1.0)
    basis = np.stack((np.ones_like(n), n, g, n * n), axis=1)
    top = np.asarray(caps)
    above = np.where(n > top[:, None], -np.inf, 0.0)
    log_mu = math.log(mu)

    def weights(u, c_n):
        w = n * (log_mu + u) - c_n
        return np.exp(w - np.maximum.accumulate(w)[top, None] + above)

    def moments(u, c_n):
        z = weights(u, c_n) @ basis
        z = z[:, 1:] / z[:, :1]
        z[:, 2] -= z[:, 0] * z[:, 0]
        m1, s, dm1 = (fracs @ z).tolist()
        return m1, max(dm1, 0.0), s

    return weights, moments


def _solve_u(moments, c_n, u, gamma):
    """u = log a of the unique a in (0, gamma] with a = gamma - m1(a, s).

    m1 is strictly increasing in a, so H(u) = e^u - gamma + m1 is strictly
    increasing in u, with H'(u) = e^u + sum_c q_c Var_c(n). Newton starts at
    u and runs inside the bracket [log A_MIN, log gamma] that the signs of
    H narrow. A step is replaced by the bracket midpoint when it leaves the
    bracket (inclusive), or when it reverses the previous step without
    halving it: H can be S-shaped, and plain Newton then settles into a
    2-cycle inside the bracket. The solve stops at the current iterate once
    |H| reaches the noise floor, the bracket holds no float between its
    ends, or the next iterate would not move.

    Returns (u, sum(g y) at u, rounds, fallbacks): rounds counts the moment
    evaluations, fallbacks the midpoint substitutions.
    """
    floor = NOISE_ULPS * EPS * gamma
    lo, hi = math.log(A_MIN), math.log(gamma)
    last = 0.0
    fallbacks = 0
    for rounds in range(1, MAX_NEWTON_ITER + 1):
        a = math.exp(u)
        m1, dm1, s = moments(u, c_n)
        h = a - gamma + m1
        if not math.isfinite(h):
            raise ConvergenceError(
                "inner solve for a(s) met non-finite moments; "
                "choice weights may overflow"
            )
        if h > 0.0:
            hi = u
        else:
            lo = u
        mid = 0.5 * (lo + hi)
        nxt = u - h / (a + dm1)
        if not (lo <= nxt <= hi) or (
                (nxt - u) * last < 0.0 and abs(nxt - u) > 0.5 * abs(last)):
            nxt = mid
            fallbacks += 1
        if abs(h) <= floor or mid == lo or mid == hi or nxt == u:
            return u, s, rounds, fallbacks
        u, last = nxt, nxt - u
    raise ConvergenceError(
        f"inner Newton solve for a(s) did not converge in {MAX_NEWTON_ITER} rounds"
    )


def _brent(f, xa, xb, fa, fb):
    """Zero of f between xa and xb, where fa and fb have opposite signs.

    Brent's method: inverse quadratic or secant steps while they stay well
    inside the bracket and shrink it fast enough, bisection otherwise. The
    resolution is 2 eps in units of max(|x|, 1).
    """
    xc, fc = xa, fa
    d = e = xb - xa
    for _ in range(MAX_BRENT_ITER):
        if (fb > 0.0) == (fc > 0.0):
            xc, fc = xa, fa
            d = e = xb - xa
        if abs(fc) < abs(fb):
            xa, xb, xc = xb, xc, xb
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * EPS * max(abs(xb), 1.0)
        half = 0.5 * (xc - xb)
        if abs(half) <= tol or fb == 0.0:
            return xb
        if abs(e) >= tol and abs(fa) > abs(fb):
            r = fb / fa
            if xa == xc:
                num, den = 2.0 * half * r, 1.0 - r
            else:
                qa, qc = fa / fc, fb / fc
                num = r * (2.0 * half * qa * (qa - qc) - (xb - xa) * (qc - 1.0))
                den = (qa - 1.0) * (qc - 1.0) * (r - 1.0)
            if num > 0.0:
                den = -den
            num = abs(num)
            if 2.0 * num < min(3.0 * half * den - abs(tol * den), abs(e * den)):
                e, d = d, num / den
            else:
                d = e = half
        else:
            d = e = half
        xa, fa = xb, fb
        xb += d if abs(d) > tol else math.copysign(tol, half)
        fb = f(xb)
    raise ConvergenceError(
        f"Brent refinement of s did not converge in {MAX_BRENT_ITER} steps"
    )


def solve_equilibrium(params: SystemParams) -> EquilibriumResult:
    """Equilibrium of the mean-field ODE for any capacity mix.

    Finds (a, s) closing both consistency equations by the Newton-in-Brent
    route of the module docstring. With flat weights, which p = 0 takes
    since the choice never enters, rho does not couple back to s, so one
    inner solve settles a and s is the flat weight. Each inner solve starts
    from the previous one's root. The table, the kernel's class weights at
    the root, must pass the drift residual gate.
    """
    lam = _equilibrium_rate(params)
    if not params.fleet >= 1:
        # all mass at n = 0 is the only fixed point, with a = 0 off the log scale
        raise ValidationError(f"fleet must be >= 1, got {params.fleet}")
    caps, fracs, g = _class_structure(params)
    gamma, mu, p = params.gamma, params.mu, params.p
    g_lo, g_hi = float(g.min()), float(g.max())
    weights, moments = _moment_kernel(mu, g, caps, fracs)
    stats = {"route": "bracketed", "brent_evals": 0, "newton_iters": 0,
             "bisection_fallbacks": 0}
    u = math.log(0.5 * gamma)
    c_n = None

    def sum_gy(s):
        # sum(g y) at a(s); the root u is the next inner solve's start, and
        # (u, c_n) is the last solve's root
        nonlocal u, c_n
        c_n = _log_down_sums(s, lam, p, g)
        u, s_new, rounds, fallbacks = _solve_u(moments, c_n, u, gamma)
        stats["newton_iters"] += rounds
        stats["bisection_fallbacks"] += fallbacks
        return s_new

    def phi(x):
        stats["brent_evals"] += 1
        s = math.exp(x)
        return sum_gy(s) - s

    if g_hi - g_lo <= 1e-12 * max(g_hi, 1.0):
        stats["route"] = "uninformed"
        s = g_hi
    else:
        # where g_min = 0 the lower end is clamped away from s = 0
        x_lo = math.log(g_lo * (1.0 - 1e-12) if g_lo > 0.0 else g_hi * 1e-40)
        x_hi = math.log(g_hi)
        f_lo, f_hi = phi(x_lo), phi(x_hi)
        if f_lo < 0.0 and f_hi < 0.0:
            raise ConvergenceError(
                "no interior equilibrium: phi(s) < 0 at both ends of [g_min, "
                "g_max], so no s > 0 closes the loop (return flow mu*gamma = "
                f"{mu * gamma:.6g}, informed demand lam*p = {lam * p:.6g})")
        s = math.exp(_brent(phi, x_lo, x_hi, f_lo, f_hi))
    sum_gy(s)
    a = math.exp(u)
    w = weights(u, c_n)
    table = fracs[:, None] * (w / w.sum(axis=1, keepdims=True))
    residual = float(np.max(np.abs(drift(table, params))))
    if not (residual <= RESIDUAL_TOL):
        raise ConvergenceError(
            f"equilibrium solver did not converge; residual {residual:.3e}"
        )
    return EquilibriumResult(
        table=table, r_bar=ratio_projection(table, caps),
        y_bar=table[0] if len(caps) == 1 else None,
        rho=np.exp(math.log(mu) + u - np.diff(c_n)),
        a=a, s=s, residual=residual,
        iterations=stats["newton_iters"], stats=stats,
    )


def solve_equilibrium_hetero(params: SystemParams):
    """solve_equilibrium's (table, r_bar); kept for the benchmark, whose
    ctmc workload (perfbench/workloads.py) calls it."""
    res = solve_equilibrium(params)
    return res.table, res.r_bar


def entropy(y) -> float:
    """Shannon entropy -sum(y log y) in nats, with 0 log 0 = 0."""
    y = np.asarray(y, dtype=float)
    if not (y.min() >= -1e-9 and abs(y.sum() - 1.0) <= 1e-6):
        raise ValidationError("entropy needs a probability vector")
    pos = y[y > 0.0]
    return float(-(pos * np.log(pos)).sum())

