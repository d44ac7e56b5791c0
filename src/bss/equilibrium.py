"""Steady states of the mean-field limit and entropy diagnostics.

One solve serves every capacity mix; a uniform capacity is the one-class
case. The fixed point over the (class, count) table collapses to two
scalars that every class shares: the spare-bike level a = gamma - sum(n y)
and the choice normalizer s = sum(g(n) y). Given (a, s), class c holds its
fraction q_c of the birth-death measure with ratios
rho_k = mu*a / (lam*(1-p) + lam*p*g(k+1)/s), cut at its capacity K_c, so
solving means closing the loop on (a, s). The equilibrium of the ratio
process is that table projected onto the fill-ratio bins.

For fixed s the spare-bike equation has exactly one root a(s), found by a
safeguarded Newton iteration in log a. That leaves the scalar equation
phi(s) = sum(g y(a(s), s)) - s: a log-grid scan brackets its sign changes
and Brent's method (Brent 1973, ch. 4) refines each bracket in log s.
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
from .meanfield import (
    TINY_DENOM,
    HeterogeneousMeasure,
    _informed_choice,
    drift_hetero,
    ratio_projection,
)

__all__ = [
    "EquilibriumResult",
    "birth_death_stationary",
    "solve_equilibrium",
    "solve_equilibrium_hetero",
    "entropy",
    "relative_entropy",
    "lyapunov_derivative",
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
    one vectorized inner Newton round. stats reports what the solve did:
    route ("uninformed" when s does not feed back into rho, else
    "bracketed"), roots (candidate roots the scan found; 1 on the
    uninformed route), brent_evals (phi evaluations inside Brent),
    newton_iters (inner rounds, equal to iterations) and
    bisection_fallbacks (per-element Newton steps that left their bracket
    and were replaced by its midpoint).
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


def _birth_death(logrho, caps) -> np.ndarray:
    """Birth-death measures of every capacity class from log-ratios.

    logrho has shape (..., caps[-1]). Row c of the (..., C, caps[-1]+1)
    result is the chain cut at caps[c]: y_n is proportional to the product
    of rho_0..rho_{n-1} for n <= caps[c], normalized along the last axis,
    and zero above. Products are carried in log space so K in the hundreds
    cannot overflow.
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


def birth_death_stationary(rho) -> np.ndarray:
    """Stationary measure of a birth-death chain with up/down ratios rho.

    y_n is proportional to the product of rho_0..rho_{n-1}: the one-class
    case of _birth_death.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1 or rho.size < 1:
        raise ValidationError("rho must be a nonempty vector")
    if not np.all(np.isfinite(rho) & (rho > 0.0)):
        raise ValidationError("rho must be strictly positive and finite")
    return _birth_death(np.log(rho), (rho.size,))[0]


def _require_constant(params: SystemParams) -> float:
    if not params.arrival.is_constant:
        raise ValidationError(
            "equilibrium requires a constant arrival rate; "
            "time-varying systems have no fixed point"
        )
    return float(params.arrival.rate)


def _class_structure(params: SystemParams):
    caps = params.capacity_values
    fracs = params.capacity_fractions
    g = choice_weights(_informed_choice(params), caps[-1])
    return caps, np.asarray(fracs, dtype=float), g


def _log_rho(a, s, lam, mu, p, g):
    """log rho_k for k = 0..k_max-1, broadcasting over leading axes of a, s."""
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    down = lam * (1.0 - p) + (lam * p) * g[1:] / s[..., None]
    return np.log(mu * a)[..., None] - np.log(down)


def _mixture_moments(a, s, lam, mu, p, g, caps, fracs):
    """Mean count m1, its log-a derivative and refreshed normalizer sum(g y).

    a, s may be vectors (solver grids); the class conditionals come from
    _birth_death and are mixed with the class fractions. Every log rho_k moves
    one-for-one with log a, so each class conditional is an exponential
    family in n and dm1/dlog(a) = sum_c q_c Var_c(n).
    """
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

    m1 is strictly increasing in a, so H(u) = e^u - gamma + m1(e^u, s) is
    strictly increasing in u = log a, with H'(u) = e^u + sum_c q_c Var_c(n).
    Each element runs Newton in u inside its own bracket [log A_MIN,
    log gamma]; a step that leaves the bracket (inclusive) is replaced by
    the bracket midpoint. An element freezes at its current iterate once
    |H| reaches the noise floor, its bracket holds no float between the
    ends, or its next iterate would not move.

    Returns (a, sum(g y) at a, rounds, fallbacks): rounds counts the moment
    evaluations, fallbacks the midpoint substitutions over all elements.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    floor = NOISE_ULPS * EPS * gamma
    lo = np.full(s.shape, math.log(A_MIN))
    hi = np.full(s.shape, math.log(gamma))
    u = np.full(s.shape, math.log(0.5 * gamma))
    a_out = np.empty(s.shape)
    s_out = np.empty(s.shape)
    live = np.arange(s.size)
    rounds = fallbacks = 0
    while live.size:
        if rounds == MAX_NEWTON_ITER:
            raise ConvergenceError(
                f"inner Newton solve for a(s) did not converge in {rounds} rounds"
            )
        rounds += 1
        ul = u[live]
        a = np.exp(ul)
        m1, dm1, s_new = _mixture_moments(a, s[live], lam, mu, p, g, caps, fracs)
        h = a - gamma + m1
        if not np.all(np.isfinite(h)):
            raise ConvergenceError(
                "inner solve for a(s) met non-finite moments; "
                "choice weights may overflow"
            )
        up = h > 0.0
        lo_l = np.where(up, lo[live], ul)
        hi_l = np.where(up, ul, hi[live])
        step = ul - h / (a + dm1)
        mid = 0.5 * (lo_l + hi_l)
        inside = (step >= lo_l) & (step <= hi_l)
        nxt = np.where(inside, step, mid)
        fallbacks += int(inside.size - np.count_nonzero(inside))
        collapsed = (mid == lo_l) | (mid == hi_l)
        done = (np.abs(h) <= floor) | collapsed | (nxt == ul)
        frozen = live[done]
        a_out[frozen] = a[done]
        s_out[frozen] = s_new[done]
        keep = ~done
        live = live[keep]
        lo[live] = lo_l[keep]
        hi[live] = hi_l[keep]
        u[live] = nxt[keep]
    return a_out, s_out, rounds, fallbacks


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

    Finds (a, s) closing both consistency equations. With flat weights,
    which p = 0 takes since the choice never enters, rho does not couple
    back to s, so one inner solve settles a and s is the flat weight. Otherwise
    the inner root a(s) is unique and continuous, so the equilibria are the
    roots of phi(s) = sum(g y(a(s), s)) - s: a log grid of admissible s
    brackets every sign change and Brent refines each in log s. Candidates
    only count once the assembled table passes the drift residual gate,
    and the lowest residual wins.
    """
    lam = _require_constant(params)
    caps, fracs, g = _class_structure(params)
    gamma, mu, p = params.gamma, params.mu, params.p
    g_lo, g_hi = float(g.min()), float(g.max())
    stats = {"route": "bracketed", "roots": 0, "brent_evals": 0,
             "newton_iters": 0, "bisection_fallbacks": 0}

    def a_for(s):
        a, s_new, rounds, fallbacks = _solve_a_for_s(
            s, gamma, lam, mu, p, g, caps, fracs
        )
        stats["newton_iters"] += rounds
        stats["bisection_fallbacks"] += fallbacks
        return a, s_new

    def best_of(candidates):
        best = (math.inf,)
        for a, s in candidates:
            logrho = _log_rho(a, s, lam, mu, p, g)
            table = fracs[:, None] * _birth_death(logrho, caps)
            b = drift_hetero(HeterogeneousMeasure(caps, table), params)
            residual = float(np.max(np.abs(b)))
            if residual < best[0]:
                best = (residual, a, s, logrho, table)
        if not (best[0] <= RESIDUAL_TOL):
            raise ConvergenceError(
                f"equilibrium solver did not converge; best residual {best[0]:.3e}"
            )
        residual, a, s, logrho, table = best
        return EquilibriumResult(
            table=table, r_bar=ratio_projection(table, caps),
            y_bar=table[0] if len(caps) == 1 else None, rho=np.exp(logrho),
            a=float(a), s=float(s), residual=residual,
            iterations=stats["newton_iters"], stats=stats,
        )

    if g_hi - g_lo <= 1e-12 * max(g_hi, 1.0):
        stats.update(route="uninformed", roots=1)
        return best_of([(float(a_for(g_hi)[0][0]), g_hi)])

    # phi is continuous in s because the inner root is unique, so
    # equilibria are brackets of a sign change
    lo = max(g_lo * (1.0 - 1e-12), g_hi * 1e-40)
    if lo <= 0.0:
        lo = g_hi * 1e-40
    decades = max(np.log10(g_hi / lo), 1.0)
    n_pts = int(min(max(48 * decades, 400), 4000))
    x_grid = np.linspace(math.log(lo), math.log(g_hi), n_pts)
    s_grid = np.exp(x_grid)
    _, s_out = a_for(s_grid)
    phi = s_out - s_grid

    def phi_at(x):
        s = math.exp(x)
        stats["brent_evals"] += 1
        return float(a_for(s)[1][0]) - s

    sign = np.sign(phi)
    roots = [float(x_grid[i]) for i in np.flatnonzero(sign == 0.0)]
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
        roots.append(_brent(phi_at, float(x_grid[i]), float(x_grid[i + 1]),
                            float(phi[i]), float(phi[i + 1])))
    stats["roots"] = len(roots)
    candidates = []
    for x in sorted(roots):
        s_root = math.exp(x)
        candidates.append((float(a_for(s_root)[0][0]), s_root))
    return best_of(candidates)


def solve_equilibrium_hetero(params: SystemParams):
    """The equilibrium as a (HeterogeneousMeasure, fill-ratio histogram)
    pair: solve_equilibrium's table and r_bar."""
    res = solve_equilibrium(params)
    return HeterogeneousMeasure(params.capacity_values, res.table), res.r_bar


def entropy(y) -> float:
    """Shannon entropy -sum(y log y) in nats, with 0 log 0 = 0."""
    y = np.asarray(y, dtype=float)
    if not (y.min() >= -1e-9 and abs(y.sum() - 1.0) <= 1e-6):
        raise ValidationError("entropy needs a probability vector")
    pos = y[y > 0.0]
    return float(-(pos * np.log(pos)).sum())


def _reference_measure(y, params: SystemParams):
    """nu_{rho(y)}: birth-death measure built from the rates frozen at y."""
    lam = _require_constant(params)
    k = params.uniform_capacity
    y = np.asarray(y, dtype=float)
    if y.shape != (k + 1,):
        raise ValidationError(f"measure must have length {k + 1}, got {y.shape}")
    if not (y.min() > 0.0):
        raise ValidationError("boundary measure: reference needs interior y")
    g = choice_weights(_informed_choice(params), k)
    a = params.gamma - float(np.arange(k + 1) @ y)
    if not (a > 0.0):
        raise ValidationError(
            "docked mean exceeds gamma; reference birth-death chain undefined"
        )
    s = float(g @ y)
    p = params.p
    if p > 0.0 and s <= TINY_DENOM:
        p = 0.0
    rho = np.exp(_log_rho(a, s if s > TINY_DENOM else 1.0, lam, params.mu, p, g))
    return birth_death_stationary(rho), rho, a, s


def relative_entropy(y, params: SystemParams) -> float:
    """h(y) = sum y_n log(y_n / nu_n) against the frozen-rate reference.

    Zero exactly at the equilibrium, positive elsewhere (Gibbs inequality).
    """
    nu, _, _, _ = _reference_measure(y, params)
    y = np.asarray(y, dtype=float)
    return float((y * (np.log(y) - np.log(nu))).sum())


def lyapunov_derivative(y, params: SystemParams) -> float:
    """Entropy-production rate of the relative entropy along the flow.

    Dirichlet form over the birth-death edges: with f = y/nu and edge flux
    q_k = nu_k * mu * a(y),

        sum_k -q_k (f_{k+1} - f_k)(log f_{k+1} - log f_k) <= 0,

    vanishing iff f is constant, i.e. y is the equilibrium.
    """
    nu, _, a, _ = _reference_measure(y, params)
    y = np.asarray(y, dtype=float)
    f = y / nu
    logf = np.log(f)
    q = nu[:-1] * (params.mu * a)
    return float(-(q * np.diff(f) * np.diff(logf)).sum())
