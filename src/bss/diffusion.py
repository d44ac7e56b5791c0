"""Gaussian fluctuation layer around the mean-field limit.

The centered, sqrt(N)-scaled empirical measure converges to a linear SDE
driven by the drift Jacobian with instantaneous covariance given by the jump
brackets of the CTMC. This module evaluates both matrices and integrates the
resulting covariance ODE  Sigma' = J Sigma + Sigma J^T + A  alongside the
mean-field trajectory.

Both matrices come from the mean-field drift kernel: the product z = M y
with the shift operators of meanfield._operators that gives the drift also
gives J and A, and each covariance stage makes that product once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConvergenceError, SystemParams, ValidationError, arrival_rate
from .meanfield import (
    MIN_STEP,
    TINY_DENOM,
    _check_grid_and_step,
    _drift_into,
    _Kernel,
)

__all__ = [
    "CovarianceState",
    "jacobian",
    "bracket_matrix",
    "integrate_covariance",
    "ratio_covariance",
]


@dataclass(frozen=True)
class CovarianceState:
    """Fluctuation covariance at one instant."""

    sigma: np.ndarray
    t: float


def _require_uniform(params: SystemParams) -> int:
    if not params.is_uniform:
        raise ValidationError("fluctuation matrices need a uniform capacity")
    return params.uniform_capacity


def _linearize(y, kern: _Kernel, params: SystemParams, t: float):
    """Drift at y, leaving z = M y and the block weights in kern; a vanished
    choice normaliser raises, as J and A need the informed term."""
    b = _drift_into(y, kern, arrival_rate(params.arrival, t), np.empty(y.size))
    if params.p > 0.0 and not (kern.z[-2] > TINY_DENOM):
        raise ValidationError(
            "choice denominator vanished; interior measure required"
        )
    return b


def _kernel_at(y, params: SystemParams, t: float) -> _Kernel:
    """A kernel of its own, linearized at y."""
    _require_uniform(params)
    kern = _Kernel(params)
    _linearize(y, kern, params, t)
    return kern


def _jacobian(kern) -> np.ndarray:
    # J = lam(1-p) D + (lam p/s) DG + a U - mu (Uy) n^T - (lam p/s^2) (DGy) g^T
    size = kern.stack.shape[1]
    coef, blocks, (g, n) = kern.coef, kern.blocks, kern.stack[-2:]
    j = np.dot(coef, kern.stack[: 3 * size].reshape(3, -1)).reshape(size, size)
    j -= np.outer(blocks[2], kern.mu * n)
    if coef[1] != 0.0:
        j -= np.outer(blocks[1], (coef[1] / kern.z[-2]) * g)
    return j


def _bracket(y, kern) -> np.ndarray:
    # A = D diag(f) D^T + U diag(u) U^T over the pickup flows f and the
    # dropoff flows u out of each cell
    size = kern.stack.shape[1]
    d, u, g = kern.stack[:size], kern.stack[2 * size : 3 * size], kern.stack[-2]
    coef = kern.coef
    f = coef[0] * y + coef[1] * (g * y)
    return (d * f) @ d.T + (u * (coef[2] * y)) @ u.T


def jacobian(y: np.ndarray, params: SystemParams, t: float = 0.0) -> np.ndarray:
    """Drift Jacobian J[n, i] = d b_n / d y_i, assembled in closed form.

    The drift b = lam(1-p) Dy + (lam p/s) DGy + a Uy is linear in y apart
    from a = mu(gamma - n.y) and s = g.y, so J is the three shift operators
    plus two dense rank-one pieces: -mu (Uy) n^T and -(lam p/s^2) (DGy) g^T.
    """
    return _jacobian(_kernel_at(np.asarray(y, dtype=float), params, t))


def bracket_matrix(y: np.ndarray, params: SystemParams, t: float = 0.0) -> np.ndarray:
    """Instantaneous covariance rate of the scaled fluctuations.

    Each pickup at a station holding n bikes moves empirical mass n -> n-1,
    each dropoff n -> n+1; the bracket is the sum of rate * (e_to - e_from)
    (e_to - e_from)^T, that is D diag(f) D^T + U diag(u) U^T over the pickup
    flows f and dropoff flows u: a tridiagonal matrix with zero row sums.
    """
    y = np.asarray(y, dtype=float)
    return _bracket(y, _kernel_at(y, params, t))


def _rk4_fixed(fun, z0: np.ndarray, t_grid: np.ndarray, h: float, guard=None):
    """Fixed-step RK4 over a packed state with optional per-step guard.

    guard(z) -> bool flags an unacceptable step; the step is then retried at
    half size, failing below the minimum step.
    """
    t_grid = _check_grid_and_step(t_grid, h)
    out = np.empty((len(t_grid), z0.size))
    z = np.asarray(z0, dtype=float).copy()
    out[0] = z
    t = t_grid[0]

    def advance(t, z, dt):
        k1 = fun(t, z)
        k2 = fun(t + 0.5 * dt, z + 0.5 * dt * k1)
        k3 = fun(t + 0.5 * dt, z + 0.5 * dt * k2)
        k4 = fun(t + dt, z + dt * k3)
        cand = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if guard is not None and guard(cand):
            if dt < MIN_STEP:
                raise ConvergenceError(
                    f"covariance integration step underflow below {MIN_STEP}"
                )
            half = advance(t, z, 0.5 * dt)
            return advance(t + 0.5 * dt, half, 0.5 * dt)
        return cand

    for seg in range(len(t_grid) - 1):
        span = t_grid[seg + 1] - t_grid[seg]
        n_sub = max(1, int(np.ceil(span / h - 1e-12)))
        dt = span / n_sub
        for _ in range(n_sub):
            z = advance(t, z, dt)
            t += dt
        t = t_grid[seg + 1]
        out[seg + 1] = z
    return out


def integrate_covariance(
    y0: np.ndarray,
    sigma0: np.ndarray,
    params: SystemParams,
    t_grid,
    h: float = 0.005,
    zero_bracket: bool = False,
) -> list[CovarianceState]:
    """Co-integrate the mean-field path and its fluctuation covariance.

    Solves y' = b(y), Sigma' = J(y) Sigma + Sigma J(y)^T + A(y) as one packed
    RK4 system so the covariance sees the order-4 accurate mean at every
    stage. zero_bracket drops the A(y) source term; that turns the equation
    into pure transport and is useful as a should-fail control next to
    Monte-Carlo covariance estimates.
    """
    k = _require_uniform(params)
    dim = k + 1
    y0 = np.asarray(y0, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)
    if y0.shape != (dim,):
        raise ValidationError(f"y0 must have length {dim}")
    if sigma0.shape != (dim, dim):
        raise ValidationError(f"sigma0 must be {dim}x{dim}")
    if np.abs(sigma0 - sigma0.T).max() > 1e-10:
        raise ValidationError("sigma0 must be symmetric")
    # with Sigma exactly symmetric, Sigma J^T is the transpose of J Sigma
    sigma0 = 0.5 * (sigma0 + sigma0.T)
    # each stage overwrites the kernel's scratch before reading it
    kern = _Kernel(params)

    def fun(t, z):
        y = z[:dim]
        dy = _linearize(y, kern, params, t)
        jsig = _jacobian(kern) @ z[dim:].reshape(dim, dim)
        dsig = jsig + jsig.T
        if not zero_bracket:
            dsig += _bracket(y, kern)
        return np.concatenate([dy, dsig.ravel()])

    def guard(z):
        return bool(z[:dim].min() < -1e-9)

    z0 = np.concatenate([y0, sigma0.ravel()])
    path = _rk4_fixed(fun, z0, t_grid, h, guard=guard)
    t_grid = np.asarray(t_grid, dtype=float)
    states = []
    for row, t in zip(path, t_grid):
        sig = row[dim:].reshape(dim, dim)
        states.append(CovarianceState(sigma=0.5 * (sig + sig.T), t=float(t)))
    return states


def ratio_covariance(sigmas, capacities, k_max: int | None = None) -> np.ndarray:
    """Aggregate per-capacity fluctuation covariances onto ratio bins.

    The ratio fluctuation at bin j sums, over capacity classes k, the
    fluctuation at the unique count n with floor(n*k_max/k) = j (no such n
    contributes zero). This sums the per-class blocks only:
    out = sum_k P_k Sigma_k P_k^T with P_k the 0/1 bin-assignment map. The
    classes are not independent; they couple through the shared spare-bike
    level and the choice normaliser, so the joint covariance has cross-class
    blocks, which this sum omits.
    """
    capacities = [int(k) for k in capacities]
    if len(sigmas) != len(capacities):
        raise ValidationError("need one covariance matrix per capacity class")
    if k_max is None:
        k_max = max(capacities)
    if k_max < max(capacities):
        raise ValidationError(
            f"k_max {k_max} is below the largest capacity {max(capacities)}"
        )
    out = np.zeros((k_max + 1, k_max + 1))
    for sig, k in zip(sigmas, capacities):
        sig = np.asarray(sig, dtype=float)
        if sig.shape != (k + 1, k + 1):
            raise ValidationError(
                f"covariance for capacity {k} must be {k + 1}x{k + 1}"
            )
        bins = (np.arange(k + 1) * k_max) // k
        proj = np.zeros((k_max + 1, k + 1))
        proj[bins, np.arange(k + 1)] = 1.0
        out += proj @ sig @ proj.T
    return out
