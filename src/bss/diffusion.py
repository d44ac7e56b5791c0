"""Gaussian fluctuation layer around the mean-field limit.

The centered, sqrt(N)-scaled empirical measure converges to a linear SDE
driven by the drift Jacobian with instantaneous covariance given by the jump
brackets of the CTMC. This module evaluates both matrices and integrates the
resulting covariance ODE  Sigma' = J Sigma + Sigma J^T + A  alongside the
mean-field trajectory.

Both matrices come from the mean-field drift kernel after one drift call
on it, which leaves z = M y and the block weights c: J from
meanfield._jacobian_into, and A, c times a cached band operator applied to
y, from _bracket_bands. The packed system [y; Sigma] runs on the mean
field's one RK4 stepper; its right-hand side writes into buffers made once
per integration, and a stiffness guard halves every step that would leave
RK4's stability interval for Sigma.

J, A and Sigma are L x L over the flattened (class, count) table, a
uniform capacity being its one-class case. J and A are exact zeros in the
rows and columns of cells above a class's capacity, so Sigma from a zero
start is too, and it stays null along each class's indicator. A capacity
mix's ratio covariance is P Sigma P^T, with P the table projection
meanfield.ratio_projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ChoiceSpec, SystemParams, ValidationError, arrival_rate
from .meanfield import (DEFAULT_STEP, _as_measure, _check_start, _denominator,
                        _drift_into, _informed_choice, _jacobian_into, _Kernel,
                        _operators, _rk4_buffered)

__all__ = [
    "CovarianceState",
    "jacobian",
    "bracket_matrix",
    "integrate_covariance",
]


@dataclass(frozen=True)
class CovarianceState:
    """Fluctuation covariance and mean-field measure at one instant."""

    sigma: np.ndarray
    t: float
    y: np.ndarray


# RK4's stability interval on the negative real axis is about [-2.785, 0]
STIFF_LIMIT = 2.78


@lru_cache(maxsize=128)
def _covariance_operators(capacities: tuple[int, ...], choice: ChoiceSpec):
    """The bracket's fixed parts (band, at), both read-only.

    With the block weights c, A = c0 D diag(y) D^T + c1 D diag(g y) D^T +
    c2 U diag(y) U^T over the rows D, DG and U of the drift stack, each term
    tridiagonal with diagonal (P*Q) @ y and superdiagonal (P[:-1]*Q[1:]) @ y
    for (P, Q) = (D, D), (D, DG), (U, U). band stacks those 3 (2L - 1) rows;
    at holds the flat offsets of A's three bands in an L x L matrix.
    """
    stack = _operators(capacities, choice)
    dim = stack.shape[1]
    d, dg, u = stack[: 3 * dim].reshape(3, dim, dim)
    band = np.vstack([a * b if diag else a[:-1] * b[1:]
                      for a, b in ((d, d), (d, dg), (u, u)) for diag in (True, False)])
    diagonal = (dim + 1) * np.arange(dim)
    at = np.concatenate([diagonal, diagonal[:-1] + 1, diagonal[1:] - 1])
    for arr in (band, at):
        arr.setflags(write=False)
    return band, at


def _bracket_bands(params: SystemParams, kern: _Kernel):
    """A's one home: (bands, at). bands(y) returns A's diagonal, super- and
    subdiagonal at y, the block weights of kern's last _drift_into call
    times band @ y, in one buffer; at holds their flat offsets in A."""
    band, at = _covariance_operators(params.capacity_values, _informed_choice(params))
    dim = band.shape[1]
    flat, a = np.empty(len(band)), np.empty(3 * dim - 2)
    main, sup, sub = a[: 2 * dim - 1], a[dim : 2 * dim - 1], a[2 * dim - 1 :]
    at_band, blocks, weigh = band.dot, flat.reshape(3, -1), kern.weigh

    def bands(y):
        at_band(y, flat)
        weigh(blocks, main)
        np.copyto(sub, sup)
        return a

    return bands, at


def _packed_rhs(params: SystemParams):
    """rhs_into(lam, z, out) of z = [y; Sigma], J's buffer and the stiffness guard.

    The drift, J (meanfield._jacobian_into) and A's bands (_bracket_bands)
    fill buffers made here. guard(dt), on the J of the last call, is True
    when 2 dt min(|J|_1, |J|_inf), which bounds dt times the spectral radius
    of Sigma -> J Sigma + Sigma J^T, leaves RK4's stability interval.
    """
    kern = _Kernel(params)
    dim = kern.stack.shape[1]
    bands, at = _bracket_bands(params, kern)
    j, jsig, scratch = (np.empty((dim, dim)) for _ in range(3))
    ones, j_into = np.ones(dim), j.dot

    def rhs_into(lam, x, out):
        y, dsig = x[:dim], out[dim:]
        _drift_into(kern, lam, y, out[:dim])
        _jacobian_into(kern, j, scratch)
        j_into(x[dim:].reshape(dim, dim), jsig)
        np.add(jsig, jsig.T, dsig.reshape(dim, dim))
        dsig[at] += bands(y)

    def guard(dt):
        absj = np.abs(j, jsig)
        bound = min(max(ones.dot(absj).tolist()), max(absj.dot(ones).tolist()))
        return 2.0 * dt * bound > STIFF_LIMIT

    return rhs_into, j, guard


def _kernel_at(y, params: SystemParams, t: float):
    """A kernel after one drift evaluation at y, and y flattened."""
    kern, y = _Kernel(params), _as_measure(y, params).ravel()
    _drift_into(kern, arrival_rate(params.arrival, t), y, np.empty(y.size))
    return kern, y


def jacobian(y: np.ndarray, params: SystemParams, t: float = 0.0) -> np.ndarray:
    """Drift Jacobian J[n, i] = d b_n / d y_i over the flattened table of y
    (see meanfield._as_measure), L x L, in closed form (_jacobian_into)."""
    kern, y = _kernel_at(y, params, t)
    return _jacobian_into(kern, np.empty((y.size, y.size)), np.empty((y.size, y.size)))


def bracket_matrix(y: np.ndarray, params: SystemParams, t: float = 0.0) -> np.ndarray:
    """Instantaneous covariance rate of the scaled fluctuations, L x L over
    the flattened table of y.

    Each pickup at a station holding n bikes moves empirical mass n -> n-1,
    each dropoff n -> n+1; the bracket is the sum of rate * (e_to - e_from)
    (e_to - e_from)^T, that is D diag(f) D^T + U diag(u) U^T over the pickup
    flows f and dropoff flows u: a tridiagonal matrix with zero row sums.
    """
    kern, y = _kernel_at(y, params, t)
    _denominator(kern)
    bands, at = _bracket_bands(params, kern)
    a = np.zeros((y.size, y.size))
    a.reshape(-1)[at] += bands(y)
    return a


def integrate_covariance(
    y0: np.ndarray,
    sigma0: np.ndarray,
    params: SystemParams,
    t_grid,
    h: float = DEFAULT_STEP,
    stats=None,
) -> list[CovarianceState]:
    """Co-integrate the mean-field path and its fluctuation covariance.

    Solves y' = b(y), Sigma' = J(y) Sigma + Sigma J(y)^T + A(y) as one packed
    system on the mean field's RK4 stepper: the covariance sees the order-4
    accurate mean at every stage, and the mean is the bytes of integrate's
    unless the stiffness guard of _packed_rhs halves steps (stiff_halvings
    in stats, as in meanfield.integrate). Each y comes in the shape of y0,
    a measure as integrate takes it; sigma0 and each sigma are L x L over
    its table.
    """
    y0 = _as_measure(y0, params)
    _check_start(y0, params)
    dim = y0.size
    sigma0 = np.asarray(sigma0, dtype=float)
    if sigma0.shape != (dim, dim):
        raise ValidationError(f"sigma0 must be {dim}x{dim}")
    if not (np.abs(sigma0 - sigma0.T).max() <= 1e-10):
        raise ValidationError("sigma0 must be finite and symmetric")
    # with Sigma exactly symmetric, Sigma J^T is the transpose of J Sigma
    sigma0 = 0.5 * (sigma0 + sigma0.T)
    rhs_into, _, guard = _packed_rhs(params)
    z0 = np.concatenate([y0.ravel(), sigma0.ravel()])
    path = _rk4_buffered(rhs_into, z0, params.arrival, t_grid, h, dim=dim,
                         guard=guard, stats=stats)
    states = []
    for row, t in zip(path, np.asarray(t_grid, dtype=float)):
        sig = row[dim:].reshape(dim, dim)
        states.append(CovarianceState(sigma=0.5 * (sig + sig.T), t=float(t),
                                      y=row[:dim].reshape(y0.shape)))
    return states
