"""Gaussian fluctuation layer around the mean-field limit.

The centered, sqrt(N)-scaled empirical measure converges to a linear SDE
driven by the drift Jacobian with instantaneous covariance given by the jump
brackets of the CTMC. This module evaluates both matrices and integrates the
resulting covariance ODE  Sigma' = J Sigma + Sigma J^T + A  alongside the
mean-field trajectory.

Both matrices come from the mean-field drift kernel: the product z = M y
with the shift operators of meanfield._operators that gives the drift also
gives J and A, and each covariance stage makes that product once. The packed
system [y; Sigma] runs on the mean field's one RK4 stepper; its right-hand
side writes into buffers made once per integration, and a stiffness guard
halves every step that would leave RK4's stability interval for Sigma.

The matrices cover a uniform capacity; a capacity mix needs the joint
Sigma over the (class, count) table, whose ratio covariance is P Sigma P^T
with P the table projection meanfield.ratio_projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemParams, ValidationError, arrival_rate
from .meanfield import TINY_DENOM, _check_start, _drift_into, _Kernel, _rk4_buffered

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


def _require_uniform(params: SystemParams) -> int:
    if not params.is_uniform:
        raise ValidationError("fluctuation matrices need a uniform capacity")
    return params.uniform_capacity


def _packed_rhs(params: SystemParams, zero_bracket: bool = False):
    """rhs_into(lam, z, out) of z = [y; Sigma], J's buffer and the stiffness guard.

    One kernel pass gives the drift and leaves z = M y and the block weights;
    a vanished choice normaliser raises, as J and A need the informed term.
    J (see jacobian) is one product of the block weights with the cached
    operators and two rank-one updates. A = D diag(f) D^T + U diag(u) U^T is
    tridiagonal: (f_i + f_{i+1}) + (u_{i-1} + u_i) on the diagonal and
    -(f_{i+1} + u_i) next to it, over the pickup flows f and dropoff flows u
    where D and U move mass. Each bracket sums at most two nonzero terms, so
    these are the bits of the dense products. Everything is written into
    buffers made here. guard(dt), on the J of the last call, is True when
    2 dt min(|J|_1, |J|_inf), which bounds dt times the spectral radius of
    Sigma -> J Sigma + Sigma J^T, leaves RK4's stability interval.
    """
    _require_uniform(params)
    kern = _Kernel(params)
    dim = kern.stack.shape[1]
    stack, coef, z = kern.stack, kern.coef, kern.z
    ops = stack[: 3 * dim].reshape(3, -1)
    g, ones = stack[-2], np.ones(dim)
    # the rank-one pieces (Uy) (mu n)^T and (DGy) (c g)^T, made by one product
    cols = kern.blocks[2:0:-1, :, None]
    rows = np.stack([kern.mu * stack[-1], g])[:, None]
    j, jsig, a = (np.zeros((dim, dim)) for _ in range(3))
    rank1 = np.zeros((2, dim, dim))
    vec, pair = np.empty(dim), np.empty((2, dim))
    a_diag, a_up, a_low = (a.reshape(-1)[k :: dim + 1] for k in (0, 1, dim))
    # the negated pickup flows -f and the dropoff flows u, zero where D or U
    # moves nothing, in two zero-padded rows laid out so that one sum over
    # neighbours gives -(f_i + f_{i+1}) and u_{i-1} + u_i
    pad = np.zeros((2, dim + 2))
    flows = np.lib.stride_tricks.as_strided(
        pad.reshape(-1)[1:], (2, dim), ((dim + 3) * pad.itemsize, pad.itemsize))
    masks = np.array([np.diagonal(stack[k * dim : (k + 1) * dim]) != 0.0
                      for k in (0, 2)], dtype=float)
    # scalars as arrays, which numpy multiplies by faster: (-c0, c2) and
    # -c1 for the flows, lam p / s^2 for the rank-one row
    scale, c1, c_rank = np.empty((2, 1)), np.zeros(()), np.zeros(())
    informed = params.p > 0.0

    def rhs_into(lam, x, out):
        y = x[:dim]
        _drift_into(y, kern, lam, out[:dim])
        if informed and not (z[-2] > TINY_DENOM):
            raise ValidationError(
                "choice denominator vanished; interior measure required"
            )
        np.dot(coef, ops, j.reshape(-1))
        c_rank[()] = coef[1] / z[-2]
        np.multiply(g, c_rank, rows[1, 0])
        np.multiply(cols, rows, rank1)
        np.subtract(j, rank1[0], j)
        if coef[1] != 0.0:
            np.subtract(j, rank1[1], j)
        dsig = out[dim:].reshape(dim, dim)
        np.matmul(j, x[dim:].reshape(dim, dim), jsig)
        np.add(jsig, jsig.T, dsig)
        if zero_bracket:
            return
        scale[0, 0], scale[1, 0], c1[()] = -coef[0], coef[2], -coef[1]
        np.multiply(scale, y, flows)
        np.multiply(g, y, vec)
        np.add(flows[0], np.multiply(vec, c1, vec), flows[0])
        np.multiply(flows, masks, flows)
        np.add(pad[:, 1:-1], pad[:, 2:], pair)
        np.subtract(pair[1], pair[0], a_diag)
        np.subtract(pad[0, 2:-1], pad[1, 2:-1], a_up)
        np.subtract(pad[0, 2:-1], pad[1, 2:-1], a_low)
        np.add(dsig, a, dsig)

    def guard(dt):
        absj = np.abs(j, jsig)
        bound = min(max(np.dot(ones, absj).tolist()), max(np.dot(absj, ones).tolist()))
        return 2.0 * dt * bound > STIFF_LIMIT

    return rhs_into, j, guard


def _linearized(y, params: SystemParams, t: float):
    """J and A at y: the packed right-hand side at Sigma = 0 holds A."""
    y = np.asarray(y, dtype=float)
    dim = _require_uniform(params) + 1
    rhs_into, j, _ = _packed_rhs(params)
    out = np.empty(dim + dim * dim)
    rhs_into(arrival_rate(params.arrival, t), np.concatenate([y, np.zeros(dim * dim)]), out)
    return j, out[dim:].reshape(dim, dim)


def jacobian(y: np.ndarray, params: SystemParams, t: float = 0.0) -> np.ndarray:
    """Drift Jacobian J[n, i] = d b_n / d y_i, assembled in closed form.

    The drift b = lam(1-p) Dy + (lam p/s) DGy + a Uy is linear in y apart
    from a = mu(gamma - n.y) and s = g.y, so J is the three shift operators
    plus two dense rank-one pieces: -mu (Uy) n^T and -(lam p/s^2) (DGy) g^T.
    """
    return _linearized(y, params, t)[0]


def bracket_matrix(y: np.ndarray, params: SystemParams, t: float = 0.0) -> np.ndarray:
    """Instantaneous covariance rate of the scaled fluctuations.

    Each pickup at a station holding n bikes moves empirical mass n -> n-1,
    each dropoff n -> n+1; the bracket is the sum of rate * (e_to - e_from)
    (e_to - e_from)^T, that is D diag(f) D^T + U diag(u) U^T over the pickup
    flows f and dropoff flows u: a tridiagonal matrix with zero row sums.
    """
    return _linearized(y, params, t)[1]


def integrate_covariance(
    y0: np.ndarray,
    sigma0: np.ndarray,
    params: SystemParams,
    t_grid,
    h: float = 0.005,
    zero_bracket: bool = False,
    stats=None,
) -> list[CovarianceState]:
    """Co-integrate the mean-field path and its fluctuation covariance.

    Solves y' = b(y), Sigma' = J(y) Sigma + Sigma J(y)^T + A(y) as one packed
    system on the mean field's RK4 stepper: the covariance sees the order-4
    accurate mean at every stage, and the mean is the bytes of integrate's
    unless the stiffness guard of _packed_rhs halves steps (stiff_halvings
    in stats, as in meanfield.integrate). zero_bracket drops the A(y) source
    term: pure transport, a should-fail control next to Monte-Carlo
    covariance estimates.
    """
    k = _require_uniform(params)
    dim = k + 1
    y0 = np.asarray(y0, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)
    if y0.shape != (dim,):
        raise ValidationError(f"y0 must have length {dim}")
    _check_start(y0, params)
    if sigma0.shape != (dim, dim):
        raise ValidationError(f"sigma0 must be {dim}x{dim}")
    if not (np.abs(sigma0 - sigma0.T).max() <= 1e-10):
        raise ValidationError("sigma0 must be finite and symmetric")
    # with Sigma exactly symmetric, Sigma J^T is the transpose of J Sigma
    sigma0 = 0.5 * (sigma0 + sigma0.T)
    rhs_into, _, guard = _packed_rhs(params, zero_bracket)
    z0 = np.concatenate([y0, sigma0.ravel()])
    path = _rk4_buffered(rhs_into, z0, params.arrival, t_grid, h, dim=dim,
                         guard=guard, stats=stats)
    states = []
    for row, t in zip(path, np.asarray(t_grid, dtype=float)):
        sig = row[dim:].reshape(dim, dim)
        states.append(CovarianceState(sigma=0.5 * (sig + sig.T), t=float(t), y=row[:dim]))
    return states
