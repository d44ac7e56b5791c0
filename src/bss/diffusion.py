"""Gaussian fluctuation layer around the mean-field limit.

The centered, sqrt(N)-scaled empirical measure converges to a linear SDE
driven by the drift Jacobian with instantaneous covariance given by the jump
brackets of the CTMC. This module evaluates both matrices and integrates the
resulting covariance ODE  Sigma' = J Sigma + Sigma J^T + A  alongside the
mean-field trajectory.

Both matrices come from the mean-field drift kernel z = M y over the shift
operators of meanfield._operators, which gives the drift's block weights c:
J is c times those operators less one product holding its two rank-one
pieces, and A is c times a cached band operator applied to y. The packed
system [y; Sigma] runs on the mean field's one RK4 stepper; its right-hand
side writes into buffers made once per integration, and a stiffness guard
halves every step that would leave RK4's stability interval for Sigma.

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
from .meanfield import (TINY_DENOM, _as_measure, _check_start, _drift_into,
                        _informed_choice, _Kernel, _operators, _rk4_buffered)

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
    """The fixed parts of the packed covariance system: (band, at, ones).

    With the kernel's block weights c, the bracket is A = c0 D diag(y) D^T
    + c1 D diag(g y) D^T + c2 U diag(y) U^T over the rows D, DG = D diag(g)
    and U of the drift stack. Each term is symmetric tridiagonal with
    diagonal (P*Q) @ y and superdiagonal (P[:-1]*Q[1:]) @ y for (P, Q) =
    (D, D), (D, DG), (U, U); band stacks those 3 (2L - 1) rows over the L
    cells, 6L^2 doubles against 3L^3 for a dense map of y onto A. Dead
    cells' columns, and rows that touch a dead cell or cross classes, are
    exact zeros. at holds the offsets of A's three bands in the packed state
    [y; Sigma], ones the guard's summing vector; all three are read-only.
    """
    stack = _operators(capacities, choice)
    dim = stack.shape[1]
    d, dg, u = stack[: 3 * dim].reshape(3, dim, dim)
    band = np.vstack([a * b if diag else a[:-1] * b[1:]
                      for a, b in ((d, d), (d, dg), (u, u)) for diag in (True, False)])
    diagonal = dim + (dim + 1) * np.arange(dim)
    at = np.concatenate([diagonal, diagonal[:-1] + 1, diagonal[1:] - 1])
    fixed = band, at, np.ones(dim)
    for arr in fixed:
        arr.setflags(write=False)
    return fixed


def _packed_rhs(params: SystemParams, zero_bracket: bool = False):
    """rhs_into(lam, z, out) of z = [y; Sigma], J's buffer and the stiffness guard.

    One kernel pass gives the drift and leaves z = M y and the block weights
    c; a vanished choice normaliser raises, as J and A need the informed
    term. J (see jacobian) is c times the cached operators less one
    (L, 2) @ (2, L) product of both rank-one pieces; A is c times the cached
    bands (_covariance_operators) applied to y, added onto dSigma's three
    bands. All is written into buffers made here. guard(dt), on the J of
    the last call, is True when 2 dt min(|J|_1, |J|_inf), which bounds dt
    times the spectral radius of Sigma -> J Sigma + Sigma J^T, leaves RK4's
    stability interval.
    """
    kern = _Kernel(params)
    dim = kern.stack.shape[1]
    stack, coef, z = kern.stack, kern.coef, kern.z
    ops = stack[: 3 * dim].reshape(3, -1)
    band, at, ones = _covariance_operators(params.capacity_values,
                                           _informed_choice(params))
    # (DGy) (c g)^T + (Uy) (mu n)^T, with c = lam p / s^2
    g, cols, rows = stack[-2], kern.blocks[1:].T, np.empty((2, dim))
    np.multiply(stack[-1], kern.mu, rows[1])
    j, jsig, rank1 = (np.empty((dim, dim)) for _ in range(3))
    # the blocks' bands, and A's diagonal, superdiagonal and subdiagonal
    flat_bands, a = np.empty(3 * (2 * dim - 1)), np.empty(3 * dim - 2)
    bands = flat_bands.reshape(3, -1)
    a_main, a_sup, a_sub = a[: 2 * dim - 1], a[dim : 2 * dim - 1], a[2 * dim - 1 :]
    c_rank = np.zeros(())  # a 0-d array, which numpy multiplies by faster
    informed = params.p > 0.0
    # bound products and views made once; a bound dot skips numpy's dispatch
    weigh, at_band = kern.weigh, band.dot
    rank_into, j_into, j_flat, row_g = cols.dot, j.dot, j.reshape(-1), rows[0]

    def rhs_into(lam, x, out):
        y = x[:dim]
        _drift_into(kern, lam, y, out[:dim])
        if informed and not (z[-2] > TINY_DENOM):
            raise ValidationError(
                "choice denominator vanished; interior measure required"
            )
        weigh(ops, j_flat)
        c_rank[()] = coef[1] / z[-2]
        np.multiply(g, c_rank, row_g)
        rank_into(rows, rank1)
        np.subtract(j, rank1, j)
        j_into(x[dim:].reshape(dim, dim), jsig)
        np.add(jsig, jsig.T, out[dim:].reshape(dim, dim))
        if zero_bracket:
            return
        at_band(y, flat_bands)
        weigh(bands, a_main)
        np.copyto(a_sub, a_sup)
        out[at] += a

    def guard(dt):
        absj = np.abs(j, jsig)
        bound = min(max(ones.dot(absj).tolist()), max(absj.dot(ones).tolist()))
        return 2.0 * dt * bound > STIFF_LIMIT

    return rhs_into, j, guard


def _linearized(y, params: SystemParams, t: float):
    """J and A at y: the packed right-hand side at Sigma = 0 holds A."""
    rhs_into, j, _ = _packed_rhs(params)
    dim = len(j)
    x = np.zeros(dim + dim * dim)
    x[:dim] = _as_measure(y, params).ravel()
    out = np.empty_like(x)
    rhs_into(arrival_rate(params.arrival, t), x, out)
    return j, out[dim:].reshape(dim, dim)


def jacobian(y: np.ndarray, params: SystemParams, t: float = 0.0) -> np.ndarray:
    """Drift Jacobian J[n, i] = d b_n / d y_i over the flattened table of
    y (see meanfield._as_measure), L x L, assembled in closed form.

    The drift b = lam(1-p) Dy + (lam p/s) DGy + a Uy is linear in y apart
    from a = mu(gamma - n.y) and s = g.y, so J is the three shift operators
    plus two dense rank-one pieces, -mu (Uy) n^T and -(lam p/s^2) (DGy) g^T,
    formed as one (L, 2) @ (2, L) product.
    """
    return _linearized(y, params, t)[0]


def bracket_matrix(y: np.ndarray, params: SystemParams, t: float = 0.0) -> np.ndarray:
    """Instantaneous covariance rate of the scaled fluctuations, L x L over
    the flattened table of y.

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
    covariance estimates. Each y comes in the shape of y0, a measure as
    integrate takes it; sigma0 and each sigma are L x L over its table.
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
    rhs_into, _, guard = _packed_rhs(params, zero_bracket)
    z0 = np.concatenate([y0.ravel(), sigma0.ravel()])
    path = _rk4_buffered(rhs_into, z0, params.arrival, t_grid, h, dim=dim,
                         guard=guard, stats=stats)
    states = []
    for row, t in zip(path, np.asarray(t_grid, dtype=float)):
        sig = row[dim:].reshape(dim, dim)
        states.append(CovarianceState(sigma=0.5 * (sig + sig.T), t=float(t),
                                      y=row[:dim].reshape(y0.shape)))
    return states
