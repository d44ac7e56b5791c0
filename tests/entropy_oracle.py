"""Relative entropy of the one-class mean field and its rate along the flow.

The tests' oracle for criterion 6, built apart from the solver. At a
measure y on 0..K, the rates frozen at y are the dropoff rate mu a, with
a = gamma - sum(n y), and the pickup rate d_n = lam(1-p) + lam p g_n / s at
n bikes, with s = sum(g y). Their birth-death measure nu(y) has
log nu_n = L_n - log Z, L_n = sum_{k<n} log rho_k and rho_k = mu a / d_{k+1},
and the relative entropy is h(y) = sum y log(y / nu(y)), zero exactly at the
equilibrium (Gibbs). Along the flow dy/dt = b(y) of the same rates,

    dh/dt = sum b log(y/nu) - (E_y - E_nu)[dL/dt],

with da/dt = -n.b and ds/dt = g.b. The first term is the entropy
production of the generator frozen at y, -sum_k q_k (f_{k+1} - f_k)
(log f_{k+1} - log f_k) with f = y/nu and q_k = nu_k mu a: nonpositive by
algebra. The second comes from nu moving with a and s, and can outweigh it,
so h need not fall along every path.
"""

from typing import NamedTuple

import numpy as np

from bss.model import SystemParams, ValidationError, choice_weights


class RelativeEntropy(NamedTuple):
    nu: np.ndarray     # the frozen-rate reference measure nu(y)
    h: float           # sum y log(y/nu)
    rate: float        # dh/dt along the mean-field flow
    production: float  # its first term, sum b log(y/nu) <= 0


def relative_entropy(y, params: SystemParams) -> RelativeEntropy:
    """h(y), nu(y) and dh/dt for an interior y of a one-class constant-rate
    system. At p = 0 the choice never enters, and flat weights g = 1 stand
    in for it."""
    (k,) = params.capacity_values
    y = np.asarray(y, dtype=float)
    if y.shape != (k + 1,):
        raise ValidationError(f"measure must have length {k + 1}, got {y.shape}")
    if not (y.min() > 0.0):
        raise ValidationError("boundary measure: reference needs interior y")
    a = params.gamma - float(np.arange(k + 1) @ y)
    if not (a > 0.0):
        raise ValidationError(
            "docked mean exceeds gamma; reference birth-death chain undefined")
    lam, mu, p = params.arrival.rate, params.mu, params.p
    g = choice_weights(params.choice, k) if p > 0.0 else np.ones(k + 1)
    s = float(g @ y)
    down = lam * (1.0 - p) + (lam * p) * g[1:] / s  # d_1..d_K

    log_w = np.concatenate(([0.0], np.cumsum(np.log(mu * a) - np.log(down))))
    log_nu = log_w - log_w.max()
    log_nu -= np.log(np.exp(log_nu).sum())
    nu = np.exp(log_nu)
    log_f = np.log(y) - log_nu
    f = np.exp(log_f)

    q = nu[:-1] * (mu * a)
    production = float(-(q * np.diff(f) * np.diff(log_f)).sum())
    # net flow across edge k -> k+1; b_n = flow_{n-1} - flow_n
    flow = -q * np.diff(f)
    a_dot = -flow.sum()
    s_dot = float(flow @ np.diff(g))
    dlog_rho = a_dot / a + (lam * p) * g[1:] * s_dot / (s * s * down)
    l_dot = np.concatenate(([0.0], np.cumsum(dlog_rho)))
    rate = production - float((y - nu) @ l_dot)
    return RelativeEntropy(nu, float(y @ log_f), rate, production)
