"""The zero-source negative control of the covariance ODE.

drop_bracket_source(monkeypatch) swaps A's band home,
bss.diffusion._bracket_bands, for one whose bands are zeros. The covariance
ODE then integrates Sigma' = J Sigma + Sigma J^T alone: pure transport,
which from a zero start stays exactly zero, so every comparison against
Monte-Carlo covariance estimates must fail.
"""

import numpy as np

import bss.diffusion


def drop_bracket_source(monkeypatch):
    home = bss.diffusion._bracket_bands

    def hollow(params, kern):
        _, at = home(params, kern)
        zeros = np.zeros(at.size)
        return (lambda y: zeros), at

    monkeypatch.setattr(bss.diffusion, "_bracket_bands", hollow)
