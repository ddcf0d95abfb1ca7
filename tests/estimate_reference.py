"""Bit reference for the snapshot step-size estimate.

``estimate_optimal_lr`` and the per-triple loop of ``optimal_lr_trace`` as
lrkit had them before every triple's estimate came from one pass over the
stacked snapshots, copied verbatim.  The one-pass estimator must give
equal ``LrEstimate`` values, with ``lr_opt`` equal bit for bit, and refuse
the same triple first with the same message.
"""
import numpy as np

from lrkit.errors import POSITIVE, VerifyError, check_real
from lrkit.verify import LrEstimate


def estimate_optimal_lr(theta_prev, theta_mid, theta_next, applied_lr: float,
                        t: int = 0) -> LrEstimate:
    p = np.asarray(theta_prev, dtype=float)
    m = np.asarray(theta_mid, dtype=float)
    n = np.asarray(theta_next, dtype=float)
    if not (p.shape == m.shape == n.shape):
        raise VerifyError(f"snapshot shapes differ: {p.shape}, {m.shape}, {n.shape}")
    applied_lr = check_real(VerifyError, "applied_lr", applied_lr, *POSITIVE)
    if not (np.isfinite(p).all() and np.isfinite(m).all() and np.isfinite(n).all()):
        raise VerifyError("non-finite snapshot")
    num = float(np.abs(m - p).sum())
    den = float(np.abs(2.0 * m - p - n).sum())
    guard = 1e-12 * max(1.0, num)
    return LrEstimate(t=t, applied_lr=applied_lr, lr_opt=None if den < guard else applied_lr * num / den)


def trace_estimates(snaps, lrs) -> list[LrEstimate]:
    """The per-triple loop over a record's ``snapshots`` and its ``lr_trace.lrs``."""
    return [estimate_optimal_lr(prev, mid, nxt, lrs[t_mid], t=t_mid)
            for (_, prev), (t_mid, mid), (_, nxt) in zip(snaps, snaps[1:], snaps[2:])]
