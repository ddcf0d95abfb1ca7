"""Central finite-difference gradient checking shared by the test suite.

Independent of the analytic gradients under test: only the loss value
is consulted.  Coordinates are subsampled for wide parameter vectors so
the check stays fast, always including the steepest coordinate.
"""
import numpy as np


def row_loss_grad(task, theta, idx=None):
    """Train loss and gradient of one parameter vector (over batch ``idx``, or
    the full split) as a population of one."""
    loss, grad = task.loss_and_grad(np.asarray(theta, dtype=float)[None],
                                    None if idx is None else np.asarray(idx)[None], "train")
    return float(loss[0]), grad[0]


def fd_gradient(task, theta, coords, h_scale=1e-5):
    """Central-difference gradient of the full-batch train loss at ``theta``."""
    out = np.empty(len(coords))
    for j, i in enumerate(coords):
        h = h_scale * max(1.0, abs(theta[i]))
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        lp, _ = row_loss_grad(task, up)
        lm, _ = row_loss_grad(task, down)
        out[j] = (lp - lm) / (2.0 * h)
    return out


def pick_coords(rng, analytic, max_coords=48):
    """All coordinates when few; otherwise a sample plus the steepest one."""
    n = len(analytic)
    if n <= 64:
        return np.arange(n)
    coords = rng.choice(n, size=max_coords, replace=False)
    steepest = int(np.argmax(np.abs(analytic)))
    if steepest not in coords:
        coords[0] = steepest
    return coords


def fd_relative_error(task, theta, rng, max_coords=48):
    """Relative L2 error between analytic and FD gradients at ``theta``."""
    _, analytic = row_loss_grad(task, theta)
    coords = pick_coords(rng, analytic, max_coords)
    fd = fd_gradient(task, theta, coords)
    sub = analytic[coords]
    denom = max(float(np.linalg.norm(sub)), 1e-8)
    return float(np.linalg.norm(sub - fd)) / denom
