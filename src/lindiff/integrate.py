"""Runge-Kutta steppers shared by the reduced-ODE solvers and the oracles.

Only the generic tableau lives here; every caller supplies its own
right-hand side, so closed-form modules and brute-force oracles stay
independent in everything that matters (the problem formulation).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["heun", "rk4_path", "rk4_steps", "rk45_path", "IntegrationError"]


class IntegrationError(RuntimeError):
    """Raised when a step-size underflow or non-finite state is detected."""


def _segments(t_grid):
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not np.all(np.diff(t_grid, prepend=0.0) >= 0):
        raise ValueError("t_grid must be a nonnegative, nondecreasing 1-D sequence")
    return zip(np.append(0.0, t_grid[:-1]), t_grid)


def _rk4_substeps(t0, t1, max_rate, substeps) -> int:
    n = substeps if t1 > t0 else 0
    if max_rate is not None and max_rate > 0:
        n = max(n, int(math.ceil((t1 - t0) * max_rate / 0.08)))
    return n


def rk4_steps(t_grid, max_rate, substeps=64) -> int:
    """The number of steps ``rk4_path`` takes on ``t_grid``, without taking them."""
    return sum(_rk4_substeps(t0, t1, max_rate, substeps) for t0, t1 in _segments(t_grid))


def rk4_path(f, y0, t_grid, max_rate=None, substeps=64):
    """Fixed-step RK4 from ``y0`` at t = 0 to every point of a nonnegative, nondecreasing ``t_grid``.

    Each segment of nonzero length is subdivided into ``substeps`` pieces,
    further refined so that ``h * max_rate <= 0.08`` when a stiffness bound
    is given (keeps the stability polynomial well inside the accuracy
    region for contraction rates up to ``max_rate``).
    """
    y = np.array(y0, dtype=float)
    out = []
    for t0, t1 in _segments(t_grid):
        n = _rk4_substeps(t0, t1, max_rate, substeps)
        h, t = (t1 - t0) / max(n, 1), t0
        for _ in range(n):
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state at t={t1}")
        out.append(y.copy())
    return np.stack(out)


def heun(f, y0, grid):
    """Heun (explicit trapezoid) steps from ``y0`` at ``grid[0]`` along ``grid``,
    in either direction; returns y at ``grid[-1]``."""
    grid = np.asarray(grid, dtype=float)
    y = np.array(y0, dtype=float)
    for t0, t1 in zip(grid[:-1], grid[1:]):
        d0 = f(t0, y)
        d1 = f(t1, y + (t1 - t0) * d0)
        y = y + 0.5 * (t1 - t0) * (d0 + d1)
    return y


# Cash-Karp embedded 4(5) tableau; row s of _CK_A weights the first s stages.
_CK_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0],
    [3 / 10, -9 / 10, 6 / 5, 0.0, 0.0],
    [-11 / 54, 5 / 2, -70 / 27, 35 / 27, 0.0],
    [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
])
_CK_C = (0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8)
_CK_B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
_CK_B4 = np.array([2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4])
_CK_E = _CK_B5 - _CK_B4


# Steps, accepted or rejected, after which rk45_path gives up.
_RK45_MAX_STEPS = 2_000_000


def rk45_path(f, y0, t_grid, rtol=1e-10, atol=1e-12):
    """Adaptive Cash-Karp RK45 on the segments of ``rk4_path``, hitting every ``t_grid`` point exactly.

    The six stage values sit in one (6, n) array, so each stage state, the
    fifth-order update and the error estimate are one tableau product.  The
    error norm is the largest scaled error over every entry of the state.
    """
    y = np.array(y0, dtype=float)
    shape = y.shape
    y = y.ravel()
    k = np.empty((6, y.size))
    out = []
    nsteps = 0
    # A trial step may overflow; it is rejected through the NaN error norm, and
    # a non-finite state at a grid point still raises.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, t_end in _segments(t_grid):
            h = (t_end - t) / 16.0
            while t < t_end:
                h = min(h, t_end - t)
                if abs(h) < 1e-15 * max(1.0, abs(t)):
                    raise IntegrationError(f"step underflow at t={t}")
                k[0] = f(t, y.reshape(shape)).ravel()
                for s in range(1, 6):
                    ys = y + (h * _CK_A[s, :s]) @ k[:s]
                    k[s] = f(t + _CK_C[s] * h, ys.reshape(shape)).ravel()
                y5 = y + (h * _CK_B5) @ k
                scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
                err = float(np.max(np.abs((h * _CK_E) @ k) / scale))
                if math.isnan(err):  # a trial stage left the domain of f: reject and shrink
                    err = math.inf
                if err <= 1.0:
                    t += h
                    y = y5
                factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
                h *= min(5.0, max(0.2, factor))
                nsteps += 1
                if nsteps > _RK45_MAX_STEPS:
                    raise IntegrationError("max step count exceeded")
            if not np.all(np.isfinite(y)):
                raise IntegrationError(f"non-finite state at t={t_end}")
            out.append(y.reshape(shape))
    return np.stack(out)
