"""Runge-Kutta steppers shared by the reduced-ODE solvers and the oracles.

Only the generic tableau lives here; every caller supplies its own
right-hand side, so closed-form modules and brute-force oracles stay
independent in everything that matters (the problem formulation).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["rk4_path", "rk45_path", "IntegrationError"]


class IntegrationError(RuntimeError):
    """Raised when a step-size underflow or non-finite state is detected."""


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_path(f, y0, t_grid, max_rate=None, substeps=64):
    """Fixed-step RK4, returning the state at every point of ``t_grid``.

    Each grid segment is subdivided into ``substeps`` pieces, further
    refined so that ``h * max_rate <= 0.08`` when a stiffness bound is
    given (keeps the stability polynomial well inside the accuracy
    region for contraction rates up to ``max_rate``).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    y = np.array(y0, dtype=float)
    out = [y.copy()]
    for i in range(len(t_grid) - 1):
        t0, t1 = t_grid[i], t_grid[i + 1]
        span = t1 - t0
        n = substeps
        if max_rate is not None and max_rate > 0:
            n = max(n, int(math.ceil(abs(span) * max_rate / 0.08)))
        h = span / n
        t = t0
        for _ in range(n):
            y = _rk4_step(f, t, y, h)
            t += h
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state at t={t1}")
        out.append(y.copy())
    return np.stack(out)


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


def rk45_path(f, y0, t_grid, rtol=1e-10, atol=1e-12, max_steps=2_000_000):
    """Adaptive Cash-Karp RK45 hitting every ``t_grid`` point exactly.

    The six stage values sit in one (6, n) array, so each stage state,
    the fifth-order update and the error estimate are one tableau product.
    The error norm is the largest scaled error over every entry of the state.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    y = np.array(y0, dtype=float)
    shape = y.shape
    y = y.ravel()
    k = np.empty((6, y.size))
    out = [y.reshape(shape)]
    nsteps = 0
    for i in range(len(t_grid) - 1):
        t, t_end = t_grid[i], t_grid[i + 1]
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
            if err <= 1.0:
                t += h
                y = y5
            factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
            nsteps += 1
            if nsteps > max_steps:
                raise IntegrationError("max step count exceeded")
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state at t={t_end}")
        out.append(y.reshape(shape))
    return np.stack(out)
