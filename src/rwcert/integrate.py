"""ODE steppers for autonomous rows in lockstep: the adaptive Dormand-Prince
5(4) pair for `foliation`'s flows of d_t, and fixed-step RK4 with step doubling
for `transport`, whose step grid is user-visible.  A caller that needs the
states between the rows given and returned reads them from what rhs is given.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np


def rk4(rhs: Callable, y, h, steps) -> np.ndarray:
    """Integrate the autonomous y' = rhs(y) by classic RK4; return the end rows.

    y holds B rows stepped in lockstep: row b takes steps[b] >= 0 steps of
    width h[b], bit for bit as alone.  rhs(x, rows) gets the rows still
    stepping, x = their states and rows = their indices, and returns their
    derivatives, so it sees every stage in order.  The widths are scaled once
    per set of stepping rows.
    """
    y, steps = np.array(y, dtype=float), np.asarray(steps)
    h = np.asarray(h, dtype=float)[:, None]
    done = 0
    while len(rows := np.flatnonzero(steps > done)):
        x, half, full, sixth = y[rows], 0.5 * h[rows], h[rows], h[rows] / 6.0
        until = int(steps[rows].min())
        for _ in range(done, until):
            k1 = rhs(x, rows)
            k2 = rhs(x + half * k1, rows)
            k3 = rhs(x + half * k2, rows)
            k4 = rhs(x + full * k3, rows)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[rows], done = x, until
    return y


class Doubling(NamedTuple):
    value: object            # run(steps) of the last run
    steps: int               # step count of the last run
    change: float            # change(coarse, fine) of the last doubling
    converged: bool          # False when doublings ran out with change >= tol


def doubled(run: Callable, steps: int, change: Callable, tol: float,
            max_doublings: int) -> Doubling:
    """Run at steps, 2*steps, 4*steps, ... until change(coarse, fine) < tol
    or `max_doublings` >= 1 doublings are spent.

    run(counts) takes a list of step counts and returns an iterator over
    their values in order, so a caller may compute several levels at once.
    The first request is [steps, 2*steps]: the first run is never accepted
    on its own.  When the levels asked for are spent, the next request
    predicts how many more the last change needs: a step-doubling estimate
    for RK4 shrinks by 2^4 = 16 per halving, so k = ceil(log16(change /
    tol)) levels, at least 1, 1 for a non-finite change, and no more than
    the doublings left.  The first consecutive pair under tol is accepted,
    and the iterator is never advanced past it, so a level that is not
    consumed need not be computed or raise.
    """
    values = iter(run([steps, 2 * steps]))
    value, asked = next(values), 1
    for spent in range(max_doublings):
        if spent == asked:
            more = min(_levels(delta, tol), max_doublings - spent)
            values = iter(run([steps * 2**k for k in range(1, more + 1)]))
            asked += more
        finer = next(values)
        delta = change(value, finer)
        value, steps = finer, 2 * steps
        if delta < tol:
            return Doubling(value, steps, delta, True)
    return Doubling(value, steps, delta, False)


def _levels(change: float, tol: float) -> int:
    """Doublings that bring a step-doubling change under tol at RK4's rate of
    16 per halving: ceil(log16(change / tol)), at least 1; 1 if not finite.
    The logarithms are taken apart, as change / tol may overflow."""
    if not math.isfinite(change):
        return 1
    return max(1, math.ceil((math.log2(change) - math.log2(tol)) / 4))


# Dormand & Prince (1980): the stage rows, the last being the fifth-order
# weights, and the weights of y5 - y4.
_DP_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _combine(weights, ks) -> np.ndarray:
    """sum_j weights[j] ks[j] term by term, so that a row's sum is its own."""
    return sum(w * k for w, k in zip(weights, ks) if w)


def _rms(z: np.ndarray) -> np.ndarray:
    """Each row's root mean square, summed column by column so that it is its own."""
    return np.sqrt(sum(z[:, j] ** 2 for j in range(z.shape[1])) / z.shape[1])


def dopri(rhs: Callable, y, span, tol: float, max_steps: int):
    """(end rows, rows unfinished after max_steps steps) of y' = rhs(y) by the
    Dormand-Prince 5(4) pair: row b runs from 0 to span[b] (0 evaluates
    nothing) with its own steps, in lockstep and bit for bit as alone.
    rhs(x, rows) gets the stage states of the rows still stepping and their
    indices: f(y0), an Euler probe for the first step (Hairer, Norsett &
    Wanner, Solving ODEs I, II.4), then six calls a step (FSAL).  A step is
    accepted when the RMS of (y5 - y4) / (tol (1 + max(|y|, |y5|))) is at most
    1; the next is 0.9 err^(-1/5) times as wide, clipped to [0.2, 5] (1 after a
    rejection), and the last lands on span[b].  A row with a non-finite stage
    stops at that step's start."""
    y, span = np.array(y, dtype=float), np.asarray(span, dtype=float)
    t, h, growth = np.zeros(len(y)), np.zeros(len(y)), np.full(len(y), 5.0)
    k1 = np.full_like(y, np.nan)
    rows = np.flatnonzero(span != 0)
    if len(rows):
        k1[rows] = rhs(y[rows], rows)
        rows = rows[np.isfinite(k1[rows]).all(axis=1)]
    if len(rows):
        x, f0, sign = y[rows], k1[rows], np.sign(span[rows])
        scale = tol * (1.0 + np.abs(x))
        d0, d1 = _rms(x / scale), _rms(f0 / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5))
        f1 = rhs(x + (sign * h0)[:, None] * f0, rows)
        d = np.maximum(d1, _rms((f1 - f0) / scale) / h0)
        h1 = np.where(d > 1e-15, (0.01 / np.maximum(d, 1e-15)) ** 0.2, np.maximum(1e-6, 1e-3 * h0))
        h[rows] = sign * np.minimum(np.minimum(100.0 * h0, h1), np.abs(span[rows]))
        rows = rows[np.isfinite(f1).all(axis=1)]
    for _ in range(max_steps):            # in lockstep a step of every stepping row
        if not len(rows):
            break
        x, ks, left = y[rows], [k1[rows]], span[rows] - t[rows]
        last = np.abs(h[rows]) >= np.abs(left)
        step = np.where(last, left, h[rows])
        for a in _DP_A:                   # the last stage is at y5
            y5 = x + step[:, None] * _combine(a, ks)
            ks.append(rhs(y5, rows))
        finite = np.isfinite(np.stack(ks)).all(axis=(0, 2))
        err = _rms(step[:, None] * _combine(_DP_E, ks)
                   / (tol * (1.0 + np.maximum(np.abs(x), np.abs(y5)))))
        accept = finite & (err <= 1.0)
        done = rows[accept]
        y[done], k1[done] = y5[accept], ks[-1][accept]
        t[done] = np.where(last[accept], span[done], t[done] + step[accept])
        h[rows] = step * np.clip(0.9 * np.maximum(err, 1e-10) ** -0.2, 0.2, growth[rows])
        growth[rows] = np.where(accept, 5.0, 1.0)
        rows = rows[finite & (t[rows] != span[rows])]
    return y, rows
