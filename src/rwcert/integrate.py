"""Fixed-step RK4 and step doubling: the package's one ODE integrator.

Both ODEs are autonomous: the flow of d_t (`foliation`, rows of (x, log a^2,
s) in tau) and a u-curve's or a geodesic's state (`transport`, one row in its
own parameter, a block of steps per call).  Both step RK4 at fixed widths and
double the step count until a caller-defined change between two runs falls
below a tolerance.  rk4 takes rows in and gives rows out; a caller that needs
the states in between reads them from what rhs is given (each step's k1).
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
