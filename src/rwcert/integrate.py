"""Fixed-step RK4 and step doubling: the package's one ODE integrator.

The flow of d_t (`foliation`) and Fermi transport (`transport`) both integrate
with classic RK4 on a uniform grid and refine by doubling the step count until
a caller-defined change between two runs falls below a tolerance.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np


def stage_taus(t0: float, t1: float, steps: int) -> list[float]:
    """The 2*steps + 1 values rk4 visits, in order: linspace(t0, t1, steps + 1)
    at even places, t + 0.5*(t1 - t0)/steps between them.  Step i takes k1 at
    [2i], k2 and k3 at [2i + 1], k4 at [2i + 2]."""
    stages = np.empty(2 * steps + 1)
    stages[0::2] = np.linspace(t0, t1, steps + 1)
    stages[1::2] = stages[0:-1:2] + 0.5 * ((t1 - t0) / steps)
    return stages.tolist()


def rk4(rhs: Callable, y: np.ndarray, t0, t1, steps, row: Callable | None = None):
    """Integrate y' = rhs(t, y) from t0 to t1 in `steps` RK4 steps; return y(t1).

    rhs runs at the values of stage_taus(t0, t1, steps), so a caller keying
    work on them sees the same floats.  `row(i, tau, y)` runs after step i
    (1..steps) with the grid value and state it reached.

    With arrays of B values for t0, t1 and steps, y holds B rows stepped in
    lockstep, row b steps[b] >= 0 times over [t0[b], t1[b]] (bit for bit as
    alone); rhs and row see the rows still stepping, rhs(t, y, rows) by index."""
    if np.ndim(steps) == 0:          # one state: float taus and steps
        stages, width = stage_taus(t0, t1, steps), (t1 - t0) / steps
        plan = ((None, rhs, *stages[2 * i:2 * i + 3], width) for i in range(steps))
    else:
        steps = np.asarray(steps)
        width = ((np.asarray(t1, dtype=float) - t0) / np.maximum(steps, 1))[:, None]
        taus = np.zeros((len(steps), 2 * steps.max(initial=0) + 1))
        for b, (start, stop, count) in enumerate(zip(t0, t1, steps.tolist())):
            taus[b, :2 * count + 1] = stage_taus(start, stop, count) if count else start
        plan = ((rows, lambda t, x, rows=rows: rhs(t, x, rows), *taus[rows, 2 * i:2 * i + 3].T,
                 width[rows]) for i in range(steps.max(initial=0))
                for rows in [np.flatnonzero(steps > i)])
        y = np.array(y, dtype=float)
    for i, (rows, f, t, mid, end, h) in enumerate(plan):
        x = y if rows is None else y[rows]
        k1 = f(t, x)
        k2 = f(mid, x + 0.5 * h * k1)
        k3 = f(mid, x + 0.5 * h * k2)
        k4 = f(end, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if rows is None:
            y = x
        else:
            y[rows] = x
        if row is not None:
            row(i + 1, end, x)
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
