"""The shared fixed-step RK4 loop."""

import numpy as np
import pytest

from rwcert.integrate import rk4, stage_taus


@pytest.mark.parametrize("t0, t1, steps", [(0.0, 1.0, 7), (1.0, 0.0, 5), (0.3, -1.1, 3)])
def test_rk4_evaluates_at_the_stage_taus(t0, t1, steps):
    """rhs runs at exactly the floats of stage_taus, k1, k2, k3, k4 per step,
    and each row at the grid value that ends its step, on increasing and
    decreasing ranges alike."""
    seen, rows = [], []

    def rhs(tau, y):
        seen.append(tau)
        return -y

    rk4(rhs, np.ones(2), t0, t1, steps, lambda i, tau, y: rows.append((i, tau)))
    stages = stage_taus(t0, t1, steps)
    assert len(stages) == 2 * steps + 1
    assert stages[0::2] == np.linspace(t0, t1, steps + 1).tolist()
    assert seen == [stages[k] for i in range(steps)
                    for k in (2 * i, 2 * i + 1, 2 * i + 1, 2 * i + 2)]
    assert rows == [(i, stages[2 * i]) for i in range(1, steps + 1)]


def test_rk4_rows_equal_lone_calls():
    """Rows with their own spans and step counts (0 included) stepped in
    lockstep end bit for bit where a separate call for each row ends, and rhs
    sees only the rows still stepping."""
    def field(t, y):
        return np.stack([np.sin(3.0 * y[..., 1]) + t, -y[..., 0] * np.cos(y[..., 1])], axis=-1)

    starts = np.array([[0.3, -0.2], [1.0, 0.5], [-0.7, 0.1], [0.2, 0.2]])
    t0, t1, steps = [0.0, 0.5, -0.2, 0.1], [1.0, -0.4, 0.9, 0.1], [4, 21, 9, 0]
    stepping = []

    def rows_rhs(t, y, rows):
        stepping.append(rows.tolist())
        return field(t, y)

    ends = rk4(rows_rhs, starts, t0, t1, steps)
    for b in range(len(starts)):
        lone = rk4(field, starts[b], t0[b], t1[b], steps[b]) if steps[b] else starts[b]
        assert np.array_equal(ends[b], lone), b
    assert stepping == [[b for b in range(4) if steps[b] > i] for i in range(21) for _ in range(4)]
