"""The shared fixed-step RK4 loop."""

import numpy as np
import pytest

from rwcert.integrate import doubled, rk4, stage_taus


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


def _scripted(changes: dict, last: int | None = None):
    """A run whose value at a step count is the count, and a change that
    reads the fine count's entry of `changes`; the run records each request
    and raises if a level beyond `last` is consumed."""
    requests = []

    def run(counts):
        requests.append(list(counts))
        for count in counts:
            if last is not None and count > last:
                raise AssertionError(f"level {count} consumed")
            yield count

    return run, (lambda coarse, fine: changes[fine]), requests


def test_doubled_predicts_the_levels_rk4_needs():
    """After the first pair, ceil(log16(change / tol)) more levels are asked
    for at once (1e3 -> 3), and the first pair under tol is accepted."""
    run, change, requests = _scripted({8: 1e-5, 16: 1e-6, 32: 1e-7, 64: 1e-9})
    result = doubled(run, 4, change, 1e-8, 10)
    assert requests == [[4, 8], [16, 32, 64]]
    assert result == (64, 64, 1e-9, True)


def test_doubled_asks_again_when_the_prediction_falls_short():
    """A change that shrinks more slowly than 16 per doubling spends the
    levels asked for, and the next request is predicted from the last change;
    a change at most 16 tol asks for one level."""
    run, change, requests = _scripted({2: 1e-6, 4: 1e-7, 8: 1.6e-7, 16: 1e-9})
    result = doubled(run, 1, change, 1e-8, 10)
    assert requests == [[1, 2], [4, 8], [16]]
    assert result == (16, 16, 1e-9, True)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_doubled_asks_one_level_after_a_non_finite_change(bad):
    run, change, requests = _scripted({2: bad, 4: bad, 8: 1e-12})
    result = doubled(run, 1, change, 1e-8, 10)
    assert requests == [[1, 2], [4], [8]]
    assert result == (8, 8, 1e-12, True)


def test_doubled_caps_the_levels_at_the_doublings_left():
    """A change of 1e6 tol would ask for 5 levels; with 3 doublings allowed
    only 2 more are asked for, and the run ends unconverged."""
    run, change, requests = _scripted({2: 1e-2, 4: 1e-3, 8: 1e-4})
    result = doubled(run, 1, change, 1e-8, 3)
    assert requests == [[1, 2], [4, 8]]
    assert result == (8, 8, 1e-4, False)


def test_doubled_takes_a_change_too_large_for_its_ratio_to_tol():
    """A finite change of 1e305 over tol 1e-8 overflows change / tol; it asks
    for the doublings left, here 2, and the run ends unconverged."""
    run, change, requests = _scripted({2: 1e305, 4: 1e305, 8: 1e305})
    result = doubled(run, 1, change, 1e-8, 3)
    assert requests == [[1, 2], [4, 8]]
    assert result == (8, 8, 1e305, False)


def test_doubled_never_consumes_a_level_past_the_accepted_pair():
    """A run that would raise at its third level returns after a first pair
    under tol, and one that would raise past the accepted pair of a larger
    request returns too: those levels are never consumed."""
    run, change, requests = _scripted({2: 1e-9}, last=2)
    assert doubled(run, 1, change, 1e-8, 10) == (2, 2, 1e-9, True)

    def run_extra(counts):      # yields a third level it was not asked for
        yield from counts
        raise AssertionError("third level consumed")

    assert doubled(run_extra, 1, change, 1e-8, 10) == (2, 2, 1e-9, True)
    run, change, requests = _scripted({2: 1e-6, 4: 1e-9}, last=4)
    assert doubled(run, 1, change, 1e-8, 10) == (4, 4, 1e-9, True)
    assert requests == [[1, 2], [4, 8]]
