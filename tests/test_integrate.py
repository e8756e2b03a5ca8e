"""The shared fixed-step RK4 loop."""

import tracemalloc

import numpy as np
import pytest

from rwcert.integrate import doubled, rk4


def test_rk4_rows_equal_lone_calls():
    """Rows with their own widths and step counts (0 included) stepped in
    lockstep end bit for bit where a one-row call for each ends; rhs sees only
    the rows still stepping, and row(i, x) runs after each step with the
    states those rows reached."""
    def field(y, rows):
        return np.stack([np.sin(3.0 * y[:, 1]) + y[:, 0] ** 2, -y[:, 0] * np.cos(y[:, 1])], axis=-1)

    starts = np.array([[0.3, -0.2], [1.0, 0.5], [-0.7, 0.1], [0.2, 0.2]])
    h, steps = [0.25, -0.043, 0.122, 0.3], [4, 21, 9, 0]
    stepping, after = [], []

    def rows_rhs(y, rows):
        stepping.append(rows.tolist())
        return field(y, rows)

    given = starts.copy()
    ends = rk4(rows_rhs, starts, h, steps, lambda i, x: after.append((i, x)))
    assert np.array_equal(starts, given)
    for b in range(len(starts)):
        lone = rk4(field, starts[b:b + 1], h[b:b + 1], steps[b:b + 1])
        assert np.array_equal(ends[b], lone[0]), b
    live = [[b for b in range(4) if steps[b] > i] for i in range(21)]
    assert stepping == [rows for rows in live for _ in range(4)]
    assert [i for i, _ in after] == list(range(1, 22))
    for (i, x), rows in zip(after, live):
        alone = [rk4(field, starts[b:b + 1], h[b:b + 1], [i])[0] for b in rows]
        assert np.array_equal(x, alone), i


def test_rk4_keeps_no_table_per_step():
    """One row over 8,000 steps allocates nothing that grows with the step
    count: a table of its 16,001 stage times alone would be 128 KB."""
    tracemalloc.start()
    try:
        rk4(lambda y, rows: y, np.ones((1, 2)), [1e-4], [8_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


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
