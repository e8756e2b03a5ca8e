"""The package's ODE steppers: fixed-step RK4 with step doubling, and the
adaptive Dormand-Prince 5(4) pair."""

import tracemalloc

import numpy as np
import pytest

from rwcert.integrate import doubled, dopri, rk4


def test_rk4_rows_equal_lone_calls():
    """Rows with their own widths and step counts (0 included) stepped in
    lockstep end bit for bit where a one-row call for each ends; rhs sees only
    the rows still stepping, and its k1 argument at step i holds the states
    one-row calls of i steps reach."""
    def field(y, rows):
        return np.stack([np.sin(3.0 * y[:, 1]) + y[:, 0] ** 2, -y[:, 0] * np.cos(y[:, 1])], axis=-1)

    starts = np.array([[0.3, -0.2], [1.0, 0.5], [-0.7, 0.1], [0.2, 0.2]])
    h, steps = [0.25, -0.043, 0.122, 0.3], [4, 21, 9, 0]
    seen = []

    def rows_rhs(y, rows):
        seen.append((rows.tolist(), y.copy()))
        return field(y, rows)

    given = starts.copy()
    ends = rk4(rows_rhs, starts, h, steps)
    assert np.array_equal(starts, given)
    for b in range(len(starts)):
        lone = rk4(field, starts[b:b + 1], h[b:b + 1], steps[b:b + 1])
        assert np.array_equal(ends[b], lone[0]), b
    live = [[b for b in range(4) if steps[b] > i] for i in range(21)]
    assert [rows for rows, _ in seen] == [rows for rows in live for _ in range(4)]
    for i, (rows, x) in enumerate(seen[0::4]):
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


def _oscillator(y, rows):
    """(sin, cos, clock)' = (cos, -sin, 1)."""
    return np.stack([y[:, 1], -y[:, 0], np.ones(len(y))], axis=-1)


OSCILLATOR_SPANS = [3.0, -2.0, 0.7, -0.01, 0.0, 10.0]


def test_dopri_follows_the_oscillator_in_lockstep():
    """Rows from (0, 1, 0) with spans of both signs end within 10 tol of
    (sin, cos) at their spans, each bit for bit where a one-row call ends;
    rhs sees only the rows still stepping, and a span of 0 never."""
    tol, spans = 1e-8, OSCILLATOR_SPANS
    starts = np.tile([0.0, 1.0, 0.0], (len(spans), 1))
    seen = []

    def recording(y, rows):
        seen.append(rows.tolist())
        return _oscillator(y, rows)

    ends, unfinished = dopri(recording, starts, spans, tol, 1000)
    assert not len(unfinished)
    assert np.array_equal(starts, np.tile([0.0, 1.0, 0.0], (len(spans), 1)))
    want = np.stack([np.sin(spans), np.cos(spans)], axis=-1)
    assert np.abs(ends[:, :2] - want).max() < 10 * tol
    for b, span in enumerate(spans):
        assert np.array_equal(ends[b], dopri(_oscillator, starts[b:b + 1], [span], tol, 1000)[0][0])
    assert all(4 not in rows for rows in seen)
    assert seen[0] == [0, 1, 2, 3, 5] and seen[-1] == [5]


def test_dopri_evaluates_nothing_for_a_span_of_0():
    def no_calls(y, rows):
        raise AssertionError("rhs called")

    start = np.array([[0.3, -1.0]])
    assert np.array_equal(dopri(no_calls, start, [0.0], 1e-8, 1000)[0], start)


@pytest.mark.parametrize("span", [0.9, -0.9])
def test_dopri_lands_on_the_span(span):
    """y' = 1 from 0 at tol 1e-3: the first step is 100 x 1e-6 (y0 = 0) and
    each step grows 5-fold, 1e-4 (1 + 5 + ... + 5^5) = 0.3906 in 6 steps;
    the 7th is clipped to end on the span, where t + (span - t) is not the
    span in floating point, and no sliver step follows: 2 + 6 x 7 calls."""
    starts = []

    def constant(y, rows):
        starts.append(y[0, 0])
        return np.ones_like(y)

    end = dopri(constant, np.zeros((1, 1)), [span], 1e-3, 1000)[0]
    assert len(starts) == 2 + 6 * 7
    assert end[0, 0] == pytest.approx(span, abs=1e-15)


def test_dopri_stops_a_row_at_a_non_finite_stage():
    """A row whose derivative turns nan past sin = 0.5 stops where its
    failing step started, finite and short of 0.5, and is not called again;
    the other rows end bit for bit as they do alone."""
    calls = []

    def failing(y, rows):
        calls.append(rows.tolist())
        k = _oscillator(y, rows)
        k[(rows == 1) & (y[:, 0] > 0.5)] = np.nan
        return k

    starts = np.tile([0.0, 1.0, 0.0], (3, 1))
    spans = [2.0, 1.5, -1.0]
    ends = dopri(failing, starts, spans, 1e-8, 1000)[0]
    assert np.isfinite(ends[1]).all() and ends[1, 0] <= 0.5 and ends[1, 2] < 1.5
    last = max(i for i, rows in enumerate(calls) if 1 in rows)
    assert all(1 not in rows for rows in calls[last + 1:]) and len(calls) > last + 1
    for b in (0, 2):
        assert np.array_equal(ends[b], dopri(_oscillator, starts[b:b + 1], spans[b:b + 1],
                                             1e-8, 1000)[0][0])


def test_dopri_returns_the_rows_past_the_step_cap():
    """A row that needs more than max_steps steps is returned among the
    unfinished rows, at the state its max_steps steps reached; a row that
    lands within them is not."""
    starts = np.tile([0.0, 1.0, 0.0], (3, 1))
    ends, unfinished = dopri(_oscillator, starts, [0.0, 3.0, 0.01], 1e-8, 3)
    assert unfinished.tolist() == [1]
    assert 0.0 < ends[1, 2] < 3.0 and ends[2, 2] == pytest.approx(0.01, abs=1e-15)


def test_dopri_does_not_grow_the_step_after_a_rejection():
    """(clock, z)' = (1, exp(-((clock - 0.5) / 0.1)^2)) from 0 to 1: the bump
    rejects steps (a step that starts where the one before it started), and
    the step after the next accepted one is no wider than that accepted one.
    Each step's start and width are read off its stage-2 and stage-7 clocks."""
    clocks = []

    def bump(y, rows):
        clocks.append(y[0, 0])
        return np.stack([np.ones(len(y)), np.exp(-((y[:, 0] - 0.5) / 0.1) ** 2)], axis=-1)

    dopri(bump, np.zeros((1, 2)), [1.0], 1e-8, 1000)
    second, seventh = np.array(clocks[2::6]), np.array(clocks[7::6])
    width = (seventh - second) / 0.8
    start = second - 0.2 * width
    rejected = [i for i in range(len(width) - 2) if abs(start[i + 1] - start[i]) < 1e-12]
    assert len(rejected) >= 3
    for i in rejected:
        if abs(start[i + 2] - start[i + 1]) > 1e-12:
            assert width[i + 2] <= width[i + 1] * (1 + 1e-9), i
