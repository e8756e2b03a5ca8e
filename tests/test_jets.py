"""Jet arithmetic against finite differences and hand values."""

import itertools
import math

import numpy as np
import pytest

from rwcert import jets
from rwcert.exprs import compile_expr, parse_expr, eval_expr
from rwcert.jets import Jet3, JetDomainError

from conftest import FD_STEPS, draw_expr_case, eval_real, fd_partial


def test_seed_variable_basic():
    jet = Jet3.variable(0, 2.0, 4)
    assert jet.value == 2.0
    assert np.array_equal(jet.grad, [1.0, 0.0, 0.0, 0.0])
    assert not jet.hess.any() and not jet.cube.any()


def test_seed_variable_last_index():
    jet = Jet3.variable(3, -1.5, 4)
    assert np.array_equal(jet.grad, [0.0, 0.0, 0.0, 1.0])


def test_seed_variable_out_of_range():
    with pytest.raises(IndexError):
        Jet3.variable(5, 0.0, 4)


def test_mul_square_dim1():
    x = Jet3.variable(0, 2.0, 1)
    sq = x * x
    assert sq.value == 4.0
    assert sq.grad[0] == 4.0
    assert sq.hess[0, 0] == 2.0
    assert sq.cube[0, 0, 0] == 0.0


def test_div_reciprocal_dim1():
    x = Jet3.variable(0, 2.0, 1)
    inv = Jet3.constant(1.0, 1) / x
    assert inv.value == 0.5
    assert inv.grad[0] == -0.25
    assert inv.hess[0, 0] == 0.25
    assert inv.cube[0, 0, 0] == -0.375


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        Jet3.variable(0, 1.0, 2) + Jet3.variable(0, 1.0, 3)


def test_division_by_zero_value():
    with pytest.raises(ZeroDivisionError):
        Jet3.variable(0, 1.0, 1) / Jet3.constant(0.0, 1)


def test_sin_at_zero():
    s = jets.sin(Jet3.variable(0, 0.0, 1))
    assert s.value == 0.0
    assert s.grad[0] == 1.0
    assert s.hess[0, 0] == 0.0
    assert s.cube[0, 0, 0] == -1.0


def test_ln_domain_error_names_value():
    with pytest.raises(JetDomainError, match="ln.*-1"):
        jets.ln(Jet3.constant(-1.0, 1))


def test_tan_pole_rejected():
    with pytest.raises(JetDomainError):
        jets.tan(Jet3.constant(math.pi / 2, 1))


def test_exp_of_square_matches_finite_differences():
    node = parse_expr("exp(x^2)", ["x"], ())
    jet = eval_expr(node, {"x": Jet3.variable(0, 1.0, 1)}, {})

    def fn(env):
        return eval_real(node, env, {})

    for order, index in ((1, (0,)), (2, (0, 0)), (3, (0, 0, 0))):
        ref = fd_partial(fn, {"x": 1.0}, tuple("x" for _ in index), FD_STEPS[order])
        got = [jet.grad[0], jet.hess[0, 0], jet.cube[0, 0, 0]][order - 1]
        assert abs(got - ref) < 1e-5 * (1.0 + abs(ref))


def _all_partials(dim):
    for i in range(dim):
        yield (i,)
    for i in range(dim):
        for j in range(i, dim):
            yield (i, j)
    for i in range(dim):
        for j in range(i, dim):
            for k in range(j, dim):
                yield (i, j, k)


def _jet_partial(jet, indices):
    if len(indices) == 1:
        return jet.grad[indices[0]]
    if len(indices) == 2:
        return jet.hess[indices]
    return jet.cube[indices]


@pytest.mark.parametrize("seed", range(4))
def test_random_trees_match_finite_differences(seed):
    """Sampled slice of the acceptance property (full 200 trees run there)."""
    rng = np.random.default_rng(1000 + seed)
    for _ in range(15):
        text, node, names, point = draw_expr_case(rng)
        env = {name: Jet3.variable(k, point[name], len(names))
               for k, name in enumerate(names)}
        jet = eval_expr(node, env, {})

        def fn(env_vals):
            return eval_real(node, env_vals, {})

        for indices in _all_partials(len(names)):
            ref = fd_partial(fn, point, tuple(names[i] for i in indices),
                             FD_STEPS[len(indices)])
            got = _jet_partial(jet, indices)
            assert abs(got - ref) < 1e-5 * (1.0 + abs(ref)), (text, indices)


def test_mul_commutative_associative_value_slot():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = Jet3(rng.normal(), rng.normal(size=3), rng.normal(size=(3, 3)),
                 rng.normal(size=(3, 3, 3)))
        b = Jet3(rng.normal(), rng.normal(size=3), rng.normal(size=(3, 3)),
                 rng.normal(size=(3, 3, 3)))
        c = Jet3.variable(1, rng.normal(), 3)
        assert (a * b).value == (b * a).value
        assert ((a * b) * c).value == pytest.approx((a * (b * c)).value, rel=1e-15)
        total = a + b
        assert np.array_equal(total.grad, a.grad + b.grad)
        assert np.array_equal(total.cube, a.cube + b.cube)


def test_symmetry_invariants_after_random_ops():
    """hess is symmetric under index swap and cube under all six permutations
    to rounding, at a point and over a batch: within 1e-13 of each slot's
    largest entry.  Not exactly: a product adds its mirrored terms in a fixed
    order, and some of these trees show it."""
    rng = np.random.default_rng(11)
    asymmetric = 0
    for _ in range(100):
        text, node, names, point = draw_expr_case(rng)
        program = compile_expr(node, {})
        if isinstance(program, float):
            continue
        n = len(names)
        batch = [[point[name] + 0.01 * k for k in range(3)] for name in names]
        for env in ({name: Jet3.variable(k, point[name], n) for k, name in enumerate(names)},
                    {name: Jet3.variable(k, batch[k], n) for k, name in enumerate(names)}):
            jet = program(env)
            for rank, slot in ((2, jet.hess), (3, jet.cube)):
                tol = 1e-13 * np.abs(slot).max()
                for perm in itertools.permutations(range(rank)):
                    moved = slot.transpose(perm + tuple(range(rank, slot.ndim)))
                    assert np.abs(slot - moved).max() <= tol, (text, perm)
                    asymmetric += not np.array_equal(slot, moved)
    assert asymmetric


def test_identity_expression_returns_seed():
    node = parse_expr("t", ["t"], ())
    seed = Jet3.variable(0, 4.25, 2)
    out = eval_expr(node, {"t": seed}, {})
    assert out.value == seed.value
    assert np.array_equal(out.grad, seed.grad)


def test_integer_power_exact_and_negative():
    x = Jet3.variable(0, 3.0, 1)
    cube = jets.pow_const(x, 3)
    assert cube.value == 27.0 and cube.grad[0] == 27.0 and cube.hess[0, 0] == 18.0
    inv2 = jets.pow_const(x, -2)
    assert inv2.value == pytest.approx(1 / 9)
    assert inv2.grad[0] == pytest.approx(-2 / 27)
    with pytest.raises(JetDomainError):
        jets.pow_const(Jet3.constant(-1.0, 1), 0.5)


@pytest.mark.parametrize("seed", range(3))
def test_truncated_orders_equal_leading_slots_of_order_three(seed):
    """Order-1 and order-2 jets are the order-3 computation cut short: every
    slot they carry equals the order-3 slot bit for bit, the rest are None."""
    rng = np.random.default_rng(4000 + seed)
    for _ in range(20):
        text, node, names, point = draw_expr_case(rng)
        program = compile_expr(node, {})
        if isinstance(program, float):
            continue
        by_order = {order: program({name: Jet3.variable(k, point[name], len(names), order)
                                    for k, name in enumerate(names)})
                    for order in (1, 2, 3)}
        full = by_order[3]
        assert full.order == 3 and full.cube is not None
        for order in (1, 2):
            jet = by_order[order]
            assert jet.order == order, text
            assert jet.value == full.value, text
            assert np.array_equal(jet.grad, full.grad), text
            assert jet.cube is None, text
            if order == 1:
                assert jet.hess is None, text
            else:
                assert np.array_equal(jet.hess, full.hess), text


def test_constant_seed_orders():
    assert Jet3.constant(2.0, 3, order=1).hess is None
    two = Jet3.constant(2.0, 3, order=2)
    assert two.order == 2 and two.cube is None and not two.hess.any()
    assert Jet3.variable(1, 0.5, 3).order == 3
    with pytest.raises(ValueError):
        Jet3.variable(0, 0.5, 3, order=4)


def test_scalar_operands_scale_and_shift():
    x = Jet3.variable(0, 3.0, 2)
    assert (x * 2.0).value == 6.0 and np.array_equal((2.0 * x).grad, [2.0, 0.0])
    assert (x + 1.5).grad is x.grad and (x - 1.5).value == 1.5
    assert (1.0 - x).value == -2.0 and np.array_equal((1.0 - x).grad, [-1.0, 0.0])
    half = x / 2.0
    assert half.value == 1.5 and half.hess[0, 0] == 0.0
    assert (6.0 / x).grad[0] == pytest.approx(-6.0 / 9.0)
    with pytest.raises(ZeroDivisionError):
        x / 0.0


@pytest.mark.parametrize("seed", range(3))
def test_batched_jets_equal_scalar_jets_per_point(seed):
    """A program run on jets with a trailing batch axis gives, at each point,
    the slots the scalar jets give there, bit for bit."""
    rng = np.random.default_rng(5000 + seed)
    for _ in range(20):
        text, node, names, point = draw_expr_case(rng)
        program = compile_expr(node, {})
        if isinstance(program, float):
            continue
        points = [{name: point[name] + 0.01 * k for name in names} for k in range(3)]
        batch = program({name: Jet3.variable(k, [p[name] for p in points], len(names))
                         for k, name in enumerate(names)})
        assert batch.shape == (3,) and batch.grad.shape == (len(names), 3), text
        for b, p in enumerate(points):
            jet = program({name: Jet3.variable(k, p[name], len(names))
                           for k, name in enumerate(names)})
            for got, want in ((batch.value[b], jet.value), (batch.grad[..., b], jet.grad),
                              (batch.hess[..., b], jet.hess), (batch.cube[..., b], jet.cube)):
                assert np.array_equal(got, want), text


def test_batched_domain_errors_name_the_first_offending_value():
    x = Jet3.variable(0, [0.5, -0.25, -2.0], 1)
    with pytest.raises(JetDomainError, match="ln undefined at value -0.25"):
        jets.ln(x)
    with pytest.raises(JetDomainError, match=r"pow\(0.5\) undefined at value -0.25"):
        jets.pow_const(x, 0.5)
    with pytest.raises(ZeroDivisionError):
        1.0 / (x - 0.5)
    zero = jets.pow_const(x, 0)
    assert zero.shape == (3,) and np.array_equal(zero.value, [1.0, 1.0, 1.0])
    assert not zero.grad.any()
