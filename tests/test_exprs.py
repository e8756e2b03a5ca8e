"""Parser grammar, printer round trip, and jet evaluation of expressions."""

import math

import numpy as np
import pytest

from rwcert.exprs import (BinOp, Call, EvalDomainError, ExprError, Neg, Num,
                          ParamRef, UnknownIdentifierError, compile_expr,
                          compile_exprs, eval_expr, parse_expr)
from rwcert import jets
from rwcert.jets import Jet3

from conftest import draw_expr_case, eval_real
from oracles import format_expr


def test_precedence_mul_pow_call():
    node = parse_expr("2*a^2*sin(t)", ["t"], {"a"})
    # ((2 * a^2) * sin(t))
    assert isinstance(node, BinOp) and node.op == "*"
    assert isinstance(node.right, Call) and node.right.fn == "sin"
    inner = node.left
    assert isinstance(inner, BinOp) and inner.op == "*"
    assert isinstance(inner.left, Num) and inner.left.value == 2.0
    assert isinstance(inner.right, BinOp) and inner.right.op == "^"
    assert isinstance(inner.right.left, ParamRef)


def test_unknown_identifier_named():
    with pytest.raises(UnknownIdentifierError, match="'q'"):
        parse_expr("sin(q)", ["t"], ())


def test_unary_minus_binds_looser_than_power():
    node = parse_expr("-t^2", ["t"], ())
    assert isinstance(node, Neg)
    assert isinstance(node.child, BinOp) and node.child.op == "^"
    value = eval_real(node, {"t": 3.0}, {})
    assert value == -9.0


def test_power_right_associative():
    node = parse_expr("2^3^2", [], ())
    assert eval_real(node, {}, {}) == 512.0


def test_unary_minus_after_operator():
    node = parse_expr("2*-3", [], ())
    assert eval_real(node, {}, {}) == -6.0


def test_pi_constant():
    node = parse_expr("cos(pi)", [], ())
    assert eval_real(node, {}, {}) == pytest.approx(-1.0)


def test_syntax_error_reports_offset():
    with pytest.raises(ExprError) as err:
        parse_expr("1 + * 2", [], ())
    assert err.value.offset == 4


def test_unexpected_character_offset():
    with pytest.raises(ExprError) as err:
        parse_expr("t + $u", ["t", "u"], ())
    assert err.value.offset == 4


def test_empty_expression_rejected():
    with pytest.raises(ExprError):
        parse_expr("   ", ["t"], ())


def test_trailing_input_rejected():
    with pytest.raises(ExprError):
        parse_expr("t t", ["t"], ())


def test_eval_square_jet():
    node = parse_expr("t^2", ["t"], ())
    jet = eval_expr(node, {"t": Jet3.variable(0, 3.0, 1)}, {})
    assert jet.value == 9.0 and jet.grad[0] == 6.0 and jet.hess[0, 0] == 2.0


def test_eval_exp_matches_finite_differences():
    node = parse_expr("exp(2*t)", ["t"], ())
    jet = eval_expr(node, {"t": Jet3.variable(0, 0.5, 1)}, {})
    h = 1e-4
    for order, got in ((1, jet.grad[0]), (2, jet.hess[0, 0])):
        if order == 1:
            ref = (math.exp(2 * (0.5 + h)) - math.exp(2 * (0.5 - h))) / (2 * h)
        else:
            ref = (math.exp(2 * (0.5 + h)) - 2 * math.exp(1.0) + math.exp(2 * (0.5 - h))) / h**2
        assert abs(got - ref) < 1e-5 * (1 + abs(ref))


def test_eval_domain_error_carries_span():
    node = parse_expr("1 + ln(t)", ["t"], ())
    with pytest.raises(EvalDomainError) as err:
        eval_expr(node, {"t": Jet3.variable(0, -1.0, 1)}, {}, source="1 + ln(t)")
    assert err.value.span == (4, 9)
    assert "ln(t)" in str(err.value)


def test_nonconstant_exponent_rewritten():
    node = parse_expr("t^t", ["t"], ())
    jet = eval_expr(node, {"t": Jet3.variable(0, 2.0, 1)}, {})
    assert jet.value == pytest.approx(4.0)
    # d/dt t^t = t^t (ln t + 1)
    assert jet.grad[0] == pytest.approx(4.0 * (math.log(2.0) + 1.0))
    with pytest.raises(EvalDomainError):
        eval_expr(node, {"t": Jet3.variable(0, -2.0, 1)}, {})


def test_param_exponent_is_constant_folded():
    node = parse_expr("t^n", ["t"], {"n"})
    jet = eval_expr(node, {"t": Jet3.variable(0, 2.0, 1)}, {"n": 3.0})
    assert jet.value == 8.0 and jet.grad[0] == 12.0


@pytest.mark.parametrize("seed", range(5))
def test_parse_print_parse_round_trip(seed):
    rng = np.random.default_rng(2000 + seed)
    for _ in range(20):
        text, node, names, _ = draw_expr_case(rng, depth=5)
        again = parse_expr(format_expr(node), names, ())
        assert again == node, text


@pytest.mark.parametrize("seed", range(5))
def test_order_zero_jets_match_real_evaluation(seed):
    rng = np.random.default_rng(3000 + seed)
    for _ in range(20):
        text, node, names, point = draw_expr_case(rng, depth=5)
        env = {name: Jet3.variable(k, point[name], len(names))
               for k, name in enumerate(names)}
        jet = eval_expr(node, env, {})
        ref = eval_real(node, point, {})
        assert jet.value == pytest.approx(ref, rel=1e-12, abs=1e-12), text


def test_constant_expression_compiles_to_a_float():
    node = parse_expr("2*M/3 + sin(M)^2", ["t"], {"M"})
    program = compile_expr(node, {"M": 1.5})
    assert isinstance(program, float)
    # folding follows the jet arithmetic: c1/c2 is c1 * (1/c2), powers multiply
    assert program == (2 * 1.5) * (1.0 / 3.0) + np.sin(1.5) * np.sin(1.5)


def test_compiled_program_is_reusable_and_matches_eval_expr():
    node = parse_expr("t^2 / (1 + x) - 3*exp(-t)", ["t", "x"], ())
    program = compile_expr(node, {})
    for t, x in ((0.3, 0.1), (1.2, -0.4)):
        env = {"t": Jet3.variable(0, t, 2), "x": Jet3.variable(1, x, 2)}
        once = eval_expr(node, env, {})
        again = program(env)
        assert again.value == once.value
        assert np.array_equal(again.cube, once.cube)


def test_constant_domain_error_raised_at_evaluation_with_span():
    text = "t + ln(-1)"
    node = parse_expr(text, ["t"], ())
    program = compile_expr(node, {}, source=text)     # compiling does not raise
    for _ in range(2):
        with pytest.raises(EvalDomainError) as err:
            program({"t": Jet3.variable(0, 0.5, 1)})
        assert err.value.span == (4, 10)
    with pytest.raises(EvalDomainError):
        eval_expr(parse_expr("1/(2 - 2)", ["t"], ()), {"t": Jet3.variable(0, 0.5, 1)}, {})


def test_eval_expr_constant_takes_the_environment_order():
    node = parse_expr("pi", ["t"], ())
    jet = eval_expr(node, {"t": Jet3.variable(0, 0.5, 2, order=1)}, {})
    assert jet.value == math.pi and jet.hess is None and jet.dim == 2


def test_compile_exprs_computes_a_shared_subtree_once(monkeypatch):
    calls = []
    real_sin = jets.ELEMENTARY["sin"]

    def counting_sin(arg):
        calls.append(arg.value)
        return real_sin(arg)

    monkeypatch.setitem(jets.ELEMENTARY, "sin", counting_sin)
    texts = ["(1 + sin(t))^2", "(1 + sin(t))^2 * x", "x + sin(t)"]
    nodes = [parse_expr(text, ["t", "x"], ()) for text in texts]
    programs = compile_exprs(nodes, {}, texts)
    env = {"t": Jet3.variable(0, 0.4, 2), "x": Jet3.variable(1, -0.3, 2)}
    shared = [program(env) for program in programs]
    assert len(calls) == 1
    for text, node, jet in zip(texts, nodes, shared):
        alone = compile_expr(node, {})({"t": env["t"], "x": env["x"]})
        assert jet.value == alone.value and np.array_equal(jet.cube, alone.cube), text


def test_compile_exprs_shared_domain_error_names_first_occurrence():
    texts = ["x * ln(t)", "ln(t) + 1"]
    nodes = [parse_expr(text, ["t", "x"], ()) for text in texts]
    programs = compile_exprs(nodes, {}, texts)
    env = {"t": Jet3.variable(0, -1.0, 2), "x": Jet3.variable(1, 0.5, 2)}
    with pytest.raises(EvalDomainError) as err:
        programs[0](env)
    assert err.value.span == (4, 9) and "ln(t)" in str(err.value)
