"""Metric expression language: tokenizer, parser, printer, jet compiler.

Grammar, loosest to tightest binding:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

so ``-t^2`` parses as ``-(t^2)``.  Identifiers are ASCII; numbers are decimal
with optional fraction and exponent.  The recognized functions are exactly the
jet elementary set, plus ``pi`` as a constant.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

from . import jets
from .jets import Jet3

FUNCTION_NAMES = frozenset(jets.ELEMENTARY)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


class ExprError(ValueError):
    """Syntax or resolution failure, carrying the byte offset in the source."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, offset: int):
        self.name = name
        super().__init__(f"unknown identifier {name!r}", offset)


class EvalDomainError(ArithmeticError):
    """A jet domain violation, annotated with the offending source span."""

    def __init__(self, message: str, source: str, span: tuple[int, int]):
        self.span = span
        snippet = source[span[0]:span[1]]
        super().__init__(f"{message} in {snippet!r} (span {span[0]}:{span[1]})")


# -- AST ----------------------------------------------------------------------
# Spans never take part in equality, so `==` is structural identity.

@dataclass(frozen=True)
class Num:
    value: float
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class CoordRef:
    name: str
    index: int
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class ParamRef:
    name: str
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Neg:
    child: "Expr"
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"
    span: tuple[int, int] = field(compare=False, default=(0, 0))


Expr = Union[Num, CoordRef, ParamRef, Neg, BinOp, Call]


# -- parsing -------------------------------------------------------------------

@dataclass
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if bad >= len(text):
                break
            raise ExprError(f"unexpected character {text[bad]!r}", bad)
        pos = m.end()
        for kind in ("num", "ident", "op"):
            got = m.group(kind)
            if got is not None:
                tokens.append(_Token(kind, got, m.start(kind)))
                break
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, coords: Sequence[str], params):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.coords = {name: k for k, name in enumerate(coords)}
        self.params = set(params)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprError(f"expected {text!r}", tok.pos)
        return self.advance()

    def end_of(self, node_start: int) -> tuple[int, int]:
        prev = self.tokens[self.i - 1]
        return (node_start, prev.pos + len(prev.text))

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Expr:
        start = self.peek().pos
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = BinOp(op, node, rhs, self.end_of(start))
        return node

    def term(self) -> Expr:
        start = self.peek().pos
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.unary()
            node = BinOp(op, node, rhs, self.end_of(start))
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            child = self.unary()
            return Neg(child, self.end_of(tok.pos))
        return self.power()

    def power(self) -> Expr:
        start = self.peek().pos
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            rhs = self.unary()
            node = BinOp("^", node, rhs, self.end_of(start))
        return node

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text), (tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "ident":
            name = tok.text
            if self.peek().kind == "op" and self.peek().text == "(":
                if name not in FUNCTION_NAMES:
                    raise UnknownIdentifierError(name, tok.pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(name, arg, self.end_of(tok.pos))
            if name == "pi":
                return Num(math.pi, (tok.pos, tok.pos + len(tok.text)))
            if name in self.coords:
                return CoordRef(name, self.coords[name], (tok.pos, tok.pos + len(tok.text)))
            if name in self.params:
                return ParamRef(name, (tok.pos, tok.pos + len(tok.text)))
            raise UnknownIdentifierError(name, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {tok.text!r}" if tok.kind != "end"
                        else "unexpected end of input", tok.pos)


def parse_expr(text: str, coords: Sequence[str], params) -> Expr:
    """Parse `text` against the declared coordinate and parameter names."""
    if not text.strip():
        raise ExprError("empty expression", 0)
    return _Parser(text, coords, params).parse()


# -- printing ------------------------------------------------------------------

def format_expr(node: Expr) -> str:
    """Fully parenthesized rendering; reparsing yields a structurally equal AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (CoordRef, ParamRef)):
        return node.name
    if isinstance(node, Neg):
        return f"(-{format_expr(node.child)})"
    if isinstance(node, BinOp):
        return f"({format_expr(node.left)} {node.op} {format_expr(node.right)})"
    if isinstance(node, Call):
        return f"{node.fn}({format_expr(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


# -- compilation and evaluation ---------------------------------------------------
# An expression is compiled once into a tree of closures.  A subtree that does
# not reference a coordinate folds to a float at compile time, by the same jet
# arithmetic that would evaluate it, so folding never changes a result:
# c1/c2 becomes c1 * (1/c2), integer powers are repeated products and the
# elementary functions make the same numpy calls.  A domain error inside such
# a subtree is not raised at compile time; the compiled program raises it,
# with its span, whenever it is run.

Program = Union[float, Callable[[Mapping[str, Jet3]], Jet3]]


def compile_expr(node: Expr, params: Mapping[str, float], source: str = "") -> Program:
    """Compile an expression with its parameter values bound.

    Returns a float when the expression does not depend on the coordinates,
    otherwise a function from a coordinate-jet environment (a Jet3 for every
    coordinate the expression references, all of one dimension and order) to
    the result's Jet3, of that order.  Domain failures surface as
    EvalDomainError tagged with the failing node's source span.
    """
    return _Compiler(params, frozenset()).compile(node, source)


def compile_exprs(nodes: Sequence[Expr], params: Mapping[str, float],
                  sources: Sequence[str]) -> list[Program]:
    """Compile expressions that are evaluated together, at the same points.

    As compile_expr, except that a subtree depending on the coordinates and
    occurring more than once among them is computed once per evaluation: the
    first program to need it keeps its result in the environment dict, under
    an integer key, for the others.  So each point needs a fresh environment.
    A domain error inside a shared subtree names the source and span of its
    first occurrence, which is where it is raised when the programs run in
    order.
    """
    counts = Counter(sub for node in nodes for sub in _inner_subtrees(node))
    compiler = _Compiler(params, frozenset(sub for sub, count in counts.items() if count > 1))
    return [compiler.compile(node, source) for node, source in zip(nodes, sources, strict=True)]


def _inner_subtrees(node: Expr):
    """Every subtree that is not a leaf."""
    if isinstance(node, Neg):
        children = (node.child,)
    elif isinstance(node, Call):
        children = (node.arg,)
    elif isinstance(node, BinOp):
        children = (node.left, node.right)
    else:
        return
    yield node
    for child in children:
        yield from _inner_subtrees(child)


class _Compiler:
    def __init__(self, params: Mapping[str, float], repeated: frozenset):
        self.params = params
        self.repeated = repeated           # subtrees to compute once per environment
        self.shared: dict[Expr, Program] = {}

    def compile(self, node: Expr, source: str) -> Program:
        if node not in self.repeated:
            return self._compile(node, source)
        program = self.shared.get(node)
        if program is None:
            program = self._compile(node, source)
            if not isinstance(program, float):
                program = _memoized(program, len(self.shared))
            self.shared[node] = program
        return program

    def _compile(self, node: Expr, source: str) -> Program:
        if isinstance(node, Num):
            return float(node.value)
        if isinstance(node, ParamRef):
            return float(self.params[node.name])
        if isinstance(node, CoordRef):
            name = node.name
            return lambda env: env[name]
        if isinstance(node, Neg):
            child = self.compile(node.child, source)
            if isinstance(child, float):
                return -child
            return lambda env: -child(env)
        if isinstance(node, Call):
            return _compile_call(jets.ELEMENTARY[node.fn], self.compile(node.arg, source),
                                 node.span, source)
        if isinstance(node, BinOp):
            left = self.compile(node.left, source)
            right = self.compile(node.right, source)
            if node.op == "^":
                return _compile_pow(left, right, node.span, source)
            return _compile_arith(node.op, left, right, node.span, source)
        raise TypeError(f"not an expression node: {node!r}")


def _memoized(program, key: int):
    """Run `program` once per environment, keeping the result there under `key`."""
    def run(env):
        jet = env.get(key)
        if jet is None:
            jet = env[key] = program(env)
        return jet
    return run


def eval_expr(node: Expr, env: Mapping[str, Jet3], params: Mapping[str, float],
              source: str = "") -> Jet3:
    """Compile and run once over jet arithmetic (see compile_expr).

    `env` must hold a Jet3 for every coordinate the expression references; all
    jets share one dimension and order, which the result has too.
    """
    if not env:
        raise ValueError("evaluation environment must contain at least one coordinate jet")
    program = compile_expr(node, params, source)
    if isinstance(program, float):
        seed = next(iter(env.values()))
        return Jet3.constant(program, seed.dim, seed.order)
    return program(env)


def _fold(build, *constants: float) -> Program:
    """Apply a compiled operation to constants through order-1 jets of
    dimension 1, whose value slot is computed exactly as at any order.  An
    arithmetic failure is kept for run time: the unfolded program is returned
    and raises the same error whenever it runs."""
    program = build(*(_constant_program(c) for c in constants))
    try:
        return float(program(None).value)
    except ArithmeticError:
        return program


def _constant_program(c: float):
    jet = Jet3.constant(c, 1, order=1)
    return lambda env: jet


def _compile_call(impl, arg: Program, span, source: str) -> Program:
    if isinstance(arg, float):
        return _fold(lambda a: _compile_call(impl, a, span, source), arg)

    def run(env):
        value = arg(env)
        try:
            return impl(value)
        except jets.JetDomainError as err:
            raise EvalDomainError(str(err), source, span) from err
    return run


def _compile_pow(left: Program, right: Program, span, source: str) -> Program:
    if isinstance(left, float) and isinstance(right, float):
        return _fold(lambda a: _compile_pow(a, right, span, source), left)
    if isinstance(right, float):
        def run(env):
            base = left(env)
            try:
                return jets.pow_const(base, right)
            except (jets.JetDomainError, ZeroDivisionError) as err:
                raise EvalDomainError(str(err), source, span) from err
        return run

    def run_general(env):
        # a^b = exp(b ln a); a constant base becomes a constant jet
        base = None if isinstance(left, float) else left(env)
        power = right(env)
        if base is None:
            base = Jet3.constant(left, power.dim, power.order)
        try:
            return jets.exp(power * jets.ln(base))
        except (jets.JetDomainError, ZeroDivisionError) as err:
            raise EvalDomainError(str(err), source, span) from err
    return run_general


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _compile_arith(op: str, left: Program, right: Program, span, source: str) -> Program:
    """A jet combined with a constant operand is a scale or a shift (jets.Jet3)."""
    if isinstance(left, float) and isinstance(right, float):
        return _fold(lambda a, b: _compile_arith(op, a, b, span, source), left, right)
    apply = _ARITH[op]

    def fail(err):
        return EvalDomainError(str(err), source, span)

    if isinstance(right, float):
        def run_constant_right(env):
            a = left(env)
            try:
                return apply(a, right)
            except ZeroDivisionError as err:
                raise fail(err) from err
        return run_constant_right
    if isinstance(left, float):
        def run_constant_left(env):
            b = right(env)
            try:
                return apply(left, b)
            except ZeroDivisionError as err:
                raise fail(err) from err
        return run_constant_left

    def run(env):
        a = left(env)
        b = right(env)
        try:
            return apply(a, b)
        except ZeroDivisionError as err:
            raise fail(err) from err
    return run
