"""Order-truncated multivariate Taylor arithmetic, up to third order.

A ``Jet3`` carries a scalar value together with its coordinate partials up to
its order: the gradient always, the Hessian from order 2 and the third-order
cube at order 3.  Slots above the order are ``None`` and are never computed,
so an order-1 caller (a transport integrator needing only the connection)
pays for gradients alone.  Order 3 is the maximum and the default: second
metric derivatives feed the curvature tensor and one extra order supplies the
differentials of the derived scalar fields.  The slots a jet does carry are
computed by the same operations at every order, so an order-1 or order-2 jet
equals the leading slots of the order-3 jet bit for bit.

Storage is dense and kept exactly symmetric (``hess`` under index swap,
``cube`` under all six permutations); at dimension <= 8 density is cheaper
than any packing.  A jet combined with a plain number is a scale or a shift,
without a product rule over zero slots.  Combining jets of two orders gives a
jet of the lower order.

Jets are value objects: operations never mutate their inputs, so instances
and their arrays may be shared freely between concurrent evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ORDER = 3


class JetDomainError(ArithmeticError):
    """A univariate function was evaluated outside its real domain."""

    def __init__(self, fn: str, value: float):
        self.fn = fn
        self.value = value
        super().__init__(f"{fn} undefined at value {value!r}")


@dataclass(slots=True)
class Jet3:
    """Truncated Taylor expansion: value, gradient, Hessian and third cube."""

    value: float
    grad: np.ndarray                 # shape (n,)
    hess: np.ndarray | None = None   # shape (n, n), symmetric; None below order 2
    cube: np.ndarray | None = None   # shape (n, n, n), totally symmetric; None below order 3

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    @property
    def order(self) -> int:
        return 1 if self.hess is None else 2 if self.cube is None else 3

    @classmethod
    def variable(cls, index: int, x0: float, dim: int, order: int = MAX_ORDER) -> "Jet3":
        """Seed coordinate `index` at the point value `x0`."""
        _check_shape(dim, order)
        if not 0 <= index < dim:
            raise IndexError(f"coordinate index {index} out of range for dim {dim}")
        _, hess, cube = _zeros(dim, order)
        return cls(float(x0), _units(dim)[index], hess, cube)

    @classmethod
    def constant(cls, c: float, dim: int, order: int = MAX_ORDER) -> "Jet3":
        _check_shape(dim, order)
        grad, hess, cube = _zeros(dim, order)
        return cls(float(c), grad, hess, cube)

    def _coerce(self, other: "Jet3") -> "Jet3":
        if other.dim != self.dim:
            raise ValueError(f"jet dimension mismatch: {self.dim} vs {other.dim}")
        return other

    # -- scalar operands ------------------------------------------------------

    def scale(self, c: float) -> "Jet3":
        """c * self, slot by slot."""
        return Jet3(self.value * c, self.grad * c,
                    None if self.hess is None else self.hess * c,
                    None if self.cube is None else self.cube * c)

    def shift(self, c: float) -> "Jet3":
        """self + c: only the value moves."""
        return Jet3(self.value + c, self.grad, self.hess, self.cube)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Jet3":
        if not isinstance(other, Jet3):
            return self.shift(other)
        o = self._coerce(other)
        hess = cube = None
        if self.hess is not None and o.hess is not None:
            hess = self.hess + o.hess
            if self.cube is not None and o.cube is not None:
                cube = self.cube + o.cube
        return Jet3(self.value + o.value, self.grad + o.grad, hess, cube)

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return Jet3(-self.value, -self.grad,
                    None if self.hess is None else -self.hess,
                    None if self.cube is None else -self.cube)

    def __sub__(self, other) -> "Jet3":
        if not isinstance(other, Jet3):
            return self.shift(-other)
        o = self._coerce(other)
        hess = cube = None
        if self.hess is not None and o.hess is not None:
            hess = self.hess - o.hess
            if self.cube is not None and o.cube is not None:
                cube = self.cube - o.cube
        return Jet3(self.value - o.value, self.grad - o.grad, hess, cube)

    def __rsub__(self, other) -> "Jet3":
        return (-self).shift(other)

    def __mul__(self, other) -> "Jet3":
        if not isinstance(other, Jet3):
            return self.scale(other)
        a, b = self, self._coerce(other)
        value = a.value * b.value
        grad = a.grad * b.value + a.value * b.grad
        hess = cube = None
        if a.hess is not None and b.hess is not None:
            gg = a.grad[:, None] * b.grad
            hess = a.hess * b.value + a.value * b.hess + gg + gg.T
            if a.cube is not None and b.cube is not None:
                cube = (a.cube * b.value + a.value * b.cube
                        + _sym_outer(a.hess, b.grad) + _sym_outer(b.hess, a.grad))
        return Jet3(value, grad, hess, cube)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet3":
        if not isinstance(other, Jet3):
            if other == 0.0:
                raise ZeroDivisionError("jet division by zero value")
            return self.scale(1.0 / other)
        o = self._coerce(other)
        if o.value == 0.0:
            raise ZeroDivisionError("jet division by zero value")
        return self * _reciprocal(o)

    def __rtruediv__(self, other) -> "Jet3":
        if self.value == 0.0:
            raise ZeroDivisionError("jet division by zero value")
        return _reciprocal(self) * other

    def __pow__(self, exponent: float) -> "Jet3":
        return pow_const(self, exponent)


def _check_shape(dim: int, order: int) -> None:
    if dim < 1:
        raise ValueError(f"jet dimension must be >= 1, got {dim}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"jet order must be 1..{MAX_ORDER}, got {order}")


_ZERO_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _zeros(dim: int, order: int = MAX_ORDER):
    """Shared read-only zero slots up to `order`; jet operations never mutate
    operands."""
    cached = _ZERO_CACHE.get(dim)
    if cached is None:
        cached = (np.zeros(dim), np.zeros((dim, dim)), np.zeros((dim, dim, dim)))
        for arr in cached:
            arr.flags.writeable = False
        _ZERO_CACHE[dim] = cached
    grad, hess, cube = cached
    return grad, hess if order >= 2 else None, cube if order >= 3 else None


_UNIT_CACHE: dict[int, np.ndarray] = {}


def _units(dim: int) -> np.ndarray:
    """Shared read-only identity matrix: its rows are the seed gradients."""
    units = _UNIT_CACHE.get(dim)
    if units is None:
        units = _UNIT_CACHE[dim] = np.eye(dim)
        units.flags.writeable = False
    return units


def _sym_outer(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sum of H[i,j] g[k] over the three placements of the gradient index."""
    T = H[:, :, None] * g
    return T + T.transpose(0, 2, 1) + T.transpose(2, 0, 1)


def compose(a: Jet3, f0: float, f1: float, f2: float, f3: float) -> Jet3:
    """Chain rule through a univariate map with derivatives f0..f3 at a.value;
    derivatives above the order of `a` are ignored."""
    g, H = a.grad, a.hess
    if H is None:
        return Jet3(f0, f1 * g)
    gg = g[:, None] * g
    hess = f1 * H + f2 * gg
    if a.cube is None:
        return Jet3(f0, f1 * g, hess)
    cube = f1 * a.cube + f2 * _sym_outer(H, g) + f3 * (g[:, None, None] * gg)
    return Jet3(f0, f1 * g, hess, cube)


def _reciprocal(a: Jet3) -> Jet3:
    v = a.value
    iv = 1.0 / v
    return compose(a, iv, -iv * iv, 2.0 * iv**3, -6.0 * iv**4)


# -- elementary functions ----------------------------------------------------

def sin(a: Jet3) -> Jet3:
    s, c = np.sin(a.value), np.cos(a.value)
    return compose(a, s, c, -s, -c)


def cos(a: Jet3) -> Jet3:
    s, c = np.sin(a.value), np.cos(a.value)
    return compose(a, c, -s, -c, s)


def tan(a: Jet3) -> Jet3:
    c = np.cos(a.value)
    if abs(c) < 1e-14:
        raise JetDomainError("tan", a.value)
    t = np.tan(a.value)
    sec2 = 1.0 + t * t
    return compose(a, t, sec2, 2.0 * t * sec2, 2.0 * sec2 * (1.0 + 3.0 * t * t))


def sinh(a: Jet3) -> Jet3:
    s, c = np.sinh(a.value), np.cosh(a.value)
    return compose(a, s, c, s, c)


def cosh(a: Jet3) -> Jet3:
    s, c = np.sinh(a.value), np.cosh(a.value)
    return compose(a, c, s, c, s)


def tanh(a: Jet3) -> Jet3:
    t = np.tanh(a.value)
    sech2 = 1.0 - t * t
    return compose(a, t, sech2, -2.0 * t * sech2, -2.0 * sech2 * (1.0 - 3.0 * t * t))


def exp(a: Jet3) -> Jet3:
    e = np.exp(a.value)
    return compose(a, e, e, e, e)


def ln(a: Jet3) -> Jet3:
    v = a.value
    if v <= 0.0:
        raise JetDomainError("ln", v)
    iv = 1.0 / v
    return compose(a, np.log(v), iv, -iv * iv, 2.0 * iv**3)


def sqrt(a: Jet3) -> Jet3:
    v = a.value
    if v <= 0.0:
        raise JetDomainError("sqrt", v)
    s = np.sqrt(v)
    return compose(a, s, 0.5 / s, -0.25 / (s * v), 0.375 / (s * v * v))


def pow_const(a: Jet3, r: float) -> Jet3:
    """a**r for a constant exponent.

    Integer exponents use repeated multiplication, which is exact and has no
    positivity restriction; everything else requires a.value > 0.
    """
    r = float(r)
    if r == round(r) and abs(r) <= 64:
        n = int(round(r))
        if n == 0:
            return Jet3.constant(1.0, a.dim, a.order)
        if n < 0:
            if a.value == 0.0:
                raise JetDomainError(f"pow({r})", a.value)
            return _int_pow(_reciprocal(a), -n)
        return _int_pow(a, n)
    v = a.value
    if v <= 0.0:
        raise JetDomainError(f"pow({r})", v)
    f0 = v**r
    return compose(a, f0, r * f0 / v, r * (r - 1.0) * f0 / v**2, r * (r - 1.0) * (r - 2.0) * f0 / v**3)


def _int_pow(a: Jet3, n: int) -> Jet3:
    out = None
    base = a
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return out


ELEMENTARY = {
    "sin": sin, "cos": cos, "tan": tan,
    "sinh": sinh, "cosh": cosh, "tanh": tanh,
    "exp": exp, "ln": ln, "sqrt": sqrt,
}
