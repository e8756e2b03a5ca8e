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

Storage is dense and symmetric to rounding only (``hess`` under index
swap, ``cube`` under all six permutations): a product adds its mirrored
terms in a fixed order, so mirrored entries may differ in the last bits.
At dimension <= 8 density is cheaper than any packing.  A jet combined with
a plain number is a scale or a shift, without a product rule over zero
slots.  Combining jets of two orders gives a jet of the lower order.

A jet may also carry a trailing batch shape S: the value then has shape S,
the gradient (n,)+S, the Hessian (n,n)+S and the cube (n,n,n)+S, so one jet
holds the expansions of the same expression at many points and every slot
broadcasts against the value with no reshaping.  With S = () a jet is the
scalar jet above, computed by the same operations.  Transposes name their
axes explicitly so that trailing batch axes stay in place, and the domain and
zero checks fail when any entry fails, naming the first offending value.
Jets of one computation share one S; constants built beside batched jets take
their shape (``Jet3.constant(..., shape=S)``).

Jets are value objects: operations never mutate their inputs, so instances
and their arrays may be shared freely between concurrent evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

    value: float | np.ndarray        # shape S
    grad: np.ndarray                 # shape (n,) + S
    hess: np.ndarray | None = None   # shape (n, n) + S, symmetric to rounding; None below order 2
    cube: np.ndarray | None = None   # shape (n, n, n) + S, likewise; None below order 3

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        """The batch shape S; () for a jet at a single point."""
        return self.grad.shape[1:]

    @property
    def order(self) -> int:
        return 1 if self.hess is None else 2 if self.cube is None else 3

    @classmethod
    def variable(cls, index: int, x0, dim: int, order: int = MAX_ORDER) -> "Jet3":
        """Seed coordinate `index` at the point value `x0`, a number or an
        array of values (its shape is the batch shape S)."""
        _check_shape(dim, order)
        if not 0 <= index < dim:
            raise IndexError(f"coordinate index {index} out of range for dim {dim}")
        if not isinstance(x0, float):           # numpy float64 included
            x0 = np.array(x0, dtype=float)
            if x0.shape:
                _, hess, cube = _zeros(dim, order, x0.shape)
                return cls(x0, _slots(dim, x0.shape)[0][index], hess, cube)
        _, hess, cube = _zeros(dim, order)
        return cls(float(x0), _slots(dim)[0][index], hess, cube)

    @classmethod
    def constant(cls, c: float, dim: int, order: int = MAX_ORDER,
                 shape: tuple[int, ...] = ()) -> "Jet3":
        """The constant c, with batch shape `shape`."""
        _check_shape(dim, order)
        grad, hess, cube = _zeros(dim, order, shape)
        return cls(float(c) if not shape else np.full(shape, float(c)), grad, hess, cube)

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
            hess = a.hess * b.value + a.value * b.hess + gg + gg.swapaxes(0, 1)
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
        if _any(o.value == 0.0):
            raise ZeroDivisionError("jet division by zero value")
        return self * _reciprocal(o)

    def __rtruediv__(self, other) -> "Jet3":
        if _any(self.value == 0.0):
            raise ZeroDivisionError("jet division by zero value")
        return _reciprocal(self) * other

    def __pow__(self, exponent: float) -> "Jet3":
        return pow_const(self, exponent)


def _check_shape(dim: int, order: int) -> None:
    if dim < 1:
        raise ValueError(f"jet dimension must be >= 1, got {dim}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"jet order must be 1..{MAX_ORDER}, got {order}")


@lru_cache(maxsize=256)
def _slots(dim: int, shape: tuple[int, ...] = ()) -> tuple[np.ndarray, ...]:
    """Read-only arrays shared by every jet of batch shape `shape`: the
    identity, whose rows are the seed gradients, and the zero grad, hess and
    cube, repeated over the batch as views.  Jet operations never mutate
    operands, so a jet program takes these without building any."""
    if shape:
        return tuple(_batched(slot, shape) for slot in _slots(dim))
    slots = (np.eye(dim), np.zeros(dim), np.zeros((dim, dim)), np.zeros((dim, dim, dim)))
    for slot in slots:
        slot.flags.writeable = False
    return slots


def _zeros(dim: int, order: int = MAX_ORDER, shape: tuple[int, ...] = ()):
    """The shared zero (grad, hess, cube) of batch shape `shape`, None above
    `order`."""
    _, grad, hess, cube = _slots(dim, shape)
    return grad, hess if order >= 2 else None, cube if order >= 3 else None


def _batched(slot: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only view of `slot` repeated over the trailing batch shape."""
    return np.broadcast_to(slot.reshape(slot.shape + (1,) * len(shape)),
                           slot.shape + tuple(shape))


def _any(mask) -> bool:
    """Whether a check failed at any point of the batch."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _offending(value, mask):
    """The value a failed check names: the value itself at a single point,
    else the first entry of the batch where `mask` holds."""
    return float(value[mask][0]) if isinstance(mask, np.ndarray) else value


def _sym_outer(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sum of H[i,j] g[k] over the three placements of the gradient index;
    trailing batch axes stay in place."""
    T = H[:, :, None] * g
    batch = tuple(range(3, T.ndim))
    return T + T.transpose((0, 2, 1) + batch) + T.transpose((2, 0, 1) + batch)


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
    # f3 scales g before the three gradients multiply: a huge gradient under
    # a tiny f3 would overflow as g g g but not as ((f3 g) g) g
    cube = f1 * a.cube + f2 * _sym_outer(H, g) + ((f3 * g)[:, None, None] * g[:, None]) * g
    return Jet3(f0, f1 * g, hess, cube)


def _reciprocal(a: Jet3) -> Jet3:
    # powers as products: numpy's array powers and Python's float powers may
    # round apart, products do not, so a batch row equals its point exactly
    iv = 1.0 / a.value
    iv2 = iv * iv
    return compose(a, iv, -iv2, 2.0 * (iv2 * iv), -6.0 * (iv2 * iv2))


# -- elementary functions ----------------------------------------------------

def sin(a: Jet3) -> Jet3:
    s, c = np.sin(a.value), np.cos(a.value)
    return compose(a, s, c, -s, -c)


def cos(a: Jet3) -> Jet3:
    s, c = np.sin(a.value), np.cos(a.value)
    return compose(a, c, -s, -c, s)


def tan(a: Jet3) -> Jet3:
    c = np.cos(a.value)
    bad = abs(c) < 1e-14
    if _any(bad):
        raise JetDomainError("tan", _offending(a.value, bad))
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
    bad = v <= 0.0
    if _any(bad):
        raise JetDomainError("ln", _offending(v, bad))
    iv = 1.0 / v
    iv2 = iv * iv
    return compose(a, np.log(v), iv, -iv2, 2.0 * (iv2 * iv))


def sqrt(a: Jet3) -> Jet3:
    v = a.value
    bad = v <= 0.0
    if _any(bad):
        raise JetDomainError("sqrt", _offending(v, bad))
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
            return Jet3.constant(1.0, a.dim, a.order, a.shape)
        if n < 0:
            bad = a.value == 0.0
            if _any(bad):
                raise JetDomainError(f"pow({r})", _offending(a.value, bad))
            return _int_pow(_reciprocal(a), -n)
        return _int_pow(a, n)
    v = a.value
    bad = v <= 0.0
    if _any(bad):
        raise JetDomainError(f"pow({r})", _offending(v, bad))
    # numpy's power of a float64 scalar equals its array power bit for bit,
    # and overflows to inf where Python's float power would raise; the
    # denominators are products, so a point and a batch round alike
    f0 = np.power(v, r)
    v2 = v * v
    return compose(a, f0, r * f0 / v, r * (r - 1.0) * f0 / v2,
                   r * (r - 1.0) * (r - 2.0) * f0 / (v2 * v))


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
