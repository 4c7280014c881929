"""Truncated multivariate Taylor arithmetic up to third order.

A ``Jet3`` of order k (0 to 3) carries the value of a scalar function of
``n`` variables at a point and, up to order k, its gradient, Hessian and
third-derivative tensor.  Components above the order are ``None`` and are
never computed: an order-0 jet is a plain float value, an order-2 jet skips
every third-derivative term.

The value of an order-0 jet may instead be an array with a leading point
axis: ``variables(X, 0)`` for ``X`` of shape (p, n) gives coordinates whose
values are the columns of ``X``, and one run of a jet function on them
evaluates it at all p points (``pack_values`` stacks the result).  Each
point's value is bitwise the one a scalar run at that point gives: the ring
operations are correctly rounded in numpy as in Python, and ``exp``,
``log``, ``sqrt``, ``sin``, ``cos`` and non-integer powers apply the scalar
``math`` function point by point (numpy's may differ in the last bit).

Arithmetic between two jets truncates to the lower of their orders.  A plain
number acts as a constant jet of the other operand's order.  Every component
is computed by the same formula at every order, so the components an order-k
jet does carry are bitwise equal to those of the order-3 jet of the same
expression.

Writing a metric, embedding or warp factor once as a plain function of the
jet variables ``variables(x, order)`` yields machine-exact derivatives up to
the order asked for, which is what the analytic differentiation backend
consumes.  Such a function must build its constants as plain numbers (or
from a variable), so that they take on the variables' order.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["Jet3", "variables", "constant", "pack_array", "pack_values"]

MAX_ORDER = 3


def _jet(n, order, f, g=None, h=None, t=None):
    """Jet from components that are already float arrays (no copies)."""
    j = object.__new__(Jet3)
    j.n = n
    j.order = order
    # an order-0 value may carry a leading point axis
    j.f = f if isinstance(f, np.ndarray) else float(f)
    j.g = g
    j.h = h
    j.t = t
    return j


def _pointwise(fn, u):
    """``fn(u)``, point by point when ``u`` carries a point axis.  A
    non-finite point gives nan, so that a pole upstream stays non-finite."""
    if not isinstance(u, np.ndarray):
        return fn(u)
    return np.array([fn(a) if math.isfinite(a) else math.nan
                     for a in u.tolist()])


def _check_order(order):
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"jet order {order} outside 0..{MAX_ORDER}")


class Jet3:
    __slots__ = ("n", "order", "f", "g", "h", "t")
    # numpy scalars defer to the jet's own operators
    __array_ufunc__ = None

    def __init__(self, n, f, g=None, h=None, t=None, order=MAX_ORDER):
        _check_order(order)
        self.n = n
        self.order = order
        self.f = float(f)
        self.g = self.h = self.t = None
        if order >= 1:
            self.g = np.zeros(n) if g is None else np.asarray(g, dtype=float)
        if order >= 2:
            self.h = (np.zeros((n, n)) if h is None
                      else np.asarray(h, dtype=float))
        if order >= 3:
            self.t = (np.zeros((n, n, n)) if t is None
                      else np.asarray(t, dtype=float))

    # -- basic ring operations -------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Jet3):
            return other
        return constant(self.n, other, self.order)

    def __add__(self, other):
        o = self._coerce(other)
        k = min(self.order, o.order)
        return _jet(self.n, k, self.f + o.f,
                    self.g + o.g if k >= 1 else None,
                    self.h + o.h if k >= 2 else None,
                    self.t + o.t if k >= 3 else None)

    __radd__ = __add__

    def __neg__(self):
        k = self.order
        return _jet(self.n, k, -self.f,
                    -self.g if k >= 1 else None,
                    -self.h if k >= 2 else None,
                    -self.t if k >= 3 else None)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        k = min(self.order, o.order)
        f = self.f * o.f
        if k == 0:
            return _jet(self.n, 0, f)
        g = self.g * o.f + self.f * o.g
        if k == 1:
            return _jet(self.n, 1, f, g)
        h = (self.h * o.f + self.f * o.h
             + np.outer(self.g, o.g) + np.outer(o.g, self.g))
        if k == 2:
            return _jet(self.n, 2, f, g, h)
        ab_c = np.einsum("ab,c->abc", self.h, o.g)
        t = (self.t * o.f + self.f * o.t
             + ab_c + ab_c.transpose(0, 2, 1) + ab_c.transpose(2, 0, 1))
        cd_e = np.einsum("ab,c->abc", o.h, self.g)
        t = t + cd_e + cd_e.transpose(0, 2, 1) + cd_e.transpose(2, 0, 1)
        return _jet(self.n, 3, f, g, h, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self._reciprocal()

    def __pow__(self, k):
        if isinstance(k, int):
            if k == 0:
                return constant(self.n, 1.0, self.order)
            if k < 0:
                return (self._reciprocal()) ** (-k)
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        u = self.f
        return self._compose(_pointwise(lambda a: a ** k, u), lambda: (
            k * u ** (k - 1), k * (k - 1) * u ** (k - 2),
            k * (k - 1) * (k - 2) * u ** (k - 3)))

    # -- composition with a univariate function --------------------------
    def _compose(self, h0, derivs):
        """Chain rule for h(u) at u = self.f.

        ``derivs()`` returns (h', h'', h''') at u; it is called only when
        the jet carries derivatives.
        """
        k = self.order
        if k == 0:
            return _jet(self.n, 0, h0)
        h1, h2, h3 = derivs()
        g = h1 * self.g
        if k == 1:
            return _jet(self.n, 1, h0, g)
        h = h2 * np.outer(self.g, self.g) + h1 * self.h
        if k == 2:
            return _jet(self.n, 2, h0, g, h)
        ggg = np.einsum("a,b,c->abc", self.g, self.g, self.g)
        hg = np.einsum("ab,c->abc", self.h, self.g)
        t = (h3 * ggg
             + h2 * (hg + hg.transpose(0, 2, 1) + hg.transpose(2, 0, 1))
             + h1 * self.t)
        return _jet(self.n, 3, h0, g, h, t)

    def _reciprocal(self):
        u = self.f
        return self._compose(1.0 / u, lambda: (
            -1.0 / u ** 2, 2.0 / u ** 3, -6.0 / u ** 4))

    def exp(self):
        e = _pointwise(math.exp, self.f)
        return self._compose(e, lambda: (e, e, e))

    def log(self):
        u = self.f
        return self._compose(_pointwise(math.log, u), lambda: (
            1.0 / u, -1.0 / u ** 2, 2.0 / u ** 3))

    def sqrt(self):
        u = self.f
        s = _pointwise(math.sqrt, u)
        return self._compose(s, lambda: (
            0.5 / s, -0.25 / (u * s), 0.375 / (u ** 2 * s)))

    def sin(self):
        s, c = _pointwise(math.sin, self.f), _pointwise(math.cos, self.f)
        return self._compose(s, lambda: (c, -s, -c))

    def cos(self):
        s, c = _pointwise(math.sin, self.f), _pointwise(math.cos, self.f)
        return self._compose(c, lambda: (-s, -c, s))

    def __repr__(self):
        f = (f"{self.f.size} points" if isinstance(self.f, np.ndarray)
             else f"{self.f:+.6g}")
        return f"Jet3({f}, n={self.n}, order={self.order})"


def variables(x, order=MAX_ORDER):
    """Coordinate jets of the given order at the point ``x``; at order 0
    ``x`` may also be a stack of points of shape (p, n), whose columns
    become the values."""
    _check_order(order)
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        if order != 0:
            raise ValueError("only order-0 jets carry a point axis")
        return [_jet(x.shape[1], 0, col) for col in np.ascontiguousarray(x.T)]
    n = x.size
    if order == 0:
        return [_jet(n, 0, f) for f in x.tolist()]
    out = []
    for a in range(n):
        g = np.zeros(n)
        g[a] = 1.0
        out.append(Jet3(n, x[a], g, order=order))
    return out


def constant(n, value, order=MAX_ORDER):
    """Constant jet: ``value`` with zero derivatives up to ``order``."""
    return _jet(n, order, value,
                np.zeros(n) if order >= 1 else None,
                np.zeros((n, n)) if order >= 2 else None,
                np.zeros((n, n, n)) if order >= 3 else None)


def pack_array(jets, order=MAX_ORDER, n=None):
    """Stack a nested list/array of jets into value/derivative arrays.

    Entries may be plain numbers (treated as constants) or jets of at least
    ``order``.  Returns ``order + 1`` arrays of shape ``shape``,
    ``shape+(n,)``, ``shape+(n,n)``, ``shape+(n,n,n)``.  ``n`` is taken from
    the first jet entry when not given.
    """
    _check_order(order)
    arr = np.asarray(jets, dtype=object)
    flat = arr.reshape(-1)
    v = np.array([e.f if isinstance(e, Jet3) else float(e) for e in flat],
                 dtype=float).reshape(arr.shape)
    if order == 0:
        return (v,)
    jet_at = [(i, e) for i, e in enumerate(flat) if isinstance(e, Jet3)]
    for _, e in jet_at:
        if e.order < order:
            raise ValueError(f"order-{e.order} jet in an order-{order} pack")
    if n is None:
        if not jet_at:
            raise ValueError("no jets in array")
        n = jet_at[0][1].n
    out = [v]
    for k in range(1, order + 1):
        comp = np.zeros((flat.size,) + (n,) * k)
        for i, e in jet_at:
            comp[i] = (e.g, e.h, e.t)[k - 1]
        out.append(comp.reshape(v.shape + (n,) * k))
    return tuple(out)


def pack_values(jets, points):
    """Stack the order-0 values of a nested list/array of jets whose values
    carry a point axis of length ``points`` (plain numbers and point-free
    constants are broadcast along it).  Returns an array of shape
    ``(points,) + shape``."""
    arr = np.asarray(jets, dtype=object)
    out = np.empty((points, arr.size))
    for i, e in enumerate(arr.flat):
        out[:, i] = e.f if isinstance(e, Jet3) else float(e)
    return out.reshape((points,) + arr.shape)
