"""Truncated multivariate Taylor arithmetic up to third order.

A ``Jet3`` of order k (0 to 3) carries the value of a scalar function of
``n`` variables at a point and, up to order k, its gradient, Hessian and
third-derivative tensor.  Components above the order are ``None`` and are
never computed: an order-0 jet is a plain float value, an order-2 jet skips
every third-derivative term.

A jet may instead carry a stack of points.  ``variables(X, k)`` for ``X`` of
shape (p, n) gives coordinate jets whose value ``f`` has shape (p,) and
whose ``g``, ``h`` and ``t`` carry the point axis last: (n, p), (n, n, p)
and (n, n, n, p), or a point axis of length 1 where a component is the
same at every point (a coordinate's gradient, a constant's zeros).  With
the point axis trailing, the product and chain-rule formulas broadcast
unchanged, so one run of a jet function evaluates it at all p points, and
``pack_array(..., points=p)`` stacks the result with the point axis
leading.  Each point's components are bitwise those a run at that point
alone gives: the ring operations are correctly rounded in numpy as in
Python, and ``exp``, ``log``, ``sqrt``, ``sin``, ``cos``, non-integer
powers and the derivatives h', h'', h''' of every composition are evaluated
point by point with Python floats (numpy's may differ in the last bit).
A pole is a nan (or inf) at its point, not an exception; at a single point
it raises ``ArithmeticError`` as Python float arithmetic does.

Arithmetic between two jets truncates to the lower of their orders.  A plain
number acts as a constant jet of the other operand's order (and point
axis).  Every component is computed by the same formula at every order, so
the components an order-k jet does carry are bitwise equal to those of the
order-3 jet of the same expression.

Writing a metric, embedding or warp factor once as a plain function of the
jet variables ``variables(x, order)`` yields machine-exact derivatives up to
the order asked for, which is what the analytic differentiation backend
consumes.  Such a function must build its constants as plain numbers (or
from a variable), so that they take on the variables' order.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["Jet3", "variables", "constant", "from_arrays", "pack_array"]

MAX_ORDER = 3


def _jet(n, order, f, g=None, h=None, t=None):
    """Jet from components that are already float arrays (no copies)."""
    j = object.__new__(Jet3)
    j.n = n
    j.order = order
    # a value with a point axis stays an array
    j.f = f if isinstance(f, np.ndarray) else float(f)
    j.g = g
    j.h = h
    j.t = t
    return j


def _finite_or_nan(fn, *args):
    """``fn(*args)`` at one point, nan where an argument is not finite or
    the arithmetic fails (a pole), so that a pole stays non-finite."""
    if not all(map(math.isfinite, args)):
        return math.nan
    try:
        return fn(*args)
    except ArithmeticError:
        return math.nan


def _pointwise(fn, u):
    """``fn(u)``, point by point when ``u`` carries a point axis."""
    if not isinstance(u, np.ndarray):
        return fn(u)
    return np.array([_finite_or_nan(fn, a) for a in u.tolist()])


def _lift(j):
    """``j`` with a point axis of length 1 on its value and derivatives."""
    return _jet(j.n, j.order, np.full(1, j.f),
                *(None if c is None else c[..., None]
                  for c in (j.g, j.h, j.t)))


def _operands(a, b):
    """``a`` and ``b`` as two jets of one kind: a plain number becomes a
    constant jet, and a jet without a point axis gets one of length 1 when
    the other carries one (so a constant next to a stack of points has
    zero derivatives of shape (n, 1), (n, n, 1), ...)."""
    if type(b) is not Jet3:
        if a.order and type(a.f) is np.ndarray:
            return a, _lift(constant(a.n, b, a.order))
        return a, constant(a.n, b, a.order)
    # a value alone broadcasts whether or not it carries a point axis
    if type(a.f) is type(b.f) or not (a.order and b.order):
        return a, b
    return (a, _lift(b)) if type(a.f) is np.ndarray else (_lift(a), b)


def _outer(a, b):
    """a_i b_j, point axes broadcast (``np.outer`` for plain vectors)."""
    return a[:, None] * b[None, :]


def _cab(t):
    """t[a, b, c] rearranged as [c, a, b], point axes kept."""
    return t.swapaxes(1, 2).swapaxes(0, 1)


def _check_order(order):
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"jet order {order} outside 0..{MAX_ORDER}")


def _sin_derivs(a, s):
    c = math.cos(a)
    return c, -s, -c


def _cos_derivs(a, c):
    s = math.sin(a)
    return -s, -c, s


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
    def __add__(self, other):
        a, o = _operands(self, other)
        k = min(a.order, o.order)
        return _jet(a.n, k, a.f + o.f,
                    a.g + o.g if k >= 1 else None,
                    a.h + o.h if k >= 2 else None,
                    a.t + o.t if k >= 3 else None)

    __radd__ = __add__

    def __neg__(self):
        k = self.order
        return _jet(self.n, k, -self.f,
                    -self.g if k >= 1 else None,
                    -self.h if k >= 2 else None,
                    -self.t if k >= 3 else None)

    def __sub__(self, other):
        a, o = _operands(self, other)
        return a + (-o)

    def __rsub__(self, other):
        a, o = _operands(self, other)
        return o - a

    def __mul__(self, other):
        a, o = _operands(self, other)
        k = min(a.order, o.order)
        f = a.f * o.f
        if k == 0:
            return _jet(a.n, 0, f)
        g = a.g * o.f + a.f * o.g
        if k == 1:
            return _jet(a.n, 1, f, g)
        h = a.h * o.f + a.f * o.h + _outer(a.g, o.g) + _outer(o.g, a.g)
        if k == 2:
            return _jet(a.n, 2, f, g, h)
        # ab_c[a, b, c] = h_ab g_c; its (a c b) and (c a b) arrangements
        ab_c = a.h[:, :, None] * o.g[None, None]
        t = (a.t * o.f + a.f * o.t
             + ab_c + ab_c.swapaxes(1, 2) + _cab(ab_c))
        cd_e = o.h[:, :, None] * a.g[None, None]
        t = t + cd_e + cd_e.swapaxes(1, 2) + _cab(cd_e)
        return _jet(a.n, 3, f, g, h, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, o = _operands(self, other)
        return a * o._reciprocal()

    def __rtruediv__(self, other):
        a, o = _operands(self, other)
        return o * a._reciprocal()

    def __pow__(self, k):
        if isinstance(k, int):
            if k == 0:
                return _operands(self, 1.0)[1]
            if k < 0:
                return (self._reciprocal()) ** (-k)
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        return self._compose(
            _pointwise(lambda a: a ** k, self.f), lambda a, _: (
                k * a ** (k - 1), k * (k - 1) * a ** (k - 2),
                k * (k - 1) * (k - 2) * a ** (k - 3)))

    # -- composition with a univariate function --------------------------
    def _compose(self, h0, derivs):
        """Chain rule for h(u) at u = self.f, with h0 = h(u).

        ``derivs(a, v)`` returns (h', h'', h''') from the Python floats
        a = u and v = h(u) at one point; it is called only when the jet
        carries derivatives, point by point along a point axis (nan where
        the point is a pole).
        """
        k = self.order
        if k == 0:
            return _jet(self.n, 0, h0)
        u = self.f
        if isinstance(u, np.ndarray):
            h1, h2, h3 = _pointwise_derivs(derivs, u, h0)
        else:
            h1, h2, h3 = derivs(u, h0)
        g = h1 * self.g
        if k == 1:
            return _jet(self.n, 1, h0, g)
        h = h2 * _outer(self.g, self.g) + h1 * self.h
        if k == 2:
            return _jet(self.n, 2, h0, g, h)
        ggg = (self.g[:, None, None] * self.g[None, :, None]
               * self.g[None, None, :])
        hg = self.h[:, :, None] * self.g[None, None]
        t = (h3 * ggg
             + h2 * (hg + hg.swapaxes(1, 2) + _cab(hg))
             + h1 * self.t)
        return _jet(self.n, 3, h0, g, h, t)

    def _reciprocal(self):
        u = self.f
        return self._compose(1.0 / u, lambda a, _: (
            -1.0 / a ** 2, 2.0 / a ** 3, -6.0 / a ** 4))

    def exp(self):
        return self._compose(_pointwise(math.exp, self.f),
                             lambda a, e: (e, e, e))

    def log(self):
        return self._compose(_pointwise(math.log, self.f), lambda a, _: (
            1.0 / a, -1.0 / a ** 2, 2.0 / a ** 3))

    def sqrt(self):
        return self._compose(_pointwise(math.sqrt, self.f), lambda a, s: (
            0.5 / s, -0.25 / (a * s), 0.375 / (a ** 2 * s)))

    def sin(self):
        return self._compose(_pointwise(math.sin, self.f), _sin_derivs)

    def cos(self):
        return self._compose(_pointwise(math.cos, self.f), _cos_derivs)

    def __repr__(self):
        f = (f"{self.f.size} points" if isinstance(self.f, np.ndarray)
             else f"{self.f:+.6g}")
        return f"Jet3({f}, n={self.n}, order={self.order})"


def _pointwise_derivs(derivs, u, v):
    """(h', h'', h''') as three arrays along the point axis of u, each
    point's from ``derivs`` on Python floats; nan at a pole."""
    out = []
    for a, b in zip(u.tolist(), v.tolist()):
        d = _finite_or_nan(derivs, a, b)
        out.append(d if isinstance(d, tuple) else (math.nan,) * 3)
    return np.array(out).T


def variables(x, order=MAX_ORDER):
    """Coordinate jets of the given order at the point ``x``, or at each
    row of a stack of points ``x`` of shape (p, n): then the values are the
    columns of ``x`` and the derivative arrays carry a trailing point axis
    (of length 1, as a coordinate's gradient is the same at every point)."""
    _check_order(order)
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        n = x.shape[1]
        cols = np.ascontiguousarray(x.T)
        if order == 0:
            return [_jet(n, 0, col) for col in cols]
        out = []
        for a in range(n):
            g = h = t = None
            if order >= 1:
                g = np.zeros((n, 1))
                g[a] = 1.0
            if order >= 2:
                h = np.zeros((n, n, 1))
            if order >= 3:
                t = np.zeros((n, n, n, 1))
            out.append(_jet(n, order, cols[a], g, h, t))
        return out
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


def from_arrays(arrays, n):
    """Scalar jet of n variables on a stack of points from its value and
    derivative arrays, the point axis leading as ``pack_array`` gives it."""
    order = len(arrays) - 1
    _check_order(order)
    return _jet(n, order, np.asarray(arrays[0], dtype=float),
                *(a.transpose(*range(1, a.ndim), 0) for a in arrays[1:]))


def pack_array(jets, order=MAX_ORDER, n=None, points=None):
    """Stack a nested list/array of jets into value/derivative arrays.

    Entries may be plain numbers (treated as constants) or jets of at least
    ``order``.  Returns ``order + 1`` arrays of shape ``shape``,
    ``shape+(n,)``, ``shape+(n,n)``, ``shape+(n,n,n)``.  ``n`` is taken from
    the first jet entry when not given.  For jets that carry a point axis of
    length ``points`` each array gains a leading point axis (entries without
    one are broadcast along it), and is C-contiguous.
    """
    _check_order(order)
    arr = np.asarray(jets, dtype=object)
    flat = arr.reshape(-1)
    if points is None:
        lead = ()
        v = np.array([e.f if isinstance(e, Jet3) else float(e)
                      for e in flat], dtype=float)
    else:
        lead = (points,)
        v = np.empty((points, flat.size))
        for i, e in enumerate(flat):
            v[:, i] = e.f if isinstance(e, Jet3) else float(e)
    out = [v.reshape(lead + arr.shape)]
    if order == 0:
        return tuple(out)
    jet_at = [(i, e) for i, e in enumerate(flat) if isinstance(e, Jet3)]
    for _, e in jet_at:
        if e.order < order:
            raise ValueError(f"order-{e.order} jet in an order-{order} pack")
    if n is None:
        if not jet_at:
            raise ValueError("no jets in array")
        n = jet_at[0][1].n
    if lead:
        jet_at = [(i, e if isinstance(e.f, np.ndarray) else _lift(e))
                  for i, e in jet_at]
    for k in range(1, order + 1):
        comp = np.zeros((flat.size,) + (n,) * k + lead)
        for i, e in jet_at:
            comp[i] = (e.g, e.h, e.t)[k - 1]
        if lead:
            # the point axis from last to first
            comp = np.ascontiguousarray(
                comp.transpose(-1, *range(comp.ndim - 1)))
        out.append(comp.reshape(lead + arr.shape + (n,) * k))
    return tuple(out)
