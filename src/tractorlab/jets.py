"""Truncated multivariate Taylor arithmetic of any order.

A ``Jet`` of order k carries the value of a scalar function of ``n``
variables at a point and its derivative tensors up to order k: ``d[0]`` is
the value, ``d[1]`` the gradient, ``d[2]`` the Hessian, and so on.  Nothing
above the order is computed: an order-0 jet is a plain float value.

A jet may instead carry a stack of points.  ``variables(X, k)`` for ``X`` of
shape (p, n) gives coordinate jets whose value has shape (p,) and whose
derivative arrays carry the point axis first: (p, n), (p, n, n), ..., or a
point axis of length 1 where a component is the same at every point (a
coordinate's gradient), or none at all (a jet built at one point).  The
arithmetic broadcasts over the point axis, so one run of a jet function
evaluates it at all p points, and ``pack_array(..., points=p)`` stacks the
result with the point axis leading.  Each point's components are bitwise
those a run at that point alone gives: the ring operations are correctly
rounded in numpy as in Python, and ``exp``, ``log``, ``sqrt``, ``sin``,
``cos``, non-integer powers and the derivatives h', h'', ... of every
composition are evaluated point by point with Python floats (numpy's may
differ in the last bit).  A pole is a nan (or inf) at its point, not an
exception; at a single point it raises ``ArithmeticError`` as Python float
arithmetic does.

Two routines do all the calculus, at any order and on lists of derivative
arrays whose derivative axes come last (Griewank & Walther, *Evaluating
Derivatives*, ch. 13): ``product``, the Leibniz rule over the subsets of
the derivative axes, and ``compose``, Faa di Bruno's formula over their set
partitions, for a univariate outer function (the jet's exp, log, ...) or a
map (a metric composed with an embedding).  ``Jet`` is the scalar case.
At one point and order 2 or less, the product of two scalars and the
composition of one take the same terms written out, added in the same
order, which saves the general routines' per-call work where single
points are evaluated many times (a circle's right-hand side); the general
routines stay their reference.

Arithmetic between two jets truncates to the lower of their orders.  A plain
number acts on the coefficients directly: it scales every one, or shifts the
value.  Both routines add their terms in a fixed order, so at orders 0-3
every component is the float expression of the order-by-order product and
chain-rule formulas that ``tests/test_jets.py`` keeps as its reference.

Writing a metric, embedding or warp factor once as a plain function of the
jet variables ``variables(x, order)`` yields machine-exact derivatives up to
the order asked for, which is what the analytic differentiation backend
consumes.  Such a function builds its constants as plain numbers (or from a
variable), so that they take on the variables' order.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = ["Jet", "product", "compose", "variables", "pack_array"]


def _jet(n, d):
    """Jet from derivative arrays that are already floats (no copies)."""
    j = object.__new__(Jet)
    j.n = n
    j.d = d
    return j


def _outer(x, kx, y, ky):
    """x (x) y over the trailing ``kx`` axes of x and ``ky`` of y, their
    leading axes broadcast; x or y may be a plain number."""
    if ky and isinstance(x, np.ndarray):
        x = x[(...,) + (None,) * ky]
    if kx and isinstance(y, np.ndarray):
        y = y[(...,) + (None,) * kx + (slice(None),) * ky]
    return x * y


def _placement(blocks, slots=0):
    """Axis order that moves the axes of an outer product, one block after
    another (each block's ``slots`` value axes, then the derivative axes at
    its positions), to all value axes first, then positions 0, 1, ...; None
    when that is the order they are in."""
    labels = []
    for b, block in enumerate(blocks):
        labels += [(0, b)] * slots + [(1, i) for i in block]
    perm = tuple(sorted(range(len(labels)), key=labels.__getitem__))
    return None if perm == tuple(range(len(perm))) else perm


@functools.lru_cache(maxsize=None)
def _splits(k):
    """The terms of D^k(ab): (j, placements) per outer product D^j a (x)
    D^(k-j) b, in the order they are summed (j = k, 0, k-1, ..., 1); a
    placement puts a's axes at a subset S of the k positions.  Where a has
    fewer axes its subsets run in reverse lexicographic order, otherwise
    b's do: the order of the order-by-order formulas to order 3."""
    out = [(k, [None]), (0, [None])]
    for j in range(k - 1, 0, -1):
        places = []
        for c in reversed(list(itertools.combinations(range(k),
                                                      min(j, k - j)))):
            rest = tuple(i for i in range(k) if i not in c)
            places.append(_placement((c, rest) if j < k - j else (rest, c)))
        out.append((j, places))
    return out


@functools.lru_cache(maxsize=None)
def _partitions(k, m, slots):
    """The set partitions of range(k) into m blocks, in lexicographic order
    of their restricted growth strings, grouped by block sizes: a list of
    (sizes, placements), sizes in descending order, one placement per
    partition of the outer product of blocks of those sizes."""
    groups = {}

    def grow(rgs, top):
        if len(rgs) == k:
            if top == m:
                blocks = [tuple(i for i in range(k) if rgs[i] == b)
                          for b in range(m)]
                blocks.sort(key=len, reverse=True)
                sizes = tuple(map(len, blocks))
                groups.setdefault(sizes, []).append(
                    _placement(blocks, slots))
            return
        for b in range(min(top + 1, m)):
            grow(rgs + [b], max(top, b + 1))
    grow([], 0)
    return list(groups.items())


@functools.lru_cache(maxsize=None)
def _axes(perm, lead):
    """``perm`` behind ``lead`` leading axes, for ``ndarray.transpose``."""
    return tuple(range(lead)) + tuple(lead + p for p in perm)


def _placed(total, P, places, k):
    """``total`` (None for nothing) plus each placement of the outer product
    P in turn, P's last ``k`` axes moved by the placement."""
    lead = P.ndim - k
    for perm in places:
        term = P if perm is None else P.transpose(_axes(perm, lead))
        total = term if total is None else total + term
    return total


def product(a, b, order):
    """Jets of a b up to ``order`` from the jets a and b (lists of arrays,
    ``a[k]`` with k trailing derivative axes, the leading axes of a and b
    broadcast against each other): D^k(ab) is the sum over the subsets S of
    the k derivative positions of D^|S| a (x) D^(k-|S|) b with a's axes at
    S, one outer product per |S| and its placements as transposed views.
    Two scalars at one point to order 2 take the same terms written out
    (``_point_product``)."""
    if _at_one_point(a, order) and _at_one_point(b, order):
        return _point_product(a, b, order)
    return _generic_product(a, b, order)


def _at_one_point(u, order):
    """Whether ``u`` are the jets of a scalar at one point to an order of
    at most 2: a float value and, from order 1, a gradient of shape
    (n,)."""
    return order <= 2 and isinstance(u[0], float) and (
        order == 0 or u[1].ndim == 1)


def _point_product(a, b, order):
    """``_generic_product`` of two scalars at one point to order 2 or less,
    its terms written out in its order of summation."""
    out = [a[0] * b[0]]
    if order >= 1:
        out.append(a[1] * b[0] + a[0] * b[1])
    if order == 2:
        P = a[1][:, None] * b[1]
        out.append(a[2] * b[0] + a[0] * b[2] + P + P.T)
    return out


def _generic_product(a, b, order):
    """``product`` at any order, on any leading axes."""
    out = [a[0] * b[0]]
    for k in range(1, order + 1):
        total = None
        for j, places in _splits(k):
            total = _placed(total, _outer(a[j], j, b[k - j], k - j), places,
                            k)
        out.append(total)
    return out


def compose(outer, inner, order, slots=0):
    """Jets of h(u) up to ``order`` by Faa di Bruno's formula: D^k h(u) is
    the sum over the set partitions of the k derivative positions of
    h^(m) applied to the outer product of D^|B| u over the m blocks B,
    grouped by m in descending order.

    ``outer[m]`` is the m-th derivative of h at the value of u, and
    ``inner`` the jets of u.  With ``slots`` 0, u is a scalar and
    ``outer[m]`` a number per point, multiplied into the sum of the block
    products.  With ``slots`` 1, u is a map whose arrays carry one value
    axis before their derivative axes, and the trailing m axes of
    ``outer[m]`` (the derivative tensor of h) are contracted with the value
    axes of the m blocks.  A scalar u at one point to order 2 takes the
    same terms written out (``_point_compose``).
    """
    if not slots and _at_one_point(inner, order):
        return _point_compose(outer, inner, order)
    return _generic_compose(outer, inner, order, slots)


def _point_compose(outer, inner, order):
    """``_generic_compose`` of a scalar at one point to order 2 or less,
    its terms written out in its order of summation."""
    out = [outer[0]]
    if order >= 1:
        out.append(inner[1] * outer[1])
    if order == 2:
        u1 = inner[1]
        out.append(u1[:, None] * u1 * outer[2] + inner[2] * outer[1])
    return out


def _generic_compose(outer, inner, order, slots=0):
    """``compose`` at any order, on any leading axes."""
    out = [outer[0]]
    for k in range(1, order + 1):
        total = None
        for m in range(k, 0, -1):
            S = None
            for sizes, places in _partitions(k, m, slots):
                P, width = inner[sizes[0]], sizes[0] + slots
                for s in sizes[1:]:
                    P = _outer(P, width, inner[s], s + slots)
                    width += s + slots
                S = _placed(S, P, places, width)
            term = _outer(S, k, outer[m], 0) if not slots else _contract(
                outer[m], S, m, k)
            total = term if total is None else total + term
        out.append(total)
    return out


def _contract(h, S, m, k):
    """h[..., a1..am] S[..., a1..am, i1..ik], summed over the a's."""
    lead = S.ndim - m - k
    width = math.prod(S.shape[lead:lead + m])
    out = (h.reshape(h.shape[:lead] + (-1, width))
           @ S.reshape(S.shape[:lead] + (width, -1)))
    return out.reshape(h.shape[:h.ndim - m] + S.shape[S.ndim - k:])


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


def _pointwise_derivs(derivs, u, v, k):
    """h', ..., h^(k) as k arrays along the point axis of u, each point's
    from ``derivs`` on Python floats; nan at a pole."""
    out = []
    for a, b in zip(u.tolist(), v.tolist()):
        hs = _finite_or_nan(derivs, a, b, k)
        out.append(hs if isinstance(hs, list) else [math.nan] * k)
    return list(np.array(out).T)


def _scalar(c):
    """A plain-number operand as a float, or None for a jet."""
    return None if type(c) is Jet else float(c)


class Jet:
    __slots__ = ("n", "d")
    # numpy scalars defer to the jet's own operators
    __array_ufunc__ = None

    def __init__(self, n, coeffs):
        """The jet of value ``coeffs[0]`` and derivative tensors
        ``coeffs[1:]`` (of shapes (n,), (n, n), ...) at one point, or at
        a stack of points with the point axis first on every array."""
        f = np.asarray(coeffs[0], dtype=float)
        self.n = n
        self.d = [f if f.ndim else float(f)] + [
            np.asarray(c, dtype=float) for c in coeffs[1:]]

    @property
    def order(self):
        return len(self.d) - 1

    # -- basic ring operations -------------------------------------------
    def __add__(self, other):
        c = _scalar(other)
        if c is not None:
            return _jet(self.n, [self.d[0] + c] + self.d[1:])
        # zip stops at the lower order
        return _jet(self.n, [x + y for x, y in zip(self.d, other.d)])

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.n, [-x for x in self.d])

    def __sub__(self, other):
        c = _scalar(other)
        return self + (-c if c is not None else -other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        c = _scalar(other)
        if c is not None:
            return _jet(self.n, [x * c for x in self.d])
        k = min(self.order, other.order)
        return _jet(self.n, product(self.d, other.d, k))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = _scalar(other)
        return self * (1.0 / c if c is not None else other._reciprocal())

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, k):
        if isinstance(k, int):
            if k == 0:
                return _jet(self.n, [1.0] + [np.zeros_like(x)
                                             for x in self.d[1:]])
            if k < 0:
                return (self._reciprocal()) ** (-k)
            out = self
            for _ in range(k - 1):
                out = out * self
            return out

        def derivs(a, _, order):
            out, c = [], k
            for j in range(1, order + 1):
                out.append(c * a ** (k - j))
                c = c * (k - j)
            return out
        return self._compose(_pointwise(lambda a: a ** k, self.d[0]), derivs)

    # -- composition with a univariate function --------------------------
    def _compose(self, h0, derivs):
        """The jet of h(u) at u = self, with h0 = h(u).

        ``derivs(a, v, k)`` returns [h', ..., h^(k)] from the Python floats
        a = u and v = h(u) at one point; it is called only when the jet
        carries derivatives, point by point along a point axis (nan where
        the point is a pole).
        """
        k = self.order
        if k == 0:
            return _jet(self.n, [h0])
        u = self.d[0]
        if isinstance(u, np.ndarray):
            hs = _pointwise_derivs(derivs, u, h0, k)
        else:
            hs = derivs(u, h0, k)
        return _jet(self.n, compose([h0] + hs, self.d, k))

    def _reciprocal(self):
        return self._compose(1.0 / self.d[0], lambda a, _, k: [
            float((-1) ** j * math.factorial(j)) / a ** (j + 1)
            for j in range(1, k + 1)])

    def exp(self):
        return self._compose(_pointwise(math.exp, self.d[0]),
                             lambda a, e, k: [e] * k)

    def log(self):
        return self._compose(_pointwise(math.log, self.d[0]),
                             lambda a, _, k: [
            float((-1) ** (j - 1) * math.factorial(j - 1)) / a ** j
            for j in range(1, k + 1)])

    def sqrt(self):
        def derivs(a, s, k):
            out, c = [], 0.5
            for j in range(1, k + 1):
                out.append(c / (a ** (j - 1) * s))
                c = c * (0.5 - j)
            return out
        return self._compose(_pointwise(math.sqrt, self.d[0]), derivs)

    # sin and cos: their derivatives repeat with period 4
    def sin(self):
        def derivs(a, s, k):
            c = math.cos(a)
            return [(c, -s, -c, s)[j % 4] for j in range(k)]
        return self._compose(_pointwise(math.sin, self.d[0]), derivs)

    def cos(self):
        def derivs(a, c, k):
            s = math.sin(a)
            return [(-s, -c, s, c)[j % 4] for j in range(k)]
        return self._compose(_pointwise(math.cos, self.d[0]), derivs)

    def __repr__(self):
        f = self.d[0]
        f = (f"{f.size} points" if isinstance(f, np.ndarray)
             else f"{f:+.6g}")
        return f"Jet({f}, n={self.n}, order={self.order})"


def _check_order(order):
    if order < 0:
        raise ValueError(f"negative jet order {order}")


def variables(x, order):
    """Coordinate jets of the given order at the point ``x``, or at each
    row of a stack of points ``x`` of shape (p, n): then the values are the
    columns of ``x`` and the derivative arrays carry a point axis of length
    1 in front, as a coordinate's derivatives are the same at every
    point.  At one point the derivative arrays are shared read-only
    arrays (``_unit_jets``)."""
    _check_order(order)
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if x.ndim == 1:
        return [_jet(n, [v, *d])
                for v, d in zip(x.tolist(), _unit_jets(n, order))]
    values = np.ascontiguousarray(x.T)
    zeros = [np.zeros((1,) + (n,) * k) for k in range(2, order + 1)]
    out = []
    for a in range(n):
        d = [values[a]]
        if order >= 1:
            e = np.zeros((1, n))
            e[..., a] = 1.0
            d += [e] + zeros
        out.append(_jet(n, d))
    return out


@functools.lru_cache(maxsize=None)
def _unit_jets(n, order):
    """The derivative arrays of the n coordinate jets at one point, one
    tuple per coordinate: the unit gradient e_a, then zeros up to
    ``order``; read-only, as every call shares them."""
    arrays = [np.eye(n)] + [np.zeros((n,) * k) for k in range(2, order + 1)]
    for c in arrays:
        c.setflags(write=False)
    return tuple((e, *arrays[1:]) if order else () for e in arrays[0])


def pack_array(jets, order, n=None, points=None):
    """Stack a nested list/array of jets into value/derivative arrays.

    Entries may be plain numbers (treated as constants) or jets of at least
    ``order``.  Returns ``order + 1`` arrays of shape ``shape``,
    ``shape+(n,)``, ``shape+(n,n)``, ...  ``n`` is taken from the first jet
    entry when not given.  For jets that carry a point axis of length
    ``points`` each array gains a leading point axis (entries without one
    are broadcast along it), and is C-contiguous.
    """
    _check_order(order)
    arr = np.asarray(jets, dtype=object)
    flat = arr.reshape(-1)
    lead = () if points is None else (points,)
    at = [(i, e) for i, e in enumerate(flat) if type(e) is Jet]
    for _, e in at:
        if e.order < order:
            raise ValueError(f"order-{e.order} jet in an order-{order} pack")
    if order and n is None:
        if not at:
            raise ValueError("no jets in array")
        n = at[0][1].n
    rows = (slice(None),) * len(lead)
    out = []
    for k in range(order + 1):
        if k == 0 and not lead:
            # the values at one point in one array, constants as floats
            comp = np.array([e.d[0] if type(e) is Jet else float(e)
                             for e in flat])
        else:
            comp = np.zeros(lead + (flat.size,) + (n,) * k)
            for i, e in (enumerate(flat) if k == 0 else at):
                comp[rows + (i,)] = e.d[k] if type(e) is Jet else float(e)
        out.append(comp.reshape(lead + arr.shape + (n,) * k))
    return tuple(out)
