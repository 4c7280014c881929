"""Order-aware jets: a field evaluated at order k agrees bit for bit with the
first k+1 arrays of its order-3 evaluation, across the whole catalog; at
orders 0-3 every catalog field equals the jets of the former hand-written
order-3 formulas, kept here as the reference (``_Jet3``), and its order-4
jet is the derivative of its order-3 jet."""
import copy
import itertools
import math

import numpy as np
import pytest

from tractorlab import geolib
from tractorlab import jets as jetmod
from oracles import constant, random_metric
from tractorlab.jets import Jet, compose, pack_array, variables
from tractorlab.tensors import central_diff


def _catalog_fields():
    out = []
    for name, entry in geolib.catalog().items():
        geo = entry.make_geometry()
        out.append((f"{name}:metric", geo.n, geo.metric))
        for ename, make in entry.embeddings.items():
            emb = make()
            out.append((f"{name}:embedding:{ename}", emb.m, emb.phi))
        for kname, make in entry.ky_forms.items():
            ky = make()
            out.append((f"{name}:ky:{kname}", ky.n, ky.field))
    return out


FIELDS = _catalog_fields()


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("label,dim,field", FIELDS,
                         ids=[f[0] for f in FIELDS])
def test_order_k_jets_are_truncated_order3_jets(label, dim, field):
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.uniform(-0.3, 0.3, dim)
        full = field.jets(x, 3)
        assert len(full) == 4
        for k in range(4):
            jk = field.jets(x, k)
            assert len(jk) == k + 1
            for a, b in zip(jk, full[:k + 1]):
                assert np.array_equal(a, b)
                assert _bitwise_equal(a, b)
        assert _bitwise_equal(field.value(x), full[0])


def test_catalog_covers_every_kind_of_field():
    kinds = {label.split(":")[1] for label, _, _ in FIELDS}
    assert kinds == {"metric", "embedding", "ky"}
    assert len(FIELDS) > 30


def test_order0_jets_carry_no_derivative_arrays():
    x = np.array([0.3, -0.2, 0.5])
    u, v, w = variables(x, 0)
    results = [u, u * v, u + 1.0, 2.0 - v, u / v, 3.0 / w, -u, u ** 3,
               u ** -2, w ** 0.5, w.exp(), w.log(), w.sqrt(), u.sin(),
               u.cos(), constant(3, 2.0, 0)]
    for j in results:
        assert j.order == 0
        assert len(j.d) == 1
    # the value is the same float expression as at order 3
    u3, v3, w3 = variables(x, 3)
    assert (u / v).d[0] == (u3 / v3).d[0] == u3.d[0] * (1.0 / v3.d[0])
    # a sphere metric evaluated at order 0 packs values only
    fn = geolib.sphere(3).metric.jet_fn
    entries = np.asarray(fn(variables(x, 0)), dtype=object).reshape(-1)
    for e in entries:
        assert not isinstance(e, Jet) or len(e.d) == 1
    assert len(pack_array(fn(variables(x, 0)), 0)) == 1


def test_mixed_order_binary_ops_truncate_to_lower_order():
    x = np.array([0.4, -0.7])
    a3, b3 = variables(x, 3)
    _, b1 = variables(x, 1)
    for r in (a3 * b1, b1 * a3, a3 + b1, a3 - b1, a3 / b1, b1 / a3):
        assert r.order == 1
        assert len(r.d) == 2
    prod = a3 * b1
    full = a3 * b3
    assert prod.d[0] == full.d[0] and np.array_equal(prod.d[1], full.d[1])
    # a hand-built order-3 constant follows the variable's order
    s = constant(2, 1.0, 3) + variables(x, 2)[0]
    assert s.order == 2 and len(s.d) == 3
    assert constant(2, 1.0, 3).order == 3
    assert constant(2, 1.0, 3).d[3].shape == (2, 2, 2)


def test_pack_array_rejects_jets_below_requested_order():
    x = np.array([0.1, 0.2])
    u, v = variables(x, 1)
    with pytest.raises(ValueError):
        pack_array([u, v], 2)
    with pytest.raises(ValueError):
        variables(x, -1)
    vals, grads = pack_array([u * v, 1.0], 1)
    assert vals[1] == 1.0 and not grads[1].any()
    assert math.isclose(vals[0], 0.02)


# --------------------------------------------------------------------------
# order-0 jets with a point axis
# --------------------------------------------------------------------------

@pytest.mark.parametrize("label,dim,field", FIELDS,
                         ids=[f[0] for f in FIELDS])
def test_values_are_the_stacked_per_point_values(label, dim, field):
    X = np.random.default_rng(11).uniform(-0.3, 0.3, (5, dim))
    stacked = np.stack([field.value(x) for x in X])
    assert _bitwise_equal(field.values(X), stacked)


def test_catalog_point_axis_covers_exp_sin_and_cos():
    labels = {label for label, _, _ in FIELDS}
    assert {"doubly_warped_r4:metric", "twisted_r4:metric",
            "euclidean:embedding:circle",
            "euclidean:embedding:helix"} <= labels


def test_point_axis_elementary_functions_are_pointwise_math():
    X = np.random.default_rng(3).uniform(0.1, 0.9, (7, 2))

    def fn(v):
        u, w = v
        return [u.exp(), w.log(), (u + w).sqrt(), u.sin(), w.cos(),
                u ** 0.7, w ** -2, 3.0 / (u - 2.0), u ** 0, 1.5]
    batched = pack_array(fn(variables(X, 0)), 0, points=len(X))[0]
    assert batched.shape == (7, 10)
    for x, row in zip(X, batched):
        single = pack_array(fn(variables(x, 0)), 0)[0]
        assert _bitwise_equal(row, single)
    u = variables(X, 0)[0]
    assert u.order == 0 and u.d[0].shape == (7,) and "7 points" in repr(u)


def test_point_axis_pole_is_non_finite_not_an_exception():
    X = np.array([[0.5], [1.0], [0.25]])
    (u,) = variables(X, 0)
    with np.errstate(all="ignore"):
        r = (1.0 / (1.0 - u)).exp()
    assert np.isfinite(r.d[0][[0, 2]]).all() and np.isnan(r.d[0][1])
    # order 1 on the same stack: the finite rows are bitwise the per-point
    # jets, the pole's row is nan
    with np.errstate(all="ignore"):
        rows = pack_array([(1.0 / (1.0 - u)).exp()
                           for u in variables(X, 1)], 1, points=len(X))
    for i in (0, 2):
        single = pack_array([(1.0 / (1.0 - u)).exp()
                             for u in variables(X[i], 1)], 1)
        for a, b in zip(rows, single):
            assert _bitwise_equal(a[i], b)
    assert all(np.isnan(c[1]).all() for c in rows)


# --------------------------------------------------------------------------
# jets of every order with a point axis
# --------------------------------------------------------------------------

@pytest.mark.parametrize("label,dim,field", FIELDS,
                         ids=[f[0] for f in FIELDS])
def test_point_axis_jets_are_the_stacked_per_point_jets(label, dim, field):
    X = np.random.default_rng(13).uniform(-0.3, 0.3, (5, dim))
    for k in (1, 2, 3, 4):
        stacked = field.jets(X, k)
        assert len(stacked) == k + 1
        for i, x in enumerate(X):
            for a, b in zip(stacked, field.jets(x, k)):
                assert _bitwise_equal(np.asarray(a[i]), b)
        for a in stacked:
            assert a.flags.c_contiguous


def test_point_axis_elementary_function_jets_are_pointwise():
    X = np.random.default_rng(3).uniform(0.1, 0.9, (7, 2))

    def fn(v):
        u, w = v
        return [u.exp(), w.log(), (u + w).sqrt(), u.sin(), w.cos(),
                u ** 0.7, w ** -2, 3.0 / (u - 2.0), u ** 0, 1.5,
                (u * w - 0.5 * u).exp() * w ** 1.5]
    for k in (1, 2, 3):
        stacked = pack_array(fn(variables(X, k)), k, points=len(X))
        for i, x in enumerate(X):
            single = pack_array(fn(variables(x, k)), k)
            for a, b in zip(stacked, single):
                assert _bitwise_equal(a[i], b)


def test_point_axis_mixes_with_point_free_jets():
    """A plain number, a constant and a hand-built jet without a point axis
    broadcast along the point axis of the other operand."""
    X = np.random.default_rng(5).uniform(-0.5, 0.5, (4, 2))

    def fn(v):
        u, w = v
        return [constant(2, 1.0, 3) + u * w, 2.0 - u, constant(2, 0.5, 3) * w,
                Jet(2, [0.3, [1.0, 2.0], np.zeros((2, 2)),
                        np.zeros((2, 2, 2))]) / (1.0 + u * u)]
    for k in (1, 2, 3):
        stacked = pack_array(fn(variables(X, k)), k, points=len(X))
        for i, x in enumerate(X):
            single = pack_array(fn(variables(x, k)), k)
            for a, b in zip(stacked, single):
                assert _bitwise_equal(a[i], b)


# --------------------------------------------------------------------------
# the reference: the former order-3 jet, its product and chain rule written
# out order by order, with a trailing point axis
# --------------------------------------------------------------------------

def _ref_pointwise(fn, u):
    if not isinstance(u, np.ndarray):
        return fn(u)
    out = []
    for a in u.tolist():
        try:
            out.append(fn(a) if math.isfinite(a) else math.nan)
        except ArithmeticError:
            out.append(math.nan)
    return np.array(out)


def _cab(t):
    """t[a, b, c] rearranged as [c, a, b], point axes kept."""
    return t.swapaxes(1, 2).swapaxes(0, 1)


def _ref_outer(a, b):
    return a[:, None] * b[None, :]


class _Jet3:
    """Value f, gradient g, Hessian h and third derivative t up to
    ``order``; on a stack of points f is (p,) and g, h, t carry the point
    axis last (of length 1 where a component is the same at every point)."""

    def __init__(self, n, order, f, g=None, h=None, t=None):
        self.n, self.order = n, order
        self.f = f if isinstance(f, np.ndarray) else float(f)
        self.g, self.h, self.t = g, h, t

    @staticmethod
    def constant(n, value, order, lift):
        zeros = [np.zeros((n,) * k + ((1,) if lift else ()))
                 for k in range(1, order + 1)]
        f = np.full(1, float(value)) if lift else float(value)
        return _Jet3(n, order, f, *zeros)

    def _lift(self):
        return _Jet3(self.n, self.order, np.full(1, self.f),
                     *(None if c is None else c[..., None]
                       for c in (self.g, self.h, self.t)))

    def _operands(self, b):
        a = self
        if not isinstance(b, _Jet3):
            lift = bool(a.order) and isinstance(a.f, np.ndarray)
            return a, _Jet3.constant(a.n, b, a.order, lift)
        if type(a.f) is type(b.f) or not (a.order and b.order):
            return a, b
        return (a, b._lift()) if isinstance(a.f, np.ndarray) else (
            a._lift(), b)

    def __add__(self, other):
        a, o = self._operands(other)
        k = min(a.order, o.order)
        return _Jet3(a.n, k, a.f + o.f, a.g + o.g if k >= 1 else None,
                     a.h + o.h if k >= 2 else None,
                     a.t + o.t if k >= 3 else None)

    __radd__ = __add__

    def __neg__(self):
        k = self.order
        return _Jet3(self.n, k, -self.f, -self.g if k >= 1 else None,
                     -self.h if k >= 2 else None,
                     -self.t if k >= 3 else None)

    def __sub__(self, other):
        a, o = self._operands(other)
        return a + (-o)

    def __rsub__(self, other):
        a, o = self._operands(other)
        return o - a

    def __mul__(self, other):
        a, o = self._operands(other)
        k = min(a.order, o.order)
        f = a.f * o.f
        if k == 0:
            return _Jet3(a.n, 0, f)
        g = a.g * o.f + a.f * o.g
        if k == 1:
            return _Jet3(a.n, 1, f, g)
        h = a.h * o.f + a.f * o.h + _ref_outer(a.g, o.g) + _ref_outer(
            o.g, a.g)
        if k == 2:
            return _Jet3(a.n, 2, f, g, h)
        ab_c = a.h[:, :, None] * o.g[None, None]
        t = (a.t * o.f + a.f * o.t
             + ab_c + ab_c.swapaxes(1, 2) + _cab(ab_c))
        cd_e = o.h[:, :, None] * a.g[None, None]
        t = t + cd_e + cd_e.swapaxes(1, 2) + _cab(cd_e)
        return _Jet3(a.n, 3, f, g, h, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, o = self._operands(other)
        return a * o._reciprocal()

    def __rtruediv__(self, other):
        a, o = self._operands(other)
        return o * a._reciprocal()

    def __pow__(self, k):
        if isinstance(k, int):
            if k == 0:
                return self._operands(1.0)[1]
            if k < 0:
                return self._reciprocal() ** (-k)
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        return self._compose(
            _ref_pointwise(lambda a: a ** k, self.f), lambda a, _: (
                k * a ** (k - 1), k * (k - 1) * a ** (k - 2),
                k * (k - 1) * (k - 2) * a ** (k - 3)))

    def _compose(self, h0, derivs):
        k = self.order
        if k == 0:
            return _Jet3(self.n, 0, h0)
        u = self.f
        if isinstance(u, np.ndarray):
            rows = []
            for a, b in zip(u.tolist(), h0.tolist()):
                try:
                    d = derivs(a, b) if math.isfinite(a) and math.isfinite(
                        b) else None
                except ArithmeticError:
                    d = None
                rows.append(d if d is not None else (math.nan,) * 3)
            h1, h2, h3 = np.array(rows).T
        else:
            h1, h2, h3 = derivs(u, h0)
        g = h1 * self.g
        if k == 1:
            return _Jet3(self.n, 1, h0, g)
        h = h2 * _ref_outer(self.g, self.g) + h1 * self.h
        if k == 2:
            return _Jet3(self.n, 2, h0, g, h)
        ggg = (self.g[:, None, None] * self.g[None, :, None]
               * self.g[None, None, :])
        hg = self.h[:, :, None] * self.g[None, None]
        t = (h3 * ggg + h2 * (hg + hg.swapaxes(1, 2) + _cab(hg))
             + h1 * self.t)
        return _Jet3(self.n, 3, h0, g, h, t)

    def _reciprocal(self):
        return self._compose(1.0 / self.f, lambda a, _: (
            -1.0 / a ** 2, 2.0 / a ** 3, -6.0 / a ** 4))

    def exp(self):
        return self._compose(_ref_pointwise(math.exp, self.f),
                             lambda a, e: (e, e, e))

    def log(self):
        return self._compose(_ref_pointwise(math.log, self.f), lambda a, _: (
            1.0 / a, -1.0 / a ** 2, 2.0 / a ** 3))

    def sqrt(self):
        return self._compose(_ref_pointwise(math.sqrt, self.f), lambda a, s: (
            0.5 / s, -0.25 / (a * s), 0.375 / (a ** 2 * s)))

    def sin(self):
        return self._compose(_ref_pointwise(math.sin, self.f), lambda a, s: (
            math.cos(a), -s, -math.cos(a)))

    def cos(self):
        return self._compose(_ref_pointwise(math.cos, self.f), lambda a, c: (
            -math.sin(a), -c, math.sin(a)))


def _ref_variables(X, order):
    """Reference coordinate jets on a stack of points X of shape (p, n)."""
    n = X.shape[1]
    out = []
    for a in range(n):
        zeros = [np.zeros((n,) * k + (1,)) for k in range(1, order + 1)]
        if order:
            zeros[0][a] = 1.0
        out.append(_Jet3(n, order, np.ascontiguousarray(X[:, a]), *zeros))
    return out


def _ref_from_arrays(arrays, n):
    """Reference jet from arrays with a leading point axis."""
    return _Jet3(n, len(arrays) - 1, np.asarray(arrays[0], dtype=float),
                 *(a.transpose(*range(1, a.ndim), 0) for a in arrays[1:]))


def _ref_pack(jets, order, n, points):
    """Arrays with a leading point axis from a nested list of reference
    jets and plain numbers."""
    arr = np.asarray(jets, dtype=object)
    flat = arr.reshape(-1)
    out = []
    for k in range(order + 1):
        comp = np.zeros((points, flat.size) + (n,) * k)
        for i, e in enumerate(flat):
            if not isinstance(e, _Jet3):
                comp[:, i] = float(e) if k == 0 else 0.0
            elif k == 0:
                comp[:, i] = e.f
            else:
                comp[:, i] = np.moveaxis((e.g, e.h, e.t)[k - 1], -1, 0)
        out.append(comp.reshape((points,) + arr.shape + (n,) * k))
    return out


def _reference_jets(field, X, order):
    """The jets of a catalog field on the stack X through ``_Jet3``: its
    jet function on reference variables; for a polynomial field with an
    outer function, that function on the reference jet of the polynomial;
    for a scaled field, the reference product of the scalar's jet with each
    entry of the base's."""
    n = X.shape[1]
    if isinstance(field, geolib.PolynomialField):
        bare = copy.copy(field)
        bare.outer = None
        arrays = bare.jets(X, order)
        if field.outer is None:
            return arrays
        u = _ref_from_arrays(arrays, n)
        name = getattr(field.outer, "__name__", "")
        jet = getattr(u, name)() if hasattr(Jet, name) else field.outer(u)
        return _ref_pack(jet, order, n, len(X))
    if isinstance(field, geolib._ScaledField):
        F = _ref_from_arrays(_reference_jets(field.scale, X, order), n)
        base = _reference_jets(field.base, X, order)
        shape = base[0].shape[1:]
        entries = [[F * _ref_from_arrays(
            [b[(slice(None), i, j)] for b in base], n)
            for j in range(shape[1])] for i in range(shape[0])]
        return _ref_pack(entries, order, n, len(X))
    with np.errstate(all="ignore"):
        return _ref_pack(field.jet_fn(_ref_variables(X, order)), order, n,
                         len(X))


# the polynomial fields the catalog builds on but does not name
POLYNOMIAL_FIELDS = [
    ("random_conformal_factor", 4, geolib.random_conformal_factor(4, 3)),
    ("random_metric", 3, random_metric(3, 2).metric)]
REFERENCE_FIELDS = [f for f in FIELDS + POLYNOMIAL_FIELDS
                    if not (type(f[2]) is geolib.PolynomialField
                            and f[2].outer is None)]


def test_reference_fields_cover_every_composition():
    kinds = {type(f).__name__ for _, _, f in REFERENCE_FIELDS}
    assert kinds == {"JetField", "PolynomialField", "_ScaledField"}


@pytest.mark.parametrize("label,dim,field", REFERENCE_FIELDS,
                         ids=[f[0] for f in REFERENCE_FIELDS])
def test_jets_are_the_former_order3_formulas(label, dim, field):
    """At orders 0-3, on a point and on a stack of 7, every catalog field
    built from jet arithmetic equals the reference (a plain-number operand
    now scales or shifts the coefficients directly, which can only change
    the sign of a zero)."""
    X = np.random.default_rng(17).uniform(-0.3, 0.3, (7, dim))
    for k in range(4):
        want = _reference_jets(field, X, k)
        got = field.jets(X, k)
        assert len(got) == k + 1
        for a, b in zip(got, want):
            assert np.array_equal(a, b), k
        for i in (0, 4):
            ref = _reference_jets(field, X[i:i + 1], k)
            for a, b in zip(field.jets(X[i], k), ref):
                assert np.array_equal(a, b[0]), k


@pytest.mark.parametrize("label,dim,field", FIELDS + POLYNOMIAL_FIELDS,
                         ids=[f[0] for f in FIELDS + POLYNOMIAL_FIELDS])
def test_order4_jet_is_the_derivative_of_the_order3_jet(label, dim, field):
    """The order-4 jet against the step-halving (Richardson) central
    difference of the order-3 jet, whose error is O(h^4)."""
    x = np.random.default_rng(19).uniform(-0.3, 0.3, dim)
    d4 = field.jets(x, 4)[4]
    assert d4.shape == np.shape(field.value(x)) + (dim,) * 4
    fd = central_diff(lambda P: field.jets(P, 3)[3], x, 2e-3,
                      richardson=True)
    assert np.abs(fd - d4).max() <= 1e-7 * max(1.0, np.abs(d4).max())


def test_order4_jets_of_elementary_functions():
    """Closed-form fourth derivatives at a point: exp, log, sqrt, sin, cos,
    a non-integer power and the reciprocal, each of one variable."""
    a = 0.7
    u = variables(np.array([a]), 4)[0]
    cases = [(u.exp(), math.exp(a)), (u.log(), -6.0 / a ** 4),
             (u.sqrt(), -15.0 / 16.0 * a ** -3.5), (u.sin(), math.sin(a)),
             (u.cos(), math.cos(a)),
             (u ** 2.5, 2.5 * 1.5 * 0.5 * -0.5 * a ** -1.5),
             (1.0 / u, 24.0 / a ** 5), (u ** -2, 120.0 / a ** 6)]
    for jet, want in cases:
        assert jet.order == 4
        assert math.isclose(jet.d[4][0, 0, 0, 0], want, rel_tol=1e-14)


def test_compose_of_a_map_is_the_chain_rule():
    """``compose`` with a map (``slots`` 1): h(u1, u2) = u1^2 u2 composed
    with u = (sin y, y^2) is sin(y)^2 y^2, whose jets are those of the same
    expression in scalar jets."""
    y = np.array([0.4])
    u = [np.array([math.sin(0.4), 0.16]), np.array([[math.cos(0.4)], [0.8]])]
    u += [np.array([[[-math.sin(0.4)]], [[2.0]]]),
          np.array([[[[-math.cos(0.4)]]], [[[0.0]]]])]
    u1, u2 = u[0]
    h = [u1 * u1 * u2, np.array([2 * u1 * u2, u1 * u1]),
         np.array([[2 * u2, 2 * u1], [2 * u1, 0.0]]),
         np.array([[[0.0, 2.0], [2.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]])]
    got = compose(h, u, 3, slots=1)
    (v,) = variables(y, 3)
    want = (v.sin() * v.sin()) * (v * v)
    for a, b in zip(got, want.d):
        assert np.allclose(a, b, rtol=1e-14, atol=1e-15)


# --------------------------------------------------------------------------
# the written-out order-2 terms at one point against the generic routines
# --------------------------------------------------------------------------

def _scalar_operands(rng, n, order):
    """Jets of scalars at one point to ``order``: random ones, constants
    (+1.5, -1.5, +0 and -0, whose zero derivatives meet the other
    operand's signs) and each coordinate."""
    out = []
    for _ in range(3):
        d = [float(rng.standard_normal())]
        for k in range(1, order + 1):
            c = rng.standard_normal((n,) * k)
            # a symmetric tensor, and some components exactly 0
            d.append(np.where(rng.random(c.shape) < 0.2, 0.0,
                              sum(c.transpose(p) for p in
                                  itertools.permutations(range(k)))))
        out.append(d)
    out += [constant(n, c, order).d for c in (1.5, -1.5, 0.0, -0.0)]
    out += [v.d for v in variables(rng.uniform(-1, 1, n), order)]
    return out


def _same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        assert _bitwise_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_point_product_is_the_generic_product_bitwise(n, order):
    rng = np.random.default_rng(100 * n + order)
    ops = _scalar_operands(rng, n, order)
    for a in ops:
        for b in ops:
            assert jetmod._at_one_point(a, order)
            _same_bits(jetmod._point_product(a, b, order),
                       jetmod._generic_product(a, b, order))
            _same_bits(jetmod.product(a, b, order),
                       jetmod._generic_product(a, b, order))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_point_compose_is_the_generic_compose_bitwise(n, order):
    rng = np.random.default_rng(200 + 100 * n + order)
    for inner in _scalar_operands(rng, n, order):
        for outer in ([float(v) for v in rng.standard_normal(order + 1)],
                      [math.exp(inner[0])] * (order + 1),
                      [0.0, -2.0, -0.0][:order + 1]):
            _same_bits(jetmod._point_compose(outer, inner, order),
                       jetmod._generic_compose(outer, inner, order))
            _same_bits(jetmod.compose(outer, inner, order),
                       jetmod._generic_compose(outer, inner, order))


def test_stacks_value_axes_and_order3_take_the_generic_routines(monkeypatch):
    """Only scalars at one point to order 2 take the written-out terms."""
    calls = []
    for name in ("_point_product", "_point_compose"):
        def counted(*args, name=name, fn=getattr(jetmod, name)):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(jetmod, name, counted)
    x = np.array([0.3, -0.2])
    # a point axis, and order 3, in the arithmetic of jets
    for v in (variables(np.stack([x, 2 * x]), 2), variables(x, 3)):
        u, w = v
        (u * w).exp()
    # a value axis: the jets of a 2-vector at one point
    vec = [np.array([0.5, -1.0]), np.ones((2, 2)), np.ones((2, 2, 2))]
    jetmod.product(vec, vec, 2)
    jetmod.compose([1.0, 2.0, 3.0], vec, 2)
    assert calls == []
    u, w = variables(x, 2)
    (u * w).exp()
    assert calls == ["_point_product", "_point_compose"]


def test_point_variables_share_read_only_derivative_arrays():
    x = np.array([0.3, -0.2, 0.1])
    u, v, w = variables(x, 2)
    again = variables(2 * x, 2)
    assert again[0].d[1] is u.d[1] and again[2].d[2] is w.d[2]
    for j in (u, v, w):
        for arr in j.d[1:]:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0
    # the arithmetic makes new arrays, which may be written
    prod = u * v
    prod.d[1][0] = 5.0
    assert u.d[1].tolist() == [1.0, 0.0, 0.0]
