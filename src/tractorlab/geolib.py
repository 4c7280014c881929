"""Catalog of geometries, embeddings and Killing-Yano forms.

Most entries are written once as a function of jet variables (see jets.py),
which yields machine-exact analytic derivatives of any order.  A
``JetField`` evaluates its jet function at the order it is asked for:
``value()`` runs it on order-0 variables (plain float arithmetic),
``jets(x, k)`` on order-k variables, and ``values(X)`` and ``jets(X, k)``
on variables with a point axis (all rows of X at once).  A jet function
therefore builds its constants as plain numbers (or from a variable), never
as constant ``Jet``s of a fixed order, so that they take on the variables'
order.

The polynomial entries (the random graphs and conformal factors, the
Fubini-Study numerator and denominator) are ``PolynomialField`` instances
instead: arrays of symmetric coefficients whose exact jets, of
any order, are a few matrix products on a point or a stack of points.  A
scalar one may be composed with a univariate function of a ``Jet``.
Entries are addressable by name from the CLI.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .jets import Jet, pack_array, variables
from .riemann import GeometrySpec, _scaled_jets
from .submanifold import EmbeddingSpec
from .tensors import (ANALYTIC, ArrayField, DiffBackend, JetOrderError,
                      sym_array)

__all__ = ["CatalogEntry", "catalog", "euclidean", "sphere", "hyperbolic",
           "fubini_study", "product_metric", "doubly_twisted_product",
           "doubly_warped_example", "twisted_example",
           "special_einstein_s2h2", "s2s2", "s2xs1xr",
           "random_conformal_factor", "PolynomialField",
           "coordinate_slice", "sphere_in_flat",
           "circle_embedding", "helix_embedding", "diagonal_s2s2",
           "rotation_form", "constant_form", "dilation_form",
           "special_conformal_form", "KYFormSpec"]


class CatalogError(KeyError):
    pass


def _analytic_backend():
    return DiffBackend(mode=ANALYTIC, max_order=3)


class JetField(ArrayField):
    """Analytic ArrayField whose jets come from one truncated-Taylor
    evaluation of a jet function at the requested order (order 0 for
    ``value``).  For a stack of points X of shape (p, n), ``jets(X, k)``
    and ``values(X)`` run the jet function once on variables that carry a
    point axis and return arrays with a leading point axis.

    ``fn`` receives a list of ``Jet`` coordinates of the requested order and
    returns a (nested) array of jets / constants.  Constants must be plain
    numbers or built from a coordinate, never jets of a fixed order.
    A pole is a ``JetOrderError``, at a single point or anywhere in a stack.
    A subclass computes its jets otherwise by overriding ``_eval`` alone.
    """
    def __init__(self, fn=None):
        self.jet_fn = fn
        super().__init__(self._value, backend=_analytic_backend())

    def _eval(self, x, order):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            # a pole is a non-finite value here, not a ZeroDivisionError
            with np.errstate(all="ignore"):
                out = pack_array(self.jet_fn(variables(x, order)), order,
                                 x.shape[1], points=len(x))
            return _finite_rows(x, out)
        try:
            out = self.jet_fn(variables(x, order))
        except ArithmeticError as exc:
            # a pole: the same failure a stack of points reports
            raise JetOrderError(f"non-finite field evaluation at {x}") from exc
        return pack_array(out, order, x.size)

    def _value(self, x):
        return self._eval(x, 0)[0]

    def values(self, X):
        return self._eval(X, 0)[0]

    def jets(self, x, order):
        return list(self._eval(x, order))


def _finite_rows(X, out):
    """``out``, the jets on the stack X; a ``JetOrderError`` naming the
    first row of X with a non-finite component if there is one."""
    if not all(np.isfinite(c).all() for c in out):
        ok = np.ones(len(X), dtype=bool)
        for c in out:
            ok &= np.isfinite(c.reshape(len(X), -1)).all(axis=1)
        raise JetOrderError(
            f"non-finite field evaluation at {X[np.argmin(ok)]}")
    return out


class PolynomialField(JetField):
    """P(x) = sum_k C_k x^k with exact jets of any order (Griewank &
    Walther, Evaluating Derivatives, ch. 13).  ``coeffs`` is [C_0, C_1, ...],
    C_k the output shape followed by k parameter axes, symmetrised over
    them (which leaves P unchanged).  D^j P = sum_{k>=j} k!/(k-j)! C_k
    x^(k-j) is one matrix times the column of monomials [1, x, x x, ...],
    a batched product on a stack, each row bitwise the product at that
    point alone.  ``outer`` (a function of a scalar ``Jet``, such as
    ``Jet.exp``) composes a scalar polynomial with it, run on the
    polynomial's arrays as they are.  A non-finite component is a
    ``JetOrderError`` naming its point.
    """
    def __init__(self, coeffs, outer=None):
        coeffs = [np.asarray(c, dtype=float) for c in coeffs]
        self.n = coeffs[1].shape[-1]
        self.shape = coeffs[0].shape
        self.outer = outer
        size = coeffs[0].size
        # order j: blocks k!/(k-j)! C_k, columns the monomials of degree k-j
        syms = [sym_array(c, range(c.ndim - k, c.ndim))
                for k, c in enumerate(coeffs)]
        self.matrices = [
            np.hstack([math.perm(k, j) * c.reshape(size * self.n ** j, -1)
                       for k, c in enumerate(syms) if k >= j])
            for j in range(len(coeffs))]
        super().__init__()

    def _eval(self, x, order):
        x = np.asarray(x, dtype=float)
        X = x.reshape(-1, self.n)
        mono = [np.ones((len(X), 1))]
        for _ in range(1, len(self.matrices)):
            mono.append((mono[-1][:, :, None] * X[:, None, :]).reshape(
                len(X), -1))
        mono = np.hstack(mono)[:, :, None]
        out = []
        for j in range(order + 1):
            shape = (len(X),) + self.shape + (self.n,) * j
            if j < len(self.matrices):
                M = self.matrices[j]
                out.append((M @ mono[:, :M.shape[1]])[..., 0].reshape(shape))
            else:
                out.append(np.zeros(shape))
        if self.outer is not None:
            with np.errstate(all="ignore"):
                out = self.outer(Jet(self.n, out)).d
        out = _finite_rows(X, out)
        if x.ndim == 1:
            out = [a.reshape(a.shape[1:]) for a in out]
        return out


class _ScaledField(JetField):
    """The metric-shaped field ``base`` times the scalar field ``scale``,
    both JetFields; the product's jets by ``jets.product``."""
    def __init__(self, scale, base):
        self.scale, self.base = scale, base
        super().__init__()

    def _eval(self, x, order):
        return _scaled_jets(self.scale._eval(x, order),
                            self.base._eval(x, order), order)


def jet_metric(n, fn):
    return GeometrySpec(n=n, metric=JetField(fn))


def jet_embedding(m, n, fn):
    return EmbeddingSpec(m=m, n=n, phi=JetField(fn))


@dataclass
class KYFormSpec:
    """A candidate conformal Killing-Yano form: degree d-1, weight d.

    ``field`` evaluates the trivialised components; ``batch_norm2``
    optionally evaluates the squared pointwise norm on an array of points
    (used by the grid scanner).
    """
    n: int
    degree: int
    field: ArrayField
    batch_norm2: object = None
    name: str = ""


# --------------------------------------------------------------------------
# metric factories
# --------------------------------------------------------------------------

def attach_mobius(geo):
    """Give a 2-dimensional geometry the Moebius structure p = (K/2) g."""
    if geo.n != 2:
        return geo
    from .riemann import curvature_pack
    bare = GeometrySpec(n=geo.n, metric=geo.metric,
                        orientation=geo.orientation)

    def p_field(x):
        pk = curvature_pack(bare, x, order=2)
        return 0.5 * pk.K * pk.g

    geo.mobius_schouten = ArrayField(p_field, backend=DiffBackend())
    return geo


def _norm2(v, n):
    """v[0]^2 + ... + v[n-1]^2, summed in index order."""
    s = v[0] * v[0]
    for a in range(1, n):
        s = s + v[a] * v[a]
    return s


def _stereo_factor(n, radius=1.0, ball=False):
    """Jet scalar of n variables: the conformal factor 4 r^2 / (1 + |x|^2)^2
    of the round sphere's stereographic chart, or with ``ball`` the factor
    4 r^2 / (1 - |x|^2)^2 of the Poincare ball."""
    r2 = float(radius) ** 2

    def F(v):
        s = _norm2(v, n)
        if ball:
            return 4.0 * r2 / ((1.0 - s) * (1.0 - s))
        return 4.0 * r2 / ((1.0 + s) * (1.0 + s))
    return F


def _conformal_block(n, factor_fn):
    """Jet function of the metric F(x) delta with F a jet scalar."""
    def fn(v):
        F = factor_fn(v)
        return [[F if i == j else 0.0 for j in range(n)] for i in range(n)]
    return fn


def conformally_flat(n, factor_fn):
    """g = F(x) delta with F a positive jet scalar."""
    return attach_mobius(jet_metric(n, _conformal_block(n, factor_fn)))


def euclidean(n):
    return conformally_flat(n, lambda v: 1.0)


def sphere(n, radius=1.0):
    """Round sphere in the stereographic chart; sectional curvature 1/r^2."""
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    return conformally_flat(n, _stereo_factor(n, radius))


def hyperbolic(n, radius=1.0):
    """Poincare ball chart; sectional curvature -1/r^2 on |x| < 1."""
    if radius <= 0:
        raise ValueError("hyperbolic radius must be positive")
    return conformally_flat(n, _stereo_factor(n, radius, ball=True))


def _block_fn(fns_dims):
    """Block-diagonal metric jet function from (fn, dim, offset) pieces."""
    total = sum(d for _, d, _ in fns_dims)

    def fn(v):
        out = [[0.0] * total for _ in range(total)]
        for piece, d, off in fns_dims:
            blk = piece(v)
            for i in range(d):
                for j in range(d):
                    out[off + i][off + j] = blk[i][j]
        return out
    return fn


def product_metric(*factors):
    """Riemannian product; each factor is (n_i, jet_metric_fn_i)."""
    pieces = []
    off = 0
    for n_i, fn_i in factors:
        def piece(v, fn_i=fn_i, off=off, n_i=n_i):
            return fn_i(v[off:off + n_i])
        pieces.append((piece, n_i, off))
        off += n_i
    return jet_metric(off, _block_fn(pieces))


def _sphere_block(n, radius=1.0):
    return _conformal_block(n, _stereo_factor(n, radius))


def _hyperbolic_block(n, radius=1.0):
    return _conformal_block(n, _stereo_factor(n, radius, ball=True))


def _flat_block(n):
    return _conformal_block(n, lambda w: 1.0)


def doubly_twisted_product(n1, fn1, n2, fn2, f1=None, f2=None):
    """g = f1(x) g1 + f2(x) g2 with f1, f2 jet scalars of all coordinates;
    a factor left None is 1, and its block is not multiplied."""
    pieces = []
    for off, d, block_fn, scale in ((0, n1, fn1, f1), (n1, n2, fn2, f2)):
        def piece(v, off=off, d=d, block_fn=block_fn, scale=scale):
            blk = block_fn(v[off:off + d])
            if scale is None:
                return blk
            F = scale(v)
            return [[F * blk[i][j] for j in range(d)] for i in range(d)]
        pieces.append((piece, d, off))
    return jet_metric(n1 + n2, _block_fn(pieces))


def doubly_warped_example():
    """g = e^{2 x3}(dx1^2 + dx2^2) + e^{2 x1}(dx3^2 + dx4^2) on R^4."""
    return doubly_twisted_product(
        2, _flat_block(2), 2, _flat_block(2),
        lambda v: (2.0 * v[2]).exp(),
        lambda v: (2.0 * v[0]).exp())


def twisted_example(split=False):
    """g = dx1^2 + dx2^2 + f (dx3^2 + dx4^2) on R^4.

    ``split=False`` uses f = e^{2 x1 x3} (a genuinely twisted product);
    ``split=True`` uses the multiplicatively splitting f = e^{2(x1 + x3)}.
    """
    if split:
        def tw(v):
            return (2.0 * (v[0] + v[2])).exp()
    else:
        def tw(v):
            return (2.0 * (v[0] * v[2])).exp()
    return doubly_twisted_product(2, _flat_block(2), 2, _flat_block(2),
                                  f2=tw)


def s2s2(radius=1.0):
    return product_metric((2, _sphere_block(2, radius)),
                          (2, _sphere_block(2, radius)))


def special_einstein_s2h2(kappa=1.0):
    """S^2(kappa) x H^2(-kappa): Ric = kappa g1 (+) -kappa g2."""
    if kappa <= 0:
        raise ValueError("curvature parameter must be positive")
    r = 1.0 / np.sqrt(kappa)
    return product_metric((2, _sphere_block(2, r)),
                          (2, _hyperbolic_block(2, r)))


def s2xs1xr(d_lines=1):
    """S^2 x S^1 x R^d with unit round S^2 and a flat angle chart."""
    return product_metric((2, _sphere_block(2)),
                          (1 + d_lines, _flat_block(1 + d_lines)))


# complex-projective space --------------------------------------------------

def fubini_study(N=2):
    """CP^N in the affine chart, normalised so that Ric = (2N+2) g.

    Real coordinates v = (x1, y1, ..., xN, yN) with z_j = x_j + i y_j; the
    Hermitian components ((1+|z|^2) delta_ij - conj(z_i) z_j)/(1+|z|^2)^2
    are g = ((1+|v|^2) delta - v v^T - Jv (Jv)^T)/(1+|v|^2)^2, with J the
    complex structure (Jv)_{2j} = -y_j, (Jv)_{2j+1} = x_j."""
    n = 2 * N
    eye = np.eye(n)
    J = np.kron(np.eye(N), [[0.0, -1.0], [1.0, 0.0]])
    quad = (np.einsum("ab,cd->abcd", eye, eye)
            - np.einsum("ac,bd->abcd", eye, eye)
            - np.einsum("ac,bd->abcd", J, J))
    numerator = PolynomialField([eye, np.zeros((n, n, n)), quad])
    denominator = PolynomialField([1.0, np.zeros(n), eye],
                                  outer=lambda u: u ** -2)
    return GeometrySpec(n=n, metric=_ScaledField(denominator, numerator))


# random analytic data: the conformal factors of `invariance` --------------

def random_conformal_factor(n, seed=0, amplitude=0.2):
    """Omega = exp(psi) with psi a small random quadratic."""
    rng = np.random.default_rng(seed)
    c0 = amplitude * rng.standard_normal()
    c1 = amplitude * rng.standard_normal(n)
    c2 = amplitude * rng.standard_normal((n, n))
    c2 = (c2 + c2.T) / 2
    return PolynomialField([c0, c1, c2], outer=Jet.exp)


# --------------------------------------------------------------------------
# embedding factories
# --------------------------------------------------------------------------

def coordinate_slice(n, axes, values=None):
    """Embed the coordinate plane spanned by ``axes``; the rest are fixed."""
    axes = tuple(axes)
    m = len(axes)
    vals = np.zeros(n) if values is None else np.asarray(values, dtype=float)

    def fn(v):
        out = [float(vals[a]) for a in range(n)]
        for i, a in enumerate(axes):
            out[a] = v[i] + vals[a]
        return out
    return jet_embedding(m, n, fn)


def random_graph_embedding(n, m, seed=0):
    """phi(y) = (y, f(y)) with f a small random cubic without constant
    term, f: R^m -> R^(n-m), its coefficients 0.15 times standard
    normal draws."""
    rng = np.random.default_rng(seed)
    d = n - m
    lin = 0.15 * rng.standard_normal((d, m))
    quad = 0.15 * rng.standard_normal((d, m, m))
    cub = 0.15 * rng.standard_normal((d, m, m, m))
    coeffs = [np.zeros(n), np.vstack([np.eye(m), lin])]
    coeffs += [np.concatenate([np.zeros((m,) + c.shape[1:]), c])
               for c in (quad, cub)]
    return EmbeddingSpec(m=m, n=n, phi=PolynomialField(coeffs))


def sphere_in_flat(n, radius=1.0):
    """Round S^{n-1}(r) in flat R^n, rational chart y -> r(2y, 1-|y|^2)/(1+|y|^2)."""
    m = n - 1

    def fn(v):
        s = _norm2(v, m)
        den = 1.0 + s
        out = [(2.0 * radius) * v[a] / den for a in range(m)]
        out.append(radius * (1.0 - s) / den)
        return out
    return jet_embedding(m, n, fn)


def circle_embedding(n, radius=1.0):
    """Round circle in the (x1, x2) plane of flat R^n."""
    def fn(v):
        t = v[0]
        out = [radius * t.cos(), radius * t.sin()]
        out.extend(0.0 for _ in range(n - 2))
        return out
    return jet_embedding(1, n, fn)


def helix_embedding(pitch=0.5, radius=1.0):
    def fn(v):
        t = v[0]
        return [radius * t.cos(), radius * t.sin(), pitch * t]
    return jet_embedding(1, 3, fn)


def diagonal_s2s2():
    def fn(v):
        return [v[0], v[1], v[0], v[1]]
    return jet_embedding(2, 4, fn)


def cp1_slice():
    """The complex line z2 = 0 in the CP^2 affine chart."""
    def fn(v):
        return [v[0], v[1], 0.0, 0.0]
    return jet_embedding(2, 4, fn)


def rp2_slice():
    """The totally real slice Im z = 0 in the CP^2 affine chart."""
    def fn(v):
        return [v[0], 0.0, v[1], 0.0]
    return jet_embedding(2, 4, fn)


# --------------------------------------------------------------------------
# Killing-Yano form factories
# --------------------------------------------------------------------------

def _form_field(n, degree, fn, batch_norm2=None, name=""):
    return KYFormSpec(n=n, degree=degree, field=JetField(fn),
                      batch_norm2=batch_norm2, name=name)


def constant_form(n, comps):
    comps = np.asarray(comps, dtype=float)

    def fn(v):
        return comps.tolist()
    return _form_field(n, comps.ndim + 1, fn, name="constant")


def rotation_form(n, i=0, j=1):
    """k = x_i dx_j - x_j dx_i, a Killing 1-form of flat space (degree 2)."""
    def fn(v):
        out = [0.0] * n
        out[j] = v[i]
        out[i] = -1.0 * v[j]
        return out

    def batch_norm2(X):
        return X[..., i] ** 2 + X[..., j] ** 2
    return _form_field(n, 2, fn, batch_norm2=batch_norm2, name=f"rotation{i}{j}")


def round_rotation_form(n, i=0, j=1, radius=1.0):
    """Rotation Killing 1-form lowered with the round stereographic metric."""
    factor = _stereo_factor(n, radius)

    def fn(v):
        F = factor(v)
        out = [0.0] * n
        out[j] = F * v[i]
        out[i] = -1.0 * (F * v[j])
        return out
    return _form_field(n, 2, fn, name=f"round_rotation{i}{j}")


def dilation_form(n):
    def fn(v):
        return list(v)

    def batch_norm2(X):
        return np.sum(X ** 2, axis=-1)
    return _form_field(n, 2, fn, batch_norm2=batch_norm2, name="dilation")


def special_conformal_form(n):
    """The special conformal field of direction e_0."""
    c = np.zeros(n)
    c[0] = 1.0

    def fn(v):
        s = _norm2(v, n)
        cx = c[0] * v[0]
        for a in range(1, n):
            cx = cx + c[a] * v[a]
        return [s * c[a] - 2.0 * cx * v[a] for a in range(n)]
    return _form_field(n, 2, fn, name="special_conformal")


def almost_einstein_hyperbolic(n):
    """sigma = (1 - |x|^2)/2 in the flat chart; sigma^{-2} g is hyperbolic."""
    def fn(v):
        s = _norm2(v, n)
        return (1.0 - s) * 0.5

    def batch_norm2(X):
        return ((1.0 - np.sum(X ** 2, axis=-1)) / 2.0) ** 2
    return _form_field(n, 1, fn, batch_norm2=batch_norm2,
                       name="hyperbolic_scale")


def _s2_killing_components(w, gen):
    """Killing vector of the unit round S^2 in its stereographic chart.

    su(2) generators act as zeta_dot = B + 2 i theta zeta + conj(B) zeta^2.
    """
    u1, u2 = w[0], w[1]
    if gen == "rot":
        return [-1.0 * u2, u1]
    if gen == "t1":
        # zeta_dot = (1 + zeta^2)/2
        re = 0.5 * (1.0 + (u1 * u1 - u2 * u2))
        im = u1 * u2
        return [re, im]
    if gen == "t2":
        # zeta_dot = i(1 - zeta^2)/2
        re = u1 * u2
        im = 0.5 * (1.0 - (u1 * u1 - u2 * u2))
        return [re, im]
    raise CatalogError(f"unknown S^2 Killing generator {gen!r}")


def s2s2_lifted_killing(gen="rot", factor=1, combo=None):
    """Killing 1-form on S^2 x S^2 lifted from factor Killing fields.

    ``combo=(c1, c2)`` builds c1 K(u) on factor one plus c2 K(v) on factor
    two (the diagonal-orthogonal choice is (1, -1)).
    """
    n = 4
    round_factor = _stereo_factor(2)

    def block(w):
        vec = _s2_killing_components(w, gen)
        F = round_factor(w)
        return [F * vec[0], F * vec[1]]

    if combo is None:
        combo = (1.0, 0.0) if factor == 1 else (0.0, 1.0)
    c1, c2 = combo

    def fn(v):
        k1 = block(v[:2])
        k2 = block(v[2:])
        return [c1 * k1[0], c1 * k1[1], c2 * k2[0], c2 * k2[1]]
    return _form_field(n, 2, fn, name=f"s2s2_killing_{gen}_{combo}")


# --------------------------------------------------------------------------
# the catalog
# --------------------------------------------------------------------------

@dataclass
class CatalogEntry:
    name: str
    make_geometry: object
    embeddings: dict = dc_field(default_factory=dict)
    ky_forms: dict = dc_field(default_factory=dict)
    notes: str = ""


def catalog():
    entries = {}

    def add(entry):
        entries[entry.name] = entry

    add(CatalogEntry(
        "euclidean", lambda n=4: euclidean(int(n)),
        embeddings={
            "hyperplane": lambda n=4: coordinate_slice(int(n), tuple(range(int(n) - 1))),
            "plane": lambda n=4, m=2: coordinate_slice(int(n), tuple(range(int(m)))),
            "sphere": lambda n=3, radius=1.0: sphere_in_flat(int(n), float(radius)),
            "circle": lambda n=2, radius=1.0: circle_embedding(int(n), float(radius)),
            "helix": lambda pitch=0.5, radius=1.0: helix_embedding(float(pitch), float(radius)),
            "graph": lambda n=4, m=2, seed=0: random_graph_embedding(int(n), int(m), int(seed)),
        },
        ky_forms={
            "rotation": lambda n=4, i=0, j=1: rotation_form(int(n), int(i), int(j)),
            "translation": lambda n=4, axis=0: constant_form(int(n), np.eye(int(n))[int(axis)]),
            "dilation": lambda n=4: dilation_form(int(n)),
            "special_conformal": lambda n=4: special_conformal_form(int(n)),
            "hyperbolic_scale": lambda n=4: almost_einstein_hyperbolic(int(n)),
        },
        notes="flat chart; conformal class of the round sphere"))

    add(CatalogEntry(
        "sphere", lambda n=4, radius=1.0: sphere(int(n), float(radius)),
        embeddings={
            "great": lambda n=4, m=2: coordinate_slice(int(n), tuple(range(int(m)))),
        },
        ky_forms={
            "rotation": lambda n=4, i=0, j=1, radius=1.0: round_rotation_form(
                int(n), int(i), int(j), float(radius)),
        },
        notes="stereographic chart"))

    add(CatalogEntry(
        "hyperbolic", lambda n=4, radius=1.0: hyperbolic(int(n), float(radius)),
        embeddings={
            "slice": lambda n=4, m=2: coordinate_slice(int(n), tuple(range(int(m)))),
        },
        notes="Poincare ball chart"))

    add(CatalogEntry(
        "doubly_warped_r4", lambda: doubly_warped_example(),
        embeddings={
            "first_factor": lambda x3=0.0, x4=0.0: coordinate_slice(
                4, (0, 1), values=(0.0, 0.0, float(x3), float(x4))),
            "second_factor": lambda x1=0.0, x2=0.0: coordinate_slice(
                4, (2, 3), values=(float(x1), float(x2), 0.0, 0.0)),
        },
        notes="e^{2x3}(dx1^2+dx2^2) + e^{2x1}(dx3^2+dx4^2)"))

    add(CatalogEntry(
        "twisted_r4", lambda split=False: twisted_example(bool(split)),
        embeddings={
            "first_factor": lambda x3=0.0, x4=0.0: coordinate_slice(
                4, (0, 1), values=(0.0, 0.0, float(x3), float(x4))),
            "second_factor": lambda x1=0.0, x2=0.0: coordinate_slice(
                4, (2, 3), values=(float(x1), float(x2), 0.0, 0.0)),
        },
        notes="dx1^2 + dx2^2 + e^{2 x1 x3}(dx3^2 + dx4^2)"))

    add(CatalogEntry(
        "s2s2", lambda radius=1.0: s2s2(float(radius)),
        embeddings={
            "factor1": lambda v1=0.0, v2=0.0: coordinate_slice(
                4, (0, 1), values=(0.0, 0.0, float(v1), float(v2))),
            "factor2": lambda u1=0.0, u2=0.0: coordinate_slice(
                4, (2, 3), values=(float(u1), float(u2), 0.0, 0.0)),
            "diagonal": lambda: diagonal_s2s2(),
        },
        ky_forms={
            "factor_killing": lambda gen="rot", factor=1: s2s2_lifted_killing(
                str(gen), int(factor)),
            "antidiagonal_killing": lambda gen="t1": s2s2_lifted_killing(
                str(gen), combo=(1.0, -1.0)),
            "generic_killing": lambda gen="t1": s2s2_lifted_killing(
                str(gen), combo=(1.0, 0.4)),
        },
        notes="product of unit round spheres"))

    add(CatalogEntry(
        "s2xs1xr", lambda d=1: s2xs1xr(int(d)),
        embeddings={
            "s2xs1": lambda t=0.0, d=1: coordinate_slice(
                3 + int(d), (0, 1, 2),
                values=tuple([0.0, 0.0, 0.0] + [float(t)] * int(d))),
        },
        notes="generic Einstein-factor-free product"))

    add(CatalogEntry(
        "cp2", lambda: fubini_study(2),
        embeddings={
            "cp1": lambda: cp1_slice(),
            "rp2": lambda: rp2_slice(),
        },
        notes="Fubini-Study affine chart, Ric = 6 g"))

    add(CatalogEntry(
        "special_einstein_s2h2", lambda kappa=1.0: special_einstein_s2h2(float(kappa)),
        embeddings={
            "s2_factor": lambda v1=0.0, v2=0.0: coordinate_slice(
                4, (0, 1), values=(0.0, 0.0, float(v1), float(v2))),
            "h2_factor": lambda u1=0.0, u2=0.0: coordinate_slice(
                4, (2, 3), values=(float(u1), float(u2), 0.0, 0.0)),
        },
        notes="special Einstein product"))

    return entries
