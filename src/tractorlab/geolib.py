"""Catalog of geometries, embeddings and Killing-Yano forms.

Every entry is written once as a function of jet variables (see jets.py),
which yields machine-exact analytic derivatives up to order three.  A field
evaluates its jet function at the order it is asked for: ``value()`` runs it
on order-0 variables (plain float arithmetic), ``jets(x, k)`` on order-k
variables.  A jet function therefore builds its constants as plain numbers
(or from a variable), never as order-3 ``Jet3`` constants, so that they take
on the variables' order.  Entries are addressable by name from the CLI.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .jets import pack_array, variables
from .riemann import GeometrySpec
from .submanifold import EmbeddingSpec
from .tensors import ANALYTIC, ArrayField, DiffBackend

__all__ = ["CatalogEntry", "catalog", "euclidean", "sphere", "hyperbolic",
           "fubini_study", "product_metric", "warped_product",
           "twisted_product", "doubly_warped_product",
           "doubly_warped_example", "twisted_example",
           "special_einstein_s2h2", "s2s2", "s2xs1xr",
           "random_metric", "random_conformal_factor",
           "coordinate_slice", "graph_embedding", "sphere_in_flat",
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
    ``value``).

    ``fn`` receives a list of Jet3 coordinates of the requested order and
    returns a (nested) array of jets / constants.  Constants must be plain
    numbers or built from a coordinate, never order-3 ``Jet3`` constants.
    """

    def __init__(self, fn):
        self.jet_fn = fn
        super().__init__(self._value, backend=_analytic_backend())

    def _eval(self, x, order):
        x = np.asarray(x, dtype=float)
        return pack_array(self.jet_fn(variables(x, order)), order, x.size)

    def _value(self, x):
        return self._eval(x, 0)[0]

    def jets(self, x, order):
        return list(self._eval(x, order))


def jet_metric(n, fn, orientation=1):
    return GeometrySpec(n=n, metric=JetField(fn),
                        orientation=orientation)


def jet_embedding(m, n, fn, orientation=1):
    return EmbeddingSpec(m=m, n=n, phi=JetField(fn),
                         orientation=orientation)


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


def conformally_flat(n, factor_fn, orientation=1):
    """g = F(x) delta with F a positive jet scalar."""
    def fn(v):
        F = factor_fn(v)
        return [[F if i == j else 0.0 for j in range(n)] for i in range(n)]
    return attach_mobius(jet_metric(n, fn, orientation))


def euclidean(n):
    return conformally_flat(n, lambda v: 1.0)


def sphere(n, radius=1.0):
    """Round sphere in the stereographic chart; sectional curvature 1/r^2."""
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    r2 = float(radius) ** 2

    def F(v):
        s = v[0] * v[0]
        for a in range(1, n):
            s = s + v[a] * v[a]
        return 4.0 * r2 / ((1.0 + s) * (1.0 + s))
    return conformally_flat(n, F)


def hyperbolic(n, radius=1.0):
    """Poincare ball chart; sectional curvature -1/r^2 on |x| < 1."""
    if radius <= 0:
        raise ValueError("hyperbolic radius must be positive")
    r2 = float(radius) ** 2

    def F(v):
        s = v[0] * v[0]
        for a in range(1, n):
            s = s + v[a] * v[a]
        return 4.0 * r2 / ((1.0 - s) * (1.0 - s))
    return conformally_flat(n, F)


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
    r2 = float(radius) ** 2

    def fn(w):
        s = w[0] * w[0]
        for a in range(1, n):
            s = s + w[a] * w[a]
        F = 4.0 * r2 / ((1.0 + s) * (1.0 + s))
        return [[F if i == j else 0.0 for j in range(n)] for i in range(n)]
    return fn


def _hyperbolic_block(n, radius=1.0):
    r2 = float(radius) ** 2

    def fn(w):
        s = w[0] * w[0]
        for a in range(1, n):
            s = s + w[a] * w[a]
        F = 4.0 * r2 / ((1.0 - s) * (1.0 - s))
        return [[F if i == j else 0.0 for j in range(n)] for i in range(n)]
    return fn


def _flat_block(n):
    def fn(w):
        return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    return fn


def warped_product(n1, fn1, n2, fn2, warp_fn):
    """g = g1 + f(x1) g2 with f a jet scalar of the first-factor coords."""
    def fn(v):
        n = n1 + n2
        out = [[0.0] * n for _ in range(n)]
        b1 = fn1(v[:n1])
        b2 = fn2(v[n1:])
        f = warp_fn(v[:n1])
        for i in range(n1):
            for j in range(n1):
                out[i][j] = b1[i][j]
        for i in range(n2):
            for j in range(n2):
                out[n1 + i][n1 + j] = f * b2[i][j]
        return out
    return jet_metric(n1 + n2, fn)


def twisted_product(n1, fn1, n2, fn2, twist_fn):
    """g = g1 + f(x) g2 with f a jet scalar of all coordinates."""
    def fn(v):
        n = n1 + n2
        out = [[0.0] * n for _ in range(n)]
        b1 = fn1(v[:n1])
        b2 = fn2(v[n1:])
        f = twist_fn(v)
        for i in range(n1):
            for j in range(n1):
                out[i][j] = b1[i][j]
        for i in range(n2):
            for j in range(n2):
                out[n1 + i][n1 + j] = f * b2[i][j]
        return out
    return jet_metric(n1 + n2, fn)


def doubly_warped_product(n1, fn1, n2, fn2, f2_of_x2, f1_of_x1):
    """g = f2(x2) g1 + f1(x1) g2."""
    def fn(v):
        n = n1 + n2
        out = [[0.0] * n for _ in range(n)]
        b1 = fn1(v[:n1])
        b2 = fn2(v[n1:])
        F2 = f2_of_x2(v[n1:])
        F1 = f1_of_x1(v[:n1])
        for i in range(n1):
            for j in range(n1):
                out[i][j] = F2 * b1[i][j]
        for i in range(n2):
            for j in range(n2):
                out[n1 + i][n1 + j] = F1 * b2[i][j]
        return out
    return jet_metric(n1 + n2, fn)


def doubly_warped_example():
    """g = e^{2 x3}(dx1^2 + dx2^2) + e^{2 x1}(dx3^2 + dx4^2) on R^4."""
    return doubly_warped_product(
        2, _flat_block(2), 2, _flat_block(2),
        lambda w: (2.0 * w[0]).exp(),
        lambda w: (2.0 * w[0]).exp())


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
    return twisted_product(2, _flat_block(2), 2, _flat_block(2), tw)


def s2s2(radius=1.0):
    return jet_metric(4, _block_fn([(lambda v: _sphere_block(2, radius)(v[:2]), 2, 0),
                                    (lambda v: _sphere_block(2, radius)(v[2:]), 2, 2)]))


def special_einstein_s2h2(kappa=1.0):
    """S^2(kappa) x H^2(-kappa): Ric = kappa g1 (+) -kappa g2."""
    if kappa <= 0:
        raise ValueError("curvature parameter must be positive")
    r = 1.0 / np.sqrt(kappa)
    return jet_metric(4, _block_fn([
        (lambda v: _sphere_block(2, r)(v[:2]), 2, 0),
        (lambda v: _hyperbolic_block(2, r)(v[2:]), 2, 2)]))


def s2xs1xr(d_lines=1):
    """S^2 x S^1 x R^d with unit round S^2 and a flat angle chart."""
    return jet_metric(3 + d_lines, _block_fn([
        (lambda v: _sphere_block(2)(v[:2]), 2, 0),
        (lambda v: _flat_block(1 + d_lines)(v[2:]), 1 + d_lines, 2)]))


# complex-projective space --------------------------------------------------

def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cconj(a):
    return (a[0], -a[1])


def fubini_study(N=2):
    """CP^N in the affine chart, normalised so that Ric = (2N+2) g.

    Real coordinates (x1, y1, ..., xN, yN) with z_j = x_j + i y_j; the
    Hermitian components are ((1+|z|^2) delta_ij - conj(z_i) z_j)/(1+|z|^2)^2.
    """
    n = 2 * N

    def fn(v):
        zs = [(v[2 * j], v[2 * j + 1]) for j in range(N)]
        s = v[0] * v[0]
        for a in range(1, n):
            s = s + v[a] * v[a]
        denom = (1.0 + s) * (1.0 + s)
        h = [[None] * N for _ in range(N)]
        for i in range(N):
            for j in range(N):
                num = _cmul(_cconj(zs[i]), zs[j])
                re = -num[0]
                im = -num[1]
                if i == j:
                    re = re + (1.0 + s)
                h[i][j] = (re / denom, im / denom)
        # real metric: g(pa, pb) = Re(h_{i(a) j(b)} c_a conj(c_b)),
        # c = 1 on x-legs and i on y-legs.
        out = [[None] * n for _ in range(n)]
        for a in range(n):
            ia, ra = divmod(a, 2)
            for b in range(n):
                ib, rb = divmod(b, 2)
                hre, him = h[ia][ib]
                if ra == 0 and rb == 0:
                    out[a][b] = hre
                elif ra == 0 and rb == 1:
                    # c_a = 1, conj(c_b) = -i -> Re(-i h) = Im h
                    out[a][b] = him
                elif ra == 1 and rb == 0:
                    # c_a = i -> Re(i h) = -Im h
                    out[a][b] = -1.0 * him
                else:
                    out[a][b] = hre
        return out
    return jet_metric(n, fn)


# random analytic data for oracle/property tests ----------------------------

def random_metric(n, seed=0, amplitude=0.08):
    """delta plus a small random polynomial perturbation (SPD near 0)."""
    rng = np.random.default_rng(seed)
    lin = amplitude * rng.standard_normal((n, n, n))
    quad = amplitude * rng.standard_normal((n, n, n, n))
    lin = (lin + lin.transpose(1, 0, 2)) / 2
    quad = (quad + quad.transpose(1, 0, 2, 3)) / 2

    def fn(v):
        out = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                acc = out[i][j]
                for k in range(n):
                    acc = acc + lin[i, j, k] * v[k]
                    for l in range(n):
                        acc = acc + quad[i, j, k, l] * v[k] * v[l]
                out[i][j] = acc
        return out
    return jet_metric(n, fn)


def random_conformal_factor(n, seed=0, amplitude=0.2):
    """Omega = exp(psi) with psi a small random quadratic."""
    rng = np.random.default_rng(seed)
    c0 = amplitude * rng.standard_normal()
    c1 = amplitude * rng.standard_normal(n)
    c2 = amplitude * rng.standard_normal((n, n))
    c2 = (c2 + c2.T) / 2

    def fn(v):
        psi = float(c0)
        for a in range(n):
            psi = psi + c1[a] * v[a]
            for b in range(n):
                psi = psi + c2[a, b] * v[a] * v[b]
        return psi.exp()
    return JetField(fn)


def constant_scalar(n, value=1.0):
    return JetField(lambda v: value)


# --------------------------------------------------------------------------
# embedding factories
# --------------------------------------------------------------------------

def coordinate_slice(n, axes, values=None, orientation=1):
    """Embed the coordinate plane spanned by ``axes``; the rest are fixed."""
    axes = tuple(axes)
    m = len(axes)
    vals = np.zeros(n) if values is None else np.asarray(values, dtype=float)

    def fn(v):
        out = [float(vals[a]) for a in range(n)]
        for i, a in enumerate(axes):
            out[a] = v[i] + vals[a]
        return out
    return jet_embedding(m, n, fn, orientation)


def graph_embedding(n, height_fns, orientation=1):
    """phi(y) = (y, f_1(y), ..., f_{n-m}(y))."""
    m = n - len(height_fns)

    def fn(v):
        out = list(v)
        for f in height_fns:
            out.append(f(v))
        return out
    return jet_embedding(m, n, fn, orientation)


def random_graph_embedding(n, m, seed=0, amplitude=0.15):
    rng = np.random.default_rng(seed)
    d = n - m
    lin = amplitude * rng.standard_normal((d, m))
    quad = amplitude * rng.standard_normal((d, m, m))
    cub = amplitude * rng.standard_normal((d, m, m, m))

    def mk(kk):
        def f(v):
            acc = 0.0
            for i in range(m):
                acc = acc + lin[kk, i] * v[i]
                for j in range(m):
                    acc = acc + quad[kk, i, j] * v[i] * v[j]
                    for l in range(m):
                        acc = acc + cub[kk, i, j, l] * v[i] * v[j] * v[l]
            return acc
        return f
    return graph_embedding(n, [mk(k) for k in range(d)])


def sphere_in_flat(n, radius=1.0):
    """Round S^{n-1}(r) in flat R^n, rational chart y -> r(2y, 1-|y|^2)/(1+|y|^2)."""
    m = n - 1

    def fn(v):
        s = v[0] * v[0]
        for a in range(1, m):
            s = s + v[a] * v[a]
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
    r2 = float(radius) ** 2

    def fn(v):
        s = v[0] * v[0]
        for a in range(1, n):
            s = s + v[a] * v[a]
        F = 4.0 * r2 / ((1.0 + s) * (1.0 + s))
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


def special_conformal_form(n, direction=None):
    c = np.zeros(n)
    c[0] = 1.0
    if direction is not None:
        c = np.asarray(direction, dtype=float)

    def fn(v):
        s = v[0] * v[0]
        for a in range(1, n):
            s = s + v[a] * v[a]
        cx = c[0] * v[0]
        for a in range(1, n):
            cx = cx + c[a] * v[a]
        return [s * c[a] - 2.0 * cx * v[a] for a in range(n)]
    return _form_field(n, 2, fn, name="special_conformal")


def almost_einstein_hyperbolic(n):
    """sigma = (1 - |x|^2)/2 in the flat chart; sigma^{-2} g is hyperbolic."""
    def fn(v):
        s = v[0] * v[0]
        for a in range(1, n):
            s = s + v[a] * v[a]
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

    def block(w):
        vec = _s2_killing_components(w, gen)
        s = w[0] * w[0] + w[1] * w[1]
        F = 4.0 / ((1.0 + s) * (1.0 + s))
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
