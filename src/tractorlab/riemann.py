"""Curvature pipeline from a metric field: ``curvature_pack`` evaluates the
metric's jets at a point and ``pack_from_jets`` does the arithmetic on
them, so a pack can also be built from jets computed another way (the
induced metric's, pulled back from jets a submanifold context holds).

Conventions: R_ab^c_d v^d = [nabla_a, nabla_b] v^c, Ric_bd = R_cb^c_d,
Ric = (n-2)P + J g with J = g^ab P_ab, C_abc = 2 nabla_[a P_b]c.  All stored
components are trivialised in the working scale; the conformal weight tag
only drives the rescaling tests.
"""
from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .jets import product
from .tensors import ArrayField, NumericalError, _perm_sign

__all__ = ["GeometrySpec", "CurvaturePack", "curvature_pack",
           "pack_from_jets", "metric_connection", "rescale",
           "levi_civita_symbol"]


class SingularMetricError(NumericalError, RuntimeError):
    pass


@dataclass(eq=False)
class GeometrySpec:
    """A chart metric field with derivative access and a chosen scale.

    The metric components are the working scale's trivialisation; weighted
    objects are stored as their trivialised components plus a weight tag.
    For a 2-dimensional ambient chart a Moebius structure may be supplied as
    an explicit Schouten field; tractor operations refuse to run without it.

    Specs compare and hash by identity.  The one cache keyed to a spec is
    the one it holds: the key of ``curvature_pack``'s last single-point
    call and the pack it stored for that key, if any.
    """
    n: int
    metric: ArrayField
    orientation: int = 1
    mobius_schouten: ArrayField | None = None
    # curvature_pack's (key of the last call, pack stored for it or None)
    _last_pack: tuple = dataclasses.field(
        default=(None, None), init=False, repr=False)

    @property
    def backend(self):
        """The metric field's differentiation backend."""
        return self.metric.backend


_LEVI_CACHE = {}


def levi_civita_symbol(n):
    if n not in _LEVI_CACHE:
        eps = np.zeros((n,) * n)
        for perm in itertools.permutations(range(n)):
            eps[perm] = _perm_sign(perm)
        _LEVI_CACHE[n] = eps
    return _LEVI_CACHE[n]


@dataclass
class CurvaturePack:
    """All curvature data of a metric at one point, or at each row of a
    stack of points (every array and scalar with a leading point axis).

    R_abcd (``R4``) and the Weyl tensor (``W4``, None for n <= 2) are
    computed when first read, from the pack's own g, Rud and P, and are
    read-only; ``at(i)`` computes them from its row slices, bitwise the
    pack a call at that point builds."""
    n: int
    point: np.ndarray
    g: np.ndarray
    gi: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray            # d_e d_f g_ab -> [a, b, e, f]
    Gamma: np.ndarray          # Gamma^c_ab -> [c, a, b]
    dGamma: np.ndarray         # d_e Gamma^c_ab -> [c, a, b, e]
    Rud: np.ndarray            # R_ab^c_d -> [a, b, c, d]
    Ric: np.ndarray
    Scal: float
    detg: float
    orientation: int
    J: float | None = None
    P: np.ndarray | None = None
    K: float | None = None     # Gaussian curvature, n = 2 only
    dP: np.ndarray | None = None       # d_e P_ab -> [a, b, e]
    dJ: np.ndarray | None = None       # d_e J -> [e]
    dRud: np.ndarray | None = None     # d_e R_ab^c_d -> [a, b, c, d, e]
    d3g: np.ndarray | None = None      # d_e d_f d_h g_ab -> [a, b, e, f, h]
    d2Gamma: np.ndarray | None = None  # d_e d_f Gamma^c_ab -> [c, a, b, e, f]
    Cotton: np.ndarray | None = None   # C_abc
    has_third: bool = False

    def at(self, i):
        """The pack at row ``i`` of a pack built on a stack of points."""
        return dataclasses.replace(self, **{
            f.name: _scalar(v[i]) for f in dataclasses.fields(self)
            if isinstance(v := getattr(self, f.name), np.ndarray)})

    @functools.cached_property
    def R4(self):
        """R_abcd = g_ce R_ab^e_d."""
        z = "z" * (self.point.ndim - 1)
        return _read_only(np.einsum(f"{z}ce,{z}abed->{z}abcd", self.g,
                                    self.Rud))

    @functools.cached_property
    def W4(self):
        """W_abcd = R_abcd - (g_ca P_bd - g_cb P_ad - g_da P_bc + g_db P_ac),
        None for n <= 2."""
        if self.n <= 2:
            return None
        z = "z" * (self.point.ndim - 1)
        g, P = self.g, self.P
        return _read_only(
            self.R4 - (np.einsum(f"{z}ca,{z}bd->{z}abcd", g, P)
                       - np.einsum(f"{z}cb,{z}ad->{z}abcd", g, P)
                       - np.einsum(f"{z}da,{z}bc->{z}abcd", g, P)
                       + np.einsum(f"{z}db,{z}ac->{z}abcd", g, P)))


def _read_only(a):
    a.setflags(write=False)
    return a


def _scalar(v):
    """A float for one point, the array itself along a point axis."""
    return v if getattr(v, "ndim", 0) else float(v)


def _invert(g, x):
    """(g^-1, det g) of a positive definite metric, or of a stack of them
    (``g`` of shape (p, n, n) at the rows of ``x``)."""
    sign, logdet = np.linalg.slogdet(g)
    if g.ndim == 2:
        if sign <= 0:
            raise SingularMetricError(f"metric not positive definite at {x}")
        return np.linalg.inv(g), float(np.exp(logdet))
    bad = sign <= 0
    if bad.any():
        raise SingularMetricError(
            f"metric not positive definite at {x[np.argmax(bad)]}")
    return np.linalg.inv(g), np.exp(logdet)


def _christoffel(gi, dg, d2g=None):
    """Gamma^c_ab [c, a, b] from dg[d, b, a] = d_a g_db and, given the
    second derivatives d2g, dGamma [c, a, b, e] = d_e Gamma^c_ab, as
    (Gamma, dGamma, half, dgi, dhalf): half[d, a, b] = g_de Gamma^e_ab,
    dgi = d g^-1 and dhalf = d half are the terms the third order reuses
    (None without d2g).  Every array may carry a leading point axis (z)."""
    z = "z" * (gi.ndim - 2)
    # swapaxes on trailing axes: transposes (0 2 1) and (2 0 1) that keep
    # a leading point axis in front
    half = 0.5 * (dg.swapaxes(-1, -2) + dg
                  - dg.swapaxes(-1, -2).swapaxes(-3, -2))
    Gamma = np.einsum(f"{z}cd,{z}dab->{z}cab", gi, half)
    if d2g is None:
        return Gamma, None, half, None, None
    # derivative of Gamma: need d(g^-1) = -gi dg gi
    dgi = -np.einsum(f"{z}ce,{z}efa,{z}fd->{z}cda", gi, dg, gi)
    dhalf = 0.5 * (d2g.swapaxes(-3, -2) + d2g
                   - d2g.swapaxes(-3, -2).swapaxes(-4, -3))
    # dhalf[d, a, b, e] = d_e half[d, a, b]
    dGamma = (np.einsum(f"{z}cde,{z}dab->{z}cabe", dgi, half)
              + np.einsum(f"{z}cd,{z}dabe->{z}cabe", gi, dhalf))
    return Gamma, dGamma, half, dgi, dhalf


def metric_connection(geo: GeometrySpec, x, order=1):
    """(g, g^-1, Gamma, dGamma) at ``x`` from the metric's ``order``-jet
    (order 0, 1 or 2; Gamma and dGamma None where the jet is too short),
    equal to a ``curvature_pack``'s to the bit.  For a stack of points
    ``x`` of shape (p, n) every array carries a leading point axis."""
    x = np.asarray(x, dtype=float)
    jets = geo.metric.jets(x, order)
    gi = _invert(jets[0], x)[0]
    if order == 0:
        return jets[0], gi, None, None
    Gamma, dGamma = _christoffel(gi, jets[1],
                                 jets[2] if order >= 2 else None)[:2]
    return jets[0], gi, Gamma, dGamma


def curvature_pack(geo: GeometrySpec, x, order=None) -> CurvaturePack:
    """Evaluate the full curvature package of ``geo`` at chart point ``x``:
    ``pack_from_jets`` of the metric's jets there.

    ``order`` requests the metric jet order (default: the backend maximum,
    capped at 3).  The Cotton tensor, dP, dJ and dRud require order 3.  ``x``
    may be a stack of points of shape (p, n): one evaluation of the metric
    jets then builds the packs of all p points, each array and scalar
    carrying a leading point axis, and ``pack.at(i)`` is the pack at row i,
    bitwise the pack a call at that point builds.

    At one point the jets are evaluated on every call, and ``geo`` keeps
    the key of the last call: the jets' order and bytes and the
    orientation.  A call with another key replaces it and builds a pack
    that stays the caller's, so a curved chart, whose jets differ from
    point to point, pays for the key alone.  The first call that repeats
    the key (a flat chart anywhere, a curved one at the same point again)
    builds a pack and stores it, its arrays read-only (``point``, the
    caller's array, is left as it is); later calls with that key return a
    pack that shares the stored arrays, bitwise ``pack_from_jets`` of their
    jets, with ``point`` the caller's x.  A stack, and a geometry with a
    Moebius Schouten field, whose P is read at x, always build.
    """
    x = np.asarray(x, dtype=float)
    if order is None:
        order = min(3, geo.backend.max_order)
    jets = geo.metric.jets(x, max(order, 2))
    if x.ndim != 1 or geo.mobius_schouten is not None:
        return pack_from_jets(geo, x, jets)
    key = (geo.orientation, *map(np.ndarray.tobytes, jets))
    last_key, stored = geo._last_pack
    if key != last_key:
        geo._last_pack = (key, None)
        return pack_from_jets(geo, x, jets)
    if stored is None:
        stored = pack_from_jets(geo, x, jets)
        for name, v in vars(stored).items():
            if name != "point" and isinstance(v, np.ndarray):
                v.setflags(write=False)
        geo._last_pack = (key, stored)
        return stored
    pack = copy.copy(stored)
    pack.point = x
    return pack


def pack_from_jets(geo: GeometrySpec, x, jets) -> CurvaturePack:
    """The curvature pack of ``geo`` at ``x`` from the metric's jets there,
    [g, dg, d2g] or, for an order-3 pack, with d3g.  Every pack keeps the
    jets it was built from, and an order-3 pack also d2Gamma."""
    n = geo.n
    z = "z" * (x.ndim - 1)  # the point axis, if any
    g, dg, d2g, d3g = (list(jets) + [None])[:4]

    gi, detg = _invert(g, x)
    Gamma, dGamma, half, dgi, dhalf = _christoffel(gi, dg, d2g)

    # R_ab^c_d = d_a Gamma^c_bd - d_b Gamma^c_ad
    #            + Gamma^c_ae Gamma^e_bd - Gamma^c_be Gamma^e_ad
    # the first two terms permute dGamma [c, a, b, e]: transposed views
    L = x.ndim - 1
    Rud = (dGamma.transpose(*range(L), L + 3, L + 1, L, L + 2)
           - dGamma.transpose(*range(L), L + 1, L + 3, L, L + 2)
           + np.einsum(f"{z}cae,{z}ebd->{z}abcd", Gamma, Gamma)
           - np.einsum(f"{z}cbe,{z}ead->{z}abcd", Gamma, Gamma))
    Ric = np.einsum(f"{z}cbcd->{z}bd", Rud)
    Scal = _scalar(np.einsum(f"{z}bd,{z}bd->{z}", gi, Ric))

    pack = CurvaturePack(n=n, point=x, g=g, gi=gi, dg=dg, d2g=d2g,
                         Gamma=Gamma, dGamma=dGamma, Rud=Rud, Ric=Ric,
                         Scal=Scal, detg=detg,
                         orientation=geo.orientation, d3g=d3g)

    if n == 1:
        pack.K = 0.0
        return pack
    if d3g is not None:
        d2gi = (-np.einsum(f"{z}cea,{z}efb,{z}fd->{z}cdab", dgi, dg, gi)
                - np.einsum(f"{z}ce,{z}efab,{z}fd->{z}cdab", gi, d2g, gi)
                - np.einsum(f"{z}ce,{z}efb,{z}fda->{z}cdab", gi, dg, dgi))
        # d2gi[c,d,a,b] = d_a d_b g^cd ... built as d_a(dgi[...,b]); the
        # swapaxes transpose (0 2 1 3 4) and (2 0 1 3 4) behind a point axis
        d2half = 0.5 * (d3g.swapaxes(-4, -3) + d3g
                        - d3g.swapaxes(-4, -3).swapaxes(-5, -4))
        pack.d2Gamma = d2Gamma = (
            np.einsum(f"{z}cdef,{z}dab->{z}cabef", d2gi, half)
            + np.einsum(f"{z}cde,{z}dabf->{z}cabef", dgi, dhalf)
            + np.einsum(f"{z}cdf,{z}dabe->{z}cabef", dgi, dhalf)
            + np.einsum(f"{z}cd,{z}dabef->{z}cabef", gi, d2half))
    if n == 2:
        pack.K = Scal / 2.0
        mob = geo.mobius_schouten
        if mob is not None:
            pack.P = mob.value(x) if x.ndim == 1 else mob.values(x)
            pack.J = _scalar(np.einsum(f"{z}ab,{z}ab->{z}", gi, pack.P))
            if d3g is not None:
                pack.dP = mob.jets(x, 1)[1]
                pack.dJ = (np.einsum(f"{z}abe,{z}ab->{z}e", dgi, pack.P)
                           + np.einsum(f"{z}ab,{z}abe->{z}e", gi, pack.dP))
        return pack

    J = Scal / (2.0 * (n - 1))
    P = (Ric - (J[:, None, None] if z else J) * g) / (n - 2)
    pack.J = J
    pack.P = P

    if d3g is not None:
        dRud = (np.einsum(f"{z}cbdae->{z}abcde", d2Gamma)
                - np.einsum(f"{z}cadbe->{z}abcde", d2Gamma)
                + np.einsum(f"{z}cafe,{z}fbd->{z}abcde", dGamma, Gamma)
                + np.einsum(f"{z}caf,{z}fbde->{z}abcde", Gamma, dGamma)
                - np.einsum(f"{z}cbfe,{z}fad->{z}abcde", dGamma, Gamma)
                - np.einsum(f"{z}cbf,{z}fade->{z}abcde", Gamma, dGamma))
        dRic = np.einsum(f"{z}cbcde->{z}bde", dRud)
        dScal = (np.einsum(f"{z}bde,{z}bd->{z}e", dgi, Ric)
                 + np.einsum(f"{z}bd,{z}bde->{z}e", gi, dRic))
        dJ = dScal / (2.0 * (n - 1))
        dP = (dRic - np.einsum(f"{z}e,{z}bd->{z}bde", dJ, g)
              - (J[:, None, None, None] if z else J) * dg) / (n - 2)
        # Cotton: C_abc = del_a P_bc - del_b P_ac (covariant)
        covdP = np.moveaxis(dP, -1, -3) \
            - np.einsum(f"{z}eab,{z}ec->{z}abc", Gamma, P) \
            - np.einsum(f"{z}eac,{z}be->{z}abc", Gamma, P)
        Cotton = covdP - covdP.swapaxes(-3, -2)
        pack.dP = dP
        pack.dJ = dJ
        pack.dRud = dRud
        pack.Cotton = Cotton
        pack.has_third = True
    return pack


def _scaled_jets(F, gj, order):
    """Jets of F g from the jets F of a scalar field and gj of a field with
    two value axes (a metric), every array with an optional leading point
    axis: ``jets.product`` with two value axes put into F's arrays."""
    F = [np.expand_dims(f, (f.ndim - k, f.ndim - k + 1))
         for k, f in enumerate(F)]
    return product(F, gj, order)


def rescale(geo: GeometrySpec, omega: ArrayField):
    """Conformally rescaled geometry with metric Omega^2 g.

    Returns ``(new_geo, upsilon)`` where ``upsilon(x)`` evaluates
    Upsilon_a = Omega^-1 d_a Omega.  On a stack of points the rescaled
    metric's ``jets`` make one ``jets`` call of Omega and one of the
    metric, each row bitwise the jets at that point.
    """
    metric = geo.metric

    class _Scaled(ArrayField):
        def __init__(self):
            super().__init__(self._val, backend=metric.backend)

        def _val(self, x):
            w = float(omega.value(x))
            if w <= 0:
                raise SingularMetricError("nonpositive conformal factor")
            return w ** 2 * metric.value(x)

        def jets(self, x, order):
            oj = omega.jets(x, order)
            if np.any(oj[0] <= 0):
                raise SingularMetricError("nonpositive conformal factor")
            return _scaled_jets(product(oj, oj, order),
                                metric.jets(x, order), order)

    def upsilon(x):
        oj = omega.jets(x, 1)
        return oj[1] / float(oj[0])

    new_geo = GeometrySpec(n=geo.n, metric=_Scaled(),
                           orientation=geo.orientation,
                           mobius_schouten=geo.mobius_schouten)
    return new_geo, upsilon
