"""Curvature pipeline from a metric field.

Conventions: R_ab^c_d v^d = [nabla_a, nabla_b] v^c, Ric_bd = R_cb^c_d,
Ric = (n-2)P + J g with J = g^ab P_ab, C_abc = 2 nabla_[a P_b]c.  All stored
components are trivialised in the working scale; the conformal weight tag
only drives the rescaling tests.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .tensors import (ArrayField, FieldHandle, NumericalError, TensorValue,
                      _perm_sign, tangent_down)

__all__ = ["GeometrySpec", "CurvaturePack", "curvature_pack",
           "metric_connection", "levi_civita_derivative", "rescale",
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

    Specs compare and hash by identity, so a spec can key a cache of values
    computed from it (see ``submanifold.submanifold_pack``).
    """
    n: int
    metric: ArrayField
    orientation: int = 1
    mobius_schouten: ArrayField | None = None

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
    """All curvature data of a metric at one point."""
    n: int
    point: np.ndarray
    g: np.ndarray
    gi: np.ndarray
    dg: np.ndarray
    Gamma: np.ndarray          # Gamma^c_ab -> [c, a, b]
    dGamma: np.ndarray         # d_e Gamma^c_ab -> [c, a, b, e]
    Rud: np.ndarray            # R_ab^c_d -> [a, b, c, d]
    R4: np.ndarray             # R_abcd
    Ric: np.ndarray
    Scal: float
    eps: np.ndarray            # oriented volume form
    detg: float
    orientation: int
    J: float | None = None
    P: np.ndarray | None = None
    W4: np.ndarray | None = None
    K: float | None = None     # Gaussian curvature, n = 2 only
    dP: np.ndarray | None = None       # d_e P_ab -> [a, b, e]
    Cotton: np.ndarray | None = None   # C_abc
    has_third: bool = False


def _invert(g, x):
    """(g^-1, det g) of a positive definite metric."""
    sign, logdet = np.linalg.slogdet(g)
    if sign <= 0:
        raise SingularMetricError(f"metric not positive definite at {x}")
    return np.linalg.inv(g), float(np.exp(logdet))


def _christoffel(gi, dg):
    """Gamma^c_ab [c, a, b] and half[d, a, b] = g_de Gamma^e_ab, from
    dg[d, b, a] = d_a g_db."""
    half = 0.5 * (dg.transpose(0, 2, 1) + dg - dg.transpose(2, 0, 1))
    return np.einsum("cd,dab->cab", gi, half), half


def metric_connection(geo: GeometrySpec, x, order=1):
    """(g, g^-1, Gamma) at ``x`` from the metric's 0- or 1-jet (Gamma None
    at order 0), equal to a ``curvature_pack``'s to the bit."""
    jets = geo.metric.jets(x, order)
    gi = _invert(jets[0], x)[0]
    Gamma = _christoffel(gi, jets[1])[0] if order >= 1 else None
    return jets[0], gi, Gamma


def curvature_pack(geo: GeometrySpec, x, order=None) -> CurvaturePack:
    """Evaluate the full curvature package of ``geo`` at chart point ``x``.

    ``order`` requests the metric jet order (default: the backend maximum,
    capped at 3).  The Cotton tensor and dP require order 3.
    """
    x = np.asarray(x, dtype=float)
    n = geo.n
    if order is None:
        order = min(3, geo.backend.max_order)
    order = max(order, 2)
    jets = geo.metric.jets(x, order)
    g = jets[0]
    dg = jets[1]
    d2g = jets[2]
    d3g = jets[3] if order >= 3 else None

    gi, detg = _invert(g, x)
    Gamma, half = _christoffel(gi, dg)

    # derivative of Gamma: need d(g^-1) = -gi dg gi
    dgi = -np.einsum("ce,efa,fd->cda", gi, dg, gi)
    dhalf = 0.5 * (d2g.transpose(0, 2, 1, 3) + d2g - d2g.transpose(2, 0, 1, 3))
    # dhalf[d, a, b, e] = d_e half[d, a, b]
    dGamma = (np.einsum("cde,dab->cabe", dgi, half)
              + np.einsum("cd,dabe->cabe", gi, dhalf))

    # R_ab^c_d = d_a Gamma^c_bd - d_b Gamma^c_ad
    #            + Gamma^c_ae Gamma^e_bd - Gamma^c_be Gamma^e_ad
    Rud = (np.einsum("cbda->abcd", dGamma) - np.einsum("cadb->abcd", dGamma)
           + np.einsum("cae,ebd->abcd", Gamma, Gamma)
           - np.einsum("cbe,ead->abcd", Gamma, Gamma))
    R4 = np.einsum("ce,abed->abcd", g, Rud)
    Ric = np.einsum("cbcd->bd", Rud)
    Scal = float(np.einsum("bd,bd->", gi, Ric))

    eps = math.sqrt(detg) * geo.orientation * levi_civita_symbol(n)

    pack = CurvaturePack(n=n, point=x, g=g, gi=gi, dg=dg, Gamma=Gamma,
                         dGamma=dGamma, Rud=Rud, R4=R4, Ric=Ric, Scal=Scal,
                         eps=eps, detg=detg, orientation=geo.orientation)

    if n == 1:
        pack.K = 0.0
        return pack
    if n == 2:
        pack.K = Scal / 2.0
        if geo.mobius_schouten is not None:
            pack.P = geo.mobius_schouten.value(x)
            pack.J = float(np.einsum("ab,ab->", gi, pack.P))
        return pack

    J = Scal / (2.0 * (n - 1))
    P = (Ric - J * g) / (n - 2)
    W4 = R4 - (np.einsum("ca,bd->abcd", g, P) - np.einsum("cb,ad->abcd", g, P)
               - np.einsum("da,bc->abcd", g, P) + np.einsum("db,ac->abcd", g, P))
    pack.J = J
    pack.P = P
    pack.W4 = W4

    if order >= 3 and d3g is not None:
        d2gi = (-np.einsum("cea,efb,fd->cdab", dgi, dg, gi)
                - np.einsum("ce,efab,fd->cdab", gi, d2g, gi)
                - np.einsum("ce,efb,fda->cdab", gi, dg, dgi))
        # d2gi[c,d,a,b] = d_a d_b g^cd ... built as d_a(dgi[...,b])
        d2half = 0.5 * (d3g.transpose(0, 2, 1, 3, 4) + d3g
                        - d3g.transpose(2, 0, 1, 3, 4))
        d2Gamma = (np.einsum("cdef,dab->cabef", d2gi, half)
                   + np.einsum("cde,dabf->cabef", dgi, dhalf)
                   + np.einsum("cdf,dabe->cabef", dgi, dhalf)
                   + np.einsum("cd,dabef->cabef", gi, d2half))
        dRud = (np.einsum("cbdae->abcde", d2Gamma) - np.einsum("cadbe->abcde", d2Gamma)
                + np.einsum("cafe,fbd->abcde", dGamma, Gamma)
                + np.einsum("caf,fbde->abcde", Gamma, dGamma)
                - np.einsum("cbfe,fad->abcde", dGamma, Gamma)
                - np.einsum("cbf,fade->abcde", Gamma, dGamma))
        dRic = np.einsum("cbcde->bde", dRud)
        dScal = (np.einsum("bde,bd->e", dgi, Ric)
                 + np.einsum("bd,bde->e", gi, dRic))
        dJ = dScal / (2.0 * (n - 1))
        dP = (dRic - np.einsum("e,bd->bde", dJ, g)
              - J * dg) / (n - 2)
        # Cotton: C_abc = del_a P_bc - del_b P_ac (covariant)
        covdP = dP.transpose(2, 0, 1) \
            - np.einsum("eab,ec->abc", Gamma, P) \
            - np.einsum("eac,be->abc", Gamma, P)
        Cotton = covdP - covdP.transpose(1, 0, 2)
        pack.dP = dP
        pack.Cotton = Cotton
        pack.has_third = True
    return pack


def levi_civita_derivative(geo: GeometrySpec, handle: FieldHandle, x) -> TensorValue:
    """Covariant derivative of a tangent-tensor field (one extra down index).

    In the trivialised scale the connection acts as a plain partial on the
    weight tag, so only the Christoffel corrections appear.
    """
    x = np.asarray(x, dtype=float)
    pack = curvature_pack(geo, x, order=2)
    arrs = handle.field.jets(x, 1)
    val, d1 = arrs[0], arrs[1]
    out = np.array(d1)  # [... , a]
    for k, ix in enumerate(handle.indices):
        if ix.kind != "tangent":
            raise ValueError("levi_civita_derivative handles tangent indices; "
                             "use the tractor connection for tractor fields")
        moved = np.moveaxis(val, k, -1)  # [..., e]
        if ix.variance == "up":
            corr = np.einsum("cae,...e->...ca", pack.Gamma, moved)
        else:
            corr = -np.einsum("eac,...e->...ca", pack.Gamma, moved)
        corr = np.moveaxis(corr, -2, k)  # put value index back in place
        out += corr
    n = geo.n
    return TensorValue(out, handle.indices + (tangent_down(n),), handle.weight)


def _leibniz_scale(omj, gjets, order):
    """Jets of F * g from scalar jets omj=(F,Fa,Fab,Fabc) and metric jets."""
    F, Fa, Fab, Fabc = omj
    g, dg, d2g = gjets[0], gjets[1], gjets[2]
    out = [F * g]
    if order >= 1:
        out.append(F * dg + np.einsum("a,ij->ija", Fa, g))
    if order >= 2:
        out.append(F * d2g + np.einsum("a,ijb->ijab", Fa, dg)
                   + np.einsum("b,ija->ijab", Fa, dg)
                   + np.einsum("ab,ij->ijab", Fab, g))
    if order >= 3:
        d3g = gjets[3]
        t = (F * d3g
             + np.einsum("a,ijbc->ijabc", Fa, d2g)
             + np.einsum("b,ijac->ijabc", Fa, d2g)
             + np.einsum("c,ijab->ijabc", Fa, d2g)
             + np.einsum("ab,ijc->ijabc", Fab, dg)
             + np.einsum("ac,ijb->ijabc", Fab, dg)
             + np.einsum("bc,ija->ijabc", Fab, dg)
             + np.einsum("abc,ij->ijabc", Fabc, g))
        out.append(t)
    return out


def rescale(geo: GeometrySpec, omega: ArrayField):
    """Conformally rescaled geometry with metric Omega^2 g.

    Returns ``(new_geo, upsilon)`` where ``upsilon(x)`` evaluates
    Upsilon_a = Omega^-1 d_a Omega.
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
            w = float(oj[0])
            if w <= 0:
                raise SingularMetricError("nonpositive conformal factor")
            gj = metric.jets(x, order)
            Fa = Fab = Fabc = np.zeros(0)
            F = w * w
            if order >= 1:
                Fa = 2 * w * oj[1]
            if order >= 2:
                Fab = 2 * np.multiply.outer(oj[1], oj[1]) + 2 * w * oj[2]
            if order >= 3:
                og, oh, ot = oj[1], oj[2], oj[3]
                Fabc = 2 * (np.einsum("ab,c->abc", oh, og)
                            + np.einsum("ac,b->abc", oh, og)
                            + np.einsum("bc,a->abc", oh, og)) + 2 * w * ot
            return _leibniz_scale((F, Fa, Fab, Fabc), gj, order)

    def upsilon(x):
        oj = omega.jets(x, 1)
        return oj[1] / float(oj[0])

    new_geo = GeometrySpec(n=geo.n, metric=_Scaled(),
                           orientation=geo.orientation,
                           mobius_schouten=geo.mobius_schouten)
    return new_geo, upsilon
