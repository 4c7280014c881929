"""Riemannian and conformal submanifold calculus.

An embedding is a chart map from an m-dimensional parameter chart into the
ambient chart, with derivative access to order 3.  The pack collects induced
metric, projectors, second fundamental form, mean curvature, the oriented
normal frame and normal form, and an intrinsic geometry built from the
pulled-back metric field (so intrinsic curvature is computed independently
rather than through the Gauss equation).

Every covariant derivative along the submanifold goes through
``covariant_along``: a Richardson difference of a pack-derived quantity
(``SigmaField``) plus, on each index, the connection ``SigmaConn`` picks
(the ambient one pulled back by the embedding, or the intrinsic one).

The normal frame is ``normal_frame``, called by the pack and, with only the
jets it needs, at each stencil point of ``normal_curvature``: the curvature
of a normal bundle from its frame, for both Ricci residuals.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .riemann import (CurvaturePack, GeometrySpec, curvature_pack,
                      metric_connection, rescale)
from .tensors import (TRACTOR, ArrayField, DiffBackend, NumericalError,
                      central_diff, tangent_down, tangent_up)
from . import tractor as tr

__all__ = ["EmbeddingSpec", "SubmanifoldPack", "submanifold_pack",
           "gauss_codazzi_ricci_residuals", "conformal_transform_check",
           "PullbackMetricField", "normal_frame", "SigmaField",
           "SigmaConn", "covariant_along", "normal_curvature"]


class RankDeficientError(NumericalError, RuntimeError):
    pass


@dataclass
class EmbeddingSpec:
    """Chart map of an m-dimensional submanifold into the ambient chart.

    ``packs`` is the memo of ``submanifold_pack``; it lives and dies with
    the spec.
    """
    m: int
    n: int
    phi: ArrayField
    orientation: int = 1
    packs: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def jets(self, y, order=3):
        return self.phi.jets(np.asarray(y, dtype=float), order)


class PullbackMetricField(ArrayField):
    """Induced metric on the parameter chart of an embedding.

    First and second derivatives come from the chain rule (embedding 3-jet,
    ambient metric 2-jet); third derivatives fall back to central differences
    of the chain-rule second derivative.  That second derivative is exact for
    analytic fields, so ``step3`` is sized against truncation alone (error
    ~ step3^2), not against the round-off of nested differences.

    The field keeps the embedding's chart map, not the embedding: a pack in
    the embedding's memo holds this field, and a reference back would make
    every memo wait for the cyclic garbage collector.
    """

    def __init__(self, geo: GeometrySpec, emb: EmbeddingSpec, step3=1e-4):
        self.geo = geo
        self.phi = emb.phi
        self.step3 = step3
        super().__init__(self._value,
                         backend=DiffBackend(mode="analytic", max_order=3))

    def _value(self, y):
        ph = self.phi.jets(y, 1)
        g = self.geo.metric.value(ph[0])
        return np.einsum("ai,bj,ab->ij", ph[1], ph[1], g)

    def jets(self, y, order):
        y = np.asarray(y, dtype=float)
        if order <= 2:
            return self._chain_jets(y, order)
        out = self._chain_jets(y, 2)
        d3 = central_diff(lambda z: self._chain_jets(z, 2)[2], y, self.step3)
        return out + [d3]

    def _chain_jets(self, y, order):
        geo = self.geo
        ph = self.phi.jets(y, min(3, order + 1))
        x = ph[0]
        dphi = ph[1]
        gj = geo.metric.jets(x, order)
        g = gj[0]
        G = np.einsum("ai,bj,ab->ij", dphi, dphi, g)
        out = [G]
        if order >= 1:
            d2phi = ph[2]
            dg = gj[1]
            dG = (np.einsum("aik,bj,ab->ijk", d2phi, dphi, g)
                  + np.einsum("ai,bjk,ab->ijk", dphi, d2phi, g)
                  + np.einsum("ai,bj,abc,ck->ijk", dphi, dphi, dg, dphi))
            out.append(dG)
        if order >= 2:
            d3phi = ph[3]
            d2g = gj[2]
            t = (np.einsum("aikl,bj,ab->ijkl", d3phi, dphi, g)
                 + np.einsum("aik,bjl,ab->ijkl", d2phi, d2phi, g)
                 + np.einsum("ail,bjk,ab->ijkl", d2phi, d2phi, g)
                 + np.einsum("ai,bjkl,ab->ijkl", dphi, d3phi, g)
                 + np.einsum("aik,bj,abc,cl->ijkl", d2phi, dphi, dg, dphi)
                 + np.einsum("ai,bjk,abc,cl->ijkl", dphi, d2phi, dg, dphi)
                 + np.einsum("ail,bj,abc,ck->ijkl", d2phi, dphi, dg, dphi)
                 + np.einsum("ai,bjl,abc,ck->ijkl", dphi, d2phi, dg, dphi)
                 + np.einsum("ai,bj,abcd,ck,dl->ijkl", dphi, dphi, d2g,
                             dphi, dphi)
                 + np.einsum("ai,bj,abc,ckl->ijkl", dphi, dphi, dg, d2phi))
            out.append(t)
        return out


@dataclass
class SubmanifoldPack:
    """Riemannian submanifold data at one parameter point."""
    q: np.ndarray
    x: np.ndarray
    m: int
    n: int
    d: int
    dphi: np.ndarray            # Pi^a_i
    pack: CurvaturePack         # ambient curvature at x
    g_s: np.ndarray             # induced metric
    gi_s: np.ndarray
    Pi_ia: np.ndarray           # Pi^i_a (orthogonal projection onto T Sigma)
    Nab: np.ndarray             # N^a_b
    II: np.ndarray              # II_ij^c -> [i, j, c]
    IIo: np.ndarray
    H: np.ndarray
    conormals: np.ndarray       # [alpha, a] orthonormal, oriented
    normals: np.ndarray         # raised conormals
    Nform: np.ndarray           # Riemannian normal form, d down indices
    seeds: tuple
    intrinsic: GeometrySpec


def submanifold_pack(geo: GeometrySpec, emb: EmbeddingSpec, q,
                     seeds=None) -> SubmanifoldPack:
    """Submanifold data of ``emb`` in ``geo`` at parameter point ``q``.

    ``seeds`` names the ambient coordinate conormals the normal frame is
    built from; by default the ones least aligned with the tangent space.

    Each distinct pack is computed once per embedding: packs are memoised in
    ``emb.packs`` under the key (``geo``, the bytes of ``q``, ``tuple(seeds)``
    or None).  Geometry specs hash by identity, so a geometry that was
    dropped cannot alias a new one, and the memo lives exactly as long as
    ``emb`` (the CLI builds one per call).  Packs are shared between callers,
    so their arrays, and those of the ambient curvature pack, are read-only.
    Concurrent callers may compute a pack twice; both results are equal.
    """
    q = np.array(q, dtype=float)
    key = (geo, q.tobytes(), None if seeds is None else tuple(seeds))
    sub = emb.packs.get(key)
    if sub is None:
        sub = emb.packs[key] = _build_pack(geo, emb, q, seeds)
    return sub


def _build_pack(geo, emb, q, seeds):
    ph = emb.jets(q, 2)
    pack = curvature_pack(geo, ph[0], order=min(3, geo.backend.max_order))
    if np.linalg.matrix_rank(ph[1], tol=1e-10) < emb.m:
        raise RankDeficientError(f"embedding differential rank-deficient at {q}")
    frame = normal_frame(pack.g, pack.gi, ph[1],
                         geo.orientation * emb.orientation, seeds,
                         pack.Gamma, ph[2])
    intrinsic = GeometrySpec(n=emb.m, metric=PullbackMetricField(geo, emb),
                             orientation=emb.orientation)
    sub = SubmanifoldPack(q=q, x=ph[0], m=emb.m, n=emb.n, d=emb.n - emb.m,
                          dphi=ph[1], pack=pack,
                          Nform=functools.reduce(tr.wedge, frame["conormals"]),
                          intrinsic=intrinsic, **frame)
    for obj in (sub, pack):
        for arr in vars(obj).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
    return sub


def normal_frame(g, gi, dphi, orientation, seeds=None, Gamma=None,
                 d2phi=None):
    """The ``SubmanifoldPack`` fields g_s, gi_s, Pi_ia, Nab, conormals,
    normals and seeds as a dict, from g, g^-1 and dphi at one point; with
    Gamma and d2phi also II, IIo and H.  ``seeds`` default to the coordinate
    conormals least aligned with the tangent space; ``orientation`` is the
    ambient one times the submanifold's."""
    n, m = dphi.shape
    g_s = dphi.T @ g @ dphi
    gi_s = np.linalg.inv(g_s)
    Pi_ia = gi_s @ dphi.T @ g
    Nab = np.eye(n) - dphi @ Pi_ia
    out = dict(g_s=g_s, gi_s=gi_s, Pi_ia=Pi_ia, Nab=Nab)

    if Gamma is not None:
        # second fundamental form: normal part of the ambient Hessian of phi
        hess = d2phi + np.einsum("cde,di,ej->cij", Gamma, dphi, dphi)
        II = np.einsum("cb,bij->ijc", Nab, hess)
        H = np.einsum("ij,ijc->c", gi_s, II) / m
        IIo = II - np.einsum("ij,c->ijc", g_s, H)
        if m == 1:
            IIo = np.zeros_like(II)
        out.update(II=II, IIo=IIo, H=H)

    if seeds is None:
        # residual of dx^a (row a of N^a_b) after tangential projection,
        # measured with g^-1
        scores = sorted((-float(w @ gi @ w), a) for a, w in enumerate(Nab))
        seeds = tuple(a for _, a in scores[:n - m])
    conormals = []
    for a in seeds:
        w = Nab[a, :]
        for prev in conormals:
            w = w - (prev @ gi @ w) * prev
        nw = math.sqrt(max(w @ gi @ w, 0.0))
        if nw < 1e-12:
            raise RankDeficientError("degenerate conormal seeds")
        conormals.append(w / nw)
    conormals = np.array(conormals)
    normals = conormals @ gi

    # orientation: the ambient chart's orientation of an oriented tangent
    # frame followed by the normals must be ``orientation``
    B = np.hstack([dphi, normals.T])
    if np.sign(np.linalg.det(B)) * orientation < 0:
        conormals[-1] = -conormals[-1]
        normals[-1] = -normals[-1]
    out.update(conormals=conormals, normals=normals, seeds=tuple(seeds))
    return out


# --------------------------------------------------------------------------
# derivatives of pack-derived quantities along the submanifold
# --------------------------------------------------------------------------

class SigmaField:
    """A quantity built from the pack, as a field over the parameter chart.

    ``builder(pack)`` maps a SubmanifoldPack to an array.  Derivatives use
    Richardson-extrapolated central differences (step 1e-2) with the
    normal-frame seeds frozen at the base point, so frame-dependent
    quantities stay smooth.
    """

    def __init__(self, geo, emb, builder):
        self.geo = geo
        self.emb = emb
        self.builder = builder
        self._seeds = None

    def value(self, q):
        pk = submanifold_pack(self.geo, self.emb, q, seeds=self._seeds)
        return np.asarray(self.builder(pk), dtype=float)

    def jet1(self, q):
        q = np.asarray(q, dtype=float)
        base = submanifold_pack(self.geo, self.emb, q)
        self._seeds = base.seeds
        v0 = np.asarray(self.builder(base), dtype=float)
        d1 = central_diff(self.value, q, 1e-2, richardson=True)
        return v0, d1, base


class SigmaConn:
    """The coupled connection along Sigma, index by index.

    ``matrix(ix)`` is the connection on index ``ix`` as [i, new, old]: on an
    index of the ambient dimension (n, or n + 2 for a tractor index) the
    ambient connection data ``ambient`` pulled back by ``dphi``, on one of
    the intrinsic dimension (m, or m + 2) the connection data
    ``intrinsic()`` returns.  Since m < n, kind and dimension name the
    bundle.  The intrinsic data is asked for only when an intrinsic index
    is.
    """

    def __init__(self, ambient, dphi, intrinsic=None):
        self.ambient = ambient
        self.dphi = dphi
        self.intrinsic = intrinsic

    def matrix(self, ix):
        n = self.ambient.n
        if ix.dim == (n + 2 if ix.kind == TRACTOR else n):
            M = self.ambient.matrix(ix)
            return np.einsum("ane,ai->ine", M, self.dphi)
        return self.intrinsic().matrix(ix)


def covariant_along(geo, emb, q, builder, conn, indices):
    """Covariant derivative along Sigma of ``builder(pack)``, whose axes
    carry ``indices``: [i, ...] with the derivative index first.

    The partial derivative is the Richardson difference of ``SigmaField``;
    ``conn.matrix(ix)`` adds the connection on each index."""
    v0, dv, _ = SigmaField(geo, emb, builder).jet1(q)
    return np.moveaxis(tr.covariant_jet(conn, [v0, dv], indices)[0], -1, 0)


def gauss_codazzi_ricci_residuals(geo: GeometrySpec, emb: EmbeddingSpec, q):
    """Max-norm residuals of the Gauss, Codazzi and Ricci equations.

    All curvatures are computed independently: the intrinsic one from the
    pulled-back metric field, the normal one from derivatives of the
    orthonormal normal frame.
    """
    sub = submanifold_pack(geo, emb, q)
    m, n, d = sub.m, sub.n, sub.d
    pack = sub.pack
    g = pack.g

    # ambient curvature restricted to Sigma
    R_tttt = np.einsum("abcd,ai,bj,ck,dl->ijkl", pack.R4, sub.dphi, sub.dphi,
                       sub.dphi, sub.dphi)
    ipack = curvature_pack(sub.intrinsic, q, order=2)
    RS = ipack.R4 if m >= 2 else np.zeros((m, m, m, m))
    # R_ijkl = R^S_ijkl + g_cd (II_li^c II_jk^d - II_lj^c II_ik^d)
    gauss_rhs = RS + (np.einsum("cd,lic,jkd->ijkl", g, sub.II, sub.II)
                      - np.einsum("cd,ljc,ikd->ijkl", g, sub.II, sub.II))
    res_gauss = _maxabs(R_tttt - gauss_rhs)

    # Codazzi: Pi Pi Pi R_ab^c_e N^d_c = 2 D_[i II_j]k^d
    lhs_cod = np.einsum("abce,ai,bj,ek,dc->ijkd", pack.Rud, sub.dphi,
                        sub.dphi, sub.dphi, sub.Nab)
    DII = _coupled_derivative_II(geo, emb, q, sub, ipack)  # [i, j, k, d]
    rhs_cod = DII - DII.transpose(1, 0, 2, 3)
    res_codazzi = _maxabs(lhs_cod - rhs_cod)

    # Ricci: Pi Pi R_ab^e_f N^c_e N^f_d = Rperp_ij^c_d - 2 g^kl II_k[i^c II_j]ld
    lhs_ric = np.einsum("abef,ai,bj,ce,fd->ijcd", pack.Rud, sub.dphi,
                        sub.dphi, sub.Nab, sub.Nab)
    Rperp = _normal_curvature(geo, emb, q, sub.seeds)
    IIdn = np.einsum("ijc,cd->ijd", sub.II, g)
    cross = np.einsum("kl,kic,jld->ijcd", sub.gi_s, sub.II, IIdn)
    rhs_ric = Rperp - (cross - cross.transpose(1, 0, 2, 3))
    res_ricci = _maxabs(lhs_ric - rhs_ric)
    return res_gauss, res_codazzi, res_ricci


def _maxabs(arr):
    return float(np.abs(arr).max()) if arr.size else 0.0


def _coupled_derivative_II(geo, emb, q, sub, ipack):
    """D_i II_jk^d with intrinsic Levi-Civita (from the intrinsic curvature
    pack ``ipack``) coupled to the normal connection on the ambient index."""
    m = sub.m
    conn = SigmaConn(tr.ConnData.from_pack(sub.pack), sub.dphi,
                     lambda: tr.ConnData.from_pack(ipack))
    DII = covariant_along(geo, emb, q, lambda pk: pk.II, conn,
                          (tangent_down(m), tangent_down(m), tangent_up(sub.n)))
    # project the ambient index back to the normal bundle
    return np.einsum("dc,ijkc->ijkd", sub.Nab, DII)


def normal_curvature(frame_at, q, index):
    """Curvature of a normal bundle, [i, j, C, E] acting on up components.

    ``frame_at(y, conn)`` gives the frame rows [alpha, C] (C is ``index``),
    the dual coframe rows [alpha, E] and, if ``conn``, the ``SigmaConn`` at
    y.  omega_i = coframe (d_i + conn_i) frame takes d_i from a plain
    central difference (step 1e-4), its curvature from a Richardson one
    (step 1e-2)."""
    q = np.asarray(q, dtype=float)

    def omega_at(y, frame, coframe, conn):
        dV = central_diff(lambda z: frame_at(z, False)[0], y, 1e-4)
        nab = np.moveaxis(dV, -1, 0) + np.einsum(
            "ice,be->ibc", conn.matrix(index), frame)
        return np.einsum("ac,ibc->iab", coframe, nab)

    base = frame_at(q, True)
    om0 = omega_at(q, *base)
    # dw[p, q] = partial_p omega_q, C-contiguous like the einsum terms
    dw = np.ascontiguousarray(np.moveaxis(central_diff(
        lambda y: omega_at(y, *frame_at(y, True)), q, 1e-2, richardson=True),
        -1, 0))
    Rfr = (dw - dw.transpose(1, 0, 2, 3)
           + np.einsum("iae,jeb->ijab", om0, om0)
           - np.einsum("jae,ieb->ijab", om0, om0))
    return np.einsum("ec,ijef,fd->ijcd", base[0], Rfr, base[1])


def _normal_curvature(geo, emb, q, seeds):
    """Rperp_ij^c_d from the normal frame with ``seeds`` frozen."""
    orientation = geo.orientation * emb.orientation

    def frame_at(y, conn):
        ph = emb.jets(y, 1)
        g, gi, Gamma = metric_connection(geo, ph[0], 1 if conn else 0)
        fr = normal_frame(g, gi, ph[1], orientation, seeds)
        return fr["normals"], fr["conormals"], (
            SigmaConn(tr.ConnData(emb.n, g, gi, Gamma), ph[1]) if conn else None)

    return normal_curvature(frame_at, q, tangent_up(emb.n))


def conformal_transform_check(geo, emb, omega, q):
    """Residuals of the second-fundamental-form transformation laws.

    II has weight 0 so its trivialised components transform directly; the
    weighted mean curvature has weight -2, so the hatted trivialisation
    carries a factor Omega^-2.
    """
    sub = submanifold_pack(geo, emb, q)
    geo2, upsilon = rescale(geo, omega)
    sub2 = submanifold_pack(geo2, emb, q, seeds=sub.seeds)
    w = float(omega.value(sub.x))
    ups = upsilon(sub.x)
    ups_up = sub.pack.gi @ ups
    Nups = sub.Nab @ ups_up
    II_pred = sub.II - np.einsum("ij,c->ijc", sub.g_s, Nups)
    H_pred = w ** (-2) * (sub.H - Nups)
    r_II = _maxabs(sub2.II - II_pred)
    r_H = _maxabs(sub2.H - H_pred)
    r_IIo = _maxabs(sub2.IIo - sub.IIo)
    return {"II": r_II, "H": r_H, "IIo_invariance": r_IIo}
