"""Submanifold tractor calculus.

Builds the normal tractor bundle, the tractor second fundamental form (two
independent evaluations), the Fialkow tensor with its low-dimensional
conventions, the mixed Schouten-Weyl invariant, difference tractor, tractor
normal form, mean-curvature tractor predicates, and classification verdicts.

A ``SubTractorContext`` is the unit of per-point work: each quantity is
computed once per context (``_cached``), and callers read everything at a
point from one context.  Derivatives along Sigma go through
``SubTractorContext.along``, the one covariant derivative of
``submanifold.covariant_along`` with the ambient connection on ambient
indices and ``intrinsic_conn`` (intrinsic Levi-Civita and tractor
connection, Schouten tensor replaced by the induced one p) on intrinsic
indices; its builder receives the context of each stencil point, and
callers add only the normal projection the formula needs.  The L-shaped
slot fill is ``L_slots``.  The normal tractor curvature is
``submanifold.normal_curvature`` of the tractor conormal frame.

Index bookkeeping: tractor tensors are stored in natural slot order for both
variances.  Contracting an up/down pair goes through the constant pairing J
(``tensors.pairing_matrix``, the sigma/rho swap); contracting two down
indices with the inverse tractor metric uses
``tensors.tractor_metric_matrix(g^-1)``.  (1,1)-tensors are often turned
into action matrices on up-components via ``arr @ J``.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .riemann import GeometrySpec, curvature_pack, metric_connection
from .submanifold import (EmbeddingSpec, SigmaConn, SubmanifoldPack,
                          covariant_along, normal_curvature, normal_frame,
                          submanifold_pack)
from .tensors import (TensorValue, middle_block,
                      pairing_matrix, tangent_down, tangent_up, tractor_down,
                      tractor_metric_matrix, tractor_up)
from . import tractor as tr

__all__ = ["SubTractorContext", "ClassificationReport", "classify",
           "mean_curvature_tractor", "reconstruct_L",
           "M_operator", "tractor_gcr_residuals", "checked_connection_residual",
           "normal_projector_array"]


def normal_projector_array(sub: SubmanifoldPack):
    """N^A_B slots: [up A, down B]."""
    n = sub.n
    N = np.zeros((n + 2, n + 2))
    H_low = sub.pack.g @ sub.H
    N[1:n + 1, 1:n + 1] = sub.Nab
    N[1:n + 1, n + 1] = sub.H
    N[n + 1, 1:n + 1] = H_low
    N[n + 1, n + 1] = float(sub.H @ H_low)
    return N


def tractor_conormal_rows(conormals, H):
    """Tractor conormals (0, n_a, n.H) as down slot rows, from the
    Riemannian conormal rows and the mean curvature."""
    d, n = conormals.shape
    out = np.zeros((d, n + 2))
    out[:, 1:n + 1] = conormals
    out[:, n + 1] = [float(w @ H) for w in conormals]
    return out


def push_up_matrix(sub: SubmanifoldPack):
    """Intrinsic up slots -> ambient up slots (the bundle map Pi^A_I)."""
    m, n = sub.m, sub.n
    M = np.zeros((n + 2, m + 2))
    M[0, 0] = 1.0
    M[1:n + 1, 0] = -sub.H
    M[1:n + 1, 1:m + 1] = sub.dphi
    M[n + 1, 0] = -0.5 * float(sub.H @ sub.pack.g @ sub.H)
    M[n + 1, m + 1] = 1.0
    return M


def pull_up_matrix(sub: SubmanifoldPack):
    """Ambient up slots -> intrinsic up slots (projection then iso)."""
    m, n = sub.m, sub.n
    Q = np.zeros((m + 2, n + 2))
    Q[0, 0] = 1.0
    Q[1:m + 1, 1:n + 1] = sub.Pi_ia
    Q[m + 1, 0] = -0.5 * float(sub.H @ sub.pack.g @ sub.H)
    Q[m + 1, 1:n + 1] = -(sub.pack.g @ sub.H)
    Q[m + 1, n + 1] = 1.0
    return Q


def pull_down_matrix(sub: SubmanifoldPack):
    """Contraction matrix for a down ambient tractor index against Pi^B_J:
    the transpose of Pi^B_J between the two pairings."""
    return (pairing_matrix(sub.m) @ push_up_matrix(sub).T
            @ pairing_matrix(sub.n))


def _cached(method):
    """Compute a context method once per context and argument values.

    The value is kept in the context's ``_cache`` under the method name and
    its arguments, defaults filled in.  No cached value may hold the
    context: the embedding's pack memo would then wait for the cyclic
    garbage collector.
    """
    sig = inspect.signature(method)
    name = method.__name__
    plain = (name,) + tuple(p.default
                            for p in list(sig.parameters.values())[1:])

    @functools.wraps(method)
    def cached(self, *args, **kwargs):
        key = plain
        if args or kwargs:
            bound = sig.bind(self, *args, **kwargs)
            bound.apply_defaults()
            key = (name,) + tuple(bound.arguments.values())[1:]
        if key not in self._cache:
            self._cache[key] = method(self, *args, **kwargs)
        return self._cache[key]
    return cached


class SubTractorContext:
    """All submanifold-tractor data of (geo, emb) at one parameter point."""

    def __init__(self, geo: GeometrySpec, emb: EmbeddingSpec, q,
                 sub: SubmanifoldPack | None = None):
        self.geo = geo
        self.emb = emb
        self.q = np.asarray(q, dtype=float)
        self.sub = sub if sub is not None else submanifold_pack(geo, emb, q)
        self.m = self.sub.m
        self.n = self.sub.n
        self.d = self.sub.d
        self._cache = {}

    @property
    def pack(self):
        return self.sub.pack

    # -- maps ---------------------------------------------------------------
    @_cached
    def push_up(self):
        return push_up_matrix(self.sub)

    @_cached
    def pull_up(self):
        return pull_up_matrix(self.sub)

    @_cached
    def pull_down(self):
        return pull_down_matrix(self.sub)

    @_cached
    def normal_projector(self):
        return normal_projector_array(self.sub)

    # -- normal tractor frame and forms --------------------------------------
    @_cached
    def tractor_conormals(self):
        """Orthonormal tractor conormal frame; rows are down slot vectors
        (0, n_a, n.H)."""
        return tractor_conormal_rows(self.sub.conormals, self.sub.H)

    @_cached
    def normal_form(self):
        return functools.reduce(tr.wedge, self.tractor_conormals())

    @_cached
    def star_normal_form(self):
        ixs = tuple(tractor_down(self.n) for _ in range(self.d))
        F = tr.TractorFormObject(TensorValue(self.normal_form(), ixs, 0),
                                 self.geo)
        return tr.hodge_star(F, self.sub.x).data

    # -- first-order ingredients ---------------------------------------------
    @_cached
    def grad_H(self):
        """nabla_i H^a along Sigma (pullback ambient connection): [i, a]."""
        return self.along(lambda c: c.sub.H, (tangent_up(self.n),))

    @_cached
    def P_mixed(self):
        """P_i^a = Pi^b_i P_b^a."""
        return np.einsum("bi,bc,ca->ia", self.sub.dphi, self.pack.P,
                         self.pack.gi)

    @_cached
    def L_xz(self):
        """N^c_a (P_i^a - nabla_i H^a)."""
        return np.einsum("cb,ib->ic", self.sub.Nab,
                         self.P_mixed() - self.grad_H())

    @_cached
    def DjIIo(self):
        """D^j IIo_ij^c, intrinsic Levi-Civita coupled to the normal
        connection."""
        return self._normal_divergence(lambda c: c.sub.IIo)

    def _normal_divergence(self, builder):
        """g^{jk} N^c_b D_k A_ij^b for a normal-valued A_ij^c =
        builder(context): [i, c]."""
        m = self.m
        D = self.along(builder, (tangent_down(m), tangent_down(m),
                                 tangent_up(self.n)))     # [k, i, j, b]
        D = np.einsum("cb,kijb->kijc", self.sub.Nab, D)
        return np.einsum("jk,kijc->ic", self.sub.gi_s, D)

    @_cached
    def mu(self):
        """Mixed Schouten-Weyl invariant mu_i^c."""
        base = self.P_mixed() - self.grad_H()
        if self.m >= 2:
            base = base + self.DjIIo() / (self.m - 1)
        return np.einsum("cb,ib->ic", self.sub.Nab, base)

    def mu_weyl(self):
        """Alternative evaluation from the Weyl tensor (m >= 2).

        Tracing the Codazzi equation against the induced metric in our
        conventions gives mu_i^c = -(1/(m-1)) g^{jk} W_ij^e_k N^c_e,
        equivalently +(1/(m-1)) W_ab^e_f N^{bf} Pi^a_i N^c_e.
        """
        if self.m < 2:
            raise ValueError("Weyl route needs m >= 2")
        sub = self.sub
        Wud = np.einsum("dc,abce->abde", self.pack.gi, self.pack.W4)
        A = np.einsum("ai,bj,abde,ek,jk->id", sub.dphi, sub.dphi, Wud,
                      sub.dphi, sub.gi_s)
        return -np.einsum("cd,id->ic", sub.Nab, A) / (self.m - 1)

    @_cached
    def intrinsic_pack(self, order=2):
        return curvature_pack(self.sub.intrinsic, self.q, order=order)

    @_cached
    def intrinsic_conn(self):
        """Intrinsic connection data: Levi-Civita of the induced metric and
        the tractor connection with the induced Schouten tensor p."""
        ip = self.intrinsic_pack()
        _, p, _ = self.fialkow()
        return tr.ConnData(self.m, self.sub.g_s, self.sub.gi_s, ip.Gamma,
                           P=p, dg=ip.dg, dGamma=ip.dGamma, dP=None)

    def along(self, builder, indices):
        """Covariant derivative along Sigma of ``builder(ctx)``, with ``ctx``
        the context at each stencil point (axes carrying ``indices``),
        coupling the ambient connection on ambient indices with
        ``intrinsic_conn`` on intrinsic ones: [i, ...]."""
        geo, emb = self.geo, self.emb
        # built per call: a SigmaConn holds this context (through the bound
        # method), and the cache must not, or the embedding's pack memo
        # would wait for the cyclic garbage collector
        conn = SigmaConn(tr.ConnData.from_pack(self.pack), self.sub.dphi,
                         self.intrinsic_conn)
        return covariant_along(
            geo, emb, self.q,
            lambda pk: builder(SubTractorContext(geo, emb, pk.q, sub=pk)),
            conn, indices)

    # -- Fialkow -------------------------------------------------------------
    @_cached
    def fialkow(self):
        """(F_ij, p_ij, jot) with the m-dependent conventions."""
        sub = self.sub
        m = self.m
        P_tt = np.einsum("ai,bj,ab->ij", sub.dphi, sub.dphi, self.pack.P)
        H_low = self.pack.g @ sub.H
        HII = np.einsum("c,ijc->ij", H_low, sub.IIo)
        H2 = float(sub.H @ H_low)
        cand = P_tt + HII + 0.5 * H2 * sub.g_s
        if m >= 3:
            p = self.intrinsic_pack().P
            F = cand - p
        elif m == 2:
            IIo2 = float(np.einsum("ik,jl,cd,ijc,kld->", sub.gi_s,
                                   sub.gi_s, self.pack.g, sub.IIo,
                                   sub.IIo))
            W_tt = np.einsum("abcd,ai,bj,ck,dl->ijkl", self.pack.W4,
                             sub.dphi, sub.dphi, sub.dphi, sub.dphi)
            tr2W = float(np.einsum("ik,jl,ijkl->", sub.gi_s, sub.gi_s,
                                   W_tt))
            F = 0.25 * (IIo2 - tr2W) * sub.g_s
            p = cand - F
        else:
            F = np.zeros((1, 1))
            p = cand
        jot = float(np.einsum("ij,ij->", sub.gi_s, p))
        return F, p, jot

    def fialkow_weyl(self):
        """Manifestly invariant evaluation (m >= 3)."""
        if self.m < 3:
            raise ValueError("Weyl form of the Fialkow tensor needs m >= 3")
        sub = self.sub
        m = self.m
        W = self.pack.W4
        Nup = sub.Nab @ self.pack.gi           # N^{ac}
        W_icjd_N = np.einsum("ai,bj,acbd,cd->ij", sub.dphi, sub.dphi, W, Nup)
        WNN = float(np.einsum("abcd,ac,bd->", W, Nup, Nup))
        IIo_sq = np.einsum("kl,cd,ikc,jld->ij", sub.gi_s, self.pack.g,
                           sub.IIo, sub.IIo)
        IIo_n2 = float(np.einsum("ij,ij->", sub.gi_s, IIo_sq))
        return (W_icjd_N + WNN / (2 * (m - 1)) * sub.g_s
                + IIo_sq - IIo_n2 / (2 * (m - 1)) * sub.g_s) / (m - 2)

    def mobius_cotton(self):
        """c_ijk = 2 D_[i p_j]k for m = 2 (Moebius flatness diagnostic)."""
        if self.m != 2:
            raise ValueError("the Moebius Cotton diagnostic is for m = 2")
        covdp = self.along(lambda c: c.fialkow()[1],
                           (tangent_down(self.m),) * 2)
        return covdp - covdp.transpose(1, 0, 2)

    # -- difference tractor ----------------------------------------------
    @_cached
    def difference_tractor(self):
        """S_iJK = 2 F_ij Z^j_[J X_K] (intrinsic tractor indices, down)."""
        F, _, _ = self.fialkow()
        m = self.m
        S = np.zeros((m, m + 2, m + 2))
        S[:, 1:m + 1, m + 1] += F
        S[:, m + 1, 1:m + 1] -= F
        return S

    # -- tractor second fundamental form -----------------------------------
    @_cached
    def L_explicit(self):
        """L_iJ^C slots: [i, J intrinsic down, C ambient up]."""
        return self.L_slots(self.sub.IIo, self.L_xz())

    def L_slots(self, A, xz):
        """The L-shaped tractor with tangent-normal part A_ij^c and X-Z part
        xz_i^c (both normal-valued): [i, J intrinsic down, C ambient up]."""
        m, n = self.m, self.n
        H_low = self.pack.g @ self.sub.H
        L = np.zeros((m, m + 2, n + 2))
        L[:, 1:m + 1, 1:n + 1] = A
        L[:, m + 1, 1:n + 1] = xz
        L[:, 1:m + 1, n + 1] = np.einsum("c,ijc->ij", H_low, A)
        L[:, m + 1, n + 1] = np.einsum("c,ic->i", H_low, xz)
        return L

    @_cached
    def nabla_normal_projector(self):
        """nabla_i N^A_B along Sigma: [i, A up, B down]."""
        return self.along(lambda c: c.normal_projector(),
                          (tractor_up(self.n), tractor_down(self.n)))

    @_cached
    def Lbar(self):
        """L with an ambient down tractor index: [i, B down, C up]."""
        nabN = self.nabla_normal_projector()
        Nact = self.normal_projector() @ pairing_matrix(self.n)
        return -np.einsum("CA,iAB->iBC", Nact, nabN)

    @_cached
    def L_dual(self):
        """L via -Pi^B_J N^C_A nabla_i N^A_B: [i, J, C up]."""
        return np.einsum("JB,iBC->iJC", self.pull_down(), self.Lbar())

    @_cached
    def nabla_normal_form(self):
        """nabla_i N_{A1..Ad} along Sigma (pullback tractor connection)."""
        return self.along(lambda c: c.normal_form(),
                          (tractor_down(self.n),) * self.d)

    @_cached
    def nabla_star_normal_form(self):
        return self.along(lambda c: c.star_normal_form(),
                          (tractor_down(self.n),) * (self.m + 2))

    # -- norms and scales ------------------------------------------------
    def scale(self):
        pk = self.pack
        nP = 0.0
        if pk.P is not None:
            nP = math.sqrt(abs(float(np.einsum("ab,cd,ac,bd->", pk.gi,
                                               pk.gi, pk.P, pk.P))))
        nII = math.sqrt(abs(float(np.einsum(
            "ik,jl,cd,ijc,kld->", self.sub.gi_s, self.sub.gi_s, pk.g,
            self.sub.II, self.sub.II))))
        return max(1.0, nP, nII)

    def L_norm(self, L=None):
        L = self.L_explicit() if L is None else L
        return math.sqrt(max(0.0, float(np.einsum(
            "ij,JK,CD,iJC,jKD->", self.sub.gi_s, middle_block(self.sub.gi_s),
            middle_block(self.pack.g), L, L))))


# --------------------------------------------------------------------------
# derived operators and oracles
# --------------------------------------------------------------------------

def checked_connection_residual(geo, emb, q, seed=0):
    """Oracle for the difference tractor on a random intrinsic field.

    Builds V^J(y), compares Pi^J_B nabla_i (Pi^B_K V^K) - D_i V^J with
    S_i^J_K V^K.
    """
    ctx = SubTractorContext(geo, emb, q)
    m = ctx.m
    rng = np.random.default_rng(seed)
    c0 = rng.standard_normal(m + 2)
    c1 = rng.standard_normal((m + 2, m))

    def V_at(y):
        return c0 + c1 @ (np.asarray(y) - ctx.q)

    nabW = ctx.along(lambda c: c.push_up() @ V_at(c.q),
                     (tractor_up(ctx.n),))
    lhs = np.einsum("JB,iB->iJ", ctx.pull_up(), nabW)
    DV = tr.covariant_jet(ctx.intrinsic_conn(), [c0, c1],
                          (tractor_up(m),))[0].T

    S = ctx.difference_tractor()
    Sact = np.einsum("JK,iKL->iJL", middle_block(ctx.sub.gi_s),
                     S) @ pairing_matrix(m)
    SV = np.einsum("iJL,L->iJ", Sact, V_at(ctx.q))
    res = lhs - DV - SV
    return float(np.abs(res).max()), float(np.abs(lhs).max())


def reconstruct_L(ctx: SubTractorContext):
    """L from (IIo, mu); the m = 1 branch falls back to the slot formula."""
    if ctx.m == 1:
        return ctx.L_explicit()
    return ctx.L_slots(ctx.sub.IIo, ctx.mu() - ctx.DjIIo() / (ctx.m - 1))


def M_operator(ctx: SubTractorContext, omega_builder):
    """Invariant map taking a trace-free symmetric normal-valued field to an
    L-shaped tractor."""
    if ctx.m < 2:
        raise ValueError("the 1/(m-1) factor is undefined for curves")
    om0 = np.asarray(omega_builder(ctx.sub), dtype=float)
    Dj = ctx._normal_divergence(lambda c: omega_builder(c.sub))
    return ctx.L_slots(om0, -Dj / (ctx.m - 1))


def mean_curvature_tractor(geo, emb, q, scale_tractor_comp=None,
                           samples=None, tol=1e-6):
    """H^A = N^A_B I^B plus minimal / CMC / parallel-H predicates."""
    ctx = SubTractorContext(geo, emb, q)
    n = ctx.n

    def I_at(pk):
        if scale_tractor_comp is not None:
            return np.asarray(scale_tractor_comp(pk.x), dtype=float)
        return tr.make_tractor(n, sigma=1.0, rho=-pk.pack.J / n)

    def HA_at(pk):
        return normal_projector_array(pk) @ (pairing_matrix(n) @ I_at(pk))

    I0 = I_at(ctx.sub)
    if np.abs(I0).max() < 1e-14:
        raise ValueError("supplied scale tractor vanishes")
    HA = HA_at(ctx.sub)
    scale = ctx.scale()
    minimal = bool(np.abs(HA).max() < tol * scale)

    NI2 = []
    pts = [ctx.q] if samples is None else samples
    for s in pts:
        pk = submanifold_pack(geo, emb, s, seeds=ctx.sub.seeds)
        NI2.append(float(HA_at(pk) @ tractor_metric_matrix(pk.pack.g)
                         @ I_at(pk)))
    cmc = bool(max(NI2) - min(NI2) < tol * max(1.0, abs(NI2[0])))

    nabH = ctx.along(lambda c: HA_at(c.sub), (tractor_up(n),))
    Nact = ctx.normal_projector() @ pairing_matrix(n)
    NnabH = np.einsum("AB,iB->iA", Nact, nabH)
    parallel = bool(np.abs(NnabH).max() < tol * scale)
    return {"H_tractor": HA, "minimal": minimal, "cmc": cmc,
            "parallel_mean_curvature": parallel, "NI2": NI2,
            "parallel_residual": float(np.abs(NnabH).max()),
            "minimal_residual": float(np.abs(HA).max())}


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

@dataclass
class ClassificationReport:
    samples: list
    per_sample: list
    verdicts: dict
    tol: float
    scale: float

    def to_dict(self):
        return {"samples": [list(map(float, s)) for s in self.samples],
                "per_sample": self.per_sample,
                "verdicts": self.verdicts,
                "tolerance": self.tol,
                "scale": self.scale}


def _norms_at(ctx: SubTractorContext):
    sub = ctx.sub
    g = ctx.pack.g
    gis = sub.gi_s
    nIIo = math.sqrt(max(0.0, float(np.einsum(
        "ik,jl,cd,ijc,kld->", gis, gis, g, sub.IIo, sub.IIo))))
    nH = math.sqrt(max(0.0, float(sub.H @ g @ sub.H)))
    mu = ctx.mu()
    nmu = math.sqrt(max(0.0, float(np.einsum(
        "ij,cd,ic,jd->", gis, g, mu, mu))))
    F, p, jot = ctx.fialkow()
    nF = math.sqrt(max(0.0, float(np.einsum(
        "ik,jl,ij,kl->", gis, gis, F, F))))
    trF = float(np.einsum("ij,ij->", gis, F))
    F0 = F - trF / ctx.m * sub.g_s
    nF0 = math.sqrt(max(0.0, float(np.einsum(
        "ik,jl,ij,kl->", gis, gis, F0, F0))))
    nL = ctx.L_norm()
    S = ctx.difference_tractor()
    EA = middle_block(gis)
    nS = math.sqrt(max(0.0, float(np.einsum(
        "ij,JK,LM,iJL,jKM->", gis, EA, EA, S, S))))
    return {"IIo_norm": nIIo, "H_norm": nH, "mu_norm": nmu,
            "fialkow_norm": nF, "fialkow_coefficient": trF / ctx.m,
            "fialkow_tracefree_norm": nF0, "L_norm": nL, "S_norm": nS,
            "jot": jot}


def classify(contexts, tol=None) -> ClassificationReport:
    """Umbilic / distinguished / (strongly) conformally circular verdicts
    over the sample points of ``contexts``; the default tolerance is 1e-3
    if a context's metric is differenced, else 1e-6."""
    if tol is None:
        fd = any(c.geo.backend.mode != "analytic" for c in contexts)
        tol = 1e-3 if fd else 1e-6
    rows = [_norms_at(c) for c in contexts]
    scale = max([1.0] + [c.scale() for c in contexts])

    def small(key):
        return bool(all(r[key] < tol * scale for r in rows))

    verdicts = {
        "umbilic": small("IIo_norm"),
        "distinguished": small("L_norm"),
        "conformally_circular": small("L_norm") and small("fialkow_tracefree_norm"),
        "strongly_conformally_circular": small("L_norm") and small("fialkow_norm"),
    }
    return ClassificationReport(samples=[c.q for c in contexts],
                                per_sample=rows, verdicts=verdicts, tol=tol,
                                scale=scale)


# --------------------------------------------------------------------------
# tractor Gauss-Codazzi-Ricci residuals (m >= 3)
# --------------------------------------------------------------------------

def intrinsic_tractor_curvature(ctx: SubTractorContext):
    """Curvature of the intrinsic tractor connection: [i, j, K, L] down."""
    m = ctx.m
    if m < 3:
        raise ValueError("intrinsic tractor curvature needs m >= 3")
    ip = ctx.intrinsic_pack(order=3)
    Om = np.zeros((m, m, m + 2, m + 2))
    Om[:, :, 1:m + 1, 1:m + 1] = ip.W4
    Om[:, :, m + 1, 1:m + 1] -= ip.Cotton
    Om[:, :, 1:m + 1, m + 1] += ip.Cotton
    return Om


def _intrinsic_D_of_S(ctx: SubTractorContext):
    """D_i S_jKL: [i, j, K, L]."""
    m = ctx.m
    return ctx.along(lambda c: c.difference_tractor(),
                     (tangent_down(m), tractor_down(m), tractor_down(m)))


def _coupled_D_of_L(ctx: SubTractorContext):
    """D_i L_jL^C with the normal tractor connection on the ambient index:
    [i, j, L, C]."""
    m = ctx.m
    DL = ctx.along(lambda c: c.L_explicit(),
                   (tangent_down(m), tractor_down(m), tractor_up(ctx.n)))
    # normal tractor connection on the ambient index: project the whole
    # derivative, since the bundle rotates (the intrinsic terms are
    # normal-valued already, as L is)
    Nact = ctx.normal_projector() @ pairing_matrix(ctx.n)
    return np.einsum("CA,ijLA->ijLC", Nact, DL)


def _normal_tractor_curvature(ctx: SubTractorContext):
    """Curvature of the normal tractor connection as action matrices:
    [i, j, C, E] with (Om v)[C] = Om[i,j,C,E] v[E] for up components, from
    the tractor conormal frame; only the connection needs a pack (for P)."""
    geo, emb, n = ctx.geo, ctx.emb, ctx.n
    orientation = geo.orientation * emb.orientation
    Jamb = pairing_matrix(n)

    def frame_at(y, conn):
        ph = emb.jets(y, 2)
        pk = curvature_pack(geo, ph[0], order=2) if conn else None
        g, gi, Gamma = ((pk.g, pk.gi, pk.Gamma) if conn
                        else metric_connection(geo, ph[0]))
        fr = normal_frame(g, gi, ph[1], orientation, ctx.sub.seeds, Gamma,
                          ph[2])
        frame = tractor_conormal_rows(fr["conormals"], fr["H"])
        return frame @ middle_block(gi), frame @ Jamb, (
            SigmaConn(tr.ConnData.from_pack(pk), ph[1]) if conn else None)

    return normal_curvature(frame_at, ctx.q, tractor_up(n))


def tractor_gcr_residuals(ctx: SubTractorContext):
    """Max-norm residuals of the tractor Gauss, Codazzi, Ricci equations."""
    m, n = ctx.m, ctx.n
    if m < 3:
        raise ValueError("tractor Gauss-Codazzi-Ricci checks need m >= 3")
    sub = ctx.sub
    Jamb, Jint = pairing_matrix(n), pairing_matrix(m)
    Ramb = middle_block(ctx.pack.gi)
    Lamb = middle_block(ctx.pack.g)
    HupS = tractor_metric_matrix(sub.gi_s)
    Q = ctx.pull_down()

    Om_amb = tr.tractor_curvature(ctx.geo, sub.x).data
    Om_tt = np.einsum("abCD,ai,bj->ijCD", Om_amb, sub.dphi, sub.dphi)

    # --- Gauss ---
    Om_KL = np.einsum("ijCD,KC,LD->ijKL", Om_tt, Q, Q)
    Om_S = intrinsic_tractor_curvature(ctx)
    S = ctx.difference_tractor()
    DS = _intrinsic_D_of_S(ctx)
    SS = np.einsum("MN,iKM,jNL->ijKL", HupS, S, S)
    L = ctx.L_explicit()
    L_low = np.einsum("CD,iJD->iJC", Lamb, L)
    LL = np.einsum("iLC,jKC->ijKL", L, np.einsum("CD,jKD->jKC", Jamb, L_low))
    rhs = (Om_S + (DS - DS.transpose(1, 0, 2, 3))
           + (SS - SS.transpose(1, 0, 2, 3))
           + (LL - LL.transpose(1, 0, 2, 3)))
    res_gauss = float(np.abs(Om_KL - rhs).max())

    # --- Codazzi ---
    Nact = ctx.normal_projector() @ Jamb
    Om_act = np.einsum("CE,ijEF,FD->ijCD", Ramb, Om_tt, Jamb)
    lhs_act = np.einsum("CA,ijAD,DK->ijKC", Nact, Om_act, ctx.push_up())
    lhs_cod = np.einsum("ijKC,KL->ijLC", lhs_act, Jint)
    DL = _coupled_D_of_L(ctx)
    LS = np.einsum("iKC,jKL->ijLC", L, np.einsum("KM,jML->jKL", HupS, S))
    rhs_cod = ((DL - DL.transpose(1, 0, 2, 3))
               + (LS - LS.transpose(1, 0, 2, 3)))
    res_cod = float(np.abs(lhs_cod - rhs_cod).max())

    # --- Ricci ---
    lhs_ric = np.einsum("CA,ijAB,BD->ijCD", Nact, Om_act, Nact)
    OmN = _normal_tractor_curvature(ctx)
    LLn = np.einsum("KL,iKC,jLE->ijCE", HupS, L,
                    np.einsum("CD,jLD->jLC", Jamb, L_low))
    rhs_ric = OmN - (LLn - LLn.transpose(1, 0, 2, 3))
    res_ric = float(np.abs(lhs_ric - rhs_ric).max())
    return res_gauss, res_cod, res_ric
