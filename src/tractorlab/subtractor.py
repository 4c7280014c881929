"""Submanifold tractor calculus.

Builds the normal tractor bundle, the tractor second fundamental form (two
independent evaluations), the Fialkow tensor with its low-dimensional
conventions, the mixed Schouten-Weyl invariant, difference tractor, tractor
normal form, mean-curvature tractor predicates, and classification verdicts.

Derivatives along Sigma go through ``SubTractorContext.along``, the one
covariant derivative of ``submanifold.covariant_along`` with the ambient
connection on ambient indices and ``intrinsic_conn`` (intrinsic
Levi-Civita and tractor connection, Schouten tensor replaced by the
induced one p) on intrinsic indices; callers add only the normal
projection the formula needs.  The L-shaped slot fill is ``L_slots``.

Index bookkeeping: tractor tensors are stored in natural slot order for both
variances.  Contracting an up/down pair goes through the constant pairing J
(``tensors.pairing_matrix``, the sigma/rho swap); contracting two down
indices with the inverse tractor metric uses
``tensors.tractor_metric_matrix(g^-1)``.  (1,1)-tensors are often turned
into action matrices on up-components via ``arr @ J``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .riemann import GeometrySpec, curvature_pack
from .submanifold import (EmbeddingSpec, SigmaConn, SubmanifoldPack,
                          covariant_along, frame_curvature, submanifold_pack,
                          _wedge_rows)
from .tensors import (TensorValue, central_diff, middle_block,
                      pairing_matrix, tangent_down, tangent_up, tractor_down,
                      tractor_metric_matrix, tractor_up)
from . import tractor as tr

__all__ = ["SubTractorContext", "ClassificationReport", "classify",
           "normal_tractor_projector", "tractor_second_fundamental_form",
           "mu_invariant", "fialkow", "difference_tractor",
           "tractor_normal_form", "mean_curvature_tractor", "reconstruct_L",
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

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def pack(self):
        return self.sub.pack

    # -- maps ---------------------------------------------------------------
    def push_up(self):
        return self._get("push_up", lambda: push_up_matrix(self.sub))

    def pull_up(self):
        return self._get("pull_up", lambda: pull_up_matrix(self.sub))

    def pull_down(self):
        return self._get("pull_down", lambda: pull_down_matrix(self.sub))

    def normal_projector(self):
        return self._get("NAB", lambda: normal_projector_array(self.sub))

    # -- normal tractor frame and forms --------------------------------------
    def tractor_conormals(self):
        """Orthonormal tractor conormal frame; rows are down slot vectors
        (0, n_a, n.H)."""
        def build():
            sub = self.sub
            n = self.n
            out = np.zeros((self.d, n + 2))
            for a in range(self.d):
                w = sub.conormals[a]
                out[a, 1:n + 1] = w
                out[a, n + 1] = float(w @ sub.H)
            return out
        return self._get("tr_conormals", build)

    def normal_form(self):
        return self._get("Nform_tr",
                         lambda: _wedge_rows(self.tractor_conormals()))

    def star_normal_form(self):
        def build():
            ixs = tuple(tractor_down(self.n) for _ in range(self.d))
            F = tr.TractorFormObject(TensorValue(self.normal_form(), ixs, 0),
                                     self.geo)
            return tr.hodge_star(F, self.sub.x).data
        return self._get("starN", build)

    # -- first-order ingredients ---------------------------------------------
    def grad_H(self):
        """nabla_i H^a along Sigma (pullback ambient connection): [i, a]."""
        return self._get("grad_H", lambda: self.along(
            lambda pk: pk.H, (tangent_up(self.n),)))

    def P_mixed(self):
        """P_i^a = Pi^b_i P_b^a."""
        def build():
            return np.einsum("bi,bc,ca->ia", self.sub.dphi, self.pack.P,
                             self.pack.gi)
        return self._get("P_mixed", build)

    def L_xz(self):
        """N^c_a (P_i^a - nabla_i H^a)."""
        def build():
            return np.einsum("cb,ib->ic", self.sub.Nab,
                             self.P_mixed() - self.grad_H())
        return self._get("L_xz", build)

    def DjIIo(self):
        """D^j IIo_ij^c, intrinsic Levi-Civita coupled to the normal
        connection."""
        return self._get("DjIIo",
                         lambda: self._normal_divergence(lambda pk: pk.IIo))

    def _normal_divergence(self, builder):
        """g^{jk} N^c_b D_k A_ij^b for a normal-valued A_ij^c =
        builder(pack): [i, c]."""
        m = self.m
        D = self.along(builder, (tangent_down(m), tangent_down(m),
                                 tangent_up(self.n)))     # [k, i, j, b]
        D = np.einsum("cb,kijb->kijc", self.sub.Nab, D)
        return np.einsum("jk,kijc->ic", self.sub.gi_s, D)

    def mu(self):
        """Mixed Schouten-Weyl invariant mu_i^c."""
        def build():
            base = self.P_mixed() - self.grad_H()
            if self.m >= 2:
                base = base + self.DjIIo() / (self.m - 1)
            return np.einsum("cb,ib->ic", self.sub.Nab, base)
        return self._get("mu", build)

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

    def intrinsic_pack(self, order=2):
        key = ("ipack", order)
        return self._get(key, lambda: curvature_pack(self.sub.intrinsic,
                                                     self.q, order=order))

    def intrinsic_conn(self):
        """Intrinsic connection data: Levi-Civita of the induced metric and
        the tractor connection with the induced Schouten tensor p."""
        def build():
            ip = self.intrinsic_pack()
            _, p, _ = self.fialkow()
            return tr.ConnData(self.m, self.sub.g_s, self.sub.gi_s, ip.Gamma,
                               P=p, dg=ip.dg, dGamma=ip.dGamma, dP=None)
        return self._get("iconn", build)

    def along(self, builder, indices):
        """Covariant derivative along Sigma of ``builder(pack)`` (axes
        carrying ``indices``), coupling the ambient connection on ambient
        indices with ``intrinsic_conn`` on intrinsic ones: [i, ...]."""
        # built per call: a SigmaConn holds this context (through the bound
        # method), and the cache must not, or the embedding's pack memo
        # would wait for the cyclic garbage collector
        conn = SigmaConn(self.sub, self.intrinsic_conn)
        return covariant_along(self.geo, self.emb, self.q, builder, conn,
                               indices)

    # -- Fialkow -------------------------------------------------------------
    def fialkow(self):
        """(F_ij, p_ij, jot) with the m-dependent conventions."""
        def build():
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
        return self._get("fialkow", build)

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
        geo, emb = self.geo, self.emb

        def builder(pk):
            return SubTractorContext(geo, emb, pk.q, sub=pk).fialkow()[1]
        covdp = self.along(builder, (tangent_down(self.m),) * 2)
        return covdp - covdp.transpose(1, 0, 2)

    # -- difference tractor ----------------------------------------------
    def difference_tractor(self):
        """S_iJK = 2 F_ij Z^j_[J X_K] (intrinsic tractor indices, down)."""
        def build():
            F, _, _ = self.fialkow()
            m = self.m
            S = np.zeros((m, m + 2, m + 2))
            S[:, 1:m + 1, m + 1] += F
            S[:, m + 1, 1:m + 1] -= F
            return S
        return self._get("S_diff", build)

    # -- tractor second fundamental form -----------------------------------
    def L_explicit(self):
        """L_iJ^C slots: [i, J intrinsic down, C ambient up]."""
        return self._get("L_explicit",
                         lambda: self.L_slots(self.sub.IIo, self.L_xz()))

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

    def nabla_normal_projector(self):
        """nabla_i N^A_B along Sigma: [i, A up, B down]."""
        return self._get("nabla_NAB", lambda: self.along(
            normal_projector_array,
            (tractor_up(self.n), tractor_down(self.n))))

    def Lbar(self):
        """L with an ambient down tractor index: [i, B down, C up]."""
        def build():
            nabN = self.nabla_normal_projector()
            Nact = self.normal_projector() @ pairing_matrix(self.n)
            return -np.einsum("CA,iAB->iBC", Nact, nabN)
        return self._get("Lbar", build)

    def L_dual(self):
        """L via -Pi^B_J N^C_A nabla_i N^A_B: [i, J, C up]."""
        def build():
            return np.einsum("JB,iBC->iJC", self.pull_down(), self.Lbar())
        return self._get("L_dual", build)

    def nabla_normal_form(self):
        """nabla_i N_{A1..Ad} along Sigma (pullback tractor connection)."""
        geo, emb = self.geo, self.emb

        def builder(pk):
            return SubTractorContext(geo, emb, pk.q, sub=pk).normal_form()
        return self._get("nabla_Nform", lambda: self.along(
            builder, (tractor_down(self.n),) * self.d))

    def nabla_star_normal_form(self):
        geo, emb = self.geo, self.emb

        def builder(pk):
            return SubTractorContext(geo, emb, pk.q, sub=pk).star_normal_form()
        return self._get("nabla_starN", lambda: self.along(
            builder, (tractor_down(self.n),) * (self.m + 2)))

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
# spec-level operations
# --------------------------------------------------------------------------

def normal_tractor_projector(geo, emb, q):
    return SubTractorContext(geo, emb, q).normal_projector()


def tractor_second_fundamental_form(geo, emb, q, cross_check=True):
    ctx = SubTractorContext(geo, emb, q)
    L = ctx.L_explicit()
    if not cross_check:
        return L, None
    return L, float(np.abs(L - ctx.L_dual()).max())


def mu_invariant(geo, emb, q, cross_check=False):
    ctx = SubTractorContext(geo, emb, q)
    mu = ctx.mu()
    if cross_check and ctx.m >= 2:
        return mu, float(np.abs(mu - ctx.mu_weyl()).max())
    return mu, None


def fialkow(geo, emb, q, cross_check=False):
    ctx = SubTractorContext(geo, emb, q)
    F, p, jot = ctx.fialkow()
    if cross_check and ctx.m >= 3:
        return F, p, jot, float(np.abs(F - ctx.fialkow_weyl()).max())
    return F, p, jot, None


def difference_tractor(geo, emb, q):
    return SubTractorContext(geo, emb, q).difference_tractor()


def tractor_normal_form(geo, emb, q):
    ctx = SubTractorContext(geo, emb, q)
    return ctx.normal_form(), ctx.star_normal_form()


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

    def pushed(pk):
        return push_up_matrix(pk) @ V_at(pk.q)

    nabW = ctx.along(pushed, (tractor_up(ctx.n),))
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
    Dj = ctx._normal_divergence(omega_builder)
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

    nabH = ctx.along(HA_at, (tractor_up(n),))
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


def classify(geo, emb, sample_points, tol=None) -> ClassificationReport:
    """Umbilic / distinguished / (strongly) conformally circular verdicts."""
    if tol is None:
        tol = 1e-6 if geo.metric.backend.mode == "analytic" else 1e-3
    rows = []
    scale = 1.0
    for s in sample_points:
        ctx = SubTractorContext(geo, emb, s)
        rows.append(_norms_at(ctx))
        scale = max(scale, ctx.scale())

    def small(key):
        return bool(all(r[key] < tol * scale for r in rows))

    verdicts = {
        "umbilic": small("IIo_norm"),
        "distinguished": small("L_norm"),
        "conformally_circular": small("L_norm") and small("fialkow_tracefree_norm"),
        "strongly_conformally_circular": small("L_norm") and small("fialkow_norm"),
    }
    return ClassificationReport(samples=[np.asarray(s, dtype=float)
                                         for s in sample_points],
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
    geo, emb = ctx.geo, ctx.emb

    def builder(pk):
        return SubTractorContext(geo, emb, pk.q, sub=pk).difference_tractor()
    m = ctx.m
    return ctx.along(builder, (tangent_down(m), tractor_down(m),
                               tractor_down(m)))


def _coupled_D_of_L(ctx: SubTractorContext):
    """D_i L_jL^C with the normal tractor connection on the ambient index:
    [i, j, L, C]."""
    geo, emb = ctx.geo, ctx.emb

    def builder(pk):
        return SubTractorContext(geo, emb, pk.q, sub=pk).L_explicit()
    m = ctx.m
    DL = ctx.along(builder, (tangent_down(m), tractor_down(m),
                             tractor_up(ctx.n)))
    # normal tractor connection on the ambient index: project the whole
    # derivative, since the bundle rotates (the intrinsic terms are
    # normal-valued already, as L is)
    Nact = ctx.normal_projector() @ pairing_matrix(ctx.n)
    return np.einsum("CA,ijLA->ijLC", Nact, DL)


def _normal_tractor_curvature(ctx: SubTractorContext):
    """Curvature of the normal tractor connection as action matrices:
    [i, j, C, E] with (Om v)[C] = Om[i,j,C,E] v[E] for up components."""
    geo, emb = ctx.geo, ctx.emb
    n = ctx.n
    seeds = ctx.sub.seeds
    Jamb = pairing_matrix(n)

    def frame_at(y):
        """Tractor conormal frame at y, down [alpha, A] and raised, and the
        pack."""
        pk = submanifold_pack(geo, emb, y, seeds=seeds)
        frame = SubTractorContext(geo, emb, y, sub=pk).tractor_conormals()
        return frame, frame @ middle_block(pk.pack.gi), pk

    def omega_at(y):
        frame, frame_up, pk = frame_at(y)
        dF = central_diff(lambda z: frame_at(z)[1], y, 1e-4)
        Ma = SigmaConn(pk).matrix(tractor_up(n))
        nab = np.moveaxis(dF, -1, 0) + np.einsum("ine,be->ibn", Ma, frame_up)
        return np.einsum("aA,ibA->iab", frame @ Jamb, nab)

    Rfr = frame_curvature(omega_at, ctx.q)
    frame = ctx.tractor_conormals()
    frame_up = frame @ middle_block(ctx.pack.gi)
    return np.einsum("eC,ijef,fE->ijCE", frame_up, Rfr, frame @ Jamb)


def tractor_gcr_residuals(geo, emb, q):
    """Max-norm residuals of the tractor Gauss, Codazzi, Ricci equations."""
    ctx = SubTractorContext(geo, emb, q)
    m, n = ctx.m, ctx.n
    if m < 3:
        raise ValueError("tractor Gauss-Codazzi-Ricci checks need m >= 3")
    sub = ctx.sub
    Jamb, Jint = pairing_matrix(n), pairing_matrix(m)
    Ramb = middle_block(ctx.pack.gi)
    Lamb = middle_block(ctx.pack.g)
    HupS = tractor_metric_matrix(sub.gi_s)
    Q = ctx.pull_down()

    Om_amb = tr.tractor_curvature(geo, sub.x).data
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
