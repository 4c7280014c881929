"""Submanifold tractor calculus.

Builds the normal tractor bundle, the tractor second fundamental form (two
independent evaluations), the Fialkow tensor with its low-dimensional
conventions, the mixed Schouten-Weyl invariant, difference tractor,
mean-curvature tractor predicates, and classification verdicts.  The
paper's equivalent characterisations that only tests read (the
difference-tractor identity, L from (IIo, mu), the M operator, the tractor
normal form and the derivatives of it and of its Hodge dual) are
functions of a context in ``tests/oracles.py``.

A ``SubTractorContext`` is the unit of per-point work: each quantity is
computed once per context (``_cached``), and every per-point residual
takes contexts: the Riemannian ``gauss_codazzi_ricci_residuals``, the
tractor ``tractor_gcr_residuals`` and the conformal
``transformation_residuals``.  A context evaluates each jet at its point
once: the embedding jet at q (``phi_jets``), the metric 2-jet of its
submanifold pack and the metric 3-jet of its order-3 ambient pack
(``ambient_pack3``, built when first read).  The rest comes from these:
``jets_along``, the one ``submanifold.partials_along`` call, which the
Moebius Cotton tensor, both normal curvatures, D S, D L, the
mean-curvature tractor's nabla H^A and the conserved quantity's tractor
conormals (``tractor_conormal_jets``) differentiate by the Leibniz rule;
the intrinsic packs (``intrinsic_pack``); and the one connection along
Sigma, ``along_exact``: the ambient connection on ambient indices,
``intrinsic_conn`` (Christoffel symbols from the partials of g_s,
Schouten tensor replaced by the induced one p) on intrinsic ones.  No
derivative is a stencil.  The slot fills of N^A_B, S and L
are ``_N_fill``, ``_S_fill`` and ``_L_fill``.  The curvature tensors
pulled back to Sigma are contracted one operand at a step
(``_chain_einsum``).

Index bookkeeping: tractor tensors are stored in natural slot order for both
variances.  Contracting an up/down pair goes through the constant pairing J,
the sigma/rho swap (``tractor.pair_flip`` along an axis,
``tensors.pairing_matrix`` as a matrix); contracting two down indices with
the inverse tractor metric uses ``tensors.tractor_metric_matrix(g^-1)``.
(1,1)-tensors are often turned into action matrices on up-components via
``arr @ J``.  The bundle maps between intrinsic and ambient slots are the
context's ``push_up`` (Pi^A_I) and ``pull_down``, and the
intrinsic tractor curvature is ``tractor.tractor_curvature`` of the
intrinsic geometry on the context's order-3 intrinsic pack.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .riemann import GeometrySpec, _christoffel, curvature_pack, pack_from_jets
from .submanifold import (EmbeddingSpec, SigmaConn, SubmanifoldPack,
                          covariant_partial, einsum_jet1, normal_curvature,
                          partials_along, pullback_metric, submanifold_pack)
from .tensors import (middle_block, pairing_matrix, stage, tangent_down,
                      tangent_up, tractor_down, tractor_metric_matrix,
                      tractor_up)
from . import tractor as tr

__all__ = ["SubTractorContext", "ClassificationReport", "classify",
           "mean_curvature_tractor", "gauss_codazzi_ricci_residuals",
           "tractor_gcr_residuals", "transformation_residuals",
           "normal_projector_array"]


def _N_fill(Nab, H, H_low, HH):
    """N^A_B slots [up A, down B, ...] from N^a_b, H^a, H_a and H.H (all
    four with the same trailing axes)."""
    n = Nab.shape[0]
    N = np.zeros((n + 2, n + 2) + Nab.shape[2:])
    N[1:n + 1, 1:n + 1] = Nab
    N[1:n + 1, n + 1] = H
    N[n + 1, 1:n + 1] = H_low
    N[n + 1, n + 1] = HH
    return N


def normal_projector_array(sub: SubmanifoldPack):
    """N^A_B slots: [up A, down B]."""
    H_low = sub.pack.g @ sub.H
    return _N_fill(sub.Nab, sub.H, H_low, float(sub.H @ H_low))


def _normal_projector_partial(J):
    """d_k N^A_B along Sigma, [A, B, k], the slot fill of the partials of
    N^a_b, H and H_low in the jets ``J`` along Sigma."""
    H, H_low = J["H"], J["H_low"]
    return _N_fill(J["Nab"][1], H[1], H_low[1],
                   H[0] @ H_low[1] + H_low[0] @ H[1])


def tractor_conormal_rows(conormals, H):
    """Tractor conormals (0, n_a, n.H) as down slot rows, from the
    Riemannian conormal rows and the mean curvature; at each row of a stack
    if both carry a leading point axis."""
    n = conormals.shape[-1]
    out = np.zeros(conormals.shape[:-1] + (n + 2,))
    out[..., 1:n + 1] = conormals
    # n.H as a (1 x n)(n x 1) product per conormal
    out[..., n + 1] = (conormals[..., None, :]
                       @ H[..., None, :, None])[..., 0, 0]
    return out


def tractor_conormal_jets(conormals, H, gi):
    """Order-1 jets along Sigma of the tractor conormal rows (0, n_a, n.H)
    from those of the conormal rows, H and g^-1 at phi; and the partial
    [C, D, i] of a slot matrix whose middle block is g^-1."""
    n, m = conormals[1].shape[1:]
    dT = np.zeros((len(conormals[1]), n + 2, m))
    dT[:, 1:n + 1] = conormals[1]
    dT[:, n + 1] = einsum_jet1("ab,b->a", conormals, H)[1]
    dM = np.zeros((n + 2, n + 2, m))
    dM[1:n + 1, 1:n + 1] = gi[1]
    return [tractor_conormal_rows(conormals[0], H[0]), dT], dM


def _chain_einsum(spec, *operands):
    """``np.einsum(spec, *operands)`` as two-operand einsums, one operand at
    a step from the left (``_chain_steps``): numpy's single einsum loops
    over every label of every operand at once."""
    steps, final = _chain_steps(spec)
    acc = operands[0]
    for step, operand in zip(steps, operands[1:]):
        acc = np.einsum(step, acc, operand)
    return acc if final is None else np.einsum(final, acc)


@functools.lru_cache(maxsize=None)
def _chain_steps(spec):
    """The two-operand specs of ``_chain_einsum``, each step keeping the
    labels the output or a later operand reads (output labels first, in
    output order), and the spec of a last transpose (None if none)."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    labels, steps = ins[0], []
    for k in range(1, len(ins)):
        later = out + "".join(ins[k + 1:])
        keep = "".join(sorted({c for c in labels + ins[k] if c in later},
                              key=later.index))
        steps.append(f"{labels},{ins[k]}->{keep}")
        labels = keep
    return steps, (None if labels == out else f"{labels}->{out}")


def _S_fill(F):
    """S_iJK = 2 F_ij Z^j_[J X_K] from F [i, j, ...] (any trailing axes
    carried along): [i, J, K, ...]."""
    m = F.shape[0]
    S = np.zeros((m, m + 2, m + 2) + F.shape[2:])
    S[:, 1:m + 1, m + 1] += F
    S[:, m + 1, 1:m + 1] -= F
    return S


def _L_fill(A, xz, HA, Hxz):
    """The L-shaped tractor [i, J, C, ...] from its tangent-normal part
    A_ij^c, its X-Z part xz_i^c and their contractions with H_low, HA_ij
    and Hxz_i (all four with the same trailing axes)."""
    m, n = A.shape[0], A.shape[2]
    L = np.zeros((m, m + 2, n + 2) + A.shape[3:])
    L[:, 1:m + 1, 1:n + 1] = A
    L[:, m + 1, 1:n + 1] = xz
    L[:, 1:m + 1, n + 1] = HA
    L[:, m + 1, n + 1] = Hxz
    return L


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
        """Intrinsic up slots -> ambient up slots (the bundle map Pi^A_I)."""
        sub, m, n = self.sub, self.m, self.n
        M = np.zeros((n + 2, m + 2))
        M[0, 0] = 1.0
        M[1:n + 1, 0] = -sub.H
        M[1:n + 1, 1:m + 1] = sub.dphi
        M[n + 1, 0] = -0.5 * float(sub.H @ sub.pack.g @ sub.H)
        M[n + 1, m + 1] = 1.0
        return M

    @_cached
    def pull_down(self):
        """Contraction matrix for a down ambient tractor index against
        Pi^B_J: the transpose of Pi^B_J between the two pairings."""
        return (pairing_matrix(self.m) @ self.push_up().T
                @ pairing_matrix(self.n))

    @_cached
    def normal_projector(self):
        return normal_projector_array(self.sub)

    # -- jets along Sigma ---------------------------------------------------
    @_cached
    def phi_jets(self):
        """The embedding's jet at q that the context evaluates: order 4 at m
        >= 3, for the order-2 partials and intrinsic pack, else order 3."""
        return self.emb.phi.jets(self.q, 4 if self.m >= 3 else 3)

    @_cached
    def jets_along(self):
        """Jets [value, partial, ...] along Sigma at this point: those of
        ``submanifold.partials_along``, to order 2 on the order-3 ambient
        pack at m >= 3 (D L reads d2 H), else to order 1 on the submanifold
        pack's; and g^-1 at phi and H_low = g H to order 1."""
        sub = self.sub
        J = partials_along(sub, self.phi_jets(), *(
            (2, self.ambient_pack3()) if self.m >= 3 else (1, sub.pack)))
        gi = sub.pack.gi
        J["gi"] = [gi, -np.einsum("ab,bck,cd->adk", gi, J["g"][1], gi)]
        J["H_low"] = einsum_jet1("cb,b->c", J["g"], J["H"])
        return J

    def _P_jet(self):
        """P at phi and its partial along Sigma: the order-3 ambient pack's
        P and its dP pulled back by dphi."""
        pk = self.ambient_pack3()
        return [pk.P, pk.dP @ self.sub.dphi]

    def _candidate_partial(self, s):
        """d_k (P_tt + H.IIo + s g_s) along Sigma, [i, j, k], from the
        order-1 jet of the scalar ``s``, by the Leibniz rule on
        ``jets_along``: the partial of p (m = 2) and, less d p, of F (m >=
        3, s = |H|^2 / 2)."""
        J, e = self.jets_along(), einsum_jet1
        return (e("ai,bj,ab->ij", J["dphi"], J["dphi"], self._P_jet())[1]
                + e("c,ijc->ij", J["H_low"], J["IIo"])[1]
                + e(",ij->ij", s, J["g_s"])[1])

    def along_exact(self, value, partial, indices):
        """Covariant derivative along Sigma, [i, ...], of a quantity from
        its value and ``partial`` (axes carrying ``indices``, the
        derivative axis last): the ambient connection on ambient indices,
        ``intrinsic_conn`` on intrinsic ones.  Built per call, as it holds
        this context and no cached value may (see ``_cached``)."""
        conn = SigmaConn(tr.ConnData.from_pack(self.pack), self.sub.dphi,
                         self.intrinsic_conn)
        return covariant_partial(conn, value, partial, indices)

    @_cached
    def grad_H(self):
        """nabla_i H^a along Sigma (pullback ambient connection): [i, a]."""
        return self.along_exact(self.sub.H, self.jets_along()["H"][1],
                                (tangent_up(self.n),))

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
        return self._normal_divergence(self.along_exact(
            self.sub.IIo, self.jets_along()["IIo"][1],
            self._normal_indices()))

    def _normal_indices(self):
        """The indices of a normal-valued A_ij^c."""
        return (tangent_down(self.m), tangent_down(self.m),
                tangent_up(self.n))

    def _normal_divergence(self, D):
        """g^{jk} N^c_b D_k A_ij^b from the covariant derivative D [k, i, j,
        b] of a normal-valued A_ij^c: [i, c]."""
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
    def ambient_pack3(self):
        """The order-3 curvature pack of the ambient geometry at phi(q):
        dP, dRud and the Cotton tensor, which the Moebius Cotton tensor,
        the tractor normal curvature and the ambient tractor curvature
        read."""
        return curvature_pack(self.geo, self.sub.x, order=3)

    @_cached
    def intrinsic_pack(self, order=2):
        """The order-2 or order-3 curvature pack of the induced metric at
        q, pulled back from ``phi_jets`` and the metric jets of the ambient
        pack of that order; bitwise ``curvature_pack`` of the induced metric
        as a field.  An order-3 pack at m < 3 (no command reads one) reads
        its own embedding 4-jet."""
        pk = self.pack if order == 2 else self.ambient_pack3()
        ph = (self.phi_jets() if order == 2 or self.m >= 3
              else self.emb.phi.jets(self.q, 4))
        g_s = pullback_metric([pk.g, pk.dg, pk.d2g, pk.d3g], ph, order)[1]
        return pack_from_jets(self.sub.intrinsic, self.q, g_s)

    @_cached
    def intrinsic_conn(self):
        """Intrinsic connection data: the Levi-Civita connection of the
        induced metric, its Christoffel symbols from the partials of g_s,
        and the tractor connection with the induced Schouten tensor p."""
        sub = self.sub
        Gamma = _christoffel(sub.gi_s, self.jets_along()["g_s"][1])[0]
        return tr.ConnData(self.m, sub.g_s, sub.gi_s, Gamma,
                           P=self.fialkow()[1])

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
            W_tt = _chain_einsum("abcd,ai,bj,ck,dl->ijkl", self.pack.W4,
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
        """c_ijk = 2 D_[i p_j]k for m = 2 (Moebius flatness diagnostic).

        p = P_tt + H.IIo + (|H|^2/2 - (|IIo|^2 - tr^2 W)/4) g_s, so its
        partial along Sigma is ``_candidate_partial`` of the partial of the
        scalar, the Leibniz rule on ``jets_along`` and on the partial of W
        at phi: dW (from dRud) of the order-3 ambient pack, by the chain
        rule."""
        if self.m != 2:
            raise ValueError("the Moebius Cotton diagnostic is for m = 2")
        sub, J, pk = self.sub, self.jets_along(), self.ambient_pack3()
        e = einsum_jet1
        dphi, g, P = J["dphi"], J["g"], self._P_jet()
        # W = R - (g P - g P - g P + g P) at phi, as in the pack
        gP = [e(spec, g, P)[1] for spec in ("ca,bd->abcd", "cb,ad->abcd",
                                             "da,bc->abcd", "db,ac->abcd")]
        W = [pk.W4, e("ce,abed->abcd", g, [pk.Rud, pk.dRud @ sub.dphi])[1]
             - gP[0] + gP[1] + gP[2] - gP[3]]
        IIo, gi_s = J["IIo"], J["gi_s"]
        # tr^2 W = W_abcd T^ac T^bd with T = dphi g_s^-1 dphi^T
        T = e("ai,ij,bj->ab", dphi, gi_s, dphi)
        s = [0.5 * a - 0.25 * (b - c) for a, b, c in zip(
            e("c,c->", J["H"], J["H_low"]),
            e("ik,jl,cd,ijc,kld->", gi_s, gi_s, g, IIo, IIo),
            e("abcd,ac,bd->", W, T, T))]
        dp = self._candidate_partial(s)
        covdp = self.along_exact(self.fialkow()[1], dp,
                                 (tangent_down(self.m),) * 2)
        return covdp - covdp.transpose(1, 0, 2)

    # -- difference tractor ----------------------------------------------
    @_cached
    def difference_tractor(self):
        """S_iJK = 2 F_ij Z^j_[J X_K] (intrinsic tractor indices, down)."""
        return _S_fill(self.fialkow()[0])

    # -- tractor second fundamental form -----------------------------------
    @_cached
    def L_explicit(self):
        """L_iJ^C slots: [i, J intrinsic down, C ambient up]."""
        return self.L_slots(self.sub.IIo, self.L_xz())

    def L_slots(self, A, xz):
        """The L-shaped tractor with tangent-normal part A_ij^c and X-Z part
        xz_i^c (both normal-valued): [i, J intrinsic down, C ambient up]."""
        H_low = self.pack.g @ self.sub.H
        return _L_fill(A, xz, np.einsum("c,ijc->ij", H_low, A),
                       np.einsum("c,ic->i", H_low, xz))

    @_cached
    def nabla_normal_projector(self):
        """nabla_i N^A_B along Sigma: [i, A up, B down]."""
        return self.along_exact(self.normal_projector(),
                                _normal_projector_partial(self.jets_along()),
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

    def L_norm(self):
        L = self.L_explicit()
        return math.sqrt(max(0.0, float(np.einsum(
            "ij,JK,CD,iJC,jKD->", self.sub.gi_s, middle_block(self.sub.gi_s),
            middle_block(self.pack.g), L, L))))


def mean_curvature_tractor(geo, emb, q, samples=None):
    """H^A = N^A_B I^B of the scale tractor I = (1, 0, -J/n), plus minimal /
    CMC / parallel-H predicates; nabla_i H^A = (nabla_i N) I + N nabla_i I,
    I's partial -dJ/n in its rho slot (the order-3 ambient pack's dJ)."""
    tol = 1e-6
    ctx = SubTractorContext(geo, emb, q)
    n = ctx.n
    Jp = pairing_matrix(n)

    def I_at(pk):
        return tr.make_tractor(n, sigma=1.0, rho=-pk.pack.J / n)

    def HA_at(pk):
        return normal_projector_array(pk) @ (Jp @ I_at(pk))

    I0 = I_at(ctx.sub)
    HA = HA_at(ctx.sub)
    scale = ctx.scale()
    minimal = bool(np.abs(HA).max() < tol * scale)

    NI2 = []
    pts = [ctx.q] if samples is None else samples
    for s in pts:
        pk = submanifold_pack(geo, emb, s)
        NI2.append(float(HA_at(pk) @ tractor_metric_matrix(pk.pack.g)
                         @ I_at(pk)))
    cmc = bool(max(NI2) - min(NI2) < tol * max(1.0, abs(NI2[0])))

    dI = np.zeros((n + 2, ctx.m))
    dI[n + 1] = -(ctx.ambient_pack3().dJ @ ctx.sub.dphi) / n
    nabI = ctx.along_exact(I0, dI, (tractor_up(n),))
    Nact = ctx.normal_projector() @ Jp
    nabH = (np.einsum("iAB,B->iA", ctx.nabla_normal_projector(), Jp @ I0)
            + np.einsum("AB,iB->iA", Nact, nabI))
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
    rows = []
    for i, c in enumerate(contexts):
        with stage(f"sample {i}", q=c.q):
            rows.append(_norms_at(c))
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


def _maxabs(arr):
    return float(np.abs(arr).max()) if arr.size else 0.0


# --------------------------------------------------------------------------
# Riemannian Gauss-Codazzi-Ricci residuals
# --------------------------------------------------------------------------

def gauss_codazzi_ricci_residuals(ctx: SubTractorContext):
    """Max-norm residuals of the Gauss, Codazzi and Ricci equations.

    All curvatures are computed independently: the intrinsic one from the
    context's intrinsic pack (m >= 2; a curve has none), the normal one
    from derivatives of the orthonormal normal frame.  D II is the exact
    partial of II along Sigma with the coupled connection of
    ``along_exact``, whose intrinsic Christoffel symbols are those of
    ``partials``.
    """
    sub, m = ctx.sub, ctx.m
    pack = ctx.pack
    g = pack.g

    # ambient curvature restricted to Sigma
    R_tttt = _chain_einsum("abcd,ai,bj,ck,dl->ijkl", pack.R4, sub.dphi,
                           sub.dphi, sub.dphi, sub.dphi)
    RS = ctx.intrinsic_pack().R4 if m >= 2 else np.zeros((m, m, m, m))
    # R_ijkl = R^S_ijkl + g_cd (II_li^c II_jk^d - II_lj^c II_ik^d)
    gauss_rhs = RS + (np.einsum("cd,lic,jkd->ijkl", g, sub.II, sub.II)
                      - np.einsum("cd,ljc,ikd->ijkl", g, sub.II, sub.II))
    res_gauss = _maxabs(R_tttt - gauss_rhs)

    # Codazzi: Pi Pi Pi R_ab^c_e N^d_c = 2 D_[i II_j]k^d, with the ambient
    # index of D II projected back to the normal bundle
    lhs_cod = _chain_einsum("abce,ai,bj,ek,dc->ijkd", pack.Rud, sub.dphi,
                            sub.dphi, sub.dphi, sub.Nab)
    DII = np.einsum("dc,ijkc->ijkd", sub.Nab, ctx.along_exact(
        sub.II, ctx.jets_along()["II"][1], ctx._normal_indices()))
    rhs_cod = DII - DII.transpose(1, 0, 2, 3)
    res_codazzi = _maxabs(lhs_cod - rhs_cod)

    # Ricci: Pi Pi R_ab^e_f N^c_e N^f_d = Rperp_ij^c_d - 2 g^kl II_k[i^c II_j]ld
    lhs_ric = _chain_einsum("abef,ai,bj,ce,fd->ijcd", pack.Rud, sub.dphi,
                            sub.dphi, sub.Nab, sub.Nab)
    Rperp = _normal_curvature(ctx)
    IIdn = np.einsum("ijc,cd->ijd", sub.II, g)
    cross = np.einsum("kl,kic,jld->ijcd", sub.gi_s, sub.II, IIdn)
    rhs_ric = Rperp - (cross - cross.transpose(1, 0, 2, 3))
    res_ricci = _maxabs(lhs_ric - rhs_ric)
    return res_gauss, res_codazzi, res_ricci


def _bundle_curvature(ctx: SubTractorContext, pack, frames, index):
    """``submanifold.normal_curvature`` at the context of the frame map
    ``frames`` on ``index``, with the connection of the ambient curvature
    pack ``pack()``.  R_ij is antisymmetric in i, j, so a curve's is zero,
    with no evaluation."""
    if ctx.m == 1:
        return np.zeros((1, 1, index.dim, index.dim))
    return normal_curvature(ctx.sub, ctx.jets_along(),
                            tr.ConnData.from_pack(pack()), frames, index)


def _normal_curvature(ctx: SubTractorContext):
    """Rperp_ij^c_d from the Riemannian normal frame (the normals and
    their conormals)."""
    return _bundle_curvature(ctx, lambda: ctx.pack,
                             lambda conormals, normals, H, gi:
                             (normals, conormals), tangent_up(ctx.n))


# --------------------------------------------------------------------------
# tractor Gauss-Codazzi-Ricci residuals (m >= 3)
# --------------------------------------------------------------------------

def intrinsic_tractor_curvature(ctx: SubTractorContext):
    """Curvature of the intrinsic tractor connection: [i, j, K, L] down."""
    m = ctx.m
    if m < 3:
        raise ValueError("intrinsic tractor curvature needs m >= 3")
    return tr.tractor_curvature(ctx.sub.intrinsic, ctx.q,
                                pack=ctx.intrinsic_pack(order=3))


def _intrinsic_D_of_S(ctx: SubTractorContext):
    """D_i S_jKL: [i, j, K, L].  S is linear in F = P_tt + H.IIo + |H|^2
    g_s / 2 - p, so its partial along Sigma is the slot fill of d F: the
    ``_candidate_partial`` of |H|^2 / 2 less d p, the dP of the order-3
    intrinsic pack (the intrinsic tractor curvature's)."""
    m = ctx.m
    J = ctx.jets_along()
    s = [0.5 * a for a in einsum_jet1("c,c->", J["H"], J["H_low"])]
    dF = ctx._candidate_partial(s) - ctx.intrinsic_pack(order=3).dP
    return ctx.along_exact(ctx.difference_tractor(), _S_fill(dF),
                           (tangent_down(m), tractor_down(m),
                            tractor_down(m)))


def _L_xz_partial(ctx: SubTractorContext):
    """d_k L_xz along Sigma, [i, c, k]: d_k N (P_mixed - nabla H) + N
    (d_k P_mixed - d_k nabla H).  nabla_i H^a = d_i H^a + A_i^a_b H^b, with
    A_i the ambient Levi-Civita connection pulled back by dphi, so d_k
    nabla_i H reads the second partial of H (``jets_along``, of order 2 at
    m >= 3) and dGamma."""
    sub, J, e = ctx.sub, ctx.jets_along(), einsum_jet1
    conn, ix = tr.ConnData.from_pack(ctx.pack), tangent_up(ctx.n)
    A = e("ane,ai->ine", [conn.matrix(ix), np.einsum(
        "aneb,bk->anek", conn.dmatrix(ix), sub.dphi)], J["dphi"])
    dgrad_H = J["H"][2].transpose(1, 0, 2) + e("ine,e->in", A, J["H"])[1]
    dP_mixed = e("bi,bc,ca->ia", J["dphi"], ctx._P_jet(), J["gi"])[1]
    return e("cb,ib->ic", J["Nab"],
             [ctx.P_mixed() - ctx.grad_H(), dP_mixed - dgrad_H])[1]


def _coupled_D_of_L(ctx: SubTractorContext):
    """D_i L_jL^C with the normal tractor connection on the ambient index:
    [i, j, L, C].  L is the slot fill of IIo and L_xz with their H_low
    contractions, so its partial along Sigma is the slot fill of theirs
    (``jets_along``, ``_L_xz_partial``)."""
    m, J, e = ctx.m, ctx.jets_along(), einsum_jet1
    xz = [ctx.L_xz(), _L_xz_partial(ctx)]
    dL = _L_fill(J["IIo"][1], xz[1], e("c,ijc->ij", J["H_low"], J["IIo"])[1],
                 e("c,ic->i", J["H_low"], xz)[1])
    DL = ctx.along_exact(ctx.L_explicit(), dL, (tangent_down(m),
                                                tractor_down(m),
                                                tractor_up(ctx.n)))
    # normal tractor connection on the ambient index: project the whole
    # derivative, since the bundle rotates (the intrinsic terms are
    # normal-valued already, as L is)
    Nact = ctx.normal_projector() @ pairing_matrix(ctx.n)
    return np.einsum("CA,ijLA->ijLC", Nact, DL)


def _normal_tractor_curvature(ctx: SubTractorContext):
    """Curvature of the normal tractor connection as action matrices:
    [i, j, C, E] with (Om v)[C] = Om[i,j,C,E] v[E] for up components, from
    the tractor conormal frame (0, n_a, n.H), which reads H, and the
    tractor connection of the order-3 ambient pack (its dmatrix reads
    dP)."""
    n = ctx.n
    Jamb = [pairing_matrix(n), None]

    def frames(conormals, normals, H, gi):
        """The raised tractor conormal rows and their J-duals."""
        T, dM = tractor_conormal_jets(conormals, H, gi)
        return (einsum_jet1("aC,CD->aD", T, [middle_block(gi[0]), dM]),
                einsum_jet1("aC,CD->aD", T, Jamb))
    return _bundle_curvature(ctx, ctx.ambient_pack3, frames, tractor_up(n))


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

    Om_amb = tr.tractor_curvature(ctx.geo, sub.x, pack=ctx.ambient_pack3())
    Om_tt = _chain_einsum("abCD,ai,bj->ijCD", Om_amb, sub.dphi, sub.dphi)

    # --- Gauss ---
    Om_KL = _chain_einsum("ijCD,KC,LD->ijKL", Om_tt, Q, Q)
    Om_S = intrinsic_tractor_curvature(ctx)
    S = ctx.difference_tractor()
    DS = _intrinsic_D_of_S(ctx)
    SS = _chain_einsum("MN,iKM,jNL->ijKL", HupS, S, S)
    L = ctx.L_explicit()
    L_low = np.einsum("CD,iJD->iJC", Lamb, L)
    LL = np.einsum("iLC,jKC->ijKL", L, np.einsum("CD,jKD->jKC", Jamb, L_low))
    rhs = (Om_S + (DS - DS.transpose(1, 0, 2, 3))
           + (SS - SS.transpose(1, 0, 2, 3))
           + (LL - LL.transpose(1, 0, 2, 3)))
    res_gauss = float(np.abs(Om_KL - rhs).max())

    # --- Codazzi ---
    Nact = ctx.normal_projector() @ Jamb
    Om_act = _chain_einsum("CE,ijEF,FD->ijCD", Ramb, Om_tt, Jamb)
    lhs_act = _chain_einsum("CA,ijAD,DK->ijKC", Nact, Om_act, ctx.push_up())
    lhs_cod = np.einsum("ijKC,KL->ijLC", lhs_act, Jint)
    DL = _coupled_D_of_L(ctx)
    LS = np.einsum("iKC,jKL->ijLC", L, np.einsum("KM,jML->jKL", HupS, S))
    rhs_cod = ((DL - DL.transpose(1, 0, 2, 3))
               + (LS - LS.transpose(1, 0, 2, 3)))
    res_cod = float(np.abs(lhs_cod - rhs_cod).max())

    # --- Ricci ---
    lhs_ric = _chain_einsum("CA,ijAB,BD->ijCD", Nact, Om_act, Nact)
    OmN = _normal_tractor_curvature(ctx)
    LLn = _chain_einsum("KL,iKC,jLE->ijCE", HupS, L,
                        np.einsum("CD,jLD->jLC", Jamb, L_low))
    rhs_ric = OmN - (LLn - LLn.transpose(1, 0, 2, 3))
    res_ric = float(np.abs(lhs_ric - rhs_ric).max())
    return res_gauss, res_cod, res_ric


# --------------------------------------------------------------------------
# conformal transformation laws
# --------------------------------------------------------------------------

def transformation_residuals(ctx: SubTractorContext, ctx2: SubTractorContext,
                             omega, upsilon):
    """Max-norm residuals of the transformation laws of the Schouten
    tensor, II, H and IIo and of the tractor triple, between ``ctx`` and
    ``ctx2``, the context at the same point in the geometry rescaled by
    ``omega`` (metric Omega^2 g; ``upsilon`` is Upsilon_a = Omega^-1 d_a
    Omega, as ``riemann.rescale`` returns them).

    II has weight 0 so its trivialised components transform directly; the
    weighted mean curvature has weight -2, so the hatted trivialisation
    carries a factor Omega^-2.  The tractor triple is checked on the scale
    tractor of a fixed density (components sigma = 1), whose rescaled form
    is the Thomas operator on Omega in the rescaled geometry.
    """
    sub, sub2 = ctx.sub, ctx2.sub
    pk, pkh, x, n = ctx.pack, ctx2.pack, sub.x, ctx.n
    ups = upsilon(x)
    ups_up = pk.gi @ ups
    oj = omega.jets(x, 2)
    w = float(omega.value(x))

    # P^ = P - nabla Upsilon + Upsilon Upsilon - |Upsilon|^2 g / 2
    dU = oj[2] / oj[0] - np.multiply.outer(oj[1], oj[1]) / oj[0] ** 2
    covU = dU - np.einsum("eab,e->ab", pk.Gamma, ups)
    pred = (pk.P - covU + np.multiply.outer(ups, ups)
            - 0.5 * float(ups @ ups_up) * pk.g)

    Nups = sub.Nab @ ups_up
    II_pred = sub.II - np.einsum("ij,c->ijc", sub.g_s, Nups)
    H_pred = w ** (-2) * (sub.H - Nups)

    I_g = tr.make_tractor(n, sigma=1.0, rho=-pk.J / n)
    I_h = tr.thomas_D(ctx2.geo, omega, (), 1, x, pack=pkh) / n
    M = tr.rescale_triple_matrix(pk, ups)
    predI = tr.rescale_component_weights(
        w, tr.slot_weights(n, "down")) * (M @ I_g)
    return {"schouten_trans": _maxabs(pkh.P - pred),
            "II_transformation": _maxabs(sub2.II - II_pred),
            "H_transformation": _maxabs(sub2.H - H_pred),
            "IIo_invariance": _maxabs(sub2.IIo - sub.IIo),
            "tractor_triple_trans": _maxabs(I_h - predI)}
