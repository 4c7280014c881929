"""Conformal Killing-Yano forms, their tractor splitting, conserved
quantities along distinguished submanifolds, and zero-locus scanning.

Every derivative here is exact, with no stencil.  The BGG splitting takes
the form's derivatives from the covariant jets of one ``_cov_jets`` call,
the divergence of the middle part from nabla nabla k; its first jet
[K, dK] (``_split_components`` at order 1) is the Leibniz rule over those
inputs, from k's covariant jets one order higher and an order-3 pack.
``bgg_split``'s normality is the tractor derivative of that jet, and
``conserved_quantity`` differentiates K . N along the submanifold from it
and the tractor conormals' jets.  The scan's Gauss-Newton reads the chart
Jacobian of (k, div k) from the order-2 jets under the metric's
Levi-Civita connection alone, with no curvature pack, and refines its
seeds in lockstep, one batched evaluation of all their trial points per
round.  L on the found locus is measured on the locus's cubic Taylor
polynomial (a ``geolib.PolynomialField``), whose coefficients the
implicit function theorem gives from the exact 3-jet of k: L reads the
exact partial of H along the locus (``SubTractorContext.grad_H``)."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .geolib import PolynomialField
from .riemann import curvature_pack, metric_connection
from .submanifold import EmbeddingSpec, _conormal_jets, einsum_jet1
from .subtractor import SubTractorContext, tractor_conormal_jets
from .tensors import (NumericalError, alt_array, on_axes, pairing_matrix,
                      set_stage, stage, sym_array, tangent_down, tractor_down,
                      tractor_metric_matrix)
from . import tractor as tr

__all__ = ["SplitTractor", "ky_residual", "bgg_split", "conserved_quantity",
           "zero_locus_scan", "ScanReport"]

# a singular value counts towards a Jacobian's rank when it is at least the
# largest one over RANK_GAP
RANK_GAP = 1e3
# a locus seed's Gauss-Newton refinement stops below this residual norm,
# and a scan reports at most MAX_POINTS locus points
REFINE_TOL = 1e-10
MAX_POINTS = 40


def _cov_jets(geo, kspec, x, order, pack=None):
    """Curvature pack (``pack`` if given, else of order 2, or 3 for a third
    covariant derivative), partial-derivative jets and covariant derivative
    arrays of the (trivialised) form components."""
    pack = pack if pack is not None else curvature_pack(geo, x, max(order, 2))
    return (pack,) + _form_jets(kspec, tr.ConnData.from_pack(pack), x, order)


def _lc_jets(geo, kspec, x, order):
    """Levi-Civita ``ConnData`` from the metric's ``order``-jet, with no
    curvature pack, and the form's jets and covariant derivatives under it."""
    g, gi, Gamma, dGamma = metric_connection(geo, x, order)
    conn = tr.ConnData(geo.n, g, gi, Gamma, dGamma=dGamma)
    return (conn,) + _form_jets(kspec, conn, x, order)


def _form_jets(kspec, conn, x, order):
    """Partial-derivative jets and covariant derivative arrays of the form
    components under the connection ``conn``."""
    jets = kspec.field.jets(x, order)
    idxs = tuple(tangent_down(conn.n) for _ in range(kspec.degree - 1))
    covs = tr.covariant_jet(conn, jets, idxs, order=order) if order >= 1 else []
    return jets, covs


def _trace_embed(g, lam):
    """g_{a1 [a2} lambda_{a3..]}: the pure-trace component of grad k."""
    p = lam.ndim + 1
    core = np.multiply.outer(g, lam)  # [a1, a2, a3..]
    return alt_array(core, axes=tuple(range(1, p + 1)))


def _ky_parts(T, g, gi):
    """(skew, middle, trace) projections of T[a1, a2..ad], an array with
    the symmetries of nabla_{a1} k_{a2..ad}: phi = alt T, lam = tr T / c and
    M = T - phi - g_{a1[a2} lam_{a3..]}.  The projections are g-linear.
    With p = d - 1, g^{a1 a2} g_{a1[a2} lam_{a3..]} = (n - p + 1)/p lam,
    which fixes c."""
    phi = alt_array(T)
    p = T.ndim - 1
    lam = np.einsum("ab,ab...->...", gi, T) * p / (len(g) - p + 1)
    return phi, T - phi - _trace_embed(g, lam), lam


def ky_decompose(geo, kspec, x):
    """(skew, middle, trace) parts of nabla k at x."""
    if kspec.degree == 1:
        # almost-Einstein operator: TF(nabla nabla sigma + P sigma)
        pack, jets, covs = _cov_jets(geo, kspec, x, 2)
        hess = covs[1]  # [b, a] second covariant derivative
        E = sym_array(hess) + pack.P * float(jets[0])
        TF = E - np.einsum("ab,cd,cd->ab", pack.g, pack.gi, E) / geo.n
        return None, TF, None
    conn, _, covs = _lc_jets(geo, kspec, x, 1)
    return _ky_parts(np.moveaxis(covs[0], -1, 0), conn.g, conn.gi)


def ky_residual(geo, kspec, x):
    """Norm of the middle (trace-free mixed-symmetry) part of nabla k."""
    _, M, _ = ky_decompose(geo, kspec, x)
    return float(np.abs(M).max())


@dataclass
class SplitTractor:
    K: np.ndarray
    degree: int
    normality_residual: float
    K2: float
    causal: str
    simplicity_residual: float
    simple: bool


def _split_components(geo, kspec, x, pack=None, order=0):
    """Tractor components K of the BGG splitting at x, or with ``order`` 1
    their exact first jet [K, dK], the partial axis last; ``pack`` is a
    curvature pack at x of order 2 + ``order`` if the caller holds one.

    K is a slot fill of k's covariant jets to order 2 and of g^-1, P and J,
    so dK is the order-1 Leibniz rule over those inputs (``einsum_jet1``,
    ``_linear_jet``): the partial of a covariant jet is the next one less
    its connection terms (``_partial``), and the pack's dg, dP and dJ give
    the rest.  At order 0 every partial is None."""
    n = geo.n
    d = kspec.degree
    pack, jets, covs = _cov_jets(geo, kspec, x, 2 + order, pack)
    e = einsum_jet1

    def jet(j):
        """[covs[j], its partial]."""
        return [covs[j], _partial(pack, covs[j + 1], covs[j]) if order
                else None]
    k = [jets[0], jets[1] if order else None]
    gi = [pack.gi, -np.einsum("ce,efa,fd->cda", pack.gi, pack.dg, pack.gi)
          if order else None]
    if d == 1:
        rho = _linear_jet(lambda lap, Jk: -(lap + Jk) / n,
                          e("ba,ab->", gi, jet(1)),
                          e(",->", [pack.J, pack.dJ], k))
        K = _linear_jet(lambda s, mu, r: tr.make_tractor(
            n, sigma=float(s), mu=mu, rho=float(r)), k, jet(0), rho)
        return K if order else K[0]
    grad = _linear_jet(lambda c: np.moveaxis(c, -1, 0), jet(0))  # [a1, a2..]
    div = e("ab,ab...->...", gi, grad)   # nabla^c k_{c a3..}
    Pmix = [pack.P @ pack.gi, e("ab,bc->ac", [pack.P, pack.dP], gi)[1]
            if order else None]
    # X-slot: (1/(n(d-1))) nabla^b M_{b a2..} - (1/(n-d+2)) nabla_[a2 div_{a3..]}
    #         - P_[a2^b k_{b a3..]}; covs[1] axes: [form a2'..ad', inner c,
    # outer b], so nabla_b nabla^c k_{c a3..} contracts the inner index
    # with the first form index.  The middle projection is g-linear and g
    # is parallel, so nabla of the divergence of the middle part M is the
    # divergence of the middle part of nabla nabla nabla k (covs[2]).
    divM = _div_middle_part(pack, covs[1])
    beta = _linear_jet(
        lambda divM, gdiv, Pk: (divM / (n * (d - 1)) - alt_array(gdiv)
                                / (n - d + 2) - alt_array(Pk)),
        [divM, _partial(pack, np.stack([_div_middle_part(
            pack, covs[2][..., c]) for c in range(n)], -1), divM)
         if order else None],
        e("ce,e...cb->b...", gi, jet(1)), e("ab,b...->a...", Pmix, k))
    K = _linear_jet(
        lambda k0, grad, div, beta: (
            tr.form_Y(k0, n) + tr.embed_middle(alt_array(grad), n) / d
            + (d - 1) / (n - d + 2) * tr.form_W(div, n) - tr.form_X(beta, n)),
        k, grad, div, beta)
    return K if order else K[0]


def _linear_jet(f, *jets):
    """Order-1 jet of ``f(*values)``, ``f`` linear in all its arguments (a
    sum or a slot fill): ``f`` of the values, and of the partials one
    derivative slice at a time (None where the first argument's is)."""
    value = f(*(j[0] for j in jets))
    if jets[0][1] is None:
        return [value, None]
    return [value, np.stack([f(*(j[1][..., i] for j in jets)) for i in
                             range(jets[0][1].shape[-1])], axis=-1)]


def _partial(pack, nab, T):
    """The partial of T, every index tangent-down, from its covariant
    derivative ``nab`` (derivative axis last) less the Levi-Civita terms."""
    M = tr.ConnData.from_pack(pack).matrix(tangent_down(pack.n))
    for ax in range(T.ndim):
        nab = nab - tr._apply_axis(M, T, ax)
    return nab


def _div_middle_part(pack, nab2):
    """nabla^b M_{b a2..} for the middle part M of nabla k (vanishes on
    solutions; kept for generality).  The middle projection is g-linear and
    g is parallel, so nabla_c M is the projection of nabla_c nabla k, read
    from ``nab2`` (axes [form a2'..ad', inner b, outer c])."""
    dM = np.array([_ky_parts(np.moveaxis(nab2[..., c], -1, 0),
                             pack.g, pack.gi)[1] for c in range(pack.n)])
    return np.einsum("cb,cb...->...", pack.gi, dM)


def bgg_split(geo, kspec, x):
    """BGG splitting with normality, causal type and simplicity report.
    The normality is the tractor covariant derivative of K from its exact
    first jet, on one order-3 curvature pack at x."""
    n = geo.n
    d = kspec.degree
    x = np.asarray(x, dtype=float)
    pack = curvature_pack(geo, x, order=3)
    K, dK = _split_components(geo, kspec, x, pack, order=1)
    nab = tr.covariant_jet(tr.ConnData.from_pack(pack), [K, dK],
                           (tractor_down(n),) * K.ndim)[0]
    normality = float(np.abs(nab).max())

    # causal type: K . K through the inverse tractor metric
    K2 = float(np.tensordot(on_axes(tractor_metric_matrix(pack.gi), K,
                                    range(d)), K, d))
    scale2 = float(np.abs(K).max()) ** 2
    if K2 < -1e-10 * max(scale2, 1e-30):
        causal = "timelike"
    elif K2 > 1e-10 * max(scale2, 1e-30):
        causal = "spacelike"
    else:
        causal = "null"

    # simplicity (Pluecker): (v . K) wedge K over a tractor basis
    simp = 0.0
    if d >= 2:
        J = pairing_matrix(n)
        for I in range(n + 2):
            v = J[I]  # pairing of the basis up-vector with the first index
            contr = np.tensordot(v, K, axes=([0], [0]))
            w = tr.wedge(contr, K)
            simp = max(simp, float(np.abs(w).max()))
    tol = 1e-8 if geo.metric.backend.mode == "analytic" else 1e-4
    simple = bool(simp <= tol * max(scale2, 1e-30))
    return SplitTractor(K=K, degree=d, normality_residual=normality, K2=K2,
                        causal=causal, simplicity_residual=simp,
                        simple=simple)


# --------------------------------------------------------------------------
# conserved quantities
# --------------------------------------------------------------------------

def conserved_quantity(geo, emb, kspec, q):
    """K . N along the submanifold: value, tangential-derivative residual,
    the explicit slot evaluation, and the Weyl obstruction prediction.

    K . N = d! K(n_1, .., n_d) on the tractor conormals n raised by the
    inverse tractor metric; its partial along Sigma is the Leibniz rule on
    K's first jet (on the context's order-3 ambient pack, pulled back by
    dphi) and the conormals' jets along Sigma."""
    ctx = SubTractorContext(geo, emb, q)
    d = ctx.d
    if kspec.degree != d:
        raise ValueError(f"form degree {kspec.degree} != codimension {d}")
    sub, J = ctx.sub, ctx.jets_along()
    K, dK = _split_components(geo, kspec, sub.x, ctx.ambient_pack3(), order=1)
    T, dH = tractor_conormal_jets(_conormal_jets(sub, J), J["H"], J["gi"])
    up = einsum_jet1("aC,CD->aD", T, [tractor_metric_matrix(sub.pack.gi), dH])
    ix = "ABCDEFGH"[:d]
    KN = einsum_jet1(f"{ix},{','.join(ix)}->", [K, dK @ sub.dphi],
                     *([up[0][a], up[1][a]] for a in range(d)))
    value, dv = (math.factorial(d) * v for v in KN)
    resid = float(np.abs(dv).max())

    # explicit slot evaluation
    pack, jets, covs = _cov_jets(geo, kspec, sub.x, 1, ctx.pack)
    k0 = jets[0]
    gi = pack.gi
    Nup = on_axes(gi, functools.reduce(tr.wedge, sub.conormals), range(d))
    H_low = pack.g @ sub.H
    if d == 1:
        explicit = float(k0) * float(Nup @ H_low) \
            + float(np.tensordot(covs[0], Nup, axes=([0], [0])))
    else:
        grad = np.moveaxis(covs[0], -1, 0)
        # k_{a1..a_{d-1}} N^{c a1..a_{d-1}} H_c
        tmp = np.tensordot(Nup, np.asarray(k0),
                           axes=(list(range(1, d)), list(range(d - 1))))
        kNH = float(tmp @ H_low)
        explicit = kNH + float(np.tensordot(grad, Nup,
                                            axes=(range(d), range(d)))) / d

    pred = None
    if d >= 2:
        W = pack.W4
        Wue = np.einsum("abcf,fe->abce", W, gi)
        Wk = np.einsum("abce,e...->abc...", Wue, k0)
        Wk_t = np.einsum("abc...,ci->abi...", Wk, sub.dphi)
        pred = -0.5 * np.einsum("abi...,ab...->i", Wk_t, Nup)
    return {"value": value, "derivative_residual": resid,
            "explicit": explicit,
            "derivative": dv,
            "obstruction": pred}


# --------------------------------------------------------------------------
# zero locus scan
# --------------------------------------------------------------------------

@dataclass
class ScanReport:
    status: str
    points: list = dc_field(default_factory=list)
    codim: int | None = None
    L_residuals: list = dc_field(default_factory=list)
    causal: str = ""
    K2: float = 0.0
    simple: bool = True
    normality: float = 0.0
    notes: str = ""

    def to_dict(self):
        return {"status": self.status,
                "points": [list(map(float, p)) for p in self.points],
                "codimension": self.codim,
                "L_residuals": [float(r) for r in self.L_residuals],
                "causal_type": self.causal,
                "K_norm2": float(self.K2),
                "simple": bool(self.simple),
                "normality_residual": float(self.normality),
                "notes": self.notes}


def _k_norm2_grid(geo, kspec, grid_axes):
    """|k|^2 on the grid of ``grid_axes`` (``ij`` indexing), one ``values``
    call per slab of the first axis.  The slab's points are one reused
    (grid^(n-1), n) buffer whose column 0 takes each value of the first
    axis in turn, so the grid holds no coordinates: |k|^2 and one slab."""
    norm2 = np.empty(tuple(len(a) for a in grid_axes))
    slab = np.empty((norm2[0].size, len(grid_axes)))
    for d, m in enumerate(np.meshgrid(*grid_axes[1:], indexing="ij"), 1):
        slab[:, d] = m.ravel()
    for i, x0 in enumerate(grid_axes[0]):
        slab[:, 0] = x0
        v = kspec.field.values(slab)
        norm2[i] = np.sum(v.reshape(len(v), -1) ** 2, axis=1).reshape(
            norm2.shape[1:])
    return norm2


def _component_map(geo, kspec, x, jac=False):
    """Stacked components of (k, div k) at x (Remark: Z(k) = Z(K)); with
    ``jac`` also their chart Jacobian, rows matching the components.  For
    a stack of points x of shape (p, n) both carry a leading point axis,
    and row i is bitwise the map at x[i].

    d_c div = g^{ab} nabla_c nabla_a k_{b..} minus the Levi-Civita term on
    the free indices of div, since g is parallel.  Only the Levi-Civita
    connection is read, so no curvature pack is built."""
    n = geo.n
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    z = "z" * len(lead)
    conn, jets, covs = _lc_jets(geo, kspec, x, 2 if jac else 1)
    gi = conn.gi
    comps = [np.reshape(jets[0], lead + (-1,))]
    rows = [np.reshape(jets[1], lead + (-1, n))] if jac else []
    if kspec.degree >= 2:
        grad = np.moveaxis(covs[0], -1, len(z))
        div = np.einsum(f"{z}ab,{z}ab...->{z}...", gi, grad)
        comps.append(np.reshape(div, lead + (-1,)))
        if jac:
            # covs[1] axes: [form b, a3.., inner a, outer c]
            ddiv = np.einsum(f"{z}ab,{z}b...ac->{z}...c", gi, covs[1])
            M = conn.matrix(tangent_down(n))
            for ax in range(div.ndim - len(z)):
                ddiv = ddiv - tr._apply_axis(M, div, ax)
            rows.append(np.reshape(ddiv, lead + (-1, n)))
    F = np.concatenate(comps, axis=-1)
    return (F, np.concatenate(rows, axis=-2)) if jac else F


def _component_maps(geo, kspec, X):
    """[(F, J, error)] of ``_component_map`` at each row of X, from one
    batched call.  Where that call fails or gives a non-finite row, every
    row is evaluated alone, and a row that raises a numerical error keeps
    the exception (named with its point) in place of F and J."""
    try:
        F, J = _component_map(geo, kspec, X, jac=True)
        if np.isfinite(F).all() and np.isfinite(J).all():
            return [(F[i].copy(), J[i].copy(), None) for i in range(len(X))]
    except (NumericalError, np.linalg.LinAlgError):
        pass
    out = []
    for x in X:
        try:
            out.append(_component_map(geo, kspec, x, jac=True) + (None,))
        except (NumericalError, np.linalg.LinAlgError) as exc:
            out.append((None, None, exc))
    return out


def _gauss_newton(geo, kspec, seeds, refine_tol, first=0):
    """Damped Gauss-Newton on the stacked components from each row of
    ``seeds``, all seeds in lockstep: a round evaluates the trial point of
    every unfinished seed in one batched ``_component_maps`` call.  Each
    seed keeps its own iteration count (at most 60), step and damping; per
    seed this is the sequential iteration to the bit (a step halves until
    the residual norm drops, and fails below 1e-6).  Returns per seed (x, F,
    ok, error), ``error`` the numerical exception raised at one of its
    points, with the stage that names it."""
    x = [np.array(s, dtype=float) for s in seeds]
    F, Jm, err = map(list, zip(*_component_maps(geo, kspec, np.array(x))))
    for i, e in enumerate(err):
        if e is not None:
            set_stage(e, f"scan seed refinement {first + i}", x=x[i])
    it = [0] * len(x)
    ok = [True] * len(x)
    lam = [None] * len(x)     # None: at the start of an iteration
    step = [None] * len(x)
    base = [0.0] * len(x)
    live = [i for i in range(len(x)) if err[i] is None]
    while live:
        trial = []
        for i in live:
            if lam[i] is None:
                if it[i] == 60 or np.linalg.norm(F[i]) < refine_tol:
                    continue
                step[i] = np.linalg.lstsq(Jm[i], -F[i], rcond=None)[0]
                lam[i] = 1.0
                base[i] = np.linalg.norm(F[i])
            trial.append(i)
        if not trial:
            break
        pts = [x[i] + lam[i] * step[i] for i in trial]
        live = []
        for i, xn, (Fn, Jn, e) in zip(
                trial, pts, _component_maps(geo, kspec, np.array(pts))):
            if e is not None:
                err[i] = set_stage(e, f"scan seed refinement {first + i}",
                                   x=xn)
            elif np.linalg.norm(Fn) < base[i]:
                x[i], F[i], Jm[i] = xn, Fn, Jn
                it[i] += 1
                lam[i] = None
                live.append(i)
            else:
                lam[i] /= 2
                if lam[i] > 1e-6:
                    live.append(i)
                else:
                    ok[i] = False
    return list(zip(x, F, ok, err))


def _refine_seeds(geo, kspec, seeds, region, spacing, refine_tol,
                  max_points):
    """Locus points from the seeds: refined in lockstep, ``4 * max_points``
    at a time, then walked in order.  A converged seed inside the region
    (widened by 0.5) adds its point unless one already found is within 0.3
    grid spacings; the walk stops at ``max_points``, and raises the error
    of a seed whose refinement failed numerically when it reaches it."""
    chunk = 4 * max_points
    found = []
    # the found points as rows, for one distance test per seed
    rows = np.empty((max_points, len(region)))
    for c0 in range(0, len(seeds), chunk):
        refined = _gauss_newton(geo, kspec, seeds[c0:c0 + chunk],
                                refine_tol, first=c0)
        for x, F, ok, error in refined:
            if error is not None:
                raise error
            if ok and np.linalg.norm(F) < 1e-8 and \
                    all(lo - 0.5 <= xi <= hi + 0.5
                        for xi, (lo, hi) in zip(x, region)):
                near = np.linalg.norm(rows[:len(found)] - x, axis=1)
                if not (near < 0.3 * spacing).any():
                    rows[len(found)] = x
                    found.append(x)
            if len(found) >= max_points:
                return found
    return found


def zero_locus_scan(geo, kspec, region, grid=21):
    """Grid scan for the zero locus of k, refined by damped Gauss-Newton.

    ``region`` is a list of (lo, hi) per coordinate.  Timelike split
    tractors short-circuit to an empty locus with certificate K.K < 0.
    The sampled seeds are refined in lockstep and walked in order
    (``_refine_seeds``), up to ``MAX_POINTS`` locus points.
    """
    n = geo.n
    center = np.array([(lo + hi) / 2 for lo, hi in region])
    with stage("scan splitting tractor", x=center):
        split = bgg_split(geo, kspec, center)
    # the splitting tractor's report, common to every outcome
    tractor = dict(causal=split.causal, K2=split.K2, simple=split.simple,
                   normality=split.normality_residual)
    if split.causal == "timelike":
        return ScanReport(status="empty", **tractor,
                          notes="timelike splitting tractor certifies an "
                                "empty zero locus")

    axes = [np.linspace(lo, hi, grid) for lo, hi in region]
    with stage("scan grid"):
        norm2 = _k_norm2_grid(geo, kspec, axes)
    spacing = max((hi - lo) / (grid - 1) for lo, hi in region)
    thresh = (2.0 * spacing) ** 2
    cand_idx = np.argwhere(norm2 < thresh * max(1.0, np.median(norm2)))
    if len(cand_idx) == 0:
        return ScanReport(status="empty", **tractor)

    seeds = [np.array([ax[i] for ax, i in zip(axes, idx)]) for idx in
             cand_idx[:: max(1, len(cand_idx) // (4 * MAX_POINTS))]]
    found = _refine_seeds(geo, kspec, seeds, region, spacing, REFINE_TOL,
                          MAX_POINTS)
    if not found:
        return ScanReport(status="empty", **tractor)

    # codimension from the rank of the component-map Jacobian
    with stage("scan locus point 0", x=found[0]):
        _, Jm = _component_map(geo, kspec, found[0], jac=True)
    sv = np.linalg.svd(Jm, compute_uv=False)
    rank = 1
    for k in range(1, len(sv)):
        if sv[0] <= 0 or sv[k] < sv[0] / RANK_GAP:
            break
        rank += 1
    codim = int(rank)

    L_res, notes = [], ""
    if 1 <= codim <= n - 1:
        L_res, notes = _locus_L_residuals(geo, kspec, found[:8], codim)
    status = "locus" if codim < n else "isolated"
    return ScanReport(status=status, points=found, codim=codim,
                      L_residuals=L_res, notes=notes, **tractor)


def _locus_L_residuals(geo, kspec, points, codim):
    """|L| of the locus at each of ``points`` through its Taylor polynomial,
    and a note naming the points where the polynomial does not exist."""
    L_res = []
    for k, x0 in enumerate(points):
        with stage(f"scan locus point {k}", x=x0):
            emb = _locus_embedding(geo, kspec, x0, codim)
            if emb is not None:
                ctx = SubTractorContext(geo, emb, np.zeros(geo.n - codim))
                L_res.append(ctx.L_norm())
    if len(L_res) == len(points):
        return L_res, ""
    return L_res, (f"no L residual at {len(points) - len(L_res)} of "
                   f"{len(points)} locus points: the Jacobian of k has rank "
                   f"below the codimension {codim} there")


def _locus_embedding(geo, kspec, x0, codim):
    """EmbeddingSpec of the zero locus near x0 as its cubic Taylor
    polynomial, or None where the form's components alone do not cut the
    locus out (rank of their Jacobian below ``codim``, by the scan's rank
    test against the largest singular value of the (k, div k) Jacobian).

    x0 is first polished onto the locus, to round-off, by Newton along the
    normal directions N, the complement of the null space T of the (k, div k)
    Jacobian.  ``codim`` combinations G of the components of k, taken
    through the left singular vectors of their Jacobian, carry the rank;
    their exact 3-jet gives the locus x0 + X(y), G(x0 + X(y)) = 0, by the
    implicit function theorem: with A = G1 N, X1 = T + N z1, X2 = N z2 and
    X3 = N z3, where
      A z1 = -G1 T,
      A z2_ij = -G2(X1_i, X1_j),
      A z3_ijk = -G3(X1_i, X1_j, X1_k) - G2(X2_ij, X1_k) - G2(X2_ik, X1_j)
                 - G2(X2_jk, X1_i)
    (Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13)."""
    n = geo.n
    x = np.asarray(x0, dtype=float)
    F, Jm = _component_map(geo, kspec, x, jac=True)
    Vt = np.linalg.svd(Jm)[2]
    T, N = Vt[codim:].T, Vt[:codim].T
    # to round-off: the expansion is about a point of the zero set, not of
    # a level set next to it, so Newton stops when a step no longer shrinks F
    for _ in range(50):
        if not F.any():
            break
        step, *_ = np.linalg.lstsq(Jm @ N, -F, rcond=None)
        xn = x + N @ step
        Fn, Jn = _component_map(geo, kspec, xn, jac=True)
        if not np.linalg.norm(Fn) < np.linalg.norm(F):
            break
        x, F, Jm = xn, Fn, Jn

    jets = kspec.field.jets(x, 3)
    k1, k2, k3 = (np.reshape(jets[i], (-1,) + (n,) * i) for i in (1, 2, 3))
    U, S, _ = np.linalg.svd(k1)
    if len(S) < codim or not S[codim - 1] > np.linalg.norm(Jm, 2) / RANK_GAP:
        return None
    Uc = U[:, :codim].T
    G1, G2, G3 = Uc @ k1, np.tensordot(Uc, k2, 1), np.tensordot(Uc, k3, 1)
    A = G1 @ N

    def normal(rhs):
        """N z with A z = rhs, z carrying the parameter axes of rhs."""
        z = np.linalg.solve(A, rhs.reshape(codim, -1))
        return np.tensordot(N, z.reshape(rhs.shape), 1)

    X1 = T + normal(-G1 @ T)
    X2 = normal(-np.einsum("cab,ai,bj->cij", G2, X1, X1))
    X3 = normal(-np.einsum("cabd,ai,bj,dk->cijk", G3, X1, X1, X1)
                - np.einsum("cab,aij,bk->cijk", G2, X2, X1)
                - np.einsum("cab,aik,bj->cijk", G2, X2, X1)
                - np.einsum("cab,ajk,bi->cijk", G2, X2, X1))
    return EmbeddingSpec(m=n - codim, n=n, orientation=1,
                         phi=PolynomialField([x, X1, X2 / 2.0, X3 / 6.0]))
