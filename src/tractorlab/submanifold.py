"""Riemannian and conformal submanifold calculus.

An embedding is a chart map from an m-dimensional parameter chart into the
ambient chart, with derivative access to any order its field has.
``submanifold_pack`` collects the induced metric, projectors, second
fundamental form, mean curvature and oriented normal frame at a point, or
at each row of a stack: the rows not in the embedding's memo share one
embedding 2-jet, one order-2 curvature pack and one ``normal_frame`` call,
and each is bitwise what an evaluation at its point alone gives.

The induced metric's jets are exact at every order: ``pullback_metric``
takes dphi^T (g o phi) dphi from the embedding's jet and the metric's jets
by the chain and Leibniz rules.  So the intrinsic curvature is computed
independently rather than through the Gauss equation, from the jets a
``subtractor.SubTractorContext`` holds.  A pack's ``intrinsic`` geometry
names the induced metric's dimension and orientation and holds no field;
``PullbackMetricField`` gives the same jets as a field, for the tests.

Derivatives along Sigma are exact too: ``partials_along`` gives the jets
of the frame-independent pack quantities (dphi, g o phi, g_s, g_s^-1,
N^a_b, II, IIo and H) to any order from the same jets and the metric jets
of an ambient pack, and ``einsum_jet1`` is the Leibniz rule of one
contraction on order-1 jets.  ``covariant_partial`` adds, on each index,
the connection ``SigmaConn`` picks (the ambient one pulled back by the
embedding, or the intrinsic one).  ``normal_curvature`` is the curvature
of a normal bundle from the first jets of its frame, the Gram-Schmidt of
N^a_b's seed rows: the frame's second partials cancel in R_ij.
``SigmaField``, the Richardson difference of whole packs, is the one
stencil here and nothing in the program reads it: it is the exact routes'
test oracle.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .jets import compose, product
from .riemann import CurvaturePack, GeometrySpec, curvature_pack
from .tensors import (TRACTOR, ArrayField, DiffBackend, NumericalError,
                      central_diff)
from . import tractor as tr

__all__ = ["EmbeddingSpec", "SubmanifoldPack", "submanifold_pack",
           "PullbackMetricField", "pullback_metric", "normal_frame",
           "partials_along",
           "SigmaField", "SigmaConn", "covariant_partial", "einsum_jet1",
           "normal_curvature"]


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


class PullbackMetricField(ArrayField):
    """Induced metric on the parameter chart of an embedding, as a field:
    its k-jet is ``pullback_metric`` of the embedding's (k+1)-jet and the
    metric's k-jet, at one point or a stack of points.  Nothing in the
    program builds it (a ``subtractor.SubTractorContext`` pulls the same
    jets back from those it holds); it stays as the tests' reference for
    those jets and packs, and as the field whose jets the benchmark's
    tracer wraps.
    """

    def __init__(self, geo: GeometrySpec, emb: EmbeddingSpec):
        self.geo = geo
        self.phi = emb.phi
        super().__init__(self._value,
                         backend=DiffBackend(mode="analytic", max_order=3))

    def _value(self, y):
        return self.jets(y, 0)[0]

    def jets(self, y, order):
        ph = self.phi.jets(np.asarray(y, dtype=float), order + 1)
        return pullback_metric(self.geo.metric.jets(ph[0], order), ph,
                               order)[1]


def pullback_metric(gj, ph, order):
    """Jets to ``order`` of g o phi and of the induced metric dphi^T (g o
    phi) dphi, from the metric's jets ``gj`` at phi and the embedding's
    jet ``ph`` (of order ``order`` + 1 or more): the metric composed with
    the embedding by Faa di Bruno's formula (``jets.compose``), then two
    matrix products by the Leibniz rule (``jets.product``)."""
    ph = ph[:order + 2]
    g = compose(gj[:order + 1], ph, order, slots=1)
    return g, _pullback_jets(g, ph[1:], order)


def _transpose_jets(a):
    """Jets of the transpose of a matrix from its jets."""
    return [np.swapaxes(x, x.ndim - k - 2, x.ndim - k - 1)
            for k, x in enumerate(a)]


def _pullback_jets(g, dphi, order):
    """Jets of dphi^T g dphi from the jets of g (at phi) and of dphi."""
    return _matmul_jets(_transpose_jets(dphi), _matmul_jets(g, dphi, order),
                        order)


def _matmul_jets(a, b, order):
    """Jets of the matrix product a b from the jets of a and b (the two
    value axes before the derivative axes): the Leibniz product of a and b
    spread over (row, inner, column) axes, summed over the inner one."""
    a = [_new_axis(x, x.ndim - k) for k, x in enumerate(a)]
    b = [_new_axis(x, x.ndim - k - 2) for k, x in enumerate(b)]
    return [x.sum(axis=x.ndim - k - 2)
            for k, x in enumerate(product(a, b, order))]


def _new_axis(x, pos):
    """``x`` with a new axis of length 1 at ``pos`` (a view, as
    ``np.expand_dims`` gives, at a fraction of its call overhead)."""
    return x.reshape(x.shape[:pos] + (1,) + x.shape[pos:])


@dataclass
class SubmanifoldPack:
    """Riemannian submanifold data at one parameter point."""
    q: np.ndarray
    x: np.ndarray
    m: int
    n: int
    d: int
    dphi: np.ndarray            # Pi^a_i
    pack: CurvaturePack         # ambient curvature at x (metric 2-jet)
    g_s: np.ndarray             # induced metric
    gi_s: np.ndarray
    Nab: np.ndarray             # N^a_b
    II: np.ndarray              # II_ij^c -> [i, j, c]
    IIo: np.ndarray
    H: np.ndarray
    conormals: np.ndarray       # [alpha, a] orthonormal, oriented
    normals: np.ndarray         # raised conormals
    seeds: tuple
    intrinsic: GeometrySpec     # dimension and orientation, no metric


def submanifold_pack(geo: GeometrySpec, emb: EmbeddingSpec, q,
                     seeds=None):
    """Submanifold data of ``emb`` in ``geo`` at parameter point ``q``; for
    a stack of points ``q`` of shape (p, m) the list of the packs at its
    rows.

    ``seeds`` names the ambient coordinate conormals the normal frame is
    built from; by default the ones least aligned with the tangent space.

    Each distinct pack is computed once per embedding: packs are memoised in
    ``emb.packs`` under the key (``geo``, the bytes of ``q``, ``tuple(seeds)``
    or None).  Geometry specs hash by identity, so a geometry that was
    dropped cannot alias a new one, and the memo lives exactly as long as
    ``emb`` (the CLI builds one per call).  Packs are shared between callers,
    so their arrays, and those of the ambient curvature pack, are read-only.
    Concurrent callers may compute a pack twice; both results are equal.

    A single point is a stack of one.  The rows not in the memo yet share
    one evaluation of the embedding 2-jet, one order-2 curvature pack, one
    rank check and one ``normal_frame`` call; each pack is bitwise the one
    a call at its row builds.
    """
    q = np.array(q, dtype=float)
    seeds = None if seeds is None else tuple(seeds)
    rows = q.reshape(-1, q.shape[-1])
    keys = [(geo, r.tobytes(), seeds) for r in rows]
    todo = {}
    for key, r in zip(keys, rows):
        if key not in emb.packs:
            todo.setdefault(key, r)
    if todo:
        Q = np.array(list(todo.values()))
        ph = emb.phi.jets(Q, 2)
        packs = curvature_pack(geo, ph[0], order=2)
        deficient = np.linalg.matrix_rank(ph[1], tol=1e-10) < emb.m
        if deficient.any():
            raise RankDeficientError("embedding differential rank-deficient "
                                     f"at {Q[np.argmax(deficient)]}")
        frame = normal_frame(packs.g, packs.gi, ph[1],
                             geo.orientation * emb.orientation, seeds,
                             packs.Gamma, ph[2])
        for i, key in enumerate(todo):
            emb.packs[key] = _build_pack(
                emb, Q[i], [c[i] for c in ph], packs.at(i),
                {k: v[i] for k, v in frame.items()})
    out = [emb.packs[key] for key in keys]
    return out if q.ndim == 2 else out[0]


def _build_pack(emb, q, ph, pack, frame):
    """The read-only pack at ``q`` from its rows of the embedding 2-jet
    ``ph``, the ambient curvature pack and the normal frame.  Its intrinsic
    geometry holds no metric field: a context builds its packs from the
    jets it pulls back (``pack_from_jets``)."""
    intrinsic = GeometrySpec(n=emb.m, metric=None,
                             orientation=emb.orientation)
    sub = SubmanifoldPack(q=q, x=ph[0], m=emb.m, n=emb.n, d=emb.n - emb.m,
                          dphi=ph[1], pack=pack, intrinsic=intrinsic,
                          **frame)
    for obj in (sub, pack):
        for arr in vars(obj).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
    return sub


def normal_frame(g, gi, dphi, orientation, seeds=None, Gamma=None,
                 d2phi=None):
    """The ``SubmanifoldPack`` fields g_s, gi_s, Nab, conormals,
    normals and seeds as a dict, from g, g^-1 and dphi on a stack of points
    (a leading point axis on each array and field, ``seeds`` a list of
    tuples); with Gamma and d2phi also II, IIo and H.  ``seeds`` default,
    row by row, to the coordinate conormals least aligned with the tangent
    space (ties to the lower index); ``orientation`` is the ambient one
    times the submanifold's.  Degenerate seeds on any row raise."""
    p, n, m = dphi.shape
    dphiT = np.swapaxes(dphi, 1, 2)
    g_s = dphiT @ g @ dphi
    gi_s = np.linalg.inv(g_s)
    # Pi^i_a, the orthogonal projection onto T Sigma
    Pi_ia = gi_s @ dphiT @ g
    Nab = np.eye(n) - dphi @ Pi_ia
    out = dict(g_s=g_s, gi_s=gi_s, Nab=Nab)

    if Gamma is not None:
        # second fundamental form: normal part of the ambient Hessian of phi
        hess = d2phi + np.einsum("pcde,pdi,pej->pcij", Gamma, dphi, dphi)
        II = np.einsum("pcb,pbij->pijc", Nab, hess)
        H = np.einsum("pij,pijc->pc", gi_s, II) / m
        IIo = II - np.einsum("pij,pc->pijc", g_s, H)
        if m == 1:
            IIo = np.zeros_like(II)
        out.update(II=II, IIo=IIo, H=H)

    def gi_pair(u, v):
        """u . g^-1 . v at each row, as (1 x n)(n x n)(n x 1) products,
        which round as a point's ``u @ gi @ v`` does."""
        return (u[..., None, :] @ gi[:, None] @ v[..., None])[..., 0, 0]

    if seeds is None:
        # residual of dx^a (row a of N^a_b) after tangential projection,
        # measured with g^-1; a stable sort of -score keeps ties in order
        S = np.argsort(-gi_pair(Nab, Nab), axis=1, kind="stable")[:, :n - m]
    else:
        S = np.tile(np.array(seeds, dtype=int), (p, 1))
    conormals = np.empty(S.shape + (n,))
    for k in range(S.shape[1]):
        w = Nab[np.arange(p), S[:, k]]
        for prev in np.swapaxes(conormals[:, :k], 0, 1):
            w = w - gi_pair(prev[:, None], w[:, None]) * prev
        nw = np.sqrt(np.maximum(gi_pair(w[:, None], w[:, None])[:, 0], 0.0))
        if (nw < 1e-12).any():
            raise RankDeficientError("degenerate conormal seeds")
        conormals[:, k] = w / nw[:, None]
    normals = conormals @ gi

    # orientation: the ambient chart's orientation of an oriented tangent
    # frame followed by the normals must be ``orientation``
    B = np.concatenate([dphi, np.swapaxes(normals, 1, 2)], axis=2)
    flip = np.sign(np.linalg.det(B)) * orientation < 0
    conormals[flip, -1] = -conormals[flip, -1]
    normals[flip, -1] = -normals[flip, -1]
    out.update(conormals=conormals, normals=normals,
               seeds=[tuple(int(a) for a in s) for s in S])
    return out


# --------------------------------------------------------------------------
# derivatives of pack-derived quantities along the submanifold
# --------------------------------------------------------------------------

def partials_along(sub: SubmanifoldPack, ph, order=1, pack=None):
    """Exact partial derivatives along Sigma at ``sub.q``, to ``order``, of
    the frame-independent pack quantities, as jets [value, first partial,
    ...] with the derivative axes last: ``dphi`` (the embedding's
    derivatives), ``g`` (the ambient metric at phi), ``g_s``, ``gi_s``,
    ``Nab``, ``II``, ``IIo`` and ``H``.  The values are the pack's.

    The Leibniz and chain rules (``jets.product`` and ``jets.compose``, of
    any order) on the embedding's jet ``ph`` at ``sub.q`` (of order
    ``order`` + 2 or more) and on the metric jets of the ambient pack
    ``pack`` (``sub.pack`` by default: an order-3 pack's d2g and d2Gamma
    give order 2, whatever backend differentiated the metric) give them
    with no evaluation: g_s = dphi^T g dphi (``pullback_metric``), g_s^-1
    order by order from g_s g_s^-1 = 1, Pi^i_a = g_s^-1 dphi^T g, N = 1 -
    dphi Pi and II = N (d2phi + dphi^T Gamma dphi)."""
    pk, m = (sub.pack if pack is None else pack), sub.m
    dphi, hess_phi = ph[1:order + 2], ph[2:order + 3]
    g, g_s = pullback_metric([pk.g, pk.dg, pk.d2g], ph, order)
    Gamma = compose([pk.Gamma, pk.dGamma, pk.d2Gamma][:order + 1], ph,
                    order, slots=1)
    g_s = [sub.g_s] + g_s[1:]
    gi_s = _inverse_jets(sub.gi_s, g_s, order)
    Pi = _matmul_jets(gi_s, _matmul_jets(_transpose_jets(dphi), g, order),
                      order)
    N = [sub.Nab] + [-x for x in _matmul_jets(dphi, Pi, order)[1:]]
    # the ambient Hessian of phi, [c, i, j]: d2phi + dphi^T Gamma^c dphi
    hess = [a + b for a, b in zip(hess_phi, _pullback_jets(Gamma, dphi,
                                                           order))]
    II, H, IIo = [sub.II], [sub.H], [sub.IIo]
    for k in range(1, order + 1):
        II.append(_leibniz("cb,bij->ijc", [N, hess], k))
        H.append(_leibniz("ij,ijc->c", [gi_s, II], k) / m)
        IIo.append(II[k])
        for t in _leibniz_terms("ij,c->ijc", [g_s, H], k):
            IIo[k] = IIo[k] - t
        if m == 1:
            IIo[k] = np.zeros_like(IIo[k])
    return {"dphi": [sub.dphi] + ph[2:order + 2], "g": g, "g_s": g_s,
            "gi_s": gi_s, "Nab": N, "II": II, "IIo": IIo, "H": H}


def _inverse_jets(B0, A, order):
    """Jets of the inverse of a matrix from its value B0 and the jets A of
    the matrix, order by order from A B = 1: d B = -B0 dA B0, and D^k B =
    -B0 times the terms of D^k(A B) in which B has order below k."""
    B = [B0, -np.einsum("ij,jlk,lm->imk", B0, A[1], B0)]
    for k in range(2, order + 1):
        top = np.zeros(B[-1].shape + A[1].shape[-1:])
        AB = _matmul_jets(A[:k + 1], B + [top], k)[k]
        B.append(-np.einsum("ij,jl...->il...", B0, AB))
    return B[:order + 1]


class SigmaField:
    """A quantity built from the pack, as a field over the parameter chart.

    ``builder(pack)`` maps a SubmanifoldPack to an array.  Derivatives use
    Richardson-extrapolated central differences (step 1e-2) with the
    normal-frame seeds frozen at the base point, so frame-dependent
    quantities stay smooth.  Every derivative along Sigma is exact
    (``partials_along`` and the Leibniz rule on it); this stencil is their
    test oracle (``tests/oracles.py``), and the one caller of
    ``tensors.central_diff`` in the program.
    """

    def __init__(self, geo, emb, builder):
        self.geo = geo
        self.emb = emb
        self.builder = builder
        self._seeds = None

    def value(self, q):
        pk = submanifold_pack(self.geo, self.emb, q, seeds=self._seeds)
        return np.asarray(self.builder(pk), dtype=float)

    def values(self, Q):
        """``builder`` of the pack at each row of ``Q``, stacked."""
        return np.stack([np.asarray(self.builder(pk), dtype=float) for pk in
                         submanifold_pack(self.geo, self.emb, Q,
                                          seeds=self._seeds)])

    def jet1(self, q):
        q = np.asarray(q, dtype=float)
        base = submanifold_pack(self.geo, self.emb, q)
        self._seeds = base.seeds
        v0 = np.asarray(self.builder(base), dtype=float)
        d1 = central_diff(self.values, q, 1e-2, richardson=True)
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
            return np.einsum("...ane,...ai->...ine", M, self.dphi)
        return self.intrinsic().matrix(ix)


def covariant_partial(conn, value, partial, indices):
    """Covariant derivative along Sigma, [i, ...] with the derivative index
    first, of a quantity whose axes carry ``indices``, from its value and
    its partial derivative along Sigma (the derivative axis last), by
    ``SigmaField`` or ``partials_along``: ``conn.matrix(ix)`` adds the
    connection on each index."""
    return np.moveaxis(tr.covariant_jet(conn, [value, partial], indices)[0],
                       -1, 0)


_DERIVATIVE_LETTERS = "ZYXW"


def _leibniz_terms(spec, jets, k):
    """The terms of the k-th partial of ``np.einsum(spec, *values)`` (k <=
    4) by the Leibniz rule, from the operands' jets [value, partial, ...],
    each partial with its derivative axes last: one einsum per assignment
    of the k derivative positions to the operands (``_leibniz_specs``).  An
    operand with no partial of the order it is assigned (None, or a jet
    that ends before it) gives no term.  ``spec`` is explicit
    ("...->...") and does not use the letters Z, Y, X, W."""
    for term, orders in _leibniz_specs(spec, len(jets), k):
        ops = [jet[o] if o < len(jet) else None
               for jet, o in zip(jets, orders)]
        if all(op is not None for op in ops):
            yield np.einsum(term, *ops)


@functools.lru_cache(maxsize=None)
def _leibniz_specs(spec, count, k):
    """(einsum spec, derivative order of each operand) of each term of
    ``_leibniz_terms``, in the order of the assignments: each operand
    takes the derivative letters of its positions, in position order."""
    ins, out = spec.split("->")
    letters = _DERIVATIVE_LETTERS[:k]
    terms = []
    for assign in itertools.product(range(count), repeat=k):
        mine = ["".join(c for c, a in zip(letters, assign) if a == j)
                for j in range(count)]
        terms.append((",".join(s + d for s, d in zip(ins.split(","), mine))
                      + "->" + out + letters, tuple(map(len, mine))))
    return terms


def _leibniz(spec, jets, k):
    """The k-th partial of ``np.einsum(spec, *values)``: the sum of its
    ``_leibniz_terms`` in turn, None if it has none."""
    d = None
    for t in _leibniz_terms(spec, jets, k):
        d = t if d is None else d + t
    return d


def einsum_jet1(spec, *jets):
    """Order-1 jets [value, partial] of ``np.einsum(spec, *values)`` from
    the order-1 jets of its operands (each partial with one derivative axis
    last; None for a constant): the Leibniz rule, one einsum per operand
    with its partial in its place (``_leibniz``).  ``spec`` is explicit
    ("...->...") and does not use the letter Z."""
    return [np.einsum(spec, *(j[0] for j in jets)), _leibniz(spec, jets, 1)]


def _conormal_jets(sub, J):
    """Order-1 jets along Sigma of the pack's conormal rows [alpha, a]: the
    Gram-Schmidt of the seed rows of N^a_b in g^-1 (at phi),
    differentiated by the Leibniz rule from their jets in ``J``; the value
    is the pack's."""
    gi, rows = J["gi"], []
    for s in sub.seeds:
        w = [x[s] for x in J["Nab"][:2]]
        for c in rows:
            t = einsum_jet1(",a->a", einsum_jet1("a,ab,b->", c, gi, w), c)
            w = [w[0] - t[0], w[1] - t[1]]
        s2 = einsum_jet1("a,ab,b->", w, gi, w)
        nw = np.sqrt(s2[0])
        rows.append(einsum_jet1(",a->a", [1 / nw, -0.5 * s2[1] / nw ** 3],
                                w))
    dco = np.stack([r[1] for r in rows])
    # the orientation flips the last conormal
    if rows[-1][0] @ sub.conormals[-1] < 0:
        dco[-1] = -dco[-1]
    return [sub.conormals, dco]


def normal_curvature(sub, J, conn, frames, index):
    """Curvature of a normal bundle at the point of the pack ``sub``,
    [i, j, C, E] acting on up components.

    ``frames(conormals, normals, H, gi)`` maps order-1 jets along Sigma
    ([value, partial], the derivative axis last) of the normal frame, of H
    and of g^-1 at phi to those of the frame rows [alpha, C] (C is
    ``index``) and the dual coframe rows [alpha, E].  With omega_i =
    coframe (d_i + A_i) frame and A_i the matrix of ``conn`` (connection
    data at phi) on ``index`` pulled back by dphi, R_ij = d_i omega_j -
    d_j omega_i + [omega_i, omega_j].  The frame's second partials and the
    d2phi term of d_i A_j are symmetric in i, j and cancel, so R_ij reads
    first jets only: the conormals' by the Gram-Schmidt rule from the jets
    ``J`` along Sigma (``partials_along``'s N^a_b and H, and g^-1 at phi)
    and ``conn.dmatrix`` pulled back by dphi."""
    gi = J["gi"]
    co = _conormal_jets(sub, J)
    normals = [sub.normals, einsum_jet1("ab,bc->ac", co, gi)[1]]
    fr, cofr = frames(co, normals, J["H"], gi)
    A = np.einsum("ane,ai->ine", conn.matrix(index), sub.dphi)
    # dA[j, i] = d_j A_i without its symmetric d2phi term
    dA = np.einsum("aneb,ai,bj->jine", conn.dmatrix(index), sub.dphi,
                   sub.dphi)
    nab = np.moveaxis(fr[1], -1, 0) + np.einsum("ice,be->ibc", A, fr[0])
    om = np.einsum("ac,ibc->iab", cofr[0], nab)
    # dw[j, i] = d_j omega_i without its symmetric terms
    dw = (np.einsum("acj,ibc->jiab", cofr[1], nab)
          + np.einsum("ac,jice,be->jiab", cofr[0], dA, fr[0])
          + np.einsum("ac,ice,bej->jiab", cofr[0], A, fr[1]))
    Rfr = (dw - dw.transpose(1, 0, 2, 3)
           + np.einsum("iae,jeb->ijab", om, om)
           - np.einsum("jae,ieb->ijab", om, om))
    return np.einsum("ec,ijef,fd->ijcd", fr[0], Rfr, cofr[0])
