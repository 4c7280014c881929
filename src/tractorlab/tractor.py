"""Standard tractor bundle in a chosen scale.

Tractors are numpy arrays of their components in the splitting of the
working scale, one axis per index; where the kind of each axis matters it
comes in as a tuple of ``tensors.Index``.  A rank n+2 tractor index uses
slots (sigma, mu_1..mu_n, rho) for both variances.  Raising/lowering acts
blockwise (identity on sigma/rho, metric on the middle block:
tensors.middle_block); contraction of an up/down pair inserts the
invariant pairing J that swaps sigma and rho (``pair_flip``;
``tensors.pairing_matrix`` is its matrix).

``covariant_jet`` applies the connection (Levi-Civita on tangent indices,
the tractor connection on tractor ones) to a field's jets; the Thomas
operator and parallel transport read it.  The point functions (the Thomas
operator, the scale tractor, the tractor curvature and the volume form)
take the caller's curvature pack and read the point and the dimension
from it; the Hodge star takes the raised volume form instead, which the
stars of several forms at one point share.  The connection applied to a
field from its 1-jet, and the volume form as a field with an analytic
first derivative, serve only tests and live in ``tests/oracles.py``.
"""
from __future__ import annotations

import math

import numpy as np

from . import tensors
from .riemann import (CurvaturePack, GeometrySpec, curvature_pack,
                      levi_civita_symbol)
from .tensors import (Index, alt_array, check_finite, check_form,
                      check_shape, middle_block, on_axes)

__all__ = [
    "thomas_D", "scale_tractor", "tractor_curvature", "tractor_volume_form",
    "raised_volume_form", "hodge_star", "parallel_transport",
    "rescale_triple_matrix",
]


class MobiusStructureError(tensors.NumericalError, RuntimeError):
    """Tractor operations on a 2-dimensional ambient chart need an explicit
    Schouten tensor (Moebius structure)."""


class TransportDivergedError(tensors.NumericalError, RuntimeError):
    """Parallel transport produced non-finite components."""


# --------------------------------------------------------------------------
# slot helpers
# --------------------------------------------------------------------------

def pair_flip(arr, axis):
    """Invariant up/down tractor pairing along ``axis`` (sigma/rho swap)."""
    dim = arr.shape[axis]
    order = np.arange(dim)
    order[0], order[-1] = dim - 1, 0
    return np.take(arr, order, axis=axis)


def make_tractor(n, sigma=0.0, mu=None, rho=0.0):
    v = np.zeros(n + 2)
    v[0] = sigma
    if mu is not None:
        v[1:n + 1] = mu
    v[n + 1] = rho
    return v


def canonical_X(n):
    """X^A: components (0, 0, 1)."""
    return make_tractor(n, rho=1.0)


# --------------------------------------------------------------------------
# connection coefficients
# --------------------------------------------------------------------------

def _up(G, tail=0):
    """Gamma[c, a, b] as [a, c, b] (the matrix on an up index); ``tail``
    trailing derivative axes and a leading point axis stay in place."""
    return G.swapaxes(-3 - tail, -2 - tail)


def _down(G, tail=0):
    """Gamma[c, a, b] as [a, b, c] (minus the matrix on a down index)."""
    return G.swapaxes(-3 - tail, -2 - tail).swapaxes(-2 - tail, -1 - tail)


def _lc_block(variance, G, tail=0):
    """The Levi-Civita matrix [a, new, old] on a tangent index of
    ``variance``, from Gamma or (``tail`` = 1) its derivative."""
    return _up(G, tail) if variance == tensors.UP else -_down(G, tail)


class ConnData:
    """Connection data at a point, for tangent and tractor indices.

    ``P`` is the Schouten tensor entering the tractor connection; ``dP``/
    ``dGamma`` enable second covariant derivatives, ``d2Gamma`` third ones
    on tangent indices.  The arrays may carry a leading point axis (``g`` of
    shape (p, n, n)); the matrices then carry it too, and
    ``covariant_jet`` reads the jets of p points at once.
    """

    def __init__(self, n, g, gi, Gamma, P=None, dg=None, dGamma=None, dP=None,
                 d2Gamma=None):
        self.n = n
        self.g = g
        self.gi = gi
        self.Gamma = Gamma
        self.P = P
        self.dg = dg
        self.dGamma = dGamma
        self.dP = dP
        self.d2Gamma = d2Gamma
        self.lead = np.shape(g)[:-2]

    @classmethod
    def from_pack(cls, pack: CurvaturePack):
        return cls(pack.n, pack.g, pack.gi, pack.Gamma, P=pack.P, dg=pack.dg,
                   dGamma=pack.dGamma, dP=pack.dP, d2Gamma=pack.d2Gamma)

    def _require_P(self):
        if self.P is None:
            raise MobiusStructureError(
                "tractor connection needs a Schouten tensor; supply a "
                "Moebius structure for 2-dimensional geometries")

    def matrix(self, index: Index):
        """M[a, new, old] with (nabla_a T)[new] += M[a,new,old] T[old]."""
        if index.kind == tensors.TANGENT:
            return _lc_block(index.variance, self.Gamma)
        self._require_P()
        return self._tractor_fill(index.variance, self.P, self.g,
                                  self.P @ self.gi, self.Gamma)

    def dmatrix(self, index: Index):
        """d_e M[a,new,old] -> [a, new, old, e]."""
        if index.kind == tensors.TANGENT:
            if self.dGamma is None:
                raise tensors.JetOrderError("second derivatives need dGamma")
            return _lc_block(index.variance, self.dGamma, 1)
        self._require_P()
        if self.dP is None or self.dg is None or self.dGamma is None:
            raise tensors.JetOrderError(
                "second tractor derivatives need the metric 3-jet (dP)")
        dgi = -np.einsum("...ce,...efa,...fd->...cda", self.gi, self.dg,
                         self.gi)
        dPmix = (np.einsum("...ace,...cb->...abe", self.dP, self.gi)
                 + np.einsum("...ac,...cbe->...abe", self.P, dgi))
        return self._tractor_fill(index.variance, self.dP, self.dg, dPmix,
                                  self.dGamma, 1)

    def _tractor_fill(self, variance, P, g, Pmix, Gamma, tail=0):
        """The tractor matrix from its four connection blocks (P_ab, g_ab,
        P_a^b and the identity) and the Levi-Civita action on the middle
        slot; with ``tail`` = 1 every input carries a trailing derivative
        axis, and the constant identity block drops out."""
        n = self.n
        mid, t = slice(1, n + 1), (slice(None),) * tail
        if variance == tensors.DOWN:
            one = (0, mid, -np.eye(n))
            blocks = [(mid, 0, P), (mid, n + 1, g), (n + 1, mid, -Pmix)]
        else:
            one = (mid, n + 1, np.eye(n))
            blocks = [(0, mid, -g), (mid, 0, Pmix), (n + 1, mid, -P)]
        M = np.zeros(self.lead + (n, n + 2, n + 2) + (n,) * tail)
        for row, col, block in blocks + ([] if tail else [one]):
            M[(..., row, col) + t] = block
        M[(..., mid, mid) + t] += _lc_block(variance, Gamma, tail)
        return M


def _apply_axis(M_a, arr, axis):
    """Contract M[a,new,old] against value axis ``axis`` of arr; result
    gains a trailing a-axis and keeps the new index at ``axis``.  A leading
    point axis of M (shape (p, n, N, N)) is one of arr too, and ``axis``
    counts the value axes after it."""
    z = "z" * (M_a.ndim - 3)
    axis += len(z)
    moved = np.moveaxis(arr, axis, -1)
    out = np.einsum(f"{z}ane,{z}...e->{z}...na", M_a, moved)
    return np.moveaxis(out, -2, axis)


def covariant_jet(conn: ConnData, jets, indices, order=1):
    """Covariant derivatives of a field from its partial-derivative jets.

    Returns [nabla T, ...] to ``order`` (at most 3); each covariant
    derivative appends one trailing down-tangent axis (innermost derivative
    first) and is the first covariant derivative of the one before, from
    its partials: those of the connection terms read the matrices'
    partials, and the third order's second partials read d2Gamma, so T's
    indices must be tangent ones there.  With a point axis on ``conn``, the
    jets carry it first and so does the result.
    """
    T, dT = jets[0], jets[1]
    z = "z" * (np.ndim(T) - len(indices))
    mats = [conn.matrix(ix) for ix in indices]
    nab = np.array(dT)
    for k, M in enumerate(mats):
        nab += _apply_axis(M, T, k)
    if order == 1:
        return [nab]
    # d_a (nabla_b T), axes [..., b, a], and at order 3 d_c d_a (nabla_b
    # T), axes [..., b, a, c]
    dnab = np.array(jets[2])
    d2nab = np.array(jets[3]) if order >= 3 else None
    for k, (M, dM) in enumerate(zip(mats, [conn.dmatrix(ix)
                                           for ix in indices])):
        ax = len(z) + k
        # moveaxis puts the original value axis after the derivative axes
        Tk = [np.moveaxis(t, ax, -1) for t in jets[:order]]
        for spec, A, B in ((f"{z}bnea,{z}...e->{z}...nba", dM, Tk[0]),
                           (f"{z}bne,{z}...ae->{z}...nba", M, Tk[1])):
            dnab += np.moveaxis(np.einsum(spec, A, B), -3, ax)
        if order >= 3:
            for spec, A, B in (
                    (f"{z}bneac,{z}...e->{z}...nbac", _lc_block(
                        indices[k].variance, conn.d2Gamma, 2), Tk[0]),
                    (f"{z}bnea,{z}...ce->{z}...nbac", dM, Tk[1]),
                    (f"{z}bnec,{z}...ae->{z}...nbac", dM, Tk[1]),
                    (f"{z}bne,{z}...ace->{z}...nbac", M, Tk[2])):
                d2nab += np.moveaxis(np.einsum(spec, A, B), -4, ax)
    # the derivative index b is tangent-down
    return [nab] + covariant_jet(conn, [nab, dnab, d2nab][:order],
                                 (*indices, tensors.tangent_down(conn.n)),
                                 order - 1)


def thomas_D(field, indices, w, pack: CurvaturePack):
    """Thomas operator on a weight-w (tractor) field with value axes
    ``indices``, in the working scale, at the point of the curvature pack
    ``pack``: order 2, or order 3 for a tractor field, whose second
    derivative reads dP.

    Slots: ((n+2w-2) w V, (n+2w-2) nabla_a V, -(Laplacian V + w J V)) with the
    new down tractor index leading.
    """
    n = pack.n
    if pack.J is None:
        raise MobiusStructureError("Thomas operator needs a Schouten tensor")
    conn = ConnData.from_pack(pack)
    jets = field.jets(pack.point, 2)
    check_shape(jets[0], indices)
    nab, nab2 = covariant_jet(conn, jets, indices, order=2)
    lap = np.einsum("ba,...ba->...", pack.gi, nab2)
    V = jets[0]
    c = n + 2 * w - 2
    out_shape = (n + 2,) + V.shape
    out = np.zeros(out_shape)
    out[0] = c * w * V
    out[1:n + 1] = c * np.moveaxis(nab, -1, 0)
    out[n + 1] = -(lap + w * pack.J * V)
    return check_finite(out)


def scale_tractor(pack: CurvaturePack):
    """Scale tractor of the working scale at the point of the curvature
    pack ``pack``: (1, 0, -J/n)."""
    if pack.J is None:
        raise MobiusStructureError("scale tractor needs a Schouten tensor")
    return make_tractor(pack.n, sigma=1.0, rho=-pack.J / pack.n)


def tractor_curvature(pack: CurvaturePack):
    """Curvature of the tractor connection, slots W_abcd Z Z - 2 C_abc X|Z|,
    at the point of the order-3 curvature pack ``pack``.

    Returned with index order [a, b, C, D], both tractor indices down.
    """
    n = pack.n
    if n < 3:
        raise MobiusStructureError("tractor curvature needs ambient dim >= 3")
    if not pack.has_third:
        raise tensors.JetOrderError(
            "tractor curvature needs the metric 3-jet (Cotton term)")
    N = n + 2
    Om = np.zeros((n, n, N, N))
    Om[:, :, 1:n + 1, 1:n + 1] = pack.W4
    # -2 C_abc X_[C Z_D]^c expands to -C in the (X, Z) block, +C in (Z, X)
    C = pack.Cotton
    Om[:, :, n + 1, 1:n + 1] -= C
    Om[:, :, 1:n + 1, n + 1] += C
    return check_finite(Om)


# --------------------------------------------------------------------------
# tractor forms, volume form, Hodge star
# --------------------------------------------------------------------------

def embed_middle(omega, n):
    """Embed a tangent p-form array into the middle block of tractor slots."""
    p = omega.ndim
    N = n + 2
    out = np.zeros((N,) * p)
    out[(slice(1, n + 1),) * p] = omega
    return out


def form_Y(omega, n):
    """omega_{a2..ak} Y_[A1 Z..Z_]: degree = deg(omega) + 1."""
    return alt_array(np.multiply.outer(make_tractor(n, sigma=1.0),
                                       embed_middle(omega, n)))


def form_X(omega, n):
    return alt_array(np.multiply.outer(canonical_X(n), embed_middle(omega, n)))


def form_W(omega, n):
    return alt_array(np.multiply.outer(canonical_X(n), np.multiply.outer(
        make_tractor(n, sigma=1.0), embed_middle(omega, n))))


def tractor_volume_form(pack: CurvaturePack):
    """Parallel top-degree tractor form at the point of the order-2
    curvature pack ``pack``, normalised to eps.eps = -(n+2)!."""
    n = pack.n
    lam = (-1.0) ** (n + 1) * math.sqrt(pack.detg) * pack.orientation
    return check_form(lam * levi_civita_symbol(n + 2))


def raised_volume_form(pack: CurvaturePack, k):
    """The tractor volume form at the point of the order-2 curvature pack
    ``pack`` with its first k axes raised by the middle block of g^-1: the
    array the Hodge star of a k-form contracts."""
    return on_axes(middle_block(pack.gi), tractor_volume_form(pack), range(k))


def hodge_star(F, eps):
    """Tractor Hodge star of a tractor form F with every index down: degree
    k = F.ndim -> degree n+2-k, indices down.  ``eps`` is
    ``raised_volume_form(pack, k)`` at the point, which the stars of
    several k-forms there share."""
    check_form(F)
    k = F.ndim
    for ax in range(k):
        F = pair_flip(F, ax)
    out = np.tensordot(F, eps, axes=(list(range(k)), list(range(k))))
    out /= math.factorial(k)
    return check_form(out)


def wedge(a, b):
    """(p+q)!/(p!q!) Alt(a x b) on plain arrays."""
    p, q = a.ndim, b.ndim
    coef = math.factorial(p + q) / (math.factorial(p) * math.factorial(q))
    return coef * alt_array(np.multiply.outer(a, b))


# --------------------------------------------------------------------------
# parallel transport
# --------------------------------------------------------------------------

def parallel_transport(geo: GeometrySpec, curve, T0, indices,
                       t0=0.0, t1=1.0, steps=200):
    """Transport the components T0, with index axes ``indices``, along the
    curve t -> x(t) by solving nabla_u T = 0 with RK4.

    ``curve`` is a field of the one parameter t (an ``ArrayField`` on a
    1-dimensional chart, such as the ``phi`` of ``geolib.jet_embedding(1,
    n, fn)``): its 1-jet at each RK stage time gives x and the velocity.
    """
    check_shape(T0, indices)
    comp = np.array(T0, dtype=float)
    h = (t1 - t0) / steps

    def rhs(t, T):
        x, u = curve.jets(np.array([t]), 1)
        pack = curvature_pack(geo, x, order=2)
        # dT/dt = -u^a (connection terms of nabla_a T): the covariant
        # derivative of T with a vanishing partial
        nab = covariant_jet(ConnData.from_pack(pack),
                            [T, np.zeros(T.shape + (geo.n,))], indices)[0]
        return -(nab @ u[:, 0])

    t = t0
    for _ in range(steps):
        k1 = rhs(t, comp)
        k2 = rhs(t + h / 2, comp + h / 2 * k1)
        k3 = rhs(t + h / 2, comp + h / 2 * k2)
        k4 = rhs(t + h, comp + h * k3)
        comp = comp + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        if not np.all(np.isfinite(comp)):
            raise TransportDivergedError("parallel transport diverged")
    return comp


# --------------------------------------------------------------------------
# conformal-change bookkeeping (for invariance tests)
# --------------------------------------------------------------------------

def rescale_triple_matrix(pack, upsilon):
    """Matrix relating scale-g tractor slots to scale-(Omega^2 g) slots.

    Acts on trivialised components of an unweighted tractor with its index
    down; slot weights (1, 1, -1) are included, so hatted components are
    M @ components.
    """
    n = pack.n
    N = n + 2
    ups = np.asarray(upsilon, dtype=float)
    ups_up = pack.gi @ ups
    M = np.zeros((N, N))
    M[0, 0] = 1.0
    M[1:n + 1, 0] = ups
    M[1:n + 1, 1:n + 1] = np.eye(n)
    M[n + 1, 0] = -0.5 * float(ups @ ups_up)
    M[n + 1, 1:n + 1] = -ups_up
    M[n + 1, n + 1] = 1.0
    return M


def slot_weights(n, variance="down"):
    """Conformal weights of the slots of an unweighted tractor."""
    if variance == "down":
        return np.array([1] + [1] * n + [-1], dtype=float)
    return np.array([1] + [-1] * n + [-1], dtype=float)


def rescale_component_weights(omega_value, weights):
    """Trivialisation factors: hatted components are Omega^w times the
    unhatted ones (a density tau ~ (g, f) ~ (Omega^2 g, Omega^w f))."""
    return np.array([float(omega_value) ** w for w in weights])
