"""Standard tractor bundle in a chosen scale.

A rank n+2 tractor index uses slots (sigma, mu_1..mu_n, rho) for both
variances.  Raising/lowering acts blockwise (identity on sigma/rho, metric on
the middle block: tensors.middle_block); contraction of an up/down pair
inserts the invariant pairing that swaps sigma and rho (see
tensors._tr_flip).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensors
from .riemann import CurvaturePack, GeometrySpec, curvature_pack, levi_civita_symbol
from .tensors import (ArrayField, FieldHandle, Index, TensorValue,
                      alt_array, middle_block, tractor_down,
                      tractor_metric_matrix, tractor_up, tangent_down)

__all__ = [
    "TractorObject", "TractorFormObject", "tractor_metric",
    "tractor_connection_apply", "thomas_D", "scale_tractor",
    "tractor_curvature", "tractor_volume_form", "hodge_star",
    "parallel_transport", "rescale_triple_matrix",
]


class MobiusStructureError(tensors.NumericalError, RuntimeError):
    """Tractor operations on a 2-dimensional ambient chart need an explicit
    Schouten tensor (Moebius structure)."""


class TransportDivergedError(tensors.NumericalError, RuntimeError):
    """Parallel transport produced non-finite components."""


@dataclass(frozen=True)
class TractorObject:
    """Tractor tensor components in the splitting of a recorded scale."""
    value: TensorValue
    geo: GeometrySpec

    @property
    def data(self):
        return self.value.data

    @property
    def indices(self):
        return self.value.indices


@dataclass(frozen=True)
class TractorFormObject:
    value: TensorValue
    geo: GeometrySpec

    def __post_init__(self):
        if self.value.rank and not self.value.is_antisymmetric(rtol=1e-12):
            raise tensors.TensorError("tractor form is not antisymmetric")

    @property
    def data(self):
        return self.value.data

    @property
    def degree(self):
        return self.value.rank


# --------------------------------------------------------------------------
# slot helpers
# --------------------------------------------------------------------------

def pair_flip(arr, axis):
    """Invariant up/down tractor pairing along ``axis`` (sigma/rho swap)."""
    return tensors._tr_flip(arr, axis)


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


def tractor_metric(geo: GeometrySpec, x):
    """(h_AB, h^AB) as TractorObjects at x."""
    pack = curvature_pack(geo, x, order=2)
    n = geo.n
    lo = TractorObject(TensorValue(tractor_metric_matrix(pack.g),
                                   (tractor_down(n), tractor_down(n))), geo)
    hi = TractorObject(TensorValue(tractor_metric_matrix(pack.gi),
                                   (tractor_up(n), tractor_up(n))), geo)
    return lo, hi


# --------------------------------------------------------------------------
# connection coefficients
# --------------------------------------------------------------------------

class ConnData:
    """Connection data at a point, for tangent and tractor indices.

    ``P`` is the Schouten tensor entering the tractor connection; ``dP``/
    ``dGamma`` enable second covariant derivatives.
    """

    def __init__(self, n, g, gi, Gamma, P=None, dg=None, dGamma=None, dP=None):
        self.n = n
        self.g = g
        self.gi = gi
        self.Gamma = Gamma
        self.P = P
        self.dg = dg
        self.dGamma = dGamma
        self.dP = dP

    @classmethod
    def from_pack(cls, pack: CurvaturePack):
        if pack.n == 2 and pack.P is None:
            P = None
        else:
            P = pack.P
        return cls(pack.n, pack.g, pack.gi, pack.Gamma, P=P, dg=pack.dg,
                   dGamma=pack.dGamma, dP=pack.dP)

    def _require_P(self):
        if self.P is None:
            raise MobiusStructureError(
                "tractor connection needs a Schouten tensor; supply a "
                "Moebius structure for 2-dimensional geometries")

    def matrix(self, index: Index):
        """M[a, new, old] with (nabla_a T)[new] += M[a,new,old] T[old]."""
        n = self.n
        if index.kind == tensors.TANGENT:
            if index.variance == tensors.UP:
                return self.Gamma.transpose(1, 0, 2)
            return -self.Gamma.transpose(1, 2, 0)
        self._require_P()
        N = n + 2
        M = np.zeros((n, N, N))
        P, g, gi = self.P, self.g, self.gi
        Pmix = P @ gi  # P_a{}^b
        if index.variance == tensors.DOWN:
            M[:, 0, 1:n + 1] = -np.eye(n)
            M[:, 1:n + 1, 0] = P
            M[:, 1:n + 1, n + 1] = g
            M[:, n + 1, 1:n + 1] = -Pmix
            # Levi-Civita action on the middle (covector) slot
            M[:, 1:n + 1, 1:n + 1] += -self.Gamma.transpose(1, 2, 0)
        else:
            M[:, 0, 1:n + 1] = -g
            M[:, 1:n + 1, 0] = Pmix
            M[:, 1:n + 1, n + 1] = np.eye(n)
            M[:, n + 1, 1:n + 1] = -P
            M[:, 1:n + 1, 1:n + 1] += self.Gamma.transpose(1, 0, 2)
        return M

    def dmatrix(self, index: Index):
        """d_e M[a,new,old] -> [a, new, old, e]."""
        n = self.n
        if index.kind == tensors.TANGENT:
            if self.dGamma is None:
                raise tensors.JetOrderError("second derivatives need dGamma")
            if index.variance == tensors.UP:
                return self.dGamma.transpose(1, 0, 2, 3)
            return -self.dGamma.transpose(1, 2, 0, 3)
        self._require_P()
        if self.dP is None or self.dg is None or self.dGamma is None:
            raise tensors.JetOrderError(
                "second tractor derivatives need the metric 3-jet (dP)")
        N = n + 2
        dM = np.zeros((n, N, N, n))
        dgi = -np.einsum("ce,efa,fd->cda", self.gi, self.dg, self.gi)
        dPmix = (np.einsum("ace,cb->abe", self.dP, self.gi)
                 + np.einsum("ac,cbe->abe", self.P, dgi))
        if index.variance == tensors.DOWN:
            dM[:, 1:n + 1, 0, :] = self.dP
            dM[:, 1:n + 1, n + 1, :] = self.dg
            dM[:, n + 1, 1:n + 1, :] = -dPmix
            dM[:, 1:n + 1, 1:n + 1, :] += -self.dGamma.transpose(1, 2, 0, 3)
        else:
            dM[:, 0, 1:n + 1, :] = -self.dg
            dM[:, 1:n + 1, 0, :] = dPmix
            dM[:, n + 1, 1:n + 1, :] = -self.dP
            dM[:, 1:n + 1, 1:n + 1, :] += self.dGamma.transpose(1, 0, 2, 3)
        return dM


def _apply_axis(M_a, arr, axis):
    """Contract M[a,new,old] against ``axis`` of arr; result gains a
    trailing a-axis and keeps the new index at ``axis``."""
    moved = np.moveaxis(arr, axis, -1)
    out = np.einsum("ane,...e->...na", M_a, moved)
    return np.moveaxis(out, -2, axis)


def covariant_jet(conn: ConnData, jets, indices, order=1):
    """Covariant derivatives of a field from its partial-derivative jets.

    Returns [nabla T] or [nabla T, nabla nabla T]; each covariant derivative
    appends one trailing down-tangent axis (innermost derivative first).
    """
    T, dT = jets[0], jets[1]
    mats = [conn.matrix(ix) for ix in indices]
    nab = np.array(dT)
    for k, M in enumerate(mats):
        nab += _apply_axis(M, T, k)
    out = [nab]
    if order >= 2:
        d2T = jets[2]
        dmats = [conn.dmatrix(ix) for ix in indices]
        # d_a (nabla_b T): partial derivative of the first covariant deriv
        dnab = np.array(d2T)  # axes [..., b, a]
        for k, (M, dM) in enumerate(zip(mats, dmats)):
            t1 = np.einsum("bnea,...e->...nba", dM, np.moveaxis(T, k, -1))
            dnab += np.moveaxis(t1, -3, k)
            # moveaxis puts the original value axis after the derivative axis
            t2 = np.einsum("bne,...ae->...nba", M, np.moveaxis(dT, k, -1))
            dnab += np.moveaxis(t2, -3, k)
        # correction terms on nabla T (original indices + the b axis)
        nab2 = dnab
        for k, M in enumerate(mats):
            nab2 = nab2 + _apply_axis(M, nab, k)
        # the derivative index b is tangent-down
        Mb = conn.matrix(tensors.Index(tensors.TANGENT, tensors.DOWN, conn.n))
        nab2 = nab2 + _apply_axis(Mb, nab, nab.ndim - 1)
        out.append(nab2)
    return out


def _field_pack(geo, x, indices, order_needed):
    has_tractor = any(ix.kind == tensors.TRACTOR for ix in indices)
    pack_order = 3 if (has_tractor and order_needed >= 2) else 2
    pack = curvature_pack(geo, x, order=pack_order)
    return pack


def tractor_connection_apply(geo: GeometrySpec, handle: FieldHandle, x,
                             direction=None):
    """Coupled tractor-Levi-Civita derivative of a tractor tensor field.

    Returns a TractorObject with one extra trailing down tangent index, or
    its contraction with ``direction`` when given.
    """
    x = np.asarray(x, dtype=float)
    pack = _field_pack(geo, x, handle.indices, 1)
    conn = ConnData.from_pack(pack)
    jets = handle.field.jets(x, 1)
    nab = covariant_jet(conn, jets, handle.indices, order=1)[0]
    ixs = handle.indices + (tangent_down(geo.n),)
    if direction is not None:
        nab = np.tensordot(nab, np.asarray(direction, float), axes=([-1], [0]))
        ixs = handle.indices
    return TractorObject(TensorValue(nab, ixs, handle.weight), geo)


def thomas_D(geo: GeometrySpec, handle: FieldHandle, w, x):
    """Thomas operator on a weight-w (tractor) field, in the working scale.

    Slots: ((n+2w-2) w V, (n+2w-2) nabla_a V, -(Laplacian V + w J V)) with the
    new down tractor index leading.
    """
    x = np.asarray(x, dtype=float)
    n = geo.n
    pack = _field_pack(geo, x, handle.indices, 2)
    if pack.J is None:
        raise MobiusStructureError("Thomas operator needs a Schouten tensor")
    conn = ConnData.from_pack(pack)
    jets = handle.field.jets(x, 2)
    nab, nab2 = covariant_jet(conn, jets, handle.indices, order=2)
    lap = np.einsum("ba,...ba->...", pack.gi, nab2)
    V = jets[0]
    c = n + 2 * w - 2
    out_shape = (n + 2,) + V.shape
    out = np.zeros(out_shape)
    out[0] = c * w * V
    out[1:n + 1] = c * np.moveaxis(nab, -1, 0)
    out[n + 1] = -(lap + w * pack.J * V)
    ixs = (tractor_down(n),) + handle.indices
    return TractorObject(TensorValue(out, ixs, handle.weight - 1), geo)


def scale_tractor(geo: GeometrySpec, x):
    """Scale tractor of the working scale: (1, 0, -J/n)."""
    pack = curvature_pack(geo, x, order=2)
    if pack.J is None:
        raise MobiusStructureError("scale tractor needs a Schouten tensor")
    n = geo.n
    comp = make_tractor(n, sigma=1.0, rho=-pack.J / n)
    return TractorObject(TensorValue(comp, (tractor_up(n),), 0), geo)


def scale_tractor_field(geo: GeometrySpec) -> FieldHandle:
    n = geo.n

    def fn(x):
        return scale_tractor(geo, x).data

    return FieldHandle(ArrayField(fn, backend=tensors.DiffBackend()),
                       (tractor_up(n),), 0)


def tractor_curvature(geo: GeometrySpec, x):
    """Curvature of the tractor connection, slots W_abcd Z Z - 2 C_abc X|Z|.

    Returned with index order [a, b, C, D], both tractor indices down.
    """
    x = np.asarray(x, dtype=float)
    n = geo.n
    if n < 3:
        raise MobiusStructureError("tractor curvature needs ambient dim >= 3")
    pack = curvature_pack(geo, x, order=3)
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
    ixs = (tangent_down(n), tangent_down(n), tractor_down(n), tractor_down(n))
    return TractorObject(TensorValue(Om, ixs, 0), geo)


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
    N = n + 2
    e0 = np.zeros(N)
    e0[0] = 1.0
    return alt_array(np.multiply.outer(e0, embed_middle(omega, n)))


def form_X(omega, n):
    N = n + 2
    eR = np.zeros(N)
    eR[N - 1] = 1.0
    return alt_array(np.multiply.outer(eR, embed_middle(omega, n)))


def form_Z(omega, n):
    return embed_middle(omega, n)


def form_W(omega, n):
    N = n + 2
    e0 = np.zeros(N)
    e0[0] = 1.0
    eR = np.zeros(N)
    eR[N - 1] = 1.0
    core = np.multiply.outer(eR, np.multiply.outer(e0, embed_middle(omega, n)))
    return alt_array(core)


def tractor_volume_form(geo: GeometrySpec, x, pack=None):
    """Parallel top-degree tractor form, normalised to eps.eps = -(n+2)!.

    ``pack`` is an order-2 curvature pack of ``geo`` at x, built when None."""
    pack = pack if pack is not None else curvature_pack(geo, x, order=2)
    n = geo.n
    lam = (-1.0) ** (n + 1) * math.sqrt(pack.detg) * pack.orientation
    data = lam * levi_civita_symbol(n + 2)
    ixs = tuple(tractor_down(n) for _ in range(n + 2))
    return TractorFormObject(TensorValue(data, ixs, 0), geo)


class _VolumeFormField(ArrayField):
    """The tractor volume form as a field, with the analytic first
    derivative d_a sqrt(det g) = 1/2 sqrt(det g) g^{bc} d_a g_bc."""

    def __init__(self, geo: GeometrySpec):
        self.geo = geo
        self.sym = levi_civita_symbol(geo.n + 2)
        super().__init__(lambda x: self.jets(x, 0)[0],
                         backend=tensors.DiffBackend(mode=tensors.ANALYTIC,
                                                     max_order=1))

    def jets(self, x, order):
        if order > self.backend.max_order:
            raise tensors.JetOrderError(
                "the volume-form field has first derivatives only")
        n = self.geo.n
        pack = curvature_pack(self.geo, x, order=2)
        lam = (-1.0) ** (n + 1) * math.sqrt(pack.detg) * pack.orientation
        out = [lam * self.sym]
        if order == 1:
            dsqrt = 0.5 * np.einsum("bc,bca->a", pack.gi, pack.dg)
            out.append(np.multiply.outer(self.sym, lam * dsqrt))
        return out


def tractor_volume_form_field(geo: GeometrySpec) -> FieldHandle:
    """Volume-form field with an analytic first derivative."""
    n = geo.n
    return FieldHandle(_VolumeFormField(geo),
                       tuple(tractor_down(n) for _ in range(n + 2)), 0)


def hodge_star(F: TractorFormObject, x, pack=None):
    """Tractor Hodge star at chart point x: degree k -> degree n+2-k.

    ``pack`` is an order-2 curvature pack of ``F.geo`` at x, built when
    None."""
    geo = F.geo
    x = np.asarray(x, dtype=float)
    pack = pack if pack is not None else curvature_pack(geo, x, order=2)
    n = geo.n
    k = F.degree
    eps = tractor_volume_form(geo, x, pack=pack).data
    R = middle_block(pack.gi)
    for ax in range(k):
        eps = np.moveaxis(np.tensordot(R, eps, axes=([1], [ax])), 0, ax)
    Fd = F.data
    for ax in range(k):
        Fd = tensors._tr_flip(Fd, ax)
    out = np.tensordot(Fd, eps, axes=(list(range(k)), list(range(k))))
    out /= math.factorial(k)
    ixs = tuple(tractor_down(n) for _ in range(n + 2 - k))
    return TractorFormObject(TensorValue(out, ixs, F.value.weight), geo)


def wedge(a, b):
    """(p+q)!/(p!q!) Alt(a x b) on plain arrays."""
    p, q = a.ndim, b.ndim
    coef = math.factorial(p + q) / (math.factorial(p) * math.factorial(q))
    return coef * alt_array(np.multiply.outer(a, b))


# --------------------------------------------------------------------------
# parallel transport
# --------------------------------------------------------------------------

def parallel_transport(geo: GeometrySpec, curve, T0: TractorObject,
                       t0=0.0, t1=1.0, steps=200):
    """Transport T0 along ``curve(t)`` by solving nabla_u T = 0 with RK4.

    ``curve`` must be callable; velocities are obtained by central
    differences of the curve at the RK stage times.
    """
    comp = np.array(T0.data, dtype=float)
    idxs = T0.indices
    h = (t1 - t0) / steps
    dt = 1e-6 * max(1.0, abs(t1 - t0))

    def velocity(t):
        return (np.asarray(curve(t + dt)) - np.asarray(curve(t - dt))) / (2 * dt)

    def rhs(t, T):
        x = np.asarray(curve(t), dtype=float)
        pack = curvature_pack(geo, x, order=2)
        conn = ConnData.from_pack(pack)
        u = velocity(t)
        dT = np.zeros_like(T)
        for k, ix in enumerate(idxs):
            M = np.einsum("a,ane->ne", u, conn.matrix(ix))
            dT -= np.moveaxis(
                np.einsum("ne,...e->...n", M, np.moveaxis(T, k, -1)), -1, k)
        return dT

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
    return TractorObject(TensorValue(comp, idxs, T0.value.weight), geo)


# --------------------------------------------------------------------------
# conformal-change bookkeeping (for invariance tests)
# --------------------------------------------------------------------------

def rescale_triple_matrix(pack, upsilon, variance="down"):
    """Matrix relating scale-g tractor slots to scale-(Omega^2 g) slots.

    Acts on trivialised components of an unweighted tractor; slot weights
    (1, 1, -1) are included, so hatted components are M @ components.
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
    if variance == "up":
        # raise middle index: mu^a transforms with Upsilon^a
        Mu = np.array(M)
        Mu[1:n + 1, 0] = ups_up
        Mu[n + 1, 1:n + 1] = -ups
        M = Mu
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
