"""Second routes to what the program computes, and test fixtures, kept
beside the tests that read them.

The finite-difference routes that exact first jets replaced: ``along``
is the covariant derivative along Sigma of a quantity built at each point
of a Richardson stencil (step 1e-2) of whole contexts
(``submanifold.SigmaField``); ``stencil_normal_curvature`` is the nested
stencil the normal curvatures of both Ricci residuals took: a Richardson
stencil of submanifold packs around a plain stencil (step 1e-4) of
``normal_frame``.  ``stencil_mobius_cotton`` is the Moebius Cotton tensor,
and ``stencil_D_of_S`` and ``stencil_coupled_D_of_L`` are D S and D L of
the tractor Gauss and Codazzi residuals, by ``along``.
``stencil_normality`` is the tractor derivative of the BGG splitting
tractor from its central difference (step 1e-3), and
``conserved_quantity_value`` the builder of K . N that ``along``
differentiated for the conserved quantity.  ``intrinsic_geometry`` is the
induced metric as a field, the reference for a context's intrinsic packs.

Equivalent characterisations the source paper proves, each a function of a
``SubTractorContext``: the difference-tractor identity
(``checked_connection_residual``, which projects with ``pull_up``, a left
inverse of the context's ``push_up``), L rebuilt from (IIo, mu)
(``reconstruct_L``), the M operator (``M_operator``), and the derivatives
along Sigma of the normal tractor form and of its Hodge dual
(``nabla_normal_form``, ``nabla_star_normal_form``): Sigma is distinguished
iff the normal form is parallel.

The circle integrator's DOP853 steps by scipy's ``solve_ivp``
(``solve_ivp_dop853``), the route it took before it stepped itself.

The (anti)symmetrisers as the loop of ``np.moveaxis`` over
``itertools.permutations`` that ``tensors.alt_array`` and
``tensors.sym_array`` replaced with cached transposes
(``moveaxis_alt_array``, ``moveaxis_sym_array``).

The oriented volume form of a curvature pack (``volume_form``), the
tractor connection applied to a field from its 1-jet
(``tractor_connection_apply``), the tractor volume form as a field with an
analytic first derivative (``TractorVolumeFormField``), on which the
1e-8 bound of ``test_volume_form_parallel`` rests, and the closed form of
u^d nabla_d Phi along a curve (``phi_derivative``).

The rotation monitor of one Killing 2-form that computes its own volume
form and curve tractors at each output point (``rotation_monitor``), the
route the flat-circle preset's monitors took before they shared them.

Fixtures: ``random_metric``, a flat metric plus a small random polynomial
perturbation, ``constant_scalar``, the constant jet ``constant`` and
``pack_fields``, the names of every field a curvature pack holds or
computes when read.
"""
import dataclasses
import functools
import itertools
import math

import numpy as np
from scipy.integrate import solve_ivp

from tractorlab import circles
from tractorlab import tractor as tr
from tractorlab.circles import _bold_rate
from tractorlab.firstint import _split_components
from tractorlab.geolib import JetField, PolynomialField
from tractorlab.jets import Jet
from tractorlab.riemann import (CurvaturePack, GeometrySpec, curvature_pack,
                                levi_civita_symbol, metric_connection)
from tractorlab.submanifold import (PullbackMetricField, SigmaConn,
                                    SigmaField, normal_frame,
                                    submanifold_pack)
from tractorlab.subtractor import SubTractorContext, tractor_conormal_rows
from tractorlab.tensors import (ANALYTIC, ArrayField, DiffBackend,
                                JetOrderError, _perm_sign, alt_array,
                                central_diff, middle_block, on_axes,
                                pairing_matrix, tangent_down, tangent_up,
                                tractor_down, tractor_metric_matrix,
                                tractor_up)


def along(ctx, builder, indices):
    """``ctx.along_exact`` of ``builder(c)`` (axes carrying ``indices``)
    and its Richardson difference (``SigmaField``), ``c`` the context at
    each stencil point (``ctx`` at its own pack): [i, ...]."""
    geo, emb = ctx.geo, ctx.emb

    def context(pk):
        return (ctx if pk is ctx.sub
                else SubTractorContext(geo, emb, pk.q, sub=pk))
    v0, dv, _ = SigmaField(geo, emb,
                           lambda pk: builder(context(pk))).jet1(ctx.q)
    return ctx.along_exact(v0, dv, indices)


def stencil_normality(geo, kspec, x):
    """The tractor covariant derivative of the BGG splitting tractor K at
    x from its central difference (step 1e-3), the stencil's curvature
    packs from one stacked build: [A.., a]."""
    x = np.asarray(x, dtype=float)
    pack = curvature_pack(geo, x, order=2)
    K = _split_components(geo, kspec, x, pack)

    def K_at(Y):
        pks = curvature_pack(geo, Y, order=2)
        return np.stack([_split_components(geo, kspec, y, pks.at(i))
                         for i, y in enumerate(Y)])
    dK = central_diff(K_at, x, 1e-3)
    return tr.covariant_jet(tr.ConnData.from_pack(pack), [K, dK],
                            (tractor_down(geo.n),) * K.ndim)[0]


def conserved_quantity_value(geo, kspec):
    """K . N at a context, the conserved quantity's value as the pairing
    of K and the normal form through the inverse tractor metric, with K on
    the context's order-2 pack: a builder for ``along``."""
    def value(c):
        K = _split_components(geo, kspec, c.sub.x, c.pack)
        H = tractor_metric_matrix(c.pack.gi)
        return float(np.tensordot(on_axes(H, K, range(K.ndim)),
                                  normal_form(c), K.ndim))
    return value


def intrinsic_geometry(geo, emb):
    """The induced metric of ``emb`` in ``geo`` as a geometry whose metric
    is a field (``PullbackMetricField``): the reference that
    ``curvature_pack`` of a context's intrinsic pack is checked against."""
    return GeometrySpec(n=emb.m, metric=PullbackMetricField(geo, emb),
                        orientation=emb.orientation)


def stencil_normal_curvature(geo, emb, sub, frames, index, order):
    """Curvature of a normal bundle of ``emb`` in ``geo`` at the point of
    its pack ``sub``, [i, j, C, E] acting on up components.

    ``frames(conormals, normals, H, gi)`` maps the normal frame and g^-1,
    at a point or stacked, to the frame rows [alpha, C] (C is ``index``)
    and the dual coframe rows [alpha, E]; it reads the embedding's
    ``order``-jet (1 for the normals, 2 for H).  omega_i = coframe (d_i +
    conn_i) frame takes d_i from a plain central difference (step 1e-4):
    one ``normal_frame`` call at that order, seeds frozen at ``sub``'s.
    Its curvature takes a Richardson one (step 1e-2) of the submanifold
    packs a ``SigmaField`` at ``sub.q`` differences, their fields stacked
    once; at ``sub.q`` it reads ``sub``.  R_ij is antisymmetric in i, j,
    so a curve's is zero, with no stencil."""
    if sub.m == 1:
        return np.zeros((1, 1, index.dim, index.dim))
    orientation = geo.orientation * emb.orientation

    def frame(Z):
        ph = emb.phi.jets(Z, order)
        g, gi, Gamma, _ = metric_connection(geo, ph[0], order - 1)
        fr = normal_frame(g, gi, ph[1], orientation, sub.seeds, Gamma,
                          *ph[2:])
        return frames(fr["conormals"], fr["normals"], fr.get("H"), gi)[0]

    def read(field, ambient):
        """Frame, coframe and ``SigmaConn`` from ``field(name)`` and
        ``ambient(name)``, the fields of a pack and of its ambient pack."""
        fr, cofr = frames(field("conormals"), field("normals"), field("H"),
                          ambient("gi"))
        conn = tr.ConnData(geo.n, *map(ambient, ("g", "gi", "Gamma", "P")))
        return fr, cofr, SigmaConn(conn, field("dphi"))

    def omega(Y, fr, cofr, conn):
        """omega at a point Y, or at each row of a stack Y."""
        dV = central_diff(frame, Y, 1e-4)
        nab = np.moveaxis(dV, -1, -3) + np.einsum(
            "...ice,...be->...ibc", conn.matrix(index), fr)
        return np.einsum("...ac,...ibc->...iab", cofr, nab)

    def omega_stacked(Y):
        pks = submanifold_pack(geo, emb, Y, seeds=sub.seeds)
        return omega(Y, *read(
            lambda k: np.stack([getattr(pk, k) for pk in pks]),
            lambda k: np.stack([getattr(pk.pack, k) for pk in pks])))

    base = read(lambda k: getattr(sub, k), lambda k: getattr(sub.pack, k))
    om0 = omega(sub.q, *base)
    # dw[p, q] = partial_p omega_q, C-contiguous like the einsum terms
    dw = np.ascontiguousarray(np.moveaxis(central_diff(
        omega_stacked, sub.q, 1e-2, richardson=True), -1, 0))
    Rfr = (dw - dw.transpose(1, 0, 2, 3)
           + np.einsum("iae,jeb->ijab", om0, om0)
           - np.einsum("jae,ieb->ijab", om0, om0))
    return np.einsum("ec,ijef,fd->ijcd", base[0], Rfr, base[1])


def stencil_riemannian_curvature(ctx):
    """Rperp_ij^c_d of the Riemannian normal frame (the normals and their
    conormals), seeds frozen at the context's."""
    return stencil_normal_curvature(ctx.geo, ctx.emb, ctx.sub,
                                    lambda conormals, normals, H, gi:
                                    (normals, conormals),
                                    tangent_up(ctx.n), 1)


def stencil_tractor_curvature(ctx):
    """The normal tractor curvature [i, j, C, E] from the tractor conormal
    frame (0, n_a, n.H), which reads H."""
    Jamb = pairing_matrix(ctx.n)

    def frames(conormals, normals, H, gi):
        """The raised tractor conormal rows and their J-duals."""
        T = tractor_conormal_rows(conormals, H)
        return T @ middle_block(gi), T @ Jamb
    return stencil_normal_curvature(ctx.geo, ctx.emb, ctx.sub, frames,
                                    tractor_up(ctx.n), 2)


def stencil_mobius_cotton(ctx):
    """c_ijk = 2 D_[i p_j]k (m = 2) from the Richardson difference of the
    induced Schouten tensor p over whole contexts."""
    covdp = along(ctx, lambda c: c.fialkow()[1], (tangent_down(ctx.m),) * 2)
    return covdp - covdp.transpose(1, 0, 2)


def stencil_D_of_S(ctx):
    """D_i S_jKL [i, j, K, L] from the Richardson difference of the
    difference tractor over whole contexts."""
    m = ctx.m
    return along(ctx, lambda c: c.difference_tractor(),
                 (tangent_down(m), tractor_down(m), tractor_down(m)))


def stencil_coupled_D_of_L(ctx):
    """D_i L_jL^C [i, j, L, C] from the Richardson difference of L over
    whole contexts, with the normal tractor connection on the ambient
    index: the whole derivative projected by N^C_A, since the bundle
    rotates (the intrinsic terms are normal-valued already, as L is)."""
    m = ctx.m
    DL = along(ctx, lambda c: c.L_explicit(),
               (tangent_down(m), tractor_down(m), tractor_up(ctx.n)))
    Nact = ctx.normal_projector() @ pairing_matrix(ctx.n)
    return np.einsum("CA,ijLA->ijLC", Nact, DL)


# --------------------------------------------------------------------------
# the paper's characterisations, as functions of a context
# --------------------------------------------------------------------------

def pull_up(ctx):
    """Ambient up slots -> intrinsic up slots (projection then iso)."""
    sub, m, n = ctx.sub, ctx.m, ctx.n
    Q = np.zeros((m + 2, n + 2))
    Q[0, 0] = 1.0
    # Pi^i_a, the orthogonal projection onto T Sigma
    Q[1:m + 1, 1:n + 1] = sub.gi_s @ sub.dphi.T @ sub.pack.g
    Q[m + 1, 0] = -0.5 * float(sub.H @ sub.pack.g @ sub.H)
    Q[m + 1, 1:n + 1] = -(sub.pack.g @ sub.H)
    Q[m + 1, n + 1] = 1.0
    return Q


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

    nabW = along(ctx, lambda c: c.push_up() @ V_at(c.q),
                 (tractor_up(ctx.n),))
    lhs = np.einsum("JB,iB->iJ", pull_up(ctx), nabW)
    DV = tr.covariant_jet(ctx.intrinsic_conn(), [c0, c1],
                          (tractor_up(m),))[0].T

    S = ctx.difference_tractor()
    Sact = np.einsum("JK,iKL->iJL", middle_block(ctx.sub.gi_s),
                     S) @ pairing_matrix(m)
    SV = np.einsum("iJL,L->iJ", Sact, V_at(ctx.q))
    res = lhs - DV - SV
    return float(np.abs(res).max()), float(np.abs(lhs).max())


def reconstruct_L(ctx):
    """L from (IIo, mu); the m = 1 branch falls back to the slot formula."""
    if ctx.m == 1:
        return ctx.L_explicit()
    return ctx.L_slots(ctx.sub.IIo, ctx.mu() - ctx.DjIIo() / (ctx.m - 1))


def M_operator(ctx, omega_builder):
    """Invariant map taking a trace-free symmetric normal-valued field to an
    L-shaped tractor."""
    if ctx.m < 2:
        raise ValueError("the 1/(m-1) factor is undefined for curves")
    om0 = np.asarray(omega_builder(ctx.sub), dtype=float)
    Dj = ctx._normal_divergence(along(ctx, lambda c: omega_builder(c.sub),
                                      ctx._normal_indices()))
    return ctx.L_slots(om0, -Dj / (ctx.m - 1))


def normal_form(ctx):
    """The tractor normal form of a context: the wedge of its orthonormal
    tractor conormals (0, n_a, n.H), every index down."""
    return functools.reduce(tr.wedge, tractor_conormal_rows(ctx.sub.conormals,
                                                           ctx.sub.H))


def star_normal_form(ctx):
    """The tractor Hodge dual of the context's normal form."""
    return tr.hodge_star(ctx.geo, normal_form(ctx), ctx.sub.x)


def nabla_normal_form(ctx):
    """nabla_i N_{A1..Ad} along Sigma (pullback tractor connection)."""
    return along(ctx, normal_form, (tractor_down(ctx.n),) * ctx.d)


def nabla_star_normal_form(ctx):
    return along(ctx, star_normal_form, (tractor_down(ctx.n),) * (ctx.m + 2))


# --------------------------------------------------------------------------
# tractor fields and curve tractors
# --------------------------------------------------------------------------

def tractor_connection_apply(geo, field, indices, x):
    """Coupled tractor-Levi-Civita derivative of a tractor tensor field
    whose value axes are ``indices``: the components with one extra
    trailing down tangent index."""
    x = np.asarray(x, dtype=float)
    pack = curvature_pack(geo, x, order=2)
    conn = tr.ConnData.from_pack(pack)
    return tr.covariant_jet(conn, field.jets(x, 1), indices, order=1)[0]


class TractorVolumeFormField(ArrayField):
    """The tractor volume form as a field, every index down, with the
    analytic first derivative d_a sqrt(det g) = 1/2 sqrt(det g) g^{bc} d_a
    g_bc."""

    def __init__(self, geo):
        self.geo = geo
        self.sym = levi_civita_symbol(geo.n + 2)
        super().__init__(lambda x: self.jets(x, 0)[0],
                         backend=DiffBackend(mode=ANALYTIC, max_order=1))

    def jets(self, x, order):
        if order > self.backend.max_order:
            raise JetOrderError(
                "the volume-form field has first derivatives only")
        n = self.geo.n
        pack = curvature_pack(self.geo, x, order=2)
        lam = (-1.0) ** (n + 1) * math.sqrt(pack.detg) * pack.orientation
        out = [lam * self.sym]
        if order == 1:
            dsqrt = 0.5 * np.einsum("bc,bca->a", pack.gi, pack.dg)
            out.append(np.multiply.outer(self.sym, lam * dsqrt))
        return out


def volume_form(pack):
    """The oriented volume form sqrt(det g) eps_{a..} of a curvature pack
    at one point."""
    lam = math.sqrt(pack.detg) * pack.orientation
    return lam * levi_civita_symbol(pack.n)


def phi_derivative(geo, state, cov_da=None):
    """u^d nabla_d Phi^{ABC} from the closed form
    6 u (bu^d nabla_d bold-a^c - bu^d P_d^c) bu^b X^[A Z_b^B Z_c^C]."""
    n = geo.n
    pk = curvature_pack(geo, state.x, order=2)
    core, bu, un = _bold_rate(geo, state, cov_da, pk)
    X = tr.canonical_X(n)
    embu = tr.make_tractor(n, mu=bu)
    embc = tr.make_tractor(n, mu=core)
    return 6.0 * un * alt_array(np.multiply.outer(
        X, np.multiply.outer(embu, embc)))


def rotation_monitor(kspec):
    """<star K, Phi>/3! of the Killing 2-form ``kspec`` as a monitor
    ``fn(geo, state, pack)``, every array computed by the monitor itself."""
    def monitor(geo, state, pack):
        K = _split_components(geo, kspec, state.x, pack)
        starK = tr.hodge_star(geo, K, state.x, pack=pack)
        _, _, acc = circles.curve_tractors(geo, state, pack=pack)
        for ax in range(3):
            acc = tr.pair_flip(acc, ax)
        return float(np.tensordot(starK, acc, axes=(range(3), range(3)))) / 6.0
    return monitor


def solve_ivp_dop853(fun, t_span, y0, t_eval, rtol, atol, event=None):
    """``circles._dop853`` by ``solve_ivp``: (t, y, status, message) with
    ``event``, if any, terminal."""
    events = None
    if event is not None:
        def terminal(t, y):
            return event(t, y)
        terminal.terminal = True
        events = [terminal]
    sol = solve_ivp(fun, t_span, y0, method="DOP853", t_eval=t_eval,
                    rtol=rtol, atol=atol, events=events)
    return sol.t, sol.y, sol.status, sol.message


def moveaxis_alt_array(data, axes=None):
    axes = tuple(range(data.ndim)) if axes is None else tuple(axes)
    out = np.zeros_like(data)
    k = len(axes)
    for perm in itertools.permutations(range(k)):
        out += _perm_sign(perm) * np.moveaxis(data, axes,
                                              tuple(axes[p] for p in perm))
    return out / math.factorial(k)


def moveaxis_sym_array(data, axes=None):
    axes = tuple(range(data.ndim)) if axes is None else tuple(axes)
    out = np.zeros_like(data)
    k = len(axes)
    for perm in itertools.permutations(range(k)):
        out += np.moveaxis(data, axes, tuple(axes[p] for p in perm))
    return out / math.factorial(k)


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------

def pack_fields():
    """The names of a ``CurvaturePack``'s dataclass fields, then of the
    arrays it computes when first read (its cached properties)."""
    return [f.name for f in dataclasses.fields(CurvaturePack)] + [
        name for name, v in vars(CurvaturePack).items()
        if isinstance(v, functools.cached_property)]


def random_metric(n, seed=0, amplitude=0.08):
    """delta plus a small random polynomial perturbation (SPD near 0)."""
    rng = np.random.default_rng(seed)
    lin = amplitude * rng.standard_normal((n, n, n))
    quad = amplitude * rng.standard_normal((n, n, n, n))
    lin = (lin + lin.transpose(1, 0, 2)) / 2
    quad = (quad + quad.transpose(1, 0, 2, 3)) / 2
    return GeometrySpec(n=n, metric=PolynomialField([np.eye(n), lin, quad]))


def constant_scalar(n, value=1.0):
    return JetField(lambda v: value)


def constant(n, value, order):
    """Constant jet: ``value`` with zero derivatives up to ``order``."""
    if order < 0:
        raise ValueError(f"negative jet order {order}")
    return Jet(n, [float(value)] + [np.zeros((n,) * k)
                                    for k in range(1, order + 1)])
