"""The finite-difference routes along Sigma that exact first jets replaced,
kept as the oracles of the exact routes.

``stencil_normal_curvature`` is the nested stencil the normal curvatures of
both Ricci residuals took: a Richardson stencil (step 1e-2) of submanifold
packs around a plain stencil (step 1e-4) of ``normal_frame``.
``stencil_mobius_cotton`` is the Moebius Cotton tensor from the Richardson
difference of whole contexts (``SubTractorContext.along``).
"""
import numpy as np

from tractorlab import tractor as tr
from tractorlab.riemann import metric_connection
from tractorlab.submanifold import SigmaConn, normal_frame, submanifold_pack
from tractorlab.subtractor import tractor_conormal_rows
from tractorlab.tensors import (central_diff, middle_block, pairing_matrix,
                                tangent_down, tangent_up, tractor_up)


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
    covdp = ctx.along(lambda c: c.fialkow()[1], (tangent_down(ctx.m),) * 2)
    return covdp - covdp.transpose(1, 0, 2)
