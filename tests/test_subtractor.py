"""Submanifold tractor calculus tests: the worked examples and theorems."""
import math

import numpy as np
import pytest

from test_jets import _bitwise_equal
from tractorlab import cli, geolib, subtractor
from tractorlab import tractor as tr
from oracles import (M_operator, along, checked_connection_residual,
                     nabla_normal_form, nabla_star_normal_form, normal_form,
                     pull_up, random_metric, reconstruct_L,
                     stencil_coupled_D_of_L, stencil_D_of_S)
from tractorlab.subtractor import (SubTractorContext,
                                   _normal_projector_partial, classify,
                                   intrinsic_tractor_curvature,
                                   mean_curvature_tractor,
                                   normal_projector_array,
                                   tractor_gcr_residuals)
from tractorlab.tensors import (JetOrderError, alt_array, middle_block,
                                pairing_matrix, tangent_down, tractor_down,
                                tractor_metric_matrix, tractor_up)


@pytest.fixture(scope="module")
def graph_ctx():
    geo = random_metric(4, seed=3)
    emb = geolib.random_graph_embedding(4, 2, seed=5)
    return SubTractorContext(geo, emb, np.array([0.05, -0.08]))


def test_normal_projector_identities(graph_ctx):
    ctx = graph_ctx
    N = ctx.normal_projector()
    J = pairing_matrix(ctx.n)
    assert np.abs(N @ J @ N - N).max() < 1e-9
    X = tr.canonical_X(ctx.n)
    assert np.abs(N @ (J @ X)).max() < 1e-12
    # symmetric once lowered: N_{AB} components are (lower @ N)
    low = np.eye(ctx.n + 2)
    low[1:ctx.n + 1, 1:ctx.n + 1] = ctx.pack.g
    NL = low @ N
    assert np.abs(NL - NL.T).max() < 1e-9
    # rank d
    assert np.linalg.matrix_rank(N @ J, tol=1e-8) == ctx.d


def test_normal_projector_flat_hyperplane_block():
    geo = geolib.euclidean(4)
    emb = geolib.coordinate_slice(4, (0, 1, 2))
    from tractorlab.submanifold import submanifold_pack
    pk = submanifold_pack(geo, emb, np.array([0.3, -0.2, 0.1]))
    N = normal_projector_array(pk)
    expected = np.zeros((6, 6))
    expected[1:5, 1:5] = pk.Nab
    assert np.abs(N - expected).max() < 1e-12


def test_normal_projector_from_normal_form(graph_ctx):
    ctx = graph_ctx
    J = pairing_matrix(ctx.n)
    Nf = normal_form(ctx)
    R = middle_block(ctx.pack.gi)
    Nup = np.einsum("AC,BD,CD->AB", R, R, Nf)
    NN = np.einsum("AB,AB->", Nup, J @ Nf @ J.T)
    assert NN == pytest.approx(math.factorial(ctx.d), abs=1e-9)
    rec = np.einsum("AC,BC->AB", Nup, Nf @ J.T) / math.factorial(ctx.d - 1)
    assert np.abs(rec - ctx.normal_projector()).max() < 1e-9
    # X hooks to zero
    X = tr.canonical_X(ctx.n)
    assert np.abs(np.tensordot(J @ X, Nf, axes=([0], [0]))).max() < 1e-12


def test_sphere_in_flat_projector_slots():
    geo = geolib.euclidean(3)
    emb = geolib.sphere_in_flat(3, 2.0)
    from tractorlab.submanifold import submanifold_pack
    pk = submanifold_pack(geo, emb, np.array([0.2, -0.3]))
    N = normal_projector_array(pk)
    assert np.abs(N[1:4, 4] - pk.H).max() < 1e-12
    assert np.abs(N[4, 1:4] - pk.pack.g @ pk.H).max() < 1e-12
    assert N[4, 4] == pytest.approx(0.25, abs=1e-10)


def test_L_two_routes_agree(graph_ctx):
    L = graph_ctx.L_explicit()
    resid = float(np.abs(L - graph_ctx.L_dual()).max())
    assert resid < 1e-8
    assert np.abs(L).max() > 0.05


def test_L_zero_for_flat_circle():
    geo = geolib.euclidean(3)
    emb = geolib.circle_embedding(3, radius=1.5)
    ctx = SubTractorContext(geo, emb, np.array([0.7]))
    assert ctx.L_norm() < 1e-10


def test_L_zero_for_s2s2_factor():
    geo = geolib.s2s2()
    emb = geolib.coordinate_slice(4, (0, 1), values=(0, 0, 0.2, -0.4))
    ctx = SubTractorContext(geo, emb, np.array([0.1, 0.3]))
    assert ctx.L_norm() < 1e-9


def test_L_nonzero_for_twisted_slice():
    geo = geolib.twisted_example()
    emb = geolib.coordinate_slice(4, (0, 1))
    ctx = SubTractorContext(geo, emb, np.array([0.3, -0.2]))
    assert ctx.L_norm() > 0.1
    assert ctx.mu()[0, 2] == pytest.approx(-0.5, abs=1e-9)


def test_mu_doubly_warped_vanishes():
    geo = geolib.doubly_warped_example()
    emb = geolib.coordinate_slice(4, (0, 1))
    ctx = SubTractorContext(geo, emb, np.array([0.3, -0.2]))
    assert np.abs(ctx.mu()).max() < 1e-8
    # the intermediate nabla_1 H = e^{-2 x1} (d3 - d1)
    gh = ctx.grad_H()
    e = math.exp(-2 * 0.3)
    assert gh[0, 2] == pytest.approx(e, abs=1e-8)
    assert gh[0, 0] == pytest.approx(-e, abs=1e-8)


def test_mu_zero_for_hypersurfaces():
    geo = random_metric(4, seed=21)
    emb = geolib.random_graph_embedding(4, 3, seed=22)
    mu = SubTractorContext(geo, emb, np.array([0.03, -0.02, 0.05])).mu()
    assert np.abs(mu).max() < 1e-7


def test_mu_weyl_cross_check(graph_ctx):
    mu = graph_ctx.mu()
    resid = float(np.abs(mu - graph_ctx.mu_weyl()).max())
    assert resid < 1e-5
    assert np.abs(mu).max() > 1e-3


def test_fialkow_cp1():
    geo = geolib.fubini_study(2)
    emb = geolib.cp1_slice()
    ctx = SubTractorContext(geo, emb, np.array([0.2, -0.3]))
    F, p, jot = ctx.fialkow()
    assert np.abs(F + ctx.sub.g_s).max() < 1e-10
    # induced Moebius trace equals the Gaussian curvature (4 for CP^1)
    assert jot == pytest.approx(4.0, abs=1e-8)


def test_fialkow_rp2():
    geo = geolib.fubini_study(2)
    emb = geolib.rp2_slice()
    ctx = SubTractorContext(geo, emb, np.array([0.2, -0.3]))
    F, _, _ = ctx.fialkow()
    assert np.abs(F - 0.5 * ctx.sub.g_s).max() < 1e-10


def test_fialkow_s2s2_factor():
    geo = geolib.s2s2()
    emb = geolib.coordinate_slice(4, (0, 1), values=(0, 0, 0.2, -0.4))
    ctx = SubTractorContext(geo, emb, np.array([0.1, 0.3]))
    F, _, _ = ctx.fialkow()
    assert np.abs(F + ctx.sub.g_s / 3).max() < 1e-10


def test_fialkow_weyl_route_m3():
    geo = random_metric(5, seed=30, amplitude=0.05)
    emb = geolib.random_graph_embedding(5, 3, seed=31)
    ctx = SubTractorContext(geo, emb, np.array([0.02, -0.04, 0.06]))
    resid = float(np.abs(ctx.fialkow()[0] - ctx.fialkow_weyl()).max())
    assert resid < 1e-4


def test_special_einstein_product_fialkow_zero():
    geo = geolib.special_einstein_s2h2(1.0)
    emb = geolib.coordinate_slice(4, (0, 1), values=(0, 0, 0.2, -0.1))
    ctx = SubTractorContext(geo, emb, np.array([0.15, 0.1]))
    F, p, jot = ctx.fialkow()
    assert np.abs(F).max() < 1e-9
    # the induced Moebius trace matches the factor's Gaussian curvature
    assert jot == pytest.approx(1.0, abs=1e-8)


def test_checked_connection_oracle():
    geo = random_metric(5, seed=9, amplitude=0.05)
    emb = geolib.random_graph_embedding(5, 3, seed=10)
    res, scale = checked_connection_residual(geo, emb,
                                             np.array([0.03, -0.06, 0.02]))
    assert res < 1e-4
    assert scale > 0.1


def test_difference_tractor_flat_hyperplane():
    geo = geolib.euclidean(4)
    emb = geolib.coordinate_slice(4, (0, 1, 2))
    ctx = SubTractorContext(geo, emb, np.array([0.1, 0.2, -0.1]))
    assert np.abs(ctx.difference_tractor()).max() < 1e-10


def test_difference_tractor_pure_trace_gate():
    # F proportional to g on CP^1, never proportional on the generic product
    geo = geolib.fubini_study(2)
    ctx = SubTractorContext(geo, geolib.cp1_slice(), np.array([0.2, -0.3]))
    F, _, _ = ctx.fialkow()
    trF = np.einsum("ij,ij->", ctx.sub.gi_s, F) / 2
    assert np.abs(F - trF * ctx.sub.g_s).max() < 1e-10
    geoP = geolib.s2xs1xr(1)
    ctxP = SubTractorContext(geoP, geolib.coordinate_slice(4, (0, 1, 2)),
                             np.array([0.1, -0.2, 0.3]))
    FP, _, _ = ctxP.fialkow()
    trFP = np.einsum("ij,ij->", ctxP.sub.gi_s, FP) / 3
    assert np.abs(FP - trFP * ctxP.sub.g_s).max() > 0.05


def test_normal_form_derivative_identity(graph_ctx):
    ctx = graph_ctx
    d = ctx.d
    J = pairing_matrix(ctx.n)
    nabN = nabla_normal_form(ctx)
    Lb = ctx.Lbar()
    LC = np.einsum("iBC,CE->iBE", Lb, J)
    T = np.einsum("iBE,AE->iAB", LC, normal_form(ctx))
    pred = -d * alt_array(T, axes=(1, 2))
    assert np.abs(nabN - pred).max() < 1e-8


def test_normal_form_inversion_identity(graph_ctx):
    ctx = graph_ctx
    J = pairing_matrix(ctx.n)
    R = middle_block(ctx.pack.gi)
    Nf = normal_form(ctx)
    Nup = np.einsum("AC,BD,CD->AB", R, R, Nf)
    inv = np.einsum("CA,iBA->iBC", Nup @ J.T, nabla_normal_form(ctx))
    assert np.abs(inv + math.factorial(ctx.d - 1) * ctx.Lbar()).max() < 1e-8


def test_key_equivalences_covanish():
    """The four vanishing conditions hold together on distinguished cases
    and their norms stay within a bounded ratio on generic ones."""
    distinguished = [
        (geolib.s2s2(), geolib.coordinate_slice(4, (0, 1),
                                                values=(0, 0, 0.2, -0.4)),
         np.array([0.1, 0.3])),
        (geolib.sphere(4), geolib.coordinate_slice(4, (0, 1)),
         np.array([0.2, -0.1])),
        (geolib.doubly_warped_example(), geolib.coordinate_slice(4, (0, 1)),
         np.array([0.3, -0.2])),
    ]
    for geo, emb, q in distinguished:
        ctx = SubTractorContext(geo, emb, q)
        rs = _four_residuals(ctx)
        assert max(rs) < 1e-5, rs
    generic = [
        (random_metric(4, seed=41), geolib.random_graph_embedding(
            4, 2, seed=42), np.array([0.05, -0.02])),
        (geolib.twisted_example(), geolib.coordinate_slice(4, (0, 1)),
         np.array([0.3, -0.2])),
    ]
    for geo, emb, q in generic:
        ctx = SubTractorContext(geo, emb, q)
        rs = _four_residuals(ctx)
        assert min(rs) > 1e-5 * 10
        for a in rs:
            for b in rs:
                assert 1 / 20 <= a / b <= 20, rs


def _four_residuals(ctx):
    nL = ctx.L_norm()
    nN = float(np.abs(ctx.nabla_normal_projector()).max())
    nF = float(np.abs(nabla_normal_form(ctx)).max())
    nS = float(np.abs(nabla_star_normal_form(ctx)).max())
    return [nL, nN, nF, nS]


def test_reconstruct_L(graph_ctx):
    ctx = graph_ctx
    assert np.abs(reconstruct_L(ctx) - ctx.L_explicit()).max() < 1e-4


def test_reconstruct_trivial_and_hypersurface():
    geo = geolib.s2s2()
    emb = geolib.coordinate_slice(4, (0, 1), values=(0, 0, 0.2, -0.4))
    ctx = SubTractorContext(geo, emb, np.array([0.1, 0.3]))
    assert np.abs(reconstruct_L(ctx)).max() < 1e-9
    geoh = random_metric(4, seed=55)
    embh = geolib.random_graph_embedding(4, 3, seed=56)
    ctxh = SubTractorContext(geoh, embh, np.array([0.02, -0.03, 0.04]))
    assert np.abs(reconstruct_L(ctxh) - ctxh.L_explicit()).max() < 1e-5


def test_M_operator_matches_L_slots(graph_ctx):
    # applying the invariant map to IIo must reproduce the IIo-driven slots
    ctx = graph_ctx
    L_M = M_operator(ctx, lambda pk: pk.IIo)
    L = ctx.L_explicit()
    m, n = ctx.m, ctx.n
    assert np.abs(L_M[:, 1:m + 1, :] - L[:, 1:m + 1, :]).max() < 1e-8
    # and mu is the projecting part of the difference
    diff = L - L_M
    xz = diff[:, m + 1, 1:n + 1]
    assert np.abs(xz - ctx.mu()).max() < 1e-6


def test_mean_curvature_predicates():
    geo = geolib.euclidean(3)
    emb = geolib.sphere_in_flat(3, 2.0)
    pts = [np.array([0.2, -0.3]), np.array([0.0, 0.1]), np.array([0.4, 0.2])]
    rep = mean_curvature_tractor(geo, emb, pts[0], samples=pts)
    assert rep["cmc"] and rep["parallel_mean_curvature"]
    assert not rep["minimal"]
    for v in rep["NI2"]:
        assert v == pytest.approx(0.25, abs=1e-9)
    geoS = geolib.sphere(4)
    rep = mean_curvature_tractor(geoS, geolib.coordinate_slice(4, (0, 1)),
                                 np.array([0.2, -0.1]))
    assert rep["minimal"]
    assert np.abs(rep["H_tractor"]).max() < 1e-10
    embH = geolib.helix_embedding(0.5, 1.0)
    hs = [np.array([0.1]), np.array([0.5]), np.array([1.2])]
    rep = mean_curvature_tractor(geo, embH, hs[0], samples=hs)
    assert rep["cmc"] and not rep["parallel_mean_curvature"]


def test_mean_curvature_tractor_builds_one_pack_at_q(monkeypatch):
    """The CMC samples read only the frame-independent N^A_B and J: with
    no samples given, the sample at q reads the context's own pack, where
    frozen seeds built a second one there."""
    geo = geolib.euclidean(3)
    emb = geolib.sphere_in_flat(3, 1.0)
    q = np.array([0.2, -0.3])
    build = subtractor.submanifold_pack
    points = []

    def counted(geo, emb, q, seeds=None):
        points.append(np.asarray(q).tobytes())
        return build(geo, emb, q, seeds)
    monkeypatch.setattr(subtractor, "submanifold_pack", counted)
    rep = mean_curvature_tractor(geo, emb, q)
    assert rep["cmc"]
    assert points == [q.tobytes()]


def test_parallel_mean_curvature_to_round_off():
    """The round sphere of radius 2 in flat space has parallel mean
    curvature: N nabla H^A from ``nabla_normal_projector`` and dJ reads
    round-off (2.2e-16 at most at seven points; the Richardson stencil left
    1.2e-9 at the first)."""
    geo, emb = geolib.euclidean(3), geolib.sphere_in_flat(3, 2.0)
    rng = np.random.default_rng(3)
    for q in [np.array([0.2, -0.3])] + list(rng.uniform(-0.5, 0.5, (6, 2))):
        rep = mean_curvature_tractor(geo, emb, q)
        assert rep["parallel_residual"] <= 1e-15, q


# every mean-curvature-tractor case the tests read
MEAN_CURVATURE_CASES = {
    "euclidean-sphere2": (lambda: geolib.euclidean(3),
                          lambda: geolib.sphere_in_flat(3, 2.0), [0.2, -0.3]),
    "euclidean-sphere2-b": (lambda: geolib.euclidean(3),
                            lambda: geolib.sphere_in_flat(3, 2.0), [0.4, 0.2]),
    "euclidean-sphere1": (lambda: geolib.euclidean(3),
                          lambda: geolib.sphere_in_flat(3, 1.0), [0.2, -0.3]),
    "sphere-great": (lambda: geolib.sphere(4),
                     lambda: geolib.coordinate_slice(4, (0, 1)), [0.2, -0.1]),
    "euclidean-helix": (lambda: geolib.euclidean(3),
                        lambda: geolib.helix_embedding(0.5, 1.0), [0.1]),
    "s2s2-factor": (geolib.s2s2, lambda: geolib.coordinate_slice(
        4, (0, 1), values=(0, 0, 0.2, -0.4)), [0.1, 0.3]),
}


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MEAN_CURVATURE_CASES))
def test_parallel_residual_matches_the_stencil(name, fd):
    """N nabla H^A from the exact route against the Richardson difference
    of H^A over whole contexts (``oracles.along``).  The walk's largest
    difference is the stencil's, 3.1e-9 on the unit sphere, on both
    backends."""
    make_geo, make_emb, q = MEAN_CURVATURE_CASES[name]
    geo, q = make_geo(), np.array(q)
    if fd:
        geo = cli.as_fd_geometry(geo)
    rep = mean_curvature_tractor(geo, make_emb(), q)
    ctx = SubTractorContext(geo, make_emb(), q)
    n, Jp = ctx.n, pairing_matrix(ctx.n)
    nabH = along(ctx, lambda c: normal_projector_array(c.sub) @ (
        Jp @ tr.make_tractor(n, sigma=1.0, rho=-c.pack.J / n)),
        (tractor_up(n),))
    ref = np.abs(np.einsum("AB,iB->iA", ctx.normal_projector() @ Jp,
                           nabH)).max()
    assert abs(rep["parallel_residual"] - ref) <= 1e-8


def test_classification_verdicts():
    geoS = geolib.sphere(4)
    embS = geolib.coordinate_slice(4, (0, 1))
    rep = classify([SubTractorContext(geoS, embS, q) for q in
                    [np.array([0.2, -0.1]), np.array([0.0, 0.3])]])
    assert rep.verdicts["strongly_conformally_circular"]
    geoC = geolib.fubini_study(2)
    embC = geolib.cp1_slice()
    rep = classify([SubTractorContext(geoC, embC, q) for q in
                    [np.array([0.2, -0.3]), np.array([0.1, 0.15])]])
    assert rep.verdicts["conformally_circular"]
    assert not rep.verdicts["strongly_conformally_circular"]
    geoP = geolib.s2xs1xr(1)
    rep = classify([SubTractorContext(
        geoP, geolib.coordinate_slice(4, (0, 1, 2)), [0.1, -0.2, 0.3])])
    assert rep.verdicts["distinguished"]
    assert not rep.verdicts["conformally_circular"]
    geoT = geolib.twisted_example()
    rep = classify([SubTractorContext(
        geoT, geolib.coordinate_slice(4, (0, 1)), [0.3, -0.2])])
    assert rep.verdicts["umbilic"]
    assert not rep.verdicts["distinguished"]


def test_tractor_gcr_residuals():
    geo = random_metric(5, seed=9, amplitude=0.05)
    emb = geolib.random_graph_embedding(5, 3, seed=10)
    res = tractor_gcr_residuals(
        SubTractorContext(geo, emb, np.array([0.03, -0.06, 0.02])))
    assert max(res) < 1e-3


def test_tractor_gauss_residual_s2xs1_not_step_limited():
    # the third derivative of the induced metric is exact (it was a central
    # difference of exact second derivatives, and before that a step sized
    # for nested FD left a Gauss residual of 1.5e-3 here)
    geo = geolib.s2xs1xr(1)
    emb = geolib.catalog()["s2xs1xr"].embeddings["s2xs1"]()
    res = tractor_gcr_residuals(
        SubTractorContext(geo, emb, np.array([0.2, -0.3, 0.1])))
    assert max(res) <= 1e-6


def test_intrinsic_tractor_curvature_is_the_slot_fill():
    """The intrinsic tractor curvature, read through
    ``tractor.tractor_curvature`` on the context's order-3 intrinsic pack,
    is the W/Cotton slot fill of that pack byte for byte."""
    geo = geolib.s2xs1xr(1)
    emb = geolib.catalog()["s2xs1xr"].embeddings["s2xs1"]()
    for q in ([0.2, -0.1, 0.1], [-0.15, 0.25, 0.05]):
        ctx = SubTractorContext(geo, emb, np.array(q))
        ip, m = ctx.intrinsic_pack(order=3), ctx.m
        Om = np.zeros((m, m, m + 2, m + 2))
        Om[:, :, 1:m + 1, 1:m + 1] = ip.W4
        Om[:, :, m + 1, 1:m + 1] -= ip.Cotton
        Om[:, :, 1:m + 1, m + 1] += ip.Cotton
        assert _bitwise_equal(intrinsic_tractor_curvature(ctx), Om)


def test_intrinsic_metric_preserving(graph_ctx):
    # the bundle map into the orthogonal complement preserves the metrics
    ctx = graph_ctx
    rng = np.random.default_rng(0)
    V = rng.standard_normal(ctx.m + 2)
    W = rng.standard_normal(ctx.m + 2)
    M = ctx.push_up()
    h_amb = tractor_metric_matrix(ctx.pack.g)
    h_int = tractor_metric_matrix(ctx.sub.g_s)
    lhs = float((M @ V) @ h_amb @ (M @ W))
    rhs = float(V @ h_int @ W)
    assert abs(lhs - rhs) < 1e-9
    # pull after push is the identity
    assert np.abs(pull_up(ctx) @ M - np.eye(ctx.m + 2)).max() < 1e-9


def _restricted_scale_tractor_D_residual(ctx):
    """Intrinsic-connection derivative of the pulled-back ambient scale
    tractor along a minimal submanifold; vanishes iff the Fialkow tensor
    does (the ambient scale tractor is parallel for Einstein geometries,
    so the checked derivative reduces to S(I))."""
    from tractorlab.submanifold import SigmaField
    geo, emb = ctx.geo, ctx.emb

    def I_int(pk):
        amb = tr.make_tractor(ctx.n, sigma=1.0, rho=-pk.pack.J / ctx.n)
        return pull_up(SubTractorContext(geo, emb, pk.q, sub=pk)) @ amb

    sf = SigmaField(geo, emb, I_int)
    I0, dI, _ = sf.jet1(ctx.q)
    conn = ctx.intrinsic_conn()
    Mu = conn.matrix(tractor_up(ctx.m))
    DI = np.moveaxis(dI, -1, 0) + np.einsum("ine,e->in", Mu, I0)
    return float(np.abs(DI).max()), I0


def test_einstein_minimal_fialkow_gate():
    """Minimal submanifold of an Einstein geometry: the restricted scale is
    almost-Einstein on Sigma iff the Fialkow tensor vanishes, and the
    restricted scale tractor squares to -(2/m) jot."""
    geoS = geolib.sphere(4)
    embS = geolib.coordinate_slice(4, (0, 1))
    ctx = SubTractorContext(geoS, embS, np.array([0.2, -0.1]))
    F, p, jot = ctx.fialkow()
    rep = mean_curvature_tractor(geoS, embS, np.array([0.2, -0.1]))
    assert rep["minimal"] and np.abs(F).max() < 1e-9
    res, I0 = _restricted_scale_tractor_D_residual(ctx)
    assert res < 1e-6
    hs = tractor_metric_matrix(ctx.sub.g_s)
    assert float(I0 @ hs @ I0) == pytest.approx(-2.0 / ctx.m * jot, abs=1e-8)
    # the restricted tractor matches the intrinsic scale tractor
    I_intrinsic = tr.make_tractor(ctx.m, sigma=1.0, rho=-jot / ctx.m)
    assert np.abs(I0 - I_intrinsic).max() < 1e-8

    geoP = geolib.s2s2()
    emb = geolib.coordinate_slice(4, (0, 1), values=(0, 0, 0.2, -0.4))
    ctx2 = SubTractorContext(geoP, emb, np.array([0.1, 0.3]))
    F2, _, _ = ctx2.fialkow()
    rep2 = mean_curvature_tractor(geoP, emb, np.array([0.1, 0.3]))
    assert rep2["minimal"] and np.abs(F2).max() > 0.1
    res2, _ = _restricted_scale_tractor_D_residual(ctx2)
    assert res2 > 0.1


def test_mobius_cotton_diagnostic():
    geo = geolib.fubini_study(2)
    ctx = SubTractorContext(geo, geolib.cp1_slice(), np.array([0.2, -0.3]))
    c = ctx.mobius_cotton()
    # constant-curvature induced Moebius structure is flat
    assert np.abs(c).max() < 1e-6


@pytest.mark.parametrize("name,ename", [("s2s2", "factor1"), ("cp2", "cp1")])
def test_fd_mobius_cotton_stays_at_the_stencil_error(name, ename):
    """Both surfaces are Moebius flat (the analytic tensor is round-off).
    Under the fd backend the Moebius Cotton tensor reads dP and dW of the
    order-3 pack, so the third metric derivative: at 6 seeded points it was
    off by at most 3.7e-6 (s2s2) and 2.3e-6 (cp2), where the stencil of
    whole contexts it replaced is off by 2.8e-6 and 1.3e-6, both set by
    the first-derivative step 1e-3.  With a plain outer difference for
    the third derivative (step3 alone, no Richardson level) it was off by
    1.9e-3."""
    entry = geolib.catalog()[name]
    geo = cli.as_fd_geometry(entry.make_geometry())
    emb = entry.embeddings[ename]()
    rng = np.random.default_rng(0)
    for q in rng.uniform(-0.3, 0.3, (6, 2)):
        c = SubTractorContext(geo, emb, q).mobius_cotton()
        assert np.abs(c).max() < 5e-6, q


def test_conformal_invariance_of_verdicts_and_weighted_norms():
    geo = geolib.s2s2()
    emb = geolib.coordinate_slice(4, (0, 1), values=(0, 0, 0.2, -0.4))
    pts = [np.array([0.1, 0.3]), np.array([-0.2, 0.05])]
    base = classify([SubTractorContext(geo, emb, q) for q in pts])
    rng_seeds = [61, 62, 63, 64, 65]
    for s in rng_seeds:
        om = geolib.random_conformal_factor(4, seed=s, amplitude=0.15)
        from tractorlab.riemann import rescale
        geo2, _ = rescale(geo, om)
        rep = classify([SubTractorContext(geo2, emb, q) for q in pts])
        assert rep.verdicts == base.verdicts
    # weighted-norm scaling: |IIo|^2 picks up Omega^{-2} on a generic case
    geoT = geolib.twisted_example()
    embT = geolib.coordinate_slice(4, (0, 1))
    q = np.array([0.3, -0.2])
    ctx = SubTractorContext(geoT, embT, q)
    om = geolib.random_conformal_factor(4, seed=66, amplitude=0.2)
    from tractorlab.riemann import rescale
    geoT2, _ = rescale(geoT, om)
    ctx2 = SubTractorContext(geoT2, embT, q)
    w = float(om.value(ctx.sub.x))
    # mu has conformal weight -2: hatted components are Omega^-2 times the
    # unhatted ones, and the contracted norm square scales by Omega^-4
    assert np.abs(ctx2.mu() - w ** (-2) * ctx.mu()).max() < 1e-7

    def mu_norm2(c):
        return float(np.einsum("ij,cd,ic,jd->", c.sub.gi_s, c.pack.g,
                               c.mu(), c.mu()))
    assert mu_norm2(ctx2) == pytest.approx(w ** (-4) * mu_norm2(ctx),
                                           rel=1e-6)


# --------------------------------------------------------------------------
# covariant derivatives along Sigma against hand-written connection terms
# --------------------------------------------------------------------------

def _catalog_case(gname, gparams, ename, eparams, q):
    entry = geolib.catalog()[gname]
    return (entry.make_geometry(**gparams),
            entry.embeddings[ename](**eparams), q)


# The four catalog cases have II = 0 or a flat ambient chart, so the
# ambient connection term of a normal-valued tensor vanishes on them; the
# random graph in a random metric has both.
ALONG_CASES = {
    "s2s2/diagonal": lambda: _catalog_case("s2s2", {}, "diagonal", {},
                                           [0.2, -0.1]),
    "cp2/rp2": lambda: _catalog_case("cp2", {}, "rp2", {}, [0.15, 0.1]),
    "euclidean/graph": lambda: _catalog_case(
        "euclidean", {"n": 5}, "graph", {"n": 5, "m": 3, "seed": 7},
        [0.1, -0.05, 0.08]),
    "s2xs1xr/s2xs1": lambda: _catalog_case("s2xs1xr", {}, "s2xs1",
                                           {"t": 0.3}, [0.2, -0.1, 0.1]),
    "random/graph": lambda: (random_metric(4, seed=3),
                             geolib.random_graph_embedding(4, 2, seed=5),
                             [0.05, -0.08]),
}


@pytest.fixture(scope="module", params=sorted(ALONG_CASES))
def along_ctx(request):
    geo, emb, q = ALONG_CASES[request.param]()
    return SubTractorContext(geo, emb, np.array(q))


def _pulled_back(ctx, ix):
    """Ambient connection on index ``ix``, pulled back by dphi, written
    out by hand."""
    M = tr.ConnData.from_pack(ctx.pack).matrix(ix)
    return np.einsum("ane,ai->ine", M, ctx.sub.dphi)


def _jet1(ctx, builder):
    from tractorlab.submanifold import SigmaField
    v0, dv, _ = SigmaField(ctx.geo, ctx.emb, builder).jet1(ctx.q)
    return v0, np.moveaxis(dv, -1, 0)


def _exact_jet1(value, partial):
    """A pack quantity and its exact partial along Sigma, derivative axis
    first (the routes under test read the same partial, so the oracles
    check the connection terms alone)."""
    return value, np.moveaxis(partial, -1, 0)


def test_along_nabla_normal_projector(along_ctx):
    """nabla_i N^A_B: ambient tractor connection on both indices."""
    ctx = along_ctx
    N0, dN = _exact_jet1(normal_projector_array(ctx.sub),
                         _normal_projector_partial(ctx.jets_along()))
    Mu = _pulled_back(ctx, tractor_up(ctx.n))
    Md = _pulled_back(ctx, tractor_down(ctx.n))
    oracle = (dN + np.einsum("iAE,EB->iAB", Mu, N0)
              + np.einsum("iBE,AE->iAB", Md, N0))
    assert np.abs(ctx.nabla_normal_projector() - oracle).max() <= 1e-12


def test_along_divergence_of_IIo(along_ctx):
    """D^j IIo_ij^c: intrinsic Levi-Civita on i, j, pulled-back ambient
    Levi-Civita on c, then the normal projection and the trace."""
    ctx = along_ctx
    sub = ctx.sub
    IIo0, dIIo = _exact_jet1(sub.IIo, ctx.jets_along()["IIo"][1])
    G = ctx.intrinsic_pack().Gamma
    D = (dIIo + np.einsum("cfe,fk,ije->kijc", ctx.pack.Gamma, sub.dphi, IIo0)
         - np.einsum("lki,ljc->kijc", G, IIo0)
         - np.einsum("lkj,ilc->kijc", G, IIo0))
    D = np.einsum("cb,kijb->kijc", sub.Nab, D)
    oracle = np.einsum("jk,kijc->ic", sub.gi_s, D)
    assert np.abs(ctx.DjIIo() - oracle).max() <= 1e-12


def test_along_coupled_derivative_II(along_ctx):
    """D_i II_jk^d as the Codazzi residual uses it: ``along_exact`` of II
    (intrinsic Christoffel symbols from the partials of g_s), projected by
    N^a_b;
    the oracle reads those of the intrinsic pack."""
    ctx = along_ctx
    sub = ctx.sub
    II0, dII = _exact_jet1(sub.II, ctx.jets_along()["II"][1])
    G = ctx.intrinsic_pack().Gamma
    D = (dII + np.einsum("dfe,fi,jke->ijkd", ctx.pack.Gamma, sub.dphi, II0)
         - np.einsum("lij,lkd->ijkd", G, II0)
         - np.einsum("lik,jld->ijkd", G, II0))
    oracle = np.einsum("dc,ijkc->ijkd", sub.Nab, D)
    got = np.einsum("dc,ijkc->ijkd", sub.Nab, ctx.along_exact(
        sub.II, ctx.jets_along()["II"][1], ctx._normal_indices()))
    assert np.abs(got - oracle).max() <= 1e-12


def test_along_coupled_derivative_L(along_ctx):
    """D_i L_jL^C of the stencil route (``oracles.stencil_coupled_D_of_L``,
    the exact route's oracle): normal tractor connection on C (the
    projected ambient one), intrinsic Levi-Civita on j and intrinsic
    tractor connection on L."""
    ctx = along_ctx
    m, n = ctx.m, ctx.n
    geo, emb = ctx.geo, ctx.emb
    L0, dL = _jet1(ctx, lambda pk: SubTractorContext(
        geo, emb, pk.q, sub=pk).L_explicit())
    raw = dL + np.einsum("iCE,jLE->ijLC", _pulled_back(ctx, tractor_up(n)),
                         L0)
    Nact = ctx.normal_projector() @ pairing_matrix(n)
    conn = ctx.intrinsic_conn()
    oracle = (np.einsum("CA,ijLA->ijLC", Nact, raw)
              + np.einsum("ije,eLC->ijLC", conn.matrix(tangent_down(m)), L0)
              + np.einsum("iLE,jEC->ijLC", conn.matrix(tractor_down(m)), L0))
    assert np.abs(stencil_coupled_D_of_L(ctx) - oracle).max() <= 1e-12


def test_stencil_D_of_S_on_a_pole_is_a_jet_order_error():
    """q = (0.99, 0, 0) is a regular point of the 3-fold slice of the
    Poincare ball, but the Richardson point (0.99 + 0.01, 0, 0) of the
    stencil route to D S (``oracles.stencil_D_of_S``) lands on the pole (1,
    0, 0, 0): the batched stencil evaluates every row's embedding before
    any metric, and still names the pole the point-by-point evaluation
    meets first.  No command reaches a stencil along Sigma any more
    (``test_cli.py::test_threefold_next_to_a_pole_exits_0``)."""
    geo = geolib.hyperbolic(4)
    ctx = SubTractorContext(geo, geolib.coordinate_slice(4, (0, 1, 2)),
                            np.array([0.99, 0.0, 0.0]))
    with pytest.raises(JetOrderError) as err:
        stencil_D_of_S(ctx)
    assert str(err.value) == "non-finite field evaluation at [1. 0. 0. 0.]"
