"""Riemannian submanifold calculus tests."""
import contextlib
import dataclasses
import functools
import gc
import inspect
import io
import math
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles
from tractorlab import cli, geolib, submanifold, subtractor
from tractorlab.riemann import CurvaturePack, curvature_pack, rescale
from tractorlab.submanifold import (RankDeficientError, SigmaField,
                                    partials_along, submanifold_pack)
from tractorlab.subtractor import (gauss_codazzi_ricci_residuals,
                                   transformation_residuals)
from test_jets import _bitwise_equal
from test_tensors import _loop_central_diff
from tractorlab.tensors import central_diff
from tractorlab.riemann import metric_connection
from tractorlab.tensors import (middle_block, pairing_matrix, tangent_up,
                                tractor_up)
from tractorlab.tractor import ConnData, wedge


def test_hyperplane_totally_geodesic():
    geo = geolib.euclidean(4)
    emb = geolib.coordinate_slice(4, (0, 1, 2))
    pk = submanifold_pack(geo, emb, np.array([0.3, -0.2, 0.1]))
    assert np.abs(pk.II).max() == 0.0
    assert np.abs(pk.H).max() == 0.0
    assert np.abs(pk.Nab @ pk.Nab - pk.Nab).max() < 1e-10
    Pi_ia = pk.gi_s @ pk.dphi.T @ pk.pack.g
    assert np.abs(pk.dphi @ Pi_ia + pk.Nab - np.eye(4)).max() < 1e-10


def test_round_sphere_umbilic_inward_mean_curvature():
    r = 2.0
    geo = geolib.euclidean(3)
    emb = geolib.sphere_in_flat(3, r)
    pk = submanifold_pack(geo, emb, np.array([0.2, -0.3]))
    assert np.abs(pk.IIo).max() < 1e-12
    Hn = math.sqrt(pk.H @ pk.pack.g @ pk.H)
    assert Hn == pytest.approx(1 / r, abs=1e-10)
    assert float(pk.H @ pk.x) < 0  # points inward


def test_s2s2_factor_totally_geodesic():
    geo = geolib.s2s2()
    emb = geolib.coordinate_slice(4, (0, 1), values=(0, 0, 0.2, -0.1))
    pk = submanifold_pack(geo, emb, np.array([0.3, 0.4]))
    assert np.abs(pk.II).max() < 1e-12


def test_gauss_codazzi_ricci_flat():
    geo = geolib.euclidean(4)
    emb = geolib.coordinate_slice(4, (0, 1))
    res = gauss_codazzi_ricci_residuals(
        subtractor.SubTractorContext(geo, emb, np.array([0.1, 0.2])))
    assert max(res) < 1e-12


def test_gauss_codazzi_ricci_sphere():
    geo = geolib.euclidean(3)
    emb = geolib.sphere_in_flat(3, 1.0)
    res = gauss_codazzi_ricci_residuals(
        subtractor.SubTractorContext(geo, emb, np.array([0.2, -0.3])))
    assert res[0] < 1e-6
    assert res[1] < 1e-6
    assert res[2] < 1e-6


def test_gauss_codazzi_ricci_graph_surface():
    geo = geolib.euclidean(3)
    emb = geolib.random_graph_embedding(3, 2, seed=7)
    res = gauss_codazzi_ricci_residuals(
        subtractor.SubTractorContext(geo, emb, np.array([0.1, -0.2])))
    assert max(res) < 1e-4


def test_gauss_codazzi_ricci_curved_ambient():
    geo = oracles.random_metric(4, seed=1)
    emb = geolib.random_graph_embedding(4, 2, seed=2)
    res = gauss_codazzi_ricci_residuals(
        subtractor.SubTractorContext(geo, emb, np.array([0.05, -0.1])))
    assert max(res) < 1e-4


def _transformation_residuals(geo, emb, om, q):
    """The transformation-law residuals between the contexts at q in geo
    and in its rescaling by om."""
    geo2, upsilon = rescale(geo, om)
    ctx = subtractor.SubTractorContext(geo, emb, q)
    ctx2 = subtractor.SubTractorContext(geo2, emb, q)
    return transformation_residuals(ctx, ctx2, om, upsilon)


def test_conformal_transform_laws():
    geo = geolib.euclidean(3)
    emb = geolib.sphere_in_flat(3, 1.0)
    om = geolib.random_conformal_factor(3, seed=4)
    rep = _transformation_residuals(geo, emb, om, np.array([0.2, -0.3]))
    assert rep["II_transformation"] < 1e-6
    assert rep["H_transformation"] < 1e-6
    assert rep["IIo_invariance"] < 1e-6


def test_conformal_transform_identity():
    geo = geolib.euclidean(3)
    emb = geolib.sphere_in_flat(3, 1.0)
    one = oracles.constant_scalar(3, 1.0)
    rep = _transformation_residuals(geo, emb, one, np.array([0.2, -0.3]))
    assert max(rep.values()) < 1e-12


def _normal_form(pk):
    """The Riemannian normal form, the wedge of the pack's conormals."""
    return functools.reduce(wedge, pk.conormals)


def test_normal_form_identities():
    geo = oracles.random_metric(4, seed=1)
    emb = geolib.random_graph_embedding(4, 2, seed=2)
    pk = submanifold_pack(geo, emb, np.array([0.05, -0.1]))
    gi = pk.pack.gi
    Nf = _normal_form(pk)
    Nup = np.einsum("ac,bd,cd->ab", gi, gi, Nf)
    # N . N = d!
    assert np.tensordot(Nup, Nf, axes=2) == pytest.approx(
        math.factorial(pk.d), abs=1e-10)
    # N^a_b from the normal form
    rec = np.einsum("ac,bc->ab", Nup, Nf) / math.factorial(pk.d - 1)
    assert np.abs(rec - pk.Nab).max() < 1e-10


def test_orientation_wedge_identity():
    geo = oracles.random_metric(4, seed=1)
    emb = geolib.random_graph_embedding(4, 2, seed=2)
    q = np.array([0.05, -0.1])
    pk = submanifold_pack(geo, emb, q)
    ip = curvature_pack(oracles.intrinsic_geometry(geo, emb), q, order=2)
    Pi_ia = pk.gi_s @ pk.dphi.T @ pk.pack.g
    epsS = np.einsum("ij,ia,jb->ab", oracles.volume_form(ip), Pi_ia, Pi_ia)
    assert np.abs(wedge(epsS, _normal_form(pk))
                  - oracles.volume_form(pk.pack)).max() < 1e-10


def test_hypersurface_unit_conormal():
    geo = oracles.random_metric(3, seed=5)
    emb = geolib.random_graph_embedding(3, 2, seed=6)
    pk = submanifold_pack(geo, emb, np.array([0.02, 0.05]))
    assert pk.d == 1
    n = _normal_form(pk)
    assert float(n @ pk.pack.gi @ n) == pytest.approx(1.0, abs=1e-10)


def test_curve_has_structural_zero_IIo():
    geo = geolib.euclidean(3)
    emb = geolib.helix_embedding()
    pk = submanifold_pack(geo, emb, np.array([0.3]))
    assert np.abs(pk.IIo).max() == 0.0
    assert np.abs(pk.H).max() > 0.1


def test_minimal_scale_existence():
    # a linear-normal-offset conformal factor kills H at the tested point
    geo = geolib.euclidean(3)
    emb = geolib.sphere_in_flat(3, 1.0)
    q = np.array([0.2, -0.3])
    pk = submanifold_pack(geo, emb, q)
    H_low = pk.pack.g @ pk.H
    x0 = pk.x

    def fn(v):
        psi = oracles.constant(3, 0.0, 3)
        for a in range(3):
            psi = psi + H_low[a] * (v[a] - float(x0[a]))
        return [psi.exp()]

    f = geolib.JetField(fn)

    class Om(geolib.ArrayField):
        def __init__(self):
            super().__init__(lambda x: f.value(x)[0],
                             backend=geolib._analytic_backend())

        def jets(self, x, order):
            # the component axis follows the point axis of a stack
            return [np.take(j, 0, axis=np.ndim(x) - 1)
                    for j in f.jets(x, order)]

    from tractorlab.riemann import rescale
    geo2, _ = rescale(geo, Om())
    pk2 = submanifold_pack(geo2, emb, q, seeds=pk.seeds)
    assert np.abs(pk2.H).max() < 1e-6


def test_rank_deficient_rejected():
    geo = geolib.euclidean(3)

    def fn(v):
        z = v[0] * 0.0
        return [z, z, z]
    emb = geolib.jet_embedding(1, 3, fn)
    with pytest.raises(RankDeficientError):
        submanifold_pack(geo, emb, np.array([0.1]))


def _partials_cases():
    """Every catalog geometry with every embedding of its dimension (the
    geometry built at the embedding's n where it takes one), default
    parameters, and a random graph in a random metric."""
    out = []
    for gname, entry in geolib.catalog().items():
        takes_n = "n" in inspect.signature(entry.make_geometry).parameters
        for ename, make in entry.embeddings.items():
            emb = make()
            geo = (entry.make_geometry(n=emb.n) if takes_n
                   else entry.make_geometry())
            if geo.n == emb.n:
                out.append((f"{gname}/{ename}", geo, emb))
    out.append(("random/graph", oracles.random_metric(4, seed=3),
                geolib.random_graph_embedding(4, 2, seed=5)))
    return out


PARTIALS_CASES = _partials_cases()


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("case", range(len(PARTIALS_CASES)),
                         ids=[c[0] for c in PARTIALS_CASES])
def test_partials_along_match_the_richardson_stencil(case, fd):
    """The exact partials along Sigma of H, II, IIo and N^A_B against the
    Richardson difference of whole packs (``SigmaField.jet1``), at a seeded
    point; scaled by max(1, |stencil|).  The walk over these cases gave at
    most 1.2e-8 under the analytic backend (euclidean/sphere), the
    stencil's truncation error, and 6.7e-7 under fd (doubly_warped_r4),
    where the exact route reads the central-difference metric Hessian of
    the pack.  The intrinsic Christoffel symbols of the context's
    connection, from d g_s, are the intrinsic pack's."""
    name, geo, emb = PARTIALS_CASES[case]
    if fd:
        geo = cli.as_fd_geometry(geo)
    q = np.random.default_rng(case).uniform(-0.2, 0.2, emb.m)
    ctx = subtractor.SubTractorContext(geo, emb, q)
    sub, J = ctx.sub, ctx.jets_along()
    exact = {"H": J["H"][1], "II": J["II"][1], "IIo": J["IIo"][1],
             "N^A_B": subtractor._normal_projector_partial(J)}
    builders = {"H": lambda pk: pk.H, "II": lambda pk: pk.II,
                "IIo": lambda pk: pk.IIo,
                "N^A_B": subtractor.normal_projector_array}
    bound = 1e-5 if fd else 1e-7
    for key, builder in builders.items():
        ref = SigmaField(geo, emb, builder).jet1(q)[1]
        err = np.abs(exact[key] - ref).max() / max(1.0, np.abs(ref).max())
        assert err <= bound, (name, key, err)
    Gamma = curvature_pack(oracles.intrinsic_geometry(geo, emb), q,
                           order=2).Gamma
    assert np.abs(ctx.intrinsic_conn().Gamma - Gamma).max() <= 1e-14 * max(
        1.0, np.abs(Gamma).max())


def test_sigma_field_richardson_derivative():
    geo = geolib.euclidean(3)
    emb = geolib.sphere_in_flat(3, 1.0)
    sf = SigmaField(geo, emb, lambda pk: pk.H)
    q = np.array([0.2, -0.3])
    H0, dH, _ = sf.jet1(q)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (sf.value(q + e) - sf.value(q - e)) / (2 * h)
        assert np.abs(dH[..., i] - fd).max() < 1e-7


# --------------------------------------------------------------------------
# the per-embedding pack memo
# --------------------------------------------------------------------------

def _assert_same_fields(a, b):
    """Every field of two submanifold packs, and of their curvature packs
    (with the arrays those compute when read), equal."""
    names = (oracles.pack_fields() if isinstance(a, CurvaturePack)
             else [f.name for f in dataclasses.fields(a)])
    for name in names:
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), name
        elif isinstance(va, CurvaturePack):
            _assert_same_fields(va, vb)
        elif name == "intrinsic":
            assert (va.n, va.orientation, va.metric) == (
                vb.n, vb.orientation, None)
        else:
            assert va == vb, name


# (geometry, its params, embedding, FD backend): m = 1, 2, 3 and one FD case
MEMO_CASES = [("euclidean", {"n": 3}, "helix", False),
              ("s2s2", {}, "diagonal", False),
              ("s2xs1xr", {}, "s2xs1", False),
              ("s2s2", {}, "factor1", True)]


@pytest.mark.parametrize("name,params,ename,fd", MEMO_CASES,
                         ids=[f"{c[0]}-{c[2]}{'-fd' if c[3] else ''}"
                              for c in MEMO_CASES])
def test_memoised_packs_equal_fresh_packs(name, params, ename, fd):
    entry = geolib.catalog()[name]
    geo = entry.make_geometry(**params)
    if fd:
        geo = cli.as_fd_geometry(geo)
    emb = entry.embeddings[ename]()
    q = np.linspace(0.1, -0.2, emb.m)
    ctx = subtractor.SubTractorContext(geo, emb, q)
    # fills the memo with a seeded Richardson stencil
    oracles.along(ctx, lambda c: c.sub.H, (tangent_up(emb.n),))
    assert submanifold_pack(geo, emb, q.copy()) is ctx.sub
    assert len(emb.packs) == 4 * emb.m + 1
    for (key_geo, qbytes, seeds), cached in emb.packs.items():
        assert key_geo is geo
        fresh = submanifold_pack(geo, entry.embeddings[ename](),
                                 np.frombuffer(qbytes), seeds=seeds)
        _assert_same_fields(cached, fresh)


def test_memoised_pack_arrays_are_read_only():
    geo = geolib.s2s2()
    emb = geolib.catalog()["s2s2"].embeddings["factor1"]()
    pk = submanifold_pack(geo, emb, np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        pk.II[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        pk.pack.Gamma[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        pk.q[0] = 0.0


def test_on_read_arrays_of_a_memoised_pack_are_read_only():
    """R_abcd and the Weyl tensor, computed when first read, are read-only
    like the rest of a memoised pack, and read again are the same array."""
    geo = geolib.s2s2()
    emb = geolib.catalog()["s2s2"].embeddings["factor1"]()
    pk = submanifold_pack(geo, emb, np.array([0.1, 0.2])).pack
    assert "R4" not in vars(pk) and "W4" not in vars(pk)
    for name in ("W4", "R4"):
        arr = getattr(pk, name)
        assert getattr(pk, name) is arr
        with pytest.raises(ValueError):
            arr[0, 1, 0, 1] = 1.0


def test_memo_is_freed_with_the_embedding():
    """No reference cycle runs from a memoised pack back to its embedding,
    so reference counting alone frees the memo: after a classification,
    after the dual route to L, after the Weyl cross-check of mu, and after
    the Moebius Cotton tensor, whose builder runs on the context of each
    stencil point."""
    geo = geolib.s2s2()
    q = np.array([0.1, 0.2])
    STC = subtractor.SubTractorContext

    def mu_cross_check(emb):
        ctx = STC(geo, emb, q)
        return ctx.mu() - ctx.mu_weyl()

    runs = [lambda emb: subtractor.classify([STC(geo, emb, q)]),
            lambda emb: STC(geo, emb, q).L_dual(),
            mu_cross_check,
            lambda emb: STC(geo, emb, q).mobius_cotton()]
    for run in runs:
        emb = geolib.catalog()["s2s2"].embeddings["factor1"]()
        ref = weakref.ref(emb)
        gc.disable()
        try:
            run(emb)
            assert emb.packs
            del emb
            assert ref() is None
        finally:
            gc.enable()


def test_memo_shared_between_threads():
    """Threads of a library caller sharing one embedding get the bits one
    thread gets, with a short switch interval so that the memo's reads and
    writes interleave."""
    geo = geolib.s2s2()
    make = geolib.catalog()["s2s2"].embeddings["factor1"]
    pts = [np.array([0.1, 0.2]), np.array([-0.2, 0.1])] * 3

    def both_routes(emb, q):
        ctx = subtractor.SubTractorContext(geo, emb, q)
        return ctx.L_explicit(), ctx.L_dual()
    serial = [both_routes(make(), q) for q in pts]
    emb = make()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(pts)) as ex:
            futs = [ex.submit(both_routes, emb, q) for q in pts]
            threaded = [f.result(timeout=120) for f in futs]
    finally:
        sys.setswitchinterval(old)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


EVALUATION_CASES = [
    (["report", "-s", 'geometry={"name":"s2s2"}',
      "-s", 'embedding={"name":"factor1"}',
      "-s", 'samples={"points":[[0.2,-0.1]]}'],
     {2: 2, 3: 2}, {2: 2, 3: 2}),
    (["invariance", "-s", 'geometry={"name":"s2s2"}',
      "-s", 'embedding={"name":"factor1"}'],
     {1: 3, 2: 39, 3: 12}, {1: 3, 2: 39, 3: 12}),
    (["report", "-s", 'geometry={"name":"s2xs1xr"}',
      "-s", 'embedding={"name":"s2xs1"}',
      "-s", 'samples={"points":[[0.2,-0.1,0.1]]}'],
     {2: 2, 3: 1, 4: 1}, {2: 2, 3: 1, 4: 1}),
]


def test_report_evaluation_count(monkeypatch):
    """Field evaluations of one report on s2s2/factor1 at one point, by jet
    order, pinned so that a change in evaluation count shows in review
    (without the memo the same report makes 127 order-3 evaluations); and
    of an ``invariance`` run and a report on s2xs1xr/s2xs1.  Each case pins
    the rows evaluated (the points, a stack of p points counting p) and the
    calls (a batched call on a stack counting once).

    The report reads every quantity from one context.  The normal frame of
    the Ricci residual needs no pack: at its 9 outer stencil points it
    reads the metric 1-jet and the embedding 1-jet (18 order-1
    evaluations), at its 36 inner points the metric value and the
    embedding 1-jet (36 order-0, 36 order-1).  When each of those 45
    points built a whole submanifold pack (an order-2 embedding and an
    order-3 metric evaluation), 37 of them were not already in the memo,
    and the report made 48 evaluations of order 2 and 48 of order 3; 11 of
    each were left.  The Gauss residual reads the intrinsic pack the
    context holds (an order-3 embedding and an order-2 metric evaluation
    each time it was built again), so 10 of each were left.  A submanifold
    pack's ambient curvature pack now reads the metric 2-jet, not the
    3-jet: its readers use g, Gamma and P, never dP or the Cotton tensor.
    So 9 of those 10 order-3 evaluations became order 2; the one left is
    the embedding 3-jet under the intrinsic pack's pulled-back metric.  The
    ``invariance`` run (submanifold packs at stencil points, rescaling
    packs) and the s2xs1xr report moved the same way, order 3 from 216 to
    12 and from 116 to 22.  The ``invariance`` run's order-2 count fell
    from 348 to 339 when each of its 3 rescalings stopped rebuilding two
    packs that exist at its point: the ambient pack of the submanifold pack
    (one metric 2-jet) and the rescaled pack of the Thomas operator (the
    conformal factor's and the metric's 2-jets).

    The rows are those counts.  The calls fell when every stencil along
    Sigma became one batched call per level: the stencil-point submanifold
    packs, both normal frames, the pulled-back metric's third derivative
    and the rescaled metric each evaluate a stencil's points together (110
    calls to 14, 357 to 126 and 595 to 101).

    Both normal curvatures then stopped evaluating anything at the sample
    point itself: there they read the frame, conormals, H and ambient pack
    of the context's submanifold pack.  The Riemannian one no longer
    evaluates the metric and embedding 1-jets there (order-1 rows 54 to 52
    and calls 6 to 4 on s2s2, 182 to 180 and 8 to 6 on s2xs1xr), the
    tractor one the embedding and metric 2-jets of a second order-2 pack
    at the sample point (order-2 rows 313 to 311 and calls 74 to 72 on
    s2xs1xr).

    The pulled-back metric's third derivative is exact: the s2xs1xr
    report's order-3 intrinsic pack reads the embedding 4-jet and the
    metric 3-jet at its point (one row and one call each), where it read
    the embedding 3-jet and the metric 2-jet at that point and at the 6
    points of a central difference (7 rows in 2 calls each): order-2 rows
    311 to 304 and calls 72 to 70, order-3 rows 22 to 16 and calls 17 to
    16, and one order-4 row and call.

    nabla H, D^j IIo, D II and nabla N^A_B are exact partials along Sigma
    (``partials_along``): one embedding 3-jet at the point, on the metric
    2-jet its pack holds.  So the s2s2 report makes one more order-3 row
    and call; its 8 stencil packs stay, for the Moebius Cotton tensor.  The
    ``invariance`` run's 12 classify rows no longer difference 8 stencil
    packs each, nor build an intrinsic pack for D^j IIo (an embedding
    3-jet and a metric 2-jet, where the exact partial reads one embedding
    3-jet): order-2 rows 339 to 54 and calls 108 to 54.  The s2xs1xr report
    loses the stencils of nabla H, D^j IIo, D II and nabla N (48 packs in
    4 calls); those of D S and D L stay, but the 12 contexts of the D L
    stencil take nabla H exactly, each from one embedding 3-jet, where
    each differenced 12 packs.  A stencil's builder also reads the
    sample point's own context at the sample point, where it built a
    second one (and, for D S, a second intrinsic pack: one metric 2-jet
    and one embedding 3-jet).  Order-2 rows 304 to 141 and calls 70 to 21,
    order-3 rows and calls 16 to 28.

    The ``invariance`` run rescales the geometry once per rescaling, where
    it did so three times, and its transformation laws read the rescaled
    context at sample 0: its submanifold pack (II, H, IIo) and that pack's
    ambient pack (the Thomas operator's).  Per rescaling that drops a
    second rescaled submanifold pack (one embedding 2-jet, and the
    conformal factor's and the metric's 2-jets under it), the rescaled
    curvature pack of the Thomas operator (those two 2-jets again) and a
    second evaluation of Upsilon (the conformal factor's 1-jet): order-1
    rows and calls 6 to 3, order-2 54 to 39.

    Both normal curvatures read, at their 4m outer Richardson points, the
    submanifold packs that ``SubTractorContext.along`` builds on the same
    stencil with the same frozen seeds (for the Moebius Cotton tensor at
    m = 2, for D S and D L at m = 3), where each evaluated its own jets
    there.  On s2s2 the Riemannian one no longer evaluates the metric and
    embedding 1-jets at 8 points (order-1 rows 52 to 36, calls 4 to 2).
    On s2xs1xr it drops the same at 12 points (order-1 rows 180 to 156,
    calls 6 to 4), and the tractor one the embedding and metric 2-jets of
    its order-2 pack at those 12 points (order-2 rows 141 to 117, calls 21
    to 19).  The ``invariance`` run computes no normal curvature.

    Both normal curvatures and the Moebius Cotton tensor then read first
    jets at the sample point, with no stencil: the exact partials along
    Sigma the context holds and, for the tractor curvature and the Moebius
    Cotton tensor, the context's order-3 ambient pack (one metric 3-jet at
    phi(q)), which the ambient tractor curvature of
    ``tractor_gcr_residuals`` reads too, where it built its own.  On s2s2
    the Riemannian curvature's inner stencil (the metric value and the
    embedding 1-jet at 4 + 32 points, 2 calls each) and the Moebius Cotton
    tensor's 8 stencil packs (an embedding and a metric 2-jet on 8 rows)
    are gone, and the order-3 pack adds one metric 3-jet: order-0 and
    order-1 rows 36 to 0 and calls 2 to 0, order-2 rows 19 to 3 and calls
    5 to 3, order-3 rows and calls 2 to 3.  On s2xs1xr both inner stencils
    are gone (6 + 72 points each: the Riemannian one's metric value and
    embedding 1-jet, the tractor one's metric 1-jet and embedding 2-jet):
    order-0 rows 78 to 0 and calls 2 to 0, order-1 rows 156 to 0 and calls
    4 to 0, order-2 rows 117 to 39 and calls 19 to 17.  Its 12 stencil
    packs stay, built by the D S stencil now, and its order-3 count is
    unchanged (the order-3 ambient pack is built once, as before).

    D S and D L of the s2xs1xr report then read exact jets at the sample
    point too: D S the first jets the context holds and the dP of its
    order-3 intrinsic pack, D L the second partial of H from one
    ``partials_along`` of order 2 (one embedding 4-jet at q, on the
    order-3 ambient pack).  Their 12 stencil packs (an embedding 2-jet and
    a metric 2-jet on 12 rows in 2 calls) and the 12 one-row embedding
    3-jets the stencil contexts of D L took for their exact nabla H are
    gone, and nothing else of the report evaluated a stencil point:
    order-2 rows 39 to 3 and calls 17 to 3, order-3 rows and calls 28 to
    4 (the partials, the order-2 intrinsic pack's embedding 3-jet and the
    two order-3 metric jets, of the ambient pack and under the order-3
    intrinsic pack), order-4 rows and calls 1 to 2.

    The context then evaluates each jet at its point once: the embedding
    jet at q (order 4 at m = 3, order 3 at m = 2) for its one
    ``partials_along`` call and both intrinsic packs, which pull the
    induced metric's jets back from it and from the metric jets of the
    ambient packs the context holds.  The s2s2 report drops the embedding
    3-jet and the metric 2-jet under the intrinsic pack's pulled-back
    metric: order-2 and order-3 rows and calls 3 to 2.  The s2xs1xr report
    drops the order-2 intrinsic pack's embedding 3-jet and metric 2-jet,
    the order-3 one's embedding 4-jet and metric 3-jet and the order-1
    partials' embedding 3-jet: order-2 rows and calls 3 to 2, order-3 4
    to 1 (the ambient pack's metric 3-jet), order-4 2 to 1."""
    calls, rows = Counter(), Counter()
    jets = geolib.JetField.jets

    def counted(field, x, order):
        calls[order] += 1
        rows[order] += len(x) if np.ndim(x) == 2 else 1
        return jets(field, x, order)
    monkeypatch.setattr(geolib.JetField, "jets", counted)
    for argv, pinned_rows, pinned_calls in EVALUATION_CASES:
        calls.clear()
        rows.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        assert rc == 0
        assert dict(rows) == pinned_rows, argv[0]
        assert dict(calls) == pinned_calls, argv[0]


# --------------------------------------------------------------------------
# the normal frame of the Ricci residuals
# --------------------------------------------------------------------------

def _pack_frame_curvature(geo, emb, q, frame_of, index):
    """Reference: the normal curvature as computed before the frame had a
    function of its own.  Every point of the nested stencil builds a whole
    submanifold pack (seeds frozen at q) and reads the frame from it;
    ``frame_of(pk)`` gives the rows of frame and coframe, ``index`` is the
    frame's index."""
    seeds = submanifold_pack(geo, emb, q).seeds

    def frame_at(y):
        pk = submanifold_pack(geo, emb, y, seeds=seeds)
        return frame_of(pk) + (pk,)

    def omega_at(y):
        frame, coframe, pk = frame_at(y)
        dV = _loop_central_diff(lambda z: frame_at(z)[0], y, 1e-4)
        M = np.einsum("ane,ai->ine",
                      ConnData.from_pack(pk.pack).matrix(index), pk.dphi)
        nab = np.moveaxis(dV, -1, 0) + np.einsum("ice,be->ibc", M, frame)
        return np.einsum("ac,ibc->iab", coframe, nab)

    om0 = omega_at(q)
    dw = np.ascontiguousarray(np.moveaxis(
        _loop_central_diff(omega_at, q, 1e-2, richardson=True), -1, 0))
    Rfr = (dw - dw.transpose(1, 0, 2, 3)
           + np.einsum("iae,jeb->ijab", om0, om0)
           - np.einsum("jae,ieb->ijab", om0, om0))
    frame, coframe, _ = frame_at(q)
    return np.einsum("ec,ijef,fd->ijcd", frame, Rfr, coframe)


def _riemannian_frame(pk):
    return pk.normals, pk.conormals


def _point_tractor_rows(conormals, H):
    """Tractor conormal rows (0, n_a, n.H), one conormal at a time."""
    d, n = conormals.shape
    frame = np.zeros((d, n + 2))
    for a, w in enumerate(conormals):
        frame[a, 1:n + 1] = w
        frame[a, n + 1] = float(w @ H)
    return frame


def _tractor_frame(pk):
    """Tractor conormal rows (0, n_a, n.H), raised, and paired by J."""
    frame = _point_tractor_rows(pk.conormals, pk.H)
    return frame @ middle_block(pk.pack.gi), frame @ pairing_matrix(pk.n)


def _frame_case(name, params, ename, eparams=None, fd=False):
    entry = geolib.catalog()[name]
    geo = entry.make_geometry(**params)
    return (cli.as_fd_geometry(geo) if fd else geo,
            entry.embeddings[ename](**(eparams or {})))


def _graph_case(name, params, n, m):
    return (geolib.catalog()[name].make_geometry(**params),
            geolib.random_graph_embedding(n, m, seed=3))


CATALOG = sorted(geolib.catalog().items())


# m = 1, 2, 3, one FD geometry, and II != 0 with normal curvature != 0 in
# curved charts (the random graphs in the charts of CP2 and the round
# 5-sphere); the tractor frame needs m = 3
FRAME_CASES = {
    "helix": lambda: _frame_case("euclidean", {"n": 3}, "helix"),
    "cp2-graph": lambda: _graph_case("cp2", {}, 4, 2),
    "cp2-cp1": lambda: _frame_case("cp2", {}, "cp1"),
    "sphere4-great-fd": lambda: _frame_case("sphere", {"n": 4}, "great",
                                            {"n": 4}, fd=True),
    "s2xs1xr-s2xs1": lambda: _frame_case("s2xs1xr", {}, "s2xs1"),
    "sphere5-graph": lambda: _graph_case("sphere", {"n": 5}, 5, 3),
}
FRAME_RUNS = ([(case, "riemannian") for case in FRAME_CASES]
              + [("s2xs1xr-s2xs1", "tractor"), ("sphere5-graph", "tractor")])


@pytest.mark.parametrize("case,frame", FRAME_RUNS,
                         ids=[f"{c}-{f}" for c, f in FRAME_RUNS])
def test_normal_curvature_equals_pack_reference(case, frame):
    """The stencil normal curvature of either Ricci residual (the oracle
    ``oracles.stencil_normal_curvature``), from the frame function at each
    stencil point, equals to the bit the pack-based formula."""
    geo, emb = FRAME_CASES[case]()
    q = np.linspace(0.15, -0.1, emb.m)
    if frame == "riemannian":
        new = oracles.stencil_riemannian_curvature(
            subtractor.SubTractorContext(geo, emb, q))
        ref = _pack_frame_curvature(geo, emb, q, _riemannian_frame,
                                    tangent_up(emb.n))
    else:
        new = oracles.stencil_tractor_curvature(
            subtractor.SubTractorContext(geo, emb, q))
        ref = _pack_frame_curvature(geo, emb, q, _tractor_frame,
                                    tractor_up(emb.n))
    assert np.array_equal(new, ref)


def _loop_normal_curvature(frame_at, q, index):
    """The normal curvature from a frame function of one point, each
    stencil point its own call (the nested point-by-point loop), kept as
    the oracle of the batched ``oracles.stencil_normal_curvature``."""
    def omega_at(y, frame, coframe, conn):
        dV = _loop_central_diff(lambda z: frame_at(z, False)[0], y, 1e-4)
        nab = np.moveaxis(dV, -1, 0) + np.einsum(
            "ice,be->ibc", conn.matrix(index), frame)
        return np.einsum("ac,ibc->iab", coframe, nab)

    base = frame_at(q, True)
    om0 = omega_at(q, *base)
    dw = np.ascontiguousarray(np.moveaxis(_loop_central_diff(
        lambda y: omega_at(y, *frame_at(y, True)), q, 1e-2, richardson=True),
        -1, 0))
    Rfr = (dw - dw.transpose(1, 0, 2, 3)
           + np.einsum("iae,jeb->ijab", om0, om0)
           - np.einsum("jae,ieb->ijab", om0, om0))
    return np.einsum("ec,ijef,fd->ijcd", base[0], Rfr, base[1])


def _point_normal_frame(g, gi, dphi, orientation, seeds=None, Gamma=None,
                        d2phi=None):
    """The normal frame at one point, computed row by row as before
    ``normal_frame`` took a stack: the oracle of its rows."""
    n, m = dphi.shape
    g_s = dphi.T @ g @ dphi
    gi_s = np.linalg.inv(g_s)
    Pi_ia = gi_s @ dphi.T @ g
    Nab = np.eye(n) - dphi @ Pi_ia
    out = dict(g_s=g_s, gi_s=gi_s, Nab=Nab)

    if Gamma is not None:
        hess = d2phi + np.einsum("cde,di,ej->cij", Gamma, dphi, dphi)
        II = np.einsum("cb,bij->ijc", Nab, hess)
        H = np.einsum("ij,ijc->c", gi_s, II) / m
        IIo = II - np.einsum("ij,c->ijc", g_s, H)
        if m == 1:
            IIo = np.zeros_like(II)
        out.update(II=II, IIo=IIo, H=H)

    if seeds is None:
        scores = sorted((-float(w @ gi @ w), a) for a, w in enumerate(Nab))
        seeds = tuple(a for _, a in scores[:n - m])
    conormals = []
    for a in seeds:
        w = Nab[a, :]
        for prev in conormals:
            w = w - (prev @ gi @ w) * prev
        nw = math.sqrt(max(w @ gi @ w, 0.0))
        if nw < 1e-12:
            raise RankDeficientError("degenerate conormal seeds")
        conormals.append(w / nw)
    conormals = np.array(conormals)
    normals = conormals @ gi

    B = np.hstack([dphi, normals.T])
    if np.sign(np.linalg.det(B)) * orientation < 0:
        conormals[-1] = -conormals[-1]
        normals[-1] = -normals[-1]
    out.update(conormals=conormals, normals=normals, seeds=tuple(seeds))
    return out


def _point_riemannian_frame(geo, emb, seeds):
    orientation = geo.orientation * emb.orientation

    def frame_at(y, conn):
        ph = emb.phi.jets(y, 1)
        g, gi, Gamma, _ = metric_connection(geo, ph[0], 1 if conn else 0)
        fr = _point_normal_frame(g, gi, ph[1], orientation, seeds)
        return fr["normals"], fr["conormals"], (
            submanifold.SigmaConn(ConnData(emb.n, g, gi, Gamma), ph[1])
            if conn else None)
    return frame_at


def _point_tractor_frame(ctx):
    geo, emb, n = ctx.geo, ctx.emb, ctx.n
    orientation = geo.orientation * emb.orientation

    def frame_at(y, conn):
        ph = emb.phi.jets(y, 2)
        pk = curvature_pack(geo, ph[0], order=2) if conn else None
        g, gi, Gamma = ((pk.g, pk.gi, pk.Gamma) if conn
                        else metric_connection(geo, ph[0])[:3])
        fr = _point_normal_frame(g, gi, ph[1], orientation, ctx.sub.seeds,
                                 Gamma, ph[2])
        frame = _point_tractor_rows(fr["conormals"], fr["H"])
        return frame @ middle_block(gi), frame @ pairing_matrix(n), (
            submanifold.SigmaConn(ConnData.from_pack(pk), ph[1])
            if conn else None)
    return frame_at


@pytest.mark.parametrize("case,frame", FRAME_RUNS,
                         ids=[f"{c}-{f}" for c, f in FRAME_RUNS])
def test_normal_curvature_is_the_nested_loop(case, frame):
    """Both stencil normal curvatures (``oracles``), whose nested stencils
    evaluate the frame once per level, equal to the bit the nested loop
    that evaluates it at each stencil point alone."""
    geo, emb = FRAME_CASES[case]()
    q = np.linspace(0.15, -0.1, emb.m)
    if frame == "riemannian":
        ctx = subtractor.SubTractorContext(geo, emb, q)
        new = oracles.stencil_riemannian_curvature(ctx)
        ref = _loop_normal_curvature(_point_riemannian_frame(geo, emb,
                                                             ctx.sub.seeds),
                                     q, tangent_up(emb.n))
    else:
        ctx = subtractor.SubTractorContext(geo, emb, q)
        new = oracles.stencil_tractor_curvature(ctx)
        ref = _loop_normal_curvature(_point_tractor_frame(ctx), q,
                                     tractor_up(emb.n))
    assert np.array_equal(new, ref)


EXACT_CASES = ([c for c in PARTIALS_CASES if c[2].m >= 2]
               + [(case, *FRAME_CASES[case]())
                  for case in ("cp2-graph", "sphere5-graph")])


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("case", range(len(EXACT_CASES)),
                         ids=[c[0] for c in EXACT_CASES])
def test_exact_curvatures_match_the_stencil_oracles(case, fd):
    """Both normal curvatures (the tractor one at m >= 3) and the Moebius
    Cotton tensor (m = 2) from first jets at the point, against the
    stencil routes they replaced (``oracles``), over every catalog
    embedding of dimension 2 or 3 and the random graphs in the charts of
    CP2 and the round 5-sphere, at a seeded point; scaled by max(1,
    |stencil|).  The walk gave at most 2.9e-8 under the analytic backend
    (the Moebius Cotton tensor of special_einstein_s2h2/h2_factor), the
    stencils' truncation error, and 4.2e-6 under fd (the Moebius Cotton
    tensor of hyperbolic/slice), where both routes read the
    central-difference metric jets (step 1e-3)."""
    name, geo, emb = EXACT_CASES[case]
    if fd:
        geo = cli.as_fd_geometry(geo)
    q = np.random.default_rng(case).uniform(-0.2, 0.2, emb.m)
    ctx = subtractor.SubTractorContext(geo, emb, q)
    routes = {"Rperp": (subtractor._normal_curvature,
                        oracles.stencil_riemannian_curvature)}
    if emb.m >= 3:
        routes["Omega_perp"] = (subtractor._normal_tractor_curvature,
                                oracles.stencil_tractor_curvature)
    if emb.m == 2:
        routes["mobius_cotton"] = (subtractor.SubTractorContext.mobius_cotton,
                                   oracles.stencil_mobius_cotton)
    bound = 1e-5 if fd else 1e-7
    for key, (exact, stencil) in routes.items():
        ref = stencil(ctx)
        err = np.abs(exact(ctx) - ref).max() / max(1.0, np.abs(ref).max())
        assert err <= bound, (name, key, err)


def _report_row_at_its_point(monkeypatch, geo, emb, q):
    """The report row of ``emb`` in ``geo`` at q, and the points at which it
    evaluated the embedding and the metric, each its own set of bytes."""
    x = emb.phi.value(q)
    seen = {"phi": set(), "metric": set()}

    def recorded(key, jets):
        def record(X, order):
            X = np.asarray(X, dtype=float)
            seen[key].update(r.tobytes() for r in X.reshape(-1, X.shape[-1]))
            return jets(X, order)
        return record
    for key, field in (("phi", emb.phi), ("metric", geo.metric)):
        monkeypatch.setattr(field, "jets", recorded(key, field.jets))
    ctx = subtractor.SubTractorContext(geo, emb, q)
    row = subtractor.classify([ctx]).per_sample[0]
    cli._report_row(row, ctx)
    assert seen == {"phi": {q.tobytes()}, "metric": {x.tobytes()}}
    return row


def test_surface_report_evaluates_only_at_its_point(monkeypatch):
    """An m = 2 report row on cp2/cp1 evaluates the embedding only at its
    sample point q and the metric only at phi(q): both normal curvature
    and the Moebius Cotton tensor read first jets there, where the
    Riemannian curvature differenced the normal frame at 36 points around
    q and the Moebius Cotton tensor 8 submanifold packs."""
    row = _report_row_at_its_point(monkeypatch,
                                   *_frame_case("cp2", {}, "cp1"),
                                   np.array([0.2, -0.3]))
    assert max(row["gcr"]) < 1e-12 and row["mobius_cotton_norm"] < 1e-12


def test_threefold_report_evaluates_only_at_its_point(monkeypatch):
    """An m = 3 report row on s2xs1xr/s2xs1, its tractor Gauss-Codazzi-
    Ricci residuals included, evaluates the embedding only at its sample
    point q and the metric only at phi(q): D S and D L read exact jets
    there, where their Richardson stencils built 12 submanifold packs
    around q."""
    row = _report_row_at_its_point(monkeypatch,
                                   *_frame_case("s2xs1xr", {}, "s2xs1"),
                                   np.array([0.2, -0.1, 0.1]))
    assert max(row["gcr"]) < 1e-12 and max(row["tractor_gcr"]) < 1e-12


def _threefold_graph_case(name, params, n, seed):
    return (geolib.catalog()[name].make_geometry(**params),
            geolib.random_graph_embedding(n, 3, seed=seed))


# the m = 3 walk of D S and D L: the catalog's 3-fold, and random 3-fold
# graphs in the charts of the round 5-sphere, flat 5-space and CP2
DSDL_CASES = {
    "s2xs1xr-s2xs1": FRAME_CASES["s2xs1xr-s2xs1"],
    "sphere5-graph": FRAME_CASES["sphere5-graph"],
    **{f"{name}-graph-seed{seed}": functools.partial(
        _threefold_graph_case, name, params, n, seed)
       for name, params, n in (("euclidean", {"n": 5}, 5), ("cp2", {}, 4))
       for seed in (0, 3)},
}


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("case", sorted(DSDL_CASES))
def test_exact_D_S_and_D_L_match_the_stencil_oracles(case, fd):
    """D S and D L of the tractor Gauss and Codazzi residuals from exact
    jets at the point, against the Richardson stencils of whole contexts
    they replaced (``oracles.stencil_D_of_S``,
    ``oracles.stencil_coupled_D_of_L``), over the m = 3 walk at two seeded
    points each; scaled by max(1, |stencil|).  The walk gave at most
    3.0e-8 under the analytic backend (D L on the CP2 graph of seed 0),
    the stencils' truncation error, and 1.8e-6 under fd (the same), where
    both routes read the central-difference metric jets.  The tractor
    Gauss-Codazzi-Ricci residuals on the exact route are at round-off on
    both backends: at most 1.4e-14 on the walk (the sphere5 graph under
    fd)."""
    geo, emb = DSDL_CASES[case]()
    if fd:
        geo = cli.as_fd_geometry(geo)
    bound = 1e-5 if fd else 1e-7
    for q in np.random.default_rng(len(case)).uniform(-0.2, 0.2, (2, 3)):
        ctx = subtractor.SubTractorContext(geo, emb, q)
        for key, exact, stencil in (
                ("D S", subtractor._intrinsic_D_of_S, oracles.stencil_D_of_S),
                ("D L", subtractor._coupled_D_of_L,
                 oracles.stencil_coupled_D_of_L)):
            ref = stencil(ctx)
            err = np.abs(exact(ctx) - ref).max() / max(1.0, np.abs(ref).max())
            assert err <= bound, (case, q, key, err)
        assert max(subtractor.tractor_gcr_residuals(ctx)) <= 1e-13


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("case", sorted(DSDL_CASES))
def test_order_2_partials_match_a_stencil_of_the_order_1_partials(case, fd):
    """The second partials along Sigma of ``partials_along`` at order 2 (on
    the order-3 ambient pack) against the Richardson difference (step
    1e-2) of its first partials over the submanifold packs of a stencil,
    at a seeded point; scaled by max(1, |stencil|).  The walk gave at most
    2.2e-8 under the analytic backend (IIo on the sphere5 graph), the
    stencil's truncation error, and 2.9e-6 under fd (IIo on the CP2 graph
    of seed 0), where the order-3 pack's d2g and d2Gamma are central
    differences."""
    geo, emb = DSDL_CASES[case]()
    if fd:
        geo = cli.as_fd_geometry(geo)
    q = np.random.default_rng(len(case)).uniform(-0.2, 0.2, 3)
    sub = submanifold_pack(geo, emb, q)
    J = partials_along(sub, emb.phi.jets(q, 4), 2,
                       curvature_pack(geo, sub.x, order=3))
    bound = 1e-5 if fd else 1e-7
    for key in ("dphi", "g", "g_s", "gi_s", "Nab", "II", "IIo", "H"):
        ref = central_diff(lambda Q: np.stack([
            partials_along(pk, emb.phi.jets(pk.q, 3))[key][1]
            for pk in submanifold_pack(geo, emb, Q)]), q, 1e-2,
            richardson=True)
        err = np.abs(J[key][2] - ref).max() / max(1.0, np.abs(ref).max())
        assert err <= bound, (case, key, err)


EMBEDDING_CASES = [(name, ename) for name, entry in CATALOG
                   for ename in sorted(entry.embeddings)]


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("name,ename", EMBEDDING_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in EMBEDDING_CASES])
def test_stacked_packs_are_the_per_point_packs(name, ename, fd):
    """``submanifold_pack`` on a stack of points builds, at each row, every
    field of the pack a call at that point alone builds, bit for bit, with
    default and with frozen seeds; a row already in the memo is returned
    from it, and a repeated row is built once."""
    entry = geolib.catalog()[name]
    make = entry.embeddings[ename]
    n, m = make().n, make().m
    geo = entry.make_geometry()
    if geo.n != n:
        geo = entry.make_geometry(n=n)
    if fd:
        geo = cli.as_fd_geometry(geo)
    Q = np.random.default_rng(29).uniform(-0.2, 0.2, (4, m))
    base = submanifold_pack(geo, make(), Q[0])
    for seeds in (None, base.seeds):
        emb = make()
        first = submanifold_pack(geo, emb, Q[1], seeds=seeds)
        stacked = submanifold_pack(geo, emb, np.vstack([Q, Q[2]]),
                                   seeds=seeds)
        assert len(stacked) == 5 and len(emb.packs) == 4
        assert stacked[1] is first and stacked[4] is stacked[2]
        for q, sub in zip(Q, stacked):
            assert submanifold_pack(geo, emb, q.copy(), seeds=seeds) is sub
            _assert_same_fields(sub, submanifold_pack(geo, make(), q,
                                                      seeds=seeds))


INTRINSIC_CASES = [c for c in EMBEDDING_CASES
                   if geolib.catalog()[c[0]].embeddings[c[1]]().m >= 2]


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("name,ename", INTRINSIC_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in INTRINSIC_CASES])
def test_context_jets_are_the_evaluated_ones(name, ename, fd):
    """A context evaluates each jet at its point once and derives the rest
    from it, bitwise what the separate evaluations give: its order-2 and
    order-3 intrinsic packs, pulled back from its embedding jet and its
    ambient packs' metric jets, are every field of the packs that
    ``curvature_pack`` builds from the induced metric's field; at m >= 3
    the first partials of its one order-2 ``partials_along`` (on the
    order-3 ambient pack) are those of the order-1 call on the submanifold
    pack, on the embedding 3-jet."""
    entry = geolib.catalog()[name]
    emb = entry.embeddings[ename]()
    geo = entry.make_geometry()
    if geo.n != emb.n:
        geo = entry.make_geometry(n=emb.n)
    if fd:
        geo = cli.as_fd_geometry(geo)
    q = np.random.default_rng(37).uniform(-0.2, 0.2, emb.m)
    ctx = subtractor.SubTractorContext(geo, emb, q)
    sub = ctx.sub
    for k in (2, 3):
        got = ctx.intrinsic_pack(k)
        want = curvature_pack(oracles.intrinsic_geometry(geo, emb), q, k)
        for name in oracles.pack_fields():
            a, b = getattr(got, name), getattr(want, name)
            if isinstance(b, np.ndarray):
                assert _bitwise_equal(a, b), (k, name)
            else:
                assert type(a) is type(b) and a == b, (k, name)
    if emb.m >= 3:
        J = ctx.jets_along()
        ref = partials_along(sub, emb.phi.jets(q, 3))
        for key, jet in ref.items():
            for a, b in zip(J[key][:2], jet):
                assert _bitwise_equal(a, b), key


def _assert_rows_are_point_frames(stacked, rows):
    """Each row of a stacked ``normal_frame`` is the per-point frame, every
    array bit for bit and the seeds the same tuple of Python ints."""
    assert set(stacked) == set(rows[0])
    assert len(stacked["seeds"]) == len(rows)
    for r, ref in enumerate(rows):
        seeds = stacked["seeds"][r]
        assert type(seeds) is tuple and seeds == ref["seeds"]
        assert all(type(a) is int for a in seeds)
        for key, v in ref.items():
            if key != "seeds":
                assert np.array_equal(stacked[key][r], v), (r, key)


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("name,ename", EMBEDDING_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in EMBEDDING_CASES])
def test_stacked_normal_frame_is_the_point_frame(name, ename, fd):
    """``normal_frame`` on a stack of points (with a repeated row, and a
    stack of one) gives at each row what the per-point frame gives, with
    seeds chosen and given, with and without Gamma."""
    entry = geolib.catalog()[name]
    emb = entry.embeddings[ename]()
    geo = entry.make_geometry()
    if geo.n != emb.n:
        geo = entry.make_geometry(n=emb.n)
    if fd:
        geo = cli.as_fd_geometry(geo)
    Q = np.random.default_rng(31).uniform(-0.2, 0.2, (3, emb.m))
    Q = np.vstack([Q, Q[1]])
    ph = emb.phi.jets(Q, 2)
    pk = curvature_pack(geo, ph[0], order=2)
    orientation = geo.orientation * emb.orientation
    given = _point_normal_frame(pk.g[0], pk.gi[0], ph[1][0],
                                orientation)["seeds"]
    for seeds in (None, given):
        for extra in ((), (pk.Gamma, ph[2])):
            args = (pk.g, pk.gi, ph[1])
            rows = [_point_normal_frame(*(a[r] for a in args), orientation,
                                        seeds, *(e[r] for e in extra))
                    for r in range(len(Q))]
            _assert_rows_are_point_frames(
                submanifold.normal_frame(*args, orientation, seeds, *extra),
                rows)
            _assert_rows_are_point_frames(
                submanifold.normal_frame(*(a[2:3] for a in args),
                                         orientation, seeds,
                                         *(e[2:3] for e in extra)),
                rows[2:3])


def _tied_dphi():
    """The tangent plane of e_0 and (e_1 + e_2)/sqrt 2 in R^3: rows 1 and 2
    of N^a_b are equally far from it."""
    s = 1 / math.sqrt(2)
    return np.array([[1.0, 0.0], [0.0, s], [0.0, s]])


def test_normal_frame_seed_tie_goes_to_the_lower_index():
    """Two coordinate conormals that score equally: the seed is the lower
    index, alone and as one row of a stack."""
    g = np.eye(3)
    tied = _tied_dphi()
    other = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    one = submanifold.normal_frame(g[None], g[None], tied[None], 1)
    Nab = one["Nab"][0]
    assert Nab[1] @ g @ Nab[1] == Nab[2] @ g @ Nab[2] > Nab[0] @ g @ Nab[0]
    assert one["seeds"] == [(1,)]
    stack = submanifold.normal_frame(np.stack([g] * 3), np.stack([g] * 3),
                                     np.stack([other, tied, tied]), 1)
    assert stack["seeds"] == [(0,), (1,), (1,)]
    assert _point_normal_frame(g, g, tied, 1)["seeds"] == (1,)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_normal_frame_degenerate_seeds_on_any_row(k):
    """Given seeds that are degenerate on row k of a stack raise, whichever
    row k is."""
    g = np.eye(3)
    dphi = np.stack([np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])] * 3)
    submanifold.normal_frame(np.stack([g] * 3), np.stack([g] * 3), dphi, 1,
                             seeds=(0,))
    dphi[k] = _tied_dphi()   # e_0 is tangent there: its conormal is 0
    with pytest.raises(RankDeficientError, match="degenerate conormal"):
        submanifold.normal_frame(np.stack([g] * 3), np.stack([g] * 3), dphi,
                                 1, seeds=(0,))


def test_stacked_pack_names_the_rank_deficient_row():
    """``submanifold_pack`` on a stack raises at a rank-deficient row with
    the message a call at that row alone gives, and stores no pack."""
    geo = geolib.euclidean(3)

    def fn(v):
        y2 = v[0] * v[0]
        return [y2, y2, y2]
    emb = geolib.jet_embedding(1, 3, fn)
    with pytest.raises(RankDeficientError) as alone:
        submanifold_pack(geo, emb, np.array([0.0]))
    with pytest.raises(RankDeficientError) as stacked:
        submanifold_pack(geo, emb, np.array([[0.3], [0.0], [-0.2]]))
    assert str(stacked.value) == str(alone.value)
    assert "rank-deficient at [0.]" in str(alone.value)
    assert not emb.packs


def test_normal_curvature_builds_no_pack(monkeypatch):
    """Neither normal curvature builds a submanifold pack or a context, or
    differences anything: both read first jets at the context's point.
    At m = 3 the context's jets along Sigma are one ``partials_along`` of
    order 2 on its order-3 ambient pack, so the first reader of those jets
    (here the Riemannian curvature) builds that pack, one row at phi(q),
    and nothing after it builds another: the tractor curvature reads the
    same pack, and so does the ambient tractor curvature of
    ``tractor_gcr_residuals``.  One order-3 pack per context, across both
    normal curvatures.  Rows count the points; a batched call on a stack
    counts once.

    Before, with a cold memo, the Riemannian curvature built the 4m = 12
    stencil packs of its outer Richardson stencil in one
    ``submanifold_pack`` call (one order-2 curvature pack on 12 rows), the
    tractor one read them from the memo, and ``tractor_gcr_residuals``
    built an order-3 pack of its own at phi(q).  Until the jets along Sigma
    became one order-2 call, the Riemannian curvature read the order-1
    partials on the submanifold pack's order-2 pack and built no curvature
    pack, and the tractor curvature built the order-3 one."""
    geo, emb = _frame_case("s2xs1xr", {}, "s2xs1")
    q = np.array([0.2, -0.1, 0.1])
    ctx = subtractor.SubTractorContext(geo, emb, q)
    packs, rows, subpacks = Counter(), Counter(), Counter()

    def counted_pack(g, x, order=None):
        if g is geo:
            packs[order] += 1
            rows[order] += len(x) if np.ndim(x) == 2 else 1
        return curvature_pack(g, x, order)

    def counted_subpack(*args, **kwargs):
        subpacks["all"] += 1
        return submanifold_pack(*args, **kwargs)
    for mod in (submanifold, subtractor):
        monkeypatch.setattr(mod, "curvature_pack", counted_pack)
        monkeypatch.setattr(mod, "submanifold_pack", counted_subpack)
    monkeypatch.setattr(subtractor.tr, "curvature_pack", counted_pack)
    context = subtractor.SubTractorContext
    monkeypatch.setattr(subtractor, "SubTractorContext", None)
    subtractor._normal_curvature(ctx)
    assert dict(rows) == {3: 1} and dict(packs) == {3: 1}
    assert not subpacks
    subtractor._normal_tractor_curvature(ctx)
    assert dict(rows) == {3: 1} and dict(packs) == {3: 1}
    assert not subpacks
    monkeypatch.setattr(subtractor, "SubTractorContext", context)
    subtractor.tractor_gcr_residuals(ctx)
    assert packs[3] == 1


def test_curve_normal_curvature_evaluates_nothing(monkeypatch):
    """R_ij of a normal bundle is antisymmetric in i, j, so a curve's is
    zero: both normal curvatures return zeros of their index's shape and
    evaluate no field, where the nested stencil subtracted equal floats."""
    geo, emb = FRAME_CASES["helix"]()
    ctx = subtractor.SubTractorContext(geo, emb, np.array([0.15]))

    def no_jets(x, order):
        raise AssertionError("a field was evaluated")
    for field in (emb.phi, geo.metric):
        monkeypatch.setattr(field, "jets", no_jets)
    for curvature, dim in ((subtractor._normal_curvature, 3),
                           (subtractor._normal_tractor_curvature, 5)):
        R = curvature(ctx)
        assert R.shape == (1, 1, dim, dim) and not R.any()


# --------------------------------------------------------------------------
# the pulled-back metric against the former chain rule
# --------------------------------------------------------------------------

def _ref_chain_rule(ph, gj, order):
    """Reference: the jets of the pulled-back metric, orders 0-2, written
    out by hand from the embedding (order + 1)-jet ``ph`` and the metric
    ``order``-jet ``gj`` (the former ``submanifold._chain_rule``)."""
    dphi = ph[1]
    g = gj[0]
    G = np.einsum("...ai,...bj,...ab->...ij", dphi, dphi, g)
    out = [G]
    if order >= 1:
        d2phi = ph[2]
        dg = gj[1]
        dG = (np.einsum("...aik,...bj,...ab->...ijk", d2phi, dphi, g)
              + np.einsum("...ai,...bjk,...ab->...ijk", dphi, d2phi, g)
              + np.einsum("...ai,...bj,...abc,...ck->...ijk",
                          dphi, dphi, dg, dphi))
        out.append(dG)
    if order >= 2:
        d3phi = ph[3]
        d2g = gj[2]
        t = (np.einsum("...aikl,...bj,...ab->...ijkl", d3phi, dphi, g)
             + np.einsum("...aik,...bjl,...ab->...ijkl", d2phi, d2phi, g)
             + np.einsum("...ail,...bjk,...ab->...ijkl", d2phi, d2phi, g)
             + np.einsum("...ai,...bjkl,...ab->...ijkl", dphi, d3phi, g)
             + np.einsum("...aik,...bj,...abc,...cl->...ijkl",
                         d2phi, dphi, dg, dphi)
             + np.einsum("...ai,...bjk,...abc,...cl->...ijkl",
                         dphi, d2phi, dg, dphi)
             + np.einsum("...ail,...bj,...abc,...ck->...ijkl",
                         d2phi, dphi, dg, dphi)
             + np.einsum("...ai,...bjl,...abc,...ck->...ijkl",
                         dphi, d2phi, dg, dphi)
             + np.einsum("...ai,...bj,...abcd,...ck,...dl->...ijkl",
                         dphi, dphi, d2g, dphi, dphi)
             + np.einsum("...ai,...bj,...abc,...ckl->...ijkl",
                         dphi, dphi, dg, d2phi))
        out.append(t)
    return out


def _ref_pullback(geo, emb, Y, order):
    """The former pulled-back metric jets up to order 2 on the stack Y."""
    ph = emb.phi.jets(Y, order + 1)
    return _ref_chain_rule(ph, geo.metric.jets(ph[0], order), order)


PULLBACK_CASES = [("s2xs1xr", {}, "s2xs1", {}),
                  ("euclidean", {"n": 3}, "sphere", {}),
                  ("euclidean", {}, "graph", {}),
                  ("euclidean", {"n": 5}, "graph", {"n": 5, "m": 3,
                                                    "seed": 2}),
                  ("sphere", {"n": 3}, "great", {"n": 3, "m": 2}),
                  ("cp2", {}, "rp2", {}), ("s2s2", {}, "diagonal", {}),
                  ("twisted_r4", {}, "second_factor", {"x1": 0.2}),
                  ("hyperbolic", {"n": 3}, "slice", {"n": 3})]


def _pullback_case(gname, gparams, ename, eparams):
    entry = geolib.catalog()[gname]
    geo, emb = entry.make_geometry(**gparams), entry.embeddings[ename](
        **eparams)
    Y = np.random.default_rng(23).uniform(-0.3, 0.3, (5, emb.m))
    return geo, emb, Y, submanifold.PullbackMetricField(geo, emb)


@pytest.mark.parametrize("case", PULLBACK_CASES, ids=lambda c: c[0] + "/" + c[2])
def test_pullback_metric_is_the_chain_rule(case):
    """Orders 0-2 of dphi^T (g o phi) dphi, on a stack of 5 and at a
    point, within 1e-14 scaled of the hand-written chain rule."""
    geo, emb, Y, field = _pullback_case(*case)
    for y in (Y, Y[2]):
        got, want = field.jets(y, 2), _ref_pullback(geo, emb, y, 2)
        assert len(got) == 3
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(b).max())
    assert np.array_equal(field.value(Y[2]), field.jets(Y[2], 0)[0])


@pytest.mark.parametrize("case", PULLBACK_CASES, ids=lambda c: c[0] + "/" + c[2])
def test_pullback_metric_order3_is_the_fd_route_limit(case):
    """The exact third derivative against the former route, the central
    difference of the chain-rule second derivative: at the former step
    1e-4 the two agree within that difference's step^2 truncation, which
    halving the step measures (the error of a central difference falls
    fourfold, so it is 4/3 of the change), plus its round-off."""
    geo, emb, Y, field = _pullback_case(*case)
    d3 = field.jets(Y, 3)[3]

    def fd(h):
        return central_diff(lambda Z: _ref_pullback(geo, emb, Z, 2)[2], Y, h)
    scale = max(1.0, np.abs(d3).max())
    err = np.abs(d3 - fd(1e-4)).max()
    truncation = 4.0 / 3.0 * np.abs(fd(1e-4) - fd(5e-5)).max()
    assert err <= 2.0 * truncation + 1e-11 * scale
    # away from round-off the error is the truncation itself
    err = np.abs(d3 - fd(1e-2)).max()
    truncation = 4.0 / 3.0 * np.abs(fd(1e-2) - fd(5e-3)).max()
    assert abs(err - truncation) <= 0.05 * truncation + 1e-11 * scale
