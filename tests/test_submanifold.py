"""Riemannian submanifold calculus tests."""
import contextlib
import dataclasses
import gc
import io
import math
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tractorlab import cli, geolib, submanifold, subtractor
from tractorlab.riemann import CurvaturePack, curvature_pack
from tractorlab.submanifold import (RankDeficientError, SigmaField,
                                    conformal_transform_check,
                                    gauss_codazzi_ricci_residuals,
                                    submanifold_pack)
from tractorlab.tensors import (central_diff, middle_block, pairing_matrix,
                                tangent_up, tractor_up)
from tractorlab.tractor import ConnData, wedge


def test_hyperplane_totally_geodesic():
    geo = geolib.euclidean(4)
    emb = geolib.coordinate_slice(4, (0, 1, 2))
    pk = submanifold_pack(geo, emb, np.array([0.3, -0.2, 0.1]))
    assert np.abs(pk.II).max() == 0.0
    assert np.abs(pk.H).max() == 0.0
    assert np.abs(pk.Nab @ pk.Nab - pk.Nab).max() < 1e-10
    assert np.abs(pk.dphi @ pk.Pi_ia + pk.Nab - np.eye(4)).max() < 1e-10


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
    res = gauss_codazzi_ricci_residuals(geo, emb, np.array([0.1, 0.2]))
    assert max(res) < 1e-12


def test_gauss_codazzi_ricci_sphere():
    geo = geolib.euclidean(3)
    emb = geolib.sphere_in_flat(3, 1.0)
    res = gauss_codazzi_ricci_residuals(geo, emb, np.array([0.2, -0.3]))
    assert res[0] < 1e-6
    assert res[1] < 1e-6
    assert res[2] < 1e-6


def test_gauss_codazzi_ricci_graph_surface():
    geo = geolib.euclidean(3)
    emb = geolib.random_graph_embedding(3, 2, seed=7)
    res = gauss_codazzi_ricci_residuals(geo, emb, np.array([0.1, -0.2]))
    assert max(res) < 1e-4


def test_gauss_codazzi_ricci_curved_ambient():
    geo = geolib.random_metric(4, seed=1)
    emb = geolib.random_graph_embedding(4, 2, seed=2)
    res = gauss_codazzi_ricci_residuals(geo, emb, np.array([0.05, -0.1]))
    assert max(res) < 1e-4


def test_conformal_transform_laws():
    geo = geolib.euclidean(3)
    emb = geolib.sphere_in_flat(3, 1.0)
    om = geolib.random_conformal_factor(3, seed=4)
    rep = conformal_transform_check(geo, emb, om, np.array([0.2, -0.3]))
    assert rep["II"] < 1e-6
    assert rep["H"] < 1e-6
    assert rep["IIo_invariance"] < 1e-6


def test_conformal_transform_identity():
    geo = geolib.euclidean(3)
    emb = geolib.sphere_in_flat(3, 1.0)
    one = geolib.constant_scalar(3, 1.0)
    rep = conformal_transform_check(geo, emb, one, np.array([0.2, -0.3]))
    assert max(rep.values()) < 1e-12


def test_normal_form_identities():
    geo = geolib.random_metric(4, seed=1)
    emb = geolib.random_graph_embedding(4, 2, seed=2)
    pk = submanifold_pack(geo, emb, np.array([0.05, -0.1]))
    gi = pk.pack.gi
    Nf = pk.Nform
    Nup = np.einsum("ac,bd,cd->ab", gi, gi, Nf)
    # N . N = d!
    assert np.tensordot(Nup, Nf, axes=2) == pytest.approx(
        math.factorial(pk.d), abs=1e-10)
    # N^a_b from the normal form
    rec = np.einsum("ac,bc->ab", Nup, Nf) / math.factorial(pk.d - 1)
    assert np.abs(rec - pk.Nab).max() < 1e-10


def test_orientation_wedge_identity():
    geo = geolib.random_metric(4, seed=1)
    emb = geolib.random_graph_embedding(4, 2, seed=2)
    q = np.array([0.05, -0.1])
    pk = submanifold_pack(geo, emb, q)
    ip = curvature_pack(pk.intrinsic, q, order=2)
    epsS = np.einsum("ij,ia,jb->ab", ip.eps, pk.Pi_ia, pk.Pi_ia)
    assert np.abs(wedge(epsS, pk.Nform) - pk.pack.eps).max() < 1e-10


def test_hypersurface_unit_conormal():
    geo = geolib.random_metric(3, seed=5)
    emb = geolib.random_graph_embedding(3, 2, seed=6)
    pk = submanifold_pack(geo, emb, np.array([0.02, 0.05]))
    assert pk.d == 1
    n = pk.Nform
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
        from tractorlab.jets import Jet3
        psi = Jet3(3, 0.0)
        for a in range(3):
            psi = psi + H_low[a] * (v[a] - float(x0[a]))
        return [psi.exp()]

    f = geolib.JetField(fn)

    class Om(geolib.ArrayField):
        def __init__(self):
            super().__init__(lambda x: f.value(x)[0],
                             backend=geolib._analytic_backend())

        def jets(self, x, order):
            return [j[0] for j in f.jets(x, order)]

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
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), f.name
        elif isinstance(va, CurvaturePack):
            _assert_same_fields(va, vb)
        elif f.name == "intrinsic":
            assert (va.n, va.orientation) == (vb.n, vb.orientation)
            assert np.array_equal(va.metric.value(a.q), vb.metric.value(b.q))
        else:
            assert va == vb, f.name


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
    ctx.grad_H()   # fills the memo with a seeded Richardson stencil
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
    """Threads sharing one embedding (as ``report --threads`` does) get the
    bits one thread gets, with a short switch interval so that the memo's
    reads and writes interleave."""
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


def test_report_evaluation_count(monkeypatch):
    """Field evaluations of one report on s2s2/factor1 at one point, by jet
    order, pinned so that a change in evaluation count shows in review
    (without the memo the same report makes 127 order-3 evaluations).

    The report reads every quantity from one context.  The normal frame of
    the Ricci residual needs no pack: at its 9 outer stencil points it
    reads the metric 1-jet and the embedding 1-jet (18 order-1
    evaluations), at its 36 inner points the metric value and the
    embedding 1-jet (36 order-0, 36 order-1).  When each of those 45
    points built a whole submanifold pack (an order-2 embedding and an
    order-3 metric evaluation), 37 of them were not already in the memo,
    and the report made 48 evaluations of order 2 and 48 of order 3; 11 of
    each are left."""
    calls = Counter()
    jets = geolib.JetField.jets

    def counted(field, x, order):
        calls[order] += 1
        return jets(field, x, order)
    monkeypatch.setattr(geolib.JetField, "jets", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["report", "-s", 'geometry={"name":"s2s2"}',
                       "-s", 'embedding={"name":"factor1"}',
                       "-s", 'samples={"points":[[0.2,-0.1]]}'])
    assert rc == 0
    assert dict(calls) == {0: 36, 1: 54, 2: 11, 3: 11}


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
        dV = central_diff(lambda z: frame_at(z)[0], y, 1e-4)
        M = np.einsum("ane,ai->ine",
                      ConnData.from_pack(pk.pack).matrix(index), pk.dphi)
        nab = np.moveaxis(dV, -1, 0) + np.einsum("ice,be->ibc", M, frame)
        return np.einsum("ac,ibc->iab", coframe, nab)

    om0 = omega_at(q)
    dw = np.ascontiguousarray(np.moveaxis(
        central_diff(omega_at, q, 1e-2, richardson=True), -1, 0))
    Rfr = (dw - dw.transpose(1, 0, 2, 3)
           + np.einsum("iae,jeb->ijab", om0, om0)
           - np.einsum("jae,ieb->ijab", om0, om0))
    frame, coframe, _ = frame_at(q)
    return np.einsum("ec,ijef,fd->ijcd", frame, Rfr, coframe)


def _riemannian_frame(pk):
    return pk.normals, pk.conormals


def _tractor_frame(pk):
    """Tractor conormal rows (0, n_a, n.H), raised, and paired by J."""
    n = pk.n
    frame = np.zeros((pk.d, n + 2))
    for a, w in enumerate(pk.conormals):
        frame[a, 1:n + 1] = w
        frame[a, n + 1] = float(w @ pk.H)
    return frame @ middle_block(pk.pack.gi), frame @ pairing_matrix(n)


def _frame_case(name, params, ename, eparams=None, fd=False):
    entry = geolib.catalog()[name]
    geo = entry.make_geometry(**params)
    return (cli.as_fd_geometry(geo) if fd else geo,
            entry.embeddings[ename](**(eparams or {})))


def _graph_case(name, params, n, m):
    return (geolib.catalog()[name].make_geometry(**params),
            geolib.random_graph_embedding(n, m, seed=3))


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
    """The normal curvature of either Ricci residual, from the frame
    function at each stencil point, equals to the bit the pack-based
    formula."""
    geo, emb = FRAME_CASES[case]()
    q = np.linspace(0.15, -0.1, emb.m)
    if frame == "riemannian":
        seeds = submanifold_pack(geo, emb, q).seeds
        new = submanifold._normal_curvature(geo, emb, q, seeds)
        ref = _pack_frame_curvature(geo, emb, q, _riemannian_frame,
                                    tangent_up(emb.n))
    else:
        new = subtractor._normal_tractor_curvature(
            subtractor.SubTractorContext(geo, emb, q))
        ref = _pack_frame_curvature(geo, emb, q, _tractor_frame,
                                    tractor_up(emb.n))
    assert np.array_equal(new, ref)


def test_normal_curvature_builds_no_pack(monkeypatch):
    """No stencil point of the Ricci or tractor Ricci residual builds a
    submanifold pack or an order-3 curvature pack; only the tractor
    connection takes an order-2 pack at each of the 1 + 4m outer points."""
    geo, emb = _frame_case("s2xs1xr", {}, "s2xs1")
    q = np.array([0.2, -0.1, 0.1])
    ctx = subtractor.SubTractorContext(geo, emb, q)
    seeds = ctx.sub.seeds
    packs, subpacks = Counter(), Counter()

    def counted_pack(geo, x, order=None):
        packs[order] += 1
        return curvature_pack(geo, x, order)

    def counted_subpack(*args, **kwargs):
        subpacks["all"] += 1
        return submanifold_pack(*args, **kwargs)
    for mod in (submanifold, subtractor):
        monkeypatch.setattr(mod, "curvature_pack", counted_pack)
        monkeypatch.setattr(mod, "submanifold_pack", counted_subpack)
    monkeypatch.setattr(subtractor, "SubTractorContext", None)
    submanifold._normal_curvature(geo, emb, q, seeds)
    assert not packs and not subpacks
    subtractor._normal_tractor_curvature(ctx)
    assert dict(packs) == {2: 1 + 4 * 3} and not subpacks
