"""Acceptance suite: one test per criterion, with a printed verdict line.

Each criterion asserts its stated tolerances and the verdict it prints.
Criterion 5 compares against closed-form Schouten tensors of
S^2 x S^1 x R with unit round S^2: Ric = g_{S^2} + 0, so Scal = 2 on both
the ambient (n = 4) and the slice S^2 x S^1 (m = 3), and
P = (Ric - J g)/(n - 2) with J = Scal/(2(n - 1)) gives
iota*P = (1/3) h - (1/6) dtheta^2 and p = (1/2) h - (1/2) dtheta^2.
"""
import math
import time

import numpy as np
import pytest

from tractorlab import geolib
from tractorlab import circles as ci
from tractorlab import firstint as fi
from tractorlab import tractor as tr
from tractorlab.riemann import curvature_pack, rescale
from tractorlab.submanifold import submanifold_pack
from tractorlab.subtractor import SubTractorContext, classify


def _verdict(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_cp1_fialkow():
    t0 = time.time()
    geo = geolib.fubini_study(2)
    emb = geolib.cp1_slice()
    coeffs = []
    for q in (np.array([0.2, -0.3]), np.array([0.0, 0.1])):
        ctx = SubTractorContext(geo, emb, q)
        F, _, _ = ctx.fialkow()
        coeffs.append(float(np.einsum("ij,ij->", ctx.sub.gi_s, F)) / 2)
    elapsed = time.time() - t0
    ok = all(abs(c + 1.0) < 1e-5 for c in coeffs) and elapsed < 5.0
    assert _verdict(1, ok,
                    f"CP1 in CP2 Fialkow coefficient {coeffs[0]:+.8f} "
                    f"(target -1 +- 1e-5), {elapsed:.2f}s")


def test_criterion_2_rp2_fialkow():
    geo = geolib.fubini_study(2)
    emb = geolib.rp2_slice()
    coeffs = []
    for q in (np.array([0.2, -0.3]), np.array([0.15, 0.05])):
        ctx = SubTractorContext(geo, emb, q)
        F, _, _ = ctx.fialkow()
        coeffs.append(float(np.einsum("ij,ij->", ctx.sub.gi_s, F)) / 2)
    ok = all(abs(c - 0.5) < 1e-5 for c in coeffs)
    assert _verdict(2, ok,
                    f"totally real RP2 in CP2 Fialkow coefficient "
                    f"{coeffs[0]:+.8f} (target +0.5 +- 1e-5)")


def test_criterion_3_doubly_warped():
    geo = geolib.doubly_warped_example()
    pk = curvature_pack(geo, np.array([0.3, 0.1, -0.2, 0.4]))
    ric_ok = abs(pk.Ric[0, 2] - 2.0) < 1e-8
    emb = geolib.coordinate_slice(4, (0, 1))
    pts = [np.array([0.3, -0.2]), np.array([-0.1, 0.4])]
    mu_norms = []
    for q in pts:
        ctx = SubTractorContext(geo, emb, q)
        mu = ctx.mu()
        mu_norms.append(math.sqrt(float(np.einsum(
            "ij,cd,ic,jd->", ctx.sub.gi_s, ctx.pack.g, mu, mu))))
    rep = classify([SubTractorContext(geo, emb, q) for q in pts])
    ok = (ric_ok and max(mu_norms) < 1e-8
          and rep.verdicts["distinguished"])
    assert _verdict(3, ok,
                    f"doubly warped R4: Ric_13 = {pk.Ric[0, 2]:+.10f}, "
                    f"|mu| = {max(mu_norms):.2e}, distinguished = "
                    f"{rep.verdicts['distinguished']}")


def test_criterion_4_twisted():
    geo = geolib.twisted_example()
    pk = curvature_pack(geo, np.array([0.3, 0.1, -0.2, 0.4]))
    ric_ok = abs(pk.Ric[0, 2] + 1.0) < 1e-8
    emb = geolib.coordinate_slice(4, (0, 1))
    rep = classify([SubTractorContext(geo, emb, q) for q in
                    [np.array([0.3, -0.2]), np.array([0.1, 0.5])]])
    ok = (ric_ok and rep.verdicts["umbilic"]
          and not rep.verdicts["distinguished"])
    assert _verdict(4, ok,
                    f"twisted R4: R_13 = {pk.Ric[0, 2]:+.10f}, "
                    f"umbilic = {rep.verdicts['umbilic']}, distinguished = "
                    f"{rep.verdicts['distinguished']}")


def _gnorm(gi_s, T):
    """Norm of a symmetric 2-tensor on Sigma in the induced metric."""
    return math.sqrt(float(np.einsum("ik,jl,ij,kl->", gi_s, gi_s, T, T)))


def test_criterion_5_generic_product_fialkow_not_proportional():
    geo = geolib.s2xs1xr(1)
    emb = geolib.coordinate_slice(4, (0, 1, 2))
    q = np.array([0.1, -0.2, 0.3])
    ctx = SubTractorContext(geo, emb, q)
    F, p, _ = ctx.fialkow()
    gs, gi_s = ctx.sub.g_s, ctx.sub.gi_s
    P_tt = np.einsum("ai,bj,ab->ij", ctx.sub.dphi, ctx.sub.dphi, ctx.pack.P)
    # proportionality residual of F against g_Sigma
    trF = float(np.einsum("ij,ij->", gi_s, F)) / 3
    prop_res = _gnorm(gi_s, F - trF * gs)
    prop_ok = prop_res > 0.05

    # Unit round S^2 (metric h) times flat dtheta^2 (+ dt^2): Ric = h + 0 and
    # Scal = 2 on the ambient and on the slice.  With P = (Ric - J g)/(n-2),
    # J = Scal/(2(n-1)), and the slice totally geodesic (H = 0, IIo = 0), the
    # Fialkow tensor is F = iota*P - p.
    J_amb = 2 / (2 * 3)                      # n = 4
    P_h, P_t = (1 - J_amb) / 2, -J_amb / 2   # iota*P = P_h h + P_t dtheta^2
    J_sub = 2 / (2 * 2)                      # m = 3
    p_h, p_t = 1 - J_sub, -J_sub             # p = p_h h + p_t dtheta^2
    h = np.zeros((3, 3))
    h[:2, :2] = gs[:2, :2]
    dth2 = np.zeros((3, 3))
    dth2[2, 2] = gs[2, 2]
    ref_P = P_h * h + P_t * dth2
    ref_p = p_h * h + p_t * dth2
    err = max(_gnorm(gi_s, P_tt - ref_P), _gnorm(gi_s, p - ref_p),
              _gnorm(gi_s, F - (ref_P - ref_p)))
    ref_ok = err < 1e-6
    ok = prop_ok and ref_ok
    c_p = (p[0, 0] / gs[0, 0], p[2, 2] / gs[2, 2])
    c_P = (P_tt[0, 0] / gs[0, 0], P_tt[2, 2] / gs[2, 2])
    assert _verdict(5, ok,
                    "S2xS1 in S2xS1xR: proportionality residual "
                    f"{prop_res:.4f} (> 0.05: {prop_ok}); computed p = "
                    f"({c_p[0]:+.6f})h + ({c_p[1]:+.6f})dtheta^2 vs "
                    f"({p_h:+.6f}, {p_t:+.6f}); iota*P = ({c_P[0]:+.6f})h + "
                    f"({c_P[1]:+.6f})dtheta^2 vs ({P_h:+.6f}, {P_t:+.6f}); "
                    f"tensor error {err:.2e} (< 1e-6: {ref_ok})")


def _four_residuals(ctx):
    return [ctx.L_norm(),
            float(np.abs(ctx.nabla_normal_projector()).max()),
            float(np.abs(ctx.nabla_normal_form()).max()),
            float(np.abs(ctx.nabla_star_normal_form()).max())]


def test_criterion_6_equivalence_suite():
    t0 = time.time()
    tol = 1e-5
    distinguished = [
        ("flat hyperplane", geolib.euclidean(4),
         geolib.coordinate_slice(4, (0, 1, 2)), np.array([0.1, 0.2, -0.3])),
        ("great S2 in S4", geolib.sphere(4),
         geolib.coordinate_slice(4, (0, 1)), np.array([0.2, -0.1])),
        ("S2 factor in S2xS2", geolib.s2s2(),
         geolib.coordinate_slice(4, (0, 1), values=(0, 0, 0.2, -0.4)),
         np.array([0.1, 0.3])),
        ("doubly warped slice", geolib.doubly_warped_example(),
         geolib.coordinate_slice(4, (0, 1)), np.array([0.3, -0.2])),
        ("s2s2 diagonal", geolib.s2s2(), geolib.diagonal_s2s2(),
         np.array([0.25, -0.15])),
    ]
    ok = True
    lines = []
    for name, geo, emb, q in distinguished:
        rs = _four_residuals(SubTractorContext(geo, emb, q))
        good = max(rs) < tol
        ok = ok and good
        lines.append(f"{name}: max {max(rs):.2e}")
    ambient = geolib.random_metric(4, seed=101, amplitude=0.1)
    for k in range(10):
        emb = geolib.random_graph_embedding(4, 2, seed=200 + k)
        rs = _four_residuals(SubTractorContext(ambient, emb,
                                               np.array([0.04, -0.03])))
        # generic embeddings must not co-vanish
        good = min(rs) > 10 * tol
        ok = ok and good
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    assert _verdict(6, ok,
                    "equivalence residuals co-vanish exactly on the "
                    f"distinguished set ({'; '.join(lines)}), {elapsed:.1f}s")


def test_criterion_7_flat_circle():
    t0 = time.time()
    geo = geolib.euclidean(2)
    R = 1.0
    st = ci.CurveState([0, 0], [1, 0], [0, 1 / R])
    T = 2 * R * math.tan(0.45 * math.pi)
    traj = ci.integrate_circle(geo, st, (0.0, T), num=200)
    xs, _, _ = ci.flat_circle_solution(R, traj.ts)
    endpoint = float(np.abs(traj.xs[-1] - xs[-1]).max())

    geo3 = geolib.euclidean(3)
    st3 = ci.CurveState([0, 0, 0], [1, 0, 0], [0, 1, 0])
    phi_res = 0.0
    traj3 = ci.integrate_circle(geo3, st3, (0.0, 10.0), num=80)
    for k in range(0, 80, 9):
        phi_res = max(phi_res, float(np.abs(
            ci.phi_derivative(geo3, traj3.state(k))).max()))

    # rotation-generated first integrals along the length-10 circle
    from tractorlab.tensors import TensorValue, tractor_down

    def monitor(i, j):
        def f(geo_, state):
            K = fi._split_components(geo_, geolib.rotation_form(3, i, j),
                                     state.x)
            ixs = tuple(tractor_down(3) for _ in range(2))
            starK = tr.hodge_star(
                tr.TractorFormObject(TensorValue(K, ixs, 0), geo_),
                state.x).data
            _, _, Phi = ci.curve_tractors(geo_, state)
            pk = curvature_pack(geo_, state.x)
            low = np.eye(5)
            low[1:4, 1:4] = pk.g
            acc = Phi
            for ax in range(3):
                acc = np.moveaxis(np.tensordot(low, acc, axes=([1], [ax])),
                                  0, ax)
                acc = tr.pair_flip(acc, ax)
            return float(np.tensordot(starK, acc,
                                      axes=(range(3), range(3)))) / 6.0
        return f

    mons = {f"r{i}{j}": monitor(i, j) for (i, j) in [(0, 1), (0, 2), (1, 2)]}
    traj3 = ci.integrate_circle(geo3, st3, (0.0, 10.0), num=60, monitors=mons)
    drift = max(float(v.max() - v.min()) for v in traj3.monitored.values())
    elapsed = time.time() - t0
    ok = (endpoint < 1e-7 and phi_res < 1e-6 and drift < 1e-7
          and elapsed < 5.0)
    assert _verdict(7, ok,
                    f"flat circle: endpoint {endpoint:.2e}, Phi-transport "
                    f"{phi_res:.2e}, conserved drift {drift:.2e}, "
                    f"{elapsed:.2f}s")


def test_criterion_8_conservation():
    geo = geolib.euclidean(4)
    k4 = geolib.rotation_form(4, 0, 1)
    emb = geolib.coordinate_slice(4, (2, 3), values=(0.7, -0.2, 0, 0))
    rep = fi.conserved_quantity(geo, emb, k4, np.array([0.3, 0.5]))
    flat_ok = rep["derivative_residual"] < 1e-8

    geoP = geolib.s2s2()
    embd = geolib.diagonal_s2s2()
    q = np.array([0.25, -0.15])
    kg = geolib.s2s2_lifted_killing("t1", combo=(1.0, 0.4))
    repg = fi.conserved_quantity(geoP, embd, kg, q)
    match = float(np.abs(repg["derivative"] - repg["obstruction"]).max())
    generic_ok = match < 1e-4 and repg["derivative_residual"] > 1e-2
    ok = flat_ok and generic_ok
    assert _verdict(8, ok,
                    f"conservation: flat residual "
                    f"{rep['derivative_residual']:.2e}, diagonal obstruction "
                    f"match {match:.2e}, generic residual "
                    f"{repg['derivative_residual']:.2e}")


def test_criterion_9_zero_locus():
    t0 = time.time()
    geo = geolib.euclidean(4)
    rep = fi.zero_locus_scan(geo, geolib.rotation_form(4, 0, 1),
                             [(-1.0, 1.0)] * 4, grid=41)
    locus_ok = (rep.status == "locus" and rep.codim == 2
                and rep.L_residuals and max(rep.L_residuals) < 1e-5)

    def fn(v):
        from tractorlab.jets import Jet3
        s = v[0] * v[0]
        for a in range(1, 4):
            s = s + v[a] * v[a]
        return [(Jet3(4, 1.0) + s) * 0.5]

    f = geolib.JetField(fn)

    class Sc(geolib.ArrayField):
        def __init__(self):
            super().__init__(lambda x: f.value(x)[0],
                             backend=geolib._analytic_backend())

        def jets(self, x, order):
            return [j[0] for j in f.jets(x, order)]

    spec = geolib.KYFormSpec(n=4, degree=1, field=Sc())
    rep2 = fi.zero_locus_scan(geo, spec, [(-1.0, 1.0)] * 4, grid=9)
    timelike_ok = rep2.status == "empty" and rep2.causal == "timelike"
    elapsed = time.time() - t0
    ok = locus_ok and timelike_ok and elapsed < 20.0
    assert _verdict(9, ok,
                    f"zero locus: codim {rep.codim}, on-locus |L| "
                    f"{max(rep.L_residuals):.2e}, timelike certificate "
                    f"{rep2.causal}, {elapsed:.1f}s")


def test_criterion_10_conformal_invariance():
    cases = [
        ("great S2 in S4", geolib.sphere(4),
         geolib.coordinate_slice(4, (0, 1)), np.array([0.2, -0.1])),
        ("S2 factor", geolib.s2s2(),
         geolib.coordinate_slice(4, (0, 1), values=(0, 0, 0.2, -0.4)),
         np.array([0.1, 0.3])),
        ("CP1 in CP2", geolib.fubini_study(2), geolib.cp1_slice(),
         np.array([0.2, -0.3])),
        ("twisted slice", geolib.twisted_example(),
         geolib.coordinate_slice(4, (0, 1)), np.array([0.3, -0.2])),
        ("doubly warped slice", geolib.doubly_warped_example(),
         geolib.coordinate_slice(4, (0, 1)), np.array([0.3, -0.2])),
    ]
    ok = True
    worst_analytic = 0.0
    for name, geo, emb, q in cases:
        base = classify([SubTractorContext(geo, emb, q)])
        for s in range(5):
            om = geolib.random_conformal_factor(geo.n, seed=900 + 13 * s,
                                                amplitude=0.15)
            geo2, _ = rescale(geo, om)
            rep = classify([SubTractorContext(geo2, emb, q)])
            ok = ok and rep.verdicts == base.verdicts
    # transformation-law residuals (analytic) on one case
    geo, emb, q = cases[1][1], cases[1][2], cases[1][3]
    om = geolib.random_conformal_factor(4, seed=77, amplitude=0.2)
    res_a = _law_residuals(geo, emb, om, q)
    worst_analytic = max(res_a.values())
    ok = ok and worst_analytic < 1e-5
    # FD variant
    from tractorlab.cli import as_fd_geometry
    geo_fd = as_fd_geometry(geolib.s2s2())
    res_f = _law_residuals(geo_fd, emb, om, q)
    worst_fd = max(res_f.values())
    ok = ok and worst_fd < 1e-2
    assert _verdict(10, ok,
                    "verdicts stable under 5 rescalings on 5 cases; "
                    f"law residuals analytic {worst_analytic:.2e}, "
                    f"FD {worst_fd:.2e}")


def _law_residuals(geo, emb, om, q):
    from tractorlab.submanifold import conformal_transform_check
    from tractorlab.tensors import FieldHandle, ArrayField, DiffBackend
    sub = submanifold_pack(geo, emb, q)
    x = sub.x
    geoh, upsilon = rescale(geo, om)
    pk = curvature_pack(geo, x, order=3)
    pkh = curvature_pack(geoh, x, order=3)
    ups = upsilon(x)
    oj = om.jets(x, 2)
    dU = oj[2] / oj[0] - np.multiply.outer(oj[1], oj[1]) / oj[0] ** 2
    covU = dU - np.einsum("eab,e->ab", pk.Gamma, ups)
    ups_up = pk.gi @ ups
    pred = (pk.P - covU + np.multiply.outer(ups, ups)
            - 0.5 * float(ups @ ups_up) * pk.g)
    out = {"schouten": float(np.abs(pkh.P - pred).max())}
    ff = conformal_transform_check(geo, emb, om, q)
    out["second_fundamental_form"] = max(ff["II"], ff["H"],
                                         ff["IIo_invariance"])
    I_g = tr.make_tractor(geo.n, sigma=1.0, rho=-pk.J / geo.n)

    class _Om(ArrayField):
        def __init__(self):
            super().__init__(lambda y: float(om.value(y)),
                             backend=DiffBackend(mode="analytic",
                                                 max_order=3))

        def jets(self, y, order):
            return om.jets(y, order)

    I_h = tr.thomas_D(geoh, FieldHandle(_Om(), (), 1), 1, x).data / geo.n
    M = tr.rescale_triple_matrix(pk, ups, variance="down")
    w0 = float(om.value(x))
    predI = tr.rescale_component_weights(
        w0, tr.slot_weights(geo.n, "down")) * (M @ I_g)
    out["tractor_triple"] = float(np.abs(I_h - predI).max())
    return out
