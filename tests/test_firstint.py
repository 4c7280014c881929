"""Killing-Yano forms, splitting, conserved quantities and zero loci."""
import math

import numpy as np
import pytest

from tractorlab import geolib
from tractorlab import circles as ci
from tractorlab import firstint as fi
from tractorlab import tractor as tr
from tractorlab.riemann import curvature_pack
from tractorlab.subtractor import SubTractorContext
from tractorlab.tensors import (TensorValue, middle_block, pairing_matrix,
                                tractor_down)


def test_ky_residuals_flat_catalog():
    geo = geolib.euclidean(3)
    p = np.array([0.4, -0.2, 0.7])
    for spec in (geolib.constant_form(3, [1.0, 0, 0]),
                 geolib.rotation_form(3, 0, 1),
                 geolib.dilation_form(3),
                 geolib.special_conformal_form(3)):
        assert fi.ky_residual(geo, spec, p) < 1e-12


def test_ky_residual_detects_non_solutions():
    geo = geolib.euclidean(3)

    def bad(v):
        zero = v[0] * 0.0
        return [zero, v[0] * v[0], zero]

    spec = geolib.KYFormSpec(n=3, degree=2,
                             field=geolib.JetField(bad))
    assert fi.ky_residual(geo, spec, np.array([1.0, 0.2, -0.1])) > 0.1


def test_flat_rotation_split_parallel_spacelike_simple():
    geo = geolib.euclidean(3)
    sp = fi.bgg_split(geo, geolib.rotation_form(3, 0, 1),
                      np.array([0.4, -0.2, 0.7]))
    assert sp.normality_residual < 1e-8
    assert sp.causal == "spacelike"
    assert sp.simple
    # top slot of K reproduces k (Y-slot extraction for d = 2)
    k_back = 2.0 * sp.K[0, 1:4]
    expected = np.array([0.2, 0.4, 0.0])
    assert np.abs(k_back - expected).max() < 1e-12


def test_zero_form_splits_to_zero():
    geo = geolib.euclidean(3)
    spec = geolib.constant_form(3, [0.0, 0.0, 0.0])
    sp = fi.bgg_split(geo, spec, np.array([0.1, 0.2, 0.3]))
    assert np.abs(sp.K).max() == 0.0


def test_conformally_flat_solutions_are_normal():
    geo = geolib.sphere(4)
    p = np.array([0.1, 0.2, -0.3, 0.05])
    spec = geolib.round_rotation_form(4, 0, 1)
    assert fi.ky_residual(geo, spec, p) < 1e-12
    assert fi.bgg_split(geo, spec, p).normality_residual < 1e-4


def test_s2s2_killing_fields_not_normal():
    geo = geolib.s2s2()
    p = np.array([0.2, -0.1, 0.3, 0.15])
    for gen in ("rot", "t1", "t2"):
        spec = geolib.s2s2_lifted_killing(gen, 1)
        assert fi.ky_residual(geo, spec, p) < 1e-12
        assert fi.bgg_split(geo, spec, p).normality_residual > 0.01


def test_conserved_quantity_flat_line():
    geo = geolib.euclidean(3)
    k = geolib.rotation_form(3, 0, 1)
    emb = geolib.coordinate_slice(3, (2,), values=(1.3, 0.0, 0.0))
    rep = fi.conserved_quantity(geo, emb, k, np.array([0.4]))
    assert rep["derivative_residual"] < 1e-10
    assert rep["value"] == pytest.approx(rep["explicit"], abs=1e-10)
    # the slot evaluation of K.N on a parallel flat line: (1/d) grad k . N
    assert rep["value"] == pytest.approx(1.0, abs=1e-10)


def test_conserved_quantity_codim2_plane():
    geo = geolib.euclidean(4)
    k = geolib.rotation_form(4, 0, 1)
    emb = geolib.coordinate_slice(4, (2, 3), values=(0.7, -0.2, 0, 0))
    rep = fi.conserved_quantity(geo, emb, k, np.array([0.3, 0.5]))
    assert rep["derivative_residual"] < 1e-8
    assert rep["value"] == pytest.approx(rep["explicit"], abs=1e-10)


def test_degree_codimension_mismatch():
    geo = geolib.euclidean(4)
    k = geolib.rotation_form(4, 0, 1)
    emb = geolib.coordinate_slice(4, (0, 1, 2))
    with pytest.raises(ValueError):
        fi.conserved_quantity(geo, emb, k, np.array([0.1, 0.2, 0.3]))


def test_s2s2_diagonal_obstruction():
    geo = geolib.s2s2()
    emb = geolib.diagonal_s2s2()
    q = np.array([0.25, -0.15])
    # orthogonal combination conserved
    ka = geolib.s2s2_lifted_killing("t1", combo=(1.0, -1.0))
    rep = fi.conserved_quantity(geo, emb, ka, q)
    assert rep["derivative_residual"] < 1e-8
    # generic combination not conserved; matches the Weyl obstruction
    kg = geolib.s2s2_lifted_killing("t1", combo=(1.0, 0.4))
    rep = fi.conserved_quantity(geo, emb, kg, q)
    assert rep["derivative_residual"] > 1e-2
    assert np.abs(rep["derivative"] - rep["obstruction"]).max() < 1e-4


def test_factor_killing_conserved_on_factor():
    # along S^2 x {p} every lifted Killing field gives a conserved quantity
    geo = geolib.s2s2()
    emb = geolib.coordinate_slice(4, (0, 1), values=(0, 0, 0.2, -0.4))
    q = np.array([0.1, 0.3])
    for gen in ("rot", "t1", "t2"):
        k = geolib.s2s2_lifted_killing(gen, 1, combo=(0.7, 0.5))
        rep = fi.conserved_quantity(geo, emb, k, q)
        assert rep["derivative_residual"] < 1e-7, gen


def test_conservation_along_flat_circles():
    # three rotation-generated first integrals drift < 1e-7 over length 10
    geo = geolib.euclidean(3)
    st = ci.CurveState([0, 0, 0], [1, 0, 0], [0, 1, 0])

    def monitor(i, j):
        def f(geo_, state):
            spec = geolib.rotation_form(3, i, j)
            split = fi.bgg_split(geo_, spec, state.x)
            ixs = tuple(tractor_down(3) for _ in range(2))
            F = tr.TractorFormObject(TensorValue(split.K, ixs, 0), geo_)
            starK = tr.hodge_star(F, state.x).data
            _, _, Phi = ci.curve_tractors(geo_, state)
            pk = curvature_pack(geo_, state.x)
            low = np.eye(5)
            low[1:4, 1:4] = pk.g
            acc = Phi
            for ax in range(3):
                acc = np.moveaxis(np.tensordot(low, acc, axes=([1], [ax])),
                                  0, ax)
            for ax in range(3):
                acc = tr.pair_flip(acc, ax)
            return float(np.tensordot(starK, acc,
                                      axes=(range(3), range(3)))) / 6.0
        return f

    mons = {f"r{i}{j}": monitor(i, j) for (i, j) in [(0, 1), (0, 2), (1, 2)]}
    traj = ci.integrate_circle(geo, st, (0.0, 10.0), num=120, monitors=mons)
    for name, vals in traj.monitored.items():
        assert vals.max() - vals.min() < 1e-7, name


def test_scan_rotation_locus():
    geo = geolib.euclidean(4)
    rep = fi.zero_locus_scan(geo, geolib.rotation_form(4, 0, 1),
                             [(-1.0, 1.0)] * 4, grid=21)
    assert rep.status == "locus"
    assert rep.codim == 2
    for p in rep.points:
        assert abs(p[0]) < 1e-7 and abs(p[1]) < 1e-7
    assert rep.L_residuals and max(rep.L_residuals) < 1e-5


def test_scan_translation_empty():
    geo = geolib.euclidean(4)
    rep = fi.zero_locus_scan(geo, geolib.constant_form(4, [1, 0, 0, 0]),
                             [(-1.0, 1.0)] * 4, grid=9)
    assert rep.status == "empty"


def test_scan_timelike_certificate():
    geo = geolib.euclidean(4)

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

    spec = geolib.KYFormSpec(n=4, degree=1, field=Sc(), name="sphere_scale")
    rep = fi.zero_locus_scan(geo, spec, [(-1.0, 1.0)] * 4, grid=9)
    assert rep.status == "empty"
    assert rep.causal == "timelike"
    assert rep.K2 < 0


def test_hyperbolic_scale_zero_locus_is_normal_tractor():
    """sigma = (1 - |x|^2)/2: the zero locus is the boundary sphere and the
    parallel scale tractor restricts there to (a sign of) the boundary's
    tractor conormal, i.e. I is normal to the locus."""
    n = 3
    geo = geolib.euclidean(n)
    sig = geolib.almost_einstein_hyperbolic(n)
    sp = fi.bgg_split(geo, sig, np.array([0.2, -0.1, 0.4]))
    assert sp.normality_residual < 1e-10
    emb = geolib.sphere_in_flat(n, 1.0)
    for q in (np.array([0.2, -0.3]), np.array([0.05, 0.4])):
        ctx = SubTractorContext(geo, emb, q)
        I = fi._split_components(geo, sig, ctx.sub.x)
        assert abs(float(sig.field.value(ctx.sub.x))) < 1e-12
        Ntr = ctx.tractor_conormals()[0]
        # raise the conormal to compare with the (up-slot) scale tractor
        Nup = middle_block(ctx.pack.gi) @ Ntr
        sign = np.sign(float(I @ Nup)) or 1.0
        assert np.abs(I - sign * Nup).max() < 1e-9
        # consequently I is fixed by the normal tractor projector
        from tractorlab.subtractor import normal_projector_array
        N = normal_projector_array(ctx.sub)
        assert np.abs(N @ (pairing_matrix(n) @ I) - I).max() < 1e-9


def test_scan_hyperbolic_scale_codim1():
    geo = geolib.euclidean(3)
    sig = geolib.almost_einstein_hyperbolic(3)
    rep = fi.zero_locus_scan(geo, sig, [(-1.5, 1.5)] * 3, grid=13)
    assert rep.status == "locus"
    assert rep.codim == 1
    for p in rep.points:
        assert abs(np.linalg.norm(p) - 1.0) < 1e-7
    assert max(rep.L_residuals) < 1e-4


# --------------------------------------------------------------------------
# exact derivatives against the finite-difference route
# --------------------------------------------------------------------------

def _non_solution_1form():
    """A degree-2 form that is neither Killing nor conformal Killing."""
    def fn(v):
        return [v[1] * v[1], v[0] * v[2], v[0] * v[1] * v[2] + v[0]]
    return geolib.KYFormSpec(n=3, degree=2,
                             field=geolib.JetField(fn))


def _non_solution_2form():
    """A degree-3 non-solution: its div k is a 1-form, so the chart
    Jacobian of div k carries a Levi-Civita term."""
    def fn(v):
        zero = v[0] * 0.0
        a, b, c = v[0] * v[1], v[2] * v[2] + v[1], v[0] * v[2] * v[1]
        return [[zero, a, b], [-a, zero, c], [-b, -c, zero]]
    return geolib.KYFormSpec(n=3, degree=3,
                             field=geolib.JetField(fn))


def _fd_div_middle_part(geo, kspec, x, pack):
    """The former route, kept as the oracle: central differences of the
    pointwise middle part of nabla k, Levi-Civita terms, then the
    divergence on the first index."""
    n, d = geo.n, kspec.degree
    h = 1e-4
    M0 = fi.ky_decompose(geo, kspec, x)[1]
    dM = np.empty(M0.shape + (n,))
    for a in range(n):
        e = h * np.eye(n)[a]
        dM[..., a] = (fi.ky_decompose(geo, kspec, x + e)[1]
                      - fi.ky_decompose(geo, kspec, x - e)[1]) / (2 * h)
    cov = np.moveaxis(dM, -1, 0)  # [c, b, a2..]
    for ax in range(d):
        corr = -np.einsum("ecf,...e->c...f", pack.Gamma,
                          np.moveaxis(M0, ax, -1))
        cov = cov + np.moveaxis(corr, -1, ax + 1)
    return np.einsum("cb,cb...->...", pack.gi, cov)


ORACLE_GEOMETRIES = {"euclidean": lambda: geolib.euclidean(3),
                     "sphere": lambda: geolib.sphere(3),
                     "random_metric": lambda: geolib.random_metric(3)}


@pytest.mark.parametrize("name", sorted(ORACLE_GEOMETRIES))
def test_exact_split_matches_fd_route(name, monkeypatch):
    geo = ORACLE_GEOMETRIES[name]()
    x = np.array([0.3, -0.2, 0.1])
    for spec in (_non_solution_1form(), _non_solution_2form()):
        pack, _, covs = fi._cov_jets(geo, spec, x, 2)
        assert np.abs(fi._div_middle_part(pack, covs)).max() > 0.1
        K = fi._split_components(geo, spec, x)
        with monkeypatch.context() as mp:
            mp.setattr(fi, "_div_middle_part",
                       lambda pk, cv: _fd_div_middle_part(geo, spec, x, pk))
            K_fd = fi._split_components(geo, spec, x)
        assert np.abs(K - K_fd).max() <= 1e-8, spec.degree


def test_div_middle_part_vanishes_on_solutions():
    x3 = np.array([0.4, -0.2, 0.7])
    x4 = np.array([0.1, 0.2, -0.3, 0.05])
    cases = [(geolib.euclidean(3), geolib.rotation_form(3, 0, 1), x3),
             (geolib.euclidean(3), geolib.dilation_form(3), x3),
             (geolib.euclidean(3), geolib.special_conformal_form(3), x3),
             (geolib.sphere(4), geolib.round_rotation_form(4, 0, 1), x4),
             (geolib.s2s2(), geolib.s2s2_lifted_killing("t1", 1), x4)]
    for geo, spec, x in cases:
        pack, _, covs = fi._cov_jets(geo, spec, x, 2)
        assert np.abs(fi._div_middle_part(pack, covs)).max() <= 1e-14, \
            spec.name


def test_split_components_makes_no_ky_decompose_call(monkeypatch):
    calls = []
    decompose = fi.ky_decompose
    monkeypatch.setattr(fi, "ky_decompose",
                        lambda *a: calls.append(a) or decompose(*a))
    x = np.array([0.3, -0.2, 0.1])
    for spec in (geolib.rotation_form(3, 0, 1), _non_solution_1form(),
                 _non_solution_2form()):
        fi._split_components(geolib.euclidean(3), spec, x)
    assert calls == []


@pytest.mark.parametrize("case", ["rotation", "special_conformal",
                                  "non_solution", "non_solution_2form",
                                  "hyperbolic_scale"])
def test_component_map_jacobian_matches_central_differences(case):
    geo, spec = {
        "rotation": (geolib.euclidean(3), geolib.rotation_form(3, 0, 1)),
        "special_conformal": (geolib.euclidean(3),
                              geolib.special_conformal_form(3)),
        "non_solution": (geolib.random_metric(3), _non_solution_1form()),
        "non_solution_2form": (geolib.sphere(3), _non_solution_2form()),
        "hyperbolic_scale": (geolib.euclidean(3),
                             geolib.almost_einstein_hyperbolic(3)),
    }[case]
    x = np.array([0.3, -0.2, 0.1])
    F, J = fi._component_map(geo, spec, x, jac=True)
    assert np.array_equal(F, fi._component_map(geo, spec, x))
    h = 1e-6
    J_fd = np.stack([(fi._component_map(geo, spec, x + h * e)
                      - fi._component_map(geo, spec, x - h * e)) / (2 * h)
                     for e in np.eye(3)], axis=1)
    assert J.shape == J_fd.shape
    assert np.abs(J).max() > 0.1
    assert np.abs(J - J_fd).max() <= 1e-8
