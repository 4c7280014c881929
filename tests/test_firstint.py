"""Killing-Yano forms, splitting, conserved quantities and zero loci."""
import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import random_metric
from tractorlab import cli, geolib, submanifold, subtractor
from tractorlab import circles as ci
from tractorlab import firstint as fi
from tractorlab import tractor as tr
from tractorlab.riemann import curvature_pack
from tractorlab.submanifold import EmbeddingSpec
from tractorlab.subtractor import SubTractorContext
from tractorlab.tensors import (ArrayField, DiffBackend, JetOrderError,
                                middle_block, pairing_matrix, tangent_down,
                                tractor_down)
from test_jets import _bitwise_equal


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


# normal solutions, whose splitting tractor is parallel: the round sphere's
# rotations and the flat chart's hyperbolic scale
NORMAL_SOLUTIONS = {
    "sphere3-rotation": (lambda: geolib.sphere(3),
                         lambda: geolib.round_rotation_form(3, 0, 1)),
    "sphere4-rotation": (lambda: geolib.sphere(4),
                         lambda: geolib.round_rotation_form(4, 0, 1)),
    "euclidean3-hyperbolic_scale": (
        lambda: geolib.euclidean(3),
        lambda: geolib.almost_einstein_hyperbolic(3)),
}


@pytest.mark.parametrize("name", sorted(NORMAL_SOLUTIONS))
def test_normal_solutions_are_parallel_to_round_off(name):
    """The normality of a normal solution is round-off: the tractor
    derivative of K's exact first jet.  The central-difference stencil
    left 7.0e-6 on both round rotations and 1.7e-14 on the hyperbolic
    scale; round-off reads at most 8e-16 at these and five seeded
    points."""
    make_geo, make_k = NORMAL_SOLUTIONS[name]
    geo = make_geo()
    x = np.array([0.1, 0.2, -0.3, 0.05])[:geo.n]
    assert fi.bgg_split(geo, make_k(), x).normality_residual <= 4e-15


def _catalog_ky_forms():
    """(label, geometry maker, form maker) of every Killing-Yano form of
    ``geolib.catalog()`` at its default parameters, and the lifted s2s2
    Killing forms of each generator in each combination the tests use."""
    for name, entry in sorted(geolib.catalog().items()):
        for fname, make in sorted(entry.ky_forms.items()):
            yield f"{name}/{fname}", entry.make_geometry, make
    for gen in ("rot", "t1", "t2"):
        for combo in ((1.0, 0.0), (0.0, 1.0), (1.0, -1.0), (1.0, 0.4),
                      (0.7, 0.5)):
            yield (f"s2s2/{gen}{combo}", geolib.s2s2,
                   lambda gen=gen, combo=combo: geolib.s2s2_lifted_killing(
                       gen, combo=combo))


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
def test_exact_normality_matches_the_stencil(fd):
    """Over every catalog Killing-Yano form (degrees 1 and 2), the tractor
    derivative of K's exact first jet, whose largest component is
    ``bgg_split``'s normality, against the central difference of K
    (``oracles.stencil_normality``).  The walk's largest relative
    difference is 1.0e-5, the stencil's truncation on s2s2, on both
    backends; the s2s2 forms are not normal (> 0.5)."""
    degrees = set()
    for label, make_geo, make_k in _catalog_ky_forms():
        geo, k = make_geo(), make_k()
        if fd:
            geo = cli.as_fd_geometry(geo)
        degrees.add(k.degree)
        x = np.random.default_rng(11).uniform(-0.3, 0.3, geo.n)
        pack = curvature_pack(geo, x, order=3)
        K, dK = fi._split_components(geo, k, x, pack, order=1)
        nab = tr.covariant_jet(tr.ConnData.from_pack(pack), [K, dK],
                               (tractor_down(geo.n),) * K.ndim)[0]
        assert fi.bgg_split(geo, k, x).normality_residual == \
            np.abs(nab).max(), label
        ref = oracles.stencil_normality(geo, k, x)
        err = np.abs(nab - ref).max() / max(1.0, np.abs(ref).max())
        assert err <= 3e-5, (label, err)
        if label.startswith("s2s2"):
            assert np.abs(nab).max() > 0.5, label
    assert degrees == {1, 2}


def test_two_dimensional_normality_reads_the_moebius_field():
    """On a 2-dimensional chart the tractor connection's Schouten tensor is
    the Moebius structure's, so K's first jet reads that field's first jet
    (dP of the order-3 pack): the euclidean(2) and sphere(2) rotations
    against the stencil (at most 8.0e-6 apart, the stencil's truncation
    and the Moebius field's central difference), and a scan on
    euclidean(2) exits 0."""
    x = np.array([0.2, -0.3])
    for geo, k in ((geolib.euclidean(2), geolib.rotation_form(2)),
                   (geolib.sphere(2), geolib.round_rotation_form(2))):
        ref = oracles.stencil_normality(geo, k, x)
        assert abs(fi.bgg_split(geo, k, x).normality_residual
                   - np.abs(ref).max()) <= 2e-5
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(["scan", "-s",
                       'geometry={"name":"euclidean","params":{"n":2}}',
                       "-s", 'scan={"ky":{"name":"rotation",'
                             '"params":{"n":2}},"grid":5}'])
    assert rc == 0
    assert json.loads(out.getvalue())["normality_residual"] == 0.0


def test_order0_split_is_the_value_of_the_jet():
    """K at order 0, the monitors' route on an order-2 pack, is bitwise
    the value of the first jet on an order-3 pack."""
    for label, make_geo, make_k in _catalog_ky_forms():
        geo, k = make_geo(), make_k()
        x = np.random.default_rng(12).uniform(-0.3, 0.3, geo.n)
        K = fi._split_components(geo, k, x)
        assert _bitwise_equal(K, fi._split_components(geo, k, x,
                                                      order=1)[0]), label


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


@pytest.mark.parametrize("case", ["line", "s2s2-diagonal"])
def test_conserved_quantity_reads_the_context_packs(case, monkeypatch):
    """The splitting's first jet and the slot evaluation read the
    context's packs: its order-2 pack at q, a stack of one, and its
    order-3 ambient pack at x, with no stencil.  The Richardson stencil
    under ``SubTractorContext.along`` built a stacked pack of 4m rows."""
    if case == "line":
        geo, emb = geolib.euclidean(3), geolib.coordinate_slice(
            3, (2,), values=(1.3, 0.0, 0.0))
        k, q = geolib.rotation_form(3, 0, 1), np.array([0.4])
    else:
        geo, emb = geolib.s2s2(), geolib.diagonal_s2s2()
        k = geolib.s2s2_lifted_killing("t1", combo=(1.0, 0.4))
        q = np.array([0.25, -0.15])
    calls = []

    def counted(geo, x, order=None):
        calls.append((np.shape(x), order))
        return curvature_pack(geo, x, order)
    for mod in (fi, submanifold, subtractor):
        monkeypatch.setattr(mod, "curvature_pack", counted)
    fi.conserved_quantity(geo, emb, k, q)
    assert sorted(calls) == [((1, geo.n), 2), ((geo.n,), 3)]


CONSERVED_CASES = {
    "euclidean3-line": (lambda: geolib.euclidean(3),
                        lambda: geolib.coordinate_slice(
                            3, (2,), values=(1.3, 0.0, 0.0)),
                        lambda: geolib.rotation_form(3, 0, 1), [0.4]),
    "euclidean4-plane": (lambda: geolib.euclidean(4),
                         lambda: geolib.coordinate_slice(
                             4, (2, 3), values=(0.7, -0.2, 0, 0)),
                         lambda: geolib.rotation_form(4, 0, 1), [0.3, 0.5]),
    "s2s2-diagonal-antidiagonal": (
        geolib.s2s2, geolib.diagonal_s2s2,
        lambda: geolib.s2s2_lifted_killing("t1", combo=(1.0, -1.0)),
        [0.25, -0.15]),
    "s2s2-diagonal-generic": (
        geolib.s2s2, geolib.diagonal_s2s2,
        lambda: geolib.s2s2_lifted_killing("t1", combo=(1.0, 0.4)),
        [0.25, -0.15]),
    **{f"s2s2-factor-{gen}": (
        geolib.s2s2,
        lambda: geolib.coordinate_slice(4, (0, 1), values=(0, 0, 0.2, -0.4)),
        lambda gen=gen: geolib.s2s2_lifted_killing(gen, 1, combo=(0.7, 0.5)),
        [0.1, 0.3]) for gen in ("rot", "t1", "t2")},
}


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(CONSERVED_CASES))
def test_conserved_quantity_derivative_matches_the_stencil(name, fd):
    """The exact partial of K . N along Sigma against the Richardson
    difference of whole contexts (``oracles.along``) at every conserved
    quantity the tests read.  The walk's largest difference is the
    stencil's, 1.8e-9 on the generic diagonal form; with the metric
    differenced, 4.2e-7 there (the exact route reads the central-difference
    3-jet); 0 on the others."""
    make_geo, make_emb, make_k, q = CONSERVED_CASES[name]
    geo, k, q = make_geo(), make_k(), np.array(q)
    if fd:
        geo = cli.as_fd_geometry(geo)
    rep = fi.conserved_quantity(geo, make_emb(), k, q)
    ctx = SubTractorContext(geo, make_emb(), q)
    value = oracles.conserved_quantity_value(geo, k)
    assert rep["value"] == pytest.approx(value(ctx), abs=1e-14)
    ref = oracles.along(ctx, value, ())
    assert np.abs(rep["derivative"] - ref).max() <= (1e-6 if fd else 5e-9)


def test_generic_diagonal_derivative_is_the_obstruction_to_round_off():
    """Along the diagonal of s2s2 the generic combination's derivative is
    the Weyl obstruction to round-off (4.4e-16; the stencil's derivative
    was 1.8e-9 away): every lifted generator, at seven points."""
    geo, emb = geolib.s2s2(), geolib.diagonal_s2s2()
    rng = np.random.default_rng(3)
    for q in [np.array([0.25, -0.15])] + list(rng.uniform(-0.5, 0.5, (6, 2))):
        for gen in ("rot", "t1", "t2"):
            k = geolib.s2s2_lifted_killing(gen, combo=(1.0, 0.4))
            rep = fi.conserved_quantity(geo, emb, k, q)
            assert rep["derivative_residual"] > 0.2
            assert np.abs(rep["derivative"]
                          - rep["obstruction"]).max() <= 4e-15, (gen, q)


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
        def f(geo_, state, _pack):
            spec = geolib.rotation_form(3, i, j)
            split = fi.bgg_split(geo_, spec, state.x)
            starK = tr.hodge_star(geo_, split.K, state.x)
            # star K carries down tractor indices and Phi up ones: they
            # pair through J, the sigma/rho flip, on each of Phi's axes
            _, _, acc = ci.curve_tractors(geo_, state)
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


def test_scan_memory_is_a_few_floats_per_grid_point():
    """The scan grid holds |k|^2 and one slab of the first axis, not the
    grid's coordinates: the traced peak of the flat n = 4 rotation scan at
    grid 21 stays within 3 floats per grid point (a grid of coordinates
    with its meshgrid alone takes 8)."""
    geo, kspec = geolib.euclidean(4), geolib.rotation_form(4)
    fi.zero_locus_scan(geo, kspec, [(-1.0, 1.0)] * 4, grid=21)
    tracemalloc.start()
    try:
        fi.zero_locus_scan(geo, kspec, [(-1.0, 1.0)] * 4, grid=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * 21 ** 4


def test_scan_translation_empty():
    geo = geolib.euclidean(4)
    rep = fi.zero_locus_scan(geo, geolib.constant_form(4, [1, 0, 0, 0]),
                             [(-1.0, 1.0)] * 4, grid=9)
    assert rep.status == "empty"


def test_scan_timelike_certificate():
    geo = geolib.euclidean(4)

    def fn(v):
        from oracles import constant
        s = v[0] * v[0]
        for a in range(1, 4):
            s = s + v[a] * v[a]
        return [(constant(4, 1.0, 3) + s) * 0.5]

    f = geolib.JetField(fn)

    class Sc(geolib.ArrayField):
        def __init__(self):
            super().__init__(lambda x: f.value(x)[0],
                             backend=geolib._analytic_backend())

        def jets(self, x, order):
            # component 0, after the point axis of a stack
            return [np.take(j, 0, axis=np.ndim(x) - 1)
                    for j in f.jets(x, order)]

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
        Ntr = subtractor.tractor_conormal_rows(ctx.sub.conormals,
                                               ctx.sub.H)[0]
        # raise the conormal to compare with the (up-slot) scale tractor
        Nup = middle_block(ctx.pack.gi) @ Ntr
        sign = np.sign(float(I @ Nup)) or 1.0
        assert np.abs(I - sign * Nup).max() < 1e-9
        # consequently I is fixed by the normal tractor projector
        from tractorlab.subtractor import normal_projector_array
        N = normal_projector_array(ctx.sub)
        assert np.abs(N @ (pairing_matrix(n) @ I) - I).max() < 1e-9


def test_scan_hyperbolic_scale_codim1(monkeypatch):
    def fail(*args):
        raise AssertionError("finite-difference jets in the scan")
    monkeypatch.setattr(ArrayField, "_fd_jets", fail)
    geo = geolib.euclidean(3)
    sig = geolib.almost_einstein_hyperbolic(3)
    rep = fi.zero_locus_scan(geo, sig, [(-1.5, 1.5)] * 3, grid=13)
    assert rep.status == "locus"
    assert rep.codim == 1
    for p in rep.points:
        assert abs(np.linalg.norm(p) - 1.0) < 1e-7
    assert max(rep.L_residuals) < 1e-10


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
                     "random_metric": lambda: random_metric(3)}


@pytest.mark.parametrize("name", sorted(ORACLE_GEOMETRIES))
def test_exact_split_matches_fd_route(name, monkeypatch):
    geo = ORACLE_GEOMETRIES[name]()
    x = np.array([0.3, -0.2, 0.1])
    for spec in (_non_solution_1form(), _non_solution_2form()):
        pack, _, covs = fi._cov_jets(geo, spec, x, 2)
        assert np.abs(fi._div_middle_part(pack, covs[1])).max() > 0.1
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
        assert np.abs(fi._div_middle_part(pack, covs[1])).max() <= 1e-14, \
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


def test_bgg_split_reads_one_order3_pack(monkeypatch):
    """The normality is the tractor derivative of K's exact first jet: one
    order-3 curvature pack at the point and no stacked pack (the former
    2n-row stencil took a stacked one)."""
    calls = []
    pack = fi.curvature_pack
    monkeypatch.setattr(fi, "curvature_pack", lambda geo, x, order=None:
                        calls.append((np.shape(x), order))
                        or pack(geo, x, order))
    fi.bgg_split(geolib.euclidean(4), geolib.rotation_form(4, 0, 1),
                 np.array([0.3, -0.2, 0.1, 0.4]))
    assert calls == [((4,), 3)]


@pytest.mark.parametrize("case", ["rotation", "special_conformal",
                                  "non_solution", "non_solution_2form",
                                  "hyperbolic_scale"])
def test_component_map_jacobian_matches_central_differences(case):
    geo, spec = {
        "rotation": (geolib.euclidean(3), geolib.rotation_form(3, 0, 1)),
        "special_conformal": (geolib.euclidean(3),
                              geolib.special_conformal_form(3)),
        "non_solution": (random_metric(3), _non_solution_1form()),
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


def _pack_component_map(geo, kspec, x, jac=False):
    """The former route of ``_component_map``, kept as the oracle: the
    connection read from an order-2 curvature pack."""
    n = geo.n
    pack, jets, covs = fi._cov_jets(geo, kspec, x, 2 if jac else 1)
    comps = [np.atleast_1d(np.asarray(jets[0])).ravel()]
    rows = [np.reshape(jets[1], (-1, n))] if jac else []
    if kspec.degree >= 2:
        grad = np.moveaxis(covs[0], -1, 0)
        div = np.einsum("ab,ab...->...", pack.gi, grad)
        comps.append(np.atleast_1d(np.asarray(div)).ravel())
        if jac:
            ddiv = np.einsum("ab,b...ac->...c", pack.gi, covs[1])
            M = tr.ConnData.from_pack(pack).matrix(tangent_down(n))
            for ax in range(div.ndim):
                ddiv = ddiv - tr._apply_axis(M, div, ax)
            rows.append(np.reshape(ddiv, (-1, n)))
    F = np.concatenate(comps)
    return (F, np.concatenate(rows)) if jac else F


@pytest.mark.parametrize("case", ["rotation", "special_conformal",
                                  "non_solution", "non_solution_2form",
                                  "hyperbolic_scale"])
def test_component_map_connection_matches_pack_route(case, monkeypatch):
    geo, spec = {
        "rotation": (geolib.euclidean(3), geolib.rotation_form(3, 0, 1)),
        "special_conformal": (geolib.euclidean(3),
                              geolib.special_conformal_form(3)),
        "non_solution": (random_metric(3), _non_solution_1form()),
        "non_solution_2form": (geolib.sphere(3), _non_solution_2form()),
        "hyperbolic_scale": (geolib.euclidean(3),
                             geolib.almost_einstein_hyperbolic(3)),
    }[case]
    x = np.array([0.3, -0.2, 0.1])
    F_ref, J_ref = _pack_component_map(geo, spec, x, jac=True)
    F1_ref = _pack_component_map(geo, spec, x)
    monkeypatch.setattr(fi, "curvature_pack", None)  # no pack on this route
    F, J = fi._component_map(geo, spec, x, jac=True)
    assert np.array_equal(F, F_ref) and np.array_equal(J, J_ref)
    assert np.array_equal(fi._component_map(geo, spec, x), F1_ref)


# --------------------------------------------------------------------------
# the locus polynomial against the Newton parametrisation
# --------------------------------------------------------------------------

def _newton_graph_parametrisation(geo, kspec, x0, codim):
    """The former route, kept as the oracle: tangent directions from the
    Jacobian null space, the normal complement solved by Newton at every
    value (to round-off: until a step no longer shrinks the components),
    differentiated by central differences."""
    n = geo.n
    _, Jm = fi._component_map(geo, kspec, x0, jac=True)
    Vt = np.linalg.svd(Jm)[2]
    tangent, normals = Vt[codim:].T, Vt[:codim].T

    def phi(y):
        x = x0 + tangent @ np.asarray(y, dtype=float)
        F, J = fi._component_map(geo, kspec, x, jac=True)
        for _ in range(50):
            if not F.any():
                break
            step, *_ = np.linalg.lstsq(J @ normals, -F, rcond=None)
            xn = x + normals @ step
            Fn, Jn = fi._component_map(geo, kspec, xn, jac=True)
            if not np.linalg.norm(Fn) < np.linalg.norm(F):
                break
            x, F, J = xn, Fn, Jn
        return x

    fld = ArrayField(phi, backend=DiffBackend(step=1e-4, step3=1e-3))
    return EmbeddingSpec(m=n - codim, n=n, phi=fld, orientation=1)


# (geometry, form, base point off the locus, codimension)
LOCUS_CASES = {
    "hyperbolic_scale_3": (lambda: geolib.euclidean(3),
                           lambda: geolib.almost_einstein_hyperbolic(3),
                           [0.48, -0.36, 0.8], 1),
    "sphere_rotation_3": (lambda: geolib.sphere(3),
                          lambda: geolib.round_rotation_form(3, 0, 1),
                          [1e-3, -2e-3, 0.4], 2),
    "sphere_rotation_4": (lambda: geolib.sphere(4),
                          lambda: geolib.round_rotation_form(4, 0, 1),
                          [1e-3, -2e-3, 0.3, -0.2], 2),
    "flat_rotation_3": (lambda: geolib.euclidean(3),
                        lambda: geolib.rotation_form(3, 0, 1),
                        [1e-3, -2e-3, 0.4], 2),
    "flat_rotation_4": (lambda: geolib.euclidean(4),
                        lambda: geolib.rotation_form(4, 0, 1),
                        [1e-3, -2e-3, 0.3, -0.2], 2),
}


@pytest.mark.parametrize("case", sorted(LOCUS_CASES))
def test_locus_jets_match_newton_route(case):
    make_geo, make_form, x0, codim = LOCUS_CASES[case]
    geo, spec = make_geo(), make_form()
    x0 = np.array(x0)
    emb = fi._locus_embedding(geo, spec, x0, codim)
    ref = _newton_graph_parametrisation(geo, spec, x0, codim)
    y0 = np.zeros(geo.n - codim)
    exact, fd = emb.phi.jets(y0, 2), ref.phi.jets(y0, 2)
    assert np.linalg.norm(fi._component_map(geo, spec, exact[0])) < 1e-12
    assert np.array_equal(exact[0], fd[0])
    # measured: at most 3.8e-13 and 1.1e-8, the central differences' error
    assert np.abs(exact[1] - fd[1]).max() <= 1e-11
    assert np.abs(exact[2] - fd[2]).max() <= 1e-7
    # the polynomial stays on the locus to third order
    for t in (1e-2, 5e-3):
        y = np.full(geo.n - codim, t)
        F = fi._component_map(geo, spec, emb.phi.jets(y, 0)[0])
        assert np.linalg.norm(F) <= 10 * t ** 4 + 1e-13
    # its jets on a stack of points hold each row's jets bit for bit
    Y = np.random.default_rng(29).uniform(-0.1, 0.1, (4, geo.n - codim))
    Y = np.vstack([Y, y0])
    for order in range(4):
        stacked = emb.phi.jets(Y, order)
        assert len(stacked) == order + 1
        for i, y in enumerate(Y):
            for a, b in zip(stacked, emb.phi.jets(y, order)):
                assert _bitwise_equal(a[i].copy(), b), (order, i)


def test_flat_rotation_locus_L_is_zero():
    for n in (3, 4):
        geo = geolib.euclidean(n)
        spec = geolib.rotation_form(n, 0, 1)
        pts = [np.array([0.0, 0.0] + [0.3, -0.2][:n - 2]),
               np.array([1e-3, -2e-3] + [-0.5, 0.1][:n - 2])]
        L_res, notes = fi._locus_L_residuals(geo, spec, pts, 2)
        assert L_res == [0.0, 0.0] and notes == ""


def test_curved_locus_L_is_round_off():
    """The polynomial is expanded about a point of the zero set, not of a
    level set 1e-12 next to it (which gave max L 2.8e-11 here)."""
    rep = fi.zero_locus_scan(geolib.sphere(4),
                             geolib.round_rotation_form(4, 0, 1),
                             [[-1.0, 1.0]] * 4, grid=9)
    assert (rep.status, rep.codim, len(rep.points)) == ("locus", 2, 38)
    assert len(rep.L_residuals) == 8 and max(rep.L_residuals) <= 1e-14


def test_degenerate_zero_records_no_L():
    """At the origin k = 2(b.x)x - |x|^2 b vanishes to second order, so the
    rows of k cannot cut out the codimension-1 set the (k, div k) Jacobian
    claims: no polynomial, no L, and a note.  The scan refines to a point
    about 1e-20 off the origin, where the Jacobian of k is tiny but not
    zero."""
    geo = geolib.euclidean(3)
    spec = geolib.special_conformal_form(3)
    points = [np.zeros(3), np.array([-1.2e-20, 0.0, 0.0])]
    for x in points:
        assert fi._locus_embedding(geo, spec, x, 1) is None
    L_res, notes = fi._locus_L_residuals(geo, spec, points, 1)
    assert L_res == []
    assert notes.startswith("no L residual at 2 of 2 locus points")


# --------------------------------------------------------------------------
# component maps with a point axis; the lockstep Gauss-Newton
# --------------------------------------------------------------------------

COMPONENT_CASES = {
    "rotation": lambda: (geolib.euclidean(3), geolib.rotation_form(3, 0, 1)),
    "special_conformal": lambda: (geolib.euclidean(3),
                                  geolib.special_conformal_form(3)),
    "non_solution": lambda: (random_metric(3), _non_solution_1form()),
    "non_solution_2form": lambda: (geolib.sphere(3), _non_solution_2form()),
    "hyperbolic_scale": lambda: (geolib.euclidean(3),
                                 geolib.almost_einstein_hyperbolic(3)),
}


@pytest.mark.parametrize("case", sorted(COMPONENT_CASES))
def test_point_axis_component_map_is_the_stacked_per_point_maps(case):
    geo, spec = COMPONENT_CASES[case]()
    X = np.random.default_rng(23).uniform(-0.4, 0.4, (6, 3))
    F, J = fi._component_map(geo, spec, X, jac=True)
    F1 = fi._component_map(geo, spec, X)
    for i, x in enumerate(X):
        Fi, Ji = fi._component_map(geo, spec, x, jac=True)
        assert _bitwise_equal(F[i].copy(), Fi)
        assert _bitwise_equal(J[i].copy(), Ji)
        assert _bitwise_equal(F1[i].copy(), fi._component_map(geo, spec, x))


def _sequential_refinement(geo, kspec, seeds, region, spacing,
                           refine_tol=1e-10, max_points=40):
    """The former refinement of ``zero_locus_scan``, kept as the oracle:
    damped Gauss-Newton from one seed after the other, one
    ``_component_map`` call per point, until ``max_points`` are found."""
    found = []
    for x in seeds:
        x = np.array(x, dtype=float)
        F, Jm = fi._component_map(geo, kspec, x, jac=True)
        ok = True
        for _ in range(60):
            if np.linalg.norm(F) < refine_tol:
                break
            step, *_ = np.linalg.lstsq(Jm, -F, rcond=None)
            lam = 1.0
            base = np.linalg.norm(F)
            while lam > 1e-6:
                xn = x + lam * step
                Fn, Jn = fi._component_map(geo, kspec, xn, jac=True)
                if np.linalg.norm(Fn) < base:
                    x, F, Jm = xn, Fn, Jn
                    break
                lam /= 2
            else:
                ok = False
                break
        if ok and np.linalg.norm(F) < 1e-8 and \
                all(lo - 0.5 <= xi <= hi + 0.5
                    for xi, (lo, hi) in zip(x, region)):
            if not any(np.linalg.norm(x - p) < 0.3 * spacing for p in found):
                found.append(x)
        if len(found) >= max_points:
            break
    return found


def _scan_seeds(geo, kspec, region, grid, max_points=40):
    """The grid seeds ``zero_locus_scan`` refines, and the grid spacing:
    each seed read from a grid of coordinates built here."""
    axes = [np.linspace(lo, hi, grid) for lo, hi in region]
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    norm2 = fi._k_norm2_grid(geo, kspec, axes)
    spacing = max((hi - lo) / (grid - 1) for lo, hi in region)
    cand = np.argwhere(norm2 < (2.0 * spacing) ** 2
                       * max(1.0, np.median(norm2)))
    return ([X[tuple(i)].astype(float)
             for i in cand[::max(1, len(cand) // (4 * max_points))]],
            spacing)


LOCKSTEP_SCANS = {
    "special_conformal_3": (geolib.euclidean, 3,
                            lambda: geolib.special_conformal_form(3), 9),
    "hyperbolic_scale_3": (geolib.euclidean, 3,
                           lambda: geolib.almost_einstein_hyperbolic(3), 13),
    "sphere_rotation_4": (geolib.sphere, 4,
                          lambda: geolib.round_rotation_form(4), 9),
    "rotation_4_grid41": (geolib.euclidean, 4,
                          lambda: geolib.rotation_form(4), 41),
    "dilation_3": (geolib.euclidean, 3, lambda: geolib.dilation_form(3), 11),
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_SCANS))
def test_lockstep_refinement_equals_sequential(case):
    """The seeds refined in lockstep give the points, in order and to the
    bit, that refining one seed after the other gives; the scan reports
    them (the timelike dilation scan refines nothing)."""
    make_geo, n, make_form, grid = LOCKSTEP_SCANS[case]
    geo, kspec = make_geo(n), make_form()
    region = [(-1.0, 1.0)] * n
    seeds, spacing = _scan_seeds(geo, kspec, region, grid)
    want = _sequential_refinement(geo, kspec, seeds, region, spacing)
    got = fi._refine_seeds(geo, kspec, seeds, region, spacing, 1e-10, 40)
    # (k, div k) = (x, n) never vanishes for the dilation
    assert len(got) == len(want) and (want or case == "dilation_3")
    for a, b in zip(got, want):
        assert _bitwise_equal(a, b)
    rep = fi.zero_locus_scan(geo, kspec, region, grid=grid)
    if rep.causal != "timelike":
        assert len(rep.points) == len(want)
        assert all(_bitwise_equal(a, b) for a, b in zip(rep.points, want))


def test_lockstep_pole_seed_raises_only_before_the_break():
    """(1, 0, 0) is a pole of the Poincare-ball metric.  As the third seed
    it is reached, and raises as the sequential refinement does, when the
    walk wants three points; when two are enough the walk stops before it."""
    geo, kspec = geolib.hyperbolic(3), geolib.rotation_form(3, 1, 2)
    region, spacing = [(-1.0, 1.0)] * 3, 0.25
    seeds = [np.array([-0.5, 0.1, 0.05]), np.array([0.0, 0.1, -0.1]),
             np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.1, 0.0])]
    for max_points in (1, 2):
        want = _sequential_refinement(geo, kspec, seeds, region, spacing,
                                      max_points=max_points)
        got = fi._refine_seeds(geo, kspec, seeds, region, spacing, 1e-10,
                               max_points)
        assert len(got) == len(want) == max_points
        assert all(_bitwise_equal(a, b) for a, b in zip(got, want))
    with pytest.raises(JetOrderError) as seq:
        _sequential_refinement(geo, kspec, seeds, region, spacing,
                               max_points=3)
    with pytest.raises(JetOrderError) as lock:
        fi._refine_seeds(geo, kspec, seeds, region, spacing, 1e-10, 3)
    assert str(lock.value) == str(seq.value)
    assert lock.value.stage == "scan seed refinement 2, x = [1.0, 0.0, 0.0]"


def test_flat_n4_refinement_rows(monkeypatch):
    """Component-map rows the lockstep refinement of the flat n = 4
    rotation scan (grid 21) evaluates, pinned so that a change shows in
    review.  The sequential refinement makes 80 single calls (40 seeds,
    every one adding a point); the lockstep takes 4 * max_points = 160
    seeds in its first chunk, 160 initial rows and 146 trial rows.  A
    first chunk of the 40 seeds the walk needs evaluates 80 rows, but it
    splits the n = 3 scans, whose seeds add fewer points, into more
    lockstep rounds, and they ran slower; so the chunk stays."""
    geo, kspec = geolib.euclidean(4), geolib.rotation_form(4)
    region = [(-1.0, 1.0)] * 4
    seeds, spacing = _scan_seeds(geo, kspec, region, 21)
    rows = []
    maps = fi._component_maps

    def counted(geo, kspec, X):
        rows.append(len(X))
        return maps(geo, kspec, X)
    monkeypatch.setattr(fi, "_component_maps", counted)
    got = fi._refine_seeds(geo, kspec, seeds, region, spacing, 1e-10, 40)
    assert len(seeds) == 162 and len(got) == 40
    assert rows == [160, 146]
