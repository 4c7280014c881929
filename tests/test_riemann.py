"""Curvature pipeline tests: golden values, oracles, rescaling laws."""
import dataclasses

import numpy as np
import pytest

from test_jets import _bitwise_equal
from oracles import (constant_scalar, pack_fields, random_metric,
                     tractor_connection_apply, volume_form)
from tractorlab import cli, geolib
from tractorlab.riemann import (CurvaturePack, GeometrySpec,
                                SingularMetricError, curvature_pack,
                                pack_from_jets, rescale)
from tractorlab.submanifold import PullbackMetricField
from tractorlab.tensors import (ArrayField, DiffBackend, JetOrderError,
                                tangent_up)


def test_flat_space_all_zero():
    geo = geolib.euclidean(4)
    pk = curvature_pack(geo, np.array([0.3, -0.2, 0.5, 0.1]), order=3)
    for arr in (pk.R4, pk.Ric, pk.W4, pk.Cotton):
        assert np.abs(arr).max() == 0.0


CATALOG = sorted(geolib.catalog().items())
THIRD_ORDER_FIELDS = {"dP", "dJ", "dRud", "Cotton", "d3g", "d2Gamma",
                      "has_third"}


@pytest.mark.parametrize("backend", ["analytic", "fd"])
@pytest.mark.parametrize("name,entry", CATALOG, ids=[c[0] for c in CATALOG])
def test_order2_pack_is_the_order3_pack_without_its_third_jet(name, entry,
                                                              backend):
    """The packs built at order 2 (submanifold, stencil-point, BGG-split and
    rescaling packs) hold every field of the order-3 pack bit for bit,
    except dP, dJ, dRud, the Cotton tensor, d2Gamma and the metric's third
    derivative d3g that only the order-3 pack keeps.  Both keep the metric
    Hessian d2g, which is checked bitwise between the orders with the
    other shared fields."""
    geo = entry.make_geometry()
    if backend == "fd":
        geo = cli.as_fd_geometry(geo)
    rng = np.random.default_rng(3)
    for _ in range(2):
        x = rng.uniform(-0.3, 0.3, geo.n)
        p2, p3 = curvature_pack(geo, x, 2), curvature_pack(geo, x, 3)
        for name in pack_fields():
            a, b = getattr(p2, name), getattr(p3, name)
            if name in THIRD_ORDER_FIELDS:
                assert a is None or a is False
            elif b is None:
                assert a is None
            else:
                assert _bitwise_equal(a, b), name
        assert p3.has_third == (geo.n >= 3)


def _same_field(a, b):
    if isinstance(b, np.ndarray):
        return _bitwise_equal(np.ascontiguousarray(a), b)
    return type(a) is type(b) and a == b


# the arrays a pack computes when first read
ON_READ = pack_fields()[len(dataclasses.fields(CurvaturePack)):]


def _assert_row_is_pack(stacked, i, single, label=None):
    """Row i of a pack on a stack of points is the pack ``single`` at
    that point, every field bit for bit: through ``stacked.at(i)``, and
    each array computed when read also as row i of the stacked array."""
    at = stacked.at(i)
    assert not any(name in vars(at) for name in ON_READ)
    for name in pack_fields():
        a, b = getattr(at, name), getattr(single, name)
        assert (a is None and b is None) or _same_field(a, b), (label, name)
    for name in ON_READ:
        a, b = getattr(stacked, name), getattr(single, name)
        assert (a is None and b is None) or _same_field(a[i], b), (label,
                                                                   name)


def test_on_read_fields_are_r4_and_w4():
    """The field-walking tests see the arrays a pack computes when read."""
    assert ON_READ == ["R4", "W4"]


@pytest.mark.parametrize("backend", ["analytic", "fd"])
@pytest.mark.parametrize("name,entry", CATALOG + [
    ("sphere2", geolib.CatalogEntry("sphere2", lambda: geolib.sphere(2)))],
    ids=[c[0] for c in CATALOG] + ["sphere2"])
def test_point_axis_pack_is_the_stacked_per_point_packs(name, entry,
                                                         backend):
    """One order-2 or order-3 pack on a stack of points holds, at each row,
    every field of the pack built at that point alone, bit for bit: arrays,
    the scalars Scal, detg, J and K as floats, the Moebius Schouten tensor
    of a 2-dimensional chart, and dP and the Cotton tensor at order 3."""
    geo = entry.make_geometry()
    if backend == "fd":
        geo = cli.as_fd_geometry(geo)
    X = np.random.default_rng(17).uniform(-0.3, 0.3, (6, geo.n))
    for order in (2, 3):
        stacked = curvature_pack(geo, X, order)
        assert stacked.g.shape == (6, geo.n, geo.n)
        for i, x in enumerate(X):
            single = curvature_pack(geo, x, order)
            assert stacked.at(i).has_third == single.has_third == (
                order == 3 and geo.n >= 3)
            _assert_row_is_pack(stacked, i, single, order)


def _arrays(pack):
    """The pack's arrays other than ``point``, the caller's x, those
    computed when read included."""
    return {name: v for name in pack_fields()
            if name != "point" and isinstance(v := getattr(pack, name),
                                              np.ndarray)}


def _assert_is_fresh_pack(pack, geo, x, order):
    """``pack`` is at x, read-only, and bitwise ``pack_from_jets`` on
    jets evaluated anew, in every field."""
    assert pack.point is x
    fresh = pack_from_jets(geo, x, geo.metric.jets(x, order))
    for name in pack_fields():
        a, b = getattr(pack, name), getattr(fresh, name)
        assert (a is None and b is None) or _same_field(a, b), (order, name)
    assert not any(v.flags.writeable for v in _arrays(pack).values())


@pytest.mark.parametrize("backend", ["analytic", "fd"])
@pytest.mark.parametrize("name,entry", CATALOG, ids=[c[0] for c in CATALOG])
def test_reused_pack_is_pack_from_jets(name, entry, backend):
    """The first call whose metric jets repeat the last call's (here at
    the same point again, through copies of x) stores its pack; a later
    call with those jets is served the stored arrays, with ``point`` the
    caller's x: bitwise ``pack_from_jets`` on fresh jets in every field,
    R4 and W4 included (read before the reuse at order 3, so shared, and
    after it at order 2), and read-only.  The first call's pack shares
    nothing, and its fields stay writable (R4 and W4 are read-only on
    every pack)."""
    geo = entry.make_geometry()
    if backend == "fd":
        geo = cli.as_fd_geometry(geo)
    x = np.random.default_rng(23).uniform(-0.3, 0.3, geo.n)
    for order in (2, 3):
        first = curvature_pack(geo, x, order)
        stored = curvature_pack(geo, x.copy(), order)
        if order == 3:
            stored.R4, stored.W4
        y = x.copy()
        again = curvature_pack(geo, y, order)
        assert again is not stored and again.g is stored.g
        _assert_is_fresh_pack(again, geo, y, order)
        assert all(v.flags.writeable for k, v in _arrays(first).items()
                   if k not in ON_READ)
        assert not any(np.shares_memory(v, w)
                       for v in _arrays(first).values()
                       for w in _arrays(stored).values())


@pytest.mark.parametrize("name,entry", CATALOG, ids=[c[0] for c in CATALOG])
def test_only_a_flat_chart_shares_arrays_between_points(name, entry):
    """Packs at three points share arrays on the flat chart alone, whose
    metric jets are the same everywhere: the third is served the arrays
    the second stored, and is still the pack of its own point."""
    geo = entry.make_geometry()
    X = list(np.random.default_rng(29).uniform(-0.3, 0.3, (3, geo.n)))
    for order in (2, 3):
        packs = [curvature_pack(geo, x, order) for x in X]
        shared = [(i, j) for i in range(3) for j in range(i + 1, 3)
                  if any(np.shares_memory(v, w)
                         for v in _arrays(packs[i]).values()
                         for w in _arrays(packs[j]).values())]
        if name == "euclidean":
            assert shared == [(1, 2)]
            _assert_is_fresh_pack(packs[2], geo, X[2], order)
        else:
            assert shared == []


@pytest.mark.parametrize("make", [lambda: geolib.euclidean(2),
                                  lambda: geolib.sphere(2)],
                         ids=["euclidean2", "sphere2"])
def test_mobius_geometry_always_builds(make):
    """A 2-dimensional geometry with a Moebius Schouten field, read at x,
    is never served a stored pack: three calls at one point share nothing,
    and nothing is stored."""
    geo = make()
    x = np.array([0.2, -0.1])
    p, q, r = (curvature_pack(geo, x.copy(), 2) for _ in range(3))
    assert not any(np.shares_memory(v, w)
                   for a, b in ((p, q), (p, r), (q, r))
                   for v in _arrays(a).values() for w in _arrays(b).values())
    assert geo._last_pack == (None, None)


def test_point_axis_pack_of_a_field_whose_jets_take_one_point():
    """A pulled-back metric's jets on a stack of points (one chain rule)
    hold, at each row and order 0-3, the jets at that point bit for bit,
    and its stacked pack equals the per-point packs.  (The rescaled
    metric's, see ``test_rescaled_metric_jets_are_its_rows``.)"""
    entry = geolib.catalog()["s2xs1xr"]
    geo = GeometrySpec(n=3, metric=PullbackMetricField(
        entry.make_geometry(), entry.embeddings["s2xs1"]()))
    X = np.random.default_rng(19).uniform(-0.3, 0.3, (4, 3))
    for k in range(4):
        stacked = geo.metric.jets(X, k)
        assert len(stacked) == k + 1
        for i, x in enumerate(X):
            for a, b in zip(stacked, geo.metric.jets(x, k)):
                assert _bitwise_equal(a[i].copy(), b), k
    stacked = curvature_pack(geo, X, 2)
    for i, x in enumerate(X):
        _assert_row_is_pack(stacked, i, curvature_pack(geo, x, 2))


@pytest.mark.parametrize("name,entry", CATALOG, ids=[c[0] for c in CATALOG])
def test_rescaled_metric_jets_are_its_rows(name, entry):
    """The rescaled metric's ``jets`` on a stack of points hold, at each
    row and order 0-3, the jets at that point bit for bit, for three
    conformal factors; its order-2 pack on the stack is the per-point
    packs."""
    base = entry.make_geometry()
    X = np.random.default_rng(23).uniform(-0.3, 0.3, (5, base.n))
    for seed in range(3):
        geo, _ = rescale(base, geolib.random_conformal_factor(base.n, seed))
        for k in range(4):
            stacked = geo.metric.jets(X, k)
            assert len(stacked) == k + 1
            for i, x in enumerate(X):
                for a, b in zip(stacked, geo.metric.jets(x, k)):
                    assert _bitwise_equal(a[i].copy(), b), (seed, k)
        pack = curvature_pack(geo, X, 2)
        for i, x in enumerate(X):
            _assert_row_is_pack(pack, i, curvature_pack(geo, x, 2), seed)


def test_rescaled_metric_nonpositive_factor_on_any_row():
    """A non-positive conformal factor on one row of a stack raises, as it
    does at that point alone."""
    class Factor(ArrayField):
        def __init__(self):
            super().__init__(lambda x: np.float64(0.5 - x[0]),
                             backend=DiffBackend(max_order=2))
    geo, _ = rescale(geolib.sphere(3), Factor())
    X = np.array([[0.1, 0.0, 0.0], [0.2, 0.1, 0.0], [0.6, 0.0, 0.0]])
    geo.metric.jets(X[:2], 2)
    for x in (X[2], X):
        with pytest.raises(SingularMetricError,
                           match="nonpositive conformal factor"):
            geo.metric.jets(x, 2)


def test_point_axis_pack_pole_is_a_jet_order_error():
    geo = geolib.hyperbolic(3)
    X = np.array([[0.1, 0.2, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(JetOrderError, match=r"at \[1\. 0\. 0\.\]"):
        curvature_pack(geo, X, 2)


def test_doubly_warped_ric13():
    geo = geolib.doubly_warped_example()
    pk = curvature_pack(geo, np.array([0.3, 0.1, -0.2, 0.4]))
    assert pk.Ric[0, 2] == pytest.approx(2.0, abs=1e-10)


def test_twisted_ric13():
    geo = geolib.twisted_example()
    pk = curvature_pack(geo, np.array([0.3, 0.1, -0.2, 0.4]))
    assert pk.Ric[0, 2] == pytest.approx(-1.0, abs=1e-10)


def test_schouten_identity():
    geo = random_metric(4, seed=5)
    pk = curvature_pack(geo, np.array([0.1, -0.05, 0.2, 0.0]))
    res = pk.Ric - ((geo.n - 2) * pk.P + pk.J * pk.g)
    assert np.abs(res).max() < 1e-8


def test_constant_curvature_oracle():
    geo = geolib.sphere(4)
    pk = curvature_pack(geo, np.array([0.2, -0.1, 0.4, 0.25]))
    expected = (np.einsum("ac,bd->abcd", pk.g, pk.g)
                - np.einsum("ad,bc->abcd", pk.g, pk.g))
    assert np.abs(pk.R4 - expected).max() < 1e-6


def test_dimension_three_weyl_vanishes():
    geo = random_metric(3, seed=7)
    pk = curvature_pack(geo, np.array([0.1, 0.05, -0.1]))
    assert np.abs(pk.W4).max() < 1e-9


def test_weyl_totally_tracefree_and_bianchi():
    geo = random_metric(4, seed=8)
    pk = curvature_pack(geo, np.array([0.07, -0.03, 0.11, 0.02]))
    scale = np.abs(pk.R4).max()
    tr1 = np.einsum("ac,abcd->bd", pk.gi, pk.W4)
    assert np.abs(tr1).max() < 1e-8 * max(scale, 1)
    bianchi = pk.R4 + pk.R4.transpose(1, 2, 0, 3) + pk.R4.transpose(2, 0, 1, 3)
    assert np.abs(bianchi).max() < 1e-8 * max(scale, 1)
    assert np.abs(pk.R4 + pk.R4.transpose(1, 0, 2, 3)).max() < 1e-9
    assert np.abs(pk.R4 + pk.R4.transpose(0, 1, 3, 2)).max() < 1e-9


def test_cotton_from_schouten_derivative():
    geo = random_metric(3, seed=9)
    x = np.array([0.02, -0.06, 0.1])
    pk = curvature_pack(geo, x, order=3)
    h = 1e-5

    def P_at(y):
        return curvature_pack(geo, y).P

    covdP = np.empty((3, 3, 3))
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        dP = (P_at(x + e) - P_at(x - e)) / (2 * h)
        covdP[a] = dP - np.einsum("eb,ec->bc", pk.Gamma[:, a, :], pk.P) \
            - np.einsum("ec,be->bc", pk.Gamma[:, a, :], pk.P)
    C = covdP - covdP.transpose(1, 0, 2)
    assert np.abs(C - pk.Cotton).max() < 1e-6


def _transport_tangent(geo, path_pts, v):
    """RK4 parallel transport of a tangent vector along a polyline."""
    v = np.array(v, dtype=float)
    for k in range(len(path_pts) - 1):
        x0, x1 = path_pts[k], path_pts[k + 1]
        dx = x1 - x0

        def rhs(x, vv):
            pk = curvature_pack(geo, x, order=2)
            return -np.einsum("cab,a,b->c", pk.Gamma, dx, vv)
        k1 = rhs(x0, v)
        k2 = rhs(x0 + dx / 2, v + k1 / 2)
        k3 = rhs(x0 + dx / 2, v + k2 / 2)
        k4 = rhs(x1, v + k3)
        v = v + (k1 + 2 * k2 + 2 * k3 + k4) / 6
    return v


@pytest.mark.parametrize("seed", range(5))
def test_holonomy_commutator_oracle(seed):
    """R from parallel transport around a small coordinate square."""
    n = 3
    geo = random_metric(n, seed=seed)
    x0 = np.array([0.05, -0.02, 0.08])
    pk = curvature_pack(geo, x0)
    h = 1e-3
    a_dir, b_dir = 0, 1
    ea, eb = np.zeros(n), np.zeros(n)
    ea[a_dir], eb[b_dir] = h, h
    loop = [x0, x0 + ea, x0 + ea + eb, x0 + eb, x0]
    hol = np.empty((n, n))
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        steps = []
        pts = []
        for k in range(len(loop) - 1):
            seg = [loop[k] + t * (loop[k + 1] - loop[k])
                   for t in np.linspace(0, 1, 4)]
            pts.extend(seg[:-1])
        pts.append(loop[-1])
        hol[:, i] = _transport_tangent(geo, pts, v)
    R_est = (np.eye(n) - hol) / h ** 2
    R_pack = pk.Rud[a_dir, b_dir]  # R_ab^c_d
    scale = max(np.abs(R_pack).max(), 1e-6)
    assert np.abs(R_est - R_pack).max() / scale < 1e-3


def test_levi_civita_derivative_metricity():
    """The coupled connection acts on tangent indices as Levi-Civita
    (``tractor_connection_apply``), which preserves the metric."""
    geo = random_metric(3, seed=11)
    x = np.array([0.04, -0.02, 0.06])
    from tractorlab.tensors import tangent_down
    out = tractor_connection_apply(geo, geo.metric, (tangent_down(3),) * 2, x)
    assert np.abs(out).max() < 1e-8


def test_levi_civita_derivative_volume_form():
    geo = random_metric(3, seed=12)
    x = np.array([0.04, -0.02, 0.06])

    def eps_at(y):
        return volume_form(curvature_pack(geo, y))

    from tractorlab.tensors import tangent_down
    h = ArrayField(eps_at, backend=DiffBackend(step=1e-4))
    out = tractor_connection_apply(geo, h, (tangent_down(3),) * 3, x)
    assert np.abs(out).max() < 1e-7


def test_levi_civita_derivative_flat_vector():
    geo = geolib.euclidean(3)
    fld = ArrayField(lambda x: np.array([0.0, x[0], 0.0]),
                     backend=DiffBackend())
    out = tractor_connection_apply(geo, fld, (tangent_up(3),),
                                   np.array([0.3, 0.1, -0.2]))
    expected = np.zeros((3, 3))
    expected[1, 0] = 1.0
    assert np.abs(out - expected).max() < 1e-10


def test_rescale_identity():
    geo = geolib.sphere(3)
    one = constant_scalar(3, 1.0)
    geo2, ups = rescale(geo, one)
    x = np.array([0.1, -0.2, 0.3])
    p1 = curvature_pack(geo, x, order=3)
    p2 = curvature_pack(geo2, x, order=3)
    assert np.abs(p1.R4 - p2.R4).max() < 1e-12
    assert np.abs(ups(x)).max() < 1e-12


@pytest.mark.parametrize("seed", [(3, 4), (5, 6)])
def test_schouten_transformation_law(seed):
    gseed, oseed = seed
    geo = random_metric(4, seed=gseed)
    omega = geolib.random_conformal_factor(4, seed=oseed)
    x = np.array([0.1, -0.2, 0.15, 0.05])
    geoh, upsilon = rescale(geo, omega)
    pk = curvature_pack(geo, x)
    pkh = curvature_pack(geoh, x)
    ups = upsilon(x)
    oj = omega.jets(x, 2)
    dU = oj[2] / oj[0] - np.multiply.outer(oj[1], oj[1]) / oj[0] ** 2
    covU = dU - np.einsum("eab,e->ab", pk.Gamma, ups)
    ups_up = pk.gi @ ups
    pred = (pk.P - covU + np.multiply.outer(ups, ups)
            - 0.5 * float(ups @ ups_up) * pk.g)
    assert np.abs(pkh.P - pred).max() < 1e-6


def test_weyl_conformal_invariance():
    geo = random_metric(4, seed=13)
    omega = geolib.random_conformal_factor(4, seed=14)
    x = np.array([0.05, 0.1, -0.05, 0.12])
    geoh, _ = rescale(geo, omega)
    pk = curvature_pack(geo, x)
    pkh = curvature_pack(geoh, x)
    Wud = np.einsum("ce,abed->abcd", pk.gi, pk.W4)
    Wudh = np.einsum("ce,abed->abcd", pkh.gi, pkh.W4)
    assert np.abs(Wud - Wudh).max() < 1e-6


def test_gaussian_curvature_dimension_two():
    geo = geolib.sphere(2)
    pk = curvature_pack(geo, np.array([0.3, -0.1]))
    assert pk.K == pytest.approx(1.0, abs=1e-10)
    assert pk.W4 is None


def test_singular_metric_rejected():
    from tractorlab.riemann import SingularMetricError

    def fn(v):
        from oracles import constant
        z = constant(2, 0.0, 3)
        return [[v[0] * 0.0 + 1.0, z], [z, v[0] * 0.0]]

    geo = geolib.jet_metric(2, fn)
    with pytest.raises(SingularMetricError):
        curvature_pack(geo, np.array([0.1, 0.2]))


def test_cotton_requires_third_jet():
    from tractorlab.tensors import JetOrderError
    from tractorlab import tractor as tr
    geo = random_metric(3, seed=1)
    fd2 = ArrayField(geo.metric.value, backend=DiffBackend(max_order=2))
    geo2 = GeometrySpec(n=3, metric=fd2)
    pk = curvature_pack(geo2, np.array([0.1, 0.0, -0.1]))
    assert pk.Cotton is None
    with pytest.raises(JetOrderError):
        tr.tractor_curvature(geo2, np.array([0.1, 0.0, -0.1]))
