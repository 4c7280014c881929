"""Tractor bundle tests: metric, connection, Thomas operator, curvature,
volume form, Hodge star, parallel transport, conformal bookkeeping."""
import math

import numpy as np
import pytest

from test_jets import _bitwise_equal
from oracles import (TractorVolumeFormField, constant_scalar, random_metric,
                     tractor_connection_apply)
from tractorlab import geolib
from tractorlab import tractor as tr
from tractorlab.riemann import curvature_pack, rescale
from tractorlab.tensors import (ANALYTIC, ArrayField, DiffBackend,
                                NumericalError, alt_array, middle_block,
                                tangent_down, tangent_up, tractor_down,
                                tractor_metric_matrix, tractor_up)


def _hpair(geo, x):
    pack = curvature_pack(geo, x, order=2)
    lo, hi = tractor_metric_matrix(pack.g), tractor_metric_matrix(pack.gi)
    def dot(u, v):
        # each up index pairs with a down one through the sigma/rho swap
        return float(np.einsum("AB,A,B->", lo, tr.pair_flip(u, 0),
                               tr.pair_flip(v, 0)))
    return dot, lo, hi


def test_tractor_metric_blocks():
    geo = geolib.sphere(3)
    x = np.array([0.2, -0.1, 0.3])
    dot, lo, hi = _hpair(geo, x)
    X = tr.canonical_X(3)
    assert dot(X, X) == 0.0
    ev = np.linalg.eigvalsh(lo)
    assert (ev > 0).sum() == 4 and (ev < 0).sum() == 1
    # h h^-1 acts as the identity
    v = np.array([0.3, -0.2, 0.7, 1.1, 0.05])
    lowered = np.einsum("AB,A->B", lo, tr.pair_flip(v, 0))
    raised = np.einsum("AB,A->B", hi, tr.pair_flip(lowered, 0))
    assert np.abs(raised - v).max() < 1e-12


def test_connection_flat_slot_identities():
    geo = geolib.euclidean(3)
    x = np.array([0.1, 0.2, -0.1])
    Xf = ArrayField(lambda y: tr.canonical_X(3), backend=DiffBackend())
    nab = tractor_connection_apply(geo, Xf, (tractor_up(3),), x)
    expected = np.zeros((5, 3))
    expected[1:4] = np.eye(3)   # nabla_a X = Z_a
    assert np.abs(nab - expected).max() < 1e-10
    # the constant sigma-slot tractor has flat derivative in the middle
    # slot only through the g rho-coupling, which vanishes when rho = 0
    Yf = ArrayField(lambda y: tr.make_tractor(3, sigma=1.0),
                    backend=DiffBackend())
    nab = tractor_connection_apply(geo, Yf, (tractor_up(3),), x)
    assert np.abs(nab).max() < 1e-10


def test_connection_metric_preservation():
    geo = geolib.sphere(3)
    x = np.array([0.2, -0.1, 0.3])
    rng = np.random.default_rng(0)
    c1 = rng.standard_normal(5)
    c2 = rng.standard_normal((5, 3))
    d1 = rng.standard_normal(5)
    d2 = rng.standard_normal((5, 3))

    def tf(y):
        return c1 + c2 @ y

    def sf(y):
        return d1 + d2 @ y

    up = (tractor_up(3),)
    nT = tractor_connection_apply(geo, ArrayField(tf), up, x)
    nS = tractor_connection_apply(geo, ArrayField(sf), up, x)
    h = 1e-6
    worst = 0.0
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        dp, _, _ = _hpair(geo, x + e)
        dm, _, _ = _hpair(geo, x - e)
        lhs = (dp(tf(x + e), sf(x + e)) - dm(tf(x - e), sf(x - e))) / (2 * h)
        dot, _, _ = _hpair(geo, x)
        rhs = dot(nT[:, a], sf(x)) + dot(tf(x), nS[:, a])
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-8


def test_scale_tractor_parallel_on_sphere():
    geo = geolib.sphere(4)
    If = ArrayField(lambda y: tr.scale_tractor(geo, y), backend=DiffBackend())
    for x in (np.zeros(4), np.array([0.3, -0.2, 0.1, 0.4])):
        nab = tractor_connection_apply(geo, If, (tractor_up(4),), x)
        assert np.abs(nab).max() < 1e-6


def test_scale_tractor_squared_constant():
    # the recorded value on the unit round sphere is -1 in these conventions
    geo = geolib.sphere(4)
    rng = np.random.default_rng(1)
    vals = []
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, size=4)
        I = tr.scale_tractor(geo, x)
        dot, _, _ = _hpair(geo, x)
        vals.append(dot(I, I))
    assert max(vals) - min(vals) < 1e-6
    assert vals[0] == pytest.approx(-1.0, abs=1e-8)


def test_thomas_d_flat_unit_density():
    geo = geolib.euclidean(4)
    D = tr.thomas_D(geo, constant_scalar(4, 1.0), (), 1,
                    np.array([0.1, 0.2, 0.3, -0.1]))
    assert np.abs(D / 4 - tr.make_tractor(4, sigma=1.0)).max() < 1e-12


def test_thomas_d_sphere_unit_density():
    geo = geolib.sphere(4)
    x = np.zeros(4)
    pk = curvature_pack(geo, x)
    D = tr.thomas_D(geo, constant_scalar(4, 1.0), (), 1, x) / 4
    assert D[0] == pytest.approx(1.0)
    assert np.abs(D[1:5]).max() < 1e-9
    assert D[5] == pytest.approx(-pk.J / 4, abs=1e-9)
    assert pk.J == pytest.approx(pk.Scal / (2 * 3), abs=1e-9)


def test_tractor_curvature_conformally_flat():
    geo = geolib.sphere(4)
    Om = tr.tractor_curvature(geo, np.array([0.2, -0.1, 0.4, 0.25]))
    assert np.abs(Om).max() < 1e-5


def test_tractor_curvature_commutator_oracle():
    geo = random_metric(4, seed=3)
    x = np.array([0.1, -0.05, 0.2, 0.15])
    rng = np.random.default_rng(5)
    e1 = rng.standard_normal(6)
    e2 = rng.standard_normal((6, 4))
    e3 = rng.standard_normal((6, 4, 4))
    e3 = e3 + e3.transpose(0, 2, 1)

    def phif(y):
        return e1 + e2 @ y + 0.5 * np.einsum("iab,a,b->i", e3, y, y)

    pk = curvature_pack(geo, x, order=3)
    conn = tr.ConnData.from_pack(pk)
    jets = ArrayField(phif).jets(x, 2)
    _, nab2 = tr.covariant_jet(conn, jets, (tractor_up(4),), order=2)
    lhs = np.einsum("Cba->abC", nab2) - np.einsum("Cab->abC", nab2)
    Om = tr.tractor_curvature(geo, x)
    R = middle_block(pk.gi)
    Om_up = np.einsum("CE,abED->abCD", R, Om)
    rhs = np.einsum("abCD,D->abC", Om_up, tr.pair_flip(phif(x), 0))
    assert np.abs(lhs - rhs).max() < 1e-4


def test_tractor_curvature_s2s2_weyl_block():
    # tangent-slot part equals the Kulkarni-Nomizu Weyl expression
    geo = geolib.s2s2()
    x = np.array([0.15, -0.2, 0.3, 0.1])
    pk = curvature_pack(geo, x, order=3)
    Om = tr.tractor_curvature(geo, x)
    g1 = np.zeros((4, 4))
    g1[:2, :2] = pk.g[:2, :2]
    g2 = np.zeros((4, 4))
    g2[2:, 2:] = pk.g[2:, 2:]

    def kn(A, B):
        return (np.einsum("ac,bd->abcd", A, B) - np.einsum("ad,bc->abcd", A, B)
                + np.einsum("ac,bd->abcd", B, A) - np.einsum("ad,bc->abcd", B, A))

    W_expected = (kn(g1, g1) - kn(g1, g2) + kn(g2, g2)) / 3.0
    assert np.abs(Om[:, :, 1:5, 1:5] - W_expected).max() < 1e-5
    assert np.abs(pk.W4 - W_expected).max() < 1e-8


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hodge_star_double(k):
    n = 3
    geo = geolib.sphere(n)
    x = np.array([0.2, -0.1, 0.3])
    rng = np.random.default_rng(k)
    F = alt_array(rng.standard_normal((n + 2,) * k))
    ss = tr.hodge_star(geo, tr.hodge_star(geo, F, x), x)
    sign = -(-1) ** (k * (n - k))
    assert np.abs(ss - sign * F).max() < 1e-12


def test_volume_form_normalisation():
    geo = geolib.sphere(3)
    x = np.array([0.2, -0.1, 0.3])
    pk = curvature_pack(geo, x)
    eps = tr.tractor_volume_form(geo, x)
    R = middle_block(pk.gi)
    up = eps
    for ax in range(5):
        up = np.moveaxis(np.tensordot(R, up, axes=([1], [ax])), 0, ax)
    dn = eps
    for ax in range(5):
        dn = tr.pair_flip(dn, ax)
    total = np.tensordot(up, dn, axes=(range(5), range(5)))
    assert total == pytest.approx(-math.factorial(5), rel=1e-12)


def test_volume_form_parallel():
    geo = geolib.sphere(3)
    x = np.array([0.2, -0.1, 0.3])
    nab = tractor_connection_apply(geo, TractorVolumeFormField(geo),
                                   (tractor_down(3),) * 5, x)
    assert np.abs(nab).max() < 1e-8


def test_wedge_leibniz():
    geo = geolib.sphere(3)
    x = np.array([0.1, -0.2, 0.25])
    rng = np.random.default_rng(7)
    A1 = alt_array(rng.standard_normal((5, 5)))
    A2 = rng.standard_normal((5, 5, 3))
    B1 = rng.standard_normal(5)
    B2 = rng.standard_normal((5, 3))

    def Ff(y):
        return A1 + alt_array(np.einsum("ABa,a->AB", A2, y - x), (0, 1))

    def Gf(y):
        return B1 + B2 @ (y - x)

    down = (tractor_down(3),)
    nFG = tractor_connection_apply(
        geo, ArrayField(lambda y: tr.wedge(Ff(y), Gf(y))), down * 3, x)
    nF = tractor_connection_apply(geo, ArrayField(Ff), down * 2, x)
    nG = tractor_connection_apply(geo, ArrayField(Gf), down, x)
    for a in range(3):
        rhs = tr.wedge(nF[..., a], Gf(x)) + tr.wedge(Ff(x), nG[..., a])
        assert np.abs(nFG[..., a] - rhs).max() < 1e-8


def test_parallel_transport_flat_closed_loop():
    geo = geolib.euclidean(3)

    def fn(v):
        s = (2 * np.pi) * v[0]
        return [0.5 * (s.cos() - 1.0), 0.5 * s.sin(), 0.0]
    loop = geolib.jet_embedding(1, 3, fn).phi

    rng = np.random.default_rng(3)
    T0 = rng.standard_normal(5)
    T1 = tr.parallel_transport(geo, loop, T0, (tractor_up(3),), 0.0, 1.0,
                               steps=300)
    assert np.abs(T1 - T0).max() < 1e-8


def test_parallel_transport_norm_and_holonomy():
    geo = geolib.sphere(3)

    def fn(v):
        s = (2 * np.pi) * v[0]
        return [0.4 * (s.cos() - 1.0), 0.4 * s.sin(), 0.12 * (2.0 * s).sin()]
    loop = geolib.jet_embedding(1, 3, fn).phi

    rng = np.random.default_rng(4)
    dot0, lo, _ = _hpair(geo, loop.value(np.zeros(1)))
    v = rng.standard_normal(5)
    T1 = tr.parallel_transport(geo, loop, v, (tractor_up(3),), 0.0, 1.0,
                               steps=800)
    assert abs(dot0(T1, T1) - dot0(v, v)) < 1e-8
    M = np.zeros((5, 5))
    for i in range(5):
        e = np.zeros(5)
        e[i] = 1.0
        M[:, i] = tr.parallel_transport(geo, loop, e, (tractor_up(3),),
                                        0.0, 1.0, steps=800)
    H = lo
    assert np.abs(M.T @ H @ M - H).max() < 1e-7


def test_rescale_triple_relation():
    geo = random_metric(4, seed=11)
    omega = geolib.random_conformal_factor(4, seed=12)
    sig = geolib.random_conformal_factor(4, seed=13)
    x = np.array([0.1, -0.2, 0.15, 0.05])
    geoh, upsilon = rescale(geo, omega)
    pk = curvature_pack(geo, x, order=3)
    from tractorlab.jets import Jet

    class Prod(ArrayField):
        def __init__(self):
            super().__init__(lambda y: sig.value(y) * omega.value(y),
                             backend=DiffBackend(mode=ANALYTIC, max_order=3))

        def jets(self, y, order):
            if np.ndim(y) != 1:
                raise ValueError("Prod takes one point, not a stack")
            Q = Jet(4, sig.jets(y, order)) * Jet(4, omega.jets(y, order))
            return [np.asarray(c) for c in Q.d]

    I_g = tr.thomas_D(geo, sig, (), 1, x) / 4
    I_h = tr.thomas_D(geoh, Prod(), (), 1, x) / 4
    M = tr.rescale_triple_matrix(pk, upsilon(x))
    w0 = float(omega.value(x))
    pred = tr.rescale_component_weights(
        w0, tr.slot_weights(4, "down")) * (M @ I_g)
    assert np.abs(I_h - pred).max() < 1e-6


def test_canonical_tractor_invariant():
    # X carries weight 1; its trivialised components never change
    w = tr.slot_weights(4, "up") + 1.0
    factors = tr.rescale_component_weights(1.7, w)
    X = tr.canonical_X(4)
    assert np.abs(factors * X - X).max() == 0.0


def test_mobius_error_without_schouten():
    from tractorlab.riemann import GeometrySpec
    geo2 = GeometrySpec(n=2, metric=geolib.euclidean(2).metric)
    with pytest.raises(tr.MobiusStructureError):
        tr.scale_tractor(geo2, np.zeros(2))


def test_parallel_transport_divergence_is_numerical_error():
    geo = geolib.euclidean(3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(tr.TransportDivergedError) as info:
            tr.parallel_transport(
                geo, geolib.jet_embedding(
                    1, 3, lambda v: [1e300 * v[0], 0.0, 0.0]).phi,
                np.ones(5), (tractor_up(3),), steps=4)
    assert isinstance(info.value, NumericalError)
    assert isinstance(info.value, RuntimeError)


@pytest.mark.parametrize("indices", [
    (tractor_down(3),), (tractor_up(3), tangent_down(3)),
    (tangent_up(3), tractor_down(3))])
def test_point_axis_covariant_jet_is_the_stacked_per_point_jets(indices):
    """Connection data and jets with a leading point axis give, at each
    row, the covariant derivatives of that point alone, bit for bit, for
    tractor and tangent indices at first and second order."""
    from test_jets import _bitwise_equal
    geo = random_metric(3, seed=4)
    rng = np.random.default_rng(29)
    X = rng.uniform(-0.3, 0.3, (4, 3))
    packs = [curvature_pack(geo, x, 3) for x in X]
    names = ("g", "gi", "Gamma", "P", "dg", "dGamma", "dP")
    conns = [tr.ConnData.from_pack(p) for p in packs]
    stacked = tr.ConnData(3, *(np.stack([getattr(c, f) for c in conns])
                               for f in names[:3]),
                          **{f: np.stack([getattr(c, f) for c in conns])
                             for f in names[3:]})
    shape = tuple(ix.dim for ix in indices)
    jets = [rng.standard_normal((4,) + shape + (3,) * k) for k in range(3)]
    for order in (1, 2):
        out = tr.covariant_jet(stacked, jets, indices, order=order)
        for i, c in enumerate(conns):
            single = tr.covariant_jet(c, [j[i] for j in jets], indices,
                                      order=order)
            for a, b in zip(out, single):
                assert _bitwise_equal(np.ascontiguousarray(a[i]),
                                      np.ascontiguousarray(b))


# The connection blocks written out one by one, each matrix and variance on
# its own: the reference for ConnData's shared slot fill.
def _reference_matrix(conn, index):
    n = conn.n
    if index.kind == "tangent":
        if index.variance == "up":
            return tr._up(conn.Gamma)
        return -tr._down(conn.Gamma)
    N = n + 2
    M = np.zeros(conn.lead + (n, N, N))
    P, g, gi = conn.P, conn.g, conn.gi
    Pmix = P @ gi
    if index.variance == "down":
        M[..., 0, 1:n + 1] = -np.eye(n)
        M[..., 1:n + 1, 0] = P
        M[..., 1:n + 1, n + 1] = g
        M[..., n + 1, 1:n + 1] = -Pmix
        M[..., 1:n + 1, 1:n + 1] += -tr._down(conn.Gamma)
    else:
        M[..., 0, 1:n + 1] = -g
        M[..., 1:n + 1, 0] = Pmix
        M[..., 1:n + 1, n + 1] = np.eye(n)
        M[..., n + 1, 1:n + 1] = -P
        M[..., 1:n + 1, 1:n + 1] += tr._up(conn.Gamma)
    return M


def _reference_dmatrix(conn, index):
    n = conn.n
    if index.kind == "tangent":
        if index.variance == "up":
            return tr._up(conn.dGamma, 1)
        return -tr._down(conn.dGamma, 1)
    N = n + 2
    dM = np.zeros(conn.lead + (n, N, N, n))
    dgi = -np.einsum("...ce,...efa,...fd->...cda", conn.gi, conn.dg, conn.gi)
    dPmix = (np.einsum("...ace,...cb->...abe", conn.dP, conn.gi)
             + np.einsum("...ac,...cbe->...abe", conn.P, dgi))
    if index.variance == "down":
        dM[..., 1:n + 1, 0, :] = conn.dP
        dM[..., 1:n + 1, n + 1, :] = conn.dg
        dM[..., n + 1, 1:n + 1, :] = -dPmix
        dM[..., 1:n + 1, 1:n + 1, :] += -tr._down(conn.dGamma, 1)
    else:
        dM[..., 0, 1:n + 1, :] = -conn.dg
        dM[..., 1:n + 1, 0, :] = dPmix
        dM[..., n + 1, 1:n + 1, :] = -conn.dP
        dM[..., 1:n + 1, 1:n + 1, :] += tr._up(conn.dGamma, 1)
    return dM


CATALOG_N3 = [(name, entry) for name, entry in sorted(geolib.catalog().items())
              if entry.make_geometry().n >= 3]


def _all_indices(n):
    return [tangent_up(n), tangent_down(n), tractor_up(n), tractor_down(n)]


@pytest.mark.parametrize("name,entry", CATALOG_N3,
                         ids=[c[0] for c in CATALOG_N3])
def test_connection_matrices_are_the_block_fills(name, entry):
    """``matrix`` at a point and on a stacked order-2 pack, and ``dmatrix``
    on an order-3 pack, are the blocks written out one by one, byte for
    byte (so also in the sign of each zero), for both variances of both
    index kinds."""
    geo = entry.make_geometry()
    X = np.random.default_rng(41).uniform(-0.3, 0.3, (3, geo.n))
    stacked = tr.ConnData.from_pack(curvature_pack(geo, X, order=2))
    for ix in _all_indices(geo.n):
        assert _bitwise_equal(stacked.matrix(ix),
                              _reference_matrix(stacked, ix))
    for x in X:
        conn = tr.ConnData.from_pack(curvature_pack(geo, x, order=3))
        for ix in _all_indices(geo.n):
            assert _bitwise_equal(conn.matrix(ix), _reference_matrix(conn, ix))
            assert _bitwise_equal(conn.dmatrix(ix),
                                  _reference_dmatrix(conn, ix))


@pytest.mark.parametrize("name,entry", CATALOG_N3,
                         ids=[c[0] for c in CATALOG_N3])
def test_tractor_curvature_reads_a_given_pack(name, entry):
    geo = entry.make_geometry()
    x = np.random.default_rng(43).uniform(-0.3, 0.3, geo.n)
    given = tr.tractor_curvature(geo, x, pack=curvature_pack(geo, x, 3))
    assert _bitwise_equal(given, tr.tractor_curvature(geo, x))
