"""Catalog self-tests: analytic jets vs finite differences, golden
curvatures, product gates."""
import numpy as np
import pytest

from tractorlab import geolib
from tractorlab.riemann import curvature_pack
from tractorlab.subtractor import SubTractorContext
from tractorlab.tensors import ArrayField, DiffBackend


CASES = [
    ("euclidean", lambda: geolib.euclidean(3), 3),
    ("sphere", lambda: geolib.sphere(3), 3),
    ("hyperbolic", lambda: geolib.hyperbolic(3), 3),
    ("doubly_warped", geolib.doubly_warped_example, 4),
    ("twisted", geolib.twisted_example, 4),
    ("s2s2", geolib.s2s2, 4),
    ("cp2", lambda: geolib.fubini_study(2), 4),
    ("s2h2", geolib.special_einstein_s2h2, 4),
    ("s2xs1xr", geolib.s2xs1xr, 4),
]


@pytest.mark.parametrize("name,factory,n", CASES)
def test_analytic_jets_match_fd(name, factory, n):
    geo = factory()
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    fd = ArrayField(geo.metric.value, backend=DiffBackend(step=1e-4,
                                                          step3=5e-3))
    for _ in range(5):
        x = rng.uniform(-0.3, 0.3, size=n)
        ja = geo.metric.jets(x, 2)
        jf = fd.jets(x, 2)
        for a, b in zip(ja, jf):
            assert np.abs(a - b).max() < 1e-6 * max(1.0, np.abs(a).max())


def test_sphere_gaussian_curvature():
    geo = geolib.sphere(2)
    for x in (np.zeros(2), np.array([0.4, -0.7])):
        pk = curvature_pack(geo, x)
        assert pk.K == pytest.approx(1.0, abs=1e-10)


def test_sphere_radius_scaling():
    geo = geolib.sphere(3, radius=2.0)
    pk = curvature_pack(geo, np.array([0.1, -0.2, 0.3]))
    # Ric = (n-1)/r^2 g
    assert np.abs(pk.Ric - 0.5 * pk.g).max() < 1e-10


def test_hyperbolic_curvature():
    geo = geolib.hyperbolic(3)
    pk = curvature_pack(geo, np.array([0.1, -0.2, 0.3]))
    assert np.abs(pk.Ric + 2.0 * pk.g).max() < 1e-10


def test_fubini_study_einstein_normalisation():
    geo = geolib.fubini_study(2)
    pk = curvature_pack(geo, np.array([0.2, -0.3, 0.1, 0.15]))
    assert np.abs(pk.Ric - 6.0 * pk.g).max() < 1e-10
    assert np.abs(pk.P - pk.g).max() < 1e-10


def test_special_einstein_product_ricci_split():
    geo = geolib.special_einstein_s2h2(2.0)
    pk = curvature_pack(geo, np.array([0.1, 0.2, -0.3, 0.15]))
    expected = np.zeros((4, 4))
    expected[:2, :2] = 2.0 * pk.g[:2, :2]
    expected[2:, 2:] = -2.0 * pk.g[2:, 2:]
    assert np.abs(pk.Ric - expected).max() < 1e-9


def test_twisted_metric_literal():
    geo = geolib.twisted_example()
    x = np.array([0.3, 0.1, -0.2, 0.4])
    g = geo.metric.value(x)
    f = np.exp(2 * x[0] * x[2])
    expected = np.diag([1.0, 1.0, f, f])
    assert np.abs(g - expected).max() < 1e-12


def test_doubly_warped_metric_literal():
    geo = geolib.doubly_warped_example()
    x = np.array([0.3, 0.1, -0.2, 0.4])
    g = geo.metric.value(x)
    expected = np.diag([np.exp(2 * x[2]), np.exp(2 * x[2]),
                        np.exp(2 * x[0]), np.exp(2 * x[0])])
    assert np.abs(g - expected).max() < 1e-12


def test_twisted_product_distinguished_gate():
    """Slice foliations are distinguished iff the twist splits
    multiplicatively."""
    q = np.array([0.3, -0.2])
    emb = geolib.coordinate_slice(4, (0, 1), values=(0, 0, 0.25, -0.4))
    geo_ns = geolib.twisted_example(split=False)
    ctx = SubTractorContext(geo_ns, emb, q)
    assert ctx.L_norm() > 0.05
    geo_sp = geolib.twisted_example(split=True)
    ctx = SubTractorContext(geo_sp, emb, q)
    assert ctx.L_norm() < 1e-8


def test_catalog_entries_addressable():
    entries = geolib.catalog()
    for name in ("euclidean", "sphere", "hyperbolic", "doubly_warped_r4",
                 "twisted_r4", "s2s2", "s2xs1xr", "cp2",
                 "special_einstein_s2h2"):
        assert name in entries
        geo = entries[name].make_geometry()
        assert geo.n >= 2


def test_product_metric_blocks():
    geo = geolib.product_metric((2, geolib._sphere_block(2)),
                                (2, geolib._flat_block(2)))
    x = np.array([0.1, -0.2, 0.5, 0.7])
    g = geo.metric.value(x)
    assert np.abs(g[:2, 2:]).max() == 0.0
    assert np.abs(g[2:, 2:] - np.eye(2)).max() < 1e-12


@pytest.mark.parametrize("factor", [1, 2])
def test_s2s2_factor_killing_lives_on_its_factor(factor):
    make = geolib.catalog()["s2s2"].ky_forms["factor_killing"]
    k = make(gen="t1", factor=factor).field.value(
        np.array([0.1, -0.2, 0.3, 0.05]))
    own, other = (k[:2], k[2:]) if factor == 1 else (k[2:], k[:2])
    assert np.all(own != 0.0)
    assert np.all(other == 0.0)


def test_radius_validation():
    with pytest.raises(ValueError):
        geolib.sphere(3, radius=-1.0)
    with pytest.raises(ValueError):
        geolib.hyperbolic(3, radius=0.0)
    with pytest.raises(ValueError):
        geolib.special_einstein_s2h2(kappa=-2.0)
