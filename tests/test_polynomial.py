"""PolynomialField: every catalog field it replaced agrees with the jet
function it replaced, kept here as the reference, and its jets of order
above three are derivatives of the lower ones."""
import numpy as np
import pytest

from oracles import random_metric
from tractorlab import firstint as fi
from tractorlab import geolib
from tractorlab.tensors import JetOrderError, central_diff


# -- the former jet functions -----------------------------------------------

def _ref_conformal_factor(n, seed=0, amplitude=0.2):
    rng = np.random.default_rng(seed)
    c0 = amplitude * rng.standard_normal()
    c1 = amplitude * rng.standard_normal(n)
    c2 = amplitude * rng.standard_normal((n, n))
    c2 = (c2 + c2.T) / 2

    def fn(v):
        psi = float(c0)
        for a in range(n):
            psi = psi + c1[a] * v[a]
            for b in range(n):
                psi = psi + c2[a, b] * v[a] * v[b]
        return psi.exp()
    return geolib.JetField(fn)


def _ref_metric(n, seed=0, amplitude=0.08):
    rng = np.random.default_rng(seed)
    lin = amplitude * rng.standard_normal((n, n, n))
    quad = amplitude * rng.standard_normal((n, n, n, n))
    lin = (lin + lin.transpose(1, 0, 2)) / 2
    quad = (quad + quad.transpose(1, 0, 2, 3)) / 2

    def fn(v):
        out = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                acc = out[i][j]
                for k in range(n):
                    acc = acc + lin[i, j, k] * v[k]
                    for l in range(n):
                        acc = acc + quad[i, j, k, l] * v[k] * v[l]
                out[i][j] = acc
        return out
    return geolib.JetField(fn)


def _ref_graph(n, m, seed=0, amplitude=0.15):
    rng = np.random.default_rng(seed)
    d = n - m
    lin = amplitude * rng.standard_normal((d, m))
    quad = amplitude * rng.standard_normal((d, m, m))
    cub = amplitude * rng.standard_normal((d, m, m, m))

    def height(kk, v):
        acc = 0.0
        for i in range(m):
            acc = acc + lin[kk, i] * v[i]
            for j in range(m):
                acc = acc + quad[kk, i, j] * v[i] * v[j]
                for l in range(m):
                    acc = acc + cub[kk, i, j, l] * v[i] * v[j] * v[l]
        return acc

    def fn(v):
        return list(v) + [height(kk, v) for kk in range(d)]
    return geolib.JetField(fn)


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ref_fubini_study(N=2):
    n = 2 * N

    def fn(v):
        zs = [(v[2 * j], v[2 * j + 1]) for j in range(N)]
        s = v[0] * v[0]
        for a in range(1, n):
            s = s + v[a] * v[a]
        denom = (1.0 + s) * (1.0 + s)
        h = [[None] * N for _ in range(N)]
        for i in range(N):
            for j in range(N):
                num = _cmul((zs[i][0], -1.0 * zs[i][1]), zs[j])
                re = -num[0]
                im = -num[1]
                if i == j:
                    re = re + (1.0 + s)
                h[i][j] = (re / denom, im / denom)
        out = [[None] * n for _ in range(n)]
        for a in range(n):
            ia, ra = divmod(a, 2)
            for b in range(n):
                ib, rb = divmod(b, 2)
                hre, him = h[ia][ib]
                if ra == rb:
                    out[a][b] = hre
                elif ra == 0:
                    out[a][b] = him
                else:
                    out[a][b] = -1.0 * him
        return out
    return geolib.JetField(fn)


def _ref_locus_jets(coeffs, y, order):
    """The scan's hand-written cubic Taylor map x0 + X1 y + X2 yy/2 +
    X3 yyy/6 and its jets."""
    x0, X1, X2, X3 = coeffs
    lead = y.shape[:-1]
    c1, c2, c3 = (y.reshape(lead + (1,) * k + (-1, 1)) for k in range(3))
    X3y = (X3 @ c3)[..., 0]
    X2y = (X2 @ c2)[..., 0]
    X3yy = (X3y @ c2)[..., 0]
    out = [x0 + (X1 @ c1)[..., 0]
           + ((X2y + X3yy / 3.0) @ c1)[..., 0] / 2.0,
           X1 + X2y + X3yy / 2.0,
           X2 + X3y,
           np.broadcast_to(X3, lead + X3.shape).copy()]
    return out[:order + 1]


def _locus_coeffs(n, m, seed):
    """Random Taylor coefficients [x0, X1, X2, X3], X2 and X3 symmetric in
    their parameter axes, like those the scan builds."""
    rng = np.random.default_rng(seed)
    X2 = rng.standard_normal((n, m, m))
    X3 = rng.standard_normal((n, m, m, m))
    return [rng.standard_normal(n), rng.standard_normal((n, m)),
            (X2 + X2.swapaxes(1, 2)) / 2,
            sum(X3.transpose(0, *p) for p in
                [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2),
                 (3, 2, 1)]) / 6]


CONVERTED = {
    "conformal_factor_n3": (lambda: geolib.random_conformal_factor(3, 5),
                            lambda: _ref_conformal_factor(3, 5), 3),
    "conformal_factor_n4": (
        lambda: geolib.random_conformal_factor(4, 9, amplitude=0.3),
        lambda: _ref_conformal_factor(4, 9, amplitude=0.3), 4),
    "random_metric_n3": (lambda: random_metric(3, 2).metric,
                         lambda: _ref_metric(3, 2), 3),
    "random_metric_n5": (lambda: random_metric(5, 30, 0.05).metric,
                         lambda: _ref_metric(5, 30, 0.05), 5),
    "graph_4_2": (lambda: geolib.random_graph_embedding(4, 2, 5).phi,
                  lambda: _ref_graph(4, 2, 5), 2),
    "graph_5_3": (lambda: geolib.random_graph_embedding(5, 3, 31).phi,
                  lambda: _ref_graph(5, 3, 31), 3),
    "fubini_study_cp2": (lambda: geolib.fubini_study(2).metric,
                         lambda: _ref_fubini_study(2), 4),
    "fubini_study_cp3": (lambda: geolib.fubini_study(3).metric,
                         lambda: _ref_fubini_study(3), 6),
}


def _close(a, b, tol=1e-14):
    """|a - b| within ``tol`` scaled by max(1, |b|)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= (
        tol * max(1.0, np.abs(b).max(initial=0.0)))


@pytest.mark.parametrize("case", sorted(CONVERTED))
def test_converted_field_is_its_jet_function(case):
    """At orders 0-3, at a point and on a stack of 7, the polynomial field
    agrees with the jet function it replaced within 1e-14 scaled."""
    make, make_ref, dim = CONVERTED[case]
    field, ref = make(), make_ref()
    X = np.random.default_rng(41).uniform(-0.4, 0.4, (7, dim))
    for order in range(4):
        got, want = field.jets(X, order), ref.jets(X, order)
        assert len(got) == order + 1
        assert all(_close(a, b) for a, b in zip(got, want)), order
        for x in X[:2]:
            got, want = field.jets(x, order), ref.jets(x, order)
            assert all(_close(a, b) for a, b in zip(got, want)), order
    assert _close(field.values(X), ref.values(X))
    assert _close(field.value(X[3]), ref.value(X[3]))


def test_locus_polynomial_is_the_taylor_map():
    """The scan's locus chart map, [x0, X1, X2/2, X3/6] as a polynomial,
    has the jets of the hand-written cubic Taylor map it replaced."""
    for seed, (n, m) in enumerate([(3, 1), (3, 2), (4, 2), (4, 3)]):
        coeffs = _locus_coeffs(n, m, seed)
        x0, X1, X2, X3 = coeffs
        field = geolib.PolynomialField([x0, X1, X2 / 2.0, X3 / 6.0])
        Y = np.random.default_rng(seed).uniform(-0.2, 0.2, (7, m))
        for order in range(4):
            got, want = field.jets(Y, order), _ref_locus_jets(coeffs, Y,
                                                              order)
            assert all(_close(a, b) for a, b in zip(got, want)), order
            got = field.jets(Y[0], order)
            want = _ref_locus_jets(coeffs, Y[0], order)
            assert all(_close(a, b) for a, b in zip(got, want)), order


def test_scan_locus_embedding_is_a_polynomial_field():
    geo, spec = geolib.euclidean(3), geolib.rotation_form(3, 0, 1)
    emb = fi._locus_embedding(geo, spec, np.array([0.0, 0.0, 0.3]), 2)
    assert isinstance(emb.phi, geolib.PolynomialField)
    assert np.array_equal(emb.phi.value(np.zeros(1)), [0.0, 0.0, 0.3])


def test_order4_jet_is_the_derivative_of_the_order3_jet():
    """A degree-6 polynomial's order-4 jet against central differences of
    its order-3 jet: the error, h^2/6 times the sixth derivative, falls
    fourfold as the step halves, and the step-halving (Richardson)
    combination cancels it."""
    n = 3
    rng = np.random.default_rng(8)
    field = geolib.PolynomialField(
        [rng.standard_normal((2,) + (n,) * k) for k in range(7)])
    x = np.array([0.3, -0.2, 0.1])
    d4 = field.jets(x, 4)[4]
    assert d4.shape == (2,) + (n,) * 4
    assert np.abs(d4).max() > 1.0

    def d3(P):
        return field.jets(P, 3)[3]
    e1 = np.abs(central_diff(d3, x, 2e-2) - d4).max()
    e2 = np.abs(central_diff(d3, x, 1e-2) - d4).max()
    assert 3.5 < e1 / e2 < 4.5
    assert np.abs(central_diff(d3, x, 1e-2, richardson=True)
                  - d4).max() < 1e-9 * np.abs(d4).max()
    # above the degree every jet is zero
    assert not field.jets(x, 7)[7].any()


def test_fubini_study_chart_has_no_pole_and_names_a_bad_row():
    """The Fubini-Study chart is finite at every real point, far out as
    near the origin, as its jet function was; a non-finite row in a stack
    is the same ``JetOrderError``, naming the same point, and so is a
    non-finite point on its own."""
    field, ref = geolib.fubini_study(2).metric, _ref_fubini_study(2)
    far = np.array([[30.0, -40.0, 5.0, 1.0], [0.0, 0.0, 80.0, -60.0]])
    for order in range(4):
        for a, b in zip(field.jets(far, order), ref.jets(far, order)):
            assert np.isfinite(a).all()
            assert np.abs(a - b).max() <= 1e-11 * np.abs(b).max()
    X = np.random.default_rng(3).uniform(-0.3, 0.3, (4, 4))
    X[2, 1] = np.nan
    for f in (field, ref):
        with pytest.raises(JetOrderError) as err:
            f.jets(X, 2)
        assert str(err.value) == f"non-finite field evaluation at {X[2]}"
        with pytest.raises(JetOrderError):
            f.value(X[2])
