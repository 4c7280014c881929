"""Order-aware jets: a field evaluated at order k agrees bit for bit with the
first k+1 arrays of its order-3 evaluation, across the whole catalog."""
import math

import numpy as np
import pytest

from tractorlab import geolib
from tractorlab.jets import Jet3, constant, pack_array, variables


def _catalog_fields():
    out = []
    for name, entry in geolib.catalog().items():
        geo = entry.make_geometry()
        out.append((f"{name}:metric", geo.n, geo.metric))
        for ename, make in entry.embeddings.items():
            emb = make()
            out.append((f"{name}:embedding:{ename}", emb.m, emb.phi))
        for kname, make in entry.ky_forms.items():
            ky = make()
            out.append((f"{name}:ky:{kname}", ky.n, ky.field))
    return out


FIELDS = _catalog_fields()


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("label,dim,field", FIELDS,
                         ids=[f[0] for f in FIELDS])
def test_order_k_jets_are_truncated_order3_jets(label, dim, field):
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.uniform(-0.3, 0.3, dim)
        full = field.jets(x, 3)
        assert len(full) == 4
        for k in range(4):
            jk = field.jets(x, k)
            assert len(jk) == k + 1
            for a, b in zip(jk, full[:k + 1]):
                assert np.array_equal(a, b)
                assert _bitwise_equal(a, b)
        assert _bitwise_equal(field.value(x), full[0])


def test_catalog_covers_every_kind_of_field():
    kinds = {label.split(":")[1] for label, _, _ in FIELDS}
    assert kinds == {"metric", "embedding", "ky"}
    assert len(FIELDS) > 30


def test_order0_jets_carry_no_derivative_arrays():
    x = np.array([0.3, -0.2, 0.5])
    u, v, w = variables(x, 0)
    results = [u, u * v, u + 1.0, 2.0 - v, u / v, 3.0 / w, -u, u ** 3,
               u ** -2, w ** 0.5, w.exp(), w.log(), w.sqrt(), u.sin(),
               u.cos(), constant(3, 2.0, 0)]
    for j in results:
        assert j.order == 0
        assert j.g is None and j.h is None and j.t is None
    # the value is the same float expression as at order 3
    u3, v3, w3 = variables(x, 3)
    assert (u / v).f == (u3 / v3).f == u3.f * (1.0 / v3.f)
    # a sphere metric evaluated at order 0 packs values only
    fn = geolib.sphere(3).metric.jet_fn
    entries = np.asarray(fn(variables(x, 0)), dtype=object).reshape(-1)
    for e in entries:
        assert not isinstance(e, Jet3) or e.g is None
    assert len(pack_array(fn(variables(x, 0)), 0)) == 1


def test_mixed_order_binary_ops_truncate_to_lower_order():
    x = np.array([0.4, -0.7])
    a3, b3 = variables(x, 3)
    _, b1 = variables(x, 1)
    for r in (a3 * b1, b1 * a3, a3 + b1, a3 - b1, a3 / b1, b1 / a3):
        assert r.order == 1
        assert r.h is None and r.t is None
    prod = a3 * b1
    full = a3 * b3
    assert prod.f == full.f and np.array_equal(prod.g, full.g)
    # a hand-built order-3 constant follows the variable's order
    s = Jet3(2, 1.0) + variables(x, 2)[0]
    assert s.order == 2 and s.t is None
    assert Jet3(2, 1.0).order == 3 and Jet3(2, 1.0).t.shape == (2, 2, 2)


def test_pack_array_rejects_jets_below_requested_order():
    x = np.array([0.1, 0.2])
    u, v = variables(x, 1)
    with pytest.raises(ValueError):
        pack_array([u, v], 2)
    with pytest.raises(ValueError):
        variables(x, 4)
    vals, grads = pack_array([u * v, 1.0], 1)
    assert vals[1] == 1.0 and not grads[1].any()
    assert math.isclose(vals[0], 0.02)


# --------------------------------------------------------------------------
# order-0 jets with a point axis
# --------------------------------------------------------------------------

@pytest.mark.parametrize("label,dim,field", FIELDS,
                         ids=[f[0] for f in FIELDS])
def test_values_are_the_stacked_per_point_values(label, dim, field):
    X = np.random.default_rng(11).uniform(-0.3, 0.3, (5, dim))
    stacked = np.stack([field.value(x) for x in X])
    assert _bitwise_equal(field.values(X), stacked)


def test_catalog_point_axis_covers_exp_sin_and_cos():
    labels = {label for label, _, _ in FIELDS}
    assert {"doubly_warped_r4:metric", "twisted_r4:metric",
            "euclidean:embedding:circle",
            "euclidean:embedding:helix"} <= labels


def test_point_axis_elementary_functions_are_pointwise_math():
    X = np.random.default_rng(3).uniform(0.1, 0.9, (7, 2))

    def fn(v):
        u, w = v
        return [u.exp(), w.log(), (u + w).sqrt(), u.sin(), w.cos(),
                u ** 0.7, w ** -2, 3.0 / (u - 2.0), u ** 0, 1.5]
    batched = pack_array(fn(variables(X, 0)), 0, points=len(X))[0]
    assert batched.shape == (7, 10)
    for x, row in zip(X, batched):
        single = pack_array(fn(variables(x, 0)), 0)[0]
        assert _bitwise_equal(row, single)
    u = variables(X, 0)[0]
    assert u.order == 0 and u.f.shape == (7,) and "7 points" in repr(u)


def test_point_axis_pole_is_non_finite_not_an_exception():
    X = np.array([[0.5], [1.0], [0.25]])
    (u,) = variables(X, 0)
    with np.errstate(all="ignore"):
        r = (1.0 / (1.0 - u)).exp()
    assert np.isfinite(r.f[[0, 2]]).all() and np.isnan(r.f[1])
    # order 1 on the same stack: the finite rows are bitwise the per-point
    # jets, the pole's row is nan
    with np.errstate(all="ignore"):
        rows = pack_array([(1.0 / (1.0 - u)).exp()
                           for u in variables(X, 1)], 1, points=len(X))
    for i in (0, 2):
        single = pack_array([(1.0 / (1.0 - u)).exp()
                             for u in variables(X[i], 1)], 1)
        for a, b in zip(rows, single):
            assert _bitwise_equal(a[i], b)
    assert all(np.isnan(c[1]).all() for c in rows)


# --------------------------------------------------------------------------
# jets of every order with a point axis
# --------------------------------------------------------------------------

@pytest.mark.parametrize("label,dim,field", FIELDS,
                         ids=[f[0] for f in FIELDS])
def test_point_axis_jets_are_the_stacked_per_point_jets(label, dim, field):
    X = np.random.default_rng(13).uniform(-0.3, 0.3, (5, dim))
    for k in (1, 2, 3):
        stacked = field.jets(X, k)
        assert len(stacked) == k + 1
        for i, x in enumerate(X):
            for a, b in zip(stacked, field.jets(x, k)):
                assert _bitwise_equal(np.asarray(a[i]), b)
        for a in stacked:
            assert a.flags.c_contiguous


def test_point_axis_elementary_function_jets_are_pointwise():
    X = np.random.default_rng(3).uniform(0.1, 0.9, (7, 2))

    def fn(v):
        u, w = v
        return [u.exp(), w.log(), (u + w).sqrt(), u.sin(), w.cos(),
                u ** 0.7, w ** -2, 3.0 / (u - 2.0), u ** 0, 1.5,
                (u * w - 0.5 * u).exp() * w ** 1.5]
    for k in (1, 2, 3):
        stacked = pack_array(fn(variables(X, k)), k, points=len(X))
        for i, x in enumerate(X):
            single = pack_array(fn(variables(x, k)), k)
            for a, b in zip(stacked, single):
                assert _bitwise_equal(a[i], b)


def test_point_axis_mixes_with_point_free_jets():
    """A plain number, a constant and a hand-built jet without a point axis
    broadcast along the point axis of the other operand."""
    X = np.random.default_rng(5).uniform(-0.5, 0.5, (4, 2))

    def fn(v):
        u, w = v
        return [Jet3(2, 1.0) + u * w, 2.0 - u, constant(2, 0.5) * w,
                Jet3(2, 0.3, [1.0, 2.0]) / (1.0 + u * u)]
    for k in (1, 2, 3):
        stacked = pack_array(fn(variables(X, k)), k, points=len(X))
        for i, x in enumerate(X):
            single = pack_array(fn(variables(x, k)), k)
            for a, b in zip(stacked, single):
                assert _bitwise_equal(a[i], b)
