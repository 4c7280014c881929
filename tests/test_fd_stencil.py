"""The central-difference jets take their whole stencil from one ``values``
call.  They must equal, bit for bit, the nested per-point route they
replace: ``value`` at x, then the first- and second-derivative stencils
point by point, and the third derivative as a Richardson difference (steps
step3 and step3/2) of the second-derivative stencil."""
import numpy as np
import pytest

from tractorlab import cli, geolib
from tractorlab import firstint as fi
from tractorlab.tensors import ArrayField, DiffBackend, JetOrderError


# -- the per-point route, as a reference ------------------------------------

def _ref_fd1(field, x, h):
    n = x.size
    v = field.value(x)
    d1 = np.empty(v.shape + (n,))
    for a in range(n):
        e = np.zeros(n)
        e[a] = h
        d1[..., a] = (field.value(x + e) - field.value(x - e)) / (2 * h)
    return d1


def _ref_fd2(field, x, h):
    n = x.size
    v = field.value(x)
    d2 = np.empty(v.shape + (n, n))
    for a in range(n):
        ea = np.zeros(n)
        ea[a] = h
        d2[..., a, a] = (field.value(x + ea) - 2 * v
                         + field.value(x - ea)) / h ** 2
        for b in range(a + 1, n):
            eb = np.zeros(n)
            eb[b] = h
            mixed = (field.value(x + ea + eb) - field.value(x + ea - eb)
                     - field.value(x - ea + eb)
                     + field.value(x - ea - eb)) / (4 * h ** 2)
            d2[..., a, b] = mixed
            d2[..., b, a] = mixed
    return d2


def _ref_richardson_diff(f, x, h):
    """Central differences at steps h and h/2, combined as (4 D(h/2) -
    D(h)) / 3."""
    n = x.size
    out = None
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        d = (f(x + e) - f(x - e)) / (2 * h)
        small = (f(x + e / 2) - f(x - e / 2)) / h
        d = (4 * small - d) / 3
        if out is None:
            out = np.empty(np.shape(d) + (n,))
        out[..., i] = d
    return out


def _ref_fd_jets(field, x, order):
    v = field.value(x)
    out = [v]
    h = field.backend.step
    if order >= 1:
        out.append(_ref_fd1(field, x, h))
    if order >= 2:
        out.append(_ref_fd2(field, x, h))
    if order >= 3:
        d3 = _ref_richardson_diff(lambda y: _ref_fd2(field, y, h), x,
                                  field.backend.step3)
        def t(p):
            return d3.transpose(*range(v.ndim), *(v.ndim + np.array(p)))
        d3 = (d3 + t([1, 2, 0]) + t([2, 0, 1]) + t([0, 2, 1])
              + t([1, 0, 2]) + t([2, 1, 0])) / 6.0
        out.append(d3)
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -- catalog metrics under the FD backend -----------------------------------

METRICS = [(name, entry.make_geometry())
           for name, entry in geolib.catalog().items()]


@pytest.mark.parametrize("name,geo", METRICS, ids=[m[0] for m in METRICS])
def test_fd_metric_jets_equal_the_per_point_route(name, geo):
    """At a point, and at each row of a stack (a repeated row included)."""
    fd = cli.as_fd_geometry(geo).metric
    rng = np.random.default_rng(5)
    for order in (0, 1, 2, 3):
        x = rng.uniform(-0.3, 0.3, geo.n)
        got = fd.jets(x, order)
        ref = _ref_fd_jets(fd, x, order)
        assert len(got) == order + 1
        for a, b in zip(got, ref):
            assert _same_bits(a, b)
        X = rng.uniform(-0.3, 0.3, (3, geo.n))
        X = np.vstack([X, X[1]])
        got = fd.jets(X, order)
        assert len(got) == order + 1
        for i, x in enumerate(X):
            for a, b in zip(got, _ref_fd_jets(fd, x, order)):
                assert _same_bits(a[i], b)


def test_plain_field_calls_value_once_per_stencil_point():
    calls = []

    def fn(x):
        calls.append(x.copy())
        return np.array([[x @ x, np.sin(x[0])], [x[1] * x[2], 1.0]])
    field = ArrayField(fn, backend=DiffBackend(step3=2e-2))
    x = np.array([0.1, -0.2, 0.3])
    X = np.array([x, [0.2, 0.0, -0.1], x])
    n = x.size
    for order, npts in ((0, 1), (1, 2 + 2 * n),
                        (2, 3 + 2 * n + 2 * n * n),
                        (3, 2 + 2 * n + (4 * n + 1) * (1 + 2 * n * n))):
        calls.clear()
        got = field.jets(x, order)
        assert len(calls) == npts
        calls.clear()
        ref = _ref_fd_jets(field, x, order)
        assert len(calls) == npts
        for a, b in zip(got, ref):
            assert _same_bits(a, b)
        # a stack: every row's stencil, in row order
        calls.clear()
        got = field.jets(X, order)
        assert len(calls) == len(X) * npts
        stencil = calls[:]
        for i, y in enumerate(X):
            calls.clear()
            for a, b in zip(got, _ref_fd_jets(field, y, order)):
                assert _same_bits(a[i], b)
            assert _same_bits(stencil[i * npts:(i + 1) * npts], calls)


# -- a pole inside the stencil ----------------------------------------------

def test_stencil_point_on_a_pole_is_a_jet_order_error():
    # 0.999 + 0.001 is exactly 1.0, the boundary of the Poincare ball
    assert 0.999 + 0.001 == 1.0
    fd = cli.as_fd_geometry(geolib.hyperbolic(3)).metric
    with pytest.raises(JetOrderError):
        fd.jets(np.array([0.999, 0.0, 0.0]), 1)
    with pytest.raises(JetOrderError):
        geolib.hyperbolic(3).metric.values(np.array([[1.0, 0.0, 0.0]]))
    # on a stack, the first pole in row order: row 1's stencil point
    # (0, 1, 0), as the rows one at a time name it, not row 2's (1, 0, 0),
    # which comes earlier in its own stencil
    X = np.array([[0.2, 0.1, 0.0], [0.0, 0.999, 0.0], [0.999, 0.0, 0.0]])
    with pytest.raises(JetOrderError, match=r"at \[0\. 1\. 0\.\]") as row:
        fd.jets(X[1], 1)
    with pytest.raises(JetOrderError) as stack:
        fd.jets(X, 1)
    assert str(stack.value) == str(row.value)


def test_report_with_a_stencil_point_on_a_pole_exits_2(capsys):
    rc = cli.main(["report",
                   "-s", 'geometry={"name":"hyperbolic","params":{"n":3}}',
                   "-s", 'embedding={"name":"slice","params":{"n":3,"m":2}}',
                   "-s", 'samples={"points":[[0.999,0.0]]}',
                   "-s", 'backend={"mode":"fd"}'])
    assert rc == 2
    assert "JetOrderError" in capsys.readouterr().err


# -- the scan grid ------------------------------------------------------------

FORMS = [(f"{name}:{kname}", entry.make_geometry(), make())
         for name, entry in geolib.catalog().items()
         for kname, make in entry.ky_forms.items()]


@pytest.mark.parametrize("label,geo,kspec", FORMS, ids=[f[0] for f in FORMS])
def test_scan_grid_equals_the_per_point_loop(label, geo, kspec):
    axes = [np.linspace(-1.2, 1.3, 5)] * geo.n
    got = fi._k_norm2_grid(geo, kspec, axes)
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    flat = X.reshape(-1, geo.n)
    ref = np.array([float(np.sum(np.asarray(kspec.field.value(x)) ** 2))
                    for x in flat]).reshape(X.shape[:-1])
    assert _same_bits(got, ref)
