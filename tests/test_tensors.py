"""Component checks, (anti)symmetrisers, slot pairing and differentiation
backend tests."""
import itertools
import math
import re

import numpy as np
import pytest

from oracles import moveaxis_alt_array, moveaxis_sym_array
from test_jets import _bitwise_equal
from tractorlab import geolib
from tractorlab import tractor as tr
from tractorlab.riemann import curvature_pack
from tractorlab.tensors import (ArrayField, DiffBackend, JetOrderError,
                                TensorError, alt_array, central_diff,
                                sym_array)


def test_jet_constant_field():
    f = ArrayField(lambda x: np.array(3.7), backend=DiffBackend())
    val, d1, d2 = f.jets(np.array([0.1, 0.2]), 2)
    assert np.allclose(d1, 0.0)
    assert np.allclose(d2, 0.0)


def test_jet_quadratic_exact():
    f = ArrayField(lambda x: np.array(x[0] ** 2), backend=DiffBackend())
    val, d1, d2 = f.jets(np.zeros(3), 2)
    expected = np.diag([2.0, 0.0, 0.0])
    assert np.abs(d2 - expected).max() < 1e-8


def test_jet_sin_third_order():
    f = ArrayField(lambda x: np.array(math.sin(x[0])),
                   backend=DiffBackend(step=1e-3, step3=1e-3))
    x = np.array([0.3])
    val, d1, d2, d3 = f.jets(x, 3)
    assert abs(d1[0] - math.cos(0.3)) < 1e-5
    assert abs(d2[0, 0] + math.sin(0.3)) < 1e-5
    assert abs(d3[0, 0, 0] + math.cos(0.3)) < 1e-5


def test_jet_order_exceeds_backend():
    f = ArrayField(lambda x: np.array(x[0]),
                   backend=DiffBackend(max_order=1))
    with pytest.raises(JetOrderError):
        f.jets(np.zeros(2), 2)


def test_fd_convergence_second_order():
    # halving the step reduces the first-derivative error by >= 3.5
    x = np.array([0.3])
    errs = []
    for h in (2e-2, 1e-2):
        f = ArrayField(lambda x: np.array(math.sin(x[0])),
                       backend=DiffBackend(step=h))
        _, d1 = f.jets(x, 1)
        errs.append(abs(d1[0] - math.cos(0.3)))
    assert errs[0] / errs[1] >= 3.5


def test_contract_identity():
    delta = np.eye(3)
    v = np.array([1.0, 2.0, -0.5])
    out = np.einsum("ab,b->a", delta, v)
    assert np.allclose(out, v)


def test_contract_inverse_metric_pair():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    g = A @ A.T + 3 * np.eye(3)
    out = np.einsum("ab,bc->ac", g, np.linalg.inv(g))
    assert np.abs(out - np.eye(3)).max() < 1e-12


def test_epsilon_full_contraction():
    # direct sum over permutations in flat R^3
    from tractorlab.riemann import levi_civita_symbol
    eps = levi_civita_symbol(3)
    out = np.einsum("abc,abc->", eps, eps)
    assert out == pytest.approx(math.factorial(3))


def test_alt_of_symmetric_is_zero():
    rng = np.random.default_rng(1)
    S = rng.standard_normal((4, 4))
    S = S + S.T
    assert np.abs(alt_array(S)).max() < 1e-14


def test_alt_idempotent_and_basis_example():
    rng = np.random.default_rng(2)
    T = rng.standard_normal((3, 3))
    once = alt_array(T)
    twice = alt_array(once)
    assert np.abs(once - twice).max() < 1e-14
    e = np.zeros((3, 3))
    e[0, 1] = 1.0
    out = alt_array(e)
    expected = np.zeros((3, 3))
    expected[0, 1], expected[1, 0] = 0.5, -0.5
    assert np.abs(out - expected).max() < 1e-15


def test_alt_after_sym_vanishes():
    rng = np.random.default_rng(3)
    T = rng.standard_normal((3, 3, 3))
    out = alt_array(sym_array(T, (0, 1)), (0, 1))
    assert np.abs(out).max() < 1e-14


def test_alt_and_sym_are_the_moveaxis_loops():
    """alt_array and sym_array, from cached transposes, are bitwise the
    loop of np.moveaxis over the permutations, for ranks 1-5 and every
    ordered subset of axes (unsorted and negative ones too)."""
    rng = np.random.default_rng(5)
    for rank in range(1, 6):
        T = rng.standard_normal((3,) * rank)
        subsets = [None] + [
            axes for k in range(1, rank + 1)
            for axes in itertools.permutations(range(rank), k)]
        for axes in subsets + [tuple(a - rank for a in range(rank))]:
            assert _bitwise_equal(alt_array(T, axes),
                                  moveaxis_alt_array(T, axes)), axes
            assert _bitwise_equal(sym_array(T, axes),
                                  moveaxis_sym_array(T, axes)), axes


def test_tractor_pairing_swaps_sigma_rho():
    up = np.array([1.0, 0, 0, 0.0])
    dn = np.array([0.0, 0, 0, 5.0])
    # sigma slot of up pairs against rho slot of down
    out = np.einsum("A,A->", up, tr.pair_flip(dn, 0))
    assert out == pytest.approx(5.0)


def _star(F):
    pack = curvature_pack(geolib.sphere(3), np.array([0.2, -0.1, 0.3]), 2)
    return tr.hodge_star(F, tr.raised_volume_form(pack, F.ndim))


def _infinite_form():
    F = np.zeros((5, 5))
    F[0, 1], F[1, 0] = np.inf, -np.inf
    return F


def _thomas_of_a_vector_as_a_scalar(dim=3):
    field = ArrayField(lambda y: np.ones(dim))
    return tr.thomas_D(field, (), 1,
                       curvature_pack(geolib.euclidean(3), np.zeros(3), 2))


@pytest.mark.parametrize("call,message", [
    (lambda: _star(_infinite_form()), "non-finite tensor components"),
    (lambda: _star(np.triu(np.ones((5, 5)))),
     "tractor form is not antisymmetric"),
    (_thomas_of_a_vector_as_a_scalar,
     "shape (3,) does not match indices ()"),
    # a length that does not broadcast against the chart's dimension
    (lambda: _thomas_of_a_vector_as_a_scalar(2),
     "shape (2,) does not match indices ()"),
], ids=["nonfinite-form", "nonantisymmetric-form", "shape-against-indices",
        "unbroadcastable-shape-against-indices"])
def test_component_checks_raise_tensor_error(call, message):
    """The Hodge star takes finite antisymmetric forms only, and the Thomas
    operator's field values must fit the field's indices."""
    with pytest.raises(TensorError, match=re.escape(message)):
        call()


def _batched(f):
    """``f`` on each row of a stack of points, stacked on axis 0."""
    return lambda X: np.stack([f(x) for x in X])


def test_central_diff_exact_on_quadratic():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((2, 3))
    B = rng.standard_normal((2, 3, 3))
    C = rng.standard_normal((2, 3, 3, 3))

    def quad(x):
        return A + B @ x + np.einsum("...ij,i,j->...", C, x, x)
    x = rng.standard_normal(3)
    exact = B + np.einsum("...kj,j->...k", C + C.swapaxes(-1, -2), x)
    d = central_diff(_batched(quad), x, 0.1)
    assert d.shape == (2, 3, 3)
    assert np.abs(d - exact).max() < 1e-12


def test_central_diff_richardson_exact_on_quartic():
    rng = np.random.default_rng(6)
    w, v = rng.standard_normal(3), rng.standard_normal(3)

    def quartic(x):
        return np.array([(w @ x) ** 4, 2 * (v @ x) ** 4 + x[0] ** 3])
    x = rng.standard_normal(3)
    exact = np.stack([4 * (w @ x) ** 3 * w, 8 * (v @ x) ** 3 * v
                      + 3 * x[0] ** 2 * np.eye(3)[0]])
    plain = central_diff(_batched(quartic), x, 0.1)
    rich = central_diff(_batched(quartic), x, 0.1, richardson=True)
    scale = np.abs(exact).max()
    # the plain stencil keeps its h^2 term; Richardson cancels it, and a
    # quartic has no h^4 term
    assert np.abs(plain - exact).max() > 1e-4 * scale
    assert np.abs(rich - exact).max() < 1e-12 * scale


def _loop_central_diff(f, x, h, richardson=False):
    """The point-by-point central difference, kept as the oracle: ``f``
    takes one point, and each stencil point is its own call."""
    n = x.size
    out = None
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        d = (f(x + e) - f(x - e)) / (2 * h)
        if richardson:
            small = (f(x + e / 2) - f(x - e / 2)) / h
            d = (4 * small - d) / 3
        if out is None:
            out = np.empty(np.shape(d) + (n,))
        out[..., i] = d
    return out


@pytest.mark.parametrize("richardson", [False, True])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_central_diff_is_the_point_by_point_loop(n, richardson):
    """One batched call on the whole stencil gives bit for bit what the
    point-by-point loop gives, at one centre and at each of a stack of
    centres."""
    rng = np.random.default_rng(11 + n)
    A = rng.standard_normal((3, 2, n))

    def f(x):
        return np.sin(A @ x) * np.exp(0.3 * x.sum()) + x[0] ** 3
    X = rng.uniform(-0.5, 0.5, (5, n))
    for h in (1e-2, 1e-4, 0.3):
        d = central_diff(_batched(f), X[0], h, richardson)
        assert _bitwise(d, _loop_central_diff(f, X[0], h, richardson))
        D = central_diff(_batched(f), X, h, richardson)
        assert D.shape == (5, 3, 2, n) and D.flags.c_contiguous
        for x, row in zip(X, D):
            assert _bitwise(row.copy(),
                            _loop_central_diff(f, x, h, richardson))


def _bitwise(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_central_diff_failure_is_the_point_by_point_first():
    """A batched call that fails runs again row by row, so the error is the
    one the point-by-point order meets first, not the batch's own."""
    def f(X):
        # the batch checks one condition on every row before the other:
        # the second stencil row fails the first check, the first row the
        # second check
        for x in X:
            if x[0] < 0:
                raise JetOrderError(f"first check at {x}")
        for x in X:
            if x[0] > 0.15:
                raise JetOrderError(f"second check at {x}")
        return X
    with pytest.raises(JetOrderError, match="first check"):
        f(np.array([[0.2], [-0.1]]))
    with pytest.raises(JetOrderError, match=r"second check at \[0\.2\]"):
        central_diff(f, np.array([0.05]), 0.15)


def test_central_diff_result_is_c_contiguous():
    rng = np.random.default_rng(7)
    M, N = rng.standard_normal((2, 3, 4))

    def transposed(X):
        # the values at the rows of X, as a non-contiguous view
        return np.stack([M + x[0] * N + x[1] ** 2 * M for x in X],
                        axis=-1).transpose(2, 1, 0)
    assert not transposed(np.zeros((1, 2))).flags.c_contiguous
    x = np.array([0.3, -0.2])
    d = central_diff(transposed, x, 1e-2)
    assert d.shape == (4, 3, 2)
    assert d.flags.c_contiguous
    assert np.abs(d[..., 0] - N.T).max() < 1e-12
    assert np.abs(d[..., 1] - 2 * x[1] * M.T).max() < 1e-12
