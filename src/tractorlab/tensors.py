"""Index kinds, the checks on tensor components, slot matrices,
(anti)symmetrisers and differentiation backends.

Tensors are dense numpy arrays of components in a chart, one axis per
index; a function that needs the kind of each axis takes a tuple of
``Index`` (kind, variance, dimension) beside the array.  ``check_shape``,
``check_finite`` and ``check_form`` raise a ``TensorError`` on components
that do not fit their indices, are not finite or do not make an
antisymmetric form.  Index work is done with ``np.einsum`` on the arrays.
Tractor indices use the slot order (sigma, mu_1..mu_n, rho) for both
variances; contracting an up tractor index with a down one therefore goes
through the constant pairing matrix that swaps the sigma and rho slots
(implemented as an axis flip, ``tractor.pair_flip``).

Every field's ``jets(x, order)`` takes a point or a stack of points of
shape (p, n), whose jets carry a leading point axis.  ``ArrayField``
differentiates by nested central differences, the stencils of all rows in
one ``values`` call (one evaluation for ``geolib.JetField``; a plain
field's ``values`` calls ``value`` point by point).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

TANGENT = "tangent"
TRACTOR = "tractor"
UP = "up"
DOWN = "down"

__all__ = [
    "NumericalError", "set_stage", "stage", "Index", "check_shape",
    "check_finite", "check_form", "DiffBackend", "ArrayField", "tangent_up",
    "tangent_down", "tractor_up", "tractor_down", "pairing_matrix",
    "tractor_metric_matrix", "middle_block", "on_axes", "central_diff",
]


class NumericalError(Exception):
    """Base of the errors a numerical evaluation raises on bad input or a
    degenerate point; the CLI reports them as a numerical failure."""


class TensorError(NumericalError, ValueError):
    pass


def set_stage(exc, what, **point):
    """Name the stage and point of a numerical failure on ``exc`` (as its
    ``stage`` attribute, which the CLI prints on stderr) unless an inner
    stage named it already; returns ``exc``."""
    if getattr(exc, "stage", None) is None:
        exc.stage = ", ".join([what] + [
            f"{k} = {np.asarray(v).tolist()}" for k, v in point.items()])
    return exc


class stage:
    """Context manager naming the stage and point of a ``NumericalError``
    or ``numpy.linalg.LinAlgError`` raised inside it (``set_stage``); the
    innermost stage wins.  The point is formatted only on failure."""
    __slots__ = ("what", "point")

    def __init__(self, what, **point):
        self.what = what
        self.point = point

    def __enter__(self):
        return self

    def __exit__(self, typ, exc, tb):
        if isinstance(exc, (NumericalError, np.linalg.LinAlgError)):
            set_stage(exc, self.what, **self.point)
        return False


@dataclass(frozen=True)
class Index:
    kind: str
    variance: str
    dim: int


def tangent_up(n):
    return Index(TANGENT, UP, n)


def tangent_down(n):
    return Index(TANGENT, DOWN, n)


def tractor_up(n):
    return Index(TRACTOR, UP, n + 2)


def tractor_down(n):
    return Index(TRACTOR, DOWN, n + 2)


def check_shape(data, indices):
    """Raise a ``TensorError`` unless the shape of ``data`` is the
    dimensions of ``indices``."""
    dims = tuple(ix.dim for ix in indices)
    if np.shape(data) != dims:
        raise TensorError(
            f"shape {np.shape(data)} does not match indices {dims}")


def check_finite(data):
    """``data``, once every component is checked finite (a ``TensorError``
    otherwise)."""
    if not np.all(np.isfinite(data)):
        raise TensorError("non-finite tensor components")
    return data


def check_form(data):
    """``data``, once checked finite and antisymmetric under each swap of
    adjacent axes to 1e-12 of its largest component (or of 1); a
    ``TensorError`` otherwise."""
    check_finite(data)
    worst = 0.0
    for i in range(data.ndim - 1):
        worst = max(worst, float(np.abs(
            np.swapaxes(data, i, i + 1) + data).max()))
    if worst > 1e-12 * max(1.0, float(np.abs(data).max())):
        raise TensorError("tractor form is not antisymmetric")
    return data


def pairing_matrix(n):
    """Up/down pairing J on the tractor slots of an n-dimensional chart:
    the identity with sigma and rho swapped."""
    J = np.eye(n + 2)
    J[0, 0] = J[-1, -1] = 0.0
    J[0, -1] = J[-1, 0] = 1.0
    return J


def tractor_metric_matrix(a):
    """h_AB in slots for a = g (or h^AB for a = g^-1): pairs sigma with
    rho, and ``a`` on the middle block."""
    k = a.shape[0]
    H = np.zeros((k + 2, k + 2))
    H[0, -1] = H[-1, 0] = 1.0
    H[1:k + 1, 1:k + 1] = a
    return H


def middle_block(a):
    """Identity on sigma and rho, ``a`` on the middle block: raises the
    middle slot for a = g^-1 and lowers it for a = g; at each row of a
    stack ``a`` of shape (p, k, k)."""
    k = a.shape[-1]
    M = np.broadcast_to(np.eye(k + 2), a.shape[:-2] + (k + 2, k + 2)).copy()
    M[..., 1:k + 1, 1:k + 1] = a
    return M


def on_axes(M, T, axes):
    """The matrix M[new, old] applied to each of the given axes of T."""
    for ax in axes:
        T = np.moveaxis(np.tensordot(M, T, axes=([1], [ax])), 0, ax)
    return T


def _perm_sign(perm):
    sign = 1.0
    perm = list(perm)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


@functools.lru_cache(maxsize=None)
def _perm_plan(ndim, axes):
    """(sign, transpose axes) of each permutation of ``axes`` (None: all
    ``ndim`` axes) in ``itertools.permutations`` order: ``data.transpose(
    order)`` is ``np.moveaxis(data, axes, permuted axes)``."""
    dims = range(ndim)
    axes = tuple(dims) if axes is None else tuple(dims[a] for a in axes)
    plan = []
    for perm in itertools.permutations(range(len(axes))):
        dest = [axes[p] for p in perm]
        order = [a for a in dims if a not in axes]
        for d, src in sorted(zip(dest, axes)):
            order.insert(d, src)
        plan.append((_perm_sign(perm), tuple(order)))
    return tuple(plan)


def alt_array(data, axes=None):
    plan = _perm_plan(data.ndim, None if axes is None else tuple(axes))
    out = np.zeros_like(data)
    # subtracting is adding the negated term, to the bit
    for sign, order in plan:
        if sign > 0:
            out += data.transpose(order)
        else:
            out -= data.transpose(order)
    return out / len(plan)


def sym_array(data, axes=None):
    plan = _perm_plan(data.ndim, None if axes is None else tuple(axes))
    out = np.zeros_like(data)
    for _, order in plan:
        out += data.transpose(order)
    return out / len(plan)


# --------------------------------------------------------------------------
# Differentiation backend
# --------------------------------------------------------------------------

ANALYTIC = "analytic"
FD = "central-finite-difference"


class JetOrderError(NumericalError, RuntimeError):
    pass


@dataclass(frozen=True)
class DiffBackend:
    """How fields are differentiated.

    FD steps default to 1e-3 for first/second derivatives and 1e-2 for the
    outer level of third derivatives (third derivatives of a metric enter the
    Cotton tensor; the wider step trades truncation against roundoff there),
    a Richardson difference of the steps step3 and step3/2.
    """
    mode: str = FD
    step: float = 1e-3
    step3: float = 1e-2
    max_order: int = 3

    def __post_init__(self):
        if self.mode not in (ANALYTIC, FD):
            raise ValueError(f"unknown backend mode {self.mode!r}")
        if self.step <= 0 or self.step3 <= 0:
            raise ValueError("FD steps must be positive")


def central_diff(f, x, h, richardson=False):
    """Central differences of ``f`` at ``x`` along each coordinate, stacked
    on a trailing axis: out[..., i] ~ d f / d x^i.

    ``f`` takes a stack of points of shape (k, n) and returns their values
    stacked on axis 0; the whole stencil is one call.  ``x`` may be a stack
    of centres of shape (p, n), and then the result carries a leading point
    axis, so a nested stencil costs one call per level.  The stencil of
    each centre, in order, is x + h e_i and x - h e_i for each i, and with
    ``richardson=True`` x + h e_i / 2 and x - h e_i / 2 after each pair;
    the steps h and h/2 combine as (4 D(h/2) - D(h))/3, which cancels the
    h^2 error term.  If the call fails numerically, ``f`` runs on the rows
    one at a time, so the error is the one a point-by-point evaluation
    meets first.  The result is a fresh C-contiguous array whatever the
    layout of ``f``'s values (the rounding of a later einsum can depend on
    it).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    pts = []
    for c in x.reshape(-1, n):
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            pts += [c + e, c - e]
            if richardson:
                pts += [c + e / 2, c - e / 2]
    pts = np.array(pts)
    try:
        vals = np.asarray(f(pts))
    except (NumericalError, np.linalg.LinAlgError):
        for p in pts:
            f(p[None])
        raise
    k = 4 if richardson else 2
    vals = vals.reshape((-1, n, k) + vals.shape[1:])
    out = np.empty(vals.shape[:1] + vals.shape[3:] + (n,))
    for i in range(n):
        v = vals[:, i]
        d = (v[:, 0] - v[:, 1]) / (2 * h)
        if richardson:
            small = (v[:, 2] - v[:, 3]) / h
            d = (4 * small - d) / 3
        out[..., i] = d
    return out if x.ndim == 2 else out[0]


class ArrayField:
    """Array-valued function of a chart point with derivative access.

    ``fn(x) -> ndarray``; ``jets`` appends one, two, three trailing
    coordinate axes for the derivatives, here by nested central
    differences.  ``values(X)`` evaluates the field at each row of ``X``
    (shape (p, n)) and stacks the results on a leading axis; here it calls
    ``value`` point by point, and a field that can evaluate many points at
    once overrides it.  ``jets`` takes a point or a stack of points, whose
    whole stencil comes from one ``values`` call.  A field with exact
    derivatives overrides ``jets``, for a point and a stack alike, and
    declares an analytic backend.
    """

    def __init__(self, fn, backend=None):
        self.fn = fn
        self.backend = backend or DiffBackend()

    def value(self, x):
        v = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)
        if not np.all(np.isfinite(v)):
            raise JetOrderError("non-finite field evaluation")
        return v

    def values(self, X):
        return np.stack([self.value(x) for x in X])

    def jets(self, x, order):
        x = np.asarray(x, dtype=float)
        if order > self.backend.max_order:
            raise JetOrderError(
                f"order {order} exceeds backend max_order "
                f"{self.backend.max_order}")
        return self._fd_jets(x, order)

    def _fd_jets(self, x, order):
        """Value and central differences up to ``order`` at ``x``, or at
        each row of a stack ``x``.

        Each row's stencil is the nested one, duplicates included: the row,
        the first derivative's 1 + 2n points, the second derivative's
        1 + 2n^2, and at order 3 a second-derivative stencil at each of
        row +- step3 e_i and row +- step3 e_i / 2, whose Richardson
        difference (as ``central_diff`` takes it) is the third derivative.
        All rows' stencils go through one ``values`` call in row order, so
        a failure names the point a row-by-row evaluation meets first.
        """
        X = x.reshape(-1, x.shape[-1])
        n = X.shape[1]
        h = self.backend.step
        pts = [X]
        if order >= 1:
            pts += _fd1_points(X, h)
        centres = [X]
        if order >= 3:
            for e in self.backend.step3 * np.eye(n):
                centres += [X + e, X - e, X + e / 2, X - e / 2]
        if order >= 2:
            for c in centres:
                pts += _fd2_points(c, h)
        vals = self.values(np.stack(pts, axis=1).reshape(-1, n))
        # stencil position first, then the point axis; the value made
        # C-contiguous, as a later einsum's rounding can depend on layout
        vals = vals.reshape((len(X), len(pts)) + vals.shape[1:]).swapaxes(0, 1)
        v = np.ascontiguousarray(vals[0])
        out = [v]
        if order >= 1:
            out.append(_fd1(vals[1:2 + 2 * n], n, h))
        if order >= 2:
            size = 1 + 2 * n * n
            start = 2 + 2 * n
            d2 = [_fd2(vals[k:k + size], n, h)
                  for k in range(start, len(vals), size)]
            out.append(d2[0])
        if order >= 3:
            h3 = self.backend.step3
            d3 = np.empty(v.shape + (n, n, n))
            for i in range(n):
                wide = (d2[1 + 4 * i] - d2[2 + 4 * i]) / (2 * h3)
                small = (d2[3 + 4 * i] - d2[4 + 4 * i]) / h3
                d3[..., i] = (4 * small - wide) / 3
            # symmetrise the mixed third derivatives
            d3 = (d3 + d3.transpose(*range(v.ndim), *(v.ndim + np.array([1, 2, 0]))) +
                  d3.transpose(*range(v.ndim), *(v.ndim + np.array([2, 0, 1]))) +
                  d3.transpose(*range(v.ndim), *(v.ndim + np.array([0, 2, 1]))) +
                  d3.transpose(*range(v.ndim), *(v.ndim + np.array([1, 0, 2]))) +
                  d3.transpose(*range(v.ndim), *(v.ndim + np.array([2, 1, 0])))) / 6.0
            out.append(d3)
        return out if x.ndim == 2 else [a[0] for a in out]


def _fd1_points(X, h):
    """X, then X + h e_a and X - h e_a for each a, X a stack of points."""
    pts = [X]
    for e in h * np.eye(X.shape[-1]):
        pts += [X + e, X - e]
    return pts


def _fd1(vals, n, h):
    """First derivatives from the values at ``_fd1_points``."""
    d1 = np.empty(vals[0].shape + (n,))
    for a in range(n):
        d1[..., a] = (vals[1 + 2 * a] - vals[2 + 2 * a]) / (2 * h)
    return d1


def _fd2_points(X, h):
    """X; then for each a, X +- h e_a followed by the four points
    X +- h e_a +- h e_b of each b > a (X a stack of points)."""
    steps = h * np.eye(X.shape[-1])
    pts = [X]
    for a, ea in enumerate(steps):
        pts += [X + ea, X - ea]
        for eb in steps[a + 1:]:
            pts += [X + ea + eb, X + ea - eb, X - ea + eb, X - ea - eb]
    return pts


def _fd2(vals, n, h):
    """Second derivatives from the values at ``_fd2_points``."""
    v = vals[0]
    d2 = np.empty(v.shape + (n, n))
    k = 1
    for a in range(n):
        d2[..., a, a] = (vals[k] - 2 * v + vals[k + 1]) / h ** 2
        k += 2
        for b in range(a + 1, n):
            mixed = (vals[k] - vals[k + 1]
                     - vals[k + 2] + vals[k + 3]) / (4 * h ** 2)
            d2[..., a, b] = mixed
            d2[..., b, a] = mixed
            k += 4
    return d2
