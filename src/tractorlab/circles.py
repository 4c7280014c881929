"""Conformal-circle ODE integration and the associated curve tractors.

The third-order projectively-parametrised equation is integrated as a
first-order system in (x, u, a) of dimension 3n; the parametrisation drift is
measured through A.A, never corrected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .riemann import GeometrySpec, curvature_pack
from .tensors import NumericalError, alt_array, stage
from . import tractor as tr

__all__ = ["CurveState", "CircleTrajectory", "conformal_circle_rhs",
           "covariant_acceleration_rate", "integrate_circle",
           "curve_tractors", "unparametrised_residual",
           "flat_circle_solution"]


# scipy.integrate costs most of a cold start and only integrate_circle
# reads it: it is imported there, on first use
solve_ivp = None


class ZeroVelocityError(NumericalError, ValueError):
    pass


class CircleIntegrationError(NumericalError, RuntimeError):
    """The ODE solver stopped before the end of the time span."""


@dataclass
class CurveState:
    x: np.ndarray
    u: np.ndarray
    a: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        if np.linalg.norm(self.u) == 0.0:
            raise ZeroVelocityError("curve state has zero velocity")


@dataclass
class CircleTrajectory:
    ts: np.ndarray
    xs: np.ndarray
    us: np.ndarray
    accs: np.ndarray
    AdotA: np.ndarray
    unparam_residual: np.ndarray
    monitored: dict
    status: str = "ok"

    def state(self, k) -> CurveState:
        return CurveState(self.xs[k], self.us[k], self.accs[k],
                          t=float(self.ts[k]))


def _inner_products(pk, state):
    """(u.u, u.a, a.a) in the metric of ``pk``; the circle equation needs
    a Schouten tensor and a nonzero velocity."""
    if pk.P is None:
        raise tr.MobiusStructureError(
            "the circle equation needs a Schouten tensor")
    g = pk.g
    u, a = state.u, state.a
    s = float(u @ g @ u)
    if s <= 0:
        raise ZeroVelocityError("curve state has zero velocity")
    return s, float(u @ g @ a), float(a @ g @ a)


def _bold_rate(geo, state, cov_da, pk):
    """(bold u . nabla bold a - bold u^d P_d^b, bold u, |u|), the vector
    of the unparametrised circle equation; cov_da defaults to the circle
    equation's right-hand side."""
    s, ua, aa = _inner_products(pk, state)
    u, a = state.u, state.a
    if cov_da is None:
        cov_da = covariant_acceleration_rate(geo, state, pack=pk)
    u_covda = float(u @ pk.g @ cov_da)
    nab_ba = (cov_da / s - 3.0 * ua / s ** 2 * a
              - (-4.0 * ua ** 2 / s ** 3 + (aa + u_covda) / s ** 2) * u)
    un = math.sqrt(s)
    bu = u / un
    return nab_ba / un - pk.gi @ (pk.P @ bu), bu, un


def covariant_acceleration_rate(geo: GeometrySpec, state: CurveState,
                                pack=None):
    """u^c nabla_c a^b from the projectively parametrised circle equation."""
    pk = pack if pack is not None else curvature_pack(geo, state.x, order=2)
    s, ua, aa = _inner_products(pk, state)
    u, a = state.u, state.a
    Pu_up = pk.gi @ (pk.P @ u)
    Puu = float(u @ pk.P @ u)
    return (s * Pu_up + 3.0 * ua / s * a - 1.5 * aa / s * u - 2.0 * Puu * u)


def conformal_circle_rhs(geo: GeometrySpec, state: CurveState):
    """Coordinate time derivative of the (x, u, a) system."""
    pk = curvature_pack(geo, state.x, order=2)
    Gam = pk.Gamma
    u, a = state.u, state.a
    dx = u
    du = a - np.einsum("bcd,c,d->b", Gam, u, u)
    cov = covariant_acceleration_rate(geo, state, pack=pk)
    da = cov - np.einsum("bcd,c,d->b", Gam, u, a)
    return dx, du, da


def A_dot_A(geo: GeometrySpec, state: CurveState, pack=None):
    pk = pack if pack is not None else curvature_pack(geo, state.x, order=2)
    s, ua, aa = _inner_products(pk, state)
    u = state.u
    cov = covariant_acceleration_rate(geo, state, pack=pk)
    Puu = float(u @ pk.P @ u)
    return (3.0 * aa / s + 2.0 * float(u @ pk.g @ cov) / s
            - 6.0 * ua ** 2 / s ** 2 + 2.0 * Puu)


def unparametrised_residual(geo: GeometrySpec, state: CurveState,
                            cov_da=None, pack=None):
    """Norm of (bold u . nabla bold a)^[b bold u^c] - bold u^d P_d^[b bold u^c]."""
    pk = pack if pack is not None else curvature_pack(geo, state.x, order=2)
    core, bu, _ = _bold_rate(geo, state, cov_da, pk)
    diff = np.multiply.outer(core, bu)
    anti = 0.5 * (diff - diff.T)
    return math.sqrt(max(0.0, float(np.einsum(
        "bc,de,bd,ce->", pk.g, pk.g, anti, anti))))


def integrate_circle(geo: GeometrySpec, initial: CurveState, t_span,
                     rtol=1e-10, atol=1e-12, num=200, monitors=None,
                     chart_bound=None) -> CircleTrajectory:
    """Integrate the projectively parametrised circle equation (DOP853).

    ``monitors`` maps names to ``fn(geo, state, pack)``, evaluated at each
    output point with the order-2 curvature pack built there."""
    global solve_ivp
    if solve_ivp is None:
        from scipy.integrate import solve_ivp
    n = geo.n
    monitors = monitors or {}

    def rhs(t, y):
        with stage("circle integration", t=t):
            st = CurveState(y[:n], y[n:2 * n], y[2 * n:], t=t)
            dx, du, da = conformal_circle_rhs(geo, st)
        return np.concatenate([dx, du, da])

    events = None
    if chart_bound is not None:
        def exit_event(t, y):
            return chart_bound - float(np.max(np.abs(y[:n])))
        exit_event.terminal = True
        events = [exit_event]

    y0 = np.concatenate([initial.x, initial.u, initial.a])
    ts = np.linspace(t_span[0], t_span[1], num)
    with stage("circle integration", t=list(t_span)):
        sol = solve_ivp(rhs, t_span, y0, method="DOP853", t_eval=ts,
                        rtol=rtol, atol=atol, events=events,
                        dense_output=False)
        if not sol.success and sol.status != 1:
            raise CircleIntegrationError(
                f"circle integration failed: {sol.message}")
    status = "ok" if sol.status == 0 else "chart_exit"
    ts = sol.t
    xs = sol.y[:n].T
    us = sol.y[n:2 * n].T
    accs = sol.y[2 * n:].T
    ada = np.empty(len(ts))
    res = np.empty(len(ts))
    mon = {k: np.empty(len(ts)) for k in monitors}
    for k in range(len(ts)):
        with stage("circle output point", t=ts[k]):
            st = CurveState(xs[k], us[k], accs[k], t=float(ts[k]))
            pk = curvature_pack(geo, st.x, order=2)
            ada[k] = A_dot_A(geo, st, pack=pk)
            res[k] = unparametrised_residual(geo, st, pack=pk)
            for name, fn in monitors.items():
                mon[name][k] = fn(geo, st, pk)
    return CircleTrajectory(ts=ts, xs=xs, us=us, accs=accs, AdotA=ada,
                            unparam_residual=res, monitored=mon,
                            status=status)


# --------------------------------------------------------------------------
# curve tractors
# --------------------------------------------------------------------------

def curve_tractors(geo: GeometrySpec, state: CurveState, cov_da=None,
                   pack=None):
    """(U^B, A^B, Phi^{ABC}) at the state; cov_da defaults to the circle
    equation's right-hand side, ``pack`` to an order-2 curvature pack at
    state.x."""
    n = geo.n
    pk = pack if pack is not None else curvature_pack(geo, state.x, order=2)
    s, ua, aa = _inner_products(pk, state)
    u, a = state.u, state.a
    un = math.sqrt(s)
    if cov_da is None:
        cov_da = covariant_acceleration_rate(geo, state, pack=pk)
    u_covda = float(u @ pk.g @ cov_da)
    Puu = float(u @ pk.P @ u)
    U = tr.make_tractor(n, sigma=0.0, mu=u / un, rho=-ua / un ** 3)
    A = tr.make_tractor(
        n, sigma=-un,
        mu=a / un - 2.0 * ua / un ** 3 * u,
        rho=(-u_covda / un ** 3 - aa / un ** 3 + 3.0 * ua ** 2 / un ** 5
             - Puu / un))
    X = tr.canonical_X(n)
    Phi = 6.0 * alt_array(np.multiply.outer(X / un,
                                            np.multiply.outer(U, A)))
    return U, A, Phi


def flat_circle_solution(radius, t, n=2):
    """Analytic projectively-parametrised circle in flat space.

    Initial data x = 0, u = e1 (unit speed), a = e2 / radius; the angle obeys
    theta(t) = 2 arctan(t / (2 radius)).
    """
    th = 2.0 * np.arctan(np.asarray(t) / (2.0 * radius))
    x = np.zeros(np.shape(th) + (n,))
    x[..., 0] = radius * np.sin(th)
    x[..., 1] = radius * (1.0 - np.cos(th))
    thdot = (1.0 / radius) / (1.0 + (np.asarray(t) / (2 * radius)) ** 2)
    u = np.zeros_like(x)
    u[..., 0] = radius * thdot * np.cos(th)
    u[..., 1] = radius * thdot * np.sin(th)
    return x, u, th
