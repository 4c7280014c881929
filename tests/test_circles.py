"""Conformal-circle integration and curve-tractor tests."""
import math

import numpy as np
import pytest

from oracles import (phi_derivative, random_metric, solve_ivp_dop853,
                     star_normal_form)
from tractorlab import cli, geolib
from tractorlab import tractor as tr
from tractorlab import circles as ci
from tractorlab.riemann import curvature_pack
from tractorlab.subtractor import SubTractorContext
from tractorlab.tensors import tractor_up


def _hdot(geo, x, u, v):
    pk = curvature_pack(geo, x)
    n = geo.n
    h = np.zeros((n + 2, n + 2))
    h[0, n + 1] = h[n + 1, 0] = 1.0
    h[1:n + 1, 1:n + 1] = pk.g
    return float(u @ h @ v)


def _tractors(geo, st):
    """The curve tractors of ``st`` with the circle equation's acceleration
    rate, on the order-2 pack at its point."""
    pk = curvature_pack(geo, st.x, 2)
    return ci.curve_tractors(pk, st,
                             ci.covariant_acceleration_rate(pk, st.u, st.a))


def test_flat_line_trivial():
    geo = geolib.euclidean(2)
    st = ci.CurveState([0.0, 0.0], [1.0, 0.0], [0.0, 0.0])
    traj = ci.integrate_circle(geo, st, (0.0, 3.0), num=20)
    assert np.abs(traj.xs[:, 1]).max() < 1e-12
    assert np.abs(traj.xs[-1, 0] - 3.0) < 1e-12
    assert np.abs(traj.AdotA).max() < 1e-12


def test_flat_circle_analytic_solution():
    geo = geolib.euclidean(2)
    R = 1.0
    st = ci.CurveState([0, 0], [1, 0], [0, 1 / R])
    T = 2 * R * math.tan(0.45 * math.pi)
    traj = ci.integrate_circle(geo, st, (0.0, T), num=300)
    xs, us, th = ci.flat_circle_solution(R, traj.ts)
    assert np.abs(traj.xs[-1] - xs[-1]).max() < 1e-7
    assert np.abs(traj.xs - xs).max() < 1e-7
    rads = np.linalg.norm(traj.xs - np.array([0, R]), axis=1)
    assert np.abs(rads - R).max() < 1e-8
    assert np.abs(traj.AdotA).max() < 1e-10
    assert traj.unparam_residual.max() < 1e-10


def test_zero_velocity_rejected():
    with pytest.raises(ci.ZeroVelocityError):
        ci.CurveState([0, 0], [0, 0], [1, 0])


def test_rhs_on_the_stepped_array_rejects_a_zero_velocity():
    """The integrator passes its array (x, u, a) itself, with no
    ``CurveState`` to check it: a zero velocity is still rejected."""
    geo = geolib.sphere(3)
    y = np.array([0.1, 0.2, -0.1, 0.5, 0.2, 0.1, 0.1, -0.3, 0.2])
    y[3:6] = 0.0
    with pytest.raises(ci.ZeroVelocityError):
        ci.conformal_circle_rhs(geo, y)


def test_curve_tractor_normalisation():
    geo = geolib.sphere(3)
    st = ci.CurveState([0.1, 0.2, -0.1], [0.5, 0.2, 0.1], [0.1, -0.3, 0.2])
    U, A, Phi = _tractors(geo, st)
    x = st.x
    assert _hdot(geo, x, U, U) == pytest.approx(1.0, abs=1e-9)
    assert _hdot(geo, x, U, A) == pytest.approx(0.0, abs=1e-9)
    # A.A = 0 along circle-equation data (projective parametrisation)
    assert _hdot(geo, x, A, A) == pytest.approx(0.0, abs=1e-9)
    pk = curvature_pack(geo, x)
    h = np.zeros((5, 5))
    h[0, 4] = h[4, 0] = 1.0
    h[1:4, 1:4] = pk.g
    PP = np.einsum("ABC,DEF,AD,BE,CF->", Phi, Phi, h, h, h)
    # Phi.Phi = -6 with the Lorentzian Hodge conventions
    assert PP == pytest.approx(-6.0, abs=1e-8)


def test_flat_line_tractor_slots():
    geo = geolib.euclidean(2)
    st = ci.CurveState([0.3, 0.2], [1, 0], [0, 0])
    U, A, _ = _tractors(geo, st)
    assert np.abs(U - np.array([0, 1, 0, 0])).max() < 1e-12
    assert np.abs(A - np.array([-1, 0, 0, 0])).max() < 1e-12


def test_phi_is_star_normal_form():
    geo = geolib.euclidean(3)
    emb = geolib.circle_embedding(3, radius=1.5)
    y = np.array([0.7])
    ctx = SubTractorContext(geo, emb, y)
    x = ctx.sub.x
    u = ctx.sub.dphi[:, 0]
    a = np.array([-1.5 * math.cos(y[0]), -1.5 * math.sin(y[0]), 0.0])
    _, _, Phi = _tractors(geo, ci.CurveState(x, u, a))
    assert np.abs(Phi - star_normal_form(ctx)).max() < 1e-10


def test_phi_derivative_closed_form_oracle():
    # generic (non-circle) analytic curve: FD of Phi with connection
    # corrections matches the closed form
    geo = geolib.sphere(3)

    def path(t):
        return np.array([t, 0.3 * t * t, -0.2 * t ** 3])

    def state_covda(t):
        x = path(t)
        u = np.array([1.0, 0.6 * t, -0.6 * t * t])
        du = np.array([0.0, 0.6, -1.2 * t])
        d2u = np.array([0.0, 0.0, -1.2])
        pk = curvature_pack(geo, x, order=3)
        a = du + np.einsum("bcd,c,d->b", pk.Gamma, u, u)
        da_dt = (d2u + np.einsum("bcde,c,d,e->b", pk.dGamma, u, u, u)
                 + 2 * np.einsum("bcd,c,d->b", pk.Gamma, du, u))
        cov = da_dt + np.einsum("bcd,c,d->b", pk.Gamma, u, a)
        return ci.CurveState(x, u, a, t=t), cov

    t0, dt = 0.25, 1e-4
    st0, cov0 = state_covda(t0)
    stp, covp = state_covda(t0 + dt)
    stm, covm = state_covda(t0 - dt)
    Pp = ci.curve_tractors(curvature_pack(geo, stp.x, 2), stp, covp)[2]
    Pm = ci.curve_tractors(curvature_pack(geo, stm.x, 2), stm, covm)[2]
    fd = (Pp - Pm) / (2 * dt)
    conn = tr.ConnData.from_pack(curvature_pack(geo, st0.x, order=2))
    Mu = np.einsum("a,ane->ne", st0.u, conn.matrix(tractor_up(3)))
    P0 = ci.curve_tractors(curvature_pack(geo, st0.x, 2), st0, cov0)[2]
    corr = np.zeros((5, 5, 5))
    for ax in range(3):
        corr += np.moveaxis(np.einsum(
            "ne,...e->...n", Mu, np.moveaxis(P0, ax, -1)), -1, ax)
    closed = phi_derivative(geo, st0, cov_da=cov0)
    assert np.abs(fd + corr - closed).max() < 1e-4
    assert np.abs(closed).max() > 0.05


def test_phi_parallel_along_circle():
    geo = geolib.euclidean(3)
    st = ci.CurveState([0, 0, 0], [1, 0, 0], [0, 1, 0])
    traj = ci.integrate_circle(geo, st, (0.0, 4.0), num=50)
    worst = 0.0
    for k in range(0, 50, 7):
        s = traj.state(k)
        worst = max(worst, np.abs(phi_derivative(geo, s)).max())
    assert worst < 1e-5


def test_unparam_residual_discriminates():
    # great-circle states on the sphere solve the unparametrised equation
    geo = geolib.sphere(4)
    x0 = np.array([0.2, 0, 0, 0])
    pk = curvature_pack(geo, x0)
    v = 1 / math.sqrt(pk.g[0, 0])
    st = ci.CurveState(x0, [v, 0, 0, 0], [0, 0, 0, 0])
    assert ci.unparametrised_residual(
        pk, st, ci.covariant_acceleration_rate(pk, st.u, st.a)) < 1e-12
    # a generic curve state does not
    geoR = random_metric(3, seed=2)
    stg = ci.CurveState([0.1, 0.0, -0.1], [1.0, 0.2, 0.0], [0.05, 0.3, -0.2])
    res = ci.unparametrised_residual(curvature_pack(geoR, stg.x, 2), stg,
                                     np.array([0.4, -0.1, 0.2]))
    assert res > 1e-2


def test_sphere_great_circle_stays_on_axis():
    geo = geolib.sphere(4)
    st = ci.CurveState([0.2, 0, 0, 0], [1, 0, 0, 0], [0.3, 0, 0, 0])
    traj = ci.integrate_circle(geo, st, (0, 5.0), num=100, chart_bound=100.0)
    assert np.abs(traj.xs[:, 1:]).max() < 1e-6


def test_weak_circularity_containment():
    # tangential 2-jet on the great S^2 in S^4 stays in the slice
    geo = geolib.sphere(4)
    st = ci.CurveState([0.1, 0.05, 0, 0], [0.7, 0.4, 0, 0],
                       [0.1, -0.2, 0, 0])
    traj = ci.integrate_circle(geo, st, (0.0, 2.0), num=80, chart_bound=50.0)
    assert np.abs(traj.xs[:, 2:]).max() < 1e-5


def _lift_state(s, rest):
    x = np.concatenate([s.x, rest])
    u = np.concatenate([s.u, np.zeros(2)])
    a = np.concatenate([s.a, np.zeros(2)])
    return ci.CurveState(x, u, a)


def test_strong_circularity_special_einstein_product():
    # intrinsic projective circles of the S^2 factor satisfy the ambient
    # projectively parametrised equation in the special Einstein product,
    # and fail it in the plain S^2 x S^2 product (which is only CC)
    geoF = geolib.sphere(2)
    st2 = ci.CurveState([0.1, -0.2], [0.8, 0.3], [0.2, 0.4])
    trj = ci.integrate_circle(geoF, st2, (0.0, 1.5), num=40)
    geoSE = geolib.special_einstein_s2h2(1.0)
    geoQ = geolib.s2s2()

    def full_residual(geo_amb, s):
        amb = _lift_state(s, np.array([0.3, -0.1]))
        pkF = curvature_pack(geoF, s.x)
        connF = tr.ConnData.from_pack(pkF)
        cov_int = ci.covariant_acceleration_rate(pkF, s.u, s.a)
        lhs = np.concatenate([cov_int, np.zeros(2)])
        rhs = ci.covariant_acceleration_rate(
            curvature_pack(geo_amb, amb.x, 2), amb.u, amb.a)
        return np.abs(lhs - rhs).max()

    worst_se, worst_q = 0.0, 0.0
    for k in range(0, 40, 6):
        s = trj.state(k)
        worst_se = max(worst_se, full_residual(geoSE, s))
        worst_q = max(worst_q, full_residual(geoQ, s))
    assert worst_se < 1e-4
    assert worst_q > 1e-2


def test_aa_drift_and_diagnostics_on_sphere():
    geo = geolib.sphere(3)
    st = ci.CurveState([0.1, 0.2, -0.1], [0.5, 0.2, 0.1], [0.1, -0.3, 0.2])
    traj = ci.integrate_circle(geo, st, (0.0, 2.0), num=60, rtol=1e-10,
                               atol=1e-12, chart_bound=100.0)
    assert np.abs(traj.AdotA).max() < 1e-9
    assert traj.unparam_residual.max() < 1e-8


# --------------------------------------------------------------------------
# DOP853 stepping against solve_ivp
# --------------------------------------------------------------------------

def _walk_cases():
    """(label, geo, state, span, monitor, chart_bound): every catalog
    geometry at its defaults and the 2-sphere, whose circle equation reads
    its Moebius structure, from a seeded state near 0, then both presets;
    each on a forward, a backward and a long span.  The catalog circles
    and the flat one run with and without a chart bound that a long span
    crosses; the great circle passes the projection point going forward,
    where the chart's metric is singular, so it runs with its own bound
    and a tighter one."""
    rng = np.random.default_rng(7)
    geos = [(name, e.make_geometry())
            for name, e in geolib.catalog().items()]
    geos.append(("sphere n=2", geolib.sphere(2)))
    for name, geo in geos:
        n = geo.n
        x = rng.uniform(-0.1, 0.1, n)
        u = rng.standard_normal(n)
        u *= 0.5 / np.linalg.norm(u)
        st = ci.CurveState(x, u, 0.3 * rng.standard_normal(n))
        for span in ((0.0, 0.5), (0.0, -0.5), (0.0, 1.5)):
            for bound in (None, float(np.abs(x).max()) + 0.3):
                yield f"{name} {span} {bound}", geo, st, span, None, bound
    for preset, bounds in (("flat-circle", (None, 1.5)),
                           ("sphere-great-circle", (100.0, 10.0))):
        geo, st, span, monitor, _, _ = cli._circle_preset(
            {"circle": {"preset": preset}})
        t1 = span[1]
        for span in ((0.0, t1), (0.0, -t1), (0.0, 2 * t1)):
            for bound in bounds:
                yield f"{preset} {span} {bound}", geo, st, span, monitor, bound


def test_dop853_is_bitwise_solve_ivp(monkeypatch):
    """Every field of the trajectory, or the failure, is the one the
    solve_ivp route gives; the walk rejects a step, exits the chart and
    integrates backward."""
    error_norm = ci._error_norm
    rejected = 0

    def counted(K, h, scale):
        nonlocal rejected
        e = error_norm(K, h, scale)
        rejected += not e < 1
        return e

    def run(geo, st, span, monitor, bound):
        try:
            return ci.integrate_circle(geo, st, span, num=10,
                                       monitor=monitor, chart_bound=bound)
        except ci.CircleIntegrationError as e:
            return str(e)

    exits = backward = 0
    for label, geo, st, span, monitor, bound in _walk_cases():
        monkeypatch.setattr(ci, "_error_norm", counted)
        ours = run(geo, st, span, monitor, bound)
        monkeypatch.setattr(ci, "_dop853", solve_ivp_dop853)
        ref = run(geo, st, span, monitor, bound)
        monkeypatch.undo()
        if isinstance(ref, str):
            assert ours == ref, label
            continue
        for field in ("ts", "xs", "us", "accs", "AdotA", "unparam_residual"):
            assert np.array_equal(getattr(ours, field), getattr(ref, field)), \
                (label, field)
        assert ours.monitored.keys() == ref.monitored.keys(), label
        for k in ref.monitored:
            assert np.array_equal(ours.monitored[k], ref.monitored[k]), \
                (label, k)
        assert ours.status == ref.status, label
        exits += ours.status == "chart_exit"
        backward += span[1] < span[0]
    assert rejected > 0 and exits > 0 and backward > 0


def test_nan_right_hand_side_fails_as_solve_ivp_does():
    """A right-hand side that turns NaN past t = 0.3 rejects every step
    across it until the step falls below ten spacings of floats: the
    status and message are solve_ivp's."""
    def fun(t, y):
        return np.full(2, np.nan) if t > 0.3 else np.array([y[1], -y[0]])

    args = (fun, (0.0, 1.0), np.array([1.0, 0.0]), np.linspace(0.0, 1.0, 11),
            1e-10, 1e-12)
    ours, ref = ci._dop853(*args), solve_ivp_dop853(*args)
    assert ours[2:] == ref[2:] == (
        -1, "Required step size is less than spacing between numbers.")


def test_nonfinite_initial_step_fails_instead_of_stepping_forever():
    """atol = 0 on a state with a zero component gives a zero error scale,
    so the initial step is NaN; solve_ivp does not end there.  The step
    loop is not entered: status -1 with a message, no RuntimeWarning, and
    the state of a finite step is never evaluated."""
    calls = []

    def fun(t, y):
        calls.append(t)
        return np.array([y[1], -y[0]])

    ours = ci._dop853(fun, (0.0, 1.0), np.array([1.0, 0.0]),
                      np.linspace(0.0, 1.0, 5), 1e-10, 0.0)
    assert ours[:3] == (None, None, -1)
    assert ours[3] == ci._NO_INITIAL_STEP
    assert calls == [0.0]
    # a zero atol with no zero component steps as solve_ivp does
    args = (fun, (0.0, 1.0), np.array([1.0, 0.5]), np.linspace(0.0, 1.0, 5),
            1e-10, 0.0)
    ours, ref = ci._dop853(*args), solve_ivp_dop853(*args)
    assert ours[2] == ref[2] == 0
    assert np.array_equal(ours[0], ref[0]) and np.array_equal(ours[1], ref[1])


def test_circle_right_hand_side_computes_no_r4_or_weyl(monkeypatch):
    """R_abcd and the Weyl tensor are computed when read, and neither the
    circle equation nor the output points of an integration read them."""
    packs = []
    pack = ci.curvature_pack

    def kept(*args, **kwargs):
        packs.append(pack(*args, **kwargs))
        return packs[-1]

    monkeypatch.setattr(ci, "curvature_pack", kept)
    geo = geolib.sphere(3)
    st = ci.CurveState([0.1, 0.2, -0.1], [0.5, 0.2, 0.1], [0.1, -0.3, 0.2])
    ci.conformal_circle_rhs(geo, np.concatenate([st.x, st.u, st.a]))
    ci.integrate_circle(geo, st, (0.0, 0.5), num=5, chart_bound=100.0)
    assert len(packs) > 1 + 5
    for pk in packs:
        assert pk.P is not None
        assert "R4" not in vars(pk) and "W4" not in vars(pk)
