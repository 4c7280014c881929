"""Conformal-circle ODE integration and the associated curve tractors.

The third-order projectively-parametrised equation is integrated as a
first-order system in (x, u, a) of dimension 3n; the parametrisation drift is
measured through A.A, never corrected.  The point functions (the covariant
acceleration rate, A.A, the unparametrised residual and the curve
tractors) take the curvature pack at the state's point, and all but the
rate take the rate as well: ``integrate_circle`` computes both once per
output point and hands them to its monitor.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .riemann import GeometrySpec, curvature_pack
from .tensors import NumericalError, alt_array, stage
from . import tractor as tr

__all__ = ["CurveState", "CircleTrajectory", "conformal_circle_rhs",
           "covariant_acceleration_rate", "integrate_circle",
           "curve_tractors", "unparametrised_residual",
           "flat_circle_solution"]


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


def _inner_products(pk, u, a):
    """(u.u, u.a, a.a, P(u, u)) in the metric of ``pk``; the circle
    equation needs a Schouten tensor and a nonzero velocity."""
    if pk.P is None:
        raise tr.MobiusStructureError(
            "the circle equation needs a Schouten tensor")
    g = pk.g
    s = float(u @ g @ u)
    if s <= 0:
        raise ZeroVelocityError("curve state has zero velocity")
    return s, float(u @ g @ a), float(a @ g @ a), float(u @ pk.P @ u)


def _products(pk, state, cov_da):
    """(u.u, u.a, a.a, u.cov_da, P(u, u)) at ``state``, cov_da the
    covariant acceleration rate u^c nabla_c a^b there."""
    s, ua, aa, Puu = _inner_products(pk, state.u, state.a)
    return s, ua, aa, float(state.u @ pk.g @ cov_da), Puu


def covariant_acceleration_rate(pack, u, a):
    """u^c nabla_c a^b from the projectively parametrised circle equation,
    at velocity u and acceleration a at the point of ``pack``."""
    s, ua, aa, Puu = _inner_products(pack, u, a)
    Pu_up = pack.gi @ (pack.P @ u)
    return (s * Pu_up + 3.0 * ua / s * a - 1.5 * aa / s * u - 2.0 * Puu * u)


def _bold_rate(pack, state, cov_da):
    """(bold u . nabla bold a - bold u^d P_d^b, bold u, |u|), the vector
    of the unparametrised circle equation."""
    u, a = state.u, state.a
    s, ua, aa, u_covda, _ = _products(pack, state, cov_da)
    nab_ba = (cov_da / s - 3.0 * ua / s ** 2 * a
              - (-4.0 * ua ** 2 / s ** 3 + (aa + u_covda) / s ** 2) * u)
    un = math.sqrt(s)
    bu = u / un
    return nab_ba / un - pack.gi @ (pack.P @ bu), bu, un


def conformal_circle_rhs(geo: GeometrySpec, y):
    """Coordinate time derivative (dx, du, da) of the (x, u, a) system at
    the array (x, u, a) of length 3n that ``integrate_circle`` steps."""
    n = geo.n
    x, u, a = y[:n], y[n:2 * n], y[2 * n:]
    pk = curvature_pack(geo, x, order=2)
    Gam = pk.Gamma
    dx = u
    du = a - np.einsum("bcd,c,d->b", Gam, u, u)
    cov = covariant_acceleration_rate(pk, u, a)
    da = cov - np.einsum("bcd,c,d->b", Gam, u, a)
    return dx, du, da


def A_dot_A(pack, state: CurveState, cov_da):
    """A.A of the acceleration tractor at ``state``, the point of
    ``pack``, with covariant acceleration rate cov_da."""
    s, ua, aa, u_covda, Puu = _products(pack, state, cov_da)
    return (3.0 * aa / s + 2.0 * u_covda / s
            - 6.0 * ua ** 2 / s ** 2 + 2.0 * Puu)


def unparametrised_residual(pack, state: CurveState, cov_da):
    """Norm of (bold u . nabla bold a)^[b bold u^c] - bold u^d P_d^[b bold u^c]."""
    core, bu, _ = _bold_rate(pack, state, cov_da)
    diff = np.multiply.outer(core, bu)
    anti = 0.5 * (diff - diff.T)
    return math.sqrt(max(0.0, float(np.einsum(
        "bc,de,bd,ce->", pack.g, pack.g, anti, anti))))


def integrate_circle(geo: GeometrySpec, initial: CurveState, t_span,
                     rtol=1e-10, atol=1e-12, num=200, monitor=None,
                     chart_bound=None, chart_radius=None) -> CircleTrajectory:
    """Integrate the projectively parametrised circle equation with DOP853
    (``_dop853``), output at ``num`` equally spaced times of ``t_span``,
    whose endpoints differ.  With ``chart_bound`` the integration stops,
    status "chart_exit", where a coordinate of x first reaches it, or,
    with ``chart_radius`` instead, where |x| first reaches it.

    At each output point the order-2 curvature pack and the covariant
    acceleration rate built there give A.A and the unparametrised
    residual, and ``monitor(geo, state, pack, cov_da)``, if given,
    returns {name: value}: ``monitored`` holds each name's values."""
    if t_span[0] == t_span[1]:
        raise ValueError(f"t_span {list(t_span)} has equal endpoints")
    n = geo.n

    def rhs(t, y):
        with stage("circle integration", t=t):
            dx, du, da = conformal_circle_rhs(geo, y)
        return np.concatenate([dx, du, da])

    exit_event = None
    if chart_bound is not None:
        def exit_event(t, y):
            return chart_bound - float(np.max(np.abs(y[:n])))
    elif chart_radius is not None:
        def exit_event(t, y):
            return chart_radius - float(np.linalg.norm(y[:n]))

    y0 = np.concatenate([initial.x, initial.u, initial.a])
    ts = np.linspace(t_span[0], t_span[1], num)
    with stage("circle integration", t=list(t_span)):
        ts, ys, status, message = _dop853(rhs, t_span, y0, ts, rtol, atol,
                                          exit_event)
        if status < 0:
            raise CircleIntegrationError(
                f"circle integration failed: {message}")
    status = "ok" if status == 0 else "chart_exit"
    xs = ys[:n].T
    us = ys[n:2 * n].T
    accs = ys[2 * n:].T
    ada = np.empty(len(ts))
    res = np.empty(len(ts))
    mon = {}
    for k in range(len(ts)):
        with stage("circle output point", t=ts[k]):
            st = CurveState(xs[k], us[k], accs[k], t=float(ts[k]))
            pk = curvature_pack(geo, st.x, order=2)
            cov = covariant_acceleration_rate(pk, st.u, st.a)
            ada[k] = A_dot_A(pk, st, cov)
            res[k] = unparametrised_residual(pk, st, cov)
            if monitor is not None:
                for name, v in monitor(geo, st, pk, cov).items():
                    mon.setdefault(name, np.empty(len(ts)))[k] = v
    return CircleTrajectory(ts=ts, xs=xs, us=us, accs=accs, AdotA=ada,
                            unparam_residual=res, monitored=mon,
                            status=status)


# --------------------------------------------------------------------------
# curve tractors
# --------------------------------------------------------------------------

def curve_tractors(pack, state: CurveState, cov_da):
    """(U^B, A^B, Phi^{ABC}) at ``state``, the point of ``pack``, with
    covariant acceleration rate cov_da."""
    n = pack.n
    u, a = state.u, state.a
    s, ua, aa, u_covda, Puu = _products(pack, state, cov_da)
    un = math.sqrt(s)
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


# --------------------------------------------------------------------------
# DOP853 stepping
# --------------------------------------------------------------------------
# Hairer, Norsett & Wanner's DOP853 (Solving Ordinary Differential
# Equations I, sec. II.5-II.6), adapted from scipy.integrate._ivp
# (dop853_coefficients.py, rk.py, common.py and ivp.py) statement by
# statement, so that a trajectory is bitwise the one
# solve_ivp(method="DOP853") gives.  Those files carry this notice:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

_EPS = np.finfo(float).eps
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 8
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_NO_INITIAL_STEP = ("Initial step size is not finite: a zero error scale "
                    "(atol = 0 at a zero state component) or a non-finite "
                    "derivative.")

# the 12 stages of a step, the step's own 13th stage f(t + h, y_new) and
# the 3 extra stages of the dense output; row s of _A_ROWS is row s + 1
# of the lower-triangular Butcher matrix
_C = np.array([0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25,
    0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778])
_A_ROWS = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0,
     0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
_E5 = np.array([0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0])
_D = np.array([
    [-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3],
])
_A = np.zeros((16, 16))
for _s, _row in enumerate(_A_ROWS, start=1):
    _A[_s, :_s] = _row
_B = _A[12, :12]
_E3 = np.zeros(13)
_E3[:-1] = _B.copy()
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """select_initial_step (II.4) of an order-7 error estimator."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    # a zero scale (atol = 0 on a zero component) gives NaN, returned
    # before f is evaluated there
    with np.errstate(divide="ignore", invalid="ignore"):
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    if not np.isfinite(h0):
        return h0
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """The 12 stages into K[:12] and f(t + h, y_new) into K[12]; returns
    (y_new, f_new)."""
    K[0] = f
    for s in range(1, 12):
        dy = np.dot(K[:s].T, _A[s, :s]) * h
        K[s] = fun(t + _C[s] * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, _B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _error_norm(K, h, scale):
    """DOP853's RMS error norm from the 5th- and 3rd-order estimates; NaN
    stages give NaN, which rejects the step."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dense_output(fun, t_old, y_old, t, y, f, K_ext):
    """The 7th-order interpolant of the step from (t_old, y_old) to (t, y),
    f = fun(t, y), after the 3 extra stages into K_ext[13:]: a function
    of a 1-d array of times that returns y at them as columns."""
    h = t - t_old
    for s in range(13, 16):
        dy = np.dot(K_ext[:s].T, _A[s, :s]) * h
        K_ext[s] = fun(t_old + _C[s] * h, y_old + dy)
    F = np.empty((7, len(y)))
    f_old = K_ext[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(_D, K_ext)

    def interpolant(ts):
        x = ((ts - t_old) / h)[:, None]
        out = np.zeros((len(x), len(y_old)))
        for i, Fi in enumerate(reversed(F)):
            out += Fi
            if i % 2 == 0:
                out *= x
            else:
                out *= 1 - x
        out += y_old
        return out.T
    return interpolant


def _event_root(event, interpolant, t_old, t):
    """A zero of ``event`` along the interpolant between t_old and t,
    where its sign changes, bisected to 4 eps (1 + |t|)."""
    def g(s):
        return event(s, interpolant(np.array([s]))[:, 0])
    a, b = t_old, t
    ga = g(a)
    while abs(b - a) > 4 * _EPS * (1 + abs(b)):
        m = 0.5 * (a + b)
        gm = g(m)
        if ga * gm > 0:
            a, ga = m, gm
        else:
            b = m
    return b


def _dop853(fun, t_span, y0, t_eval, rtol, atol, event=None):
    """``solve_ivp(fun, t_span, y0, method="DOP853", t_eval=t_eval,
    rtol=rtol, atol=atol, events=event)`` with ``event`` terminal.

    Returns (t, y, status, message): y holds the states at the times t
    as columns; status is 0 at the end of the span, 1 at the event and -1
    when a step fell below ten spacings of floats at its start or the
    initial step is not finite (where solve_ivp does not end), which
    ``message`` says.  The event's zero only decides which output times
    come before it."""
    t0, tf = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must "
                         "be finite.")
    if rtol < 100 * _EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.",
                      stacklevel=3)
        rtol = np.maximum(rtol, 100 * _EPS)
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    direction = np.sign(tf - t0)
    # t_eval increasing, sliced at each step's end by searchsorted
    t_eval = np.asarray(t_eval)
    if direction < 0:
        t_eval = t_eval[::-1]
    i_eval = 0 if direction > 0 else len(t_eval)
    K_ext = np.empty((16, y.size))
    K = K_ext[:13]
    t = t0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, tf, f, direction, rtol, atol)
    if not np.isfinite(h_abs):
        return None, None, -1, _NO_INITIAL_STEP
    g = None if event is None else event(t0, y0)
    ts, ys = [], []
    status = None
    while status is None:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return None, None, -1, _TOO_SMALL_STEP
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(fun, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if direction * (t - tf) >= 0:
            status = 0
        sol = None
        if event is not None:
            g_new = event(t, y)
            if g <= 0 <= g_new or g_new <= 0 <= g:
                sol = _dense_output(fun, t_old, y_old, t, y, f, K_ext)
                t = _event_root(event, sol, t_old, t)
                status = 1
            g = g_new
        # the output times up to t, the step's end or the event's zero
        if direction > 0:
            i_new = np.searchsorted(t_eval, t, side="right")
            t_step = t_eval[i_eval:i_new]
        else:
            i_new = np.searchsorted(t_eval, t, side="left")
            t_step = t_eval[i_new:i_eval][::-1]
        if t_step.size > 0:
            if sol is None:
                sol = _dense_output(fun, t_old, y_old, t, y, f, K_ext)
            ts.append(t_step)
            ys.append(sol(t_step))
            i_eval = i_new
    return np.hstack(ts), np.hstack(ys), status, None
