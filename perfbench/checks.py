"""Reference values and output checks for the benchmark.

Everything here is computed from closed forms or from the geometry of the
inputs; nothing is a stored copy of program output.  The derivations are in
README.md next to this file.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

# Pass/fail tolerances: the verdict tolerances documented by the program
# (1e-6 analytic, 1e-3 finite differences).  Residuals of identities that
# vanish in exact arithmetic are gated at the FD tolerance.
ANALYTIC_TOL = 1e-6
FD_TOL = 1e-3
RESIDUAL_TOL = 1e-3
ERR_FLOOR = 1e-16

VERDICT_KEYS = ("umbilic", "distinguished", "conformally_circular",
                "strongly_conformally_circular")


def digits(err, ref=0.0):
    """-log10(|err| / max(1, |ref|)) with |err| floored at 1e-16."""
    err = abs(float(err))
    if not math.isfinite(err):
        return 0.0
    return -math.log10(max(err, ERR_FLOOR) / max(1.0, abs(float(ref))))


def verdicts(umbilic, distinguished, circular, strongly):
    return dict(zip(VERDICT_KEYS, (umbilic, distinguished, circular,
                                   strongly)))


# Circular, strongly circular: a totally geodesic factor whose Fialkow
# tensor is a nonzero multiple of the induced metric is conformally
# circular but not strongly so.
CIRCULAR = verdicts(True, True, True, False)
STRONG = verdicts(True, True, True, True)
DISTINGUISHED_ONLY = verdicts(True, True, False, False)
UMBILIC_ONLY = verdicts(True, False, False, False)


class Checks:
    """Outcome of checking one operation's output.

    ``accuracy`` and ``residual`` hold (digits, check name) pairs;
    ``failures`` names the checks whose pass/fail bound was missed.
    """

    def __init__(self):
        self.accuracy = []
        self.residual = []
        self.failures = []

    def close(self, name, value, ref, tol):
        """An output that must equal a closed-form reference."""
        value = _num(value)
        err = abs(value - ref)
        self.accuracy.append((digits(err, ref), name))
        if not err <= tol * max(1.0, abs(ref)):
            self.failures.append(f"{name}: {value!r} vs reference {ref!r}")

    def vanishes(self, name, value, tol=RESIDUAL_TOL, gate=True):
        """A residual of an identity that holds in exact arithmetic.

        ``gate=False`` records its digits without a pass/fail bound.
        """
        value = abs(_num(value))
        self.residual.append((digits(value), name))
        if gate and not value <= tol:
            self.failures.append(f"{name}: residual {value!r} > {tol}")

    def require(self, name, ok, detail=""):
        if not ok:
            self.failures.append(f"{name}: {detail}".rstrip(": "))


def _num(v):
    # the program writes non-finite floats as their repr string
    try:
        return float(v)
    except (TypeError, ValueError):
        return math.nan


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

# Fialkow coefficient F = c g_Sigma (trace / m) from the curvature of the
# ambient geometry; see README.md for each derivation.
FIALKOW_COEFFICIENT = {
    "cp2/cp1": -1.0,
    "cp2/rp2": 0.5,
    "s2s2/factor1": -1.0 / 3.0,
    "s2s2/diagonal": -1.0 / 12.0,
    "s2xs1xr/s2xs1": 0.0,
    "sphere/great": 0.0,
    "special_einstein_s2h2/s2_factor": 0.0,
    "doubly_warped_r4/first_factor": 0.0,
    "twisted_r4/first_factor": 0.0,
    "hyperbolic/slice": 0.0,
    "euclidean/sphere": 0.0,
    "euclidean/circle": 0.0,
    "euclidean/plane": 0.0,
    "euclidean/helix": 0.0,
}

# |F| for S^2 x S^1 in S^2 x S^1 x R: F = -(1/6) h + (1/3) dtheta^2.
S2XS1_FIALKOW_NORM = 1.0 / math.sqrt(6.0)


def helix_curvature_torsion(pitch, radius):
    """(kappa, tau) of t -> (r cos t, r sin t, c t) in flat R^3."""
    den = radius * radius + pitch * pitch
    return radius / den, pitch / den


def twisted_L_norm(q1, x3):
    """|L| on the first factor of dx1^2 + dx2^2 + e^{2 x1 x3}(dx3^2 + dx4^2).

    The factor is totally geodesic, so L reduces to the mixed Schouten
    tensor; P_13 = -1/2 is the only mixed component and the unit normal is
    e^{-x1 x3} d/dx3.
    """
    return 0.5 * math.exp(-q1 * x3)


def doubly_warped_H_norm(q1):
    """|H| on x3, x4 = const of e^{2 x3}(dx1^2 + dx2^2) + e^{2 x1}(dx3^2 + dx4^2)."""
    return math.exp(-q1)


def flat_circle(t, radius=1.0):
    """Projectively parametrised circle from x = 0, u = e1, a = e2 / radius."""
    th = 2.0 * np.arctan(np.asarray(t, dtype=float) / (2.0 * radius))
    return np.stack([radius * np.sin(th), radius * (1.0 - np.cos(th))],
                    axis=-1)


def concyclic_residuals(points):
    """(plane residual, circle residual, radius) of a point cloud.

    The plane is the least-squares 2-plane through the centroid (SVD); the
    circle is the algebraic least-squares fit in that plane's coordinates.
    Residuals are the largest distances off the plane and off the circle.
    """
    P = np.asarray(points, dtype=float)
    c = P.mean(axis=0)
    _, _, vt = np.linalg.svd(P - c)
    plane = (P - c) @ vt[:2].T
    off = (P - c) @ vt[2:].T
    plane_res = float(np.abs(off).max()) if off.size else 0.0
    A = np.column_stack([2.0 * plane, np.ones(len(plane))])
    rhs = np.sum(plane ** 2, axis=1)
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    center = sol[:2]
    radius = math.sqrt(float(sol[2] + center @ center))
    circ_res = float(np.abs(np.linalg.norm(plane - center, axis=1)
                            - radius).max())
    return plane_res, circ_res, radius


def read_csv(text):
    """Header and float rows of a CSV trajectory."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    data = np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)
    return header, data


def columns(header, data, prefix, n):
    return data[:, [header.index(f"{prefix}{i + 1}") for i in range(n)]]
