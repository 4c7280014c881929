"""The three workloads: seeded operation generators and their checks.

A round is a fixed list of operations, one per case of the workload's mix,
each with fresh inputs drawn from ``numpy.random.default_rng((seed,
workload, round))``.  The program only ever sees the generated CLI
arguments.

Each mix puts its middle inside a cluster of cases of similar cost, with as
many operations below the cluster as above it.  So op_s.p50 falls inside a
cluster of operation times, not at the edge of one or in the gap between
two, where it would swing with the extremes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (ANALYTIC_TOL, CIRCULAR, DISTINGUISHED_ONLY,
                    FIALKOW_COEFFICIENT, FD_TOL, S2XS1_FIALKOW_NORM, STRONG,
                    UMBILIC_ONLY, Checks, columns, concyclic_residuals,
                    doubly_warped_H_norm, flat_circle,
                    helix_curvature_torsion, read_csv, twisted_L_norm)

WORKLOADS = ("classify", "classify-fd", "circles-integrals")
WARMUP_ROUND = -1


@dataclass
class Op:
    kind: str
    case: str
    argv: list
    check: Callable            # check(doc, csv_text) -> Checks
    csv_path: str | None = None


def rng_for(seed, workload, rnd):
    # the warm-up round draws from its own stream
    tag = (1, 0) if rnd == WARMUP_ROUND else (0, rnd)
    return np.random.default_rng((seed, WORKLOADS.index(workload)) + tag)


def build_round(workload, seed, rnd, outdir):
    rng = rng_for(seed, workload, rnd)
    build = {"classify": _classify_round, "classify-fd": _classify_fd_round,
             "circles-integrals": _circles_round}[workload]
    return build(rng, Path(outdir), rnd)


def warmup_ops(workload, seed, outdir):
    """One operation per command and backend the workload uses, from a
    stream no timed round draws from."""
    ops = build_round(workload, seed, WARMUP_ROUND, outdir)
    seen, out = set(), []
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            out.append(op)
    return out


def _set(key, value):
    return ["-s", f"{key}={json.dumps(value)}"]


def _box(rng, m, half=0.3):
    return [float(v) for v in rng.uniform(-half, half, m)]


def _spec(name, params):
    return {"name": name, "params": params} if params else {"name": name}


# --------------------------------------------------------------------------
# report and invariance
# --------------------------------------------------------------------------

def report_op(geometry, gparams, embedding, eparams, q, expect, fd=False,
              extra=None):
    """``report`` at one sample point, checked against closed forms.

    ``expect`` is the verdict dict, or None where the case has no
    closed-form verdicts; ``extra(row, checks, tol)`` adds the case's own
    closed-form checks.
    """
    case = f"{geometry}/{embedding}"
    argv = (["report"] + _set("geometry", _spec(geometry, gparams))
            + _set("embedding", _spec(embedding, eparams))
            + _set("samples", {"points": [q]}))
    if fd:
        argv += _set("backend", {"mode": "fd"})
    tol = FD_TOL if fd else ANALYTIC_TOL
    m = len(q)

    def check(doc, _csv):
        c = Checks()
        c.require("samples", len(doc["per_sample"]) == 1)
        row = doc["per_sample"][0]
        if expect is not None:
            c.require("verdicts", doc["verdicts"] == expect,
                      f"{doc['verdicts']} != {expect}")
            coeff = FIALKOW_COEFFICIENT[case]
            c.close("fialkow_coefficient", row["fialkow_coefficient"], coeff,
                    tol)
            c.close("headline fialkow_coefficient",
                    doc["fialkow_coefficient"], coeff, tol)
            if expect["umbilic"]:
                c.close("IIo_norm", row["IIo_norm"], 0.0, tol)
            if expect["distinguished"]:
                c.close("L_norm", row["L_norm"], 0.0, tol)
        for k, v in enumerate(row["gcr"]):
            c.vanishes(f"gcr[{k}]", v)
        c.vanishes("L_dual_route_residual", row["L_dual_route_residual"])
        if m >= 2:
            c.vanishes("mu_weyl_residual", row["mu_weyl_residual"])
        if m >= 3:
            c.vanishes("fialkow_weyl_residual", row["fialkow_weyl_residual"])
            # FD-limited today (third derivative of the pulled-back metric);
            # it sets residual_digits but has no pass/fail bound
            for k, v in enumerate(row["tractor_gcr"]):
                c.vanishes(f"tractor_gcr[{k}]", v, gate=False)
        if extra is not None:
            extra(row, c, tol)
        return c
    return Op("report" + ("-fd" if fd else ""), f"{case} m={m}", argv, check)


def invariance_op(geometry, embedding, q, cfg_seed, expect):
    case = f"{geometry}/{embedding}"
    argv = (["invariance"] + _set("geometry", {"name": geometry})
            + _set("embedding", {"name": embedding})
            + _set("samples", {"points": [q]}) + _set("seed", cfg_seed))
    keys = ("schouten_trans", "II_transformation", "H_transformation",
            "IIo_invariance", "tractor_triple_trans")

    def check(doc, _csv):
        c = Checks()
        c.require("verdicts", doc["verdicts"] == expect,
                  f"{doc['verdicts']} != {expect}")
        c.require("rescalings", len(doc["residuals"]) == 3)
        c.require("verdicts_stable", doc["verdicts_stable"] is True)
        for row in doc["residuals"]:
            c.require(f"verdicts_match[{row['rescaling']}]",
                      row["verdicts_match"] is True)
            for k in keys:
                c.vanishes(k, row[k])
        return c
    return Op("invariance", case, argv, check)


def _h_norm(ref):
    def extra(row, c, tol):
        c.close("H_norm", row["H_norm"], ref, tol)
    return extra


def _classify_round(rng, outdir, rnd):
    ops = [
        report_op("cp2", None, "cp1", None, _box(rng, 2), CIRCULAR,
                  extra=_h_norm(0.0)),
        report_op("cp2", None, "rp2", None, _box(rng, 2), CIRCULAR,
                  extra=_h_norm(0.0)),
        report_op("s2s2", None, "factor1",
                  {"v1": _box(rng, 1)[0], "v2": _box(rng, 1)[0]},
                  _box(rng, 2), CIRCULAR, extra=_h_norm(0.0)),
        report_op("s2s2", None, "diagonal", None, _box(rng, 2), CIRCULAR,
                  extra=_h_norm(0.0)),
    ]

    def s2xs1(row, c, tol):
        c.close("H_norm", row["H_norm"], 0.0, tol)
        c.close("fialkow_norm", row["fialkow_norm"], S2XS1_FIALKOW_NORM, tol)
    ops.append(report_op("s2xs1xr", None, "s2xs1",
                         {"t": float(rng.uniform(-1.0, 1.0))},
                         _box(rng, 3), DISTINGUISHED_ONLY, extra=s2xs1))

    def graph(row, c, tol):
        # a random graph has no closed-form verdicts; in flat space W = 0,
        # so the m = 2 Fialkow tensor is |IIo|^2 g / 4
        c.close("fialkow_coefficient = |IIo|^2/4", row["fialkow_coefficient"],
                row["IIo_norm"] ** 2 / 4.0, tol)
    ops.append(report_op("euclidean", {"n": 4}, "graph",
                         {"n": 4, "m": 2,
                          "seed": int(rng.integers(0, 2 ** 31))},
                         _box(rng, 2), None, extra=graph))
    ops.append(report_op("sphere", None, "great", None, _box(rng, 2),
                         STRONG, extra=_h_norm(0.0)))
    ops.append(report_op("special_einstein_s2h2", None, "s2_factor",
                         {"v1": _box(rng, 1)[0], "v2": _box(rng, 1)[0]},
                         _box(rng, 2), STRONG, extra=_h_norm(0.0)))

    x3, x4 = _box(rng, 2, 0.5)
    q = _box(rng, 2)
    ops.append(report_op("doubly_warped_r4", None, "first_factor",
                         {"x3": x3, "x4": x4}, q, STRONG,
                         extra=_h_norm(doubly_warped_H_norm(q[0]))))
    x3, x4 = _box(rng, 2, 0.5)
    q = _box(rng, 2)

    def twisted(row, c, tol):
        c.close("H_norm", row["H_norm"], 0.0, tol)
        c.close("L_norm", row["L_norm"], twisted_L_norm(q[0], x3), tol)
    ops.append(report_op("twisted_r4", None, "first_factor",
                         {"x3": x3, "x4": x4}, q, UMBILIC_ONLY,
                         extra=twisted))

    pitch = float(rng.uniform(0.2, 1.0))
    radius = float(rng.uniform(0.5, 2.0))
    kappa, tau = helix_curvature_torsion(pitch, radius)

    def helix(row, c, tol):
        c.close("H_norm", row["H_norm"], kappa, tol)
        c.close("L_norm", row["L_norm"], kappa * tau, tol)
    ops.append(report_op("euclidean", {"n": 3}, "helix",
                         {"pitch": pitch, "radius": radius},
                         _box(rng, 1, 1.0), UMBILIC_ONLY, extra=helix))
    cradius = float(rng.uniform(0.5, 2.0))
    ops.append(report_op("euclidean", {"n": 3}, "circle",
                         {"n": 3, "radius": cradius}, _box(rng, 1, 1.0),
                         STRONG, extra=_h_norm(1.0 / cradius)))
    # more curves: cheap operations that put the middle of the mix inside
    # the cluster of m = 2 surface reports
    cradius = float(rng.uniform(0.5, 2.0))
    ops.append(report_op("euclidean", {"n": 4}, "circle",
                         {"n": 4, "radius": cradius}, _box(rng, 1, 1.0),
                         STRONG, extra=_h_norm(1.0 / cradius)))
    ops.append(report_op("euclidean", {"n": 3}, "plane", {"n": 3, "m": 1},
                         _box(rng, 1, 1.0), STRONG, extra=_h_norm(0.0)))
    ops.append(report_op("sphere", {"n": 3}, "great", {"n": 3, "m": 1},
                         _box(rng, 1), STRONG, extra=_h_norm(0.0)))
    ops.append(report_op("hyperbolic", {"n": 3}, "slice", {"n": 3, "m": 1},
                         _box(rng, 1), STRONG, extra=_h_norm(0.0)))

    ops.append(invariance_op("s2s2", "factor1", _box(rng, 2),
                             int(rng.integers(0, 2 ** 20)), CIRCULAR))
    ops.append(invariance_op("cp2", "rp2", _box(rng, 2),
                             int(rng.integers(0, 2 ** 20)), CIRCULAR))
    ops.append(invariance_op("sphere", "great", _box(rng, 2),
                             int(rng.integers(0, 2 ** 20)), STRONG))
    return ops


# --------------------------------------------------------------------------
# FD backend
# --------------------------------------------------------------------------

def _classify_fd_round(rng, outdir, rnd):
    # one cheaper and one dearer case around the two m = 1 geodesics, so
    # op_s.p50 is the centre of their cluster
    radius = float(rng.uniform(0.7, 1.4))
    return [
        report_op("euclidean", {"n": 3}, "sphere",
                  {"n": 3, "radius": radius}, _box(rng, 2), STRONG, fd=True,
                  extra=_h_norm(1.0 / radius)),
        report_op("sphere", {"n": 3}, "great", {"n": 3, "m": 1},
                  _box(rng, 1), STRONG, fd=True, extra=_h_norm(0.0)),
        report_op("hyperbolic", {"n": 3}, "slice", {"n": 3, "m": 1},
                  _box(rng, 1), STRONG, fd=True, extra=_h_norm(0.0)),
        report_op("sphere", {"n": 3}, "great", {"n": 3, "m": 2},
                  _box(rng, 2), STRONG, fd=True, extra=_h_norm(0.0)),
    ]


# --------------------------------------------------------------------------
# circles and first integrals
# --------------------------------------------------------------------------

def circle_op(geometry, gparams, x, u, a, t_end, num, outdir, tag, check_fn):
    case = f"{geometry}/circle n={len(x)}"
    csv_path = str(outdir / f"circle-{tag}.csv")
    argv = (["circle"] + _set("geometry", _spec(geometry, gparams))
            + _set("circle", {"initial": {"x": x, "u": u, "a": a},
                              "t_span": [0.0, t_end], "num": num})
            + _set("output", {"csv_path": csv_path}))
    n = len(x)

    def check(doc, csv_text):
        c = Checks()
        header, data = _trajectory_checks(doc, csv_text, num, c)
        check_fn(header, data, n, c)
        return c
    return Op("circle", case, argv, check, csv_path)


def _trajectory_checks(doc, csv_text, num, c):
    c.require("status", doc["status"] == "ok", doc["status"])
    header, data = read_csv(csv_text)
    c.require("rows", len(data) == num, f"{len(data)} rows")
    ada = data[:, header.index("AdotA")]
    c.vanishes("AdotA drift", np.abs(ada - ada[0]).max())
    c.vanishes("unparametrised residual",
               np.abs(data[:, header.index("unparam_residual")]).max())
    return header, data


def _stays_in(set_axes):
    """Off-set coordinates of x, u, a stay 0 (fixed set of an isometry)."""
    def check_fn(header, data, n, c):
        off = [i for i in range(n) if i not in set_axes]
        for p in ("x", "u", "a"):
            cols = columns(header, data, p, n)[:, off]
            c.close(f"off-set {p}", np.abs(cols).max(), 0.0, ANALYTIC_TOL)
    return check_fn


def _concyclic(header, data, n, c):
    plane, circ, radius = concyclic_residuals(columns(header, data, "x", n))
    scale = max(1.0, radius)
    c.close("coplanar", plane / scale, 0.0, ANALYTIC_TOL)
    c.close("concyclic", circ / scale, 0.0, ANALYTIC_TOL)


def _unit(rng, k):
    v = rng.standard_normal(k)
    return v / np.linalg.norm(v)


# Chart speed 0.5, |a| = 0.5 and t in [0, 0.5] with random directions: the
# circle stays within about 0.3 of its start, well inside every chart (the
# Poincare disc of H^2 included), and the ODE's step count, so an
# operation's cost, varies little between draws.

def _in_set_data(rng, n, axes):
    """x, u, a supported on the coordinate axes of a fixed-point set."""
    x, u, a = np.zeros(n), np.zeros(n), np.zeros(n)
    x[list(axes)] = rng.uniform(-0.3, 0.3, len(axes))
    u[list(axes)] = 0.5 * _unit(rng, len(axes))
    a[list(axes)] = 0.5 * _unit(rng, len(axes))
    return [list(map(float, v)) for v in (x, u, a)]


def _generic_data(rng, n, half=0.2):
    """x, u, a with the acceleration at 60 degrees to the velocity, so the
    chart circle has curvature bounded below and the fit is well
    conditioned."""
    x = rng.uniform(-half, half, n)
    e = _unit(rng, n)
    w = rng.standard_normal(n)
    w -= (w @ e) * e
    u = 0.5 * e
    a = 0.5 * (math.sin(math.pi / 3) * w / np.linalg.norm(w)
               + math.cos(math.pi / 3) * e)
    return [list(map(float, v)) for v in (x, u, a)]


def flat_circle_op(t_end, num, outdir, tag):
    csv_path = str(outdir / f"circle-{tag}.csv")
    argv = (["circle"]
            + _set("circle", {"preset": "flat-circle",
                              "t_span": [0.0, t_end], "num": num})
            + _set("output", {"csv_path": csv_path}))

    def check(doc, csv_text):
        c = Checks()
        header, data = _trajectory_checks(doc, csv_text, num, c)
        x = columns(header, data, "x", 3)
        ref = flat_circle(data[:, header.index("t")])
        c.close("trajectory", np.abs(x[:, :2] - ref).max(), 0.0,
                ANALYTIC_TOL)
        c.close("x3", np.abs(x[:, 2]).max(), 0.0, ANALYTIC_TOL)
        for m in ("rotation01", "rotation02", "rotation12"):
            col = data[:, header.index(m)]
            c.vanishes(f"{m} drift", col.max() - col.min())
        return c
    return Op("flat-circle", "euclidean/flat-circle", argv, check, csv_path)


def scan_op(n, i, j, region):
    argv = (["scan"] + _set("geometry", {"name": "euclidean",
                                         "params": {"n": n}})
            + _set("scan", {"ky": {"name": "rotation",
                                   "params": {"n": n, "i": i, "j": j}},
                            "region": region, "grid": 21}))

    def check(doc, _csv):
        c = Checks()
        c.require("status", doc["status"] == "locus", doc["status"])
        c.require("codimension", doc["codimension"] == 2,
                  str(doc["codimension"]))
        c.require("points", len(doc["points"]) > 0)
        c.require("L on locus", len(doc["L_residuals"]) > 0)
        for p in doc["points"]:
            c.close(f"x{i + 1} on locus", p[i], 0.0, ANALYTIC_TOL)
            c.close(f"x{j + 1} on locus", p[j], 0.0, ANALYTIC_TOL)
        for r in doc["L_residuals"]:
            c.vanishes("L on locus", r)
        return c
    return Op("scan", f"euclidean/rotation n={n}", argv, check)


def _region(rng, n):
    # Width 2 on every axis (grid spacing 0.1), and centres half a spacing
    # off the grid's lattice plus a small jitter: the grid points near the
    # locus, and so the scan's cost, stay the same from draw to draw while
    # every region is new.
    k = rng.integers(-2, 3, n)
    c = 0.1 * k + 0.05 + rng.uniform(-1e-3, 1e-3, n)
    return [[float(ci) - 1.0, float(ci) + 1.0] for ci in c]


def _pair(rng, n):
    i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
    return i, j


def _circles_round(rng, outdir, rnd):
    tag = f"r{rnd}"
    ops = []
    for geometry, axes in (("s2s2", (0, 1)), ("cp2", (0, 2)),
                           ("s2xs1xr", (0, 2)),
                           ("special_einstein_s2h2", (0, 2))):
        x, u, a = _in_set_data(rng, 4, axes)
        ops.append(circle_op(geometry, None, x, u, a, 0.5, 30, outdir,
                             f"{tag}-{len(ops)}", _stays_in(axes)))
    for geometry, n in (("sphere", 3), ("hyperbolic", 3), ("euclidean", 3),
                        ("euclidean", 4)):
        x, u, a = _generic_data(rng, n)
        ops.append(circle_op(geometry, {"n": n}, x, u, a, 0.5, 30, outdir,
                             f"{tag}-{len(ops)}", _concyclic))
    ops.append(flat_circle_op(float(rng.uniform(4.0, 8.0)), 20, outdir,
                              f"{tag}-{len(ops)}"))
    for n in (3, 4):
        ops.append(scan_op(n, *_pair(rng, n), _region(rng, n)))
    return ops
