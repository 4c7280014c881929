"""Every reference check passes on output built from its closed form and
rejects a perturbed value."""
import copy
import math

import numpy as np
import pytest

import checks
import workloads
from checks import digits

RNG_SEED = 5


def _round(workload):
    return workloads.build_round(workload, RNG_SEED, 0, "/nonexistent")


def _op(workload, kind, case_prefix):
    for op in _round(workload):
        if op.kind == kind and op.case.startswith(case_prefix):
            return op
    raise LookupError(case_prefix)


def _passes(op, doc, csv_text=None):
    return not op.check(doc, csv_text).failures


def _report_doc(verdicts, m, coeff=0.0, **row):
    base = {"fialkow_coefficient": coeff, "IIo_norm": 0.0, "L_norm": 0.0,
            "H_norm": 0.0, "gcr": [0.0, 0.0, 0.0],
            "L_dual_route_residual": 0.0, "mu_weyl_residual": 0.0}
    if m >= 3:
        base.update(fialkow_weyl_residual=0.0, tractor_gcr=[0.0, 0.0, 0.0])
    base.update(row)
    return {"verdicts": dict(verdicts), "per_sample": [base],
            "fialkow_coefficient": coeff}


def _perturbed(doc, path, value):
    out = copy.deepcopy(doc)
    d = out
    for k in path[:-1]:
        d = d[k]
    d[path[-1]] = value
    return out


def test_digits():
    assert digits(0.0) == 16.0
    assert digits(1e-3) == pytest.approx(3.0)
    assert digits(1e-3, ref=10.0) == pytest.approx(4.0)
    assert digits(float("nan")) == 0.0


REPORT_CASES = [
    ("cp2/cp1", checks.CIRCULAR, 2, -1.0, {}),
    ("cp2/rp2", checks.CIRCULAR, 2, 0.5, {}),
    ("s2s2/factor1", checks.CIRCULAR, 2, -1.0 / 3.0, {}),
    ("s2s2/diagonal", checks.CIRCULAR, 2, -1.0 / 12.0, {}),
    ("s2xs1xr/s2xs1", checks.DISTINGUISHED_ONLY, 3, 0.0,
     {"fialkow_norm": 1.0 / math.sqrt(6.0)}),
    ("sphere/great", checks.STRONG, 2, 0.0, {}),
    ("special_einstein_s2h2/s2_factor", checks.STRONG, 2, 0.0, {}),
]


@pytest.mark.parametrize("case,verdicts,m,coeff,extra", REPORT_CASES)
def test_report_checks_reject_perturbations(case, verdicts, m, coeff, extra):
    op = _op("classify", "report", case)
    doc = _report_doc(verdicts, m, coeff, **extra)
    assert _passes(op, doc)
    row = ("per_sample", 0)
    bad = [(("fialkow_coefficient",), coeff + 1e-4),
           (row + ("fialkow_coefficient",), coeff - 1e-4),
           (row + ("L_norm",), 1e-4), (row + ("IIo_norm",), 1e-4),
           (row + ("H_norm",), 1e-4), (row + ("gcr", 1), 2e-3),
           (row + ("L_dual_route_residual",), 2e-3),
           (row + ("mu_weyl_residual",), 2e-3),
           (("verdicts", "strongly_conformally_circular"),
            not verdicts["strongly_conformally_circular"])]
    if m >= 3:
        bad += [(row + ("fialkow_weyl_residual",), 2e-3),
                (row + ("fialkow_norm",), extra["fialkow_norm"] + 1e-4)]
    for path, value in bad:
        assert not _passes(op, _perturbed(doc, path, value)), path


def test_tractor_gcr_sets_digits_without_a_bound():
    op = _op("classify", "report", "s2xs1xr/s2xs1")
    doc = _report_doc(checks.DISTINGUISHED_ONLY, 3,
                      fialkow_norm=1.0 / math.sqrt(6.0),
                      tractor_gcr=[1.5e-3, 0.0, 0.0])
    c = op.check(doc, None)
    assert not c.failures
    assert min(d for d, _ in c.residual) == pytest.approx(digits(1.5e-3))


def test_closed_form_cases_reject_perturbations():
    for op in _round("classify"):
        if op.case.startswith("twisted_r4"):
            twisted = op
        if op.case.startswith("doubly_warped_r4"):
            doubly = op
        if op.case.startswith("euclidean/helix"):
            helix = op
        if op.case.startswith("euclidean/circle"):
            circle = op
    # recover the generated inputs from the argv the program receives
    args = {op.case: _argv_json(op) for op in (twisted, doubly, helix, circle)}
    q = args[twisted.case]["samples"]["points"][0]
    x3 = args[twisted.case]["embedding"]["params"]["x3"]
    L = checks.twisted_L_norm(q[0], x3)
    doc = _report_doc(checks.UMBILIC_ONLY, 2, L_norm=L)
    assert _passes(twisted, doc)
    assert not _passes(twisted, _perturbed(doc, ("per_sample", 0, "L_norm"),
                                           L * (1 + 1e-4)))

    q = args[doubly.case]["samples"]["points"][0]
    H = checks.doubly_warped_H_norm(q[0])
    doc = _report_doc(checks.STRONG, 2, H_norm=H)
    assert _passes(doubly, doc)
    assert not _passes(doubly, _perturbed(doc, ("per_sample", 0, "H_norm"),
                                          H * (1 + 1e-4)))

    p = args[helix.case]["embedding"]["params"]
    k, t = checks.helix_curvature_torsion(p["pitch"], p["radius"])
    doc = _report_doc(checks.UMBILIC_ONLY, 1, H_norm=k, L_norm=k * t)
    assert _passes(helix, doc)
    for key, v in (("H_norm", k), ("L_norm", k * t)):
        assert not _passes(helix, _perturbed(doc, ("per_sample", 0, key),
                                             v + 1e-4))

    r = args[circle.case]["embedding"]["params"]["radius"]
    doc = _report_doc(checks.STRONG, 1, H_norm=1.0 / r)
    assert _passes(circle, doc)
    assert not _passes(circle, _perturbed(doc, ("per_sample", 0, "H_norm"),
                                          1.0 / r + 1e-4))


def test_graph_fialkow_identity():
    op = _op("classify", "report", "euclidean/graph")
    doc = _report_doc(checks.verdicts(False, False, False, False), 2,
                      IIo_norm=0.6, coeff=0.09)
    assert _passes(op, doc)
    assert not _passes(op, _perturbed(doc, ("per_sample", 0,
                                            "fialkow_coefficient"), 0.0901))


def test_fd_tolerance_is_looser():
    op = _op("classify-fd", "report-fd", "euclidean/sphere")
    r = _argv_json(op)["embedding"]["params"]["radius"]
    doc = _report_doc(checks.STRONG, 2, H_norm=1.0 / r + 1e-5, L_norm=1e-7)
    assert _passes(op, doc)
    assert not _passes(op, _perturbed(doc, ("per_sample", 0, "H_norm"),
                                      1.0 / r + 2e-3))


def test_invariance_checks():
    op = _op("classify", "invariance", "s2s2/factor1")
    rows = [{"rescaling": k, "verdicts_match": True, "schouten_trans": 0.0,
             "II_transformation": 0.0, "H_transformation": 0.0,
             "IIo_invariance": 0.0, "tractor_triple_trans": 0.0}
            for k in range(3)]
    doc = {"residuals": rows, "verdicts": dict(checks.CIRCULAR),
           "verdicts_stable": True}
    assert _passes(op, doc)
    assert not _passes(op, _perturbed(doc, ("residuals", 1,
                                            "verdicts_match"), False))
    assert not _passes(op, _perturbed(doc, ("residuals", 2,
                                            "schouten_trans"), 2e-3))
    assert not _passes(op, _perturbed(doc, ("verdicts_stable",), False))


def _csv(header, rows):
    lines = [",".join(header)]
    lines += [",".join(f"{v:.12g}" for v in r) for r in rows]
    return "\n".join(lines) + "\n"


def _circle_csv(xs, extra_cols=None, t=None):
    n = xs.shape[1]
    t = 0.1 * np.arange(len(xs)) if t is None else t
    header = (["t"] + [f"{p}{i + 1}" for p in "xua" for i in range(n)]
              + ["AdotA", "unparam_residual"])
    extra_cols = extra_cols or {}
    header += sorted(extra_cols)
    rows = []
    for k, x in enumerate(xs):
        row = ([t[k]] + list(x) + [0.0] * (2 * n) + [-1.0, 0.0]
               + [extra_cols[c][k] for c in sorted(extra_cols)])
        rows.append(row)
    return _csv(header, rows)


def test_circle_checks():
    ops = [op for op in _round("circles-integrals") if op.kind == "circle"]
    fixed = next(op for op in ops if op.case.startswith("s2s2"))
    num = _argv_json(fixed)["circle"]["num"]
    xs = np.zeros((num, 4))
    xs[:, 0] = np.linspace(0.0, 0.5, num)
    ok = {"status": "ok"}
    assert _passes(fixed, ok, _circle_csv(xs))
    xs_bad = xs.copy()
    xs_bad[7, 3] = 1e-5
    assert not _passes(fixed, ok, _circle_csv(xs_bad))

    flat = next(op for op in ops if op.case == "euclidean/circle n=4")
    th = np.linspace(0.0, 2.0, num)
    # radius 0.7 in the plane spanned by (0.6, 0, 0.8, 0) and (0, 1, 0, 0)
    circle = np.stack([0.3 + 0.42 * np.cos(th), -0.1 + 0.7 * np.sin(th),
                       0.56 * np.cos(th), 0.2 + 0.0 * th], axis=1)
    assert _passes(flat, ok, _circle_csv(circle))
    bent = circle.copy()
    bent[5] *= 1.0 + 1e-5
    assert not _passes(flat, ok, _circle_csv(bent))
    assert not _passes(flat, {"status": "chart_exit"}, _circle_csv(circle))


def test_concyclic_fit():
    th = np.linspace(0.0, 1.0, 30)
    pts = np.stack([2.0 * np.cos(th), 2.0 * np.sin(th), 0.0 * th], axis=1)
    plane, circ, radius = checks.concyclic_residuals(pts)
    assert plane < 1e-13 and circ < 1e-12
    assert radius == pytest.approx(2.0)
    pts[10, 2] += 1e-6
    assert checks.concyclic_residuals(pts)[0] > 5e-7


def test_flat_circle_checks():
    op = next(op for op in _round("circles-integrals")
              if op.kind == "flat-circle")
    cfg = _argv_json(op)["circle"]
    t = np.linspace(0.0, cfg["t_span"][1], cfg["num"])
    x = np.zeros((len(t), 3))
    x[:, :2] = checks.flat_circle(t)
    mons = {f"rotation{p}": np.full(len(t), 0.25) for p in ("01", "02",
                                                             "12")}
    assert _passes(op, {"status": "ok"}, _circle_csv(x, mons, t))
    x_bad = x.copy()
    x_bad[-1, 0] += 1e-5
    assert not _passes(op, {"status": "ok"}, _circle_csv(x_bad, mons, t))
    mons["rotation12"][3] += 2e-3
    assert not _passes(op, {"status": "ok"}, _circle_csv(x, mons, t))


def test_scan_checks():
    op = next(op for op in _round("circles-integrals") if op.kind == "scan")
    params = _argv_json(op)["scan"]["ky"]["params"]
    n, i, j = params["n"], params["i"], params["j"]
    pts = []
    for s in (-0.5, 0.0, 0.5):
        p = [s] * n
        p[i] = p[j] = 0.0
        pts.append(p)
    doc = {"status": "locus", "codimension": 2, "points": pts,
           "L_residuals": [0.0, 0.0]}
    assert _passes(op, doc)
    assert not _passes(op, _perturbed(doc, ("points", 1, j), 1e-5))
    assert not _passes(op, _perturbed(doc, ("codimension",), 1))
    assert not _passes(op, _perturbed(doc, ("L_residuals", 0), 2e-3))
    assert not _passes(op, _perturbed(doc, ("status",), "empty"))


def test_rounds_repeat_and_differ():
    a = workloads.build_round("classify", 3, 0, "/x")
    b = workloads.build_round("classify", 3, 0, "/x")
    c = workloads.build_round("classify", 3, 1, "/x")
    assert [o.argv for o in a] == [o.argv for o in b]
    assert all(x.argv != y.argv for x, y in zip(a, c))


def _argv_json(op):
    import json
    out = {}
    for flag, kv in zip(op.argv[1::2], op.argv[2::2]):
        assert flag == "-s"
        k, v = kv.split("=", 1)
        out[k] = json.loads(v)
    return out
