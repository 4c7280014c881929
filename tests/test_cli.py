"""Command-line surface tests: determinism, formats, exit codes."""
import contextlib
import io
import json
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from oracles import random_metric, rotation_monitor
from tractorlab import (circles, cli, geolib, riemann, submanifold,
                        subtractor)
from tractorlab import tractor as tr
from tractorlab.riemann import SingularMetricError


def run_cli(*args):
    r = subprocess.run([sys.executable, "-m", "tractorlab.cli", *args],
                       capture_output=True, text=True)
    return r.returncode, r.stdout, r.stderr


def test_report_cp1_fialkow_coefficient():
    rc, out, err = run_cli(
        "report", "-s", 'geometry={"name":"cp2"}',
        "-s", 'embedding={"name":"cp1"}',
        "-s", 'samples={"points":[[0.2,-0.3],[0.1,0.15]]}')
    assert rc == 0, err
    doc = json.loads(out)
    assert abs(doc["fialkow_coefficient"] + 1.0) < 1e-5
    assert doc["verdicts"]["conformally_circular"]
    assert not doc["verdicts"]["strongly_conformally_circular"]


def test_report_flat_hyperplane_residuals():
    rc, out, err = run_cli(
        "report", "-s", 'geometry={"name":"euclidean","params":{"n":4}}',
        "-s", 'embedding={"name":"hyperplane"}',
        "-s", 'samples={"points":[[0.1,0.2,-0.3]]}')
    assert rc == 0, err
    doc = json.loads(out)
    row = doc["per_sample"][0]
    assert max(row["gcr"]) < 1e-10
    assert max(row["tractor_gcr"]) < 1e-10
    assert row["L_norm"] < 1e-10


def test_report_tractor_gauss_residual_at_round_off():
    """s2xs1xr/s2xs1 at m = 3: the tractor Gauss residual reads the Cotton
    tensor of the induced metric, whose third derivative is exact; as a
    central difference with step 1e-4 it left 1.85e-7 at the first
    point."""
    rc, out, err = run_cli(
        "report", "-s", 'geometry={"name":"s2xs1xr"}',
        "-s", 'embedding={"name":"s2xs1"}',
        "-s", 'samples={"points":[[0.2,-0.1,0.1],[0.1,0.25,-0.2]]}')
    assert rc == 0, err
    rows = json.loads(out)["per_sample"]
    assert len(rows) == 2
    for row in rows:
        assert max(row["tractor_gcr"]) <= 3e-8


def test_report_tractor_ricci_on_a_curved_normal_bundle():
    """The m = 3 graph in flat 5-space of the corpus's ``REPORTS``: its
    normal tractor bundle is curved, so the tractor Ricci residual compares
    two curvatures that are not zero, and still vanishes to round-off; so
    do the tractor Gauss and Codazzi residuals, whose D S and D L read
    exact jets (the stencils left them at 3.2e-9 and 3.5e-9)."""
    cfg = {"geometry": {"name": "euclidean", "params": {"n": 5}},
           "embedding": {"name": "graph",
                         "params": {"n": 5, "m": 3, "seed": 0}},
           "samples": {"points": [[0.1, -0.2, 0.15]]}}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(["report"] + [a for k, v in cfg.items()
                                    for a in ("-s", f"{k}={json.dumps(v)}")])
    assert rc == 0
    row = json.loads(out.getvalue())["per_sample"][0]
    assert max(row["tractor_gcr"]) < 1e-12
    geo, entry = cli.build_geometry(cfg)
    ctx = subtractor.SubTractorContext(geo, cli.build_embedding(cfg, entry,
                                                                geo),
                                       cfg["samples"]["points"][0])
    assert np.abs(subtractor._normal_tractor_curvature(ctx)).max() > 0.1


def test_report_twisted_slice_verdicts():
    rc, out, err = run_cli(
        "report", "-s", 'geometry={"name":"twisted_r4"}',
        "-s", 'embedding={"name":"first_factor"}',
        "-s", 'samples={"points":[[0.3,-0.2]]}')
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["verdicts"]["umbilic"] is True
    assert doc["verdicts"]["distinguished"] is False


def test_report_byte_identical():
    args = ("report", "-s", 'geometry={"name":"s2s2"}',
            "-s", 'embedding={"name":"factor1"}',
            "-s", 'samples={"count":2}', "-s", "seed=7")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_circle_preset_flat(tmp_path):
    csv_path = tmp_path / "traj.csv"
    rc, out, err = run_cli(
        "circle", "-s", 'circle={"preset":"flat-circle","t_span":[0,10]}',
        "-s", f'output={{"csv_path":"{csv_path}"}}')
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["endpoint_error"] < 1e-7
    for v in doc["conserved_drift"].values():
        assert v < 1e-7
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header[0] == "t"
    assert "AdotA" in header and "unparam_residual" in header
    assert any(h.startswith("rotation") for h in header)


def test_circle_preset_sphere():
    rc, out, err = run_cli(
        "circle", "-s", 'circle={"preset":"sphere-great-circle"}')
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["off_axis_residual"] < 1e-6


def test_circle_toward_the_ball_boundary_exits_the_chart(monkeypatch):
    """A custom circle on the Poincare ball heading for |x| = 1, where the
    metric and the state's acceleration blow up, ends as "chart_exit"
    (exit 0) just inside the catalog's chart radius, within a few
    thousand right-hand sides; without the exit its steps shrink toward
    the boundary for some 87 s before the integration fails (exit 2)."""
    calls = 0
    rhs = circles.conformal_circle_rhs

    def capped(geo, state):
        nonlocal calls
        calls += 1
        assert calls <= 4000, "the circle does not stop at the boundary"
        return rhs(geo, state)

    monkeypatch.setattr(circles, "conformal_circle_rhs", capped)
    assert geolib.catalog()["hyperbolic"].chart_radius == 1.0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([
            "circle", "-s", 'geometry={"name":"hyperbolic","params":{"n":4}}',
            "-s", 'circle={"initial":{"x":[0.05,0,0,0],"u":[0.6,0.8,0,0]},'
                  '"t_span":[0,1.5],"num":7}'])
    assert rc == 0
    doc = json.loads(out.getvalue())
    assert doc["status"] == "chart_exit"
    assert 1 < doc["csv_rows"] < 7


def test_circle_through_the_projection_point_exits_the_chart(monkeypatch):
    """A custom circle on the stereographic sphere chart, which is all of
    R^n, that runs off toward the point the chart leaves out ends as
    "chart_exit" (exit 0) where a coordinate reaches ``cli.CHART_BOUND``,
    the bound the sphere-great-circle preset stops at, in 512 right-hand
    sides; without the bound it does not end."""
    calls = 0
    rhs = circles.conformal_circle_rhs

    def capped(geo, state):
        nonlocal calls
        calls += 1
        assert calls <= 2000, "the circle does not stop at the chart bound"
        return rhs(geo, state)

    monkeypatch.setattr(circles, "conformal_circle_rhs", capped)
    assert geolib.catalog()["sphere"].chart_radius is None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([
            "circle", "-s", 'geometry={"name":"sphere","params":{"n":3}}',
            "-s", 'circle={"initial":{"x":[0.5,0,0],"u":[1,0,0]},'
                  '"t_span":[0,20],"num":5}'])
    assert rc == 0
    assert json.loads(out.getvalue())["status"] == "chart_exit"


@pytest.mark.parametrize("circle", [
    '{"initial":{"x":[0,0,0],"u":[1,0,0]},"t_span":[0.5,0.5]}',
    '{"preset":"flat-circle","t_span":[0,0]}',
    '{"preset":"sphere-great-circle","t_span":[2,2]}'])
def test_circle_zero_length_span_exit4(capsys, circle):
    """A span with equal endpoints is a config error, custom or preset,
    not a traceback."""
    argv = ["circle", "-s", 'geometry={"name":"euclidean","params":{"n":3}}',
            "-s", f"circle={circle}"]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has equal endpoints" in captured.err


def test_circle_zero_velocity_exit2():
    rc, out, err = run_cli(
        "circle", "-s", 'geometry={"name":"euclidean","params":{"n":3}}',
        "-s",
        'circle={"initial":{"x":[0,0,0],"u":[0,0,0],"a":[0,0,0]}}')
    assert rc == 2
    assert "velocity" in err
    assert "stage: circle initial state, x = [0, 0, 0]" in err


def _raising(exc):
    def command(cfg, args=None):
        raise exc
    return command


def test_numerical_failure_exit2_other_errors_propagate(monkeypatch, capsys):
    monkeypatch.setitem(cli.COMMANDS, "report",
                        _raising(SingularMetricError("singular at x")))
    assert cli.main(["report"]) == 2
    assert "numerical failure: SingularMetricError" in capsys.readouterr().err
    monkeypatch.setitem(cli.COMMANDS, "report",
                        _raising(np.linalg.LinAlgError("singular matrix")))
    assert cli.main(["report"]) == 2
    monkeypatch.setitem(cli.COMMANDS, "report", _raising(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        cli.main(["report"])


def test_circle_integration_failure_exit2(monkeypatch, capsys):
    monkeypatch.setattr(
        circles, "_dop853",
        lambda *a, **k: (None, None, -1, "required step size is too small"))
    assert cli.main(["circle", "-s", 'circle={"preset":"flat-circle"}']) == 2
    err = capsys.readouterr().err
    assert "numerical failure: CircleIntegrationError" in err
    assert "step size" in err
    assert "stage: circle integration, t = [0.0, 10.0]" in err


def test_analytic_sample_point_on_a_pole_exits_2():
    # (1, 0, 0) is on the boundary of the Poincare ball, where 1 - |x|^2 = 0
    rc, out, err = run_cli(
        "report", "-s", 'geometry={"name":"hyperbolic","params":{"n":3}}',
        "-s", 'embedding={"name":"slice","params":{"n":3,"m":1}}',
        "-s", 'samples={"points":[[1.0]]}')
    assert rc == 2
    assert "numerical failure: JetOrderError" in err
    assert err.splitlines()[1] == "stage: sample 0, q = [1.0]"
    assert "Traceback" not in err and out == ""


def test_threefold_next_to_a_pole_exits_0():
    """A 3-fold report evaluates no field off the sample point and its
    image either: D S and D L of the tractor Gauss and Codazzi residuals
    read exact jets there, as both normal curvatures do.  So q = (0.99, 0,
    0), whose Richardson point (0.99 + 0.01, 0, 0) is the pole (1, 0, 0, 0)
    the D S stencil met (a test in ``test_subtractor.py`` keeps that
    route's failure), reports: the totally geodesic slice has
    every Gauss-Codazzi-Ricci residual 0, and its tractor ones read 8.0e-9,
    0, 0, round-off of the metric's size there (g = 4 / (1 - |x|^2)^2 is
    1.0e4 and its Schouten tensor's derivative about 1e6)."""
    rc, out, err = run_cli(
        "report", "-s", 'geometry={"name":"hyperbolic","params":{"n":4}}',
        "-s", 'embedding={"name":"slice","params":{"n":4,"m":3}}',
        "-s", 'samples={"points":[[0.99,0.0,0.0]]}')
    assert rc == 0 and err == ""
    row = json.loads(out)["per_sample"][0]
    assert row["gcr"] == [0.0, 0.0, 0.0]
    assert max(row["tractor_gcr"]) < 2e-8


def test_curve_next_to_a_pole_exits_0():
    """A curve report evaluates no field off the curve's sample point: its
    classify row is exact and its normal curvature zero with no stencil.
    So q = 0.99, whose Richardson point 0.99 + 0.01 is the pole (1, 0, 0),
    reports, with every Gauss-Codazzi-Ricci residual 0 (a curve's
    curvatures R_ij are antisymmetric in i, j)."""
    rc, out, err = run_cli(
        "report", "-s", 'geometry={"name":"hyperbolic","params":{"n":3}}',
        "-s", 'embedding={"name":"slice","params":{"n":3,"m":1}}',
        "-s", 'samples={"points":[[0.99]]}')
    assert rc == 0 and err == ""
    assert json.loads(out)["per_sample"][0]["gcr"] == [0.0, 0.0, 0.0]


def test_surface_next_to_a_pole_exits_0():
    """A surface report evaluates no field off the sample point and its
    image either: the normal curvature and the Moebius Cotton tensor read
    first jets there.  So q = (0.99, 0), whose Richardson point (0.99 +
    0.01, 0) is the pole (1, 0, 0), reports; the totally geodesic slice has
    every Gauss-Codazzi-Ricci residual 0 and a Moebius Cotton tensor at
    round-off of the metric's size there."""
    rc, out, err = run_cli(
        "report", "-s", 'geometry={"name":"hyperbolic","params":{"n":3}}',
        "-s", 'embedding={"name":"slice","params":{"n":3,"m":2}}',
        "-s", 'samples={"points":[[0.99,0.0]]}')
    assert rc == 0 and err == ""
    row = json.loads(out)["per_sample"][0]
    assert row["gcr"] == [0.0, 0.0, 0.0]
    assert row["mobius_cotton_norm"] < 1e-8


def test_embedding_dimension_mismatch_exit4(capsys):
    rc = cli.main(["report",
                   "-s", 'geometry={"name":"euclidean","params":{"n":5}}',
                   "-s", 'embedding={"name":"graph"}',
                   "-s", 'samples={"points":[[0.1,0.2]]}'])
    assert rc == 4
    assert "ambient dimension 4, the geometry has 5" in capsys.readouterr().err


def test_sample_dimension_mismatch_exit4(capsys):
    base = ["report", "-s", 'geometry={"name":"euclidean","params":{"n":3}}',
            "-s", 'embedding={"name":"helix"}']
    assert cli.main(base + ["-s", 'samples={"points":[[0.1,0.2]]}']) == 4
    assert "needs 1 coordinates" in capsys.readouterr().err
    assert cli.main(base + ["-s",
                            'samples={"box":[[-0.1,0.1],[-0.1,0.1]]}']) == 4
    assert "needs 1 intervals" in capsys.readouterr().err


def test_fd_step_must_be_positive(capsys):
    base = ["report", "-s", 'geometry={"name":"s2s2"}',
            "-s", 'embedding={"name":"factor1"}']
    for backend in ('{"mode":"fd","step":0}', '{"mode":"fd","step3":-0.01}'):
        assert cli.main(base + ["-s", f"backend={backend}"]) == 4
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "invariance"])
def test_empty_sample_points_exit4(capsys, command):
    rc = cli.main([command, "-s", 'geometry={"name":"s2s2"}',
                   "-s", 'embedding={"name":"factor1"}',
                   "-s", 'samples={"points":[]}'])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err


def test_scan_ky_dimension_mismatch_exit4(capsys):
    # the euclidean rotation form defaults to n = 4
    rc = cli.main(["scan",
                   "-s", 'geometry={"name":"euclidean","params":{"n":3}}',
                   "-s", 'scan={"ky":{"name":"rotation"}}'])
    assert rc == 4
    assert "has dimension 4, the geometry has 3" in capsys.readouterr().err


def test_scan_region_dimension_mismatch_exit4(capsys):
    rc = cli.main(["scan",
                   "-s", 'geometry={"name":"euclidean","params":{"n":3}}',
                   "-s", 'scan={"ky":{"name":"rotation","params":{"n":3}},'
                         '"region":[[-1,1]]}'])
    assert rc == 4
    assert "needs 3 intervals" in capsys.readouterr().err


@pytest.mark.parametrize("geometry,initial", [
    ('{"name":"s2s2"}', '{"x":[0.1,0.2],"u":[1,0,0,0]}'),
    ('{"name":"euclidean","params":{"n":3}}', '{"x":[0,0,0],"u":[1,0]}'),
    ('{"name":"euclidean","params":{"n":3}}',
     '{"x":[0,0,0],"u":[1,0,0],"a":[0,1]}')])
def test_circle_initial_dimension_mismatch_exit4(capsys, geometry, initial):
    rc = cli.main(["circle", "-s", f"geometry={geometry}",
                   "-s", f'circle={{"initial":{initial}}}'])
    assert rc == 4
    assert "coordinates each" in capsys.readouterr().err


@pytest.mark.parametrize("geometry,embedding,points", [
    ("cp2", "cp1", [[0.2, -0.3], [0.1, 0.15]]),
    ("s2xs1xr", "s2xs1", [[0.2, -0.1, 0.1]])])
def test_report_one_context_per_sample_point(monkeypatch, geometry,
                                             embedding, points):
    """Every quantity of a report row comes from the one context of its
    sample point; contexts at stencil points (``sub=``) are not counted."""
    made = []
    init = subtractor.SubTractorContext.__init__

    def counted(self, geo, emb, q, sub=None):
        if sub is None:
            made.append(tuple(q))
        init(self, geo, emb, q, sub)
    monkeypatch.setattr(subtractor.SubTractorContext, "__init__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["report",
                       "-s", f'geometry={{"name":"{geometry}"}}',
                       "-s", f'embedding={{"name":"{embedding}"}}',
                       "-s", f"samples={json.dumps({'points': points})}"])
    assert rc == 0
    assert made == [tuple(p) for p in points]


def test_flat_circle_pack_count(monkeypatch):
    """Curvature packs the flat-circle preset builds outside the ODE
    right-hand side, pinned so that a change shows in review: one per
    output point, for A.A and the residual, which the integrator hands to
    the three rotation monitors; their splittings, Hodge stars and curve
    tractors all read it, since it is the order-2 pack at the same point
    (7 per point when each monitor built one for the splitting and one for
    the rest, 37 when the splitting differentiated ky_decompose by central
    differences)."""
    packs = Counter()
    pack = riemann.curvature_pack
    in_rhs = []

    def counted(*args, **kwargs):
        packs["rhs" if in_rhs else "other"] += 1
        return pack(*args, **kwargs)
    for name, mod in list(sys.modules.items()):
        if name.startswith("tractorlab") and \
                getattr(mod, "curvature_pack", None) is pack:
            monkeypatch.setattr(mod, "curvature_pack", counted)
    rhs = circles.conformal_circle_rhs

    def rhs_counted(geo, state):
        in_rhs.append(1)
        try:
            return rhs(geo, state)
        finally:
            in_rhs.pop()
    monkeypatch.setattr(circles, "conformal_circle_rhs", rhs_counted)
    num = 5
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["circle", "-s", 'circle={"preset":"flat-circle",'
                       '"num":%d,"t_span":[0,1]}' % num])
    assert rc == 0
    assert packs["rhs"] > 0
    assert packs["other"] == num


def test_rotation_monitor_is_conserved_on_a_round_sphere():
    """The rotation monitor pairs star K with Phi through J alone, so it is
    a first integral where g is not delta: on sphere(3) with the round
    rotation form, along two random conformal circles.  (Lowering Phi's
    middle slots by g as well drifted by 0.44 and 0.53.)"""
    geo = geolib.sphere(3)
    monitor = cli._rotation_monitors([geolib.round_rotation_form(3, 0, 1)])[0]
    rng = np.random.default_rng(5)
    for _ in range(2):
        x, u, a = rng.uniform(-0.3, 0.3, (3, 3))
        traj = circles.integrate_circle(
            geo, circles.CurveState(x, u / np.linalg.norm(u), a), (0.0, 0.5),
            rtol=1e-12, atol=1e-12, num=11, monitors={"k": monitor})
        vals = traj.monitored["k"]
        assert np.abs(vals).max() > 1e-2
        assert vals.max() - vals.min() <= 1e-10


def test_shared_rotation_monitors_are_the_per_monitor_route(monkeypatch):
    """At every output row of the flat-circle preset, its three rotation
    monitors, which share the raised volume form and the flipped Phi of
    the output point, are bitwise the route on which each monitor computes
    its own; the shared route computes the volume form once per row."""
    geo, st, span, monitors, _, _ = cli._circle_preset(
        {"circle": {"preset": "flat-circle"}})
    volume_forms = 0
    volume_form = tr.tractor_volume_form

    def counted(*args, **kwargs):
        nonlocal volume_forms
        volume_forms += 1
        return volume_form(*args, **kwargs)

    monkeypatch.setattr(tr, "tractor_volume_form", counted)
    num = 9
    circles.integrate_circle(geo, st, span, num=num, monitors=monitors)
    assert volume_forms == num
    assert len(monitors) == 3
    oracles = {f"oracle {name}": rotation_monitor(geolib.rotation_form(
        3, int(name[-2]), int(name[-1]))) for name in monitors}
    traj = circles.integrate_circle(geo, st, span, num=num,
                                    monitors={**monitors, **oracles})
    assert np.abs(traj.monitored["rotation12"]).max() > 0.1
    for name in monitors:
        assert np.array_equal(traj.monitored[name],
                              traj.monitored[f"oracle {name}"]), name


def _exact_residuals(row):
    """The report residuals whose derivatives along Sigma are exact
    partials: Codazzi (D II), the dual route to L (nabla N^A_B) and mu
    (nabla H, D^j IIo); the Richardson stencil left them at 3e-10 to 9e-9
    on the graphs below."""
    return {"gcr[1]": row["gcr"][1],
            "L_dual_route_residual": row["L_dual_route_residual"],
            "mu_weyl_residual": row["mu_weyl_residual"]}


def test_report_graph_residuals_at_round_off():
    """The report's residuals on a flat graph, at its three default sample
    points."""
    rc, out, err = run_cli(
        "report", "-s", 'geometry={"name":"euclidean","params":{"n":4}}',
        "-s", 'embedding={"name":"graph"}')
    assert rc == 0, err
    rows = json.loads(out)["per_sample"]
    assert len(rows) == 3
    for row in rows:
        for key, v in _exact_residuals(row).items():
            assert v <= 1e-12, key


def test_random_metric_graph_residuals_at_round_off():
    """The same report residuals on a graph in a curved random metric,
    where both the ambient Christoffel symbols and II are nonzero."""
    geo = random_metric(4, seed=3)
    emb = geolib.random_graph_embedding(4, 2, seed=5)
    for q in ([0.05, -0.08], [0.1, 0.2]):
        row = {}
        cli._report_row(row, subtractor.SubTractorContext(geo, emb,
                                                          np.array(q)))
        for key, v in _exact_residuals(row).items():
            assert v <= 1e-12, key


def test_rotation_scan_builds_no_stencil(monkeypatch):
    """L on the locus of the n = 4 rotation scan differences no pack: its
    nabla H is an exact partial (the stencil made 8 ``SigmaField.jet1``
    calls)."""
    from tractorlab import submanifold
    calls = []
    jet1 = submanifold.SigmaField.jet1

    def counted(self, q):
        calls.append(q)
        return jet1(self, q)
    monkeypatch.setattr(submanifold.SigmaField, "jet1", counted)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(["scan",
                       "-s", 'geometry={"name":"euclidean","params":{"n":4}}',
                       "-s", 'scan={"ky":{"name":"rotation"},"grid":21}'])
    assert rc == 0
    assert len(json.loads(out.getvalue())["L_residuals"]) == 8
    assert calls == []


def test_invariance_pack_count(monkeypatch):
    """Curvature packs of ``invariance`` on s2s2/factor1, pinned so that a
    change shows in review.  Each of the 3 rescalings reads the ambient
    pack of the submanifold pack it built and hands the Thomas operator
    the rescaled pack it built, one pair per rescaling (132 packs when both
    were built again).  The 126 packs are rows (the points, a stack of p
    points counting p); a batched call on a stack counts once, and the
    stencil-point packs of each derivative along Sigma share one call, so
    the calls were 42.

    The derivatives along Sigma of a classify row (nabla H, D^j IIo) are
    now exact partials from the packs at the sample points, and D^j IIo
    reads the intrinsic Christoffel symbols from them, so no row builds a
    stencil or an intrinsic pack.  What is left are the 18 single-point
    packs, one call each: the submanifold packs of the 3 sample points, and
    per rescaling the rescaled pack of the Thomas operator, the rescaled
    submanifold pack of ``conformal_transform_check`` and those of the 3
    rescaled contexts.

    Each rescaling now builds one rescaled geometry, and its transformation
    laws read the rescaled context at sample 0: II, H and IIo from its
    submanifold pack, and the Thomas operator from that pack's ambient
    pack.  So per rescaling the Thomas operator's pack and the second
    rescaled submanifold pack are gone: 12 packs, one call each, the
    submanifold packs of the 3 sample points in the geometry and in each
    of its 3 rescalings."""
    packs = []
    pack = riemann.curvature_pack

    def counted(geo, x, order=None):
        packs.append(len(x) if np.ndim(x) == 2 else 1)
        return pack(geo, x, order)
    for name, mod in list(sys.modules.items()):
        if name.startswith("tractorlab") and \
                getattr(mod, "curvature_pack", None) is pack:
            monkeypatch.setattr(mod, "curvature_pack", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["invariance", "-s", 'geometry={"name":"s2s2"}',
                       "-s", 'embedding={"name":"factor1"}'])
    assert rc == 0
    assert sum(packs) == 12
    assert len(packs) == 12


def test_invariance_rescales_once_per_rescaling(monkeypatch):
    """``invariance`` on s2s2/factor1 builds one rescaled geometry per
    rescaling (9 ``rescale`` calls for 3 rescalings when the Schouten law
    and the second-fundamental-form laws each built their own), and the
    laws read the rescaled context at sample 0: every submanifold pack of
    the run is one of the 3 sample-point packs of the geometry or of one of
    its rescalings, with default seeds, and the laws get the rescaled
    context whose submanifold pack is the memo's
    (``test_invariance_pack_count`` counts the curvature packs)."""
    rescale = riemann.rescale
    build_embedding = cli.build_embedding
    laws = subtractor.transformation_residuals
    rescaled, embs, law_ctxs = [], [], []

    def counted_rescale(geo, omega):
        out = rescale(geo, omega)
        rescaled.append(out[0])
        return out

    def kept_embedding(*args):
        embs.append(build_embedding(*args))
        return embs[-1]

    def kept_laws(ctx, ctx2, omega, upsilon):
        law_ctxs.append(ctx2)
        return laws(ctx, ctx2, omega, upsilon)

    for name, mod in list(sys.modules.items()):
        if name.startswith("tractorlab") and \
                getattr(mod, "rescale", None) is rescale:
            monkeypatch.setattr(mod, "rescale", counted_rescale)
    monkeypatch.setattr(cli, "build_embedding", kept_embedding)
    monkeypatch.setattr(subtractor, "transformation_residuals", kept_laws)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["invariance", "-s", 'geometry={"name":"s2s2"}',
                       "-s", 'embedding={"name":"factor1"}'])
    assert rc == 0
    assert len(rescaled) == 3
    (emb,) = embs
    per_geometry = Counter(geo for geo, _, _ in emb.packs)
    assert len(per_geometry) == 4
    assert set(per_geometry.values()) == {3}
    assert set(rescaled) < set(per_geometry)
    assert all(seeds is None for _, _, seeds in emb.packs)
    assert [c.geo for c in law_ctxs] == rescaled
    assert all(c.sub is emb.packs[(c.geo, c.q.tobytes(), None)]
               for c in law_ctxs)


CURVE_REPORTS = [
    ('{"name":"euclidean","params":{"n":3}}', '{"name":"helix"}', None),
    ('{"name":"sphere"}', '{"name":"great","params":{"m":1}}', None),
    ('{"name":"hyperbolic","params":{"n":3}}',
     '{"name":"slice","params":{"n":3,"m":1}}', '{"mode":"fd"}'),
]


@pytest.mark.parametrize("geometry,embedding,backend", CURVE_REPORTS,
                         ids=["helix", "sphere-great", "hyperbolic-slice-fd"])
def test_curve_report_builds_no_intrinsic_pack(monkeypatch, geometry,
                                               embedding, backend):
    """A report on a curve builds no curvature pack of its induced metric:
    the Codazzi residual reads the intrinsic Christoffel symbol from the
    exact partials along the curve, and the Gauss residual of a curve has
    no intrinsic curvature.  A pack of the induced metric is one whose
    geometry has the curve's dimension 1, built by either route:
    ``curvature_pack`` of a geometry with a metric field, or
    ``pack_from_jets`` on the jets a context pulls back itself."""
    geos = []
    for fname in ("curvature_pack", "pack_from_jets"):
        fn = getattr(riemann, fname)

        def counted(geo, *args, fn=fn, **kwargs):
            geos.append(geo)
            return fn(geo, *args, **kwargs)
        for name, mod in list(sys.modules.items()):
            if name.startswith("tractorlab") and \
                    getattr(mod, fname, None) is fn:
                monkeypatch.setattr(mod, fname, counted)
    argv = ["report", "-s", f"geometry={geometry}",
            "-s", f"embedding={embedding}"]
    if backend is not None:
        argv += ["-s", f"backend={backend}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0
    assert all(len(r["gcr"]) == 3
               for r in json.loads(out.getvalue())["per_sample"])
    assert geos
    assert not any(g.n == 1 for g in geos)


PULLBACK_FREE_COMMANDS = [
    ["report", "-s", 'geometry={"name":"s2s2"}',
     "-s", 'embedding={"name":"factor1"}'],
    ["report", "-s", 'geometry={"name":"s2xs1xr"}',
     "-s", 'embedding={"name":"s2xs1"}'],
    ["residuals", "-s", 'geometry={"name":"s2xs1xr"}',
     "-s", 'embedding={"name":"s2xs1"}'],
    ["invariance", "-s", 'geometry={"name":"s2s2"}',
     "-s", 'embedding={"name":"factor1"}'],
]


@pytest.mark.parametrize("argv", PULLBACK_FREE_COMMANDS,
                         ids=["report-m2", "report-m3", "residuals",
                              "invariance"])
def test_commands_evaluate_no_pulled_back_metric(monkeypatch, argv):
    """No command evaluates the induced metric's field: each context pulls
    the induced metric's jets back from the embedding jet and the ambient
    metric jets it holds (``SubTractorContext.intrinsic_pack``), so
    ``PullbackMetricField.jets`` is never called."""
    calls = []
    jets = submanifold.PullbackMetricField.jets

    def counted(field, y, order):
        calls.append(order)
        return jets(field, y, order)
    monkeypatch.setattr(submanifold.PullbackMetricField, "jets", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    assert rc == 0
    assert calls == []


def test_invariance_identity_and_random():
    rc, out, err = run_cli(
        "invariance", "-s", 'geometry={"name":"s2s2"}',
        "-s", 'embedding={"name":"factor1"}',
        "-s", 'invariance={"count":2,"amplitude":0.0}')
    assert rc == 0, err
    doc = json.loads(out)
    for row in doc["residuals"]:
        for key in ("schouten_trans", "II_transformation",
                    "tractor_triple_trans"):
            assert row[key] < 1e-12
    rc, out, err = run_cli(
        "invariance", "-s", 'geometry={"name":"s2s2"}',
        "-s", 'embedding={"name":"factor1"}',
        "-s", 'invariance={"count":3}')
    doc = json.loads(out)
    assert doc["verdicts_stable"]
    for row in doc["residuals"]:
        assert row["schouten_trans"] < 1e-5
        assert row["II_transformation"] < 1e-5
        assert row["tractor_triple_trans"] < 1e-5


def test_scan_command():
    rc, out, err = run_cli(
        "scan", "-s", 'geometry={"name":"euclidean","params":{"n":4}}',
        "-s", 'scan={"ky":{"name":"rotation"},"grid":15}')
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["status"] == "locus"
    assert doc["codimension"] == 2
    assert max(doc["L_residuals"]) < 1e-5


def test_residuals_command():
    rc, out, err = run_cli(
        "residuals", "-s", 'geometry={"name":"euclidean","params":{"n":4}}',
        "-s", 'embedding={"name":"hyperplane"}',
        "-s", 'samples={"points":[[0.1,-0.2,0.3]]}')
    assert rc == 0, err
    doc = json.loads(out)
    assert max(doc["residuals"][0]["gcr"]) < 1e-10


def test_unknown_catalog_exit3():
    rc, _, err = run_cli("report", "-s", 'geometry={"name":"nope"}')
    assert rc == 3


def test_schema_error_exit4():
    rc, _, err = run_cli("report", "-s", "bogus=1")
    assert rc == 4
    rc, _, err = run_cli("report", "-s", "version=2")
    assert rc == 4


def _leaves(schema):
    return sum(_leaves(s) if "properties" in s else 1
               for s in schema.get("properties", {}).values())


def test_circle_monitors_key_is_gone(capsys):
    """``circle.monitors`` was never read (the flat-circle preset sets its
    own monitors), so it is an unknown key like any other; the config has
    29 settable leaves."""
    assert cli.main(["circle", "-s",
                     'circle={"preset":"flat-circle","monitors":["x"]}']) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Additional properties are not allowed" in captured.err
    assert _leaves(cli.SCHEMA) == 29


@pytest.mark.parametrize("argv, message", [
    (["report", "--threads", "2"], "unrecognized arguments: --threads 2"),
    (["classify"], "argument command: invalid choice: 'classify'")])
def test_usage_error_exit4(capsys, argv, message):
    """A usage error exits 4, the config-error code, with argparse's
    message on stderr; exit 2 is a numerical failure's."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"tractorlab: error: {message}" in captured.err


def test_help_exit0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: tractorlab" in capsys.readouterr().out


@pytest.mark.parametrize("content", [None, b"\xff\xfe{\"version\": 1}"])
def test_unreadable_config_file_exit4(capsys, tmp_path, content):
    """A config file that is missing or not UTF-8 is a config error, not a
    traceback."""
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_bytes(content)
    assert cli.main(["report", "-c", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot read {path}: ")


def _draft7_messages(cfg):
    from jsonschema import Draft7Validator
    return [e.message for e in sorted(
        Draft7Validator(cli.SCHEMA).iter_errors(cfg), key=lambda e: e.path)]


def _cfg(**entries):
    return {"version": 1, **entries}


# One valid and one invalid case per keyword and per object of the schema,
# and configs with several errors in different paths.
VALIDATOR_TABLE = [
    # the top-level object: type, required, const, additionalProperties
    _cfg(), {}, [1], "x", None, {"version": 2}, {"version": True},
    {"version": 1.0}, {"version": "1"}, _cfg(bogus=1),
    {"zeta": 1, "alpha": 2},
    # integer and minimum
    _cfg(seed=7), _cfg(seed=-3), _cfg(seed="7"), _cfg(seed=True),
    _cfg(seed=1.5), _cfg(samples={"count": 1}),
    _cfg(samples={"count": -2.5}), _cfg(samples={"count": None}),
    # geometry and embedding: required, string, nested object params
    _cfg(geometry={"name": "cp2"}),
    _cfg(geometry={"name": "euclidean", "params": {"n": 3}}),
    _cfg(geometry={}), _cfg(geometry={"name": 3, "params": []}),
    _cfg(geometry={"name": "cp2", "extra": 1, "other": 2}),
    _cfg(geometry="cp2"),
    _cfg(embedding={"name": "cp1", "params": {"radius": 1}}),
    _cfg(embedding={"params": 1}), _cfg(embedding=[]),
    # backend: enum, number, exclusiveMinimum
    _cfg(backend={"mode": "fd", "step": 1e-3, "step3": 0.01}),
    _cfg(backend={"mode": "analytic"}), _cfg(backend={"mode": "exact"}),
    _cfg(backend={"mode": None}), _cfg(backend={"mode": 1}),
    _cfg(backend={"step": 0}), _cfg(backend={"step3": -0.01}),
    _cfg(backend={"step": "x", "step3": False}), _cfg(backend={"s": 1}),
    # samples: minItems, items, maxItems, nested arrays
    _cfg(samples={"points": [[0.1, 0.2]], "count": 3,
                  "box": [[-1, 1], [0, 0.5]]}),
    _cfg(samples={"points": []}), _cfg(samples={"points": [1, [2, "x"]]}),
    _cfg(samples={"points": "x"}), _cfg(samples={"count": 0}),
    _cfg(samples={"count": -1.5}),
    _cfg(samples={"box": [[1], [1, 2, 3], [], "x", [1, None]]}),
    _cfg(samples={"box": {}}),
    # tolerances: a list of types
    _cfg(tolerances={"classify": None, "rtol": 1e-8, "atol": 0}),
    _cfg(tolerances={"classify": 1e-6}),
    _cfg(tolerances={"classify": "x", "rtol": None, "atol": [1]}),
    _cfg(tolerances={"atol": -1e-12}),
    _cfg(tolerances={"rtol": 0}), _cfg(tolerances={"rtol": -1e-8}),
    # circle: enum with null, the nested object initial, arrays
    _cfg(circle={"preset": "flat-circle", "t_span": [0, 10], "num": 5}),
    _cfg(circle={"preset": None,
                 "initial": {"x": [0], "u": [1], "a": [0]}}),
    _cfg(circle={"preset": "round"}),
    _cfg(circle={"initial": {"x": 0, "v": [1]}}),
    _cfg(circle={"initial": []}),
    _cfg(circle={"t_span": [0]}), _cfg(circle={"t_span": [0, 1, 2]}),
    _cfg(circle={"t_span": [0, "1"], "num": 1, "monitors": [1, "b"]}),
    # invariance
    _cfg(invariance={"count": 2, "amplitude": 0.1}),
    _cfg(invariance={"count": 0, "amplitude": "big"}),
    # scan: the nested object ky, region, grid
    _cfg(scan={"ky": {"name": "rotation", "params": {"n": 3}},
               "region": [[-1, 1]], "grid": 9}),
    _cfg(scan={"ky": {}}), _cfg(scan={"ky": {"name": "r", "p": 1}}),
    _cfg(scan={"region": [[0, 1, 2]], "grid": 2}),
    _cfg(scan={"grid": 2.5}),
    # output: a list of types with null
    _cfg(output={"path": None, "csv_path": "a.csv"}),
    _cfg(output={"path": 1, "csv_path": []}),
    # several errors at once, in different paths
    {"version": 3, "seed": "s", "geometry": {}, "backend": {"step": -1},
     "samples": {"points": [], "box": [[1]]}, "scan": {"grid": 1},
     "circle": {"preset": "x", "t_span": [1]}, "bogus": 1},
    _cfg(samples={"count": 0, "points": [["a", 1], []]},
         circle={"num": 0, "initial": {"x": "x", "y": 1}},
         tolerances={"rtol": "r"}, output={"path": 3}),
]

# The one intended difference from Draft 7: an integral float is not an
# integer, so ``range`` and the like never see one.
INTEGRAL_FLOATS = [
    (_cfg(samples={"count": 2.0}), ["2.0 is not of type 'integer'"]),
    (_cfg(invariance={"count": 1.0}), ["1.0 is not of type 'integer'"]),
    (_cfg(circle={"num": 5.0}), ["5.0 is not of type 'integer'"]),
    (_cfg(scan={"grid": 9.0}), ["9.0 is not of type 'integer'"]),
    (_cfg(seed=7.0), ["7.0 is not of type 'integer'"]),
    (_cfg(samples={"count": 0.0}), ["0.0 is not of type 'integer'",
                                    "0.0 is less than the minimum of 1"]),
]


def test_validator_matches_draft7():
    """The config validator gives jsonschema's Draft 7 messages in the
    same order (sorted by path), except that an integral float is not an
    integer."""
    for cfg in VALIDATOR_TABLE:
        assert cli._schema_messages(cfg) == _draft7_messages(cfg), cfg
    for cfg, want in INTEGRAL_FLOATS:
        assert cli._schema_messages(cfg) == want, cfg
        assert _draft7_messages(cfg) == [m for m in want
                                         if "not of type" not in m], cfg


@pytest.mark.parametrize("argv", [
    ["report", "-s", 'geometry={"name":"s2s2"}',
     "-s", 'embedding={"name":"factor1"}', "-s", "samples.count=2.0"],
    ["invariance", "-s", 'geometry={"name":"s2s2"}',
     "-s", 'embedding={"name":"factor1"}', "-s", "invariance.count=1.0"],
    ["circle", "-s", 'circle={"preset":"flat-circle","num":5.0}'],
    ["scan", "-s", 'geometry={"name":"euclidean","params":{"n":3}}',
     "-s", 'scan={"ky":{"name":"rotation","params":{"n":3}},"grid":9.0}']])
def test_integral_float_for_an_integer_key_exit4(capsys, argv):
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not of type 'integer'" in captured.err


@pytest.mark.parametrize("key,extra", [
    ("circle.initial", ["-s", 'circle={"preset":"flat-circle","num":3,'
                        '"initial":{"x":[0.1,0.2],"u":[1,0.5],'
                        '"a":[0.2,0.3]}}']),
    ("geometry", ["-s", 'circle={"preset":"flat-circle","num":3}',
                  "-s", 'geometry={"name":"sphere","params":{"n":4}}']),
    ("backend", ["-s", 'circle={"preset":"flat-circle","num":3}',
                 "-s", 'backend={"mode":"fd","step":0.5}']),
], ids=["initial", "geometry", "backend"])
def test_circle_preset_with_initial_or_geometry_exit4(capsys, key, extra):
    """A preset fixes the geometry, its differentiation backend and the
    initial state, so giving any of them as well is a config error, not a
    run of the preset that ignores it."""
    assert cli.main(["circle"] + extra) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"circle.preset 'flat-circle' sets its own geometry and "
            f"initial state: {key} cannot be given with it") in captured.err


def test_negative_atol_exit4(capsys):
    """An absolute tolerance below 0 is a config error, not a traceback
    from the integrator; 0 stays valid."""
    assert cli.main(["circle", "-s", 'circle={"preset":"flat-circle"}',
                     "-s", 'tolerances={"atol":-1}']) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "-1 is less than the minimum of 0" in captured.err
    assert cli._schema_messages(_cfg(tolerances={"atol": 0})) == []


@pytest.mark.parametrize("rtol", [0, -1])
def test_nonpositive_rtol_exit4(capsys, rtol):
    """A relative tolerance at or below 0 is a config error, not a warning
    and a clamped run."""
    assert cli.main(["circle", "-s", 'circle={"preset":"flat-circle"}',
                     "-s", f'tolerances={{"rtol":{rtol}}}']) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{rtol} is less than or equal to the minimum of 0"
            in captured.err)


def test_zero_atol_on_a_zero_state_component_exit2(capsys):
    """atol = 0 on the flat circle, whose state has zero components, has
    no finite initial step: a numerical failure (exit 2) that names the
    stage, not a run that never ends."""
    assert cli.main(["circle", "-s",
                     'circle={"preset":"flat-circle","num":5}',
                     "-s", 'tolerances={"atol":0}']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "CircleIntegrationError" in captured.err
    assert "Initial step size is not finite" in captured.err
    assert "stage: circle integration" in captured.err


@pytest.mark.parametrize("text", [
    'circle={"preset":"flat-circle","t_span":[0,NaN]}',
    'backend={"mode":"fd","step":Infinity}', "seed=-Infinity"])
def test_non_finite_constants_are_config_errors(tmp_path, text):
    with pytest.raises(cli.ConfigError, match="is not a JSON number"):
        cli.load_config(overrides=[text])
    key, value = text.split("=", 1)
    path = tmp_path / "cfg.json"
    path.write_text('{"version": 1, "%s": %s}' % (key, value))
    with pytest.raises(cli.ConfigError, match="is not a JSON number"):
        cli.load_config(str(path))


def test_override_through_a_non_object_exit4(capsys, tmp_path):
    assert cli.main(["report", "-s", "geometry=1",
                     "-s", 'geometry.name="x"']) == 4
    assert ("'geometry', which is not an object"
            in capsys.readouterr().err)
    with pytest.raises(cli.ConfigError, match="'samples.points'"):
        cli.load_config(overrides=['samples={"points":[[0.1]]}',
                                   "samples.points.x=1"])
    path = tmp_path / "cfg.json"
    path.write_text("[1]")
    with pytest.raises(cli.ConfigError, match="the config, which is not"):
        cli.load_config(str(path), ["seed=1"])


def test_parser_is_reentrant(monkeypatch):
    """The parser is built once per process; its ``--set`` list starts
    empty on every call."""
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "report",
                        lambda cfg, args=None: seen.append(cfg) or 0)
    assert cli.main(["report", "-s", "seed=1"]) == 0
    assert cli.main(["report", "-s", "samples.count=2", "-s", "seed=3"]) == 0
    assert cli.main(["report"]) == 0
    assert seen == [{"version": 1, "seed": 1},
                    {"version": 1, "samples": {"count": 2}, "seed": 3},
                    {"version": 1}]
    assert cli.PARSER.get_default("set") == []


def test_cold_start_loads_neither_scipy_nor_jsonschema():
    """No command loads scipy, a circle integration included, and a
    report does not load jsonschema."""
    code = """if True:
        import contextlib, io, sys
        from tractorlab import cli
        runs = [
            ["report", "-s", 'geometry={"name":"cp2"}',
             "-s", 'embedding={"name":"cp1"}',
             "-s", 'samples={"points":[[0.2,-0.3],[0.1,0.15]]}'],
            ["residuals", "-s", 'geometry={"name":"s2s2"}',
             "-s", 'embedding={"name":"factor1"}',
             "-s", 'samples={"points":[[0.1,0.2]]}'],
            ["invariance", "-s", 'geometry={"name":"s2s2"}',
             "-s", 'embedding={"name":"factor1"}',
             "-s", 'invariance={"count":1}'],
            ["scan", "-s", 'geometry={"name":"euclidean","params":{"n":3}}',
             "-s", 'scan={"ky":{"name":"rotation","params":{"n":3}},'
                   '"grid":5}'],
            ["circle", "-s", 'geometry={"name":"sphere","params":{"n":3}}',
             "-s", 'circle={"initial":{"x":[0.1,0,0],"u":[1,0,0]},'
                   '"num":3,"t_span":[0,0.2]}'],
            ["circle", "-s", 'circle={"preset":"flat-circle","num":5,'
                             '"t_span":[0,1]}'],
            ["circle", "-s", 'circle={"preset":"sphere-great-circle",'
                             '"num":5}']]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            print(argv[0], rc, any(m.split(".")[0] == "scipy"
                                   for m in sys.modules),
                  "jsonschema" in sys.modules)
    """
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split("\n") == [
        f"{cmd} 0 False False" for cmd in
        ("report", "residuals", "invariance", "scan", "circle", "circle",
         "circle")] + [""]


def test_fd_backend_mode():
    rc, out, err = run_cli(
        "report", "-s", 'geometry={"name":"s2s2"}',
        "-s", 'embedding={"name":"factor1"}',
        "-s", 'backend={"mode":"fd"}',
        "-s", 'samples={"points":[[0.1,0.3]]}')
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["verdicts"]["distinguished"]
    assert doc["tolerance"] == pytest.approx(1e-3)


def test_config_file_roundtrip(tmp_path):
    cfg = {"version": 1,
           "geometry": {"name": "euclidean", "params": {"n": 3}},
           "embedding": {"name": "sphere", "params": {"radius": 1.0,
                                                      "n": 3}},
           "samples": {"points": [[0.2, -0.3]]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run_cli("report", "-c", str(path))
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["verdicts"]["umbilic"]
