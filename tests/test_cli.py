"""Command-line surface tests: determinism, formats, exit codes."""
import contextlib
import io
import json
import subprocess
import sys
import types
from collections import Counter

import numpy as np
import pytest

from tractorlab import circles, cli, riemann, subtractor
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


def test_report_threads_deterministic():
    args = ("report", "-s", 'geometry={"name":"s2s2"}',
            "-s", 'embedding={"name":"factor1"}',
            "-s", 'samples={"count":2}', "-s", "seed=7")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args, "--threads", "2")
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


def test_circle_zero_velocity_exit2():
    rc, out, err = run_cli(
        "circle", "-s", 'geometry={"name":"euclidean","params":{"n":3}}',
        "-s",
        'circle={"initial":{"x":[0,0,0],"u":[0,0,0],"a":[0,0,0]}}')
    assert rc == 2
    assert "velocity" in err


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
    failed = types.SimpleNamespace(success=False, status=-1,
                                   message="required step size is too small")
    monkeypatch.setattr(circles, "solve_ivp", lambda *a, **k: failed)
    assert cli.main(["circle", "-s", 'circle={"preset":"flat-circle"}']) == 2
    err = capsys.readouterr().err
    assert "numerical failure: CircleIntegrationError" in err
    assert "step size" in err


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
    right-hand side, pinned so that a change shows in review: per output
    point one for A.A and the residual, and per rotation monitor one for
    the splitting and one shared by the Hodge star and the curve tractors
    (37 per point when the splitting differentiated ky_decompose by
    central differences)."""
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
    assert packs["other"] == 7 * num


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


def test_env_threads_override(monkeypatch):
    import os
    _, out1, _ = run_cli("report", "-s", 'geometry={"name":"s2s2"}',
                         "-s", 'embedding={"name":"factor1"}',
                         "-s", 'samples={"count":2}', "-s", "seed=7")
    # TRACTORLAB_THREADS is not read: any value, even a malformed one,
    # leaves the report unchanged
    for value in ("2", "abc"):
        env = dict(os.environ)
        env["TRACTORLAB_THREADS"] = value
        r = subprocess.run(
            [sys.executable, "-m", "tractorlab.cli", "report",
             "-s", 'geometry={"name":"s2s2"}',
             "-s", 'embedding={"name":"factor1"}',
             "-s", 'samples={"count":2}', "-s", "seed=7"],
            capture_output=True, text=True, env=env)
        assert r.returncode == 0, (value, r.stderr)
        assert r.stdout == out1
