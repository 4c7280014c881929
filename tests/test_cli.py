"""Command-line surface tests: determinism, formats, exit codes."""
import json
import subprocess
import sys

import numpy as np
import pytest

from tractorlab import cli
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
    env = dict(os.environ)
    env["TRACTORLAB_THREADS"] = "2"
    r = subprocess.run(
        [sys.executable, "-m", "tractorlab.cli", "report",
         "-s", 'geometry={"name":"s2s2"}',
         "-s", 'embedding={"name":"factor1"}',
         "-s", 'samples={"count":2}', "-s", "seed=7"],
        capture_output=True, text=True, env=env)
    assert r.returncode == 0
    _, out1, _ = run_cli("report", "-s", 'geometry={"name":"s2s2"}',
                         "-s", 'embedding={"name":"factor1"}',
                         "-s", 'samples={"count":2}', "-s", "seed=7")
    assert r.stdout == out1
