"""The tracer counts a hand-countable case exactly, rebinds names imported
into other modules, restores everything, and leaves stdout unchanged."""
import contextlib
import io
import json

import numpy as np

from tractorlab import circles, cli, riemann, submanifold, subtractor
from tractorlab.tensors import FD, ArrayField, DiffBackend

from tracer import Tracer

CIRCLE = ["circle", "-s", 'geometry={"name":"s2s2"}',
          "-s", 'circle={"initial":{"x":[0.1,-0.2,0,0],"u":[1,0.3,0,0],'
                '"a":[0.2,0.5,0,0]},"t_span":[0,0.5],"num":7}']
REPORT = ["report", "-s", 'geometry={"name":"s2s2"}',
          "-s", 'embedding={"name":"factor1"}',
          "-s", 'samples={"points":[[0.2,-0.1]]}']


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _traced(argv):
    t = Tracer()
    t.install()
    try:
        t.begin_op()
        return t, _run(argv)
    finally:
        t.uninstall()


def test_circle_pack_count_is_rhs_plus_rows():
    t, out = _traced(CIRCLE)
    rows = json.loads(out)["csv_rows"]
    assert rows == 7
    assert t.counts["circles.rhs"] > 0
    # one order-2 pack per right-hand side evaluation, one per output row
    assert t.counts["riemann.pack.o2"] == t.counts["circles.rhs"] + rows
    assert t.counts["riemann.pack.o3"] == 0
    # each pack evaluates the metric jets once, at order 2
    assert t.counts["jets.eval.o2"] == t.counts["riemann.pack.o2"]


def test_fd_stencil_points():
    field = ArrayField(lambda x: np.array(x @ x),
                       backend=DiffBackend(mode=FD))
    t = Tracer()
    t.install()
    try:
        field.jets(np.array([0.1, 0.2]), 2)
    finally:
        t.uninstall()
    # value at x, then _fd1 (1 + 2n) and _fd2 (1 + 2n + 4 n(n-1)/2), n = 2
    assert t.counts["tensors.fd_points"] == 1 + 5 + 9
    assert t.counts["jets.value"] == 0
    assert t.self_time["tensors"] > 0.0


def test_counts_repeat_exactly():
    a, _ = _traced(REPORT)
    b, _ = _traced(REPORT)
    assert a.counts == b.counts
    assert a.counts["subtractor.contexts"] > 0
    assert a.counts["submanifold.pack"] > 0


def test_install_rebinds_imported_names_and_uninstall_restores():
    originals = (riemann.curvature_pack, submanifold.curvature_pack,
                 subtractor.curvature_pack, circles.curvature_pack,
                 ArrayField.value, cli.load_config)
    t = Tracer()
    t.install()
    try:
        for f in (riemann.curvature_pack, submanifold.curvature_pack,
                  subtractor.curvature_pack, circles.curvature_pack,
                  ArrayField.value, cli.load_config):
            assert getattr(f, "__traced__", False)
        assert "__init_subclass__" in vars(ArrayField)
    finally:
        t.uninstall()
    assert (riemann.curvature_pack, submanifold.curvature_pack,
            subtractor.curvature_pack, circles.curvature_pack,
            ArrayField.value, cli.load_config) == originals
    assert "__init_subclass__" not in vars(ArrayField)


def test_self_time_partitions_the_operation():
    t, _ = _traced(REPORT)
    main = t.total_time["cli.main"]
    assert abs(sum(t.self_time.values()) - main) < 1e-9 * max(1.0, main) + 1e-9


def test_traced_stdout_is_byte_identical():
    for argv in (REPORT, CIRCLE):
        plain = _run(argv)
        _, traced = _traced(argv)
        assert traced == plain
