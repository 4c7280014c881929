#!/usr/bin/env python3
"""tractorlab benchmark: one workload per run, closed loop, in process.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each operation is one
``tractorlab.cli.main([...])`` call with stdout captured and parsed; every
output is checked against references computed here (see README.md).  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; --threads stays at its
# default of 1 (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TRACTORLAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import Checks  # noqa: E402
from workloads import build_round, warmup_ops  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

# Wall time of one round of each workload at the commit that added the
# benchmark, on the 2-core reference machine.  A run does --seconds /
# ROUND_S whole rounds, rounded half up (at least MIN_ROUNDS), so it is a
# fixed sequence of operations that measures about --seconds there.
ROUND_S = {"classify": 3.2, "classify-fd": 7.5, "circles-integrals": 2.9}
MIN_ROUNDS = 2
SETUP_REPEATS = 3

# Time of calibrate() on the reference machine.  Every timed interval is
# bracketed by calibrate(), and sampled by it every SAMPLE_S while it runs;
# it is reported as (wall time - sampling time) * CAL_REF_S / (mean
# calibration): seconds at the reference machine's speed.  The shared
# 2-core machine changes speed by tens of percent within a minute, mostly
# uniformly across the program's code; the kernel tracks that and does not
# touch tractorlab, so the program's own speed-ups still show in full.
CAL_REF_S = 0.0020
SAMPLE_S = 0.25


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("classify", "classify-fd", "circles-integrals"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    if not (SRC / "tractorlab" / "cli.py").is_file():
        raise BenchError(f"no tractorlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tractorlab
    from tractorlab import cli
    if not Path(tractorlab.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"tractorlab imported from {tractorlab.__file__}, "
                         f"not from {SRC}")
    return cli


def _kernel():
    # interpreter-bound loop plus small numpy calls, the same mix of work
    # as the program's jets and curvature code
    acc = 0.0
    xs = [i * 1e-3 for i in range(300)]
    for _ in range(30):
        d = {}
        for i, x in enumerate(xs):
            v = x * 1.0001 + acc * 1e-9
            d[i] = v
            acc += v * 0.5
    import numpy as np
    a, e = np.eye(4) * 0.5, np.eye(4)
    for _ in range(300):
        a = np.einsum("ij,jk->ik", a, e) + 1e-3
    return acc


def calibrate():
    """Best of three timings of the calibration kernel."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times intervals in wall seconds and in reference seconds."""

    def __init__(self):
        self.cal = calibrate()

    def timed(self, fn, *args, sample=True, **kwargs):
        """(result, wall s, reference s) of ``fn(*args, **kwargs)``.

        With ``sample`` a timer signal runs calibrate() every SAMPLE_S
        inside the interval, so a long operation is calibrated against the
        speed it ran at; the sampling time is taken out of the interval.
        """
        cals, spent = [self.cal], 0.0

        def on_alarm(signum, frame):
            nonlocal spent
            t = time.perf_counter()
            cals.append(calibrate())
            spent += time.perf_counter() - t

        if sample:
            old = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        self.cal = calibrate()
        cals.append(self.cal)
        wall -= spent
        return result, wall, wall * CAL_REF_S / statistics.fmean(cals)


def measure_setup(clock, workload, seed):
    """Median time of fresh interpreters that import the CLI and build the
    workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        # no sampling: the probe runs in another process, on either core
        r, _, ref = clock.timed(
            subprocess.run, [sys.executable, str(HERE / "setup_probe.py"),
                             workload, str(seed)], sample=False,
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120)
        times.append(ref)
        if r.returncode != 0:
            raise BenchError(f"set-up probe failed: {r.stderr.strip()}")
    return statistics.median(times)


def call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def run_op(clock, cli, op):
    """(exit code, wall s, reference s, stdout, stderr) of one operation."""
    (rc, stdout, stderr), wall, ref = clock.timed(call_cli, cli, op.argv)
    return rc, wall, ref, stdout, stderr


def check_op(op, stdout):
    """Checks of one completed operation (see checks.Checks)."""
    csv_text = None
    try:
        if op.csv_path:
            csv_text = Path(op.csv_path).read_text()
        return op.check(json.loads(stdout), csv_text)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        c = Checks()
        c.require("output", False, f"{type(e).__name__}: {e}")
        return c
    finally:
        if op.csv_path and os.path.exists(op.csv_path):
            os.remove(op.csv_path)


class Tally:
    def __init__(self):
        self.wall = []
        self.times = []
        self.by_case = defaultdict(list)
        self.accuracy = []
        self.residual = []
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def add(self, op, rc, wall, dt, stdout, stderr, timed=True):
        if timed:
            self.attempted += 1
        if rc != 0:
            if timed:
                self.failed += 1
            self.failures.append(f"{op.case}: exit {rc}: {stderr.strip()}")
            return
        c = check_op(op, stdout)
        self.accuracy += [(d, f"{op.case}: {n}") for d, n in c.accuracy]
        self.residual += [(d, f"{op.case}: {n}") for d, n in c.residual]
        self.failures += [f"{op.case}: {f}" for f in c.failures]
        if timed:
            self.wall.append(wall)
            self.times.append(dt)
            self.by_case[f"{op.kind} {op.case}"].append(dt)


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = import_program()
        OUT.mkdir(exist_ok=True)
        clock = Clock()
        setup_s = None if args.trace else measure_setup(clock, args.workload,
                                                        args.seed)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    tally = Tally()
    for op in warmup_ops(args.workload, args.seed, OUT):
        tally.add(op, *run_op(clock, cli, op), timed=False)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    traced, untraced = [], []
    rounds = max(MIN_ROUNDS, int(args.seconds / ROUND_S[args.workload] + 0.5))
    t_start = time.perf_counter()
    for rnd in range(rounds):
        # the traced run alternates untraced and traced rounds, so the
        # overhead ratio compares the same case mix
        on = tracer is not None and rnd % 2 == 1
        if on:
            tracer.install()
        for op in build_round(args.workload, args.seed, rnd, OUT):
            if on:
                tracer.begin_op()
            rc, wall, dt, stdout, stderr = run_op(clock, cli, op)
            (traced if on else untraced).append(dt)
            tally.add(op, rc, wall, dt, stdout, stderr)
        if on:
            tracer.uninstall()
    wall = time.perf_counter() - t_start

    for f in tally.failures[:20]:
        print(f"perfbench: FAIL {f}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{tally.attempted} operations in {wall:.1f} s", file=sys.stderr)
    for case, ts in sorted(tally.by_case.items()):
        print(f"perfbench:   {case:48s} n={len(ts):3d} "
              f"median {statistics.median(ts):.4f} s", file=sys.stderr)
    if not tally.times:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    accuracy, residual = min(tally.accuracy), min(tally.residual)
    print(f"perfbench: worst accuracy {accuracy[0]:.3f} digits ({accuracy[1]})"
          f"; worst residual {residual[0]:.3f} digits ({residual[1]})",
          file=sys.stderr)

    if tracer is not None:
        metrics = tracer.per_layer(len(traced),
                                   statistics.fmean(traced),
                                   statistics.fmean(untraced))
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.npz")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s.p50": {"value": statistics.median(tally.times),
                         "unit": "s"},
            "ops_per_s": {"value": len(tally.times) / sum(tally.times),
                          "unit": "1/s"},
            "rss_peak_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "accuracy_digits": {"value": accuracy[0], "unit": "digits"},
            "residual_digits": {"value": residual[0], "unit": "digits"},
        }
    print(f"perfbench: op_s.p50 over {len(tally.times)} operations; wall "
          f"median {statistics.median(tally.wall):.4f} s, reference median "
          f"{statistics.median(tally.times):.4f} s", file=sys.stderr)
    print(json.dumps({"correct": not tally.failures,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
