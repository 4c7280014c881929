#!/usr/bin/env python3
"""Per-call cost of order-2 curvature packs, at one point and on a stack,
and of a submanifold pack at one point.

    python3 tools/packbench.py [--repeat R]

Run from the root of a checkout; the program is imported from ``src/``.

For each chart (euclidean(3), sphere(3), hyperbolic(4), s2s2, cp2 and
s2xs1xr, near x = 0.11 (1, ..., 1)) it prints one row of a Markdown table,
in microseconds: an order-2 ``curvature_pack`` built at one point (at 16
distinct points in turn, the key of the last call dropped before each, so
that the flat chart, whose jets are the same everywhere, builds too), the
pack again at one point with the same jets (served from the stored pack),
its metric 2-jet and ``pack_from_jets`` on those jets, then the pack, the
2-jet and ``pack_from_jets`` per row of a stack of 16 points (x plus small
offsets), and last a ``submanifold_pack`` of the chart's catalog
embedding built at one point (at 16 distinct parameter points near q =
0.11 (1, ..., 1) in turn, the stored key dropped before each, as in the
first column).  Each figure is the least ``timeit`` time per call over R
(default 3) runs of 7 repeats of 200 calls.
The figures only print: they gate nothing, and they move with the load of
the machine, so compare two trees on the same machine, one after the other.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
import timeit
from pathlib import Path

# one BLAS thread, as in the benchmark, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tractorlab import geolib  # noqa: E402
from tractorlab.riemann import curvature_pack, pack_from_jets  # noqa: E402
from tractorlab.submanifold import submanifold_pack  # noqa: E402

# (chart, its geometry, the catalog entry and embedding of the submanifold
# pack column, the embedding's parameters)
CHARTS = [
    ("euclidean(3)", lambda: geolib.euclidean(3), "euclidean", "sphere", {}),
    ("sphere(3)", lambda: geolib.sphere(3), "sphere", "great", {"n": 3}),
    ("hyperbolic(4)", lambda: geolib.hyperbolic(4), "hyperbolic", "slice",
     {}),
    ("s2s2", geolib.s2s2, "s2s2", "factor1", {}),
    ("cp2", lambda: geolib.fubini_study(2), "cp2", "cp1", {}),
    ("s2xs1xr", geolib.s2xs1xr, "s2xs1xr", "s2xs1", {}),
]
ROWS = 16
REPEATS, NUMBER = 7, 200


def _per_call_us(fn, runs):
    """Least time per call of ``fn`` in microseconds."""
    best = min(min(timeit.repeat(fn, repeat=REPEATS, number=NUMBER))
               for _ in range(runs))
    return 1e6 * best / NUMBER


def measure(geo, emb, runs):
    """The eight figures of one chart: a pack built at one point, a pack
    with the same jets again, the 2-jet and ``pack_from_jets`` at one
    point, the pack, the 2-jet and ``pack_from_jets`` per row of the
    stack, then the submanifold pack of ``emb`` built at one point."""
    x = np.full(geo.n, 0.11)
    X = x + 0.01 * np.arange(ROWS)[:, None] / ROWS
    points = itertools.cycle(X)

    def build():
        geo._last_pack = (None, None)
        return curvature_pack(geo, next(points), order=2)

    out = [_per_call_us(build, runs),
           _per_call_us(lambda: curvature_pack(geo, x, order=2), runs)]
    for pts, rows in ((x, 1), (X, ROWS)):
        jets = geo.metric.jets(pts, 2)
        fns = [lambda: geo.metric.jets(pts, 2),
               lambda: pack_from_jets(geo, pts, jets)]
        if rows > 1:
            fns.insert(0, lambda: curvature_pack(geo, pts, order=2))
        out += [_per_call_us(fn, runs) / rows for fn in fns]

    q = np.full(emb.m, 0.11)
    params = itertools.cycle(q + 0.01 * np.arange(ROWS)[:, None] / ROWS)

    def build_sub():
        geo._last_pack = (None, None)
        return submanifold_pack(geo, emb, next(params))
    return out + [_per_call_us(build_sub, runs)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="timeit runs of 7 x 200 calls per figure")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print("| chart | pack, one point | same jets again | its metric 2-jet "
          "| `pack_from_jets` | pack per stacked row "
          "| 2-jet per stacked row | `pack_from_jets` per stacked row "
          "| submanifold pack, one point |")
    print("| --- |" + " ---: |" * 8)
    catalog = geolib.catalog()
    for name, make, entry, ename, params in CHARTS:
        emb = catalog[entry].embeddings[ename](**params)
        cells = " | ".join(f"{v:.0f}" for v in measure(make(), emb,
                                                       args.repeat))
        print(f"| {name} | {cells} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
