#!/usr/bin/env python3
"""Checked-in output gate for the command-line program.

    python3 tools/golden.py record [--rtol R]
    python3 tools/golden.py check [--exact]
    python3 tools/golden.py spread SETTING [SETTING ...]

Run from the root of a checkout; the program is imported from ``src/``.

``record`` runs a fixed list of ``tractorlab`` commands in process and
writes, for each, its argv, exit code, stdout verbatim and, for a command
that writes a CSV, the CSV's row count and SHA-256, to
``tests/golden/corpus.json``.  The commands are rounds 0 and 1 of the three
benchmark workloads at seeds 1 and 2 (their argv as
``perfbench/workloads.py`` generates them), the scans in ``SCANS`` and the
reports and residuals in ``CONTEXTS``.
A CSV path is stored as ``{out}/<name>`` and written under a temporary
directory when the command runs.

``check`` runs the corpus's commands on this tree and compares.  With
``--exact`` exit codes, stdout bytes and CSV digests must be equal.  The
default mode parses stdout as JSON and compares keys, strings, booleans,
integers and nulls exactly and every float a, b within
``rtol * max(1, |a|, |b|)`` (so round-off residuals near 0 are compared
absolutely); for a CSV only the row count is compared.  ``rtol`` is stored
in the corpus.  It is the largest such spread measured between
numpy dispatch and BLAS kernel settings on one host: ``spread`` runs
``check --measure`` under each setting given and prints the largest scaled
float difference it saw.  A setting ``VAR=value`` sets that environment
variable (for example ``OPENBLAS_CORETYPE=Haswell``); any other setting is
a value of ``NPY_DISABLE_CPU_FEATURES`` (``""`` is the default dispatch).

Exit status: 0 when every command matches, 1 otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as in the benchmark, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "corpus.json"
OUT = "{out}"

# Scans beyond the workloads' flat rotation scans: the degenerate isolated
# zero, a curved locus, a round-sphere locus, a fine flat grid and the
# timelike short circuit.
SCANS = [
    ("euclidean", {"n": 3}, "special_conformal", {"n": 3}, 9),
    ("euclidean", {"n": 3}, "hyperbolic_scale", {"n": 3}, 13),
    ("sphere", {"n": 4}, "rotation", {"n": 4}, 9),
    ("euclidean", {"n": 4}, "rotation", None, 41),
    ("euclidean", {"n": 3}, "dilation", {"n": 3}, 11),
]

# Context commands beyond the workloads': a report on an m = 3 graph in flat
# 5-space, whose normal tractor bundle is curved (the workloads' m = 3
# reports have flat ones); a report that draws its sample points; and the
# residuals of s2xs1 in s2xs1xr at the point CI bounds, whose tractor
# Gauss-Codazzi-Ricci residuals read the tractor curvature.
CONTEXTS = [
    ("report", "euclidean", {"n": 5}, "graph", {"n": 5, "m": 3, "seed": 0},
     {"points": [[0.1, -0.2, 0.15]]}),
    ("report", "cp2", None, "cp1", None, {"count": 4}),
    ("residuals", "s2xs1xr", None, "s2xs1", None,
     {"points": [[0.2, -0.3, 0.1]]}),
]


def _spec(name, params):
    return {"name": name, "params": params} if params else {"name": name}


def commands():
    """argv of every corpus command, CSV paths under ``{out}``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, build_round
    out = []
    for workload in WORKLOADS:
        for seed in (1, 2):
            for rnd in (0, 1):
                for op in build_round(workload, seed, rnd, OUT):
                    out.append(list(op.argv))
    for geo, gparams, ky, kparams, grid in SCANS:
        out.append(["scan",
                    "-s", "geometry=" + json.dumps(_spec(geo, gparams)),
                    "-s", "scan=" + json.dumps({"ky": _spec(ky, kparams),
                                                "grid": grid})])
    for command, geo, gparams, emb, eparams, samples in CONTEXTS:
        out.append([command,
                    "-s", "geometry=" + json.dumps(_spec(geo, gparams)),
                    "-s", "embedding=" + json.dumps(_spec(emb, eparams)),
                    "-s", "samples=" + json.dumps(samples)])
    return out


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from tractorlab import cli
    return cli


def run(argv, cli=None):
    """One command in process: {"argv", "exit", "stdout", "csv"}."""
    cli = cli or _import_cli()
    with tempfile.TemporaryDirectory() as tmp:
        real = [a.replace(OUT, tmp) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(real)
        csv = None
        for a in argv:
            if OUT in a:
                path = Path(json.loads(a.split("=", 1)[1])["csv_path"]
                            .replace(OUT, tmp))
                data = path.read_bytes()
                csv = {"rows": data.count(b"\n") - 1,
                       "sha256": hashlib.sha256(data).hexdigest()}
    return {"argv": argv, "exit": rc, "stdout": out.getvalue(), "csv": csv}


def _scaled(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _walk(a, b, path, rtol, diffs, worst):
    """Append mismatches of JSON values a (recorded) and b (observed) to
    ``diffs``; ``worst[0]`` keeps the largest scaled float difference."""
    if isinstance(a, float) and isinstance(b, float):
        d = _scaled(a, b) if math.isfinite(a) and math.isfinite(b) else (
            0.0 if repr(a) == repr(b) else math.inf)
        worst[0] = max(worst[0], d)
        if d > rtol:
            diffs.append(f"{path}: {a!r} -> {b!r}")
    elif type(a) is not type(b):
        diffs.append(f"{path}: {a!r} -> {b!r}")
    elif isinstance(a, dict):
        if sorted(a) != sorted(b):
            diffs.append(f"{path}: keys {sorted(a)} -> {sorted(b)}")
        else:
            for k in a:
                _walk(a[k], b[k], f"{path}.{k}", rtol, diffs, worst)
    elif isinstance(a, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} -> {len(b)}")
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                _walk(x, y, f"{path}[{i}]", rtol, diffs, worst)
    elif a != b:
        diffs.append(f"{path}: {a!r} -> {b!r}")


def compare(rec, obs, rtol, exact=False, worst=None):
    """Mismatches between a recorded and an observed command result."""
    worst = worst if worst is not None else [0.0]
    diffs = []
    if rec["exit"] != obs["exit"]:
        diffs.append(f"exit {rec['exit']} -> {obs['exit']}")
    if (rec["csv"] is None) != (obs["csv"] is None):
        diffs.append(f"csv {rec['csv']} -> {obs['csv']}")
    elif rec["csv"] is not None:
        keys = ("rows", "sha256") if exact else ("rows",)
        for k in keys:
            if rec["csv"][k] != obs["csv"][k]:
                diffs.append(f"csv {k} {rec['csv'][k]} -> {obs['csv'][k]}")
    if exact:
        if rec["stdout"] != obs["stdout"]:
            diffs.append("stdout bytes differ")
        return diffs
    try:
        a, b = json.loads(rec["stdout"]), json.loads(obs["stdout"])
    except json.JSONDecodeError:
        if rec["stdout"] != obs["stdout"]:
            diffs.append("stdout differs (not JSON)")
        return diffs
    _walk(a, b, "stdout", rtol, diffs, worst)
    return diffs


def load(path=CORPUS):
    with open(path) as f:
        return json.load(f)


def cmd_record(args):
    old = load(args.corpus) if Path(args.corpus).is_file() else {}
    rtol = args.rtol if args.rtol is not None else old.get("rtol")
    if rtol is None:
        print("golden: no rtol in the corpus; give --rtol", file=sys.stderr)
        return 1
    cli = _import_cli()
    entries = [run(argv, cli) for argv in commands()]
    Path(args.corpus).parent.mkdir(parents=True, exist_ok=True)
    with open(args.corpus, "w", newline="\n") as f:
        json.dump({"rtol": rtol, "commands": entries}, f, indent=1)
        f.write("\n")
    print(f"golden: recorded {len(entries)} commands", file=sys.stderr)
    return 0


def cmd_check(args):
    corpus = load(args.corpus)
    cli = _import_cli()
    worst = [0.0]
    bad = 0
    for rec in corpus["commands"]:
        obs = run(rec["argv"], cli)
        diffs = compare(rec, obs, corpus["rtol"], args.exact, worst)
        if diffs:
            bad += 1
            print(f"golden: MISMATCH {' '.join(rec['argv'][:1])} "
                  f"{rec['argv'][1:]}", file=sys.stderr)
            for d in diffs[:10]:
                print(f"    {d}", file=sys.stderr)
    mode = "exact" if args.exact else f"rtol {corpus['rtol']:g}"
    print(f"golden: {len(corpus['commands']) - bad} of "
          f"{len(corpus['commands'])} commands match ({mode}); largest "
          f"scaled float difference {worst[0]:.3g}", file=sys.stderr)
    if args.measure:
        print(json.dumps({"mismatches": bad, "spread": worst[0]}))
        return 0
    return 1 if bad else 0


def cmd_spread(args):
    spread = 0.0
    for setting in args.settings:
        var, eq, value = setting.partition("=")
        env = dict(os.environ, **({var: value} if eq else
                                  {"NPY_DISABLE_CPU_FEATURES": setting}))
        r = subprocess.run([sys.executable, __file__, "--corpus",
                            str(args.corpus), "check", "--measure"],
                           env=env, capture_output=True, text=True)
        if r.returncode != 0:
            print(r.stderr, file=sys.stderr)
            return 1
        got = json.loads(r.stdout.strip().splitlines()[-1])
        print(f"golden: {setting!r}: {got}",
              file=sys.stderr)
        spread = max(spread, got["spread"])
    print(json.dumps({"spread": spread}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--corpus", default=str(CORPUS))
    sub = p.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--rtol", type=float)
    chk = sub.add_parser("check")
    chk.add_argument("--exact", action="store_true")
    chk.add_argument("--measure", action="store_true",
                     help="print the largest scaled float difference as "
                          "JSON and exit 0")
    spr = sub.add_parser("spread")
    spr.add_argument("settings", nargs="+")
    args = p.parse_args(argv)
    return {"record": cmd_record, "check": cmd_check,
            "spread": cmd_spread}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
