"""Command-line surface: classification reports, circle integration,
invariance tests and zero-locus scans with machine-readable output.

Exit codes: 0 success, 2 numerical failure (a ``NumericalError`` or a
``numpy.linalg.LinAlgError``), 3 unknown catalog name, 4 config error (a
usage error, an unreadable config file or a schema error).
A numerical failure prints ``numerical failure: <type>: <message>`` on
stderr and, where the command knows them, a second line ``stage: ...``
naming the stage and point: the sample index and q of ``report``,
``invariance`` and ``residuals``, the integration time or output point t of
``circle``, and the grid, seed refinement or locus point of ``scan``.
Any other exception is a defect and propagates with its traceback.

A config is JSON without NaN or ±Infinity, checked against ``SCHEMA`` by a
small validator that gives jsonschema's Draft 7 messages, except that an
integer is a JSON number without a fraction or exponent: ``2.0`` is not
one.  An override ``-s a.b=value`` whose ``a`` is not an object is a config
error.  No command loads scipy: ``circle`` steps DOP853 itself.  The
argument parser is built once per process.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import circles, firstint, geolib, riemann, subtractor
from . import tractor as tr
from .tensors import FD, ArrayField, DiffBackend, NumericalError, stage

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["version"],
    "properties": {
        "version": {"const": 1},
        "seed": {"type": "integer"},
        "geometry": {
            "type": "object", "additionalProperties": False,
            "required": ["name"],
            "properties": {"name": {"type": "string"},
                           "params": {"type": "object"}}},
        "embedding": {
            "type": "object", "additionalProperties": False,
            "required": ["name"],
            "properties": {"name": {"type": "string"},
                           "params": {"type": "object"}}},
        "backend": {
            "type": "object", "additionalProperties": False,
            "properties": {"mode": {"enum": ["analytic", "fd"]},
                           "step": {"type": "number",
                                    "exclusiveMinimum": 0},
                           "step3": {"type": "number",
                                     "exclusiveMinimum": 0}}},
        "samples": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "points": {"type": "array", "minItems": 1,
                           "items": {"type": "array",
                                     "items": {"type": "number"}}},
                "count": {"type": "integer", "minimum": 1},
                "box": {"type": "array",
                        "items": {"type": "array",
                                  "items": {"type": "number"},
                                  "minItems": 2, "maxItems": 2}}}},
        "tolerances": {
            "type": "object", "additionalProperties": False,
            "properties": {"classify": {"type": ["number", "null"]},
                           "rtol": {"type": "number",
                                    "exclusiveMinimum": 0},
                           "atol": {"type": "number", "minimum": 0}}},
        "circle": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "preset": {"enum": ["flat-circle", "sphere-great-circle",
                                    None]},
                "initial": {
                    "type": "object", "additionalProperties": False,
                    "properties": {"x": {"type": "array"},
                                   "u": {"type": "array"},
                                   "a": {"type": "array"}}},
                "t_span": {"type": "array", "items": {"type": "number"},
                           "minItems": 2, "maxItems": 2},
                "num": {"type": "integer", "minimum": 2}}},
        "invariance": {
            "type": "object", "additionalProperties": False,
            "properties": {"count": {"type": "integer", "minimum": 1},
                           "amplitude": {"type": "number"}}},
        "scan": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "ky": {"type": "object", "additionalProperties": False,
                       "required": ["name"],
                       "properties": {"name": {"type": "string"},
                                      "params": {"type": "object"}}},
                "region": {"type": "array",
                           "items": {"type": "array",
                                     "items": {"type": "number"},
                                     "minItems": 2, "maxItems": 2}},
                "grid": {"type": "integer", "minimum": 3}}},
        "output": {
            "type": "object", "additionalProperties": False,
            "properties": {"path": {"type": ["string", "null"]},
                           "csv_path": {"type": ["string", "null"]}}},
    },
}


class ConfigError(ValueError):
    pass


class UnknownCatalogError(KeyError):
    pass


def load_config(path=None, overrides=()):
    cfg = {"version": 1}
    if path:
        try:
            with open(path) as f:
                cfg = json.load(f, parse_constant=_reject_constant)
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read {path}: {e}") from e
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not dotted.path=value")
        key, val = ov.split("=", 1)
        _set_dotted(cfg, key.split("."),
                    json.loads(val, parse_constant=_reject_constant))
    errs = _schema_messages(cfg)
    if errs:
        raise ConfigError("; ".join(errs))
    return cfg


def _reject_constant(name):
    raise ConfigError(f"{name} is not a JSON number")


def _set_dotted(d, keys, value):
    for depth, k in enumerate(keys):
        if not isinstance(d, dict):
            where = repr(".".join(keys[:depth])) if depth else "the config"
            raise ConfigError(f"override {'.'.join(keys)!r} sets a key in "
                              f"{where}, which is not an object")
        if depth < len(keys) - 1:
            d = d.setdefault(k, {})
    d[keys[-1]] = value


# JSON Schema types.  An integer is a Python int: Draft 7 also counts an
# integral float such as 2.0, which range() and the like then reject.
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}


def _json_equal(a, b):
    """JSON equality of scalars: true is not 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_messages(cfg):
    """The messages of the config's schema errors, sorted by path."""
    return [message for _, message in sorted(_schema_errors(cfg, SCHEMA),
                                             key=lambda e: e[0])]


def _schema_errors(value, schema, path=()):
    """Yield (path, message) for each violation of ``schema`` by ``value``,
    in the order of the schema's keywords, with the messages of jsonschema's
    Draft 7 validator.  Only the keywords ``SCHEMA`` uses are known."""
    for key, arg in schema.items():
        if key == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_JSON_TYPES[t](value) for t in types):
                yield path, (f"{value!r} is not of type "
                             f"{', '.join(map(repr, types))}")
        elif key == "const":
            if not _json_equal(value, arg):
                yield path, f"{arg!r} was expected"
        elif key == "enum":
            if not any(_json_equal(value, e) for e in arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif key in ("required", "additionalProperties", "properties"):
            if not isinstance(value, dict):
                continue
            if key == "required":
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
            elif key == "properties":
                for name, sub in arg.items():
                    if name in value:
                        yield from _schema_errors(value[name], sub,
                                                  path + (name,))
            elif arg is False:
                extra = sorted(set(value) - set(schema.get("properties", {})))
                if extra:
                    yield path, ("Additional properties are not allowed "
                                 f"({', '.join(map(repr, extra))} "
                                 f"{'was' if len(extra) == 1 else 'were'} "
                                 "unexpected)")
            else:
                raise ValueError("additionalProperties must be false")
        elif key in ("items", "minItems", "maxItems"):
            if not isinstance(value, list):
                continue
            if key == "items":
                for i, item in enumerate(value):
                    yield from _schema_errors(item, arg, path + (i,))
            elif key == "minItems" and len(value) < arg:
                yield path, (f"{value!r} should be non-empty" if arg == 1
                             else f"{value!r} is too short")
            elif key == "maxItems" and len(value) > arg:
                yield path, f"{value!r} is too long"
        elif key in ("minimum", "exclusiveMinimum"):
            if not _JSON_TYPES["number"](value):
                continue
            if key == "minimum" and value < arg:
                yield path, f"{value!r} is less than the minimum of {arg!r}"
            elif key == "exclusiveMinimum" and value <= arg:
                yield path, (f"{value!r} is less than or equal to the "
                             f"minimum of {arg!r}")
        else:
            raise ValueError(f"schema keyword {key!r} is not supported")


def build_geometry(cfg):
    entries = geolib.catalog()
    gspec = cfg.get("geometry", {"name": "euclidean"})
    name = gspec["name"]
    if name not in entries:
        raise UnknownCatalogError(f"unknown geometry {name!r}")
    geo = entries[name].make_geometry(**gspec.get("params", {}))
    backend = cfg.get("backend", {})
    if backend.get("mode") == "fd":
        geo = as_fd_geometry(geo, **{k: backend[k] for k in ("step", "step3")
                                     if k in backend})
    return geo, entries[name]


def as_fd_geometry(geo, **steps):
    """``geo`` with its metric differenced by the FD backend; ``steps`` are
    ``DiffBackend``'s ``step`` and ``step3``, its defaults where absent."""
    fd_metric = ArrayField(geo.metric.value,
                           backend=DiffBackend(mode=FD, **steps))
    # the whole stencil in one evaluation of the metric
    fd_metric.values = geo.metric.values
    return riemann.GeometrySpec(n=geo.n, metric=fd_metric,
                                orientation=geo.orientation,
                                mobius_schouten=geo.mobius_schouten)


def build_embedding(cfg, entry, geo):
    espec = cfg.get("embedding")
    if espec is None:
        raise ConfigError("this command needs an embedding")
    name = espec["name"]
    if name not in entry.embeddings:
        raise UnknownCatalogError(
            f"unknown embedding {name!r} for geometry {entry.name!r}")
    emb = entry.embeddings[name](**espec.get("params", {}))
    if emb.n != geo.n:
        raise ConfigError(f"embedding {name!r} has ambient dimension "
                          f"{emb.n}, the geometry has {geo.n}")
    return emb


def build_ky(cfg, entry, geo):
    kspec = cfg.get("scan", {}).get("ky")
    if kspec is None:
        raise ConfigError("scan needs a ky form")
    name = kspec["name"]
    if name not in entry.ky_forms:
        raise UnknownCatalogError(
            f"unknown ky form {name!r} for geometry {entry.name!r}")
    form = entry.ky_forms[name](**kspec.get("params", {}))
    if form.n != geo.n:
        raise ConfigError(f"ky form {name!r} has dimension {form.n}, "
                          f"the geometry has {geo.n}")
    return form


def sample_points(cfg, m, seed):
    sc = cfg.get("samples", {})
    if "points" in sc:
        pts = [np.asarray(p, dtype=float) for p in sc["points"]]
        if any(p.shape != (m,) for p in pts):
            raise ConfigError(f"every sample point needs {m} coordinates")
        return pts
    count = sc.get("count", 3)
    box = sc.get("box", [[-0.3, 0.3]] * m)
    if len(box) != m:
        raise ConfigError(f"the sample box needs {m} intervals")
    rng = np.random.default_rng(seed)
    return [np.array([rng.uniform(lo, hi) for lo, hi in box])
            for _ in range(count)]


# --------------------------------------------------------------------------
# deterministic serialisation
# --------------------------------------------------------------------------

def _round_floats(obj):
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not math.isfinite(v):
            return repr(v)
        return float(f"{v:.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(obj, path=None):
    text = json.dumps(_round_floats(obj), sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"
    if path:
        with open(path, "w", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def dump_csv(rows, header, path=None):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(out, quoting=csv.QUOTE_MINIMAL)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12g}" if isinstance(v, float) else v
                        for v in row])
    finally:
        if path:
            out.close()


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _contexts(cfg, geo, emb, seed):
    """One SubTractorContext per sample point."""
    out = []
    for i, q in enumerate(sample_points(cfg, emb.m, seed)):
        with stage(f"sample {i}", q=q):
            out.append(subtractor.SubTractorContext(geo, emb, q))
    return out


def _gcr_row(ctx):
    """Riemannian and (m >= 3) tractor Gauss-Codazzi-Ricci residuals."""
    row = {"gcr": list(map(
        float, subtractor.gauss_codazzi_ricci_residuals(ctx)))}
    if ctx.m >= 3:
        row["tractor_gcr"] = list(map(
            float, subtractor.tractor_gcr_residuals(ctx)))
    return row


def _max_diff(a, b):
    return float(np.abs(a - b).max())


def cmd_report(cfg, args=None):
    geo, entry = build_geometry(cfg)
    emb = build_embedding(cfg, entry, geo)
    seed = int(cfg.get("seed", 0))
    ctxs = _contexts(cfg, geo, emb, seed)
    tol = cfg.get("tolerances", {}).get("classify")
    doc = subtractor.classify(ctxs, tol=tol).to_dict()
    for i, (row, ctx) in enumerate(zip(doc["per_sample"], ctxs)):
        with stage(f"sample {i}", q=ctx.q):
            _report_row(row, ctx)
    doc["geometry"] = cfg.get("geometry")
    doc["embedding"] = cfg.get("embedding")
    doc["seed"] = seed
    # headline Fialkow coefficient (mean over samples)
    doc["fialkow_coefficient"] = float(np.mean(
        [r["fialkow_coefficient"] for r in doc["per_sample"]]))
    dump_json(doc, cfg.get("output", {}).get("path"))
    return 0


def _report_row(row, ctx):
    """The residuals of a report row beyond the classification."""
    row.update(_gcr_row(ctx))
    row["L_dual_route_residual"] = _max_diff(ctx.L_explicit(), ctx.L_dual())
    if ctx.m >= 2:
        row["mu_weyl_residual"] = _max_diff(ctx.mu(), ctx.mu_weyl())
    if ctx.m >= 3:
        row["fialkow_weyl_residual"] = _max_diff(ctx.fialkow()[0],
                                                 ctx.fialkow_weyl())
    if ctx.m == 2:
        # Moebius-flatness diagnostic; not used in verdicts
        row["mobius_cotton_norm"] = float(np.abs(ctx.mobius_cotton()).max())


# A custom circle on a chart with a boundary stops at this fraction of the
# chart's radius from it: each tenfold approach costs some 430 right-hand
# sides on the Poincare ball, so 1e-6 takes about 2 500 in all.
CHART_MARGIN = 1e-6
# A circle on a chart that is all of R^n stops where a coordinate reaches
# this bound: through the point a stereographic chart leaves out, it runs
# off to infinity.
CHART_BOUND = 100.0


def _circle_preset(cfg):
    circ = cfg.get("circle", {})
    preset = circ.get("preset")
    if preset == "flat-circle":
        geo = geolib.euclidean(3)
        st = circles.CurveState([0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0])
        span = tuple(circ.get("t_span", (0.0, 10.0)))
        forms = {f"rotation{i}{j}": geolib.rotation_form(3, i, j)
                 for i, j in [(0, 1), (0, 2), (1, 2)]}
        monitors = dict(zip(forms, _rotation_monitors(list(forms.values()))))
        return geo, st, span, monitors, _flat_circle_summary, None
    if preset == "sphere-great-circle":
        geo = geolib.sphere(4)
        st = circles.CurveState([0.2, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                [0.3, 0.0, 0.0, 0.0])
        span = tuple(circ.get("t_span", (0.0, 5.0)))
        return geo, st, span, {}, _sphere_summary, CHART_BOUND
    return None


def _rotation_monitors(kspecs):
    """First integrals <star K, Phi>/3! of Killing 2-forms ``kspecs``, one
    monitor each; the splitting, the Hodge star and the curve tractors read
    the curvature pack the integrator built at the output point.  Star K
    carries down tractor indices and Phi up ones, so they pair through J,
    the sigma/rho flip, on each of Phi's three axes, whatever the metric.
    The raised volume form and the flipped Phi depend on the output point
    alone: the monitors compute them once per (state, pack) they are
    called with."""
    last = [None, None, None]   # state, pack, (eps, flipped Phi)

    def shared(geo, state, pack):
        if last[0] is not state or last[1] is not pack:
            eps = tr.raised_volume_form(geo, state.x, 2, pack)
            _, _, acc = circles.curve_tractors(geo, state, pack=pack)
            for ax in range(3):
                acc = tr.pair_flip(acc, ax)
            last[:] = state, pack, (eps, acc)
        return last[2]

    def monitor(kspec):
        def fn(geo, state, pack):
            eps, acc = shared(geo, state, pack)
            K = firstint._split_components(geo, kspec, state.x, pack)
            starK = tr.hodge_star(geo, K, state.x, pack=pack, eps=eps)
            return float(np.tensordot(starK, acc,
                                      axes=(range(3), range(3)))) / 6.0
        return fn
    return [monitor(k) for k in kspecs]


def _flat_circle_summary(traj):
    xe, _, _ = circles.flat_circle_solution(1.0, traj.ts, n=3)
    endpoint = float(np.abs(traj.xs[-1] - xe[-1]).max())
    drift = {k: float(v.max() - v.min()) for k, v in traj.monitored.items()}
    return {"endpoint_error": endpoint,
            "trajectory_error": float(np.abs(traj.xs - xe).max()),
            "conserved_drift": drift}


def _sphere_summary(traj):
    return {"off_axis_residual": float(np.abs(traj.xs[:, 1:]).max())}


def cmd_circle(cfg, args=None):
    circ = cfg.get("circle", {})
    preset = _circle_preset(cfg)
    chart_radius = None
    if preset is not None:
        geo, st, span, monitors, summarise, chart_bound = preset
    else:
        geo, entry = build_geometry(cfg)
        chart_bound = CHART_BOUND if entry.chart_radius is None else None
        if entry.chart_radius is not None:
            # the metric, and with it the state's acceleration, blows up
            # at the chart's boundary: the steps shrink toward it without
            # end, so the circle stops just inside
            chart_radius = (1.0 - CHART_MARGIN) * entry.chart_radius
        init = circ.get("initial")
        if init is None:
            raise ConfigError("circle needs an initial state or a preset")
        init = {"a": [0.0] * geo.n, **init}
        if any(len(init[k]) != geo.n for k in ("x", "u", "a")):
            raise ConfigError(f"the initial x, u and a need {geo.n} "
                              "coordinates each")
        with stage("circle initial state", x=init["x"]):
            st = circles.CurveState(init["x"], init["u"], init["a"])
        span = tuple(circ.get("t_span", (0.0, 1.0)))
        monitors = {}
        summarise = lambda traj: {}
    if span[0] == span[1]:
        raise ConfigError(f"circle.t_span {list(span)} has equal endpoints")
    for key, given in (("circle.initial", "initial" in circ),
                       ("geometry", "geometry" in cfg),
                       ("backend", "backend" in cfg)):
        if preset is not None and given:
            raise ConfigError(f"circle.preset {circ['preset']!r} sets its own "
                              f"geometry and initial state: {key} cannot "
                              "be given with it")
    tols = cfg.get("tolerances", {})
    traj = circles.integrate_circle(geo, st, span,
                                    rtol=tols.get("rtol", 1e-10),
                                    atol=tols.get("atol", 1e-12),
                                    num=circ.get("num", 200),
                                    monitors=monitors,
                                    chart_bound=chart_bound,
                                    chart_radius=chart_radius)
    header = (["t"] + [f"x{i+1}" for i in range(geo.n)]
              + [f"u{i+1}" for i in range(geo.n)]
              + [f"a{i+1}" for i in range(geo.n)]
              + ["AdotA", "unparam_residual"] + sorted(traj.monitored))
    rows = []
    for k in range(len(traj.ts)):
        row = ([float(traj.ts[k])] + [float(v) for v in traj.xs[k]]
               + [float(v) for v in traj.us[k]]
               + [float(v) for v in traj.accs[k]]
               + [float(traj.AdotA[k]), float(traj.unparam_residual[k])]
               + [float(traj.monitored[m][k]) for m in sorted(traj.monitored)])
        rows.append(row)
    csv_path = cfg.get("output", {}).get("csv_path")
    if csv_path:
        dump_csv(rows, header, csv_path)
    summary = {"status": traj.status,
               "AdotA_drift": float(np.abs(traj.AdotA
                                           - traj.AdotA[0]).max()),
               "max_unparam_residual": float(traj.unparam_residual.max())}
    summary.update(summarise(traj))
    if not csv_path:
        summary["csv_rows"] = len(rows)
    dump_json(summary, cfg.get("output", {}).get("path"))
    return 0


def cmd_invariance(cfg, args=None):
    geo, entry = build_geometry(cfg)
    emb = build_embedding(cfg, entry, geo)
    seed = int(cfg.get("seed", 0))
    inv = cfg.get("invariance", {})
    count = inv.get("count", 3)
    amp = inv.get("amplitude", 0.2)
    ctxs = _contexts(cfg, geo, emb, seed)
    base = subtractor.classify(ctxs)
    rows = []
    verdicts_stable = True
    for k in range(count):
        om = geolib.random_conformal_factor(geo.n, seed=seed + 17 * k + 1,
                                            amplitude=amp)
        geo2, upsilon = riemann.rescale(geo, om)
        ctxs2 = []
        for i, c in enumerate(ctxs):
            with stage(f"rescaling {k}, sample {i}", q=c.q):
                ctxs2.append(subtractor.SubTractorContext(geo2, emb, c.q))
        row = {"rescaling": k}
        with stage(f"rescaling {k}, sample 0", q=ctxs[0].q):
            row.update(subtractor.transformation_residuals(
                ctxs[0], ctxs2[0], om, upsilon))
        rep2 = subtractor.classify(ctxs2)
        row["verdicts_match"] = rep2.verdicts == base.verdicts
        verdicts_stable = verdicts_stable and row["verdicts_match"]
        rows.append(row)
    doc = {"residuals": rows, "verdicts": base.verdicts,
           "verdicts_stable": verdicts_stable}
    dump_json(doc, cfg.get("output", {}).get("path"))
    return 0


def cmd_scan(cfg, args=None):
    geo, entry = build_geometry(cfg)
    kspec = build_ky(cfg, entry, geo)
    sc = cfg.get("scan", {})
    region = sc.get("region", [[-1.0, 1.0]] * geo.n)
    if len(region) != geo.n:
        raise ConfigError(f"the scan region needs {geo.n} intervals")
    rep = firstint.zero_locus_scan(geo, kspec, region,
                                   grid=sc.get("grid", 21))
    dump_json(rep.to_dict(), cfg.get("output", {}).get("path"))
    return 0


def cmd_residuals(cfg, args=None):
    geo, entry = build_geometry(cfg)
    emb = build_embedding(cfg, entry, geo)
    seed = int(cfg.get("seed", 0))
    rows = []
    for i, ctx in enumerate(_contexts(cfg, geo, emb, seed)):
        with stage(f"sample {i}", q=ctx.q):
            rows.append({"point": [float(v) for v in ctx.q],
                         **_gcr_row(ctx)})
    dump_json({"residuals": rows}, cfg.get("output", {}).get("path"))
    return 0


COMMANDS = {"report": cmd_report, "circle": cmd_circle,
            "invariance": cmd_invariance, "scan": cmd_scan,
            "residuals": cmd_residuals}


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error (exit 4): argparse's own exit code 2
    is the one of a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


PARSER = _Parser(
    prog="tractorlab",
    description="conformal submanifold tractor calculus at desk scale")
PARSER.add_argument("command", choices=sorted(COMMANDS))
PARSER.add_argument("-c", "--config", help="JSON config file")
PARSER.add_argument("-s", "--set", action="append", default=[],
                    metavar="dotted.path=json",
                    help="override a config entry")


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
    except (ConfigError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 4
    try:
        return COMMANDS[args.command](cfg, args)
    except UnknownCatalogError as e:
        print(f"catalog error: {e}", file=sys.stderr)
        return 3
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 4
    except (NumericalError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        if getattr(e, "stage", None):
            print(f"stage: {e.stage}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
