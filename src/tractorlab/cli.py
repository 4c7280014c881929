"""Command-line surface: classification reports, circle integration,
invariance tests and zero-locus scans with machine-readable output.

Exit codes: 0 success, 2 numerical failure (a ``NumericalError`` or a
``numpy.linalg.LinAlgError``), 3 unknown catalog name, 4 config schema error.
Any other exception is a defect and propagates with its traceback.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np
from jsonschema import Draft7Validator

from . import circles, firstint, geolib, riemann, submanifold, subtractor
from . import tractor as tr
from .tensors import (FD, ArrayField, DiffBackend, FieldHandle,
                      NumericalError, middle_block)

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["version"],
    "properties": {
        "version": {"const": 1},
        "seed": {"type": "integer"},
        "threads": {"type": "integer", "minimum": 1},
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
                           "rtol": {"type": "number"},
                           "atol": {"type": "number"}}},
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
                "num": {"type": "integer", "minimum": 2},
                "monitors": {"type": "array", "items": {"type": "string"}}}},
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
        with open(path) as f:
            cfg = json.load(f)
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not dotted.path=value")
        key, val = ov.split("=", 1)
        _set_dotted(cfg, key.split("."), json.loads(val))
    errs = sorted(Draft7Validator(SCHEMA).iter_errors(cfg),
                  key=lambda e: e.path)
    if errs:
        raise ConfigError("; ".join(e.message for e in errs))
    return cfg


def _set_dotted(d, keys, value):
    for k in keys[:-1]:
        d = d.setdefault(k, {})
    d[keys[-1]] = value


def build_geometry(cfg):
    entries = geolib.catalog()
    gspec = cfg.get("geometry", {"name": "euclidean"})
    name = gspec["name"]
    if name not in entries:
        raise UnknownCatalogError(f"unknown geometry {name!r}")
    geo = entries[name].make_geometry(**gspec.get("params", {}))
    backend = cfg.get("backend", {})
    if backend.get("mode") == "fd":
        geo = as_fd_geometry(geo, backend.get("step", 1e-3),
                             backend.get("step3", 1e-2))
    return geo, entries[name]


def as_fd_geometry(geo, step=1e-3, step3=1e-2):
    fd_metric = ArrayField(geo.metric.value,
                           backend=DiffBackend(mode=FD, step=step,
                                               step3=step3))
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
    return [subtractor.SubTractorContext(geo, emb, q)
            for q in sample_points(cfg, emb.m, seed)]


def _gcr_row(ctx):
    """Riemannian and (m >= 3) tractor Gauss-Codazzi-Ricci residuals."""
    row = {"gcr": list(map(float, submanifold.gauss_codazzi_ricci_residuals(
        ctx.geo, ctx.emb, ctx.q)))}
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
    for row, ctx in zip(doc["per_sample"], ctxs):
        row.update(_gcr_row(ctx))
        row["L_dual_route_residual"] = _max_diff(ctx.L_explicit(),
                                                 ctx.L_dual())
        if ctx.m >= 2:
            row["mu_weyl_residual"] = _max_diff(ctx.mu(), ctx.mu_weyl())
        if ctx.m >= 3:
            row["fialkow_weyl_residual"] = _max_diff(ctx.fialkow()[0],
                                                     ctx.fialkow_weyl())
        if ctx.m == 2:
            # Moebius-flatness diagnostic; not used in verdicts
            row["mobius_cotton_norm"] = float(
                np.abs(ctx.mobius_cotton()).max())
    doc["geometry"] = cfg.get("geometry")
    doc["embedding"] = cfg.get("embedding")
    doc["seed"] = seed
    # headline Fialkow coefficient (mean over samples)
    doc["fialkow_coefficient"] = float(np.mean(
        [r["fialkow_coefficient"] for r in doc["per_sample"]]))
    dump_json(doc, cfg.get("output", {}).get("path"))
    return 0


def _circle_preset(cfg):
    circ = cfg.get("circle", {})
    preset = circ.get("preset")
    if preset == "flat-circle":
        geo = geolib.euclidean(3)
        st = circles.CurveState([0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0])
        span = tuple(circ.get("t_span", (0.0, 10.0)))
        monitors = {}
        for (i, j) in [(0, 1), (0, 2), (1, 2)]:
            monitors[f"rotation{i}{j}"] = _rotation_monitor(i, j)
        return geo, st, span, monitors, _flat_circle_summary, None
    if preset == "sphere-great-circle":
        geo = geolib.sphere(4)
        st = circles.CurveState([0.2, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                [0.3, 0.0, 0.0, 0.0])
        span = tuple(circ.get("t_span", (0.0, 5.0)))
        # the chart coordinate leaves any bounded region when the circle
        # passes the projection point; truncate there
        return geo, st, span, {}, _sphere_summary, 100.0
    return None


def _rotation_monitor(i, j):
    """First integral <star K, Phi>/3! for a flat rotation Killing form;
    the Hodge star and the curve tractors share one curvature pack."""
    def monitor(geo, state):
        kspec = geolib.rotation_form(geo.n, i, j)
        K = firstint._split_components(geo, kspec, state.x)
        from .tensors import TensorValue, tractor_down
        ixs = tuple(tractor_down(geo.n) for _ in range(kspec.degree))
        F = tr.TractorFormObject(TensorValue(K, ixs, 0), geo)
        pack = riemann.curvature_pack(geo, state.x, order=2)
        starK = tr.hodge_star(F, state.x, pack=pack).data
        _, _, Phi = circles.curve_tractors(geo, state, pack=pack)
        low = middle_block(pack.g)
        acc = Phi
        for ax in range(3):
            acc = np.moveaxis(np.tensordot(low, acc, axes=([1], [ax])), 0, ax)
        for ax in range(3):
            acc = tr.pair_flip(acc, ax)
        return float(np.tensordot(starK, acc, axes=(range(3), range(3)))) / 6.0
    return monitor


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
    if preset is not None:
        geo, st, span, monitors, summarise, chart_bound = preset
    else:
        chart_bound = None
        geo, entry = build_geometry(cfg)
        init = circ.get("initial")
        if init is None:
            raise ConfigError("circle needs an initial state or a preset")
        init = {"a": [0.0] * geo.n, **init}
        if any(len(init[k]) != geo.n for k in ("x", "u", "a")):
            raise ConfigError(f"the initial x, u and a need {geo.n} "
                              "coordinates each")
        st = circles.CurveState(init["x"], init["u"], init["a"])
        span = tuple(circ.get("t_span", (0.0, 1.0)))
        monitors = {}
        summarise = lambda traj: {}
    tols = cfg.get("tolerances", {})
    traj = circles.integrate_circle(geo, st, span,
                                    rtol=tols.get("rtol", 1e-10),
                                    atol=tols.get("atol", 1e-12),
                                    num=circ.get("num", 200),
                                    monitors=monitors,
                                    chart_bound=chart_bound)
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
        row = {"rescaling": k}
        row.update(_transformation_residuals(geo, om, ctxs[0].q, emb))
        geo2, _ = riemann.rescale(geo, om)
        rep2 = subtractor.classify(
            [subtractor.SubTractorContext(geo2, emb, c.q) for c in ctxs])
        row["verdicts_match"] = rep2.verdicts == base.verdicts
        verdicts_stable = verdicts_stable and row["verdicts_match"]
        rows.append(row)
    doc = {"residuals": rows, "verdicts": base.verdicts,
           "verdicts_stable": verdicts_stable}
    dump_json(doc, cfg.get("output", {}).get("path"))
    return 0


def _transformation_residuals(geo, omega, q, emb):
    sub = submanifold.submanifold_pack(geo, emb, q)
    x = sub.x
    geoh, upsilon = riemann.rescale(geo, omega)
    pk = riemann.curvature_pack(geo, x, order=3)
    pkh = riemann.curvature_pack(geoh, x, order=3)
    ups = upsilon(x)
    oj = omega.jets(x, 2)
    dU = oj[2] / oj[0] - np.multiply.outer(oj[1], oj[1]) / oj[0] ** 2
    covU = dU - np.einsum("eab,e->ab", pk.Gamma, ups)
    ups_up = pk.gi @ ups
    pred = (pk.P - covU + np.multiply.outer(ups, ups)
            - 0.5 * float(ups @ ups_up) * pk.g)
    r_schouten = float(np.abs(pkh.P - pred).max())
    ff = submanifold.conformal_transform_check(geo, emb, omega, q)
    # 3-trans on the scale tractor of a fixed density (components sigma = 1)
    I_g = tr.make_tractor(geo.n, sigma=1.0, rho=-pk.J / geo.n)
    I_h = tr.thomas_D(geoh, FieldHandle(omega, (), 1), 1, x).data / geo.n
    M = tr.rescale_triple_matrix(pk, ups, variance="down")
    w0 = float(omega.value(x))
    predI = tr.rescale_component_weights(
        w0, tr.slot_weights(geo.n, "down")) * (M @ I_g)
    r_triple = float(np.abs(I_h - predI).max())
    return {"schouten_trans": r_schouten, "II_transformation": ff["II"],
            "H_transformation": ff["H"], "IIo_invariance": ff["IIo_invariance"],
            "tractor_triple_trans": r_triple}


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
    rows = [{"point": [float(v) for v in ctx.q], **_gcr_row(ctx)}
            for ctx in _contexts(cfg, geo, emb, seed)]
    dump_json({"residuals": rows}, cfg.get("output", {}).get("path"))
    return 0


COMMANDS = {"report": cmd_report, "circle": cmd_circle,
            "invariance": cmd_invariance, "scan": cmd_scan,
            "residuals": cmd_residuals}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tractorlab",
        description="conformal submanifold tractor calculus at desk scale")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("-c", "--config", help="JSON config file")
    parser.add_argument("-s", "--set", action="append", default=[],
                        metavar="dotted.path=json",
                        help="override a config entry")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; no effect")
    args = parser.parse_args(argv)
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
        return 2


if __name__ == "__main__":
    sys.exit(main())
