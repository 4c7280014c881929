"""Every exported name resolves: each module's ``__all__`` and the names the
package re-exports; no module imports a name it never reads; and ``src/``
holds no public function that nothing in it calls."""
import ast
import importlib
import inspect
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import tractorlab


def test_module_all_names_resolve():
    missing = {}
    for info in pkgutil.iter_modules(tractorlab.__path__):
        mod = importlib.import_module(f"tractorlab.{info.name}")
        names = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        if names:
            missing[info.name] = names
    assert missing == {}


def test_package_names_are_their_modules_exports():
    """Each name the package re-exports is the object of that name in its
    defining module, and listed in that module's ``__all__``."""
    for name, obj in vars(tractorlab).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        mod = sys.modules[obj.__module__]
        assert name in mod.__all__, name
        assert getattr(mod, name) is obj, name


def _unused_imports(path):
    """Names ``path`` imports and never reads (as a loaded name or the base
    of an attribute), leaving out ``from __future__`` and ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= {c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant)}
    return sorted(imported - read - exported)


def test_no_unused_imports():
    """An AST scan of ``src/``, ``tests/`` and ``tools/``; a package
    ``__init__`` imports to re-export, so it is not scanned."""
    root = Path(__file__).resolve().parent.parent
    unused = {}
    for top in ("src", "tests", "tools"):
        for path in sorted((root / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            names = _unused_imports(path)
            if names:
                unused[str(path.relative_to(root))] = names
    assert unused == {}


# Public functions and methods of ``src/tractorlab`` that nothing in
# ``src/`` calls, each with the reason it stays.  Second routes and fixtures
# that only tests read live in ``tests/oracles.py`` instead.
UNREACHED = {
    "subtractor.mean_curvature_tractor":
        "ROADMAP item 14: `report` with a scale prints H^A and its verdicts",
    "tractor.parallel_transport":
        "ROADMAP item 12: the paper's characterisations as oracles",
    "firstint.conserved_quantity":
        "ROADMAP item 10: first integrals on the command line",
    "firstint.ky_residual":
        "ROADMAP item 10: a check on the configured Killing-Yano form",
    "submanifold.SigmaField.value":
        "perfbench/tracer.py rebinds it",
    "submanifold.SigmaField.jet1":
        "perfbench/tracer.py rebinds it; the tests' stencil oracle",
    "riemann.CurvaturePack.at":
        "ROADMAP items 6 and 8: the row of a stacked pack, for batched "
        "circles",
    "jets.Jet.log":
        "one of the jet algebra's elementary functions (exp, log, sqrt, "
        "sin, cos) that a JetField's function composes",
}


def _public_defs(tree):
    """(qualified name, node) of the module-level functions and the methods
    whose names do not start with an underscore."""
    for node in tree.body:
        items = ([(node.name + ".", item) for item in node.body]
                 if isinstance(node, ast.ClassDef) else [("", node)])
        for prefix, item in items:
            if (isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")):
                yield prefix + item.name, item


def _loads(node):
    """Names read in ``node``: loaded names and loaded attributes."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
    return out


def test_every_public_function_is_reached():
    """An AST scan of ``src/tractorlab``: each public function and method
    is read somewhere in ``src/`` outside its own definition, ``__all__``
    (a list of strings) and the package ``__init__``, unless ``UNREACHED``
    names it.  Names are matched without their module or class, so a
    method counts as reached when any attribute of its name is read."""
    src = Path(tractorlab.__file__).resolve().parent
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    loads = sum(map(_loads, trees.values()), Counter())
    defined, unreached = set(), set()
    for mod, tree in trees.items():
        for qual, node in _public_defs(tree):
            defined.add(f"{mod}.{qual}")
            if loads[node.name] == _loads(node)[node.name]:
                unreached.add(f"{mod}.{qual}")
    assert sorted(unreached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) - defined) == []


def _optional_point_data(node):
    """Parameters of the function ``node`` that make a second calling
    convention: a ``pack``, ``cov_da`` or ``eps`` that defaults to None,
    and ``x`` beside ``pack``."""
    args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
    defaults = ([None] * (len(node.args.posonlyargs + node.args.args)
                          - len(node.args.defaults))
                + node.args.defaults + node.args.kw_defaults)
    names = {a.arg for a in args}
    out = [a.arg for a, d in zip(args, defaults)
           if a.arg in ("pack", "cov_da", "eps")
           and isinstance(d, ast.Constant) and d.value is None]
    return out + (["x beside pack"] if {"x", "pack"} <= names else [])


def test_point_functions_take_the_callers_pack():
    """An AST scan of the tractor, circle and first-integral layers: no
    function there takes its curvature pack, acceleration rate or raised
    volume form as an option it builds when None, and none takes a point
    beside the pack that holds it."""
    src = Path(tractorlab.__file__).resolve().parent
    found = {}
    for mod in ("tractor", "circles", "firstint"):
        tree = ast.parse((src / f"{mod}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                bad = _optional_point_data(node)
                if bad:
                    found[f"{mod}.{node.name}"] = bad
    assert found == {}
