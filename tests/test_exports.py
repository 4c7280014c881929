"""Every exported name resolves: each module's ``__all__`` and the names the
package re-exports; and no module imports a name it never reads."""
import ast
import importlib
import inspect
import pkgutil
import sys
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
