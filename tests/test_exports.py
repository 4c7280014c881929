"""Every exported name resolves: each module's ``__all__`` and the names the
package re-exports."""
import importlib
import inspect
import pkgutil
import sys

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
